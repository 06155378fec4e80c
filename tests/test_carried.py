"""What a send carries to delivery against the parser's reading of its bytes.

An actor's send puts the header built from the envelope's own fields, a
copy of its body fields and the digest on the wire next to the encoded
bytes, and delivery hands those fields over without decoding. The parser
stays the oracle: the carried header and fields must equal what
``peek_header`` and ``decode_fields`` read from the same bytes, so must
every wire record's ``fields`` (None exactly where the decoder rejects the
body), and a send the parser would reject must raise its WireError.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ticpay.errors import WireError
from ticpay.netsim import Actor, Simulation, digest16
from ticpay.scenarios import build_world, find_bundled, list_bundled, load_spec
from ticpay.wire import Channel, Envelope, decode_fields, peek_header

from test_blindness import attacked_twoway_spec


def sent(env: Envelope):
    """(data, header, fields, digest) that one ctx.send(env) puts on the heap."""
    sim = Simulation()
    sim.add_actor(Actor())
    sim._ctxs["actor"].send(env)
    (_at, _tie, kind, payload), = sim._heap
    assert kind == "send"
    return payload


header_text = st.text(max_size=12)  # any code point but lone surrogates
bodies = st.dictionaries(st.integers(0, 0xFFFF), st.binary(max_size=12), max_size=6)
envelopes = st.builds(
    Envelope, sender=header_text, receiver=header_text,
    channel=st.sampled_from(list(Channel) + [int(c) for c in Channel]),
    msg_type=header_text, body=bodies, cookie=header_text, request_id=header_text,
)


@given(envelopes)
@example(Envelope("", "", Channel.SMS, "", {}))
@example(Envelope("é", "\U0001f600", Channel.INTERBANK, "ñ", {0: b"", 0xFFFF: b"\x00"},
                  cookie="\x00", request_id="日本"))
def test_send_carries_what_the_parser_reads(env):
    data, header, fields, digest = sent(env)
    assert data == env.to_bytes()
    parsed = peek_header(data)
    assert header == parsed
    assert type(header.channel) is Channel
    assert type(header.raw_body) is bytes
    assert list(fields) == list(decode_fields(parsed.raw_body).items())
    assert digest == digest16(data)


def test_the_carried_fields_are_a_copy():
    body = {2: b"two", 1: b"one"}
    env = Envelope("a", "b", Channel.WEB, "m", body)
    data, header, fields, _ = sent(env)
    body[3] = b"added after the send"
    assert fields == ((1, b"one"), (2, b"two"))
    assert decode_fields(header.raw_body) == dict(fields)


@pytest.mark.parametrize("env", [
    Envelope("a", "b", 0, "m"),
    Envelope("a", "b", 4, "m", {1: b"x"}),
    Envelope("a", "b", 255, "m"),
    Envelope("a" * 0x10000, "b", Channel.WEB, "m"),
    Envelope("a", "b", Channel.SMS, "m", cookie="é" * 0x8000),
    Envelope("a", "b", Channel.WEB, "m", {0x10000: b""}),
], ids=["channel-0", "channel-4", "channel-255", "long-sender", "long-cookie", "tag"])
def test_send_raises_the_parsers_error(env):
    with pytest.raises(WireError) as parser:
        peek_header(env.to_bytes())
    with pytest.raises(WireError) as send:
        sent(env)
    assert str(send.value) == str(parser.value)


class Tap:
    """Wraps an actor's on_message to keep every envelope delivered to it."""

    def __init__(self, actor, delivered):
        self.on_message, self.delivered = actor.on_message, delivered

    def __call__(self, ctx, env):
        self.delivered.append(env)
        self.on_message(ctx, env)


ATTACKED = "attacked-twoway"


def worlds(name):
    """The bundled scenario `name` at seeds 0-9, or the attacked two-way world."""
    if name == ATTACKED:
        yield build_world(attacked_twoway_spec())
        return
    for seed in range(10):
        yield build_world(replace(load_spec(find_bundled(name)), seed=seed))


def decoded_body(data: bytes):
    """The body fields the parser reads from `data`, or None if it rejects them."""
    try:
        return tuple(decode_fields(peek_header(data).raw_body).items())
    except WireError:
        return None


@pytest.mark.parametrize("name", [entry["name"] for entry in list_bundled()] + [ATTACKED])
def test_every_delivered_body_is_what_its_wire_bytes_decode_to(name):
    for world in worlds(name):
        sim, delivered = world.sim, []
        for actor in sim._actors.values():
            actor.on_message = Tap(actor, delivered)
        sim.run_to_quiescence()

        events = sim.trace.events
        by_digest = {}
        for record in sim.wire_log:
            assert events[record.seq - 1].body_digest == digest16(record.data)
            body = decoded_body(record.data)
            assert record.tags == (None if body is None else tuple(tag for tag, _ in body))
            by_digest[digest16(record.data)] = record.data
        assert delivered
        if name == ATTACKED:  # its second tamper leaves a body that does not decode
            assert None in [record.tags for record in sim.wire_log]
        for env in delivered:
            data = by_digest[events[env.seq - 1].body_digest]
            parsed = Envelope.from_bytes(data)
            assert replace(env, seq=None, delivered_at=None) == parsed
            assert list(env.body.items()) == list(parsed.body.items())
            assert all(type(value) is bytes for value in env.body.values())
