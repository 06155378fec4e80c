"""What the bus carries from send to delivery against the parser's reading
of the bytes.

For any envelope the encoder accepts, a send puts that very envelope on the
heap next to its bytes and their digest, and the parser reads the bytes
back to an equal envelope. Delivery hands the carried envelope over without
decoding, so in every bundled world each delivered envelope must equal what
``Envelope.from_bytes`` reads from its wire bytes, each envelope handed to
``on_malformed`` must hold the header ``peek_header`` reads and an empty
body, and every wire record's ``tags`` must be the decoded body's (None
exactly where the decoder rejects the body).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ticpay.errors import WireError
from ticpay.netsim import Actor, Ctx, Simulation, digest16
from ticpay.scenarios import build_world, find_bundled, list_bundled, load_spec
from ticpay.wire import Channel, Envelope, decode_fields, peek_header

from test_blindness import attacked_twoway_spec


def sent(env: Envelope):
    """(data, envelope, error, digest) that one ctx.send(env) puts on the heap."""
    sim = Simulation()
    sim.add_actor(Actor())
    Ctx(sim, "actor").send(env)
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
@example(Envelope("", "", Channel.SMS, ""))
@example(Envelope("é", "\U0001f600", Channel.INTERBANK, "ñ", {0xFFFF: b"\x00", 0: b""},
                  cookie="\x00", request_id="日本"))
def test_send_carries_what_the_parser_reads(env):
    data, carried, error, digest = sent(env)
    assert carried is env and error is None
    assert data == env.to_bytes()
    assert Envelope.from_bytes(data) == env
    assert digest == digest16(data)


@pytest.mark.parametrize("env", [
    Envelope("a", "b", 0, "m"),
    Envelope("a", "b", 4, "m", {1: b"x"}),
    Envelope("a", "b", 255, "m"),
    Envelope("a" * 0x10000, "b", Channel.WEB, "m"),
    Envelope("a", "b", Channel.SMS, "m", cookie="é" * 0x8000),
    Envelope("a", "b", Channel.WEB, "m", {0x10000: b""}),
], ids=["channel-0", "channel-4", "channel-255", "long-sender", "long-cookie", "tag"])
def test_send_raises_the_parsers_error(env):
    with pytest.raises(WireError) as send:
        sent(env)
    if env.channel not in list(Channel):
        # The parser reads an unknown channel byte; the encoder rejects it
        # with the parser's error. Nothing else the encoder rejects fits in
        # the wire format at all.
        data = bytearray(replace(env, channel=Channel.WEB).to_bytes())
        data[3] = env.channel
        with pytest.raises(WireError) as parser:
            peek_header(bytes(data))
        assert str(send.value) == str(parser.value)


class Tap:
    """Wraps an actor's handler to keep each envelope handed to it, with
    the trace event its delivery recorded."""

    def __init__(self, sim, handler, handed):
        self.sim, self.handler, self.handed = sim, handler, handed

    def __call__(self, ctx, env):
        self.handed.append((self.sim.trace.events[-1], env))
        self.handler(ctx, env)


ATTACKED = "attacked-twoway"


def worlds(name):
    """The bundled scenario `name` at seeds 0-9, or the attacked two-way world."""
    if name == ATTACKED:
        yield build_world(attacked_twoway_spec())
        return
    for seed in range(10):
        yield build_world(replace(load_spec(find_bundled(name)), seed=seed))


def decoded_tags(data: bytes):
    """The body tags the parser reads from `data`, or None if it rejects them."""
    try:
        return tuple(decode_fields(peek_header(data).raw_body))
    except WireError:
        return None


@pytest.mark.parametrize("name", [entry["name"] for entry in list_bundled()] + [ATTACKED])
def test_every_delivered_body_is_what_its_wire_bytes_decode_to(name):
    for world in worlds(name):
        sim, delivered, malformed = world.sim, [], []
        for actor in sim._actors.values():
            actor.on_message = Tap(sim, actor.on_message, delivered)
            actor.on_malformed = Tap(sim, actor.on_malformed, malformed)
        sim.run_to_quiescence()

        events = sim.trace.events
        by_digest = {}
        for record in sim.wire_log:
            assert events[record.seq - 1].body_digest == digest16(record.data)
            assert record.tags == decoded_tags(record.data)
            by_digest[digest16(record.data)] = record.data
        assert delivered
        for event, env in delivered:
            assert event.kind == "deliver"
            assert env == Envelope.from_bytes(by_digest[event.body_digest])
            assert all(type(value) is bytes for value in env.body.values())
        if name == ATTACKED:  # its second tamper leaves a body that does not decode
            assert None in [record.tags for record in sim.wire_log]
            assert malformed
        headers = {peek_header(record.data)[:6] for record in sim.wire_log
                   if record.tags is None}
        for event, env in malformed:
            assert event.kind == "reject-parse" and env.body == {}
            assert (env.sender, env.receiver, env.channel, env.msg_type, env.cookie,
                    env.request_id) in headers
