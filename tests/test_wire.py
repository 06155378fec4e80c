"""Wire format: canonical encoding, strict parsing, no silent salvage."""

from __future__ import annotations

import struct
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ticpay.errors import WireError
from ticpay.wire import (
    MAGIC,
    VERSION,
    Channel,
    Ciphertext,
    Envelope,
    F,
    KeyRole,
    Reader,
    decode_fields,
    encode_fields,
    peek_header,
    str16,
    u16,
    u32,
)


def sample_envelope(**overrides) -> Envelope:
    fields = dict(
        sender="alice",
        receiver="cbank",
        channel=Channel.WEB,
        msg_type="login_request",
        body={int(F.USERNAME): b"alice", int(F.PASSWORD): b"hunter2"},
        cookie="c0ffee",
        request_id="",
    )
    fields.update(overrides)
    return Envelope(**fields)


def test_envelope_round_trip():
    env = sample_envelope()
    back = Envelope.from_bytes(env.to_bytes())
    assert back.sender == "alice"
    assert back.receiver == "cbank"
    assert back.channel is Channel.WEB
    assert back.msg_type == "login_request"
    assert back.cookie == "c0ffee"
    assert back.request_id == ""
    assert back.body == {int(F.USERNAME): b"alice", int(F.PASSWORD): b"hunter2"}
    assert back == env
    # the bus hands one envelope from sender to receiver, so none may change it
    with pytest.raises(FrozenInstanceError):
        back.sender = "mallory"


def test_envelope_byte_layout_is_fixed():
    # Hand-assembled expectation; any layout drift breaks saved traces.
    env = Envelope(
        sender="a",
        receiver="b",
        channel=Channel.SMS,
        msg_type="ping",
        body={7: b"xy"},
        cookie="",
        request_id="r1",
    )
    body = u16(7) + u32(2) + b"xy"
    expected = (
        MAGIC
        + bytes([VERSION, 2])
        + str16("a")
        + str16("b")
        + str16("ping")
        + str16("")
        + str16("r1")
        + u32(len(body))
        + body
    )
    assert env.to_bytes() == expected
    assert peek_header(expected).raw_body == body


def test_every_truncation_is_rejected():
    data = sample_envelope().to_bytes()
    for cut in range(len(data)):
        with pytest.raises(WireError):
            Envelope.from_bytes(data[:cut])


def test_trailing_bytes_are_rejected():
    data = sample_envelope().to_bytes()
    with pytest.raises(WireError, match="trailing"):
        Envelope.from_bytes(data + b"\x00")


def test_bad_magic_version_channel():
    data = bytearray(sample_envelope().to_bytes())
    for idx, message in ((0, "magic"), (2, "version"), (3, "channel")):
        corrupt = bytearray(data)
        corrupt[idx] ^= 0xFF
        with pytest.raises(WireError, match=message):
            Envelope.from_bytes(bytes(corrupt))


def test_field_encoding_is_canonical():
    a = encode_fields({3: b"z", 1: b"a", 2: b""})
    b = encode_fields({1: b"a", 2: b"", 3: b"z"})
    assert a == b
    assert decode_fields(a) == {1: b"a", 2: b"", 3: b"z"}


def test_decode_rejects_unordered_and_duplicate_tags():
    unordered = u16(5) + u32(1) + b"x" + u16(3) + u32(0)
    with pytest.raises(WireError, match="order"):
        decode_fields(unordered)
    duplicate = u16(5) + u32(0) + u16(5) + u32(0)
    with pytest.raises(WireError, match="order"):
        decode_fields(duplicate)


def test_field_tag_range_enforced():
    with pytest.raises(WireError, match="tag"):
        encode_fields({0x10000: b""})
    with pytest.raises(WireError, match="tag"):
        encode_fields({-1: b""})


def test_str16_length_cap():
    assert str16("") == b"\x00\x00"
    with pytest.raises(WireError):
        str16("x" * 65536)


def test_reader_is_bounds_checked():
    r = Reader(b"\x00\x01\x02")
    assert r.u8() == 0
    assert r.u16() == 0x0102
    with pytest.raises(WireError, match="truncated"):
        r.u8()
    r2 = Reader(b"abc")
    r2.take(2)
    with pytest.raises(WireError, match="trailing"):
        r2.expect_end()


def test_reader_rejects_invalid_utf8():
    r = Reader(u16(2) + b"\xff\xfe")
    with pytest.raises(WireError, match="utf-8"):
        r.str16()


def test_ciphertext_round_trip_and_strictness():
    ct = Ciphertext(role=KeyRole.TIC_KEYED, nonce=bytes(12), body=b"abc", tag=bytes(16))
    data = ct.to_bytes()
    back = Ciphertext.from_bytes(data)
    assert back == ct
    with pytest.raises(WireError):
        Ciphertext.from_bytes(data + b"\x00")
    bad_role = bytearray(data)
    bad_role[0] = 99
    with pytest.raises(WireError):
        Ciphertext.from_bytes(bytes(bad_role))
    with pytest.raises(WireError):
        Ciphertext.from_bytes(data[:-1])


def test_peek_header_matches_full_parse():
    env = sample_envelope(request_id="rq9")
    data = env.to_bytes()
    header = peek_header(data)
    assert (header.sender, header.receiver, header.msg_type) == ("alice", "cbank", "login_request")
    assert header.channel is Channel.WEB
    assert header.cookie == "c0ffee"
    assert header.request_id == "rq9"
    # header keeps the body undecoded so routing survives body corruption
    assert header.raw_body == encode_fields(env.body)
    garbled = data[: len(data) - len(header.raw_body)] + b"\xff" * len(header.raw_body)
    assert peek_header(garbled).msg_type == "login_request"
    with pytest.raises(WireError):
        Envelope.from_bytes(garbled)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=40),
        max_size=8,
    )
)
def test_field_codec_round_trips(fields):
    assert decode_fields(encode_fields(fields)) == fields


# -- robustness: any input parses or raises WireError, with the same message ----
#
# The reference is the slice-based reader the in-place one replaced: every
# read slices its bytes first, and decode_fields reads a field's tag and
# length separately. The parsers must agree with it on every input, down
# to the text of the WireError.


class ReferenceReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise WireError(f"truncated input: wanted {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def str16(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid utf-8 in string field") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireError(f"{len(self.data) - self.pos} trailing bytes")


def reference_decode_fields(data: bytes):
    reader = ReferenceReader(data)
    fields = {}
    last_tag = -1
    while reader.pos < len(data):
        tag = reader.u16()
        if tag <= last_tag:
            raise WireError(f"field tag {tag} out of canonical order")
        last_tag = tag
        fields[tag] = reader.take(reader.u32())
    return fields


def reference_peek_header(data: bytes):
    reader = ReferenceReader(data)
    if reader.take(2) != MAGIC:
        raise WireError("bad envelope magic")
    version = reader.u8()
    if version != VERSION:
        raise WireError(f"unsupported envelope version {version}")
    channel_byte = reader.u8()
    try:
        channel = Channel(channel_byte)
    except ValueError as exc:
        raise WireError(f"unknown channel {channel_byte}") from exc
    sender, receiver, msg_type, cookie, request_id = (reader.str16() for _ in range(5))
    raw_body = reader.take(reader.u32())
    reader.expect_end()
    return (sender, receiver, channel, msg_type, cookie, request_id, raw_body)


def reference_ciphertext(data: bytes):
    reader = ReferenceReader(data)
    role_byte = reader.u8()
    try:
        role = KeyRole(role_byte)
    except ValueError as exc:
        raise WireError(f"unknown key role {role_byte}") from exc
    nonce = reader.take(12)
    body = reader.take(reader.u32())
    tag = reader.take(16)
    reader.expect_end()
    return (role, nonce, body, tag)


def outcome(parse, data: bytes):
    """What parse makes of data: its result, or its WireError's text.

    Any other exception (struct.error, IndexError, ValueError) propagates
    and fails the test.
    """
    try:
        return parse(data)
    except WireError as exc:
        return f"WireError: {exc}"


def check_parsers(data: bytes) -> None:
    header = outcome(peek_header, data)
    assert (header if isinstance(header, str) else tuple(header)) == \
        outcome(reference_peek_header, data)
    assert outcome(decode_fields, data) == outcome(reference_decode_fields, data)
    ct = outcome(Ciphertext.from_bytes, data)
    assert (ct if isinstance(ct, str) else (ct.role, ct.nonce, ct.body, ct.tag)) == \
        outcome(reference_ciphertext, data)


VALID_INPUTS = [
    sample_envelope(request_id="rq9").to_bytes(),
    encode_fields({1: b"a", 0x0102: b"", 0xFFFF: b"xyz"}),
    Ciphertext(role=KeyRole.BANK_NET_KEYED, nonce=bytes(range(12)), body=b"sealed",
               tag=bytes(16)).to_bytes(),
]

# Arbitrary bytes, and bytes behind a valid magic and version so that the
# header parser gets past its first checks.
arbitrary = st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=80).map(lambda tail: MAGIC + bytes([VERSION]) + tail),
)


@given(arbitrary)
# A field head cut short after an out-of-order tag: the order is reported.
@example(u16(5) + u32(0) + u16(3) + b"\x00")
def test_parsers_take_arbitrary_bytes(data):
    check_parsers(data)


@given(st.sampled_from(VALID_INPUTS), st.data())
def test_parsers_take_one_byte_mutations_of_valid_input(valid, data):
    index = data.draw(st.integers(0, len(valid) - 1))
    value = data.draw(st.integers(0, 255))
    mutated = valid[:index] + bytes([value]) + valid[index + 1:]
    check_parsers(mutated)


@pytest.mark.parametrize("valid", VALID_INPUTS)
def test_parsers_take_every_truncation_of_valid_input(valid):
    for cut in range(len(valid) + 1):
        check_parsers(valid[:cut])
