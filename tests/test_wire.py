"""Wire format: canonical encoding, strict parsing, no silent salvage."""

from __future__ import annotations

import pytest
from hypothesis import given
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
    # bus metadata is assigned at delivery, never parsed from the wire
    assert back.seq is None and back.delivered_at is None


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
