"""Canonical wire formats: envelopes, body field maps, ciphertext containers.

Everything that crosses a simulated channel serializes through this
module. The encoding is canonical — field tags strictly ascending,
exact length prefixes, no trailing bytes — so byte comparison is
meaningful and any single-bit change either fails to parse or parses
to a different value. Parsers reject non-canonical input outright.

Layouts:
  envelope   := magic(2) version(1) channel(1) str16(sender)
                str16(receiver) str16(msg_type) str16(cookie)
                str16(request_id) u32(body_len) body
  body       := repeat( u16(tag) u32(len) value ), tags strictly ascending
  ciphertext := key_role(1) nonce(12) u32(body_len) body tag(16)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, NamedTuple

from .errors import WireError

MAGIC = b"WP"
VERSION = 1

NONCE_LEN = 12
TAG_LEN = 16


class Channel(IntEnum):
    WEB = 1
    SMS = 2
    INTERBANK = 3


class KeyRole(IntEnum):
    """Which key family a ciphertext was produced under."""

    TIC_KEYED = 1
    SESSION_KEYED = 2
    PIN_WRAPPED = 3
    VAULT_KEYED = 4
    BANK_NET_KEYED = 5


# Wire byte -> member, for the parsers: a dict lookup is far cheaper than
# calling the enum, and a miss is a WireError rather than a ValueError.
_CHANNELS = {int(channel): channel for channel in Channel}
_KEY_ROLES = {int(role): role for role in KeyRole}


class F(IntEnum):
    """Body field tags. Wire order is numeric order."""

    STATUS = 0x0001
    REASON = 0x0002
    USERNAME = 0x0003
    PASSWORD = 0x0004
    WRAPPED_KEY = 0x0006
    WELCOME = 0x0007
    MODE = 0x0008
    ENC_TIC = 0x0009
    ENC_ORDER = 0x000A
    TXN_ID = 0x000B
    AMOUNT = 0x000C
    DECISION = 0x000D
    RESULT = 0x000E
    VAULT = 0x000F
    ACCOUNT_REF = 0x0010
    INVOICE_NUMBER = 0x0011
    MERCHANT_ID = 0x0012
    MERCHANT_BANK_ID = 0x0013
    CERT = 0x0014
    ENC_MERCHANT_INFO = 0x0015
    VERDICT = 0x0016
    CUSTOMER_REF = 0x0017
    NOTICE_ID = 0x0018
    CELL = 0x001A


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FIELD_HEAD = struct.Struct(">HI")  # a body field's u16 tag and u32 length


class Reader:
    """Bounds-checked cursor over immutable bytes.

    Integers unpack in place at the cursor, with no intermediate slice.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _claim(self, n: int) -> int:
        """Advance past n bytes that must exist; returns where they start."""
        pos = self.pos
        if n < 0 or pos + n > len(self.data):
            raise WireError(f"truncated input: wanted {n} bytes at offset {pos}")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        pos = self._claim(n)
        return self.data[pos : pos + n]

    def u8(self) -> int:
        return self.data[self._claim(1)]

    def u16(self) -> int:
        return _U16.unpack_from(self.data, self._claim(2))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self._claim(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.data, self._claim(8))[0]

    def str16(self) -> str:
        n = self.u16()
        pos = self._claim(n)
        try:
            return self.data[pos : pos + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid utf-8 in string field") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireError(f"{len(self.data) - self.pos} trailing bytes")


def u16(value: int) -> bytes:
    return _U16.pack(value)


def u32(value: int) -> bytes:
    return _U32.pack(value)


def u64(value: int) -> bytes:
    return _U64.pack(value)


def str16(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string field exceeds 65535 bytes")
    return _U16.pack(len(raw)) + raw


def encode_fields(fields: Dict[int, bytes]) -> bytes:
    """Canonical body: (tag, len, value) triples sorted by tag."""
    parts = []
    for tag in sorted(fields):
        value = fields[tag]
        if not 0 <= tag <= 0xFFFF:
            raise WireError(f"field tag {tag} out of range")
        parts += (_FIELD_HEAD.pack(tag, len(value)), value)
    return b"".join(parts)


def decode_fields(data: bytes) -> Dict[int, bytes]:
    """Strict inverse of encode_fields; rejects unordered or duplicate tags."""
    reader = Reader(data)
    fields: Dict[int, bytes] = {}
    last_tag = -1
    while reader.pos < len(data):
        if len(data) - reader.pos >= _FIELD_HEAD.size:
            tag, size = _FIELD_HEAD.unpack_from(data, reader.pos)
            reader.pos += _FIELD_HEAD.size
        else:
            # A truncated head: read the tag alone so that an out-of-order
            # tag is still reported before the missing length.
            tag, size = reader.u16(), None
        if tag <= last_tag:
            raise WireError(f"field tag {tag} out of canonical order")
        last_tag = tag
        fields[tag] = reader.take(reader.u32() if size is None else size)
    return fields


@dataclass(frozen=True)
class Ciphertext:
    """Authenticated ciphertext with its key-role discriminator."""

    role: KeyRole
    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        if len(self.nonce) != NONCE_LEN or len(self.tag) != TAG_LEN:
            raise WireError("ciphertext nonce/tag length wrong")
        return (
            bytes([self.role]) + self.nonce + u32(len(self.body)) + self.body + self.tag
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ciphertext":
        reader = Reader(data)
        role_byte = reader.u8()
        role = _KEY_ROLES.get(role_byte)
        if role is None:
            raise WireError(f"unknown key role {role_byte}")
        nonce = reader.take(NONCE_LEN)
        body = reader.take(reader.u32())
        tag = reader.take(TAG_LEN)
        reader.expect_end()
        return cls(role=role, nonce=nonce, body=body, tag=tag)


@dataclass(frozen=True)
class Envelope:
    """One message on a simulated channel, as its sender wrote it."""

    sender: str
    receiver: str
    channel: Channel
    msg_type: str
    body: Dict[int, bytes] = field(default_factory=dict)
    cookie: str = ""
    request_id: str = ""

    def to_bytes(self) -> bytes:
        if self.channel not in _CHANNELS:
            raise WireError(f"unknown channel {self.channel}")
        body = encode_fields(self.body)
        return b"".join((
            MAGIC,
            bytes((VERSION, self.channel)),
            str16(self.sender),
            str16(self.receiver),
            str16(self.msg_type),
            str16(self.cookie),
            str16(self.request_id),
            _U32.pack(len(body)),
            body,
        ))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        header = peek_header(data)
        return cls(header.sender, header.receiver, header.channel, header.msg_type,
                   decode_fields(header.raw_body), header.cookie, header.request_id)


class Header(NamedTuple):
    """Header fields of an envelope plus its undecoded body bytes.

    The bus reads it to find the body bytes a tamper edits, and for bytes
    whose body does not decode, so that a message with a corrupted body
    still reaches its receiver, which gets the strict decoder's rejection.
    """

    sender: str
    receiver: str
    channel: Channel
    msg_type: str
    cookie: str
    request_id: str
    raw_body: bytes


def peek_header(data: bytes) -> Header:
    """Parse and validate an envelope header; the body stays undecoded."""
    reader = Reader(data)
    if reader.take(2) != MAGIC:
        raise WireError("bad envelope magic")
    version = reader.u8()
    if version != VERSION:
        raise WireError(f"unsupported envelope version {version}")
    channel_byte = reader.u8()
    channel = _CHANNELS.get(channel_byte)
    if channel is None:
        raise WireError(f"unknown channel {channel_byte}")
    sender = reader.str16()
    receiver = reader.str16()
    msg_type = reader.str16()
    cookie = reader.str16()
    request_id = reader.str16()
    raw_body = reader.take(reader.u32())
    reader.expect_end()
    return Header(sender, receiver, channel, msg_type, cookie, request_id, raw_body)
