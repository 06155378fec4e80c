"""Hybrid encryption: session keys, PIN key wrapping, TIC-keyed payloads.

The scheme is symmetric end to end. Each login mints a fresh session
secret key, transported to the client wrapped under a key derived from
the 64-bit account PIN. The client encrypts the chosen TIC under the
session key and the payment order under a key derived from that same
TIC; the server reverses the two layers in fixed order (TIC first, then
the order under the verified TIC).

All encryption goes through a pluggable authenticated cipher. The
default is AES-256-GCM. A deliberately transparent "null" cipher is
bundled as a negative control so the leakage scanner can be shown to
detect plaintext; it must never be used in a real protocol run.

Associated data binds every ciphertext to its message role and session
handle, so a ciphertext captured in one slot cannot be replayed into
another.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Tuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import IntegrityFailure, RoleMismatch
from .payment import PaymentOrder
from .wire import Ciphertext, KeyRole, NONCE_LEN, TAG_LEN, str16, Reader

KEY_LEN = 32
PIN_LEN = 8  # 64-bit shared secret

_KDF_SALT = b"ticpay.kdf.v1"


def _kdf(secret: bytes, label: bytes, length: int = KEY_LEN) -> bytes:
    """HKDF-SHA256 (extract + single-block expand), domain-separated by label."""
    prk = hmac.new(_KDF_SALT, secret, hashlib.sha256).digest()
    okm = hmac.new(prk, label + b"\x01", hashlib.sha256).digest()
    return okm[:length]


@dataclass(frozen=True)
class Pin:
    """64-bit secret shared between a client and its bank record."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != PIN_LEN:
            raise ValueError(f"PIN must be exactly {PIN_LEN} bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Pin":
        return cls(bytes.fromhex(text))


@dataclass(frozen=True)
class SecretKey:
    """Per-session symmetric key material."""

    key_bytes: bytes
    session_id: str

    def __post_init__(self):
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"secret key must be {KEY_LEN} bytes")


def _code_value(tic) -> str:
    """Accept a TicCode or its raw string value."""
    return getattr(tic, "value", tic)


def derive_shared_key(secret: bytes, label: str) -> bytes:
    """Key for a pre-shared secret in a named context (registration secrets)."""
    return _kdf(secret, label.encode("utf-8"))


def derive_tic_key(tic) -> bytes:
    """Full-length cipher key from a TIC code (TIC length != key length)."""
    return _kdf(_code_value(tic).encode("utf-8"), b"tic-key")


def derive_pin_key(pin: Pin) -> bytes:
    """Wrap key from the 64-bit PIN (too short to use as a cipher key directly)."""
    return _kdf(pin.value, b"pin-wrap")


class NonceSequence:
    """Counter nonce source; never repeats within a run."""

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> bytes:
        value = self._next
        self._next += 1
        return value.to_bytes(NONCE_LEN, "big")


class AesGcmCipher:
    """AES-256-GCM, the default authenticated cipher."""

    name = "aes-gcm"

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> Tuple[bytes, bytes]:
        sealed = AESGCM(key).encrypt(nonce, plaintext, ad)
        return sealed[:-TAG_LEN], sealed[-TAG_LEN:]

    def open(self, key: bytes, nonce: bytes, body: bytes, tag: bytes, ad: bytes) -> bytes:
        try:
            return AESGCM(key).decrypt(nonce, body + tag, ad)
        except InvalidTag as exc:
            raise IntegrityFailure("authenticated decryption failed") from exc


class NullCipher:
    """Identity 'cipher' for leakage-scan negative controls only.

    Leaves plaintext visible on the wire and verifies nothing; exists to
    prove the trace scanner detects plaintext secrets. Never use it in a
    protocol run whose security is under test.
    """

    name = "null"

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> Tuple[bytes, bytes]:
        return plaintext, b"\x00" * TAG_LEN

    def open(self, key: bytes, nonce: bytes, body: bytes, tag: bytes, ad: bytes) -> bytes:
        return body


_CIPHERS = {cipher.name: cipher for cipher in (AesGcmCipher(), NullCipher())}
DEFAULT_CIPHER = AesGcmCipher.name


def get_cipher(name: str):
    try:
        return _CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher {name!r}; choose one of {sorted(_CIPHERS)}")


def _ad(label: str, context: str) -> bytes:
    return f"{label}|{context}".encode("utf-8")


class CryptoSuite:
    """All protocol encryption operations over one cipher and nonce source."""

    def __init__(self, cipher=DEFAULT_CIPHER, nonces: NonceSequence | None = None):
        self.cipher = get_cipher(cipher) if isinstance(cipher, str) else cipher
        self.nonces = nonces if nonces is not None else NonceSequence()

    def _seal(self, role: KeyRole, key: bytes, plaintext: bytes, ad: bytes) -> Ciphertext:
        nonce = self.nonces.next()
        body, tag = self.cipher.seal(key, nonce, plaintext, ad)
        return Ciphertext(role=role, nonce=nonce, body=body, tag=tag)

    def _open(self, ct: Ciphertext, role: KeyRole, key: bytes, ad: bytes) -> bytes:
        if ct.role != role:
            raise RoleMismatch(f"expected {role.name} ciphertext, got {ct.role.name}")
        return self.cipher.open(key, ct.nonce, ct.body, ct.tag, ad)

    # -- session key transport -------------------------------------------

    def wrap_secret_key(self, key: SecretKey, pin: Pin, session_handle: str) -> Ciphertext:
        plaintext = str16(key.session_id) + key.key_bytes
        return self._seal(
            KeyRole.PIN_WRAPPED, derive_pin_key(pin), plaintext, _ad("key-wrap", session_handle)
        )

    def unwrap_secret_key(self, wrapped: Ciphertext, pin: Pin, session_handle: str) -> SecretKey:
        plaintext = self._open(
            wrapped, KeyRole.PIN_WRAPPED, derive_pin_key(pin), _ad("key-wrap", session_handle)
        )
        reader = Reader(plaintext)
        session_id = reader.str16()
        key_bytes = reader.take(KEY_LEN)
        reader.expect_end()
        return SecretKey(key_bytes=key_bytes, session_id=session_id)

    # -- TIC transport under the session key ------------------------------

    def encrypt_tic(self, tic, session_key: SecretKey, session_handle: str) -> Ciphertext:
        return self._seal(
            KeyRole.SESSION_KEYED,
            session_key.key_bytes,
            _code_value(tic).encode("utf-8"),
            _ad("tic", session_handle),
        )

    def decrypt_tic(self, ct: Ciphertext, session_key: SecretKey, session_handle: str) -> str:
        plaintext = self._open(
            ct, KeyRole.SESSION_KEYED, session_key.key_bytes, _ad("tic", session_handle)
        )
        try:
            return plaintext.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IntegrityFailure("decrypted TIC is not valid text") from exc

    # -- payment order under the TIC-derived key ---------------------------

    def encrypt_payment(self, order: PaymentOrder, tic, session_handle: str) -> Ciphertext:
        return self._seal(
            KeyRole.TIC_KEYED, derive_tic_key(tic), order.to_bytes(), _ad("order", session_handle)
        )

    def decrypt_payment(self, ct: Ciphertext, tic, session_handle: str) -> PaymentOrder:
        plaintext = self._open(
            ct, KeyRole.TIC_KEYED, derive_tic_key(tic), _ad("order", session_handle)
        )
        return PaymentOrder.from_bytes(plaintext)

    # -- generic blobs (vault entries, inter-bank payloads) ----------------

    def seal_blob(self, role: KeyRole, key: bytes, plaintext: bytes, ad_label: str) -> Ciphertext:
        return self._seal(role, key, plaintext, _ad("blob", ad_label))

    def open_blob(self, ct: Ciphertext, role: KeyRole, key: bytes, ad_label: str) -> bytes:
        return self._open(ct, role, key, _ad("blob", ad_label))
