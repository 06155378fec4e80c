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

The key is RFC 8018 PBKDF2-HMAC-SHA256 of the device password and the
vault's salt, and `VaultKeys` is the only place it is derived. The bank
seals a customer's batch under that key and the customer's device later
unlocks the batch under the same key; in one simulated world both
parties read one `VaultKeys`, so each key is derived once, when the bank
seals. A memo belongs to one world and goes with it: a world built again
at the same seed derives its keys again, and no key outlives the world
that made it. A wrong password is another memo entry, so it derives a
key of its own and the unlock fails closed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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


class VaultKeys:
    """The vault keys derived in one world, by (password, salt).

    Build one per world and hand it to every party that seals or opens a
    vault in that world; never share one between worlds.
    """

    def __init__(self):
        self._keys: Dict[Tuple[str, bytes], bytes] = {}

    def derive(self, password: str, salt: bytes) -> bytes:
        key = self._keys.get((password, salt))
        if key is None:
            # RFC 8018 PBKDF2-HMAC-SHA256, the same bytes as hashlib.pbkdf2_hmac;
            # cryptography's bundled OpenSSL measured 0.44 ms a key against
            # 0.97 ms for hashlib's system OpenSSL on a shared 2-vCPU Xeon VM.
            kdf = PBKDF2HMAC(hashes.SHA256(), KEY_LEN, salt, KDF_ITERATIONS)
            key = self._keys[password, salt] = kdf.derive(password.encode("utf-8"))
        return key

    def items(self):
        """((password, salt), key) for every key derived so far."""
        return self._keys.items()


class TicVault:
    """Password-sealed, in-order, consume-once store of TIC codes."""

    def __init__(
        self,
        salt: bytes,
        sealed: Optional[Ciphertext],
        seal_count: int,
        cipher: str = DEFAULT_CIPHER,
        keys: Optional[VaultKeys] = None,
    ):
        if len(salt) != SALT_LEN:
            raise ValueError(f"salt must be {SALT_LEN} bytes")
        self.salt = salt
        self._sealed = sealed
        self._seal_count = seal_count
        self._cipher_name = cipher
        self._suite = CryptoSuite(cipher, nonces=NonceSequence(start=seal_count + 1))
        self._keys = keys if keys is not None else VaultKeys()
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
        keys: Optional[VaultKeys] = None,
    ) -> "TicVault":
        """Build an unlocked vault around a fresh batch (may be empty)."""
        vault = cls(bytes(salt), None, 0, cipher, keys)  # _reseal sets the blob
        values = [getattr(c, "value", c) for c in codes]
        for v in values:
            TicCode(value=v)  # validates symbols and length
        vault._key = vault._keys.derive(password, vault.salt)
        vault._values = values
        vault._reseal()
        return vault

    # -- lock state ---------------------------------------------------------

    @property
    def locked(self) -> bool:
        return self._key is None

    def unlock(self, password: str) -> None:
        """Key from the memo, derived on first use, opens the blob; a wrong
        password fails closed."""
        key = self._keys.derive(password, self.salt)
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
    def from_bytes(cls, data: bytes, keys: Optional[VaultKeys] = None) -> "TicVault":
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
        return cls(salt=salt, sealed=sealed, seal_count=seal_count, cipher=cipher, keys=keys)
