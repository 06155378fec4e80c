"""Seedable deterministic random generator for reproducible simulation runs.

Every source of randomness in a run (TIC codes, secret keys, cookie
tokens, vault salts) draws from a stream derived here, so identical
seeds replay to byte-identical traces on any platform.
The generator is an HMAC-SHA256 counter keystream: cryptographically
styled output, but seedable and stable, which `random.Random` and
`secrets` are not in combination.
"""

from __future__ import annotations

import hmac
import hashlib

_DOMAIN = b"ticpay.rng.v1"


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int):
        return seed.to_bytes(16, "big", signed=True)
    return seed.encode("utf-8")


class DeterministicRng:
    """HMAC-SHA256 counter-mode keystream with labeled sub-streams."""

    def __init__(self, seed: int | str | bytes, label: str = ""):
        material = _DOMAIN + b"|" + _seed_bytes(seed) + b"|" + label.encode("utf-8")
        self._key = hashlib.sha256(material).digest()
        self._counter = 0
        self._buffer = b""

    def child(self, label: str) -> "DeterministicRng":
        """Independent sub-stream; drawing from it never advances the parent."""
        return DeterministicRng(self._key, label)

    def take(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hmac.new(
                self._key, self._counter.to_bytes(8, "big"), hashlib.sha256
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        span = 1 << 64
        limit = span - (span % n)
        while True:
            value = int.from_bytes(self.take(8), "big")
            if value < limit:
                return value % n

    def token(self, nbytes: int = 16) -> str:
        """Opaque lowercase-hex token (cookie tokens, ids)."""
        return self.take(nbytes).hex()
