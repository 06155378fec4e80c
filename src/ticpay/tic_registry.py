"""Bank-side TIC lifecycle: generation, issuance, matching, single use.

A TIC (transaction identification code) is a one-time code that both
authenticates a single transaction and seeds the key that encrypts that
transaction's details. The registry is the bank's book of record: codes
are unique across all live records, verification consumes exactly one
record, and a consumed record can never verify again.

Every code is 16 symbols of the upper-case alphanumeric alphabet.
Generation is a pure function of (account, count, seed) against the
registry's contents, so runs replay deterministically.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .errors import CollisionExhaustion
from .rng import DeterministicRng

ALPHABET_NAME = "alphanumeric-upper"  # named in the vault header and the stream label
ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
CODE_LENGTH = 16
REDRAW_BUDGET = 1000  # collisions tolerated per batch before generation gives up
# DeterministicRng.below(len(ALPHABET)) rejects 64-bit words at or above this
_DRAW_LIMIT = (1 << 64) - (1 << 64) % len(ALPHABET)


def code_digest(value: str) -> str:
    """One-way digest for trace logging; raw code values never hit a trace."""
    return hashlib.sha256(b"tic|" + value.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TicCode:
    value: str

    def __post_init__(self):
        if len(self.value) != CODE_LENGTH:
            raise ValueError(f"code length {len(self.value)} is not {CODE_LENGTH}")
        bad = [ch for ch in self.value if ch not in ALPHABET]
        if bad:
            raise ValueError(f"symbols {bad!r} outside declared alphabet")


class TicState(Enum):
    ISSUED = "issued"
    CONSUMED = "consumed"


@dataclass
class TicRecord:
    code: TicCode
    account_id: str
    state: TicState = TicState.ISSUED

    def transition(self, new_state: TicState) -> None:
        # Issued is the only non-terminal state.
        if self.state is not TicState.ISSUED:
            raise ValueError(f"record already terminal ({self.state.value})")
        self.state = new_state


@dataclass(frozen=True)
class TicBatch:
    account_id: str
    codes: Tuple[TicCode, ...]


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None  # unknown | already-used | wrong-account

    ACCEPTED: "VerifyResult" = None  # type: ignore[assignment]

    @staticmethod
    def rejected(reason: str) -> "VerifyResult":
        return VerifyResult(accepted=False, reason=reason)


VerifyResult.ACCEPTED = VerifyResult(accepted=True)


class TicRegistry:
    """Book of record for issued codes; verification is consume-once."""

    def __init__(self):
        self._records: Dict[str, TicRecord] = {}  # keyed by code value, registry-wide
        #: (account_id, code value) pairs that returned Accepted, in order.
        self.accepted_log: List[Tuple[str, str]] = []

    @staticmethod
    def _draw(rng: DeterministicRng) -> str:
        """One code: the symbols CODE_LENGTH ``rng.below(len(ALPHABET))``
        calls would pick, read from the stream in one take per round.

        Each round reads one big-endian 64-bit word per symbol still
        needed and skips any word at or above the rejection limit, so it
        consumes the same words in the same order as the below() calls.
        """
        symbols: List[str] = []
        while (need := CODE_LENGTH - len(symbols)) > 0:
            symbols += [ALPHABET[word % len(ALPHABET)]
                        for word in struct.unpack(f">{need}Q", rng.take(8 * need))
                        if word < _DRAW_LIMIT]
        return "".join(symbols)

    def generate_tics(self, account_id: str, count: int, seed: int | str | bytes) -> TicBatch:
        """Mint `count` distinct codes for an account and register them as issued.

        Deterministic: identical (account_id, count, seed) against the same
        registry contents yields an identical batch.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = DeterministicRng(seed, f"tic|{account_id}|{CODE_LENGTH}|{ALPHABET_NAME}")
        fresh: List[TicCode] = []
        seen = set()
        redraws = 0
        while len(fresh) < count:
            value = self._draw(rng)
            live = self._records.get(value)
            collides = value in seen or (live is not None and live.state is TicState.ISSUED)
            if collides:
                redraws += 1
                if redraws > REDRAW_BUDGET:
                    raise CollisionExhaustion(
                        f"could not draw {count} distinct codes within "
                        f"{REDRAW_BUDGET} redraws"
                    )
                continue
            seen.add(value)
            fresh.append(TicCode(value=value))
        for code in fresh:
            self._records[code.value] = TicRecord(code=code, account_id=account_id)
        return TicBatch(account_id=account_id, codes=tuple(fresh))

    def verify_and_consume(self, account_id: str, candidate) -> VerifyResult:
        """Accept and consume a live code, or reject with the internal reason.

        The reason granularity is for traces and tests; callers expose only a
        generic denial to the outside so rejection is not an oracle.
        """
        value = getattr(candidate, "value", candidate)
        record = self._records.get(value)
        if record is None:
            return VerifyResult.rejected("unknown")
        if record.state is TicState.CONSUMED:
            return VerifyResult.rejected("already-used")
        if record.account_id != account_id:
            return VerifyResult.rejected("wrong-account")
        record.transition(TicState.CONSUMED)
        self.accepted_log.append((account_id, value))
        return VerifyResult.ACCEPTED

    def issued_values(self) -> List[str]:
        """All code values ever registered (white-box; for leakage scans)."""
        return list(self._records)
