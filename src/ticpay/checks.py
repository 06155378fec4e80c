"""Run-level verdicts: secrecy, message-order conformance, money safety.

These checks are white-box on purpose. The harness that built the world
knows every secret in it (codes, PINs, keys, account numbers), scans the
raw bytes that crossed the channels for any of them, and checks the
bookkeeping of every bank. The protocol passes when the scan over real
ciphertext finds nothing and the same scan over the identity cipher
finds plenty — the negative control that proves the scan can see.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .netsim import ProtocolTrace, TraceEvent, WireRecord
from .protocol import MERCHANT, received_by

# Message types a merchant agent may legitimately receive, with the body
# fields each may carry. Anything else reaching a merchant is a breach.
MERCHANT_SCHEMAS = received_by(MERCHANT)


# Shorter secrets match random ciphertext bytes often enough to raise
# false alarms, so the scan refuses them instead of giving a verdict.
MIN_SECRET_LEN = 8
_WORD = struct.Struct("I")  # native, as memoryview.cast("I") reads the buffer
# Records the leakage scan joins at a time: it holds one chunk's bytes,
# never a copy of the whole wire.
SCAN_CHUNK = 128


@dataclass(frozen=True)
class LeakFinding:
    seq: int  # trace seq of the transmission whose bytes leaked
    secret_id: str
    offset: int


def leakage_scan(wire_log: Sequence[WireRecord],
                 secrets: Dict[str, bytes]) -> List[LeakFinding]:
    """Find every occurrence of any secret inside any transmitted bytes.

    Secrets are scanned as raw byte substrings; authenticated ciphertext
    cannot contain them except by 2^-something accident, so any hit on a
    real cipher is a protocol bug. A secret shorter than MIN_SECRET_LEN
    bytes raises ValueError.

    Cost: the log is read in chunks of SCAN_CHUNK records, and only one
    chunk's bytes are joined at a time, so the wire is never copied
    whole. An occurrence lies inside one record, hence inside one chunk.
    A secret is at least 8 bytes long, so an occurrence at offset p of a
    chunk's buffer covers the whole 4-byte word at the next multiple of
    4, p + k with k in 0..3, which ends at p + k + 4 <= p + 7, inside the
    occurrence; that word is the secret's 4-byte slice at offset k. So one
    C-level set intersection of each chunk's aligned words with the four
    slices of every secret names the slices present there, and a secret
    with none of its slices present cannot occur in that chunk: the
    prefilter misses no hit. Only a chunk with a slice present is
    joined again, and in it only a secret with a slice present takes a
    C-level ``bytes.find`` walk. The Python work grows with chunks,
    secrets and hits, not with records x secrets; a clean ciphertext log
    costs about one pass over its bytes, and the scan holds one chunk plus
    the set of slice words. Overlapping hits are all found; a match that
    runs from one record into the next is not a hit.

    Findings come in record order, then in the insertion order of
    ``secrets``, then by offset within the record. Two secret ids that
    hold the same value each get their own finding.
    """
    for secret_id, value in secrets.items():
        if len(value) < MIN_SECRET_LEN:
            raise ValueError(f"secret {secret_id!r} is {len(value)} bytes; "
                             f"the scan needs at least {MIN_SECRET_LEN}")
    words = {word for value in secrets.values() for word in _slices(value)}
    flagged: List[Tuple[int, Set[int]]] = []  # (first record index, words present)
    for first in range(0, len(wire_log), SCAN_CHUNK):
        present = words.intersection(_aligned_words(
            b"".join(record.data for record in wire_log[first:first + SCAN_CHUNK])))
        if present:
            flagged.append((first, present))
    if not flagged:
        return []

    hit_words = set().union(*(present for _, present in flagged))
    candidates = [(rank, value, _slices(value))
                  for rank, value in enumerate(secrets.values())
                  if not hit_words.isdisjoint(_slices(value))]
    secret_ids = list(secrets)
    findings: List[LeakFinding] = []
    for first, present in flagged:
        records = wire_log[first:first + SCAN_CHUNK]
        starts: List[int] = []
        size = 0
        for record in records:
            starts.append(size)
            size += len(record.data)
        chunk = b"".join(record.data for record in records)
        hits: List[Tuple[int, int, int]] = []  # (record index in chunk, rank, offset)
        for rank, value, slices in candidates:
            if present.isdisjoint(slices):
                continue
            at = chunk.find(value)
            while at != -1:
                # Empty records share their start with the next record, so
                # the rightmost start <= at is the record holding byte `at`.
                index = bisect_right(starts, at) - 1
                offset = at - starts[index]
                if offset + len(value) <= len(records[index].data):
                    hits.append((index, rank, offset))
                at = chunk.find(value, at + 1)
        hits.sort()
        findings.extend(LeakFinding(records[index].seq, secret_ids[rank], offset)
                        for index, rank, offset in hits)
    return findings


def _slices(value: bytes) -> Tuple[int, int, int, int]:
    """The value's 4-byte slices at offsets 0..3, read as aligned buffer words are."""
    unpack = _WORD.unpack_from
    return (unpack(value, 0)[0], unpack(value, 1)[0], unpack(value, 2)[0], unpack(value, 3)[0])


def _aligned_words(data: bytes) -> memoryview:
    """The 4-byte words of `data` at offsets 0, 4, 8, ..., a short tail dropped."""
    return memoryview(data)[:len(data) - len(data) % 4].cast("I")


@dataclass(frozen=True)
class ConformanceResult:
    """The verdict, and on failure the divergence with the lowest seq."""

    ok: bool
    client: Optional[str] = None     # None on failure: a delivery no client owns
    step: Optional[int] = None       # the client's first divergent step, 0-based
    expected: Optional[str] = None
    got: Optional[str] = None
    seq: Optional[int] = None        # trace seq where the run diverged
    diverged: int = 0                # clients whose deliveries diverged
    clients: int = 0                 # clients checked

    def describe(self) -> str:
        if self.ok:
            return "conformance: pass"
        if self.client is None:
            where = f"delivery {self.got!r} belongs to no client seq={self.seq}"
        else:
            where = (f"client {self.client!r} diverged at step {self.step}: "
                     f"expected {self.expected!r}, got {self.got!r} seq={self.seq}")
        return f"conformance: {where}; {self.diverged} of {self.clients} clients diverged"


def conformance_check(trace: ProtocolTrace, template: Sequence[str],
                      clients: Sequence[str]) -> ConformanceResult:
    """Compare each client's delivered msg_types, in order, against a template.

    A delivery belongs to the client that receives or sends it, else to the
    client whose ``request_id`` it carries; a request id belongs to the
    client whose delivery carried it first. Each client's deliveries must
    match the template, extra traffic included, and a delivery that no
    client owns is a divergence. A client diverges at the ``seq`` of its
    first divergent delivery or, when its deliveries run out first, of the
    run's last event (0 for an empty trace). The result names the
    divergence with the lowest ``seq`` and counts the clients that diverged.
    """
    matched: Dict[str, int] = dict.fromkeys(clients, 0)  # client -> steps matched
    owners: Dict[str, str] = {}  # request id -> client
    divergences: Dict[Optional[str], ConformanceResult] = {}  # None: unowned
    for event in trace.events:
        if event.kind != "deliver":
            continue
        request_id = event.request_id
        owner = (event.receiver if event.receiver in matched
                 else event.sender if event.sender in matched else None)
        if owner is not None:
            if request_id is not None:
                owners.setdefault(request_id, owner)
        elif request_id is not None:
            owner = owners.get(request_id)
        if owner is None:
            if None not in divergences:
                divergences[None] = ConformanceResult(ok=False, got=event.msg_type,
                                                      seq=event.seq)
        elif owner not in divergences:
            step = matched[owner]
            if step < len(template) and event.msg_type == template[step]:
                matched[owner] = step + 1
            else:
                divergences[owner] = ConformanceResult(
                    ok=False, client=owner, step=step,
                    expected=template[step] if step < len(template) else None,
                    got=event.msg_type, seq=event.seq)

    last_seq = trace.events[-1].seq if trace.events else 0
    for name, step in matched.items():
        if name not in divergences and step < len(template):
            divergences[name] = ConformanceResult(ok=False, client=name, step=step,
                                                  expected=template[step], seq=last_seq)
    if not divergences:
        return ConformanceResult(ok=True, clients=len(matched))
    first = min(divergences.values(), key=lambda d: d.seq)
    return replace(first, diverged=len(divergences) - (None in divergences),
                   clients=len(matched))


@dataclass(frozen=True)
class BlindnessFinding:
    seq: int
    reason: str


def merchant_blindness_check(
    wire_log: Sequence[WireRecord],
    merchant_names: Iterable[str],
    customer_account_ids: Iterable[str],
) -> List[BlindnessFinding]:
    """Schema check: traffic to merchants carries no customer payment data.

    Two layers: the message type and its field set must be in the allowed
    schema, and the raw bytes must not contain any customer account id.
    The field tags are each record's ``tags``, taken from the body its
    description carried, so nothing is parsed here; a record whose body
    did not decode is an unparseable envelope. The byte layer is one
    ``leakage_scan`` over the merchant-bound records that pass the type
    and parse tests, so an account id shorter than MIN_SECRET_LEN bytes
    raises ValueError.

    Findings come in record order; within a record, the schema finding
    first, then one finding per account id it holds, in input order.
    Wire-log records carry distinct ``seq`` values, one per transmission.
    """
    merchants = set(merchant_names)
    accounts = {f"customer_account_ids[{i}]": account.encode("utf-8")
                for i, account in enumerate(customer_account_ids)}
    bound: List[Tuple[int, Optional[BlindnessFinding]]] = []  # (seq, schema finding)
    scanned: List[WireRecord] = []  # records whose bytes the account scan reads
    for record in wire_log:
        if record.receiver not in merchants:
            continue
        allowed = MERCHANT_SCHEMAS.get(record.msg_type)
        if allowed is None:
            bound.append((record.seq, BlindnessFinding(
                record.seq, f"unexpected msg_type {record.msg_type!r} to merchant")))
            continue
        if record.tags is None:
            bound.append((record.seq, BlindnessFinding(record.seq, "unparseable envelope")))
            continue
        extra = set(record.tags) - allowed
        bound.append((record.seq, BlindnessFinding(
            record.seq, f"fields {sorted(extra)} outside merchant schema") if extra else None))
        scanned.append(record)

    # One finding per (record, account id), however often the id occurs.
    leaked = Counter(seq for seq, _ in {(leak.seq, leak.secret_id)
                                         for leak in leakage_scan(scanned, accounts)})
    findings: List[BlindnessFinding] = []
    for seq, schema in bound:
        if schema is not None:
            findings.append(schema)
        findings.extend(
            BlindnessFinding(seq, "customer account id present in merchant-bound bytes")
            for _ in range(leaked[seq]))
    return findings


def total_funds(banks: Iterable) -> int:
    """World-wide money supply: all account balances plus clearing legs."""
    return sum(bank.total_funds() for bank in banks)


def collect_secrets(server, clients=(), extra_accounts=()) -> Dict[str, bytes]:
    """Everything in this world that must never cross a channel in the clear.

    Covers issued TIC values, account PINs, live session keys, and the
    account identifiers on both sides of payments.
    """
    secrets: Dict[str, bytes] = {}
    for i, value in enumerate(server.registry.issued_values()):
        secrets[f"tic:{i}"] = value.encode("utf-8")
    for username, record in server.accounts.items():
        secrets[f"pin:{username}"] = record.pin.value
        secrets[f"account:{record.account_id}"] = record.account_id.encode("utf-8")
    for cookie, session in server.sessions.items():
        secrets[f"key:{session.session_id}"] = session.secret_key.key_bytes
    for client in clients:
        if client.session is not None:
            secrets[f"client-key:{client.name}"] = client.session.secret_key.key_bytes
    for account_id in extra_accounts:
        secrets[f"account:{account_id}"] = account_id.encode("utf-8")
    return secrets
