"""The leakage scan against its reference: the nested loop over every
record and secret.

The reference is slow, O(records x secrets) Python calls, but its
meaning is plain, so the chunked scan must return the same findings in
the same order on random logs, at chunk boundaries, on every bundled
scenario under both ciphers, and on multi-client worlds.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace
from typing import Dict, List, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ticpay.checks import MIN_SECRET_LEN, SCAN_CHUNK, LeakFinding, leakage_scan
from ticpay.crypto import derive_shared_key
from ticpay.netsim import AdversaryScript, Rule, Tamper, WireRecord
from ticpay.scenarios import build_world, find_bundled, list_bundled, load_spec, parse_spec
from ticpay.vault import KDF_ITERATIONS
from ticpay.wire import Channel


def reference_leakage_scan(wire_log: Sequence[WireRecord],
                           secrets: Dict[str, bytes]) -> List[LeakFinding]:
    for secret_id, value in secrets.items():
        if len(value) < MIN_SECRET_LEN:
            raise ValueError(f"secret {secret_id!r} is {len(value)} bytes; "
                             f"the scan needs at least {MIN_SECRET_LEN}")
    findings: List[LeakFinding] = []
    for record in wire_log:
        for secret_id, value in secrets.items():
            start = record.data.find(value)
            while start != -1:
                findings.append(LeakFinding(record.seq, secret_id, start))
                start = record.data.find(value, start + 1)
    return findings


def log_of(*payloads: bytes) -> List[WireRecord]:
    return [WireRecord(seq=10 + i, at=i, channel=Channel.WEB, sender="a",
                       receiver="b", msg_type="m", data=data, tags=None)
            for i, data in enumerate(payloads)]


def test_overlaps_straddles_empty_records_and_shared_values():
    log = log_of(b"xaaaaaaaaaa", b"", b"aaaaSECRET-1", b"234", b"SECRET-1")
    # "near" shares its first 8 bytes with record 12 but not its tail: its
    # head passes the prefilter and its find walk finds nothing.
    secrets = {"second": b"SECRET-1", "run": b"aaaaaaaa", "twin": b"SECRET-1",
               "near": b"aaaaSECRET-9"}
    expected = [
        # three overlapping runs of eight a's inside the first record
        LeakFinding(10, "run", 1), LeakFinding(10, "run", 2), LeakFinding(10, "run", 3),
        # the run that starts in record 10 and ends in 12 is no hit; the
        # empty record 11 shares its start with record 12
        LeakFinding(12, "second", 4), LeakFinding(12, "twin", 4),
        # "SECRET-1234" straddles 12 and 13: only the part inside 12 counts
        LeakFinding(14, "second", 0), LeakFinding(14, "twin", 0),
    ]
    assert leakage_scan(log, secrets) == expected
    assert reference_leakage_scan(log, secrets) == expected


@pytest.mark.parametrize("value", [b"EIGHT-B!", b"NINE-BYTE", b"TEN-BYTES!", b"TAIL-SECRET"])
@pytest.mark.parametrize("align", range(8))
def test_a_secret_ending_at_the_last_byte_is_found_at_every_alignment(align, value):
    # The secret covers the buffer's last whole aligned word; a prefilter
    # that stopped one word short would miss it.
    log = log_of(b"p" * align, value)
    secrets = {"tail": value}
    assert leakage_scan(log, secrets) == [LeakFinding(11, "tail", 0)]
    assert reference_leakage_scan(log, secrets) == [LeakFinding(11, "tail", 0)]


@pytest.mark.parametrize("payloads", [(), (b"",), (b"a",), (b"ab",), (b"abc",), (b"a", b"", b"bc"),
                                      (b"abc", b"de"), (b"abcdefg",)])
def test_logs_shorter_than_a_word_have_no_findings(payloads):
    log = log_of(*payloads)
    secrets = {"s": b"abcdeabc", "t": b"abcdefgh"}
    assert leakage_scan(log, secrets) == reference_leakage_scan(log, secrets) == []


@pytest.mark.parametrize("tail", range(4))
@pytest.mark.parametrize("lead", range(4))
@pytest.mark.parametrize("length", range(MIN_SECRET_LEN, MIN_SECRET_LEN + 4))
def test_a_secret_is_found_at_every_offset_mod_4(length, lead, tail):
    # The aligned word an occurrence covers is the secret's slice at
    # offset (4 - lead) % 4; a prefilter missing any of the four slices
    # misses the secret at one of these offsets.
    value = b"SECRET-0123"[:length]
    log = log_of(b"p" * 4, b"q" * lead + value + b"r" * tail)
    secrets = {"s": value}
    assert leakage_scan(log, secrets) == [LeakFinding(11, "s", lead)]
    assert reference_leakage_scan(log, secrets) == [LeakFinding(11, "s", lead)]


# Two letters and periodic payloads such as "abababab" make overlapping
# hits and hits across record boundaries common; secrets are mostly cut
# from the joined bytes so they do match.
letters = st.text(alphabet="ab", max_size=24)
periodic = st.builds(lambda unit, times: unit * times,
                     st.text(alphabet="ab", min_size=1, max_size=3), st.integers(1, 12))
payloads = st.lists(st.one_of(letters, periodic).map(str.encode), max_size=8)


@given(payloads, st.integers(0, 3 * SCAN_CHUNK), st.data())
def test_scan_matches_the_reference_on_random_logs(payloads, length, data):
    # The drawn records repeat to fill a log of up to three chunks, so hits
    # and matches across records fall inside chunks and on their edges.
    log = log_of(*[payloads[i % len(payloads)] for i in range(length if payloads else 0)])
    joined = b"".join(payloads)
    values = []
    for _ in range(data.draw(st.integers(1, 4))):
        length = data.draw(st.integers(MIN_SECRET_LEN, MIN_SECRET_LEN + 3))
        if len(joined) >= length and data.draw(st.booleans()):
            start = data.draw(st.integers(0, len(joined) - length))
            values.append(joined[start:start + length])
        else:
            values.append(data.draw(st.text(alphabet="ab", min_size=length,
                                             max_size=length)).encode())
    secrets = {f"s{i}": value for i, value in enumerate(values)}
    secrets["twin"] = values[0]
    assert leakage_scan(log, secrets) == reference_leakage_scan(log, secrets)


def padded(*placed: bytes, length: int) -> List[WireRecord]:
    """A log of `length` filler records that ends with the `placed` ones."""
    return log_of(*[b"filler" * (i % 3) for i in range(length - len(placed))], *placed)


def test_hits_in_the_last_record_of_a_chunk_and_the_first_of_the_next():
    log = padded(b"xSECRET-1", b"SECRET-1y", length=SCAN_CHUNK + 1)
    secrets = {"s": b"SECRET-1"}
    expected = [LeakFinding(10 + SCAN_CHUNK - 1, "s", 1), LeakFinding(10 + SCAN_CHUNK, "s", 0)]
    assert leakage_scan(log, secrets) == expected
    assert reference_leakage_scan(log, secrets) == expected


@pytest.mark.parametrize("cut", range(1, 8))
def test_a_value_running_across_a_chunk_boundary_is_no_hit(cut):
    value = b"SECRET-1"
    log = padded(b"x" + value[:cut], value[cut:] + b"y", length=SCAN_CHUNK + 1)
    secrets = {"s": value}
    assert leakage_scan(log, secrets) == reference_leakage_scan(log, secrets) == []


def test_one_value_under_two_ids_is_found_under_each_in_two_chunks():
    value = b"SHARED-VALUE"
    payloads = [b"filler"] * (2 * SCAN_CHUNK)
    payloads[5] = b"ab" + value
    payloads[SCAN_CHUNK + 7] = value
    log = log_of(*payloads)
    secrets = {"first": value, "other": b"OTHER-99", "twin": value}
    expected = [LeakFinding(15, "first", 2), LeakFinding(15, "twin", 2),
                LeakFinding(17 + SCAN_CHUNK, "first", 0), LeakFinding(17 + SCAN_CHUNK, "twin", 0)]
    assert leakage_scan(log, secrets) == expected
    assert reference_leakage_scan(log, secrets) == expected


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_a_short_last_chunk_is_scanned(tail):
    # The last chunk holds `tail` records and ends with the secret.
    log = padded(b"SECRET-1", *[b"S"] * (tail - 1), b"zzSECRET-1", length=2 * SCAN_CHUNK + tail)
    secrets = {"s": b"SECRET-1"}
    last = 10 + 2 * SCAN_CHUNK + tail - 1
    expected = [LeakFinding(last - tail, "s", 0), LeakFinding(last, "s", 2)]
    assert leakage_scan(log, secrets) == expected
    assert reference_leakage_scan(log, secrets) == expected


def test_the_scan_holds_one_chunk_not_the_whole_wire():
    # 40,000 records (2.6 MB) and 1,000 secrets: a joined copy of the wire
    # alone would take 2.6 MB; the scan holds one chunk plus 4,000 words.
    log = log_of(*[hashlib.sha512(i.to_bytes(4, "big")).digest() + b"\x00" * (i % 5)
                   for i in range(40_000)])
    secrets = {f"s{i}": hashlib.sha256(b"secret %d" % i).digest() for i in range(1_000)}
    tracemalloc.start()
    try:
        findings = leakage_scan(log, secrets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert findings == []
    assert peak < 1_000_000, f"scan peaked at {peak} bytes"


def ran(spec):
    world = build_world(spec)
    world.sim.run_to_quiescence()
    return world


@pytest.mark.parametrize("cipher", ["aes-gcm", "null"])
@pytest.mark.parametrize("name", [entry["name"] for entry in list_bundled()])
def test_scan_matches_the_reference_on_bundled_scenarios(name, cipher):
    world = ran(replace(load_spec(find_bundled(name)), cipher=cipher))
    log, secrets = world.sim.wire_log, world.secrets()
    assert leakage_scan(log, secrets) == reference_leakage_scan(log, secrets)


def test_two_way_worlds_scan_the_merchant_keys():
    # The registration secret, the key derived from it that seals the
    # merchant's banking details, and the certificate-signing key never
    # leave the merchant bank and its merchant, so the scan must look for
    # all three. None of them crosses the wire, whatever the cipher.
    merchant_keys = {"merchant-secret:shopzone", "minfo-key:shopzone", "cert-key:mbank"}
    for cipher in ("aes-gcm", "null"):
        world = ran(replace(load_spec(find_bundled("happy-twoway")), cipher=cipher))
        secrets, bank = world.secrets(), world.merchant_bank
        record = bank.merchants["shopzone"]
        assert secrets["merchant-secret:shopzone"] == record.secret
        assert secrets["minfo-key:shopzone"] == derive_shared_key(
            record.secret, "merchant-info|shopzone")
        assert secrets["cert-key:mbank"] == bank._cert_key
        assert not [f for f in leakage_scan(world.sim.wire_log, secrets)
                    if f.secret_id in merchant_keys]
    # Once on the wire, the sealing key is found.
    leaked = log_of(b"blob:" + secrets["minfo-key:shopzone"])
    assert leakage_scan(leaked, secrets) == [LeakFinding(10, "minfo-key:shopzone", 5)]


def test_worlds_scan_the_vault_keys():
    # The key that seals a customer's vault stays with the bank that seals
    # it and the device that opens it. It never crosses the wire, whatever
    # the cipher, and the scan names it by its customer.
    for cipher in ("aes-gcm", "null"):
        world = ran(replace(load_spec(find_bundled("happy-oneway")), cipher=cipher))
        secrets = world.secrets()
        salt = world.server.vault_salt("alice")
        assert secrets["vault-key:alice"] == hashlib.pbkdf2_hmac(
            "sha256", b"alice-vault", salt, KDF_ITERATIONS, 32)
        assert [s for s in secrets if s.startswith("vault-key:")] == ["vault-key:alice"]
        assert not [f for f in leakage_scan(world.sim.wire_log, secrets)
                    if f.secret_id.startswith("vault-key:")]
    leaked = log_of(b"blob:" + secrets["vault-key:alice"])
    assert leakage_scan(leaked, secrets) == [LeakFinding(10, "vault-key:alice", 5)]


def test_a_key_under_a_tampered_salt_is_named_by_its_salt():
    # Body offset 17 is the first salt byte of the sealed vault: a 6-byte
    # field header, then magic 2, version 1 and seal count 8.
    rule = Rule(Tamper(edits=((17, 1),)), msg_type="tic_provision", nth=1)
    spec = replace(load_spec(find_bundled("happy-oneway")),
                   adversary=AdversaryScript(rules=(rule,)))
    world = ran(spec)
    salt = bytearray(world.server.vault_salt("alice"))
    salt[0] ^= 1
    names = [s for s in world.secrets() if s.startswith("vault-key:")]
    assert names == ["vault-key:alice", f"vault-key:{bytes(salt).hex()}"]
    assert world.clients[0].outcomes == ["vault-failure"]


def crowd_spec(clients: int, cipher: str):
    return parse_spec({
        "schema": 1,
        "name": "crowd",
        "flow": "one-way",
        "seed": 7,
        "cipher": cipher,
        "clients": [{
            "username": f"u{i:03d}",
            "password": f"pw-{i}",
            "pin": f"{0x00112233445566aa + i:016x}",
            "cell": f"+1555{i:07d}",
            "account_id": f"ACC-{100_000 + i}",
            "balance": 10_000,
            "vault_password": f"vault-{i}",
            "tic_batch": 1 + i % 3,
            "reply": ("yes", "no", "ignore")[i % 3],
            "payments": [{"amount": 10 + i, "payee": f"ACC-{900_000 + i}"}],
        } for i in range(clients)],
    })


@pytest.mark.parametrize("cipher", ["aes-gcm", "null"])
def test_scan_matches_the_reference_on_a_25_client_world(cipher):
    world = ran(crowd_spec(25, cipher))
    log, secrets = world.sim.wire_log, world.secrets()
    findings = leakage_scan(log, secrets)
    assert findings == reference_leakage_scan(log, secrets)
    assert bool(findings) == (cipher == "null")


def test_the_null_cipher_control_matches_the_reference_across_chunks():
    # 580 records: the provisioned codes, login responses and submissions
    # in the clear put hits in the first three chunks; the last two have none.
    world = ran(crowd_spec(60, "null"))
    log, secrets = world.sim.wire_log, world.secrets()
    findings = leakage_scan(log, secrets)
    assert findings == reference_leakage_scan(log, secrets)
    leaked = {finding.seq for finding in findings}
    chunks_hit = {i // SCAN_CHUNK for i, record in enumerate(log) if record.seq in leaked}
    assert len(chunks_hit) >= 3
