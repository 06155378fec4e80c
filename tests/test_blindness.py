"""The merchant blindness check against its reference: the loop that tested
every customer account id against every merchant-bound record with ``in``.

The check's byte layer is now one ``leakage_scan`` over the merchant-bound
records. The reference is O(records x accounts), but its meaning is plain,
so the check must return the same findings in the same order on every
bundled two-way scenario under both ciphers, on an attacked two-way world
and on a hand-made log. The schema layer reads the field tags each wire
record carries, so the check must find the same with every parser patched
to raise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Sequence

import pytest

from ticpay import checks, netsim, wire
from ticpay.checks import MERCHANT_SCHEMAS, BlindnessFinding, merchant_blindness_check
from ticpay.netsim import AdversaryScript, Rule, Tamper, WireRecord
from ticpay.scenarios import build_world, find_bundled, list_bundled, load_spec
from ticpay.wire import Channel, Envelope, F, WireError


def reference_blindness_check(
    wire_log: Sequence[WireRecord],
    merchant_names: Iterable[str],
    customer_account_ids: Iterable[str],
) -> List[BlindnessFinding]:
    """Schema check: traffic to merchants carries no customer payment data.

    Two layers: the message type and its field set must be in the allowed
    schema, and the raw bytes must not contain any customer account id.
    """
    merchants = set(merchant_names)
    account_bytes = [a.encode("utf-8") for a in customer_account_ids]
    findings: List[BlindnessFinding] = []
    for record in wire_log:
        if record.receiver not in merchants:
            continue
        allowed = MERCHANT_SCHEMAS.get(record.msg_type)
        if allowed is None:
            findings.append(BlindnessFinding(
                record.seq, f"unexpected msg_type {record.msg_type!r} to merchant"))
            continue
        try:
            env = Envelope.from_bytes(record.data)
        except WireError:
            findings.append(BlindnessFinding(record.seq, "unparseable envelope"))
            continue
        extra = set(env.body) - set(allowed)
        if extra:
            findings.append(BlindnessFinding(
                record.seq, f"fields {sorted(extra)} outside merchant schema"))
        for acct in account_bytes:
            if acct and acct in record.data:
                findings.append(BlindnessFinding(
                    record.seq, "customer account id present in merchant-bound bytes"))
    return findings


def both(wire_log, merchants, accounts):
    """The check's findings, after asserting that the reference agrees."""
    findings = merchant_blindness_check(wire_log, merchants, accounts)
    assert findings == reference_blindness_check(wire_log, merchants, accounts)
    return findings


def ran(spec):
    world = build_world(spec)
    world.sim.run_to_quiescence()
    return world


def blindness_inputs(world):
    return (world.sim.wire_log, [world.merchant_agent.name],
            [c.account_id for c in world.spec.clients])


TWO_WAY = [entry["name"] for entry in list_bundled()
           if load_spec(find_bundled(entry["name"])).flow == "two-way"]


def test_the_bundled_two_way_scenarios_are_found():
    assert sorted(TWO_WAY) == ["bad-merchant-cert", "happy-twoway"]


@pytest.mark.parametrize("cipher", ["aes-gcm", "null"])
@pytest.mark.parametrize("name", TWO_WAY)
def test_check_matches_the_reference_on_bundled_two_way_scenarios(name, cipher):
    world = ran(replace(load_spec(find_bundled(name)), cipher=cipher))
    assert both(*blindness_inputs(world)) == []


def envelope(msg_type: str, body=None, cookie: str = "", receiver: str = "shopzone") -> bytes:
    return Envelope(sender="mallory", receiver=receiver, channel=Channel.WEB,
                    msg_type=msg_type, body=dict(body or {}), cookie=cookie).to_bytes()


def attacked_twoway_spec():
    """happy-twoway under the null cipher with two tampers and two injections.

    Both tampers hit the confirmation's first field tag: AMOUNT (0x0C)
    becomes MODE (0x08), outside the schema, then 0x2C, out of order, so
    its body no longer decodes. Both injections reach the merchant: a
    disallowed type, and a checkout whose cookie carries the customer's
    account id twice.
    """
    spec = load_spec(find_bundled("happy-twoway"))
    account = spec.clients[0].account_id
    return replace(spec, cipher="null", adversary=AdversaryScript(
        rules=(Rule(Tamper(edits=((1, 0x04),)), msg_type="payment_confirmation"),
               Rule(Tamper(edits=((1, 0x24),)), msg_type="payment_confirmation")),
        injections=((5, envelope("sms_challenge")),
                    (6, envelope("checkout_request", cookie=account * 2))),
    ))


ATTACKED_REASONS = [
    "customer account id present in merchant-bound bytes",
    f"fields [{int(F.MODE)}] outside merchant schema",
    "unexpected msg_type 'sms_challenge' to merchant",
    "unparseable envelope",
]


def test_check_matches_the_reference_on_an_attacked_two_way_world():
    findings = both(*blindness_inputs(ran(attacked_twoway_spec())))
    assert sorted({f.reason for f in findings}) == ATTACKED_REASONS


def test_check_reads_the_carried_fields_and_parses_nothing(monkeypatch):
    inputs = blindness_inputs(ran(attacked_twoway_spec()))
    expected = reference_blindness_check(*inputs)

    def no_parse(*args, **kwargs):
        raise AssertionError("the blindness check parsed a transmission")

    for module in (wire, netsim, checks):
        for name in ("peek_header", "decode_fields"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_parse)
    monkeypatch.setattr(Envelope, "from_bytes", no_parse)
    findings = merchant_blindness_check(*inputs)
    assert findings == expected
    assert sorted({f.reason for f in findings}) == ATTACKED_REASONS


def test_check_matches_the_reference_on_a_hand_made_log():
    def record(seq, data, receiver="shopzone", msg_type="checkout_request"):
        try:
            tags = tuple(Envelope.from_bytes(data).body)
        except WireError:
            tags = None
        return WireRecord(seq=seq, at=0, channel=Channel.WEB, sender="mallory",
                          receiver=receiver, msg_type=msg_type, data=data, tags=tags)

    twice = envelope("checkout_request", cookie="ACC-1001|ACC-1001")
    log = [
        record(1, twice),                                      # one id, twice
        record(2, envelope("sms_challenge", cookie="ACC-2002"), msg_type="sms_challenge"),
        record(3, twice[:-1] + b"ACC-1001"),                   # unparseable
        record(4, envelope("payment_confirmation", {int(F.CELL): b"ACC-2002"}),
               msg_type="payment_confirmation"),               # schema and bytes
        record(5, twice, receiver="cbank"),                    # not merchant-bound
        record(6, envelope("checkout_request")),               # clean
    ]
    # Two customers share ACC-1001; each gets a finding.
    accounts = ["ACC-1001", "ACC-2002", "ACC-1001"]
    leak = "customer account id present in merchant-bound bytes"
    assert both(log, ["shopzone"], accounts) == [
        BlindnessFinding(1, leak),
        BlindnessFinding(1, leak),
        BlindnessFinding(2, "unexpected msg_type 'sms_challenge' to merchant"),
        BlindnessFinding(3, "unparseable envelope"),
        BlindnessFinding(4, f"fields [{int(F.CELL)}] outside merchant schema"),
        BlindnessFinding(4, leak),
    ]
