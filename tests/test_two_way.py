"""Merchant-side authentication, settlement idempotence, and blindness."""

from __future__ import annotations

from dataclasses import replace

import pytest

from ticpay.auth_server import BankServer
from ticpay.client_agent import ClientAgent
from ticpay.crypto import Pin
from ticpay.errors import NoCertificate, WireError
from ticpay.netsim import AdversaryScript, Drop, Replay, Rule, Simulation, WireRecord
from ticpay.checks import merchant_blindness_check, total_funds
from ticpay.two_way import MerchantAgent, MerchantBank, MerchantCertificate, TwoWayGateway
from ticpay.wire import Channel, Envelope, F

PIN = Pin.from_hex("00112233445566aa")


def merchant_fixture(valid_from=0, valid_until=10**9):
    bank = MerchantBank(seed=3)
    record = bank.register_merchant("shopzone", "MAC-7001", "Shop Zone", balance=50_000)
    bank.issue_certificate("shopzone", valid_from=valid_from, valid_until=valid_until)
    agent = MerchantAgent(record, bank="mbank", price=4999)
    return bank, record, agent


def invoice_parts(agent):
    fields = agent.prepare_invoice(agent.price)
    return fields[F.CERT], fields[F.ENC_MERCHANT_INFO]


# -- certificate verification ---------------------------------------------------


def test_good_certificate_verifies():
    bank, record, agent = merchant_fixture(valid_until=100)
    cert_bytes, enc_info = invoice_parts(agent)
    verdict = bank.verify_certificate(cert_bytes, enc_info, now=50)
    assert verdict.positive
    assert verdict.label == "positive"
    assert verdict.reason is None


def test_certificate_window_is_inclusive():
    bank, record, agent = merchant_fixture(valid_from=10, valid_until=20)
    cert_bytes, enc_info = invoice_parts(agent)
    assert bank.verify_certificate(cert_bytes, enc_info, now=10).positive
    assert bank.verify_certificate(cert_bytes, enc_info, now=20).positive
    assert bank.verify_certificate(cert_bytes, enc_info, now=9).reason == "not-yet-valid"
    assert bank.verify_certificate(cert_bytes, enc_info, now=21).reason == "expired"


def test_unparseable_certificate():
    bank, record, agent = merchant_fixture()
    _, enc_info = invoice_parts(agent)
    assert bank.verify_certificate(b"junk", enc_info, now=0).reason == "bad-certificate"


def test_unknown_merchant():
    bank, record, agent = merchant_fixture()
    other = MerchantBank(name="other", seed=9)
    ghost = other.register_merchant("ghost", "MAC-0001", "Ghost")
    ghost_cert = other.issue_certificate("ghost", 0, 100)
    _, enc_info = invoice_parts(agent)
    assert bank.verify_certificate(ghost_cert.to_bytes(), enc_info, now=0).reason == "unknown-merchant"


def test_any_certificate_field_edit_breaks_the_signature():
    bank, record, agent = merchant_fixture()
    cert = record.certificate
    for edit in (
        replace(cert, display_name="Shop Z0ne"),
        replace(cert, account_ref="0" * 16),
        replace(cert, valid_until=cert.valid_until + 1),
        replace(cert, signature=bytes(len(cert.signature))),
    ):
        _, enc_info = invoice_parts(agent)
        verdict = bank.verify_certificate(edit.to_bytes(), enc_info, now=0)
        assert verdict.reason == "bad-signature", edit


def test_suspended_merchant_is_refused():
    bank, record, agent = merchant_fixture()
    record.standing = "suspended"
    cert_bytes, enc_info = invoice_parts(agent)
    assert bank.verify_certificate(cert_bytes, enc_info, now=0).reason == "suspended"


def test_banking_info_must_match_the_registration():
    bank, record, agent = merchant_fixture()
    cert_bytes, _ = invoice_parts(agent)
    # sealed under a key the bank does not share with this merchant
    other = bank.register_merchant("mimic", "MAC-9990", "Mimic", balance=0)
    bank.issue_certificate("mimic", 0, 100)
    mimic_agent = MerchantAgent(other, bank="mbank", price=1)
    _, foreign_info = invoice_parts(mimic_agent)
    verdict = bank.verify_certificate(cert_bytes, foreign_info, now=0)
    assert verdict.reason == "banking-info-mismatch"
    assert bank.verify_certificate(cert_bytes, b"garbage", now=0).reason == "banking-info-mismatch"


def test_certificate_serialization_round_trip():
    bank, record, agent = merchant_fixture()
    cert = record.certificate
    back = MerchantCertificate.from_bytes(cert.to_bytes())
    assert back == cert
    unsigned = replace(cert, signature=b"")
    with pytest.raises(WireError):
        unsigned.to_bytes()


def test_invoice_requires_a_certificate_and_a_real_total():
    bank = MerchantBank(seed=3)
    record = bank.register_merchant("bare", "MAC-1", "Bare")
    agent = MerchantAgent(record, bank="mbank", price=10)
    record.certificate = None  # e.g. revoked between registration and checkout
    with pytest.raises(NoCertificate):
        agent.prepare_invoice(10)
    bank.issue_certificate("bare", 0, 100)
    with pytest.raises(ValueError):
        agent.prepare_invoice(0)
    first = agent.prepare_invoice(10)[F.INVOICE_NUMBER]
    second = agent.prepare_invoice(10)[F.INVOICE_NUMBER]
    assert first == "bare-INV0001" and second == "bare-INV0002"


# -- full two-way runs -------------------------------------------------------------


def two_way_world(valid_from=0, valid_until=10**9, known_banks=("mbank",),
                  tamper_cert=None):
    server = BankServer(seed=11)
    server.enroll(
        username="alice",
        password="hunter2",
        pin=PIN,
        cell_number="+27-82-000-0001",
        account_id="ACC-1001",
        balance=100_000,
        vault_password="device-pass",
    )
    mbank = MerchantBank(seed=12)
    record = mbank.register_merchant("shopzone", "MAC-7001", "Shop Zone", balance=50_000)
    mbank.issue_certificate("shopzone", valid_from=valid_from, valid_until=valid_until)
    if tamper_cert is not None:
        record.certificate = tamper_cert(record.certificate)
    merchant = MerchantAgent(record, bank="mbank", price=4999)
    gateway = TwoWayGateway(server, {"alice": 2}, known_banks=set(known_banks))
    client = ClientAgent(
        name="alice",
        password="hunter2",
        pin=PIN,
        vault_password="device-pass",
        merchant="shopzone",
        mode="credit-card",
    )
    return server, mbank, merchant, gateway, client


def run_world(world, adversary=None):
    server, mbank, merchant, gateway, client = world
    sim = Simulation(adversary=adversary)
    for actor in (client, gateway, merchant, mbank):
        sim.add_actor(actor)
    sim.run_to_quiescence()
    return sim


def notes(sim):
    return [f"{e.sender}: {e.note}" for e in sim.trace.find(kind="note")]


def test_two_way_happy_path_settles_exactly_once():
    world = two_way_world()
    server, mbank, merchant, gateway, client = world
    before = total_funds([server, mbank])
    sim = run_world(world)
    assert client.outcomes == ["committed"]
    assert gateway.allows(client.request_id)
    assert mbank.balances["MAC-7001"] == 50_000 + 4999
    assert server.balances["ACC-1001"] == 100_000 - 4999
    assert server.clearing == 4999 and mbank.clearing == -4999
    assert total_funds([server, mbank]) == before
    assert merchant.confirmations == [(f"shopzone-INV0001", 4999)]
    log = notes(sim)
    assert any("verify-merchant verdict=positive" in line for line in log)
    assert any("merchant-credited merchant=shopzone amount=4999" in line for line in log)


def assert_no_payment_happened(world, sim):
    server, mbank, merchant, gateway, client = world
    assert server.registry.accepted_log == []
    assert server.balances["ACC-1001"] == 100_000
    assert mbank.balances["MAC-7001"] == 50_000
    assert server.clearing == 0 and mbank.clearing == 0
    sent = [e.msg_type for e in sim.trace.find(kind="send")]
    for msg_type in ("payment_submit", "sms_challenge", "settle_notice"):
        assert msg_type not in sent
    assert not gateway.allows(client.request_id)


def test_expired_certificate_blocks_payment():
    world = two_way_world(valid_until=1)
    sim = run_world(world)
    client = world[-1]
    assert client.outcomes == ["merchant-rejected:expired"]
    assert_no_payment_happened(world, sim)


def test_tampered_certificate_blocks_payment():
    world = two_way_world(
        tamper_cert=lambda cert: replace(cert, display_name="Shop Zone!!")
    )
    sim = run_world(world)
    client = world[-1]
    assert client.outcomes == ["merchant-rejected:bad-signature"]
    assert_no_payment_happened(world, sim)


def test_unknown_merchant_bank_blocks_payment():
    world = two_way_world(known_banks=("somebank",))
    sim = run_world(world)
    client = world[-1]
    assert client.outcomes == ["merchant-rejected:unknown-merchant-bank"]
    assert_no_payment_happened(world, sim)


def test_missing_verdict_times_out_negative():
    adversary = AdversaryScript(rules=[
        Rule(action=Drop(), channel=Channel.INTERBANK, msg_type="merchant_auth_verdict"),
    ])
    world = two_way_world()
    sim = run_world(world, adversary=adversary)
    client = world[-1]
    assert client.outcomes == ["merchant-rejected:timeout"]
    assert_no_payment_happened(world, sim)


def test_replayed_settle_notice_credits_once():
    adversary = AdversaryScript(rules=[
        Rule(action=Replay(delay=2), channel=Channel.INTERBANK,
             msg_type="settle_notice", nth=1),
    ])
    world = two_way_world()
    server, mbank, merchant, gateway, client = world
    sim = run_world(world, adversary=adversary)
    assert client.outcomes == ["committed"]
    assert mbank.balances["MAC-7001"] == 50_000 + 4999
    assert len(merchant.confirmations) == 1
    assert any("notice-duplicate" in line for line in notes(sim))


@pytest.mark.parametrize("msg_type, channel", [
    ("merchant_auth_request", Channel.WEB),
    ("merchant_auth_verdict", Channel.INTERBANK),
])
def test_the_gateway_verifies_a_request_once(msg_type, channel):
    # A second copy neither replaces the recorded verdict nor asks again.
    adversary = AdversaryScript(rules=[
        Rule(action=Replay(delay=6), channel=channel, msg_type=msg_type, nth=1),
    ])
    world = two_way_world()
    server, mbank, merchant, gateway, client = world
    sim = run_world(world, adversary=adversary)
    assert client.outcomes == ["committed"]
    assert gateway.allows(client.request_id)
    assert f"cbank: unexpected-{msg_type.replace('_', '-')} ignored" in notes(sim)
    sent = [e.msg_type for e in sim.trace.find(kind="send")]
    assert sent.count("merchant_auth_forward") == sent.count("merchant_auth_ack") == 1
    assert merchant.confirmations == [("shopzone-INV0001", 4999)]


def test_gate_refuses_ungated_requests():
    # Past the gate, the empty TIC fails to decrypt.
    for merchant_ok, cause in [(False, "merchant-not-authorized"),
                               (True, "tic-decrypt-failed")]:
        server = BankServer(seed=1)
        server.enroll(
            username="alice", password="hunter2", pin=PIN, cell_number="+0",
            account_id="ACC-1001", balance=1_000, vault_password="d",
        )
        login = server.login("alice", "hunter2")
        assert server.select_mode(login.cookie, "credit-card").ok
        result = server.submit_payment(login.cookie, b"", b"", request_id="R-1",
                                       merchant_ok=merchant_ok)
        assert result.cause == cause, merchant_ok


# -- merchant blindness -------------------------------------------------------------


def test_two_way_traffic_keeps_the_merchant_blind():
    world = two_way_world()
    sim = run_world(world)
    findings = merchant_blindness_check(
        sim.wire_log, merchant_names=["shopzone"], customer_account_ids=["ACC-1001"]
    )
    assert findings == []


def make_record(env, seq=1):
    return WireRecord(
        seq=seq, at=0, channel=env.channel, sender=env.sender,
        receiver=env.receiver, msg_type=env.msg_type, data=env.to_bytes(),
        tags=tuple(sorted(env.body)),
    )


def test_blindness_scan_flags_schema_and_content_violations():
    # wrong message type heading to a merchant
    stray = make_record(Envelope(
        sender="cbank", receiver="shopzone", channel=Channel.WEB,
        msg_type="sms_challenge", body={},
    ))
    # legal type, but an extra field outside the schema
    extra = make_record(Envelope(
        sender="cbank", receiver="shopzone", channel=Channel.WEB,
        msg_type="payment_confirmation",
        body={int(F.AMOUNT): b"\x00" * 8, int(F.CELL): b"+27"},
    ), seq=2)
    # legal shape, but the customer's account id rides in a field value
    leaky = make_record(Envelope(
        sender="alice", receiver="shopzone", channel=Channel.WEB,
        msg_type="checkout_request", body={},
        cookie="ACC-1001",
    ), seq=3)
    findings = merchant_blindness_check(
        [stray, extra, leaky], merchant_names=["shopzone"],
        customer_account_ids=["ACC-1001"],
    )
    reasons = sorted(f.reason for f in findings)
    assert len(findings) == 3
    assert any("msg_type" in r for r in reasons)
    assert any("outside merchant schema" in r for r in reasons)
    assert any("account id" in r for r in reasons)
    # traffic not addressed to a merchant is out of scope
    assert merchant_blindness_check(
        [stray], merchant_names=["elsewhere"], customer_account_ids=["ACC-1001"]
    ) == []
