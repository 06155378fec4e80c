"""Device-side behavior: vault handling, composition, and SMS discipline."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticpay.auth_server import BankActor, BankServer, TxnState
from ticpay.client_agent import ClientAgent
from ticpay.crypto import Pin
from ticpay.errors import IntegrityFailure
from ticpay.netsim import AdversaryScript, Drop, Replay, Rule, Simulation, Tamper
from ticpay.payment import PayMode, PaymentOrder
from ticpay.protocol import TEMPLATES
from ticpay.scenarios import find_bundled, load_spec, run_spec
from ticpay.wire import Channel, Envelope, F

PIN = Pin.from_hex("00112233445566aa")
WRONG_PIN = Pin.from_hex("00112233445566ab")


def default_order(amount=2599):
    return PaymentOrder(
        mode=PayMode.ELECTRONIC_TRANSFER, payee_account="ACC-9914", amount=amount
    )


def build(client_kw=None, server_kw=None, provision=2, payments=None):
    server = BankServer(seed=7, **(server_kw or {}))
    server.enroll(
        username="alice",
        password="hunter2",
        pin=PIN,
        cell_number="+27-82-000-0001",
        account_id="ACC-1001",
        balance=100_000,
        vault_password="device-pass",
    )
    bank = BankActor(server, provision_plan={"alice": provision})
    kw = dict(
        name="alice",
        password="hunter2",
        pin=PIN,
        vault_password="device-pass",
        payments=payments if payments is not None else [default_order()],
    )
    kw.update(client_kw or {})
    client = ClientAgent(**kw)
    return server, bank, client


def run(actors, adversary=None) -> Simulation:
    sim = Simulation(adversary=adversary)
    for actor in actors:
        sim.add_actor(actor)
    sim.run_to_quiescence()
    return sim


def notes(sim) -> list:
    return [f"{e.sender}: {e.note}" for e in sim.trace.find(kind="note")]


def sent_types(sim) -> list:
    return [e.msg_type for e in sim.trace.find(kind="send")]


def test_client_rejects_unknown_policies():
    with pytest.raises(ValueError):
        ClientAgent(name="a", password="p", pin=PIN, vault_password="v", reply_policy="maybe")


# -- end-to-end flows ------------------------------------------------------------


def test_happy_path_commits_and_spends_one_code():
    server, bank, client = build()
    sim = run([client, bank])
    assert client.outcomes == ["committed"]
    assert client.vault is not None and client.vault.remaining() == 1
    assert server.balances["ACC-1001"] == 100_000 - 2599
    log = notes(sim)
    for expected in (
        "alice: vault-received",
        "alice: session-established",
        "alice: submitted amount=2599",
        "alice: submit-accepted txn=T0001",
        "alice: sms-replied txn=T0001 decision=YES",
        "alice: result committed",
    ):
        assert any(expected in line for line in log), expected


def test_client_key_matches_server_key():
    server, bank, client = build()
    run([client, bank])
    # one session, established via the wrapped key, never sent raw
    session = next(iter(server.sessions.values()))
    assert client.session.secret_key.key_bytes == session.secret_key.key_bytes


def test_wrong_pin_stops_the_flow_before_any_submission():
    server, bank, client = build(client_kw={"pin": WRONG_PIN})
    sim = run([client, bank])
    assert client.outcomes == ["key-unwrap-failed"]
    assert "alice: key-unwrap-failed cause=IntegrityFailure" in notes(sim)
    for msg_type in ("mode_select", "payment_submit"):
        assert msg_type not in sent_types(sim)


def test_wrong_vault_password_sends_nothing():
    server, bank, client = build(client_kw={"vault_password": "not-it"})
    sim = run([client, bank])
    assert client.outcomes == ["vault-failure"]
    assert "alice: vault-failure cause=IntegrityFailure" in notes(sim)
    assert "payment_submit" not in sent_types(sim)
    # nothing spent: both issued codes are still live
    assert len(server.registry.issued_values()) == 2
    assert server.registry.accepted_log == []


def test_bad_login_abandons_the_queue_instead_of_retrying_forever():
    server, bank, client = build(
        client_kw={"password": "wrong"},
        payments=[default_order(), default_order(700)],
    )
    sim = run([client, bank])
    assert client.outcomes == [
        "login-failed:bad-credentials",
        "login-failed:bad-credentials",
    ]
    assert sent_types(sim).count("login_request") == 2


def test_decline_policy_aborts_without_spending():
    server, bank, client = build(client_kw={"reply_policy": "no"})
    run([client, bank])
    assert client.outcomes == ["aborted"]
    assert server.balances["ACC-1001"] == 100_000
    # the code is still gone: acceptance consumed it before the decline
    assert len(server.registry.issued_values()) == 2
    assert len(server.registry.accepted_log) == 1


def test_silence_times_out_server_side():
    server, bank, client = build(
        client_kw={"reply_policy": "ignore"},
        server_kw={"sms_deadline": 4},
    )
    sim = run([client, bank])
    assert client.outcomes == ["aborted"]
    log = notes(sim)
    assert any("sms-unanswered" in line for line in log)
    assert any("txn-aborted txn=T0001 cause=timeout" in line for line in log)
    assert server.balances["ACC-1001"] == 100_000


def test_spoofed_sms_prompt_is_ignored():
    server, bank, client = build()
    spoof = Envelope(
        sender="cbank",
        receiver="alice",
        channel=Channel.SMS,
        msg_type="sms_challenge",
        body={
            int(F.TXN_ID): b"T0099",
            int(F.AMOUNT): (9_999).to_bytes(8, "big"),
        },
    ).to_bytes()
    sim = run([client, bank], adversary=AdversaryScript(injections=[(3, spoof)]))
    assert "alice: sms-ignored txn=T0099" in notes(sim)
    # the genuine flow is unharmed and only one reply ever goes out
    assert client.outcomes == ["committed"]
    assert sent_types(sim).count("sms_reply") == 1


def test_unknown_message_types_are_noted_and_skipped():
    server, bank, client = build()
    stray = Envelope(
        sender="cbank", receiver="alice", channel=Channel.WEB, msg_type="marketing",
    ).to_bytes()
    sim = run([client, bank], adversary=AdversaryScript(injections=[(2, stray)]))
    assert "alice: ignored msg_type=marketing" in notes(sim)
    assert client.outcomes == ["committed"]


def test_two_queued_payments_use_two_sessions_and_two_codes():
    server, bank, client = build(payments=[default_order(), default_order(700)])
    sim = run([client, bank])
    assert client.outcomes == ["committed", "committed"]
    assert server.balances["ACC-1001"] == 100_000 - 2599 - 700
    assert client.vault.remaining() == 0
    assert sent_types(sim).count("login_request") == 2
    assert len(server.sessions) == 2


def test_exhausted_vault_fails_the_remaining_payment():
    server, bank, client = build(
        provision=1, payments=[default_order(), default_order(700)]
    )
    sim = run([client, bank])
    assert client.outcomes == ["committed", "vault-failure"]
    assert "alice: vault-failure cause=VaultEmpty" in notes(sim)
    assert server.balances["ACC-1001"] == 100_000 - 2599


# Body offsets inside a tic_provision envelope: a 6-byte field prefix, then
# the vault header (magic 2, version 1, seal count 8, salt 16, iterations 4,
# alphabet as a 2-byte length plus text, cipher likewise, blob length 4),
# then the sealed blob, whose first byte is its key role.
VAULT_ITERATIONS_LOW_BYTE = 6 + 27 + 3
VAULT_ALPHABET_TEXT = 6 + 31 + 2
VAULT_CIPHER_TEXT = VAULT_ALPHABET_TEXT + len("alphanumeric-upper") + 2
VAULT_BLOB_ROLE = VAULT_CIPHER_TEXT + len("aes-gcm") + 4


@pytest.mark.parametrize("offset", [
    VAULT_ITERATIONS_LOW_BYTE, VAULT_ALPHABET_TEXT, VAULT_CIPHER_TEXT, VAULT_BLOB_ROLE,
])
def test_tampered_provision_is_rejected_and_the_run_completes(offset):
    server, bank, client = build()
    adversary = AdversaryScript(rules=[
        Rule(action=Tamper(edits=((offset, 0x01),)), msg_type="tic_provision"),
    ])
    sim = run([client, bank], adversary=adversary)
    assert any(line.startswith("alice: provision-rejected") for line in notes(sim))
    assert client.vault is None
    assert "login_request" not in sent_types(sim)
    assert client.outcomes == []


# -- a reply is acted on only while its request is outstanding ---------------------


def bundled_run(name, *rules, injections=()):
    spec = load_spec(find_bundled(name))
    return run_spec(replace(spec, adversary=AdversaryScript(rules, injections)))


def pays_once(report) -> bool:
    """The run's one client commits its one payment, exactly once."""
    commits = [t for t in report.world.server.txns.values() if t.state is TxnState.COMMITTED]
    return [c.outcomes for c in report.world.clients] == [["committed"]] and len(commits) == 1


@pytest.mark.parametrize("name, msg_type, delay", [
    ("happy-oneway", "login_response", 3),  # read an empty payment queue: IndexError
    ("happy-oneway", "login_request", 3),
    ("happy-twoway", "login_request", 18),  # started a second checkout and paid twice
])
def test_a_login_response_outside_its_request_is_ignored(name, msg_type, delay):
    report = bundled_run(name, Rule(Replay(delay=delay), msg_type=msg_type, nth=1))
    assert pays_once(report), report.render()
    assert "alice: unexpected-login-response ignored" in notes(report.world.sim)


def test_an_invoice_outside_its_checkout_is_ignored():
    untouched = bundled_run("happy-twoway")
    invoice = next(r.data for r in untouched.world.sim.wire_log if r.msg_type == "invoice")
    # Injected before any session, the invoice crashed the client; replayed,
    # it started a second merchant check that cost the payment.
    for report in (bundled_run("happy-twoway", injections=[(0, invoice)]),
                   bundled_run("happy-twoway", Rule(Replay(delay=5), msg_type="invoice",
                                                    nth=1))):
        assert pays_once(report), report.render()
        assert "alice: unexpected-invoice ignored" in notes(report.world.sim)


# Replays that cost the payment or counted it twice (the outcome each gave
# is beside it) while the client acted on any mode_ack, merchant_auth_ack
# and txn_result, and the gateway replaced a request's state when its
# merchant_auth_request came again.
@pytest.mark.parametrize("name, msg_type, delay", [
    ("happy-oneway", "txn_result", 5),  # ['committed', 'committed']
    ("happy-twoway", "txn_result", 5),  # ['committed', 'committed']
    ("happy-oneway", "mode_select", 2),  # ['mode-rejected:wrong-phase', 'aborted']
    ("happy-twoway", "mode_select", 2),  # ['mode-rejected:wrong-phase', 'aborted']
    ("happy-twoway", "merchant_auth_ack", 2),  # ['mode-rejected:wrong-phase', 'aborted']
    # ['submit-denied', 'mode-rejected:wrong-phase']
    ("happy-twoway", "merchant_auth_request", 6),
    # ['submit-denied', 'committed'], and a second TIC code spent
    ("happy-twoway", "mode_ack", 3),
])
def test_a_replayed_request_or_reply_leaves_the_outcome_alone(name, msg_type, delay):
    report = bundled_run(name, Rule(Replay(delay=delay), msg_type=msg_type, nth=1))
    assert pays_once(report), report.render()
    # and the device spent one code, as the untouched run does
    (client,) = report.world.clients
    assert client.vault.remaining() == bundled_run(name).world.clients[0].vault.remaining()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the client has no deadline of its own (ROADMAP item 12)")
def test_a_lost_answer_still_ends_in_an_outcome():
    # With the first mode_ack dropped, ('mode_ack', '') stays due for ever
    # and the run ends with no outcome for the client.
    report = bundled_run("happy-oneway", Rule(Drop(), msg_type="mode_ack", nth=1))
    (client,) = report.world.clients
    assert client.outcomes, sorted(client._due)


# Any 1-3 replays of the first transmission of any of the flow's message
# types, each at delay 1-40 with 1-2 copies.
HAPPY_FLOWS = {"happy-oneway": "one-way", "happy-twoway": "two-way"}
replay_attacks = st.sampled_from(sorted(HAPPY_FLOWS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.builds(
        lambda msg_type, delay, copies: Rule(Replay(delay, copies), msg_type=msg_type, nth=1),
        st.sampled_from(TEMPLATES[HAPPY_FLOWS[name]]), st.integers(1, 40), st.integers(1, 2),
    ), min_size=1, max_size=3),
))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(replay_attacks)
def test_no_mix_of_replays_changes_an_outcome(attack):
    name, rules = attack
    report = bundled_run(name, *rules)
    assert not {r.name for r in report.results} & {"actor-fault", "step-budget"}, \
        report.render()
    assert [c.outcomes for c in report.world.clients] == [["committed"]], rules
