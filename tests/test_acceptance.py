"""End-to-end security gate: every claimed property, measured at scale.

Each test owns one property and prints a single verdict line (visible
with `pytest -s`, and mirrored by the test's own pass/fail status).
The tolerances are absolute: the rejection properties demand zero
counterexamples over the full trial count, not a rate.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

from ticpay.auth_server import BankActor, BankServer, TxnState
from ticpay.checks import (
    conformance_check,
    leakage_scan,
    merchant_blindness_check,
    total_funds,
)
from ticpay.client_agent import ClientAgent
from ticpay.crypto import CryptoSuite, Pin, SecretKey
from ticpay.errors import IntegrityFailure, WireError
from ticpay.netsim import AdversaryScript, Drop, Replay, Rule, Simulation
from ticpay.payment import PayMode, PaymentOrder
from ticpay.protocol import ONE_WAY_TEMPLATE, TWO_WAY_TEMPLATE
from ticpay.scenarios import build_world, find_bundled, list_bundled, load_spec
from ticpay.tic_registry import ALPHABET
from ticpay.two_way import MerchantAgent, MerchantBank, TwoWayGateway
from ticpay.wire import Channel, Envelope, F, KeyRole, encode_fields

PIN = Pin.from_hex("00112233445566aa")

PAYMENT_PHASE_TYPES = (
    "mode_select", "payment_submit", "submit_ack", "sms_challenge",
    "sms_reply", "txn_result", "settle_notice", "payment_notice",
    "payment_confirmation",
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def one_way_run(*, seed, payments, reply="yes", reply_delay=0, sms_deadline=300,
                batch=None, adversary=None):
    """One customer against one bank, with per-instant funds watching."""
    server = BankServer(seed=seed, sms_deadline=sms_deadline)
    server.enroll(
        username="alice", password="pw", pin=PIN, cell_number="+27-82-000-0001",
        account_id="ACC-1001", balance=10**9, vault_password="vp",
    )
    server.enroll(
        username="carol", password="pw2", pin=Pin.from_hex("99aabbccddeeff00"),
        cell_number="+27-82-000-0002", account_id="ACC-2002", balance=10**6,
        vault_password="vp2",
    )
    bank = BankActor(server, provision_plan={"alice": batch or len(payments)})
    client = ClientAgent(
        name="alice", password="pw", pin=PIN, vault_password="vp",
        payments=list(payments), reply_policy=reply, reply_delay=reply_delay,
    )
    sim = Simulation(adversary=adversary)
    sim.add_actor(bank)
    sim.add_actor(client)
    baseline = server.total_funds()
    violations = []

    def watch(s):
        if server.total_funds() != baseline:
            violations.append(s.now)

    sim.after_event = watch
    sim.run_to_quiescence()
    return SimpleNamespace(server=server, client=client, sim=sim,
                           violations=violations)


def order(amount, payee="ACC-9914", mode=PayMode.ELECTRONIC_TRANSFER):
    return PaymentOrder(mode=mode, payee_account=payee, amount=amount)


# -- single-use codes ---------------------------------------------------------------


def test_codes_are_single_use_and_replays_never_land():
    rnd = random.Random(0xC1)
    conservation_breaks = 0

    duplicate_accepts = 0
    for _ in range(1000):
        count = rnd.choice((1, 1, 2))
        payments = [
            order(rnd.randrange(1, 50_000),
                  payee=rnd.choice(("ACC-9914", "ACC-2002")))
            for _ in range(count)
        ]
        run = one_way_run(seed=rnd.randrange(2**32), payments=payments,
                          batch=count + rnd.choice((0, 1)))
        pairs = run.server.registry.accepted_log
        if len(pairs) != len(set(pairs)):
            duplicate_accepts += 1
        assert len(pairs) == count  # every attempt had a fresh code to accept
        conservation_breaks += len(run.violations)

    replay_accepted = 0
    for _ in range(500):
        adversary = AdversaryScript(rules=[
            Rule(action=Replay(delay=rnd.randrange(1, 40),
                               copies=rnd.choice((1, 2))),
                 channel=Channel.WEB, msg_type="payment_submit", nth=1),
        ])
        run = one_way_run(seed=rnd.randrange(2**32),
                          payments=[order(rnd.randrange(1, 50_000))],
                          adversary=adversary)
        committed = [t for t in run.server.txns.values()
                     if t.state is TxnState.COMMITTED]
        # the replayed copies were delivered, yet nothing beyond the
        # original acceptance ever happened
        delivered = [e for e in run.sim.trace.find(kind="deliver",
                                                   msg_type="payment_submit")]
        assert len(delivered) >= 2
        if (len(run.server.txns) != 1 or len(committed) != 1
                or len(run.server.registry.accepted_log) != 1):
            replay_accepted += 1
        conservation_breaks += len(run.violations)

    _verdict(
        "single-use codes",
        duplicate_accepts == 0 and replay_accepted == 0,
        f"1000 randomized runs, 0 double-acceptances required, got {duplicate_accepts}; "
        f"500 replay runs, 0 replayed acceptances required, got {replay_accepted}",
    )
    assert conservation_breaks == 0


# -- SMS gating ----------------------------------------------------------------------


def test_commit_happens_exactly_when_an_on_time_yes_arrives():
    rnd = random.Random(0xC2)
    counterexamples = 0

    for _ in range(1000):
        policy = rnd.choice(("yes", "no", "ignore"))
        deadline = rnd.randrange(5, 26)
        delay = rnd.randrange(0, 31)
        run = one_way_run(seed=rnd.randrange(2**32),
                          payments=[order(rnd.randrange(1, 9_999))],
                          reply=policy, reply_delay=delay,
                          sms_deadline=deadline)
        assert len(run.server.txns) == 1
        txn = next(iter(run.server.txns.values()))
        replies = run.sim.trace.find(kind="deliver", msg_type="sms_reply")
        reply_at = replies[0].at if replies else None
        expected = (
            policy == "yes"
            and reply_at is not None
            and reply_at <= txn.expiry_deadline
        )
        if (txn.state is TxnState.COMMITTED) != expected:
            counterexamples += 1

    # the acceptance conjunct: without an accepted code there is no
    # transaction for any reply to confirm
    server = BankServer(seed=9)
    server.enroll(username="u", password="p", pin=PIN, cell_number="+0",
                  account_id="ACC-1", balance=10**6, vault_password="v")
    suite = CryptoSuite()
    ghost_commits = 0
    for i in range(200):
        login = server.login("u", "p")
        server.select_mode(login.cookie, "electronic-transfer")
        key = suite.unwrap_secret_key(login.wrapped_secret, PIN, login.cookie)
        enc_tic = suite.encrypt_tic("ZZZZ0000YYYY1111", key, login.cookie)
        enc_order = suite.encrypt_payment(order(10), "ZZZZ0000YYYY1111", login.cookie)
        result = server.submit_payment(login.cookie, enc_tic.to_bytes(),
                                       enc_order.to_bytes())
        if result.ok or server.handle_sms_reply(f"T{i:04d}", "YES").ok:
            ghost_commits += 1

    _verdict(
        "SMS confirmation gating",
        counterexamples == 0 and ghost_commits == 0,
        f"1000 randomized reply runs, 0 counterexamples required, got {counterexamples}; "
        f"200 unaccepted-code submissions, 0 ghost commits required, got {ghost_commits}",
    )


# -- wire confidentiality --------------------------------------------------------------


def run_bundled(name, cipher=None):
    spec = load_spec(find_bundled(name))
    if cipher is not None:
        spec = replace(spec, cipher=cipher)
    world = build_world(spec)
    world.sim.run_to_quiescence()
    return world


def test_no_secret_bytes_ever_cross_a_channel():
    hits = {}
    scanned = 0
    for entry in list_bundled():
        world = run_bundled(entry["name"])
        findings = leakage_scan(world.sim.wire_log, world.secrets())
        scanned += len(world.sim.wire_log)
        if findings:
            hits[entry["name"]] = findings[:3]

    # scanner sensitivity control: the identity cipher must light it up
    control = run_bundled("happy-oneway", cipher="null")
    control_findings = leakage_scan(control.sim.wire_log, control.secrets())

    _verdict(
        "wire confidentiality",
        not hits and len(control_findings) >= 1,
        f"{scanned} transmissions over {len(list_bundled())} scenarios, "
        f"findings {hits or 0}; identity-cipher control found "
        f"{len(control_findings)}",
    )


# -- tamper rejection -------------------------------------------------------------------


def test_every_single_bit_tamper_of_a_submission_is_rejected():
    server = BankServer(seed=0xC4)
    server.enroll(username="u", password="p", pin=PIN, cell_number="+0",
                  account_id="ACC-1", balance=10**9, vault_password="v")
    batch = server.registry.generate_tics("ACC-1", 2048, seed=b"tamper-bits")
    suite = CryptoSuite()

    def fresh_submission(code_value):
        login = server.login("u", "p")
        server.select_mode(login.cookie, "electronic-transfer")
        key = suite.unwrap_secret_key(login.wrapped_secret, PIN, login.cookie)
        return Envelope(
            sender="u", receiver=server.name, channel=Channel.WEB,
            msg_type="payment_submit", cookie=login.cookie,
            body={
                int(F.ENC_TIC): suite.encrypt_tic(code_value, key,
                                                  login.cookie).to_bytes(),
                int(F.ENC_ORDER): suite.encrypt_payment(order(2599), code_value,
                                                        login.cookie).to_bytes(),
            },
        )

    probe = fresh_submission(batch.codes[0].value)
    data = probe.to_bytes()
    body_start = len(data) - len(encode_fields(probe.body))  # body is the tail
    body_bits = (len(data) - body_start) * 8
    assert len(data) <= 1024
    assert body_bits < len(batch.codes) - 1  # a fresh code per bit position

    # the untampered control must land, or the sweep proves nothing
    control = server.submit_payment(probe.cookie,
                                    probe.body[int(F.ENC_TIC)],
                                    probe.body[int(F.ENC_ORDER)])
    assert control.ok
    del server.txns[control.txn_id]

    parse_rejections = 0
    auth_rejections = 0
    accepted = 0
    for bit in range(body_bits):
        env = fresh_submission(batch.codes[1 + bit].value)
        raw = bytearray(env.to_bytes())
        raw[body_start + bit // 8] ^= 1 << (bit % 8)
        try:
            tampered = Envelope.from_bytes(bytes(raw))
        except WireError:
            parse_rejections += 1
            continue
        result = server.submit_payment(
            tampered.cookie,
            tampered.body.get(int(F.ENC_TIC), b""),
            tampered.body.get(int(F.ENC_ORDER), b""),
        )
        if result.ok:
            accepted += 1
        else:
            auth_rejections += 1

    pending = [t for t in server.txns.values() if t.state is TxnState.PENDING]
    _verdict(
        "single-bit tamper rejection",
        accepted == 0 and not pending,
        f"{body_bits} bit positions over a {len(data)}-byte submission: "
        f"{parse_rejections} parse rejections, {auth_rejections} denials, "
        f"{accepted} acceptances (0 required), {len(pending)} pending left",
    )


# -- session uniqueness -------------------------------------------------------------------


def test_a_thousand_logins_share_no_cookie_or_key():
    server = BankServer(seed=0xC5)
    server.enroll(username="u", password="p", pin=PIN, cell_number="+0",
                  account_id="ACC-1", balance=0, vault_password="v")
    cookies = set()
    keys = set()
    for _ in range(1000):
        result = server.login("u", "p")
        cookies.add(result.cookie)
        keys.add(server.sessions[result.cookie].secret_key.key_bytes)
    _verdict(
        "session uniqueness",
        len(cookies) == 1000 and len(keys) == 1000,
        f"1000 logins: {len(cookies)} distinct cookies, {len(keys)} distinct keys",
    )


# -- crypto round trips ----------------------------------------------------------------


def test_ten_thousand_round_trips_per_role_and_no_wrong_key_opens():
    rnd = random.Random(0xC6)
    suite = CryptoSuite()
    symbols = ALPHABET

    def random_code():
        return "".join(rnd.choice(symbols) for _ in range(16))

    def random_order():
        return PaymentOrder(
            mode=rnd.choice(list(PayMode)),
            payee_account="A-" + str(rnd.randrange(10**8)),
            amount=rnd.randrange(1, 2**40),
            invoice_number=f"INV{rnd.randrange(10**6)}" if rnd.random() < 0.5 else None,
            branch_code=str(rnd.randrange(10**4)) if rnd.random() < 0.3 else None,
        )

    mismatches = 0
    per_role = 10_000
    for _ in range(per_role):
        handle = rnd.randbytes(8).hex()

        key = SecretKey(key_bytes=rnd.randbytes(32), session_id=f"S{rnd.randrange(10**6)}")
        pin = Pin(rnd.randbytes(8))
        unwrapped = suite.unwrap_secret_key(
            suite.wrap_secret_key(key, pin, handle), pin, handle)
        if (unwrapped.key_bytes, unwrapped.session_id) != (key.key_bytes, key.session_id):
            mismatches += 1

        code = random_code()
        if suite.decrypt_tic(suite.encrypt_tic(code, key, handle), key, handle) != code:
            mismatches += 1

        o = random_order()
        if suite.decrypt_payment(suite.encrypt_payment(o, code, handle), code, handle) != o:
            mismatches += 1

        blob = rnd.randbytes(rnd.randrange(0, 100))
        raw_key = rnd.randbytes(32)
        role = rnd.choice((KeyRole.VAULT_KEYED, KeyRole.BANK_NET_KEYED))
        if suite.open_blob(suite.seal_blob(role, raw_key, blob, handle),
                           role, raw_key, handle) != blob:
            mismatches += 1

    wrong_key_opens = 0
    trials = 10_000
    for i in range(trials):
        handle = rnd.randbytes(8).hex()
        kind = i % 4
        try:
            if kind == 0:
                pin_a, pin_b = Pin(rnd.randbytes(8)), Pin(rnd.randbytes(8))
                while pin_b.value == pin_a.value:
                    pin_b = Pin(rnd.randbytes(8))
                key = SecretKey(key_bytes=rnd.randbytes(32), session_id="S1")
                suite.unwrap_secret_key(
                    suite.wrap_secret_key(key, pin_a, handle), pin_b, handle)
            elif kind == 1:
                key_a = SecretKey(key_bytes=rnd.randbytes(32), session_id="S1")
                key_b = SecretKey(key_bytes=rnd.randbytes(32), session_id="S1")
                suite.decrypt_tic(
                    suite.encrypt_tic(random_code(), key_a, handle), key_b, handle)
            elif kind == 2:
                code_a, code_b = random_code(), random_code()
                suite.decrypt_payment(
                    suite.encrypt_payment(random_order(), code_a, handle),
                    code_b, handle)
            else:
                role = rnd.choice((KeyRole.VAULT_KEYED, KeyRole.BANK_NET_KEYED))
                suite.open_blob(
                    suite.seal_blob(role, rnd.randbytes(32), b"x", handle),
                    role, rnd.randbytes(32), handle)
            wrong_key_opens += 1
        except IntegrityFailure:
            pass

    _verdict(
        "authenticated encryption round trips",
        mismatches == 0 and wrong_key_opens == 0,
        f"{per_role} randomized cases per key role bit-exact "
        f"({mismatches} mismatches); {trials} wrong-key opens attempted, "
        f"{wrong_key_opens} succeeded (0 required)",
    )


# -- two-way negative verdicts -----------------------------------------------------------


def two_way_run(*, seed=31, mangle=None, known_banks=("mbank",), adversary=None):
    server = BankServer(seed=seed)
    server.enroll(
        username="alice", password="pw", pin=PIN, cell_number="+27-82-000-0001",
        account_id="ACC-1001", balance=100_000, vault_password="vp",
    )
    mbank = MerchantBank(seed=seed + 1)
    record = mbank.register_merchant("shopzone", "MAC-7001", "Shop Zone",
                                     balance=50_000)
    if mangle is not None:
        mangle(mbank, record)
    merchant = MerchantAgent(record, bank="mbank", price=4999)
    gateway = TwoWayGateway(server, {"alice": 2}, known_banks=set(known_banks))
    client = ClientAgent(
        name="alice", password="pw", pin=PIN, vault_password="vp",
        merchant="shopzone", mode="credit-card",
    )
    sim = Simulation(adversary=adversary)
    for actor in (client, gateway, merchant, mbank):
        sim.add_actor(actor)
    baseline = total_funds([server, mbank])
    violations = []

    def watch(s):
        if total_funds([server, mbank]) != baseline:
            violations.append(s.now)

    sim.after_event = watch
    sim.run_to_quiescence()
    return SimpleNamespace(server=server, mbank=mbank, merchant=merchant,
                           gateway=gateway, client=client, sim=sim,
                           violations=violations)


NEGATIVE_CASES = {
    "expired": dict(mangle=lambda mb, r: mb.issue_certificate("shopzone", 0, 1)),
    "not-yet-valid": dict(mangle=lambda mb, r: mb.issue_certificate(
        "shopzone", 10**6, 10**7)),
    "bad-signature": dict(mangle=lambda mb, r: setattr(
        r, "certificate", replace(r.certificate, display_name="Sh0p Zone"))),
    "suspended": dict(mangle=lambda mb, r: setattr(r, "standing", "suspended")),
    "unknown-merchant-bank": dict(known_banks=("some-other-bank",)),
    "timeout": dict(adversary=AdversaryScript(rules=[
        Rule(action=Drop(), channel=Channel.INTERBANK,
             msg_type="merchant_auth_verdict"),
    ])),
}


def test_failed_merchant_authentication_stops_everything():
    leaks = []
    for reason, kw in NEGATIVE_CASES.items():
        run = two_way_run(**kw)
        sent = {e.msg_type for e in run.sim.trace.find(kind="send")}
        problems = []
        if run.client.outcomes != [f"merchant-rejected:{reason}"]:
            problems.append(f"outcomes={run.client.outcomes}")
        if sent & set(PAYMENT_PHASE_TYPES):
            problems.append(f"payment traffic {sorted(sent & set(PAYMENT_PHASE_TYPES))}")
        if run.server.registry.accepted_log:
            problems.append("a code was consumed")
        if (run.server.balances["ACC-1001"] != 100_000
                or run.mbank.balances["MAC-7001"] != 50_000
                or run.server.clearing or run.mbank.clearing):
            problems.append("funds moved")
        if run.gateway.allows(run.client.request_id):
            problems.append("gate left open")
        if problems:
            leaks.append(f"{reason}: {', '.join(problems)}")

    _verdict(
        "negative merchant verdicts stop payment",
        not leaks,
        f"{len(NEGATIVE_CASES)} rejection causes, each with zero payment "
        f"envelopes, zero code consumptions, zero fund movement"
        + (f"; violations: {leaks}" if leaks else ""),
    )


# -- merchant blindness ---------------------------------------------------------------


def test_merchants_never_see_customer_payment_data():
    findings = []
    runs = 0

    happy = run_bundled("happy-twoway")
    merchant_names = [happy.merchant_agent.name]
    accounts = [c.account_id for c in happy.spec.clients]
    findings += merchant_blindness_check(happy.sim.wire_log, merchant_names, accounts)
    runs += 1

    for kw in NEGATIVE_CASES.values():
        run = two_way_run(**kw)
        findings += merchant_blindness_check(
            run.sim.wire_log, ["shopzone"], ["ACC-1001"])
        runs += 1

    replayed = two_way_run(adversary=AdversaryScript(rules=[
        Rule(action=Replay(delay=2), channel=Channel.INTERBANK,
             msg_type="settle_notice", nth=1),
    ]))
    findings += merchant_blindness_check(replayed.sim.wire_log,
                                         ["shopzone"], ["ACC-1001"])
    runs += 1

    _verdict(
        "merchant blindness",
        not findings,
        f"{runs} two-way runs scanned at schema level, "
        f"{len(findings)} findings (0 required)",
    )


# -- trace conformance ------------------------------------------------------------------


def test_happy_paths_match_their_templates_byte_reproducibly():
    divergences = []

    for name, template in (("happy-oneway", ONE_WAY_TEMPLATE),
                           ("happy-twoway", TWO_WAY_TEMPLATE)):
        exports = []
        for _ in range(2):
            world = run_bundled(name)
            outcome = conformance_check(world.sim.trace, template,
                                        [client.name for client in world.clients])
            if not outcome.ok:
                divergences.append(f"{name}: {outcome.describe()}")
            exports.append(world.sim.trace.export_jsonl())
        if exports[0] != exports[1]:
            divergences.append(f"{name}: repeated seeded runs diverge")

    _verdict(
        "happy-path trace conformance",
        not divergences,
        f"one-way matches its {len(ONE_WAY_TEMPLATE)}-message template, "
        f"two-way its {len(TWO_WAY_TEMPLATE)}-message template, twice each, "
        f"byte-identical exports" + (f"; {divergences}" if divergences else ""),
    )


# -- conservation -----------------------------------------------------------------------


def test_money_is_conserved_at_every_instant_and_credited_once():
    instants = 0
    breaks = []

    run = one_way_run(seed=0xC10, payments=[order(2599), order(700)])
    instants += len(run.sim.trace.events)
    breaks += run.violations

    happy = two_way_run()
    instants += len(happy.sim.trace.events)
    breaks += happy.violations

    replayed = two_way_run(adversary=AdversaryScript(rules=[
        Rule(action=Replay(delay=3, copies=2), channel=Channel.INTERBANK,
             msg_type="settle_notice", nth=1),
    ]))
    instants += len(replayed.sim.trace.events)
    breaks += replayed.violations
    credited_once = (
        replayed.mbank.balances["MAC-7001"] == 50_000 + 4999
        and len(replayed.merchant.confirmations) == 1
        and len(replayed.sim.trace.find(kind="deliver",
                                        msg_type="settle_notice")) == 3
    )

    _verdict(
        "funds conservation",
        not breaks and credited_once,
        f"balance totals constant across {instants} instants; "
        f"triple-delivered settle notice credited the merchant exactly once",
    )
