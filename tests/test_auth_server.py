"""Bank-side session, submission, and confirmation rules, transport-free.

Client-side composition is done inline with a plain CryptoSuite so each
test controls exactly which factor is wrong.
"""

from __future__ import annotations

import pytest

from ticpay.auth_server import (
    BankServer,
    Phase,
    Session,
    TxnState,
    generic_denial_body,
)
from ticpay.crypto import KEY_LEN, CryptoSuite, Pin, SecretKey
from ticpay.payment import PayMode, PaymentOrder
from ticpay.wire import F, encode_fields

PIN = Pin.from_hex("00112233445566aa")
WRONG_PIN = Pin.from_hex("00112233445566ab")


def enrolled_server(**server_kw) -> BankServer:
    server = BankServer(seed=101, **server_kw)
    server.enroll(
        username="alice",
        password="hunter2",
        pin=PIN,
        cell_number="+27-82-000-0001",
        account_id="ACC-1001",
        balance=100_000,
        vault_password="device-pass",
    )
    server.enroll(
        username="bob",
        password="swordfish",
        pin=Pin.from_hex("ffeeddccbbaa9988"),
        cell_number="+27-82-000-0002",
        account_id="ACC-1002",
        balance=500,
        vault_password="device-pass",
    )
    return server


def open_session(server: BankServer, username="alice", password="hunter2", pin=PIN):
    """Login and unwrap the session key the way a device would."""
    result = server.login(username, password)
    assert result.ok, result.reason
    key = CryptoSuite().unwrap_secret_key(result.wrapped_secret, pin, result.cookie)
    return result.cookie, key


def compose(cookie, key, code_value, amount=2599, payee="ACC-9914",
            mode=PayMode.ELECTRONIC_TRANSFER):
    suite = CryptoSuite()
    order = PaymentOrder(mode=mode, payee_account=payee, amount=amount)
    enc_tic = suite.encrypt_tic(code_value, key, cookie)
    enc_order = suite.encrypt_payment(order, code_value, cookie)
    return enc_tic.to_bytes(), enc_order.to_bytes()


def issue_codes(server: BankServer, account="ACC-1001", count=3):
    batch = server.registry.generate_tics(account, count, seed=b"test-codes" + account.encode())
    return [c.value for c in batch.codes]


# -- login -------------------------------------------------------------------


def test_login_wraps_a_fresh_session_key():
    server = enrolled_server()
    result = server.login("alice", "hunter2")
    assert result.ok
    assert result.welcome == "Welcome alice, session established"
    session = server.sessions[result.cookie]
    assert session.phase is Phase.LOGGED_IN
    key = CryptoSuite().unwrap_secret_key(result.wrapped_secret, PIN, result.cookie)
    assert key.key_bytes == session.secret_key.key_bytes


def test_login_failures_are_uninformative():
    server = enrolled_server()
    # unknown user and wrong password produce the same reason
    assert server.login("mallory", "x").reason == "bad-credentials"
    assert server.login("alice", "wrong").reason == "bad-credentials"


def test_lockout_after_repeated_failures():
    server = enrolled_server()
    for _ in range(4):
        assert server.login("alice", "wrong").reason == "bad-credentials"
    # a success before the threshold clears the count
    assert server.login("alice", "hunter2").ok
    for _ in range(5):
        server.login("alice", "wrong")
    locked = server.login("alice", "hunter2")
    assert not locked.ok
    assert locked.reason == "locked-out"
    # other accounts are untouched
    assert server.login("bob", "swordfish").ok


def test_sessions_do_not_collide():
    server = enrolled_server()
    cookies = set()
    keys = set()
    for _ in range(50):
        result = server.login("alice", "hunter2")
        cookies.add(result.cookie)
        keys.add(server.sessions[result.cookie].secret_key.key_bytes)
    assert len(cookies) == 50
    assert len(keys) == 50


def test_wrong_pin_cannot_unwrap_the_session_key():
    server = enrolled_server()
    result = server.login("alice", "hunter2")
    from ticpay.errors import IntegrityFailure

    with pytest.raises(IntegrityFailure):
        CryptoSuite().unwrap_secret_key(result.wrapped_secret, WRONG_PIN, result.cookie)


# -- mode selection ------------------------------------------------------------


def test_mode_selection_advances_the_phase():
    server = enrolled_server()
    cookie, _ = open_session(server)
    assert server.select_mode(cookie, "electronic-transfer").ok
    session = server.sessions[cookie]
    assert session.phase is Phase.AWAITING_TIC
    assert session.phase_history == [Phase.LOGGED_IN, Phase.MODE_SELECTED, Phase.AWAITING_TIC]


def test_mode_selection_rejections():
    server = enrolled_server()
    assert server.select_mode("no-such-cookie", "credit-card").reason == "unknown-session"
    cookie, _ = open_session(server)
    assert server.select_mode(cookie, "barter").reason == "bad-mode"
    assert server.select_mode(cookie, "credit-card").ok
    assert server.select_mode(cookie, "credit-card").reason == "wrong-phase"


# -- submission ----------------------------------------------------------------


def submit_ready(server, mode="electronic-transfer", **session_kw):
    cookie, key = open_session(server, **session_kw)
    assert server.select_mode(cookie, mode).ok
    return cookie, key


def test_submit_accepts_a_fresh_code():
    server = enrolled_server()
    codes = issue_codes(server)
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    result = server.submit_payment(cookie, enc_tic, enc_order, now=4)
    assert result.ok
    txn = server.txns[result.txn_id]
    assert txn.state is TxnState.PENDING
    assert txn.order.amount == 2599
    assert txn.expiry_deadline == 4 + server.sms_deadline
    assert server.sessions[cookie].phase is Phase.AWAITING_SMS
    # acceptance consumed the code
    assert server.registry.verify_and_consume("ACC-1001", codes[0]).reason == "already-used"


def expect_denial(server, cookie, enc_tic, enc_order, cause, now=0):
    txns_before = set(server.txns)
    result = server.submit_payment(cookie, enc_tic, enc_order, now=now)
    assert not result.ok
    assert result.cause == cause
    if cookie in server.sessions:
        assert server.sessions[cookie].phase is Phase.CLOSED
    # a denial never books a transaction
    assert set(server.txns) == txns_before
    return result


def test_submit_denial_matrix():
    server = enrolled_server()
    codes = issue_codes(server, count=8)

    # unknown session
    assert server.submit_payment("bogus", b"", b"").cause == "unknown-session"

    # wrong phase: straight after login
    cookie, key = open_session(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    expect_denial(server, cookie, enc_tic, enc_order, "wrong-phase")

    # undecryptable TIC: composed under a key the server never issued
    cookie, key = submit_ready(server)
    rogue = SecretKey(b"\x99" * KEY_LEN, "SROGUE")
    enc_tic, enc_order = compose(cookie, rogue, codes[0])
    expect_denial(server, cookie, enc_tic, enc_order, "tic-decrypt-failed")

    # a code the bank never issued
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, "ZZZZ9999YYYY8888")
    expect_denial(server, cookie, enc_tic, enc_order, "tic-unknown")

    # someone else's code
    cookie, key = submit_ready(server, username="bob", password="swordfish",
                               pin=Pin.from_hex("ffeeddccbbaa9988"))
    enc_tic, enc_order = compose(cookie, key, codes[1])
    expect_denial(server, cookie, enc_tic, enc_order, "tic-wrong-account")

    # tampered order ciphertext: the TIC is burned even though the order fails
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[2])
    corrupt = enc_order[:-1] + bytes([enc_order[-1] ^ 1])
    expect_denial(server, cookie, enc_tic, corrupt, "order-decrypt-failed")
    assert server.registry.verify_and_consume("ACC-1001", codes[2]).reason == "already-used"

    # order mode disagrees with the selected mode
    cookie, key = submit_ready(server, mode="credit-card")
    enc_tic, enc_order = compose(cookie, key, codes[3], mode=PayMode.DEBIT_CARD)
    expect_denial(server, cookie, enc_tic, enc_order, "mode-mismatch")

    # more money than the account holds
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[4], amount=100_001)
    expect_denial(server, cookie, enc_tic, enc_order, "insufficient-funds")


def test_submit_rejects_a_replayed_code():
    server = enrolled_server()
    codes = issue_codes(server, count=2)
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    assert server.submit_payment(cookie, enc_tic, enc_order).ok

    cookie2, key2 = submit_ready(server)
    enc_tic2, enc_order2 = compose(cookie2, key2, codes[0])
    expect_denial(server, cookie2, enc_tic2, enc_order2, "tic-already-used")


def test_replayed_ciphertext_fails_on_the_session_binding():
    # The same sealed bytes under a new session cookie must not decrypt,
    # independently of the registry's consume-once rule.
    server = enrolled_server()
    codes = issue_codes(server)
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    assert server.submit_payment(cookie, enc_tic, enc_order).ok

    cookie2, _ = submit_ready(server)
    expect_denial(server, cookie2, enc_tic, enc_order, "tic-decrypt-failed")


def test_failed_submit_keeps_the_pending_transaction():
    # A denial closes the session, but an already-accepted transaction from
    # that session stays pending and can still confirm over SMS.
    server = enrolled_server()
    codes = issue_codes(server, count=2)
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    txn_id = server.submit_payment(cookie, enc_tic, enc_order).txn_id

    late = server.submit_payment(cookie, enc_tic, enc_order)
    assert late.cause == "wrong-phase"
    assert server.txns[txn_id].state is TxnState.PENDING
    assert server.handle_sms_reply(txn_id, "YES").committed


# -- confirmation ----------------------------------------------------------------


def committed_txn(server, code, amount=2599, payee="ACC-9914", reply="YES", now=0):
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, code, amount=amount, payee=payee)
    result = server.submit_payment(cookie, enc_tic, enc_order, now=now)
    assert result.ok
    return server.handle_sms_reply(result.txn_id, reply, now=now)


def test_yes_commits_and_moves_funds_to_clearing():
    server = enrolled_server()
    codes = issue_codes(server)
    before = server.total_funds()
    reply = committed_txn(server, codes[0])
    assert reply.committed
    assert server.balances["ACC-1001"] == 100_000 - 2599
    assert server.clearing == 2599
    assert server.total_funds() == before


def test_local_payee_is_credited_directly():
    server = enrolled_server()
    codes = issue_codes(server)
    before = server.total_funds()
    reply = committed_txn(server, codes[0], amount=400, payee="ACC-1002")
    assert reply.committed
    assert server.balances["ACC-1002"] == 900
    assert server.clearing == 0
    assert server.total_funds() == before


def test_no_aborts_without_moving_funds():
    server = enrolled_server()
    codes = issue_codes(server)
    reply = committed_txn(server, codes[0], reply="no thanks")
    assert not reply.committed
    assert reply.cause == "declined"
    assert server.balances["ACC-1001"] == 100_000


def test_reply_parsing_is_forgiving_about_case_and_spacing():
    server = enrolled_server()
    codes = issue_codes(server)
    assert committed_txn(server, codes[0], reply="  yes ").committed


def test_reply_deadline_boundary():
    server = enrolled_server(sms_deadline=10)
    codes = issue_codes(server, count=2)

    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    txn_id = server.submit_payment(cookie, enc_tic, enc_order, now=0).txn_id
    # the deadline instant itself still commits
    assert server.handle_sms_reply(txn_id, "YES", now=10).committed

    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[1])
    txn_id = server.submit_payment(cookie, enc_tic, enc_order, now=0).txn_id
    late = server.handle_sms_reply(txn_id, "YES", now=11)
    assert not late.committed
    assert late.cause == "timeout"


def test_reply_bookkeeping_rejections():
    server = enrolled_server()
    codes = issue_codes(server)
    assert server.handle_sms_reply("T9999", "YES").reason == "unknown-txn"
    reply = committed_txn(server, codes[0])
    assert reply.committed
    again = server.handle_sms_reply(reply.txn.txn_id, "YES")
    assert again.reason == "already-final"
    # and the double confirmation did not double the transfer
    assert server.balances["ACC-1001"] == 100_000 - 2599


def test_commit_rechecks_funds_at_confirmation_time():
    server = enrolled_server()
    codes = issue_codes(server, count=2)

    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0], amount=60_000)
    first = server.submit_payment(cookie, enc_tic, enc_order)

    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[1], amount=60_000)
    second = server.submit_payment(cookie, enc_tic, enc_order)

    assert server.handle_sms_reply(first.txn_id, "YES").committed
    drained = server.handle_sms_reply(second.txn_id, "YES")
    assert not drained.committed
    assert drained.cause == "insufficient-funds"
    assert server.balances["ACC-1001"] == 40_000


def test_expire_txn_sweep():
    server = enrolled_server(sms_deadline=10)
    codes = issue_codes(server)
    cookie, key = submit_ready(server)
    enc_tic, enc_order = compose(cookie, key, codes[0])
    txn_id = server.submit_payment(cookie, enc_tic, enc_order, now=0).txn_id
    assert server.expire_txn(txn_id, now=9) is None
    swept = server.expire_txn(txn_id, now=10)
    assert swept is not None and swept.cause == "timeout"
    assert server.expire_txn(txn_id, now=11) is None
    assert server.expire_txn("T9999", now=11) is None


# -- invariants -----------------------------------------------------------------


def test_phase_never_moves_backward():
    session = Session(
        session_id="S0001",
        cookie="c",
        username="alice",
        account_id="ACC-1001",
        secret_key=SecretKey(bytes(KEY_LEN), "S0001"),
    )
    session.advance(Phase.MODE_SELECTED)
    session.advance(Phase.AWAITING_SMS)  # skipping forward is legal
    with pytest.raises(ValueError):
        session.advance(Phase.AWAITING_TIC)
    assert session.phase_history == [
        Phase.LOGGED_IN,
        Phase.MODE_SELECTED,
        Phase.AWAITING_SMS,
    ]


def test_generic_denial_is_one_fixed_message():
    body = generic_denial_body()
    assert body == {int(F.STATUS): b"\x00", int(F.REASON): b"authentication-failed"}
    # byte-for-byte stable: no cause-specific variation can sneak in
    assert encode_fields(generic_denial_body()) == encode_fields(body)


def test_enroll_rejects_duplicate_usernames():
    server = enrolled_server()
    with pytest.raises(ValueError):
        server.enroll(
            username="alice",
            password="x",
            pin=PIN,
            cell_number="+0",
            account_id="ACC-1003",
            balance=0,
            vault_password="d",
        )
