"""Bank-side authentication server and payment state machine.

One session walks LoggedIn, ModeSelected, AwaitingTic, AwaitingSms,
Closed in order, never backward, and carries at most one pending
transaction. Authentication is layered: password login, then a
PIN-wrapped per-session key, then a one-time TIC, then an SMS reply;
a transaction commits only when every layer holds.

Failure answers for payment submission are deliberately opaque: one
constant rejection body regardless of internal cause, so an attacker
probing with forged ciphertexts learns nothing from the response. The
precise cause goes to the trace instead.

`BankServer` is the transport-free core (directly callable in tests);
`BankActor` adapts it to envelopes, timers, and the SMS channel. The
two-way flow's bank is a `BankActor` subclass, `two_way.TwoWayGateway`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from .crypto import DEFAULT_CIPHER, CryptoSuite, Pin, SecretKey
from .errors import IntegrityFailure, WireError
from .netsim import Actor, Ctx, digest16
from .payment import PayMode, PaymentOrder
from .protocol import read_text, send
from .rng import DeterministicRng
from .tic_registry import TicRegistry, code_digest
from .vault import TicVault, VaultKeys
from .wire import Ciphertext, Envelope, F

DEFAULT_SMS_DEADLINE = 300
LOCKOUT_AFTER = 5  # consecutive bad passwords before an account locks

GENERIC_DENIAL_REASON = b"authentication-failed"


def generic_denial_body() -> Dict[int, bytes]:
    """The one rejection payload every failed submission gets, verbatim."""
    return {int(F.STATUS): b"\x00", int(F.REASON): GENERIC_DENIAL_REASON}


class Phase(Enum):
    LOGGED_IN = "LoggedIn"
    MODE_SELECTED = "ModeSelected"
    AWAITING_TIC = "AwaitingTic"
    AWAITING_SMS = "AwaitingSms"
    CLOSED = "Closed"


PHASE_ORDER = [Phase.LOGGED_IN, Phase.MODE_SELECTED, Phase.AWAITING_TIC,
               Phase.AWAITING_SMS, Phase.CLOSED]


@dataclass
class AccountRecord:
    """One customer as the bank knows them; passwords only as verifiers."""

    account_id: str
    username: str
    salt: bytes
    password_digest: bytes
    pin: Pin
    cell_number: str
    vault_password: str  # enrolled device password used to seal provisioned codes

    @staticmethod
    def digest(salt: bytes, password: str) -> bytes:
        return hashlib.sha256(salt + password.encode("utf-8")).digest()

    def verify_password(self, password: str) -> bool:
        return AccountRecord.digest(self.salt, password) == self.password_digest


class TxnState(Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class PendingTransaction:
    txn_id: str
    session_id: str
    cookie: str
    order: PaymentOrder
    tic_digest: str
    account_id: str
    expiry_deadline: int
    request_id: str = ""
    state: TxnState = TxnState.PENDING


@dataclass
class Session:
    session_id: str
    cookie: str
    username: str
    account_id: str
    secret_key: SecretKey
    phase: Phase = Phase.LOGGED_IN
    mode: Optional[PayMode] = None
    txn_id: Optional[str] = None
    phase_history: List[Phase] = field(default_factory=lambda: [Phase.LOGGED_IN])

    def advance(self, new_phase: Phase) -> None:
        # Forward-only; skipping ahead is allowed (a failed submit jumps
        # straight to Closed) but the history must stay ordered.
        if PHASE_ORDER.index(new_phase) < PHASE_ORDER.index(self.phase):
            raise ValueError(f"phase would move backward: {self.phase} -> {new_phase}")
        if new_phase is not self.phase:
            self.phase = new_phase
            self.phase_history.append(new_phase)


# -- operation results --------------------------------------------------------


@dataclass(frozen=True)
class LoginResult:
    ok: bool
    reason: Optional[str] = None  # bad-credentials | locked-out
    cookie: Optional[str] = None
    session_id: Optional[str] = None
    wrapped_secret: Optional[Ciphertext] = None
    welcome: Optional[str] = None


@dataclass(frozen=True)
class ModeResult:
    ok: bool
    reason: Optional[str] = None  # unknown-session | wrong-phase | bad-mode


@dataclass(frozen=True)
class SubmitResult:
    ok: bool
    cause: Optional[str] = None  # internal only; external answer is generic
    txn_id: Optional[str] = None
    session_id: Optional[str] = None


@dataclass(frozen=True)
class ReplyResult:
    ok: bool
    committed: bool = False
    reason: Optional[str] = None  # unknown-txn | already-final
    cause: Optional[str] = None   # declined | timeout | insufficient-funds
    txn: Optional[PendingTransaction] = None


class BankServer:
    """Accounts, sessions, registry, and the money book for one bank.

    `seed` drives every random artifact (salts, cookies, session keys)
    so two servers built alike behave byte-identically. `vault_keys` is
    the world's vault key memo, shared with its customers' devices.
    """

    def __init__(
        self,
        name: str = "cbank",
        seed: int | str | bytes = 0,
        cipher: str = DEFAULT_CIPHER,
        sms_deadline: int = DEFAULT_SMS_DEADLINE,
        vault_keys: Optional[VaultKeys] = None,
    ):
        self.name = name
        self.registry = TicRegistry()
        self.vault_keys = vault_keys if vault_keys is not None else VaultKeys()
        self.cipher_name = cipher
        self.suite = CryptoSuite(cipher)
        self.sms_deadline = sms_deadline
        self._rng = DeterministicRng(seed, f"bank|{name}")
        # One long-lived stream: recreating it per login would replay the
        # same cookie value and never satisfy the uniqueness loop.
        self._cookie_rng = self._rng.child("cookies")
        self.accounts: Dict[str, AccountRecord] = {}          # by username
        self.accounts_by_id: Dict[str, AccountRecord] = {}
        self.balances: Dict[str, int] = {}                    # account_id -> minor units
        self.clearing = 0  # value owed to/from other banks; keeps totals constant
        # Bumped by every method that writes balances or clearing, so a
        # watcher re-sums the books only after they may have changed.
        self.ledger_version = 0
        self.sessions: Dict[str, Session] = {}                # by cookie
        self.txns: Dict[str, PendingTransaction] = {}
        self.failed_logins: Dict[str, int] = {}
        self.locked: set = set()
        self._session_counter = 0
        self._txn_counter = 0

    # -- enrollment ----------------------------------------------------------

    def enroll(
        self,
        username: str,
        password: str,
        pin: Pin,
        cell_number: str,
        account_id: str,
        balance: int,
        vault_password: str,
    ) -> AccountRecord:
        if username in self.accounts:
            raise ValueError(f"username {username!r} already enrolled")
        salt = self._rng.child(f"salt|{username}").take(16)
        record = AccountRecord(
            account_id=account_id,
            username=username,
            salt=salt,
            password_digest=AccountRecord.digest(salt, password),
            pin=pin,
            cell_number=cell_number,
            vault_password=vault_password,
        )
        self.accounts[username] = record
        self.accounts_by_id[account_id] = record
        self.balances[account_id] = balance
        self.ledger_version += 1
        return record

    def total_funds(self) -> int:
        return sum(self.balances.values()) + self.clearing

    # -- provisioning ---------------------------------------------------------

    def provision_codes(self, username: str, count: int) -> bytes:
        """Mint a batch and seal it under the customer's enrolled device
        password; the returned bytes are safe to send in the clear."""
        record = self.accounts[username]
        batch = self.registry.generate_tics(
            record.account_id, count, seed=self._rng.child(f"batch|{username}").take(16)
        )
        vault = TicVault.provision(
            batch.codes, record.vault_password, salt=self.vault_salt(username),
            cipher=self.cipher_name, keys=self.vault_keys,
        )
        return vault.to_bytes()

    def vault_salt(self, username: str) -> bytes:
        """The salt that seals this customer's vault; the same on every call."""
        return self._rng.child(f"vault-salt|{username}").take(16)

    # -- login -----------------------------------------------------------------

    def login(self, username: str, password: str) -> LoginResult:
        record = self.accounts.get(username)
        if record is None:
            return LoginResult(ok=False, reason="bad-credentials")
        if username in self.locked:
            return LoginResult(ok=False, reason="locked-out")
        if not record.verify_password(password):
            count = self.failed_logins.get(username, 0) + 1
            self.failed_logins[username] = count
            if count >= LOCKOUT_AFTER:
                self.locked.add(username)
            return LoginResult(ok=False, reason="bad-credentials")
        self.failed_logins[username] = 0

        self._session_counter += 1
        session_id = f"S{self._session_counter:04d}"
        cookie = self._cookie_rng.token(16)
        while cookie in self.sessions:  # vanishingly unlikely; uniqueness is a contract
            cookie = self._cookie_rng.token(16)
        key_rng = self._rng.child(f"session-key|{session_id}")
        secret_key = SecretKey(key_bytes=key_rng.take(32), session_id=session_id)
        session = Session(
            session_id=session_id,
            cookie=cookie,
            username=username,
            account_id=record.account_id,
            secret_key=secret_key,
        )
        self.sessions[cookie] = session
        wrapped = self.suite.wrap_secret_key(secret_key, record.pin, session_handle=cookie)
        return LoginResult(
            ok=True,
            cookie=cookie,
            session_id=session_id,
            wrapped_secret=wrapped,
            welcome=f"Welcome {username}, session established",
        )

    # -- payment mode ------------------------------------------------------------

    def select_mode(self, cookie: str, mode_name: str) -> ModeResult:
        session = self.sessions.get(cookie)
        if session is None:
            return ModeResult(ok=False, reason="unknown-session")
        if session.phase is not Phase.LOGGED_IN:
            return ModeResult(ok=False, reason="wrong-phase")
        try:
            mode = PayMode.from_name(mode_name)
        except ValueError:
            return ModeResult(ok=False, reason="bad-mode")
        session.mode = mode
        session.advance(Phase.MODE_SELECTED)
        session.advance(Phase.AWAITING_TIC)
        return ModeResult(ok=True)

    # -- payment submission --------------------------------------------------------

    def submit_payment(
        self,
        cookie: str,
        enc_tic: bytes | Ciphertext,
        enc_order: bytes | Ciphertext,
        now: int = 0,
        request_id: str = "",
        merchant_ok: bool = False,
    ) -> SubmitResult:
        """Three-stage check: TIC decrypts under the session key, matches a
        live issued code (consumed on match), and then keys the order's own
        decryption. Any miss anywhere denies the transaction and closes the
        session; the caller must answer with the one generic denial. A
        merchant request id also needs `merchant_ok`, its positive verdict."""
        session = self.sessions.get(cookie)

        def fail(cause: str) -> SubmitResult:
            if session is not None:
                session.advance(Phase.CLOSED)
            return SubmitResult(ok=False, cause=cause,
                                session_id=session.session_id if session else None)

        if session is None:
            return SubmitResult(ok=False, cause="unknown-session")
        if session.phase is not Phase.AWAITING_TIC:
            return fail("wrong-phase")
        if request_id and not merchant_ok:
            return fail("merchant-not-authorized")

        try:
            enc_tic = enc_tic if isinstance(enc_tic, Ciphertext) else Ciphertext.from_bytes(enc_tic)
            tic_value = self.suite.decrypt_tic(enc_tic, session.secret_key, cookie)
        except (WireError, IntegrityFailure):
            return fail("tic-decrypt-failed")

        verdict = self.registry.verify_and_consume(session.account_id, tic_value)
        if not verdict.accepted:
            return fail(f"tic-{verdict.reason}")

        # The code is now cancelled for any future transaction, but it still
        # keys this one's order decryption.
        try:
            enc_order = (enc_order if isinstance(enc_order, Ciphertext)
                         else Ciphertext.from_bytes(enc_order))
            order = self.suite.decrypt_payment(enc_order, tic_value, cookie)
        except (WireError, IntegrityFailure, ValueError):
            return fail("order-decrypt-failed")

        if session.mode is not None and order.mode != session.mode:
            return fail("mode-mismatch")
        if self.balances.get(session.account_id, 0) < order.amount:
            return fail("insufficient-funds")

        self._txn_counter += 1
        txn_id = f"T{self._txn_counter:04d}"
        txn = PendingTransaction(
            txn_id=txn_id,
            session_id=session.session_id,
            cookie=cookie,
            order=order,
            tic_digest=code_digest(tic_value),
            account_id=session.account_id,
            expiry_deadline=now + self.sms_deadline,
            request_id=request_id,
        )
        self.txns[txn_id] = txn
        session.txn_id = txn_id
        session.advance(Phase.AWAITING_SMS)
        return SubmitResult(ok=True, txn_id=txn_id, session_id=session.session_id)

    # -- confirmation ---------------------------------------------------------------

    def _close_session_of(self, txn: PendingTransaction) -> None:
        self.sessions[txn.cookie].advance(Phase.CLOSED)

    def _commit(self, txn: PendingTransaction) -> ReplyResult:
        payer = txn.account_id
        amount = txn.order.amount
        if self.balances.get(payer, 0) < amount:
            txn.state = TxnState.ABORTED
            self._close_session_of(txn)
            return ReplyResult(ok=True, committed=False, cause="insufficient-funds", txn=txn)
        # Both legs move together: value leaves the payer and lands either in
        # a local account or in clearing (owed to another bank), so the bank
        # total is unchanged at every instant.
        self.balances[payer] -= amount
        payee = txn.order.payee_account
        if payee in self.balances:
            self.balances[payee] += amount
        else:
            self.clearing += amount
        self.ledger_version += 1
        txn.state = TxnState.COMMITTED
        self._close_session_of(txn)
        return ReplyResult(ok=True, committed=True, txn=txn)

    def _abort(self, txn: PendingTransaction, cause: str) -> ReplyResult:
        txn.state = TxnState.ABORTED
        self._close_session_of(txn)
        return ReplyResult(ok=True, committed=False, cause=cause, txn=txn)

    def handle_sms_reply(self, txn_id: str, reply: str, now: int = 0) -> ReplyResult:
        txn = self.txns.get(txn_id)
        if txn is None:
            return ReplyResult(ok=False, reason="unknown-txn")
        if txn.state is not TxnState.PENDING:
            return ReplyResult(ok=False, reason="already-final", txn=txn)
        if now > txn.expiry_deadline:
            return self._abort(txn, "timeout")
        if reply.strip().upper() == "YES":
            return self._commit(txn)
        return self._abort(txn, "declined")

    def expire_txn(self, txn_id: str, now: int) -> Optional[ReplyResult]:
        """Deadline sweep for one transaction; no-op if already final."""
        txn = self.txns.get(txn_id)
        if txn is None or txn.state is not TxnState.PENDING:
            return None
        if now >= txn.expiry_deadline:
            return self._abort(txn, "timeout")
        return None


class BankActor(Actor):
    """Envelope adapter around BankServer: routing, timers, SMS dispatch.

    `provision_plan` maps usernames to TIC batch sizes delivered at start.
    This bank speaks pure one-way: it ignores the merchant-auth message
    types and refuses every payment under a merchant request id.
    """

    def __init__(self, server: BankServer, provision_plan: Optional[Dict[str, int]] = None):
        self.server = server
        self.name = server.name
        self.provision_plan = dict(provision_plan or {})

    def allows(self, request_id: str) -> bool:
        """May the payment under this merchant request id proceed?"""
        return False

    def on_committed(self, ctx: Ctx, txn: PendingTransaction) -> None:
        """Settles a commit under a merchant request id; allows() admits none here."""

    # -- helpers -------------------------------------------------------------

    def _note_phase(self, ctx: Ctx, session: Session) -> None:
        ctx.note(f"phase session={session.session_id} -> {session.phase.value}")

    def _send_txn_result(self, ctx: Ctx, txn: PendingTransaction, committed: bool,
                         cause: Optional[str]) -> None:
        session = self.server.sessions[txn.cookie]
        send(ctx, "txn_result", session.username, {
            F.STATUS: b"\x01" if committed else b"\x00",
            F.REASON: cause or None,
            F.TXN_ID: txn.txn_id,
            F.RESULT: "committed" if committed else "aborted",
        }, request_id=txn.request_id)
        self._note_phase(ctx, session)

    def _finish_txn(self, ctx: Ctx, result: ReplyResult) -> None:
        txn = result.txn
        if result.committed:
            ctx.note(f"txn-committed txn={txn.txn_id} amount={txn.order.amount} "
                     f"payee={digest16(txn.order.payee_account.encode())}")
        else:
            ctx.note(f"txn-aborted txn={txn.txn_id} cause={result.cause}")
        self._send_txn_result(ctx, txn, result.committed, result.cause)
        if result.committed and txn.request_id:
            self.on_committed(ctx, txn)

    # -- lifecycle -------------------------------------------------------------

    def on_start(self, ctx: Ctx) -> None:
        for username, count in self.provision_plan.items():
            if count < 1:
                continue
            vault_bytes = self.server.provision_codes(username, count)
            ctx.note(f"provisioned user={username} codes={count}")
            send(ctx, "tic_provision", username, {F.VAULT: vault_bytes})

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        handler = self._HANDLERS.get(env.msg_type)
        if handler is not None:
            handler(self, ctx, env)
        else:
            ctx.note(f"ignored msg_type={env.msg_type}")

    def on_malformed(self, ctx: Ctx, env: Envelope) -> None:
        # A submission that does not even parse gets the same opaque denial
        # as any other failed submission, and costs the session either way.
        ctx.note(f"malformed msg_type={env.msg_type}")
        if env.msg_type != "payment_submit":
            return
        session = self.server.sessions.get(env.cookie)
        if session is not None and session.phase is not Phase.CLOSED:
            session.advance(Phase.CLOSED)
            self._note_phase(ctx, session)
        ctx.note("submit-rejected cause=malformed-envelope")
        send(ctx, "submit_ack", env.sender, generic_denial_body(),
             request_id=env.request_id)

    def on_timer(self, ctx: Ctx, label: str) -> None:
        if label.startswith("sms-expire|"):
            txn_id = label.split("|", 1)[1]
            result = self.server.expire_txn(txn_id, now=ctx.now)
            if result is not None:
                self._finish_txn(ctx, result)

    # -- message handlers --------------------------------------------------------

    def _on_login(self, ctx: Ctx, env: Envelope) -> None:
        username = read_text(env.body, F.USERNAME)
        result = self.server.login(username, read_text(env.body, F.PASSWORD))
        if not result.ok:
            ctx.note(f"login-rejected user={username} cause={result.reason}")
            send(ctx, "login_response", env.sender, {
                F.STATUS: b"\x00", F.REASON: result.reason,
            }, request_id=env.request_id)
            return
        ctx.note(f"login-ok user={username} session={result.session_id}")
        session = self.server.sessions[result.cookie]
        self._note_phase(ctx, session)
        send(ctx, "login_response", env.sender, {
            F.STATUS: b"\x01",
            F.WRAPPED_KEY: result.wrapped_secret.to_bytes(),
            F.WELCOME: result.welcome,
        }, cookie=result.cookie, request_id=env.request_id)

    def _on_mode_select(self, ctx: Ctx, env: Envelope) -> None:
        result = self.server.select_mode(env.cookie, read_text(env.body, F.MODE))
        if result.ok:
            self._note_phase(ctx, self.server.sessions[env.cookie])
        else:
            ctx.note(f"mode-rejected cause={result.reason}")
        send(ctx, "mode_ack", env.sender, {
            F.STATUS: b"\x01" if result.ok else b"\x00", F.REASON: result.reason,
        }, cookie=env.cookie, request_id=env.request_id)

    def _on_submit(self, ctx: Ctx, env: Envelope) -> None:
        enc_tic = env.body.get(F.ENC_TIC, b"")
        enc_order = env.body.get(F.ENC_ORDER, b"")
        result = self.server.submit_payment(
            env.cookie, enc_tic, enc_order, now=ctx.now, request_id=env.request_id,
            merchant_ok=self.allows(env.request_id),
        )
        session = self.server.sessions.get(env.cookie)
        if not result.ok:
            ctx.note(f"submit-rejected cause={result.cause}")
            if session is not None:
                self._note_phase(ctx, session)
            send(ctx, "submit_ack", env.sender, generic_denial_body(),
                 cookie=env.cookie, request_id=env.request_id)
            return
        txn = self.server.txns[result.txn_id]
        record = self.server.accounts_by_id[txn.account_id]
        ctx.note(f"submit-accepted txn={txn.txn_id} session={result.session_id} "
                 f"tic={txn.tic_digest}")
        self._note_phase(ctx, session)
        send(ctx, "submit_ack", env.sender, {F.STATUS: b"\x01", F.TXN_ID: txn.txn_id},
             cookie=env.cookie, request_id=env.request_id)
        send(ctx, "sms_challenge", session.username, {
            F.TXN_ID: txn.txn_id,
            F.AMOUNT: txn.order.amount,
            F.ACCOUNT_REF: digest16(txn.order.payee_account.encode()),
            F.CELL: record.cell_number,
        }, request_id=env.request_id)
        ctx.set_timer(f"sms-expire|{txn.txn_id}", delay=self.server.sms_deadline + 1)

    def _on_sms_reply(self, ctx: Ctx, env: Envelope) -> None:
        txn_id = read_text(env.body, F.TXN_ID)
        decision = read_text(env.body, F.DECISION)
        result = self.server.handle_sms_reply(txn_id, decision, now=ctx.now)
        if not result.ok:
            ctx.note(f"sms-reply-ignored txn={txn_id} cause={result.reason}")
            return
        self._finish_txn(ctx, result)

    # One-way message types; the two-way subclass takes its own in
    # `on_message`. Shared by every bank: bound methods per instance would
    # be a cycle.
    _HANDLERS = {
        "login_request": _on_login,
        "mode_select": _on_mode_select,
        "payment_submit": _on_submit,
        "sms_reply": _on_sms_reply,
    }
