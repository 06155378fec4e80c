"""Customer-side agent: login, key unwrap, vault handling, payment flow.

The agent mirrors the server's session phases from its own side: it
logs in, unwraps the PIN-wrapped session key, selects a payment mode,
then spends one vault code per transaction — the code encrypts the
order, the session key encrypts the code, and neither ever leaves the
device in the clear. SMS prompts are answered only for transactions
this agent actually started; anything else is ignored as a spoof.
Likewise a login response, an invoice or a submission ack is acted on
only while the agent's own request for it is outstanding, so a replayed
or injected copy cannot restart or repeat a step.

For two-way purchases the agent first asks its bank to authenticate
the merchant and refuses to send a single payment byte until the
verdict is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .crypto import DEFAULT_CIPHER, CryptoSuite, Pin
from .errors import IntegrityFailure, VaultEmpty, VaultLocked, WireError
from .netsim import Actor, Ctx
from .payment import PayMode, PaymentOrder
from .protocol import read_amount, read_text, send
from .two_way import MerchantCertificate
from .vault import TicVault, VaultKeys
from .wire import Ciphertext, Envelope, F

DEFAULT_REPLY_POLICY = "yes"


@dataclass
class ClientSession:
    """Client half of a live session; the key exists only in memory."""

    cookie: str
    secret_key: object
    phase: str = "logged-in"  # logged-in | closed


@dataclass
class _InFlight:
    order: PaymentOrder
    txn_id: Optional[str] = None  # learned from submit_ack or the SMS prompt
    replied: bool = False


class ClientAgent(Actor):
    """One customer device driving payments through its bank.

    `payments` run sequentially, one session each. `reply_policy` is the
    scripted human: answer YES, answer NO, or never answer. A `merchant`
    switches the agent into the two-way flow: checkout, invoice, merchant
    verification, then the ordinary payment inside it. `vault_keys` is the
    world's vault key memo, shared with the bank that seals the vault.
    """

    def __init__(
        self,
        name: str,
        password: str,
        pin: Pin,
        vault_password: str,
        bank: str = "cbank",
        payments: Optional[List[PaymentOrder]] = None,
        reply_policy: str = DEFAULT_REPLY_POLICY,
        reply_delay: int = 0,
        merchant: Optional[str] = None,
        mode: str = "electronic-transfer",
        cipher: str = DEFAULT_CIPHER,
        vault_keys: Optional[VaultKeys] = None,
    ):
        if reply_policy not in ("yes", "no", "ignore"):
            raise ValueError(f"unknown reply policy {reply_policy!r}")
        self.name = name
        self.password = password
        self.pin = pin
        self.vault_password = vault_password
        self.bank = bank
        self.reply_policy = reply_policy
        self.reply_delay = reply_delay
        self.merchant = merchant
        self.mode = PayMode.from_name(mode)
        self.suite = CryptoSuite(cipher)
        self.vault: Optional[TicVault] = None
        self.vault_keys = vault_keys if vault_keys is not None else VaultKeys()
        self.session: Optional[ClientSession] = None
        self.inflight: Optional[_InFlight] = None
        self.outcomes: List[str] = []
        self._queue: List[PaymentOrder] = list(payments or [])
        # Set while the request each reply answers is outstanding.
        self._awaiting_login = False
        self._awaiting_invoice = False
        self._awaiting_ack = False
        self._request_counter = 0
        self.request_id = ""
        self._invoice: Optional[dict] = None

    # -- flow control ---------------------------------------------------------

    def _begin_next(self, ctx: Ctx) -> None:
        """Start a session if there is work: a queued payment or a checkout."""
        if self.merchant is None and not self._queue:
            return
        self.session = None
        self.inflight = None
        self._awaiting_login = True
        send(ctx, "login_request", self.bank, {F.USERNAME: self.name, F.PASSWORD: self.password})

    def _finish_current(self, ctx: Ctx, outcome: str) -> None:
        self.outcomes.append(outcome)
        if self.inflight is None and self.merchant is None and self._queue:
            # Failed before composing, so the head of the queue is this very
            # attempt. Abandon it: retrying with the same broken factor would
            # loop forever.
            self._queue.pop(0)
        self.inflight = None
        if self.session is not None:
            self.session.phase = "closed"
        if self.merchant is None and self._queue:
            self._begin_next(ctx)

    # -- lifecycle ----------------------------------------------------------------

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        handler = self._HANDLERS.get(env.msg_type)
        if handler is None:
            ctx.note(f"ignored msg_type={env.msg_type}")
            return
        handler(self, ctx, env)

    # -- handlers --------------------------------------------------------------------

    def _on_provision(self, ctx: Ctx, env: Envelope) -> None:
        if self.vault is not None:
            # One vault per device: a second batch (a replayed copy, say)
            # must not restart the flow under a session already in flight.
            ctx.note("provision-ignored cause=vault-held")
            return
        try:
            self.vault = TicVault.from_bytes(env.body.get(F.VAULT, b""), keys=self.vault_keys)
        except WireError as exc:
            ctx.note(f"provision-rejected cause={exc}")
            return
        ctx.note("vault-received")
        self._begin_next(ctx)

    def _on_login_response(self, ctx: Ctx, env: Envelope) -> None:
        if not self._awaiting_login:
            ctx.note("unexpected-login-response ignored")
            return
        self._awaiting_login = False
        if env.body.get(F.STATUS) != b"\x01":
            reason = read_text(env.body, F.REASON)
            ctx.note(f"login-failed cause={reason}")
            self._finish_current(ctx, f"login-failed:{reason}")
            return
        try:
            wrapped = Ciphertext.from_bytes(env.body[F.WRAPPED_KEY])
            secret_key = self.suite.unwrap_secret_key(wrapped, self.pin, env.cookie)
        except (KeyError, WireError, IntegrityFailure) as exc:
            # A PIN mismatch surfaces here: the wrap fails authentication and
            # no session exists client-side, welcome message or not.
            ctx.note(f"key-unwrap-failed cause={type(exc).__name__}")
            self._finish_current(ctx, "key-unwrap-failed")
            return
        self.session = ClientSession(cookie=env.cookie, secret_key=secret_key)
        ctx.note("session-established")
        if self.merchant is not None:
            self._request_counter += 1
            self.request_id = f"{self.name}-R{self._request_counter:03d}"
            self._awaiting_invoice = True
            send(ctx, "checkout_request", self.merchant, request_id=self.request_id)
            return
        self._select_mode(ctx, self._queue[0].mode)

    def _select_mode(self, ctx: Ctx, mode: PayMode) -> None:
        send(ctx, "mode_select", self.bank, {F.MODE: PayMode(mode).label},
             cookie=self.session.cookie, request_id=self.request_id)

    def _current_order(self) -> Optional[PaymentOrder]:
        if self.merchant is not None:
            if self._invoice is None:
                return None
            return PaymentOrder(
                mode=self.mode,
                payee_account=self._invoice["payee_ref"],
                amount=self._invoice["amount"],
                invoice_number=self._invoice["invoice_number"],
            )
        return self._queue[0] if self._queue else None

    def _on_mode_ack(self, ctx: Ctx, env: Envelope) -> None:
        if env.body.get(F.STATUS) != b"\x01":
            reason = read_text(env.body, F.REASON)
            ctx.note(f"mode-rejected cause={reason}")
            self._finish_current(ctx, f"mode-rejected:{reason}")
            return
        order = self._current_order()
        if order is None:
            return
        self._compose_and_submit(ctx, order)

    def _compose_and_submit(self, ctx: Ctx, order: PaymentOrder) -> None:
        """Spend one code: it keys the order, the session key wraps it.

        On any local failure (empty or locked vault) nothing is sent."""
        if self.session is None or self.session.phase != "logged-in":
            ctx.note("submit-skipped cause=session-closed")
            return
        try:
            if self.vault is None:
                raise VaultEmpty("no vault provisioned")
            if self.vault.locked:
                self.vault.unlock(self.vault_password)
            code = self.vault.pick()
        except (VaultEmpty, VaultLocked, IntegrityFailure) as exc:
            ctx.note(f"vault-failure cause={type(exc).__name__}")
            self._finish_current(ctx, "vault-failure")
            return
        cookie = self.session.cookie
        enc_tic = self.suite.encrypt_tic(code.value, self.session.secret_key, cookie)
        enc_order = self.suite.encrypt_payment(order, code.value, cookie)
        if self.merchant is None and self._queue:
            self._queue.pop(0)
        self.inflight = _InFlight(order=order)
        self._awaiting_ack = True
        ctx.note(f"submitted amount={order.amount}")
        send(ctx, "payment_submit", self.bank, {
            F.ENC_TIC: enc_tic.to_bytes(), F.ENC_ORDER: enc_order.to_bytes(),
        }, cookie=cookie, request_id=self.request_id)

    def _on_submit_ack(self, ctx: Ctx, env: Envelope) -> None:
        if not self._awaiting_ack:
            # Answers we never asked for (e.g. the bank denying a replayed
            # copy of our submission) say nothing about our transaction.
            ctx.note("unexpected-submit-ack ignored")
            return
        self._awaiting_ack = False
        if env.body.get(F.STATUS) != b"\x01":
            ctx.note("submit-denied")
            self._finish_current(ctx, "submit-denied")
            return
        txn_id = read_text(env.body, F.TXN_ID)
        if self.inflight is not None:
            self.inflight.txn_id = txn_id
        ctx.note(f"submit-accepted txn={txn_id}")

    def _on_sms_challenge(self, ctx: Ctx, env: Envelope) -> None:
        txn_id = read_text(env.body, F.TXN_ID)
        amount = read_amount(env.body)
        flight = self.inflight
        # Only prompts matching the transaction this agent actually started
        # get an answer; amount is the cross-check because the prompt can
        # outrun the submit_ack that names the txn id.
        if flight is None or flight.replied or amount != flight.order.amount or (
            flight.txn_id is not None and flight.txn_id != txn_id
        ):
            ctx.note(f"sms-ignored txn={txn_id}")
            return
        flight.txn_id = flight.txn_id or txn_id
        if self.reply_policy == "ignore":
            ctx.note(f"sms-unanswered txn={txn_id}")
            return
        flight.replied = True
        decision = "YES" if self.reply_policy == "yes" else "NO"
        ctx.note(f"sms-replied txn={txn_id} decision={decision}")
        send(ctx, "sms_reply", self.bank, {F.TXN_ID: txn_id, F.DECISION: decision},
             request_id=self.request_id, delay=self.reply_delay)

    def _on_txn_result(self, ctx: Ctx, env: Envelope) -> None:
        result = read_text(env.body, F.RESULT)
        reason = read_text(env.body, F.REASON)
        ctx.note(f"result {result}" + (f" cause={reason}" if reason else ""))
        self._finish_current(ctx, result)

    # -- two-way handlers ----------------------------------------------------------

    def _on_invoice(self, ctx: Ctx, env: Envelope) -> None:
        if not self._awaiting_invoice or env.request_id != self.request_id:
            ctx.note("unexpected-invoice ignored")
            return
        self._awaiting_invoice = False
        body = env.body
        try:
            cert = MerchantCertificate.from_bytes(body[F.CERT])
            enc_info = body[F.ENC_MERCHANT_INFO]
            amount = read_amount(body)
            invoice_number = read_text(body, F.INVOICE_NUMBER)
            if amount <= 0 or not invoice_number:
                raise ValueError("no invoice number or no positive amount")
        except (KeyError, ValueError, WireError) as exc:
            ctx.note(f"invoice-rejected cause={type(exc).__name__}")
            return
        self._invoice = {
            "invoice_number": invoice_number,
            "amount": amount,
            "payee_ref": cert.account_ref,
            "merchant_id": cert.merchant_id,
        }
        ctx.note(f"invoice-received number={invoice_number} amount={amount}")
        send(ctx, "merchant_auth_request", self.bank, {
            F.CERT: body[F.CERT],
            F.ENC_MERCHANT_INFO: enc_info,
            F.MERCHANT_ID: cert.merchant_id,
            F.MERCHANT_BANK_ID: cert.merchant_bank_id,
            F.INVOICE_NUMBER: invoice_number,
            F.AMOUNT: amount,
        }, cookie=self.session.cookie, request_id=self.request_id)

    def _on_merchant_auth_ack(self, ctx: Ctx, env: Envelope) -> None:
        verdict = read_text(env.body, F.VERDICT)
        if verdict != "positive":
            reason = read_text(env.body, F.REASON)
            ctx.note(f"merchant-auth-negative reason={reason or verdict}")
            self._finish_current(ctx, f"merchant-rejected:{reason or verdict}")
            return
        ctx.note("merchant-auth-positive")
        self._select_mode(ctx, self.mode)

    def _on_payment_notice(self, ctx: Ctx, env: Envelope) -> None:
        invoice = read_text(env.body, F.INVOICE_NUMBER)
        amount = read_amount(env.body)
        ctx.note(f"payment-notice invoice={invoice} amount={amount}")

    # Message type -> handler, shared by every agent: a table of bound
    # methods per instance would make each agent refer to itself.
    _HANDLERS = {
        "tic_provision": _on_provision,
        "login_response": _on_login_response,
        "mode_ack": _on_mode_ack,
        "submit_ack": _on_submit_ack,
        "sms_challenge": _on_sms_challenge,
        "txn_result": _on_txn_result,
        "invoice": _on_invoice,
        "merchant_auth_ack": _on_merchant_auth_ack,
        "payment_notice": _on_payment_notice,
    }
