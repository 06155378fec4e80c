"""Customer-side agent: login, key unwrap, vault handling, payment flow.

The agent mirrors the server's session phases from its own side: it
logs in, unwraps the PIN-wrapped session key, selects a payment mode,
then spends one vault code per transaction — the code encrypts the
order, the session key encrypts the code, and neither ever leaves the
device in the clear.

The agent acts on an answer only while it is due. Its due set holds the
(answer type, request id) of each answer that its outstanding requests
expect, read off the protocol table's answer edges: sending a request
fills it, a finished session empties it, and an answer is taken off it
before its handler runs. Any other answer is noted as
`unexpected-<type> ignored` and dropped, so a replayed or injected copy
cannot restart or repeat a step. An SMS prompt must also match the
transaction this agent started; any other is ignored as a spoof and
leaves the genuine prompt due.

For two-way purchases the agent first asks its bank to authenticate
the merchant and refuses to send a single payment byte until the
verdict is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .crypto import DEFAULT_CIPHER, CryptoSuite, Pin
from .errors import IntegrityFailure, VaultEmpty, VaultLocked, WireError
from .netsim import Actor, Ctx
from .payment import PayMode, PaymentOrder
from .protocol import ANSWERS, MESSAGES, Value, ignore_unexpected, read_amount, read_text, send
from .two_way import MerchantCertificate
from .vault import TicVault, VaultKeys
from .wire import Ciphertext, Envelope, F

DEFAULT_REPLY_POLICY = "yes"


@dataclass
class ClientSession:
    """Client half of a live session; the key exists only in memory."""

    cookie: str
    secret_key: object


class ClientAgent(Actor):
    """One customer device driving payments through its bank.

    `payments` run sequentially, one session each. `reply_policy` is the
    scripted human: answer YES, answer NO, or never answer. A `merchant`
    switches the agent into the two-way flow: its one session checks out,
    the invoice supplies the order, the bank verifies the merchant, and the
    ordinary payment runs inside it. `vault_keys` is the world's vault key
    memo, shared with the bank that seals the vault.
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
        self.outcomes: List[str] = []
        # Orders still to start, one session each. A two-way agent holds one
        # checkout, whose order (None until then) its invoice supplies.
        self._queue: List[Optional[PaymentOrder]] = (
            [None] if merchant is not None else list(payments or []))
        self.order: Optional[PaymentOrder] = None  # what the current session pays
        self.txn_id: Optional[str] = None  # learned from submit_ack or the SMS prompt
        # (answer type, request id) for every answer an outstanding request expects.
        self._due: Set[Tuple[str, str]] = set()
        self._request_counter = 0
        self.request_id = ""

    # -- flow control ---------------------------------------------------------

    def _send(self, ctx: Ctx, msg_type: str, receiver: str,
              fields: Optional[Dict[F, Value]] = None, cookie: str = "",
              delay: int = 0) -> None:
        """Send under the current request id; each answer the table says
        `msg_type` expects becomes due."""
        self._due.update((answer, self.request_id) for answer in ANSWERS.get(msg_type, ()))
        send(ctx, msg_type, receiver, fields, cookie=cookie, request_id=self.request_id,
             delay=delay)

    def _begin_next(self, ctx: Ctx) -> None:
        """Start a session for the head of the queue, if there is one. It
        leaves the queue now: retrying a failed attempt with the same broken
        factor would loop forever."""
        if not self._queue:
            return
        self.order = self._queue.pop(0)
        self.session = None
        self._send(ctx, "login_request", self.bank,
                   {F.USERNAME: self.name, F.PASSWORD: self.password})

    def _finish_current(self, ctx: Ctx, outcome: str) -> None:
        self.outcomes.append(outcome)
        self._due.clear()  # a finished session has no request outstanding
        self._begin_next(ctx)

    # -- lifecycle ----------------------------------------------------------------

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        handler = self._HANDLERS.get(env.msg_type)
        if handler is None:
            ctx.note(f"ignored msg_type={env.msg_type}")
            return
        if MESSAGES[env.msg_type].answers:
            due = (env.msg_type, env.request_id)
            if due not in self._due:
                ignore_unexpected(ctx, env.msg_type)
                return
            # Taken before the handler runs: the handler may finish the
            # session and send the next request, whose answers must stay due.
            self._due.remove(due)
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
        if self.order is None:  # a checkout: the merchant's invoice gives the order
            self._request_counter += 1
            self.request_id = f"{self.name}-R{self._request_counter:03d}"
            self._send(ctx, "checkout_request", self.merchant)
            return
        self._select_mode(ctx)

    def _select_mode(self, ctx: Ctx) -> None:
        self._send(ctx, "mode_select", self.bank, {F.MODE: self.order.mode.label},
                   cookie=self.session.cookie)

    def _on_mode_ack(self, ctx: Ctx, env: Envelope) -> None:
        if env.body.get(F.STATUS) != b"\x01":
            reason = read_text(env.body, F.REASON)
            ctx.note(f"mode-rejected cause={reason}")
            self._finish_current(ctx, f"mode-rejected:{reason}")
            return
        self._compose_and_submit(ctx)

    def _compose_and_submit(self, ctx: Ctx) -> None:
        """Spend one code: it keys the order, the session key wraps it.

        On any local failure (empty or locked vault) nothing is sent."""
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
        enc_order = self.suite.encrypt_payment(self.order, code.value, cookie)
        self.txn_id = None
        ctx.note(f"submitted amount={self.order.amount}")
        self._send(ctx, "payment_submit", self.bank, {
            F.ENC_TIC: enc_tic.to_bytes(), F.ENC_ORDER: enc_order.to_bytes(),
        }, cookie=cookie)

    def _on_submit_ack(self, ctx: Ctx, env: Envelope) -> None:
        if env.body.get(F.STATUS) != b"\x01":
            ctx.note("submit-denied")
            self._finish_current(ctx, "submit-denied")
            return
        self.txn_id = read_text(env.body, F.TXN_ID)
        ctx.note(f"submit-accepted txn={self.txn_id}")

    def _on_sms_challenge(self, ctx: Ctx, env: Envelope) -> None:
        txn_id = read_text(env.body, F.TXN_ID)
        # Only prompts matching the transaction this agent actually started
        # get an answer; amount is the cross-check because the prompt can
        # outrun the submit_ack that names the txn id. Any other prompt
        # leaves the genuine one due.
        if read_amount(env.body) != self.order.amount or self.txn_id not in (None, txn_id):
            self._due.add(("sms_challenge", env.request_id))
            ctx.note(f"sms-ignored txn={txn_id}")
            return
        self.txn_id = txn_id
        if self.reply_policy == "ignore":
            ctx.note(f"sms-unanswered txn={txn_id}")
            return
        decision = "YES" if self.reply_policy == "yes" else "NO"
        ctx.note(f"sms-replied txn={txn_id} decision={decision}")
        self._send(ctx, "sms_reply", self.bank, {F.TXN_ID: txn_id, F.DECISION: decision},
                   delay=self.reply_delay)

    def _on_txn_result(self, ctx: Ctx, env: Envelope) -> None:
        result = read_text(env.body, F.RESULT)
        reason = read_text(env.body, F.REASON)
        ctx.note(f"result {result}" + (f" cause={reason}" if reason else ""))
        self._finish_current(ctx, result)

    # -- two-way handlers ----------------------------------------------------------

    def _on_invoice(self, ctx: Ctx, env: Envelope) -> None:
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
        self.order = PaymentOrder(mode=self.mode, payee_account=cert.account_ref,
                                  amount=amount, invoice_number=invoice_number)
        ctx.note(f"invoice-received number={invoice_number} amount={amount}")
        self._send(ctx, "merchant_auth_request", self.bank, {
            F.CERT: body[F.CERT],
            F.ENC_MERCHANT_INFO: enc_info,
            F.MERCHANT_ID: cert.merchant_id,
            F.MERCHANT_BANK_ID: cert.merchant_bank_id,
            F.INVOICE_NUMBER: invoice_number,
            F.AMOUNT: amount,
        }, cookie=self.session.cookie)

    def _on_merchant_auth_ack(self, ctx: Ctx, env: Envelope) -> None:
        verdict = read_text(env.body, F.VERDICT)
        if verdict != "positive":
            reason = read_text(env.body, F.REASON)
            ctx.note(f"merchant-auth-negative reason={reason or verdict}")
            self._finish_current(ctx, f"merchant-rejected:{reason or verdict}")
            return
        ctx.note("merchant-auth-positive")
        self._select_mode(ctx)

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
