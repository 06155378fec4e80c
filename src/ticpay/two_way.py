"""Merchant-side authentication and settlement: the two-way flow.

A purchase starts with the merchant's invoice and certificate, which the
customer's bank relays to the issuing merchant bank for verification.
Only a positive verdict lets the payment protocol run; a negative or
silent answer kills the request before a single payment byte moves.
After commit, the customer's bank notifies the merchant bank, which
credits the merchant exactly once per notice and confirms to the
merchant agent.

Payment data never routes through the merchant: the merchant sees its
invoice number, a customer digest, and an amount — nothing else. The
merchant's own banking details travel sealed under a key shared only
with its bank.

Certificates are bank-signed records checked by the issuing bank with
a keyed MAC; there is no certificate chain because verification always
routes to the issuer anyway.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace
from typing import Dict, Optional

from .auth_server import BankActor, BankServer, PendingTransaction
from .crypto import DEFAULT_CIPHER, CryptoSuite, derive_shared_key
from .errors import IntegrityFailure, NoCertificate, WireError
from .netsim import Actor, Ctx, digest16
from .protocol import BANK, Value, ignore_unexpected, read_amount, read_text, received_by, send
from .rng import DeterministicRng
from .wire import Ciphertext, Envelope, F, KeyRole, Reader, str16, u64

SIGNATURE_LEN = 32
AUTH_DEADLINE = 60  # seconds the customer bank waits for a merchant verdict
DEFAULT_MERCHANT_BALANCE = 0
DEFAULT_CERT_VALID_UNTIL = 10**9


@dataclass(frozen=True)
class MerchantCertificate:
    """Bank-issued merchant identity; verifiable only by the issuing bank."""

    merchant_id: str
    merchant_bank_id: str
    display_name: str
    account_ref: str  # digest of the merchant account, never the account itself
    valid_from: int
    valid_until: int
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        return (
            str16(self.merchant_id)
            + str16(self.merchant_bank_id)
            + str16(self.display_name)
            + str16(self.account_ref)
            + u64(self.valid_from)
            + u64(self.valid_until)
        )

    def to_bytes(self) -> bytes:
        if len(self.signature) != SIGNATURE_LEN:
            raise WireError("certificate is unsigned")
        return self.signing_bytes() + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerchantCertificate":
        reader = Reader(data)
        merchant_id = reader.str16()
        merchant_bank_id = reader.str16()
        display_name = reader.str16()
        account_ref = reader.str16()
        valid_from = reader.u64()
        valid_until = reader.u64()
        signature = reader.take(SIGNATURE_LEN)
        reader.expect_end()
        return cls(
            merchant_id=merchant_id,
            merchant_bank_id=merchant_bank_id,
            display_name=display_name,
            account_ref=account_ref,
            valid_from=valid_from,
            valid_until=valid_until,
            signature=signature,
        )


@dataclass(frozen=True)
class Verdict:
    positive: bool
    reason: Optional[str] = None  # bad-signature | expired | not-yet-valid |
    #                               unknown-merchant | suspended |
    #                               banking-info-mismatch | bad-certificate | timeout

    @property
    def label(self) -> str:
        return "positive" if self.positive else "negative"


@dataclass
class MerchantRecord:
    merchant_id: str
    account_id: str
    display_name: str
    secret: bytes  # registration secret shared between merchant and bank
    standing: str = "good"  # good | suspended
    certificate: Optional[MerchantCertificate] = None

    def info_key(self) -> bytes:
        """Key that seals the merchant's banking details for its bank."""
        return derive_shared_key(self.secret, f"merchant-info|{self.merchant_id}")


class MerchantBank(Actor):
    """Issues merchant certificates, verifies them, and books settlements."""

    def __init__(self, name: str = "mbank", seed: int | str | bytes = 0,
                 cipher: str = DEFAULT_CIPHER):
        self.name = name
        self._rng = DeterministicRng(seed, f"mbank|{name}")
        self._cert_key = self._rng.child("cert-key").take(32)
        self.suite = CryptoSuite(cipher)
        self.merchants: Dict[str, MerchantRecord] = {}
        self.balances: Dict[str, int] = {}
        self.clearing = 0
        self.ledger_version = 0  # bumped with every write to balances or clearing
        self.processed_notices: set = set()

    def total_funds(self) -> int:
        return sum(self.balances.values()) + self.clearing

    # -- registration and certificates ---------------------------------------

    def register_merchant(
        self,
        merchant_id: str,
        account_id: str,
        display_name: str,
        balance: int = DEFAULT_MERCHANT_BALANCE,
        valid_until: int = DEFAULT_CERT_VALID_UNTIL,
    ) -> MerchantRecord:
        if merchant_id in self.merchants:
            raise ValueError(f"merchant {merchant_id!r} already registered")
        record = MerchantRecord(
            merchant_id=merchant_id,
            account_id=account_id,
            display_name=display_name,
            secret=self._rng.child(f"merchant-secret|{merchant_id}").take(32),
        )
        self.merchants[merchant_id] = record
        self.balances[account_id] = balance
        self.ledger_version += 1
        record.certificate = self.issue_certificate(merchant_id, 0, valid_until)
        return record

    def _sign(self, cert: MerchantCertificate) -> bytes:
        return hmac.new(self._cert_key, cert.signing_bytes(), hashlib.sha256).digest()

    def issue_certificate(self, merchant_id: str, valid_from: int,
                          valid_until: int) -> MerchantCertificate:
        record = self.merchants[merchant_id]
        cert = MerchantCertificate(
            merchant_id=merchant_id,
            merchant_bank_id=self.name,
            display_name=record.display_name,
            account_ref=digest16(record.account_id.encode("utf-8")),
            valid_from=valid_from,
            valid_until=valid_until,
        )
        signed = replace(cert, signature=self._sign(cert))
        record.certificate = signed
        return signed

    # -- verification -----------------------------------------------------------

    def verify_certificate(self, cert_bytes: bytes, enc_info: bytes, now: int) -> Verdict:
        """Signature, validity window, standing, and banking-info consistency
        must all hold; the first miss decides the reason."""
        try:
            cert = MerchantCertificate.from_bytes(cert_bytes)
        except WireError:
            return Verdict(False, "bad-certificate")
        record = self.merchants.get(cert.merchant_id)
        if record is None:
            return Verdict(False, "unknown-merchant")
        if not hmac.compare_digest(cert.signature, self._sign(cert)):
            return Verdict(False, "bad-signature")
        if now < cert.valid_from:
            return Verdict(False, "not-yet-valid")
        if now > cert.valid_until:
            return Verdict(False, "expired")
        if record.standing != "good":
            return Verdict(False, "suspended")
        try:
            ct = Ciphertext.from_bytes(enc_info)
            account_id = self.suite.open_blob(
                ct, KeyRole.BANK_NET_KEYED, record.info_key(), f"minfo|{cert.merchant_id}"
            ).decode("utf-8")
        except (WireError, IntegrityFailure, UnicodeDecodeError):
            return Verdict(False, "banking-info-mismatch")
        if account_id != record.account_id:
            return Verdict(False, "banking-info-mismatch")
        if digest16(account_id.encode("utf-8")) != cert.account_ref:
            return Verdict(False, "banking-info-mismatch")
        return Verdict(True)

    # -- messages -----------------------------------------------------------------

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        if env.msg_type == "merchant_auth_forward":
            self._on_auth_forward(ctx, env)
        elif env.msg_type == "settle_notice":
            self._on_settle_notice(ctx, env)
        else:
            ctx.note(f"ignored msg_type={env.msg_type}")

    def _on_auth_forward(self, ctx: Ctx, env: Envelope) -> None:
        verdict = self.verify_certificate(
            env.body.get(F.CERT, b""), env.body.get(F.ENC_MERCHANT_INFO, b""), now=ctx.now,
        )
        ctx.note(f"verify-merchant verdict={verdict.label}"
                 + (f" reason={verdict.reason}" if verdict.reason else ""))
        send(ctx, "merchant_auth_verdict", env.sender, {
            F.VERDICT: verdict.label, F.REASON: verdict.reason,
        }, request_id=env.request_id)

    def _on_settle_notice(self, ctx: Ctx, env: Envelope) -> None:
        notice_id = read_text(env.body, F.NOTICE_ID)
        merchant_id = read_text(env.body, F.MERCHANT_ID)
        amount = read_amount(env.body)
        if notice_id in self.processed_notices:
            ctx.note(f"notice-duplicate id={notice_id} ignored")
            return
        record = self.merchants.get(merchant_id)
        if record is None:
            ctx.note(f"notice-unknown-merchant id={notice_id}")
            return
        self.processed_notices.add(notice_id)
        # Exactly one credit per notice id, however many copies arrive.
        self.clearing -= amount
        self.balances[record.account_id] += amount
        self.ledger_version += 1
        ctx.note(f"merchant-credited merchant={merchant_id} amount={amount} "
                 f"notice={notice_id}")
        send(ctx, "payment_confirmation", merchant_id, {
            F.INVOICE_NUMBER: read_text(env.body, F.INVOICE_NUMBER),
            F.AMOUNT: amount,
            F.CUSTOMER_REF: env.body.get(F.CUSTOMER_REF, b""),
        }, request_id=env.request_id)


class MerchantAgent(Actor):
    """Online storefront: answers checkouts with invoices, hears confirmations.

    The agent holds its registration secret and certificate; its banking
    details leave the store only inside a blob its own bank can open.
    """

    def __init__(self, record: MerchantRecord, bank: str, price: int,
                 cipher: str = DEFAULT_CIPHER):
        self.name = record.merchant_id
        self.record = record
        self.bank = bank
        self.price = price
        self.suite = CryptoSuite(cipher)
        self._invoice_counter = 0
        self.confirmations: list = []

    def prepare_invoice(self, cart_total: int) -> Dict[F, Value]:
        """Invoice field values: fresh number, sealed banking info, certificate."""
        if self.record.certificate is None:
            raise NoCertificate(f"merchant {self.name!r} holds no certificate")
        if cart_total <= 0:
            raise ValueError("cart total must be positive")
        self._invoice_counter += 1
        invoice_number = f"{self.name}-INV{self._invoice_counter:04d}"
        enc_info = self.suite.seal_blob(
            KeyRole.BANK_NET_KEYED, self.record.info_key(),
            self.record.account_id.encode("utf-8"), f"minfo|{self.name}",
        )
        return {
            F.INVOICE_NUMBER: invoice_number,
            F.AMOUNT: cart_total,
            F.CERT: self.record.certificate.to_bytes(),
            F.ENC_MERCHANT_INFO: enc_info.to_bytes(),
            F.MERCHANT_ID: self.name,
            F.MERCHANT_BANK_ID: self.record.certificate.merchant_bank_id,
        }

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        if env.msg_type == "checkout_request":
            fields = self.prepare_invoice(self.price)
            ctx.note(f"invoice-sent number={fields[F.INVOICE_NUMBER]} amount={self.price}")
            send(ctx, "invoice", env.sender, fields, request_id=env.request_id)
        elif env.msg_type == "payment_confirmation":
            invoice = read_text(env.body, F.INVOICE_NUMBER)
            amount = read_amount(env.body)
            self.confirmations.append((invoice, amount))
            ctx.note(f"payment-confirmed invoice={invoice} amount={amount}")
        else:
            ctx.note(f"ignored msg_type={env.msg_type}")


@dataclass
class _RequestState:
    request_id: str
    customer: str
    merchant_id: str
    merchant_bank_id: str
    invoice_number: str
    verdict: Optional[Verdict] = None
    timer_token: Optional[int] = None


class TwoWayGateway(BankActor):
    """The customer's bank in the two-way flow: the one-way bank plus
    merchant verification and settlement.

    It takes the message types that only the two-way flow sends the
    customer bank, lets a request pay only after a recorded positive
    verdict — retries always re-verify, nothing is cached across
    requests — and after each commit notifies the merchant bank and the
    customer. `requests` is the due set: a request id is verified once,
    and a verdict is due only while its request has none.
    """

    HANDLED = frozenset(received_by(BANK, two_way_only=True))

    def __init__(self, server: BankServer, provision_plan: Optional[Dict[str, int]] = None,
                 known_banks: Optional[set] = None):
        super().__init__(server, provision_plan)
        self.known_banks = set(known_banks or ())
        self.requests: Dict[str, _RequestState] = {}
        self._notice_counter = 0

    def allows(self, request_id: str) -> bool:
        state = self.requests.get(request_id)
        return state is not None and state.verdict is not None and state.verdict.positive

    def on_message(self, ctx: Ctx, env: Envelope) -> None:
        if env.msg_type not in self.HANDLED:
            super().on_message(ctx, env)
        elif env.msg_type == "merchant_auth_request":
            self._on_auth_request(ctx, env)
        else:
            self._on_verdict(ctx, env)

    def _ack(self, ctx: Ctx, state: _RequestState, verdict: Verdict) -> None:
        state.verdict = verdict
        ctx.note(f"merchant-auth request={state.request_id} verdict={verdict.label}"
                 + (f" reason={verdict.reason}" if verdict.reason else ""))
        send(ctx, "merchant_auth_ack", state.customer, {
            F.VERDICT: verdict.label, F.REASON: verdict.reason,
        }, request_id=state.request_id)

    def _on_auth_request(self, ctx: Ctx, env: Envelope) -> None:
        if env.request_id in self.requests:
            # A request is verified once: a second copy must not replace the
            # verdict already recorded for it.
            ignore_unexpected(ctx, env.msg_type)
            return
        merchant_bank = read_text(env.body, F.MERCHANT_BANK_ID)
        state = _RequestState(
            request_id=env.request_id,
            customer=env.sender,
            merchant_id=read_text(env.body, F.MERCHANT_ID),
            merchant_bank_id=merchant_bank,
            invoice_number=read_text(env.body, F.INVOICE_NUMBER),
        )
        self.requests[state.request_id] = state
        if merchant_bank not in self.known_banks:
            self._ack(ctx, state, Verdict(False, "unknown-merchant-bank"))
            return
        send(ctx, "merchant_auth_forward", merchant_bank, {
            F.CERT: env.body.get(F.CERT, b""),
            F.ENC_MERCHANT_INFO: env.body.get(F.ENC_MERCHANT_INFO, b""),
            F.MERCHANT_ID: state.merchant_id,
        }, request_id=state.request_id)
        state.timer_token = ctx.set_timer(
            f"merchant-auth-timeout|{state.request_id}", delay=AUTH_DEADLINE,
        )

    def _on_verdict(self, ctx: Ctx, env: Envelope) -> None:
        state = self.requests.get(env.request_id)
        if state is None or state.verdict is not None:
            ignore_unexpected(ctx, env.msg_type)
            return
        if state.timer_token is not None:
            ctx.cancel_timer(state.timer_token)
        label = read_text(env.body, F.VERDICT)
        reason = read_text(env.body, F.REASON) or None
        if label == "positive":
            self._ack(ctx, state, Verdict(True))
        else:
            # A negative or unreadable answer is a rejection either way.
            self._ack(ctx, state, Verdict(False, reason or "negative"))

    def on_timer(self, ctx: Ctx, label: str) -> None:
        if not label.startswith("merchant-auth-timeout|"):
            super().on_timer(ctx, label)
            return
        request_id = label.split("|", 1)[1]
        state = self.requests.get(request_id)
        if state is None or state.verdict is not None:
            return
        # A silent merchant bank counts as a suspicious answer: reject.
        self._ack(ctx, state, Verdict(False, "timeout"))

    def on_committed(self, ctx: Ctx, txn: PendingTransaction) -> None:
        # The commit passed the gate at submit, and a recorded verdict never
        # changes: the request is known and positive.
        state = self.requests[txn.request_id]
        self._notice_counter += 1
        notice_id = f"{self.name}-N{self._notice_counter:04d}"
        # Funds already moved into clearing at commit; the notice tells the
        # merchant bank to book its side, once, keyed by notice id.
        send(ctx, "settle_notice", state.merchant_bank_id, {
            F.AMOUNT: txn.order.amount,
            F.INVOICE_NUMBER: state.invoice_number,
            F.MERCHANT_ID: state.merchant_id,
            F.CUSTOMER_REF: digest16(txn.account_id.encode("utf-8")),
            F.NOTICE_ID: notice_id,
        }, request_id=state.request_id)
        send(ctx, "payment_notice", state.customer, {
            F.INVOICE_NUMBER: state.invoice_number, F.AMOUNT: txn.order.amount,
        }, request_id=state.request_id)
        ctx.note(f"settled request={state.request_id} notice={notice_id} "
                 f"amount={txn.order.amount}")
