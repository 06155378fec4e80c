"""The protocol, stated once: one row per message type.

Each row names the role that sends the message, the role that receives
it, its channel, the body tags it may carry, whether only the two-way
flow (merchant prologue and settlement) sends it, and the request it
answers, if it is an answer. This is the global-type view of multiparty
session types (Honda, Yoshida & Carbone, POPL 2008): one global
description, each party's part read off it. The rows run in the order in
which one clean two-way payment delivers them; the one-way flow is the
rows that are not two-way only. The conformance templates, the message
types a scenario may name, the merchant schema, the customer bank's
two-way handlers and `ANSWERS`, the answers each request expects, all
derive from this table. A party accepts an answer only to a request it
still has outstanding (Deniélou & Yoshida, ESOP 2012) and drops any other
through `ignore_unexpected`.

Every actor sends through `send`, which takes the channel from the
message type's row, and reads field values through `read_text` and
`read_amount`: one codec writes a value and reads it back. A field that
is absent or does not decode reads as the empty value, so a tampered
field is handled as a missing one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from .netsim import Ctx
from .wire import Channel, Envelope, F, u64

# Roles. BANK is the customer's bank; MERCHANT_BANK issues and verifies
# merchant certificates and books the merchant's side of a settlement.
CLIENT = "client"
BANK = "bank"
MERCHANT_BANK = "merchant-bank"
MERCHANT = "merchant"


class Message(NamedTuple):
    msg_type: str
    sender: str  # role
    receiver: str  # role
    channel: Channel
    tags: FrozenSet[int]  # body tags the message may carry
    two_way_only: bool
    answers: Optional[str]  # the request type this message answers


def _row(msg_type: str, sender: str, receiver: str, channel: Channel, *tags: F,
         two_way_only: bool = False, answers: Optional[str] = None) -> Message:
    return Message(msg_type, sender, receiver, channel, frozenset(map(int, tags)),
                   two_way_only, answers)


WEB, SMS, INTERBANK = Channel.WEB, Channel.SMS, Channel.INTERBANK

PROTOCOL = (
    _row("tic_provision", BANK, CLIENT, WEB, F.VAULT),
    _row("login_request", CLIENT, BANK, WEB, F.USERNAME, F.PASSWORD),
    _row("login_response", BANK, CLIENT, WEB,
         F.STATUS, F.REASON, F.WRAPPED_KEY, F.WELCOME, answers="login_request"),
    _row("checkout_request", CLIENT, MERCHANT, WEB, two_way_only=True),
    _row("invoice", MERCHANT, CLIENT, WEB,
         F.INVOICE_NUMBER, F.AMOUNT, F.MERCHANT_ID, F.MERCHANT_BANK_ID, F.CERT,
         F.ENC_MERCHANT_INFO, two_way_only=True, answers="checkout_request"),
    _row("merchant_auth_request", CLIENT, BANK, WEB,
         F.INVOICE_NUMBER, F.AMOUNT, F.MERCHANT_ID, F.MERCHANT_BANK_ID, F.CERT,
         F.ENC_MERCHANT_INFO, two_way_only=True),
    _row("merchant_auth_forward", BANK, MERCHANT_BANK, INTERBANK,
         F.MERCHANT_ID, F.CERT, F.ENC_MERCHANT_INFO, two_way_only=True),
    _row("merchant_auth_verdict", MERCHANT_BANK, BANK, INTERBANK,
         F.REASON, F.VERDICT, two_way_only=True, answers="merchant_auth_forward"),
    _row("merchant_auth_ack", BANK, CLIENT, WEB, F.REASON, F.VERDICT, two_way_only=True,
         answers="merchant_auth_request"),
    _row("mode_select", CLIENT, BANK, WEB, F.MODE),
    _row("mode_ack", BANK, CLIENT, WEB, F.STATUS, F.REASON, answers="mode_select"),
    _row("payment_submit", CLIENT, BANK, WEB, F.ENC_TIC, F.ENC_ORDER),
    _row("submit_ack", BANK, CLIENT, WEB, F.STATUS, F.REASON, F.TXN_ID,
         answers="payment_submit"),
    _row("sms_challenge", BANK, CLIENT, SMS, F.TXN_ID, F.AMOUNT, F.ACCOUNT_REF, F.CELL,
         answers="payment_submit"),
    _row("sms_reply", CLIENT, BANK, SMS, F.TXN_ID, F.DECISION),
    _row("txn_result", BANK, CLIENT, WEB, F.STATUS, F.REASON, F.TXN_ID, F.RESULT,
         answers="payment_submit"),
    _row("payment_notice", BANK, CLIENT, WEB, F.AMOUNT, F.INVOICE_NUMBER,
         two_way_only=True),
    _row("settle_notice", BANK, MERCHANT_BANK, INTERBANK,
         F.AMOUNT, F.INVOICE_NUMBER, F.MERCHANT_ID, F.CUSTOMER_REF, F.NOTICE_ID,
         two_way_only=True),
    _row("payment_confirmation", MERCHANT_BANK, MERCHANT, WEB,
         F.AMOUNT, F.INVOICE_NUMBER, F.CUSTOMER_REF, two_way_only=True),
)

MESSAGES: Dict[str, Message] = {message.msg_type: message for message in PROTOCOL}
MSG_TYPES = frozenset(MESSAGES)  # every type the protocol sends

# Request type -> the types that answer it, in table order.
ANSWERS: Dict[str, Tuple[str, ...]] = {
    request: tuple(message.msg_type for message in PROTOCOL if message.answers == request)
    for request in dict.fromkeys(message.answers for message in PROTOCOL if message.answers)
}

# Delivered msg_type order of one clean payment, as each client sees it.
TWO_WAY_TEMPLATE = [message.msg_type for message in PROTOCOL]
ONE_WAY_TEMPLATE = [message.msg_type for message in PROTOCOL if not message.two_way_only]
TEMPLATES = {"one-way": ONE_WAY_TEMPLATE, "two-way": TWO_WAY_TEMPLATE}


def received_by(role: str, two_way_only: bool = False) -> Dict[str, FrozenSet[int]]:
    """The message types `role` receives, each with the body tags it may
    carry, in table order; with `two_way_only`, only the two-way flow's."""
    return {message.msg_type: message.tags for message in PROTOCOL
            if message.receiver == role and (message.two_way_only or not two_way_only)}


# -- the codec ------------------------------------------------------------------

Value = Union[str, int, bytes, None]
_AMOUNT = int(F.AMOUNT)


def send(ctx: Ctx, msg_type: str, receiver: str, fields: Optional[Dict[F, Value]] = None,
         cookie: str = "", request_id: str = "", delay: int = 0) -> None:
    """Send `msg_type` from the acting actor to `receiver`, after `delay`
    seconds, on the channel of the message type's row. A str value goes as
    UTF-8, an int (an amount) as a big-endian u64, bytes as they are; a
    None value leaves its field out."""
    body = {}
    if fields:
        for tag, value in fields.items():
            if isinstance(value, str):
                body[int(tag)] = value.encode("utf-8")
            elif isinstance(value, int):
                body[int(tag)] = u64(value)
            elif value is not None:
                body[int(tag)] = value
    ctx.send(Envelope(ctx.actor_name, receiver, MESSAGES[msg_type].channel, msg_type,
                      body, cookie, request_id), delay)


def ignore_unexpected(ctx: Ctx, msg_type: str) -> None:
    """Note a message that is not due; the caller drops it."""
    ctx.note(f"unexpected-{msg_type.replace('_', '-')} ignored")


def read_text(body: Dict[int, bytes], tag: F) -> str:
    """A text field's value; "" when it is absent or not valid UTF-8."""
    try:
        return body.get(tag, b"").decode("utf-8")
    except UnicodeDecodeError:
        return ""


def read_amount(body: Dict[int, bytes]) -> int:
    """The amount field's value; 0 when it is absent or not a u64."""
    raw = body.get(_AMOUNT)
    return int.from_bytes(raw, "big") if raw is not None and len(raw) == 8 else 0
