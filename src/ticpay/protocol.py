"""The protocol, stated once: one row per message type.

Each row names the role that sends the message, the role that receives
it, its channel, the body tags it may carry, and whether only the two-way
flow (merchant prologue and settlement) sends it. This is the global-type
view of multiparty session types (Honda, Yoshida & Carbone, POPL 2008):
one global description, each party's part read off it. The rows run in
the order in which one clean two-way payment delivers them; the one-way
flow is the rows that are not two-way only. The conformance templates,
the message types a scenario may name, the merchant schema and the
customer bank's two-way handlers all derive from this table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple

from .wire import Channel, F

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


def _row(msg_type: str, sender: str, receiver: str, channel: Channel, *tags: F,
         two_way_only: bool = False) -> Message:
    return Message(msg_type, sender, receiver, channel, frozenset(map(int, tags)),
                   two_way_only)


WEB, SMS, INTERBANK = Channel.WEB, Channel.SMS, Channel.INTERBANK

PROTOCOL = (
    _row("tic_provision", BANK, CLIENT, WEB, F.VAULT),
    _row("login_request", CLIENT, BANK, WEB, F.USERNAME, F.PASSWORD),
    _row("login_response", BANK, CLIENT, WEB,
         F.STATUS, F.REASON, F.WRAPPED_KEY, F.WELCOME),
    _row("checkout_request", CLIENT, MERCHANT, WEB, two_way_only=True),
    _row("invoice", MERCHANT, CLIENT, WEB,
         F.INVOICE_NUMBER, F.AMOUNT, F.MERCHANT_ID, F.MERCHANT_BANK_ID, F.CERT,
         F.ENC_MERCHANT_INFO, two_way_only=True),
    _row("merchant_auth_request", CLIENT, BANK, WEB,
         F.INVOICE_NUMBER, F.AMOUNT, F.MERCHANT_ID, F.MERCHANT_BANK_ID, F.CERT,
         F.ENC_MERCHANT_INFO, two_way_only=True),
    _row("merchant_auth_forward", BANK, MERCHANT_BANK, INTERBANK,
         F.MERCHANT_ID, F.CERT, F.ENC_MERCHANT_INFO, two_way_only=True),
    _row("merchant_auth_verdict", MERCHANT_BANK, BANK, INTERBANK,
         F.REASON, F.VERDICT, two_way_only=True),
    _row("merchant_auth_ack", BANK, CLIENT, WEB, F.REASON, F.VERDICT, two_way_only=True),
    _row("mode_select", CLIENT, BANK, WEB, F.MODE),
    _row("mode_ack", BANK, CLIENT, WEB, F.STATUS, F.REASON),
    _row("payment_submit", CLIENT, BANK, WEB, F.ENC_TIC, F.ENC_ORDER),
    _row("submit_ack", BANK, CLIENT, WEB, F.STATUS, F.REASON, F.TXN_ID),
    _row("sms_challenge", BANK, CLIENT, SMS, F.TXN_ID, F.AMOUNT, F.ACCOUNT_REF, F.CELL),
    _row("sms_reply", CLIENT, BANK, SMS, F.TXN_ID, F.DECISION),
    _row("txn_result", BANK, CLIENT, WEB, F.STATUS, F.REASON, F.TXN_ID, F.RESULT),
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

# Delivered msg_type order of one clean payment, as each client sees it.
TWO_WAY_TEMPLATE = [message.msg_type for message in PROTOCOL]
ONE_WAY_TEMPLATE = [message.msg_type for message in PROTOCOL if not message.two_way_only]
TEMPLATES = {"one-way": ONE_WAY_TEMPLATE, "two-way": TWO_WAY_TEMPLATE}


def received_by(role: str, two_way_only: bool = False) -> Dict[str, FrozenSet[int]]:
    """The message types `role` receives, each with the body tags it may
    carry, in table order; with `two_way_only`, only the two-way flow's."""
    return {message.msg_type: message.tags for message in PROTOCOL
            if message.receiver == role and (message.two_way_only or not two_way_only)}
