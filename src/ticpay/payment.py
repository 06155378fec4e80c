"""Payment orders: the sensitive transaction payload and its canonical bytes.

An order never crosses a channel in plaintext; it is serialized here and
encrypted under a TIC-derived key before submission. The serialization
is canonical (fixed field order, length prefixes, presence flags for the
optional fields) so round-trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .errors import WireError
from .wire import Reader, str16, u64


class PayMode(IntEnum):
    CREDIT_CARD = 1
    DEBIT_CARD = 2
    ELECTRONIC_TRANSFER = 3

    @classmethod
    def from_name(cls, name: str) -> "PayMode":
        try:
            return MODE_NAMES[name]
        except KeyError:
            raise ValueError(f"unknown payment mode {name!r}") from None

    @property
    def label(self) -> str:
        return MODE_LABELS[self]


MODE_NAMES = {
    "credit-card": PayMode.CREDIT_CARD,
    "debit-card": PayMode.DEBIT_CARD,
    "electronic-transfer": PayMode.ELECTRONIC_TRANSFER,
}
MODE_LABELS = {mode: name for name, mode in MODE_NAMES.items()}


@dataclass(frozen=True)
class PaymentOrder:
    """Payee, amount (integer minor units), and merchant-flow references."""

    mode: PayMode
    payee_account: str
    amount: int
    invoice_number: Optional[str] = None
    branch_code: Optional[str] = None

    def validate(self) -> None:
        if self.amount <= 0:
            raise ValueError("payment amount must be positive")
        if not self.payee_account:
            raise ValueError("payee account required")

    def to_bytes(self) -> bytes:
        self.validate()
        out = bytes([self.mode]) + str16(self.payee_account) + u64(self.amount)
        for optional in (self.invoice_number, self.branch_code):
            if optional is None:
                out += b"\x00"
            else:
                out += b"\x01" + str16(optional)
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "PaymentOrder":
        reader = Reader(data)
        mode_byte = reader.u8()
        try:
            mode = PayMode(mode_byte)
        except ValueError as exc:
            raise WireError(f"unknown payment mode {mode_byte}") from exc
        payee = reader.str16()
        amount = reader.u64()

        def read_optional() -> Optional[str]:
            flag = reader.u8()
            if flag == 0:
                return None
            if flag != 1:
                raise WireError(f"bad presence flag {flag}")
            return reader.str16()

        invoice = read_optional()
        branch = read_optional()
        reader.expect_end()
        order = cls(
            mode=mode,
            payee_account=payee,
            amount=amount,
            invoice_number=invoice,
            branch_code=branch,
        )
        order.validate()
        return order
