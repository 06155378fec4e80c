"""Exception types shared across the protocol engine and simulator.

Domain rejections (bad credentials, TIC mismatch, negative merchant
verdicts) are *outcomes*, returned as result values by the operations
that produce them. Exceptions are reserved for faults: malformed bytes,
failed integrity checks, exhausted vaults, scenario errors, and
simulator misuse.
"""


class TicpayError(Exception):
    """Base class for all package exceptions."""


class WireError(TicpayError):
    """Byte string does not parse as canonical wire format."""


class IntegrityFailure(TicpayError):
    """Authenticated decryption failed: wrong key, wrong PIN, or tampered bytes."""


class RoleMismatch(IntegrityFailure):
    """Ciphertext presented to an operation for a different key role.

    A tampered key-role byte gives one as surely as a misrouted
    ciphertext does, so it fails like any other integrity check.
    """


class VaultLocked(TicpayError):
    """Vault password did not unlock the stored TIC entries."""


class VaultEmpty(TicpayError):
    """No TIC codes remain; the user must obtain a new batch from the bank."""


class CollisionExhaustion(TicpayError):
    """Distinct-code generation failed within the redraw budget.

    Means too many fresh draws collided with codes already live, for
    instance because a batch was minted again from the same seed.
    """


class NoCertificate(TicpayError):
    """Merchant attempted to invoice without a bank-issued certificate."""


class StepBudgetExceeded(TicpayError):
    """Scenario did not reach quiescence within the step budget (livelock)."""


class ActorFault(TicpayError):
    """An actor's handler raised: names the actor, the exception type, and
    the trace seq of the event being handled (0 for the opening move)."""

    def __init__(self, actor: str, error: Exception, seq: int):
        super().__init__(f"{actor} raised {type(error).__name__} handling seq={seq}: "
                         f"{error}")


class ScenarioError(TicpayError):
    """Scenario file failed to parse or validate; message names the field."""
