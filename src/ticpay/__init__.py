"""Multi-factor wireless payment protocol engine with a deterministic simulator.

The protocol layers four independent factors in front of every payment:
a password login, a session key unwrapped only by the holder of an
8-byte PIN, a single-use transaction code drawn from an encrypted
vault, and an out-of-band SMS approval. A merchant variant adds
bank-verified merchant certificates so authentication runs both ways.

Everything that moves or decides here is deterministic under a seed, so
protocol runs, adversary interleavings, and the security checks over
them (leakage, conformance, conservation, merchant blindness) replay
bit for bit.
"""

from .auth_server import BankActor, BankServer, Phase, generic_denial_body
from .checks import (
    collect_secrets,
    conformance_check,
    leakage_scan,
    merchant_blindness_check,
    total_funds,
)
from .client_agent import ClientAgent
from .crypto import CryptoSuite, Pin, SecretKey, derive_shared_key
from .errors import (
    CollisionExhaustion,
    IntegrityFailure,
    NoCertificate,
    RoleMismatch,
    ScenarioError,
    StepBudgetExceeded,
    VaultEmpty,
    VaultLocked,
    WireError,
)
from .netsim import (
    AdversaryScript,
    Drop,
    ProtocolTrace,
    Replay,
    Rule,
    Simulation,
    Tamper,
)
from .payment import PaymentOrder, PayMode
from .protocol import ONE_WAY_TEMPLATE, PROTOCOL, TWO_WAY_TEMPLATE
from .rng import DeterministicRng
from .scenarios import ScenarioSpec, build_world, list_bundled, load_spec, run_spec
from .tic_registry import TicBatch, TicRegistry, VerifyResult
from .two_way import MerchantAgent, MerchantBank, MerchantCertificate, TwoWayGateway
from .vault import TicVault
from .wire import Channel, Envelope

__version__ = "0.1.0"

__all__ = [
    "AdversaryScript",
    "BankActor",
    "BankServer",
    "Channel",
    "ClientAgent",
    "CollisionExhaustion",
    "CryptoSuite",
    "DeterministicRng",
    "Drop",
    "Envelope",
    "IntegrityFailure",
    "MerchantAgent",
    "MerchantBank",
    "MerchantCertificate",
    "NoCertificate",
    "ONE_WAY_TEMPLATE",
    "PROTOCOL",
    "PayMode",
    "PaymentOrder",
    "Phase",
    "Pin",
    "ProtocolTrace",
    "Replay",
    "RoleMismatch",
    "Rule",
    "ScenarioError",
    "ScenarioSpec",
    "SecretKey",
    "Simulation",
    "StepBudgetExceeded",
    "TWO_WAY_TEMPLATE",
    "Tamper",
    "TicBatch",
    "TicRegistry",
    "TicVault",
    "TwoWayGateway",
    "VaultEmpty",
    "VaultLocked",
    "VerifyResult",
    "WireError",
    "build_world",
    "collect_secrets",
    "conformance_check",
    "derive_shared_key",
    "generic_denial_body",
    "leakage_scan",
    "list_bundled",
    "load_spec",
    "merchant_blindness_check",
    "run_spec",
    "total_funds",
]
