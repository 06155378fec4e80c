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

__version__ = "0.1.0"
