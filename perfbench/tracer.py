"""Timing wrappers around the public calls into each ticpay module.

``Tracer.install`` replaces each target attribute with a wrapper that
records one span per call: name, start, end, parent span and run id.
Module-level functions are patched in the namespace their caller looks
them up in (``ticpay.scenarios.leakage_scan``, ``ticpay.netsim.peek_header``);
methods are patched on their class. ``Tracer.uninstall`` puts every
original attribute back, so an untraced run in the same process pays
nothing. The program's own files are never edited.

A span's layer is the part of its name before the first dot. Its self
time is its duration minus the time its child spans cover. Finished spans
are folded into per-name totals whenever the tracer is uninstalled; the
first ``SPANS_KEPT`` of them stay in memory until ``write``, so a long traced
run holds a bounded number of spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROLE_NAMES = ("tic_keyed", "session_keyed", "pin_wrapped", "vault_keyed",
              "bank_net_keyed")  # KeyRole values 1..5, in order


def _role(role) -> str:
    return ROLE_NAMES[int(role) - 1]


def _count(key: str) -> Callable:
    def hook(counts, args, result, error):
        counts[key] += 1
    return hook


def _seal(role_name: Optional[str]) -> Callable:
    """Seals by key role; without a fixed role it is the method's argument."""
    def hook(counts, args, result, error):
        counts[f"crypto.seals.{role_name or _role(args[1])}"] += 1
    return hook


def _open(role_name: Optional[str]) -> Callable:
    def hook(counts, args, result, error):
        counts[f"crypto.opens.{role_name or _role(args[2])}"] += 1
        if error is not None:
            counts["crypto.open_failures"] += 1
    return hook


def _rng_take(counts, args, result, error):
    counts["rng.draws"] += 1
    counts["rng.bytes"] += args[1]


def _leakage(counts, args, result, error):
    counts["checks.leakage_pairs"] += len(args[0]) * len(args[1])


def _submit(counts, args, result, error):
    counts["auth_server.submits"] += 1
    counts["auth_server.submits_accepted"] += bool(result is not None and result.ok)


def _consume(counts, args, result, error):
    counts["tic_registry.consumes"] += 1
    counts["tic_registry.consumes_accepted"] += bool(result is not None and result.accepted)


# (module, class or None, attribute, span name, counting hook or None)
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("ticpay.scenarios", None, "parse_spec", "scenarios.parse_spec", None),
    ("ticpay.scenarios", None, "build_world", "scenarios.build_world", None),
    ("ticpay.scenarios", None, "run_spec", "scenarios.run_spec", None),
    ("ticpay.scenarios", None, "leakage_scan", "checks.leakage", _leakage),
    ("ticpay.scenarios", None, "collect_secrets", "checks.collect_secrets", None),
    ("ticpay.scenarios", None, "conformance_check", "checks.conformance", None),
    ("ticpay.scenarios", None, "merchant_blindness_check", "checks.blindness", None),
    ("ticpay.scenarios", None, "total_funds", "checks.conservation",
     _count("checks.conservation_calls")),
    ("ticpay.vault", "TicVault", "provision", "vault.provision", _count("vault.pbkdf2_calls")),
    ("ticpay.vault", "TicVault", "unlock", "vault.unlock", _count("vault.pbkdf2_calls")),
    ("ticpay.vault", "TicVault", "pick", "vault.pick", None),
    ("ticpay.vault", "TicVault", "to_bytes", "vault.to_bytes", None),
    ("ticpay.vault", "TicVault", "from_bytes", "vault.from_bytes", None),
    ("ticpay.wire", "Envelope", "to_bytes", "wire.encode", _count("wire.encodes")),
    ("ticpay.wire", "Envelope", "from_bytes", "wire.parse", _count("wire.parses")),
    ("ticpay.netsim", None, "peek_header", "wire.peek_header", _count("wire.parses")),
    ("ticpay.crypto", "CryptoSuite", "wrap_secret_key", "crypto.seal", _seal("pin_wrapped")),
    ("ticpay.crypto", "CryptoSuite", "unwrap_secret_key", "crypto.open", _open("pin_wrapped")),
    ("ticpay.crypto", "CryptoSuite", "encrypt_tic", "crypto.seal", _seal("session_keyed")),
    ("ticpay.crypto", "CryptoSuite", "decrypt_tic", "crypto.open", _open("session_keyed")),
    ("ticpay.crypto", "CryptoSuite", "encrypt_payment", "crypto.seal", _seal("tic_keyed")),
    ("ticpay.crypto", "CryptoSuite", "decrypt_payment", "crypto.open", _open("tic_keyed")),
    ("ticpay.crypto", "CryptoSuite", "seal_blob", "crypto.seal", _seal(None)),
    ("ticpay.crypto", "CryptoSuite", "open_blob", "crypto.open", _open(None)),
    ("ticpay.crypto", None, "derive_pin_key", "crypto.kdf", _count("crypto.kdf_calls")),
    ("ticpay.crypto", None, "derive_tic_key", "crypto.kdf", _count("crypto.kdf_calls")),
    ("ticpay.two_way", None, "derive_shared_key", "crypto.kdf", _count("crypto.kdf_calls")),
    ("ticpay.rng", "DeterministicRng", "take", "rng.take", _rng_take),
    ("ticpay.rng", "DeterministicRng", "below", "rng.below", None),
    ("ticpay.rng", "DeterministicRng", "child", "rng.child", None),
    ("ticpay.netsim", "Simulation", "run", "netsim.run", None),
    ("ticpay.netsim", "ProtocolTrace", "digest", "netsim.trace_digest", None),
    ("ticpay.auth_server", "BankServer", "enroll", "auth_server.enroll", None),
    ("ticpay.auth_server", "BankServer", "provision_codes", "auth_server.provision_codes", None),
    ("ticpay.auth_server", "BankServer", "login", "auth_server.login", None),
    ("ticpay.auth_server", "BankServer", "select_mode", "auth_server.select_mode", None),
    ("ticpay.auth_server", "BankServer", "submit_payment", "auth_server.submit_payment", _submit),
    ("ticpay.auth_server", "BankServer", "handle_sms_reply", "auth_server.handle_sms_reply", None),
    ("ticpay.auth_server", "BankServer", "expire_txn", "auth_server.expire_txn", None),
    ("ticpay.auth_server", "BankActor", "on_start", "auth_server.on_start", None),
    ("ticpay.auth_server", "BankActor", "on_message", "auth_server.on_message", None),
    ("ticpay.auth_server", "BankActor", "on_malformed", "auth_server.on_malformed", None),
    ("ticpay.auth_server", "BankActor", "on_timer", "auth_server.on_timer", None),
    ("ticpay.client_agent", "ClientAgent", "on_message", "client_agent.on_message", None),
    ("ticpay.tic_registry", "TicRegistry", "generate_tics", "tic_registry.generate_tics", None),
    ("ticpay.tic_registry", "TicRegistry", "verify_and_consume",
     "tic_registry.verify_and_consume", _consume),
    ("ticpay.tic_registry", "TicRegistry", "issued_values", "tic_registry.issued_values", None),
    ("ticpay.two_way", "MerchantBank", "register_merchant", "two_way.register_merchant", None),
    ("ticpay.two_way", "MerchantBank", "verify_certificate", "two_way.verify_certificate",
     _count("two_way.verifications")),
    ("ticpay.two_way", "MerchantBank", "on_message", "two_way.bank_on_message", None),
    ("ticpay.two_way", "MerchantAgent", "prepare_invoice", "two_way.prepare_invoice", None),
    ("ticpay.two_way", "MerchantAgent", "on_message", "two_way.merchant_on_message", None),
    ("ticpay.two_way", "TwoWayGateway", "on_message", "two_way.gateway_on_message", None),
    ("ticpay.two_way", "TwoWayGateway", "on_timer", "two_way.gateway_on_timer", None),
    ("ticpay.two_way", "TwoWayGateway", "on_committed", "two_way.on_committed", None),
]

def target_owner(target) -> object:
    """The module or class whose attribute a TARGETS row patches."""
    module = importlib.import_module(target[0])
    return getattr(module, target[1]) if target[1] else module


# A span row: (name, start_ns, end_ns, parent row index or -1, run id)
Span = Tuple[str, int, int, int, int]
SPANS_KEPT = 200_000


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: List[Span] = []  # not yet folded; parents index this list
        self.kept: List[Span] = []  # written out by write(); parents index this list
        self.own: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []  # owner, attr, original

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
                if hook is not None:
                    hook(counts, args, result, error)

        traced.perfbench_span = name
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        try:
            for target in TARGETS:
                _, _, attr, name, hook = target
                owner = target_owner(target)
                original = vars(owner)[attr]  # KeyError: not defined on that owner
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(self.wrap(name, original.__func__, hook))
                else:
                    patched = self.wrap(name, original, hook)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, patched)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.flush()

    # -- analysis ----------------------------------------------------------

    def flush(self) -> None:
        """Fold finished spans into per-name self and inclusive totals."""
        if self._stack:
            raise RuntimeError("cannot fold spans while one is open")
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            self.total[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self.own[name] += end - start - child
        if len(self.kept) < SPANS_KEPT:
            base = len(self.kept)
            self.kept.extend((name, start, end, parent + base if parent >= 0 else -1, run)
                             for name, start, end, parent, run in self.spans)
        self.spans.clear()  # the wrappers hold this list object

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Self and inclusive nanoseconds per span name."""
        self.flush()
        return dict(self.own), dict(self.total)

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trun\n")
            for name, start, end, parent, run in self.kept:
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{run}\n")


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]
