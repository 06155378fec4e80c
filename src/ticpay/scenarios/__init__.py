"""Scenario files: schema, validation, world building, and run reports.

A scenario is a YAML document (schema version 1) describing the cast —
bank, customers with their credentials and vault sizes, optionally a
merchant and its bank — plus an adversary script, the checks to run,
and what the run is expected to produce. Validation is strict: a wrong
or missing field is a hard error naming its path, never a silent
default.

Attack scenarios pass when the protocol holds: the expectation block
encodes the rejection we demand, and the exit verdict is green only if
every expectation and every enabled check comes out clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import yaml

from ..auth_server import BankActor, BankServer
from ..checks import (
    MIN_SECRET_LEN,
    TEMPLATES,
    collect_secrets,
    conformance_check,
    leakage_scan,
    merchant_blindness_check,
    total_funds,
)
from ..client_agent import ClientAgent
from ..crypto import _CIPHERS, Pin
from ..errors import ScenarioError, StepBudgetExceeded
from ..netsim import (
    AdversaryScript,
    Drop,
    Observe,
    Replay,
    Rule,
    Simulation,
    Tamper,
)
from ..payment import PaymentOrder, PayMode
from ..two_way import MerchantAgent, MerchantBank, TwoWayGateway
from ..wire import Channel

SCHEMA_VERSION = 1
KNOWN_CHECKS = ("conformance", "leakage", "conservation", "blindness")
CHANNELS = {"web": Channel.WEB, "sms": Channel.SMS, "interbank": Channel.INTERBANK}


# -- validation helpers --------------------------------------------------------


def _get(mapping: dict, key: str, path: str, kind, required: bool = True, default=None):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    if key not in mapping:
        if required:
            raise ScenarioError(f"{path}.{key}: missing")
        return default
    value = mapping[key]
    if kind is int and isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected integer, got boolean")
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _at_least(value: Optional[int], low: int, path: str) -> Optional[int]:
    if value is not None and value < low:
        raise ScenarioError(f"{path}: must be >= {low}, got {value}")
    return value


def _account_id(mapping: dict, key: str, path: str) -> str:
    # Account ids are leakage-scan secrets; a short one matches random
    # ciphertext bytes and raises false alarms.
    value = _get(mapping, key, path, str)
    if len(value.encode("utf-8")) < MIN_SECRET_LEN:
        raise ScenarioError(f"{path}.{key}: must be at least {MIN_SECRET_LEN} bytes")
    return value


def _strings(mapping: dict, key: str, path: str) -> Tuple[str, ...]:
    items = _get(mapping, key, path, list, required=False, default=[])
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ScenarioError(
                f"{path}.{key}[{i}]: expected str, got {type(item).__name__}")
    return tuple(items)


def _reply_policy(value, path: str) -> str:
    # YAML 1.1 reads a bare yes/no as a boolean; accept either spelling.
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value in ("yes", "no", "ignore"):
        return value
    raise ScenarioError(f"{path}: expected yes, no, or ignore")


def _pin(value, path: str) -> Pin:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected 16 hex characters")
    try:
        pin = Pin.from_hex(value)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return pin


# -- spec dataclasses ------------------------------------------------------------


@dataclass(frozen=True)
class ClientSpec:
    username: str
    password: str
    pin: Pin
    device_pin: Pin  # normally equal; a scenario may hand the device a wrong one
    cell: str
    account_id: str
    balance: int
    vault_password: str
    tic_batch: int
    reply: str = "yes"
    reply_delay: int = 0
    mode: str = "electronic-transfer"
    login_password: Optional[str] = None  # device-side override for bad-credential runs
    payments: Tuple[PaymentOrder, ...] = ()


@dataclass(frozen=True)
class MerchantSpec:
    merchant_id: str
    display_name: str
    account_id: str
    balance: int
    price: int
    bank: str = "mbank"
    cert_valid_from: int = 0
    cert_valid_until: int = 10**9


@dataclass(frozen=True)
class ExpectSpec:
    outcomes: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    absent_notes: Tuple[str, ...] = ()
    absent_msg_types: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario; immutable, so one spec can drive any number of
    runs and the CLI derives overrides with `dataclasses.replace`."""

    name: str
    description: str
    flow: str  # one-way | two-way
    seed: int
    clients: Tuple[ClientSpec, ...]
    merchant: Optional[MerchantSpec] = None
    bank_name: str = "cbank"
    cipher: str = "aes-gcm"
    sms_deadline: int = 300
    step_budget: int = 10_000
    adversary: AdversaryScript = AdversaryScript()
    expect: ExpectSpec = ExpectSpec()
    checks: Tuple[str, ...] = KNOWN_CHECKS


def _parse_payment(raw, path: str) -> PaymentOrder:
    mode_name = _get(raw, "mode", path, str, required=False,
                     default="electronic-transfer")
    try:
        mode = PayMode.from_name(mode_name)
    except ValueError as exc:
        raise ScenarioError(f"{path}.mode: {exc}") from None
    amount = _get(raw, "amount", path, int)
    if amount <= 0:
        raise ScenarioError(f"{path}.amount: must be positive")
    order = PaymentOrder(
        mode=mode,
        payee_account=_account_id(raw, "payee", path),
        amount=amount,
        invoice_number=_get(raw, "invoice", path, str, required=False),
    )
    return order


def _parse_client(raw, path: str, flow: str) -> ClientSpec:
    pin = _pin(_get(raw, "pin", path, None), f"{path}.pin")
    device_pin_raw = _get(raw, "device_pin", path, None, required=False)
    device_pin = _pin(device_pin_raw, f"{path}.device_pin") if device_pin_raw else pin
    payments_raw = _get(raw, "payments", path, list,
                        required=(flow == "one-way"), default=[])
    payments = tuple(
        _parse_payment(p, f"{path}.payments[{i}]") for i, p in enumerate(payments_raw)
    )
    if flow == "one-way" and not payments:
        raise ScenarioError(f"{path}.payments: one-way scenario needs at least one")
    return ClientSpec(
        username=_get(raw, "username", path, str),
        password=_get(raw, "password", path, str),
        pin=pin,
        device_pin=device_pin,
        cell=_get(raw, "cell", path, str),
        account_id=_account_id(raw, "account_id", path),
        balance=_get(raw, "balance", path, int),
        vault_password=_get(raw, "vault_password", path, str),
        tic_batch=_get(raw, "tic_batch", path, int),
        reply=_reply_policy(_get(raw, "reply", path, None, required=False,
                                 default="yes"), f"{path}.reply"),
        reply_delay=_at_least(_get(raw, "reply_delay", path, int, required=False,
                                   default=0), 0, f"{path}.reply_delay"),
        mode=_get(raw, "mode", path, str, required=False,
                  default="electronic-transfer"),
        login_password=_get(raw, "login_password", path, str, required=False),
        payments=payments,
    )


def _parse_merchant(raw, path: str) -> MerchantSpec:
    return MerchantSpec(
        merchant_id=_get(raw, "id", path, str),
        display_name=_get(raw, "display_name", path, str),
        account_id=_account_id(raw, "account_id", path),
        balance=_get(raw, "balance", path, int, required=False, default=0),
        price=_get(raw, "price", path, int),
        bank=_get(raw, "bank", path, str, required=False, default="mbank"),
        cert_valid_from=_get(raw, "cert_valid_from", path, int,
                             required=False, default=0),
        cert_valid_until=_get(raw, "cert_valid_until", path, int,
                              required=False, default=10**9),
    )


def _parse_rule(raw, path: str) -> Rule:
    action_name = _get(raw, "action", path, str)
    channel_name = _get(raw, "channel", path, str, required=False)
    if channel_name is not None and channel_name not in CHANNELS:
        raise ScenarioError(f"{path}.channel: expected one of {sorted(CHANNELS)}")
    nth = _at_least(_get(raw, "nth", path, int, required=False), 1, f"{path}.nth")
    msg_type = _get(raw, "msg_type", path, str, required=False)
    if action_name == "observe":
        action = Observe()
    elif action_name == "drop":
        action = Drop()
    elif action_name == "replay":
        action = Replay(
            delay=_at_least(_get(raw, "delay", path, int, required=False, default=1),
                            0, f"{path}.delay"),
            copies=_at_least(_get(raw, "copies", path, int, required=False, default=1),
                             1, f"{path}.copies"),
        )
    elif action_name == "tamper":
        edits_raw = _get(raw, "edits", path, list)
        edits = []
        for i, e in enumerate(edits_raw):
            edit_path = f"{path}.edits[{i}]"
            mask = _get(e, "mask", edit_path, int, required=False, default=1)
            if not 1 <= mask <= 255:
                raise ScenarioError(f"{edit_path}.mask: must be in 1..255, got {mask}")
            edits.append((
                _at_least(_get(e, "offset", edit_path, int), 0, f"{edit_path}.offset"),
                mask,
            ))
        action = Tamper(edits=tuple(edits))
    else:
        raise ScenarioError(
            f"{path}.action: expected observe, drop, replay, or tamper")
    return Rule(
        action=action,
        channel=CHANNELS[channel_name] if channel_name else None,
        msg_type=msg_type,
        nth=nth,
    )


def parse_spec(raw: dict, source: str = "scenario") -> ScenarioSpec:
    """Validate a loaded YAML document into a ScenarioSpec; errors name fields."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: document must be a mapping")
    schema = _get(raw, "schema", source, int)
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"{source}.schema: unsupported version {schema}")
    flow = _get(raw, "flow", source, str)
    if flow not in ("one-way", "two-way"):
        raise ScenarioError(f"{source}.flow: expected one-way or two-way")

    clients_raw = _get(raw, "clients", source, list)
    if not clients_raw:
        raise ScenarioError(f"{source}.clients: at least one client required")
    clients = tuple(
        _parse_client(c, f"{source}.clients[{i}]", flow)
        for i, c in enumerate(clients_raw)
    )

    merchant = None
    if flow == "two-way":
        merchant = _parse_merchant(
            _get(raw, "merchant", source, dict), f"{source}.merchant")
    elif "merchant" in raw:
        raise ScenarioError(f"{source}.merchant: only valid in a two-way flow")

    adversary = AdversaryScript()
    if "adversary" in raw:
        adv_raw = _get(raw, "adversary", source, dict)
        rules_raw = _get(adv_raw, "rules", f"{source}.adversary", list,
                         required=False, default=[])
        adversary = AdversaryScript(rules=tuple(
            _parse_rule(r, f"{source}.adversary.rules[{i}]")
            for i, r in enumerate(rules_raw)
        ))

    expect = ExpectSpec()
    if "expect" in raw:
        exp_raw = _get(raw, "expect", source, dict)
        expect = ExpectSpec(
            outcomes=_strings(exp_raw, "outcomes", f"{source}.expect"),
            notes=_strings(exp_raw, "notes", f"{source}.expect"),
            absent_notes=_strings(exp_raw, "absent_notes", f"{source}.expect"),
            absent_msg_types=_strings(exp_raw, "absent_msg_types", f"{source}.expect"),
        )
        if expect.outcomes and len(clients) > 1:
            # The outcomes list is one client's; the others would go unchecked.
            raise ScenarioError(f"{source}.expect.outcomes: only valid with one client, "
                                f"got {len(clients)}")

    checks = _get(raw, "checks", source, list, required=False,
                  default=list(KNOWN_CHECKS))
    if not checks:
        # An empty list would run nothing and report PASS.
        raise ScenarioError(f"{source}.checks: name at least one check")
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ScenarioError(f"{source}.checks: unknown check {c!r}")
    cipher = _get(raw, "cipher", source, str, required=False, default="aes-gcm")
    if cipher not in _CIPHERS:
        raise ScenarioError(f"{source}.cipher: expected one of {sorted(_CIPHERS)}, "
                            f"got {cipher!r}")

    bank_raw = _get(raw, "bank", source, dict, required=False, default={})
    return ScenarioSpec(
        name=_get(raw, "name", source, str),
        description=_get(raw, "description", source, str, required=False,
                         default=""),
        flow=flow,
        seed=_get(raw, "seed", source, int, required=False, default=0),
        clients=clients,
        merchant=merchant,
        bank_name=_get(bank_raw, "name", f"{source}.bank", str,
                       required=False, default="cbank"),
        cipher=cipher,
        sms_deadline=_at_least(_get(raw, "sms_deadline", source, int, required=False,
                                    default=300), 1, f"{source}.sms_deadline"),
        step_budget=_at_least(_get(raw, "step_budget", source, int, required=False,
                                   default=10_000), 1, f"{source}.step_budget"),
        adversary=adversary,
        expect=expect,
        checks=tuple(checks),
    )


def load_spec(path: Path) -> ScenarioSpec:
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path.name}: not valid YAML: {exc}") from None
    return parse_spec(raw, source=path.stem)


# -- bundled scenarios --------------------------------------------------------------


def bundled_dir():
    return resources.files(__package__)


def list_bundled() -> List[dict]:
    """Names and descriptions of the scenarios shipped with the package."""
    out = []
    for entry in sorted(bundled_dir().iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".yaml"):
            continue
        raw = yaml.safe_load(entry.read_text())
        out.append({
            "name": raw.get("name", entry.name),
            "description": raw.get("description", ""),
            "file": entry.name,
        })
    return out


def find_bundled(name: str) -> Optional[Path]:
    candidate = bundled_dir() / f"{name}.yaml"
    return Path(str(candidate)) if candidate.is_file() else None


# -- world building ------------------------------------------------------------------


@dataclass
class World:
    spec: ScenarioSpec
    sim: Simulation
    server: BankServer
    bank_actor: BankActor
    clients: List[ClientAgent]
    merchant_bank: Optional[MerchantBank] = None
    merchant_agent: Optional[MerchantAgent] = None

    def banks(self) -> List:
        return [self.server] + ([self.merchant_bank] if self.merchant_bank else [])

    def secrets(self) -> Dict[str, bytes]:
        extra = [p.payee_account for c in self.spec.clients for p in c.payments]
        if self.merchant_bank is not None:
            extra.extend(self.merchant_bank.balances)
        secrets = collect_secrets(self.server, self.clients, extra_accounts=extra)
        if self.merchant_bank is not None:
            for merchant_id, record in self.merchant_bank.merchants.items():
                secrets[f"merchant-secret:{merchant_id}"] = record.secret
                secrets[f"minfo-key:{merchant_id}"] = record.info_key()
            secrets[f"cert-key:{self.merchant_bank.name}"] = self.merchant_bank._cert_key
        return secrets


def build_world(spec: ScenarioSpec) -> World:
    server = BankServer(
        name=spec.bank_name,
        seed=spec.seed,
        cipher=spec.cipher,
        sms_deadline=spec.sms_deadline,
    )
    plan: Dict[str, int] = {}
    for c in spec.clients:
        server.enroll(
            username=c.username, password=c.password, pin=c.pin,
            cell_number=c.cell, account_id=c.account_id, balance=c.balance,
            vault_password=c.vault_password,
        )
        plan[c.username] = c.tic_batch

    bank_actor = BankActor(server, provision_plan=plan)
    sim = Simulation(adversary=spec.adversary, step_budget=spec.step_budget)
    sim.add_actor(bank_actor)

    merchant_bank = None
    merchant_agent = None
    if spec.flow == "two-way":
        m = spec.merchant
        merchant_bank = MerchantBank(name=m.bank, seed=spec.seed, cipher=spec.cipher)
        record = merchant_bank.register_merchant(
            m.merchant_id, m.account_id, m.display_name, balance=m.balance,
            valid_from=m.cert_valid_from, valid_until=m.cert_valid_until,
        )
        merchant_agent = MerchantAgent(record, bank=m.bank, price=m.price,
                                       cipher=spec.cipher)
        TwoWayGateway(bank_actor, known_banks={m.bank})
        sim.add_actor(merchant_bank)
        sim.add_actor(merchant_agent)

    clients = []
    for c in spec.clients:
        client = ClientAgent(
            name=c.username,
            password=c.login_password if c.login_password is not None else c.password,
            pin=c.device_pin,
            vault_password=c.vault_password,
            bank=spec.bank_name,
            payments=list(c.payments),
            reply_policy=c.reply,
            reply_delay=c.reply_delay,
            merchant=spec.merchant.merchant_id if spec.flow == "two-way" else None,
            mode=c.mode,
            cipher=spec.cipher,
        )
        clients.append(client)
        sim.add_actor(client)

    return World(
        spec=spec, sim=sim, server=server, bank_actor=bank_actor,
        clients=clients, merchant_bank=merchant_bank, merchant_agent=merchant_agent,
    )


# -- running and reporting --------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    scenario: str
    seed: int
    results: List[CheckResult]
    world: World

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}", f"seed: {self.seed}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"check {r.name}: {status} ({r.detail})")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _note_text(world: World) -> str:
    return "\n".join(
        f"{e.sender}: {e.note}" for e in world.sim.trace.events
        if e.kind == "note" and e.note
    )


def _eval_expectations(world: World) -> List[CheckResult]:
    expect = world.spec.expect
    results = []
    if expect.outcomes:
        want = list(expect.outcomes)
        got = world.clients[0].outcomes
        results.append(CheckResult(
            "expect-outcomes", got == want, f"expected {want}, got {got}"))
    notes = _note_text(world)
    for needle in expect.notes:
        results.append(CheckResult(
            "expect-note", needle in notes, f"note contains {needle!r}"))
    for needle in expect.absent_notes:
        results.append(CheckResult(
            "expect-absent-note", needle not in notes,
            f"note absent {needle!r}"))
    if expect.absent_msg_types:
        delivered = {e.msg_type for e in world.sim.trace.events
                     if e.kind == "deliver"}
        for msg_type in expect.absent_msg_types:
            results.append(CheckResult(
                "expect-absent-msg", msg_type not in delivered,
                f"no {msg_type!r} delivered"))
    return results


def _eval_checks(world: World, conservation_violations: List[str]) -> List[CheckResult]:
    spec = world.spec
    results = []
    for name in spec.checks:
        if name == "conformance":
            outcome = conformance_check(world.sim.trace, TEMPLATES[spec.flow])
            results.append(CheckResult("conformance", outcome.ok, outcome.describe()))
        elif name == "leakage":
            findings = leakage_scan(world.sim.wire_log, world.secrets())
            if spec.cipher == "null":
                # Identity cipher: the scan must light up, proving it can see.
                results.append(CheckResult(
                    "leakage-control", bool(findings),
                    f"{len(findings)} findings with identity cipher"))
            else:
                detail = "0 findings" if not findings else "; ".join(
                    f"seq={f.seq} secret={f.secret_id} offset={f.offset}"
                    for f in findings[:5])
                results.append(CheckResult("leakage", not findings, detail))
        elif name == "conservation":
            ok = not conservation_violations
            detail = ("total constant" if ok
                      else "; ".join(conservation_violations[:3]))
            results.append(CheckResult("conservation", ok, detail))
        elif name == "blindness":
            merchants = [world.merchant_agent.name] if world.merchant_agent else []
            accounts = [c.account_id for c in spec.clients]
            findings = merchant_blindness_check(world.sim.wire_log, merchants, accounts)
            detail = "0 findings" if not findings else "; ".join(
                f"seq={f.seq} {f.reason}" for f in findings[:5])
            results.append(CheckResult("blindness", not findings, detail))
    return results


def watch_conservation(sim: Simulation, banks: List) -> List[str]:
    """Check the banks' total funds after every event of ``sim``.

    Installs the check as ``sim.after_event`` and returns the list it
    fills: one entry per event after which the total differs from the
    total before the run, naming the ``seq`` of that event. The books are
    summed again only after an event whose handling bumped some bank's
    ``ledger_version``; every write to balances or clearing bumps it.
    """
    violations: List[str] = []
    baseline = current = total_funds(banks)
    version = sum(bank.ledger_version for bank in banks)
    events = sim.trace.events
    first = len(events)  # where the next event's trace records start

    def watch(sim: Simulation) -> None:
        nonlocal current, version, first
        now = sum(bank.ledger_version for bank in banks)
        if now != version:
            version = now
            current = total_funds(banks)
        if current != baseline:
            # Every processed event records at least one trace line, and
            # the first is the event itself: the deliver, send or timer
            # whose handling moved the money.
            violations.append(f"seq={events[first].seq} total {current} != {baseline}")
        first = len(events)

    sim.after_event = watch
    return violations


def run_spec(spec: ScenarioSpec) -> RunReport:
    world = build_world(spec)
    violations = watch_conservation(world.sim, world.banks())
    results: List[CheckResult] = []
    try:
        world.sim.run_to_quiescence()
    except StepBudgetExceeded as exc:
        results.append(CheckResult("step-budget", False, str(exc)))
    results.extend(_eval_expectations(world))
    results.extend(_eval_checks(world, violations))
    return RunReport(scenario=spec.name, seed=spec.seed, results=results, world=world)
