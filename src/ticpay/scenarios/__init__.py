"""Scenario files: schema, validation, world building, and run reports.

A scenario is a YAML document (schema version 1) describing the cast —
bank, customers with their credentials and vault sizes, optionally a
merchant and its bank — plus an adversary script, the checks to run,
and what the run is expected to produce. Validation is strict: a wrong,
missing or unknown field is a hard error naming its path, never a silent
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

from ..auth_server import DEFAULT_SMS_DEADLINE, BankActor, BankServer
from ..checks import (
    MIN_SECRET_LEN,
    collect_secrets,
    conformance_check,
    leakage_scan,
    merchant_blindness_check,
    total_funds,
)
from ..client_agent import DEFAULT_REPLY_POLICY, ClientAgent
from ..crypto import _CIPHERS, DEFAULT_CIPHER, Pin
from ..errors import ActorFault, ScenarioError, StepBudgetExceeded
from ..netsim import (
    DEFAULT_STEP_BUDGET,
    AdversaryScript,
    Drop,
    Replay,
    Rule,
    Simulation,
    Tamper,
)
from ..payment import PaymentOrder, PayMode
from ..protocol import MSG_TYPES, TEMPLATES
from ..two_way import (
    DEFAULT_CERT_VALID_UNTIL,
    DEFAULT_MERCHANT_BALANCE,
    MerchantAgent,
    MerchantBank,
    TwoWayGateway,
)
from ..vault import VaultKeys
from ..wire import Channel

SCHEMA_VERSION = 1
KNOWN_CHECKS = ("conformance", "leakage", "conservation", "blindness")
CHANNELS = {"web": Channel.WEB, "sms": Channel.SMS, "interbank": Channel.INTERBANK}


# -- validation helpers --------------------------------------------------------

_REQUIRED = object()


class _Reader:
    """One scenario mapping and its path, recording every key it reads.

    Readers opened from one another share a list that holds, per reader in
    the order they were opened, its mapping, path and set of keys read, so
    that once a whole document is parsed `reject_unread` can fail on the
    first key that no reader read. The parser is thus the only list of
    known fields. The list holds no reader, so no reader is in a cycle.
    """

    def __init__(self, mapping, path: str, opened: List[Tuple[dict, str, set]]):
        if not isinstance(mapping, dict):
            raise ScenarioError(f"{path}: expected a mapping")
        self.mapping = mapping
        self.path = path
        self.read: set = set()
        self.opened = opened
        opened.append((mapping, path, self.read))

    def nested(self, mapping, name: str) -> "_Reader":
        return _Reader(mapping, f"{self.path}.{name}", self.opened)

    def get(self, key: str, kind, default=_REQUIRED):
        """The value at `key`, of type `kind` (None: any); `default` when
        the key is absent, and an error if no default is given."""
        self.read.add(key)
        if key not in self.mapping:
            if default is _REQUIRED:
                raise ScenarioError(f"{self.path}.{key}: missing")
            return default
        value = self.mapping[key]
        if kind is int and isinstance(value, bool):
            raise ScenarioError(f"{self.path}.{key}: expected integer, got boolean")
        if kind is not None and not isinstance(value, kind):
            raise ScenarioError(
                f"{self.path}.{key}: expected {getattr(kind, '__name__', kind)}, "
                f"got {type(value).__name__}"
            )
        return value

    def at_least(self, key: str, low: int, default=_REQUIRED) -> Optional[int]:
        value = self.get(key, int, default)
        if value is not None and value < low:
            raise ScenarioError(f"{self.path}.{key}: must be >= {low}, got {value}")
        return value

    def account_id(self, key: str) -> str:
        # Account ids are leakage-scan secrets; a short one matches random
        # ciphertext bytes and raises false alarms.
        value = self.get(key, str)
        if len(value.encode("utf-8")) < MIN_SECRET_LEN:
            raise ScenarioError(
                f"{self.path}.{key}: must be at least {MIN_SECRET_LEN} bytes")
        return value

    def strings(self, key: str) -> Tuple[str, ...]:
        items = self.get(key, list, ())
        for i, item in enumerate(items):
            if not isinstance(item, str):
                raise ScenarioError(
                    f"{self.path}.{key}[{i}]: expected str, got {type(item).__name__}")
        return tuple(items)

    def pay_mode(self) -> PayMode:
        try:
            return PayMode.from_name(self.get("mode", str, "electronic-transfer"))
        except ValueError as exc:
            raise ScenarioError(f"{self.path}.mode: {exc}") from None

    def reject_unread(self) -> None:
        for mapping, path, read in self.opened:
            for key in mapping:
                if key not in read:
                    raise ScenarioError(f"{path}.{key}: unknown field")


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


def _msg_type(value: str, path: str) -> str:
    # A name the protocol never sends would make a rule that never fires
    # or an expectation that always holds.
    if value not in MSG_TYPES:
        raise ScenarioError(f"{path}: unknown message type {value!r}")
    return value


def parse_checks(names, path: str) -> Tuple[str, ...]:
    """Validate the names of the checks to run; errors name `path`."""
    if not names:
        # An empty list would run nothing and report PASS.
        raise ScenarioError(f"{path}: name at least one check")
    for name in names:
        if name not in KNOWN_CHECKS:
            raise ScenarioError(f"{path}: unknown check {name!r}")
    return tuple(names)


# -- spec dataclasses ------------------------------------------------------------
# Only parse_spec builds the specs, so their fields carry no defaults:
# each default is stated once, where the parser reads the field.


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
    reply: str
    mode: str  # the checkout's payment mode; a one-way agent never reads it
    payments: Tuple[PaymentOrder, ...]  # one-way only


@dataclass(frozen=True)
class MerchantSpec:
    merchant_id: str
    display_name: str
    account_id: str
    balance: int
    price: int
    cert_valid_until: int


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
    merchant: Optional[MerchantSpec]
    cipher: str
    sms_deadline: int
    step_budget: int
    adversary: AdversaryScript
    expect: ExpectSpec
    checks: Tuple[str, ...]


def _parse_payment(r: _Reader) -> PaymentOrder:
    mode = r.pay_mode()
    amount = r.get("amount", int)
    if amount <= 0:
        raise ScenarioError(f"{r.path}.amount: must be positive")
    return PaymentOrder(mode=mode, payee_account=r.account_id("payee"), amount=amount)


def _parse_client(r: _Reader, flow: str) -> ClientSpec:
    pin = _pin(r.get("pin", None), f"{r.path}.pin")
    device_pin_raw = r.get("device_pin", None, None)
    device_pin = _pin(device_pin_raw, f"{r.path}.device_pin") if device_pin_raw else pin
    # Each flow reads only its own key: a one-way client pays its scripted
    # payments, a two-way client pays the merchant's invoice in `mode`.
    payments: Tuple[PaymentOrder, ...] = ()
    if flow == "one-way":
        payments = tuple(_parse_payment(r.nested(p, f"payments[{i}]"))
                         for i, p in enumerate(r.get("payments", list)))
        if not payments:
            raise ScenarioError(f"{r.path}.payments: one-way scenario needs at least one")
    return ClientSpec(
        username=r.get("username", str),
        password=r.get("password", str),
        pin=pin,
        device_pin=device_pin,
        cell=r.get("cell", str),
        account_id=r.account_id("account_id"),
        balance=r.get("balance", int),
        vault_password=r.get("vault_password", str),
        tic_batch=r.get("tic_batch", int),
        reply=_reply_policy(r.get("reply", None, DEFAULT_REPLY_POLICY), f"{r.path}.reply"),
        mode=(r.pay_mode() if flow == "two-way" else PayMode.ELECTRONIC_TRANSFER).label,
        payments=payments,
    )


def _parse_merchant(r: _Reader) -> MerchantSpec:
    return MerchantSpec(
        merchant_id=r.get("id", str),
        display_name=r.get("display_name", str),
        account_id=r.account_id("account_id"),
        balance=r.get("balance", int, DEFAULT_MERCHANT_BALANCE),
        price=r.get("price", int),
        cert_valid_until=r.get("cert_valid_until", int, DEFAULT_CERT_VALID_UNTIL),
    )


def _parse_rule(r: _Reader) -> Rule:
    action_name = r.get("action", str)
    channel_name = r.get("channel", str, None)
    if channel_name is not None and channel_name not in CHANNELS:
        raise ScenarioError(f"{r.path}.channel: expected one of {sorted(CHANNELS)}")
    nth = r.at_least("nth", 1, None)
    msg_type = r.get("msg_type", str, None)
    if action_name == "drop":
        action = Drop()
    elif action_name == "replay":
        action = Replay(delay=r.at_least("delay", 0, 1), copies=r.at_least("copies", 1, 1))
    elif action_name == "tamper":
        edits = []
        for i, e in enumerate(r.get("edits", list)):
            edit = r.nested(e, f"edits[{i}]")
            mask = edit.get("mask", int, 1)
            if not 1 <= mask <= 255:
                raise ScenarioError(f"{edit.path}.mask: must be in 1..255, got {mask}")
            edits.append((edit.at_least("offset", 0), mask))
        action = Tamper(edits=tuple(edits))
    else:
        raise ScenarioError(f"{r.path}.action: expected drop, replay, or tamper")
    return Rule(
        action=action,
        channel=CHANNELS[channel_name] if channel_name else None,
        msg_type=None if msg_type is None else _msg_type(msg_type, f"{r.path}.msg_type"),
        nth=nth,
    )


def parse_spec(raw: dict, source: str = "scenario") -> ScenarioSpec:
    """Validate a loaded YAML document into a ScenarioSpec; errors name fields.

    A key the parser does not read fails as an unknown field. That check
    runs last, so any other error in the document is reported first.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: document must be a mapping")
    doc = _Reader(raw, source, [])
    schema = doc.get("schema", int)
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"{source}.schema: unsupported version {schema}")
    flow = doc.get("flow", str)
    if flow not in ("one-way", "two-way"):
        raise ScenarioError(f"{source}.flow: expected one-way or two-way")

    clients_raw = doc.get("clients", list)
    if not clients_raw:
        raise ScenarioError(f"{source}.clients: at least one client required")
    clients = tuple(
        _parse_client(doc.nested(c, f"clients[{i}]"), flow)
        for i, c in enumerate(clients_raw)
    )

    merchant = None
    if flow == "two-way":
        merchant = _parse_merchant(doc.nested(doc.get("merchant", dict), "merchant"))
    elif "merchant" in raw:
        raise ScenarioError(f"{source}.merchant: only valid in a two-way flow")

    adversary = AdversaryScript()
    adv_raw = doc.get("adversary", dict, None)
    if adv_raw is not None:
        adv = doc.nested(adv_raw, "adversary")
        adversary = AdversaryScript(rules=tuple(
            _parse_rule(adv.nested(r, f"rules[{i}]"))
            for i, r in enumerate(adv.get("rules", list, []))
        ))

    expect = ExpectSpec()
    exp_raw = doc.get("expect", dict, None)
    if exp_raw is not None:
        exp = doc.nested(exp_raw, "expect")
        expect = ExpectSpec(
            outcomes=exp.strings("outcomes"),
            notes=exp.strings("notes"),
            absent_notes=exp.strings("absent_notes"),
            absent_msg_types=tuple(
                _msg_type(t, f"{exp.path}.absent_msg_types[{i}]")
                for i, t in enumerate(exp.strings("absent_msg_types"))),
        )
        if expect.outcomes and len(clients) > 1:
            # The outcomes list is one client's; the others would go unchecked.
            raise ScenarioError(f"{source}.expect.outcomes: only valid with one client, "
                                f"got {len(clients)}")

    checks = parse_checks(doc.get("checks", list, KNOWN_CHECKS), f"{source}.checks")
    cipher = doc.get("cipher", str, DEFAULT_CIPHER)
    if cipher not in _CIPHERS:
        raise ScenarioError(f"{source}.cipher: expected one of {sorted(_CIPHERS)}, "
                            f"got {cipher!r}")

    spec = ScenarioSpec(
        name=doc.get("name", str),
        description=doc.get("description", str, ""),
        flow=flow,
        seed=doc.get("seed", int, 0),
        clients=clients,
        merchant=merchant,
        cipher=cipher,
        sms_deadline=doc.at_least("sms_deadline", 1, DEFAULT_SMS_DEADLINE),
        step_budget=doc.at_least("step_budget", 1, DEFAULT_STEP_BUDGET),
        adversary=adversary,
        expect=expect,
        checks=checks,
    )
    doc.reject_unread()
    return spec


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
        if entry.name.endswith(".yaml"):
            spec = load_spec(Path(str(entry)))
            out.append({"name": spec.name, "description": spec.description,
                        "file": entry.name})
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
        # A key derived under a salt the bank gave no customer (a tampered
        # vault header) is named by that salt.
        owners = {self.server.vault_salt(username): username for username in self.server.accounts}
        for (_, salt), key in self.server.vault_keys.items():
            secrets[f"vault-key:{owners.get(salt, salt.hex())}"] = key
        return secrets


def build_world(spec: ScenarioSpec) -> World:
    # One memo for the world: the bank derives each customer's vault key to
    # seal the batch, and the device unlocks with that same result.
    vault_keys = VaultKeys()
    server = BankServer(
        seed=spec.seed,
        cipher=spec.cipher,
        sms_deadline=spec.sms_deadline,
        vault_keys=vault_keys,
    )
    plan: Dict[str, int] = {}
    for c in spec.clients:
        server.enroll(
            username=c.username, password=c.password, pin=c.pin,
            cell_number=c.cell, account_id=c.account_id, balance=c.balance,
            vault_password=c.vault_password,
        )
        plan[c.username] = c.tic_batch

    merchant_bank = merchant_agent = None
    if spec.flow == "two-way":
        m = spec.merchant
        merchant_bank = MerchantBank(seed=spec.seed, cipher=spec.cipher)
        record = merchant_bank.register_merchant(
            m.merchant_id, m.account_id, m.display_name, balance=m.balance,
            valid_until=m.cert_valid_until,
        )
        merchant_agent = MerchantAgent(record, bank=merchant_bank.name, price=m.price,
                                       cipher=spec.cipher)
        bank_actor = TwoWayGateway(server, plan, known_banks={merchant_bank.name})
    else:
        bank_actor = BankActor(server, provision_plan=plan)

    sim = Simulation(adversary=spec.adversary, step_budget=spec.step_budget)
    sim.add_actor(bank_actor)
    if merchant_bank is not None:
        sim.add_actor(merchant_bank)
        sim.add_actor(merchant_agent)

    clients = []
    for c in spec.clients:
        client = ClientAgent(
            name=c.username,
            password=c.password,
            pin=c.device_pin,
            vault_password=c.vault_password,
            bank=server.name,
            payments=list(c.payments),
            reply_policy=c.reply,
            merchant=spec.merchant.merchant_id if spec.flow == "two-way" else None,
            mode=c.mode,
            cipher=spec.cipher,
            vault_keys=vault_keys,
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
    if expect.notes or expect.absent_notes:
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
            outcome = conformance_check(world.sim.trace, TEMPLATES[spec.flow],
                                        [client.name for client in world.clients])
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
    except ActorFault as exc:
        # The world stops where the fault left it; the checks still read it.
        results.append(CheckResult("actor-fault", False, str(exc)))
    results.extend(_eval_expectations(world))
    results.extend(_eval_checks(world, violations))
    return RunReport(scenario=spec.name, seed=spec.seed, results=results, world=world)
