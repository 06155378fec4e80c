"""Workload generators and per-operation oracles for the ticpay benchmark.

A workload turns a workload seed into scenario documents and a schedule
of slots. Each slot names one document and the scenario seed written into
it. The documents are YAML text loaded with ``yaml.safe_load``, as the CLI
loads a scenario file, and the program sees them only through
``parse_spec``.

Every slot parses its document again. ``AdversaryScript`` keeps per-run
state (``_occurrences``, ``captured``) on the spec, so a reused spec runs
with its ``nth`` rules disarmed and a tamper attack commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import yaml

WORKLOADS = ("sweep", "crowd-oneway", "crowd-twoway")

SWEEP_LAPS = 16  # lap 0 at the bundled seeds, the rest at drawn seeds
ONEWAY_CLIENTS = 400
TWOWAY_CLIENTS = 150
STEP_BUDGET_PER_CLIENT = 100  # a two-way checkout takes about 45 events

# Reply policy per crowd client, with its weight in percent. A
# "wrong-pin" client answers yes but its device holds a wrong PIN.
REPLY_MIX = (("yes", 70), ("no", 15), ("ignore", 10), ("wrong-pin", 5))
ORACLE = {
    "yes": "committed",
    "no": "aborted",
    "ignore": "aborted",
    "wrong-pin": "key-unwrap-failed",
}

# Checks that fail on every multi-client world at this commit: the
# conformance template matches all deliveries of the run, not those of one
# client. They are reported as known defects and never counted.
KNOWN_DEFECTS = ("conformance",)


@dataclass(frozen=True)
class Slot:
    doc: int  # index into Workload.docs
    seed: int  # scenario seed written into the document


@dataclass
class Workload:
    name: str
    docs: List[dict]
    schedule: List[Slot]
    # Per document, the oracle's outcome list for each client, in document
    # order; None where the run's own verdict (RunReport.passed) decides.
    expected: List[Optional[List[List[str]]]]

    def document(self, slot: Slot) -> dict:
        return dict(self.docs[slot.doc], seed=slot.seed)


def build(name: str, seed: int, scenario_dir: Path) -> Workload:
    """Generate and load a workload's documents; a pure function of its seed."""
    if name == "sweep":
        return _sweep(seed, scenario_dir)
    if name == "crowd-oneway":
        return crowd(name, "one-way", ONEWAY_CLIENTS, seed)
    if name == "crowd-twoway":
        return crowd(name, "two-way", TWOWAY_CLIENTS, seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")


def _sweep(seed: int, scenario_dir: Path) -> Workload:
    docs = [yaml.safe_load(p.read_text())
            for p in sorted(scenario_dir.glob("*.yaml"))]
    rng = random.Random(f"sweep|{seed}")
    schedule = [Slot(i, doc["seed"]) for i, doc in enumerate(docs)]
    for _ in range(SWEEP_LAPS - 1):
        schedule += [Slot(i, rng.randrange(2**31)) for i in range(len(docs))]
    return Workload("sweep", docs, schedule, [None] * len(docs))


def crowd(name: str, flow: str, n_clients: int, seed: int) -> Workload:
    """One world of n_clients, each paying once with a reply policy drawn
    from REPLY_MIX; the document goes through YAML text and back."""
    rng = random.Random(f"{name}|{seed}")
    policies = [p for p, _ in REPLY_MIX]
    weights = [w for _, w in REPLY_MIX]
    account_numbers = rng.sample(range(100_000, 200_000), n_clients)
    clients, expected = [], []
    for i, number in enumerate(account_numbers):
        policy = rng.choices(policies, weights)[0]
        pin = rng.getrandbits(64)
        client = {
            "username": f"u{i:06d}",
            "password": f"pw-{rng.getrandbits(48):012x}",
            "pin": f"{pin:016x}",
            "cell": f"+1555{rng.randrange(10**7):07d}",
            "account_id": f"ACC-{number:06d}",
            "balance": rng.randrange(50_000, 150_000),
            "vault_password": f"vault-{rng.getrandbits(48):012x}",
            "tic_batch": rng.randrange(1, 4),
            "reply": "yes" if policy == "wrong-pin" else policy,
        }
        if policy == "wrong-pin":
            client["device_pin"] = f"{pin ^ (1 << rng.randrange(64)):016x}"
        if flow == "one-way":
            client["payments"] = [{
                "mode": "electronic-transfer",
                "payee": f"ACC-{rng.randrange(900_000, 1_000_000):06d}",
                "amount": rng.randrange(100, 5_000),
            }]
        else:
            client["mode"] = "credit-card"
        clients.append(client)
        expected.append([ORACLE[policy]])
    doc = {
        "schema": 1,
        "name": name,
        "description": f"{n_clients}-client {flow} crowd from workload seed {seed}",
        "flow": flow,
        "seed": rng.randrange(2**31),
        "step_budget": STEP_BUDGET_PER_CLIENT * n_clients,
        "clients": clients,
        "checks": ["conformance", "leakage", "conservation"],
    }
    if flow == "two-way":
        doc["merchant"] = {
            "id": "shopzone",
            "display_name": "Shop Zone",
            "account_id": f"MAC-{rng.randrange(100_000, 1_000_000):06d}",
            "balance": 50_000,
            "price": rng.randrange(500, 10_000),
        }
        doc["checks"].append("blindness")
    loaded = yaml.safe_load(yaml.safe_dump(doc, sort_keys=False))
    return Workload(name, [loaded], [Slot(0, loaded["seed"])], [expected])


@dataclass
class Verdict:
    attempted: int
    failed: int
    outcomes: int  # scripted payments that reached a final outcome
    known_defects: List[str]  # "name: detail" of each known-defect failure


def judge(expected: Optional[List[List[str]]], report) -> Verdict:
    """Apply the per-operation oracle to one run's report.

    Without an oracle list the run is one operation that fails when the
    report fails. With one, each scripted payment is an operation. It fails
    when its client's outcome differs from the oracle, or when any world
    check other than a known defect fails.
    """
    clients = report.world.clients
    outcomes = sum(len(c.outcomes) for c in clients)
    if expected is None:
        return Verdict(1, 0 if report.passed else 1, outcomes, [])
    known, world_ok = [], True
    for result in report.results:
        if result.name in KNOWN_DEFECTS:
            if not result.passed:
                known.append(f"{result.name}: {result.detail}")
        elif not result.passed:
            world_ok = False
    attempted = sum(len(e) for e in expected)
    if not world_ok or len(clients) != len(expected):
        return Verdict(attempted, attempted, outcomes, known)
    failed = 0
    for client, want in zip(clients, expected):
        got = client.outcomes
        if len(got) != len(want):
            failed += len(want)  # outcomes no longer line up with payments
        else:
            failed += sum(1 for g, w in zip(got, want) if g != w)
    return Verdict(attempted, failed, outcomes, known)
