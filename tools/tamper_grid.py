"""Tamper with, drop and replay the first message of each type in both happy
flows, and list the runs that fault, commit a payment they should not, or
let a replay change a client's outcomes.

    python3 tools/tamper_grid.py

For `happy-oneway` and `happy-twoway`, the first transmission of each
message type is attacked once per run:
  - tamper rows: every offset of its body, with masks 0x01, 0x80 and 0xFF;
  - drop rows: dropped;
  - replay rows: replayed once, 1 to 40 seconds later.
A run faults when it ends in `actor-fault` or `step-budget`, and commits
outside when the bank commits a payment that the untouched run does not.
A replay row must also leave each client's outcomes those of the untouched
run; a drop may stall a client, so drop rows are exempt. It takes no
options, imports ticpay from ``src/`` of the checkout it sits in, prints
one `BAD` line per run that faulted, committed outside or changed an
outcome on replay, and the counts of each kind of row in each flow, and
exits 1 if any line is `BAD`, else 0. ``tests/test_tamper.py`` runs slices
of it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ticpay.auth_server import TxnState  # noqa: E402
from ticpay.netsim import AdversaryScript, Drop, Replay, Rule, Tamper  # noqa: E402
from ticpay.scenarios import (  # noqa: E402
    RunReport,
    ScenarioSpec,
    find_bundled,
    load_spec,
    run_spec,
)
from ticpay.wire import peek_header  # noqa: E402

SCENARIOS = ("happy-oneway", "happy-twoway")
MASKS = (0x01, 0x80, 0xFF)
DELAYS = range(1, 41)
FAULTS = ("actor-fault", "step-budget")

# (label, adversary action) pairs to try against one message, given its body
Actions = Callable[[bytes], Iterable[Tuple[str, object]]]


def tampers(offsets: Callable[[bytes], Iterable[int]], masks: Iterable[int]) -> Actions:
    """One tamper per offset of `offsets(body)` and mask."""
    return lambda body: [(f"offset={offset} mask=0x{mask:02X}", Tamper(((offset, mask),)))
                         for offset in offsets(body) for mask in masks]


def drop_and_replays(delays: Iterable[int]) -> Actions:
    """One drop, and one replay of a single copy per delay."""
    return lambda body: [("drop", Drop())] + [
        (f"replay delay={delay}", Replay(delay=delay)) for delay in delays]


def attacked_specs(spec: ScenarioSpec, untouched: RunReport,
                   actions: Actions) -> Iterator[Tuple[str, str, ScenarioSpec]]:
    """`spec` with one rule each: against the first transmission of each
    message type in the `untouched` run of `spec`, one per action that
    `actions` gives for its body. Yields (message type, label, spec)."""
    first = {}
    for record in untouched.world.sim.wire_log:
        first.setdefault((record.channel, record.msg_type), record.data)
    for (channel, msg_type), data in first.items():
        for label, action in actions(peek_header(data).raw_body):
            rule = Rule(action, channel=channel, msg_type=msg_type, nth=1)
            yield msg_type, label, replace(spec, adversary=AdversaryScript(rules=(rule,)))


def committed(report: RunReport) -> Counter:
    """The payments the run's bank committed: (account, amount, payee) counts."""
    return Counter((txn.account_id, txn.order.amount, txn.order.payee_account)
                   for txn in report.world.server.txns.values()
                   if txn.state is TxnState.COMMITTED)


def outcomes(report: RunReport) -> List[List[str]]:
    """Each client's outcomes, in client order."""
    return [client.outcomes for client in report.world.clients]


def replayed(spec: ScenarioSpec) -> bool:
    """Whether `spec`'s adversary replays a message."""
    return any(isinstance(rule.action, Replay) for rule in spec.adversary.rules)


ROWS = (("tamper", tampers(lambda body: range(len(body)), MASKS)),
        ("drop and replay", drop_and_replays(DELAYS)))


def main() -> int:
    started = time.process_time()
    bad = 0
    for row, actions in ROWS:
        for name in SCENARIOS:
            spec = load_spec(find_bundled(name))
            untouched = run_spec(spec)
            baseline = committed(untouched)
            expected = outcomes(untouched)
            total = faulted = outside = 0
            for msg_type, label, attacked in attacked_specs(spec, untouched, actions):
                report = run_spec(attacked)
                found = [f"{r.name}: {r.detail}" for r in report.results if r.name in FAULTS]
                extra = committed(report) - baseline
                total += 1
                faulted += bool(found)
                outside += bool(extra)
                if extra:
                    found.append(f"committed {sorted(extra.elements())}")
                if replayed(attacked) and outcomes(report) != expected:
                    found.append(f"outcomes {outcomes(report)}")
                if found:
                    bad += 1
                    print(f"BAD {name} {msg_type} {label}: " + "; ".join(found))
            print(f"{name} {row} rows: {total} runs, {faulted} faulted, "
                  f"{outside} committed outside the untouched run")
    print(f"{time.process_time() - started:.1f} s CPU")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
