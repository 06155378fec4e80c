"""Flip bits in every body byte of every message of both happy flows, and
list the runs that fault.

    python3 tools/tamper_grid.py

For `happy-oneway` and `happy-twoway`, the first transmission of each
message type is tampered at every offset of its body with masks 0x01,
0x80 and 0xFF, one run per (message type, offset, mask). A run faults
when it ends in `actor-fault` or `step-budget`. It takes no options,
imports ticpay from ``src/`` of the checkout it sits in, prints one line
per faulting (scenario, message type, offset, mask), and exits 1 if any
run faulted, else 0. ``tests/test_tamper.py`` runs a slice of this grid.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ticpay.netsim import AdversaryScript, Rule, Tamper  # noqa: E402
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
FAULTS = ("actor-fault", "step-budget")


def every_offset(body: bytes) -> range:
    return range(len(body))


def tampered_specs(spec: ScenarioSpec, untouched: RunReport,
                   offsets: Callable[[bytes], Iterable[int]],
                   masks: Iterable[int]) -> Iterator[Tuple[str, int, int, ScenarioSpec]]:
    """`spec` with one tamper each: of the first transmission of each message
    type in the `untouched` run of `spec`, at each of `offsets(body)`, with
    each mask. Yields (message type, offset, mask, tampered spec)."""
    first = {}
    for record in untouched.world.sim.wire_log:
        first.setdefault((record.channel, record.msg_type), record.data)
    for (channel, msg_type), data in first.items():
        for offset in offsets(peek_header(data).raw_body):
            for mask in masks:
                rule = Rule(Tamper(((offset, mask),)), channel=channel,
                            msg_type=msg_type, nth=1)
                yield msg_type, offset, mask, replace(
                    spec, adversary=AdversaryScript(rules=(rule,)))


def main() -> int:
    started = time.process_time()
    total = faulted = 0
    for name in SCENARIOS:
        spec = load_spec(find_bundled(name))
        for msg_type, offset, mask, tampered in tampered_specs(
                spec, run_spec(spec), every_offset, MASKS):
            total += 1
            found = [f"{r.name}: {r.detail}" for r in run_spec(tampered).results
                     if r.name in FAULTS]
            if found:
                faulted += 1
                print(f"FAULT {name} {msg_type} offset={offset} mask=0x{mask:02X}: "
                      + "; ".join(found))
    print(f"{total} tampered runs: {faulted} faulted, "
          f"{time.process_time() - started:.1f} s CPU")
    return 1 if faulted else 0


if __name__ == "__main__":
    sys.exit(main())
