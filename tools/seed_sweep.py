"""Run every bundled scenario at seeds 0-199 and list the runs that fail.

    python3 tools/seed_sweep.py

The test suite sweeps seeds 0-49; this is the full sweep, kept out of the
suite for its run time. It takes no options, imports ticpay from ``src/``
of the checkout it sits in, prints one line per failing (scenario, seed)
with the checks that failed, and exits 1 if any run failed, else 0.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ticpay.scenarios import find_bundled, list_bundled, load_spec, run_spec  # noqa: E402

SEEDS = range(200)


def main() -> int:
    started = time.process_time()
    failures = 0
    names = [entry["name"] for entry in list_bundled()]
    for name in names:
        # One loaded spec per scenario, re-seeded: a verdict must not depend
        # on the seed or on how often the spec already ran.
        spec = load_spec(find_bundled(name))
        for seed in SEEDS:
            report = run_spec(replace(spec, seed=seed))
            if not report.passed:
                failed = "; ".join(f"{r.name}: {r.detail}" for r in report.results
                                   if not r.passed)
                failures += 1
                print(f"FAIL {name} seed={seed}: {failed}")
    print(f"{len(names)} scenarios x seeds {SEEDS.start}-{SEEDS.stop - 1}: "
          f"{failures} failed, {time.process_time() - started:.1f} s CPU")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
