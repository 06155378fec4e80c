#!/usr/bin/env python3
"""ticpay benchmark: runs one workload, checks its outputs, prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced passes over the
same slots and prints the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The loop is closed and single-threaded: the next run starts when the
previous one has been checked. The only other process is one fresh
interpreter per untraced run that runs one cycle of the workload, so that
its peak memory is that of the workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from tracer import Tracer, layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150

ROLES = ("pin_wrapped", "session_keyed", "tic_keyed", "vault_keyed", "bank_net_keyed")
LAYERS_WITH_SELF_TIME = ("checks", "vault", "wire", "crypto", "rng", "netsim", "scenarios",
                         "auth_server", "client_agent", "tic_registry", "two_way")


def import_program():
    """Import ticpay from this checkout's sources; returns (modules, seconds)."""
    if not (SRC / "ticpay" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ticpay sources at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ticpay.scenarios as scenarios
    import workloads
    elapsed = time.perf_counter() - start
    if not Path(scenarios.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: ticpay imported from {scenarios.__file__}, not {SRC}")
    return scenarios, workloads, elapsed


@dataclass
class Op:
    """One scenario run: host time, simulated statistics and oracle verdict."""

    cpu_ns: int  # process CPU time: what end-to-end metrics report
    wall_ns: int  # wall time: the base that span times share
    digest: str
    events: int
    transmissions: int
    sim_time: int
    clients: int
    verdict: object  # workloads.Verdict

    @property
    def sameness(self):
        return (self.digest, self.events, self.transmissions, self.sim_time)


class Bench:
    def __init__(self, scenarios, workloads, workload):
        self.sc = scenarios
        self.wl = workloads
        self.workload = workload
        self.first: List[Optional[tuple]] = [None] * len(workload.schedule)
        self.mismatches: List[str] = []
        self.known_defects: List[str] = []
        self.runs = 0

    def run(self, index: int, tracer=None) -> Op:
        """Run schedule slot `index` from its document; check and record it."""
        slot = self.workload.schedule[index]
        doc = self.workload.document(slot)
        self.runs += 1
        if tracer is not None:
            tracer.run_id = self.runs
        start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
        if tracer is None:
            report, digest = self._world(doc)
        else:
            report, digest = tracer.span("bench.op", self._world, doc)
        cpu_ns = time.process_time_ns() - cpu_start
        wall_ns = time.perf_counter_ns() - start
        sim = report.world.sim
        op = Op(
            cpu_ns=cpu_ns, wall_ns=wall_ns, digest=digest, events=len(sim.trace.events),
            transmissions=sum(1 for e in sim.trace.events if e.kind == "send"),
            sim_time=sim.now, clients=len(report.world.clients),
            verdict=self.wl.judge(self.workload.expected[slot.doc], report),
        )
        for defect in op.verdict.known_defects:
            if defect not in self.known_defects:
                self.known_defects.append(defect)
        if self.first[index] is None:
            self.first[index] = op.sameness
        elif self.first[index] != op.sameness:
            self.mismatches.append(f"slot {index} ({doc['name']} seed {slot.seed})")
        return op

    def _world(self, doc):
        report = self.sc.run_spec(self.sc.parse_spec(doc))
        return report, report.world.sim.trace.digest()

    def cycle(self, tracer=None) -> List[Op]:
        return [self.run(i, tracer) for i in range(len(self.workload.schedule))]

    def combined(self) -> dict:
        """Digest over one full cycle of slots, plus its simulated statistics."""
        if any(s is None for s in self.first):
            raise RuntimeError("combined digest needs one full cycle")
        return {
            "digest": hashlib.sha256("".join(s[0] for s in self.first).encode()).hexdigest(),
            "events": sum(s[1] for s in self.first),
            "transmissions": sum(s[2] for s in self.first),
            "sim_time": sum(s[3] for s in self.first),
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(scenarios, workloads, name: str, seed: int):
    """Generate and load the workload SETUP_REPEATS times; median seconds."""
    scenario_dir = Path(str(scenarios.bundled_dir()))
    times, workload = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.build(name, seed, scenario_dir)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def warm_up(scenarios) -> None:
    """One untimed run of each flow, so lazy library set-up is not timed."""
    for name in ("happy-oneway", "happy-twoway"):
        scenarios.run_spec(scenarios.load_spec(scenarios.find_bundled(name)))


def peak_rss_mb() -> float:
    """High-water RSS of this process since it started its program.

    Read from VmHWM, not ru_maxrss: Linux carries the parent's RSS at fork
    over into the child's ru_maxrss.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def probe(args) -> dict:
    """Peak memory of a fresh interpreter that runs one cycle of the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(ops: List[Op], setup_s: float, rss_mb: float) -> dict:
    times = [op.cpu_ns for op in ops]
    total_s = sum(times) / 1e9
    return {
        "setup_s": setup_s,
        "runs_per_s": len(ops) / total_s,
        "run_ms_p50": statistics.median(times) / 1e6,
        "run_ms_p99": percentile(times, 0.99) / 1e6,
        "world_s": statistics.median(times) / 1e9,
        "payments_per_s": sum(op.verdict.outcomes for op in ops) / total_s,
        "us_per_event": sum(times) / 1e3 / sum(op.events for op in ops),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced: List[Op], untraced: List[Op]) -> dict:
    """Per-layer metrics, normalised per world (one scenario run)."""
    own, total = tracer.self_times()
    counts = tracer.counts
    worlds = len(traced)
    clients = sum(op.clients for op in traced)
    transmissions = sum(op.transmissions for op in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_world_s(ns):
        return ns / 1e9 / worlds

    layer_self = dict.fromkeys(LAYERS_WITH_SELF_TIME, 0)
    for name, ns in own.items():
        if layer(name) in layer_self:
            layer_self[layer(name)] += ns
    m = {
        "checks.leakage_s": per_world_s(total.get("checks.leakage", 0)),
        "checks.leakage_pairs": counts["checks.leakage_pairs"] / worlds,
        "checks.conservation_calls": counts["checks.conservation_calls"] / worlds,
        "checks.conservation_s": per_world_s(total.get("checks.conservation", 0)),
        "checks.blindness_s": per_world_s(total.get("checks.blindness", 0)),
        "checks.conformance_s": per_world_s(total.get("checks.conformance", 0)),
        "vault.pbkdf2_calls": counts["vault.pbkdf2_calls"] / worlds,
        "vault.pbkdf2_calls_per_client": ratio(counts["vault.pbkdf2_calls"], clients),
        "wire.encodes": counts["wire.encodes"] / worlds,
        "wire.parses": counts["wire.parses"] / worlds,
        "wire.parses_per_transmission": ratio(counts["wire.parses"], transmissions),
    }
    for role in ROLES:
        m[f"crypto.seals.{role}"] = counts[f"crypto.seals.{role}"] / worlds
    for role in ROLES:
        m[f"crypto.opens.{role}"] = counts[f"crypto.opens.{role}"] / worlds
    m.update({
        "crypto.open_failures": counts["crypto.open_failures"] / worlds,
        "crypto.kdf_calls": counts["crypto.kdf_calls"] / worlds,
        "rng.draws": counts["rng.draws"] / worlds,
        "rng.bytes": counts["rng.bytes"] / worlds,
        "netsim.events": sum(op.events for op in traced) / worlds,
        "netsim.transmissions": transmissions / worlds,
        "netsim.trace_digest_s": per_world_s(total.get("netsim.trace_digest", 0)),
        "scenarios.parse_spec_s": per_world_s(total.get("scenarios.parse_spec", 0)),
        "scenarios.build_world_s": per_world_s(total.get("scenarios.build_world", 0)),
        "auth_server.submit_accept_ratio": ratio(counts["auth_server.submits_accepted"],
                                                 counts["auth_server.submits"]),
        "tic_registry.consume_accept_ratio": ratio(counts["tic_registry.consumes_accepted"],
                                                   counts["tic_registry.consumes"]),
        "two_way.verifications": counts["two_way.verifications"] / worlds,
    })
    for name, ns in layer_self.items():
        m[f"{name}.self_s"] = per_world_s(ns)
    traced_ns = sum(op.wall_ns for op in traced)
    m["bench.traced_world_s"] = per_world_s(traced_ns)
    m["bench.trace_overhead"] = traced_ns / sum(op.wall_ns for op in untraced)
    return m


def declared_units(declared: dict, trace: int) -> dict:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = declared["run_seconds"]

    scenarios, workloads, import_s = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload: choose one of {', '.join(workloads.WORKLOADS)}")
    workload, build_s = setup(scenarios, workloads, args.workload, args.seed)
    bench = Bench(scenarios, workloads, workload)

    if args.probe:
        bench.cycle()
        print(json.dumps({"peak_rss_mb": peak_rss_mb(), **bench.combined()}))
        return 0

    warm_up(scenarios)
    deadline = time.perf_counter() + args.seconds
    ops: List[Op] = []
    if args.trace == 0:
        i = 0
        while i < len(workload.schedule) or time.perf_counter() < deadline:
            ops.append(bench.run(i % len(workload.schedule)))
            i += 1
        combined = bench.combined()
        probed = probe(args)
        if probed["digest"] != combined["digest"]:
            bench.mismatches.append("fresh-process cycle digest")
        metrics = end_to_end(ops, import_s + build_s, probed["peak_rss_mb"])
    else:
        tracer = Tracer()
        traced: List[Op] = []
        untraced: List[Op] = []
        while not traced or time.perf_counter() < deadline:
            untraced += bench.cycle()
            with tracer:
                traced += bench.cycle(tracer)
        ops = untraced + traced
        combined = bench.combined()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        metrics = per_layer(tracer, traced, untraced)
    units = declared_units(declared, args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")

    attempted = sum(op.verdict.attempted for op in ops)
    failed = sum(op.verdict.failed for op in ops)
    correct = failed == 0 and not bench.mismatches

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} runs, {len(workload.schedule)} slots per cycle")
    print(f"combined trace digest {combined['digest']} events {combined['events']} "
          f"transmissions {combined['transmissions']} sim_time {combined['sim_time']}")
    for mismatch in bench.mismatches:
        print(f"SAMENESS MISMATCH: {mismatch}")
    for defect in bench.known_defects:
        print(f"known defect, not counted: {defect}")
    if args.trace == 1:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    cpu_s, wall_s = (sum(op.cpu_ns for op in ops) / 1e9, sum(op.wall_ns for op in ops) / 1e9)
    print(f"host time of the runs: {cpu_s:.3f} s CPU, {wall_s:.3f} s wall")
    print(f"ops {attempted} count")
    print(f"ops_failed_share {failed / attempted} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
