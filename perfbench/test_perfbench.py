"""Tests of the benchmark itself: generators, oracle, wrappers, sameness.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

scenarios, _, _ = run.import_program()
SCENARIO_DIR = Path(str(scenarios.bundled_dir()))


def small_crowd(flow: str, seed: int = 3) -> workloads.Workload:
    return workloads.crowd(f"test-{flow}", flow, 8, seed)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_specs_and_other_seed_other_specs(name):
    def documents(workload):
        return [workload.document(slot) for slot in workload.schedule]

    first = workloads.build(name, 5, SCENARIO_DIR)
    again = workloads.build(name, 5, SCENARIO_DIR)
    other = workloads.build(name, 6, SCENARIO_DIR)
    assert documents(first) == documents(again)
    assert first.expected == again.expected
    assert documents(first) != documents(other)


def test_sweep_first_lap_runs_the_bundled_seeds():
    sweep = workloads.build("sweep", 1, SCENARIO_DIR)
    assert len(sweep.docs) == 8
    assert [s.seed for s in sweep.schedule[:8]] == [d["seed"] for d in sweep.docs]
    assert len(sweep.schedule) == 8 * workloads.SWEEP_LAPS


def test_crowd_reply_mix_and_accounts():
    crowd = workloads.build("crowd-oneway", 2, SCENARIO_DIR)
    clients = crowd.docs[0]["clients"]
    assert len(clients) == workloads.ONEWAY_CLIENTS
    assert len({c["account_id"] for c in clients}) == len(clients)
    assert all(c["account_id"].startswith("ACC-") and len(c["account_id"]) == 10
               for c in clients)
    wrong_pin = sum(1 for c in clients if "device_pin" in c)
    committed = sum(1 for e in crowd.expected[0] if e == ["committed"])
    assert 0 < wrong_pin < 0.15 * len(clients)
    assert 0.6 * len(clients) < committed < 0.8 * len(clients)


# -- oracle ------------------------------------------------------------------


@pytest.mark.parametrize("flow", ["one-way", "two-way"])
def test_oracle_passes_a_clean_crowd_and_reports_conformance_as_known(flow):
    crowd = small_crowd(flow)
    report = scenarios.run_spec(scenarios.parse_spec(crowd.document(crowd.schedule[0])))
    verdict = workloads.judge(crowd.expected[0], report)
    assert (verdict.attempted, verdict.failed) == (8, 0)
    assert verdict.outcomes == 8
    assert [d.split(":")[0] for d in verdict.known_defects] == ["conformance"]


def test_oracle_counts_a_planted_wrong_outcome():
    crowd = small_crowd("one-way")
    report = scenarios.run_spec(scenarios.parse_spec(crowd.document(crowd.schedule[0])))
    victim = report.world.clients[2]
    victim.outcomes[0] = "committed" if victim.outcomes[0] != "committed" else "aborted"
    assert workloads.judge(crowd.expected[0], report).failed == 1
    victim.outcomes.append("committed")
    assert workloads.judge(crowd.expected[0], report).failed == 1


def test_oracle_fails_every_payment_when_a_world_check_fails():
    crowd = small_crowd("one-way")
    report = scenarios.run_spec(scenarios.parse_spec(crowd.document(crowd.schedule[0])))
    leakage = next(r for r in report.results if r.name == "leakage")
    leakage.passed = False
    assert workloads.judge(crowd.expected[0], report).failed == 8


def test_oracle_fails_a_sweep_run_whose_report_fails():
    report = scenarios.run_spec(scenarios.load_spec(scenarios.find_bundled("tamper-order")))
    assert workloads.judge(None, report).failed == 0
    report.results[0].passed = False
    assert workloads.judge(None, report).failed == 1


# -- wrappers ----------------------------------------------------------------


def _originals():
    return [vars(tracer.target_owner(t))[t[2]] for t in tracer.TARGETS]


def test_every_wrapper_is_restored():
    before = _originals()
    traced = tracer.Tracer()
    with traced:
        during = _originals()
        assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _originals()))
    for module in [m for name, m in sys.modules.items() if name.startswith("ticpay")]:
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for value in vars(owner).values():
                inner = getattr(value, "__func__", value)
                assert not hasattr(inner, "perfbench_span"), (owner, value)


def test_wrappers_are_restored_when_a_run_raises():
    traced = tracer.Tracer()
    before = _originals()
    with pytest.raises(scenarios.ScenarioError):
        with traced:
            scenarios.parse_spec({"schema": 1})
    assert all(a is b for a, b in zip(before, _originals()))


def test_self_time_subtracts_child_spans():
    traced = tracer.Tracer()
    traced.spans.extend([
        ("a.outer", 0, 100, -1, 0),
        ("b.inner", 10, 40, 0, 0),
        ("b.inner", 50, 60, 0, 0),
        ("c.leaf", 12, 20, 1, 0),
    ])
    own, total = traced.self_times()
    assert own == {"a.outer": 60, "b.inner": 32, "c.leaf": 8}
    assert total == {"a.outer": 100, "b.inner": 40, "c.leaf": 8}


# -- sameness ----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: small_crowd("one-way"),
    lambda: small_crowd("two-way"),
    lambda: workloads.build("sweep", 4, SCENARIO_DIR),
])
def test_traced_and_untraced_runs_give_the_same_digest(make):
    workload = make()
    bench = run.Bench(scenarios, workloads, workload)
    untraced = bench.cycle()
    first = bench.combined()
    traced = tracer.Tracer()
    with traced:
        again = bench.cycle(traced)
    assert not bench.mismatches
    assert bench.combined() == first
    assert [op.digest for op in untraced] == [op.digest for op in again]
    assert sum(op.verdict.failed for op in untraced + again) == 0
    roots = [s for s in traced.kept if s[3] == -1]
    assert len(roots) == len(workload.schedule)
    assert {s[0] for s in roots} == {"bench.op"}
    own, total = traced.self_times()
    assert min(own.values()) >= 0
    assert sum(own.values()) == total["bench.op"]


def test_a_changed_world_is_a_sameness_mismatch():
    workload = small_crowd("one-way")
    bench = run.Bench(scenarios, workloads, workload)
    bench.run(0)
    workload.docs[0] = dict(workload.docs[0], sms_deadline=100)
    bench.run(0)
    assert bench.mismatches


# -- command line --------------------------------------------------------------


def test_one_command_prints_every_declared_metric():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "sweep", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
