"""A dropped world is freed by reference counting alone.

Nothing a world owns points back at its owner, so once the last reference
to a run's report goes, every object of the run is freed at once and
Python's cycle collector has nothing of it to find. Each test runs with
the collector switched off, drops what it made, and then asks the
collector, under ``DEBUG_SAVEALL``, what it would have had to free.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from ticpay.client_agent import ClientAgent
from ticpay.errors import ScenarioError
from ticpay.scenarios import find_bundled, list_bundled, load_spec, parse_spec, run_spec

from test_scenarios_cli import load_workloads, minimal_raw


@contextmanager
def collector_off():
    """Switch the collector off after one full pass; restore it after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def left_for_collector() -> list:
    """The names of the ticpay types among the objects that only the cycle
    collector can free, in sorted order."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = {type(o).__module__ + "." + type(o).__qualname__ for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return sorted(name for name in found if name.startswith("ticpay."))


def run_and_drop(make_spec) -> list:
    """Parse a spec with `make_spec()`, run it, read its report and drop it;
    what the collector then finds."""
    with collector_off():
        report = run_spec(make_spec())
        assert report.world.sim.trace.events and report.render()
        del report
        return left_for_collector()


@pytest.mark.parametrize("name", [e["name"] for e in list_bundled()])
def test_a_dropped_bundled_run_leaves_nothing_for_the_collector(name):
    assert run_and_drop(lambda: load_spec(find_bundled(name))) == []


@pytest.mark.parametrize("flow", ["one-way", "two-way"])
def test_a_dropped_three_client_world_leaves_nothing_for_the_collector(flow):
    crowd = load_workloads().crowd(f"test-{flow}", flow, 3, 1)
    assert run_and_drop(lambda: parse_spec(crowd.document(crowd.schedule[0]))) == []


def test_a_run_that_ends_in_an_actor_fault_leaves_nothing_for_the_collector(monkeypatch):
    def boom(self, ctx, env):
        raise RuntimeError("boom")

    monkeypatch.setitem(ClientAgent._HANDLERS, "txn_result", boom)
    with collector_off():
        report = run_spec(load_spec(find_bundled("happy-oneway")))
        assert "actor-fault" in {r.name for r in report.results if not r.passed}
        del report
        assert left_for_collector() == []


def test_a_failed_parse_leaves_nothing_for_the_collector():
    raw = minimal_raw()
    raw["clients"][0]["payments"][0]["invoice"] = "x"
    with collector_off():
        try:
            parse_spec(raw)
        except ScenarioError as exc:
            error = str(exc)
        assert left_for_collector() == []
    assert error == "scenario.clients[0].payments[0].invoice: unknown field"
