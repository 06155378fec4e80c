"""The run's conservation watch against a strict reference that sums every
bank's books after every event.

The watch re-sums only after an event that bumped a bank's
``ledger_version``, so it must report exactly what the strict sum reports:
nothing on the bundled scenarios at any seed, and, for a settlement that
credits the merchant without the clearing debit, every event from the
settlement's delivery on, starting with that delivery's ``seq``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import ticpay.scenarios
from ticpay.checks import total_funds
from ticpay.scenarios import (
    build_world,
    find_bundled,
    list_bundled,
    load_spec,
    run_spec,
    watch_conservation,
)
from ticpay.two_way import MerchantBank


def reference_watch(sim, banks):
    """Sum after every event; name the first trace record of the event."""
    violations = []
    baseline = total_funds(banks)
    first = len(sim.trace.events)

    def watch(sim):
        nonlocal first
        current = total_funds(banks)
        if current != baseline:
            violations.append(
                f"seq={sim.trace.events[first].seq} total {current} != {baseline}")
        first = len(sim.trace.events)

    return watch, violations


def both_watches(spec):
    """Run spec's world under both watches; (versioned, reference, world)."""
    world = build_world(spec)
    banks = world.banks()
    versioned = watch_conservation(world.sim, banks)
    fast, (strict, reference) = world.sim.after_event, reference_watch(world.sim, banks)

    def watch(sim):
        fast(sim)
        strict(sim)

    world.sim.after_event = watch
    world.sim.run_to_quiescence()
    return versioned, reference, world


class OneSidedSettlement(MerchantBank):
    """Credits the merchant but puts the clearing leg back: money appears."""

    def _on_settle_notice(self, ctx, env):
        clearing = self.clearing
        super()._on_settle_notice(ctx, env)
        self.clearing = clearing


BUNDLED = [entry["name"] for entry in list_bundled()]


@pytest.mark.parametrize("name", BUNDLED)
def test_versioned_watch_matches_the_strict_sum_at_seeds_0_to_9(name):
    spec = load_spec(find_bundled(name))
    for seed in range(10):
        versioned, reference, _ = both_watches(replace(spec, seed=seed))
        assert versioned == reference == []


def test_a_one_sided_credit_is_reported_at_the_settlement_delivery(monkeypatch):
    monkeypatch.setattr(ticpay.scenarios, "MerchantBank", OneSidedSettlement)
    spec = load_spec(find_bundled("happy-twoway"))
    versioned, reference, world = both_watches(spec)
    settlement = [e for e in world.sim.trace.events
                  if e.kind == "deliver" and e.msg_type == "settle_notice"]
    assert len(settlement) == 1
    baseline = spec.clients[0].balance + spec.merchant.balance
    assert versioned == reference
    assert versioned[0] == (f"seq={settlement[0].seq} "
                            f"total {baseline + spec.merchant.price} != {baseline}")

    report = run_spec(spec)
    conservation = next(r for r in report.results if r.name == "conservation")
    assert not conservation.passed
    assert conservation.detail.startswith(f"seq={settlement[0].seq} total ")


def test_the_books_are_summed_only_after_ledger_writes(monkeypatch):
    calls = []

    def counting_total_funds(banks):
        calls.append(1)
        return total_funds(banks)

    monkeypatch.setattr(ticpay.scenarios, "total_funds", counting_total_funds)
    report = run_spec(load_spec(find_bundled("happy-twoway")))
    assert report.passed
    # The baseline, then the customer's commit and the merchant's settlement.
    assert len(calls) == 3
