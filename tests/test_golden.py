"""Behaviour lock: the trace digest of every bundled scenario at its bundled seed.

A refactor must leave these digests unchanged. Only a change that alters
protocol behaviour on purpose re-pins them, and says so.
"""

from __future__ import annotations

import pytest

from ticpay.scenarios import find_bundled, list_bundled, load_spec, run_spec

GOLDEN = {
    "bad-merchant-cert": (53, "1dc48851fc874b6c395f4406bf2cb6e850236909e2067c04107786d8971ccecc"),
    "happy-oneway": (7, "a13fd69c89a10e1e07dc007be2c5a79a0bd15e1c55c98999453c6b8c14844fbd"),
    "happy-twoway": (11, "065692cc41538c8349bc1e3c8f96a8d63504a3dcc96c33488b1bc3afaa405758"),
    "replay-attack": (23, "745351d28839c2a92d3c503127cac7bc3507b6b98333a2d7c9c8d43ab667dbc2"),
    "sms-timeout": (43, "64bd4dfa8a33f5f1a1eff43f0647b003627d39b6f5b814f266120b2d89caebc1"),
    "tamper-order": (31, "f3e8ed375e34cdf9b88656edadd445f83d9615ac57b3399f836e856c93874e8f"),
    "vault-empty": (71, "8ba198c7ebf4687c731a3872b724651a314efc7c3d2ee6fbe406caf37b91ad92"),
    "wrong-pin": (61, "bc961a3fe2b381a3868274b876862fc0854f179c60d3a1f3f1d1dbb71f0da72e"),
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(e["name"] for e in list_bundled()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_trace_digest_is_pinned(name):
    seed, digest = GOLDEN[name]
    report = run_spec(load_spec(find_bundled(name)))
    assert report.seed == seed
    assert report.world.sim.trace.digest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_loaded_spec_runs_the_same_every_time(name):
    # Adversary run state lives in the Simulation, so reusing a spec must
    # not disarm its nth rules.
    spec = load_spec(find_bundled(name))
    for _ in range(2):
        report = run_spec(spec)
        assert report.passed, report.render()
        assert report.world.sim.trace.digest() == GOLDEN[name][1]
