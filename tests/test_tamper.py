"""A tampered field is handled as a missing one, and a dropped or replayed
message as a lost or stale one: no run crashes or pays twice.

Slices of ``tools/tamper_grid.py``, against the first transmission of each
message type in both happy flows:
  - the first value byte of every body field is flipped with mask 0x80 and
    with mask 0x01. A 0x80 flip makes any ASCII text invalid UTF-8, and a
    0x01 flip of a ciphertext's first byte changes its key role;
  - the transmission is dropped, or replayed once after 1, 3, 18 or 40
    seconds.
Every run must end in a report with no `actor-fault` and no `step-budget`,
and commit nothing the untouched run does not commit. A replay must also
leave each client's outcomes those of the untouched run; a drop may stall
a client, so drops are exempt.
"""

from __future__ import annotations

import importlib.util
import struct
from pathlib import Path

import pytest

from ticpay.scenarios import find_bundled, load_spec, run_spec


def load_grid():
    path = Path(__file__).resolve().parents[1] / "tools" / "tamper_grid.py"
    spec = importlib.util.spec_from_file_location("tamper_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


grid = load_grid()


def value_starts(body: bytes):
    """The offset of the first value byte of each non-empty body field."""
    pos = 0
    while pos < len(body):
        _tag, size = struct.unpack_from(">HI", body, pos)
        pos += 6
        if size:
            yield pos
        pos += size


def no_run_faults_or_pays_outside(name, actions):
    """Run bundled `name` under each of the grid's `actions` against the
    first transmission of each message type; returns how many runs."""
    spec = load_spec(find_bundled(name))
    untouched = run_spec(spec)
    baseline = grid.committed(untouched)
    assert sum(baseline.values()) == 1
    expected = grid.outcomes(untouched)
    runs = 0
    for msg_type, label, attacked in grid.attacked_specs(spec, untouched, actions):
        report = run_spec(attacked)
        where = (msg_type, label)
        assert not {r.name for r in report.results} & set(grid.FAULTS), \
            (where, report.render())
        assert not grid.committed(report) - baseline, where
        if grid.replayed(attacked):
            assert grid.outcomes(report) == expected, where
        runs += 1
    return runs


# 21 non-empty fields in the one-way flow's messages, 48 in the two-way's
@pytest.mark.parametrize("name, fields", [("happy-oneway", 21), ("happy-twoway", 48)])
def test_no_tampered_field_crashes_a_run(name, fields):
    runs = no_run_faults_or_pays_outside(name, grid.tampers(value_starts, (0x80, 0x01)))
    assert runs == 2 * fields


# 10 message types in the one-way flow, 19 in the two-way
@pytest.mark.parametrize("name, types", [("happy-oneway", 10), ("happy-twoway", 19)])
def test_no_dropped_or_replayed_message_crashes_a_run_or_pays_twice(name, types):
    runs = no_run_faults_or_pays_outside(name, grid.drop_and_replays((1, 3, 18, 40)))
    assert runs == 5 * types


@pytest.mark.parametrize("name, msg_type, offset, outcome", [
    ("happy-oneway", "login_response", 13, "key-unwrap-failed cause=RoleMismatch"),
    ("happy-twoway", "merchant_auth_forward", 120,
     "verify-merchant verdict=negative reason=banking-info-mismatch"),
])
def test_a_flipped_key_role_fails_as_an_integrity_check(name, msg_type, offset, outcome):
    spec = load_spec(find_bundled(name))
    tampered = next(s for m, _, s in grid.attacked_specs(
        spec, run_spec(spec), grid.tampers(lambda body: [offset], (0x01,))) if m == msg_type)
    notes = [e.note for e in run_spec(tampered).world.sim.trace.events if e.kind == "note"]
    assert outcome in notes


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the invoice's amount is not authenticated (ROADMAP item 14)")
def test_a_tampered_invoice_amount_is_never_paid():
    # Body offset 12 is the low bit of AMOUNT's second-lowest byte: 4,999
    # (0x1387) becomes 4,743 (0x1287). Today the bank commits 4,743 and the
    # merchant books ('shopzone-INV0001', 4743). Only 4,999 may be paid.
    spec = load_spec(find_bundled("happy-twoway"))
    tampered = next(s for m, _, s in grid.attacked_specs(
        spec, run_spec(spec), grid.tampers(lambda body: [12], (0x01,))) if m == "invoice")
    report = run_spec(tampered)
    paid = [amount for _, amount in report.world.merchant_agent.confirmations]
    paid += [amount for _account, amount, _payee in grid.committed(report)]
    assert set(paid) <= {4999}, paid
