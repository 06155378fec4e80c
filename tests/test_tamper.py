"""A tampered field is handled as a missing one: no run crashes.

A slice of ``tools/tamper_grid.py``: in both happy flows, the first value
byte of every body field of the first transmission of each message type
is flipped with mask 0x80 and with mask 0x01. A 0x80 flip makes any
ASCII text invalid UTF-8, and a 0x01 flip of a ciphertext's first byte
changes its key role. Every run must end in a report with no
`actor-fault` and no `step-budget`, and commit nothing the untouched run
does not commit.
"""

from __future__ import annotations

import importlib.util
import struct
from pathlib import Path

import pytest

from ticpay.scenarios import find_bundled, load_spec, run_spec

from test_protocol import committed

GRID = Path(__file__).resolve().parents[1] / "tools" / "tamper_grid.py"


def load_grid():
    spec = importlib.util.spec_from_file_location("tamper_grid", GRID)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def value_starts(body: bytes):
    """The offset of the first value byte of each non-empty body field."""
    pos = 0
    while pos < len(body):
        _tag, size = struct.unpack_from(">HI", body, pos)
        pos += 6
        if size:
            yield pos
        pos += size


# 21 non-empty fields in the one-way flow's messages, 48 in the two-way's
@pytest.mark.parametrize("name, fields", [("happy-oneway", 21), ("happy-twoway", 48)])
def test_no_tampered_field_crashes_a_run(name, fields):
    grid = load_grid()
    spec = load_spec(find_bundled(name))
    untouched = run_spec(spec)
    baseline = committed(untouched)
    assert sum(baseline.values()) == 1
    runs = 0
    for msg_type, offset, mask, tampered in grid.tampered_specs(
            spec, untouched, value_starts, (0x80, 0x01)):
        report = run_spec(tampered)
        where = (msg_type, offset, mask)
        assert not {r.name for r in report.results} & set(grid.FAULTS), \
            (where, report.render())
        assert not committed(report) - baseline, where
        runs += 1
    assert runs == 2 * fields


@pytest.mark.parametrize("name, msg_type, offset, outcome", [
    ("happy-oneway", "login_response", 13, "key-unwrap-failed cause=RoleMismatch"),
    ("happy-twoway", "merchant_auth_forward", 120,
     "verify-merchant verdict=negative reason=banking-info-mismatch"),
])
def test_a_flipped_key_role_fails_as_an_integrity_check(name, msg_type, offset, outcome):
    grid = load_grid()
    spec = load_spec(find_bundled(name))
    tampered = next(s for m, o, _, s in grid.tampered_specs(
        spec, run_spec(spec), lambda body: [offset], (0x01,)) if m == msg_type)
    notes = [e.note for e in run_spec(tampered).world.sim.trace.events if e.kind == "note"]
    assert outcome in notes
