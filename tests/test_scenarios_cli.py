"""Scenario schema validation, bundled runs, and the command-line verdicts."""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from ticpay.checks import conformance_check, leakage_scan
from ticpay.cli import main
from ticpay.client_agent import ClientAgent
from ticpay.errors import ScenarioError
from ticpay.netsim import AdversaryScript, ProtocolTrace, TraceEvent
from ticpay.protocol import ONE_WAY_TEMPLATE
from ticpay.scenarios import (
    MSG_TYPES,
    bundled_dir,
    find_bundled,
    list_bundled,
    load_spec,
    parse_spec,
    run_spec,
)
from ticpay.wire import Channel, Envelope, F

BUNDLED = [
    "bad-merchant-cert",
    "happy-oneway",
    "happy-twoway",
    "replay-attack",
    "sms-timeout",
    "tamper-order",
    "vault-empty",
    "wrong-pin",
]


def minimal_raw(**overrides) -> dict:
    raw = {
        "schema": 1,
        "name": "unit",
        "flow": "one-way",
        "clients": [
            {
                "username": "alice",
                "password": "pw",
                "pin": "00112233445566aa",
                "cell": "+27-82-000-0001",
                "account_id": "ACC-1001",
                "balance": 10_000,
                "vault_password": "vp",
                "tic_batch": 1,
                "payments": [{"amount": 10, "payee": "ACC-9914"}],
            }
        ],
    }
    raw.update(overrides)
    return raw


# -- schema validation -----------------------------------------------------------


def test_minimal_document_parses_and_runs_green():
    spec = parse_spec(minimal_raw())
    assert spec.flow == "one-way"
    assert spec.checks == ("conformance", "leakage", "conservation", "blindness")
    report = run_spec(spec)
    assert report.passed, report.render()


def expect_error(raw, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_spec(raw)
    assert fragment in str(err.value), str(err.value)


def test_errors_name_the_offending_field():
    expect_error({"schema": 1, "name": "x", "flow": "one-way"}, "scenario.clients: missing")
    expect_error(minimal_raw(schema=2), "scenario.schema: unsupported version 2")
    expect_error(minimal_raw(flow="p2p"), "scenario.flow: expected one-way or two-way")
    expect_error(minimal_raw(checks=["magic"]), "unknown check 'magic'")
    expect_error(minimal_raw(checks=[]), "scenario.checks: name at least one check")
    expect_error(minimal_raw(cipher="rot13"), "scenario.cipher: expected one of "
                 "['aes-gcm', 'null'], got 'rot13'")
    expect_error(minimal_raw(step_budget=0), "scenario.step_budget: must be >= 1, got 0")
    expect_error(minimal_raw(step_budget=-5), "scenario.step_budget: must be >= 1, got -5")
    expect_error(minimal_raw(sms_deadline=-1), "scenario.sms_deadline: must be >= 1, got -1")
    expect_error(minimal_raw(merchant={}), "scenario.merchant: only valid in a two-way")

    bad_pin = minimal_raw()
    bad_pin["clients"][0]["pin"] = "xyz"
    expect_error(bad_pin, "scenario.clients[0].pin")

    missing_pin = minimal_raw()
    del missing_pin["clients"][0]["pin"]
    expect_error(missing_pin, "scenario.clients[0].pin: missing")

    bool_balance = minimal_raw()
    bool_balance["clients"][0]["balance"] = True
    expect_error(bool_balance, "expected integer, got boolean")

    bad_amount = minimal_raw()
    bad_amount["clients"][0]["payments"] = [{"amount": -5, "payee": "ACC-9914"}]
    expect_error(bad_amount, "payments[0].amount: must be positive")

    no_payments = minimal_raw()
    no_payments["clients"][0]["payments"] = []
    expect_error(no_payments, "one-way scenario needs at least one")

    negative_delay = minimal_raw()
    negative_delay["clients"][0]["reply_delay"] = -1
    expect_error(negative_delay, "clients[0].reply_delay: unknown field")

    expect_error(minimal_raw(expect={"notes": [42]}),
                 "scenario.expect.notes[0]: expected str, got int")
    expect_error(minimal_raw(expect={"outcomes": ["committed", None]}),
                 "scenario.expect.outcomes[1]: expected str")

    # One outcomes list would be held against client 0 only, so a second
    # client's denied payment would still report PASS.
    two_clients = minimal_raw(expect={"outcomes": ["committed"]})
    two_clients["clients"].append(dict(two_clients["clients"][0], username="bob",
                                       account_id="ACC-1002", balance=0))
    expect_error(two_clients, "scenario.expect.outcomes: only valid with one client, got 2")

    # The leakage scan treats every account id as a secret; a short one
    # matches random ciphertext bytes.
    short_account = minimal_raw()
    short_account["clients"][0]["account_id"] = "A4"
    expect_error(short_account, "scenario.clients[0].account_id: must be at least 8 bytes")

    short_payee = minimal_raw()
    short_payee["clients"][0]["payments"] = [{"amount": 10, "payee": "ACC-2"}]
    expect_error(short_payee, "clients[0].payments[0].payee: must be at least 8 bytes")

    short_merchant = minimal_raw(flow="two-way", merchant={
        "id": "shopzone", "display_name": "Shop", "account_id": "MAC-7", "price": 10,
    })
    short_merchant["clients"][0].pop("payments")
    expect_error(short_merchant, "scenario.merchant.account_id: must be at least 8 bytes")


def test_two_way_requires_a_merchant_block():
    raw = minimal_raw(flow="two-way")
    raw["clients"][0].pop("payments")
    expect_error(raw, "scenario.merchant: missing")


def test_adversary_rule_validation():
    for action in ("explode", "observe"):
        expect_error(
            minimal_raw(adversary={"rules": [{"action": action}]}),
            "scenario.adversary.rules[0].action: expected drop, replay, or tamper",
        )
    expect_error(
        minimal_raw(adversary={"rules": [{"action": "drop", "channel": "pigeon"}]}),
        "rules[0].channel: expected one of",
    )
    expect_error(
        minimal_raw(adversary={"rules": [{"action": "tamper"}]}),
        "rules[0].edits: missing",
    )
    # Out-of-range values that used to disarm an attack or fail mid-run.
    for rule, fragment in [
        ({"action": "drop", "nth": 0}, "rules[0].nth: must be >= 1, got 0"),
        ({"action": "replay", "copies": 0}, "rules[0].copies: must be >= 1"),
        ({"action": "replay", "delay": -1}, "rules[0].delay: must be >= 0"),
        ({"action": "tamper", "edits": [{"offset": 3, "mask": 0}]},
         "rules[0].edits[0].mask: must be in 1..255, got 0"),
        ({"action": "tamper", "edits": [{"offset": 3, "mask": 256}]},
         "rules[0].edits[0].mask: must be in 1..255"),
        ({"action": "tamper", "edits": [{"offset": -1}]},
         "rules[0].edits[0].offset: must be >= 0"),
    ]:
        expect_error(minimal_raw(adversary={"rules": [rule]}), fragment)


def test_reply_policy_accepts_yaml_booleans():
    raw = minimal_raw()
    raw["clients"][0]["reply"] = True  # YAML 1.1 spells this "yes"
    assert parse_spec(raw).clients[0].reply == "yes"
    raw["clients"][0]["reply"] = False
    assert parse_spec(raw).clients[0].reply == "no"
    raw["clients"][0]["reply"] = "later"
    expect_error(raw, "expected yes, no, or ignore")


def two_way_raw(**overrides) -> dict:
    raw = minimal_raw(flow="two-way", merchant={
        "id": "shopzone", "display_name": "Shop", "account_id": "MAC-7001", "price": 10,
    }, **overrides)
    raw["clients"][0].pop("payments")
    raw["clients"][0]["mode"] = "credit-card"
    return raw


def at(raw, *keys):
    """The mapping at the path `keys` inside `raw`."""
    for key in keys:
        raw = raw[key]
    return raw


def tampered_raw() -> dict:
    return minimal_raw(adversary={"rules": [{"action": "tamper", "msg_type": "payment_submit",
                                             "edits": [{"offset": 3}]}]})


@pytest.mark.parametrize("make, keys, path", [
    (minimal_raw, (), "scenario"),
    (minimal_raw, ("clients", 0), "scenario.clients[0]"),
    (minimal_raw, ("clients", 0, "payments", 0), "scenario.clients[0].payments[0]"),
    (two_way_raw, ("merchant",), "scenario.merchant"),
    (tampered_raw, ("adversary",), "scenario.adversary"),
    (tampered_raw, ("adversary", "rules", 0), "scenario.adversary.rules[0]"),
    (tampered_raw, ("adversary", "rules", 0, "edits", 0),
     "scenario.adversary.rules[0].edits[0]"),
    (lambda: minimal_raw(expect={"outcomes": ["committed"]}), ("expect",),
     "scenario.expect"),
])
def test_a_key_the_parser_does_not_read_is_an_unknown_field(make, keys, path):
    raw = make()
    parse_spec(raw)
    at(raw, *keys)["sms_dedline"] = 60
    expect_error(raw, f"{path}.sms_dedline: unknown field")
    # Every other error in the document is reported first.
    raw["checks"] = ["magic"]
    expect_error(raw, "scenario.checks: unknown check 'magic'")


@pytest.mark.parametrize("make, keys, path", [
    (minimal_raw, (), "scenario.bank"),
    (minimal_raw, ("clients", 0), "scenario.clients[0].login_password"),
    (minimal_raw, ("clients", 0), "scenario.clients[0].reply_delay"),
    (minimal_raw, ("clients", 0, "payments", 0), "scenario.clients[0].payments[0].invoice"),
    (two_way_raw, ("merchant",), "scenario.merchant.bank"),
    (two_way_raw, ("merchant",), "scenario.merchant.cert_valid_from"),
    # Neither flow ever read a client-level merchant name.
    (two_way_raw, ("clients", 0), "scenario.clients[0].merchant"),
    # Each flow reads only its own key.
    (minimal_raw, ("clients", 0), "scenario.clients[0].mode"),
    (two_way_raw, ("clients", 0), "scenario.clients[0].payments"),
    # A key of another action.
    (lambda: minimal_raw(adversary={"rules": [{"action": "drop"}]}),
     ("adversary", "rules", 0), "scenario.adversary.rules[0].delay"),
])
def test_an_option_nothing_reads_fails_with_its_path(make, keys, path):
    raw = make()
    parse_spec(raw)
    at(raw, *keys)[path.rsplit(".", 1)[1]] = "x"
    expect_error(raw, f"{path}: unknown field")


def test_the_unknown_field_reported_is_the_first_in_reading_order():
    raw = minimal_raw(extra=1)
    raw["clients"][0]["colour"] = "red"
    raw["clients"][0]["payments"][0]["invoice"] = "x"
    expect_error(raw, "scenario.extra: unknown field")
    del raw["extra"]
    expect_error(raw, "scenario.clients[0].colour: unknown field")


def test_message_types_and_modes_name_what_the_protocol_knows():
    expect_error(minimal_raw(adversary={"rules": [{"action": "drop",
                                                   "msg_type": "payment_sumbit"}]}),
                 "scenario.adversary.rules[0].msg_type: unknown message type "
                 "'payment_sumbit'")
    expect_error(minimal_raw(expect={"absent_msg_types": ["mode_select", "mode_selct"]}),
                 "scenario.expect.absent_msg_types[1]: unknown message type 'mode_selct'")
    cash = two_way_raw()
    cash["clients"][0]["mode"] = "cash"
    expect_error(cash, "scenario.clients[0].mode: unknown payment mode 'cash'")


@pytest.mark.parametrize("name", BUNDLED)
def test_every_message_type_a_bundled_scenario_sends_is_known(name):
    report = run_spec(load_spec(find_bundled(name)))
    sent = {e.msg_type for e in report.world.sim.trace.events if e.kind == "send"}
    assert sent and sent <= MSG_TYPES


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["crowd-oneway", "crowd-twoway"])
def test_the_benchmark_crowd_documents_parse(name):
    workloads = load_workloads()
    workload = workloads.build(name, 1, Path(str(bundled_dir())))
    spec = parse_spec(workload.document(workload.schedule[0]))
    assert len(spec.clients) == {"crowd-oneway": workloads.ONEWAY_CLIENTS,
                                 "crowd-twoway": workloads.TWOWAY_CLIENTS}[name]


def test_load_spec_reports_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("flow: [unclosed\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_spec(path)


# -- bundled scenarios --------------------------------------------------------------


def test_bundled_catalog():
    entries = list_bundled()
    assert [e["name"] for e in entries] == BUNDLED
    assert all(e["description"] for e in entries)
    for entry in entries:
        spec = load_spec(find_bundled(entry["name"]))
        assert entry == {"name": spec.name, "description": spec.description,
                         "file": f"{spec.name}.yaml"}
    assert find_bundled("happy-oneway") is not None
    assert find_bundled("does-not-exist") is None


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_passes(name):
    report = run_spec(load_spec(find_bundled(name)))
    assert report.passed, report.render()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_passes_at_every_sweep_seed(name):
    # One loaded spec per scenario, re-seeded with replace: a verdict must
    # not depend on the seed or on how often the spec already ran.
    spec = load_spec(find_bundled(name))
    failed = [seed for seed in range(50) if not run_spec(replace(spec, seed=seed)).passed]
    assert failed == []


def test_specs_are_immutable():
    spec = load_spec(find_bundled("happy-twoway"))
    attacked = load_spec(find_bundled("tamper-order"))
    parts = (spec, spec.clients[0], spec.merchant, spec.expect, attacked.adversary)
    for part in parts:
        with pytest.raises(FrozenInstanceError):
            setattr(part, fields(part)[0].name, None)
    assert isinstance(spec.clients, tuple) and isinstance(spec.checks, tuple)
    assert isinstance(spec.expect.notes, tuple)
    assert isinstance(attacked.adversary.rules, tuple)
    assert isinstance(attacked.adversary.injections, tuple)


def test_failing_expectation_turns_the_report_red():
    raw = minimal_raw(expect={"outcomes": ["aborted"]})
    report = run_spec(parse_spec(raw))
    assert not report.passed
    rendered = report.render()
    assert "check expect-outcomes: FAIL" in rendered
    assert rendered.strip().endswith("result: FAIL")


def test_conformance_failure_cites_a_trace_seq():
    # an unanswered replay copy adds traffic the one-way template forbids
    raw = minimal_raw(
        adversary={"rules": [{"action": "replay", "msg_type": "payment_submit",
                              "nth": 1, "delay": 4}]},
        checks=["conformance"],
    )
    report = run_spec(parse_spec(raw))
    assert not report.passed
    line = next(r for r in report.results if r.name == "conformance")
    assert "seq=" in line.detail


def two_client_raw(**overrides) -> dict:
    raw = minimal_raw(**overrides)
    raw["clients"].append(dict(raw["clients"][0], username="bob", cell="+27-82-000-0002",
                               account_id="ACC-1002"))
    return raw


def test_conformance_names_the_seq_of_the_divergent_delivery():
    # Each client is checked against its own template: two clean clients pass.
    assert run_spec(parse_spec(two_client_raw(checks=["conformance"]))).passed
    # alice logs in first, so the first submission on the wire is hers.
    report = run_spec(parse_spec(two_client_raw(
        checks=["conformance"],
        adversary={"rules": [{"action": "replay", "msg_type": "payment_submit",
                              "nth": 1, "delay": 4}]})))
    trace = report.world.sim.trace
    outcome = conformance_check(trace, ONE_WAY_TEMPLATE, ["alice", "bob"])
    assert (outcome.ok, outcome.client, outcome.diverged, outcome.clients) == (
        False, "alice", 1, 2)
    alice = [e for e in trace.events
             if e.kind == "deliver" and "alice" in (e.sender, e.receiver)]
    divergent = alice[outcome.step]
    assert [e.msg_type for e in alice[:outcome.step]] == ONE_WAY_TEMPLATE[:outcome.step]
    assert (outcome.seq, outcome.got) == (divergent.seq, divergent.msg_type)
    line = next(r for r in report.results if r.name == "conformance")
    assert line.detail == (f"conformance: client 'alice' diverged at step {outcome.step}: "
                           f"expected {outcome.expected!r}, got {divergent.msg_type!r} "
                           f"seq={divergent.seq}; 1 of 2 clients diverged")


def test_conformance_names_the_last_event_when_deliveries_run_out():
    trace = ProtocolTrace()
    assert conformance_check(trace, ["a"], ["alice"]).seq == 0
    trace.record(TraceEvent(1, 0, "send", sender="alice", receiver="bank", msg_type="a"))
    trace.record(TraceEvent(2, 1, "deliver", sender="alice", receiver="bank", msg_type="a"))
    trace.record(TraceEvent(3, 1, "note", note="done"))
    outcome = conformance_check(trace, ["a", "b"], ["alice"])
    assert (outcome.client, outcome.step, outcome.expected, outcome.got, outcome.seq) == (
        "alice", 1, "b", None, 3)
    assert conformance_check(trace, ["a"], ["alice"]).ok


def test_conformance_fails_on_a_delivery_no_client_owns():
    # An injection from a sender no client is, carrying no request id that a
    # client's traffic introduced, belongs to nobody.
    forged = Envelope(sender="mallory", receiver="cbank", channel=Channel.SMS,
                      msg_type="sms_reply", body={int(F.TXN_ID): b"T0009",
                                                  int(F.DECISION): b"YES"})
    spec = replace(parse_spec(minimal_raw(checks=["conformance"])),
                   adversary=AdversaryScript(injections=((1, forged.to_bytes()),)))
    report = run_spec(spec)
    trace = report.world.sim.trace
    delivery = next(e for e in trace.events if e.kind == "deliver" and e.sender == "mallory")
    outcome = conformance_check(trace, ONE_WAY_TEMPLATE, ["alice"])
    assert (outcome.ok, outcome.client, outcome.got, outcome.seq, outcome.diverged) == (
        False, None, "sms_reply", delivery.seq, 0)
    line = next(r for r in report.results if r.name == "conformance")
    assert line.detail == (f"conformance: delivery 'sms_reply' belongs to no client "
                           f"seq={delivery.seq}; 0 of 1 clients diverged")


def test_null_cipher_flips_the_leakage_check_into_a_control():
    raw = minimal_raw(cipher="null", checks=["leakage"])
    report = run_spec(parse_spec(raw))
    control = next(r for r in report.results if r.name == "leakage-control")
    assert control.passed
    assert "findings with identity cipher" in control.detail


def test_leakage_scan_refuses_short_secrets():
    # A short secret would match random ciphertext, so it gets no verdict.
    report = run_spec(parse_spec(minimal_raw(checks=["leakage"])))
    secrets = dict(report.world.secrets(), short=b"A4")
    with pytest.raises(ValueError, match="'short' is 2 bytes"):
        leakage_scan(report.world.sim.wire_log, secrets)
    with pytest.raises(ValueError, match="'empty' is 0 bytes"):
        leakage_scan([], {"empty": b""})


# -- command line ----------------------------------------------------------------------


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_lists_bundled_scenarios():
    result = invoke("list-scenarios")
    assert result.exit_code == 0
    for name in BUNDLED:
        assert name in result.output


def test_cli_runs_a_bundled_scenario_to_pass():
    result = invoke("run", "happy-oneway")
    assert result.exit_code == 0, result.output
    assert "result: PASS" in result.output


def test_cli_unknown_scenario_is_a_usage_error():
    result = invoke("run", "no-such-thing")
    assert result.exit_code == 2
    assert "no-such-thing" in result.stderr
    assert "happy-oneway" in result.stderr  # the listing helps the caller


def test_cli_scenario_error_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 1\nname: x\nflow: sideways\nclients: []\n")
    result = invoke("run", str(bad))
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert "flow" in result.stderr


def test_cli_failing_run_exits_1(tmp_path):
    spec = tmp_path / "red.yaml"
    spec.write_text(
        """
schema: 1
name: red
flow: one-way
clients:
  - username: alice
    password: pw
    pin: "00112233445566aa"
    cell: "+1"
    account_id: ACC-1001
    balance: 1000
    vault_password: vp
    tic_batch: 1
    payments:
      - {amount: 10, payee: ACC-9914}
expect:
  outcomes: [aborted]
"""
    )
    result = invoke("run", str(spec))
    assert result.exit_code == 1
    assert "check expect-outcomes: FAIL" in result.output


def test_cli_writes_trace_and_report_files(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.txt"
    result = invoke(
        "run", "happy-oneway",
        "--trace-out", str(trace_path),
        "--report-out", str(report_path),
    )
    assert result.exit_code == 0
    lines = trace_path.read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0]["seq"] == 1
    deliveries = [e for e in events if e["kind"] == "deliver"]
    assert deliveries[0]["msg_type"] == "tic_provision"
    assert "result: PASS" in report_path.read_text()


def test_cli_trace_file_is_the_export_of_the_same_run(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    result = invoke("run", "happy-twoway", "--trace-out", str(trace_path))
    assert result.exit_code == 0, result.output
    report = run_spec(load_spec(find_bundled("happy-twoway")))
    assert trace_path.read_bytes() == report.world.sim.trace.export_jsonl().encode("utf-8")


def test_cli_trace_is_seed_reproducible(tmp_path):
    out = []
    for run_dir in ("a", "b"):
        trace_path = tmp_path / run_dir
        result = invoke("run", "happy-oneway", "--seed", "99",
                        "--trace-out", str(trace_path))
        assert result.exit_code == 0
        out.append(trace_path.read_bytes())
    assert out[0] == out[1]


def test_cli_cipher_override_runs_the_leakage_control():
    result = invoke("run", "happy-oneway", "--cipher", "null")
    assert result.exit_code == 0, result.output
    assert "leakage-control" in result.output


def test_cli_rejects_unknown_checks():
    result = invoke("run", "happy-oneway", "--checks", "leakage,nonsense")
    assert result.exit_code == 2
    assert result.stderr == "error: --checks: unknown check 'nonsense'\n"
    # an empty list used to run no checks at all and report PASS
    for empty in ("", " , "):
        result = invoke("run", "happy-oneway", "--checks", empty)
        assert result.exit_code == 2
        assert result.stderr == "error: --checks: name at least one check\n"


def test_cli_verbose_prints_events():
    result = invoke("run", "happy-oneway", "-v")
    assert result.exit_code == 0
    assert '"kind": "deliver"' in result.output or "'kind': 'deliver'" in result.output


def test_a_raising_handler_is_a_failing_verdict_with_its_artifacts(tmp_path, monkeypatch):
    def boom(self, ctx, env):
        raise RuntimeError("boom")

    monkeypatch.setitem(ClientAgent._HANDLERS, "txn_result", boom)
    report = run_spec(load_spec(find_bundled("happy-oneway")))
    result = next(r for r in report.results if r.name == "actor-fault")
    last = next(e for e in reversed(report.world.sim.trace.events) if e.kind == "deliver")
    assert last.msg_type == "txn_result"
    assert not result.passed and not report.passed
    assert result.detail == f"alice raised RuntimeError handling seq={last.seq}: boom"

    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.txt"
    cli = invoke("run", "happy-oneway", "--trace-out", str(trace_path),
                 "--report-out", str(report_path))
    assert cli.exit_code == 1
    assert "check actor-fault: FAIL (alice raised RuntimeError" in report_path.read_text()
    assert trace_path.read_bytes() == report.world.sim.trace.export_jsonl().encode("utf-8")
