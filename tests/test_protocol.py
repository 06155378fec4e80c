"""The protocol table against what it derives and against live traffic.

Each derived value is pinned to the literal list it replaced, kept here as
the oracle. Every transmission an actor puts on the wire must match its
row: sender role, receiver role, channel, and body tags within the row's.
Each actor answers exactly the message types its role receives. Worlds
with several clients are checked per client, so clean ones pass
conformance in any client order, and an attack on one client fails only
that client.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from ticpay.auth_server import BankActor
from ticpay.checks import MERCHANT_SCHEMAS, conformance_check
from ticpay.netsim import AdversaryScript, Ctx
from ticpay.protocol import (
    ANSWERS,
    BANK,
    CLIENT,
    MERCHANT,
    MERCHANT_BANK,
    MESSAGES,
    MSG_TYPES,
    ONE_WAY_TEMPLATE,
    PROTOCOL,
    TEMPLATES,
    TWO_WAY_TEMPLATE,
    read_amount,
    read_text,
    send,
)
from ticpay.scenarios import (
    MSG_TYPES as SCENARIO_MSG_TYPES,
    World,
    bundled_dir,
    build_world,
    find_bundled,
    list_bundled,
    load_spec,
    parse_spec,
    run_spec,
)
from ticpay.two_way import TwoWayGateway
from ticpay.wire import Channel, Envelope, F

from test_scenarios_cli import load_workloads
from test_tamper import grid

# -- the lists the table replaced, as they were written by hand -----------------------

OLD_ONE_WAY_TEMPLATE = [
    "tic_provision", "login_request", "login_response", "mode_select", "mode_ack",
    "payment_submit", "submit_ack", "sms_challenge", "sms_reply", "txn_result",
]
OLD_TWO_WAY_TEMPLATE = [
    "tic_provision", "login_request", "login_response", "checkout_request", "invoice",
    "merchant_auth_request", "merchant_auth_forward", "merchant_auth_verdict",
    "merchant_auth_ack", "mode_select", "mode_ack", "payment_submit", "submit_ack",
    "sms_challenge", "sms_reply", "txn_result", "payment_notice", "settle_notice",
    "payment_confirmation",
]
OLD_MERCHANT_SCHEMAS = {
    "checkout_request": frozenset(),
    "payment_confirmation": frozenset(
        {int(F.INVOICE_NUMBER), int(F.AMOUNT), int(F.CUSTOMER_REF)}),
}
OLD_GATEWAY_HANDLED = frozenset({"merchant_auth_request", "merchant_auth_verdict"})


def test_derived_values_equal_the_hand_kept_lists():
    assert ONE_WAY_TEMPLATE == OLD_ONE_WAY_TEMPLATE
    assert TWO_WAY_TEMPLATE == OLD_TWO_WAY_TEMPLATE
    assert TEMPLATES == {"one-way": OLD_ONE_WAY_TEMPLATE, "two-way": OLD_TWO_WAY_TEMPLATE}
    assert MSG_TYPES == SCENARIO_MSG_TYPES == frozenset(OLD_TWO_WAY_TEMPLATE)
    assert MERCHANT_SCHEMAS == OLD_MERCHANT_SCHEMAS
    assert TwoWayGateway.HANDLED == OLD_GATEWAY_HANDLED


def test_one_row_per_message_type_and_every_tag_has_a_row():
    assert len(MESSAGES) == len(PROTOCOL)
    allowed = set().union(*(row.tags for row in PROTOCOL))
    assert {int(tag) for tag in F} <= allowed
    assert allowed <= {int(tag) for tag in F}


# -- the answer edges ------------------------------------------------------------------


def test_each_request_expects_the_answers_that_name_it():
    assert ANSWERS == {
        "login_request": ("login_response",),
        "checkout_request": ("invoice",),
        "merchant_auth_forward": ("merchant_auth_verdict",),
        "merchant_auth_request": ("merchant_auth_ack",),
        "mode_select": ("mode_ack",),
        "payment_submit": ("submit_ack", "sms_challenge", "txn_result"),
    }


def test_an_answer_goes_back_the_way_its_request_came():
    for row in PROTOCOL:
        if row.answers:
            request = MESSAGES[row.answers]
            assert (row.sender, row.receiver) == (request.receiver, request.sender), row


def test_a_client_receives_answers_and_two_pushes_only():
    pushes = [m.msg_type for m in PROTOCOL if m.receiver == CLIENT and not m.answers]
    assert pushes == ["tic_provision", "payment_notice"]


# -- the codec ------------------------------------------------------------------------


class Recorder:
    """A stand-in for a simulation's Ctx that keeps what is sent."""

    actor_name = "cbank"

    def __init__(self):
        self.sent = []

    def send(self, env, delay=0):
        self.sent.append((env, delay))


def test_send_takes_the_channel_from_the_row_and_encodes_plain_values():
    ctx = Recorder()
    send(ctx, "sms_challenge", "alice", {
        F.TXN_ID: "T0001", F.AMOUNT: 4999, F.ACCOUNT_REF: "\u00e9", F.CELL: None,
    }, request_id="R1", delay=3)
    send(ctx, "submit_ack", "alice", {F.STATUS: b"\x00"}, cookie="c")
    (challenge, delay), (ack, _) = ctx.sent
    assert delay == 3
    assert (challenge.sender, challenge.receiver, challenge.channel, challenge.request_id) \
        == ("cbank", "alice", Channel.SMS, "R1")
    assert challenge.body == {int(F.TXN_ID): b"T0001",
                              int(F.AMOUNT): (4999).to_bytes(8, "big"),
                              int(F.ACCOUNT_REF): "\u00e9".encode("utf-8")}
    assert (ack.channel, ack.cookie, ack.body) == (Channel.WEB, "c", {int(F.STATUS): b"\x00"})


def test_reads_give_the_empty_value_for_a_missing_or_undecodable_field():
    body = {int(F.REASON): b"\xc3\xa9", int(F.TXN_ID): b"T\x80",
            int(F.AMOUNT): bytes(7) + b"\x05"}
    assert read_text(body, F.REASON) == "\u00e9"
    assert read_text(body, F.TXN_ID) == read_text(body, F.CELL) == ""
    assert read_amount(body) == 5
    # only a u64 is an amount: nine bytes would overflow the u64 it is sent on
    assert read_amount({}) == read_amount({int(F.AMOUNT): b"\x01" + bytes(8)}) == 0


# -- traffic against the table -------------------------------------------------------


def roles(world: World) -> dict:
    out = {world.bank_actor.name: BANK}
    out.update((client.name, CLIENT) for client in world.clients)
    if world.merchant_bank is not None:
        out[world.merchant_bank.name] = MERCHANT_BANK
        out[world.merchant_agent.name] = MERCHANT
    return out


def off_table(world: World) -> list:
    """Every actor-sent transmission that breaks its row, as a readable line.

    Injections and tampered copies are not an actor's sends; a replayed copy
    is the bytes an actor sent, so it is checked."""
    kinds = {e.seq: e.kind for e in world.sim.trace.events}
    role = roles(world)
    breaks = []
    for record in world.sim.wire_log:
        if kinds[record.seq] == "tamper" or kinds.get(record.seq - 1) == "inject":
            continue
        row = MESSAGES[record.msg_type]
        got = (role.get(record.sender), role.get(record.receiver), record.channel)
        if got != (row.sender, row.receiver, row.channel) or not set(record.tags) <= row.tags:
            breaks.append(f"seq={record.seq} {record.msg_type} {got} tags={record.tags}")
    return breaks


@pytest.mark.parametrize("name", [e["name"] for e in list_bundled()])
def test_every_bundled_send_matches_its_row(name):
    spec = load_spec(find_bundled(name))
    for seed in range(10):
        world = run_spec(replace(spec, seed=seed)).world
        assert world.sim.wire_log
        assert off_table(world) == [], (name, seed)


@pytest.mark.parametrize("flow", ["one-way", "two-way"])
def test_every_crowd_send_matches_its_row(flow):
    crowd = load_workloads().crowd(f"test-{flow}", flow, 8, 3)
    world = run_spec(parse_spec(crowd.document(crowd.schedule[0]))).world
    assert len(world.clients) == 8
    assert off_table(world) == []


def answered(world: World, actor) -> set:
    """The message types `actor` hands to a handler rather than noting and
    ignoring, probed with one empty-bodied envelope of each type."""
    ctx = Ctx(world.sim, actor.name)
    out = set()
    for msg_type in sorted(MSG_TYPES):
        row = MESSAGES[msg_type]
        before = len(world.sim.trace.events)
        actor.on_message(ctx, Envelope("probe", actor.name, row.channel, msg_type))
        notes = [e.note for e in world.sim.trace.events[before:] if e.kind == "note"]
        if f"ignored msg_type={msg_type}" not in notes:
            out.add(msg_type)
    return out


def test_each_actor_answers_exactly_what_its_role_receives():
    def receives(role, flow):
        return {m.msg_type for m in PROTOCOL
                if m.receiver == role and (flow == "two-way" or not m.two_way_only)}

    one_way = build_world(load_spec(find_bundled("happy-oneway")))
    assert type(one_way.bank_actor) is BankActor
    assert answered(one_way, one_way.bank_actor) == receives(BANK, "one-way")
    two_way = build_world(load_spec(find_bundled("happy-twoway")))
    assert type(two_way.bank_actor) is TwoWayGateway
    assert answered(two_way, two_way.bank_actor) == receives(BANK, "two-way")
    assert answered(two_way, two_way.merchant_bank) == receives(MERCHANT_BANK, "two-way")
    assert answered(two_way, two_way.merchant_agent) == receives(MERCHANT, "two-way")
    # The client speaks both flows; its merchant setting picks the path.
    for world in (one_way, two_way):
        assert answered(world, world.clients[0]) == receives(CLIENT, "two-way")


def test_the_bank_answers_on_the_reply_row_channel_not_the_request_channel():
    forged = Envelope("mallory", "cbank", Channel.SMS, "login_request",
                      {int(F.USERNAME): b"mallory", int(F.PASSWORD): b"guess"}).to_bytes()
    spec = load_spec(find_bundled("happy-oneway"))
    world = run_spec(replace(spec, adversary=AdversaryScript(injections=((5, forged),)))).world
    answers = [e for e in world.sim.trace.events
               if e.kind == "send" and e.msg_type == "login_response" and e.receiver == "mallory"]
    assert [e.channel for e in answers] == ["WEB"]


# -- conformance per client ---------------------------------------------------------


def bundled_raw(name: str) -> dict:
    return yaml.safe_load((Path(str(bundled_dir())) / f"{name}.yaml").read_text())


def with_bob(name: str, bob_first: bool = False, **overrides) -> dict:
    """A bundled happy scenario with a second, equally clean client."""
    raw = dict(bundled_raw(name), **overrides)
    alice = raw["clients"][0]
    bob = dict(alice, username="bob", password="bob-pw", cell="+15550100002",
               account_id="ACC-1002", vault_password="bob-vault")
    raw["clients"] = [bob, alice] if bob_first else [alice, bob]
    raw["expect"] = {"notes": ["txn-committed"]}  # outcomes are one client's
    return raw


@pytest.mark.parametrize("bob_first", [False, True])
@pytest.mark.parametrize("name", ["happy-oneway", "happy-twoway"])
def test_clean_two_client_worlds_conform_in_either_order(name, bob_first):
    report = run_spec(parse_spec(with_bob(name, bob_first)))
    assert report.passed, report.render()
    assert [c.outcomes for c in report.world.clients] == [["committed"], ["committed"]]


@pytest.mark.parametrize("name", ["happy-oneway", "happy-twoway"])
def test_a_replay_against_one_client_fails_only_that_client(name):
    replayed = {"rules": [{"action": "replay", "msg_type": "payment_submit", "nth": 1,
                           "delay": 4}]}
    report = run_spec(parse_spec(with_bob(name, adversary=replayed)))
    trace = report.world.sim.trace
    victim = next(e.sender for e in trace.events
                  if e.kind == "send" and e.msg_type == "payment_submit")
    outcome = conformance_check(trace, TEMPLATES[report.world.spec.flow], ["alice", "bob"])
    assert (outcome.ok, outcome.client, outcome.diverged) == (False, victim, 1)
    assert outcome.got == "payment_submit"


# -- a replayed vault neither crashes a run nor costs a payment ------------------------


def provision_replays(name: str, payments_twice: bool):
    raw = bundled_raw(name)
    if payments_twice:
        raw["clients"][0]["payments"] *= 2
        raw["expect"] = {}
    yield None, run_spec(parse_spec(raw))
    for delay in range(1, 40):
        raw["adversary"] = {"rules": [{"action": "replay", "msg_type": "tic_provision",
                                       "nth": 1, "delay": delay}]}
        yield delay, run_spec(parse_spec(raw))


committed = grid.committed


@pytest.mark.parametrize("name, payments_twice", [("happy-twoway", False),
                                                  ("happy-oneway", True)])
def test_a_replayed_provision_is_ignored_at_every_delay(name, payments_twice):
    runs = provision_replays(name, payments_twice)
    _, untouched = next(runs)
    baseline = committed(untouched)
    assert sum(baseline.values()) == (2 if payments_twice else 1)
    for delay, report in runs:
        names = {r.name for r in report.results}
        assert not names & {"actor-fault", "step-budget"}, (delay, report.render())
        notes = [e.note for e in report.world.sim.trace.events if e.kind == "note"]
        assert not [n for n in notes if "cause=tic-already-used" in n], delay
        assert not committed(report) - baseline, delay
        second = sum(1 for e in report.world.sim.trace.events
                     if e.kind == "deliver" and e.msg_type == "tic_provision") - 1
        assert notes.count("provision-ignored cause=vault-held") == second, delay
