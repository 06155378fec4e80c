"""Discrete-event bus: determinism, ordering, and scripted interference."""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ticpay.errors import ScenarioError, StepBudgetExceeded, WireError
from ticpay.netsim import (
    TRACE_CHUNK,
    Actor,
    AdversaryScript,
    Drop,
    ProtocolTrace,
    Replay,
    Rule,
    Simulation,
    Tamper,
    TraceEvent,
    digest16,
)
from ticpay.wire import Channel, Envelope


def msg(sender, receiver, msg_type, channel=Channel.WEB, body=None, **kw) -> Envelope:
    return Envelope(sender=sender, receiver=receiver, channel=channel,
                    msg_type=msg_type, body=dict(body or {}), **kw)


class Recorder(Actor):
    """Collects everything routed at it, with the time it arrived,
    including envelopes whose body did not decode."""

    def __init__(self, name):
        self.name = name
        self.got = []
        self.arrivals = []
        self.malformed = []
        self.timers = []

    def on_message(self, ctx, env):
        self.got.append(env)
        self.arrivals.append(ctx.now)

    def on_malformed(self, ctx, env):
        self.malformed.append(env)

    def on_timer(self, ctx, label):
        self.timers.append((ctx.now, label))


class Opener(Actor):
    """Sends a scripted burst at start."""

    def __init__(self, name, envelopes, delays=None):
        self.name = name
        self.envelopes = envelopes
        self.delays = delays or [0] * len(envelopes)

    def on_start(self, ctx):
        for env, delay in zip(self.envelopes, self.delays):
            ctx.send(env, delay=delay)


class Chatterbox(Actor):
    """Answers every message with another one, forever."""

    def __init__(self, name, peer):
        self.name = name
        self.peer = peer

    def on_start(self, ctx):
        ctx.send(msg(self.name, self.peer, "ping"))

    def on_message(self, ctx, env):
        ctx.send(msg(self.name, env.sender, "ping"))


def simulate(actors, adversary=None, **kw) -> Simulation:
    sim = Simulation(adversary=adversary, **kw)
    for actor in actors:
        sim.add_actor(actor)
    sim.run_to_quiescence()
    return sim


def test_latency_defaults_order_deliveries_by_channel():
    sink = Recorder("sink")
    opener = Opener("src", [
        msg("src", "sink", "slow", channel=Channel.SMS),
        msg("src", "sink", "mid", channel=Channel.INTERBANK),
        msg("src", "sink", "fast", channel=Channel.WEB),
    ])
    sim = simulate([opener, sink])
    assert [e.msg_type for e in sink.got] == ["fast", "mid", "slow"]
    assert sink.arrivals == [1, 2, 3]


def test_same_channel_is_fifo():
    # Three sends share each instant, so order within an instant rests on
    # the heap's tie-breaking, not on distinct arrival times.
    sink = Recorder("sink")
    opener = Opener(
        "src",
        [msg("src", "sink", f"m{i}") for i in range(12)],
        delays=[i // 3 for i in range(12)],
    )
    simulate([opener, sink])
    assert [e.msg_type for e in sink.got] == [f"m{i}" for i in range(12)]
    assert sink.arrivals == sorted(sink.arrivals)


def test_trace_is_reproducible():
    def one_run():
        sink = Recorder("sink")
        opener = Opener("src", [msg("src", "sink", f"m{i}") for i in range(6)],
                        delays=list(range(6)))
        sim = Simulation()
        sim.add_actor(opener)
        sim.add_actor(sink)
        sim.run_to_quiescence()
        return sim.trace.export_jsonl()

    assert one_run() == one_run()


def test_drop_suppresses_delivery():
    sink = Recorder("sink")
    opener = Opener("src", [msg("src", "sink", "a"), msg("src", "sink", "b")])
    adversary = AdversaryScript(rules=[Rule(action=Drop(), msg_type="a")])
    sim = simulate([opener, sink], adversary)
    assert [e.msg_type for e in sink.got] == ["b"]
    assert sim.trace.find(kind="drop")
    # the attempt still hit the wire log before it was dropped
    assert [r.msg_type for r in sim.wire_log] == ["a", "b"]


def test_replay_counts_occurrences_across_copies():
    sink = Recorder("sink")
    # nth=1 replays only the original; the copy is occurrence 2 and no rule
    # matches it, so exactly one extra delivery appears.
    adversary = AdversaryScript(
        rules=[Rule(action=Replay(delay=5), msg_type="a", nth=1)]
    )
    simulate([Opener("src", [msg("src", "sink", "a")]), sink], adversary)
    assert [e.msg_type for e in sink.got] == ["a", "a"]
    assert sink.arrivals == [1, 6]


def test_replay_copies_fan_out():
    sink = Recorder("sink")
    adversary = AdversaryScript(
        rules=[Rule(action=Replay(delay=3, copies=2), msg_type="a", nth=1)]
    )
    simulate([Opener("src", [msg("src", "sink", "a")]), sink], adversary)
    assert sink.arrivals == [1, 4, 7]


def test_unbounded_rule_matches_every_occurrence():
    sink = Recorder("sink")
    adversary = AdversaryScript(rules=[Rule(action=Drop(), msg_type="a")])
    opener = Opener("src", [msg("src", "sink", "a") for _ in range(3)],
                    delays=[0, 1, 2])
    simulate([opener, sink], adversary)
    assert sink.got == []


def test_tamper_corrupts_the_body_but_not_routing():
    sink = Recorder("sink")
    env = msg("src", "sink", "a", body={1: b"hello"})
    adversary = AdversaryScript(
        # offset 2 is the field length prefix; the header stays routable but
        # the strict body decoder has to balk
        rules=[Rule(action=Tamper(edits=((2, 0xFF),)), msg_type="a")]
    )
    sim = simulate([Opener("src", [env]), sink], adversary)
    assert sink.got == []
    assert len(sink.malformed) == 1
    assert sink.malformed[0] == msg("src", "sink", "a")  # the header, no body
    assert sim.trace.find(kind="reject-parse")
    # both the original and the corrupted transmission are on the wire log
    datas = [r.data for r in sim.wire_log if r.msg_type == "a"]
    assert len(datas) == 2 and datas[0] != datas[1]


def test_tamper_offset_must_stay_inside_the_body():
    env = msg("src", "sink", "a", body={1: b"x"})
    adversary = AdversaryScript(
        rules=[Rule(action=Tamper(edits=((99, 1),)), msg_type="a")]
    )
    sim = Simulation(adversary=adversary)
    sim.add_actor(Opener("src", [env]))
    sim.add_actor(Recorder("sink"))
    with pytest.raises(ScenarioError, match="outside body"):
        sim.run_to_quiescence()


def test_rule_filters_compose():
    sink = Recorder("sink")
    adversary = AdversaryScript(rules=[
        Rule(action=Drop(), channel=Channel.SMS, msg_type="a", nth=2),
    ])
    opener = Opener("src", [
        msg("src", "sink", "a", channel=Channel.SMS),
        msg("src", "sink", "a", channel=Channel.WEB),  # different channel: not counted
        msg("src", "sink", "a", channel=Channel.SMS),  # SMS occurrence 2: dropped
        msg("src", "sink", "a", channel=Channel.SMS),
    ], delays=[0, 0, 1, 2])
    simulate([opener, sink], adversary)
    arrived = [(e.channel, at) for e, at in zip(sink.got, sink.arrivals)]
    assert (Channel.WEB, 1) in arrived
    assert len([c for c, _ in arrived if c is Channel.SMS]) == 2


def test_injection_enters_the_wire_like_any_transmission():
    sink = Recorder("sink")
    forged = msg("ghost", "sink", "spoof", body={1: b"boo"}).to_bytes()
    adversary = AdversaryScript(injections=[(4, forged)])
    sim = simulate([sink], adversary)
    assert [e.msg_type for e in sink.got] == ["spoof"]
    assert sink.got[0].sender == "ghost"
    assert sim.trace.find(kind="inject")


def test_injection_without_a_valid_header_fails_at_start():
    good = msg("ghost", "sink", "spoof").to_bytes()
    adversary = AdversaryScript(injections=[(1, good), (1, b"garbage")])
    sim = Simulation(adversary=adversary)
    sim.add_actor(Recorder("sink"))
    with pytest.raises(ScenarioError, match=r"injections\[1\]: bad envelope magic"):
        sim.start()


def test_one_adversary_script_drives_independent_runs():
    adversary = AdversaryScript(rules=[Rule(action=Drop(), msg_type="a", nth=1)])
    burst = [msg("src", "sink", "a", body={1: b"x"}), msg("src", "sink", "a", body={1: b"y"})]
    for _ in range(2):
        sink = Recorder("sink")
        simulate([Opener("src", burst), sink], adversary)
        assert [e.body for e in sink.got] == [{1: b"y"}]


def test_unknown_receiver_is_dropped_with_a_note():
    sim = simulate([Opener("src", [msg("src", "nobody", "a")])])
    drops = sim.trace.find(kind="drop")
    assert drops and drops[0].note == "no such receiver"


def test_step_budget_stops_runaway_scenarios():
    ping = Chatterbox("ping", "pong")
    pong = Chatterbox("pong", "ping")
    sim = Simulation(step_budget=200)
    sim.add_actor(ping)
    sim.add_actor(pong)
    with pytest.raises(StepBudgetExceeded):
        sim.run_to_quiescence()


def test_timers_fire_and_cancel():
    class TimerUser(Recorder):
        def on_start(self, ctx):
            ctx.set_timer("keep", 5)
            token = ctx.set_timer("drop", 3)
            ctx.cancel_timer(token)

    actor = TimerUser("t")
    sim = simulate([actor])
    assert actor.timers == [(5, "keep")]
    labels = [e.note for e in sim.trace.find(kind="timer")]
    assert labels == ["keep"]


def test_a_cancelled_last_timer_moves_no_clock_and_spends_no_step():
    # The run's last heap entry is a cancelled timer. It is no event, so the
    # clock stays at the last event processed, its token is let go, and a
    # budget of exactly the processed events is enough.
    class TimerUser(Recorder):
        def on_start(self, ctx):
            ctx.set_timer("keep", 5)
            ctx.cancel_timer(ctx.set_timer("late", 50))

    actor = TimerUser("t")
    sim = simulate([actor], step_budget=1)
    assert actor.timers == [(5, "keep")]
    assert sim.now == 5
    assert sim._cancelled == set()


def test_after_event_hook_runs_at_every_instant():
    sink = Recorder("sink")
    opener = Opener("src", [msg("src", "sink", f"m{i}") for i in range(3)])
    sim = Simulation()
    sim.add_actor(opener)
    sim.add_actor(sink)
    instants = []
    sim.after_event = lambda s: instants.append(s.now)
    sim.run_to_quiescence()
    assert len(instants) == 6  # three sends, three deliveries
    assert instants == sorted(instants)


def test_events_cannot_be_scheduled_in_the_past():
    sim = Simulation()
    sim.now = 10
    with pytest.raises(ScenarioError, match="past"):
        sim.set_timer("nobody", "late", at=3)


def test_duplicate_actor_names_are_rejected():
    sim = Simulation()
    sim.add_actor(Recorder("twin"))
    with pytest.raises(ScenarioError, match="duplicate"):
        sim.add_actor(Recorder("twin"))


def test_trace_export_is_one_json_object_per_line():
    import json

    sink = Recorder("sink")
    sim = simulate([Opener("src", [msg("src", "sink", "a")]), sink])
    lines = sim.trace.export_jsonl().strip().splitlines()
    assert len(lines) == len(sim.trace.events)
    parsed = [json.loads(line) for line in lines]
    assert [p["seq"] for p in parsed] == list(range(1, len(lines) + 1))
    assert parsed[0]["kind"] == "send"
    # raw payloads never appear in a trace, digests do
    assert parsed[0]["body_digest"] == digest16(sim.wire_log[0].data)


def test_wire_record_cites_the_send_event():
    sink = Recorder("sink")
    sim = simulate([Opener("src", [msg("src", "sink", "a")]), sink])
    record = sim.wire_log[0]
    event = sim.trace.events[record.seq - 1]
    assert event.seq == record.seq
    assert event.kind == "send"
    assert event.msg_type == "a"


def test_wire_records_with_equal_tags_share_one_tuple():
    bodies = [{3: b"x", 1: b"y"}, {1: b"z", 3: b"w"}, {2: b"v"}, {3: b"u", 1: b"t"}]
    envelopes = [msg("src", "sink", f"m{i}", body=body) for i, body in enumerate(bodies)]
    sim = simulate([Opener("src", envelopes), Recorder("sink")])
    tags = [record.tags for record in sim.wire_log]
    assert tags == [tuple(sorted(body)) for body in bodies]
    assert tags[0] is tags[1] is tags[3]


# Any text, lone surrogates included: the default alphabet leaves them out.
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
any_int = st.one_of(st.sampled_from([0, -1, 2**63, -(2**70)]), st.integers(),
                    st.sampled_from(list(Channel)))  # an IntEnum prints as its value


@given(st.tuples(*(st.none() | (any_int if name == "at" else any_text)
                   for name in TraceEvent._fields[1:])))
@example((0, "note", None, None, None, None, None, None,
          '"\\\x00\x1f\x7f é \ud800 \U0001f600'))
@example((None,) * 9)
def test_trace_lines_are_byte_identical_to_json_dumps(cells):
    trace = ProtocolTrace()
    assert (trace.record(*cells), trace.record(*cells)) == (1, 2)
    events = list(trace.events)
    assert [(e.seq, e[1:]) for e in events] == [(1, cells), (2, cells)]
    text = "".join(json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in events)
    assert trace.export_jsonl() == text
    assert trace.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def mixed_trace(n: int) -> ProtocolTrace:
    """`n` events of every kind the bus records; one note needs JSON escapes."""
    kinds = ["send", "deliver", "drop", "tamper", "replay", "inject", "reject-parse",
             "timer", "note"]
    trace = ProtocolTrace()
    for seq in range(1, n + 1):
        kind = kinds[seq % len(kinds)]
        note = 'tab\t "quote" back\\slash é \ud800' if seq == n // 2 + 1 else None
        if kind == "note" and note is None:
            note = f"note {seq}"
        trace.record(
            seq // 3, kind, channel="WEB" if kind != "note" else None,
            sender=f"actor-{seq % 5}", receiver="bank" if kind != "timer" else None,
            msg_type=None if kind in ("note", "timer") else "login_request",
            body_digest=f"{seq:016x}" if kind != "note" else None, note=note)
    return trace


def test_the_events_view_reads_like_a_list_of_events():
    n = 2 * TRACE_CHUNK + 3
    trace = mixed_trace(n)
    events = trace.events
    listed = list(events)
    assert len(events) == len(listed) == n
    assert [e.seq for e in listed] == list(range(1, n + 1))
    assert listed == [events[i] for i in range(n)]
    assert (events[-1], events[-n]) == (listed[-1], listed[0])
    for cut in (slice(5, 9), slice(TRACE_CHUNK - 2, None), slice(None, None, -7),
                slice(n, None), slice(-3, -1)):
        assert events[cut] == listed[cut]
    assert list(reversed(events)) == listed[::-1]
    for past_the_end in (n, -n - 1):
        with pytest.raises(IndexError):
            events[past_the_end]
    with pytest.raises(TypeError):
        events[0] = listed[0]
    assert events and not ProtocolTrace().events
    assert list(trace.select("note", "sender", "note")) == [
        (e.seq, e.sender, e.note) for e in listed if e.kind == "note"]
    assert list(trace.select("timer")) == [(e.seq,) for e in listed if e.kind == "timer"]


def test_recording_keeps_no_object_per_event():
    # The trace keeps nine cells per event in one list: 72 B of slots plus
    # the list's growth margin, and no object of the event's own.
    n = 20_000
    trace = ProtocolTrace()
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        for _ in range(n):
            trace.record(7, "deliver", "WEB", "alice", "bank", "login_request", "alice-R001",
                         "00ff00ff00ff00ff")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 80 * n, f"{retained / n:.1f} B per event"
    assert len(gc.get_objects()) - tracked < 100
    assert len(trace.events) == n


@pytest.mark.parametrize("n", [0, 1, TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1,
                               2 * TRACE_CHUNK + 1])
def test_chunked_export_and_digest_match_json_dumps_at_chunk_edges(n):
    trace = mixed_trace(n)
    text = "".join(json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in trace.events)
    assert trace.export_jsonl() == text
    assert trace.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert len(list(trace.chunks())) == -(-n // TRACE_CHUNK)


def test_digest_reads_the_trace_without_holding_all_its_lines():
    trace = mixed_trace(20_000)
    tracemalloc.start()
    try:
        trace.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"digest peaked at {peak} bytes"
