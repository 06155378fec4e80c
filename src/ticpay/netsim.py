"""Deterministic multi-party message bus with an in-path adversary.

Actors exchange envelopes over lossy ordered channels driven by a single
event heap: integer-second clock, a fixed latency per channel (so each
channel is FIFO by construction) and explicit tie-breaking, so a run is
a pure function of its cast and script and every trace replays
byte-identically.

Every transmission passes the adversary hook exactly once, including
copies the adversary itself schedules; rules match on (channel, message
type, nth occurrence) and can drop, delay-replay, bit-tamper, or
inject. Tampering is confined to body bytes so corrupted messages
still route to their receiver, which gets the strict decoder's rejection.

A transmission is one envelope from send to delivery: the bytes, the
envelope they encode and their digest travel together, and replays,
delivery and the wire log read the envelope, not the bytes. A send
carries the sender's own envelope. Bytes no actor encoded (injections,
tampered copies) are read once, through `Envelope.from_bytes`; if their
body does not decode, the bus carries their header with an empty body and
the decoder's error, and delivery hands it to `on_malformed`.

The bus keeps a wire log of every byte that crossed a channel, with each
body's tags but not its field values; leakage scans run over that log, not
over the trace, which carries digests only.

The trace stores its events as one flat list of cells, nine per event
(`TraceEvent`'s fields after `seq`); an event's `seq` is its position,
counted from 1. So a recorded event costs nine list slots and no object
of its own, and the cycle collector tracks nothing per event.
`ProtocolTrace.events` is a read-only view that builds a `TraceEvent`
only when one is read. Every walk over the trace copies one chunk of
TRACE_CHUNK events' cells at a time: `ProtocolTrace.chunks` formats its
JSON lines straight from the cells, and the digest, the export and the
CLI's trace file read those chunks, so they never hold all of a trace's
lines in memory at once.

Ownership runs one way. Nothing a world owns points back at its owner:
the simulation holds its actors, an actor holds its own state, and a
`Ctx` is made for one handler call and held by no one after it, so an
actor never keeps a `Ctx` past its handler. A world's object graph thus
has no cycle, and a dropped run is freed by reference counting alone,
never by the cycle collector.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import eq
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import ActorFault, ScenarioError, StepBudgetExceeded, WireError
from .wire import Channel, Envelope, peek_header

LATENCY = {Channel.WEB: 1, Channel.SMS: 3, Channel.INTERBANK: 2}
_CHANNEL_NAMES = {channel: channel.name for channel in Channel}
DEFAULT_STEP_BUDGET = 10_000
TRACE_CHUNK = 512  # trace events per chunk that a walk over the trace copies


Tags = Tuple[int, ...]  # body tags in order


def digest16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _read(data: bytes) -> Tuple[bytes, Envelope, Optional[WireError], str]:
    """Read bytes no actor encoded into the transmission the bus carries:
    the bytes, their envelope, None and their digest; or, when the body
    does not decode, the header with an empty body and the decoder's
    error. Raises WireError if the header does not parse."""
    try:
        env, error = Envelope.from_bytes(data), None
    except WireError as exc:
        h = peek_header(data)
        env = Envelope(h.sender, h.receiver, h.channel, h.msg_type, {}, h.cookie, h.request_id)
        error = exc
    return data, env, error, digest16(data)


# -- trace ------------------------------------------------------------------


class TraceEvent(NamedTuple):
    seq: int
    at: int
    kind: str  # send | deliver | drop | tamper | replay | inject | reject-parse | timer | note
    channel: Optional[str] = None
    sender: Optional[str] = None
    receiver: Optional[str] = None
    msg_type: Optional[str] = None
    request_id: Optional[str] = None
    body_digest: Optional[str] = None
    note: Optional[str] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in zip(self._fields, self) if v is not None}


_CELLS = len(TraceEvent._fields) - 1  # cells per event: every field but seq
_CELL = {name: i for i, name in enumerate(TraceEvent._fields[1:])}  # name -> cell
_event = partial(tuple.__new__, TraceEvent)  # a TraceEvent from its ten fields

# (field index, '"name": ') for every TraceEvent field but seq, in key
# order; "seq" sorts after all of them, so each line ends with it
_KEYS = [(i, f"{encode_basestring_ascii(name)}: ")
         for i, name in sorted(enumerate(TraceEvent._fields), key=lambda p: p[1])
         if name != "seq"]


def _json_line(event: tuple) -> str:
    """The line ``json.dumps(TraceEvent(*event).as_dict(), sort_keys=True)``
    gives, plus its newline, without building an encoder per event.
    Strings are quoted as ``json`` quotes them; ints print through
    ``int.__repr__``, as ``json`` prints them, so an IntEnum never prints
    as its name."""
    parts = [key + (encode_basestring_ascii(value) if isinstance(value, str)
                    else int.__repr__(value))
             for i, key in _KEYS if (value := event[i]) is not None]
    parts.append(f'"seq": {event[0]}')
    return "{" + ", ".join(parts) + "}\n"


def _spans(cells: list) -> Iterator[Tuple[int, int]]:
    """The (start, stop) bounds of each TRACE_CHUNK events' cells, in
    order; a reader copies one chunk's cells at a time."""
    step = TRACE_CHUNK * _CELLS
    start = 0
    while start < len(cells):
        yield start, start + step
        start += step


def _rows(cells: list, start: int, stop: int) -> Iterator[tuple]:
    """The events of ``cells[start:stop]`` as plain tuples of TraceEvent's
    fields."""
    return zip(count(start // _CELLS + 1), *[iter(cells[start:stop])] * _CELLS)


class TraceEvents(Sequence):
    """Read-only view of a trace's events; an event is built when read."""

    __slots__ = ("_cells",)

    def __init__(self, cells: list):
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells) // _CELLS

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("trace index out of range")
        start = index * _CELLS
        return TraceEvent(index + 1, *self._cells[start:start + _CELLS])

    def __iter__(self) -> Iterator[TraceEvent]:
        cells = self._cells
        return map(_event, chain.from_iterable(
            _rows(cells, start, stop) for start, stop in _spans(cells)))


class ProtocolTrace:
    """Ordered event log; exports as JSON lines with stable key order."""

    def __init__(self):
        self._cells: list = []
        self.events = TraceEvents(self._cells)

    def record(self, at, kind, channel=None, sender=None, receiver=None, msg_type=None,
               request_id=None, body_digest=None, note=None) -> int:
        """Append one event from its nine cells; returns its seq."""
        cells = self._cells
        cells += (at, kind, channel, sender, receiver, msg_type, request_id, body_digest, note)
        return len(cells) // _CELLS

    def select(self, kind: str, *fields: str) -> Iterator[tuple]:
        """``(seq, *fields)`` of every event of one kind, in order, read
        from the cells one chunk at a time; no event is built."""
        cells = self._cells
        columns = [_CELL[name] for name in fields]
        return chain.from_iterable(
            compress(zip(count(start // _CELLS + 1),
                         *[cells[start + c:stop:_CELLS] for c in columns]),
                     map(eq, cells[start + _CELL["kind"]:stop:_CELLS], repeat(kind)))
            for start, stop in _spans(cells))

    def chunks(self) -> Iterator[str]:
        """The JSON lines of the events recorded so far, TRACE_CHUNK
        events to a chunk, in order."""
        cells = self._cells
        for start, stop in _spans(cells):
            yield "".join(map(_json_line, _rows(cells, start, stop)))

    def export_jsonl(self) -> str:
        return "".join(self.chunks())

    def digest(self) -> str:
        """SHA-256 of the exported JSON lines, read one chunk at a time."""
        sha = hashlib.sha256()
        for chunk in self.chunks():
            sha.update(chunk.encode("utf-8"))
        return sha.hexdigest()

    def find(self, kind: Optional[str] = None, msg_type: Optional[str] = None,
             note: Optional[str] = None) -> List[TraceEvent]:
        out = []
        for e in self.events:
            if kind is not None and e.kind != kind:
                continue
            if msg_type is not None and e.msg_type != msg_type:
                continue
            if note is not None and (e.note is None or note not in e.note):
                continue
            out.append(e)
        return out


class WireRecord(NamedTuple):
    """One transmission as it crossed a channel, raw bytes included.

    `seq` is the trace sequence number of the matching send event, so a
    finding against these bytes can cite a line in the exported trace.
    `tags` are the body tags of `data` in order, taken from the envelope
    carried with it, or None when the body does not decode; records of one
    run with equal tags share one tuple. The field values stay in `data`
    only.
    """

    seq: int
    at: int
    channel: Channel
    sender: str
    receiver: str
    msg_type: str
    data: bytes
    tags: Optional[Tags]


# -- adversary --------------------------------------------------------------


@dataclass(frozen=True)
class Drop:
    """Suppress delivery of the matched transmission."""


@dataclass(frozen=True)
class Replay:
    """Retransmit a copy of the matched bytes after `delay` seconds."""

    delay: int = 1
    copies: int = 1


@dataclass(frozen=True)
class Tamper:
    """XOR body bytes in place: edits are (offset-within-body, mask) pairs."""

    edits: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Rule:
    """Match a transmission by channel, message type, and occurrence index.

    `nth` is 1-based and counts transmissions of that (channel, msg_type)
    across the whole run, adversary copies included; None matches every
    occurrence.
    """

    action: object
    channel: Optional[Channel] = None
    msg_type: Optional[str] = None
    nth: Optional[int] = None

    def matches(self, env: Envelope, occurrence: int) -> bool:
        if self.channel is not None and env.channel != self.channel:
            return False
        if self.msg_type is not None and env.msg_type != self.msg_type:
            return False
        if self.nth is not None and occurrence != self.nth:
            return False
        return True


@dataclass(frozen=True)
class AdversaryScript:
    """Ordered rules applied to live traffic, plus standalone injections.

    Injections are (at, data) pairs entered into the wire at the given
    time; they pass the rule hook like any other transmission. The script
    is immutable and holds no run state, so one script can drive any
    number of runs.
    """

    rules: Tuple[Rule, ...] = ()
    injections: Tuple[Tuple[int, bytes], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "injections", tuple(self.injections))


# -- actors -----------------------------------------------------------------


class Actor:
    """Base participant: named, message- and timer-driven."""

    name: str = "actor"

    def on_start(self, ctx: "Ctx") -> None:
        pass

    def on_message(self, ctx: "Ctx", env: Envelope) -> None:
        pass

    def on_malformed(self, ctx: "Ctx", env: Envelope) -> None:
        """Called when a transmission routed here failed strict decoding;
        `env` holds its header fields and an empty body."""

    def on_timer(self, ctx: "Ctx", label: str) -> None:
        pass


class Ctx:
    """The handle an actor uses to act on the world, made for one handler
    call. The simulation keeps none, so an actor must not keep one either:
    a `Ctx` held past its handler would point the world back at itself."""

    __slots__ = ("_sim", "actor_name")

    def __init__(self, sim: "Simulation", actor_name: str):
        self._sim = sim
        self.actor_name = actor_name

    @property
    def now(self) -> int:
        return self._sim.now

    def send(self, env: Envelope, delay: int = 0) -> None:
        """Encode `env` and enter it into the wire after `delay` seconds;
        the bus carries `env` itself to the receiver. Raises the WireError
        of an envelope the encoder rejects."""
        data = env.to_bytes()
        self._sim._push(self._sim.now + delay, "send", (data, env, None, digest16(data)))

    def set_timer(self, label: str, delay: int) -> int:
        return self._sim.set_timer(self.actor_name, label, self._sim.now + delay)

    def cancel_timer(self, token: int) -> None:
        self._sim.cancel_timer(token)

    def note(self, text: str) -> None:
        self._sim.trace_note(self.actor_name, text)


# -- simulation -------------------------------------------------------------


class Simulation:
    """Single-threaded discrete-event run over a fixed cast of actors."""

    def __init__(
        self,
        adversary: Optional[AdversaryScript] = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.now = 0
        self.adversary = adversary or AdversaryScript()
        self.step_budget = step_budget
        self.trace = ProtocolTrace()
        self.wire_log: List[WireRecord] = []
        self._occurrences: Dict[Tuple[Channel, str], int] = {}
        self._actors: Dict[str, Actor] = {}
        self._order: List[str] = []
        self._heap: List[Tuple[int, int, str, tuple]] = []
        self._tie = 0
        self._tag_sets: Dict[Tags, Tags] = {}  # one tuple per distinct tag set
        self._timer_token = 0
        self._cancelled: set = set()
        self._steps = 0
        #: called after every processed event; lets tests assert invariants
        #: at each instant, not just at the end of a run
        self.after_event: Optional[Callable[["Simulation"], None]] = None

    # -- registration ------------------------------------------------------

    def add_actor(self, actor: Actor) -> None:
        if actor.name in self._actors:
            raise ScenarioError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor
        self._order.append(actor.name)

    # -- event plumbing ----------------------------------------------------

    def _push(self, at: int, kind: str, payload: tuple) -> None:
        if at < self.now:
            raise ScenarioError(f"event scheduled in the past ({at} < {self.now})")
        self._tie += 1
        heapq.heappush(self._heap, (at, self._tie, kind, payload))

    def _record(self, kind: str, channel=None, sender=None, receiver=None, msg_type=None,
                request_id=None, body_digest=None, note=None) -> int:
        return self.trace.record(self.now, kind, channel, sender, receiver, msg_type,
                                 request_id, body_digest, note)

    def trace_note(self, actor_name: str, text: str) -> None:
        self._record("note", sender=actor_name, note=text)

    # -- sending -----------------------------------------------------------

    def set_timer(self, actor_name: str, label: str, at: int) -> int:
        self._timer_token += 1
        token = self._timer_token
        self._push(at, "timer", (actor_name, label, token))
        return token

    def cancel_timer(self, token: int) -> None:
        self._cancelled.add(token)

    def _dispatch_send(self, data: bytes, env: Envelope, error: Optional[WireError],
                       digest: str) -> None:
        """Pass one transmission through the adversary onto its channel.

        `env` is what `data` encodes (its header alone, with `error`, when
        the body does not decode); only a tamper reads bytes here: it finds
        the body in `data`, then reads the corrupted copy once.
        """
        channel, msg_type = env.channel, env.msg_type
        key = (channel, msg_type)
        occurrence = self._occurrences[key] = self._occurrences.get(key, 0) + 1
        name = _CHANNEL_NAMES[channel]
        seq = self._record("send", name, env.sender, env.receiver, msg_type,
                           env.request_id or None, digest)
        self._log(seq, data, env, error)

        dropped = False
        for rule in self.adversary.rules:
            if not rule.matches(env, occurrence):
                continue
            action = rule.action
            if isinstance(action, Drop):
                dropped = True
                self._record("drop", channel=name, msg_type=msg_type, body_digest=digest)
            elif isinstance(action, Tamper):
                data, env, error, digest = _read(self._apply_tamper(data, action))
                seq = self._record("tamper", channel=name, msg_type=msg_type,
                                   body_digest=digest)
                # The corrupted bytes are what actually crosses the wire.
                self._log(seq, data, env, error)
            elif isinstance(action, Replay):
                for i in range(action.copies):
                    self._push(self.now + action.delay * (i + 1), "send",
                               (data, env, error, digest))
                self._record("replay", channel=name, msg_type=msg_type, body_digest=digest)
            else:
                raise ScenarioError(f"unknown adversary action {action!r}")

        if not dropped:
            self._push(self.now + LATENCY[channel], "deliver", (env, error, digest))

    def _log(self, seq: int, data: bytes, env: Envelope,
             error: Optional[WireError]) -> None:
        tags = None
        if error is None:
            tags = tuple(sorted(env.body))
            tags = self._tag_sets.setdefault(tags, tags)
        self.wire_log.append(WireRecord(
            seq, self.now, env.channel, env.sender, env.receiver, env.msg_type, data, tags))

    @staticmethod
    def _apply_tamper(data: bytes, action: Tamper) -> bytes:
        body_start = len(data) - len(peek_header(data).raw_body)
        buf = bytearray(data)
        for offset, mask in action.edits:
            idx = body_start + offset
            if not body_start <= idx < len(buf):
                raise ScenarioError(f"tamper offset {offset} outside body")
            buf[idx] ^= mask & 0xFF
        return bytes(buf)

    def _dispatch_deliver(self, env: Envelope, error: Optional[WireError],
                          digest: str) -> None:
        actor = self._actors.get(env.receiver)
        name = _CHANNEL_NAMES[env.channel]
        if actor is None:
            self._record("drop", channel=name, msg_type=env.msg_type,
                         note="no such receiver")
            return
        if error is None:
            seq = self._record("deliver", name, env.sender, env.receiver, env.msg_type,
                               env.request_id or None, digest)
            handler = actor.on_message
        else:
            seq = self._record("reject-parse", channel=name, sender=env.sender,
                               receiver=env.receiver, msg_type=env.msg_type,
                               note=str(error))
            handler = actor.on_malformed
        try:
            handler(Ctx(self, actor.name), env)
        except Exception as exc:
            raise ActorFault(actor.name, exc, seq) from exc

    # -- main loop ---------------------------------------------------------

    def start(self) -> None:
        """Read the injections and give every actor its opening move, in
        registration order."""
        injections = []
        for i, (at, data) in enumerate(self.adversary.injections):
            try:
                injections.append((at, _read(data)))
            except WireError as exc:
                raise ScenarioError(f"injections[{i}]: {exc}") from exc
        for at, payload in sorted(injections, key=lambda p: p[0]):
            self._push(max(at, self.now), "inject", payload)
        for name in self._order:
            try:
                self._actors[name].on_start(Ctx(self, name))
            except Exception as exc:
                raise ActorFault(name, exc, 0) from exc

    def run(self) -> None:
        """Drain the heap to quiescence; raises StepBudgetExceeded if the
        step budget is exceeded, and ActorFault if a handler raises."""
        while self._heap:
            at, _tie, kind, payload = heapq.heappop(self._heap)
            if kind == "timer" and payload[2] in self._cancelled:
                # A cancelled timer is no event: it moves no clock and
                # spends no step.
                self._cancelled.discard(payload[2])
                continue
            self._steps += 1
            if self._steps > self.step_budget:
                raise StepBudgetExceeded(
                    f"exceeded {self.step_budget} events; runaway scenario?")
            self.now = at
            if kind == "send":
                self._dispatch_send(*payload)
            elif kind == "deliver":
                self._dispatch_deliver(*payload)
            elif kind == "inject":
                self._record("inject", body_digest=payload[3])
                self._dispatch_send(*payload)
            elif kind == "timer":
                actor_name, label, _token = payload
                actor = self._actors.get(actor_name)
                seq = self._record("timer", receiver=actor_name, note=label)
                if actor is not None:
                    try:
                        actor.on_timer(Ctx(self, actor_name), label)
                    except Exception as exc:
                        raise ActorFault(actor_name, exc, seq) from exc
            if self.after_event is not None:
                self.after_event(self)

    def run_to_quiescence(self) -> None:
        self.start()
        self.run()
