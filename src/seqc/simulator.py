"""Deterministic discrete-event execution of a program.

The simulator plays out the dependency graph on integer ticks with a
greedy earliest-start policy: at each instant it first retires every
action finishing there, then starts, in lexicographic name order, every
action whose predecessors have all finished and whose resource is free.
An action holds its resource for the half-open interval
[start, start + duration), so a resource freed at t can start its next
action at t.

Parallelism lives in the model, not in host threads: overlapping
intervals on distinct resources are what "simultaneous" means here.
Variable values are never interpreted; data flow is the validator's
concern.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from . import jsonout, model
from .dsl import RobotClassDsl
from .errors import (
    DuplicateIdentifierError,
    InvalidProgramError,
    UnknownActionError,
    UnresolvedReferenceError,
)
from .model import Program
from .validator import validate


class EventKind(Enum):
    START = "start"
    FINISH = "finish"


@dataclass(frozen=True)
class DurationMap:
    """Per-action tick counts with a default for unlisted actions."""

    per_action: Mapping[str, int] = field(default_factory=dict)
    default: int = 1

    def __post_init__(self):
        model._checked_duration("default", self.default)
        for name, value in self.per_action.items():
            model._checked_duration(name, value)

    def duration_of(self, name: str) -> int:
        return self.per_action.get(name, self.default)


@dataclass(frozen=True)
class TraceEvent:
    time: int
    kind: EventKind
    action: str
    resource: str


@dataclass(frozen=True)
class ExecutionTrace:
    events: tuple[TraceEvent, ...]
    makespan: int
    schedule: Mapping[str, tuple[int, int]]


@dataclass(frozen=True)
class TraceViolation:
    rule: str  # "precedence", "resource", or "mutex"
    actions: tuple[str, ...]
    message: str


def simulate(
    program: Program,
    dsl: RobotClassDsl,
    durations: DurationMap | None = None,
    *,
    force: bool = False,
) -> ExecutionTrace:
    """Run the greedy earliest-start schedule and return the full trace.

    The program must validate cleanly unless force is set.  Forcing
    additionally serializes mutex-partnered actions at runtime, as if
    each declared pair shared a virtual resource, so that invalid
    programs remain explorable.  A cyclic graph cannot be scheduled
    even when forced.
    """
    durations = durations or DurationMap()
    report = validate(program, dsl)
    if not report.ok and not force:
        raise InvalidProgramError(report)
    names = program.action_names()
    if len(names) != len(set(names)):
        raise DuplicateIdentifierError("cannot simulate a program with duplicate action names")
    model.topological_order(program)

    duration = {name: durations.duration_of(name) for name in names}
    resource_of = {name: program.action(name).resource for name in names}
    type_of = {name: program.action(name).action_type for name in names}
    waiting = {name: set(program.graph.preds[name]) for name in names}
    dangling = sorted((name, pred) for name in names for pred in waiting[name].difference(waiting))
    if dangling:
        raise UnresolvedReferenceError("action %r names unknown predecessor %r" % dangling[0])

    ready = sorted(name for name, preds in waiting.items() if not preds)
    running: dict[str, int] = {}  # action -> finish time
    busy: dict[str, str] = {}  # resource -> action
    finished: set[str] = set()
    events: list[TraceEvent] = []
    schedule: dict[str, tuple[int, int]] = {}
    now = 0

    def mutex_blocked(name: str) -> bool:
        return any(dsl.is_mutex(type_of[name], type_of[other]) for other in running)

    while len(finished) < len(names):
        for name in sorted(n for n, t in running.items() if t == now):
            del running[name]
            del busy[resource_of[name]]
            finished.add(name)
            events.append(TraceEvent(now, EventKind.FINISH, name, resource_of[name]))
            for dependent in program.graph.succs[name]:
                waiting[dependent].discard(name)
                if not waiting[dependent] and dependent not in schedule:
                    ready.append(dependent)
        ready.sort()
        still_waiting = []
        for name in ready:
            if resource_of[name] in busy or (force and mutex_blocked(name)):
                still_waiting.append(name)
                continue
            running[name] = now + duration[name]
            busy[resource_of[name]] = name
            schedule[name] = (now, now + duration[name])
            events.append(TraceEvent(now, EventKind.START, name, resource_of[name]))
        ready = still_waiting
        if len(finished) == len(names):
            break
        if not running:
            raise AssertionError("scheduler stalled with work remaining")
        now = min(running.values())

    total = max((finish for _, finish in schedule.values()), default=0)
    events.sort(key=lambda e: (e.time, e.kind is EventKind.START, e.action))
    return ExecutionTrace(tuple(events), total, schedule)


def verify_trace(trace: ExecutionTrace, program: Program, dsl: RobotClassDsl) -> list[TraceViolation]:
    """Check a trace against precedence, resource, and mutex rules.

    Returns one violation per broken rule instance; an empty list means
    the trace is consistent with the program.
    """
    known = set(program.action_names())
    foreign = sorted(set(trace.schedule) - known)
    if foreign:
        raise UnknownActionError(
            f"trace schedules unknown action(s): {', '.join(foreign)}"
        )
    violations: list[TraceViolation] = []
    for action in program.actions:
        interval = trace.schedule.get(action.name)
        if interval is None:
            violations.append(
                TraceViolation(
                    "precedence",
                    (action.name,),
                    f"action {action.name!r} never ran",
                )
            )
            continue
        start, _ = interval
        if start < 0:
            violations.append(
                TraceViolation(
                    "precedence",
                    (action.name,),
                    f"action {action.name!r} starts before tick 0",
                )
            )
        for pred in sorted(action.predecessors):
            pred_interval = trace.schedule.get(pred)
            if pred_interval is None or pred_interval[1] > start:
                violations.append(
                    TraceViolation(
                        "precedence",
                        (pred, action.name),
                        f"{action.name!r} starts at {start} before predecessor"
                        f" {pred!r} finished",
                    )
                )
    scheduled = [a for a in program.actions if a.name in trace.schedule]
    for i, a in enumerate(scheduled):
        for b in scheduled[i + 1:]:
            if not _overlap(trace.schedule[a.name], trace.schedule[b.name]):
                continue
            if a.resource == b.resource:
                violations.append(
                    TraceViolation(
                        "resource",
                        (a.name, b.name),
                        f"{a.name!r} and {b.name!r} overlap on resource {a.resource!r}",
                    )
                )
            if dsl.is_mutex(a.action_type, b.action_type):
                violations.append(
                    TraceViolation(
                        "mutex",
                        (a.name, b.name),
                        f"{a.name!r} and {b.name!r} overlap but their types are"
                        " mutually exclusive",
                    )
                )
    return violations


def _overlap(first: tuple[int, int], second: tuple[int, int]) -> bool:
    return first[0] < second[1] and second[0] < first[1]


def makespan(trace: ExecutionTrace) -> int:
    """Total schedule length: the latest finish time, 0 when nothing ran."""
    return max((finish for _, finish in trace.schedule.values()), default=0)


def trace_to_json(trace: ExecutionTrace) -> str:
    """Canonical JSON rendering of a trace."""
    payload = {
        "makespan": trace.makespan,
        "events": [
            {"t": e.time, "kind": e.kind.value, "action": e.action, "resource": e.resource}
            for e in trace.events
        ],
    }
    return jsonout.dumps(payload) + "\n"


def format_timeline(trace: ExecutionTrace) -> str:
    """Fixed-width text timeline: one row per action, one column per tick."""
    if not trace.schedule:
        return "(empty trace)\n"
    width = max(len(name) for name in trace.schedule)
    span = max(trace.makespan, 1)
    ruler = "".join(str(t % 10) for t in range(span))
    lines = [f"{'':<{width}}  {ruler}"]
    for name in sorted(trace.schedule, key=lambda n: (trace.schedule[n][0], n)):
        start, finish = trace.schedule[name]
        bar = "." * start + "=" * (finish - start) + "." * (span - finish)
        lines.append(f"{name:<{width}}  {bar}")
    return "\n".join(lines) + "\n"
