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
concern.  A trace holds each action's interval and resource; each start
and finish event is derived from them when the trace is written, not kept.
"""

import heapq
from collections.abc import Mapping

from . import jsonout
from .dsl import RobotClassDsl
from .errors import InvalidProgramError, SeqcError, UnknownActionError
from .model import DurationMap, Program, Value, _set
from .validator import validate


class ExecutionTrace(Value):
    """A schedule: each action's interval and the resource it held."""

    schedule: Mapping[str, tuple[int, int]]  # action -> [start, finish)
    resources: Mapping[str, str]  # action -> the resource it held

    def __init__(self, schedule: Mapping[str, tuple[int, int]], resources: Mapping[str, str]):
        _set(self, "schedule", schedule)
        _set(self, "resources", resources)

    @property
    def makespan(self) -> int:
        return max((finish for _, finish in self.schedule.values()), default=0)


class TraceViolation(Value):
    """One rule a trace breaks, with the actions that break it."""

    rule: str  # "precedence", "resource", or "mutex"
    actions: tuple[str, ...]
    message: str

    def __init__(self, rule: str, actions: tuple[str, ...], message: str):
        _set(self, "rule", rule)
        _set(self, "actions", actions)
        _set(self, "message", message)


def simulate(program: Program, dsl: RobotClassDsl, durations: DurationMap | None = None,
             *, force: bool = False) -> ExecutionTrace:
    """Run the greedy earliest-start schedule and return its trace: each
    action's interval and resource, from which each event is derived.

    The program must validate cleanly unless force is set.  Forcing
    additionally serializes mutex-partnered actions at runtime, as if
    each declared pair shared a virtual resource, so that invalid
    programs remain explorable.  Even forced, a program raises as the
    graph queries do on duplicate names, a dangling predecessor or a cycle.
    """
    durations = durations or DurationMap()
    if not force and not (report := validate(program, dsl)).ok:
        raise InvalidProgramError(report)
    graph = program.graph
    graph.order  # raises CyclicGraphError on a cycle
    preds, actions = graph.preds, graph.actions

    # Kahn's loop with a clock.  `ready` pops in name order, so the schedule
    # fills in start order; each event is derived when the trace is written.
    unmet = {name: len(incoming) for name, incoming in preds.items()}
    ready = [name for name, count in unmet.items() if not count]  # sorted: a heap
    finishing: list[tuple[int, str]] = []  # (finish time, action) heap
    busy: dict[str, str] = {}  # resource -> running action
    schedule, resources = {}, {}  # ExecutionTrace's two fields
    now = 0
    while True:
        blocked = []  # popped in name order, so still a heap
        while ready:
            name = heapq.heappop(ready)
            action = actions[name]
            if action.resource in busy or (force and any(
                    dsl.is_mutex(action.action_type, actions[other].action_type)
                    for other in busy.values())):
                blocked.append(name)
                continue
            finish = now + durations.duration_of(name)
            busy[action.resource] = name
            schedule[name] = (now, finish)
            resources[name] = action.resource
            heapq.heappush(finishing, (finish, name))
        ready = blocked
        if not finishing:
            break
        now = finishing[0][0]
        while finishing and finishing[0][0] == now:
            name = heapq.heappop(finishing)[1]
            del busy[resources[name]]
            for succ in graph.succs[name]:
                unmet[succ] -= 1
                if not unmet[succ]:
                    heapq.heappush(ready, succ)
    if len(schedule) < len(preds):
        raise AssertionError("scheduler stalled with work remaining")
    return ExecutionTrace(schedule, resources)


def verify_trace(trace: ExecutionTrace, program: Program, dsl: RobotClassDsl) -> list[TraceViolation]:
    """Check a trace against precedence, resource, and mutex rules; a
    scheduled action must finish after it starts, and its resource in
    the trace must be the program's.

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
        name = action.name
        interval = trace.schedule.get(name)
        if interval is None:
            violations.append(TraceViolation("precedence", (name,), f"action {name!r} never ran"))
            continue
        start, finish = interval
        if start < 0:
            violations.append(TraceViolation(
                "precedence", (name,), f"action {name!r} starts before tick 0"))
        if finish <= start:
            violations.append(TraceViolation(
                "precedence", (name,),
                f"action {name!r} finishes at {finish}, not after its start at {start}"))
        held = trace.resources.get(name)
        if held != action.resource:
            violations.append(TraceViolation(
                "resource", (name,),
                f"action {name!r} holds {held!r}, not its resource {action.resource!r}"))
        for pred in action.predecessors:
            pred_interval = trace.schedule.get(pred)
            if pred_interval is None or pred_interval[1] > start:
                violations.append(TraceViolation(
                    "precedence", (pred, name),
                    f"{name!r} starts at {start} before predecessor {pred!r} finished"))
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


def trace_to_json(trace: ExecutionTrace) -> str:
    """Canonical JSON rendering of a trace: the makespan, then a row per start
    and finish event, by tick, finishes before starts, then by action name.
    Raises SeqcError for a scheduled action that has no resource."""
    rows = []
    for name, (start, finish) in trace.schedule.items():
        try:
            resource = trace.resources[name]
        except KeyError:
            raise SeqcError(f"trace schedules action {name!r} but gives it no resource") from None
        rows += (start, "start", name, resource), (finish, "finish", name, resource)
    rows.sort()  # "finish" < "start"
    return jsonout.dumps({"makespan": trace.makespan, "events": jsonout.Table(
        ("t", "kind", "action", "resource"), rows)}) + "\n"


_MAX_TIMELINE_CHARS = 2**30


def format_timeline(trace: ExecutionTrace) -> str:
    """Fixed-width text timeline: one row per action, one column per tick.

    Raises SeqcError, before any text is built, for a timeline of more
    than 2**30 characters.
    """
    if not trace.schedule:
        return "(empty trace)\n"
    width = max(len(name) for name in trace.schedule)
    span = max(trace.makespan, 1)
    size = (len(trace.schedule) + 1) * (width + 2 + span + 1)  # the ruler, then one row each
    if size > _MAX_TIMELINE_CHARS:
        raise SeqcError(f"a text timeline of {size} characters is over the limit of"
                        f" {_MAX_TIMELINE_CHARS}; use --json, and --trace FILE to keep it")
    ruler = "".join(str(t % 10) for t in range(span))
    lines = [f"{'':<{width}}  {ruler}"]
    for name in sorted(trace.schedule, key=lambda n: (trace.schedule[n][0], n)):
        start, finish = trace.schedule[name]
        bar = "." * start + "=" * (finish - start) + "." * (span - finish)
        lines.append(f"{name:<{width}}  {bar}")
    return "\n".join(lines) + "\n"
