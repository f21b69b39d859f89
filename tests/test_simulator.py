"""Discrete-event simulation: schedules, traces, and trace verification."""

import dataclasses
import json
import random

import pytest

from seqc import model, simulator, validator
from seqc.dsl import load_dsl
from seqc.errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    InvalidProgramError,
    NonPositiveDurationError,
    SeqcError,
    UnknownActionError,
    UnresolvedReferenceError,
)
from seqc.model import ActionInstance, Program, ResourceInstance
from seqc.program_io import load_program
from seqc.simulator import (
    DurationMap,
    ExecutionTrace,
    format_timeline,
    simulate,
    trace_to_json,
    verify_trace,
)
from seqc.validator import Code
from support import (
    fixture_text,
    five_stage,
    make_dsl,
    make_program,
    random_durations,
    random_flow_setup,
    random_valid_setup,
    simulate_run_oracle,
    with_edge,
)


def starts(trace):
    return {name: interval[0] for name, interval in trace.schedule.items()}


def test_five_stage_dedicated_schedule():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    assert starts(trace) == {"A": 0, "B": 0, "C": 0, "D": 1, "E": 2}
    assert trace.makespan == 3
    assert trace.makespan == model.critical_path_length(program)
    assert verify_trace(trace, program, dsl) == []


def test_five_stage_shared_schedule():
    dsl, program = five_stage(shared=True)
    trace = simulate(program, dsl)
    assert starts(trace) == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
    assert trace.makespan == 5
    assert verify_trace(trace, program, dsl) == []


def test_weighted_durations_stretch_the_critical_path():
    dsl, program = five_stage()
    trace = simulate(program, dsl, DurationMap({"C": 5}))
    assert trace.schedule["C"] == (0, 5)
    assert trace.schedule["E"] == (5, 6)
    assert trace.makespan == 6
    assert trace.makespan == model.critical_path_length(program, {"C": 5})


def test_resource_freed_at_t_can_restart_at_t():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(dsl, [("a", "Step", "r1"), ("b", "Step", "r1")])
    trace = simulate(program, dsl)
    assert trace.schedule == {"a": (0, 1), "b": (1, 2)}


def test_finish_events_precede_start_events_at_the_same_tick():
    dsl, program = five_stage()
    events = json.loads(trace_to_json(simulate(program, dsl)))["events"]
    assert [(e["t"], e["kind"], e["action"]) for e in events] == [
        (0, "start", "A"),
        (0, "start", "B"),
        (0, "start", "C"),
        (1, "finish", "A"),
        (1, "finish", "B"),
        (1, "finish", "C"),
        (1, "start", "D"),
        (2, "finish", "D"),
        (2, "start", "E"),
        (3, "finish", "E"),
    ]


def test_invalid_program_is_refused_without_force():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    program = load_program(fixture_text("vacuum/clean_parallel.xml"), dsl)
    with pytest.raises(InvalidProgramError) as exc_info:
        simulate(program, dsl)
    report = exc_info.value.report
    assert any(f.code is Code.MUTEX_VIOLATION for f in report.findings)


def test_force_serializes_mutex_partners():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    program = load_program(fixture_text("vacuum/clean_parallel.xml"), dsl)
    trace = simulate(program, dsl, force=True)
    assert trace.schedule["driveAhead"] == (0, 1)
    assert trace.schedule["dumpDirt"][0] >= 1  # held back by the running mutex partner
    assert trace.makespan == 2
    assert verify_trace(trace, program, dsl) == []


def test_cycle_cannot_be_forced():
    dsl, program = five_stage()
    looped = with_edge(program, "E", "A")
    with pytest.raises(CyclicGraphError):
        simulate(looped, dsl, force=True)


def test_duplicate_names_cannot_be_forced():
    dsl = make_dsl({"Station": ["Step"]})
    program = Program(
        "P",
        "TestBot",
        resources=(ResourceInstance("r1", "Station"), ResourceInstance("r2", "Station")),
        actions=(ActionInstance("x", "Step", "r1"), ActionInstance("x", "Step", "r2")),
    )
    with pytest.raises(DuplicateIdentifierError):
        simulate(program, dsl, force=True)


def test_dangling_predecessor_is_refused_before_scheduling():
    # Validation reports the dangling name; forcing past it reaches the
    # graph, which raises.
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(dsl, [("a", "Step", "r1"), ("b", "Step", "r1")],
                           edges=[("a", "b"), ("ghost", "b")])
    with pytest.raises(InvalidProgramError) as exc_info:
        simulate(program, dsl)
    assert [f.code for f in exc_info.value.report.findings] == [Code.UNRESOLVED_REFERENCE]
    with pytest.raises(UnresolvedReferenceError,
                       match="action 'b' names unknown predecessor 'ghost'"):
        simulate(program, dsl, force=True)


def tampered(trace, **intervals):
    return dataclasses.replace(trace, schedule={**trace.schedule, **intervals})


def test_verify_trace_flags_precedence_breaks():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    violations = verify_trace(tampered(trace, E=(0, 1)), program, dsl)
    assert {v.rule for v in violations} == {"precedence"}
    assert {v.actions for v in violations} == {("A", "E"), ("C", "E"), ("D", "E")}


def test_verify_trace_flags_missing_and_negative():
    dsl, program = five_stage()
    trace = simulate(program, dsl)

    schedule = dict(trace.schedule)
    del schedule["B"]
    gone = dataclasses.replace(trace, schedule=schedule)
    violations = verify_trace(gone, program, dsl)
    assert ("B",) in {v.actions for v in violations}
    assert all(v.rule == "precedence" for v in violations)

    early = verify_trace(tampered(trace, A=(-1, 0)), program, dsl)
    assert any(v.actions == ("A",) and "before tick 0" in v.message for v in early)


def test_verify_trace_flags_an_interval_that_ends_before_it_starts():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    violations = verify_trace(tampered(trace, A=(3, 1)), program, dsl)
    assert ("precedence", ("A",), "action 'A' finishes at 1, not after its start at 3") in {
        (v.rule, v.actions, v.message) for v in violations}


@pytest.mark.parametrize("interval", [(0, 0), (1, 1)])
def test_verify_trace_flags_a_zero_length_interval(interval):
    # Every duration is at least one tick, so no schedule has an empty interval.
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    start, finish = interval
    violations = verify_trace(tampered(trace, A=interval), program, dsl)
    assert ("precedence", ("A",), f"action 'A' finishes at {finish}, not after its start at {start}") in {
        (v.rule, v.actions, v.message) for v in violations}


def test_verify_trace_flags_resource_overlap():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(dsl, [("a", "Step", "r1"), ("b", "Step", "r1")])
    trace = simulate(program, dsl)
    violations = verify_trace(tampered(trace, b=(0, 1)), program, dsl)
    assert [(v.rule, v.actions) for v in violations] == [("resource", ("a", "b"))]


def test_verify_trace_flags_a_resource_the_program_does_not_give():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    resources = {**trace.resources, "A": "nowhere"}
    del resources["B"]
    violations = verify_trace(dataclasses.replace(trace, resources=resources), program, dsl)
    assert [(v.rule, v.actions, v.message) for v in violations] == [
        ("resource", ("A",), "action 'A' holds 'nowhere', not its resource 'ra'"),
        ("resource", ("B",), "action 'B' holds None, not its resource 'rb'"),
    ]


def test_trace_to_json_names_a_scheduled_action_without_a_resource():
    with pytest.raises(SeqcError, match="action 'A' but gives it no resource") as info:
        trace_to_json(ExecutionTrace({"A": (0, 1)}, {}))
    assert type(info.value) is SeqcError


def test_verify_trace_flags_mutex_overlap():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    program = load_program(fixture_text("vacuum/clean_parallel.xml"), dsl)
    trace = simulate(program, dsl, force=True)
    violations = verify_trace(tampered(trace, dumpDirt=(0, 1)), program, dsl)
    assert [(v.rule, v.actions) for v in violations] == [
        ("mutex", ("driveAhead", "dumpDirt"))
    ]


def test_verify_trace_rejects_foreign_actions():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    with pytest.raises(UnknownActionError):
        verify_trace(tampered(trace, Z=(0, 1)), program, dsl)


def test_random_schedules_are_legal_and_bounded_below():
    rng = random.Random(41)
    for _ in range(100):
        dsl, program = random_valid_setup(rng)
        durations = random_durations(rng, program)
        trace = simulate(program, dsl, DurationMap(durations))
        assert verify_trace(trace, program, dsl) == []
        assert trace.makespan >= model.critical_path_length(program, durations)
        for name, (start, finish) in trace.schedule.items():
            assert finish - start == durations[name]


def test_dedicated_resources_reach_the_critical_path():
    rng = random.Random(43)
    for _ in range(60):
        dsl, program = random_valid_setup(rng, dedicated=True, mutex=False)
        durations = random_durations(rng, program)
        trace = simulate(program, dsl, DurationMap(durations))
        assert trace.makespan == model.critical_path_length(program, durations)


def _outcome(program, dsl, durations, force):
    try:
        trace = simulate(program, dsl, durations, force=force)
    except SeqcError as exc:
        return type(exc), str(exc)
    return trace_to_json(trace), list(trace.schedule.items())


def _oracle_outcome(program, dsl, durations, force):
    """As `_outcome`, with the document the oracle built from its own events."""
    try:
        trace, document = simulate_run_oracle(program, dsl, durations, force=force)
    except SeqcError as exc:
        return type(exc), str(exc)
    return json.dumps(document, indent=2) + "\n", list(trace.schedule.items())


def _never_validate(*args, **kwargs):
    raise AssertionError("a forced run validated")


@pytest.mark.parametrize("shape", ["valid", "forced"])
def test_scheduler_matches_the_waiting_set_oracle(shape, monkeypatch):
    # Valid programs run unforced; defective ones (duplicate names, cycles,
    # dangling predecessors, mutex partners, data-flow findings) run forced,
    # so runtime mutex serialisation and every guard are compared too.  A
    # forced run skips validation: the graph alone raises on its defects.
    # Every way into the checks is patched, the gate simulate calls included.
    rng = random.Random(47 if shape == "valid" else 53)
    if shape == "forced":
        monkeypatch.setattr(simulator, "_refuse_invalid", _never_validate)
        for name in ("validate", "_errors", "_report"):
            monkeypatch.setattr(validator, name, _never_validate)
    outcomes = set()
    for _ in range(300):
        if shape == "valid":
            dsl, program = random_valid_setup(rng, max_actions=10)
        else:
            dsl, program = random_flow_setup(rng, max_actions=10, mutex_prob=0.5)
        durations = DurationMap(random_durations(rng, program), default=rng.randint(1, 3))
        force = shape == "forced"
        expected = _oracle_outcome(program, dsl, durations, force)
        assert _outcome(program, dsl, durations, force) == expected
        outcomes.add(expected[0] if isinstance(expected[0], type) else "trace")
    if shape == "forced":
        assert outcomes == {"trace", CyclicGraphError, DuplicateIdentifierError,
                            UnresolvedReferenceError}


def test_empty_program():
    dsl = make_dsl({"Station": ["Step"]})
    program = Program("Empty", "TestBot")
    trace = simulate(program, dsl)
    assert trace.schedule == {}
    assert trace.makespan == 0
    assert format_timeline(trace) == "(empty trace)\n"


@pytest.mark.parametrize("bad", [0, -3, True, 1.5, "2"])
def test_duration_map_rejects_non_positive_ticks(bad):
    with pytest.raises(NonPositiveDurationError):
        DurationMap({"a": bad})
    with pytest.raises(NonPositiveDurationError):
        DurationMap(default=bad)


def test_duration_map_lookup():
    durations = DurationMap({"a": 4}, default=2)
    assert durations.duration_of("a") == 4
    assert durations.duration_of("zzz") == 2


def test_trace_to_json_golden():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(dsl, [("a", "Step", "r1")])
    assert trace_to_json(simulate(program, dsl)) == (
        "{\n"
        '  "makespan": 1,\n'
        '  "events": [\n'
        "    {\n"
        '      "t": 0,\n'
        '      "kind": "start",\n'
        '      "action": "a",\n'
        '      "resource": "r1"\n'
        "    },\n"
        "    {\n"
        '      "t": 1,\n'
        '      "kind": "finish",\n'
        '      "action": "a",\n'
        '      "resource": "r1"\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


def test_format_timeline_golden():
    dsl, program = five_stage()
    assert format_timeline(simulate(program, dsl)) == (
        "   012\n"
        "A  =..\n"
        "B  =..\n"
        "C  =..\n"
        "D  .=.\n"
        "E  ..=\n"
    )


def test_format_timeline_refuses_only_text_over_its_limit(monkeypatch):
    # The length is computed before the text is built: a limit of exactly
    # the text's length builds it, one character less refuses it.
    rng = random.Random(3502)
    traces = []
    for _ in range(40):
        dsl, program = random_valid_setup(rng)
        traces.append(simulate(program, dsl, DurationMap(random_durations(rng, program))))
    for trace, text in [(trace, format_timeline(trace)) for trace in traces]:
        monkeypatch.setattr(simulator, "_MAX_TIMELINE_CHARS", len(text))
        assert format_timeline(trace) == text
        monkeypatch.setattr(simulator, "_MAX_TIMELINE_CHARS", len(text) - 1)
        with pytest.raises(SeqcError, match=f"^a text timeline of {len(text)} characters"):
            format_timeline(trace)
    monkeypatch.undo()
    huge = ExecutionTrace({"a": (0, 2**30)}, {"a": "r"})
    with pytest.raises(SeqcError) as refused:
        format_timeline(huge)
    assert str(refused.value) == (
        f"a text timeline of {2 * (2**30 + 4)} characters is over the limit of {2**30};"
        " use --json, and --trace FILE to keep it")


def test_makespan_matches_trace_field():
    dsl, program = five_stage()
    trace = simulate(program, dsl, DurationMap({"B": 7}))
    assert trace.makespan == 9


def test_makespan_follows_a_replaced_schedule():
    dsl, program = five_stage()
    trace = simulate(program, dsl)
    assert tampered(trace, E=(2, 9)).makespan == 9
    assert tampered(trace, E=(0, 1)).makespan == 2  # D's finish
    assert dataclasses.replace(trace, schedule={}).makespan == 0


def test_events_come_in_start_finish_pairs():
    dsl, program = five_stage(shared=True)
    trace = simulate(program, dsl)
    per_action = {}
    for event in json.loads(trace_to_json(trace))["events"]:
        per_action.setdefault(event["action"], []).append(event)
    assert per_action.keys() == trace.schedule.keys()
    for name, pair in per_action.items():
        assert [e["kind"] for e in pair] == ["start", "finish"]
        assert (pair[0]["t"], pair[1]["t"]) == trace.schedule[name]
        assert pair[0]["resource"] == pair[1]["resource"] == program.action(name).resource
