"""The oracles in `support` stand apart from the code they check, and every
public entry point agrees with its oracle on hostile and defective programs."""

import random
from collections import Counter

import pytest

import support
from seqc import jsonout, model, program_io, simulator, validator
from seqc.codegen import GeneratorConfig, generate
from seqc.errors import CyclicGraphError, InvalidProgramError, SeqcError
from seqc.program_io import load_program, save_program
from seqc.simulator import DurationMap, simulate
from seqc.templating import parse_template
from support import (
    ancestors_oracle,
    critical_path_oracle,
    cycle_oracle,
    graph_defect,
    graph_payload_oracle,
    may_overlap,
    outcome,
    random_durations,
    random_flow_setup,
    random_setup,
    report_payload_oracle,
    simulate_oracle,
    topological_order_oracle,
    trace_payload_oracle,
    validate_oracle,
)


def _refuse(*args, **kwargs):
    raise AssertionError("an oracle used the graph index or the validator")


def test_oracles_use_neither_the_graph_index_nor_the_validator(monkeypatch):
    monkeypatch.setattr(model.ProgramGraph, "__init__", _refuse)
    monkeypatch.setattr(validator, "validate", _refuse)
    monkeypatch.setattr(support, "validate", _refuse)
    rng = random.Random(1900)
    for _ in range(20):  # duplicate names, dangling predecessors and cycles
        dsl, program = random_flow_setup(rng, max_actions=8)
        validate_oracle(program, dsl)
    for _ in range(5):  # no mutex and no data flow: every oracle returns
        dsl, program = random_setup(rng, dedicated=True, mutex=False)
        names = program.action_names()
        simulate_oracle(program, dsl, DurationMap(random_durations(rng, program)))
        topological_order_oracle(program)
        critical_path_oracle(program)
        for a in names:
            ancestors_oracle(program, a)
            for b in names:
                may_overlap(program, a, b)
        text = save_program(program)
        support.load_program_whole_tree(text, dsl)
        support.parse_program_whole_tree(text)


def _refuse_to_write(*args, **kwargs):
    raise AssertionError("a payload oracle used a JSON writer")


def test_payload_oracles_use_no_json_writer(monkeypatch):
    rng = random.Random(1904)
    setups = [random_flow_setup(rng, max_actions=8) for _ in range(20)]
    reports = [validator.validate(program, dsl) for dsl, program in setups]
    traces = [simulate(program, dsl, DurationMap(random_durations(rng, program)))
              for dsl, program in (random_setup(rng, dedicated=True, mutex=False)
                                   for _ in range(5))]
    assert {report.ok for report in reports} == {True, False}
    monkeypatch.setattr(validator.ValidationReport, "to_json", _refuse_to_write)
    monkeypatch.setattr(validator.ValidationReport, "ok", property(_refuse_to_write))
    monkeypatch.setattr(validator.Finding, "severity", property(_refuse_to_write))
    monkeypatch.setattr(program_io, "graph_json", _refuse_to_write)
    monkeypatch.setattr(simulator, "trace_to_json", _refuse_to_write)
    monkeypatch.setattr(simulator.ExecutionTrace, "makespan", property(_refuse_to_write))
    monkeypatch.setattr(jsonout, "dumps", _refuse_to_write)
    with pytest.raises(AssertionError):
        reports[0].to_json()
    for report, (_, program) in zip(reports, setups):
        report_payload_oracle(report)
        graph_payload_oracle(program)
    for trace in traces:
        trace_payload_oracle(trace)


ONE_MAIN = GeneratorConfig({}, ((
    parse_template("#foreach($a in $Program.actions)${a.name}@${a.resource};#end", "main"),
    parse_template("out.txt", "main#output")),))


def entry_point_corpus():
    for _, dsl, program in support.hostile_corpus(1901):
        yield dsl, program
    rng = random.Random(1902)
    for _ in range(200):
        yield random_flow_setup(rng, max_actions=8)


def test_every_entry_point_agrees_with_its_oracle_or_raises_a_seqc_error():
    rng = random.Random(1903)
    seen = Counter()
    for dsl, program in entry_point_corpus():
        defect = graph_defect(program)
        cycle = None if defect else cycle_oracle(program)
        unordered = defect or cycle and (CyclicGraphError, str(CyclicGraphError(cycle)))
        durations = random_durations(rng, program)
        for force in (False, True):
            assert (outcome(simulate, program, dsl, DurationMap(durations), force=force)
                    == outcome(simulate_oracle, program, dsl, DurationMap(durations), force=force))
        assert outcome(model.topological_order, program) == (
            defect or outcome(topological_order_oracle, program))
        assert outcome(model.critical_path_length, program, durations) == (
            unordered or critical_path_oracle(program, durations))
        names = sorted(set(program.action_names()))
        for name in names:
            assert outcome(lambda: {x for x in names if program.graph.descendant_bits[x]
                                    >> program.graph.position[name] & 1}) == (
                unordered or ancestors_oracle(program, name))
        report = validate_oracle(program, dsl)
        if report.ok:
            resource = {a.name: a.resource for a in program.actions}
            expected = {"out.txt": "".join(f"{name}@{resource[name]};"
                                           for name in topological_order_oracle(program))}
        else:
            expected = InvalidProgramError, str(InvalidProgramError(report))
        assert outcome(lambda: generate(program, dsl, ONE_MAIN).files) == expected
        seen["generated" if report.ok else "invalid"] += 1
        try:
            text = save_program(program)
        except SeqcError:
            seen["not saved"] += 1
            continue
        loaded = outcome(load_program, text, dsl)
        assert loaded == outcome(support.load_program_whole_tree, text, dsl)
        if report.ok:
            assert loaded == program
    assert seen["generated"] > 50 and seen["invalid"] > 200 and seen["not saved"] == 25, seen
