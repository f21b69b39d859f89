"""Tests of the benchmark itself: generator, oracles and span arithmetic."""

import random
from pathlib import Path

import pytest

import oracle
import synth
import tracer
import workloads

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(*parts) -> str:
    return FIXTURES.joinpath(*parts).read_text(encoding="utf-8")


def _documents(seed: int) -> tuple[str, str, str]:
    rng = random.Random(seed)
    dsl = synth.make_dsl(rng)
    graph = synth.make_program(rng, dsl, 40)
    synth.order_mutex_pairs(graph, dsl)
    return (synth.dsl_xml(dsl), synth.program_xml(graph, rng),
            synth.durations_json(synth.make_durations(rng, graph)))


def test_generator_is_deterministic_per_seed():
    assert _documents(7) == _documents(7)
    assert _documents(7) != _documents(8)


@pytest.mark.parametrize("build", [workloads.validate_dense, workloads.simulate_ordered])
def test_workload_inputs_repeat_for_a_seed(build, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for workdir in (first, second):
        workdir.mkdir()
        build(3, workdir, FIXTURES.parent)
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)


def test_written_documents_read_back_as_generated():
    rng = random.Random(5)
    dsl = synth.make_dsl(rng)
    graph = synth.make_program(rng, dsl, 30)
    read = oracle.read_program(synth.program_xml(graph, rng))
    assert oracle.expected_graph(read) == oracle.expected_graph(graph)
    assert oracle.read_dsl(synth.dsl_xml(dsl)).mutex == dsl.mutex


def test_ordering_mutex_pairs_removes_every_violation():
    rng = random.Random(11)
    dsl = synth.make_dsl(rng)
    graph = synth.make_program(rng, dsl, 48)
    assert any(code == "MutexViolation" for _, code, _ in oracle.expected_findings(graph, dsl))
    synth.order_mutex_pairs(graph, dsl)
    assert all(code != "MutexViolation" for _, code, _ in oracle.expected_findings(graph, dsl))


def test_oracle_flags_the_vacuum_parallel_program():
    dsl = oracle.read_dsl(_fixture("vacuum", "dsl.xml"))
    graph = oracle.read_program(_fixture("vacuum", "clean_parallel.xml"))
    assert oracle.expected_findings(graph, dsl) == [
        ("error", "MutexViolation", ("driveAhead", "dumpDirt"))]


def test_oracle_passes_the_vacuum_ordered_program():
    dsl = oracle.read_dsl(_fixture("vacuum", "dsl.xml"))
    graph = oracle.read_program(_fixture("vacuum", "clean_ordered.xml"))
    assert oracle.expected_findings(graph, dsl) == []


def test_oracle_schedules_five_stage_as_the_readme_shows():
    graph = oracle.read_program(_fixture("demo", "five_stage.xml"))
    durations = {"default": 1, "actions": {"C": 5}}
    schedule = oracle.greedy_schedule(graph, durations)
    assert {name: start for name, (start, _) in schedule.items()} == {
        "A": 0, "B": 0, "C": 0, "D": 1, "E": 5}
    assert oracle.expected_trace(graph, durations)["makespan"] == 6


def test_dot_oracle_rejects_a_missing_edge():
    graph = oracle.read_program(_fixture("demo", "five_stage.xml"))
    lines = ["digraph FiveStage {"]
    lines += [f'  "{a}" [label="{a}: Step @r{a.lower()}"];' for a in "ABCDE"]
    lines += [f'  "{p}" -> "{s}";' for p, s in graph.edges()]
    lines.append("}")
    assert oracle.parse_dot("\n".join(lines) + "\n") == oracle.dot_items(graph)
    del lines[-2]
    assert oracle.parse_dot("\n".join(lines) + "\n") != oracle.dot_items(graph)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 1),
        ("validator.validate", 1.0, 3.0, 0, 1),
        ("model.ancestors", 1.5, 2.5, 1, 1),  # inside its parent only
        ("validator.check_bindings", 2.0, 5.0, 0, 1),  # overlaps its sibling
        ("simulator.simulate", 9.0, 12.0, 0, 1),  # runs past its parent's end
    ]
    assert tracer.self_times(spans) == [5.0, 1.0, 1.0, 3.0, 3.0]


def test_tracer_records_layers_and_restores_seqc():
    cli = pytest.importorskip("seqc.cli")
    import seqc.validator
    original = (cli.main, cli.validate, seqc.validator.validate)
    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(["validate", "--json", "--dsl", str(FIXTURES / "vacuum" / "dsl.xml"),
                         str(FIXTURES / "vacuum" / "clean_parallel.xml")])
    finally:
        spans.uninstall()
    assert code == 1
    assert (cli.main, cli.validate, seqc.validator.validate) == original
    names = [span[0] for span in spans.spans]
    assert names[0] == "cli.main" and "validator.validate" in names
    assert "model.potentially_parallel" in names and spans.counts["dsl.is_mutex_calls"] > 0
    metrics = tracer.layer_metrics(spans, 1, 3)
    assert metrics["validator.findings"] == 1
    assert metrics["trace.command_ms"] >= metrics["validator.validate_ms"] > 0
