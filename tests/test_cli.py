"""End-to-end command-line behaviour and exit codes."""

import json

import pytest

from seqc import simulator
from seqc.cli import main
from seqc.dsl import save_dsl
from seqc.program_io import save_program
from support import fixture_path, reverse_chain_cycle

DEMO_DSL = str(fixture_path("demo/dsl.xml"))
FIVE_STAGE = str(fixture_path("demo/five_stage.xml"))
VACUUM_DSL = str(fixture_path("vacuum/dsl.xml"))
VACUUM_PARALLEL = str(fixture_path("vacuum/clean_parallel.xml"))
VACUUM_ORDERED = str(fixture_path("vacuum/clean_ordered.xml"))
NXT_DSL = str(fixture_path("nxt/dsl.xml"))
NXT_PROGRAM = str(fixture_path("nxt/obstacle_avoid.xml"))
NXT_GENERATOR = str(fixture_path("nxt/generator.xml"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -----------------------------------------------------------------

def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert out == "OK, 0 findings\n"
    assert err == ""


def test_validate_reports_mutex_violation(capsys):
    code, out, _ = run(capsys, "validate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL)
    assert code == 1
    assert "error MutexViolation (driveAhead, dumpDirt)" in out
    assert out.rstrip().endswith("FAILED, 1 finding")

    code, out, _ = run(capsys, "validate", "--dsl", VACUUM_DSL, VACUUM_ORDERED)
    assert code == 0


def test_validate_json(capsys):
    code, out, _ = run(
        capsys, "validate", "--json", "--dsl", VACUUM_DSL, VACUUM_PARALLEL
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [f["code"] for f in payload["findings"]] == ["MutexViolation"]
    assert payload["findings"][0]["subjects"] == ["driveAhead", "dumpDirt"]


def test_validate_strict_warnings(capsys, tmp_path):
    program = tmp_path / "warned.xml"
    program.write_text(
        '<Program name="W" robotClass="DemoRig">'
        '<Resources><Resource name="r" type="Station"/></Resources>'
        '<Variables><Variable name="spare" type="Int"/></Variables>'
        '<Actions><ActionInstance name="a" type="Step" resource="r"/></Actions>'
        "</Program>",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", "--dsl", DEMO_DSL, str(program))
    assert code == 0
    assert "warning UnusedVariable (spare)" in out

    code, _, _ = run(
        capsys, "validate", "--strict-warnings", "--dsl", DEMO_DSL, str(program)
    )
    assert code == 1


# --- simulate -----------------------------------------------------------------

def test_simulate_timeline(capsys):
    code, out, err = run(capsys, "simulate", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert err == ""
    assert "A  =..\n" in out
    assert out.endswith("makespan: 3\n")


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    payload = json.loads(out)
    assert payload["makespan"] == 3
    first = payload["events"][0]
    assert first == {"t": 0, "kind": "start", "action": "A", "resource": "ra"}


def test_simulate_duration_override(capsys):
    code, out, _ = run(
        capsys, "simulate", "--duration", "C=5", "--dsl", DEMO_DSL, FIVE_STAGE
    )
    assert code == 0
    assert out.endswith("makespan: 6\n")


@pytest.mark.parametrize("override", ["C", "=3", "C=fast", "Z=2"])
def test_simulate_bad_duration_overrides(capsys, override):
    code, _, err = run(
        capsys, "simulate", "--duration", override, "--dsl", DEMO_DSL, FIVE_STAGE
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_simulate_durations_file(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    durations.write_text(
        json.dumps({"default": 2, "actions": {"C": 5, "NotInProgram": 9}}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    assert out.endswith("makespan: 7\n")


def test_simulate_flag_overrides_file(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    durations.write_text(json.dumps({"actions": {"C": 5}}), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "simulate", "--durations", str(durations), "--duration", "C=1",
        "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    assert out.endswith("makespan: 3\n")


@pytest.mark.parametrize(
    "content",
    ["[]", '{"actions": []}', '{"actions": {"A": 0}}', "{not json"],
)
def test_simulate_bad_durations_file(capsys, tmp_path, content):
    durations = tmp_path / "durations.json"
    durations.write_text(content, encoding="utf-8")
    code, _, err = run(
        capsys,
        "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_simulate_invalid_program_suggests_force(capsys):
    code, _, err = run(capsys, "simulate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL)
    assert code == 1
    assert "MutexViolation" in err
    assert "--force" in err

    code, out, _ = run(
        capsys, "simulate", "--force", "--dsl", VACUUM_DSL, VACUUM_PARALLEL
    )
    assert code == 0
    assert out.endswith("makespan: 2\n")


def test_simulate_trace_output(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    code, _, _ = run(
        capsys,
        "simulate", "--trace", str(trace_file), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    payload = json.loads(trace_file.read_text(encoding="utf-8"))
    assert payload["makespan"] == 3
    assert {e["kind"] for e in payload["events"]} == {"start", "finish"}


def test_simulate_trace_and_json_render_the_trace_once(capsys, tmp_path, monkeypatch):
    calls = []
    render = simulator.trace_to_json
    monkeypatch.setattr(simulator, "trace_to_json", lambda trace: calls.append(1) or render(trace))
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "simulate", "--trace", str(trace_file), "--json", "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    assert len(calls) == 1
    assert trace_file.read_text(encoding="utf-8") == out
    assert json.loads(out)["makespan"] == 3


# --- generate -----------------------------------------------------------------

def test_generate_writes_outputs(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert code == 0
    assert err == ""
    assert out.strip().endswith("ObstacleAvoid.nxc")
    text = (tmp_path / "ObstacleAvoid.nxc").read_text(encoding="utf-8")
    assert text.startswith('#include "NXCDefs.h"\n')
    assert text.count("SensorUS(") == 2


def test_generate_refuses_overwrite_then_forces(capsys, tmp_path):
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "refusing to overwrite" in err
    assert run(capsys, *argv, "--force")[0] == 0


def test_generate_json_output(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "generate", "--json", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["warnings"] == []
    assert len(payload["written"]) == 1
    assert payload["written"][0].endswith("ObstacleAvoid.nxc")


def test_generate_rejects_invalid_program(capsys, tmp_path):
    generator = tmp_path / "gen.xml"
    generator.write_text("<Generator/>", encoding="utf-8")
    code, _, err = run(
        capsys,
        "generate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL,
        "--templates", str(generator), "--out", str(tmp_path),
    )
    assert code == 1
    assert "MutexViolation" in err


def test_generate_render_error_and_lenient(capsys, tmp_path):
    (tmp_path / "main.vt").write_text("$Program.getBogus()end\n", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="out.txt"/></Generator>',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "seqc: render error:" in err
    assert not out_dir.exists()

    code, _, err = run(capsys, *argv, "--lenient")
    assert code == 0
    assert "seqc: warning:" in err
    assert (out_dir / "out.txt").read_text(encoding="utf-8") == "end\n"


def test_generate_missing_config(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(tmp_path / "nope.xml"), "--out", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_generate_template_search_path(capsys, tmp_path, monkeypatch):
    config_dir = tmp_path / "config"
    shared_dir = tmp_path / "shared"
    out_dir = tmp_path / "out"
    config_dir.mkdir()
    shared_dir.mkdir()
    (shared_dir / "main.vt").write_text("from shared\n", encoding="utf-8")
    generator = config_dir / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="out.txt"/></Generator>',
        encoding="utf-8",
    )
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    monkeypatch.delenv("SEQC_TEMPLATE_PATH", raising=False)
    assert run(capsys, *argv)[0] == 2
    monkeypatch.setenv("SEQC_TEMPLATE_PATH", str(shared_dir))
    assert run(capsys, *argv)[0] == 0
    assert (out_dir / "out.txt").read_text(encoding="utf-8") == "from shared\n"


# --- graph --------------------------------------------------------------------

def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", FIVE_STAGE)
    assert code == 0
    assert out.startswith("digraph FiveStage {\n")
    assert '  "A" -> "D";\n' in out
    assert out.endswith("}\n")


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "--json", FIVE_STAGE)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "FiveStage"
    assert {"name": "A", "type": "Step", "resource": "ra"} in payload["nodes"]
    assert payload["edges"][0] == {"from": "A", "to": "D"}
    assert len(payload["edges"]) == 5


def test_graph_accepts_cycles_without_dsl(capsys, tmp_path):
    looped = tmp_path / "loop.xml"
    looped.write_text(
        '<Program name="Loop" robotClass="DemoRig">'
        '<Resources><Resource name="r" type="Station"/></Resources>'
        "<Actions>"
        '<ActionInstance name="a" type="Step" resource="r"/>'
        '<ActionInstance name="b" type="Step" resource="r"/>'
        "</Actions>"
        '<Constraints><After action="a" predecessor="b"/><After action="b" predecessor="a"/></Constraints>'
        "</Program>",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "graph", str(looped))
    assert code == 0
    assert '"a" -> "b"' in out and '"b" -> "a"' in out

    code, _, err = run(capsys, "graph", "--dsl", DEMO_DSL, str(looped))
    assert code == 2
    assert "cycle" in err


def test_graph_with_dsl_checks_references(capsys):
    code, out, _ = run(capsys, "graph", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert "digraph FiveStage" in out


# --- failure plumbing -----------------------------------------------------------

def test_missing_program_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--dsl", DEMO_DSL, str(tmp_path / "nope.xml")
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_malformed_program_file(capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<Program", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--dsl", DEMO_DSL, str(bad))
    assert code == 2
    assert str(bad) in err


def test_malformed_dsl_file(capsys, tmp_path):
    bad = tmp_path / "bad_dsl.xml"
    bad.write_text("<RobotClassDSL name='X'><Nope/></RobotClassDSL>", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--dsl", str(bad), FIVE_STAGE)
    assert code == 2
    assert str(bad) in err


def test_deep_cycle_is_a_one_line_error(capsys, tmp_path):
    dsl, program = reverse_chain_cycle(1500)
    dsl_file, program_file = tmp_path / "dsl.xml", tmp_path / "chain.xml"
    dsl_file.write_text(save_dsl(dsl), encoding="utf-8")
    program_file.write_text(save_program(program), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", str(dsl_file), str(program_file))
    assert code == 2
    assert out == ""
    assert err.startswith(f"seqc: error: {program_file}: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad_input", ["dsl", "program"])
def test_non_utf8_input_is_a_one_line_error(capsys, tmp_path, bad_input):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"\xff\xfe<Program/>")
    dsl, program = (str(bad), FIVE_STAGE) if bad_input == "dsl" else (DEMO_DSL, str(bad))
    code, _, err = run(capsys, "validate", "--dsl", dsl, program)
    assert code == 2
    assert err.startswith(f"seqc: error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["validate", FIVE_STAGE],  # --dsl is required here
        ["graph", "--format", "svg", FIVE_STAGE],
        ["simulate", "--dsl", DEMO_DSL],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
