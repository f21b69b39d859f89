"""The four workloads: seeded inputs, CLI commands and their oracles.

Each builder writes its inputs under `workdir` and returns the command
pool that one closed-loop client cycles through.  Program sizes are a
fixed ladder, so seeds change the graphs but not the amount of work.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import synth

HERE = Path(__file__).resolve().parent

# Ten programs of each of five sizes: the median of a pass falls in the
# middle of the 36-action group and the 90th percentile in the middle of
# the 48-action group, so each rests on several graphs, not on one.
DENSE_SIZES = tuple(n for n in (24, 30, 36, 42, 48) for _ in range(10))
# Fifteen programs, 1000 to 5000 actions in geometric steps, alternately
# exported as JSON and as DOT.  An odd pool of distinct commands puts the
# median and the 90th percentile of whole passes in the middle of one
# command's repetitions rather than between two commands.
GRAPH_SIZES = tuple(round(1000 * 5 ** (i / 14)) for i in range(15))
REQUIRED_CODES = {"MutexViolation", "VariableRace", "UninstantiatedVariable"}


@dataclass
class Command:
    argv: list[str]
    actions: int  # program actions the command processes
    check: Callable[[int, str], bool]  # (exit code, stdout) -> output is correct
    prepare: Callable[[], None] = lambda: None  # untimed: clear previous outputs


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def validate_dense(seed: int, workdir: Path, root: Path) -> list[Command]:
    rng = random.Random(seed)
    dsl = synth.make_dsl(rng)
    dsl_path = _write(workdir / "dsl.xml", synth.dsl_xml(dsl))
    commands = []
    for k, n in enumerate(DENSE_SIZES):
        while True:  # redraw until all three finding kinds the workload targets occur
            graph = synth.make_program(rng, dsl, n, name=f"Dense{k}")
            want = oracle.expected_findings(graph, dsl)
            if REQUIRED_CODES <= {code for _, code, _ in want}:
                break
        path = _write(workdir / f"dense{k}.xml", synth.program_xml(graph, rng))

        def check(code, out, want=want):
            payload = _json_or_none(out)
            return (code == 1 and payload is not None and payload["ok"] is False
                    and [(f["severity"], f["code"], tuple(f["subjects"]))
                         for f in payload["findings"]] == want)
        commands.append(Command(["validate", "--dsl", dsl_path, path, "--json"], n, check))
    return commands


def simulate_ordered(seed: int, workdir: Path, root: Path) -> list[Command]:
    rng = random.Random(seed)
    dsl = synth.make_dsl(rng)
    dsl_path = _write(workdir / "dsl.xml", synth.dsl_xml(dsl))
    commands = []
    for k, n in enumerate(DENSE_SIZES):
        graph = synth.make_program(rng, dsl, n, name=f"Ordered{k}")
        synth.order_mutex_pairs(graph, dsl)
        if any(severity == oracle.ERROR for severity, _, _ in oracle.expected_findings(graph, dsl)):
            raise RuntimeError(f"generated program Ordered{k} would not validate")
        durations = synth.make_durations(rng, graph)
        path = _write(workdir / f"ordered{k}.xml", synth.program_xml(graph, rng))
        durations_path = _write(workdir / f"ordered{k}.json", synth.durations_json(durations))
        trace_path = workdir / f"ordered{k}.trace.json"
        want = oracle.expected_trace(graph, durations)

        def check(code, out, want=want, trace_path=trace_path):
            return (code == 0 and _json_or_none(out) == want and trace_path.is_file()
                    and trace_path.read_text(encoding="utf-8") == out)
        commands.append(Command(
            ["simulate", "--dsl", dsl_path, path, "--durations", durations_path,
             "--trace", str(trace_path), "--json"],
            n, check, prepare=lambda p=trace_path: p.unlink(missing_ok=True)))
    return commands


GENERATE_FIXTURES = (("nxt", "obstacle_avoid.xml"), ("service_robot", "grasp_demo.xml"))


def _blank(paths: list[Path]) -> None:
    for path in paths:
        if path.exists():
            path.write_bytes(b"")


def generate_fixtures(seed: int, workdir: Path, root: Path) -> list[Command]:
    """The bundled nxt and service_robot generators, service_robot twice a pass.

    The 1:2 mix keeps the median and the 90th percentile inside one
    fixture's group of times instead of on the boundary between the two.
    Outputs are blanked before each command, so the check sees only
    what that command wrote.
    """
    commands = []
    for fixture, program in GENERATE_FIXTURES:
        src = root / "fixtures" / fixture
        out_dir = workdir / fixture
        expected = {p.name: p.read_bytes() for p in (HERE / "expected" / fixture).iterdir()}
        actions = len(oracle.read_program((src / program).read_text(encoding="utf-8")).actions)
        outputs = [out_dir / name for name in expected]

        def check(code, out, out_dir=out_dir, expected=expected):
            payload = _json_or_none(out)
            if code != 0 or payload is None or payload["warnings"]:
                return False
            written = {Path(p).name: Path(p) for p in payload["written"]}
            return (sorted(written) == sorted(expected)
                    and all(written[name].parent == out_dir.resolve()
                            and written[name].read_bytes() == data
                            for name, data in expected.items()))
        commands.append(Command(
            ["generate", "--dsl", str(src / "dsl.xml"), str(src / program),
             "--templates", str(src / "generator.xml"), "--out", str(out_dir),
             "--force", "--json"],
            actions, check, prepare=lambda paths=outputs: _blank(paths)))
    nxt, service = commands
    return [nxt, service, service] if random.Random(seed).random() < 0.5 else [service, nxt, service]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def graph_large(seed: int, workdir: Path, root: Path) -> list[Command]:
    """Expected outputs are kept as digests, so the benchmark's own memory
    stays small next to what seqc uses for a 5000-action program."""
    rng = random.Random(seed)
    dsl = synth.make_dsl(rng)
    dsl_path = _write(workdir / "dsl.xml", synth.dsl_xml(dsl))
    commands = []
    for k, n in enumerate(GRAPH_SIZES):
        graph = synth.make_program(rng, dsl, n, name=f"Large{k}")
        path = _write(workdir / f"large{k}.xml", synth.program_xml(graph, rng))
        if k % 2 == 0:
            want = _digest(oracle.expected_graph(graph))
            commands.append(Command(
                ["graph", path, "--json"], n,
                lambda code, out, want=want: code == 0 and _digest(_json_or_none(out)) == want))
        else:
            want = _digest(oracle.dot_items(graph))
            commands.append(Command(
                ["graph", "--dsl", dsl_path, path], n,
                lambda code, out, want=want: code == 0 and _digest(oracle.parse_dot(out)) == want))
    return commands


WORKLOADS = {
    "validate-dense": validate_dense,
    "simulate-ordered": simulate_ordered,
    "generate-fixtures": generate_fixtures,
    "graph-large": graph_large,
}
