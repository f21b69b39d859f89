"""Acceptance gate: the eight shipped guarantees, one test each.

Every test prints a single PASS or FAIL line (bypassing capture) and
enforces a wall-clock budget, so the suite's terminal output doubles as
the acceptance report.
"""

import contextlib
import itertools
import random
import time

from seqc import cli, model
from seqc.codegen import action_view
from seqc.dsl import load_dsl, save_dsl
from seqc.program_io import load_program, save_program
from seqc.simulator import DurationMap, simulate, verify_trace
from seqc.templating import TemplateEngine, parse_template
from seqc.validator import check_mutex_schedulability, validate
from support import (
    fixture_path,
    fixture_text,
    may_overlap,
    random_durations,
    random_setup,
    random_valid_setup,
)


@contextlib.contextmanager
def criterion(capsys, number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(capsys, "FAIL", number, label, time.perf_counter() - start, budget)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        _report(capsys, "FAIL", number, label, elapsed, budget)
        raise AssertionError(
            f"criterion {number} exceeded its {budget:g}s budget ({elapsed:.2f}s)"
        )
    _report(capsys, "PASS", number, label, elapsed, budget)


def _report(capsys, status, number, label, elapsed, budget):
    with capsys.disabled():
        print(f"{status} criterion {number}: {label} [{elapsed:.2f}s of {budget:g}s]")


# A hand-maintained robot-class excerpt: the manipulator component plus
# the minimal surroundings (Vector3, a drive base owning MoveTo) its
# references need.  One attribute boundary in the original hand-set
# fragment lacked whitespace and is restored here, since the parser
# takes well-formed XML only.
MANIPULATOR_EXCERPT = """\
<RobotClassDSL name="ServiceRobotExcerpt">
 <VariableTypes>
  <VariableType name="Vector3">
   <Field name="x" type="Float"/>
   <Field name="y" type="Float"/>
   <Field name="z" type="Float"/>
  </VariableType>
 </VariableTypes>
 <ResourceComponent type="Manipulator">
  <Action returnType="String"
   actionIdentifier="MoveManipulator">
   <ParameterList>
    <Parameter type="Vector3" name="targetPose">
    </Parameter>
    <Parameter type="Vector3" name="orientation">
    </Parameter>
   </ParameterList>
   <NotAllowedSimultaneousActionTypes>
    <NotAllowedSimultaneousAction type="MoveTo">
    </NotAllowedSimultaneousAction>
   </NotAllowedSimultaneousActionTypes>
  </Action>
 </ResourceComponent>
 <ResourceComponent type="DriveBase">
  <Action actionIdentifier="MoveTo">
   <ParameterList>
    <Parameter type="Vector3" name="target"/>
   </ParameterList>
  </Action>
 </ResourceComponent>
</RobotClassDSL>
"""


def test_criterion_1_dsl_fidelity(capsys):
    with criterion(capsys, 1, "manipulator DSL excerpt loads with exact structure", 1.0):
        dsl = load_dsl(MANIPULATOR_EXCERPT)
        manipulator = dsl.component("Manipulator")
        assert manipulator is not None
        assert [a.identifier for a in manipulator.actions] == ["MoveManipulator"]
        move = manipulator.actions[0]
        assert move.return_type == "String"
        assert [(p.name, p.type_name) for p in move.parameters] == [
            ("targetPose", "Vector3"),
            ("orientation", "Vector3"),
        ]
        assert move.mutex_types == frozenset({"MoveTo"})
        assert dsl.is_mutex("MoveManipulator", "MoveTo")
        assert dsl.is_mutex("MoveTo", "MoveManipulator")
        assert not dsl.is_mutex("MoveManipulator", "MoveManipulator")


# What the manipulator fragment must produce for the MoveMani instance.
# The fragment's oddities are deliberate and preserved byte-exactly:
# the trailing space after "//fill list of parameters", the doubled
# space in "in  $Action", the per-iteration "//Add previous initialized
# variables" comment, and the trailing space after "MoveMani = ".
# Hand-written copies of this generator's output have been seen with
# the closing comment phrased "//Create robot system specific action"
# and the per-iteration comment collapsed to a single line; the
# template text is authoritative, substitution is purely mechanical.
MOVE_MANI_EXPECTED = (
    "//Create list of parameters\n"
    "parameters = new List<ParameterVariable>();\n"
    "//fill list of parameters \n"
    "//Add previous initialized variables\n"
    'parameters.Add(getVariable("targetPose"));\n'
    "//Add previous initialized variables\n"
    'parameters.Add(getVariable("orientation"));\n'
    "//Create robot specific action\n"
    "ExecutionElement MoveMani = \n"
    "\tnew ExecElement(MOVE_MANIPULATOR, parameters));\n"
)


def test_criterion_2_codegen_golden(capsys):
    with criterion(capsys, 2, "manipulator fragment renders byte-exact", 1.0):
        dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
        program = load_program(fixture_text("service_robot/grasp_demo.xml"), dsl)
        engine = TemplateEngine({}, strict=True)
        template = parse_template(
            fixture_path("service_robot/templates/move_manipulator.vt").read_text(
                encoding="utf-8"
            ),
            "MoveManipulator",
        )
        view = action_view(program.action("MoveMani"), program, dsl)
        rendered = engine.render_template(template, {"Action": view})
        assert rendered == MOVE_MANI_EXPECTED
        assert rendered.index('getVariable("targetPose")') < rendered.index(
            'getVariable("orientation")'
        )
        assert "ExecutionElement MoveMani = " in rendered


def test_criterion_3_schedule_semantics(capsys):
    with criterion(capsys, 3, "five-stage start times and makespans", 1.0):
        dsl = load_dsl(fixture_text("demo/dsl.xml"))
        program = load_program(fixture_text("demo/five_stage.xml"), dsl)
        trace = simulate(program, dsl)
        assert {n: s for n, (s, _) in trace.schedule.items()} == {
            "A": 0, "B": 0, "C": 0, "D": 1, "E": 2,
        }
        assert trace.makespan == 3
        assert trace.makespan == model.critical_path_length(program)

        shared = load_program(fixture_text("demo/five_stage_shared.xml"), dsl)
        trace = simulate(shared, dsl)
        assert trace.makespan == 5
        assert {n: s for n, (s, _) in trace.schedule.items()} == {
            "A": 0, "B": 1, "C": 2, "D": 3, "E": 4,
        }


def test_criterion_4_mutex_oracle_equivalence(capsys):
    label = "static mutex verdicts match schedule enumeration on 500 programs"
    with criterion(capsys, 4, label, 30.0):
        rng = random.Random(20260401)
        checked = agreed = 0
        verdicts_seen = set()
        for _ in range(500):
            dsl, program = random_setup(rng)
            flagged = {
                frozenset(f.subjects)
                for f in check_mutex_schedulability(program, dsl)
            }
            for a, b in itertools.combinations(program.action_names(), 2):
                if not dsl.is_mutex(
                    program.action(a).action_type, program.action(b).action_type
                ):
                    continue
                brute_force = may_overlap(program, a, b)
                verdicts_seen.add(brute_force)
                checked += 1
                agreed += (frozenset((a, b)) in flagged) == brute_force
        assert checked > 0
        assert verdicts_seen == {True, False}  # both outcomes exercised
        assert agreed == checked  # 100% agreement


def test_criterion_5_simulator_verifier_cross_check(capsys):
    label = "500 simulated traces verify clean and bound the critical path"
    with criterion(capsys, 5, label, 30.0):
        rng = random.Random(20260402)
        for i in range(500):
            dedicated = i % 2 == 1
            dsl, program = random_valid_setup(
                rng, dedicated=dedicated, mutex=not dedicated
            )
            durations = random_durations(rng, program)
            trace = simulate(program, dsl, DurationMap(durations))
            assert verify_trace(trace, program, dsl) == []
            bound = model.critical_path_length(program, durations)
            assert trace.makespan >= bound
            if dedicated:
                assert trace.makespan == bound


ROUND_TRIP_FIXTURES = [
    ("demo/dsl.xml", "demo/five_stage.xml"),
    ("demo/dsl.xml", "demo/five_stage_shared.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_parallel.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_ordered.xml"),
    ("service_robot/dsl.xml", "service_robot/grasp_demo.xml"),
    ("nxt/dsl.xml", "nxt/obstacle_avoid.xml"),
]


def test_criterion_6_xml_round_trips(capsys):
    with criterion(capsys, 6, "XML round-trips on all fixtures", 1.0):
        for dsl_name, _ in ROUND_TRIP_FIXTURES:
            dsl = load_dsl(fixture_text(dsl_name))
            assert load_dsl(save_dsl(dsl)) == dsl
        for dsl_name, program_name in ROUND_TRIP_FIXTURES:
            dsl = load_dsl(fixture_text(dsl_name))
            program = load_program(fixture_text(program_name), dsl)
            assert load_program(save_program(program), dsl) == program


def test_criterion_7_vacuum_exclusion(capsys):
    with criterion(capsys, 7, "vacuum exclusion rejected, ordered variant accepted", 1.0):
        dsl_arg = str(fixture_path("vacuum/dsl.xml"))
        code = cli.main(
            ["validate", "--dsl", dsl_arg, str(fixture_path("vacuum/clean_parallel.xml"))]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "MutexViolation" in out
        assert "driveAhead" in out and "dumpDirt" in out

        code = cli.main(
            ["validate", "--dsl", dsl_arg, str(fixture_path("vacuum/clean_ordered.xml"))]
        )
        assert code == 0
        assert "OK, 0 findings" in capsys.readouterr().out


NXT_FRAGMENTS = {
    "readLeft": "  leftDistance = SensorUS(sonarLeft);\n",
    "readRight": "  rightDistance = SensorUS(sonarRight);\n",
    "speedLeft": "  OnFwd(motorLeft, rightDistance);\n",
    "speedRight": "  OnFwd(motorRight, leftDistance);\n",
}


def test_criterion_8_nxt_end_to_end(capsys, tmp_path):
    with criterion(capsys, 8, "two-sonar program generates each fragment once, in order", 1.0):
        code = cli.main(
            [
                "generate",
                "--dsl", str(fixture_path("nxt/dsl.xml")),
                str(fixture_path("nxt/obstacle_avoid.xml")),
                "--templates", str(fixture_path("nxt/generator.xml")),
                "--out", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs = list(tmp_path.iterdir())
        assert [p.name for p in outputs] == ["ObstacleAvoid.nxc"]
        text = outputs[0].read_text(encoding="utf-8")
        for fragment in NXT_FRAGMENTS.values():
            assert text.count(fragment) == 1

        dsl = load_dsl(fixture_text("nxt/dsl.xml"))
        program = load_program(fixture_text("nxt/obstacle_avoid.xml"), dsl)
        order = model.topological_order(program)
        positions = [text.index(NXT_FRAGMENTS[name]) for name in order]
        assert positions == sorted(positions)
        preceding = {name: set(program.action(name).predecessors) for name in order}
        for name, preds in preceding.items():
            for pred in preds:
                assert text.index(NXT_FRAGMENTS[pred]) < text.index(NXT_FRAGMENTS[name])
