"""Static validation findings and report mechanics."""

import dataclasses
import functools
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import support
from seqc import model
from seqc.dsl import (
    ActionTypeDef,
    ParameterDef,
    ResourceComponentTypeDef,
    RobotClassDsl,
    VariableTypeDef,
    load_dsl,
)
from seqc.errors import SeqcError, XmlSyntaxError
from seqc.model import (
    ActionInstance,
    ArgBinding,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.program_io import load_program, save_program
from seqc.validator import (
    Code,
    Finding,
    Severity,
    ValidationReport,
    _variable_uses,
    lint_variable_races,
    validate,
)
from support import (
    ancestors_oracle,
    cycle_oracle,
    fixture_text,
    make_dsl,
    make_program,
    may_overlap,
    random_flow_setup,
    random_literal_setup,
    random_setup,
    report_payload_oracle,
    with_data_flow,
    with_edge,
)

LINT_DSL = load_dsl(
    '<RobotClassDSL name="LintBot">'
    "<VariableTypes>"
    '<VariableType name="Pose"><Field name="x" type="Float"/><Field name="y" type="Float"/></VariableType>'
    "</VariableTypes>"
    '<ResourceComponent type="Sensor">'
    '<Action returnType="Int" actionIdentifier="Read"/>'
    '<Action returnType="Int" actionIdentifier="Inc">'
    '<ParameterList><Parameter name="x" type="Int"/></ParameterList>'
    "</Action>"
    "</ResourceComponent>"
    '<ResourceComponent type="Motor">'
    '<Action actionIdentifier="Drive">'
    '<ParameterList><Parameter name="speed" type="Int"/></ParameterList>'
    "</Action>"
    '<Action actionIdentifier="Aim">'
    '<ParameterList><Parameter name="at" type="Pose"/></ParameterList>'
    "</Action>"
    '<Action actionIdentifier="Beep"/>'
    "</ResourceComponent>"
    "</RobotClassDSL>"
)

RESOURCES = (
    ResourceInstance("m1", "Motor"),
    ResourceInstance("m2", "Motor"),
    ResourceInstance("s1", "Sensor"),
    ResourceInstance("s2", "Sensor"),
)


def lint_program(actions, variables=()):
    return Program("P", "LintBot", RESOURCES, tuple(variables), tuple(actions))


def codes(report):
    return [f.code for f in report.findings]


def test_vacuum_pair():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    report = validate(load_program(fixture_text("vacuum/clean_parallel.xml"), dsl), dsl)
    assert not report.ok
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code is Code.MUTEX_VIOLATION
    assert finding.severity is Severity.ERROR
    assert finding.subjects == ("driveAhead", "dumpDirt")

    ordered = validate(load_program(fixture_text("vacuum/clean_ordered.xml"), dsl), dsl)
    assert ordered.ok
    assert ordered.findings == ()


def test_shipped_fixtures_validate_clean():
    for dsl_name, program_name in (
        ("demo/dsl.xml", "demo/five_stage.xml"),
        ("demo/dsl.xml", "demo/five_stage_shared.xml"),
        ("service_robot/dsl.xml", "service_robot/grasp_demo.xml"),
        ("nxt/dsl.xml", "nxt/obstacle_avoid.xml"),
    ):
        dsl = load_dsl(fixture_text(dsl_name))
        report = validate(load_program(fixture_text(program_name), dsl), dsl)
        assert report.findings == (), (program_name, report.render_text())


def test_mutex_verdict_matches_overlap_search():
    rng = random.Random(29)
    for _ in range(60):
        dsl, program = random_setup(rng)
        report = validate(program, dsl)
        flagged = {
            frozenset(f.subjects)
            for f in report.findings
            if f.code is Code.MUTEX_VIOLATION
        }
        for a, b in itertools.combinations(program.action_names(), 2):
            ta = program.action(a).action_type
            tb = program.action(b).action_type
            expected = dsl.is_mutex(ta, tb) and may_overlap(program, a, b)
            assert (frozenset((a, b)) in flagged) == expected


def test_duplicate_names_reported_for_every_kind():
    program = lint_program(
        [ActionInstance("x", "Beep", "m1"), ActionInstance("x", "Beep", "m2")],
    )
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.DUPLICATE_NAME]
    assert report.findings[0].subjects == ("x",)
    assert not report.ok

    dup_resources = Program(
        "P", "LintBot", (ResourceInstance("r", "Motor"), ResourceInstance("r", "Motor"))
    )
    assert codes(validate(dup_resources, LINT_DSL)) == [Code.DUPLICATE_NAME]

    dup_vars = lint_program(
        [], [VariableDecl("v", "Int", 1), VariableDecl("v", "Int", 2)]
    )
    report = validate(dup_vars, LINT_DSL)
    assert Code.DUPLICATE_NAME in codes(report)


def test_bindings_use_the_first_declaration_of_a_variable():
    # v is declared Int, then Bool; the Int one is the variable, as
    # Program.variable has it, so the binding to an Int parameter type-checks.
    program = lint_program(
        [ActionInstance("a", "Drive", "m1", (ArgBinding("speed", variable="v"),))],
        [VariableDecl("v", "Int", 1), VariableDecl("v", "Bool", True)],
    )
    report = validate(program, LINT_DSL)
    assert [(f.code, f.subjects) for f in report.findings] == [(Code.DUPLICATE_NAME, ("v",))]


def test_unbound_parameter():
    program = lint_program([ActionInstance("d", "Drive", "m1")])
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.UNBOUND_PARAMETER]
    assert report.findings[0].subjects == ("d", "speed")


# What the XML loader refuses, built by hand: a predecessor, a bound
# parameter and an action type that name nothing declared.
UNRESOLVED = lint_program([
    ActionInstance("a", "Drive", "m1",
                   (ArgBinding("speed", value=1), ArgBinding("bogus", variable="nowhere")),
                   predecessors=("ghost",)),
    ActionInstance("b", "Hover", "m2", predecessors=("a",)),
])


def test_unresolved_references_are_reported():
    assert validate(UNRESOLVED, LINT_DSL).render_text().splitlines() == [
        "error UnresolvedReference (a, bogus): action 'a' binds unknown parameter 'bogus'",
        "error UnresolvedReference (a, ghost): action 'a' names unknown predecessor 'ghost'",
        "error UnresolvedReference (b, Hover): action 'b' has unknown type 'Hover'",
        "FAILED, 3 findings",
    ]


# What only the loader refused before `validate` judged it too, one defect
# per program: the finding, and the loader's error on the saved program.
LOADER_ONLY = [
    (Program("P", "Other", RESOURCES),
     "error UnresolvedReference (P, Other): program is written for robot class 'Other',"
     " but the DSL is 'LintBot'"),
    (Program("P", "LintBot", (*RESOURCES, ResourceInstance("g", "Ghost"))),
     "error UnresolvedReference (g, Ghost): resource 'g' has unknown component type 'Ghost'"),
    (lint_program([ActionInstance("a", "Drive", "s1", (ArgBinding("speed", value=1),))]),
     "error UnresolvedReference (a, s1): action 'a': type 'Drive' belongs to component"
     " 'Motor', but resource 's1' is a 'Sensor'"),
    (lint_program([], [VariableDecl("v", "Ghost")]),
     "error UnresolvedReference (v, Ghost): variable 'v' has unknown type 'Ghost'"),
    (lint_program([], [VariableDecl("v", "Int", "hello")]),
     "error TypeMismatch (v, init): initializer of variable 'v' does not type-check as Int"),
    (lint_program([ActionInstance("a", "Drive", "m1", (ArgBinding("speed", value=1),
                                                      ArgBinding("speed", value=2)))]),
     "error DuplicateName (a, speed): action 'a' binds parameter 'speed' twice"),
    (lint_program([ActionInstance("a", "Beep", "m1", predecessors=("a",))]),
     "error CyclicGraph (a): actions form a precedence cycle: a -> a"),
    (lint_program([ActionInstance("a", "Beep", "ghost")]),
     "error UnresolvedReference (a, ghost): action 'a' runs on undeclared resource 'ghost'"),
    (Program("P", "LintBot", (*RESOURCES, ResourceInstance("m1", "Sensor"))),
     "error DuplicateName (m1): resource name 'm1' is declared more than once"),
    (lint_program([], [VariableDecl("v", "Int", 1), VariableDecl("v", "Int", 2)]),
     "error DuplicateName (v): variable name 'v' is declared more than once"),
    (lint_program([ActionInstance("a", "Beep", "m1"), ActionInstance("a", "Beep", "m2")]),
     "error DuplicateName (a): action name 'a' is declared more than once"),
    (lint_program([ActionInstance("a", "Hover", "m1", (ArgBinding("lift", value=1),))]),
     "error UnresolvedReference (a, Hover): action 'a' has unknown type 'Hover'"),
    (lint_program([ActionInstance("a", "Drive", "m1", (ArgBinding("speed", value=1),
                                                      ArgBinding("bogus", variable="v")))]),
     "error UnresolvedReference (a, bogus): action 'a' binds unknown parameter 'bogus'"),
]


@pytest.mark.parametrize("program, line", LOADER_ONLY)
def test_what_the_loader_refuses_is_an_error_finding(program, line):
    report = validate(program, LINT_DSL)
    errors = [text for text in report.render_text().splitlines() if text.startswith("error ")]
    assert errors == [line] and not report.ok
    with pytest.raises(SeqcError):
        load_program(save_program(program), LINT_DSL)


# The cases of the rules that were reading failures come last, so that each
# earlier case keeps its test id.
@pytest.mark.parametrize("program, message", sorted([
    (program, message) for program, line in LOADER_ONLY
    if support.declaration_rule(message := line.partition("): ")[2])],
    key=lambda case: support.declaration_rule(case[1]) in support.DECLARATION_RULES[4:]))
def test_the_loader_raises_a_declaration_finding_as_its_message(program, message):
    # One rule, one text: the loader's error is the finding of the validator's check.
    with pytest.raises(SeqcError) as caught:
        load_program(save_program(program), LINT_DSL)
    assert (type(caught.value), str(caught.value)) == (support.declaration_rule(message)[1], message)


def test_an_action_on_a_resource_of_unknown_component_gets_one_finding():
    # The first declaration of a repeated resource name counts, as for variables.
    program = Program("P", "LintBot", (ResourceInstance("g", "Ghost"), ResourceInstance("g", "Motor"),
                                       ResourceInstance("s", "Sensor"), ResourceInstance("s", "Motor")),
                      actions=(ActionInstance("a", "Drive", "g", (ArgBinding("speed", value=1),)),
                               ActionInstance("b", "Drive", "s", (ArgBinding("speed", value=1),))))
    assert [(f.code, f.subjects) for f in validate(program, LINT_DSL).findings] == [
        (Code.DUPLICATE_NAME, ("g",)), (Code.DUPLICATE_NAME, ("s",)),
        (Code.UNRESOLVED_REFERENCE, ("b", "s")), (Code.UNRESOLVED_REFERENCE, ("g", "Ghost"))]


def test_a_self_loop_and_undeclared_resources_are_reported_in_one_pass():
    # Every action on an undeclared resource is reported, whether or not its type resolves.
    program = lint_program([ActionInstance("a", "Beep", "m1", predecessors=("a",)),
                            ActionInstance("b", "Drive", "ghost", (ArgBinding("speed", value=1),)),
                            ActionInstance("c", "Hover", "void")])
    assert validate(program, LINT_DSL).render_text().splitlines() == [
        "error CyclicGraph (a): actions form a precedence cycle: a -> a",
        "error UnresolvedReference (b, ghost): action 'b' runs on undeclared resource 'ghost'",
        "error UnresolvedReference (c, Hover): action 'c' has unknown type 'Hover'",
        "error UnresolvedReference (c, void): action 'c' runs on undeclared resource 'void'",
        "FAILED, 4 findings",
    ]


def test_arguments_in_any_order_validate_clean_and_load_back_as_built():
    # Bindings are read by parameter name, so their order carries no meaning.
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    program = load_program(fixture_text("service_robot/grasp_demo.xml"), dsl)
    target, turn = program.action("MoveMani").args

    def with_args(*args):
        return dataclasses.replace(program, actions=tuple(
            dataclasses.replace(a, args=args) if a.name == "MoveMani" else a
            for a in program.actions))

    flipped = with_args(turn, target)
    assert flipped != program
    assert validate(flipped, dsl).render_text() == validate(program, dsl).render_text()
    assert validate(flipped, dsl).render_text() == "OK, 0 findings"
    assert load_program(save_program(flipped), dsl) == flipped
    # Unknown and repeated parameters keep their own findings, in any order.
    bogus = ArgBinding("bogus", value=1)
    for args in ((turn, bogus, target, turn), (target, bogus, turn, target)):
        assert codes(validate(with_args(*args), dsl)) == [
            Code.DUPLICATE_NAME, Code.UNRESOLVED_REFERENCE]


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_float_literals_are_type_mismatches(bad):
    program = lint_program(
        [ActionInstance("a", "Aim", "m1", (ArgBinding("at", value={"x": 1.0, "y": bad}),))],
        [VariableDecl("f", "Float", bad), VariableDecl("p", "Pose", {"x": bad, "y": 0.0})])
    assert [(f.code, f.subjects) for f in validate(program, LINT_DSL).findings] == [
        (Code.TYPE_MISMATCH, ("a", "at")), (Code.TYPE_MISMATCH, ("f", "init")),
        (Code.TYPE_MISMATCH, ("p", "init")),
        (Code.UNUSED_VARIABLE, ("f",)), (Code.UNUSED_VARIABLE, ("p",))]


def test_an_int_beyond_the_float_range_is_no_float_literal():
    # The text of f reads back as an infinity, that of g as a float unequal to it.
    program = lint_program([], [VariableDecl("f", "Float", 10 ** 400),
                                VariableDecl("g", "Float", 10 ** 300)])
    assert [(f.code, f.subjects) for f in validate(program, LINT_DSL).findings
            if f.code is Code.TYPE_MISMATCH] == [(Code.TYPE_MISMATCH, ("f", "init")),
                                                 (Code.TYPE_MISMATCH, ("g", "init"))]


@pytest.mark.parametrize("value", [10 ** 20 + 1, 2 ** 53 + 1])
def test_an_int_a_float_cannot_hold_is_no_float_literal(value):
    # Its text reads back as the nearest float, which is another number;
    # the int just below it is a float exactly and loads back equal.
    def program(value):
        return lint_program(
            [ActionInstance("a", "Aim", "m1", (ArgBinding("at", value={"x": 0.0, "y": value}),))],
            [VariableDecl("f", "Float", value), VariableDecl("p", "Pose", {"x": value, "y": 0.0})])
    assert [(f.code, f.subjects) for f in validate(program(value), LINT_DSL).findings
            if f.code is Code.TYPE_MISMATCH] == [
        (Code.TYPE_MISMATCH, ("a", "at")), (Code.TYPE_MISMATCH, ("f", "init")),
        (Code.TYPE_MISMATCH, ("p", "init"))]
    exact = program(value - 1)
    assert validate(exact, LINT_DSL).ok
    assert load_program(save_program(exact), LINT_DSL) == exact


def test_an_int_past_the_digit_limit_is_no_int_literal_and_is_not_saved():
    # The interpreter writes no text for it; at the limit it round-trips.
    limit = sys.get_int_max_str_digits()

    def program(value):
        return lint_program([ActionInstance("d", "Drive", "m1", (ArgBinding("speed", value=value),))],
                            [VariableDecl("i", "Int", value)])
    for sign in (1, -1):
        too_long = program(sign * 10 ** limit)
        assert [(f.code, f.subjects) for f in validate(too_long, LINT_DSL).findings
                if f.code is Code.TYPE_MISMATCH] == [
            (Code.TYPE_MISMATCH, ("d", "speed")), (Code.TYPE_MISMATCH, ("i", "init"))]
        with pytest.raises(XmlSyntaxError, match="literal cannot be written as text"):
            save_program(too_long)
        at_limit = program(sign * (10 ** limit - 1))
        assert validate(at_limit, LINT_DSL).ok
        assert load_program(save_program(at_limit), LINT_DSL) == at_limit


EDGE_TYPES = ("Int", "Float", "Bool", "String", "Box")
EDGE_DSL = RobotClassDsl(
    "Edge", (VariableTypeDef("Box", (("i", "Int"), ("f", "Float"), ("b", "Bool"), ("s", "String"))),),
    (ResourceComponentTypeDef("Unit", tuple(ActionTypeDef(f"Set{type_name}", "Unit", parameters=(
        ParameterDef("x", type_name),)) for type_name in EDGE_TYPES)),))


def test_a_value_is_a_literal_exactly_when_its_text_reads_back_equal():
    # Every edge scalar, and Box values of them with a None field now and
    # then, in every slot, as an initializer and as an argument.
    rng = random.Random(1500)
    scalars = support.edge_scalars()
    outcomes = Counter()
    for _ in range(300):
        type_name = rng.choice(EDGE_TYPES)
        if rng.random() < (0.8 if type_name == "Box" else 0.15):
            value = {name: None if rng.random() < 0.1 else rng.choice(scalars)
                     for name in ("i", "f", "b", "s")}
        else:
            value = rng.choice(scalars)
        program = Program("P", "Edge", (ResourceInstance("r", "Unit"),),
                          (VariableDecl("v", type_name, value),),
                          (ActionInstance("a", f"Set{type_name}", "r", (ArgBinding("x", value=value),)),))
        report = validate(program, EDGE_DSL)
        literal = support._literal_oracle(value, type_name, EDGE_DSL)
        assert {f.subjects for f in report.findings if f.code is Code.TYPE_MISMATCH} == (
            set() if literal else {("v", "init"), ("a", "x")}), (type_name, value)
        if not report.ok:
            outcomes["reported"] += 1
            continue
        try:
            text = save_program(program)
        except SeqcError:
            outcomes["refused"] += 1
            continue
        assert load_program(text, EDGE_DSL) == program, (type_name, value)
        outcomes["loaded"] += 1
    assert outcomes["reported"] >= 100 and outcomes["loaded"] >= 40, outcomes


def test_every_hostile_program_is_reported_refused_or_loads():
    # Any program gets an error finding, or save_program refuses it, or
    # what it saved loads back.
    outcomes = Counter()
    for kind, dsl, program in support.hostile_corpus(1400):
        if not validate(program, dsl).ok:
            outcomes[kind, "reported"] += 1
            with pytest.raises(SeqcError):  # what validate reports, the loader refuses
                load_program(save_program(program), dsl)
            continue
        try:
            text = save_program(program)
        except SeqcError:
            outcomes[kind, "refused"] += 1
            continue
        assert load_program(text, dsl) == program, kind
        outcomes[kind, "loaded"] += 1
    assert sum(outcomes.values()) >= 200
    expected = {"xml_char": "refused", "args_out_of_order": "loaded"}
    assert outcomes == Counter({(kind, expected.get(kind, "reported")): 25
                                for kind in support.HOSTILE_KINDS})


def test_validate_matches_the_oracle_on_hostile_programs():
    for _, dsl, program in support.hostile_corpus(1401, per_kind=10):
        assert (validate(program, dsl).render_text()
                == support.validate_oracle(program, dsl).render_text())


def test_dangling_predecessor_skips_the_graph_checks():
    # Without a precedence graph the mutex pair cannot be judged; it is
    # reported once the reference resolves.
    dsl = make_dsl({"Station": ["Step"]}, mutex=[("Step", "Step")])
    actions = [("a", "Step", "r1"), ("b", "Step", "r2")]
    report = validate(make_program(dsl, actions, edges=[("ghost", "b")]), dsl)
    assert [(f.code, f.subjects) for f in report.findings] == [
        (Code.UNRESOLVED_REFERENCE, ("b", "ghost"))]
    assert codes(validate(make_program(dsl, actions), dsl)) == [Code.MUTEX_VIOLATION]


def test_unknown_variable_in_arg_and_return():
    program = lint_program(
        [
            ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", variable="ghost"),)),
            ActionInstance("r", "Read", "s1", return_to="phantom"),
        ]
    )
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.UNKNOWN_VARIABLE, Code.UNKNOWN_VARIABLE]
    assert {f.subjects for f in report.findings} == {("d", "ghost"), ("r", "phantom")}


def test_type_mismatch_variable_binding():
    program = lint_program(
        [ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", variable="s"),))],
        [VariableDecl("s", "String", "hello")],
    )
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.TYPE_MISMATCH]
    assert report.findings[0].subjects == ("d", "speed")


def test_type_mismatch_literal_bindings():
    bad = lint_program(
        [ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", value=True),))]
    )
    assert codes(validate(bad, LINT_DSL)) == [Code.TYPE_MISMATCH]

    ok = lint_program(
        [ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", value=7),))]
    )
    assert validate(ok, LINT_DSL).findings == ()


def test_composite_literal_must_match_field_set():
    complete = lint_program(
        [
            ActionInstance(
                "a", "Aim", "m1", args=(ArgBinding("at", value={"x": 1.0, "y": 2.0}),)
            )
        ]
    )
    assert validate(complete, LINT_DSL).findings == ()

    partial = lint_program(
        [ActionInstance("a", "Aim", "m1", args=(ArgBinding("at", value={"x": 1.0}),))]
    )
    assert codes(validate(partial, LINT_DSL)) == [Code.TYPE_MISMATCH]


def test_return_binding_type_checks():
    wrong_type = lint_program(
        [ActionInstance("r", "Read", "s1", return_to="s")],
        [VariableDecl("s", "String", "x")],
    )
    report = validate(wrong_type, LINT_DSL)
    assert codes(report) == [Code.TYPE_MISMATCH]
    assert report.findings[0].subjects == ("r", "return")

    void_return = lint_program(
        [ActionInstance("b", "Beep", "m1", return_to="v")],
        [VariableDecl("v", "Int", 0)],
    )
    assert codes(validate(void_return, LINT_DSL)) == [Code.TYPE_MISMATCH]


def test_uninstantiated_variable_warning():
    # The only writer runs strictly after the reader.
    program = lint_program(
        [
            ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", variable="v"),)),
            ActionInstance("r", "Read", "s1", return_to="v", predecessors=()),
        ],
        [VariableDecl("v", "Int")],
    )
    late_writer = lint_program(
        [
            ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", variable="v"),)),
            ActionInstance(
                "r", "Read", "s1", return_to="v", predecessors=("d",)
            ),
        ],
        [VariableDecl("v", "Int")],
    )
    report = validate(late_writer, LINT_DSL)
    assert codes(report) == [Code.UNINSTANTIATED_VARIABLE]
    finding = report.findings[0]
    assert finding.severity is Severity.WARNING
    assert finding.subjects == ("d", "v")
    assert report.ok  # warnings alone do not fail validation

    # An unordered writer can run first, so the same shape without the
    # constraint is only a race, not an uninstantiated read.
    unordered = validate(program, LINT_DSL)
    assert Code.UNINSTANTIATED_VARIABLE not in codes(unordered)
    assert Code.VARIABLE_RACE in codes(unordered)


def test_initializer_silences_uninstantiated_lint():
    program = lint_program(
        [ActionInstance("d", "Drive", "m1", args=(ArgBinding("speed", variable="v"),))],
        [VariableDecl("v", "Int", 5)],
    )
    assert validate(program, LINT_DSL).findings == ()


def test_own_return_does_not_instantiate_own_read():
    program = lint_program(
        [
            ActionInstance(
                "i", "Inc", "s1", args=(ArgBinding("x", variable="v"),), return_to="v"
            )
        ],
        [VariableDecl("v", "Int")],
    )
    assert codes(validate(program, LINT_DSL)) == [Code.UNINSTANTIATED_VARIABLE]


def test_cyclic_graph_finding():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(
        dsl,
        [("a", "Step", "r1"), ("b", "Step", "r2")],
        edges=[("a", "b"), ("b", "a")],
    )
    report = validate(program, dsl)
    assert codes(report) == [Code.CYCLIC_GRAPH]
    assert set(report.findings[0].subjects) == {"a", "b"}
    assert not report.ok


def test_unused_variable_warning():
    program = lint_program([], [VariableDecl("lonely", "Int", 1)])
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.UNUSED_VARIABLE]
    assert report.findings[0].severity is Severity.WARNING
    assert report.ok


def test_return_to_counts_as_use():
    program = lint_program(
        [ActionInstance("r", "Read", "s1", return_to="v")],
        [VariableDecl("v", "Int")],
    )
    assert Code.UNUSED_VARIABLE not in codes(validate(program, LINT_DSL))


def test_write_write_race():
    program = lint_program(
        [
            ActionInstance("ra", "Read", "s1", return_to="v"),
            ActionInstance("rb", "Read", "s2", return_to="v"),
        ],
        [VariableDecl("v", "Int")],
    )
    report = validate(program, LINT_DSL)
    assert codes(report) == [Code.VARIABLE_RACE]
    assert report.findings[0].subjects == ("ra", "rb", "v")


def test_read_write_race_and_its_suppressions():
    def build(predecessors=(), reader_resource="m1"):
        return lint_program(
            [
                ActionInstance(
                    "d",
                    "Drive",
                    reader_resource,
                    args=(ArgBinding("speed", variable="v"),),
                    predecessors=predecessors,
                ),
                ActionInstance("w", "Read", "s1", return_to="v"),
            ],
            [VariableDecl("v", "Int", 0)],
        )

    racy = validate(build(), LINT_DSL)
    assert codes(racy) == [Code.VARIABLE_RACE]
    assert racy.findings[0].subjects == ("d", "w", "v")

    ordered = validate(build(predecessors=("w",)), LINT_DSL)
    assert ordered.findings == ()

    same_resource = lint_program(
        [
            ActionInstance("a", "Read", "s1", return_to="v"),
            ActionInstance("b", "Read", "s1", return_to="v"),
        ],
        [VariableDecl("v", "Int")],
    )
    assert Code.VARIABLE_RACE not in codes(validate(same_resource, LINT_DSL))


def test_all_checks_run_in_one_pass():
    program = lint_program(
        [
            ActionInstance("d", "Drive", "m1"),
            ActionInstance("r", "Read", "s1", return_to="ghost"),
        ],
        [VariableDecl("lonely", "Pose")],
    )
    report = validate(program, LINT_DSL)
    assert codes(report) == [
        Code.UNBOUND_PARAMETER,
        Code.UNKNOWN_VARIABLE,
        Code.UNUSED_VARIABLE,
    ]


def test_report_dedupes_and_sorts():
    zebra = Finding(Code.VARIABLE_RACE, ("a", "b", "v"), "m")
    apple = Finding(Code.CYCLIC_GRAPH, ("x",), "m")
    report = ValidationReport((zebra, apple, zebra))
    assert report.findings == (apple, zebra)


def test_report_rendering():
    empty = ValidationReport(())
    assert empty.render_text() == "OK, 0 findings"
    assert empty.to_json() == json.dumps({"ok": True, "findings": []}, indent=2)

    one = ValidationReport(
        (Finding(Code.MUTEX_VIOLATION, ("a", "b"), "clash"),)
    )
    text = one.render_text()
    assert text == "error MutexViolation (a, b): clash\nFAILED, 1 finding"
    assert one.to_json() == json.dumps({
        "ok": False,
        "findings": [
            {
                "severity": "error",
                "code": "MutexViolation",
                "subjects": ["a", "b"],
                "message": "clash",
            }
        ],
    }, indent=2)


FIXTURE_PROGRAMS = (
    ("demo/dsl.xml", "demo/five_stage.xml"),
    ("demo/dsl.xml", "demo/five_stage_shared.xml"),
    ("service_robot/dsl.xml", "service_robot/grasp_demo.xml"),
    ("nxt/dsl.xml", "nxt/obstacle_avoid.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_ordered.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_parallel.xml"),
)


def test_report_json_matches_json_dumps():
    reports = [ValidationReport(())]
    for dsl_name, program_name in FIXTURE_PROGRAMS:
        dsl = load_dsl(fixture_text(dsl_name))
        reports.append(validate(load_program(fixture_text(program_name), dsl), dsl))
    rng = random.Random(606)
    for _ in range(300):
        dsl, program = random_flow_setup(rng, max_actions=8)
        reports.append(validate(program, dsl))
    assert {report.ok for report in reports} == {True, False}
    assert any(report.ok and report.findings for report in reports)
    for report in reports:
        assert report.to_json() == json.dumps(report_payload_oracle(report), indent=2)


# Quotes, backslashes, control characters, non-ASCII and astral text,
# and lone surrogates: everything the ASCII string encoder escapes.
AWKWARD_JSON_TEXT = ('"', "\\", '\\"', "\x00\x08\x1f\x7f", "\t\n\r", "\u00e9\u2603",
                     "\U0001d11e", "\ud800", "\udfff!", "</b>", "", "plain")


def test_report_json_escapes_like_json_dumps():
    rng = random.Random(607)
    findings = tuple(
        Finding(rng.choice(list(Code)),
                tuple(rng.choice(AWKWARD_JSON_TEXT) + str(k) for k in range(rng.randint(0, 3))),
                "".join(rng.choices(AWKWARD_JSON_TEXT, k=rng.randint(0, 4))))
        for _ in range(200)
    )
    for size in (1, 2, 7, 200):
        report = ValidationReport(findings[:size])
        assert report.to_json() == json.dumps(report_payload_oracle(report), indent=2)


# An action and a variable both named x, each declared twice: two
# DuplicateName findings that tie on code and subjects.
_TIED_FINDINGS_REPORT = """
from seqc.dsl import load_dsl
from seqc.model import ActionInstance, Program, ResourceInstance, VariableDecl
from seqc.validator import validate
dsl = load_dsl('<RobotClassDSL name="B"><ResourceComponent type="Motor">'
               '<Action actionIdentifier="Beep"/></ResourceComponent></RobotClassDSL>')
program = Program("P", "B", (ResourceInstance("m", "Motor"),),
                  (VariableDecl("x", "Int"), VariableDecl("x", "Int")),
                  (ActionInstance("x", "Beep", "m"), ActionInstance("x", "Beep", "m")))
report = validate(program, dsl)
"""
_TIED_FINDINGS_SCRIPT = _TIED_FINDINGS_REPORT + """
print(report.render_text())
print(report.to_json())
"""


def test_tied_findings_keep_check_order_under_every_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        result = subprocess.run([sys.executable, "-c", _TIED_FINDINGS_SCRIPT], env=env,
                                capture_output=True, text=True, check=True)
        outputs.add(result.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert lines[:2] == [
        "error DuplicateName (x): action name 'x' is declared more than once",
        "error DuplicateName (x): variable name 'x' is declared more than once",
    ]
    printed = "\n".join(lines[lines.index("{"):])
    in_process = {}
    exec(_TIED_FINDINGS_REPORT, in_process)
    assert printed == json.dumps(report_payload_oracle(in_process["report"]), indent=2)
    payload = json.loads(printed)
    assert [f["message"] for f in payload["findings"][:2]] == [
        "action name 'x' is declared more than once",
        "variable name 'x' is declared more than once",
    ]


# --- candidate pairs against the all-pairs definitions ----------------------------

FLOW_CODES = {Code.CYCLIC_GRAPH, Code.MUTEX_VIOLATION, Code.VARIABLE_RACE,
              Code.UNINSTANTIATED_VARIABLE}


def test_flow_findings_match_all_pairs_definitions():
    rng = random.Random(4242)
    seen = set()
    for _ in range(400):
        dsl, program = random_flow_setup(rng, max_actions=8)
        report = validate(program, dsl)
        found = tuple(f for f in report.findings if f.code in FLOW_CODES)
        expected = support.pairwise_flow_findings(program, dsl)
        assert found == ValidationReport(tuple(expected)).findings
        seen.update(f.code for f in report.findings)
    assert FLOW_CODES | {Code.DUPLICATE_NAME} <= seen


def _counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    @functools.wraps(original)
    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_validate_tests_only_candidate_pairs(monkeypatch):
    rng = random.Random(99)
    dsl, program = random_setup(rng, min_actions=200, max_actions=200, max_resources=12,
                                edge_prob=0.01, mutex_prob=0.02)
    dsl, program = with_data_flow(rng, dsl, program, max_variables=12)
    names = program.action_names()
    actions = {a.name: a for a in program.actions}
    mutex_pairs = sum(dsl.is_mutex(actions[a].action_type, actions[b].action_type)
                      for a, b in itertools.combinations(names, 2))
    reads = {name: {arg.variable for arg in actions[name].args} - {None} for name in names}
    writes = {name: {actions[name].return_to} - {None} for name in names}
    shared_pairs = sum(bool(writes[a] & (writes[b] | reads[b]) or reads[a] & writes[b])
                       for a, b in itertools.combinations(names, 2))
    parallel_calls = _counting(monkeypatch, model, "potentially_parallel")
    builds = {attr: [] for attr in ("descendant_bits", "concurrent")}
    for attr, built in builds.items():
        def build(graph, index=getattr(model.ProgramGraph, attr), built=built):
            built.append(graph)
            return index.func(graph)
        counted_index = functools.cached_property(build)
        counted_index.__set_name__(model.ProgramGraph, attr)
        monkeypatch.setattr(model.ProgramGraph, attr, counted_index)

    report = validate(program, dsl)

    assert 0 < mutex_pairs and 0 < shared_pairs < len(names) * (len(names) - 1) // 2
    # Only the mutex check asks per pair; the data-flow lints sweep masks.
    assert len(parallel_calls) == mutex_pairs
    assert {attr: len(built) for attr, built in builds.items()} == dict.fromkeys(builds, 1)
    assert {Code.MUTEX_VIOLATION, Code.VARIABLE_RACE} <= {f.code for f in report.findings}


def test_race_lint_lists_each_race_once_in_subject_order():
    # The sweep meets a pair of writers from both ends; the lint keeps one.
    rng = random.Random(3403)
    races = 0
    for _ in range(300):
        dsl, program = random_flow_setup(rng, max_actions=8)
        if support.graph_defect(program) or cycle_oracle(program):
            continue
        found = lint_variable_races(program, *_variable_uses(program))
        assert found == [f for f in support.pairwise_flow_findings(program, dsl)
                         if f.code is Code.VARIABLE_RACE]
        races += len(found)
    assert races > 100


def test_validate_searches_for_a_cycle_only_on_a_cyclic_graph(monkeypatch):
    # Kahn's order decides acyclicity; the depth-first search runs once,
    # and only to name the witness of a cycle.
    rng = random.Random(61)
    searches = _counting(monkeypatch, model, "_find_cycle")
    closures = cyclic = 0
    for _ in range(300):
        dsl, program = random_flow_setup(rng, max_actions=10, mutex_prob=0.5)
        if support.graph_defect(program):
            continue
        searches.clear()
        report = validate(program, dsl)
        witness = cycle_oracle(program)
        if witness is None:
            assert searches == []
            closures += "concurrent" in vars(program.graph)
            assert not [index for index in vars(program.graph) if "ancestor" in index]
            continue
        cyclic += 1
        assert len(searches) == 1
        [finding] = [f for f in report.findings if f.code is Code.CYCLIC_GRAPH]
        assert finding.message == ("actions form a precedence cycle: "
                                   + " -> ".join(witness + witness[:1]))
    assert closures > 100 and cyclic > 20


def test_validate_decides_once_whether_the_graph_checks_run(monkeypatch):
    # Kahn's order is not cached when it raises, so each reading of it
    # re-runs the search; validate reads it once and reports the cycle.
    order = model.ProgramGraph.order
    readings = []

    def read(graph):
        readings.append(graph)
        return order.func(graph)
    counted_order = functools.cached_property(read)
    counted_order.__set_name__(model.ProgramGraph, "order")
    monkeypatch.setattr(model.ProgramGraph, "order", counted_order)
    dsl, program = support.reverse_chain_cycle(6)

    report = validate(program, dsl)

    assert len(readings) == 1
    assert [f.code for f in report.findings] == [Code.CYCLIC_GRAPH]


# --- the severity rule and the single-rule validator against its oracle ------------

README = Path(__file__).resolve().parent.parent / "README.md"

VALIDATE_FIXTURES = [
    ("demo/dsl.xml", "demo/five_stage.xml"),
    ("demo/dsl.xml", "demo/five_stage_shared.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_parallel.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_ordered.xml"),
    ("service_robot/dsl.xml", "service_robot/grasp_demo.xml"),
    ("nxt/dsl.xml", "nxt/obstacle_avoid.xml"),
]


def readme_code_rows() -> list[tuple[str, str]]:
    """README's finding-code table as (code, severity) rows."""
    return re.findall(r"^\| (\w+) \| (error|warning) \|", README.read_text(encoding="utf-8"),
                      flags=re.M)


def differential_corpus():
    rng = random.Random(808)
    for _ in range(300):
        yield random_flow_setup(rng, max_actions=10)
    for _ in range(200):
        yield random_literal_setup(rng)
    yield LINT_DSL, UNRESOLVED
    for dsl_name, program_name in VALIDATE_FIXTURES:
        dsl = load_dsl(fixture_text(dsl_name))
        yield dsl, load_program(fixture_text(program_name), dsl)
    for _, dsl, program in support.hostile_corpus(809, per_kind=5):
        yield dsl, program


def test_readme_table_lists_every_code_once():
    assert sorted(code for code, _ in readme_code_rows()) == sorted(c.value for c in Code)


def test_validate_matches_the_oracle_and_the_severity_table():
    table = dict(readme_code_rows())
    assert support.WARNING_CODES == {code for code, severity in table.items()
                                     if severity == "warning"}
    seen = set()
    for dsl, program in differential_corpus():
        report = validate(program, dsl)
        expected = support.validate_oracle(program, dsl)
        assert report.render_text() == expected.render_text()
        assert report.to_json() == expected.to_json()
        for finding in report.findings:
            assert finding.severity.value == table[finding.code.value], finding
            seen.add(finding.code)
    assert seen == set(Code)


# --- metamorphic properties ------------------------------------------------------

def _finding_multiset(findings, mapping=None, skip=()):
    mapping = mapping or {}
    return Counter(
        (f.code, f.severity, frozenset(mapping.get(s, s) for s in f.subjects))
        for f in findings if f.code not in skip
    )


def test_findings_are_invariant_under_consistent_renaming():
    rng = random.Random(404)
    cyclic = 0
    for _ in range(250):
        dsl, program = random_flow_setup(rng, max_actions=10)
        renamed_program, mapping = support.renamed(rng, program)
        before, after = validate(program, dsl), validate(renamed_program, dsl)
        # Which cycle is reported depends on name order; that one exists does not.
        skip = {Code.CYCLIC_GRAPH} if cycle_oracle(program) is not None else set()
        cyclic += bool(skip)
        assert _finding_multiset(after.findings, skip=skip) == _finding_multiset(
            before.findings, mapping, skip), (program, mapping)
        if skip and not support.graph_defect(program):
            assert Code.CYCLIC_GRAPH in codes(after)
    assert cyclic > 20


def test_an_implied_edge_changes_no_finding():
    rng = random.Random(505)
    cases = 0
    while cases < 200:
        dsl, program = random_flow_setup(rng, max_actions=10)
        if support.graph_defect(program) or cycle_oracle(program) is not None:
            continue
        implied = [
            (ancestor, action.name)
            for action in program.actions
            for ancestor in sorted(ancestors_oracle(program, action.name))
            if ancestor not in action.predecessors
        ]
        if not implied:
            continue
        predecessor, successor = rng.choice(implied)
        extended = with_edge(program, predecessor, successor)
        assert validate(extended, dsl).render_text() == validate(program, dsl).render_text()
        cases += 1


def _permuted_args(rng: random.Random, args: tuple) -> tuple:
    """`args` shuffled, with each parameter's bindings in their relative order."""
    queues: dict[str, list] = {}
    for arg in args:
        queues.setdefault(arg.param, []).append(arg)
    slots = [arg.param for arg in args]
    rng.shuffle(slots)
    return tuple(queues[param].pop(0) for param in slots)


def _round_trip(program: Program, dsl) -> Program | None:
    """What the saved program loads back as, or None when it is refused."""
    try:
        return load_program(save_program(program), dsl)
    except SeqcError:
        return None


def test_argument_order_changes_nothing():
    # Flow programs bind one parameter, so each of their actions may also
    # get a repeated and an unknown binding to be permuted with it.
    rng = random.Random(606)
    outcomes = Counter()
    for i in range(200):
        dsl, program = (random_literal_setup if i % 2 else random_flow_setup)(rng)
        if not i % 2:
            program = dataclasses.replace(program, actions=tuple(
                dataclasses.replace(action, args=(*action.args, *rng.sample(
                    (ArgBinding("x", value=rng.randint(0, 9)), ArgBinding("~y", value=0)),
                    rng.randint(0, 2))))
                for action in program.actions))
        permuted = dataclasses.replace(program, actions=tuple(
            dataclasses.replace(action, args=_permuted_args(rng, action.args))
            for action in program.actions))
        before, after = validate(program, dsl), validate(permuted, dsl)
        assert after.render_text() == before.render_text()
        assert after.to_json() == before.to_json()
        loads = _round_trip(program, dsl) == program
        assert _round_trip(permuted, dsl) == (permuted if loads else None)
        outcomes[permuted != program, loads] += 1
    assert outcomes[True, True] >= 40 and outcomes[True, False] >= 40, outcomes


def test_a_parameter_named_return_reports_before_the_return_binding():
    # Both findings are TypeMismatch (action, "return"); ties keep check order.
    dsl = load_dsl(
        '<RobotClassDSL name="B"><ResourceComponent type="M">'
        '<Action actionIdentifier="Go">'
        '<ParameterList><Parameter name="return" type="Int"/></ParameterList></Action>'
        '<Action actionIdentifier="Get" returnType="Bool">'
        '<ParameterList><Parameter name="return" type="Int"/></ParameterList></Action>'
        "</ResourceComponent></RobotClassDSL>")
    program = Program("P", "B", (ResourceInstance("m", "M"),), (VariableDecl("s", "String"),), (
        ActionInstance("a", "Go", "m", (ArgBinding("return", variable="s"),), "s"),
        ActionInstance("b", "Get", "m", (ArgBinding("return", value="x"),), "s")))
    assert validate(program, dsl).render_text().splitlines()[:4] == [
        "error TypeMismatch (a, return): parameter 'return' expects Int, variable 's' is String",
        "error TypeMismatch (a, return): action type 'Go' returns no value but 'a' binds a"
        " return variable",
        "error TypeMismatch (b, return): literal value for parameter 'return' does not"
        " type-check as Int",
        "error TypeMismatch (b, return): return value is Bool, variable 's' is String",
    ]
