"""The gate `simulate` and `generate` run before their work: it refuses
exactly what `validate` refuses, with `validate`'s report, and on a clean
program it computes no lint."""

import dataclasses
import itertools
import random

import pytest

import support
from seqc import cli, validator
from seqc.codegen import GeneratorConfig, generate
from seqc.dsl import load_dsl, save_dsl
from seqc.errors import InvalidProgramError, SeqcError
from seqc.program_io import load_program, parse_program, save_program
from seqc.simulator import simulate
from seqc.templating import parse_template
from seqc.validator import Code, Finding, Severity, check_bindings, validate
from support import (
    clean_literal_setup,
    fixture_path,
    fixture_text,
    random_flow_setup,
    random_literal_setup,
)

ONE_MAIN = GeneratorConfig({}, ((
    parse_template("#foreach($a in $Program.actions)${a.name};#end", "main"),
    parse_template("out.txt", "main#output")),))
ERROR_CODES = {code for code, severity in validator._SEVERITY.items()
               if severity is Severity.ERROR}
LINTS = ("_variable_uses", "_lint_unused_variables", "_lint_uninstantiated",
         "lint_variable_races")
FIXTURE_DSLS = ("demo/dsl.xml", "vacuum/dsl.xml", "service_robot/dsl.xml", "nxt/dsl.xml")
FIXTURE_PROGRAMS = ("demo/five_stage.xml", "demo/five_stage_shared.xml",
                    "vacuum/clean_parallel.xml", "vacuum/clean_ordered.xml",
                    "service_robot/grasp_demo.xml", "nxt/obstacle_avoid.xml")


def fixture_pairings():
    """Every fixture program against every fixture DSL, its own included."""
    for dsl_name, program_name in itertools.product(FIXTURE_DSLS, FIXTURE_PROGRAMS):
        yield load_dsl(fixture_text(dsl_name)), parse_program(fixture_text(program_name))


def gate_corpus():
    """(source, dsl, program): 300 of each seeded generator and every fixture pairing."""
    rng = random.Random(3901)
    for _ in range(300):
        yield "flow", *random_flow_setup(rng, max_actions=8, mutex_prob=0.2)
    for _ in range(300):
        yield "literal", *random_literal_setup(rng)
    for _, dsl, program in support.hostile_corpus(3902, per_kind=28):
        yield "hostile", dsl, program
    for dsl, program in fixture_pairings():
        yield "fixture", dsl, program


def refusal(call, program, dsl):
    """The report `call` refuses the program with, or None when it runs."""
    try:
        call(program, dsl)
    except InvalidProgramError as exc:
        return exc.report
    return None


def test_the_gate_refuses_exactly_what_validate_refuses():
    seen, codes = set(), set()
    for source, dsl, program in gate_corpus():
        report = validate(program, dsl)
        errors, _ = validator._errors(program, dsl)
        assert {f.severity for f in errors} <= {Severity.ERROR}
        assert bool(errors) == (not report.ok)
        codes |= {f.code for f in errors}
        expected = None if report.ok else report
        assert refusal(simulate, program, dsl) == expected
        assert refusal(lambda p, d: generate(p, d, ONE_MAIN), program, dsl) == expected
        seen.add((source, report.ok))
    assert seen == set(itertools.product(("flow", "literal", "hostile", "fixture"), (True, False)))
    assert codes == ERROR_CODES


def spy(monkeypatch, names) -> list[str]:
    """Wrap each `validator` function in `names` to record, by name, each call."""
    calls = []

    def wrap(name, original):
        def recorded(*args):
            calls.append(name)
            return original(*args)
        return recorded
    for name in names:
        monkeypatch.setattr(validator, name, wrap(name, getattr(validator, name)))
    return calls


def test_a_refused_program_is_not_checked_twice(monkeypatch):
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    program = load_program(fixture_text("vacuum/clean_parallel.xml"), dsl)
    expected = validate(program, dsl)
    calls = spy(monkeypatch, ("check_bindings", "check_mutex_schedulability"))
    for call in (simulate, lambda p, d: generate(p, d, ONE_MAIN)):
        calls.clear()
        assert refusal(call, program, dsl) == expected and not expected.ok
        assert calls == ["check_bindings", "check_mutex_schedulability"]


def clean_programs_with_warnings(count: int):
    rng = random.Random(3903)
    found = 0
    while found < count:
        dsl, program = random_flow_setup(rng, max_actions=8, mutex_prob=0.1)
        report = validate(program, dsl)
        if report.ok and report.findings:
            found += 1
            yield dsl, program, report


def test_a_clean_run_computes_no_lint(monkeypatch):
    corpus = list(clean_programs_with_warnings(40))
    codes = {f.code for _, _, report in corpus for f in report.findings}
    assert codes == {Code.UNUSED_VARIABLE, Code.UNINSTANTIATED_VARIABLE, Code.VARIABLE_RACE}
    calls = spy(monkeypatch, LINTS)
    for dsl, program, report in corpus:
        assert validate(program, dsl) == report
        assert set(calls) == set(LINTS)  # the spies see what validate computes
        calls.clear()
        simulate(program, dsl)
        generate(program, dsl, ONE_MAIN)
        assert calls == []


def refused_programs_with_warnings(count: int):
    """Seeded programs that load from their saved text, are refused, and
    carry warnings."""
    rng = random.Random(3904)
    found = 0
    while found < count:
        dsl, program = random_flow_setup(rng, max_actions=8)
        try:
            text = save_program(program)
            if load_program(text, dsl) != program:
                continue
        except SeqcError:
            continue
        report = validate(program, dsl)
        if not report.ok and any(f.severity is Severity.WARNING for f in report.findings):
            found += 1
            yield dsl, text, report


FORCE_HINT = "seqc: error: program is invalid; use --force to simulate anyway\n"


def test_a_refused_command_prints_validates_full_report(capsys, tmp_path):
    generator = str(fixture_path("nxt/generator.xml"))
    for k, (dsl, text, report) in enumerate(refused_programs_with_warnings(15)):
        dsl_path, program_path = tmp_path / f"dsl{k}.xml", tmp_path / f"program{k}.xml"
        dsl_path.write_text(save_dsl(dsl), encoding="utf-8")
        program_path.write_text(text, encoding="utf-8")
        common = ["--dsl", str(dsl_path), str(program_path)]
        for argv, tail in (
                (["simulate", *common], FORCE_HINT),
                (["simulate", "--json", *common, "--trace", str(tmp_path / "t.json")], FORCE_HINT),
                (["generate", *common, "--templates", generator, "--out", str(tmp_path / "out")],
                 "")):
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", report.render_text() + "\n" + tail)
    assert all(path.suffix == ".xml" for path in tmp_path.iterdir())  # nothing written


def with_repeated_bindings(rng: random.Random):
    """A clean_literal_setup program in which one action binds one of its
    parameters two or three times, the copies at random places."""
    dsl, program = clean_literal_setup(rng)
    while not any(action.args for action in program.actions):
        dsl, program = clean_literal_setup(rng)
    actions = list(program.actions)
    k = rng.choice([i for i, action in enumerate(actions) if action.args])
    args = list(actions[k].args)
    again = rng.choice(args)
    for _ in range(rng.randint(1, 2)):
        args.insert(rng.randint(0, len(args)), again)
    actions[k] = dataclasses.replace(actions[k], args=tuple(args))
    return dsl, dataclasses.replace(program, actions=tuple(actions))


def repeated_binding_findings(program):
    """One DuplicateName per binding of a parameter that an earlier one binds."""
    return [
        Finding(Code.DUPLICATE_NAME, (action.name, arg.param),
                f"action {action.name!r} binds parameter {arg.param!r} twice")
        for action in program.actions
        for i, arg in enumerate(action.args)
        if arg.param in [earlier.param for earlier in action.args[:i]]
    ]


@pytest.mark.parametrize("seed", range(3))
def test_repeated_bindings_are_reported_as_before(seed):
    rng = random.Random(3905 + seed)
    repeats = set()
    for _ in range(100):
        dsl, program = with_repeated_bindings(rng)
        found = [f for f in check_bindings(program, dsl)
                 if f.code is Code.DUPLICATE_NAME and len(f.subjects) == 2]
        assert found == repeated_binding_findings(program)
        repeats.add(len(found))
        report = validate(program, dsl)
        expected = support.validate_oracle(program, dsl)
        assert (report.render_text(), report.to_json()) == (
            expected.render_text(), expected.to_json())
    assert repeats == {1, 2}
