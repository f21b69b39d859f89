"""Batch command-line front end.

    seqc validate  --dsl robot.xml program.xml
    seqc simulate  --dsl robot.xml program.xml [--duration A=3] [--trace out.json]
    seqc generate  --dsl robot.xml program.xml --templates gen.xml --out build/
    seqc graph     program.xml [--dsl robot.xml]

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 validation or render errors, 2 usage, I/O, or parse failures.
Every command accepts --json for machine-readable output.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import codegen, jsonout, program_io, simulator
from .dsl import RobotClassDsl, load_dsl
from .errors import (
    InvalidProgramError,
    SeqcError,
    TemplateError,
    UnresolvedReferenceError,
)
from .model import Program
from .validator import validate


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        print(f"seqc: error: {failure.message}", file=sys.stderr)
        return failure.code
    except (SeqcError, OSError, json.JSONDecodeError) as exc:
        print(f"seqc: error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqc",
        description="Validate, simulate, and compile concurrent robot"
                    " action-sequence programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate_p = sub.add_parser(
        "validate", help="check a program against its robot-class DSL")
    _add_common(validate_p, dsl_required=True)
    validate_p.add_argument(
        "--strict-warnings", action="store_true",
        help="exit nonzero when warnings are present")
    validate_p.set_defaults(func=cmd_validate)

    simulate_p = sub.add_parser(
        "simulate", help="run the deterministic scheduler and print a timeline")
    _add_common(simulate_p, dsl_required=True)
    simulate_p.add_argument(
        "--durations", metavar="FILE",
        help="JSON file with {\"default\": N, \"actions\": {name: N, ...}}")
    simulate_p.add_argument(
        "--duration", metavar="NAME=N", action="append", default=[],
        help="override one action's duration (repeatable)")
    simulate_p.add_argument(
        "--trace", metavar="OUT", help="write the event trace as JSON to OUT")
    simulate_p.add_argument(
        "--force", action="store_true",
        help="simulate even if validation fails, serializing mutex pairs")
    simulate_p.set_defaults(func=cmd_simulate)

    generate_p = sub.add_parser(
        "generate", help="render code templates for a validated program")
    _add_common(generate_p, dsl_required=True)
    generate_p.add_argument(
        "--templates", metavar="CONFIG", required=True,
        help="generator configuration XML")
    generate_p.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default .)")
    generate_p.add_argument(
        "--force", action="store_true", help="overwrite existing output files")
    generate_p.add_argument(
        "--lenient", action="store_true",
        help="render unresolved references as empty text with warnings")
    generate_p.set_defaults(func=cmd_generate)

    graph_p = sub.add_parser(
        "graph", help="export the precedence graph")
    _add_common(graph_p, dsl_required=False)
    graph_p.add_argument(
        "--format", choices=["dot"], default="dot",
        help="output format (default dot)")
    graph_p.set_defaults(func=cmd_graph)
    return parser


def _add_common(parser: argparse.ArgumentParser, *, dsl_required: bool):
    parser.add_argument(
        "--dsl", metavar="PATH", required=dsl_required,
        help="robot-class DSL XML" + ("" if dsl_required else " (optional)"))
    parser.add_argument("program", metavar="PROGRAM", help="program XML file")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _CliFailure(2, f"{path}: not UTF-8 text: {exc}") from exc


def _load_dsl(path: str) -> RobotClassDsl:
    try:
        return load_dsl(_read(path))
    except SeqcError as exc:
        raise _CliFailure(2, f"{path}: {exc}") from exc


def _load_program(path: str, dsl: RobotClassDsl) -> Program:
    try:
        return program_io.load_program(_read(path), dsl)
    except SeqcError as exc:
        raise _CliFailure(2, f"{path}: {exc}") from exc


def _print_json(payload) -> None:
    print(jsonout.dumps(payload))


def cmd_validate(args) -> int:
    dsl = _load_dsl(args.dsl)
    program = _load_program(args.program, dsl)
    report = validate(program, dsl)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.render_text())
    if not report.ok:
        return 1
    if args.strict_warnings and report.findings:
        return 1
    return 0


def _parse_durations(args, program: Program) -> simulator.DurationMap:
    default = 1
    per_action: dict[str, int] = {}
    if args.durations:
        raw = json.loads(_read(args.durations))
        if not isinstance(raw, dict):
            raise _CliFailure(2, f"{args.durations}: expected a JSON object")
        default = raw.get("default", 1)
        actions = raw.get("actions", {})
        if not isinstance(actions, dict):
            raise _CliFailure(2, f"{args.durations}: \"actions\" must be an object")
        per_action.update(actions)
    known = set(program.action_names())
    for override in args.duration:
        name, sep, value = override.partition("=")
        if not sep or not name:
            raise _CliFailure(2, f"--duration expects NAME=N, got {override!r}")
        if name not in known:
            raise _CliFailure(2, f"--duration names unknown action {name!r}")
        try:
            per_action[name] = int(value, 10)
        except ValueError:
            raise _CliFailure(
                2, f"--duration {name}: {value!r} is not an integer") from None
    return simulator.DurationMap(per_action, default)


def cmd_simulate(args) -> int:
    dsl = _load_dsl(args.dsl)
    program = _load_program(args.program, dsl)
    durations = _parse_durations(args, program)
    try:
        trace = simulator.simulate(program, dsl, durations, force=args.force)
    except InvalidProgramError as exc:
        print(exc.report.render_text(), file=sys.stderr)
        print("seqc: error: program is invalid; use --force to simulate anyway",
              file=sys.stderr)
        return 1
    trace_json = simulator.trace_to_json(trace) if args.trace or args.json else ""
    if args.trace:
        Path(args.trace).write_text(trace_json, encoding="utf-8")
    if args.json:
        sys.stdout.write(trace_json)
    else:
        sys.stdout.write(simulator.format_timeline(trace))
        print(f"makespan: {trace.makespan}")
    return 0


def _template_search_path() -> list[str]:
    raw = os.environ.get("SEQC_TEMPLATE_PATH", "")
    return [entry for entry in raw.split(os.pathsep) if entry]


def cmd_generate(args) -> int:
    dsl = _load_dsl(args.dsl)
    program = _load_program(args.program, dsl)
    try:
        config = codegen.load_generator_file(args.templates,
                                             search_path=_template_search_path())
    except SeqcError as exc:
        raise _CliFailure(2, f"{args.templates}: {exc}") from exc
    try:
        result = codegen.generate(program, dsl, config, strict=not args.lenient)
    except InvalidProgramError as exc:
        print(exc.report.render_text(), file=sys.stderr)
        return 1
    except (TemplateError, UnresolvedReferenceError) as exc:
        print(f"seqc: render error: {exc}", file=sys.stderr)
        return 1
    for warning in result.warnings:
        print(f"seqc: warning: {warning}", file=sys.stderr)
    written = codegen.write_outputs(result, args.out, force=args.force)
    if args.json:
        _print_json({"written": [str(path) for path in written],
                     "warnings": list(result.warnings)})
    else:
        for path in written:
            print(path)
    return 0


def cmd_graph(args) -> int:
    text = _read(args.program)
    try:
        if args.dsl:
            program = program_io.load_program(text, _load_dsl(args.dsl))
        else:
            program = program_io.parse_program(text)
    except SeqcError as exc:
        raise _CliFailure(2, f"{args.program}: {exc}") from exc
    if args.json:
        _print_json(program_io.graph_payload(program))
    else:
        sys.stdout.write(program_io.export_dot(program))
    return 0


if __name__ == "__main__":
    sys.exit(main())
