"""Batch command-line front end.

    seqc validate  --dsl robot.xml program.xml
    seqc simulate  --dsl robot.xml program.xml [--duration A=3] [--trace out.json]
    seqc generate  --dsl robot.xml program.xml --templates gen.xml --out build/
    seqc graph     program.xml [--dsl robot.xml]

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 validation or render errors, 2 usage, I/O, or parse failures.
Every command accepts --json for machine-readable output.

`main` turns the cyclic garbage collector off for the whole command and
restores the caller's setting when it returns.  Everything a command
builds (element trees, programs, graph indexes, findings, traces) is
acyclic and freed by reference counting, so collections during a
command only walk live objects; on 1000-5000-action programs they took
7-16% of `graph`'s time.  The package's other functions leave the collector
alone: its state belongs to the program that embeds them.

The argument parser is built on the first `main` call and reused after
it: a process may call `main` repeatedly, but not reentrantly.  The
parser holds no command function; `_run` looks the command up by name
when it runs, so a patched `cmd_*` takes effect on the next call.
"""

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import codegen, jsonout, program_io, simulator
from .dsl import load_dsl
from .errors import (
    InvalidProgramError,
    SeqcError,
    TemplateError,
    UnresolvedReferenceError,
)
from .model import DurationMap, Program
from .validator import validate


def main(argv=None) -> int:
    """Run one command; may be called repeatedly, but is not reentrant."""
    # Collections during a command would free nothing: what it builds is
    # acyclic (tests pin this), yet they took 2.6 of 36.7 ms of
    # `graph --json` at 1000 actions and 30 of 207 ms at 5000.  The
    # parser, argparse's only cyclic structure, is built on the first call
    # and kept, so a later call leaves no garbage at all.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


# Each path argument, by its `args` name, and how an error names it.
_PATHS = {"dsl": "--dsl", "program": "PROGRAM", "durations": "--durations",
          "trace": "--trace", "templates": "--templates", "out": "--out"}


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for dest, name in _PATHS.items():
            if getattr(args, dest, None) == "":  # names no file, and would read as '.'
                raise SeqcError(f"{name}: empty path")
        return globals()[f"cmd_{args.command}"](args)
    except (SeqcError, OSError) as exc:
        print(f"seqc: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # composite literals, JSON
        print("seqc: error: input is nested too deeply", file=sys.stderr)
        return 2


@functools.cache
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

    graph_p = sub.add_parser(
        "graph", help="export the precedence graph")
    _add_common(graph_p, dsl_required=False)
    graph_p.add_argument(
        "--format", choices=["dot"], default="dot",
        help="output format (default dot)")
    return parser


def _add_common(parser: argparse.ArgumentParser, *, dsl_required: bool):
    parser.add_argument(
        "--dsl", metavar="PATH", required=dsl_required,
        help="robot-class DSL XML" + ("" if dsl_required else " (optional)"))
    parser.add_argument("program", metavar="PROGRAM", help="program XML file")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output")


def _load(path: str, load, *args, **kwargs):
    """`load(text, ...)` on the UTF-8 text of the file at `path`; a SeqcError names the file."""
    try:
        return load(codegen._read_utf8(Path(path)), *args, **kwargs)
    except SeqcError as exc:
        raise SeqcError(f"{path}: {exc}") from exc


def cmd_validate(args) -> int:
    dsl = _load(args.dsl, load_dsl)
    program = _load(args.program, program_io.load_program, dsl)
    report = validate(program, dsl)
    print(report.to_json() if args.json else report.render_text())
    if not report.ok:
        return 1
    if args.strict_warnings and report.findings:
        return 1
    return 0


def _parse_durations(args, program: Program) -> DurationMap:
    try:
        raw = _load(args.durations, json.loads) if args.durations is not None else {}
    except ValueError as exc:  # malformed, or an int past the int-string limit
        raise SeqcError(f"{args.durations}: {exc}") from None
    if not isinstance(raw, dict):
        raise SeqcError(f"{args.durations}: expected a JSON object")
    for key in raw:  # a misspelt key would go unread; the first in the file is named
        if key not in ("default", "actions"):
            raise SeqcError(f"{args.durations}: unknown key {key!r}")
    per_action = raw.get("actions", {})
    if not isinstance(per_action, dict):
        raise SeqcError(f"{args.durations}: \"actions\" must be an object")
    known = set(program.action_names()) if args.duration else ()
    overrides = {}
    for override in args.duration:
        name, sep, value = override.rpartition("=")  # a name may hold "=", a value never
        if not sep or not name:
            raise SeqcError(f"--duration expects NAME=N, got {override!r}")
        if name not in known:
            raise SeqcError(f"--duration names unknown action {name!r}")
        digits = value.removeprefix("-")  # int() alone reads '+3', ' 3', '1_0' and non-ASCII digits
        try:
            overrides[name] = int(value if digits.isascii() and digits.isdigit() else "!")
        except ValueError:  # not digits, or more of them than the int-string limit
            raise SeqcError(f"--duration {name}: {value!r} is not an integer") from None
    default = raw.get("default", DurationMap.default)
    try:  # each value checked once, every override in place of the file's value
        return DurationMap({**per_action, **overrides}, default)
    except SeqcError:
        try:  # the file's values, less those an override replaces, are named first
            DurationMap({name: value for name, value in per_action.items()
                         if name not in overrides}, default)
        except SeqcError as exc:
            raise SeqcError(f"{args.durations}: {exc}") from None
        raise


def cmd_simulate(args) -> int:
    dsl = _load(args.dsl, load_dsl)
    program = _load(args.program, program_io.load_program, dsl)
    durations = _parse_durations(args, program)
    try:
        trace = simulator.simulate(program, dsl, durations, force=args.force)
    except InvalidProgramError as exc:
        print(exc.report.render_text(), file=sys.stderr)
        print("seqc: error: program is invalid; use --force to simulate anyway",
              file=sys.stderr)
        return 1
    trace_json = simulator.trace_to_json(trace) if args.trace is not None or args.json else ""
    # The timeline is built first: one too long to build refuses the
    # command before --trace writes anything.
    text = trace_json if args.json else simulator.format_timeline(trace)
    if args.trace is not None:
        Path(args.trace).write_text(trace_json, encoding="utf-8")
    sys.stdout.write(text)
    if not args.json:
        print(f"makespan: {trace.makespan}")
    return 0


def _template_search_path() -> list[str]:
    raw = os.environ.get("SEQC_TEMPLATE_PATH", "")
    return [entry for entry in raw.split(os.pathsep) if entry]


def cmd_generate(args) -> int:
    dsl = _load(args.dsl, load_dsl)
    program = _load(args.program, program_io.load_program, dsl)
    config = _load(args.templates, codegen.load_generator_config,
                   base_dir=Path(args.templates).parent, search_path=_template_search_path())
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
        print(jsonout.dumps({"written": [str(path) for path in written],
                             "warnings": list(result.warnings)}))
    else:
        for path in written:
            print(path)
    return 0


def cmd_graph(args) -> int:
    if args.dsl is not None:
        program = _load(args.program, program_io.load_program, _load(args.dsl, load_dsl))
    else:
        program = _load(args.program, program_io.parse_program)
    if args.json:
        sys.stdout.write(program_io.graph_json(program))
    else:
        sys.stdout.write(program_io.export_dot(program))
    return 0


if __name__ == "__main__":
    sys.exit(main())
