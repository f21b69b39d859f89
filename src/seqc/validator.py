"""Static checks on programs: completeness, types, and parallelism limits.

Checks accumulate findings instead of raising, so one pass reports
everything: duplicate names and bindings, every reference the loader
resolves, unbound parameters, dangling or mistyped variable references
and literals, cycles, mutual-exclusion violations, and data-flow lints
(reads with no possible writer, races between parallel actions).
`_errors` alone decides whether the graph checks run: only on a sound
precedence graph, one that can be built and is acyclic.

A program is acceptable ("ok") when no Error-severity finding exists;
warnings flag suspicious but permitted constructions.
"""

import itertools
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from . import model
from .dsl import RobotClassDsl, _duplicates
from .errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    InvalidProgramError,
    UnknownActionTypeError,
    UnknownResourceTypeError,
    UnknownVariableTypeError,
    UnresolvedReferenceError,
)
from .model import Program, Value, _repeated_name, _set, _unknown_predecessor


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Code(str, Enum):
    """Closed set of finding identifiers."""

    DUPLICATE_NAME = "DuplicateName"
    UNBOUND_PARAMETER = "UnboundParameter"
    UNKNOWN_VARIABLE = "UnknownVariable"
    UNRESOLVED_REFERENCE = "UnresolvedReference"
    TYPE_MISMATCH = "TypeMismatch"
    UNINSTANTIATED_VARIABLE = "UninstantiatedVariable"
    CYCLIC_GRAPH = "CyclicGraph"
    MUTEX_VIOLATION = "MutexViolation"
    UNUSED_VARIABLE = "UnusedVariable"
    VARIABLE_RACE = "VariableRace"


# A code's severity is fixed: README's code table is the rule.
_SEVERITY = {code: Severity.ERROR for code in Code} | dict.fromkeys(
    (Code.UNINSTANTIATED_VARIABLE, Code.UNUSED_VARIABLE, Code.VARIABLE_RACE), Severity.WARNING)


class Finding(Value):
    """One problem a check found, naming the program elements it concerns."""

    code: Code
    subjects: tuple[str, ...]
    message: str

    def __init__(self, code: Code, subjects: tuple[str, ...], message: str):
        _set(self, "code", code)
        _set(self, "subjects", subjects)
        _set(self, "message", message)

    @property
    def severity(self) -> Severity:
        """Read from the code table, so no finding can contradict it."""
        return _SEVERITY[self.code]


_REPORT_ORDER = attrgetter("code", "subjects")


class ValidationReport(Value):
    """Every finding of one validation, deduplicated and in report order."""

    findings: tuple[Finding, ...]

    def __init__(self, findings: tuple[Finding, ...]):
        # Findings are ordered by code, then subjects, then check order:
        # a dict dedupes without a hash-seeded reordering, which also
        # keeps the sorted runs the checks emit for the stable sort.  It
        # is keyed by field tuples, which hash in C, as equal findings are
        # those with equal fields.  Code is a str enum, so members compare
        # as their values.
        unique = dict(zip(map(Finding._field_values, findings), findings)).values()
        _set(self, "findings", tuple(sorted(unique, key=_REPORT_ORDER)))

    @property
    def ok(self) -> bool:
        codes = map(attrgetter("code"), self.findings)
        return Severity.ERROR not in map(_SEVERITY.__getitem__, codes)

    def to_json(self) -> str:
        """The report as indent-2 JSON, one chunk per finding: `{"ok": bool,
        "findings": [{"severity", "code", "subjects": [str], "message"}]}`,
        the findings in report order."""
        head = f'{{\n  "ok": {"true" if self.ok else "false"},\n  "findings": '
        if not self.findings:
            return head + "[]\n}"
        # Severity and Code values are plain identifiers, so they need no
        # escaping; `_value_` skips the `value` property's descriptor call.
        chunks = [
            f'    {{\n      "severity": "{_SEVERITY[f.code]._value_}",\n'
            f'      "code": "{f.code._value_}",\n'
            f'      "subjects": {_json_strings(f.subjects)},\n'
            f'      "message": {_quote(f.message)}\n    }}'
            for f in self.findings
        ]
        return head + "[\n" + ",\n".join(chunks) + "\n  ]\n}"

    def render_text(self) -> str:
        lines = [
            f"{_SEVERITY[f.code].value} {f.code.value} ({', '.join(f.subjects)}): {f.message}"
            for f in self.findings
        ]
        status = "OK" if self.ok else "FAILED"
        lines.append(f"{status}, {len(self.findings)} finding{'s' if len(self.findings) != 1 else ''}")
        return "\n".join(lines)


def _json_strings(items: tuple[str, ...]) -> str:
    """A finding's subject list as indent-2 JSON at its nesting depth."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_quote, items)) + "\n      ]"


def validate(program: Program, dsl: RobotClassDsl) -> ValidationReport:
    """Run every check and aggregate the findings; never aborts early.
    The graph checks run only on a sound graph: a cycle is one CyclicGraph
    finding, and a graph that cannot be built adds nothing, since
    check_bindings reports why."""
    return _report(program, *_errors(program, dsl))


def _errors(program: Program, dsl: RobotClassDsl) -> tuple[list[Finding], bool]:
    """The findings of the only checks with Error codes, and whether the graph is sound."""
    findings = check_bindings(program, dsl)
    try:
        program.graph.order  # raises CyclicGraphError on a cycle
    except (DuplicateIdentifierError, UnresolvedReferenceError):
        return findings, False
    except CyclicGraphError as exc:
        return findings + [Finding(
            Code.CYCLIC_GRAPH, tuple(sorted(set(exc.cycle))),
            "actions form a precedence cycle: " + " -> ".join(exc.cycle + exc.cycle[:1]))], False
    return findings + check_mutex_schedulability(program, dsl), True


def _report(program: Program, errors: list[Finding], sound: bool) -> ValidationReport:
    """`validate`'s report from the Error checks' result and the lints."""
    readers, writers = _variable_uses(program)
    findings = errors + _lint_unused_variables(program, readers, writers)
    if sound:
        findings += _lint_uninstantiated(program, readers, writers)
        findings += lint_variable_races(program, readers, writers)
    return ValidationReport(tuple(findings))


def _refuse_invalid(program: Program, dsl: RobotClassDsl) -> None:
    """Raise InvalidProgramError with `validate`'s report on an Error; no lint runs otherwise."""
    errors, sound = _errors(program, dsl)
    if errors:
        raise InvalidProgramError(_report(program, errors, sound))


def _variable_uses(program: Program) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each variable's readers and writers, in action order: the one index
    the data-flow lints share.  An action reads a variable once however
    many of its arguments bind it."""
    readers, writers = {}, {}
    for action in program.actions:
        for variable in dict.fromkeys([a.variable for a in action.args if a.variable is not None]):
            readers.setdefault(variable, []).append(action.name)
        if action.return_to is not None:
            writers.setdefault(action.return_to, []).append(action.name)
    return readers, writers


def _mask(position: dict[str, int], names) -> int:
    """The bitset of `names` at their `position` bits."""
    bits = 0
    for name in names:
        bits |= 1 << position[name]
    return bits


def _check_robot_class(name: str, robot_class: str, dsl: RobotClassDsl) -> list[Finding]:
    """The finding for a program `name` written for another robot class."""
    if robot_class == dsl.name:
        return []
    return [Finding(Code.UNRESOLVED_REFERENCE, (name, robot_class),
                    f"program is written for robot class {robot_class!r},"
                    f" but the DSL is {dsl.name!r}")]


def _check_declarations(program: Program, dsl: RobotClassDsl) -> list[tuple[Finding, type]]:
    """The declaration rules, each finding with the error `load_program`
    raises for it: unique resource, variable and action names; known
    component, variable and action types; each action on a declared
    resource (the first of its name) of its type's component; and no
    unknown predecessor, unknown parameter or parameter bound twice."""
    found = [
        (Finding(Code.DUPLICATE_NAME, (name,), _repeated_name(kind, name)), DuplicateIdentifierError)
        for kind, entries in (
            ("action", program.actions),
            ("resource", program.resources),
            ("variable", program.variables),
        )
        for name in _duplicates(entry.name for entry in entries)
    ]
    for resource in program.resources:
        if dsl.component(resource.component_type) is None:
            found.append((Finding(
                Code.UNRESOLVED_REFERENCE, (resource.name, resource.component_type),
                f"resource {resource.name!r} has unknown component type"
                f" {resource.component_type!r}"), UnknownResourceTypeError))
    component_of = {r.name: r.component_type for r in reversed(program.resources)}
    for action in program.actions:
        component = component_of.get(action.resource)
        atype = dsl._actions.get(action.action_type)  # None: reported below
        if component is None:
            found.append((Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.resource),
                f"action {action.name!r} runs on undeclared resource {action.resource!r}"),
                UnresolvedReferenceError))
        elif atype is not None and component != atype.owner and dsl.component(component) is not None:
            found.append((Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.resource),
                f"action {action.name!r}: type {atype.identifier!r} belongs to component"
                f" {atype.owner!r}, but resource {action.resource!r} is a {component!r}"),
                UnresolvedReferenceError))
    for variable in program.variables:
        if dsl.variable_type(variable.type_name) is None:
            found.append((Finding(
                Code.UNRESOLVED_REFERENCE, (variable.name, variable.type_name),
                f"variable {variable.name!r} has unknown type {variable.type_name!r}"),
                UnknownVariableTypeError))
    names = {action.name for action in program.actions}
    for action in program.actions:
        for pred in action.predecessors:
            if pred not in names:
                found.append((Finding(Code.UNRESOLVED_REFERENCE, (action.name, pred),
                                      _unknown_predecessor(action.name, pred)),
                              UnresolvedReferenceError))
        atype = dsl._actions.get(action.action_type)
        if atype is None:
            found.append((Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.action_type),
                f"action {action.name!r} has unknown type {action.action_type!r}"),
                UnknownActionTypeError))
            continue
        for arg in action.args:
            if arg.param not in atype.parameters_by_name:
                found.append((Finding(
                    Code.UNRESOLVED_REFERENCE, (action.name, arg.param),
                    f"action {action.name!r} binds unknown parameter {arg.param!r}"),
                    UnresolvedReferenceError))
        if len({arg.param for arg in action.args}) < len(action.args):  # some parameter repeats
            for param in _duplicates(arg.param for arg in action.args):
                found.append((Finding(
                    Code.DUPLICATE_NAME, (action.name, param),
                    f"action {action.name!r} binds parameter {param!r} twice"),
                    DuplicateIdentifierError))
    return found


def check_mutex_schedulability(program: Program, dsl: RobotClassDsl) -> list[Finding]:
    """Flag pairs of mutually exclusive actions that could overlap.

    Two instances violate a declared exclusion exactly when their types
    are mutex partners and nothing prevents simultaneity: no precedence
    path between them and distinct resource instances.  Actions are
    grouped by type, so only instances of mutex-partner types are tested
    for parallelism.  On an unsound graph its graph queries raise.
    """
    actions = program.graph.actions
    by_type: dict[str, list[str]] = {}
    for name, action in actions.items():
        by_type.setdefault(action.action_type, []).append(name)
    types = sorted(by_type)
    findings = []
    for i, type_a in enumerate(types):
        for type_b in types[i:]:
            if not dsl.is_mutex(type_a, type_b):
                continue
            if type_a == type_b:
                pairs = itertools.combinations(by_type[type_a], 2)
            else:
                pairs = itertools.product(by_type[type_a], by_type[type_b])
            for x, y in pairs:
                if model.potentially_parallel(program, x, y):
                    a, b = min(x, y), max(x, y)
                    findings.append(Finding(
                        Code.MUTEX_VIOLATION, (a, b),
                        f"{a!r} ({actions[a].action_type}) and {b!r} ({actions[b].action_type})"
                        " may run simultaneously but their action types are mutually exclusive"))
    return findings


def check_bindings(program: Program, dsl: RobotClassDsl) -> list[Finding]:
    """The robot class, the declaration rules of `_check_declarations`,
    and the completeness and typing of bindings and initializers: every
    parameter of a known action type bound, each literal of its declared
    type, and each variable reference declared and of the slot's type.
    Bindings are read by parameter name, so their order carries no meaning.
    """
    findings = _check_robot_class(program.name, program.robot_class, dsl)
    findings += [finding for finding, _ in _check_declarations(program, dsl)]
    for variable in program.variables:
        if (variable.init is not None and dsl.variable_type(variable.type_name) is not None
                and not dsl._is_literal(variable.init, variable.type_name)):
            findings.append(Finding(
                Code.TYPE_MISMATCH, (variable.name, "init"),
                f"initializer of variable {variable.name!r} does not type-check"
                f" as {variable.type_name}"))
    for action in program.actions:
        atype = dsl._actions.get(action.action_type)
        if atype is None:
            continue
        bound = {arg.param: arg for arg in action.args}
        # (variable, binding slot, expected type, what the slot expects)
        references = []
        for param in atype.parameters:
            arg = bound.get(param.name)
            if arg is None:
                findings.append(Finding(
                    Code.UNBOUND_PARAMETER, (action.name, param.name),
                    f"action {action.name!r} leaves parameter {param.name!r} unset"))
            elif arg.variable is not None:
                references.append((arg.variable, param.name, param.type_name,
                                   f"parameter {param.name!r} expects {param.type_name}"))
            elif not dsl._is_literal(arg.value, param.type_name):
                findings.append(Finding(
                    Code.TYPE_MISMATCH, (action.name, param.name),
                    f"literal value for parameter {param.name!r} does not"
                    f" type-check as {param.type_name}"))
        if action.return_to is not None and atype.return_type is not None:
            references.append((action.return_to, "return", atype.return_type,
                               f"return value is {atype.return_type}"))
        for variable, slot, type_name, expects in references:
            decl = program.variable(variable)
            if decl is None:
                findings.append(Finding(
                    Code.UNKNOWN_VARIABLE, (action.name, variable),
                    f"action {action.name!r} references undeclared variable {variable!r}"))
            elif decl.type_name != type_name:
                findings.append(Finding(
                    Code.TYPE_MISMATCH, (action.name, slot),
                    f"{expects}, variable {variable!r} is {decl.type_name}"))
        # Last, so a parameter named "return" still reports before the binding.
        if action.return_to is not None and atype.return_type is None:
            findings.append(Finding(
                Code.TYPE_MISMATCH, (action.name, "return"),
                f"action type {atype.identifier!r} returns no value but"
                f" {action.name!r} binds a return variable"))
    return findings


def _lint_uninstantiated(program: Program, readers, writers) -> list[Finding]:
    """Warn (UninstantiatedVariable) when an action reads a variable that
    has no initializer and no writer that could run before it: every
    writer is a strict descendant of the reader, or none exists at all.
    An action's own return binding does not count as instantiating its
    own reads, since arguments are read at start and returns written at
    finish.  Each variable's writers are one bitset, so a reader costs one
    mask test against its `descendant_bits`.
    """
    graph = program.graph
    position = graph.position
    findings = []
    for variable, read_by in readers.items():
        decl = program.variable(variable)
        if decl is None or decl.init is not None:
            continue
        written = _mask(position, writers.get(variable, ()))
        for reader in read_by:  # with no writer at all, the closure is not built
            if written and written & ~(graph.descendant_bits[reader] | 1 << position[reader]):
                continue  # a writer that is neither the reader nor after it can run first
            findings.append(Finding(
                Code.UNINSTANTIATED_VARIABLE, (reader, variable),
                f"action {reader!r} reads {variable!r}, which has no"
                " initializer and no writer that can run first"))
    return findings


def _lint_unused_variables(program: Program, readers, writers) -> list[Finding]:
    return [
        Finding(Code.UNUSED_VARIABLE, (variable.name,),
                f"variable {variable.name!r} is never read or written by any action")
        for variable in program.variables
        if variable.name not in readers and variable.name not in writers
    ]


def lint_variable_races(program: Program, readers: dict, writers: dict) -> list[Finding]:
    """Warn when parallel actions touch the same variable conflictingly.

    A conflict is write/write or read/write on one variable by two
    actions that may overlap in time.  Ordered or same-resource pairs
    cannot race.  Each variable's readers and writers are one bitset, and
    a writer races with the members of that bitset inside its `concurrent`
    mask; a writer leaves the bitset once swept, so each pair is found
    once and no pair is queried on its own.  `readers` and `writers` are
    `validate`'s index.  On an unsound graph its graph queries raise.
    Findings are sorted by subjects.
    """
    graph = program.graph
    position = graph.position
    names = list(position)
    findings = []
    for variable, written_by in writers.items():
        touching = _mask(position, readers.get(variable, ())) | _mask(position, written_by)
        for writer in written_by:
            touching &= ~(1 << position[writer])
            if not touching:  # no pair left, and the index is built only for a pair
                break
            racing = graph.concurrent[writer] & touching
            while racing:
                low = racing & -racing
                racing ^= low
                other = names[low.bit_length() - 1]
                first, second = (writer, other) if writer < other else (other, writer)
                findings.append(Finding(
                    Code.VARIABLE_RACE, (first, second, variable),
                    f"{first!r} and {second!r} may run simultaneously and both"
                    f" touch variable {variable!r}"))
    findings.sort(key=attrgetter("subjects"))
    return findings
