"""Static checks on programs: completeness, types, and parallelism limits.

Checks accumulate findings instead of raising, so one pass reports
everything: duplicate names and bindings, every reference the loader
resolves, unbound parameters, dangling or mistyped variable references
and literals, cycles, mutual-exclusion violations, and data-flow lints
(reads with no possible writer, races between parallel actions).
`validate` alone decides whether the graph checks run: only on a sound
precedence graph, one that can be built and is acyclic.

A program is acceptable ("ok") when no Error-severity finding exists;
warnings flag suspicious but permitted constructions.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from . import model
from .dsl import RobotClassDsl, _duplicates
from .errors import CyclicGraphError, DuplicateIdentifierError, UnresolvedReferenceError
from .model import Program


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


@dataclass(frozen=True)
class Finding:
    code: Code
    subjects: tuple[str, ...]
    message: str

    @property
    def severity(self) -> Severity:
        """Read from the code table, so no finding can contradict it."""
        return _SEVERITY[self.code]


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    def __post_init__(self):
        # Findings are ordered by code, then subjects, then check order:
        # dict.fromkeys dedupes without a hash-seeded reordering, which
        # also keeps the sorted runs the checks emit for the stable sort.
        # Code is a str enum, so members compare as their values.
        ordered = sorted(dict.fromkeys(self.findings), key=attrgetter("code", "subjects"))
        object.__setattr__(self, "findings", tuple(ordered))

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
    finding, and a graph that cannot be built adds nothing, since the name
    check and check_bindings report why."""
    readers, writers = _variable_uses(program)
    findings = _check_unique_names(program)
    findings += check_bindings(program, dsl)
    findings += _lint_unused_variables(program, readers, writers)
    try:
        program.graph.order  # raises CyclicGraphError on a cycle
    except (DuplicateIdentifierError, UnresolvedReferenceError):
        pass
    except CyclicGraphError as exc:
        findings.append(Finding(
            Code.CYCLIC_GRAPH, tuple(sorted(set(exc.cycle))),
            "actions form a precedence cycle: " + " -> ".join(exc.cycle + exc.cycle[:1])))
    else:
        findings += _lint_uninstantiated(program, readers, writers)
        findings += check_mutex_schedulability(program, dsl)
        findings += lint_variable_races(program, readers, writers)
    return ValidationReport(tuple(findings))


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


def _check_unique_names(program: Program) -> list[Finding]:
    return [
        Finding(Code.DUPLICATE_NAME, (name,), f"{kind} name {name!r} is declared more than once")
        for kind, entries in (
            ("action", program.actions),
            ("resource", program.resources),
            ("variable", program.variables),
        )
        for name in _duplicates(entry.name for entry in entries)
    ]


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
    """Completeness and typing of bindings and initializers, and every
    reference the loader resolves: the robot class, each resource's
    component, each variable's type, and each action's type, resource,
    bound parameters and predecessors.  Of a repeated resource or
    variable name, the first declaration counts.
    """
    findings = []
    if program.robot_class != dsl.name:
        findings.append(Finding(
            Code.UNRESOLVED_REFERENCE, (program.name, program.robot_class),
            f"program is written for robot class {program.robot_class!r},"
            f" but the DSL is {dsl.name!r}"))
    for resource in program.resources:
        if dsl.component(resource.component_type) is None:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (resource.name, resource.component_type),
                f"resource {resource.name!r} has unknown component type"
                f" {resource.component_type!r}"))
    for variable in program.variables:
        if dsl.variable_type(variable.type_name) is None:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (variable.name, variable.type_name),
                f"variable {variable.name!r} has unknown type {variable.type_name!r}"))
        elif variable.init is not None and not dsl._is_literal(variable.init, variable.type_name):
            findings.append(Finding(
                Code.TYPE_MISMATCH, (variable.name, "init"),
                f"initializer of variable {variable.name!r} does not type-check"
                f" as {variable.type_name}"))
    component_of = {r.name: r.component_type for r in reversed(program.resources)}
    action_types = dsl.action_types()
    names = {action.name for action in program.actions}
    for action in program.actions:
        for pred in action.predecessors:
            if pred not in names:
                findings.append(Finding(
                    Code.UNRESOLVED_REFERENCE, (action.name, pred),
                    f"action {action.name!r} names unknown predecessor {pred!r}"))
        atype = action_types.get(action.action_type)
        if atype is None:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.action_type),
                f"action {action.name!r} has unknown type {action.action_type!r}"))
            continue
        component = component_of[action.resource]  # an unknown one is reported above
        if component != atype.owner and dsl.component(component) is not None:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.resource),
                f"action {action.name!r}: type {atype.identifier!r} belongs to component"
                f" {atype.owner!r}, but resource {action.resource!r} is a {component!r}"))
        for arg in action.args:
            if arg.param not in atype.parameters_by_name:
                findings.append(Finding(
                    Code.UNRESOLVED_REFERENCE, (action.name, arg.param),
                    f"action {action.name!r} binds unknown parameter {arg.param!r}"))
        for param in _duplicates(arg.param for arg in action.args):
            findings.append(Finding(
                Code.DUPLICATE_NAME, (action.name, param),
                f"action {action.name!r} binds parameter {param!r} twice"))
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
    finish.
    """
    precedes = program.graph.precedes
    findings = []
    for variable, read_by in readers.items():
        decl = program.variable(variable)
        if decl is None or decl.init is not None:
            continue
        written_by = writers.get(variable, ())
        for reader in read_by:
            if all(writer == reader or precedes(reader, writer) for writer in written_by):
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
    cannot race.  Actions are grouped by variable, so only pairs with a
    conflict are tested for parallelism.  `readers` and `writers` are
    `validate`'s index.  On an unsound graph its graph queries raise.
    """
    conflicts: dict[tuple[str, str], set[str]] = {}
    for variable, written_by in writers.items():
        touching = written_by + readers.get(variable, [])
        for writer in written_by:
            for other in touching:
                if other != writer:
                    pair = (min(writer, other), max(writer, other))
                    conflicts.setdefault(pair, set()).add(variable)
    findings = []
    for (first, second), variables in sorted(conflicts.items()):
        if not model.potentially_parallel(program, first, second):
            continue
        for variable in sorted(variables):
            findings.append(Finding(
                Code.VARIABLE_RACE, (first, second, variable),
                f"{first!r} and {second!r} may run simultaneously and both"
                f" touch variable {variable!r}"))
    return findings
