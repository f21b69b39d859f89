"""Program documents: XML persistence and DOT export of the action graph.

The XML surface form mirrors the in-memory model: resource instances,
global variables, action instances with argument/return bindings, and a
constraint section of <After action="X" predecessor="Y"/> edges.
Documents are saved in canonical form (fixed section order, entries
sorted by name) so equal programs always produce identical bytes.

Both loaders read the document with `xmlio.read_document`, which parses
it in slices and hands over each entry, its tag and required attributes
checked, as soon as it is complete; the element tree never exists whole.
`parse_program` keeps the attribute rows only.  `load_program` reads
each entry as far as its types allow, or stops at the first it cannot
read: an unknown type leaves a variable's initializer and an action's
<Arg> values unread, as does a parameter the type lacks.  Each <Arg> has
one reader, `_parse_children`, and each literal one, `_parse_literal`.
The robot class and the declaration rules (names, types, placement,
parameters) are the validator's, and the loader raises their first
finding.  Each action's <After> edges become its `predecessors`, a
sorted tuple of names; no object stands for an edge.
"""

import re
from collections import defaultdict

from . import jsonout
from .dsl import _LITERALS, RobotClassDsl, _literal_text
from .errors import SeqcError, UnresolvedReferenceError, XmlSyntaxError
from .model import ActionInstance, ArgBinding, Program, ResourceInstance, VariableDecl
from .validator import _check_declarations, _check_robot_class
from .xmlio import _children, _detached, _write_element, read_document, require_attr


def load_program(text: str, dsl: RobotClassDsl) -> Program:
    """Parse a program document and resolve it against the DSL.

    Refused, in this order: XML structure; a robot class not the DSL's
    name; the first entry, in document order, that cannot be read (a bad
    <Arg> or <ReturnTo>, or a literal that fails under its known type);
    the first finding of the validator's declaration rules in report
    order; an <After> that names no action; a cycle.  Variable references
    in bindings are left to the validator, which reports them with context.
    """
    program = _read(text, dsl)  # its working lists are freed before the graph index is built
    program.graph.order  # raises CyclicGraphError on cycles
    return program


def _read(text: str, dsl: RobotClassDsl) -> Program:
    """`load_program` up to the acyclicity check."""
    rows: dict[str, list] = {"Resources": [], "Constraints": []}
    variables: list[VariableDecl] = []
    actions: list[tuple] = []  # (name, type, resource, args, return_to) of each action
    failed: list[SeqcError] = []  # the first reading failure

    def take(tag, entries, found):
        if failed:  # reading stops at the first failure
            return
        if tag in rows:
            rows[tag].extend(found)
            return
        try:
            for elem, row in zip(entries, found):
                if tag == "Variables":
                    variables.append(_parse_variable(elem, row, dsl))
                else:
                    action_type = dsl._actions.get(row[1])  # None: every <Arg> is unread
                    actions.append((*row, *_parse_children(elem, action_type, dsl, row[0])))
        except SeqcError as exc:
            failed.append(_detached(exc))
        except RecursionError:
            kind = "variable" if tag == "Variables" else "action"
            failed.append(XmlSyntaxError(f"{kind} {row[0]!r}: literal nested too deeply"))

    name, robot_class = read_document(text, "Program", ("name", "robotClass"), _SECTIONS, take)
    for finding in _check_robot_class(name, robot_class, dsl):
        raise UnresolvedReferenceError(finding.message)
    if failed:
        raise failed[0]
    incoming: dict[str, set[str]] = {row[0]: set() for row in actions}
    dangling = None  # the first endpoint of an <After> that names no action
    for action, predecessor in rows["Constraints"]:
        if action in incoming and predecessor in incoming:
            incoming[action].add(predecessor)
        elif dangling is None:
            dangling = predecessor if action in incoming else action
    resources = tuple([ResourceInstance(*row) for row in rows["Resources"]])
    program = Program(name, robot_class, resources, tuple(variables),
                      tuple([ActionInstance(*row, incoming[row[0]]) for row in actions]))
    if found := _check_declarations(program, dsl):
        finding, error = min(found, key=lambda pair: (pair[0].code, pair[0].subjects))
        raise error(finding.message)
    if dangling is not None:
        raise UnresolvedReferenceError(f"constraint references unknown action {dangling!r}")
    return program


def parse_program(text: str) -> Program:
    """Structural parse without a DSL, for graph export.

    Types are not resolved; arguments, return bindings and initializers
    are dropped; acyclicity is not enforced.  Use load_program for real
    loading.
    """
    rows: dict[str, list] = {tag: [] for tag in _SECTIONS}

    def take(tag, entries, found):
        rows[tag].extend(found)

    name, robot_class = read_document(text, "Program", ("name", "robotClass"), _SECTIONS, take)
    resources = [ResourceInstance(*row) for row in rows["Resources"]]
    variables = [VariableDecl(*row) for row in rows["Variables"]]
    incoming: dict[str, set[str]] = defaultdict(set)
    for action, predecessor in rows["Constraints"]:
        incoming[action].add(predecessor)
    actions = [ActionInstance(*row, (), None, incoming.get(row[0], ())) for row in rows["Actions"]]
    return Program(name, robot_class, tuple(resources), tuple(variables), tuple(actions))


_SECTIONS = {  # section tag: (entry tag, the entry's required attributes)
    "Resources": ("Resource", ("name", "type")),
    "Variables": ("Variable", ("name", "type")),
    "Actions": ("ActionInstance", ("name", "type", "resource")),
    "Constraints": ("After", ("action", "predecessor")),
}


def _parse_variable(elem, attrs, dsl: RobotClassDsl) -> VariableDecl:
    name, type_name = attrs
    init_attr, where = elem.get("init"), f"variable {name!r}"
    if init_attr is not None and len(elem):
        raise XmlSyntaxError(f"{where} mixes init attribute and <Field> children")
    if (init_attr is None and not len(elem)) or dsl.variable_type(type_name) is None:
        return VariableDecl(name, type_name)
    return VariableDecl(name, type_name, _parse_literal(elem, init_attr, type_name, dsl, where))


def _parse_children(elem, action_type, dsl: RobotClassDsl, name: str):
    """The (args, return_to) of action `name` from its <Arg> and <ReturnTo> children.
    Each <Arg> is read here and only here; its binding holds the DSL's parameter
    name, so the bindings of one parameter share one string.  An <Arg> of a
    parameter `action_type` lacks (None: of any) keeps its `value` text unread."""
    declared = action_type.parameters_by_name if action_type is not None else {}
    bindings: list[ArgBinding] = []
    return_to = None
    for child in elem:
        if child.tag == "Arg":
            param = require_attr(child, "param")
            variable, text = child.get("variable"), child.get("value")
            if (variable is not None) + (text is not None) + (len(child) > 0) != 1:
                raise XmlSyntaxError(f"action {name!r}, parameter {param!r}: exactly one of"
                                     " variable=, value=, or nested <Field> elements is required")
            slot = declared.get(param)
            if slot is None:
                bindings.append(ArgBinding(param, None, text or ""))
            elif variable is not None:
                bindings.append(ArgBinding(slot.name, variable))
            else:
                where = f"action {name!r}, parameter {param!r}"
                value = _parse_literal(child, text, slot.type_name, dsl, where)
                bindings.append(ArgBinding(slot.name, None, value))
        elif child.tag == "ReturnTo":
            if return_to is not None:
                raise XmlSyntaxError(f"action {name!r} has more than one <ReturnTo>")
            return_to = require_attr(child, "variable")
        else:
            raise XmlSyntaxError(f"unexpected element <{child.tag}> inside <ActionInstance>")
    return tuple(bindings), return_to  # in document order


def _parse_literal(elem, text: str | None, type_name: str, dsl: RobotClassDsl, where: str):
    """A scalar from attribute `text`, or if it is None from `elem`'s <Field>s."""
    if text is None:
        return _parse_composite(elem, type_name, dsl, where)
    read = _LITERALS.get(type_name)
    if read is None:
        raise XmlSyntaxError(
            f"{where}: type {type_name!r} takes nested <Field> values, not attribute text"
        )
    try:
        return read(text)
    except ValueError:
        raise XmlSyntaxError(f"{where}: {text!r} is not a valid {type_name}") from None


def _parse_composite(elem, type_name: str, dsl: RobotClassDsl, where: str) -> dict:
    vtype = dsl.variable_type(type_name)
    if vtype is None or vtype.is_primitive:
        raise XmlSyntaxError(f"{where}: type {type_name!r} does not take <Field> values")
    declared = vtype.field_types
    value: dict[str, object] = {}
    for field in _children(elem, "Field"):
        field_name = require_attr(field, "name")
        if field_name not in declared:
            raise XmlSyntaxError(f"{where}: type {type_name!r} has no field {field_name!r}")
        if field_name in value:
            raise XmlSyntaxError(f"{where}: field {field_name!r} given twice")
        value[field_name] = _parse_literal(
            field, field.get("value"), declared[field_name], dsl, f"{where}.{field_name}"
        )
    if len(value) < len(declared):  # every key of `value` is a declared field
        missing = sorted(declared.keys() - value.keys())
        raise XmlSyntaxError(f"{where}: missing field(s) {', '.join(missing)}")
    return value


def _literal_element(tag: str, attrs: list, attr: str, value):
    """<tag> carrying a literal: a scalar in attribute `attr`, a composite
    as nested <Field> elements."""
    if isinstance(value, dict):
        return tag, attrs, [_literal_element("Field", [("name", field_name)], "value", field_value)
                            for field_name, field_value in value.items()]
    return tag, [*attrs, (attr, _literal_text(value))], ()


def save_program(program: Program) -> str:
    """Serialize a program to its canonical XML document."""
    variables = []
    for variable in program.variables:
        attrs = [("name", variable.name), ("type", variable.type_name)]
        variables.append(("Variable", attrs, ()) if variable.init is None
                         else _literal_element("Variable", attrs, "init", variable.init))
    actions = []
    for action in program.actions:
        children = [("Arg", [("param", arg.param), ("variable", arg.variable)], ())
                    if arg.variable is not None
                    else _literal_element("Arg", [("param", arg.param)], "value", arg.value)
                    for arg in action.args]
        if action.return_to is not None:
            children.append(("ReturnTo", [("variable", action.return_to)], ()))
        actions.append(("ActionInstance", [("name", action.name), ("type", action.action_type),
                                           ("resource", action.resource)], children))
    # In order already, unless an action name repeats.
    edges = sorted((action.name, pred)
                   for action in program.actions for pred in action.predecessors)
    sections = [
        ("Resources", (), [("Resource", [("name", r.name), ("type", r.component_type)], ())
                           for r in program.resources]),
        ("Variables", (), variables),
        ("Actions", (), actions),
        ("Constraints", (), [("After", [("action", a), ("predecessor", p)], ()) for a, p in edges]),
    ]
    lines: list[str] = []
    _write_element(lines, "", "Program",
                   [("name", program.name), ("robotClass", program.robot_class)], sections)
    return "\n".join(lines) + "\n"


# A bare ID, but no DOT keyword: Graphviz reserves these in any case.
_DOT_ID = re.compile(r"(?!(node|edge|graph|digraph|subgraph|strict)\Z)[A-Za-z_][A-Za-z0-9_]*\Z", re.I)


def _dot_id(name: str) -> str:
    return name if _DOT_ID.match(name) else _dot_quoted(name)


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_pairs(program: Program) -> list[tuple[str, str]]:
    """Every (predecessor, action) precedence pair, sorted."""
    return sorted((pred, action.name) for action in program.actions for pred in action.predecessors)


def graph_json(program: Program) -> str:
    """The `graph --json` document as indent-2 JSON and a newline, one row
    per node and edge: `{"name", "nodes": [{"name", "type", "resource"}],
    "edges": [{"from", "to"}]}`, nodes in name order, edges sorted."""
    nodes = [(a.name, a.action_type, a.resource) for a in program.actions]
    return jsonout.dumps({"name": program.name,
                          "nodes": jsonout.Table(("name", "type", "resource"), nodes),
                          "edges": jsonout.Table(("from", "to"), _edge_pairs(program))}) + "\n"


def export_dot(program: Program) -> str:
    """Render the dependency graph as a DOT digraph.

    One node per action labeled "name: actionType @resource", one edge
    per precedence constraint, both in sorted order.
    """
    lines = [f"digraph {_dot_id(program.name)} {{"]
    quoted = {}  # action name: its DOT id; a dangling predecessor is quoted where it occurs
    for action in program.actions:
        quoted[action.name] = node = _dot_quoted(action.name)
        label = f"{action.name}: {action.action_type} @{action.resource}"
        lines.append(f"  {node} [label={_dot_quoted(label)}];")
    for predecessor, successor in _edge_pairs(program):
        tail = quoted.get(predecessor) or _dot_quoted(predecessor)
        lines.append(f"  {tail} -> {quoted[successor]};")
    del quoted  # before the join, which holds the text twice
    lines.append("}")
    return "\n".join(lines) + "\n"
