"""Program documents: XML persistence and DOT export of the action graph.

The XML surface form mirrors the in-memory model: resource instances,
global variables, action instances with argument/return bindings, and a
constraint section of <After action="X" predecessor="Y"/> edges.
Documents are saved in canonical form (fixed section order, entries
sorted by name) so equal programs always produce identical bytes.

Both loaders share one structural walk over the document, which checks
the section and entry tags and reads each entry's required attributes,
so a structural error is reported before any reference is resolved.
`load_program` follows it with a resolve pass against the DSL: literal
argument values and variable initializers are attribute text parsed
under the direction of the declared type, and composite values use
nested <Field> elements.  `parse_program` builds the unresolved model
from the same walk.
"""

import math
import re
from operator import itemgetter

from . import model
from .dsl import RobotClassDsl, _duplicates, lookup_action
from .errors import (
    DuplicateIdentifierError,
    UnknownResourceTypeError,
    UnknownVariableTypeError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from .model import ActionInstance, ArgBinding, ConstraintEdge, Program, ResourceInstance, VariableDecl
from .xmlio import _children, _write_element, parse_root, require_attr


def load_program(text: str, dsl: RobotClassDsl) -> Program:
    """Parse a program document and resolve every reference against the DSL.

    The program's robot class must be the DSL's name.  Structural
    references (action types, resource instances, parameter names,
    constraint endpoints) must resolve and the precedence graph must be
    acyclic.  Variable references in bindings are deliberately
    not resolved here; the validator reports them with context.
    """
    name, robot_class, elems, attrs = _read_document(text)
    if robot_class != dsl.name:
        raise UnresolvedReferenceError(f"program is written for robot class {robot_class!r},"
                                       f" but the DSL is {dsl.name!r}")
    resources = [ResourceInstance(*row) for row in attrs["Resources"]]
    for resource in resources:
        if dsl.component(resource.component_type) is None:
            raise UnknownResourceTypeError(f"resource {resource.name!r} has unknown"
                                           f" component type {resource.component_type!r}")
    variables = [_parse_variable(elem, row, dsl)
                 for elem, row in zip(elems["Variables"], attrs["Variables"])]
    _reject_duplicates((r.name for r in resources), "resource")
    _reject_duplicates((v.name for v in variables), "variable")
    resource_types = {r.name: r.component_type for r in resources}
    rows = [_parse_action(elem, row, dsl, resource_types)
            for elem, row in zip(elems["Actions"], attrs["Actions"])]
    _reject_duplicates((row[0] for row in rows), "action")
    incoming: dict[str, set[str]] = {row[0]: set() for row in rows}
    for action, predecessor in attrs["Constraints"]:
        for endpoint in (action, predecessor):
            if endpoint not in incoming:
                raise UnresolvedReferenceError(f"constraint references unknown action {endpoint!r}")
        incoming[action].add(predecessor)
    program = _assemble(name, robot_class, resources, variables, rows, incoming)
    model.topological_order(program)  # raises CyclicGraphError on cycles
    return program


def parse_program(text: str) -> Program:
    """Structural parse without a DSL, for graph export.

    Types are not resolved, literals are kept as raw strings, and
    acyclicity is not enforced.  Use load_program for real loading.
    """
    name, robot_class, _, attrs = _read_document(text)
    resources = [ResourceInstance(*row) for row in attrs["Resources"]]
    variables = [VariableDecl(*row) for row in attrs["Variables"]]
    rows = [(*row, (), None) for row in attrs["Actions"]]
    incoming: dict[str, set[str]] = {}
    for action, predecessor in attrs["Constraints"]:
        incoming.setdefault(action, set()).add(predecessor)
    return _assemble(name, robot_class, resources, variables, rows, incoming)


_SECTIONS = {  # section tag: (entry tag, the entry's required attributes)
    "Resources": ("Resource", ("name", "type")),
    "Variables": ("Variable", ("name", "type")),
    "Actions": ("ActionInstance", ("name", "type", "resource")),
    "Constraints": ("After", ("action", "predecessor")),
}


def _read_document(text: str):
    """The one structural walk: checks the section and entry tags and the
    entries' required attributes, in document order.  Returns the root's
    name and robot class, then by section tag the entry elements and, in
    the same order, the tuples of their required attribute values."""
    root = parse_root(text, "Program")
    name = require_attr(root, "name")
    robot_class = require_attr(root, "robotClass")
    elems: dict[str, list] = {tag: [] for tag in _SECTIONS}
    attrs: dict[str, list[tuple[str, ...]]] = {tag: [] for tag in _SECTIONS}
    for section in root:
        if section.tag not in _SECTIONS:
            raise XmlSyntaxError(f"unexpected element <{section.tag}>")
        entry_tag, required = _SECTIONS[section.tag]
        entries = _children(section, entry_tag)
        elems[section.tag].extend(entries)
        attrs[section.tag].extend(_required(entries, required))
    return name, robot_class, elems, attrs


def _assemble(name, robot_class, resources, variables, rows, incoming) -> Program:
    """The Program from parts; `rows` are (name, type, resource, args, return_to)."""
    edge = {p: ConstraintEdge(p) for p in set().union(*incoming.values())}
    actions = tuple(
        ActionInstance(action_name, type_name, resource, args, return_to,
                       tuple(map(edge.__getitem__, incoming.get(action_name, ()))))
        for action_name, type_name, resource, args, return_to in rows
    )
    return Program(name, robot_class, tuple(resources), tuple(variables), actions)


def _required(elems: list, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Each element's values of the attributes `names`, which it must carry."""
    values = itemgetter(*names)
    try:
        return [values(elem.attrib) for elem in elems]
    except KeyError:  # report the first one missing
        return [tuple([require_attr(elem, attr) for attr in names]) for elem in elems]


def _reject_duplicates(names, kind):
    for name in _duplicates(names):
        raise DuplicateIdentifierError(f"{kind} {name!r} declared twice")


def _parse_variable(elem, attrs, dsl: RobotClassDsl) -> VariableDecl:
    name, type_name = attrs
    if dsl.variable_type(type_name) is None:
        raise UnknownVariableTypeError(f"variable {name!r} has unknown type {type_name!r}")
    init_attr, where = elem.get("init"), f"variable {name!r}"
    if init_attr is not None and len(elem):
        raise XmlSyntaxError(f"{where} mixes init attribute and <Field> children")
    if init_attr is None and not len(elem):
        return VariableDecl(name, type_name)
    return VariableDecl(name, type_name, _parse_literal(elem, init_attr, type_name, dsl, where))


def _parse_action(elem, attrs, dsl: RobotClassDsl, resource_types: dict[str, str]):
    name, type_name, resource = attrs
    action_type = lookup_action(dsl, type_name)
    if resource not in resource_types:
        raise UnresolvedReferenceError(
            f"action {name!r} runs on undeclared resource {resource!r}"
        )
    if resource_types[resource] != action_type.owner:
        raise UnresolvedReferenceError(
            f"action {name!r}: type {type_name!r} belongs to component"
            f" {action_type.owner!r}, but resource {resource!r} is a"
            f" {resource_types[resource]!r}"
        )
    declared = action_type.parameters_by_name
    bindings: dict[str, ArgBinding] = {}
    return_to = None
    for child in elem:
        if child.tag == "Arg":
            param = require_attr(child, "param")
            if param not in declared:
                raise UnresolvedReferenceError(
                    f"action {name!r} binds unknown parameter {param!r}"
                )
            if param in bindings:
                raise DuplicateIdentifierError(
                    f"action {name!r} binds parameter {param!r} twice"
                )
            bindings[param] = _parse_arg(child, declared[param], dsl, name)
        elif child.tag == "ReturnTo":
            if return_to is not None:
                raise XmlSyntaxError(f"action {name!r} has more than one <ReturnTo>")
            return_to = require_attr(child, "variable")
        else:
            raise XmlSyntaxError(f"unexpected element <{child.tag}> inside <ActionInstance>")
    ordered = tuple([bindings[param] for param in declared if param in bindings])
    return name, type_name, resource, ordered, return_to


def _parse_arg(elem, param, dsl: RobotClassDsl, action_name: str) -> ArgBinding:
    variable, value_attr = elem.get("variable"), elem.get("value")
    if (variable is not None) + (value_attr is not None) + (len(elem) > 0) != 1:
        raise XmlSyntaxError(
            f"action {action_name!r}, parameter {param.name!r}: exactly one of"
            " variable=, value=, or nested <Field> elements is required"
        )
    if variable is not None:
        return ArgBinding(param.name, variable=variable)
    where = f"action {action_name!r}, parameter {param.name!r}"
    return ArgBinding(param.name, value=_parse_literal(elem, value_attr, param.type_name, dsl, where))


def _parse_literal(elem, text: str | None, type_name: str, dsl: RobotClassDsl, where: str):
    """A scalar from attribute `text`, or if it is None from `elem`'s <Field>s."""
    if text is not None:
        return _parse_scalar(text, type_name, dsl, where)
    return _parse_composite(elem, type_name, dsl, where)


def _parse_scalar(text: str, type_name: str, dsl: RobotClassDsl, where: str):
    vtype = dsl.variable_type(type_name)
    if vtype is None or not vtype.is_primitive:
        raise XmlSyntaxError(
            f"{where}: type {type_name!r} takes nested <Field> values, not attribute text"
        )
    try:
        if type_name == "Int":
            return int(text, 10)
        if type_name == "Float":
            value = float(text)
            if not math.isfinite(value):  # NaN breaks equality; none is valid JSON
                raise ValueError(text)
            return value
        if type_name == "Bool":
            if text in ("true", "false"):
                return text == "true"
            raise ValueError(text)
        return text  # String
    except ValueError as exc:
        raise XmlSyntaxError(f"{where}: {text!r} is not a valid {type_name}") from exc


def _parse_composite(elem, type_name: str, dsl: RobotClassDsl, where: str) -> dict:
    vtype = dsl.variable_type(type_name)
    if vtype is None or vtype.is_primitive:
        raise XmlSyntaxError(f"{where}: type {type_name!r} does not take <Field> values")
    declared = dict(vtype.fields or ())
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
    missing = sorted(set(declared) - set(value))
    if missing:
        raise XmlSyntaxError(f"{where}: missing field(s) {', '.join(missing)}")
    return value


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _literal_element(tag: str, attrs: list, attr: str, value):
    """<tag> carrying a literal: a scalar in attribute `attr`, a composite
    as nested <Field> elements."""
    if isinstance(value, dict):
        return tag, attrs, [_literal_element("Field", [("name", field_name)], "value", field_value)
                            for field_name, field_value in value.items()]
    return tag, [*attrs, (attr, _scalar_text(value))], ()


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
    edges = sorted((action.name, edge.predecessor)
                   for action in program.actions for edge in action.constraints)
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


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    return name if _DOT_ID.match(name) else _dot_quoted(name)


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_pairs(program: Program) -> list[tuple[str, str]]:
    """Every (predecessor, action) precedence pair, sorted."""
    return sorted(
        (edge.predecessor, action.name)
        for action in program.actions
        for edge in action.constraints
    )


def graph_payload(program: Program) -> dict:
    """The `graph --json` document: nodes in name order, edges sorted."""
    nodes = [{"name": a.name, "type": a.action_type, "resource": a.resource}
             for a in program.actions]
    edges = [{"from": p, "to": a} for p, a in _edge_pairs(program)]
    return {"name": program.name, "nodes": nodes, "edges": edges}


def export_dot(program: Program) -> str:
    """Render the dependency graph as a DOT digraph.

    One node per action labeled "name: actionType @resource", one edge
    per precedence constraint, both in sorted order.
    """
    lines = [f"digraph {_dot_id(program.name)} {{"]
    for action in program.actions:
        label = f"{action.name}: {action.action_type} @{action.resource}"
        lines.append(f"  {_dot_quoted(action.name)} [label={_dot_quoted(label)}];")
    for predecessor, successor in _edge_pairs(program):
        lines.append(f"  {_dot_quoted(predecessor)} -> {_dot_quoted(successor)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
