"""Robot-class DSL: the vocabulary available when writing programs.

A DSL names the resource component types a robot class offers, the
action types each component provides (with typed parameter lists,
optional return types, and mutual-exclusion partners), and any composite
variable types.  The primitive types Int, Float, Bool, and String are
predefined and never declared.

Loading is strict: every reference must resolve, identifiers must be
unique in their namespace, and composite types may not contain
themselves.  Mutual exclusion is declared per action as a directed list
but means "may never run simultaneously", so `RobotClassDsl.mutex_relation`
symmetrizes the declarations into an unordered relation.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateIdentifierError,
    RecursiveCompositeTypeError,
    UnknownActionTypeError,
    UnknownTypeReferenceError,
    UnresolvedMutexReferenceError,
    XmlSyntaxError,
)
from .model import _first_cycle
from .xmlio import _children, _write_element, parse_root, require_attr

PRIMITIVE_TYPES = ("Int", "Float", "Bool", "String")


@dataclass(frozen=True)
class VariableTypeDef:
    """A variable type: primitive (fields is None) or a composite of named fields."""

    name: str
    fields: tuple[tuple[str, str], ...] | None = None

    @property
    def is_primitive(self) -> bool:
        return self.fields is None

    @cached_property
    def field_types(self) -> dict[str, str]:
        """Field name -> type name, built on first use (not a dataclass field)."""
        return dict(self.fields or ())


PRIMITIVES = {name: VariableTypeDef(name) for name in PRIMITIVE_TYPES}


def _read_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # NaN breaks equality, and no infinity is JSON
        raise ValueError(f"{text!r} is not finite")
    return value


# The reader of each primitive type's attribute text; bad text raises ValueError.
_LITERALS = {"Int": int, "Float": _read_float,
             "Bool": lambda text: bool(("false", "true").index(text)), "String": str}


def _literal_text(value) -> str:
    """The attribute text of a primitive literal, which its type's reader reads."""
    if isinstance(value, bool):
        return "true" if value else "false"
    try:  # a float's str is its shortest text that reads back equal
        return str(value)
    except ValueError as exc:  # an int past the interpreter's int-string limit
        raise XmlSyntaxError(f"literal cannot be written as text: {exc}") from None


@dataclass(frozen=True)
class ParameterDef:
    name: str
    type_name: str


@dataclass(frozen=True)
class ActionTypeDef:
    """One action type as declared under its owning resource component."""

    identifier: str
    owner: str
    return_type: str | None = None
    parameters: tuple[ParameterDef, ...] = ()
    mutex_types: frozenset[str] = frozenset()

    @cached_property
    def parameters_by_name(self) -> dict[str, ParameterDef]:
        """Name -> declaration, built on first use (not a dataclass field)."""
        return {p.name: p for p in self.parameters}


@dataclass(frozen=True)
class ResourceComponentTypeDef:
    type_name: str
    actions: tuple[ActionTypeDef, ...] = ()


_DslIndex = namedtuple("_DslIndex", "components variable_types actions")


@dataclass(frozen=True)
class RobotClassDsl:
    name: str
    variable_types: tuple[VariableTypeDef, ...] = ()
    components: tuple[ResourceComponentTypeDef, ...] = ()

    @cached_property
    def mutex_relation(self) -> frozenset[frozenset[str]]:
        """Each action's `mutex_types` as unordered pairs; a self-exclusive
        type is a one-element set.  Not a field, so equality ignores it."""
        return frozenset(frozenset((action.identifier, partner))
                         for component in self.components
                         for action in component.actions
                         for partner in action.mutex_types)

    @cached_property
    def _index(self) -> _DslIndex:
        """Name -> declaration maps, built on first use; the first
        declaration of a name wins.  Not a dataclass field, so equality
        and hashing ignore it."""
        index = _DslIndex({}, {}, {})
        for component in self.components:
            index.components.setdefault(component.type_name, component)
            for action in component.actions:
                index.actions.setdefault(action.identifier, action)
        for vtype in (*self.variable_types, *PRIMITIVES.values()):
            index.variable_types.setdefault(vtype.name, vtype)
        return index

    def action_types(self) -> dict[str, ActionTypeDef]:
        return dict(self._index.actions)

    def component(self, type_name: str) -> ResourceComponentTypeDef | None:
        return self._index.components.get(type_name)

    def variable_type(self, name: str) -> VariableTypeDef | None:
        """Resolve a type name against declared types and the primitives."""
        return self._index.variable_types.get(name)

    @cached_property
    def _mutex_partners(self) -> dict[str, set[str]]:
        """Each type's partners in `mutex_relation`; a self-exclusive type
        is its own partner.  Not a field, so equality and hashing ignore it."""
        partners: dict[str, set[str]] = {}
        for pair in self.mutex_relation:
            for name in pair:
                partners.setdefault(name, set()).update(pair - {name} or pair)
        return partners

    def is_mutex(self, type_a: str, type_b: str) -> bool:
        return type_b in self._mutex_partners.get(type_a, ())

    def _is_literal(self, value, type_name: str) -> bool:
        """Whether `value` is a literal of type `type_name`: a primitive whose text reads
        back equal under that type, or a dict of exactly the composite's fields, each one."""
        if type_name in _LITERALS:
            try:
                return _LITERALS[type_name](_literal_text(value)) == value
            except (ValueError, XmlSyntaxError):
                return False
        vtype = self.variable_type(type_name)
        if vtype is None or not isinstance(value, dict):
            return False
        fields = vtype.field_types
        return value.keys() == fields.keys() and all(
            self._is_literal(value[name], fields[name]) for name in fields)


def lookup_action(dsl: RobotClassDsl, identifier: str) -> ActionTypeDef:
    """Find an action type by its globally unique identifier."""
    action = dsl._index.actions.get(identifier)
    if action is None:
        raise UnknownActionTypeError(
            f"robot class {dsl.name!r} defines no action type {identifier!r}"
        )
    return action


def load_dsl(text: str) -> RobotClassDsl:
    """Parse and resolve a robot-class DSL from XML text."""
    root = parse_root(text, "RobotClassDSL")
    name = require_attr(root, "name")

    variable_types: list[VariableTypeDef] = []
    components: list[ResourceComponentTypeDef] = []
    seen_type_sections = 0
    for child in root:
        if child.tag == "VariableTypes":
            seen_type_sections += 1
            if seen_type_sections > 1:
                raise DuplicateIdentifierError("more than one <VariableTypes> section")
            variable_types.extend(_parse_variable_type(elem) for elem in _children(child, "VariableType"))
        elif child.tag == "ResourceComponent":
            components.append(_parse_component(child))
        else:
            raise_unexpected(child)

    _check_variable_types(variable_types)
    _check_components(components)
    dsl = RobotClassDsl(name, tuple(variable_types), tuple(components))
    _check_type_references(dsl)
    return dsl


def raise_unexpected(elem):
    raise XmlSyntaxError(f"unexpected element <{elem.tag}>")


def _parse_variable_type(elem) -> VariableTypeDef:
    name = require_attr(elem, "name")
    fields = tuple(
        (require_attr(f, "name"), require_attr(f, "type")) for f in _children(elem, "Field")
    )
    return VariableTypeDef(name=name, fields=fields)


def _parse_component(elem) -> ResourceComponentTypeDef:
    type_name = require_attr(elem, "type")
    actions = tuple(_parse_action(child, type_name) for child in _children(elem, "Action"))
    return ResourceComponentTypeDef(type_name=type_name, actions=actions)


def _parse_action(elem, owner: str) -> ActionTypeDef:
    identifier = require_attr(elem, "actionIdentifier")
    return_type = elem.get("returnType")
    if return_type == "Void":
        return_type = None
    parameters: list[ParameterDef] = []
    mutex_types: set[str] = set()
    for child in elem:
        if child.tag == "ParameterList":
            for param in _children(child, "Parameter"):
                parameters.append(
                    ParameterDef(require_attr(param, "name"), require_attr(param, "type"))
                )
        elif child.tag == "NotAllowedSimultaneousActionTypes":
            for entry in _children(child, "NotAllowedSimultaneousAction"):
                mutex_types.add(require_attr(entry, "type"))
        else:
            raise_unexpected(child)
    names = [p.name for p in parameters]
    for dup in _duplicates(names):
        raise DuplicateIdentifierError(
            f"action type {identifier!r} declares parameter {dup!r} twice"
        )
    return ActionTypeDef(
        identifier=identifier,
        owner=owner,
        return_type=return_type,
        parameters=tuple(parameters),
        mutex_types=frozenset(mutex_types),
    )


def _duplicates(names):
    seen: set[str] = set()
    for name in names:
        if name in seen:
            yield name
        seen.add(name)


def _check_variable_types(declared: list[VariableTypeDef]) -> None:
    names: set[str] = set(PRIMITIVE_TYPES)
    for vtype in declared:
        if vtype.name in names:
            raise DuplicateIdentifierError(
                f"variable type {vtype.name!r} is already defined"
            )
        names.add(vtype.name)
    by_name = {v.name: v for v in declared}
    for vtype in declared:
        for dup in _duplicates(field_name for field_name, _ in vtype.fields or ()):
            raise DuplicateIdentifierError(
                f"variable type {vtype.name!r} declares field {dup!r} twice")
        for field_name, field_type in vtype.fields or ():
            if field_type not in names:
                raise UnknownTypeReferenceError(
                    f"field {vtype.name}.{field_name} has unknown type {field_type!r}"
                )
    # Composite containment must be a DAG; search it depth-first, types
    # and fields in declaration order.
    cycle = _first_cycle(by_name, lambda name: [
        field_type for _, field_type in by_name[name].fields or () if field_type in by_name])
    if cycle:
        raise RecursiveCompositeTypeError(
            "composite type contains itself: " + " -> ".join(cycle + cycle[:1]))


def _check_components(components: list[ResourceComponentTypeDef]) -> None:
    for dup in _duplicates([c.type_name for c in components]):
        raise DuplicateIdentifierError(f"resource component type {dup!r} declared twice")
    identifiers = [a.identifier for c in components for a in c.actions]
    for dup in _duplicates(identifiers):
        raise DuplicateIdentifierError(
            f"action identifier {dup!r} declared twice; identifiers are global to the DSL"
        )


def _check_type_references(dsl: RobotClassDsl) -> None:
    action_ids = set(dsl.action_types())
    for component in dsl.components:
        for action in component.actions:
            if action.return_type and dsl.variable_type(action.return_type) is None:
                raise UnknownTypeReferenceError(
                    f"action {action.identifier!r} returns unknown type {action.return_type!r}"
                )
            for param in action.parameters:
                if dsl.variable_type(param.type_name) is None:
                    raise UnknownTypeReferenceError(
                        f"parameter {action.identifier}.{param.name} has unknown type"
                        f" {param.type_name!r}"
                    )
            for partner in action.mutex_types:
                if partner not in action_ids:
                    raise UnresolvedMutexReferenceError(
                        f"action {action.identifier!r} excludes unknown action type {partner!r}"
                    )


def save_dsl(dsl: RobotClassDsl) -> str:
    """Serialize a DSL back to its XML form.

    Writes sections in stored order with mutex partners sorted, so
    loading the result yields a DSL equal to the input.
    """
    types = [("VariableType", [("name", vtype.name)],
              [("Field", [("name", field_name), ("type", field_type)], ())
               for field_name, field_type in vtype.fields or ()])
             for vtype in dsl.variable_types]
    sections = [("VariableTypes", (), types)] if types else []
    sections += [("ResourceComponent", [("type", component.type_name)],
                  [_action_element(action) for action in component.actions])
                 for component in dsl.components]
    lines: list[str] = []
    _write_element(lines, "", "RobotClassDSL", [("name", dsl.name)], sections)
    return "\n".join(lines) + "\n"


def _action_element(action: ActionTypeDef):
    """The <Action> element of one action type, as a `_write_element` child."""
    attrs = [("returnType", action.return_type)] if action.return_type else []
    lists = []
    if action.parameters:
        lists.append(("ParameterList", (), [
            ("Parameter", [("type", param.type_name), ("name", param.name)], ())
            for param in action.parameters]))
    if action.mutex_types:
        lists.append(("NotAllowedSimultaneousActionTypes", (), [
            ("NotAllowedSimultaneousAction", [("type", partner)], ())
            for partner in sorted(action.mutex_types)]))
    return "Action", [*attrs, ("actionIdentifier", action.identifier)], lists
