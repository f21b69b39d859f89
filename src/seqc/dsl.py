"""Robot-class DSL: the vocabulary available when writing programs.

A DSL names the resource component types a robot class offers, the
action types each component provides (with typed parameter lists,
optional return types, and mutual-exclusion partners), and any composite
variable types.  The primitive types Int, Float, Bool, and String are
predefined and never declared.

Loading is strict: every reference must resolve, identifiers must be
unique in their namespace, and composite types may not contain
themselves.  Mutual exclusion is declared per action as a directed list
but means "may never run simultaneously", so the loader symmetrizes the
declarations into an unordered relation.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    DuplicateIdentifierError,
    RecursiveCompositeTypeError,
    UnknownActionTypeError,
    UnknownTypeReferenceError,
    UnresolvedMutexReferenceError,
    XmlSyntaxError,
)
from .xmlio import attr_escape, parse_root, require_attr

PRIMITIVE_TYPES = ("Int", "Float", "Bool", "String")


@dataclass(frozen=True)
class VariableTypeDef:
    """A variable type: primitive (fields is None) or a composite of named fields."""

    name: str
    fields: tuple[tuple[str, str], ...] | None = None

    @property
    def is_primitive(self) -> bool:
        return self.fields is None


PRIMITIVES = {name: VariableTypeDef(name) for name in PRIMITIVE_TYPES}


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
    mutex_relation: frozenset[frozenset[str]] = frozenset()

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

    def is_mutex(self, type_a: str, type_b: str) -> bool:
        return frozenset((type_a, type_b)) in self.mutex_relation


def symmetrize_mutex(declared: Iterable[tuple[str, str]]) -> frozenset[frozenset[str]]:
    """Close directed not-simultaneous declarations under symmetry.

    Each unordered pair appears once; a self-pair (x, x) collapses to a
    single-element set, meaning two instances of that type exclude each
    other.
    """
    return frozenset(frozenset(pair) for pair in declared)


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
    dsl = RobotClassDsl(
        name=name,
        variable_types=tuple(variable_types),
        components=tuple(components),
        mutex_relation=symmetrize_mutex(
            (action.identifier, partner)
            for component in components
            for action in component.actions
            for partner in action.mutex_types
        ),
    )
    _check_type_references(dsl)
    return dsl


def _children(elem, expected_tag):
    for child in elem:
        if child.tag != expected_tag:
            raise_unexpected(child)
        yield child


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
        for field_name, field_type in vtype.fields or ():
            if field_type not in names:
                raise UnknownTypeReferenceError(
                    f"field {vtype.name}.{field_name} has unknown type {field_type!r}"
                )
    # Composite containment must be a DAG; walk each type's field types
    # depth-first with an explicit stack, in declaration order.
    state: dict[str, int] = {}  # 1 on the trail, 2 done
    for vtype in declared:
        if vtype.name in state:
            continue
        state[vtype.name] = 1
        trail = [vtype.name]
        pending = [iter(vtype.fields or ())]
        while pending:
            for _, field_type in pending[-1]:
                if field_type not in by_name:
                    continue
                if state.get(field_type) == 1:
                    cycle = trail[trail.index(field_type):]
                    raise RecursiveCompositeTypeError(
                        "composite type contains itself: " + " -> ".join(cycle + [field_type])
                    )
                if field_type not in state:
                    state[field_type] = 1
                    trail.append(field_type)
                    pending.append(iter(by_name[field_type].fields or ()))
                    break
            else:
                state[trail.pop()] = 2
                pending.pop()


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
    lines = [f'<RobotClassDSL name={attr_escape(dsl.name)}>']
    if dsl.variable_types:
        lines.append("  <VariableTypes>")
        for vtype in dsl.variable_types:
            lines.append(f"    <VariableType name={attr_escape(vtype.name)}>")
            for field_name, field_type in vtype.fields or ():
                lines.append(
                    f"      <Field name={attr_escape(field_name)} type={attr_escape(field_type)}/>"
                )
            lines.append("    </VariableType>")
        lines.append("  </VariableTypes>")
    for component in dsl.components:
        lines.append(f"  <ResourceComponent type={attr_escape(component.type_name)}>")
        for action in component.actions:
            returns = (
                f" returnType={attr_escape(action.return_type)}" if action.return_type else ""
            )
            head = f"    <Action{returns} actionIdentifier={attr_escape(action.identifier)}"
            if not action.parameters and not action.mutex_types:
                lines.append(head + "/>")
                continue
            lines.append(head + ">")
            if action.parameters:
                lines.append("      <ParameterList>")
                for param in action.parameters:
                    lines.append(
                        f"        <Parameter type={attr_escape(param.type_name)}"
                        f" name={attr_escape(param.name)}/>"
                    )
                lines.append("      </ParameterList>")
            if action.mutex_types:
                lines.append("      <NotAllowedSimultaneousActionTypes>")
                for partner in sorted(action.mutex_types):
                    lines.append(
                        f"        <NotAllowedSimultaneousAction type={attr_escape(partner)}/>"
                    )
                lines.append("      </NotAllowedSimultaneousActionTypes>")
            lines.append("    </Action>")
        lines.append("  </ResourceComponent>")
    lines.append("</RobotClassDSL>")
    return "\n".join(lines) + "\n"
