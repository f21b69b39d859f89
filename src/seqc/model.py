"""Meta-model for concurrent robot action sequences.

A Program is a set of uniquely named action instances wired into a
dependency graph: each action carries `predecessors`, the sorted,
unique names of the actions that must finish before it may start (no
edge objects; an edge is a name on its successor).  Actions are placed on
resource instances, which execute one action at a time, so parallelism
only ever arises between actions on distinct resources.  Global
variables form the data space that actions read through argument
bindings and write through return bindings.

All types are immutable after construction.  Resources, variables,
actions and predecessors are sorted by name, so that equal programs
compare equal and serialize identically however they were assembled.  An
action's `args` keep the order given: every reader looks a binding up by
its parameter name, so the order means nothing, and the loader keeps it.

The validator, the simulator and the queries at the bottom
(potentially_parallel, topological_order, critical_path_length) read one
ProgramGraph per Program, built on first use and cached on it: a
name-to-action dict, predecessor and successor (`succs`) adjacency as
name-ordered tuples, the topological order, which alone decides
acyclicity, a cycle witness, and, on first use, the concurrency index:
the descendant closure as one int bitset per action (Purdom's
algorithm), and one `concurrent` mask per action, built from it and an
ancestor closure that is not kept.  Two actions may overlap when they run
on distinct resources and neither precedes the other: they are
incomparable in the precedence order, as in Lamport's happens-before.  So
every "may these overlap?" question is one bit test of a `concurrent`
mask, and a lint asks it of all its candidates at once with one mask
intersection.

The graph exists only for a program whose action names are unique and
whose predecessors all name actions.  Every query, `Program.action`
included, raises the first defect it meets: DuplicateIdentifierError,
then UnresolvedReferenceError, then, for the queries that need an
order, CyclicGraphError.  DurationMap is the one duration rule, shared
by critical_path_length and the scheduler.
"""

import dataclasses
import heapq
from _thread import get_ident
from collections.abc import Callable, Iterable, Mapping
from dataclasses import FrozenInstanceError, field
from functools import cached_property
from operator import attrgetter

from .errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    NonPositiveDurationError,
    SameActionError,
    UnknownActionError,
    UnresolvedReferenceError,
)

_set = object.__setattr__  # how a frozen class's own __init__ writes each field once
_REPRS: set[tuple[int, int]] = set()  # (value id, thread id) of each repr being built


class Value:
    """The base of every frozen value class: programs, DSL types, findings,
    traces, template nodes and generator views.

    A subclass declares its fields as annotations and writes each one once
    in its own `__init__`.  Its fields are registered as a dataclass's,
    so `dataclasses.fields`, `replace` and pickling work, but no method is
    generated for it: equality, hashing, repr and frozenness are the
    methods below, all reading the class's field tuple.  Two values are
    equal when they are of one class and their field tuples are equal,
    and a value hashes as its field tuple, as a frozen dataclass does.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Registers the fields alone: asked for no method, dataclasses
        # generates none, and before Python 3.13 compiles nothing.
        dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
        names = cls._field_names = tuple(f.name for f in dataclasses.fields(cls))
        values = attrgetter(*names)  # of one name, the bare value: make it a tuple
        cls._field_values = values if len(names) > 1 else staticmethod(lambda v: (values(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        key = id(self), get_ident()
        if key in _REPRS:  # a value inside its own field, as a dataclass prints it
            return "..."
        _REPRS.add(key)
        try:
            pairs = zip(self._field_names, self._field_values(self))
            return f"{self.__class__.__qualname__}({', '.join([f'{n}={v!r}' for n, v in pairs])})"
        finally:
            _REPRS.discard(key)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _normalize_literal(value):
    # Composite literals are dicts of field name to value; sort the keys so
    # that equal values always serialize to identical bytes.
    if isinstance(value, dict):
        return {name: _normalize_literal(value[name]) for name in sorted(value)}
    return value


def _literal_or_none(value):
    # A top-level {} is no literal, as in XML, where an element with no
    # value and no <Field> children has none; a nested {} stays a value.
    return None if value is None or value == {} else _normalize_literal(value)


class ArgBinding(Value):
    """Binds one declared parameter to a global variable or a literal value."""

    param: str
    variable: str | None = None
    value: object = None

    def __init__(self, param: str, variable: str | None = None, value: object = None):
        value = value if value is None else _literal_or_none(value)
        if (variable is None) == (value is None):
            raise ValueError(f"argument {param!r} must bind exactly one of a variable or a literal")
        _set(self, "param", param)
        _set(self, "variable", variable)
        _set(self, "value", value)


class ActionInstance(Value):
    """A named occurrence of a DSL action type, placed on a resource instance;
    one among its own `predecessors` is a cycle, which the graph raises on."""

    name: str
    action_type: str
    resource: str
    args: tuple[ArgBinding, ...] = ()
    return_to: str | None = None
    predecessors: tuple[str, ...] = ()  # the names of the actions that must finish first

    def __init__(self, name: str, action_type: str, resource: str, args=(),
                 return_to: str | None = None, predecessors=()):
        args = tuple(args)
        if isinstance(predecessors, str):  # would read as a set of one-letter names
            raise TypeError(f"predecessors of {name!r} must be names, not one string")
        _set(self, "name", name)
        _set(self, "action_type", action_type)
        _set(self, "resource", resource)
        _set(self, "args", args)
        _set(self, "return_to", return_to)
        _set(self, "predecessors", tuple(sorted(set(predecessors))))


class ResourceInstance(Value):
    """A concrete device or computation unit; executes one action at a time."""

    name: str
    component_type: str

    def __init__(self, name: str, component_type: str):
        _set(self, "name", name)
        _set(self, "component_type", component_type)


class VariableDecl(Value):
    """A global variable of the program's data space."""

    name: str
    type_name: str
    init: object = None

    def __init__(self, name: str, type_name: str, init: object = None):
        _set(self, "name", name)
        _set(self, "type_name", type_name)
        _set(self, "init", _literal_or_none(init))


class Program(Value):
    """A complete task: resources, global variables, and the action graph.

    Construction sorts resources, variables, and actions by name and
    checks nothing.  Duplicate names, undeclared resources, dangling
    predecessors and cycles, self-loops included, are representable, so
    that the validator can report them all at once (the XML loader
    rejects them); the graph queries raise on the graph defects instead.
    """

    name: str
    robot_class: str
    resources: tuple[ResourceInstance, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    actions: tuple[ActionInstance, ...] = ()

    def __init__(self, name: str, robot_class: str, resources=(), variables=(), actions=()):
        by_name = attrgetter("name")
        _set(self, "name", name)
        _set(self, "robot_class", robot_class)
        _set(self, "resources", tuple(sorted(resources, key=by_name)))
        _set(self, "variables", tuple(sorted(variables, key=by_name)))
        _set(self, "actions", tuple(sorted(actions, key=by_name)))

    @cached_property
    def graph(self) -> "ProgramGraph":
        """The precedence-graph index, built on first use.

        Not a dataclass field: equality, hashing and repr ignore it.
        Raises as `ProgramGraph` does, on every access.
        """
        return ProgramGraph(self)

    def action(self, name: str) -> ActionInstance:
        """The action named `name`.  Raises as `graph` does, or
        UnknownActionError when no action has that name."""
        try:
            return self.graph.actions[name]
        except KeyError:
            raise UnknownActionError(
                f"program {self.name!r} has no action named {name!r}") from None

    def action_names(self) -> list[str]:
        return [a.name for a in self.actions]

    def variable(self, name: str) -> VariableDecl | None:
        """The first variable declared under `name`, or None."""
        return self._variables_by_name.get(name)

    @cached_property
    def _variables_by_name(self) -> dict[str, VariableDecl]:
        # Built in reverse so the first declaration of a name wins.
        return {variable.name: variable for variable in reversed(self.variables)}


def _first_cycle(roots: Iterable[str],
                 children: Callable[[str], Iterable[str]]) -> list[str] | None:
    """The first cycle an iterative depth-first search meets, as the path
    from the node it re-enters, or None.  Roots and each node's children
    are visited in the order given."""
    state: dict[str, int] = {}  # 1 on the path, 2 done
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(children(root))]
        while pending:
            for child in pending[-1]:
                seen = state.get(child)
                if seen == 1:
                    return path[path.index(child):]
                if seen is None:
                    state[child] = 1
                    path.append(child)
                    pending.append(iter(children(child)))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def _find_cycle(preds: Mapping[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """One concrete cycle, rotated to start at its smallest name, or None.
    The search visits roots and predecessors in name order: `preds` holds
    the names in that order, each with its sorted predecessor names."""
    cycle = _first_cycle(preds, preds.__getitem__)
    if cycle is None:
        return None
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


# Two rule texts the graph and the validator share: of (kind, name), (action, predecessor).
_repeated_name = "{} name {!r} is declared more than once".format
_unknown_predecessor = "action {!r} names unknown predecessor {!r}".format


class ProgramGraph:
    """Read-only index of one program's precedence graph.

    Built once per Program (see `Program.graph`); every graph query
    reads it instead of rescanning the actions.  Construction is one
    pass over the actions and their edges.  It raises
    DuplicateIdentifierError for the first action name declared twice,
    then UnresolvedReferenceError for the first (action, predecessor)
    pair whose predecessor names no action, each with the text of the
    validator's finding for it, so every name in `preds`
    and `succs` is an action.  Both map each action, in name order, to a
    name-ordered tuple of names.

    The topological order, whose reading raises CyclicGraphError on a
    cyclic graph, and the cycle witness are computed on first use.  So is
    the concurrency index, only when a query needs it, so loading a
    program never pays for it: `descendant_bits`, one int bitset per
    action with bit `position[x]` for action x, and `concurrent`, each
    action's mask of the actions that may overlap it.
    """

    def __init__(self, program: "Program"):
        actions: dict[str, ActionInstance] = {}
        preds: dict[str, tuple[str, ...]] = {}
        succs: dict[str, list[str]] = {}  # in name order, as the actions come
        for action in program.actions:
            name = action.name
            if name in actions:  # actions are sorted: the first repeat is the smallest
                raise DuplicateIdentifierError(_repeated_name("action", name))
            actions[name] = action
            succs.setdefault(name, [])
            preds[name] = incoming = action.predecessors
            for pred in incoming:
                if pred in succs:
                    succs[pred].append(name)
                else:
                    succs[pred] = [name]
        if len(succs) != len(actions):
            raise UnresolvedReferenceError(_unknown_predecessor(*min(
                (name, pred) for name, incoming in preds.items()
                for pred in incoming if pred not in actions)))
        self.actions = actions
        self.preds = preds
        self.succs = {name: tuple(succs[name]) for name in actions}

    @cached_property
    def order(self) -> list[str]:
        """Kahn's algorithm with a name-ordered heap.

        The one acyclicity check: when the order falls short of `preds`,
        and only then, the search for a witness runs and CyclicGraphError
        names it.  A raise is not cached, so every later reading raises too.
        """
        indegree = {name: len(incoming) for name, incoming in self.preds.items()}
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in self.succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) < len(self.preds):
            raise CyclicGraphError(self.cycle)
        return order

    @cached_property
    def cycle(self) -> tuple[str, ...] | None:
        return _find_cycle(self.preds)

    @cached_property
    def descendant_bits(self) -> dict[str, int]:
        """Purdom's closure, built over the reversed topological order: bit
        `position[x]` of an action's int is set when x is one of its
        descendants.  Raises CyclicGraphError, as `order` does, on a
        cyclic graph."""
        position, succs = self.position, self.succs
        closure: dict[str, int] = {}
        for name in reversed(self.order):
            bits = 0
            for succ in succs[name]:
                bits |= closure[succ] | 1 << position[succ]
            closure[name] = bits
        return closure

    @cached_property
    def concurrent(self) -> dict[str, int]:
        """Each action's mask of the actions that may overlap it: neither
        precedes the other and they run on different resources.  No action
        is concurrent with itself.  Raises CyclicGraphError, as `order` does.
        """
        position, actions, preds = self.position, self.actions, self.preds
        descendants = self.descendant_bits
        ancestors: dict[str, int] = {}  # the transpose of `descendant_bits`, not kept
        for name in self.order:
            bits = 0
            for pred in preds[name]:
                bits |= ancestors[pred] | 1 << position[pred]
            ancestors[name] = bits
        on_resource: dict[str, int] = {}
        for name, action in actions.items():
            on_resource[action.resource] = on_resource.get(action.resource, 0) | 1 << position[name]
        everyone = (1 << len(position)) - 1
        return {name: everyone & ~(ancestors[name] | descendants[name] | on_resource[action.resource])
                for name, action in actions.items()}

    @cached_property
    def position(self) -> dict[str, int]:
        """Each action's bit index in `descendant_bits` and `concurrent`."""
        return {name: i for i, name in enumerate(self.preds)}


def potentially_parallel(program: Program, a: str, b: str) -> bool:
    """True iff `a` and `b` can overlap in time under some legal schedule.

    Two actions can be simultaneous exactly when neither must wait for
    the other and they occupy different resource instances; a shared
    resource serializes them regardless of ordering.  Raises
    SameActionError for one name given twice, then what the concurrency
    index raises, then UnknownActionError for the first unknown name.
    """
    if a == b:
        raise SameActionError(f"potential parallelism is defined for distinct actions, got {a!r} twice")
    graph = program.graph
    try:  # the index raises its graph defects before any name is looked up
        return bool(graph.concurrent[a] >> graph.position[b] & 1)
    except KeyError:
        missing = b if a in graph.actions else a
        raise UnknownActionError(
            f"program {program.name!r} has no action named {missing!r}") from None


def topological_order(program: Program) -> list[str]:
    """A precedence-compatible total order, ties broken by action name."""
    return list(program.graph.order)


class DurationMap(Value):
    """Per-action tick counts with a default for unlisted actions."""

    per_action: Mapping[str, int] = field(default_factory=dict)
    default: int = 1

    def __init__(self, per_action: Mapping[str, int] | None = None, default: int = 1):
        per_action = {} if per_action is None else per_action  # a fresh dict for each map
        for name, value in (("default", default), *per_action.items()):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise NonPositiveDurationError(
                    f"duration of {name!r} must be a positive integer tick count, got {value!r}")
        _set(self, "per_action", per_action)
        _set(self, "default", default)

    def duration_of(self, name: str) -> int:
        return self.per_action.get(name, self.default)


def critical_path_length(program: Program,
                         durations: "DurationMap | Mapping[str, int] | None" = None) -> int:
    """Length in ticks of the longest weighted path through the graph.

    `durations` is a DurationMap or a mapping that one is built from, so
    unlisted actions take one tick and every value is checked, an
    action's or not.  A graph defect raises first.  This is the lower
    bound on any schedule's makespan.
    """
    graph = program.graph
    order, preds = graph.order, graph.preds
    if not isinstance(durations, DurationMap):
        durations = DurationMap(durations or {})
    duration_of = durations.duration_of
    finish: dict[str, int] = {}
    for name in order:
        finish[name] = max(map(finish.__getitem__, preds[name]), default=0) + duration_of(name)
    return max(finish.values(), default=0)
