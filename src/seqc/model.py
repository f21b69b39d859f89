"""Meta-model for concurrent robot action sequences.

A Program is a set of uniquely named action instances wired into a
dependency graph: each action carries constraint edges naming the
actions that must finish before it may start.  Actions are placed on
resource instances, which execute one action at a time, so parallelism
only ever arises between actions on distinct resources.  Global
variables form the data space that actions read through argument
bindings and write through return bindings.

All types are immutable after construction.  Collections are normalized
to a canonical order (sorted by name) so that equal programs compare
equal and serialize identically regardless of how they were assembled.

The graph queries at the bottom (successors, ancestors,
potentially_parallel, topological_order, critical_path_length) are the
shared vocabulary of the validator and the simulator.  They all read one
ProgramGraph per Program, built on first use and cached on it: a
name-to-action dict, predecessor and successor adjacency, the
topological order, a cycle witness, and, on the first reachability
query, the ancestor closure as one int bitset per action (Purdom's
algorithm).  Two actions on distinct resources are potentially parallel
when neither bitset holds the other: they are incomparable in the
precedence order, as in Lamport's happens-before.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Any, Mapping

from .errors import (
    CyclicGraphError,
    NonPositiveDurationError,
    SameActionError,
    UnknownActionError,
    UnresolvedReferenceError,
)


class ConstraintOperator(Enum):
    """Temporal operator of an execution constraint.

    Ordering is the only supported relation: the predecessor must finish
    before the constrained action starts.
    """

    PRECEDES = "Precedes"


@dataclass(frozen=True)
class ConstraintEdge:
    """One incoming precedence edge, stored on the successor action."""

    predecessor: str
    operator: ConstraintOperator = ConstraintOperator.PRECEDES

    def __post_init__(self):
        if not isinstance(self.operator, ConstraintOperator):
            raise ValueError(f"unsupported constraint operator: {self.operator!r}")


def _normalize_literal(value):
    # Composite literals are dicts of field name to value; sort the keys so
    # that equal values always serialize to identical bytes.
    if isinstance(value, dict):
        return {name: _normalize_literal(value[name]) for name in sorted(value)}
    return value


@dataclass(frozen=True)
class ArgBinding:
    """Binds one declared parameter to a global variable or a literal value."""

    param: str
    variable: str | None = None
    value: Any = None

    def __post_init__(self):
        if (self.variable is None) == (self.value is None):
            raise ValueError(
                f"argument {self.param!r} must bind exactly one of a variable or a literal"
            )
        if self.value is not None:
            object.__setattr__(self, "value", _normalize_literal(self.value))


@dataclass(frozen=True)
class ActionInstance:
    """A named occurrence of a DSL action type, placed on a resource instance."""

    name: str
    action_type: str
    resource: str
    args: tuple[ArgBinding, ...] = ()
    return_to: str | None = None
    constraints: tuple[ConstraintEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        # Precedes is the only operator, so an edge is its predecessor name.
        edges = {edge.predecessor: edge for edge in self.constraints}
        if self.name in edges:
            raise CyclicGraphError((self.name,), f"action {self.name!r} precedes itself")
        object.__setattr__(self, "constraints", tuple(map(edges.__getitem__, sorted(edges))))

    @property
    def predecessors(self) -> frozenset[str]:
        return frozenset(edge.predecessor for edge in self.constraints)


@dataclass(frozen=True)
class ResourceInstance:
    """A concrete device or computation unit; executes one action at a time."""

    name: str
    component_type: str


@dataclass(frozen=True)
class VariableDecl:
    """A global variable of the program's data space."""

    name: str
    type_name: str
    init: Any = None

    def __post_init__(self):
        if self.init is not None:
            object.__setattr__(self, "init", _normalize_literal(self.init))


@dataclass(frozen=True)
class Program:
    """A complete task: resources, global variables, and the action graph.

    Construction sorts resources, variables, and actions by name and
    requires every action's resource reference to resolve.  Duplicate
    names, dangling variable references, and cycles are representable;
    they are reported by the validator (or rejected by the XML loader),
    not here, so that diagnostics can cover the whole program at once.
    """

    name: str
    robot_class: str
    resources: tuple[ResourceInstance, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    actions: tuple[ActionInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "resources", tuple(sorted(self.resources, key=lambda r: r.name))
        )
        object.__setattr__(
            self, "variables", tuple(sorted(self.variables, key=lambda v: v.name))
        )
        object.__setattr__(
            self, "actions", tuple(sorted(self.actions, key=lambda a: a.name))
        )
        declared = {r.name for r in self.resources}
        for action in self.actions:
            if action.resource not in declared:
                raise UnresolvedReferenceError(
                    f"action {action.name!r} runs on undeclared resource {action.resource!r}"
                )

    @cached_property
    def graph(self) -> "ProgramGraph":
        """The precedence-graph index, built on first use.

        Not a dataclass field: equality, hashing and repr ignore it.
        """
        return ProgramGraph(self)

    def action(self, name: str) -> ActionInstance:
        """The first action declared under `name`."""
        try:
            return self.graph.actions[name]
        except KeyError:
            raise UnknownActionError(
                f"program {self.name!r} has no action named {name!r}") from None

    def action_names(self) -> list[str]:
        return [a.name for a in self.actions]

    def variable(self, name: str) -> VariableDecl | None:
        for candidate in self.variables:
            if candidate.name == name:
                return candidate
        return None


def _find_cycle(preds: Mapping[str, frozenset[str]]) -> tuple[str, ...] | None:
    """Return one concrete cycle as an ordered node tuple, or None.

    An iterative depth-first search over predecessor edges: roots and
    predecessors are visited in name order, and the witness is rotated
    to start at its smallest name.
    """
    color: dict[str, int] = {}  # 1 on the path, 2 done
    for root in sorted(preds):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(sorted(preds[root]))]
        while pending:
            for pred in pending[-1]:
                if pred not in preds:
                    continue  # dangling predecessor; reported elsewhere
                state = color.get(pred)
                if state == 1:
                    cycle = path[path.index(pred):]
                    pivot = cycle.index(min(cycle))
                    return tuple(cycle[pivot:] + cycle[:pivot])
                if state is None:
                    color[pred] = 1
                    path.append(pred)
                    pending.append(iter(sorted(preds[pred])))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def _kahn_order(preds: Mapping[str, frozenset[str]],
                 succs: Mapping[str, set[str]]) -> list[str]:
    """Kahn's algorithm with a name-ordered heap; stops short on a cycle."""
    indegree = {name: sum(1 for p in incoming if p in preds)
                for name, incoming in preds.items()}
    ready = sorted(name for name, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in succs.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    return order


class ProgramGraph:
    """Read-only index of one program's precedence graph.

    Built once per Program (see `Program.graph`); every graph query
    reads it instead of rescanning the actions.  With duplicate action
    names, `actions` keeps the first declaration and `preds` the last,
    matching the lookups the index replaces; `succs` unions all of them.
    Dangling predecessor names are kept in the edge sets and ignored by
    the traversals.

    The topological order and the cycle witness are computed on first
    use; the ancestor closure, one int bitset per action, only when a
    reachability query needs it, so loading a program never pays for it.
    """

    def __init__(self, program: "Program"):
        actions: dict[str, ActionInstance] = {}
        preds: dict[str, frozenset[str]] = {}
        succs: dict[str, set[str]] = {}
        for action in program.actions:
            name = action.name
            if name not in actions:
                actions[name] = action
                succs.setdefault(name, set())
            preds[name] = incoming = action.predecessors
            for pred in incoming:
                if pred in succs:
                    succs[pred].add(name)
                else:
                    succs[pred] = {name}
        self.actions = actions
        self.preds = preds
        self.succs = succs
        self.duplicate_names = len(actions) != len(program.actions)

    @cached_property
    def order(self) -> list[str]:
        """Kahn's order over `succs`; it falls short of `preds` on a cycle."""
        return _kahn_order(self.preds, self.succs)

    @cached_property
    def cycle(self) -> tuple[str, ...] | None:
        return _find_cycle(self.preds)

    @cached_property
    def ancestor_bits(self) -> dict[str, int]:
        """Purdom's closure, built in topological order: bit `position[x]`
        of an action's int is set when x is one of its ancestors.

        Raises CyclicGraphError on a cyclic graph.
        """
        if self.cycle:
            raise CyclicGraphError(self.cycle)
        order = self.order
        if self.duplicate_names:
            # The union successor sets may disagree with the last-wins
            # predecessor sets; order by the latter alone.
            derived: dict[str, set[str]] = {}
            for name, incoming in self.preds.items():
                for pred in incoming:
                    derived.setdefault(pred, set()).add(name)
            order = _kahn_order(self.preds, derived)
        position = self.position
        closure: dict[str, int] = {}
        for name in order:
            bits = 0
            for pred in self.preds[name]:
                if pred in closure:
                    bits |= closure[pred] | 1 << position[pred]
            closure[name] = bits
        return closure

    @cached_property
    def names(self) -> list[str]:
        """Action names by bit index in `ancestor_bits`."""
        return list(self.preds)

    @cached_property
    def position(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def precedes(self, first: str, second: str) -> bool:
        """True iff a directed path leads from `first` to `second`."""
        return bool(self.ancestor_bits[second] >> self.position[first] & 1)


def successors(program: Program, action: str) -> frozenset[str]:
    """All actions that list `action` as a direct predecessor."""
    program.action(action)
    return frozenset(program.graph.succs.get(action, ()))


def ancestors(program: Program, action: str) -> frozenset[str]:
    """All actions from which a directed path reaches `action`.

    The graph must be acyclic; a cycle anywhere in the program raises
    CyclicGraphError because reachability is not meaningful on it.
    """
    program.action(action)
    graph = program.graph
    bits = graph.ancestor_bits[action]
    found = []
    while bits:
        low = bits & -bits
        found.append(graph.names[low.bit_length() - 1])
        bits ^= low
    return frozenset(found)


def potentially_parallel(program: Program, a: str, b: str) -> bool:
    """True iff `a` and `b` can overlap in time under some legal schedule.

    Two actions can be simultaneous exactly when neither must wait for
    the other and they occupy different resource instances; a shared
    resource serializes them regardless of ordering.
    """
    if a == b:
        raise SameActionError(f"potential parallelism is defined for distinct actions, got {a!r} twice")
    action_a = program.action(a)
    action_b = program.action(b)
    if action_a.resource == action_b.resource:
        return False
    graph = program.graph
    return not graph.precedes(a, b) and not graph.precedes(b, a)


def topological_order(program: Program) -> list[str]:
    """A precedence-compatible total order, ties broken by action name."""
    graph = program.graph
    if len(graph.order) != len(graph.preds):
        leftover = tuple(sorted(set(graph.preds) - set(graph.order)))
        raise CyclicGraphError(graph.cycle or leftover)
    return list(graph.order)


def _checked_duration(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise NonPositiveDurationError(
            f"duration of {name!r} must be a positive integer tick count, got {value!r}"
        )
    return value


def critical_path_length(program: Program, durations: Mapping[str, int] | None = None) -> int:
    """Length in ticks of the longest weighted path through the graph.

    Actions missing from `durations` default to one tick.  This is the
    lower bound on any schedule's makespan.
    """
    durations = durations or {}
    finish: dict[str, int] = {}
    longest = 0
    for name in topological_order(program):
        duration = _checked_duration(name, durations.get(name, 1))
        action = program.action(name)
        start = max((finish[p] for p in action.predecessors if p in finish), default=0)
        finish[name] = start + duration
        longest = max(longest, finish[name])
    return longest
