"""Shared builders and brute-force oracles for the test suite.

The oracles deliberately use the dumbest algorithm that can be argued
correct (path enumeration, exhaustive schedule search) so the library
implementations are checked against independent math, not themselves.
"""

import dataclasses
import heapq
import random
from pathlib import Path

from seqc import model
from seqc.dsl import (
    ActionTypeDef,
    ParameterDef,
    ResourceComponentTypeDef,
    RobotClassDsl,
    symmetrize_mutex,
)
from seqc.errors import CyclicGraphError
from seqc.model import (
    ActionInstance,
    ArgBinding,
    ConstraintEdge,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.validator import Code, validate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(*parts) -> Path:
    return FIXTURES.joinpath(*parts)


def fixture_text(*parts) -> str:
    return fixture_path(*parts).read_text(encoding="utf-8")


def make_dsl(components: dict[str, list[str]], mutex=()) -> RobotClassDsl:
    """Build a DSL of parameterless void actions.

    components maps component type -> action identifiers; mutex is an
    iterable of identifier pairs (declared one-sided, symmetrized as
    usual).
    """
    declared: dict[str, set[str]] = {}
    for a, b in mutex:
        declared.setdefault(a, set()).add(b)
    comps = tuple(
        ResourceComponentTypeDef(
            ctype,
            tuple(
                ActionTypeDef(identifier, ctype,
                              mutex_types=frozenset(declared.get(identifier, ())))
                for identifier in identifiers
            ),
        )
        for ctype, identifiers in components.items()
    )
    return RobotClassDsl("TestBot", (), comps, symmetrize_mutex(mutex))


def make_program(dsl: RobotClassDsl, actions, edges=(), name="Prog",
                 variables=()) -> Program:
    """Build a program from (name, type, resource) triples and
    (predecessor, successor) edges; resource component types are
    inferred from each action type's owner."""
    owner = {a.identifier: c.type_name
             for c in dsl.components for a in c.actions}
    resource_types: dict[str, str] = {}
    for _, action_type, resource in actions:
        resource_types.setdefault(resource, owner[action_type])
    incoming: dict[str, set[str]] = {action[0]: set() for action in actions}
    for predecessor, successor in edges:
        incoming[successor].add(predecessor)
    built = tuple(
        ActionInstance(
            name=action_name,
            action_type=action_type,
            resource=resource,
            constraints=tuple(ConstraintEdge(p) for p in sorted(incoming[action_name])),
        )
        for action_name, action_type, resource in actions
    )
    resources = tuple(ResourceInstance(res, ctype)
                      for res, ctype in sorted(resource_types.items()))
    return Program(name, dsl.name, resources, tuple(variables), built)


FIVE_STAGE_EDGES = (("A", "D"), ("B", "D"), ("A", "E"), ("C", "E"), ("D", "E"))


def five_stage(shared: bool = False) -> tuple[RobotClassDsl, Program]:
    """The five-action reference graph, on dedicated or one shared resource."""
    dsl = make_dsl({"Station": ["Step"]})
    names = ["A", "B", "C", "D", "E"]
    if shared:
        actions = [(n, "Step", "r1") for n in names]
    else:
        actions = [(n, "Step", f"r{n.lower()}") for n in names]
    return dsl, make_program(dsl, actions, FIVE_STAGE_EDGES, name="FiveStage")


def with_edge(program: Program, predecessor: str, successor: str) -> Program:
    """A copy of program with one extra precedence edge."""
    actions = tuple(
        dataclasses.replace(
            action,
            constraints=(*action.constraints, ConstraintEdge(predecessor)),
        )
        if action.name == successor
        else action
        for action in program.actions
    )
    return dataclasses.replace(program, actions=actions)


def ancestors_oracle(program: Program, target: str) -> set[str]:
    """Transitive predecessors found by enumerating backward paths."""
    preds = {a.name: set(a.predecessors) for a in program.actions}
    found: set[str] = set()

    def walk(node, seen):
        for pred in preds.get(node, ()):
            if pred in seen:
                continue
            found.add(pred)
            walk(pred, seen | {pred})

    walk(target, {target})
    return found


def cycle_oracle(program: Program) -> tuple[str, ...] | None:
    """The cycle witness of a recursive depth-first search: roots and
    predecessors in name order, rotated to start at the smallest name.
    With duplicate names the last declaration's edges count."""
    preds = {a.name: set(a.predecessors) for a in program.actions}
    color: dict[str, int] = {}
    stack: list[str] = []

    def visit(node):
        color[node] = 1
        stack.append(node)
        for pred in sorted(preds[node]):
            if pred not in preds:
                continue
            if color.get(pred) == 1:
                cycle = stack[stack.index(pred):]
                pivot = cycle.index(min(cycle))
                return tuple(cycle[pivot:] + cycle[:pivot])
            if pred not in color:
                found = visit(pred)
                if found:
                    return found
        stack.pop()
        color[node] = 2
        return None

    for name in sorted(preds):
        if name not in color:
            found = visit(name)
            if found:
                return found
    return None


def topological_order_oracle(program: Program) -> list[str]:
    """Kahn's algorithm with a name-ordered heap, as `topological_order`
    is specified: in-degrees from the last declaration of each name,
    successor edges from every declaration; raises CyclicGraphError with
    `cycle_oracle`'s witness, or the unordered names, when it stalls."""
    preds = {a.name: set(a.predecessors) for a in program.actions}
    succs: dict[str, set[str]] = {}
    for action in program.actions:
        for pred in action.predecessors:
            succs.setdefault(pred, set()).add(action.name)
    indegree = {name: len(incoming & preds.keys()) for name, incoming in preds.items()}
    ready = sorted(name for name, degree in indegree.items() if degree == 0)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in succs.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(preds):
        raise CyclicGraphError(cycle_oracle(program) or tuple(sorted(set(preds) - set(order))))
    return order


def critical_path_oracle(program: Program, durations=None) -> int:
    """Heaviest path weight, by explicit enumeration of every path."""
    durations = durations or {}
    successors: dict[str, list[str]] = {a.name: [] for a in program.actions}
    for action in program.actions:
        for pred in action.predecessors:
            successors[pred].append(action.name)
    best = 0

    def extend(node, total):
        nonlocal best
        total += durations.get(node, 1)
        best = max(best, total)
        for nxt in successors[node]:
            extend(nxt, total)

    for action in program.actions:
        extend(action.name, 0)
    return best


def may_overlap(program: Program, first: str, second: str) -> bool:
    """Exhaustive unit-duration schedule search: can the two actions start
    at the same tick in any schedule that respects precedence and keeps
    each resource serial?  Start times range over 0..n-1, which is
    enough: along any chain of blockers (predecessor or earlier user of
    the same resource) each step adds one tick, no chain passes through
    both of an unordered pair, and chains visit at most n actions.
    """
    if first == second:
        return False
    if program.action(first).resource == program.action(second).resource:
        return False
    order = model.topological_order(program)
    preds = {a.name: set(a.predecessors) for a in program.actions}
    resource = {a.name: a.resource for a in program.actions}
    horizon = len(order)
    start: dict[str, int] = {}

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        node = order[i]
        if node == second and first in start:
            candidates = [start[first]]
        elif node == first and second in start:
            candidates = [start[second]]
        else:
            candidates = range(horizon)
        for t in candidates:
            if any(start[p] + 1 > t for p in preds[node]):
                continue
            if any(t == other_start for other, other_start in start.items()
                   if resource[other] == resource[node]):
                continue
            start[node] = t
            if assign(i + 1):
                return True
            del start[node]
        return False

    return assign(0)


def random_setup(rng: random.Random, *, max_actions=6, max_resources=3,
                 dedicated=False, mutex=True, edge_prob=0.35,
                 mutex_prob=0.3, min_actions=2) -> tuple[RobotClassDsl, Program]:
    """Random DAG program over parameterless actions.

    Every instance gets its own action type, so mutex declarations on
    types correspond one-to-one with instance pairs.  Edges only go
    from lower to higher index, keeping the graph acyclic; names a1..aN
    sort in index order.
    """
    n = rng.randint(min_actions, max_actions)
    n_resources = n if dedicated else rng.randint(1, max_resources)
    resources = [f"r{i + 1}" for i in range(n_resources)]
    comp_of = {res: f"Unit{i + 1}" for i, res in enumerate(resources)}
    names = [f"a{i + 1}" for i in range(n)]
    assigned = {
        name: resources[i] if dedicated else rng.choice(resources)
        for i, name in enumerate(names)
    }
    type_of = {name: f"T{i + 1}" for i, name in enumerate(names)}
    components: dict[str, list[str]] = {}
    for name in names:
        components.setdefault(comp_of[assigned[name]], []).append(type_of[name])
    pairs = []
    if mutex:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < mutex_prob:
                    pairs.append((type_of[names[i]], type_of[names[j]]))
    dsl = make_dsl(components, pairs)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    actions = [(name, type_of[name], assigned[name]) for name in names]
    program = make_program(dsl, actions, edges, name=f"Rand{rng.randrange(10 ** 6)}")
    return dsl, program


def with_data_flow(rng: random.Random, dsl: RobotClassDsl, program: Program,
                   *, max_variables=3) -> tuple[RobotClassDsl, Program]:
    """Give every action type an Int parameter "x" and an Int return, and
    bind them at random to a small pool of Int variables (some without an
    initializer, one sometimes undeclared) or to a literal."""
    components = tuple(
        dataclasses.replace(component, actions=tuple(
            dataclasses.replace(action_type, return_type="Int",
                                parameters=(ParameterDef("x", "Int"),))
            for action_type in component.actions))
        for component in dsl.components
    )
    pool = [f"v{i + 1}" for i in range(rng.randint(1, max_variables))]
    declared = pool[:-1] if len(pool) > 1 and rng.random() < 0.2 else pool
    variables = tuple(VariableDecl(name, "Int", rng.choice((None, 0))) for name in declared)
    actions = []
    for action in program.actions:
        if rng.random() < 0.7:
            arg = ArgBinding("x", variable=rng.choice(pool))
        else:
            arg = ArgBinding("x", value=rng.randint(0, 9))
        return_to = rng.choice(pool) if rng.random() < 0.5 else None
        actions.append(dataclasses.replace(action, args=(arg,), return_to=return_to))
    return (dataclasses.replace(dsl, components=components),
            dataclasses.replace(program, variables=variables, actions=tuple(actions)))


def with_graph_defects(rng: random.Random, dsl: RobotClassDsl,
                       program: Program) -> tuple[RobotClassDsl, Program]:
    """Each with some probability: two actions of one self-exclusive
    type, a dangling predecessor, one or two back edges (a cycle when a
    forward path closes one), and a duplicated action name."""
    actions = list(program.actions)
    mutex = set(dsl.mutex_relation)
    n = len(actions)
    if rng.random() < 0.4:
        i, j = rng.sample(range(n), 2)
        shared = actions[i].action_type
        actions[j] = dataclasses.replace(actions[j], action_type=shared)
        if rng.random() < 0.7:
            mutex.add(frozenset((shared,)))
    if rng.random() < 0.2:
        k = rng.randrange(n)
        actions[k] = dataclasses.replace(
            actions[k], constraints=(*actions[k].constraints, ConstraintEdge("missing")))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        i, j = sorted(rng.sample(range(n), 2))
        actions[i] = dataclasses.replace(
            actions[i],
            constraints=(*actions[i].constraints, ConstraintEdge(actions[j].name)))
    if rng.random() < 0.2:
        k, m = rng.sample(range(n), 2)
        if actions[m].name not in actions[k].predecessors:
            actions[k] = dataclasses.replace(actions[k], name=actions[m].name)
    return (dataclasses.replace(dsl, mutex_relation=frozenset(mutex)),
            dataclasses.replace(program, actions=tuple(actions)))


def random_flow_setup(rng: random.Random, **kwargs) -> tuple[RobotClassDsl, Program]:
    """random_setup with data flow and the graph defects above."""
    dsl, program = random_setup(rng, **kwargs)
    dsl, program = with_data_flow(rng, dsl, program)
    return with_graph_defects(rng, dsl, program)


def reverse_chain_cycle(n: int) -> tuple[RobotClassDsl, Program]:
    """n actions a0000.. on one resource, each preceded by the next one and
    the last by the first: a depth-first search from the smallest name
    runs n deep before it closes the cycle."""
    dsl = make_dsl({"Station": ["Step"]})
    names = [f"a{i:04d}" for i in range(n)]
    edges = [(names[i + 1], names[i]) for i in range(n - 1)] + [(names[0], names[-1])]
    return dsl, make_program(dsl, [(name, "Step", "r1") for name in names], edges,
                             name="ReverseChain")


def random_valid_setup(rng: random.Random, **kwargs):
    """Like random_setup, but precedence edges are added until the static
    mutex check passes.  Added edges run from the lexicographically
    smaller name, i.e. the lower index, so the graph stays acyclic."""
    dsl, program = random_setup(rng, **kwargs)
    while True:
        report = validate(program, dsl)
        offenders = [f for f in report.findings if f.code is Code.MUTEX_VIOLATION]
        if not offenders:
            assert report.ok
            return dsl, program
        a, b = offenders[0].subjects
        program = with_edge(program, a, b)


def random_durations(rng: random.Random, program: Program, low=1, high=5):
    return {name: rng.randint(low, high) for name in program.action_names()}
