"""Shared builders and brute-force oracles for the test suite.

The oracles deliberately use the dumbest algorithm that can be argued
correct (path enumeration, exhaustive schedule search) so the library
implementations are checked against independent math, not themselves.

The rule: an oracle calls no graph query of `seqc.model`, no
`Program.graph`, no `Program.action`, no `validate` and no JSON writer.
It reads the program's fields and other oracles; `test_oracles.py` runs
the oracles with the graph index and the validator made to raise, and the
payload oracles with the JSON writers made to raise.  One oracle per
library behaviour:

    ProgramGraph.descendant_bits         ancestors_oracle
    model.topological_order              topological_order_oracle
    model.critical_path_length           critical_path_oracle
    model.potentially_parallel           may_overlap
    validator.validate                   validate_oracle (graph findings: pairwise_flow_findings)
    simulator.simulate                   simulate_oracle, simulate_run_oracle
    ValidationReport.to_json             report_payload_oracle
    program_io.graph_json                graph_payload_oracle
    simulator.trace_to_json              trace_payload_oracle
    program_io.load_program              load_program_whole_tree
    program_io.parse_program             parse_program_whole_tree
    program_io.save_program              save_program_oracle
    dsl.load_dsl, save_dsl               load_dsl_oracle, save_dsl_oracle
    dsl composite containment            composite_cycle_oracle
    templating parse, render             parse_template_oracle, render_template_oracle
"""

import dataclasses
import heapq
import itertools
import random
import re
import sys
from pathlib import Path
from typing import Iterable

from seqc import dsl as dslmod
from seqc import program_io as pio
from seqc.codegen import GeneratorConfig, load_generator_config
from seqc.dsl import (
    PRIMITIVE_TYPES,
    ActionTypeDef,
    ParameterDef,
    ResourceComponentTypeDef,
    RobotClassDsl,
    VariableTypeDef,
)
from seqc.errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    InvalidProgramError,
    MalformedReferenceError,
    NonIterableInForeachError,
    SeqcError,
    TemplateError,
    UnclosedBlockError,
    UnknownDirectiveError,
    UnknownTemplateIdError,
    UnknownResourceTypeError,
    UnknownVariableTypeError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from seqc.model import (
    ActionInstance,
    ArgBinding,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.simulator import DurationMap, ExecutionTrace
from seqc.templating import (
    ForeachNode,
    IfNode,
    InsertNode,
    ReferencePath,
    SetNode,
    Template,
    _to_text,
    _walk,
    normalize_accessor,
)
from seqc.validator import Code, Finding, ValidationReport, validate
from seqc.xmlio import attr_escape, parse_root, require_attr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def outcome(call, *args, **kwargs):
    """A call's value, or the type and message of the SeqcError it raised."""
    try:
        return call(*args, **kwargs)
    except SeqcError as exc:
        return type(exc), str(exc)


def fixture_path(*parts) -> Path:
    return FIXTURES.joinpath(*parts)


def fixture_text(*parts) -> str:
    return fixture_path(*parts).read_text(encoding="utf-8")


def fixture_generator(*parts) -> GeneratorConfig:
    """The generator configuration at fixture_path(*parts), its templates
    resolved beside it."""
    return load_generator_config(fixture_text(*parts), base_dir=fixture_path(*parts).parent)


def make_dsl(components: dict[str, list[str]], mutex=()) -> RobotClassDsl:
    """Build a DSL of parameterless void actions.

    components maps component type -> action identifiers; mutex is an
    iterable of identifier pairs, each declared on its first action only.
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
    return RobotClassDsl("TestBot", (), comps)


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
            predecessors=incoming[action_name],
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
            predecessors=(*action.predecessors, predecessor),
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
    predecessors in name order, rotated to start at the smallest name."""
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


def composite_cycle_oracle(declared) -> str | None:
    """The message of the composite-containment search as `load_dsl` ran
    it before the graph search was shared: an explicit-stack depth-first
    walk over each type's fields, types and fields in declaration order."""
    by_name = {v.name: v for v in declared}
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
                    return "composite type contains itself: " + " -> ".join(cycle + [field_type])
                if field_type not in state:
                    state[field_type] = 1
                    trail.append(field_type)
                    pending.append(iter(by_name[field_type].fields or ()))
                    break
            else:
                state[trail.pop()] = 2
                pending.pop()
    return None


def topological_order_oracle(program: Program) -> list[str]:
    """Kahn's algorithm with a name-ordered heap, as `topological_order`
    is specified; raises CyclicGraphError with `cycle_oracle`'s witness,
    or the unordered names, when it stalls."""
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


def has_duplicate_names(program: Program) -> bool:
    """Whether two actions share a name: such a program has no graph."""
    names = program.action_names()
    return len(names) != len(set(names))


def dangling_predecessor(program: Program) -> tuple[str, str] | None:
    """The smallest (action, predecessor) pair whose predecessor names no
    action, or None."""
    names = set(program.action_names())
    return min(((action.name, pred) for action in program.actions
                for pred in action.predecessors if pred not in names), default=None)


def graph_defect(program: Program) -> tuple[type, str] | None:
    """The error type and message a graph query raises before it looks at
    cycles: duplicate names first, then a dangling predecessor."""
    if has_duplicate_names(program):
        names = program.action_names()
        first = min(name for name in names if names.count(name) > 1)
        return DuplicateIdentifierError, f"action {first!r} declared twice"
    dangling = dangling_predecessor(program)
    if dangling:
        return UnresolvedReferenceError, "action %r names unknown predecessor %r" % dangling
    return None


def may_overlap(program: Program, first: str, second: str) -> bool:
    """Exhaustive unit-duration schedule search: can the two actions start
    at the same tick in any schedule that respects precedence and keeps
    each resource serial?  Start times range over 0..n-1, which is
    enough: along any chain of blockers (predecessor or earlier user of
    the same resource) each step adds one tick, no chain passes through
    both of an unordered pair, and chains visit at most n actions.
    """
    resource = {a.name: a.resource for a in program.actions}
    if first == second or resource[first] == resource[second]:
        return False
    order = topological_order_oracle(program)
    preds = {a.name: set(a.predecessors) for a in program.actions}
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
    n = len(actions)
    if rng.random() < 0.4:
        i, j = rng.sample(range(n), 2)
        shared = actions[i].action_type
        actions[j] = dataclasses.replace(actions[j], action_type=shared)
        if rng.random() < 0.7:
            dsl = dataclasses.replace(dsl, components=tuple(
                dataclasses.replace(component, actions=tuple(
                    dataclasses.replace(atype, mutex_types=atype.mutex_types | {shared})
                    if atype.identifier == shared else atype
                    for atype in component.actions))
                for component in dsl.components))
    if rng.random() < 0.2:
        k = rng.randrange(n)
        actions[k] = dataclasses.replace(
            actions[k], predecessors=(*actions[k].predecessors, "missing"))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        i, j = sorted(rng.sample(range(n), 2))
        actions[i] = dataclasses.replace(
            actions[i],
            predecessors=(*actions[i].predecessors, actions[j].name))
    if rng.random() < 0.2:
        k, m = rng.sample(range(n), 2)
        if actions[m].name not in actions[k].predecessors:
            actions[k] = dataclasses.replace(actions[k], name=actions[m].name)
    return dsl, dataclasses.replace(program, actions=tuple(actions))


def random_flow_setup(rng: random.Random, **kwargs) -> tuple[RobotClassDsl, Program]:
    """random_setup with data flow and the graph defects above."""
    dsl, program = random_setup(rng, **kwargs)
    dsl, program = with_data_flow(rng, dsl, program)
    return with_graph_defects(rng, dsl, program)


def renamed(rng: random.Random, program: Program) -> tuple[Program, dict[str, str]]:
    """The program with every action, resource and variable name, dangling
    predecessors and undeclared variable references included, replaced
    consistently by a fresh random name; also returns the renaming.  The
    new names sort in a different order, and none is a parameter name or
    "return"."""
    mapping: dict[str, str] = {}

    def new(name: str) -> str:
        if name not in mapping:
            mapping[name] = "".join(rng.choice("ABCDEFGHIJ") for _ in range(3)) + str(len(mapping))
        return mapping[name]

    resources = tuple(ResourceInstance(new(r.name), r.component_type) for r in program.resources)
    variables = tuple(VariableDecl(new(v.name), v.type_name, v.init) for v in program.variables)
    actions = tuple(
        ActionInstance(
            new(action.name), action.action_type, new(action.resource),
            tuple(dataclasses.replace(arg, variable=new(arg.variable))
                  if arg.variable is not None else arg for arg in action.args),
            None if action.return_to is None else new(action.return_to),
            tuple(map(new, action.predecessors)))
        for action in program.actions
    )
    return Program(program.name, program.robot_class, resources, variables, actions), mapping

def reverse_chain_cycle(n: int) -> tuple[RobotClassDsl, Program]:
    """n actions a0000.. on one resource, each preceded by the next one and
    the last by the first: a depth-first search from the smallest name
    runs n deep before it closes the cycle."""
    dsl = make_dsl({"Station": ["Step"]})
    names = [f"a{i:04d}" for i in range(n)]
    edges = [(names[i + 1], names[i]) for i in range(n - 1)] + [(names[0], names[-1])]
    return dsl, make_program(dsl, [(name, "Step", "r1") for name in names], edges,
                             name="ReverseChain")


# Characters an XML attribute value must escape or quote, whitespace the
# parser would normalise if written raw, and non-ASCII up to the astral
# planes.  XML 1.0 has no other control characters, even as references.
AWKWARD_CHARS = "ab_ &<>\"'\n\r\t\u00e9\u2603\U0001d11e"


def awkward_text(rng: random.Random, low=1, high=6) -> str:
    return "".join(rng.choice(AWKWARD_CHARS) for _ in range(rng.randint(low, high)))


def awkward_names(rng: random.Random, count: int) -> list[str]:
    """Distinct names that need XML escaping, none equal to a primitive type."""
    return [f"{awkward_text(rng)}{i}" for i in range(count)]


def random_literal(rng: random.Random, type_name: str, dsl: RobotClassDsl):
    if type_name == "Int":
        return rng.randint(-10 ** 12, 10 ** 12)
    if type_name == "Float":
        return rng.choice((rng.uniform(-1e3, 1e3), rng.uniform(-1, 1) * 10 ** rng.randint(-300, 300),
                           0.0, -0.0))
    if type_name == "Bool":
        return rng.random() < 0.5
    if type_name == "String":
        return awkward_text(rng, low=0)
    return {name: random_literal(rng, field_type, dsl)
            for name, field_type in dsl.variable_type(type_name).fields}


def random_literal_setup(rng: random.Random, *, max_actions=8) -> tuple[RobotClassDsl, Program]:
    """A DSL with nested composite types and a program that loads against
    it: every name needs escaping, parameters and variables get scalar or
    composite literals, variable bindings, return targets and forward
    precedence edges."""
    flat, nested = awkward_names(rng, 2)
    flat_fields = tuple((name, rng.choice(PRIMITIVE_TYPES))
                        for name in awkward_names(rng, rng.randint(1, 3)))
    nested_fields = tuple((name, rng.choice((*PRIMITIVE_TYPES, flat)))
                          for name in awkward_names(rng, rng.randint(1, 3)))
    variable_types = (VariableTypeDef(flat, flat_fields), VariableTypeDef(nested, nested_fields))
    all_types = (*PRIMITIVE_TYPES, flat, nested)
    identifiers = iter(awkward_names(rng, 9))
    components = tuple(
        ResourceComponentTypeDef(component, tuple(
            ActionTypeDef(
                next(identifiers), component,
                return_type=rng.choice((None, *all_types)),
                parameters=tuple(ParameterDef(param, rng.choice(all_types))
                                 for param in awkward_names(rng, rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3))))
        for component in awkward_names(rng, rng.randint(1, 3)))
    dsl = RobotClassDsl(awkward_text(rng), variable_types, components)

    resources = [ResourceInstance(name, rng.choice(components).type_name)
                 for name in awkward_names(rng, rng.randint(1, 4))]
    variables = []
    for name in awkward_names(rng, rng.randint(0, 4)):
        type_name = rng.choice(all_types)
        init = random_literal(rng, type_name, dsl) if rng.random() < 0.6 else None
        variables.append(VariableDecl(name, type_name, init))
    variable_names = [v.name for v in variables] or awkward_names(rng, 1)  # may dangle
    placed = [(component, resource.name) for resource in resources
              for component in components if component.type_name == resource.component_type]
    names = awkward_names(rng, rng.randint(1, max_actions))
    actions = []
    for i, name in enumerate(names):
        component, resource = rng.choice(placed)
        action_type = rng.choice(component.actions)
        args = []
        for param in action_type.parameters:
            roll = rng.random()
            if roll < 0.3:
                args.append(ArgBinding(param.name, variable=rng.choice(variable_names)))
            elif roll < 0.85:
                args.append(ArgBinding(param.name,
                                       value=random_literal(rng, param.type_name, dsl)))
        predecessors = [p for p in names[:i] if rng.random() < 0.3]
        actions.append(ActionInstance(
            name, action_type.identifier, resource, tuple(args),
            rng.choice(variable_names) if rng.random() < 0.4 else None,
            tuple(predecessors)))
    program = Program(awkward_text(rng), dsl.name, tuple(resources), tuple(variables),
                      tuple(actions))
    return dsl, program


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


# Programs a hand-built `Program` can hold but no document can carry:
# `save_program` writes each kind but "xml_char", whose characters XML
# cannot carry, and `load_program` refuses what it wrote.  The one
# exception, "args_out_of_order", is no defect: arguments in any order
# validate clean and load back as built.
HOSTILE_KINDS = ("robot_class", "component", "placement", "variable_type", "initializer",
                 "bound_twice", "non_finite", "xml_char", "self_loop", "undeclared_resource",
                 "args_out_of_order")
NOT_XML_CHARS = "\x00\x01\x08\x0b\x0c\x0e\x1f\ufffe\uffff\ud800\udfff"


def clean_literal_setup(rng: random.Random) -> tuple[RobotClassDsl, Program]:
    """random_literal_setup with every parameter bound to a literal and no
    variable bound: a program that validates without an error."""
    dsl, program = random_literal_setup(rng)
    action_types = dsl.action_types()
    actions = tuple(
        dataclasses.replace(action, return_to=None, args=tuple(
            ArgBinding(param.name, value=random_literal(rng, param.type_name, dsl))
            for param in action_types[action.action_type].parameters))
        for action in program.actions)
    return dsl, dataclasses.replace(program, actions=actions)


def _wrong_literal(rng: random.Random, type_name: str, dsl: RobotClassDsl):
    """A finite value that is no literal of `type_name`, written as text
    or fields that the loader refuses for that type."""
    wrong = {"Int": ("seven", 1.5, True), "Float": ("x", False), "Bool": (0, 1, "yes"),
             "String": ({"f": 1},)}
    if type_name in wrong:
        return rng.choice(wrong[type_name])
    return rng.choice(({**random_literal(rng, type_name, dsl), "~extra": 0}, 7, "text"))


def hostile_setup(rng: random.Random, kind: str) -> tuple[RobotClassDsl, Program]:
    """A clean_literal_setup program with one defect of `kind` (see
    HOSTILE_KINDS).  A name starting with "~" is fresh: no generated name
    has that character."""
    dsl, program = clean_literal_setup(rng)
    fresh = "~" + awkward_text(rng)
    if kind == "robot_class":
        return dsl, dataclasses.replace(program, robot_class="~" + dsl.name)
    if kind == "component":
        return dsl, dataclasses.replace(program, resources=(
            *program.resources, ResourceInstance(fresh, "~" + awkward_text(rng))))
    if kind == "placement":
        # A component without actions: no action type belongs to it.
        dsl = dataclasses.replace(dsl, components=(
            *dsl.components, ResourceComponentTypeDef("~Empty")))
        k = rng.randrange(len(program.actions))
        actions = list(program.actions)
        actions[k] = dataclasses.replace(actions[k], resource=fresh)
        return dsl, dataclasses.replace(
            program, resources=(*program.resources, ResourceInstance(fresh, "~Empty")),
            actions=tuple(actions))
    if kind == "variable_type":
        init = rng.choice((None, 1, "x"))
        variable = VariableDecl(fresh, "~" + awkward_text(rng), init)
        return dsl, dataclasses.replace(program, variables=(*program.variables, variable))
    if kind == "initializer":
        type_name = rng.choice((*PRIMITIVE_TYPES, *(t.name for t in dsl.variable_types)))
        variable = VariableDecl(fresh, type_name, _wrong_literal(rng, type_name, dsl))
        return dsl, dataclasses.replace(program, variables=(*program.variables, variable))
    if kind == "bound_twice":
        while not any(action.args for action in program.actions):
            dsl, program = clean_literal_setup(rng)
        actions = list(program.actions)
        k = rng.choice([i for i, action in enumerate(actions) if action.args])
        again = rng.choice(actions[k].args)
        actions[k] = dataclasses.replace(actions[k], args=(*actions[k].args, again))
        return dsl, dataclasses.replace(program, actions=tuple(actions))
    if kind == "non_finite":
        bad = rng.choice((float("nan"), float("inf"), float("-inf")))
        where = rng.choice(("variable", "argument", "nested"))
        floats = [(k, i) for k, action in enumerate(program.actions)
                  for i, param in enumerate(dsl.action_types()[action.action_type].parameters)
                  if param.type_name == "Float"]
        if where == "argument" and floats:  # else a variable
            k, i = rng.choice(floats)
            actions = list(program.actions)
            args = list(actions[k].args)
            args[i] = ArgBinding(args[i].param, value=bad)
            actions[k] = dataclasses.replace(actions[k], args=tuple(args))
            return dsl, dataclasses.replace(program, actions=tuple(actions))
        if where == "nested":
            dsl = dataclasses.replace(dsl, variable_types=(
                *dsl.variable_types, VariableTypeDef("~Box", (("n", "Int"), ("f", "Float"))),
                VariableTypeDef("~Outer", (("box", "~Box"),))))
            type_name, init = rng.choice((("~Box", {"n": 1, "f": bad}),
                                          ("~Outer", {"box": {"n": 1, "f": bad}})))
        else:
            type_name, init = "Float", bad
        variable = VariableDecl(fresh, type_name, init)
        return dsl, dataclasses.replace(program, variables=(*program.variables, variable))
    if kind == "xml_char":
        char = rng.choice(NOT_XML_CHARS)
        where = rng.choice(("program", "resource", "variable", "literal"))
        if where == "program":
            return dsl, dataclasses.replace(program, name=program.name + char)
        if where == "resource":
            resource = ResourceInstance(fresh + char, dsl.components[0].type_name)
            return dsl, dataclasses.replace(program, resources=(*program.resources, resource))
        variable = (VariableDecl(fresh + char, "Int") if where == "variable"
                    else VariableDecl(fresh, "String", awkward_text(rng, low=0) + char))
        return dsl, dataclasses.replace(program, variables=(*program.variables, variable))
    if kind in ("self_loop", "undeclared_resource"):
        actions = list(program.actions)
        k = rng.randrange(len(actions))
        actions[k] = dataclasses.replace(actions[k], **(
            {"predecessors": (*actions[k].predecessors, actions[k].name)}
            if kind == "self_loop" else {"resource": fresh}))
        return dsl, dataclasses.replace(program, actions=tuple(actions))
    if kind == "args_out_of_order":
        while not any(len(action.args) > 1 for action in program.actions):
            dsl, program = clean_literal_setup(rng)
        actions = list(program.actions)
        k = rng.choice([i for i, action in enumerate(actions) if len(action.args) > 1])
        args = list(actions[k].args)
        while tuple(args) == actions[k].args:
            rng.shuffle(args)
        actions[k] = dataclasses.replace(actions[k], args=tuple(args))
        return dsl, dataclasses.replace(program, actions=tuple(actions))
    raise ValueError(kind)


def edge_scalars() -> tuple:
    """Scalars at the edges of the literal rule: ints about 2**53 and about
    the interpreter's int-string limit, bools, signed zeros, subnormals,
    the largest float, NaN and the infinities, and strings XML must escape."""
    most = 10 ** sys.get_int_max_str_digits()  # the first int with too many digits
    return (2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53 + 1), 10 ** 20, 10 ** 20 + 1,
            10 ** 300, 0, -7, most - 1, most, 1 - most, -most, True, False,
            0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.5,
            1.7976931348623157e308, -1.7976931348623157e308, float(2 ** 53),
            float("nan"), float("inf"), float("-inf"),
            "", "&<>\"'\r\n\t", " 7 ", "1.5", "true", "None")


def hostile_corpus(seed: int, per_kind: int = 25):
    """(kind, dsl, program) for `per_kind` seeded cases of each kind."""
    rng = random.Random(seed)
    for kind in HOSTILE_KINDS:
        for _ in range(per_kind):
            yield (kind, *hostile_setup(rng, kind))


def random_durations(rng: random.Random, program: Program, low=1, high=5):
    return {name: rng.randint(low, high) for name in program.action_names()}


def mutate_program(rng: random.Random, text: str) -> str:
    """One random defect (or a harmless reordering) in a saved document."""
    lines = text.splitlines()
    entries = [i for i, line in enumerate(lines)
               if re.match(r"\s*<(Resource|Variable|ActionInstance|After|Arg) ", line)]
    kind = rng.choice(["drop_attr", "rename_section", "stray_entry", "unknown_type",
                       "unknown_endpoint", "duplicate_entry", "extra_edge", "self_edge",
                       "truncate", "reorder_sections", "unknown_resource_type",
                       "unknown_param", "bad_literal", "none"])
    if kind == "drop_attr" and entries:
        i = rng.choice(entries)
        attrs = re.findall(r' \w+="[^"]*"', lines[i])
        if attrs:
            lines[i] = lines[i].replace(rng.choice(attrs), "", 1)
    elif kind == "rename_section":
        section = rng.choice(["Resources", "Variables", "Actions", "Constraints"])
        return re.sub(rf"<(/?){section}\b", rf"<\1{section}X", text)
    elif kind == "stray_entry" and len(lines) > 2:
        i = rng.randrange(1, len(lines) - 1)
        lines.insert(i + 1 if lines[i].endswith("s>") else i, "<Bogus/>")
    elif kind == "unknown_type":
        return re.sub(r'(<ActionInstance [^>]*type=)"[^"]*"', r'\1"Nope"', text, count=1)
    elif kind == "unknown_endpoint":
        return re.sub(r'predecessor="[^"]*"', 'predecessor="ghost"', text, count=1)
    elif kind == "duplicate_entry" and entries:
        i = rng.choice(entries)
        if lines[i].endswith("/>"):
            lines.insert(i, lines[i])
    elif kind in ("extra_edge", "self_edge") and (
            names := re.findall(r'<ActionInstance name="([^"]*)"', text)):  # not cut short
        a, b = rng.choice(names), rng.choice(names)
        edge = f'<After action="{a}" predecessor="{a if kind == "self_edge" else b}"/>'
        return text.replace("<Constraints/>", f"<Constraints>{edge}</Constraints>").replace(
            "<Constraints>\n", f"<Constraints>\n{edge}\n")
    elif kind == "truncate" and text:
        return text[:rng.randrange(len(text))]
    elif kind == "reorder_sections":
        head, body = text.split("\n", 1)
        blocks = re.findall(r"(  <(\w+)(?:/>|>.*?</\2>)\n)", body, flags=re.S)
        if len(blocks) != 4:  # an earlier mutation broke a section
            return text
        rng.shuffle(blocks)
        return head + "\n" + "".join(block for block, _ in blocks) + "</Program>\n"
    elif kind == "unknown_resource_type":
        return re.sub(r'(<Resource [^>]*type=)"[^"]*"', r'\1"Nope"', text, count=1)
    elif kind == "unknown_param":
        return text.replace('param="x"', 'param="y"', 1)
    elif kind == "bad_literal":
        return re.sub(r'value="[^"]*"', 'value="nan"', text, count=1)
    return "\n".join(lines) + "\n"


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """One byte-level defect in a file: truncated, one byte replaced by
    0xFF (never UTF-8), or a span deleted."""
    if not data:
        return data
    kind = rng.choice(["truncate", "ff_byte", "delete_span"])
    at = rng.randrange(len(data))
    if kind == "truncate":
        return data[:at]
    if kind == "ff_byte":
        return data[:at] + b"\xff" + data[at + 1:]
    return data[:at] + data[at + rng.randint(1, 64):]


# The whole-tree walk that served both loaders before program documents
# were read slice by slice, kept as their oracle: `ET.fromstring` builds the
# whole tree and a structural walk checks every section and entry; then the
# entries are read in document order, and the program they make is judged
# by `validate_oracle`'s statements of the declaration rules.  Composite
# literals reuse `pio._parse_literal`.

WHOLE_TREE_SECTIONS = {
    "Resources": ("Resource", ("name", "type")),
    "Variables": ("Variable", ("name", "type")),
    "Actions": ("ActionInstance", ("name", "type", "resource")),
    "Constraints": ("After", ("action", "predecessor")),
}


def _whole_tree_children(elem, tag):
    children = elem.findall(tag)
    if len(children) != len(elem):
        stray = next(child for child in elem if child.tag != tag)
        raise XmlSyntaxError(f"unexpected element <{stray.tag}> inside <{elem.tag}>")
    return children


def _whole_tree_required(elems, names):
    return [tuple(require_attr(elem, attr) for attr in names) for elem in elems]


def read_document_whole_tree(text: str):
    """The root's name and robot class, and each entry as (section tag,
    element, required attribute values), in document order."""
    root = parse_root(text, "Program")
    name = require_attr(root, "name")
    robot_class = require_attr(root, "robotClass")
    entries = []
    for section in root:
        if section.tag not in WHOLE_TREE_SECTIONS:
            raise XmlSyntaxError(f"unexpected element <{section.tag}>")
        entry_tag, required = WHOLE_TREE_SECTIONS[section.tag]
        elems = _whole_tree_children(section, entry_tag)
        entries += [(section.tag, elem, row)
                    for elem, row in zip(elems, _whole_tree_required(elems, required))]
    return name, robot_class, entries


def _whole_tree_variable(elem, attrs, dsl):
    name, type_name = attrs
    if dsl.variable_type(type_name) is None:
        raise UnknownVariableTypeError(f"variable {name!r} has unknown type {type_name!r}")
    init_attr, where = elem.get("init"), f"variable {name!r}"
    if init_attr is not None and len(elem):
        raise XmlSyntaxError(f"{where} mixes init attribute and <Field> children")
    if init_attr is None and not len(elem):
        return VariableDecl(name, type_name)
    return VariableDecl(name, type_name, pio._parse_literal(elem, init_attr, type_name, dsl, where))


def _whole_tree_action(elem, attrs, dsl):
    name, type_name, resource = attrs
    action_type = dslmod.lookup_action(dsl, type_name)
    declared = action_type.parameters_by_name
    bindings: dict[str, ArgBinding] = {}
    return_to = None
    for child in elem:
        if child.tag == "Arg":
            param = require_attr(child, "param")
            if param not in declared:
                raise UnresolvedReferenceError(f"action {name!r} binds unknown parameter {param!r}")
            if param in bindings:
                raise DuplicateIdentifierError(f"action {name!r} binds parameter {param!r} twice")
            bindings[param] = _whole_tree_arg(child, declared[param], dsl, name)
        elif child.tag == "ReturnTo":
            if return_to is not None:
                raise XmlSyntaxError(f"action {name!r} has more than one <ReturnTo>")
            return_to = require_attr(child, "variable")
        else:
            raise XmlSyntaxError(f"unexpected element <{child.tag}> inside <ActionInstance>")
    return name, type_name, resource, tuple(bindings.values()), return_to


def _whole_tree_arg(elem, param, dsl, action_name):
    variable, value_attr = elem.get("variable"), elem.get("value")
    if (variable is not None) + (value_attr is not None) + (len(elem) > 0) != 1:
        raise XmlSyntaxError(
            f"action {action_name!r}, parameter {param.name!r}: exactly one of"
            " variable=, value=, or nested <Field> elements is required")
    if variable is not None:
        return ArgBinding(param.name, variable=variable)
    where = f"action {action_name!r}, parameter {param.name!r}"
    return ArgBinding(param.name,
                      value=pio._parse_literal(elem, value_attr, param.type_name, dsl, where))


def _whole_tree_assemble(name, robot_class, resources, variables, rows, incoming):
    actions = tuple(
        ActionInstance(action_name, type_name, resource, args, return_to,
                       incoming.get(action_name, ()))
        for action_name, type_name, resource, args, return_to in rows)
    return Program(name, robot_class, tuple(resources), tuple(variables), actions)


# The declaration rules, which `validate` reports and `load_program` refuses
# a document by once it has read it: (the finding's message, the loader's error).
DECLARATION_RULES = (
    (r"(action|resource|variable) name .* is declared more than once", DuplicateIdentifierError),
    (r"resource .* has unknown component type .*", UnknownResourceTypeError),
    (r"action .* runs on undeclared resource .*", UnresolvedReferenceError),
    (r"action .*: type .* belongs to component .*, but resource .*", UnresolvedReferenceError),
)


def declaration_rule(message: str) -> tuple[str, type] | None:
    """The entry of DECLARATION_RULES that a finding's message states, if any."""
    return next((rule for rule in DECLARATION_RULES if re.fullmatch(rule[0], message, re.S)), None)


def declaration_findings_oracle(program: Program, dsl: RobotClassDsl) -> list[tuple[Finding, type]]:
    """The findings of `validate_oracle`'s name and binding statements that
    state a declaration rule, in report order, each with the error
    `load_program` raises for it."""
    report = ValidationReport(tuple(_unique_names_oracle(program) + _bindings_oracle(program, dsl)))
    return [(finding, rule[1]) for finding in report.findings
            if (rule := declaration_rule(finding.message))]


def read_program_whole_tree(text: str, dsl: RobotClassDsl) -> tuple[Program, list]:
    """A document's program, its <After> edges as predecessors (those that
    name no action too), and its edges; raises on its XML structure, its
    robot class and then on the first entry that cannot be read."""
    name, robot_class, entries = read_document_whole_tree(text)
    if robot_class != dsl.name:
        raise UnresolvedReferenceError(f"program is written for robot class {robot_class!r},"
                                       f" but the DSL is {dsl.name!r}")
    resources, variables, rows, edges = [], [], [], []
    for tag, elem, attrs in entries:  # the first entry that cannot be read raises
        if tag == "Resources":
            resources.append(ResourceInstance(*attrs))
        elif tag == "Variables":
            variables.append(_whole_tree_variable(elem, attrs, dsl))
        elif tag == "Actions":
            rows.append(_whole_tree_action(elem, attrs, dsl))
        else:
            edges.append(attrs)
    incoming: dict[str, set[str]] = {}
    for action, predecessor in edges:
        incoming.setdefault(action, set()).add(predecessor)
    return _whole_tree_assemble(name, robot_class, resources, variables, rows, incoming), edges


def load_program_whole_tree(text: str, dsl: RobotClassDsl) -> Program:
    program, edges = read_program_whole_tree(text, dsl)
    for finding, error in declaration_findings_oracle(program, dsl)[:1]:
        raise error(finding.message)
    names = set(program.action_names())
    for action, predecessor in edges:
        for endpoint in (action, predecessor):
            if endpoint not in names:
                raise UnresolvedReferenceError(f"constraint references unknown action {endpoint!r}")
    topological_order_oracle(program)  # names are unique and resolved by now
    return program


def parse_program_whole_tree(text: str) -> Program:
    name, robot_class, entries = read_document_whole_tree(text)
    rows = {tag: [] for tag in WHOLE_TREE_SECTIONS}
    for tag, _, attrs in entries:
        rows[tag].append(attrs)
    resources = [ResourceInstance(*row) for row in rows["Resources"]]
    variables = [VariableDecl(*row) for row in rows["Variables"]]
    actions = [(*row, (), None) for row in rows["Actions"]]
    incoming: dict[str, set[str]] = {}
    for action, predecessor in rows["Constraints"]:
        incoming.setdefault(action, set()).add(predecessor)
    return _whole_tree_assemble(name, robot_class, resources, variables, actions, incoming)

# The scheduling loop as it was before it ran on the shared graph index,
# kept as an oracle: per-action `waiting` sets, a re-sort of the ready
# list at every instant, events recorded as they happen, and one sort of
# all events at the end.

def simulate_oracle(program: Program, dsl: RobotClassDsl, durations=None, *,
                    force: bool = False) -> ExecutionTrace:
    return simulate_run_oracle(program, dsl, durations, force=force)[0]


def simulate_run_oracle(program: Program, dsl: RobotClassDsl, durations=None, *,
                        force: bool = False) -> tuple[ExecutionTrace, dict]:
    """The trace, and the trace document built from the run's own events."""
    durations = durations or DurationMap()
    if not force and not (report := validate_oracle(program, dsl)).ok:
        raise InvalidProgramError(report)
    defect = graph_defect(program)
    if defect:
        error, message = defect
        raise error(message)
    topological_order_oracle(program)

    names = program.action_names()
    duration = {name: durations.duration_of(name) for name in names}
    resource_of = {a.name: a.resource for a in program.actions}
    type_of = {a.name: a.action_type for a in program.actions}
    waiting = {a.name: set(a.predecessors) for a in program.actions}
    dependents: dict[str, set[str]] = {name: set() for name in names}
    for name in names:
        for pred in waiting[name]:
            dependents[pred].add(name)

    ready = sorted(name for name, preds in waiting.items() if not preds)
    running: dict[str, int] = {}  # action -> finish time
    busy: dict[str, str] = {}  # resource -> action
    finished: set[str] = set()
    events: list[tuple[int, str, str, str]] = []  # (time, kind, action, resource)
    schedule: dict[str, tuple[int, int]] = {}
    now = 0

    def mutex_blocked(name: str) -> bool:
        return any(dsl.is_mutex(type_of[name], type_of[other]) for other in running)

    while len(finished) < len(names):
        for name in sorted(n for n, t in running.items() if t == now):
            del running[name]
            del busy[resource_of[name]]
            finished.add(name)
            events.append((now, "finish", name, resource_of[name]))
            for dependent in dependents[name]:
                waiting[dependent].discard(name)
                if not waiting[dependent] and dependent not in schedule:
                    ready.append(dependent)
        ready.sort()
        still_waiting = []
        for name in ready:
            if resource_of[name] in busy or (force and mutex_blocked(name)):
                still_waiting.append(name)
                continue
            running[name] = now + duration[name]
            busy[resource_of[name]] = name
            schedule[name] = (now, now + duration[name])
            events.append((now, "start", name, resource_of[name]))
        ready = still_waiting
        if len(finished) == len(names):
            break
        if not running:
            raise AssertionError("scheduler stalled with work remaining")
        now = min(running.values())

    total = max((finish for _, finish in schedule.values()), default=0)
    events.sort(key=lambda e: (e[0], e[1] == "start", e[2]))
    document = {"makespan": total, "events": [
        {"t": t, "kind": kind, "action": name, "resource": resource}
        for t, kind, name, resource in events]}
    resources = {name: resource_of[name] for name in schedule}
    return ExecutionTrace(schedule, resources), document


# The validator's checks as they were before severities came from the code
# table and the data-flow lints shared one variable-use index, kept as an
# oracle: every finding names its severity, and each lint walks the
# arguments and return bindings itself.  The graph findings come from
# `pairwise_flow_findings`, which tests every action pair by path
# enumeration.

def validate_oracle(program: Program, dsl: RobotClassDsl) -> ValidationReport:
    findings = _unique_names_oracle(program)
    findings += _bindings_oracle(program, dsl)
    findings += _unused_variables_oracle(program)
    findings += pairwise_flow_findings(program, dsl)
    return ValidationReport(tuple(findings))


def pairwise_flow_findings(program: Program, dsl: RobotClassDsl) -> list[Finding]:
    """The cycle, mutex, race and read-before-write checks as first
    written: every action pair, reachability by path enumeration.  Like
    the validator, they need unique names and resolved predecessors."""
    names = program.action_names()
    if has_duplicate_names(program) or dangling_predecessor(program):
        return []
    try:
        topological_order_oracle(program)
    except CyclicGraphError as exc:
        return [Finding(Code.CYCLIC_GRAPH, tuple(sorted(set(exc.cycle))),
                        "actions form a precedence cycle: "
                        + " -> ".join(exc.cycle + exc.cycle[:1]))]
    actions = {a.name: a for a in program.actions}
    above = {name: ancestors_oracle(program, name) for name in names}
    reads = {a.name: {arg.variable for arg in a.args if arg.variable is not None}
             for a in program.actions}
    writes = {a.name: {a.return_to} - {None} for a in program.actions}
    findings = []
    for a, b in itertools.combinations(names, 2):
        if (actions[a].resource == actions[b].resource
                or a in above[b] or b in above[a]):
            continue
        type_a, type_b = actions[a].action_type, actions[b].action_type
        if dsl.is_mutex(type_a, type_b):
            findings.append(Finding(
                Code.MUTEX_VIOLATION, (a, b),
                f"{a!r} ({type_a}) and {b!r} ({type_b}) may run"
                " simultaneously but their action types are mutually exclusive"))
        conflicts = (writes[a] & writes[b]) | (writes[a] & reads[b]) | (reads[a] & writes[b])
        for variable in sorted(conflicts):
            findings.append(Finding(
                Code.VARIABLE_RACE, (a, b, variable),
                f"{a!r} and {b!r} may run simultaneously and both"
                f" touch variable {variable!r}"))
    declared = {v.name: v for v in reversed(program.variables)}  # the first one wins
    for reader in names:
        for variable in sorted(reads[reader]):
            if variable not in declared or declared[variable].init is not None:
                continue
            writers = [w for w in names if w != reader and variable in writes[w]]
            if all(reader in above[w] for w in writers):
                findings.append(Finding(
                    Code.UNINSTANTIATED_VARIABLE, (reader, variable),
                    f"action {reader!r} reads {variable!r}, which has no"
                    " initializer and no writer that can run first"))
    return findings


def _unique_names_oracle(program: Program) -> list[Finding]:
    findings = []
    for kind, names in (("action", [a.name for a in program.actions]),
                        ("resource", [r.name for r in program.resources]),
                        ("variable", [v.name for v in program.variables])):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                findings.append(Finding(Code.DUPLICATE_NAME, (name,),
                                        f"{kind} name {name!r} is declared more than once"))
            seen.add(name)
    return findings


def _unknown_variable_oracle(action_name: str, variable: str) -> Finding:
    return Finding(Code.UNKNOWN_VARIABLE, (action_name, variable),
                   f"action {action_name!r} references undeclared variable {variable!r}")


def _literal_oracle(value, type_name: str, dsl: RobotClassDsl) -> bool:
    """The literal rule written out per type, apart from `dsl`'s codec:
    a Float that is NaN or infinite is no literal, an int in a Float slot
    must equal its float exactly, and an Int must have no more decimal
    digits than the interpreter's int-string limit allows."""
    vtype = dsl.variable_type(type_name)
    if vtype is None:
        return False
    if vtype.is_primitive:
        if type_name == "Int":
            return (isinstance(value, int) and not isinstance(value, bool)
                    and abs(value) < 10 ** sys.get_int_max_str_digits())
        if type_name == "Float":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            try:
                as_float = float(value)
            except OverflowError:
                return False
            # NaN for NaN and both infinities; an int must survive the float.
            return as_float - as_float == 0 and as_float == value
        if type_name == "Bool":
            return isinstance(value, bool)
        return isinstance(value, str)
    if not isinstance(value, dict):
        return False
    declared = dict(vtype.fields or ())
    if set(value) != set(declared):
        return False
    return all(_literal_oracle(value[f], declared[f], dsl) for f in declared)


def _declarations_oracle(program: Program, dsl: RobotClassDsl) -> list[Finding]:
    """What `load_program` rejects in a program's robot class, resources
    and variables, as findings."""
    findings = []
    if program.robot_class != dsl.name:
        findings.append(Finding(
            Code.UNRESOLVED_REFERENCE, (program.name, program.robot_class),
            f"program is written for robot class {program.robot_class!r},"
            f" but the DSL is {dsl.name!r}"))
    component_names = [component.type_name for component in dsl.components]
    for resource in program.resources:
        if resource.component_type not in component_names:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE,
                (resource.name, resource.component_type),
                f"resource {resource.name!r} has unknown component type"
                f" {resource.component_type!r}"))
    type_names = [*PRIMITIVE_TYPES, *(vtype.name for vtype in dsl.variable_types)]
    for variable in program.variables:
        if variable.type_name not in type_names:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (variable.name, variable.type_name),
                f"variable {variable.name!r} has unknown type {variable.type_name!r}"))
        elif variable.init is not None and not _literal_oracle(variable.init, variable.type_name, dsl):
            findings.append(Finding(
                Code.TYPE_MISMATCH, (variable.name, "init"),
                f"initializer of variable {variable.name!r} does not type-check"
                f" as {variable.type_name}"))
    return findings


def _bindings_oracle(program: Program, dsl: RobotClassDsl) -> list[Finding]:
    findings = _declarations_oracle(program, dsl)
    declared_vars: dict[str, VariableDecl] = {}
    for variable in program.variables:  # the first declaration of a name wins
        declared_vars.setdefault(variable.name, variable)
    resource_types: dict[str, str] = {}
    for resource in program.resources:  # so does the first resource of a name
        resource_types.setdefault(resource.name, resource.component_type)
    component_names = [component.type_name for component in dsl.components]
    action_types = dsl.action_types()
    names = set(program.action_names())
    for action in program.actions:
        for pred in sorted(set(action.predecessors) - names):
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, pred),
                f"action {action.name!r} names unknown predecessor {pred!r}"))
        if action.resource not in resource_types:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.resource),
                f"action {action.name!r} runs on undeclared resource {action.resource!r}"))
        atype = action_types.get(action.action_type)
        if atype is None:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.action_type),
                f"action {action.name!r} has unknown type {action.action_type!r}"))
            continue
        placed_on = resource_types.get(action.resource)
        if placed_on in component_names and placed_on != atype.owner:
            findings.append(Finding(
                Code.UNRESOLVED_REFERENCE, (action.name, action.resource),
                f"action {action.name!r}: type {action.action_type!r} belongs to component"
                f" {atype.owner!r}, but resource {action.resource!r} is a {placed_on!r}"))
        declared = [param.name for param in atype.parameters]
        for arg in action.args:
            if arg.param not in declared:
                findings.append(Finding(
                    Code.UNRESOLVED_REFERENCE, (action.name, arg.param),
                    f"action {action.name!r} binds unknown parameter {arg.param!r}"))
        params = [arg.param for arg in action.args]
        for param in sorted(set(params)):
            if params.count(param) > 1:
                findings.append(Finding(
                    Code.DUPLICATE_NAME, (action.name, param),
                    f"action {action.name!r} binds parameter {param!r} twice"))
        bound = {arg.param: arg for arg in action.args}
        for param in atype.parameters:
            arg = bound.get(param.name)
            if arg is None:
                findings.append(Finding(
                    Code.UNBOUND_PARAMETER, (action.name, param.name),
                    f"action {action.name!r} leaves parameter {param.name!r} unset"))
            elif arg.variable is not None:
                decl = declared_vars.get(arg.variable)
                if decl is None:
                    findings.append(_unknown_variable_oracle(action.name, arg.variable))
                elif decl.type_name != param.type_name:
                    findings.append(Finding(
                        Code.TYPE_MISMATCH, (action.name, param.name),
                        f"parameter {param.name!r} expects {param.type_name},"
                        f" variable {arg.variable!r} is {decl.type_name}"))
            elif not _literal_oracle(arg.value, param.type_name, dsl):
                findings.append(Finding(
                    Code.TYPE_MISMATCH, (action.name, param.name),
                    f"literal value for parameter {param.name!r} does not"
                    f" type-check as {param.type_name}"))
        if action.return_to is not None:
            decl = declared_vars.get(action.return_to)
            if atype.return_type is None:
                findings.append(Finding(
                    Code.TYPE_MISMATCH, (action.name, "return"),
                    f"action type {atype.identifier!r} returns no value but"
                    f" {action.name!r} binds a return variable"))
            elif decl is None:
                findings.append(_unknown_variable_oracle(action.name, action.return_to))
            elif decl.type_name != atype.return_type:
                findings.append(Finding(
                    Code.TYPE_MISMATCH, (action.name, "return"),
                    f"return value is {atype.return_type}, variable"
                    f" {action.return_to!r} is {decl.type_name}"))
    return findings


def _unused_variables_oracle(program: Program) -> list[Finding]:
    used: set[str] = set()
    for action in program.actions:
        used.update(arg.variable for arg in action.args if arg.variable is not None)
        if action.return_to is not None:
            used.add(action.return_to)
    return [Finding(Code.UNUSED_VARIABLE, (variable.name,),
                    f"variable {variable.name!r} is never read or written by any action")
            for variable in program.variables if variable.name not in used]


# The `validate --json`, `graph --json` and trace documents, as the values
# whose `json.dumps(value, indent=2)` each writer must print.  They read the
# objects' fields and nothing else: no seqc writer, no `jsonout`, and no
# `Finding.severity` or `ValidationReport.ok`.

# README's finding-code table: these codes are warnings, every other code an error.
WARNING_CODES = frozenset({"UninstantiatedVariable", "UnusedVariable", "VariableRace"})


def report_payload_oracle(report: ValidationReport) -> dict:
    findings = [{"severity": "warning" if f.code.value in WARNING_CODES else "error",
                 "code": f.code.value, "subjects": list(f.subjects), "message": f.message}
                for f in report.findings]
    return {"ok": all(f["severity"] == "warning" for f in findings), "findings": findings}


def graph_payload_oracle(program: Program) -> dict:
    """`graph --json` as the CLI built it before: per-action sorted
    predecessors, then one sort of all edges."""
    edges = []
    for action in program.actions:
        for predecessor in action.predecessors:
            edges.append({"from": predecessor, "to": action.name})
    edges.sort(key=lambda e: (e["from"], e["to"]))
    return {
        "name": program.name,
        "nodes": [{"name": a.name, "type": a.action_type, "resource": a.resource}
                  for a in program.actions],
        "edges": edges,
    }


def trace_payload_oracle(trace: ExecutionTrace) -> dict:
    """The trace document read off the schedule: tick by tick, the actions
    finishing there by name, then those starting there by name."""
    finishing: dict[int, list[str]] = {}
    starting: dict[int, list[str]] = {}
    for name, (start, finish) in trace.schedule.items():
        starting.setdefault(start, []).append(name)
        finishing.setdefault(finish, []).append(name)
    events = []
    for t in sorted(finishing.keys() | starting.keys()):
        for kind, at in (("finish", finishing), ("start", starting)):
            events += [{"t": t, "kind": kind, "action": name, "resource": trace.resources[name]}
                       for name in sorted(at.get(t, ()))]
    return {"makespan": max(finishing, default=0), "events": events}


# The XML writers and the DSL loader as they were before `xmlio` stated the
# element rules once, kept as oracles: each writer spells out its indents,
# quoting and closing tags, and the DSL loader checks a list's tags lazily,
# one child at a time, with a message that does not name the parent.

def _scalar_text_oracle(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_literal_oracle(lines, head: str, tag: str, attr: str, value, indent: str) -> None:
    if not isinstance(value, dict):
        lines.append(f"{head} {attr}={attr_escape(_scalar_text_oracle(value))}/>")
        return
    lines.append(head + ">")
    inner = indent + "  "
    for field_name, field_value in value.items():
        _write_literal_oracle(lines, f"{inner}<Field name={attr_escape(field_name)}", "Field",
                              "value", field_value, inner)
    lines.append(f"{indent}</{tag}>")


def save_program_oracle(program: Program) -> str:
    resources = [
        f"    <Resource name={attr_escape(resource.name)}"
        f" type={attr_escape(resource.component_type)}/>"
        for resource in program.resources
    ]
    variables: list[str] = []
    for variable in program.variables:
        head = (
            f"    <Variable name={attr_escape(variable.name)}"
            f" type={attr_escape(variable.type_name)}"
        )
        if variable.init is None:
            variables.append(head + "/>")
        else:
            _write_literal_oracle(variables, head, "Variable", "init", variable.init, "    ")
    actions: list[str] = []
    for action in program.actions:
        head = (
            f"    <ActionInstance name={attr_escape(action.name)}"
            f" type={attr_escape(action.action_type)}"
            f" resource={attr_escape(action.resource)}"
        )
        if not action.args and action.return_to is None:
            actions.append(head + "/>")
            continue
        actions.append(head + ">")
        for arg in action.args:
            arg_head = f"      <Arg param={attr_escape(arg.param)}"
            if arg.variable is not None:
                actions.append(f"{arg_head} variable={attr_escape(arg.variable)}/>")
            else:
                _write_literal_oracle(actions, arg_head, "Arg", "value", arg.value, "      ")
        if action.return_to is not None:
            actions.append(f"      <ReturnTo variable={attr_escape(action.return_to)}/>")
        actions.append("    </ActionInstance>")
    constraints = [
        f"    <After action={attr_escape(action_name)} predecessor={attr_escape(predecessor)}/>"
        for action_name, predecessor in sorted(
            (action.name, predecessor)
            for action in program.actions
            for predecessor in action.predecessors
        )
    ]
    lines = [
        f"<Program name={attr_escape(program.name)}"
        f" robotClass={attr_escape(program.robot_class)}>"
    ]
    for tag, entries in (("Resources", resources), ("Variables", variables),
                         ("Actions", actions), ("Constraints", constraints)):
        lines.extend([f"  <{tag}>", *entries, f"  </{tag}>"] if entries else [f"  <{tag}/>"])
    lines.append("</Program>")
    return "\n".join(lines) + "\n"


def save_dsl_oracle(dsl: RobotClassDsl) -> str:
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


def _children_lazily(elem, expected_tag):
    for child in elem:
        if child.tag != expected_tag:
            raise XmlSyntaxError(f"unexpected element <{child.tag}>")
        yield child


def load_dsl_oracle(text: str) -> RobotClassDsl:
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
            variable_types.extend(_variable_type_oracle(elem)
                                  for elem in _children_lazily(child, "VariableType"))
        elif child.tag == "ResourceComponent":
            type_name = require_attr(child, "type")
            components.append(ResourceComponentTypeDef(type_name, tuple(
                _action_type_oracle(elem, type_name) for elem in _children_lazily(child, "Action"))))
        else:
            raise XmlSyntaxError(f"unexpected element <{child.tag}>")
    dslmod._check_variable_types(variable_types)
    dslmod._check_components(components)
    dsl = RobotClassDsl(name, tuple(variable_types), tuple(components))
    dslmod._check_type_references(dsl)
    return dsl


def _variable_type_oracle(elem) -> VariableTypeDef:
    name = require_attr(elem, "name")
    fields = tuple((require_attr(f, "name"), require_attr(f, "type"))
                   for f in _children_lazily(elem, "Field"))
    return VariableTypeDef(name=name, fields=fields)


def _action_type_oracle(elem, owner: str) -> ActionTypeDef:
    identifier = require_attr(elem, "actionIdentifier")
    return_type = elem.get("returnType")
    if return_type == "Void":
        return_type = None
    parameters: list[ParameterDef] = []
    mutex_types: set[str] = set()
    for child in elem:
        if child.tag == "ParameterList":
            for param in _children_lazily(child, "Parameter"):
                parameters.append(
                    ParameterDef(require_attr(param, "name"), require_attr(param, "type")))
        elif child.tag == "NotAllowedSimultaneousActionTypes":
            for entry in _children_lazily(child, "NotAllowedSimultaneousAction"):
                mutex_types.add(require_attr(entry, "type"))
        else:
            raise XmlSyntaxError(f"unexpected element <{child.tag}>")
    for dup in dslmod._duplicates([p.name for p in parameters]):
        raise DuplicateIdentifierError(
            f"action type {identifier!r} declares parameter {dup!r} twice")
    return ActionTypeDef(identifier, owner, return_type, tuple(parameters),
                         frozenset(mutex_types))


# --- template engine oracle ----------------------------------------------------
# The recursive-descent parser and the recursive renderer that the engine's
# one-scan parser and frame-stack renderer replaced, kept as they were: one
# Python call per open block, #foreach item and #insert.

_TEMPLATE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TEMPLATE_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_TEMPLATE_WORD = re.compile(r"[a-z]+")
_TEMPLATE_DIRECTIVES = ("foreach", "if", "else", "end", "set", "insert")
_TEMPLATE_MAX_INSERT_DEPTH = 32
_TEMPLATE_MISSING = object()


def parse_template_oracle(source: str, template_id: str = "<string>") -> Template:
    return Template(template_id, _TemplateParserOracle(source, template_id).parse())


def render_template_oracle(library, template: Template, scope, *,
                           strict: bool) -> tuple[str, list[str]]:
    """The text and the warnings of a render with `library` as the #insert
    namespace, one call per nested body."""
    state = _RenderStateOracle(library, strict, dict(scope))
    parts: list[str] = []
    state.emit(template, template.nodes, dict(scope), parts, depth=0)
    return "".join(parts), state.warnings


def _template_truthy(value) -> bool:
    if value is _TEMPLATE_MISSING or value is None:
        return False
    return bool(value)


class _TemplateParserOracle:
    def __init__(self, source: str, template_id: str):
        self.source = source
        self.template_id = template_id
        self.pos = 0
        self.line = 1

    def fail(self, exc_type, message, line=None):
        raise exc_type(message, template_id=self.template_id,
                       line=self.line if line is None else line)

    def parse(self) -> tuple:
        nodes, terminator = self._parse_block(())
        assert terminator is None
        return nodes

    def _parse_block(self, terminators: tuple) -> tuple[tuple, str | None]:
        nodes: list = []
        buffer: list[str] = []

        def flush():
            if buffer:
                nodes.append("".join(buffer))
                buffer.clear()

        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == "\\" and self.pos + 1 < len(src) and src[self.pos + 1] in "$#":
                buffer.append(src[self.pos + 1])
                self.pos += 2
            elif ch == "$" and self._reference_follows():
                flush()
                nodes.append(self._parse_reference())
            elif ch == "#" and self.pos + 1 < len(src) and src[self.pos + 1].isalpha():
                start_line = self.line
                word = self._peek_word()
                if word not in _TEMPLATE_DIRECTIVES:  # named by all the letters after '#'
                    letters = "".join(itertools.takewhile(str.isalpha, src[self.pos + 1:]))
                    self.fail(UnknownDirectiveError, f"unknown directive #{letters}")
                if word in terminators:
                    flush()
                    self._consume_directive_name(word)
                    self._gobble_newline()
                    return tuple(nodes), word
                if word in ("end", "else"):
                    self.fail(UnclosedBlockError, f"#{word} without an open block")
                flush()
                nodes.append(self._parse_directive(word, start_line))
            else:
                if ch == "\n":
                    self.line += 1
                buffer.append(ch)
                self.pos += 1
        if terminators:
            self.fail(UnclosedBlockError,
                      f"reached end of template while looking for #{terminators[0]}")
        flush()
        return tuple(nodes), None

    def _reference_follows(self) -> bool:
        nxt = self.source[self.pos + 1: self.pos + 2]
        return nxt == "{" or (nxt != "" and (nxt.isalpha() or nxt == "_"))

    def _peek_word(self) -> str:
        match = _TEMPLATE_WORD.match(self.source, self.pos + 1)
        return match.group(0) if match else ""

    def _consume_directive_name(self, word: str):
        self.pos += 1 + len(word)

    def _parse_directive(self, word: str, line: int):
        self._consume_directive_name(word)
        if word == "foreach":
            self._expect("(")
            self._skip_spaces()
            var = self._parse_loop_var()
            self._skip_spaces()
            self._expect_word("in")
            self._skip_spaces()
            path = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            body, _ = self._parse_block(("end",))
            return ForeachNode(var, path, body, line)
        if word == "if":
            self._expect("(")
            self._skip_spaces()
            path = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            then_body, terminator = self._parse_block(("else", "end"))
            else_body: tuple = ()
            if terminator == "else":
                else_body, _ = self._parse_block(("end",))
            return IfNode(path, then_body, else_body, line)
        if word == "set":
            self._expect("(")
            self._skip_spaces()
            var = self._parse_loop_var()
            self._skip_spaces()
            self._expect("=")
            self._skip_spaces()
            value = self._parse_value()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            return SetNode(var, value, line)
        if word == "insert":
            self._expect("(")
            self._skip_spaces()
            template_id = self._parse_insert_id()
            self._skip_spaces()
            self._expect(",")
            self._skip_spaces()
            target = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            return InsertNode(template_id, target, line)
        raise AssertionError(word)

    def _parse_loop_var(self) -> str:
        if self.source[self.pos: self.pos + 1] != "$":
            self.fail(MalformedReferenceError, "expected a $variable")
        self.pos += 1
        name = self._parse_identifier()
        if self.source[self.pos: self.pos + 1] == ".":
            self.fail(MalformedReferenceError,
                      f"${name} must be a bare variable name here, not a path")
        return name

    def _parse_value(self) -> ReferencePath | str | int | float | bool:
        src = self.source
        ch = src[self.pos: self.pos + 1]
        if ch == "$":
            return self._parse_reference()
        if ch == '"':
            end = src.find('"', self.pos + 1)
            if end < 0 or "\n" in src[self.pos + 1: end]:
                self.fail(MalformedReferenceError, "unterminated string literal")
            text = src[self.pos + 1: end]
            self.pos = end + 1
            return text
        match = _TEMPLATE_NUMBER.match(src, self.pos)
        if match:
            self.pos = match.end()
            text = match.group(0)
            return float(text) if "." in text else int(text)
        for keyword, value in (("true", True), ("false", False)):
            if src.startswith(keyword, self.pos):
                self.pos += len(keyword)
                return value
        self.fail(MalformedReferenceError, "expected a reference or literal")

    def _parse_insert_id(self) -> str | ReferencePath:
        ch = self.source[self.pos: self.pos + 1]
        if ch == "$":
            return self._parse_reference()
        if ch == '"':
            return self._parse_value()
        return self._parse_identifier()

    def _parse_reference(self) -> ReferencePath:
        line = self.line
        src = self.source
        if src[self.pos: self.pos + 1] != "$":
            self.fail(MalformedReferenceError, "expected a $reference")
        start = self.pos
        self.pos += 1
        braced = src[self.pos: self.pos + 1] == "{"
        if braced:
            self.pos += 1
        root = self._parse_identifier()
        steps: list[str] = []
        while src[self.pos: self.pos + 1] == ".":
            follower = src[self.pos + 1: self.pos + 2]
            if not (follower.isalpha() or follower == "_"):
                break
            self.pos += 1
            step = self._parse_identifier()
            if src.startswith("()", self.pos):
                step += "()"
                self.pos += 2
            normalized = normalize_accessor(step)
            if normalized.startswith("_"):
                self.fail(MalformedReferenceError,
                          f"accessor {step!r} is not addressable", line)
            steps.append(normalized)
        if braced:
            if src[self.pos: self.pos + 1] != "}":
                self.fail(MalformedReferenceError,
                          "missing '}' after braced reference", line)
            self.pos += 1
        if root.startswith("_"):
            self.fail(MalformedReferenceError,
                      f"reference root {root!r} is not addressable", line)
        return ReferencePath(src[start: self.pos], root, tuple(steps), line)

    def _parse_identifier(self) -> str:
        match = _TEMPLATE_IDENT.match(self.source, self.pos)
        if not match:
            self.fail(MalformedReferenceError,
                      f"expected an identifier at {self.source[self.pos: self.pos + 10]!r}")
        self.pos = match.end()
        return match.group(0)

    def _skip_spaces(self):
        while self.source[self.pos: self.pos + 1] in (" ", "\t"):
            self.pos += 1

    def _expect(self, char: str):
        if self.source[self.pos: self.pos + 1] != char:
            found = self.source[self.pos: self.pos + 1] or "end of template"
            self.fail(MalformedReferenceError, f"expected {char!r}, found {found!r}")
        self.pos += 1

    def _expect_word(self, word: str):
        if not self.source.startswith(word, self.pos):
            self.fail(MalformedReferenceError, f"expected {word!r}")
        self.pos += len(word)

    def _gobble_newline(self):
        if self.source.startswith("\r\n", self.pos):
            self.pos += 2
            self.line += 1
        elif self.source.startswith("\n", self.pos):
            self.pos += 1
            self.line += 1


class _RenderStateOracle:
    def __init__(self, library, strict: bool, top_scope: dict):
        self.library = library
        self.strict = strict
        self.top_scope = top_scope
        self.warnings: list[str] = []
        self.inserted_for = ""  # the warnings' note of the innermost #insert target

    def emit(self, template: Template, nodes: Iterable, scope: dict,
             parts: list[str], depth: int):
        for node in nodes:
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, ReferencePath):
                value = self.resolve(template, node, scope)
                if value is not _TEMPLATE_MISSING:
                    parts.append(_to_text(value))
            elif isinstance(node, ForeachNode):
                self._emit_foreach(template, node, scope, parts, depth)
            elif isinstance(node, IfNode):
                value = self._resolve_quietly(node.path, scope)
                branch = node.then_body if _template_truthy(value) else node.else_body
                self.emit(template, branch, scope, parts, depth)
            elif isinstance(node, SetNode):
                value = (self.resolve(template, node.value, scope)
                         if isinstance(node.value, ReferencePath) else node.value)
                if value is not _TEMPLATE_MISSING:
                    scope[node.var] = value
            elif isinstance(node, InsertNode):
                self._emit_insert(template, node, scope, parts, depth)
            else:
                raise AssertionError(node)

    def _emit_foreach(self, template, node: ForeachNode, scope, parts, depth):
        value = self.resolve(template, node.path, scope)
        if value is _TEMPLATE_MISSING:
            return
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise NonIterableInForeachError(
                f"{node.path.raw} is not iterable",
                template_id=template.id, line=node.line)
        for item in value:
            child = dict(scope)
            child[node.var] = item
            self.emit(template, node.body, child, parts, depth)

    def _emit_insert(self, template, node: InsertNode, scope, parts, depth):
        if depth >= _TEMPLATE_MAX_INSERT_DEPTH:
            raise TemplateError("#insert nesting exceeds the depth limit"
                                " (template cycle?)",
                                template_id=template.id, line=node.line)
        if isinstance(node.template_id, ReferencePath):
            resolved = self.resolve(template, node.template_id, scope)
            if resolved is _TEMPLATE_MISSING:
                return
            template_id = _to_text(resolved)
        else:
            template_id = node.template_id
        try:
            inserted = self.library[template_id]
        except KeyError:
            if self.strict:
                raise UnknownTemplateIdError(
                    f"#insert names unknown template {template_id!r}",
                    template_id=template.id, line=node.line) from None
            self.warnings.append(
                f"{template.id}:{node.line}{self.inserted_for}: skipped #insert of unknown"
                f" template {template_id!r}")
            return
        target = self.resolve(template, node.target, scope)
        if target is _TEMPLATE_MISSING:
            return
        root = getattr(target, "_root", None)
        if not isinstance(root, str):
            raise TemplateError(
                f"#insert target {node.target.raw} does not publish a root name",
                template_id=template.id, line=node.line)
        child = dict(self.top_scope)
        child[root] = target
        outer = self.inserted_for
        self.inserted_for = (f" (inserted for {root} {target.name!r})"
                             if hasattr(target, "name") else "")
        self.emit(inserted, inserted.nodes, child, parts, depth + 1)
        self.inserted_for = outer

    def resolve(self, template: Template, path: ReferencePath, scope: dict):
        value, failure = _walk(path, scope)
        if failure is None:
            return value
        if self.strict:
            raise UnresolvedReferenceError(
                f"cannot resolve {path.raw}: {failure}",
                template_id=template.id, line=path.line)
        self.warnings.append(
            f"{template.id}:{path.line}{self.inserted_for}: unresolved reference {path.raw}"
            f" ({failure})")
        return _TEMPLATE_MISSING

    def _resolve_quietly(self, path: ReferencePath, scope: dict):
        value, failure = _walk(path, scope)
        return _TEMPLATE_MISSING if failure is not None else value
