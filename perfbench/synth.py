"""Seeded synthetic robot classes, programs and durations (stdlib only).

Everything here is independent of seqc: the benchmark describes its
inputs with these plain structures, writes them out as seqc XML, and
derives the expected answers from the same structures in oracle.py.
The same seed always yields byte-identical documents.
"""

import json
import random
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

PRIMITIVES = ("Int", "Float", "Bool", "String")
COMPOSITE = "Pose"
COMPOSITE_FIELDS = (("x", "Float"), ("y", "Float"), ("heading", "Int"))
VALUE_TYPES = PRIMITIVES + (COMPOSITE,)

# Shape of every generated robot class and program.
COMPONENTS = 6
TYPES_PER_COMPONENT = 4
PARAMS_PER_TYPE = 2
RETURNING_SHARE = 0.6  # of action types
MUTEX_DENSITY = 0.3  # of unordered pairs of distinct action types
INSTANCES = 2  # resources per component
WINDOW, FAN_IN = 8, 2  # each action's predecessors come from the WINDOW before it
VARIABLE_SHARE = 0.2  # variables per action
INIT_SHARE = 0.3  # of variables
DURATIONS = (1, 20)  # ticks


@dataclass
class ActionType:
    name: str
    owner: str
    params: list[tuple[str, str]]  # (parameter name, type name)
    returns: str | None


@dataclass
class Dsl:
    name: str
    components: list[str]
    action_types: dict[str, ActionType]
    mutex: set[frozenset]  # unordered pairs of action type names

    def is_mutex(self, type_a: str, type_b: str) -> bool:
        return frozenset((type_a, type_b)) in self.mutex


@dataclass
class Action:
    name: str
    type: str
    resource: str
    args: list[tuple[str, str | None, object]]  # (param, variable or None, literal)
    returns: str | None = None
    preds: set[str] = field(default_factory=set)


@dataclass
class Graph:
    name: str
    robot_class: str
    resources: dict[str, str]  # resource name -> component type
    variables: dict[str, tuple[str, bool]]  # name -> (type name, has initializer)
    actions: list[Action]  # topological: every predecessor comes earlier

    def edges(self) -> list[tuple[str, str]]:
        return sorted((p, a.name) for a in self.actions for p in a.preds)


def balanced(rng: random.Random, items, count: int) -> list:
    """`count` draws in which every item occurs equally often (within one), shuffled.

    The generator draws every shape property this way, so that seeds
    change which action, type or variable gets what, but not how much
    work a program of a given size is.
    """
    items = list(items)
    rounds, extra = divmod(count, len(items))
    drawn = items * rounds + rng.sample(items, extra)
    rng.shuffle(drawn)
    return drawn


def make_dsl(rng: random.Random) -> Dsl:
    """A robot class with typed actions and a random mutex relation."""
    comps = [f"Unit{c}" for c in range(COMPONENTS)]
    count = COMPONENTS * TYPES_PER_COMPONENT
    param_types = iter(balanced(rng, VALUE_TYPES, count * PARAMS_PER_TYPE))
    return_types = balanced(rng, VALUE_TYPES, round(RETURNING_SHARE * count))
    return_types = iter(balanced(rng, return_types + [None] * (count - len(return_types)), count))
    action_types = {}
    for c, comp in enumerate(comps):
        for k in range(TYPES_PER_COMPONENT):
            name = f"Op{c}{chr(ord('A') + k)}"
            action_types[name] = ActionType(
                name, comp, [(f"p{j}", next(param_types)) for j in range(PARAMS_PER_TYPE)],
                next(return_types))
    names = list(action_types)
    pairs = [frozenset((a, b)) for i, a in enumerate(names) for b in names[i + 1:]]
    mutex = set(rng.sample(pairs, round(MUTEX_DENSITY * len(pairs))))
    return Dsl("Synth", comps, action_types, mutex)


def _literal(rng: random.Random, type_name: str):
    if type_name == "Int":
        return rng.randint(-500, 500)
    if type_name == "Float":
        return rng.randint(-9999, 9999) / 100
    if type_name == "Bool":
        return rng.random() < 0.5
    if type_name == "String":
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 8)))
    return {f: _literal(rng, t) for f, t in COMPOSITE_FIELDS}


def make_program(rng: random.Random, dsl: Dsl, n: int, name: str = "Synth") -> Graph:
    """A random action graph of n actions.

    Each action takes FAN_IN predecessors among the WINDOW actions
    before it, so index order is a topological order.  About n/5 global
    variables are shared by argument and return bindings, all of them
    type-correct, so only flow and parallelism findings can arise.
    """
    resources = {f"r{c}_{j}": comp for c, comp in enumerate(dsl.components)
                 for j in range(INSTANCES)}
    by_component: dict[str, list[str]] = {}
    for res, comp in resources.items():
        by_component.setdefault(comp, []).append(res)
    count = max(1, round(VARIABLE_SHARE * n))
    with_init = round(INIT_SHARE * count)
    inits = balanced(rng, [True] * with_init + [False] * (count - with_init), count)
    variables: dict[str, tuple[str, bool]] = {}
    by_type: dict[str, list[str]] = {}
    for v, (vtype, has_init) in enumerate(zip(balanced(rng, VALUE_TYPES, count), inits)):
        vname = f"v{v:03d}"
        variables[vname] = (vtype, has_init)
        by_type.setdefault(vtype, []).append(vname)
    mix = balanced(rng, sorted(dsl.action_types), n)
    width = len(str(n - 1))
    placed = {comp: 0 for comp in dsl.components}
    actions = []
    for i in range(n):
        atype = dsl.action_types[mix[i]]
        args = []
        for param, ptype in atype.params:
            if by_type.get(ptype) and rng.random() < 0.6:
                args.append((param, rng.choice(by_type[ptype]), None))
            else:
                args.append((param, None, _literal(rng, ptype)))
        returns = None
        if atype.returns and by_type.get(atype.returns) and rng.random() < 0.7:
            returns = rng.choice(by_type[atype.returns])
        window_names = [a.name for a in actions[max(0, i - WINDOW):]]
        preds = set(rng.sample(window_names, min(FAN_IN, len(window_names))))
        # Round-robin over the component's instances keeps the share of
        # same-resource pairs, which need no reachability query, steady.
        instances_of = by_component[atype.owner]
        resource = instances_of[placed[atype.owner] % len(instances_of)]
        placed[atype.owner] += 1
        actions.append(Action(f"a{i:0{width}d}", atype.name, resource, args, returns, preds))
    return Graph(name, dsl.name, resources, variables, actions)


def order_mutex_pairs(graph: Graph, dsl: Dsl) -> None:
    """Add a precedence edge for every mutex pair that could overlap.

    Walks actions in index order keeping each action's ancestor set
    (the benchmark's own reachability closure), so after this pass no
    mutex pair on distinct resources is unordered.
    """
    ancestors: dict[str, set[str]] = {}
    for j, action in enumerate(graph.actions):
        anc = set()
        for p in action.preds:
            anc |= ancestors[p] | {p}
        for earlier in graph.actions[:j]:
            if (earlier.name not in anc and earlier.resource != action.resource
                    and dsl.is_mutex(earlier.type, action.type)):
                action.preds.add(earlier.name)
                anc |= ancestors[earlier.name] | {earlier.name}
        ancestors[action.name] = anc


def make_durations(rng: random.Random, graph: Graph) -> dict:
    return {"default": 1, "actions": {a.name: rng.randint(*DURATIONS) for a in graph.actions}}


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _fields(value: dict, indent: str) -> list[str]:
    return [f"{indent}<Field name={quoteattr(k)} value={quoteattr(_scalar(v))}/>"
            for k, v in value.items()]


def dsl_xml(dsl: Dsl) -> str:
    lines = [f"<RobotClassDSL name={quoteattr(dsl.name)}>", "  <VariableTypes>",
             f"    <VariableType name={quoteattr(COMPOSITE)}>"]
    lines += [f"      <Field name={quoteattr(f)} type={quoteattr(t)}/>" for f, t in COMPOSITE_FIELDS]
    lines += ["    </VariableType>", "  </VariableTypes>"]
    names = list(dsl.action_types)
    for comp in dsl.components:
        lines.append(f"  <ResourceComponent type={quoteattr(comp)}>")
        for atype in (t for t in dsl.action_types.values() if t.owner == comp):
            ret = f" returnType={quoteattr(atype.returns)}" if atype.returns else ""
            lines.append(f"    <Action actionIdentifier={quoteattr(atype.name)}{ret}>")
            lines.append("      <ParameterList>")
            lines += [f"        <Parameter name={quoteattr(p)} type={quoteattr(t)}/>"
                      for p, t in atype.params]
            lines.append("      </ParameterList>")
            # Declare each pair once, on its earlier type; the loader symmetrizes.
            partners = [b for b in names[names.index(atype.name) + 1:]
                        if dsl.is_mutex(atype.name, b)]
            if partners:
                lines.append("      <NotAllowedSimultaneousActionTypes>")
                lines += [f"        <NotAllowedSimultaneousAction type={quoteattr(b)}/>"
                          for b in partners]
                lines.append("      </NotAllowedSimultaneousActionTypes>")
            lines.append("    </Action>")
        lines.append("  </ResourceComponent>")
    lines.append("</RobotClassDSL>")
    return "\n".join(lines) + "\n"


def program_xml(graph: Graph, rng: random.Random) -> str:
    """Write a program document; initializers are drawn from `rng`."""
    lines = [f"<Program name={quoteattr(graph.name)} robotClass={quoteattr(graph.robot_class)}>",
             "  <Resources>"]
    lines += [f"    <Resource name={quoteattr(r)} type={quoteattr(c)}/>"
              for r, c in graph.resources.items()]
    lines += ["  </Resources>", "  <Variables>"]
    for vname, (vtype, has_init) in graph.variables.items():
        head = f"    <Variable name={quoteattr(vname)} type={quoteattr(vtype)}"
        if not has_init:
            lines.append(head + "/>")
        elif vtype == COMPOSITE:
            lines += [head + ">", *_fields(_literal(rng, vtype), "      "), "    </Variable>"]
        else:
            lines.append(f"{head} init={quoteattr(_scalar(_literal(rng, vtype)))}/>")
    lines += ["  </Variables>", "  <Actions>"]
    for action in graph.actions:
        lines.append(f"    <ActionInstance name={quoteattr(action.name)}"
                     f" type={quoteattr(action.type)} resource={quoteattr(action.resource)}>")
        for param, variable, literal in action.args:
            if variable is not None:
                lines.append(f"      <Arg param={quoteattr(param)} variable={quoteattr(variable)}/>")
            elif isinstance(literal, dict):
                lines += [f"      <Arg param={quoteattr(param)}>",
                          *_fields(literal, "        "), "      </Arg>"]
            else:
                lines.append(f"      <Arg param={quoteattr(param)}"
                             f" value={quoteattr(_scalar(literal))}/>")
        if action.returns is not None:
            lines.append(f"      <ReturnTo variable={quoteattr(action.returns)}/>")
        lines.append("    </ActionInstance>")
    lines += ["  </Actions>", "  <Constraints>"]
    lines += [f"    <After action={quoteattr(s)} predecessor={quoteattr(p)}/>"
              for p, s in graph.edges()]
    lines += ["  </Constraints>", "</Program>"]
    return "\n".join(lines) + "\n"


def durations_json(durations: dict) -> str:
    return json.dumps(durations, indent=2, sort_keys=True) + "\n"
