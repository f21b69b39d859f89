"""Expected answers computed without seqc.

The benchmark checks every command's output against these functions.
They work on the plain structures of synth.py, either generated or read
from XML with ElementTree, and follow the README's definitions:

* two actions are potentially parallel when neither is an ancestor of
  the other and they run on different resources;
* the simulator starts ready actions greedily in name order at each
  instant, after the actions finishing there have released their
  resources.
"""

import re
import xml.etree.ElementTree as ET

from synth import Action, ActionType, Dsl, Graph

ERROR, WARNING = "error", "warning"


def read_dsl(text: str) -> Dsl:
    root = ET.fromstring(text)
    components, action_types, mutex = [], {}, set()
    for comp in root.iter("ResourceComponent"):
        owner = comp.get("type")
        components.append(owner)
        for elem in comp.iter("Action"):
            name = elem.get("actionIdentifier")
            returns = elem.get("returnType")
            params = [(p.get("name"), p.get("type")) for p in elem.iter("Parameter")]
            action_types[name] = ActionType(name, owner, params,
                                            None if returns in (None, "Void") else returns)
            mutex.update(frozenset((name, m.get("type")))
                         for m in elem.iter("NotAllowedSimultaneousAction"))
    return Dsl(root.get("name"), components, action_types, mutex)


def read_program(text: str) -> Graph:
    root = ET.fromstring(text)
    resources = {r.get("name"): r.get("type") for r in root.iter("Resource")}
    variables = {
        v.get("name"): (v.get("type"), v.get("init") is not None or len(v) > 0)
        for v in root.iter("Variable")
    }
    actions = {}
    for elem in root.iter("ActionInstance"):
        args = [(a.get("param"), a.get("variable"), a.get("value")) for a in elem.iter("Arg")]
        ret = elem.find("ReturnTo")
        name = elem.get("name")
        actions[name] = Action(name, elem.get("type"), elem.get("resource"), args,
                               None if ret is None else ret.get("variable"))
    for edge in root.iter("After"):
        actions[edge.get("action")].preds.add(edge.get("predecessor"))
    return Graph(root.get("name"), root.get("robotClass"), resources, variables,
                 list(actions.values()))


def ancestor_closure(graph: Graph) -> dict[str, frozenset[str]]:
    """Every action's ancestors, built in a topological order (Kahn)."""
    actions = {a.name: a for a in graph.actions}
    pending = {name: len(a.preds) for name, a in actions.items()}
    children: dict[str, list[str]] = {name: [] for name in actions}
    for a in graph.actions:
        for p in a.preds:
            children[p].append(a.name)
    ready = [name for name, count in pending.items() if count == 0]
    closure: dict[str, frozenset[str]] = {}
    while ready:
        name = ready.pop()
        closure[name] = frozenset().union(*(closure[p] | {p} for p in actions[name].preds))
        for child in children[name]:
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    if len(closure) != len(actions):
        raise ValueError(f"{graph.name}: precedence graph has a cycle")
    return closure


def expected_findings(graph: Graph, dsl: Dsl) -> list[tuple[str, str, tuple[str, ...]]]:
    """(severity, code, subjects) of every finding, in report order.

    Covers the codes a type-correct, acyclic program with unique names
    can produce: MutexViolation, VariableRace, UninstantiatedVariable
    and UnusedVariable.
    """
    closure = ancestor_closure(graph)
    actions = sorted(graph.actions, key=lambda a: a.name)
    reads = {a.name: {v for _, v, _ in a.args if v is not None} for a in actions}
    writes = {a.name: {a.returns} - {None} for a in actions}
    found = set()
    for i, a in enumerate(actions):
        for b in actions[i + 1:]:
            if (a.resource == b.resource or a.name in closure[b.name]
                    or b.name in closure[a.name]):
                continue
            if dsl.is_mutex(a.type, b.type):
                found.add((ERROR, "MutexViolation", (a.name, b.name)))
            shared = ((writes[a.name] | reads[a.name]) & writes[b.name]) | (
                writes[a.name] & reads[b.name])
            found.update((WARNING, "VariableRace", (a.name, b.name, v)) for v in shared)
    writers: dict[str, set[str]] = {}
    for a in actions:
        for v in writes[a.name]:
            writers.setdefault(v, set()).add(a.name)
    for a in actions:
        for v in reads[a.name]:
            if v not in graph.variables or graph.variables[v][1]:
                continue
            # Every other writer must wait for the reader, or none exists.
            if all(a.name in closure[w] for w in writers.get(v, set()) - {a.name}):
                found.add((WARNING, "UninstantiatedVariable", (a.name, v)))
    used = set().union(*reads.values(), *writes.values())
    found.update((WARNING, "UnusedVariable", (v,)) for v in graph.variables if v not in used)
    return sorted(found, key=lambda f: (f[1], f[2]))


def greedy_schedule(graph: Graph, durations: dict) -> dict[str, tuple[int, int]]:
    """Start and finish tick of every action under the greedy rule."""
    per_action = durations.get("actions", {})
    default = durations.get("default", 1)
    actions = sorted(graph.actions, key=lambda a: a.name)
    schedule: dict[str, tuple[int, int]] = {}
    finished: set[str] = set()
    busy: dict[str, int] = {}  # resource -> finish tick of its action
    now = 0
    while len(finished) < len(actions):
        finished.update(name for name, (_, end) in schedule.items() if end <= now)
        busy = {res: end for res, end in busy.items() if end > now}
        for a in actions:
            if a.name in schedule or a.resource in busy or not a.preds <= finished:
                continue
            end = now + per_action.get(a.name, default)
            schedule[a.name] = (now, end)
            busy[a.resource] = end
        if len(finished) < len(actions):
            now = min(end for _, end in schedule.values() if end > now)
    return schedule


def expected_trace(graph: Graph, durations: dict) -> dict:
    """The `simulate --json` payload the greedy rule implies."""
    schedule = greedy_schedule(graph, durations)
    resource = {a.name: a.resource for a in graph.actions}
    events = []
    for name, (start, end) in schedule.items():
        events.append((start, 1, name, "start"))
        events.append((end, 0, name, "finish"))
    events.sort()
    return {
        "makespan": max((end for _, end in schedule.values()), default=0),
        "events": [{"t": t, "kind": kind, "action": name, "resource": resource[name]}
                   for t, _, name, kind in events],
    }


def expected_graph(graph: Graph) -> dict:
    """The `graph --json` payload: nodes by name, edges sorted."""
    return {
        "name": graph.name,
        "nodes": [{"name": a.name, "type": a.type, "resource": a.resource}
                  for a in sorted(graph.actions, key=lambda a: a.name)],
        "edges": [{"from": p, "to": s} for p, s in graph.edges()],
    }


_DOT_NODE = re.compile(r'  "([^"\\]*)" \[label="([^"\\]*): ([^"\\]*) @([^"\\]*)"\];')
_DOT_EDGE = re.compile(r'  "([^"\\]*)" -> "([^"\\]*)";')


def parse_dot(text: str):
    """(nodes, edges) of a DOT export as (name, type, resource) and (from, to), or None."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("digraph ") or lines[-1] != "}":
        return None
    nodes, edges = [], []
    for line in lines[1:-1]:
        if (match := _DOT_NODE.fullmatch(line)) and match[1] == match[2]:
            nodes.append(match.groups()[1:])
        elif match := _DOT_EDGE.fullmatch(line):
            edges.append(match.groups())
        else:
            return None
    return nodes, edges


def dot_items(graph: Graph):
    """What parse_dot must return for an export of `graph`."""
    return ([(a.name, a.type, a.resource) for a in sorted(graph.actions, key=lambda a: a.name)],
            graph.edges())
