"""The indent-2 JSON writer against json.dumps(value, indent=2)."""

import json
import random
import sys

import pytest

from seqc import jsonout
from seqc.dsl import load_dsl
from seqc.errors import SeqcError
from seqc.model import ActionInstance, DurationMap, Program, ResourceInstance
from seqc.program_io import graph_json, graph_payload, load_program, parse_program, save_program
from seqc.simulator import simulate, trace_to_json
from seqc.validator import validate
from support import fixture_text, make_dsl, make_program, random_flow_setup, random_literal_setup

ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
            'é', 'ß', '€', '中', ' ', '\U0001f916', '\ud800']


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _payload(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rng.choice([
            _text(rng), rng.randint(-10 ** 20, 10 ** 20), rng.randint(-2, 2),
            True, False, None,
        ])
    items = [_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.6:
        return items
    if roll < 0.7:
        return tuple(items)
    if roll < 0.85:  # keys may repeat; rows are mostly as long as the keys
        keys = [_text(rng) for _ in range(rng.randint(0, 3))]
        width = len(keys) if rng.random() < 0.9 else rng.randint(0, 4)
        return jsonout.Table(keys, [tuple(_payload(rng, depth + 1) for _ in range(width))
                                    for _ in range(rng.randint(0, 3))])
    return {_text(rng): item for item in items}


def _plain(value):
    """`value` with each Table replaced by the list of dicts it stands for."""
    if isinstance(value, jsonout.Table):
        return [{key: _plain(item) for key, item in zip(value.keys, row)} for row in value.rows]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def test_matches_json_dumps_on_random_payloads():
    rng = random.Random(11)
    for _ in range(400):
        value = _payload(rng)
        assert jsonout.dumps(value) == json.dumps(_plain(value), indent=2)


class _Shouty(int):
    """An int whose own text differs from the number's."""

    def __repr__(self):
        return "LOUD"

    __str__ = __repr__

    def __format__(self, spec):
        return "LOUD"


@pytest.mark.parametrize("value", [
    [], {}, (), "", 0, True, False, None, [[]], {"": {}}, [True, 1, False, 0],
    {"a": (1, [2, {"b": None}])}, "é\"\\\n", 2 ** 100,
    {"t": 3, "on": True, "off": False, "odd": _Shouty(5)}, [_Shouty(6), 7],
    jsonout.Table(("a",), []), jsonout.Table((), [(), ()]), jsonout.Table(("a", "a"), [(1, 2)]),
    jsonout.Table(("%s", "%%", "b"), [("x", 1, None), ("%s", -2, True)]),
    jsonout.Table(("%%", "b%"), [("x", 1), ("%d", -2)]),
    jsonout.Table(("t",), [(True,), (1,)]), jsonout.Table(("t",), [(1,), (False,), (_Shouty(3),)]),
    jsonout.Table(("s",), [("a",), (5,)]), jsonout.Table(("s",), [(["x", "y"],), ([],), (("z",),)]),
    jsonout.Table(("x", "y"), [(1,), (2,)]), jsonout.Table(("x",), [(1, 2)]),
    {"deep": [jsonout.Table(["a", "é\n"], [({"b": jsonout.Table(("c",), [("d",)])}, [])])]},
])
def test_matches_json_dumps_on_edge_cases(value):
    assert jsonout.dumps(value) == json.dumps(_plain(value), indent=2)


@pytest.mark.parametrize("wrap", [
    lambda big: big, lambda big: {"t": [big]},
    lambda big: {"events": jsonout.Table(("t", "kind"), [(1, "start"), (big, "finish")])},
])
def test_int_past_the_digit_limit_is_a_seqc_error(wrap):
    with pytest.raises(SeqcError, match="^cannot write JSON: "):
        jsonout.dumps(wrap(10 ** sys.get_int_max_str_digits()))


@pytest.mark.parametrize("value", [
    1.5, [0.1, float("inf")], {"x": {1: "int key"}}, {None: 1, True: 2}, {"s": {1, 2}},
    ["a", b"bytes"], jsonout.Table(("f", "s"), [(1.5, "a")]), jsonout.Table((1, "s"), [(2, "b")]),
    [jsonout.Table(("b",), [(b"bytes",)])],
])
def test_other_types_fall_back_to_json_dumps(value):
    try:
        expected = json.dumps(_plain(value), indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            jsonout.dumps(value)
    else:
        assert jsonout.dumps(value) == expected


def test_circular_value_raises_like_json_dumps():
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        jsonout.dumps(loop)


def _trace_payload(trace) -> dict:
    """The trace document as `trace_to_json` built it before it wrote rows."""
    return {"makespan": trace.makespan,
            "events": [{"t": e.time, "kind": e.kind.value, "action": e.action,
                        "resource": e.resource} for e in trace.events]}


def _escaped(rng: random.Random, program: Program) -> Program:
    """`program` with its name and each action, type, resource and
    predecessor name replaced consistently by text JSON must escape."""
    names: dict[str, str] = {}

    def new(name: str) -> str:
        return names.setdefault(name, f"{_text(rng)}{len(names)}")

    resources = tuple(ResourceInstance(new(r.name), r.component_type) for r in program.resources)
    actions = tuple(ActionInstance(new(a.name), new(a.action_type), new(a.resource),
                                   predecessors=tuple(map(new, a.predecessors)))
                    for a in program.actions)
    return Program(new(program.name), program.robot_class, resources, (), actions)


def test_matches_json_dumps_on_report_trace_and_graph_payloads():
    rng = random.Random(3)
    two = make_dsl({"Arm": ["Move"]})
    programs = [Program("Empty", "Bot"),  # no nodes
                make_program(two, [("a", "Move", "r1"), ("b", "Move", "r2")])]  # no edges
    traced = 0
    for i in range(200):
        dsl, program = (random_literal_setup if i % 4 == 3 else random_flow_setup)(rng, max_actions=8)
        report = validate(program, dsl)
        assert jsonout.dumps(report.to_dict()) == json.dumps(report.to_dict(), indent=2)
        # Through parse_program, dangling predecessors and duplicate names included.
        programs += [program, _escaped(rng, program), parse_program(save_program(program))]
        durations = DurationMap({a.name: rng.choice((1, 3, 10 ** 30)) for a in program.actions})
        try:
            trace = simulate(program, dsl, durations, force=True)
        except SeqcError:  # a cycle, a dangling predecessor or a repeated name
            continue
        assert trace_to_json(trace) == json.dumps(_trace_payload(trace), indent=2) + "\n"
        traced += 1
    dangling = [pred for program in programs for action in program.actions
                for pred in action.predecessors if pred not in program.action_names()]
    assert traced > 100 and dangling
    for program in programs:
        assert graph_json(program) == json.dumps(graph_payload(program), indent=2) + "\n"
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    trace = simulate(load_program(fixture_text("demo/five_stage.xml"), dsl), dsl)
    assert trace_to_json(trace) == json.dumps(_trace_payload(trace), indent=2) + "\n"
