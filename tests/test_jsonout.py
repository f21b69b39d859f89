"""The indent-2 JSON writer against json.dumps(value, indent=2)."""

import json
import random

import pytest

from seqc import jsonout
from seqc.dsl import load_dsl
from seqc.program_io import graph_payload, load_program
from seqc.simulator import simulate
from seqc.validator import validate
from support import fixture_text, random_flow_setup

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
    if roll < 0.65:
        return items
    if roll < 0.75:
        return tuple(items)
    return {_text(rng): item for item in items}


def test_matches_json_dumps_on_random_payloads():
    rng = random.Random(11)
    for _ in range(400):
        value = _payload(rng)
        assert jsonout.dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), "", 0, True, False, None, [[]], {"": {}}, [True, 1, False, 0],
    {"a": (1, [2, {"b": None}])}, "é\"\\\n", 2 ** 100,
])
def test_matches_json_dumps_on_edge_cases(value):
    assert jsonout.dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [0.1, float("inf")], {"x": {1: "int key"}}, {None: 1, True: 2}, {"s": {1, 2}},
    ["a", b"bytes"],
])
def test_other_types_fall_back_to_json_dumps(value):
    try:
        expected = json.dumps(value, indent=2)
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


def test_matches_json_dumps_on_report_trace_and_graph_payloads():
    rng = random.Random(3)
    for _ in range(100):
        dsl, program = random_flow_setup(rng, max_actions=8)
        report = validate(program, dsl)
        assert jsonout.dumps(report.to_dict()) == json.dumps(report.to_dict(), indent=2)
        payload = graph_payload(program)
        assert jsonout.dumps(payload) == json.dumps(payload, indent=2)
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    trace = simulate(load_program(fixture_text("demo/five_stage.xml"), dsl), dsl)
    events = {"makespan": trace.makespan,
              "events": [{"t": e.time, "kind": e.kind.value, "action": e.action,
                          "resource": e.resource} for e in trace.events]}
    assert jsonout.dumps(events) == json.dumps(events, indent=2)
