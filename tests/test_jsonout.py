"""The indent-2 JSON writer against json.dumps(value, indent=2)."""

import json
import random
import sys

import pytest

from seqc import jsonout
from seqc.dsl import load_dsl
from seqc.errors import SeqcError
from seqc.model import ActionInstance, DurationMap, Program, ResourceInstance
from seqc.program_io import graph_json, load_program, parse_program, save_program
from seqc.simulator import simulate, trace_to_json
from seqc.validator import validate
from support import (
    fixture_text,
    graph_payload_oracle,
    make_dsl,
    make_program,
    random_flow_setup,
    random_literal_setup,
    report_payload_oracle,
    trace_payload_oracle,
)

ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
            'é', 'ß', '€', '中', ' ', '\U0001f916', '\ud800']


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _int(rng: random.Random) -> int:
    return rng.randint(-10 ** 20, 10 ** 20)


def _member(rng: random.Random):
    """A str, an int, a list of str, or a table of str and int columns."""
    roll = rng.random()
    if roll < 0.25:
        return _text(rng)
    if roll < 0.5:
        return _int(rng)
    if roll < 0.7:
        return [_text(rng) for _ in range(rng.randint(0, 4))]
    keys = list(dict.fromkeys(_text(rng) for _ in range(rng.randint(1, 3))))
    columns = [rng.choice((_text, _int)) for _ in keys]
    return jsonout.Table(keys, [tuple(column(rng) for column in columns)
                                for _ in range(rng.randint(0, 3))])


def _document(rng: random.Random) -> dict:
    return {_text(rng): _member(rng) for _ in range(rng.randint(1, 4))}


def _plain(document: dict) -> dict:
    """`document` with each Table replaced by the list of dicts it stands for."""
    return {key: [dict(zip(value.keys, row)) for row in value.rows]
            if isinstance(value, jsonout.Table) else value for key, value in document.items()}


def test_matches_json_dumps_on_random_payloads():
    rng = random.Random(11)
    for _ in range(400):
        document = _document(rng)
        assert jsonout.dumps(document) == json.dumps(_plain(document), indent=2)


@pytest.mark.parametrize("value", [
    [], [""], ["\x00\x1f</b>", "\ud800", "\U0001f916中"], "", 0, -1, "é\"\\\n", 2 ** 100,
    ["%s", "%%", "%(a)s"], ["/", "\u2028\u2029", "\x7f"],
    jsonout.Table(("a",), [("",)]),
    jsonout.Table(("",), [(0,), (-1,)]),
    jsonout.Table(("n",), [(-(10 ** 30),), (2 ** 100,)]),
    jsonout.Table(("z", "a", "m"), [("x", 1, "y")]),  # keys keep their order
    jsonout.Table(("s", "i", "u"), [("", 0, "\n"), ("é", -7, ""), ("\"", 10 ** 20, "\\")]),
    jsonout.Table(("\ud800", "\U0001f916"), [("中", 3)]),
    jsonout.Table(("a",), []),
    jsonout.Table(("%(a)s", "%"), [("%(a)s", 1), ("%", 2)]),
    jsonout.Table(("t", "é\n"), [(0, "\t"), (10 ** 30, "")]),
    jsonout.Table(("%s", "%%", "b%"), [("x", 1, "%d"), ("%s", -2, "%%")]),
    jsonout.Table(("%%", "b%"), [("x", 1), ("%d", -2)]),
    [str(i) for i in range(50)],
    ["a" * 1000 + "\x00"],
    jsonout.Table(("\x00", "\x1f", "\x7f"), [("\x00", 0, "\x1f")]),
    jsonout.Table(tuple("abcdefghij"), [tuple(range(10)), tuple(range(-10, 0))]),
    jsonout.Table(("k",), [(str(i),) for i in range(30)]),
    jsonout.Table(("%", "s"), [("%", "%s"), ("%%", "s%")]),
    jsonout.Table(("x", "y"), [(2 ** 64, "é"), (-(2 ** 64), "\ud800")]),
])
def test_matches_json_dumps_on_edge_cases(value):
    """Each case as the middle member of a document, under a key JSON escapes."""
    document = {"%s": 1, "é\"\n": value, "": "end"}
    assert jsonout.dumps(document) == json.dumps(_plain(document), indent=2)


@pytest.mark.parametrize("wrap", [
    lambda big: {"makespan": big},
    lambda big: {"name": "after a member", "makespan": big},
    lambda big: {"events": jsonout.Table(("t", "kind"), [(1, "start"), (big, "finish")])},
])
def test_int_past_the_digit_limit_is_a_seqc_error(wrap):
    with pytest.raises(SeqcError, match="^cannot write JSON: "):
        jsonout.dumps(wrap(10 ** sys.get_int_max_str_digits()))


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
        assert report.to_json() == json.dumps(report_payload_oracle(report), indent=2)
        # Through parse_program, dangling predecessors and duplicate names included.
        programs += [program, _escaped(rng, program), parse_program(save_program(program))]
        durations = DurationMap({a.name: rng.choice((1, 3, 10 ** 30)) for a in program.actions})
        try:
            trace = simulate(program, dsl, durations, force=True)
        except SeqcError:  # a cycle, a dangling predecessor or a repeated name
            continue
        assert trace_to_json(trace) == json.dumps(trace_payload_oracle(trace), indent=2) + "\n"
        traced += 1
    dangling = [pred for program in programs for action in program.actions
                for pred in action.predecessors if pred not in program.action_names()]
    assert traced > 100 and dangling
    rng = random.Random(77)  # and 200 flow programs as drawn
    programs += [random_flow_setup(rng, max_actions=8)[1] for _ in range(200)]
    for program in programs:
        assert graph_json(program) == json.dumps(graph_payload_oracle(program), indent=2) + "\n"
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    trace = simulate(load_program(fixture_text("demo/five_stage.xml"), dsl), dsl)
    assert trace_to_json(trace) == json.dumps(trace_payload_oracle(trace), indent=2) + "\n"
