"""Graph queries on the core program model."""

import dataclasses
import inspect
import pickle
import random
from collections import Counter
from operator import attrgetter

import pytest

from seqc import codegen, dsl, model, simulator, templating, validator
from seqc.dsl import load_dsl
from seqc.errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    NonPositiveDurationError,
    SameActionError,
    SeqcError,
    UnknownActionError,
    UnresolvedReferenceError,
)
from seqc.program_io import load_program
from seqc.model import (
    ActionInstance,
    ArgBinding,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.simulator import DurationMap, ExecutionTrace, simulate, verify_trace
from seqc.templating import parse_template
from seqc.validator import Code, ValidationReport, validate
from support import (
    ancestors_oracle,
    critical_path_oracle,
    cycle_oracle,
    five_stage,
    fixture_generator,
    fixture_text,
    graph_defect,
    make_dsl,
    make_program,
    may_overlap,
    outcome,
    random_durations,
    random_flow_setup,
    random_setup,
    reverse_chain_cycle,
    simulate_oracle,
    topological_order_oracle,
    with_edge,
)


def reaching(program: Program, name: str) -> set[str]:
    """The actions with a path to `name`, read from the graph index."""
    graph = program.graph
    bit = 1 << graph.position[name]
    return {other for other, below in graph.descendant_bits.items() if below & bit}


def test_five_stage_successors():
    _, program = five_stage()
    assert program.graph.succs["A"] == ("D", "E")
    assert program.graph.succs["B"] == ("D",)
    assert program.graph.succs["E"] == ()


def test_five_stage_ancestors():
    _, program = five_stage()
    assert reaching(program, "E") == {"A", "B", "C", "D"}
    assert reaching(program, "D") == {"A", "B"}
    assert reaching(program, "A") == set()


def test_five_stage_topological_order():
    _, program = five_stage()
    assert model.topological_order(program) == ["A", "B", "C", "D", "E"]


def test_five_stage_critical_path():
    _, program = five_stage()
    assert model.critical_path_length(program) == 3
    assert model.critical_path_length(program, {"C": 5}) == 6


def test_unknown_action_rejected():
    _, program = five_stage()
    with pytest.raises(UnknownActionError) as exc_info:
        program.action("Z")
    assert str(exc_info.value) == "program 'FiveStage' has no action named 'Z'"
    assert "Z" not in program.graph.succs and "Z" not in program.graph.preds


def test_successors_are_name_ordered_tuples():
    # Every successor list is one tuple in name order, keyed in name order,
    # whatever order the hash seed gives a set of the same names.
    rng = random.Random(3501)
    sound = 0
    for _ in range(200):
        _, program = random_flow_setup(rng, max_actions=10)
        if graph_defect(program):
            continue
        sound += 1
        graph = program.graph
        names = program.action_names()
        assert list(graph.succs) == names
        for name in names:
            assert graph.succs[name] == tuple(
                a.name for a in program.actions if name in a.predecessors)
    assert sound > 100


def test_potentially_parallel():
    _, program = five_stage()
    assert model.potentially_parallel(program, "A", "B")
    assert model.potentially_parallel(program, "B", "C")
    assert not model.potentially_parallel(program, "A", "D")
    assert not model.potentially_parallel(program, "D", "A")
    assert not model.potentially_parallel(program, "B", "E")


def test_potentially_parallel_same_resource_is_serial():
    _, program = five_stage(shared=True)
    assert not model.potentially_parallel(program, "A", "B")


def test_potentially_parallel_same_action():
    _, program = five_stage()
    with pytest.raises(SameActionError):
        model.potentially_parallel(program, "A", "A")


def test_potentially_parallel_error_precedence():
    # Equal names fail first, then the cycle, whether the names are
    # actions or not and whether they share a resource; on a sound graph,
    # the first unknown name (a before b).
    dsl = make_dsl({"Station": ["Step"]})
    spec = [("a", "Step", "r1"), ("b", "Step", "r1"), ("c", "Step", "r2")]
    looped = make_program(dsl, spec, edges=[("a", "b"), ("b", "a")])
    for same in ("ghost", "a"):
        with pytest.raises(SameActionError):
            model.potentially_parallel(looped, same, same)
    for a, b in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"), ("ghost", "phantom"),
                 ("a", "ghost")):
        with pytest.raises(CyclicGraphError) as exc_info:
            model.potentially_parallel(looped, a, b)
        assert exc_info.value.cycle == ("a", "b")
    sound = make_program(dsl, spec, edges=[("a", "b")])
    for a, b, missing in (("ghost", "phantom", "ghost"), ("phantom", "ghost", "phantom"),
                          ("a", "ghost", "ghost"), ("ghost", "c", "ghost")):
        with pytest.raises(UnknownActionError) as exc_info:
            model.potentially_parallel(sound, a, b)
        assert str(exc_info.value) == f"program 'Prog' has no action named {missing!r}"
    assert model.potentially_parallel(sound, "b", "c") is True
    assert model.potentially_parallel(sound, "a", "b") is False


def test_topological_order_breaks_ties_lexicographically():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(
        dsl,
        [(n, "Step", "r1") for n in ("z", "m", "a")],
        edges=[("z", "a")],
    )
    # m and z are both ready at the start; m wins the tie, then z, and a
    # only becomes ready once z is placed.
    assert model.topological_order(program) == ["m", "z", "a"]


def test_topological_order_is_a_greedy_smallest_extension():
    rng = random.Random(7)
    for _ in range(100):
        _, program = random_setup(rng)
        order = model.topological_order(program)
        assert sorted(order) == program.action_names()
        preds = {a.name: set(a.predecessors) for a in program.actions}
        placed: set[str] = set()
        for chosen in order:
            ready = {
                name
                for name in program.action_names()
                if name not in placed and preds[name] <= placed
            }
            assert chosen == min(ready)
            placed.add(chosen)


def test_ancestors_match_path_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        _, program = random_setup(rng)
        for name in program.action_names():
            assert reaching(program, name) == ancestors_oracle(program, name)


def test_critical_path_matches_path_enumeration():
    # A DurationMap and a plain mapping are judged by one rule.  The extra
    # inputs draw nothing from `rng`, so the 120 programs stay the same.
    rng = random.Random(13)
    for i in range(120):
        _, program = random_setup(rng)
        durations = {
            name: rng.randint(1, 9) for name in program.action_names()
        }
        assert model.critical_path_length(program, durations) == critical_path_oracle(
            program, durations
        )
        assert model.critical_path_length(program) == critical_path_oracle(program)
        mapped = DurationMap(dict(list(durations.items())[::2]), default=2 + i % 4)
        expanded = {name: mapped.duration_of(name) for name in program.action_names()}
        assert model.critical_path_length(program, mapped) == critical_path_oracle(
            program, expanded)
        stray = {**durations, "no such action": [0, -1, True, 1.5, "2"][i % 5]}
        with pytest.raises(NonPositiveDurationError) as refused:
            DurationMap(stray)
        with pytest.raises(NonPositiveDurationError) as caught:
            model.critical_path_length(program, stray)
        assert str(caught.value) == str(refused.value)


def test_cycle_is_detected():
    _, program = five_stage()
    looped = with_edge(program, "E", "A")
    with pytest.raises(CyclicGraphError) as exc_info:
        model.topological_order(looped)
    cycle = set(exc_info.value.cycle)
    assert cycle <= {"A", "B", "C", "D", "E"}
    assert len(cycle) >= 2
    with pytest.raises(CyclicGraphError):
        reaching(looped, "B")


def test_self_loop_is_a_one_action_cycle():
    # The action builds; the graph's order raises on it, and validate reports it.
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(dsl, [("A", "Step", "r1"), ("B", "Step", "r1")],
                           edges=[("A", "A"), ("A", "B")])
    assert program.action("A").predecessors == ("A",)
    with pytest.raises(CyclicGraphError) as caught:
        program.graph.order
    assert caught.value.cycle == ("A",)
    assert str(caught.value) == "precedence graph contains a cycle: A -> A"
    assert [(f.code, f.subjects) for f in validate(program, dsl).findings] == [
        (Code.CYCLIC_GRAPH, ("A",))]


def test_two_cycle_reported_with_members():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(
        dsl,
        [("x", "Step", "r1"), ("y", "Step", "r1")],
        edges=[("x", "y"), ("y", "x")],
    )
    with pytest.raises(CyclicGraphError) as exc_info:
        model.topological_order(program)
    assert set(exc_info.value.cycle) == {"x", "y"}


def test_duplicate_constraint_edges_collapse():
    action = ActionInstance(
        "b", "Step", "r1",
        predecessors=("a", "a", "c"),
    )
    assert action.predecessors == ("a", "c")


def test_one_string_is_no_predecessor_collection():
    with pytest.raises(TypeError, match="not one string"):
        ActionInstance("b", "Step", "r1", predecessors="ac")


def test_arg_binding_requires_exactly_one_side():
    with pytest.raises(ValueError):
        ArgBinding("p")
    with pytest.raises(ValueError):
        ArgBinding("p", variable="v", value=3)
    assert ArgBinding("p", variable="v").value is None
    assert ArgBinding("p", value=3).variable is None


def test_arg_binding_normalizes_composite_literals():
    binding = ArgBinding("p", value={"z": 1, "a": {"y": 2, "x": 3}})
    assert list(binding.value) == ["a", "z"]
    assert list(binding.value["a"]) == ["x", "y"]


def test_program_sorts_collections():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(
        dsl, [("b", "Step", "r2"), ("a", "Step", "r1"), ("c", "Step", "r1")]
    )
    assert program.action_names() == ["a", "b", "c"]
    assert [r.name for r in program.resources] == ["r1", "r2"]


def test_undeclared_resource_builds_and_is_reported():
    dsl = make_dsl({"Station": ["Step"]})
    program = Program(
        "P",
        dsl.name,
        resources=(ResourceInstance("r1", "Station"),),
        actions=(ActionInstance("a", "Step", "r9"),),
    )
    assert [(f.code, f.subjects, f.message) for f in validate(program, dsl).findings] == [
        (Code.UNRESOLVED_REFERENCE, ("a", "r9"), "action 'a' runs on undeclared resource 'r9'")]


def every_graph_query(program: Program, first: str, second: str):
    """Each graph query of the model on `program`, as (query, *args)."""
    return [(model.topological_order, program), (model.critical_path_length, program),
            (program.action, first), (lambda: program.graph.succs[first],),
            (reaching, program, first), (model.potentially_parallel, program, first, second)]


def test_dangling_predecessor_raises_from_every_graph_query():
    dsl = make_dsl({"Station": ["Step"]})
    program = make_program(
        dsl, [("a", "Step", "r1"), ("b", "Step", "r1")], edges=[("ghost", "b"), ("a", "b")]
    )
    for query, *args in every_graph_query(program, "a", "b"):
        with pytest.raises(UnresolvedReferenceError,
                           match="^action 'b' names unknown predecessor 'ghost'$"):
            query(*args)


@pytest.mark.parametrize("bad", [0, -1, True, 1.5, "2"])
def test_durations_must_be_positive_integers(bad):
    _, program = five_stage()
    with pytest.raises(NonPositiveDurationError):
        model.critical_path_length(program, {"A": bad})


def test_critical_path_of_empty_program_is_zero():
    program = Program("Empty", "TestBot")
    assert model.critical_path_length(program) == 0
    assert model.topological_order(program) == []


# "a" declared after "c" and again after "b", with "b" after "a".  When the
# graph kept both declarations, topological_order gave c, a, b while
# the ancestor query raised the cycle a -> b -> a.
SPLIT_DUPLICATE = Program("Dup", "TestBot", (ResourceInstance("r1", "Station"),), (), (
    ActionInstance("a", "Step", "r1", predecessors=("c",)),
    ActionInstance("a", "Step", "r1", predecessors=("b",)),
    ActionInstance("b", "Step", "r1", predecessors=("a",)),
    ActionInstance("c", "Step", "r1"),
))


def graph_contract_corpus():
    """The split-duplicate case, then seeded programs in which duplicate
    names, dangling predecessors, cycles and clean graphs all occur."""
    yield make_dsl({"Station": ["Step"]}), SPLIT_DUPLICATE
    rng = random.Random(2024)
    for _ in range(300):
        yield random_flow_setup(rng, max_actions=8)


def test_graph_queries_match_oracles_on_random_programs():
    # Each query matches its oracle or raises the first defect: duplicate
    # names, then a dangling predecessor, then a cycle where an order is needed.
    rng = random.Random(7)
    kinds = Counter()
    for dsl, program in graph_contract_corpus():
        defect = graph_defect(program)
        cycle = None if defect else cycle_oracle(program)
        unordered = defect or cycle and (CyclicGraphError, str(CyclicGraphError(cycle)))
        kinds[defect[0] if defect else "cyclic" if cycle else "clean"] += 1
        assert outcome(model.topological_order, program) == (
            defect or outcome(topological_order_oracle, program))
        durations = random_durations(rng, program)
        assert outcome(model.critical_path_length, program, durations) == (
            unordered or critical_path_oracle(program, durations))
        timing = DurationMap(durations)
        assert outcome(simulate, program, dsl, timing, force=True) == (
            unordered or simulate_oracle(program, dsl, timing, force=True))
        names = sorted(set(program.action_names()))
        declared = {action.name: action for action in program.actions}
        for name in names:
            assert outcome(program.action, name) == (defect or declared[name])
            assert outcome(lambda: program.graph.succs[name]) == (defect or tuple(
                a.name for a in program.actions if name in a.predecessors))
            assert outcome(reaching, program, name) == (
                unordered or ancestors_oracle(program, name))
        for a in names:
            for b in names:
                if a == b:
                    continue
                if declared[a].resource == declared[b].resource:
                    expected = unordered or False
                else:
                    expected = unordered or (a not in ancestors_oracle(program, b)
                                             and b not in ancestors_oracle(program, a))
                assert outcome(model.potentially_parallel, program, a, b) == expected
    assert kinds[DuplicateIdentifierError] > 20 and kinds[UnresolvedReferenceError] > 20
    assert kinds["cyclic"] > 20 and kinds["clean"] > 100


def concurrency_corpus():
    """Seeded programs of at most 8 actions: clean ones, and the defects
    of `random_flow_setup` (repeated names, dangling predecessors, back
    edges) plus a self-loop in every eighth program."""
    rng = random.Random(3401)
    for i in range(200):
        _, program = random_flow_setup(rng, max_actions=8, max_resources=rng.randint(1, 4))
        if i % 8 == 0:
            looped = rng.choice(program.actions)
            program = dataclasses.replace(program, actions=tuple(
                dataclasses.replace(action, predecessors=(*action.predecessors, action.name))
                if action is looped else action for action in program.actions))
        yield program


def test_concurrency_index_matches_schedule_search():
    # Bit b of concurrent[a] is set exactly when some schedule overlaps a
    # and b; the descendant closure is the transpose of the ancestor
    # oracle, and the index keeps no ancestor table; on an unsound graph
    # every part of the index raises what `order` raises.
    kinds = Counter()
    for program in concurrency_corpus():
        ordered = outcome(lambda: program.graph.order)
        if not isinstance(ordered, list):
            kinds[ordered[0]] += 1
            kinds["self_loop"] += any(a.name in a.predecessors for a in program.actions)
            for index in ("descendant_bits", "concurrent"):
                assert outcome(lambda: getattr(program.graph, index)) == ordered
            continue
        kinds["clean"] += 1
        graph = program.graph
        names = list(graph.position)
        assert names == sorted(program.action_names())
        assert [graph.position[name] for name in names] == list(range(len(names)))
        ancestors = {name: ancestors_oracle(program, name) for name in names}
        for a in names:
            assert {b for b in names if graph.descendant_bits[a] >> graph.position[b] & 1} == {
                b for b in names if a in ancestors[b]}
            assert graph.concurrent[a] >> len(names) == 0
            for b in names:
                overlaps = bool(graph.concurrent[a] >> graph.position[b] & 1)
                if a <= b:  # may_overlap is symmetric, and costly when it answers False
                    assert overlaps == may_overlap(program, a, b)
                else:
                    assert overlaps == bool(graph.concurrent[b] >> graph.position[a] & 1)
    assert kinds[DuplicateIdentifierError] > 20 and kinds[UnresolvedReferenceError] > 20
    assert kinds[CyclicGraphError] > 20 and kinds["self_loop"] >= 20 and kinds["clean"] > 80
    assert not hasattr(model.ProgramGraph, "ancestor_bits")
    assert not hasattr(model.ProgramGraph, "precedes")


def test_duplicate_names_raise_from_every_graph_query():
    for query, *args in every_graph_query(SPLIT_DUPLICATE, "a", "c"):
        with pytest.raises(DuplicateIdentifierError, match="^action name 'a' is declared more than once$"):
            query(*args)
    # The smallest repeated name is named, and a repeat is reported before
    # a dangling predecessor or a cycle.
    program = Program("Dup", "TestBot", (ResourceInstance("r1", "Unit"),), (), (
        ActionInstance("a", "Step", "r1", predecessors=("ghost",)),
        ActionInstance("m", "Step", "r1", predecessors=("z",)),
        ActionInstance("m", "Step", "r1"),
        ActionInstance("z", "Step", "r1", predecessors=("z2",)),
        ActionInstance("z", "Step", "r1"),
        ActionInstance("z2", "Step", "r1", predecessors=("m",)),
    ))
    for query, *args in every_graph_query(program, "a", "m"):
        with pytest.raises(DuplicateIdentifierError, match="^action name 'm' is declared more than once$"):
            query(*args)


def test_graph_defects_raise_before_duration_errors():
    _, program = five_stage()
    with pytest.raises(CyclicGraphError):
        model.critical_path_length(with_edge(program, "E", "A"), {"A": 0})
    with pytest.raises(DuplicateIdentifierError):
        model.critical_path_length(SPLIT_DUPLICATE, {"nope": 0})


def test_graph_index_is_cached_and_ignored_by_equality():
    _, program = five_stage()
    assert program.graph is program.graph
    rebuilt = Program(program.name, program.robot_class, program.resources,
                      program.variables, program.actions)
    assert rebuilt == program and hash(rebuilt) == hash(program)
    assert "graph" not in repr(program)


def test_deep_cycle_is_reported_without_recursion():
    # The chain runs deeper than Python's default recursion limit.
    dsl, program = reverse_chain_cycle(1500)
    names = tuple(program.action_names())
    with pytest.raises(CyclicGraphError) as exc_info:
        model.topological_order(program)
    assert exc_info.value.cycle == names
    with pytest.raises(CyclicGraphError):
        reaching(program, names[0])
    report = validate(program, dsl)
    assert [f.code for f in report.findings] == [Code.CYCLIC_GRAPH]
    assert report.findings[0].subjects == names


def test_variable_lookup_returns_the_first_declaration():
    first, second = VariableDecl("v", "Int", 1), VariableDecl("v", "Int", 2)
    program = Program("P", "B", variables=(first, VariableDecl("w", "Bool"), second))
    assert program.variable("v") is first
    assert program.variable("w") == VariableDecl("w", "Bool")
    assert program.variable("nope") is None


def test_variable_index_is_ignored_by_equality():
    program = Program("P", "B", variables=(VariableDecl("v", "Int"),))
    fresh = Program("P", "B", variables=(VariableDecl("v", "Int"),))
    text = repr(program)
    assert program.variable("v") is program.variables[0]
    assert program == fresh and hash(program) == hash(fresh)
    assert repr(program) == text


def _sorted_literal(value):
    if isinstance(value, dict):
        return {name: _sorted_literal(value[name]) for name in sorted(value)}
    return value


def _reference_literal(value):
    return None if value is None or value == {} else _sorted_literal(value)


def _reference_arg_post_init(self):
    object.__setattr__(self, "value", _reference_literal(self.value))
    if (self.variable is None) == (self.value is None):
        raise ValueError(
            f"argument {self.param!r} must bind exactly one of a variable or a literal")


def _reference_action_post_init(self):
    object.__setattr__(self, "args", tuple(self.args))
    if isinstance(self.predecessors, str):
        raise TypeError(f"predecessors of {self.name!r} must be names, not one string")
    object.__setattr__(self, "predecessors", tuple(sorted(set(self.predecessors))))


def _reference_variable_post_init(self):
    object.__setattr__(self, "init", _reference_literal(self.init))


def _reference_program_post_init(self):
    for name in ("resources", "variables", "actions"):
        object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=attrgetter("name"))))


def _reference_durations_post_init(self):
    for name, value in (("default", self.default), *self.per_action.items()):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise NonPositiveDurationError(
                f"duration of {name!r} must be a positive integer tick count, got {value!r}")


def _reference_report_post_init(self):
    ordered = sorted(dict.fromkeys(self.findings), key=attrgetter("code", "subjects"))
    object.__setattr__(self, "findings", tuple(ordered))


def _reference(cls, post_init=None):
    """`cls` as a dataclass-generated frozen class that normalises in
    __post_init__: the value classes' constructors must behave exactly so."""
    def spec(f):
        if f.default is not dataclasses.MISSING:
            return f.name, f.type, dataclasses.field(default=f.default)
        if f.default_factory is not dataclasses.MISSING:
            return f.name, f.type, dataclasses.field(default_factory=f.default_factory)
        return f.name, f.type
    return dataclasses.make_dataclass(cls.__name__, [spec(f) for f in dataclasses.fields(cls)],
                                      frozen=True,
                                      namespace={"__post_init__": post_init} if post_init else {})


# Every value class of the modules that define them, in definition order.
VALUE_CLASSES = [value for module in (model, dsl, validator, simulator, templating, codegen)
                 for value in vars(module).values()
                 if isinstance(value, type) and value.__module__ == module.__name__
                 and dataclasses.is_dataclass(value)]
POST_INITS = {
    ArgBinding: _reference_arg_post_init,
    ActionInstance: _reference_action_post_init,
    VariableDecl: _reference_variable_post_init,
    Program: _reference_program_post_init,
    DurationMap: _reference_durations_post_init,
    ValidationReport: _reference_report_post_init,
}
REFERENCES = {cls: _reference(cls, POST_INITS.get(cls)) for cls in VALUE_CLASSES}
MODEL_REFERENCES = {cls: REFERENCES[cls] for cls in (ArgBinding, ActionInstance, VariableDecl)}
# What `inspect.signature` shows for a default_factory field of a dataclass.
_FACTORY = inspect.signature(dataclasses.make_dataclass(
    "F", [("x", dict, dataclasses.field(default_factory=dict))])).parameters["x"].default


def _fields_of(value):
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def _built_alike(seen: Counter, cls, *args, **kwargs):
    """Build with `cls` and with its reference: both raise the same error,
    or both build the same fields, repr and hash.  Returns the model's
    value, or None; counts what happened in `seen`."""
    try:
        want = REFERENCES[cls](*args, **kwargs)
    except (TypeError, ValueError, SeqcError) as exc:
        with pytest.raises(type(exc)) as raised:
            cls(*args, **kwargs)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        seen[type(exc)] += 1
        return None
    seen[cls] += 1
    got = cls(*args, **kwargs)
    assert _fields_of(got) == _fields_of(want)
    assert repr(got) == repr(want)
    assert _hash(got) == _hash(want)
    return got


def _parameters(cls):
    # A default_factory field defaults to a fresh value: the reference's
    # signature shows dataclasses' marker for it, the value class's None.
    return [(p.name, None if p.default is _FACTORY else p.default, p.kind)
            for p in inspect.signature(cls).parameters.values()]


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a composite literal is a dict
        return None


def _shuffled_literal(rng, value):
    if isinstance(value, dict):
        names = list(value)
        rng.shuffle(names)
        return {name: _shuffled_literal(rng, value[name]) for name in names}
    return value


def _check_value(value, cls, rng):
    """Equality, hash, replace, pickle and frozenness of one model value."""
    again = cls(*_fields_of(value))
    assert again == value and _hash(again) == _hash(value)
    assert dataclasses.replace(value) == value
    thawed = pickle.loads(pickle.dumps(value))
    assert thawed == value and _hash(thawed) == _hash(value)
    field = rng.choice(dataclasses.fields(value)).name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, field)


def test_constructors_normalise_once_as_the_generated_ones_did():
    rng = random.Random(4242)
    for cls, reference in MODEL_REFERENCES.items():
        assert _parameters(cls) == _parameters(reference)
    literals = [None, {}, 0, 1.5, True, "", "s", {"b": 1, "a": {"d": {}, "c": [1]}}, {"x": {}}]
    seen = Counter()
    for _ in range(300):
        _, program = random_flow_setup(rng, max_actions=8)
        for variable in program.variables:
            init = rng.choice([variable.init, *literals])
            built = _built_alike(seen, VariableDecl, variable.name, variable.type_name,
                                 _shuffled_literal(rng, init))
            _check_value(built, VariableDecl, rng)
        names = [action.name for action in program.actions]
        for action in program.actions:
            args = []
            for arg in action.args:
                value = rng.choice([arg.value, *literals])
                variable = rng.choice([arg.variable, arg.variable, None, "v9"])
                built = _built_alike(seen, ArgBinding, arg.param, variable=variable,
                                     value=_shuffled_literal(rng, value))
                if built is not None:
                    _check_value(built, ArgBinding, rng)
                    args.append(built)
            predecessors = rng.choice([
                action.predecessors,
                list(reversed(action.predecessors)) * 2,
                set(rng.sample(names, rng.randint(0, len(names)))),  # may hold the action itself
                action.name,  # one string
            ])
            shape = rng.choice([tuple, list])
            built = _built_alike(seen, ActionInstance, action.name, action.action_type,
                                 action.resource, shape(args), action.return_to,
                                 predecessors=predecessors)
            if built is not None:
                _check_value(built, ActionInstance, rng)
                assert dataclasses.replace(built, predecessors=["zz", "zz"]).predecessors == ("zz",)
                seen["self-loop"] += action.name in built.predecessors
            _built_alike(seen, ActionInstance, action.name, "T", "r", 5)  # args not iterable
    assert min(seen[kind] for kind in (*MODEL_REFERENCES, TypeError, ValueError,
                                       "self-loop")) >= 100, seen


# Every directive, with a reference in each argument position.
ALL_DIRECTIVES = ("#foreach($a in $Program.actions)#if($a.name)$a.name#else-#end"
                  "#set($n = $a.name)#set($k = 3)#if($k)k#end#insert($a.type, $a)#insert(Step, $a)"
                  "#end\n")


def _values_in(value, found: list) -> None:
    """Append every value-class instance reachable from `value`, once each."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, model.Value):
            if not any(item is seen for seen in found):
                found.append(item)
                pending.extend(_fields_of(item))
        elif isinstance(item, (tuple, list, frozenset)):
            pending.extend(item)
        elif isinstance(item, dict):
            pending.extend(item.values())


def _seeded_values(rng) -> list:
    """Values of every value class: random programs with their DSLs,
    reports, durations, traces and trace violations, and the fixtures'
    generators, views and outputs."""
    found: list = []
    for _ in range(25):
        program_dsl, program = random_flow_setup(rng, max_actions=6)
        report = validate(program, program_dsl)
        durations = DurationMap(random_durations(rng, program), rng.randint(1, 3))
        roots = [program_dsl, program, report, durations]
        if report.ok:
            trace = simulate(program, program_dsl, durations)
            crammed = ExecutionTrace({name: (0, 1) for name in trace.schedule}, trace.resources)
            roots += [trace, verify_trace(crammed, program, program_dsl)]
        _values_in(roots, found)
    for name, document in (("nxt", "obstacle_avoid.xml"), ("service_robot", "grasp_demo.xml")):
        fixture_dsl = load_dsl(fixture_text(name, "dsl.xml"))
        program = load_program(fixture_text(name, document), fixture_dsl)
        config = fixture_generator(name, "generator.xml")
        _values_in([fixture_dsl, config, codegen.program_view(program, fixture_dsl),
                    codegen.generate(program, fixture_dsl, config)], found)
    _values_in([parse_template(ALL_DIRECTIVES, "all"), dsl.PRIMITIVES], found)
    return found


def test_every_value_class_behaves_as_its_dataclass_reference():
    # One frozen-value base serves the meta-model, the DSL, findings,
    # traces, template nodes and generator views: each class must build,
    # compare, hash, print, replace, pickle and refuse writes as the
    # frozen dataclass it replaced.
    assert len(VALUE_CLASSES) == 28 and all(issubclass(cls, model.Value) for cls in VALUE_CLASSES)
    for cls, reference in REFERENCES.items():
        assert _parameters(cls) == _parameters(reference), cls
    rng = random.Random(3838)
    seen = Counter()
    for value in _seeded_values(rng):
        cls = type(value)
        fields = _fields_of(value)
        assert _built_alike(seen, cls, *fields) == value
        _check_value(value, cls, rng)
        if cls in (Program, ValidationReport):  # those that sort: given in any order
            _built_alike(seen, cls, *[rng.sample(field, len(field)) if isinstance(field, tuple)
                                      else field for field in fields])
    for per_action in ({}, {"a": 2}, {"a": 0}, {"a": True}, {"a": 1.5}, {"a": "2"}):
        for default in (1, 4, 0, -1, False):
            _built_alike(seen, DurationMap, per_action, default)
    assert DurationMap().per_action == {} and DurationMap().per_action is not DurationMap().per_action
    # A value inside its own field prints as `...` there, as a dataclass does.
    looped, reference = ExecutionTrace({}, {}), REFERENCES[ExecutionTrace]({}, {})
    looped.schedule["x"], reference.schedule["x"] = looped, reference
    assert repr(looped) == repr(reference) == "ExecutionTrace(schedule={'x': ...}, resources={})"
    # Equal fields in another value class make another value.
    twins = [ResourceInstance("a", "b"), dsl.ParameterDef("a", "b"), codegen.VariableView("a", "b")]
    assert [x == y for x in twins for y in twins] == [x is y for x in twins for y in twins]
    assert all(seen[cls] >= 2 for cls in VALUE_CLASSES), seen
    assert seen[NonPositiveDurationError] > 10 and seen[Program] > 40 and seen[ValidationReport] > 40
