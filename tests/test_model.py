"""Graph queries on the core program model."""

import dataclasses
import inspect
import pickle
import random
from collections import Counter

import pytest

from seqc import model
from seqc.errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    NonPositiveDurationError,
    SameActionError,
    UnknownActionError,
    UnresolvedReferenceError,
)
from seqc.model import (
    ActionInstance,
    ArgBinding,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.simulator import DurationMap, simulate
from seqc.validator import Code, validate
from support import (
    ancestors_oracle,
    critical_path_oracle,
    cycle_oracle,
    five_stage,
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
    return {other for other in graph.preds if graph.precedes(other, name)}


def test_five_stage_successors():
    _, program = five_stage()
    assert program.graph.succs["A"] == {"D", "E"}
    assert program.graph.succs["B"] == {"D"}
    assert program.graph.succs["E"] == set()


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
    with pytest.raises(UnknownActionError):
        program.action("Z")
    assert "Z" not in program.graph.succs and "Z" not in program.graph.preds


def test_precedes_raises_a_cycle_then_the_first_unknown_name():
    _, program = five_stage()
    assert program.graph.precedes("A", "E") and not program.graph.precedes("E", "A")
    for first, second, missing in (("Z", "A", "Z"), ("A", "Z", "Z"), ("Z", "Y", "Z")):
        with pytest.raises(UnknownActionError) as exc_info:
            program.graph.precedes(first, second)
        assert str(exc_info.value) == f"program 'FiveStage' has no action named {missing!r}"
    dsl = make_dsl({"Station": ["Step"]})
    looped = make_program(dsl, [("a", "Step", "r1"), ("b", "Step", "r1")],
                          edges=[("a", "b"), ("b", "a")])
    with pytest.raises(CyclicGraphError):
        looped.graph.precedes("ghost", "a")


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
    # a and b form a cycle on r1; c runs on r2.  Equal names fail first,
    # then unknown names (a before b), then same-resource pairs answer
    # False, and only then does the cycle raise.
    dsl = make_dsl({"Station": ["Step"]})
    looped = make_program(dsl, [("a", "Step", "r1"), ("b", "Step", "r1"), ("c", "Step", "r2")],
                          edges=[("a", "b"), ("b", "a")])
    for same in ("ghost", "a"):
        with pytest.raises(SameActionError):
            model.potentially_parallel(looped, same, same)
    for a, b, missing in (("ghost", "phantom", "ghost"), ("phantom", "ghost", "phantom"),
                          ("a", "ghost", "ghost"), ("ghost", "c", "ghost")):
        with pytest.raises(UnknownActionError) as exc_info:
            model.potentially_parallel(looped, a, b)
        assert str(exc_info.value) == f"program 'Prog' has no action named {missing!r}"
    assert model.potentially_parallel(looped, "a", "b") is False
    assert model.potentially_parallel(looped, "b", "a") is False
    for a, b in (("a", "c"), ("c", "b")):
        with pytest.raises(CyclicGraphError) as exc_info:
            model.potentially_parallel(looped, a, b)
        assert exc_info.value.cycle == ("a", "b")


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
            assert outcome(lambda: program.graph.succs[name]) == (defect or {
                a.name for a in program.actions if name in a.predecessors})
            assert outcome(reaching, program, name) == (
                unordered or ancestors_oracle(program, name))
        for a in names:
            for b in names:
                if a == b:
                    continue
                if declared[a].resource == declared[b].resource:
                    expected = defect or False
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
    # oracle; on an unsound graph every part of the index raises what
    # `order` raises.
    kinds = Counter()
    for program in concurrency_corpus():
        ordered = outcome(lambda: program.graph.order)
        if not isinstance(ordered, list):
            kinds[ordered[0]] += 1
            kinds["self_loop"] += any(a.name in a.predecessors for a in program.actions)
            for index in ("ancestor_bits", "descendant_bits", "concurrent"):
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


def test_duplicate_names_raise_from_every_graph_query():
    for query, *args in every_graph_query(SPLIT_DUPLICATE, "a", "c"):
        with pytest.raises(DuplicateIdentifierError, match="^action 'a' declared twice$"):
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
        with pytest.raises(DuplicateIdentifierError, match="^action 'm' declared twice$"):
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


def _reference(cls, post_init):
    """`cls` as a dataclass-generated frozen class that normalises in
    __post_init__: the model's constructors must behave exactly so."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default))
             if f.default is not dataclasses.MISSING else (f.name, f.type)
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      namespace={"__post_init__": post_init})


REFERENCES = {
    ArgBinding: _reference(ArgBinding, _reference_arg_post_init),
    ActionInstance: _reference(ActionInstance, _reference_action_post_init),
    VariableDecl: _reference(VariableDecl, _reference_variable_post_init),
}


def _fields_of(value):
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def _built_alike(seen: Counter, cls, *args, **kwargs):
    """Build with `cls` and with its reference: both raise the same error,
    or both build the same fields, repr and hash.  Returns the model's
    value, or None; counts what happened in `seen`."""
    try:
        want = REFERENCES[cls](*args, **kwargs)
    except (TypeError, ValueError) as exc:
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
    return [(p.name, p.default, p.kind) for p in inspect.signature(cls).parameters.values()]


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
    for cls, reference in REFERENCES.items():
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
    assert min(seen[kind] for kind in (*REFERENCES, TypeError, ValueError,
                                       "self-loop")) >= 100, seen
