"""Robot-class DSL parsing, resolution checks, and the canonical writer."""

import copy
import dataclasses
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

import support
from seqc.dsl import (
    PRIMITIVES,
    ActionTypeDef,
    ParameterDef,
    ResourceComponentTypeDef,
    RobotClassDsl,
    VariableTypeDef,
    load_dsl,
    lookup_action,
    save_dsl,
)
from seqc.errors import (
    DuplicateIdentifierError,
    SeqcError,
    RecursiveCompositeTypeError,
    UnknownActionTypeError,
    UnknownTypeReferenceError,
    UnresolvedMutexReferenceError,
    XmlSyntaxError,
)
from support import composite_cycle_oracle, fixture_text


def dsl_doc(body: str, name: str = "TestBot") -> str:
    return f'<RobotClassDSL name="{name}">{body}</RobotClassDSL>'


def test_service_robot_fixture_structure():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    assert dsl.name == "ServiceRobot"
    assert [c.type_name for c in dsl.components] == [
        "Manipulator",
        "Gripper",
        "DriveBase",
    ]

    move = lookup_action(dsl, "MoveManipulator")
    assert move.owner == "Manipulator"
    assert move.return_type == "String"
    assert [(p.name, p.type_name) for p in move.parameters] == [
        ("targetPose", "Vector3"),
        ("orientation", "Vector3"),
    ]

    vector = dsl.variable_type("Vector3")
    assert vector is not None
    assert vector.fields == (("x", "Float"), ("y", "Float"), ("z", "Float"))

    assert dsl.is_mutex("MoveManipulator", "MoveTo")
    assert dsl.is_mutex("MoveTo", "MoveManipulator")
    assert not dsl.is_mutex("MoveTo", "CloseGripper")


def test_void_and_absent_return_types_are_none():
    dsl = load_dsl(
        dsl_doc(
            '<ResourceComponent type="C">'
            '<Action returnType="Void" actionIdentifier="A"/>'
            '<Action actionIdentifier="B"/>'
            "</ResourceComponent>"
        )
    )
    assert lookup_action(dsl, "A").return_type is None
    assert lookup_action(dsl, "B").return_type is None


def test_primitive_types_are_predeclared():
    dsl = load_dsl(
        dsl_doc(
            '<ResourceComponent type="C">'
            '<Action returnType="Int" actionIdentifier="A">'
            '<ParameterList><Parameter name="p" type="String"/></ParameterList>'
            "</Action></ResourceComponent>"
        )
    )
    assert dsl.variable_type("Int").fields is None
    assert dsl.variable_type("Nope") is None


def test_lookup_action_unknown():
    dsl = load_dsl(dsl_doc(""))
    with pytest.raises(UnknownActionTypeError):
        lookup_action(dsl, "Missing")


def test_duplicate_action_identifier_across_components():
    doc = dsl_doc(
        '<ResourceComponent type="C1"><Action actionIdentifier="A"/></ResourceComponent>'
        '<ResourceComponent type="C2"><Action actionIdentifier="A"/></ResourceComponent>'
    )
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


def test_duplicate_component_type():
    doc = dsl_doc(
        '<ResourceComponent type="C"><Action actionIdentifier="A"/></ResourceComponent>'
        '<ResourceComponent type="C"><Action actionIdentifier="B"/></ResourceComponent>'
    )
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


def test_duplicate_parameter_name():
    doc = dsl_doc(
        '<ResourceComponent type="C"><Action actionIdentifier="A">'
        '<ParameterList><Parameter name="p" type="Int"/><Parameter name="p" type="Int"/></ParameterList>'
        "</Action></ResourceComponent>"
    )
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


def test_variable_type_shadowing_primitive_rejected():
    doc = dsl_doc('<VariableTypes><VariableType name="Int"/></VariableTypes>')
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


def test_duplicate_variable_type():
    doc = dsl_doc(
        "<VariableTypes>"
        '<VariableType name="V"/><VariableType name="V"/>'
        "</VariableTypes>"
    )
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


def test_duplicate_field_name():
    # Loaded, the last field would win: `field_types == {"x": "String"}`.
    doc = dsl_doc('<VariableTypes><VariableType name="V">'
                  '<Field name="x" type="Int"/><Field name="x" type="String"/>'
                  "</VariableType></VariableTypes>")
    with pytest.raises(DuplicateIdentifierError,
                       match=r"^variable type 'V' declares field 'x' twice$"):
        load_dsl(doc)


def test_unknown_field_type():
    doc = dsl_doc(
        '<VariableTypes><VariableType name="V">'
        '<Field name="f" type="Mystery"/>'
        "</VariableType></VariableTypes>"
    )
    with pytest.raises(UnknownTypeReferenceError):
        load_dsl(doc)


def test_unknown_parameter_type():
    doc = dsl_doc(
        '<ResourceComponent type="C"><Action actionIdentifier="A">'
        '<ParameterList><Parameter name="p" type="Mystery"/></ParameterList>'
        "</Action></ResourceComponent>"
    )
    with pytest.raises(UnknownTypeReferenceError):
        load_dsl(doc)


def test_unknown_return_type():
    doc = dsl_doc(
        '<ResourceComponent type="C">'
        '<Action returnType="Mystery" actionIdentifier="A"/>'
        "</ResourceComponent>"
    )
    with pytest.raises(UnknownTypeReferenceError):
        load_dsl(doc)


def test_unresolved_mutex_partner():
    doc = dsl_doc(
        '<ResourceComponent type="C"><Action actionIdentifier="A">'
        "<NotAllowedSimultaneousActionTypes>"
        '<NotAllowedSimultaneousAction type="Ghost"/>'
        "</NotAllowedSimultaneousActionTypes>"
        "</Action></ResourceComponent>"
    )
    with pytest.raises(UnresolvedMutexReferenceError):
        load_dsl(doc)


def test_recursive_composite_type_direct():
    doc = dsl_doc(
        '<VariableTypes><VariableType name="V">'
        '<Field name="f" type="V"/>'
        "</VariableType></VariableTypes>"
    )
    with pytest.raises(RecursiveCompositeTypeError):
        load_dsl(doc)


def test_recursive_composite_type_indirect():
    doc = dsl_doc(
        "<VariableTypes>"
        '<VariableType name="A"><Field name="f" type="B"/></VariableType>'
        '<VariableType name="B"><Field name="g" type="A"/></VariableType>'
        "</VariableTypes>"
    )
    with pytest.raises(RecursiveCompositeTypeError):
        load_dsl(doc)


def test_deep_composite_nesting_needs_no_recursion():
    # Each type holds the next; deeper than Python's default recursion limit.
    count = 1500

    def chain(close_cycle):
        types = [
            f'<VariableType name="T{i:04d}"><Field name="f" type="T{i + 1:04d}"/></VariableType>'
            for i in range(count - 1)
        ]
        last = '<Field name="f" type="T0000"/>' if close_cycle else '<Field name="f" type="Int"/>'
        types.append(f'<VariableType name="T{count - 1:04d}">{last}</VariableType>')
        return dsl_doc("<VariableTypes>" + "".join(types) + "</VariableTypes>")

    assert len(load_dsl(chain(close_cycle=False)).variable_types) == count
    with pytest.raises(RecursiveCompositeTypeError) as exc_info:
        load_dsl(chain(close_cycle=True))
    assert str(exc_info.value).startswith("composite type contains itself: T0000 -> T0001 ->")


def test_recursive_composite_witness_matches_the_old_search():
    rng = random.Random(17)
    cyclic = 0
    for _ in range(400):
        names = [f"T{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(names)  # declaration order is not name order
        declared = [
            VariableTypeDef(name, tuple(
                (f"f{j}", rng.choice((*PRIMITIVES, *names, *names)))
                for j in range(rng.randint(0, 3))))
            for name in names
        ]
        expected = composite_cycle_oracle(declared)
        doc = save_dsl(RobotClassDsl("Types", tuple(declared), ()))
        if expected is None:
            assert load_dsl(doc).variable_types == tuple(declared)
            continue
        cyclic += 1
        with pytest.raises(RecursiveCompositeTypeError) as exc_info:
            load_dsl(doc)
        assert str(exc_info.value) == expected
    assert 100 < cyclic < 300


def test_nested_composites_without_cycles_are_fine():
    doc = dsl_doc(
        "<VariableTypes>"
        '<VariableType name="Inner"><Field name="v" type="Float"/></VariableType>'
        '<VariableType name="Outer"><Field name="a" type="Inner"/><Field name="b" type="Inner"/></VariableType>'
        "</VariableTypes>"
    )
    dsl = load_dsl(doc)
    assert dsl.variable_type("Outer").fields == (("a", "Inner"), ("b", "Inner"))


def test_mutex_symmetrization():
    # A declares B on one side only; C lists itself.
    dsl = support.make_dsl({"Unit": ["A", "B", "C"]}, mutex=[("A", "B"), ("C", "C")])
    assert dsl.is_mutex("A", "B") and dsl.is_mutex("B", "A")
    assert dsl.is_mutex("C", "C")
    assert not dsl.is_mutex("A", "A") and not dsl.is_mutex("A", "C")
    # A self-pair collapses to a singleton set.
    assert dsl.mutex_relation == {frozenset({"A", "B"}), frozenset({"C"})}


def test_random_dsls_round_trip_with_their_mutex_relation():
    # The relation is derived from each action's declarations, so what
    # save_dsl writes is the whole relation; self-exclusions are included.
    rng = random.Random(0)
    self_exclusive = 0
    for _ in range(200):
        dsl, _ = support.random_flow_setup(rng)
        loaded = load_dsl(save_dsl(dsl))
        assert loaded == dsl
        assert loaded.mutex_relation == dsl.mutex_relation
        self_exclusive += any(len(pair) == 1 for pair in dsl.mutex_relation)
    assert self_exclusive > 20


def test_is_mutex_matches_the_relation_on_random_dsls():
    # Self-exclusive types, pairs declared on one side or both, partners
    # the DSL does not declare, and queried names it lacks.
    rng = random.Random(3402)
    kinds = Counter()
    for _ in range(200):
        types = [f"T{i}" for i in range(rng.randint(1, 7))]
        components = {}
        for name in types:
            components.setdefault(f"Unit{rng.randint(1, 3)}", []).append(name)
        pairs = []
        for _ in range(rng.randint(0, 8)):
            a = rng.choice(types)
            b = rng.choice((a, "ghost", *types))
            pairs.append((a, b))
            if b in types and rng.random() < 0.3:
                pairs.append((b, a))
        dsl = support.make_dsl(components, pairs)
        twin = support.make_dsl(components, pairs)
        before = hash(dsl)
        names = [*types, "ghost", "", "T"]
        for a in names:
            for b in names:
                expected = frozenset((a, b)) in dsl.mutex_relation
                assert dsl.is_mutex(a, b) == expected
                kinds["self" if a == b else "pair"] += expected
        kinds["one_sided"] += any((b, a) not in pairs for a, b in pairs if a != b)
        assert dsl == twin and hash(dsl) == hash(twin) == before
        assert "partner" not in repr(dsl)
    assert kinds["self"] > 20 and kinds["pair"] > 100 and kinds["one_sided"] > 20


def test_one_sided_mutex_declaration_is_symmetric():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    assert dsl.is_mutex("MoveFwd", "Discharge")
    assert dsl.is_mutex("Discharge", "MoveFwd")


@pytest.mark.parametrize(
    "name",
    ["demo/dsl.xml", "vacuum/dsl.xml", "service_robot/dsl.xml", "nxt/dsl.xml"],
)
def test_save_load_round_trip(name):
    dsl = load_dsl(fixture_text(name))
    text = save_dsl(dsl)
    again = load_dsl(text)
    assert again == dsl
    assert save_dsl(again) == text


def test_malformed_xml():
    with pytest.raises(XmlSyntaxError):
        load_dsl("<RobotClassDSL name='X'>")


def test_wrong_root_element():
    with pytest.raises(XmlSyntaxError):
        load_dsl('<Robot name="X"/>')


def test_missing_name_attribute():
    with pytest.raises(XmlSyntaxError):
        load_dsl("<RobotClassDSL/>")


def test_unexpected_elements_rejected():
    with pytest.raises(XmlSyntaxError):
        load_dsl(dsl_doc("<Bogus/>"))
    with pytest.raises(XmlSyntaxError):
        load_dsl(dsl_doc('<ResourceComponent type="C"><Bogus/></ResourceComponent>'))
    with pytest.raises(XmlSyntaxError):
        load_dsl(
            dsl_doc(
                '<ResourceComponent type="C"><Action actionIdentifier="A">'
                "<Bogus/></Action></ResourceComponent>"
            )
        )


def test_second_variable_types_section_rejected():
    doc = dsl_doc("<VariableTypes/><VariableTypes/>")
    with pytest.raises(DuplicateIdentifierError):
        load_dsl(doc)


# Linear scans, as the lookups were written before the DSL index.

def _component_scan(dsl, type_name):
    for component in dsl.components:
        if component.type_name == type_name:
            return component
    return None


def _variable_type_scan(dsl, name):
    for declared in dsl.variable_types:
        if declared.name == name:
            return declared
    return PRIMITIVES.get(name)


def _action_scan(dsl, identifier):
    for component in dsl.components:
        for action in component.actions:
            if action.identifier == identifier:
                return action
    return None


def _action_types_first_wins(dsl):
    found = {}
    for component in dsl.components:
        for action in component.actions:
            found.setdefault(action.identifier, action)
    return found


def _random_dsl(rng: random.Random) -> RobotClassDsl:
    """A directly built DSL whose names repeat: components, action
    identifiers across and within components, and variable types,
    including a declared type that shadows a primitive."""
    pool = ["A", "B", "C", "D"]
    components = tuple(
        ResourceComponentTypeDef(
            rng.choice(["Arm", "Base", "Hand"]),
            tuple(ActionTypeDef(rng.choice(pool), owner=f"owner{i}.{j}",
                                parameters=(ParameterDef(f"p{j}", "Int"),))
                  for j in range(rng.randint(0, 3))),
        )
        for i in range(rng.randint(0, 4))
    )
    variable_types = tuple(
        VariableTypeDef(rng.choice(["Pose", "Twist", "Int"]), ((f"f{i}", "Float"),))
        for i in range(rng.randint(0, 3))
    )
    return RobotClassDsl("Dup", variable_types, components)


def test_indexed_lookups_match_linear_scans():
    rng = random.Random(5)
    names = ["Arm", "Base", "Hand", "Pose", "Twist", "A", "B", "C", "D", "Nope",
             *PRIMITIVES]
    for _ in range(300):
        dsl = _random_dsl(rng)
        for name in names:
            assert dsl.component(name) is _component_scan(dsl, name)
            assert dsl.variable_type(name) is _variable_type_scan(dsl, name)
            expected = _action_scan(dsl, name)
            if expected is None:
                with pytest.raises(UnknownActionTypeError, match=repr(name)):
                    lookup_action(dsl, name)
            else:
                assert lookup_action(dsl, name) is expected
        assert dsl.action_types() == _action_types_first_wins(dsl)
        assert list(dsl.action_types()) == list(_action_types_first_wins(dsl))


def test_index_is_not_part_of_equality_or_hash():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    twin = load_dsl(fixture_text("service_robot/dsl.xml"))
    lookup_action(dsl, "MoveTo")
    dsl.action_types()["Injected"] = None  # a caller's copy, not the index
    assert "Injected" not in dsl.action_types()
    assert dsl == twin and hash(dsl) == hash(twin)
    assert {"_actions", "_components", "_variable_types"}.isdisjoint(
        f.name for f in dataclasses.fields(dsl))
    replaced = dataclasses.replace(dsl, components=dsl.components[:1])
    assert replaced.component("DriveBase") is None


def test_parameters_by_name_keeps_declaration_order():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    action = lookup_action(dsl, "MoveManipulator")
    assert list(action.parameters_by_name) == ["targetPose", "orientation"]
    assert action.parameters_by_name is action.parameters_by_name
    assert action == dataclasses.replace(action)


@pytest.mark.parametrize("name", ["demo/dsl.xml", "vacuum/dsl.xml", "service_robot/dsl.xml",
                                  "nxt/dsl.xml"])
def test_fixtures_are_canonical(name):
    text = fixture_text(name)
    dsl = load_dsl(text)
    assert save_dsl(dsl) == text == support.save_dsl_oracle(dsl)


# The loader against a copy of the one that checked a list's tags lazily.

DSL_TAGS = ("VariableTypes", "VariableType", "Field", "ResourceComponent", "Action",
            "ParameterList", "Parameter", "NotAllowedSimultaneousActionTypes",
            "NotAllowedSimultaneousAction", "Bogus")


def _mutate_dsl(rng: random.Random, text: str) -> str:
    """One to three random defects in a saved DSL: a dropped attribute, a
    renamed, stray, dropped or duplicated element, a dangling reference."""
    root = ET.fromstring(text)
    for _ in range(rng.randint(1, 3)):
        parent_of = {child: parent for parent in root.iter() for child in parent}
        elems = list(root.iter())
        target = rng.choice(elems)
        kind = rng.choice(["drop_attr", "rename", "stray", "drop", "duplicate", "dangle"])
        if kind == "drop_attr" and target.attrib:
            del target.attrib[rng.choice(sorted(target.attrib))]
        elif kind == "rename" and target is not root:
            target.tag = rng.choice(DSL_TAGS)
        elif kind == "stray":
            target.insert(rng.randint(0, len(target)), ET.Element(rng.choice(DSL_TAGS)))
        elif kind == "drop" and target is not root:
            parent_of[target].remove(target)
        elif kind == "duplicate" and target is not root:
            parent = parent_of[target]
            parent.insert(list(parent).index(target), copy.deepcopy(target))
        elif kind == "dangle" and target.attrib:
            attr = rng.choice(sorted(target.attrib))
            target.set(attr, rng.choice(["Nope", "Int", "Void", *(e.get(attr) or "" for e in elems)]))
    return ET.tostring(root, encoding="unicode")


def _load_outcome(load, text):
    try:
        return load(text)
    except SeqcError as exc:
        return type(exc), str(exc)


STRAY_IN_LIST = re.compile(r"unexpected element <[^>]+> inside <[^>]+>\Z")


def test_loader_matches_the_old_loader_on_mutated_documents():
    """Same DSL or the same error, except that a stray element in a list
    of one tag now names its parent and is reported before anything in
    that list is read: an earlier sibling's missing attribute, or, in a
    component's action list, an earlier action's duplicate parameter."""
    rng = random.Random(4242)
    bases = [fixture_text(name) for name in
             ("demo/dsl.xml", "vacuum/dsl.xml", "service_robot/dsl.xml", "nxt/dsl.xml")]
    loaded = same_error = stray_first = dup_param_first = dup_field = 0
    for i in range(1200):
        if i % 3 == 2:
            base = rng.choice(bases)
        else:
            setup = support.random_literal_setup if i % 3 else support.random_flow_setup
            base = save_dsl(setup(rng)[0])
        doc = _mutate_dsl(rng, base)
        new, old = _load_outcome(load_dsl, doc), _load_outcome(support.load_dsl_oracle, doc)
        if isinstance(old, RobotClassDsl):
            assert new == old, doc
            loaded += 1
        elif new == old:
            same_error += 1
            dup_field += "declares field" in new[1]
        else:
            assert new[0] is XmlSyntaxError and STRAY_IN_LIST.match(new[1]), (doc, new, old)
            if old[0] is XmlSyntaxError:
                stray_first += 1
            else:
                assert old[0] is DuplicateIdentifierError and "declares parameter" in old[1]
                assert new[1].endswith("inside <ResourceComponent>"), (doc, new, old)
                dup_param_first += 1
    assert loaded > 150 and same_error > 500 and stray_first > 100 and dup_field > 0, \
        (loaded, same_error, stray_first, dup_param_first, dup_field)


def test_stray_action_sibling_is_reported_before_a_duplicate_parameter():
    doc = dsl_doc('<ResourceComponent type="C"><Action actionIdentifier="A"><ParameterList>'
                  '<Parameter name="p" type="Int"/><Parameter name="p" type="Int"/>'
                  '</ParameterList></Action><Bogus/></ResourceComponent>')
    with pytest.raises(XmlSyntaxError, match=r"^unexpected element <Bogus> inside <ResourceComponent>$"):
        load_dsl(doc)
    with pytest.raises(DuplicateIdentifierError):
        support.load_dsl_oracle(doc)


@pytest.mark.parametrize("body,parent", [
    ('<VariableTypes><VariableType/><Bogus/></VariableTypes>', "VariableTypes"),
    ('<VariableTypes><VariableType name="V"><Field/><Bogus/></VariableType></VariableTypes>',
     "VariableType"),
    ('<ResourceComponent type="C"><Action/><Bogus/></ResourceComponent>', "ResourceComponent"),
    ('<ResourceComponent type="C"><Action actionIdentifier="A"><ParameterList>'
     '<Parameter/><Bogus/></ParameterList></Action></ResourceComponent>', "ParameterList"),
    ('<ResourceComponent type="C"><Action actionIdentifier="A">'
     '<NotAllowedSimultaneousActionTypes><NotAllowedSimultaneousAction/><Bogus/>'
     '</NotAllowedSimultaneousActionTypes></Action></ResourceComponent>',
     "NotAllowedSimultaneousActionTypes"),
])
def test_stray_in_a_list_names_its_parent_before_attributes_are_read(body, parent):
    with pytest.raises(XmlSyntaxError, match=rf"^unexpected element <Bogus> inside <{parent}>$"):
        load_dsl(dsl_doc(body))
    with pytest.raises(XmlSyntaxError, match="missing required attribute"):
        support.load_dsl_oracle(dsl_doc(body))
