"""Robot-class DSL parsing, resolution checks, and the canonical writer."""

import dataclasses
import random

import pytest

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
    symmetrize_mutex,
)
from seqc.errors import (
    DuplicateIdentifierError,
    RecursiveCompositeTypeError,
    UnknownActionTypeError,
    UnknownTypeReferenceError,
    UnresolvedMutexReferenceError,
    XmlSyntaxError,
)
from support import fixture_text


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
    relation = symmetrize_mutex([("A", "B")])
    assert frozenset({"A", "B"}) in relation
    # A self-pair collapses to a singleton set and is kept as declared.
    assert symmetrize_mutex([("A", "A")]) == frozenset({frozenset({"A"})})


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
    assert "_index" not in {f.name for f in dataclasses.fields(dsl)}
    replaced = dataclasses.replace(dsl, components=dsl.components[:1])
    assert replaced.component("DriveBase") is None


def test_parameters_by_name_keeps_declaration_order():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    action = lookup_action(dsl, "MoveManipulator")
    assert list(action.parameters_by_name) == ["targetPose", "orientation"]
    assert action.parameters_by_name is action.parameters_by_name
    assert action == dataclasses.replace(action)
