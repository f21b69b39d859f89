"""The shared XML rules: attribute quoting, the element writer, the child
reader, the writers they serve, and the import cost of the helpers."""

import dataclasses
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

import support
from seqc import xmlio
from seqc.codegen import load_generator_config
from seqc.dsl import (
    ActionTypeDef,
    ParameterDef,
    ResourceComponentTypeDef,
    RobotClassDsl,
    VariableTypeDef,
    load_dsl,
    save_dsl,
)
from seqc.errors import XmlSyntaxError
from seqc.model import ActionInstance, ArgBinding, Program, ResourceInstance, VariableDecl
from seqc.program_io import load_program, parse_program, save_program
from seqc.validator import validate
from seqc.xmlio import _children, _write_element, attr_escape

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Both quote kinds, the escaped characters, whitespace that gets a
# character reference, other control characters, non-ASCII.
ALPHABET = "ab &<>\"'\n\r\t\x00\x01\x1f\x7f;#é☃\U0001d11e\ud800"


@pytest.mark.parametrize(
    "value",
    ["", "plain", 'say "hi"', "it's", "\"it's\"", "&amp;", "<&>", "\r\n\t", "'\"'\"",
     "é☃\U0001d11e"],
)
def test_attr_escape_matches_quoteattr(value):
    assert attr_escape(value) == quoteattr(value)


def xml_char(char: str) -> bool:
    """The Char production of XML 1.0."""
    code = ord(char)
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD
            or 0x10000 <= code <= 0x10FFFF)


def test_attr_escape_matches_quoteattr_on_random_strings():
    # quoteattr writes what XML cannot carry; attr_escape refuses it.
    rng = random.Random(7)
    refused = 0
    for _ in range(1000):
        value = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        if all(map(xml_char, value)):
            assert attr_escape(value) == quoteattr(value), repr(value)
        else:
            refused += 1
            with pytest.raises(XmlSyntaxError, match="XML cannot carry the character"):
                attr_escape(value)
    assert 100 < refused < 900


def test_attr_escape_writes_non_strings_as_str():
    assert attr_escape(3) == '"3"'


def test_importing_the_cli_skips_the_network_stack():
    # xml.sax.saxutils imports urllib.request, which pulls in http.client,
    # email and ssl: 35-49 ms per process for one quoting function.
    heavy = ("urllib.request", "http.client", "email", "ssl")
    code = ("import sys, seqc.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # -S: no site-packages start-up hooks, which may import any of these.
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == ""


def test_write_element_indents_quotes_and_self_closes():
    lines = []
    _write_element(lines, "", "Doc", [("b", "2"), ("a", 'say "hi"')], [
        ("Empty", (), ()),
        ("List", [("n", 1)], [("Item", [("v", "<&>")], ())]),
        ("Bare", (), [("Leaf", (), ())]),
    ])
    assert lines == [
        """<Doc b="2" a='say "hi"'>""",
        "  <Empty/>",
        '  <List n="1">',
        '    <Item v="&lt;&amp;&gt;"/>',
        "  </List>",
        "  <Bare>",
        "    <Leaf/>",
        "  </Bare>",
        "</Doc>",
    ]


def test_write_element_appends_at_the_given_indent():
    lines = ["kept"]
    _write_element(lines, "    ", "Solo")
    assert lines == ["kept", "    <Solo/>"]


def test_children_returns_every_child_in_order():
    elem = ET.fromstring('<List><Item n="1"/><Item n="2"/></List>')
    assert [child.get("n") for child in _children(elem, "Item")] == ["1", "2"]
    assert _children(ET.fromstring("<List/>"), "Item") == []


def test_children_names_the_first_stray_and_its_parent():
    elem = ET.fromstring('<List><Item/><Other/><Item/><Third/></List>')
    with pytest.raises(XmlSyntaxError, match=r"^unexpected element <Other> inside <List>$"):
        _children(elem, "Item")


# The saved documents, byte for byte, against copies of the writers that
# spelled out every element by hand.

def test_writers_match_the_old_writers_on_random_documents():
    rng = random.Random(909)
    documents = composites = mutex = 0
    for setup in (support.random_literal_setup, support.random_flow_setup) * 400:
        dsl, program = setup(rng)
        assert save_dsl(dsl) == support.save_dsl_oracle(dsl)
        text = save_program(program)
        assert text == support.save_program_oracle(program)
        documents += 2
        composites += "<Field " in text
        mutex += any(action.mutex_types for component in dsl.components
                     for action in component.actions)
    assert documents >= 1500 and composites > 200 and mutex > 200


def test_readme_dsl_example_is_canonical():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Robot class DSL", 1)[1]
    example = re.search(r"```xml\n(.*?)```", section, flags=re.S).group(1)
    assert save_dsl(load_dsl(example)) == example


def _collapse_empty(text: str) -> str:
    """The old writers' empty open/close pairs as self-closing elements."""
    return re.sub(r"<(\w+)([^<>]*)>\n *</\1>", r"<\1\2/>", text)


def test_empty_dsl_parts_self_close_and_load_back():
    dsl = RobotClassDsl("Bare", (VariableTypeDef("Nothing", ()),), (
        ResourceComponentTypeDef("Idle"),
        ResourceComponentTypeDef("Busy", (ActionTypeDef("Go", "Busy"),)),
    ))
    text = save_dsl(dsl)
    assert '<VariableType name="Nothing"/>' in text
    assert '<ResourceComponent type="Idle"/>' in text
    assert text == _collapse_empty(support.save_dsl_oracle(dsl))
    assert load_dsl(text) == dsl
    assert save_dsl(RobotClassDsl("None")) == '<RobotClassDSL name="None"/>\n'
    assert load_dsl(save_dsl(RobotClassDsl("None"))) == RobotClassDsl("None")


def test_empty_composite_literal_self_closes():
    dsl = RobotClassDsl("Bare", (VariableTypeDef("Nothing", ()),
                                 VariableTypeDef("Holder", (("inner", "Nothing"),))), (
        ResourceComponentTypeDef("Unit", (
            ActionTypeDef("Use", "Unit", parameters=(ParameterDef("p", "Holder"),)),)),))
    program = Program("P", "Bare", (ResourceInstance("r", "Unit"),),
                      (VariableDecl("held", "Holder", {"inner": {}}),
                       VariableDecl("empty", "Nothing", {})),
                      (ActionInstance("a", "Use", "r", (ArgBinding("p", value={"inner": {}}),)),))
    text = save_program(program)
    assert '<Variable name="empty" type="Nothing"/>' in text
    assert text.count('<Field name="inner"/>') == 2
    assert text == _collapse_empty(support.save_program_oracle(program))
    # A nested empty composite loads back; a top-level one reads as no
    # initializer, with the old writer's empty pair as with this one.
    loaded = load_program(text, load_dsl(save_dsl(dsl)))
    assert loaded.variable("held") == program.variable("held")
    assert loaded.actions == program.actions
    assert loaded.variable("empty") == VariableDecl("empty", "Nothing")
    assert load_program(support.save_program_oracle(program), dsl) == loaded


# What XML can carry, both ways: a `str` may hold a lone surrogate, which
# no XML document can, and characters XML 1.0 has no place for.

LONE_SURROGATE_DOCUMENTS = [
    (load_dsl, '<RobotClassDSL name="\ud800"/>'),
    (lambda text: load_program(text, RobotClassDsl("B")), '<Program name="P\udfff" robotClass="B"/>'),
    (parse_program, '<Program name="P" robotClass="B"><Resources>\ud800</Resources></Program>'),
    (load_generator_config, '<Generator name="\udc80"/>'),
]


@pytest.mark.parametrize("load, text", LONE_SURROGATE_DOCUMENTS,
                         ids=["load_dsl", "load_program", "parse_program", "load_generator_config"])
def test_a_lone_surrogate_is_an_xml_syntax_error(load, text):
    with pytest.raises(XmlSyntaxError, match="^not well-formed XML: .*surrogates not allowed"):
        load(text)


def test_a_lone_surrogate_past_the_first_slice_is_an_xml_syntax_error():
    body = "".join(f'<Resource name="r{i}" type="T"/>' for i in range(5000))
    text = f'<Program name="P" robotClass="B"><Resources>{body}\ud800</Resources></Program>'
    assert len(text) > 2 * xmlio._SLICE
    with pytest.raises(XmlSyntaxError, match="surrogates not allowed"):
        parse_program(text)


@pytest.mark.parametrize("char", support.NOT_XML_CHARS)
def test_save_refuses_what_xml_cannot_carry(char):
    dsl = RobotClassDsl("B", (), (ResourceComponentTypeDef("U", (ActionTypeDef("Go", "U"),)),))
    program = Program("P", "B", (ResourceInstance("r", "U"),))
    literal = dataclasses.replace(program, variables=(VariableDecl("s", "String", f"a{char}b"),))
    assert [f.code.value for f in validate(literal, dsl).findings] == ["UnusedVariable"]
    for refused in (lambda: save_program(literal),
                    lambda: save_program(dataclasses.replace(program, name=f"P{char}")),
                    lambda: save_dsl(dataclasses.replace(dsl, name=f"B{char}"))):
        with pytest.raises(XmlSyntaxError, match="XML cannot carry the character"):
            refused()


def test_save_keeps_every_character_xml_can_carry():
    dsl = RobotClassDsl("B", (), (ResourceComponentTypeDef("U"),))
    kept = VariableDecl("s", "String", "a\tb\n\r\x7f\x80\u00e9\ud7ff\ue000\ufffd\U0001d11e")
    program = Program("P", "B", (ResourceInstance("r", "U"),), (kept,))
    assert load_program(save_program(program), dsl) == program
