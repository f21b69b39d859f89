"""Template parsing and rendering semantics."""

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import pytest

from seqc.codegen import program_view
from seqc.dsl import load_dsl
from seqc.errors import (
    MalformedReferenceError,
    NonIterableInForeachError,
    SeqcError,
    TemplateError,
    UnclosedBlockError,
    UnknownDirectiveError,
    UnknownTemplateIdError,
    UnresolvedReferenceError,
)
from seqc.program_io import load_program
from seqc.templating import (
    ForeachNode,
    ReferencePath,
    Template,
    TemplateEngine,
    normalize_accessor,
    parse_template,
)
from support import (
    fixture_generator,
    fixture_path,
    fixture_text,
    parse_template_oracle,
    render_template_oracle,
)


@dataclass(frozen=True)
class Box:
    _root: ClassVar[str] = "Box"
    name: str = "box"
    size: object = 3
    items: tuple = ()


def render(source, scope, *, strict=True):
    """The text and warnings of a one-off template."""
    engine = TemplateEngine({}, strict=strict)
    return engine.render_template(parse_template(source), scope), engine.warnings


def text_of(source, scope, **kwargs):
    return render(source, scope, **kwargs)[0]


# --- accessor normalization -------------------------------------------------

@pytest.mark.parametrize(
    "raw,expected",
    [
        ("getName()", "name"),
        ("getName", "name"),
        ("name()", "name"),
        ("name", "name"),
        ("Name", "name"),
        ("getXCoord", "xCoord"),
        ("get", "get"),  # bare "get" is a property called get
        ("getter", "getter"),  # "get" only strips before an upper-case letter
        ("getURL", "uRL"),  # mechanical rule, no acronym smarts
    ],
)
def test_normalize_accessor(raw, expected):
    assert normalize_accessor(raw) == expected


def test_accessor_spellings_are_interchangeable():
    scope = {"b": Box(name="lunchbox")}
    for spelling in ("$b.getName()", "$b.getName", "$b.name()", "$b.name"):
        assert text_of(spelling, scope) == "lunchbox"


# --- parsing ----------------------------------------------------------------

def test_parse_produces_text_and_reference_nodes():
    template = parse_template("before $a.getName() after")
    kinds = [type(n) for n in template.nodes]
    assert kinds == [str, ReferencePath, str]
    ref = template.nodes[1]
    assert ref.root == "a"
    assert ref.steps == ("name",)
    assert ref.raw == "$a.getName()"


def test_reference_stops_at_non_identifier():
    template = parse_template("$a.name.")
    assert template.nodes[0].steps == ("name",)
    assert template.nodes[1] == "."


def test_braced_reference_binds_tightly():
    assert text_of("${b.getName()}.cs", {"b": Box(name="Out")}) == "Out.cs"
    # Without braces the ".cs" would be parsed as another step.
    with pytest.raises(UnresolvedReferenceError):
        text_of("$b.getName().cs", {"b": Box(name="Out")})


def test_unbraced_dollar_and_hash_stay_literal():
    assert text_of("cost: $5, $ alone, #1 fan", {}) == "cost: $5, $ alone, #1 fan"


def test_escapes_produce_literal_markers():
    assert text_of(r"\$a \#end \$", {"a": "nope"}) == "$a #end $"
    # A backslash not followed by $ or # is ordinary text.
    assert text_of(r"C:\temp", {}) == r"C:\temp"


def test_unknown_directive():
    # Named by all the letters after '#', as written.
    for source, message in (("#bogus(1)", "#bogus [<string>:1]"), ("#Foo", "#Foo [<string>:1]"),
                            ("x\n#é", "#é [<string>:2]"), ("#fooBar1", "#fooBar [<string>:1]")):
        with pytest.raises(UnknownDirectiveError) as exc_info:
            parse_template(source)
        assert str(exc_info.value) == f"unknown directive {message}"


@pytest.mark.parametrize("source", ["#end", "x#else", "#if($a)#else#else#end"])
def test_stray_block_markers(source):
    with pytest.raises(UnclosedBlockError):
        parse_template(source)


def test_unclosed_block_reports_position():
    with pytest.raises(UnclosedBlockError) as exc_info:
        parse_template("line one\n#foreach($x in $xs)\nbody", template_id="demo.vt")
    assert exc_info.value.template_id == "demo.vt"
    assert "demo.vt" in str(exc_info.value)


@pytest.mark.parametrize(
    "source",
    [
        "$_hidden",
        "$a._secret",
        "#foreach($x.y in $xs)#end",
        "#set($x = )",
        '#set($x = "open)',
        "#foreach($x on $xs)#end",
        "#insert(t $node)",
        "${a",
    ],
)
def test_malformed_references(source):
    with pytest.raises(MalformedReferenceError):
        parse_template(source)


def test_parse_error_line_numbers():
    with pytest.raises(MalformedReferenceError) as exc_info:
        parse_template("ok\nok\n$a._nope")
    assert exc_info.value.line == 3


def test_foreach_node_shape():
    template = parse_template("#foreach($item in $b.getItems())x#end")
    node = template.nodes[0]
    assert isinstance(node, ForeachNode)
    assert node.var == "item"
    assert node.path.steps == ("items",)
    assert node.body == ("x",)


# --- rendering basics -------------------------------------------------------

def test_scope_roots_resolve_directly():
    assert text_of("$x + $y", {"x": 1, "y": 2}) == "1 + 2"


def test_mapping_steps_use_key_lookup():
    scope = {"cfg": {"name": "demo", "inner": {"deep": "v"}}}
    assert text_of("$cfg.name/$cfg.getInner().deep", scope) == "demo/v"


def test_zero_argument_callables_are_invoked():
    scope = {"b": Box(size=lambda: 9)}
    assert text_of("$b.getSize()=$b.size", scope) == "9=9"


def test_value_formatting():
    scope = {"t": True, "f": False, "n": None, "fl": 2.5, "i": -3}
    assert text_of("$t $f [$n] $fl $i", scope) == "true false [] 2.5 -3"


def test_reference_does_not_swallow_newline():
    assert text_of("$x\nnext", {"x": "v"}) == "v\nnext"


def test_random_interleavings_match_naive_substitution():
    rng = random.Random(17)
    scope = {"a": "ALPHA", "b": Box(name="bee", size=4)}
    # Text pieces start with punctuation so an adjacent unbraced
    # reference cannot absorb them as extra identifier characters.
    pieces = [
        ("text", " plain "), ("text", "|x,y;z\n"), ("text", "%100 "),
        ("ref", "$a", "ALPHA"), ("ref", "${a}", "ALPHA"),
        ("ref", "$b.getName()", "bee"), ("ref", "$b.size", "4"),
    ]
    for _ in range(200):
        chosen = [rng.choice(pieces) for _ in range(rng.randint(0, 12))]
        source = "".join(p[1] for p in chosen)
        expected = "".join(p[2] if p[0] == "ref" else p[1] for p in chosen)
        assert text_of(source, scope) == expected


# --- foreach ----------------------------------------------------------------

def test_foreach_iterates_in_order():
    scope = {"items": ["a", "b", "c"]}
    assert text_of("#foreach($i in $items)[$i]#end", scope) == "[a][b][c]"


def test_foreach_block_layout_gobbles_directive_newlines():
    source = "header\n#foreach($i in $items)\n- $i\n#end\nfooter\n"
    assert text_of(source, {"items": [1, 2]}) == "header\n- 1\n- 2\nfooter\n"


def test_foreach_over_empty_renders_nothing():
    assert text_of("#foreach($i in $items)x#end", {"items": []}) == ""


def test_loop_variable_is_scoped_to_the_body():
    source = "#foreach($i in $items)$i#end:$i"
    with pytest.raises(UnresolvedReferenceError):
        text_of(source, {"items": [1]})


def test_set_inside_loop_does_not_leak():
    source = "#foreach($i in $items)#if($flag)Y#end#set($flag = true)#end|#if($flag)outer#end"
    # flag is set at the end of each iteration but each iteration starts
    # from a fresh child scope, so the #if never sees it.
    assert text_of(source, {"items": [1, 2, 3]}) == "|"


@pytest.mark.parametrize("value", ["text", b"bytes", 7, object()])
def test_foreach_requires_a_real_iterable(value):
    with pytest.raises(NonIterableInForeachError):
        text_of("#foreach($i in $v)x#end", {"v": value})


def test_foreach_error_carries_location():
    with pytest.raises(NonIterableInForeachError) as exc_info:
        render("\n\n#foreach($i in $v)x#end", {"v": 7})
    assert exc_info.value.line == 3


def test_nested_foreach():
    scope = {"rows": [[1, 2], [3]]}
    assert (
        text_of("#foreach($r in $rows)#foreach($c in $r)$c.#end;#end", scope)
        == "1.2.;3.;"
    )


# --- if ---------------------------------------------------------------------

def test_if_else_branches():
    assert text_of("#if($x)yes#else no#end", {"x": True}) == "yes"
    assert text_of("#if($x)yes#else no#end", {"x": False}) == " no"
    assert text_of("#if($x)yes#end", {"x": []}) == ""
    assert text_of("#if($x)yes#end", {"x": "s"}) == "yes"


def test_if_treats_unresolved_as_false_in_both_modes():
    assert text_of("#if($ghost)yes#else no#end", {}) == " no"
    text, warnings = render("#if($ghost)yes#else no#end", {}, strict=False)
    assert text == " no"
    assert warnings == []


def test_if_treats_none_as_false():
    assert text_of("#if($b.getSize())has#else none#end", {"b": Box(size=None)}) == " none"


# --- set ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "literal,expected",
    [('"hi"', "hi"), ("42", "42"), ("-7", "-7"), ("2.5", "2.5"), ("true", "true"), ("false", "false")],
)
def test_set_literals(literal, expected):
    assert text_of(f"#set($x = {literal})$x", {}) == expected


def test_set_from_reference_and_persistence():
    scope = {"b": Box(name="N")}
    assert text_of("#set($x = $b.getName())$x/$x", scope) == "N/N"


def test_set_shadows_scope_entry():
    assert text_of('#set($x = "new")$x', {"x": "old"}) == "new"


def test_set_unresolved_reference_strict_and_lenient():
    with pytest.raises(UnresolvedReferenceError):
        text_of("#set($x = $ghost)", {})
    text, warnings = render("#set($x = $ghost)[$x]", {}, strict=False)
    assert text == "[]"
    assert len(warnings) == 2  # the failed set, then the unresolved read


# --- strict and lenient resolution -------------------------------------------

def test_strict_unresolved_reference_reports_location():
    with pytest.raises(UnresolvedReferenceError) as exc_info:
        render("ok\n$b.getWeight()", {"b": Box()})
    assert exc_info.value.line == 2
    assert "$b.getWeight()" in str(exc_info.value)


def test_lenient_unresolved_renders_empty_with_warning():
    text, warnings = render("[$ghost]", {}, strict=False)
    assert text == "[]"
    assert len(warnings) == 1
    assert "$ghost" in warnings[0]


def test_unresolved_foreach_path_lenient_skips_loop():
    text, warnings = render("#foreach($i in $ghost)x#end", {}, strict=False)
    assert text == ""
    assert len(warnings) == 1


# --- insert -----------------------------------------------------------------

def render_main(scope, *, strict=True, **sources):
    """The text and warnings of sources["main"], every source an #insert id."""
    library = {key: parse_template(text, key) for key, text in sources.items()}
    engine = TemplateEngine(library, strict=strict)
    return engine.render_template(library["main"], scope), engine.warnings


def test_insert_by_bare_and_quoted_id():
    text, _ = render_main(
        {"b": Box(name="n")},
        main='#insert(part, $b)|#insert("part", $b)',
        part="<$Box.getName()>",
    )
    assert text == "<n>|<n>"


def test_insert_id_via_reference():
    text, _ = render_main(
        {"b": Box(name="part", size=8)},
        main="#insert($b.getName(), $b)",
        part="size=$Box.size",
    )
    assert text == "size=8"


def test_insert_scope_is_top_roots_plus_target():
    # The inserted template sees the original top-level roots and the
    # target under its published root name, but not loop variables.
    scope = {"boxes": [Box(name="a"), Box(name="b")], "global": "G"}
    text, _ = render_main(
        scope,
        main="#foreach($item in $boxes)#insert(part, $item)#end",
        part="[$Box.getName() $global#if($item) leak#end]",
    )
    assert text == "[a G][b G]"


def test_insert_target_must_publish_a_root():
    with pytest.raises(TemplateError) as exc_info:
        render_main({"thing": object()}, main="#insert(part, $thing)", part="x")
    assert "root name" in str(exc_info.value)


def test_insert_unknown_template_strict_and_lenient():
    with pytest.raises(UnknownTemplateIdError):
        render_main({"b": Box()}, main="#insert(ghost, $b)")

    text, warnings = render_main({"b": Box()}, strict=False, main="a#insert(ghost, $b)z")
    assert text == "az"
    assert len(warnings) == 1 and "ghost" in warnings[0]


def test_a_step_that_needs_arguments_is_an_unresolved_reference():
    # str.join and tuple.index take an argument, so the step resolves to
    # nothing in every directive instead of escaping as a TypeError.
    scope = {"b": Box(name="part", items=("x",))}
    for ref in ("$b.getName().getJoin()", "$b.items.index"):
        for source in (f"[{ref}]", f"[#foreach($i in {ref})$i#end]", f"[#set($x = {ref})]",
                       f"[#insert({ref}, $b)]"):
            with pytest.raises(UnresolvedReferenceError,
                               match="cannot be called without arguments"):
                render_main(scope, main=source, part="P")
            text, warnings = render_main(scope, strict=False, main=source, part="P")
            assert text == "[]" and len(warnings) == 1 and ref in warnings[0]
        for strict in (True, False):
            assert render_main(scope, strict=strict, main=f"[#if({ref})yes#else\nno#end]",
                               part="P") == ("[no]", [])


def test_insert_depth_limit_catches_cycles():
    with pytest.raises(TemplateError) as exc_info:
        render_main({"b": Box()}, main="#insert(main, $b)")
    assert "depth" in str(exc_info.value)


def test_an_error_names_its_template_and_line_or_neither():
    with pytest.raises(UnknownTemplateIdError) as exc_info:
        render_main({"b": Box()}, main="#insert(zzz, $b)")
    assert str(exc_info.value) == "#insert names unknown template 'zzz' [main:1]"
    assert (exc_info.value.template_id, exc_info.value.line) == ("main", 1)
    unplaced = UnknownTemplateIdError("no template 'zzz'")
    assert str(unplaced) == "no template 'zzz'"
    assert (unplaced.template_id, unplaced.line) == (None, None)


def test_warnings_accumulate_in_order_across_renders():
    engine = TemplateEngine({}, strict=False)
    assert engine.render_template(parse_template("[$one]", "a"), {}) == "[]"
    assert engine.render_template(parse_template("#insert(two, $b)$three", "b"),
                                  {"b": Box()}) == ""
    assert engine.warnings == [
        "a:1: unresolved reference $one ('one' is not in scope)",
        "b:1: skipped #insert of unknown template 'two'",
        "b:1: unresolved reference $three ('three' is not in scope)",
    ]


# --- nesting depth ---------------------------------------------------------------

def test_blocks_nest_far_deeper_than_the_recursion_limit():
    depth = 10 * sys.getrecursionlimit()
    openers = ["#if($t)\n", "#foreach($i in $one)\n"] * (depth // 2)
    source = "".join(openers) + "x\n" + "#end\n" * len(openers)
    template = parse_template(source)
    engine = TemplateEngine({}, strict=True)
    assert engine.render_template(template, {"t": True, "one": [1]}) == "x\n"
    assert engine.render_template(template, {"t": False, "one": [1]}) == ""


# --- the one-scan parser and frame-stack renderer against the recursive oracle ---

# Pieces that parse in any position outside a block's argument list.
_PIECES = [
    "plain ", "x", "\n", "\r\n", " \t", "|", "(", ")", ",", ".", "}", "=",
    r"\$", r"\#", "\\", r"\x", r"\\$a", "$", "#", "$5", "#1", "$ ", "# ", "$$a",
    "#_x", "#{x}", "$²", "#²", "$a", "${a}", "$a.", "$a.1", "$b.name", "$b.getName()",
    "${b.size}", "$b.items", "$b.getSize().x", "$ghost", "${ghost.x}",
    "$cfg.inner.deep", "$cfg.getInner().Deep", "$n", "$t", "$f", "$x", "$v",
    '#set($v = $a)', '#set($v = "s")', "#set($v = -3)", "#set($v = 2.5)",
    "#set($v = true)", "#set( $v=false )\n", "#set($v = $ghost)", "#set($x = $items)",
    "#insert(part, $b)", '#insert("part", $b)\n', "#insert($name, $b)",
    "#insert( ghost ,$b )", "#insert(part, $a)", "#insert(part, $ghost)",
    "#insert($ghost, $b)", "#insert(loop, $b)\r\n", "#insert($b.name, $b)",
    "#insert(chain1, $b)", "#insert(chain0, $b)",
]
# Pieces that fail to parse, or that are stray in most positions.
_BROKEN = [
    "$_hidden", "$a._x", "${a", "${}", "$é", "#é", "#Foo", "#bogus(1)", "#endif",
    "#if", "#if(", "#if $a)", "#if($a", "#foreach($x on $items)",
    "#foreach($x.y in $items)", "#foreach($x in)", "#foreach($x in $items",
    "#set($v = )", '#set($v = "open)', '#set($v = "two\nlines")', "#set($v.x = 1)",
    "#set(v = 1)", "#insert(t $b)", "#insert(, $b)", "#insert(part, b)", "#end",
    "#else", "#else\n", "#end\r\n",
]
_OPENERS = [
    "#foreach($x in $items)", "#foreach( $x in $nested )\n", "#foreach($x in $ghost)",
    "#foreach($x in $a)", "#foreach($x\tin\t$b.items)\r\n", "#foreach($i in $x)",
    "#if($a)", "#if($ghost)\n", "#if( $n )", "#if($t)\r\n", "#if($f)", "#if($x)",
    "#if($v)\n",
]
_LIBRARY_SOURCES = {
    "part": "<$Box.name #foreach($x in $Box.items)$x,#end$a $x>",
    "loop": "#insert(loop, $Box)",
    # A chain one #insert longer than the depth limit allows.
    **{f"chain{i}": f"{i} #insert(chain{i + 1}, $Box)" for i in range(32)},
    "chain32": "end",
}


def random_template_source(rng: random.Random, depth: int = 0) -> str:
    out = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.03:
            out.append(rng.choice(_BROKEN))
        elif roll < 0.3 and depth < 4:
            opener = rng.choice(_OPENERS)
            out.append(opener + random_template_source(rng, depth + 1))
            if opener.startswith("#if") and rng.random() < 0.5:
                out.append(rng.choice(["#else", "#else\n", "#else\r\n"])
                           + random_template_source(rng, depth + 1))
            out.append(rng.choice(["#end", "#end\n", "#end\r\n", "#end "]))
        else:
            out.append(rng.choice(_PIECES))
    source = "".join(out)
    if source and rng.random() < 0.1:  # cut a slice out: unclosed and half directives
        cut = rng.randrange(len(source))
        source = source[:cut] + source[cut + rng.randint(1, 12):]
    return source


def outcome(call):
    try:
        return call()
    except SeqcError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_engine_matches_oracle(source, template_id, scope, library):
    parsed = outcome(lambda: parse_template(source, template_id))
    assert parsed == outcome(lambda: parse_template_oracle(source, template_id)), source
    if not isinstance(parsed, Template):
        return parsed
    for strict in (True, False):
        engine = TemplateEngine(library, strict=strict)
        rendered = outcome(lambda: (engine.render_template(parsed, scope), engine.warnings))
        assert rendered == outcome(
            lambda: render_template_oracle(library, parsed, scope, strict=strict)), (source, strict)
    return parsed


def test_engine_matches_the_recursive_oracle_on_random_templates():
    rng = random.Random(20)
    scope = {"a": "ALPHA", "b": Box(name="part", size=4, items=(1, 2)), "items": [1, 2],
             "nested": [[1], [2, 3]], "name": "part", "n": None, "t": True, "f": False,
             "cfg": {"inner": {"deep": "D"}}}
    library = {key: parse_template(text, key) for key, text in _LIBRARY_SOURCES.items()}
    kinds = Counter()
    for _ in range(2500):
        result = assert_engine_matches_oracle(
            random_template_source(rng), "random.vt", scope, library)
        kinds[result[0].__name__ if isinstance(result, tuple) else "parsed"] += 1
    # The generator reaches every parse failure as well as clean templates.
    assert kinds["parsed"] > 1000
    for error in (UnclosedBlockError, UnknownDirectiveError, MalformedReferenceError):
        assert kinds[error.__name__] > 20


@pytest.mark.parametrize("name,program_file", [
    ("nxt", "obstacle_avoid.xml"), ("service_robot", "grasp_demo.xml"),
])
def test_engine_matches_the_recursive_oracle_on_fixture_templates(name, program_file):
    dsl = load_dsl(fixture_text(name, "dsl.xml"))
    program = load_program(fixture_text(name, program_file), dsl)
    config = fixture_generator(name, "generator.xml")
    scope = {"Program": program_view(program, dsl)}
    library = config.templates
    sources = sorted(fixture_path(name, "templates").glob("*.vt"))
    assert sources
    for path in sources:
        assert isinstance(assert_engine_matches_oracle(
            path.read_text(encoding="utf-8"), path.name, scope, library), Template)
    for _, pattern in config.mains:  # output-name patterns come from generator.xml
        for strict in (True, False):
            engine = TemplateEngine(library, strict=strict)
            assert (engine.render_template(pattern, scope), engine.warnings) == \
                render_template_oracle(library, pattern, scope, strict=strict)
