"""Minimal Velocity-flavoured template engine.

Templates are plain text with two special characters: ``#`` introduces a
control directive and ``$`` a data reference.  The supported subset is

    $root.step.step        reference, also writable as ${root.step}
    #foreach($x in $ref) ... #end
    #if($ref) ... #else ... #end
    #set($x = $ref)        right side may also be a quoted string,
                           integer, float, true or false
    #insert(id, $node)     expand another template with $node bound as
                           its principal root; id may be a bare name or
                           a reference that resolves to one
    \\$ and \\#              escapes producing the literal character

Accessor steps are normalized so that ``getName()``, ``name()`` and
``name`` all address the same property: a trailing ``()`` is dropped, a
leading ``get`` before an upper-case letter is stripped, and the first
letter is lowercased.  Root names are looked up verbatim in the render
scope.

A newline immediately following a directive is consumed, so block
markers sitting on their own lines do not leak blank lines into the
output.  References never swallow newlines.

Rendering is strict by default: an unresolvable reference raises
UnresolvedReferenceError with the template id and line.  In lenient
mode it renders as empty text and is recorded as a warning instead.
``#if`` is the exception in both modes: an unresolvable condition is
simply false, since testing for presence is what the directive is for.
"""

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    MalformedReferenceError,
    NonIterableInForeachError,
    TemplateError,
    UnclosedBlockError,
    UnknownDirectiveError,
    UnknownTemplateIdError,
    UnresolvedReferenceError,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_WORD = re.compile(r"[a-z]+")
_DIRECTIVES = ("foreach", "if", "else", "end", "set", "insert")
_MAX_INSERT_DEPTH = 32


def normalize_accessor(raw: str) -> str:
    """Reduce an accessor spelling to its canonical property name."""
    step = raw[:-2] if raw.endswith("()") else raw
    if len(step) > 3 and step.startswith("get") and step[3].isupper():
        step = step[3:]
    return step[0].lower() + step[1:]


@dataclass(frozen=True)
class ReferencePath:
    raw: str
    root: str
    steps: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class TextNode:
    text: str


@dataclass(frozen=True)
class ReferenceNode:
    path: ReferencePath


@dataclass(frozen=True)
class ForeachNode:
    var: str
    path: ReferencePath
    body: tuple
    line: int


@dataclass(frozen=True)
class IfNode:
    path: ReferencePath
    then_body: tuple
    else_body: tuple
    line: int


@dataclass(frozen=True)
class SetNode:
    var: str
    value: ReferencePath | Literal
    line: int


@dataclass(frozen=True)
class InsertNode:
    template_id: str | ReferencePath
    target: ReferencePath
    line: int


@dataclass(frozen=True)
class Template:
    id: str
    nodes: tuple


def parse_template(source: str, template_id: str = "<string>") -> Template:
    """Parse template source into an AST, checking block structure."""
    parser = _Parser(source, template_id)
    nodes = parser.parse()
    return Template(template_id, nodes)


class _Parser:
    def __init__(self, source: str, template_id: str):
        self.source = source
        self.template_id = template_id
        self.pos = 0
        self.line = 1

    def fail(self, exc_type, message, line=None):
        raise exc_type(message, template_id=self.template_id,
                       line=self.line if line is None else line)

    def parse(self) -> tuple:
        nodes, terminator = self._parse_block(())
        assert terminator is None
        return nodes

    def _parse_block(self, terminators: tuple) -> tuple[tuple, str | None]:
        nodes: list = []
        buffer: list[str] = []

        def flush():
            if buffer:
                nodes.append(TextNode("".join(buffer)))
                buffer.clear()

        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == "\\" and self.pos + 1 < len(src) and src[self.pos + 1] in "$#":
                buffer.append(src[self.pos + 1])
                self.pos += 2
            elif ch == "$" and self._reference_follows():
                flush()
                nodes.append(ReferenceNode(self._parse_reference()))
            elif ch == "#" and self.pos + 1 < len(src) and src[self.pos + 1].isalpha():
                start_line = self.line
                word = self._peek_word()
                if word not in _DIRECTIVES:
                    self.fail(UnknownDirectiveError, f"unknown directive #{word}")
                if word in terminators:
                    flush()
                    self._consume_directive_name(word)
                    self._gobble_newline()
                    return tuple(nodes), word
                if word in ("end", "else"):
                    self.fail(UnclosedBlockError, f"#{word} without an open block")
                flush()
                nodes.append(self._parse_directive(word, start_line))
            else:
                if ch == "\n":
                    self.line += 1
                buffer.append(ch)
                self.pos += 1
        if terminators:
            self.fail(UnclosedBlockError,
                      f"reached end of template while looking for #{terminators[0]}")
        flush()
        return tuple(nodes), None

    def _reference_follows(self) -> bool:
        nxt = self.source[self.pos + 1: self.pos + 2]
        return nxt == "{" or (nxt != "" and (nxt.isalpha() or nxt == "_"))

    def _peek_word(self) -> str:
        match = _WORD.match(self.source, self.pos + 1)
        return match.group(0) if match else ""

    def _consume_directive_name(self, word: str):
        self.pos += 1 + len(word)

    def _parse_directive(self, word: str, line: int):
        self._consume_directive_name(word)
        if word == "foreach":
            self._expect("(")
            self._skip_spaces()
            var = self._parse_loop_var()
            self._skip_spaces()
            self._expect_word("in")
            self._skip_spaces()
            path = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            body, _ = self._parse_block(("end",))
            return ForeachNode(var, path, body, line)
        if word == "if":
            self._expect("(")
            self._skip_spaces()
            path = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            then_body, terminator = self._parse_block(("else", "end"))
            else_body: tuple = ()
            if terminator == "else":
                else_body, _ = self._parse_block(("end",))
            return IfNode(path, then_body, else_body, line)
        if word == "set":
            self._expect("(")
            self._skip_spaces()
            var = self._parse_loop_var()
            self._skip_spaces()
            self._expect("=")
            self._skip_spaces()
            value = self._parse_value()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            return SetNode(var, value, line)
        if word == "insert":
            self._expect("(")
            self._skip_spaces()
            template_id = self._parse_insert_id()
            self._skip_spaces()
            self._expect(",")
            self._skip_spaces()
            target = self._parse_reference()
            self._skip_spaces()
            self._expect(")")
            self._gobble_newline()
            return InsertNode(template_id, target, line)
        raise AssertionError(word)

    def _parse_loop_var(self) -> str:
        if self.source[self.pos: self.pos + 1] != "$":
            self.fail(MalformedReferenceError, "expected a $variable")
        self.pos += 1
        name = self._parse_identifier()
        if self.source[self.pos: self.pos + 1] == ".":
            self.fail(MalformedReferenceError,
                      f"${name} must be a bare variable name here, not a path")
        return name

    def _parse_value(self) -> ReferencePath | Literal:
        src = self.source
        ch = src[self.pos: self.pos + 1]
        if ch == "$":
            return self._parse_reference()
        if ch == '"':
            end = src.find('"', self.pos + 1)
            if end < 0 or "\n" in src[self.pos + 1: end]:
                self.fail(MalformedReferenceError, "unterminated string literal")
            text = src[self.pos + 1: end]
            self.pos = end + 1
            return Literal(text)
        match = _NUMBER.match(src, self.pos)
        if match:
            self.pos = match.end()
            text = match.group(0)
            return Literal(float(text) if "." in text else int(text))
        for keyword, value in (("true", True), ("false", False)):
            if src.startswith(keyword, self.pos):
                self.pos += len(keyword)
                return Literal(value)
        self.fail(MalformedReferenceError, "expected a reference or literal")

    def _parse_insert_id(self) -> str | ReferencePath:
        ch = self.source[self.pos: self.pos + 1]
        if ch == "$":
            return self._parse_reference()
        if ch == '"':
            literal = self._parse_value()
            return literal.value
        return self._parse_identifier()

    def _parse_reference(self) -> ReferencePath:
        line = self.line
        src = self.source
        if src[self.pos: self.pos + 1] != "$":
            self.fail(MalformedReferenceError, "expected a $reference")
        start = self.pos
        self.pos += 1
        braced = src[self.pos: self.pos + 1] == "{"
        if braced:
            self.pos += 1
        root = self._parse_identifier()
        steps: list[str] = []
        while src[self.pos: self.pos + 1] == ".":
            follower = src[self.pos + 1: self.pos + 2]
            if not (follower.isalpha() or follower == "_"):
                break
            self.pos += 1
            step = self._parse_identifier()
            if src.startswith("()", self.pos):
                step += "()"
                self.pos += 2
            normalized = normalize_accessor(step)
            if normalized.startswith("_"):
                self.fail(MalformedReferenceError,
                          f"accessor {step!r} is not addressable", line)
            steps.append(normalized)
        if braced:
            if src[self.pos: self.pos + 1] != "}":
                self.fail(MalformedReferenceError,
                          "missing '}' after braced reference", line)
            self.pos += 1
        if root.startswith("_"):
            self.fail(MalformedReferenceError,
                      f"reference root {root!r} is not addressable", line)
        return ReferencePath(src[start: self.pos], root, tuple(steps), line)

    def _parse_identifier(self) -> str:
        match = _IDENT.match(self.source, self.pos)
        if not match:
            self.fail(MalformedReferenceError,
                      f"expected an identifier at {self.source[self.pos: self.pos + 10]!r}")
        self.pos = match.end()
        return match.group(0)

    def _skip_spaces(self):
        while self.source[self.pos: self.pos + 1] in (" ", "\t"):
            self.pos += 1

    def _expect(self, char: str):
        if self.source[self.pos: self.pos + 1] != char:
            found = self.source[self.pos: self.pos + 1] or "end of template"
            self.fail(MalformedReferenceError, f"expected {char!r}, found {found!r}")
        self.pos += 1

    def _expect_word(self, word: str):
        if not self.source.startswith(word, self.pos):
            self.fail(MalformedReferenceError, f"expected {word!r}")
        self.pos += len(word)

    def _gobble_newline(self):
        if self.source.startswith("\r\n", self.pos):
            self.pos += 2
            self.line += 1
        elif self.source.startswith("\n", self.pos):
            self.pos += 1
            self.line += 1


@dataclass(frozen=True)
class RenderResult:
    text: str
    warnings: tuple[str, ...] = ()


_MISSING = object()


class TemplateEngine:
    """Holds a library of parsed templates and renders them against a scope.

    The scope is a mapping from root names to arbitrary objects; steps
    resolve via mapping keys or attributes, and zero-argument callables
    are invoked.  ``#insert`` runs the named template with a scope made
    of the original top-level roots plus the target node under the name
    the node publishes as its ``_root``.
    """

    def __init__(self, templates: Mapping[str, Template] | None = None, *,
                 strict: bool = True):
        self._templates: dict[str, Template] = dict(templates or {})
        self.strict = strict

    def register(self, template_id: str, source: str) -> Template:
        template = parse_template(source, template_id)
        self._templates[template_id] = template
        return template

    def template(self, template_id: str) -> Template:
        try:
            return self._templates[template_id]
        except KeyError:
            raise UnknownTemplateIdError(
                f"no template registered under {template_id!r}") from None

    def template_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._templates))

    def render(self, template_id: str, scope: Mapping[str, object]) -> RenderResult:
        return self.render_template(self.template(template_id), scope)

    def render_template(self, template: Template,
                        scope: Mapping[str, object]) -> RenderResult:
        state = _RenderState(self, dict(scope))
        parts: list[str] = []
        state.emit(template, template.nodes, dict(scope), parts, depth=0)
        return RenderResult("".join(parts), tuple(state.warnings))


def render_string(source: str, scope: Mapping[str, object], *,
                  strict: bool = True,
                  library: Mapping[str, Template] | None = None) -> RenderResult:
    """Parse and render a one-off template in a single call."""
    engine = TemplateEngine(library, strict=strict)
    return engine.render_template(parse_template(source), scope)


class _RenderState:
    def __init__(self, engine: TemplateEngine, top_scope: dict):
        self.engine = engine
        self.top_scope = top_scope
        self.warnings: list[str] = []

    def emit(self, template: Template, nodes: Iterable, scope: dict,
             parts: list[str], depth: int):
        for node in nodes:
            if isinstance(node, TextNode):
                parts.append(node.text)
            elif isinstance(node, ReferenceNode):
                value = self.resolve(template, node.path, scope)
                if value is not _MISSING:
                    parts.append(_to_text(value))
            elif isinstance(node, ForeachNode):
                self._emit_foreach(template, node, scope, parts, depth)
            elif isinstance(node, IfNode):
                value = self._resolve_quietly(node.path, scope)
                branch = node.then_body if _truthy(value) else node.else_body
                self.emit(template, branch, scope, parts, depth)
            elif isinstance(node, SetNode):
                value = (node.value.value if isinstance(node.value, Literal)
                         else self.resolve(template, node.value, scope))
                if value is not _MISSING:
                    scope[node.var] = value
            elif isinstance(node, InsertNode):
                self._emit_insert(template, node, scope, parts, depth)
            else:
                raise AssertionError(node)

    def _emit_foreach(self, template, node: ForeachNode, scope, parts, depth):
        value = self.resolve(template, node.path, scope)
        if value is _MISSING:
            return
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise NonIterableInForeachError(
                f"{node.path.raw} is not iterable",
                template_id=template.id, line=node.line)
        for item in value:
            child = dict(scope)
            child[node.var] = item
            self.emit(template, node.body, child, parts, depth)

    def _emit_insert(self, template, node: InsertNode, scope, parts, depth):
        if depth >= _MAX_INSERT_DEPTH:
            raise TemplateError("#insert nesting exceeds the depth limit"
                                " (template cycle?)",
                                template_id=template.id, line=node.line)
        if isinstance(node.template_id, ReferencePath):
            resolved = self.resolve(template, node.template_id, scope)
            if resolved is _MISSING:
                return
            template_id = _to_text(resolved)
        else:
            template_id = node.template_id
        try:
            inserted = self.engine.template(template_id)
        except UnknownTemplateIdError:
            if self.engine.strict:
                raise UnknownTemplateIdError(
                    f"#insert names unknown template {template_id!r}",
                    template_id=template.id, line=node.line) from None
            self.warnings.append(
                f"{template.id}:{node.line}: skipped #insert of unknown"
                f" template {template_id!r}")
            return
        target = self.resolve(template, node.target, scope)
        if target is _MISSING:
            return
        root = getattr(target, "_root", None)
        if not isinstance(root, str):
            raise TemplateError(
                f"#insert target {node.target.raw} does not publish a root name",
                template_id=template.id, line=node.line)
        child = dict(self.top_scope)
        child[root] = target
        self.emit(inserted, inserted.nodes, child, parts, depth + 1)

    def resolve(self, template: Template, path: ReferencePath, scope: dict):
        value, failure = _walk(path, scope)
        if failure is None:
            return value
        if self.engine.strict:
            raise UnresolvedReferenceError(
                f"cannot resolve {path.raw}: {failure}",
                template_id=template.id, line=path.line)
        self.warnings.append(
            f"{template.id}:{path.line}: unresolved reference {path.raw}"
            f" ({failure})")
        return _MISSING

    def _resolve_quietly(self, path: ReferencePath, scope: dict):
        value, failure = _walk(path, scope)
        return _MISSING if failure is not None else value


def _walk(path: ReferencePath, scope: Mapping) -> tuple[object, str | None]:
    if path.root not in scope:
        return None, f"{path.root!r} is not in scope"
    value = scope[path.root]
    for step in path.steps:
        if isinstance(value, Mapping):
            if step not in value:
                return None, f"no entry {step!r}"
            value = value[step]
        else:
            try:
                value = getattr(value, step)
            except AttributeError:
                return None, f"{type(value).__name__} has no property {step!r}"
        if callable(value):
            value = value()
    return value, None


def _truthy(value) -> bool:
    if value is _MISSING or value is None:
        return False
    return bool(value)


def _to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return str(value)
