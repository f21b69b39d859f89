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

Parsing is one scan that keeps the open blocks on a stack.  A body is a
tuple of plain strings for text, ReferencePaths for references and one
node per directive.  Rendering is one loop over a stack of bodies in
progress, so blocks nest to any depth.  Only ``#insert`` is capped: more
than 32 nested inserts fail the render, which catches template cycles.
"""

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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
_WORD = re.compile(r"[a-z]*")
# Everything that is not plain text: an escape, a `$` before `{`, `_` or
# a letter, and a `#` before a letter.  `[^\W\d_]` also admits the few
# numeric characters that are not letters; the parser keeps those as text.
_MARKUP = re.compile(r"\\[$#]|\$[{_]|[$#][^\W\d_]")
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
    value: ReferencePath | str | int | float | bool
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


# Each directive's node type, its arguments in order, and for a block the
# markers that end its bodies in order.  An argument is a bare $variable
# ("var"), a $reference ("ref"), a reference or literal ("value") or a
# template id ("id"); any other entry is a token that must appear as is.
# #else and #end are the markers themselves and take no arguments.
_DIRECTIVES = {
    "foreach": (ForeachNode, ("var", "in", "ref"), ("end",)),
    "if": (IfNode, ("ref",), ("else", "end")),
    "set": (SetNode, ("var", "=", "value"), ()),
    "insert": (InsertNode, ("id", ",", "ref"), ()),
    "else": None,
    "end": None,
}


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
        self.arguments = {"var": self._parse_loop_var, "ref": self._parse_reference,
                          "value": self._parse_value, "id": self._parse_insert_id}

    def fail(self, exc_type, message, line=None):
        raise exc_type(message, template_id=self.template_id,
                       line=self.line if line is None else line)

    def parse(self) -> tuple:
        src = self.source
        nodes: list = []  # the innermost open body
        text: list[str] = []
        # Open blocks, innermost last: (the markers still to come, node
        # type, arguments, line, the enclosing body, the finished bodies).
        blocks: list[tuple] = []

        def flush():
            joined = "".join(text)
            if joined:
                nodes.append(joined)
            text.clear()

        while match := _MARKUP.search(src, self.pos):
            start = match.start()
            text.append(src[self.pos: start])
            self.line += src.count("\n", self.pos, start)
            marker, follower = src[start], src[start + 1]
            if marker == "\\":
                text.append(follower)
                self.pos = start + 2
            elif not (follower.isalpha() or marker == "$" and follower in "{_"):
                text.append(marker)
                self.pos = start + 1
            elif marker == "$":
                flush()
                self.pos = start
                nodes.append(self._parse_reference())
            else:
                word = _WORD.match(src, start + 1).group()
                if word not in _DIRECTIVES:
                    end = start + 1
                    while src[end: end + 1].isalpha():
                        end += 1
                    self.fail(UnknownDirectiveError, f"unknown directive {src[start: end]}")
                directive = _DIRECTIVES[word]
                if directive is None and not (blocks and word in blocks[-1][0]):
                    self.fail(UnclosedBlockError, f"#{word} without an open block")
                flush()
                self.pos = start + 1 + len(word)
                if directive is None:
                    self._gobble_newline()
                    markers, node_type, args, line, enclosing, bodies = blocks.pop()
                    # An #if that ends without #else has an empty else body.
                    bodies += [tuple(nodes)] + [()] * markers.index(word)
                    if word == "else":
                        blocks.append((markers[1:], node_type, args, line, enclosing, bodies))
                        nodes = []
                    else:
                        nodes = enclosing
                        nodes.append(node_type(*args, *bodies, line))
                else:
                    node_type, kinds, markers = directive
                    line = self.line
                    args = self._parse_arguments(kinds)
                    if markers:
                        blocks.append((markers, node_type, args, line, nodes, []))
                        nodes = []
                    else:
                        nodes.append(node_type(*args, line))
        text.append(src[self.pos:])
        self.line += src.count("\n", self.pos)
        if blocks:
            self.fail(UnclosedBlockError,
                      f"reached end of template while looking for #{blocks[-1][0][0]}")
        flush()
        return tuple(nodes)

    def _parse_arguments(self, kinds: tuple[str, ...]) -> list:
        self._expect("(")
        args = []
        for kind in kinds:
            self._skip_spaces()
            if kind in self.arguments:
                args.append(self.arguments[kind]())
            else:
                self._expect(kind)
        self._skip_spaces()
        self._expect(")")
        self._gobble_newline()
        return args

    def _parse_loop_var(self) -> str:
        if self.source[self.pos: self.pos + 1] != "$":
            self.fail(MalformedReferenceError, "expected a $variable")
        self.pos += 1
        name = self._parse_identifier()
        if self.source[self.pos: self.pos + 1] == ".":
            self.fail(MalformedReferenceError,
                      f"${name} must be a bare variable name here, not a path")
        return name

    def _parse_value(self) -> ReferencePath | str | int | float | bool:
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
            return text
        match = _NUMBER.match(src, self.pos)
        if match:
            self.pos = match.end()
            text = match.group(0)
            try:
                return float(text) if "." in text else int(text)
            except ValueError:  # an int past the interpreter's int-string limit
                self.fail(MalformedReferenceError, f"number of {len(text)} characters is too long")
        for keyword, value in (("true", True), ("false", False)):
            if src.startswith(keyword, self.pos):
                self.pos += len(keyword)
                return value
        self.fail(MalformedReferenceError, "expected a reference or literal")

    def _parse_insert_id(self) -> str | ReferencePath:
        ch = self.source[self.pos: self.pos + 1]
        if ch == "$":
            return self._parse_reference()
        if ch == '"':
            return self._parse_value()
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

    def _expect(self, token: str):
        if not self.source.startswith(token, self.pos):
            found = self.source[self.pos: self.pos + 1] or "end of template"
            # A missing keyword is reported without what stands in its place.
            self.fail(MalformedReferenceError, f"expected {token!r}" if token.isalpha()
                      else f"expected {token!r}, found {found!r}")
        self.pos += len(token)

    def _gobble_newline(self):
        if self.source.startswith("\r\n", self.pos):
            self.pos += 2
            self.line += 1
        elif self.source.startswith("\n", self.pos):
            self.pos += 1
            self.line += 1


_MISSING = object()


class TemplateEngine:
    """Renders parsed templates against a scope; #insert names another of them.

    The scope is a mapping from root names to arbitrary objects; steps
    resolve via mapping keys or attributes, and callables are invoked
    with no arguments: a step that needs arguments, or whose call raises,
    is unresolved.
    ``#insert`` runs the named template with a scope made of the
    original top-level roots plus the target node under the name the
    node publishes as its ``_root``.  A lenient engine appends each
    render's warnings to ``warnings``, in the order they arise; one from an
    inserted body names the target, by root name and ``name``.
    """

    def __init__(self, templates: Mapping[str, Template], *, strict: bool):
        self._templates = templates
        self.strict = strict
        self.warnings: list[str] = []

    def render_template(self, template: Template, scope: Mapping[str, object]) -> str:
        top_scope = dict(scope)
        parts: list[str] = []
        # Bodies still being rendered, innermost last: (template, node iterator,
        # scope, #insert depth, #insert target of warnings).  An #if branch shares its scope.
        frames = [(template, iter(template.nodes), dict(scope), 0, "")]
        while frames:
            template, nodes, scope, depth, origin = frames[-1]
            for node in nodes:
                if type(node) is str:
                    parts.append(node)
                elif isinstance(node, ReferencePath):
                    value = self._resolve(template, node, scope, origin)
                    if value is not _MISSING:
                        parts.append(_to_text(value))
                elif isinstance(node, ForeachNode):
                    value = self._resolve(template, node.path, scope, origin)
                    if value is _MISSING:
                        continue
                    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                        raise NonIterableInForeachError(
                            f"{node.path.raw} is not iterable",
                            template_id=template.id, line=node.line)
                    # Each item renders the body in a fresh child scope.
                    frames.extend((template, iter(node.body), {**scope, node.var: item}, depth,
                                   origin) for item in reversed(list(value)))
                    break
                elif isinstance(node, IfNode):
                    value, _ = _walk(node.path, scope)  # None when unresolvable
                    branch = node.then_body if value else node.else_body
                    frames.append((template, iter(branch), scope, depth, origin))
                    break
                elif isinstance(node, SetNode):
                    value = (self._resolve(template, node.value, scope, origin)
                             if isinstance(node.value, ReferencePath) else node.value)
                    if value is not _MISSING:
                        scope[node.var] = value
                elif isinstance(node, InsertNode):
                    frame = self._insert(template, node, scope, depth, top_scope, origin)
                    if frame is not None:
                        frames.append(frame)
                        break
                else:
                    raise AssertionError(node)
            else:
                frames.pop()
        return "".join(parts)

    def _insert(self, template, node: InsertNode, scope, depth, top_scope, origin):
        """The frame that renders an #insert, or None when it is skipped."""
        if depth >= _MAX_INSERT_DEPTH:
            raise TemplateError("#insert nesting exceeds the depth limit"
                                " (template cycle?)",
                                template_id=template.id, line=node.line)
        template_id = node.template_id
        if isinstance(template_id, ReferencePath):
            resolved = self._resolve(template, template_id, scope, origin)
            if resolved is _MISSING:
                return None
            template_id = _to_text(resolved)
        inserted = self._templates.get(template_id)
        if inserted is None:
            if self.strict:
                raise UnknownTemplateIdError(
                    f"#insert names unknown template {template_id!r}",
                    template_id=template.id, line=node.line)
            self.warnings.append(f"{template.id}:{node.line}{origin}: skipped #insert of"
                                 f" unknown template {template_id!r}")
            return None
        target = self._resolve(template, node.target, scope, origin)
        if target is _MISSING:
            return None
        root = getattr(target, "_root", None)
        if not isinstance(root, str):
            raise TemplateError(
                f"#insert target {node.target.raw} does not publish a root name",
                template_id=template.id, line=node.line)
        origin = f" (inserted for {root} {target.name!r})" if hasattr(target, "name") else ""
        return inserted, iter(inserted.nodes), {**top_scope, root: target}, depth + 1, origin

    def _resolve(self, template: Template, path: ReferencePath, scope: dict, origin: str):
        value, failure = _walk(path, scope)
        if failure is None:
            return value
        if self.strict:
            raise UnresolvedReferenceError(
                f"cannot resolve {path.raw}: {failure}",
                template_id=template.id, line=path.line)
        self.warnings.append(f"{template.id}:{path.line}{origin}: unresolved reference"
                             f" {path.raw} ({failure})")
        return _MISSING


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
            try:
                value = value()
            except TypeError:  # say, a builtin method that needs an argument
                return None, f"{step!r} cannot be called without arguments"
            except Exception as exc:  # say, str.format on text holding "{"
                return None, f"{step!r} raised {exc!r}"
    return value, None


def _to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return str(value)
