"""The XML rules shared by every document kind: one way to read a root,
an attribute and a list of children, and one way to write an element.

DSL and generator documents are small and parsed whole (`parse_root`).
Program documents grow with the program, so `read_document` parses them
in slices and hands each entry over as soon as it is complete, then drops
it: the element tree never exists whole.  The C tree builder grows the
tree without per-element events; the root is the only child of a
placeholder element opened before the first slice.
"""

import re
import xml.etree.ElementTree as ET
from operator import itemgetter

from .errors import XmlSyntaxError

_SLICE = 1 << 16  # characters of text parsed between two walks of the tree

# What XML 1.0 cannot carry, even as a character reference: most C0
# controls, U+FFFE, U+FFFF, and lone surrogates, which UTF-8 cannot encode.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff\ud800-\udfff]")


def parse_root(text: str, expected_tag: str) -> ET.Element:
    """Parse XML text and insist on the expected document root."""
    try:
        root = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as exc:  # the latter: a lone surrogate
        raise XmlSyntaxError(f"not well-formed XML: {exc}") from exc
    _expect_tag(root, expected_tag)
    return root


def _expect_tag(root: ET.Element, expected_tag: str) -> None:
    if root.tag != expected_tag:
        raise XmlSyntaxError(f"expected <{expected_tag}> document, found <{root.tag}>")


def read_document(text: str, root_tag: str, root_attrs: tuple[str, ...],
                  sections: dict, take) -> tuple[str, ...]:
    """Read a document whose root holds sections of entries, slice by slice.

    `sections` maps each section tag to its entry tag and the attributes
    every entry must carry.  After each slice of text, the entries that
    have completed are checked (tag, then required attributes) and handed
    to `take(section_tag, entries, rows)` in document order, `rows`
    holding each entry's required attribute values; then they are
    dropped.  Returns the values of the root's `root_attrs`.

    Errors come in the order of a walk over the whole tree: XML syntax
    anywhere, then the root's tag and attributes, then, section by
    section, an unknown section tag, the section's first stray entry and
    its first missing attribute.  Once one of these is found `take` sees
    no more entries; `take` itself must hold back its own errors until
    this returns.
    """
    builder = ET.TreeBuilder()
    holder = builder.start("", {})  # the document's root becomes its only child
    parser = ET.XMLParser(target=builder)  # no events: the C builder grows the tree
    walk = _Walk(holder, root_tag, root_attrs, sections, take)
    try:
        for at in range(0, len(text), _SLICE):
            parser.feed(text[at:at + _SLICE])  # raises a syntax error at once
            walk.step(final=False)
        parser.close()
    except (ET.ParseError, UnicodeEncodeError) as exc:
        raise XmlSyntaxError(f"not well-formed XML: {exc}") from exc
    walk.step(final=True)
    if walk.error is not None:
        raise walk.error
    return walk.values


class _Walk:
    """The walk of `read_document` over a growing tree, whose root is the
    only child of `holder`.  Only the last section of the root, and only
    its last entry, can be unfinished after a slice, so each step takes
    everything before them and drops it."""

    def __init__(self, holder, root_tag, root_attrs, sections, take):
        self.holder, self.root_tag, self.root_attrs = holder, root_tag, root_attrs
        self.sections, self.take = sections, take
        self.root = self.values = None
        self.error = None  # the first structural error
        self.missing = None  # the current section's first missing attribute

    def step(self, final: bool) -> None:
        if self.root is None:
            if not len(self.holder):
                return
            self.root = self.holder[0]
            try:
                _expect_tag(self.root, self.root_tag)
                self.values = tuple([require_attr(self.root, name) for name in self.root_attrs])
            except XmlSyntaxError as exc:
                self.error = exc
        sections = self.root[:]
        for section in sections:
            closed = final or section is not sections[-1]
            entries = section[:] if closed else section[:-1]
            if self.error is None:
                self._check(section, entries)
            del section[:len(entries)]
            if closed:
                self.root.remove(section)
                self.error = self.error or self.missing

    def _check(self, section: ET.Element, entries: list) -> None:
        if section.tag not in self.sections:
            self.error = XmlSyntaxError(f"unexpected element <{section.tag}>")
            return
        entry_tag, required = self.sections[section.tag]
        for entry in entries:
            if entry.tag != entry_tag:  # beats a missing attribute in this section
                self.error = XmlSyntaxError(
                    f"unexpected element <{entry.tag}> inside <{section.tag}>")
                return
        if self.missing is None:
            try:
                rows = _required(entries, required)
            except XmlSyntaxError as exc:
                self.missing = _detached(exc)
            else:
                self.take(section.tag, entries, rows)


def _detached(exc: BaseException) -> BaseException:
    """`exc` held for later: without the tracebacks, down its chain, whose
    frames would keep the elements they saw alive."""
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


def _required(elems: list, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Each element's values of the attributes `names`, which it must carry."""
    values = itemgetter(*names)
    try:
        return [values(elem.attrib) for elem in elems]
    except KeyError:  # report the first one missing
        return [tuple([require_attr(elem, attr) for attr in names]) for elem in elems]


def require_attr(elem: ET.Element, name: str) -> str:
    value = elem.get(name)
    if value is None:
        raise XmlSyntaxError(f"<{elem.tag}> is missing required attribute {name!r}")
    return value


def _children(elem: ET.Element, tag: str) -> list[ET.Element]:
    """The children of `elem`, which must all be <tag> elements."""
    children = elem.findall(tag)  # a plain tag is matched in C
    if len(children) != len(elem):
        stray = next(child for child in elem if child.tag != tag)
        raise XmlSyntaxError(f"unexpected element <{stray.tag}> inside <{elem.tag}>")
    return children


def _write_element(lines: list[str], indent: str, tag: str, attrs=(), children=()) -> None:
    """Append <tag> at `indent` to `lines`, its `(name, value)` attributes
    quoted in order.  Each child is a `(tag, attrs, children)` tuple written
    two spaces deeper; an element without children closes itself."""
    head = indent + "<" + tag + "".join([f" {name}={attr_escape(value)}" for name, value in attrs])
    if not children:
        lines.append(head + "/>")
        return
    lines.append(head + ">")
    for child in children:
        _write_element(lines, indent + "  ", *child)
    lines.append(f"{indent}</{tag}>")


def attr_escape(value: str) -> str:
    """Quote an attribute value, double quotes preferred.  A character
    XML cannot carry is an XmlSyntaxError.

    The quoting rules of `xml.sax.saxutils.quoteattr`, whose module imports
    `urllib.request` and with it `http.client`, `email` and `ssl`.
    """
    text = str(value)
    if bad := _NOT_XML.search(text):
        raise XmlSyntaxError(f"{text!r}: XML cannot carry the character {bad.group()!r}")
    text = (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'
