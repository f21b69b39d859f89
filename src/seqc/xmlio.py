"""The XML rules shared by every document kind: one way to read a root,
an attribute and a list of children, and one way to write an element."""

import xml.etree.ElementTree as ET

from .errors import XmlSyntaxError


def parse_root(text: str, expected_tag: str) -> ET.Element:
    """Parse XML text and insist on the expected document root."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"not well-formed XML: {exc}") from exc
    if root.tag != expected_tag:
        raise XmlSyntaxError(f"expected <{expected_tag}> document, found <{root.tag}>")
    return root


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
    """Quote an attribute value, double quotes preferred.

    The rules of `xml.sax.saxutils.quoteattr`, whose module imports
    `urllib.request` and with it `http.client`, `email` and `ssl`.
    """
    text = (str(value).replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'
