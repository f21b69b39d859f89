"""Small helpers shared by the XML loaders and writers."""

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
