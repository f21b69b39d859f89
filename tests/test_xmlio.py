"""Attribute quoting and the import cost of the XML helpers."""

import os
import random
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

from seqc.xmlio import attr_escape

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_attr_escape_matches_quoteattr_on_random_strings():
    rng = random.Random(7)
    for _ in range(1000):
        value = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        assert attr_escape(value) == quoteattr(value), repr(value)


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
