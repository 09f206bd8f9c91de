"""The file codecs' shared rules: the rational text form "p/q", the JSON
reader (read_json), which maps text that is not UTF-8 or not JSON to the
caller's error class and a number past the interpreter's int/str digit
limit (4,300 digits by default) to DigitLimitError, and the state file.
The instance schema is in game.py and the trace schema in dynamics.py:
they build the package's types, which this module does not import.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import IO, Sequence

from .errors import DigitLimitError, InstanceError, MalformedInstanceError

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a strict "p/q" or integer string into an exact Fraction; decimal
    notation is rejected, so exact quantities never pass through floats."""
    match = _RATIONAL_RE.match(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise MalformedInstanceError(f"not a rational 'p/q' string: {text!r}")
    numerator, denominator = match.groups("1")
    try:
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError as exc:
        raise MalformedInstanceError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise DigitLimitError(f"rational string too long: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    try:
        return str(value)  # Fraction.__str__ writes exactly this form
    except ValueError as exc:
        raise DigitLimitError(f"rational too long to write: {exc}") from exc


def read_json(source, error: type[Exception], invalid: str, where: str, lines: bool = False):
    """The JSON document of ``source`` (text, UTF-8 bytes or a text stream),
    or with lines=True the documents of its nonblank lines (JSON Lines).
    Bad text raises error(f"{invalid}: ..."), a long integer DigitLimitError."""
    try:
        text = source.read() if hasattr(source, "read") else source
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        if lines:
            return [json.loads(line) for line in text.splitlines() if line.strip()]
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise error(f"{invalid}: {exc}") from exc
    except ValueError as exc:  # an integer literal past the int/str digit limit
        raise DigitLimitError(f"integer too long in {where}: {exc}") from exc


def read_state(path: str) -> tuple[int, ...]:
    """The choices of a state file, {"choices": [<integer>, ...]}."""
    with open(path, encoding="utf-8") as fp:
        doc = read_json(fp, MalformedInstanceError, f"{path}: invalid state JSON", "state file")
    choices = doc.get("choices") if isinstance(doc, dict) else None
    if not isinstance(choices, list) or not all(type(k) is int for k in choices):
        raise InstanceError(f"{path}: state file must be {{\"choices\": [<integer>, ...]}}")
    return tuple(choices)


def write_state(choices: Sequence[int], fp: IO[str]) -> None:
    """Write a state file: {"choices": [...]} on one line."""
    fp.write(json.dumps({"choices": list(choices)}) + "\n")
