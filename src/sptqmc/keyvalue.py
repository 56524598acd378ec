"""The `key = value` text that config files and model files are written in.

One grammar serves both:

- Blank lines and lines starting with `#` are skipped.  `[section]` lines
  only organize: all keys share one namespace, and each is set once.
- Every other line is `key = value`.  A value is `true`/`false` (any case),
  a Python literal (number, quoted string, bracketed list), or else a bare
  word such as a name or a path.
- A `#` after whitespace starts an inline comment; a `#` inside a bare
  word, as in `run#1.csv`, does not.
- A value that opens with `[` continues onto the following lines until its
  brackets close.

Each reader passes the exception class its callers expect, so a config
mistake stays a config error and a model-file mistake a model error.
"""

from __future__ import annotations

import ast
import re
import sys

_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a bracketed list", lambda v: isinstance(v, (list, tuple))),
}


def read_text(path: str, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of a `what` file; text that is not UTF-8 raises error naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise error(f"{what} file {path} is not UTF-8 text") from None


def read_entries(text: str, error: type[Exception]) -> dict[str, object]:
    """Values by key, read from text in the module's grammar; a mistake raises error naming its line."""
    entries: dict[str, object] = {}
    first_line: dict[str, int] = {}
    key = None  # set while a bracketed value is still open
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if key is not None:
            value += "\n" + line
        elif not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        else:
            if "=" not in line:
                raise error(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if not key:
                raise error(f"line {lineno}: empty key")
            if key in first_line:
                raise error(f"line {lineno}: duplicate key '{key}' (first set on line {first_line[key]})")
            first_line[key] = lineno
        if value.startswith("[") and value.count("[") > value.count("]"):
            continue
        entries[key] = _parse_value(value, key, first_line[key], error)
        key = None
    if key is not None:
        raise error(f"line {first_line[key]}: the '[' opened in the value of '{key}' is never closed")
    return entries


def _parse_value(text: str, key: str, lineno: int, error: type[Exception]):
    try:
        return ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError):
        pass
    word = re.split(r"(?:^|\s)#", text, maxsplit=1)[0].strip()
    if word.lower() in ("true", "false"):
        return word.lower() == "true"
    if word and "=" not in word:
        return word
    raise error(f"line {lineno}: cannot parse value for '{key}': {text!r}")


def typed(key: str, value, expected: type, error: type[Exception]):
    """value as the expected type, or error naming the key.

    expected is bool, int, float (a finite one; an int is taken), str, list
    (a tuple is taken), or np.ndarray: a bracketed list that forms a finite
    float array.
    """
    if expected not in _KINDS:  # np.ndarray: numpy is imported only where a model's array is built
        import numpy as np
        items = typed(key, value, list, error)
        try:
            array = np.array(items, dtype=float)
        except (ValueError, TypeError):
            array = None
        if array is None or not np.isfinite(array).all():
            raise error(f"key '{key}' must be a bracketed list forming a finite numeric array, got {value!r}")
        return array
    kind, accepts = _KINDS[expected]
    if not accepts(value):
        raise error(f"key '{key}' must be {kind}, got {value!r}")
    return expected(value) if expected in (float, list) else value
