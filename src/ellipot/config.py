"""Line-oriented run configuration: [section] headers, key = value pairs.

Values are scalars (int, float, true/false), arrays in square brackets,
quoted strings (used for expressions and paths), or bare enum-like
tokens.  Parsing is strict: anything that fits none of these forms is an
error naming the section and key.
"""

from __future__ import annotations

import configparser
import re
from pathlib import Path

from .errors import ConfigError

_MISSING = object()
_BARE_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9.\-]*$")


def _parse_value(text, where):
    text = text.strip()
    if not text:
        raise ConfigError(f"{where}: empty value")
    if text[0] in "\"'":
        if len(text) < 2 or text[-1] != text[0]:
            raise ConfigError(f"{where}: unterminated quote")
        return text[1:-1]
    if text[0] == "[":
        if text[-1] != "]":
            raise ConfigError(f"{where}: unterminated bracket list")
        body = text[1:-1].replace(",", " ").split()
        out = []
        for item in body:
            out.append(_parse_number(item, where))
        return out
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return _parse_number(text, where)
    except ConfigError:
        pass
    if _BARE_RE.match(text):
        return text
    raise ConfigError(f"{where}: cannot parse value {text!r}")


def _parse_number(text, where):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not a number")


class RunConfig:
    """Parsed configuration with typed access helpers."""

    def __init__(self, data, path=None):
        self.data = data
        self.path = path

    @classmethod
    def from_text(cls, text, path=None):
        parser = configparser.ConfigParser(
            interpolation=None,
            delimiters=("=",),
            comment_prefixes=("#", ";"),
            inline_comment_prefixes=None,
            strict=True,
        )
        try:
            parser.read_string(text, source=str(path or "<config>"))
        except configparser.Error as exc:
            raise ConfigError(str(exc))
        data = {}
        for section in parser.sections():
            sec = {}
            for key, raw in parser.items(section):
                sec[key] = _parse_value(raw, f"[{section}] {key}")
            data[section] = sec
        return cls(data, path)

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_text(path.read_text(), path)

    def has(self, section, key=None):
        if key is None:
            return section in self.data
        return section in self.data and key in self.data[section]

    def get(self, section, key, default=_MISSING, kind=None):
        """Fetch a value with optional type enforcement.

        kind: one of 'int', 'float', 'str', 'list', 'bool'.  int is
        accepted where float is asked; a scalar is promoted to a
        one-element list where a list is asked.
        """
        sec = self.data.get(section)
        if sec is None or key not in sec:
            if default is _MISSING:
                raise ConfigError(f"missing required [{section}] {key}")
            return default
        val = sec[key]
        where = f"[{section}] {key}"
        if kind is None:
            return val
        if kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{where}: expected an integer, got {val!r}")
            return val
        if kind == "float":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"{where}: expected a number, got {val!r}")
            return float(val)
        if kind == "str":
            if not isinstance(val, str):
                raise ConfigError(f"{where}: expected a string, got {val!r}")
            return val
        if kind == "bool":
            if not isinstance(val, bool):
                raise ConfigError(f"{where}: expected true/false, got {val!r}")
            return val
        if kind == "list":
            if isinstance(val, list):
                return val
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                return [val]
            raise ConfigError(f"{where}: expected a list, got {val!r}")
        raise ValueError(f"unknown kind {kind!r}")
