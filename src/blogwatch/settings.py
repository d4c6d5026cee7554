"""Line-based text files, read strictly as UTF-8, and ``key = value``
settings typed by a dataclass. Every reader fails as ``ConfigError``
naming the file, and the line where there is one.

One setting per line; blank lines and ``#`` comments are skipped. Each
value is converted by the type of its dataclass field: ``int``, ``str``,
a finite ``float``, or for ``tuple`` an integer ``lo:hi`` range.
"""
import math
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError


def finite_float(value) -> float:
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError(f"expected a finite number, got {value!r}")
    return parsed


def _int_range(value) -> tuple:
    lo, sep, hi = value.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {value!r}")
    return int(lo), int(hi)


_CONVERTERS = {int: int, str: str, float: finite_float, tuple: _int_range}


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, newlines translated as in
    text mode. A file that cannot be read raises ``ConfigError`` naming
    ``path``, and a bad byte one naming ``path:line``, lines broken at
    ``\\n``, ``\\r\\n`` and ``\\r``."""
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # decode line by line to name the first bad line, and to describe
        # the bad bytes as that line's decode does
        for lineno, raw in enumerate(data.splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
        raise   # not reached: line breaks are ASCII, so a bad byte lies in a line
    if "\r" not in text:   # a cheap scan; replacing "\r\n" is not
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_lines(path) -> list:
    """The lines of the text file at ``path``, broken as ``read_text``
    translates them. It fails as ``read_text`` does."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":     # a final line break ends the last line
        lines.pop()
    return lines


def read_corpus(path) -> list:
    """The documents of a corpus: a directory of *.txt files (one document
    each), or a file with one document per line that is not blank. It
    fails as ``read_text`` does."""
    p = Path(path)
    if p.is_dir():
        return [read_text(f) for f in sorted(p.glob("*.txt"))]
    return [line for line in read_lines(p) if line.strip()]


def read_words(path) -> frozenset:
    """The lowercased entries of a one-per-line file at ``path``; blank
    lines and ``#`` comments are skipped. It fails as ``read_lines`` does."""
    words = (line.strip().lower() for line in read_lines(path))
    return frozenset(w for w in words if w and not w.startswith("#"))


def read_settings(path, cls) -> dict:
    """The ``{field name: value}`` pairs the file at ``path`` sets for the
    dataclass ``cls``. A line without ``=``, a key that is not a field of
    ``cls`` or a value with a NUL or that its field type rejects raises
    ``ConfigError`` naming ``path:line``."""
    types = {f.name: f.type for f in fields(cls)}
    settings = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if "\0" in value:
            raise ConfigError(f"{path}:{lineno}: NUL byte in {key!r}")
        try:
            settings[key] = _CONVERTERS[types[key]](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return settings
