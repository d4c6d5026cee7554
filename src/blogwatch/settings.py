"""Line-based text files, read strictly as UTF-8, and ``key = value``
settings typed by a dataclass. Every reader fails as ``ConfigError``
naming the file, and the line where there is one.

Every line-oriented file but a corpus is read by ``read_rows``, which
skips blank lines and ``#`` comments. A ``key = value`` setting is typed
by its dataclass field: ``int``, ``str``, a finite ``float``, or for
``tuple`` an integer ``lo:hi`` range.
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


def decimal_count(text):
    """``text`` as a count if it is 1 to 18 ASCII digits (below 10**18, past
    any real count and within ``int``'s digit limit), else None: the rule
    for every count read from outside input."""
    return int(text) if text and len(text) <= 18 and text.isascii() and text.isdigit() else None


def _int_range(value) -> tuple:
    lo, sep, hi = value.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {value!r}")
    return int(lo), int(hi)


_CONVERTERS = {int: int, str: str, float: finite_float, tuple: _int_range}


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, newlines translated as in
    text mode. A file that cannot be read raises ``ConfigError`` naming
    ``path``, and a bad byte one naming ``path:line``, lines broken at
    ``\\n``, ``\\r\\n`` and ``\\r``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
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
    each), or a file with one document per non-blank line, ``#`` lines
    included. It fails as ``read_text`` does."""
    p = Path(path)
    if p.is_dir():
        return [read_text(f) for f in sorted(p.glob("*.txt"))]
    return [line for line in read_lines(p) if line.strip()]


def is_data_line(line) -> bool:
    """Whether ``read_rows`` parses ``line``: it is not blank, and its
    first non-space character is not ``#``."""
    return line.lstrip()[:1] not in ("", "#")


def read_rows(path, parse, lines=None) -> list:
    """``parse(line)`` of each data line (``is_data_line``) of the file at
    ``path``, or of its ``lines`` where the caller has read them by
    ``read_lines``. A ``ValueError``, ``OSError`` or ``ConfigError`` from
    ``parse`` raises one naming ``path:line``; the file fails as
    ``read_lines`` does."""
    rows = []
    for lineno, line in enumerate(read_lines(path) if lines is None else lines, 1):
        if not is_data_line(line):
            continue
        try:
            rows.append(parse(line))
        except (OSError, ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return rows


def read_words(path) -> frozenset:
    """The lowercased entries of a one-per-line file, read by ``read_rows``."""
    return frozenset(read_rows(path, lambda line: line.strip().lower()))


def parse_setting(line, types) -> tuple:
    """The ``(key, value)`` a ``key = value`` line sets, the value typed by
    ``types[key]`` (a field type or a function). A line without ``=``, an
    unknown key, a NUL or a value its type rejects raises ``ValueError``."""
    key, sep, value = (p.strip() for p in line.partition("="))
    if not sep:
        raise ValueError("expected key = value")
    if key not in types:
        raise ValueError(f"unknown key {key!r}")
    if "\0" in value:
        raise ValueError(f"NUL byte in {key!r}")
    try:
        return key, _CONVERTERS.get(types[key], types[key])(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def read_pairs(path, types, lines=None) -> dict:
    """The ``{key: value}`` pairs the file at ``path`` (or its ``lines``)
    sets, in file order, each line read by ``read_rows`` and
    ``parse_setting(line, types)``. A key set twice raises ``ConfigError``
    naming its second line."""
    pairs = {}

    def parse(line):
        key, value = parse_setting(line, types)
        if key in pairs:
            raise ValueError(f"key {key!r} set twice")
        pairs[key] = value

    read_rows(path, parse, lines)
    return pairs


def read_settings(path, cls) -> dict:
    """The ``{field name: value}`` pairs the file at ``path`` sets for the
    dataclass ``cls``, read by ``read_pairs``."""
    return read_pairs(path, {f.name: f.type for f in fields(cls)})
