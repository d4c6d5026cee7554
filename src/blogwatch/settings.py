"""``key = value`` settings files, typed by a dataclass.

One setting per line; blank lines and ``#`` comments are skipped. Each
value is converted by the type of its dataclass field: ``int``, ``str``,
a finite ``float``, or for ``tuple`` an integer ``lo:hi`` range.
"""
import math
from dataclasses import fields


def _finite_float(value) -> float:
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError(f"expected a finite number, got {value!r}")
    return parsed


def _int_range(value) -> tuple:
    lo, sep, hi = value.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {value!r}")
    return int(lo), int(hi)


_CONVERTERS = {int: int, str: str, float: _finite_float, tuple: _int_range}


def read_settings(path, cls, error) -> dict:
    """The ``{field name: value}`` pairs the file at ``path`` sets for the
    dataclass ``cls``. A line without ``=``, a key that is not a field of
    ``cls`` or a value its field type rejects raises ``error`` naming
    ``path:line``."""
    types = {f.name: f.type for f in fields(cls)}
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}:{lineno}: expected key = value")
            key, _, value = (p.strip() for p in line.partition("="))
            if key not in types:
                raise error(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = _CONVERTERS[types[key]](value)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
    return settings
