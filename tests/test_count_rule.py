"""Counts read from outside input follow one rule, ``settings.decimal_count``.

``str.isdigit``, ``isdecimal`` and ``isnumeric`` hold for characters such
as ``"\u00b2"`` that ``int`` rejects, so a check built on them lets through a
count that ``int`` then fails on. No module of the package but
``settings.py`` may use them.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blogwatch"
DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def test_only_settings_tests_strings_for_digits():
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "settings.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS]
    assert uses == [], f"digit tests outside settings.py: {uses}"
