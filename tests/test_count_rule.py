"""Numbers read from outside input follow the rules of ``settings.py``:
``decimal_count`` for a count and ``finite_float`` for a real number.

``str.isdigit``, ``isdecimal`` and ``isnumeric`` hold for characters such
as ``"\u00b2"`` that ``int`` rejects, so a check built on them lets through a
count that ``int`` then fails on. ``float`` reads ``"inf"``, ``"nan"`` and
non-ASCII digits such as ``"\u0663"``. No module of the package but
``settings.py`` may use the digit tests, or call ``float`` on anything but
a constant.
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


def test_only_settings_calls_float_on_a_variable():
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "settings.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"
             and not all(isinstance(arg, ast.Constant) for arg in node.args)]
    assert calls == [], f"float() of a non-constant outside settings.py: {calls}"
