"""Every relative check in the suite states its absolute floor.

pytest.approx(expected, rel=r) also accepts anything within its default
abs=1e-12, so where the expected value is below ~1e-12 a relative check
passes whatever the result is.  An approx call that gives rel= must therefore
give abs= as well: abs=0, or a floor whose reason a comment states."""

import ast
import pathlib

TESTS_DIR = pathlib.Path(__file__).parent


def _loose_calls(tree) -> list[int]:
    """Lines of the approx(..., rel=...) calls that give no abs=."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keys = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keys and "abs" not in keys:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_relative_approx_states_abs():
    loose = {}
    for path in sorted(TESTS_DIR.glob("*.py")):
        lines = _loose_calls(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            loose[path.name] = lines
    assert loose == {}, f"approx(..., rel=...) without abs= at {loose}"


def test_the_rule_sees_both_spellings():
    tree = ast.parse("assert a == pytest.approx(1.0, rel=1e-9)\n"
                     "assert b == approx(2.0, rel=1e-3, abs=0)\n"
                     "assert c == approx(3.0, rel=1e-3)\n"
                     "assert d == approx(4.0)\n")
    assert _loose_calls(tree) == [1, 3]
