"""Every memo in the package must be one that a caller can empty.

The benchmark empties the package's caches before each repetition by calling
cache_clear on every module-level attribute that has one; a memo hidden in a
nested function, a class or a call result would carry results from one
repetition into the next and make the later ones look faster."""

import ast
import importlib
import pathlib

import ginibre_overlaps

PACKAGE_DIR = pathlib.Path(ginibre_overlaps.__file__).parent
CACHE_NAMES = {"lru_cache", "cache"}


def _is_cache(node) -> bool:
    """node names functools.lru_cache or functools.cache, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in CACHE_NAMES and getattr(node.value, "id", None) == "functools"
    return isinstance(node, ast.Name) and node.id in CACHE_NAMES


def _cache_uses(tree):
    """(names of the module-level functions with a cache decorator, line of
    every other use of a cache)."""
    top, allowed = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in filter(_is_cache, node.decorator_list):
                top.add(node.name)
                allowed.update({id(d), id(getattr(d, "func", d))})
    elsewhere = sorted({node.lineno for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute, ast.Call))
                        and _is_cache(node) and id(node) not in allowed})
    return top, elsewhere


def test_every_cache_is_a_clearable_module_attribute():
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top, elsewhere = _cache_uses(tree)
        assert elsewhere == [], f"{path.name}: a cache not on a module-level function, " \
                                f"lines {elsewhere}"
        module = importlib.import_module(f"ginibre_overlaps.{path.stem}")
        for name in top:
            assert callable(getattr(getattr(module, name), "cache_clear", None)), \
                f"{path.name}: {name} has no cache_clear"
            found.add(f"{path.stem}.{name}")
    # the walk sees the caches the package is known to have
    assert {"detratio._stream_moments", "analytic_complex._log_weights"} <= found
