"""src/ keeps no function that only tests call: every function and method
defined in src/depnn is referenced from src/depnn, bench/ or
pyproject.toml. Dunder methods are exempt: Python calls them."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(tree):
    """Every name, attribute and string constant of a module: a function is
    called by its name, as a method, or looked up by a string (the bench
    wraps functions by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_source_function_is_referenced_outside_the_tests():
    sources = sorted((ROOT / "src" / "depnn").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + sorted((ROOT / "bench").glob("*.py"))}
    used = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    for tree in trees.values():
        used.update(referenced_names(tree))
    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path in sources for node in ast.walk(trees[path])
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert not unused, "defined in src/depnn but referenced only from tests:\n" + "\n".join(unused)


def test_only_numerics_knows_how_the_store_holds_and_multiplies_a_tensor():
    """A tensor's pending factors and the small-product limit that its row
    blocks are cut by are named in src/depnn by numerics alone."""
    for path in sorted((ROOT / "src" / "depnn").glob("*.py")):
        if path.name != "numerics.py":
            names = set(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
            assert not names & {"factors", "SMALL_PRODUCT"}, path.name
