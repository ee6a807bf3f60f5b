"""No library function or method is kept alive only by the tests: each
one is named somewhere in ``src/`` outside its own body."""

import ast
from collections import Counter
from pathlib import Path

import gkcover

SRC = Path(gkcover.__file__).resolve().parent

# Methods that override a base-class method, which the base class calls.
OVERRIDES = {
    "cli._Parser.error": "argparse.ArgumentParser calls it on a usage error",
}


def definitions(tree, module):
    """(qualified name, def node) of every module-level function and of
    every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item


def names_used(node):
    """Every name that ``node`` reads, as a variable or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_function_is_named_outside_its_own_body():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in names_used(tree))
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree, module):
            name = node.name
            # the interpreter calls dunder methods; gkcover.__all__ is the API
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in gkcover.__all__ or qualname in OVERRIDES:
                continue
            if used[name] == Counter(names_used(node))[name]:
                unused.append(qualname)
    assert unused == []
