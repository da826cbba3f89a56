"""Every memoized function of the package can be found and cleared by name.

A benchmark that clears caches between passes finds them among the public
module-level functions; a private or nested cache would survive the clearing
and carry its entries, and their memory, into the next pass.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hallbound"


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in {"lru_cache", "cache"}


def test_every_cached_function_is_public_and_module_level():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    cached, hidden = [], []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_cache(d) for d in node.decorator_list):
                continue
            cached.append(f"{path.name}: {node.name}")
            if node.name.startswith("_") or id(node) not in top_level:
                hidden.append(f"{path.name}: {node.name}")
    assert cached
    assert hidden == []
