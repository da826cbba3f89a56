"""The package imports nothing outside the standard library, and only the
Hall search draws random numbers."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hallbound"


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_only_the_hall_search_uses_random_or_the_search_seed():
    # config.py assigns SEARCH_SEED; every other module that imports random
    # or reads the seed would make its answers depend on the draw
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "random" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "random" or "SEARCH_SEED" in (a.name for a in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                hit = name == "SEARCH_SEED" and isinstance(node.ctx, ast.Load)
            else:
                hit = False
            if hit:
                users.add(path.name)
    assert users == {"hall.py"}
