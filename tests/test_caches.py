"""Every memoized function of the package can be found and cleared by name.

A benchmark that clears caches between passes finds them among the public
module-level functions; a private or nested cache would survive the clearing
and carry its entries, and their memory, into the next pass.
"""

import ast
import importlib
from types import ModuleType

import hallbound
from conftest import SRC, cached_definitions
from hallbound import clear_caches, generalized_fitting_height


def test_every_cached_function_is_public_and_module_level():
    cached = cached_definitions()
    assert cached
    hidden = [
        f"{module}: {name}" for module, name, top in cached if name.startswith("_") or not top
    ]
    assert hidden == []


def test_clear_caches_empties_every_memo(s4):
    generalized_fitting_height(s4)
    clear_caches()
    for module, name, _ in cached_definitions():
        memo = getattr(importlib.import_module(f"hallbound.{module}"), name)
        assert memo.cache_info().currsize == 0, f"{module}.{name}"


def test_all_lists_every_imported_public_name_and_no_module():
    # __all__ is derived from the package's globals; it must hold exactly
    # the names the package imports from its modules, plus clear_caches
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
    }
    names = hallbound.__all__
    assert len(names) == len(set(names)) == 88
    assert set(names) == imported | {"clear_caches"}
    assert not any(isinstance(getattr(hallbound, name), ModuleType) for name in names)
    assert {"QuotientMap", "StabChain"} <= set(names)
