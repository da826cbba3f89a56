"""Every memoized function of the package can be found and cleared by name.

A benchmark that clears caches between passes finds them among the public
module-level functions; a private or nested cache would survive the clearing
and carry its entries, and their memory, into the next pass.
"""

import importlib

from conftest import cached_definitions
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
