"""Shared fixtures and hypothesis strategies for the test suite.

The strategies build random permutations as shuffled image tuples, so every
generated value is a legal group element and shrinking stays inside the
domain.  Groups used across modules are built once per session.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hallbound import Permutation, make_named

SRC = Path(__file__).resolve().parent.parent / "src" / "hallbound"


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in {"lru_cache", "cache"}


def cached_definitions() -> list[tuple[str, str, bool]]:
    """(module, function name, defined at module level) for every memoized
    function of the package, read from its source."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_cache(d) for d in node.decorator_list
            ):
                found.append((path.stem, node.name, id(node) in top_level))
    return found


def permutations_of_degree(degree: int):
    """Strategy producing Permutation objects on {0..degree-1}."""
    return st.permutations(range(degree)).map(lambda images: Permutation(images))


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def random_subgroup_gens(rng: random.Random) -> tuple[int, list[Permutation]]:
    """One or two random elements of S6..S8, raised to small powers so that
    small subgroups turn up as well as the giants."""
    degree = rng.randint(6, 8)
    gens = [
        random_permutation(rng, degree) ** rng.choice([1, 1, 2, 3, 4, 6])
        for _ in range(rng.randint(1, 2))
    ]
    return degree, gens


@pytest.fixture(scope="session")
def s4():
    return make_named("S4")


@pytest.fixture(scope="session")
def a4():
    return make_named("A4")


@pytest.fixture(scope="session")
def a5():
    return make_named("A5")


@pytest.fixture(scope="session")
def sl25():
    return make_named("SL(2,5)")
