"""Every exhausted cap or budget raises through errors.check_cap.

One helper decides whether a cap is exceeded, so every CapExceeded carries
needed and cap and names the operation that ran out; a hand-rolled raise
elsewhere would bring back a message without them.
"""

import ast
from pathlib import Path

import pytest

from hallbound import CapExceeded, clear_caches, group_from_spec, minimal_normal_subgroups
from hallbound.errors import check_cap

SRC = Path(__file__).resolve().parent.parent / "src" / "hallbound"


def _builds_cap_exceeded(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "CapExceeded"


def test_cap_exceeded_is_built_only_in_check_cap():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    inside = 0
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = set()
        for node in tree.body:
            if path.name == "errors.py" and getattr(node, "name", "") == "check_cap":
                helper = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not _builds_cap_exceeded(node):
                continue
            if id(node) in helper:
                inside += 1
            else:
                outside.append(f"{path.name}:{node.lineno}")
    assert inside == 1
    assert outside == []


def test_check_cap_raises_exactly_above_the_cap():
    check_cap(10, 10, "test: size")
    with pytest.raises(CapExceeded) as info:
        check_cap(11, 10, "test: size")
    assert (info.value.needed, info.value.cap) == (11, 10)
    assert str(info.value) == "test: size 11 exceeds cap 10"


def test_construction_degree_cap():
    with pytest.raises(CapExceeded, match="construction") as info:
        group_from_spec("C20001")
    assert (info.value.needed, info.value.cap) == (20001, 20000)


@pytest.mark.parametrize("spec", ["S10", "A10"])
def test_giants_over_the_cap_have_the_alternating_group_as_minimal_normal(spec):
    # Recognised by order, so neither giant needs a certificate under the cap
    a10 = group_from_spec("A10")
    minimals = minimal_normal_subgroups(group_from_spec(spec))
    assert len(minimals) == 1
    assert minimals[0].same_group_as(a10)


def test_primitive_group_over_the_cap_names_the_minimal_normal_search(monkeypatch):
    # PSL(2,13) on 14 points has no orbit or block kernel to search and is
    # no giant, so over a lowered cap the search stops before enumerating
    g = group_from_spec("PSL(2,13)")
    clear_caches()
    monkeypatch.setenv("HALLBOUND_CAP", "1000")
    try:
        with pytest.raises(CapExceeded, match="minimal normal search") as info:
            minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert (info.value.needed, info.value.cap) == (1092, 1000)


def test_every_config_constant_is_read():
    # A cap or budget that no code reads is a dead knob: setting it changes
    # nothing.  Every module-level name that config.py assigns is loaded
    # somewhere in the package, config.py included.
    config = ast.parse((SRC / "config.py").read_text())
    assigned = {
        target.id
        for node in config.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = {
        node.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert assigned
    assert sorted(assigned - read) == []
