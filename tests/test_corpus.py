"""Group constructions, closed-form orders, spec grammar, and file loading."""

import math

import pytest

from hallbound import (
    alternating_group,
    closed_form_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_file,
    group_from_spec,
    make_named,
    projective_special_linear_group,
    special_linear_group,
    suite_specs,
    symmetric_group,
    wreath_product,
)
from hallbound.errors import PreconditionError


def test_cyclic_and_dihedral_orders():
    assert cyclic_group(1).order() == 1
    assert cyclic_group(12).order() == 12
    assert dihedral_group(2).order() == 2
    assert dihedral_group(4).order() == 4
    assert dihedral_group(12).order() == 12
    with pytest.raises(PreconditionError):
        dihedral_group(9)


def test_symmetric_and_alternating_orders():
    for n in range(2, 8):
        assert symmetric_group(n).order() == math.factorial(n)
    for n in range(3, 8):
        assert alternating_group(n).order() == math.factorial(n) // 2


def test_linear_group_orders():
    for q in (2, 3, 5, 7, 11, 13):
        expected = q * (q * q - 1) // math.gcd(2, q - 1)
        assert projective_special_linear_group(q).order() == expected
    for q in (2, 3, 5):
        assert special_linear_group(q).order() == q * (q * q - 1)


def test_psl_matches_known_isomorphisms():
    # PSL(2,2) = S3 and PSL(2,3) = A4, so the small cases cross-check.
    assert projective_special_linear_group(2).order() == 6
    assert projective_special_linear_group(3).order() == 12
    assert projective_special_linear_group(5).order() == 60


def test_product_and_wreath_orders():
    a = direct_product(symmetric_group(3), cyclic_group(4))
    assert a.order() == 24
    assert a.degree == 7
    w = wreath_product(cyclic_group(2), alternating_group(5))
    assert w.order() == 2**5 * 60
    assert w.degree == 10
    big = wreath_product(alternating_group(5), cyclic_group(2))
    assert big.order() == 60 * 60 * 2


def test_make_named():
    assert make_named("C6").order() == 6
    assert make_named("D12").order() == 12
    assert make_named("S5").order() == 120
    assert make_named("A6").order() == 360
    assert make_named("PSL(2,7)").order() == 168
    assert make_named("SL(2,5)").order() == 120
    with pytest.raises(PreconditionError):
        make_named("M11")


def test_closed_form_order_names():
    assert closed_form_order("C9") == 9
    assert closed_form_order("D14") == 14
    assert closed_form_order("S6") == 720
    assert closed_form_order("A7") == 2520
    assert closed_form_order("PSL(2,11)") == 660
    assert closed_form_order("SL(2,3)") == 24


def test_engine_orders_match_closed_forms():
    for name in ("C12", "D12", "S5", "A6", "PSL(2,7)", "PSL(2,11)", "SL(2,5)"):
        assert make_named(name).order() == closed_form_order(name)


def test_spec_grammar_precedence():
    # wr binds tighter than x, both associate left.
    g = group_from_spec("A5 wr C2 x S3")
    assert g.order() == 7200 * 6
    h = group_from_spec("C2 x C3 x C5")
    assert h.order() == 30


def test_spec_grammar_parentheses():
    g = group_from_spec("C2 wr (C2 x C2)")
    assert g.order() == 2**4 * 4


def test_spec_grammar_rejects_garbage():
    with pytest.raises(PreconditionError):
        group_from_spec("A5 ++ C2")
    with pytest.raises(PreconditionError):
        group_from_spec("")


def test_group_from_file(tmp_path):
    path = tmp_path / "v4.grp"
    path.write_text(
        "# the Klein four-group on 4 points\n"
        "degree 4\n"
        "(1 2)(3 4)\n"
        "(1 3)(2 4)\n"
    )
    g = group_from_file(path)
    assert g.degree == 4
    assert g.order() == 4


def test_group_from_file_names_repeated_point_one_based(tmp_path):
    path = tmp_path / "overlap.grp"
    path.write_text("degree 3\n(1 2)(2 3)\n")
    with pytest.raises(ValueError, match="point 2 appears in two cycles"):
        group_from_file(path)


def test_group_from_file_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("(1 2)\n")
    with pytest.raises(PreconditionError):
        group_from_file(path)


def test_group_from_file_rejects_non_decimal_digit_degree(tmp_path):
    """'²' is a digit to str.isdigit but not a number to int."""
    path = tmp_path / "superscript.grp"
    path.write_text("degree ²\n(1 2)\n", encoding="utf-8")
    with pytest.raises(PreconditionError, match="superscript.grp must start with 'degree N'"):
        group_from_file(path)


def test_suite_specs_are_cumulative():
    small = set(suite_specs(1))
    standard = set(suite_specs(2))
    large = set(suite_specs(3))
    assert small < standard < large
    assert len(small) == 11
    assert len(standard) == 19
    assert len(large) == 23
    assert "A5" in small
    assert "A5 wr C2" in standard
    assert "C2 wr A5" in large
    with pytest.raises(PreconditionError):
        suite_specs(4)
