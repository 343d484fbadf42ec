"""MABK expression construction: the recursion against the closed-form oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import hamming_weight, mabk_explicit, mabk_index_set, mabk_sign
from mabkcert.mabk import (
    BellExpression,
    BellTerm,
    expected_normalization,
    expected_term_count,
    mabk_expression,
    mabk_recursion_step,
)


def test_hamming_weight():
    assert hamming_weight((0, 0, 0)) == 0
    assert hamming_weight((1, 0, 1)) == 2
    assert hamming_weight((1, 1, 1, 1, 1)) == 5


def test_index_set_n3():
    assert mabk_index_set(3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
    assert (1, 1, 0) not in mabk_index_set(3)


def test_index_set_cardinality_n5():
    assert len(mabk_index_set(5)) == 16


def test_index_set_rejects_even_or_small():
    with pytest.raises(ValueError):
        mabk_index_set(4)
    with pytest.raises(ValueError):
        mabk_index_set(1)


@given(st.sampled_from([3, 5, 7, 9]))
def test_index_set_parity_and_integrality(n):
    strings = mabk_index_set(n)
    assert len(strings) == 2 ** (n - 1)
    parity = ((n - 1) // 2) % 2
    for x in strings:
        assert hamming_weight(x) % 2 == parity
        assert mabk_sign(n, x) in (-1, 1)


def test_sign_examples():
    assert mabk_sign(3, (1, 0, 0)) == 1
    assert mabk_sign(3, (1, 1, 1)) == -1
    assert mabk_sign(5, (1, 1, 0, 0, 0)) == 1  # H = 2, xi = 0


def test_sign_rejects_string_outside_index_set():
    with pytest.raises(ValueError, match="non-integer"):
        mabk_sign(3, (1, 1, 0))


def test_explicit_n3_is_the_mermin_expression():
    expr = mabk_explicit(3)
    half = Fraction(1, 2)
    assert expr.as_dict() == {
        (1, 0, 0): half,
        (0, 1, 0): half,
        (0, 0, 1): half,
        (1, 1, 1): -half,
    }
    assert expr.normalization == 2


def test_explicit_n3_half_terms_contain_first_party_input_zero():
    expr = mabk_explicit(3)
    with_a0 = [t for t in expr.terms if t.inputs[0] == 0]
    assert len(with_a0) == len(expr.terms) // 2


def test_explicit_n5_counts():
    expr = mabk_explicit(5)
    assert len(expr.terms) == 16
    assert expr.normalization == 4


def test_seed_recursion_reproduces_explicit_n3():
    half = Fraction(1, 2)
    chsh = mabk_expression(2)
    assert chsh.as_dict() == {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    assert mabk_recursion_step(chsh).as_dict() == mabk_explicit(3).as_dict()


def test_recursion_n4_counts_and_coefficients():
    expr = mabk_recursion_step(mabk_explicit(3))
    assert len(expr.terms) == 16
    assert expr.normalization == 4
    quarter = Fraction(1, 4)
    assert all(abs(t.coefficient) == quarter for t in expr.terms)


def test_double_recursion_matches_explicit_n5():
    via_recursion = mabk_recursion_step(mabk_recursion_step(mabk_explicit(3)))
    assert via_recursion.as_dict() == mabk_explicit(5).as_dict()


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_explicit_equals_recursive(n):
    # terms, not only the dict: their order is the order mabk-show prints
    assert mabk_expression(n).terms == mabk_explicit(n).terms


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_up_to_n8(n):
    expr = mabk_expression(n)
    assert len(expr.terms) == expected_term_count(n)
    assert expr.normalization == expected_normalization(n)
    assert sum(abs(t.coefficient) for t in expr.terms) == Fraction(
        expected_term_count(n), expected_normalization(n)
    )


def test_classical_bound_n3_exhaustive():
    expr = mabk_expression(3)
    best = Fraction(0)
    # deterministic strategies: each party fixes +-1 for each of its two inputs
    for assignment in itertools.product((1, -1), repeat=6):
        outputs = [assignment[0:2], assignment[2:4], assignment[4:6]]
        value = sum(
            t.coefficient * outputs[0][t.inputs[0]] * outputs[1][t.inputs[1]] * outputs[2][t.inputs[2]]
            for t in expr.terms
        )
        best = max(best, abs(value))
    assert best == 1


def test_expression_validation_rejects_bad_shapes():
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    with pytest.raises(ValueError, match="coefficient must be nonzero"):
        BellTerm(Fraction(0), (0, 1))
    dup = (
        BellTerm(half, (0, 0)),
        BellTerm(half, (0, 0)),
        BellTerm(half, (1, 0)),
        BellTerm(-half, (1, 1)),
    )
    with pytest.raises(ValueError, match="duplicate"):
        BellExpression(2, dup, 2)
    wrong_sum = (
        BellTerm(quarter, (0, 0)),
        BellTerm(quarter, (0, 1)),
        BellTerm(quarter, (1, 0)),
        BellTerm(-quarter, (1, 1)),
    )
    with pytest.raises(ValueError, match="sum of"):
        BellExpression(2, wrong_sum, 2)
    with pytest.raises(ValueError, match="expected 4 terms"):
        BellExpression(2, dup[:3], 2)


def test_mabk_expression_rejects_small_n():
    with pytest.raises(ValueError):
        mabk_expression(1)
