"""MABK expression construction: the recursion against the closed-form oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import hamming_weight, mabk_explicit, mabk_index_set, mabk_sign
from mabkcert.mabk import (
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
    assert expr == {
        (1, 0, 0): half,
        (0, 1, 0): half,
        (0, 0, 1): half,
        (1, 1, 1): -half,
    }
    assert max(c.denominator for c in expr.values()) == 2


def test_explicit_n3_half_terms_contain_first_party_input_zero():
    expr = mabk_explicit(3)
    with_a0 = [x for x in expr if x[0] == 0]
    assert len(with_a0) == len(expr) // 2


def test_explicit_n5_counts():
    expr = mabk_explicit(5)
    assert len(expr) == 16
    assert max(c.denominator for c in expr.values()) == 4


def test_seed_recursion_reproduces_explicit_n3():
    half = Fraction(1, 2)
    chsh = mabk_expression(2)
    assert chsh == {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    assert mabk_recursion_step(chsh) == mabk_explicit(3)


def test_recursion_n4_counts_and_coefficients():
    expr = mabk_recursion_step(mabk_explicit(3))
    assert len(expr) == 16
    assert max(c.denominator for c in expr.values()) == 4
    quarter = Fraction(1, 4)
    assert all(abs(c) == quarter for c in expr.values())


def test_double_recursion_matches_explicit_n5():
    via_recursion = mabk_recursion_step(mabk_recursion_step(mabk_explicit(3)))
    assert via_recursion == mabk_explicit(5)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_explicit_equals_recursive(n):
    # items, not only the dict: their order is the order mabk-show prints
    assert list(mabk_expression(n).items()) == list(mabk_explicit(n).items())


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_up_to_n8(n):
    expr = mabk_expression(n)
    assert len(expr) == expected_term_count(n)
    assert max(c.denominator for c in expr.values()) == expected_normalization(n)
    assert sum(map(abs, expr.values())) == Fraction(
        expected_term_count(n), expected_normalization(n)
    )


def test_classical_bound_n3_exhaustive():
    expr = mabk_expression(3)
    best = Fraction(0)
    # deterministic strategies: each party fixes +-1 for each of its two inputs
    for assignment in itertools.product((1, -1), repeat=6):
        outputs = [assignment[0:2], assignment[2:4], assignment[4:6]]
        value = sum(
            c * outputs[0][x[0]] * outputs[1][x[1]] * outputs[2][x[2]]
            for x, c in expr.items()
        )
        best = max(best, abs(value))
    assert best == 1


def test_mabk_expression_rejects_small_n():
    with pytest.raises(ValueError):
        mabk_expression(1)
