"""GHZ correlators: stabilizer path vs dense oracle, vanishing, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Z,
    bloch_with_z,
    ghz_dense,
    observable_product_matrix,
    random_bloch,
)
from mabkcert.correlators import (
    ghz_expectation,
    gme_bound,
    identity_free_elements,
    mabk_gradient,
    mabk_value,
    theorem1_bound,
)
from mabkcert.mabk import mabk_expression
from mabkcert.stabilizer import ghz_expansion

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
# Bloch component of each letter, the identity's in an appended zero column
COLUMN = {"X": 0, "Y": 1, "Z": 2, "I": 3}


def dense_expectation(n, blochs):
    rho = ghz_dense(n)
    return float(np.real(np.trace(rho @ observable_product_matrix(blochs))))


def term_blochs(settings_, inputs):
    """(n, 3) Bloch vectors of one term: party i's vector for input inputs[i]."""
    return settings_[np.arange(len(inputs)), list(inputs)]


def random_settings(rng, shape):
    """Random unit Bloch vectors of shape (*shape, 2, 3)."""
    v = rng.normal(size=(*shape, 2, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def dense_value(n, settings_):
    """Signed MABK value as the dense-matrix sum over the expression's terms."""
    total = 0.0
    for inputs, coefficient in mabk_expression(n).items():
        total += float(coefficient) * dense_expectation(
            n, term_blochs(settings_, inputs)
        )
    return total


def products_of_others(factors):
    """Product over the last axis of every factor but one, without division."""
    ones = np.ones_like(factors[..., :1])
    before = np.cumprod(np.concatenate((ones, factors[..., :-1]), axis=-1), axis=-1)
    after = np.cumprod(np.concatenate((ones, factors[..., :0:-1]), axis=-1), axis=-1)
    return before * after[..., ::-1]


def term_arrays(n):
    """Each MABK term's inputs (T, n) and coefficient (T,)."""
    expr = mabk_expression(n)
    inputs = np.array(list(expr))
    coeffs = np.array([float(c) for c in expr.values()])
    return inputs, coeffs


def term_sum_value(settings_):
    """Oracle for mabk_value: the closed form of every term, weighted and summed."""
    n = settings_.shape[-3]
    inputs, coeffs = term_arrays(n)
    return ghz_expectation(n, settings_[..., np.arange(n), inputs, :]) @ coeffs


def term_sum_gradient(settings_):
    """Oracle for mabk_gradient: every term's closed-form gradient, weighted.

    Per term, party i's derivative is the product of the other parties'
    factors in each of the two products of the closed form; the coefficient
    then goes to the input that party i has in the term.
    """
    n = settings_.shape[-3]
    inputs, coeffs = term_arrays(n)
    blochs = settings_[..., np.arange(n), inputs, :]  # (..., T, n, 3)
    transverse = products_of_others(blochs[..., 0] + 1j * blochs[..., 1])
    per_term = np.zeros(blochs.shape)
    per_term[..., 0] = transverse.real
    per_term[..., 1] = -transverse.imag
    if n % 2 == 0:
        per_term[..., 2] = products_of_others(blochs[..., 2])
    weights = (inputs[..., None] == np.arange(2)) * coeffs[:, None, None]
    return np.einsum("...tic,tix->...ixc", per_term, weights)


def test_pairwise_key_correlations_are_perfect():
    # <Z Z 1> and permutations on the 3-party GHZ state
    assert ghz_expectation(3, [Z, Z, X]) == pytest.approx(
        dense_expectation(3, [Z, Z, X]), abs=1e-14
    )
    rho = ghz_dense(3)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    for ops in ([z, z, eye], [eye, z, z], [z, eye, z]):
        m = np.kron(np.kron(ops[0], ops[1]), ops[2])
        assert np.real(np.trace(rho @ m)) == pytest.approx(1.0, abs=1e-14)


def test_all_z_product_vanishes_for_odd_and_is_one_for_even():
    # the all-Z word is a stabilizer only for even party counts
    assert ghz_expectation(3, [Z] * 3) == 0.0
    assert ghz_expectation(5, [Z] * 5) == 0.0
    assert ghz_expectation(4, [Z] * 4) == 1.0
    assert ghz_expectation(6, [Z] * 6) == 1.0


def test_odd_vanishing_with_pinned_first_observable(rng):
    for n in (3, 5, 7):
        for _ in range(200):
            blochs = [Z] + [random_bloch(rng) for _ in range(n - 1)]
            assert ghz_expectation(n, blochs) == 0.0


def test_even_product_formula(rng):
    for n in (4, 6):
        for _ in range(200):
            bobs = np.array([random_bloch(rng) for _ in range(n - 1)])
            got = ghz_expectation(n, np.vstack([Z, bobs]))
            want = np.prod(bobs[:, 2])
            assert got == want


def test_even_formula_examples(rng):
    # the pinned-key correlator at even N is the product of the z-components
    for zs, want in (((1.0, 1.0, 1.0), 1.0), ((0.3, 0.0, 0.9), 0.0)):
        blochs = [Z] + [bloch_with_z(z, rng) for z in zs]
        assert ghz_expectation(4, blochs) == want
    blochs = [Z, bloch_with_z(0.5, rng), bloch_with_z(0.6, rng), bloch_with_z(0.7, rng)]
    assert ghz_expectation(4, blochs) == pytest.approx(0.21, abs=1e-12)


def test_scalar_expectation_takes_one_bloch_array():
    # one (n, 3) array gives a scalar; leading axes batch, others raise
    assert ghz_expectation(4, [Z] * 4) == 1.0
    assert np.shape(ghz_expectation(4, [Z] * 4)) == ()
    assert np.shape(ghz_expectation(4, [[[Z] * 4] * 3] * 2)) == (2, 3)
    for wrong in ([Z] * 3, [[Z] * 3] * 2, [Z + (0.0,)] * 4, Z):
        with pytest.raises(ValueError, match="shape"):
            ghz_expectation(4, wrong)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.integers(0, 2**31 - 1))
def test_stabilizer_path_equals_dense_path(n, pinned, seed):
    local = np.random.default_rng(seed)
    blochs = np.array([random_bloch(local) for _ in range(n)])
    if pinned:
        blochs[0] = Z
    assert abs(ghz_expectation(n, blochs) - dense_expectation(n, blochs)) < 1e-12


def test_identity_skip_rule_matches_full_expansion_sum(rng):
    # full sum over all stabilizer elements, identity letters contributing
    # a zero factor for traceless observables; the identity-free elements
    # alone give the same sum, and so does the closed form
    for n in (2, 3, 4, 5, 7):
        for pinned in (False, True):
            blochs = np.array([random_bloch(rng) for _ in range(n)])
            if pinned:
                blochs[0] = Z
            padded = np.hstack([blochs, np.zeros((n, 1))])
            full = 0.0
            for sign, word in ghz_expansion(n):
                prod = float(sign)
                for b, letter in zip(padded, word):
                    prod *= b[COLUMN[letter]]
                full += prod
            axes, signs = identity_free_elements(n)
            skip = signs @ blochs[np.arange(n), axes].prod(axis=1)
            assert abs(skip - full) < 1e-12
            assert abs(ghz_expectation(n, blochs) - full) < 1e-12


def test_batch_evaluation_matches_scalar(rng):
    n = 4
    batch = np.array([[random_bloch(rng) for _ in range(n)] for _ in range(17)])
    values = ghz_expectation(n, batch)
    for i in range(17):
        assert abs(values[i] - ghz_expectation(n, batch[i])) < 1e-13


def test_mermin_maximum_reached():
    settings_ = np.array([(Y, X)] * 3)
    assert abs(mabk_value(settings_)) == pytest.approx(2.0, abs=1e-14)


def test_honest_odd_values_capped_below_gme_threshold(rng):
    for n in (3, 5):
        settings_ = random_settings(rng, (50, n))
        settings_[:, 0, 0] = Z
        values = np.abs(mabk_value(settings_))
        assert values.max() <= theorem1_bound(n) + 1e-9
        assert values.max() < gme_bound(n, n - 1)


def test_all_z_settings_give_zero_value():
    settings_ = np.array([(Z, Z)] * 3)
    assert mabk_value(settings_) == 0.0


def test_negating_first_party_flips_each_term_but_not_the_value(rng):
    for n in (3, 4, 5, 6):
        settings_ = random_settings(rng, (4, n))
        flipped = settings_.copy()
        flipped[:, 0] *= -1.0
        assert np.array_equal(mabk_value(flipped), -mabk_value(settings_))
        for inputs in mabk_expression(n):
            blochs, flipped_blochs = (
                term_blochs(s[0], inputs) for s in (settings_, flipped)
            )
            assert ghz_expectation(n, flipped_blochs) == -ghz_expectation(n, blochs)


@pytest.mark.parametrize("n", range(2, 11))
def test_negating_a_party_negates_the_value_and_the_other_gradients(rng, n):
    # bit for bit, which is what lets the optimizer ascend -v as +v from a
    # start with one party negated
    settings_ = random_settings(rng, (16, n))
    value, grad = mabk_value(settings_), mabk_gradient(settings_)
    for k in range(n):
        flipped = settings_.copy()
        flipped[:, k] *= -1.0
        others = -grad
        others[:, k] = grad[:, k]
        assert np.array_equal(mabk_value(flipped), -value)
        assert np.array_equal(mabk_gradient(flipped), others)


def test_report_value_is_absolute_weighted_sum(rng):
    # the batched value against the dense-matrix term sum, over two leading axes
    for n in (3, 4, 5, 6):
        settings_ = random_settings(rng, (2, 3, n))
        values = mabk_value(settings_)
        assert values.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert values[index] == pytest.approx(
                dense_value(n, settings_[index]), abs=1e-12
            )


@pytest.mark.parametrize("n", range(3, 11))
def test_mabk_value_matches_term_sum_oracle(rng, n):
    for shape in ((), (5,), (2, 3)):
        for pinned in (False, True):
            settings_ = random_settings(rng, (*shape, n))
            if pinned:
                settings_[..., 0, 0, :] = Z
            value = mabk_value(settings_)
            assert np.shape(value) == shape
            assert np.abs(value - term_sum_value(settings_)).max() < 1e-13


@pytest.mark.parametrize("n", range(3, 11))
def test_mabk_gradient_matches_term_sum_oracle(rng, n):
    for shape in ((), (5,), (2, 3)):
        for pinned in (False, True):
            settings_ = random_settings(rng, (*shape, n))
            if pinned:
                settings_[..., 0, 0, :] = Z
            grad = mabk_gradient(settings_)
            assert grad.shape == settings_.shape
            assert np.abs(grad - term_sum_gradient(settings_)).max() < 1e-12


@pytest.mark.parametrize("n", range(7, 11))
def test_mabk_gradient_matches_central_differences(n):
    # the value is linear in each Bloch component, so the central difference
    # is exact up to rounding; N = 8 and 10 check the z-component sweep
    rng = np.random.default_rng([n, 3])
    settings_ = random_settings(rng, (2, n))
    h = 1e-6
    steps = h * np.eye(6 * n).reshape(6 * n, n, 2, 3)
    probes = settings_[:, None] + steps
    back = settings_[:, None] - steps
    numeric = (mabk_value(probes) - mabk_value(back)) / (2 * h)
    grad = mabk_gradient(settings_).reshape(2, 6 * n)
    assert np.abs(grad - numeric).max() < 1e-8


def test_exact_strategy_attains_sqrt2_for_four_parties():
    # transverse strategy: every first-party term vanishes (all bob z-components
    # are zero) and the remaining half reaches its quantum maximum
    a1 = (math.cos(math.pi / 4), -math.sin(math.pi / 4), 0.0)
    settings_ = np.array([(Z, a1)] + [(X, Y)] * 3)
    assert abs(mabk_value(settings_)) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # independent dense confirmation
    assert abs(dense_value(4, settings_)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_gme_bound_values():
    assert gme_bound(3, 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert gme_bound(3, 3) == 2.0
    for n in (2, 3, 5, 9):
        assert gme_bound(n, 1) == 1.0
    with pytest.raises(ValueError):
        gme_bound(3, 4)
    with pytest.raises(ValueError):
        gme_bound(3, 0)


def test_theorem1_bound_values():
    assert theorem1_bound(3) == 1.0
    assert theorem1_bound(5) == 2.0
    assert theorem1_bound(7) == 4.0
    with pytest.raises(ValueError):
        theorem1_bound(4)


def test_settings_party_count_must_match():
    for shape in ((1, 2, 3), (3, 3, 3), (2, 3)):
        for function in (mabk_value, mabk_gradient):
            with pytest.raises(ValueError, match="parties"):
                function(np.zeros(shape))
