"""GHZ correlators: stabilizer path vs dense oracle, vanishing, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bloch_with_z, random_bloch
from mabkcert.correlators import (
    ghz_expectation,
    ghz_expectation_batch,
    gme_bound,
    honest_even_formula,
    identity_free_elements,
    mabk_value,
    theorem1_bound,
)
from mabkcert.mabk import mabk_expression
from mabkcert.pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    observable_product_matrix,
)
from mabkcert.stabilizer import ghz_dense, ghz_expansion


def dense_expectation(n, observables):
    rho = ghz_dense(n)
    return float(np.real(np.trace(rho @ observable_product_matrix(observables))))


def as_settings(pairs):
    """(n, 2, 3) settings array from each party's two Bloch vectors."""
    return np.array([[b0.as_array(), b1.as_array()] for b0, b1 in pairs])


def random_settings(rng, shape):
    """Random unit Bloch vectors of shape (*shape, 2, 3)."""
    v = rng.normal(size=(*shape, 2, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def dense_value(n, settings_):
    """Signed MABK value as the dense-matrix sum over the expression's terms."""
    total = 0.0
    for t in mabk_expression(n).terms:
        obs = [BlochVector(*settings_[i, x]) for i, x in enumerate(t.inputs)]
        total += float(t.coefficient) * dense_expectation(n, obs)
    return total


def test_pairwise_key_correlations_are_perfect():
    # <Z Z 1> and permutations on the 3-party GHZ state
    assert ghz_expectation(3, [SIGMA_Z, SIGMA_Z, BlochVector(1, 0, 0)]) == pytest.approx(
        dense_expectation(3, [SIGMA_Z, SIGMA_Z, BlochVector(1, 0, 0)]), abs=1e-14
    )
    rho = ghz_dense(3)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    for ops in ([z, z, eye], [eye, z, z], [z, eye, z]):
        m = np.kron(np.kron(ops[0], ops[1]), ops[2])
        assert np.real(np.trace(rho @ m)) == pytest.approx(1.0, abs=1e-14)


def test_all_z_product_vanishes_for_odd_and_is_one_for_even():
    # the all-Z word is a stabilizer only for even party counts
    assert ghz_expectation(3, [SIGMA_Z] * 3) == 0.0
    assert ghz_expectation(5, [SIGMA_Z] * 5) == 0.0
    assert ghz_expectation(4, [SIGMA_Z] * 4) == 1.0
    assert ghz_expectation(6, [SIGMA_Z] * 6) == 1.0


def test_odd_vanishing_with_pinned_first_observable(rng):
    for n in (3, 5, 7):
        for _ in range(200):
            obs = [SIGMA_Z] + [random_bloch(rng) for _ in range(n - 1)]
            assert ghz_expectation(n, obs) == 0.0


def test_even_product_formula(rng):
    for n in (4, 6):
        for _ in range(200):
            bobs = [random_bloch(rng) for _ in range(n - 1)]
            got = ghz_expectation(n, [SIGMA_Z] + bobs)
            want = honest_even_formula(n, [b.bz for b in bobs])
            assert got == want


def test_even_formula_examples(rng):
    assert honest_even_formula(4, [1.0, 1.0, 1.0]) == 1.0
    assert honest_even_formula(4, [0.3, 0.0, 0.9]) == 0.0
    obs = [SIGMA_Z, bloch_with_z(0.5, rng), bloch_with_z(0.6, rng), bloch_with_z(0.7, rng)]
    assert ghz_expectation(4, obs) == pytest.approx(0.21, abs=1e-12)
    assert honest_even_formula(4, [0.5, 0.6, 0.7]) == pytest.approx(0.21, abs=1e-15)


def test_even_formula_rejects_odd_n():
    with pytest.raises(ValueError):
        honest_even_formula(3, [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.integers(0, 2**31 - 1))
def test_stabilizer_path_equals_dense_path(n, pinned, seed):
    local = np.random.default_rng(seed)
    obs = [random_bloch(local) for _ in range(n)]
    if pinned:
        obs[0] = SIGMA_Z
    assert abs(ghz_expectation(n, obs) - dense_expectation(n, obs)) < 1e-12


def test_identity_skip_rule_matches_full_expansion_sum(rng):
    # full sum over all stabilizer elements, identity letters contributing
    # a zero factor for traceless observables; the identity-free elements
    # alone give the same sum, and so does the closed form
    for n in (2, 3, 4, 5, 7):
        for pinned in (False, True):
            obs = [random_bloch(rng) for _ in range(n)]
            if pinned:
                obs[0] = SIGMA_Z
            full = 0.0
            for element in ghz_expansion(n):
                sign = 1.0 if element.phase_power == 0 else -1.0
                prod = sign
                for b, letter in zip(obs, element.letters):
                    prod *= b.component(letter)
                full += prod
            axes, signs = identity_free_elements(n)
            comp = np.array([b.as_array() for b in obs])
            skip = signs @ comp[np.arange(n), axes].prod(axis=1)
            assert abs(skip - full) < 1e-12
            assert abs(ghz_expectation(n, obs) - full) < 1e-12


def test_batch_evaluation_matches_scalar(rng):
    n = 4
    batch = np.stack(
        [
            np.stack([random_bloch(rng).as_array() for _ in range(n)])
            for _ in range(17)
        ]
    )
    values = ghz_expectation_batch(n, batch)
    for i in range(17):
        obs = [BlochVector(*batch[i, j]) for j in range(n)]
        assert abs(values[i] - ghz_expectation(n, obs)) < 1e-13


def test_mermin_maximum_reached():
    settings_ = as_settings([(SIGMA_Y, SIGMA_X)] * 3)
    assert abs(mabk_value(settings_)) == pytest.approx(2.0, abs=1e-14)


def test_honest_odd_values_capped_below_gme_threshold(rng):
    for n in (3, 5):
        settings_ = random_settings(rng, (50, n))
        settings_[:, 0, 0] = SIGMA_Z.as_array()
        values = np.abs(mabk_value(settings_))
        assert values.max() <= theorem1_bound(n) + 1e-9
        assert values.max() < gme_bound(n, n - 1)


def test_all_z_settings_give_zero_value():
    settings_ = as_settings([(SIGMA_Z, SIGMA_Z)] * 3)
    assert mabk_value(settings_) == 0.0


def test_negating_first_party_flips_each_term_but_not_the_value(rng):
    for n in (3, 4, 5, 6):
        settings_ = random_settings(rng, (4, n))
        flipped = settings_.copy()
        flipped[:, 0] *= -1.0
        assert np.array_equal(mabk_value(flipped), -mabk_value(settings_))
        for term in mabk_expression(n).terms:
            obs, flipped_obs = (
                [BlochVector(*s[0, i, x]) for i, x in enumerate(term.inputs)]
                for s in (settings_, flipped)
            )
            assert ghz_expectation(n, flipped_obs) == -ghz_expectation(n, obs)


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


def test_exact_strategy_attains_sqrt2_for_four_parties():
    # transverse strategy: every first-party term vanishes (all bob z-components
    # are zero) and the remaining half reaches its quantum maximum
    a1 = BlochVector(math.cos(math.pi / 4), -math.sin(math.pi / 4), 0.0)
    settings_ = as_settings([(SIGMA_Z, a1)] + [(SIGMA_X, SIGMA_Y)] * 3)
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
        with pytest.raises(ValueError, match="parties"):
            mabk_value(np.zeros(shape))
