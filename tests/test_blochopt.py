"""Multi-start ascent: determinism, bound compliance, quick value checks."""

import math

import numpy as np
import pytest

from mabkcert.blochopt import (
    _CONVERGENCE_TOL,
    OptimizerConfig,
    _ascend,
    _initial_angles,
    _MabkObjective,
    maximize_honest_mabk,
    maximize_unconstrained_mabk,
)
from mabkcert.correlators import mabk_value, theorem1_bound

QUICK = OptimizerConfig(restarts=12, seed=424242)


def test_angles_to_bloch_axes():
    # (theta, phi) per observable, in party-major order: z, x, y, then zeros
    objective = _MabkObjective(3, honest=False)
    angles = np.zeros(objective.dim)
    angles[:6] = [0.0, 1.23, math.pi / 2, 0.0, math.pi / 2, math.pi / 2]
    settings_ = objective.observables(angles)
    assert settings_.shape == (3, 2, 3)
    assert settings_[0, 0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
    assert settings_[0, 1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert settings_[1, 0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    # no config means the defaults
    result = maximize_unconstrained_mabk(3)
    assert len(result.per_restart_values) == OptimizerConfig().restarts


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_gradient_matches_central_differences(n, honest):
    # angles range over [-2pi, 2pi] because the ascent leaves [0, pi]: a
    # gradient that assumed sin(theta) >= 0 would pass on [0, pi] only
    objective = _MabkObjective(n, honest)
    rng = np.random.default_rng([n, honest])
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(6, objective.dim))
    h = 1e-6
    probes = angles[:, None, :] + h * np.eye(objective.dim)
    back = angles[:, None, :] - h * np.eye(objective.dim)
    numeric = (objective.value(probes) - objective.value(back)) / (2 * h)
    assert np.abs(objective.gradient(angles) - numeric).max() < 1e-8


def test_deterministic_given_seed():
    a = maximize_unconstrained_mabk(3, QUICK)
    b = maximize_unconstrained_mabk(3, QUICK)
    assert a.per_restart_values == b.per_restart_values
    assert a.best_value == b.best_value


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_per_restart_seeding_is_a_counter_scheme(n, honest):
    # restart r depends only on (seed, r): a longer run extends a shorter one
    # bit for bit, which needs a kernel whose result for one row does not
    # depend on the shape of the batch it sits in
    maximize = maximize_honest_mabk if honest else maximize_unconstrained_mabk
    short = maximize(n, OptimizerConfig(restarts=7, seed=424242))
    long = maximize(n, OptimizerConfig(restarts=40, seed=424242))
    assert long.per_restart_values[:7] == short.per_restart_values


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4])
def test_stacked_sign_ascent_equals_two_single_sign_ascents(n, honest):
    objective = _MabkObjective(n, honest)
    x0 = _initial_angles(objective, 9, seed=7)
    ones = np.ones(len(x0))
    plus = _ascend(objective, ones, x0, QUICK)
    minus = _ascend(objective, -ones, x0, QUICK)
    stacked = _ascend(
        objective, np.concatenate((ones, -ones)), np.concatenate((x0, x0)), QUICK
    )
    for got, want_plus, want_minus in zip(stacked, plus, minus):
        assert np.array_equal(got, np.concatenate((want_plus, want_minus)))


@pytest.mark.parametrize("honest", [True, False])
def test_each_restart_keeps_the_better_of_its_two_signed_ascents(honest):
    n, config = 4, OptimizerConfig(restarts=16, seed=424242)
    objective = _MabkObjective(n, honest)
    x0 = _initial_angles(objective, config.restarts, config.seed)
    ones = np.ones(config.restarts)
    _, f_plus, conv_plus = _ascend(objective, ones, x0, config)
    _, f_minus, conv_minus = _ascend(objective, -ones, x0, config)
    # both signs must matter here, or the check below could not fail
    assert (f_plus > f_minus).any() and (f_minus > f_plus).any()
    result = (maximize_honest_mabk if honest else maximize_unconstrained_mabk)(
        n, config
    )
    plus_wins = f_plus >= f_minus
    assert result.per_restart_values == tuple(np.where(plus_wins, f_plus, f_minus))
    assert result.converged_count == np.where(plus_wins, conv_plus, conv_minus).sum()


def equatorial_angles(objective, phases):
    """Packed free-search angles of observables at theta = pi/2 and these phi."""
    angles = np.empty(objective.dim)
    angles[0::2] = math.pi / 2
    angles[1::2] = np.ravel(phases)
    return angles


def assert_converged_at_once(objective, sign, x0):
    config = OptimizerConfig(restarts=1, max_iterations=1)
    x, f, converged = _ascend(objective, np.full(len(x0), sign), x0, config)
    assert converged.all()
    assert np.array_equal(x, x0)
    assert np.array_equal(f, sign * objective.value(x0))


def test_rows_at_an_optimum_converge_on_the_first_iteration():
    # Mermin's (Y, X) at every party: the free N=3 value -2
    mermin = _MabkObjective(3, honest=False)
    x0 = equatorial_angles(mermin, [(math.pi / 2, 0.0)] * 3)[None]
    assert mermin.value(x0) == pytest.approx(-2.0, abs=1e-14)
    assert_converged_at_once(mermin, -1.0, x0)

    # party 0 at phases +-pi/4 and (Y, X) elsewhere: the free N=8 value
    # 2**3.5; the stop is relative, so the same start nudged by 1e-8, with an
    # angle derivative near 5.7e-8, also converges
    n = 8
    free = _MabkObjective(n, honest=False)
    phases = [(math.pi / 4, -math.pi / 4)] + [(math.pi / 2, 0.0)] * (n - 1)
    optimum = equatorial_angles(free, phases)
    x0 = np.stack((optimum, optimum + 1e-8 * np.eye(free.dim)[0]))
    value = free.value(x0)
    assert value == pytest.approx(2.0**3.5, abs=1e-12)
    gnorm = np.abs(free.gradient(x0[1])).max()
    assert 1e-8 < gnorm < _CONVERGENCE_TOL * value[1]
    assert_converged_at_once(free, 1.0, x0)


def test_rows_cut_by_the_iteration_cap_have_not_converged():
    objective = _MabkObjective(4, honest=True)
    x0 = _initial_angles(objective, 8, seed=7)
    sign = np.resize([1.0, -1.0], len(x0))
    capped = OptimizerConfig(restarts=1, max_iterations=3)
    x, f, converged = _ascend(objective, sign, x0, capped)
    # a row that still moves in a fourth iteration was ascending at the cap
    longer = OptimizerConfig(restarts=1, max_iterations=4)
    cut = np.flatnonzero((_ascend(objective, sign, x0, longer)[0] != x).any(axis=1))
    assert cut.size
    assert not converged[cut].any()
    for r in cut:
        alone = _ascend(objective, sign[r : r + 1], x0[r : r + 1], capped)
        assert np.array_equal(alone[0][0], x[r]) and alone[1][0] == f[r]


class Spike:
    """Value 1 at x = 1 and 0 elsewhere, with a small constant gradient."""

    def __init__(self):
        self.gradient_calls = 0

    def value(self, x):
        return (x == 1.0).all(axis=-1).astype(float)

    def gradient(self, x):
        self.gradient_calls += 1
        return np.full(x.shape, 2e-8)


def test_a_row_whose_only_acceptable_step_is_null_stops():
    # every step that moves x loses the whole value, and after 27 halvings
    # the step no longer moves x, where Armijo's bound is below the last bit
    # of f; that null step must end the row, not keep it to the cap
    spike = Spike()
    x0 = np.ones((1, 4))
    x, f, converged = _ascend(spike, np.ones(1), x0, OptimizerConfig())
    assert spike.gradient_calls == 1
    assert np.array_equal(x, x0) and f.tolist() == [1.0]
    assert not converged.any()


def test_best_is_max_of_restarts():
    result = maximize_honest_mabk(3, QUICK)
    assert result.best_value == max(result.per_restart_values)
    assert 0 <= result.converged_count <= QUICK.restarts


def test_best_settings_come_from_the_first_tied_restart():
    # honest N=3 at QUICK: restarts tie at the optimum 1.0 up to rounding, and
    # the first of them is not the argmax, so argmax would pick another one
    result = maximize_honest_mabk(3, QUICK)
    values = np.array(result.per_restart_values)
    top = values.max()
    tied = np.flatnonzero(values >= top - 1e-12 * max(1.0, abs(top)))
    first = int(tied[0])
    assert len(tied) > 1 and values[first] < top
    assert abs(mabk_value(result.best_settings)) == pytest.approx(
        values[first], abs=1e-15
    )
    # the counter scheme replays restarts 0..first exactly, and among them
    # restart `first` is the best: the same settings come back
    prefix = maximize_honest_mabk(
        3, OptimizerConfig(restarts=first + 1, seed=QUICK.seed)
    )
    assert prefix.best_value == values[first]
    assert np.array_equal(prefix.best_settings, result.best_settings)


def test_honest_does_not_exceed_unconstrained():
    honest = maximize_honest_mabk(3, QUICK)
    free = maximize_unconstrained_mabk(3, QUICK)
    assert honest.best_value <= free.best_value + 1e-9


def test_unconstrained_three_party_reaches_two():
    result = maximize_unconstrained_mabk(3, QUICK)
    assert result.best_value == pytest.approx(2.0, abs=1e-6)


def test_honest_three_party_respects_cap():
    result = maximize_honest_mabk(3, QUICK)
    assert result.best_value <= theorem1_bound(3) + 1e-6
    assert result.best_settings.shape == (3, 2, 3)
    assert result.best_settings[0, 0].tolist() == [0.0, 0.0, 1.0]


def test_best_settings_reproduce_best_value():
    result = maximize_honest_mabk(3, QUICK)
    value = abs(mabk_value(result.best_settings))
    assert value == pytest.approx(result.best_value, abs=1e-9)


def test_returned_settings_are_unit_bloch_vectors():
    result = maximize_unconstrained_mabk(3, QUICK)
    norms = np.linalg.norm(result.best_settings, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_rejects_small_n():
    with pytest.raises(ValueError):
        maximize_honest_mabk(2, QUICK)
