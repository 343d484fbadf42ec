"""Multi-start ascent: determinism, bound compliance, quick value checks."""

import math

import numpy as np
import pytest

from mabkcert.blochopt import (
    OptimizerConfig,
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


def test_per_restart_seeding_is_a_counter_scheme():
    # restart r depends only on (seed, r): a longer run extends a shorter one
    short = maximize_unconstrained_mabk(
        3, OptimizerConfig(restarts=5, seed=424242)
    )
    long = maximize_unconstrained_mabk(
        3, OptimizerConfig(restarts=9, seed=424242)
    )
    assert long.per_restart_values[:5] == short.per_restart_values


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
