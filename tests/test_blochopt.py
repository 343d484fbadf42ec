"""Multi-start seesaw: determinism, bound compliance, quick value checks."""

import math

import numpy as np
import pytest

from mabkcert import blochopt
from mabkcert.blochopt import (
    _CONVERGENCE_TOL,
    OptimizerConfig,
    _ascend,
    _bloch,
    _free_slots,
    _initial_settings,
    _party_step,
    _sweep,
    _tangent_norm,
    maximize_honest_mabk,
    maximize_unconstrained_mabk,
)
from mabkcert.correlators import (
    _gradient_and_adjoint,
    mabk_gradient,
    mabk_value,
    theorem1_bound,
)

QUICK = OptimizerConfig(restarts=12, seed=424242)


def mirrored(x, party=1):
    """A copy of settings x with one party's pair negated: the value negated."""
    y = x.copy()
    y[:, party] *= -1
    return y


def test_angles_to_bloch_axes():
    # (theta, phi) -> z, x, y
    theta = np.array([0.0, math.pi / 2, math.pi / 2])
    phi = np.array([1.23, 0.0, math.pi / 2])
    axes = _bloch(theta, phi)
    assert axes == pytest.approx(np.eye(3)[[2, 0, 1]], abs=1e-15)

    # one stream rng(seed), drawn restart by restart: each restart's thetas,
    # then its phis, one per free slot in party-major order; the honest
    # start's pinned slot is z
    for honest in (True, False):
        n, n_obs = 3, 6 - honest
        starts = _initial_settings(n, honest, 4, seed=7)
        assert starts.shape == (4, n, 2, 3)
        rng = np.random.default_rng(7)
        for r in range(4):
            theta = rng.uniform(0.0, np.pi, n_obs)
            phi = rng.uniform(0.0, 2.0 * np.pi, n_obs)
            want = _bloch(theta, phi).reshape(-1, 3)
            assert np.array_equal(starts[r].reshape(-1, 3)[honest:], want)
        if honest:
            assert starts[:, 0, 0].tolist() == [[0.0, 0.0, 1.0]] * 4


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    # no config means the defaults
    result = maximize_unconstrained_mabk(3)
    assert len(result.per_restart_values) == OptimizerConfig().restarts


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_gradient_matches_central_differences(n, honest):
    # the stop rule's tangent norm is the value's derivative along the great
    # circle through a free slot in its steepest direction, largest over the
    # free slots; the honest search's pinned slot is not one of them
    x = _initial_settings(n, honest, 6, seed=n)
    free = _free_slots(n, honest)
    grad = mabk_gradient(x)
    h = 1e-6
    slopes = np.zeros((len(x), n, 2))
    for i, inp in zip(*np.nonzero(free)):
        b, g = x[:, i, inp], grad[:, i, inp]
        t = g - (g * b).sum(axis=-1, keepdims=True) * b
        u = t / np.linalg.norm(t, axis=-1, keepdims=True)
        ends = []
        for step in (h, -h):
            y = x.copy()
            y[:, i, inp] = b * np.cos(step) + u * np.sin(step)
            ends.append(mabk_value(y))
        slopes[:, i, inp] = (ends[0] - ends[1]) / (2 * h)
    assert np.abs(_tangent_norm(x, grad, free) - slopes.max(axis=(1, 2))).max() < 1e-8


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
def test_a_batch_equals_its_rows_ascended_alone(n, honest):
    # the honest search's batch: the starts, then their party-1 mirrors
    x0 = _initial_settings(n, honest, 9, seed=7)
    x0 = np.concatenate((x0, mirrored(x0)))
    free = _free_slots(n, honest)
    batch = _ascend(x0, free, QUICK)
    for r in range(len(x0)):
        alone = _ascend(x0[r : r + 1], free, QUICK)
        for got, want in zip(batch, alone):
            assert np.array_equal(got[r], want[0])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_the_free_minus_seesaw_mirrors_the_plus_one(n):
    # the -v seesaw from a start is the +v one from its party-1 mirror, with
    # party 1 negated back.  In the free search party 0 steps first and its
    # gradient does not see party 0's sign, so the party-0 mirror ascends to
    # the start's end point, and the -v seesaw ends at the +v one with party
    # 0 negated: the free search runs only its R starts
    x0 = _initial_settings(n, False, 24, seed=n)
    free = _free_slots(n, False)
    plus = _ascend(x0, free, OptimizerConfig())
    for got, want in zip(_ascend(mirrored(x0, 0), free, OptimizerConfig()), plus):
        assert np.array_equal(got, want)
    x_plus, f_plus, conv_plus = plus
    x_minus, f_minus, conv_minus = _ascend(mirrored(x0), free, OptimizerConfig())
    x_minus[:, :2] *= -1  # party 1 back, then the party-0 mirror
    assert np.array_equal(x_minus, x_plus)
    assert np.array_equal(f_minus, f_plus)
    assert np.array_equal(conv_minus, conv_plus)


@pytest.mark.parametrize("honest", [True, False])
def test_each_restart_keeps_the_better_of_its_two_signed_ascents(honest):
    # the +v ascent of a start and the +v ascent of its party-1 mirror, which
    # is the start's -v ascent; at this seed the honest search's best restart
    # is won by its mirror
    n, config = 4, OptimizerConfig(restarts=16, seed=4)
    x0 = _initial_settings(n, honest, config.restarts, config.seed)
    free = _free_slots(n, honest)
    x_plus, f_plus, conv_plus = _ascend(x0, free, config)
    x_minus, f_minus, conv_minus = _ascend(mirrored(x0), free, config)
    x_minus = mirrored(x_minus)  # party 1 back
    if honest:
        # both rows must matter here, or the check below could not fail
        assert (f_plus > f_minus).any() and (f_minus > f_plus).any()
    else:
        # the mirror: the two ascents tie, and the start's is kept
        assert np.array_equal(f_plus, f_minus)
    result = (maximize_honest_mabk if honest else maximize_unconstrained_mabk)(
        n, config
    )
    plus_wins = f_plus >= f_minus
    values = np.where(plus_wins, f_plus, f_minus)
    assert result.per_restart_values == tuple(values)
    assert result.converged_count == np.where(plus_wins, conv_plus, conv_minus).sum()
    # the reported settings are the first tied restart's winning row
    top = values.max()
    best = int(np.flatnonzero(values >= top - 1e-12 * max(1.0, top))[0])
    assert plus_wins[best] != honest
    want = (x_plus if plus_wins[best] else x_minus)[best]
    assert np.array_equal(result.best_settings, want)


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_a_party_step_reaches_the_sum_of_its_gradient_norms(n, honest):
    # the value is linear in a party's pair, so the step g/|g| lands on
    # sum |g| over the free slots, plus the pinned slot's fixed term
    free = _free_slots(n, honest)
    for k in range(n):
        x = _initial_settings(n, honest, 20, seed=100 + k)
        grad = mabk_gradient(x)
        want = np.where(free[k], np.linalg.norm(grad[:, k], axis=-1), 0.0).sum(-1)
        if honest and k == 0:
            want += (grad[:, 0, 0] * x[:, 0, 0]).sum(axis=-1)
        _party_step(x, grad, k, free)
        assert mabk_value(x) == pytest.approx(want, rel=1e-12, abs=1e-12)
        if honest:
            assert x[:, 0, 0].tolist() == [[0.0, 0.0, 1.0]] * len(x)


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_sweep_never_lowers_the_value(n, honest):
    # every second row is a party-1 mirror: the -v case
    x = _initial_settings(n, honest, 200, seed=n)
    x[1::2, 1] *= -1
    free = _free_slots(n, honest)
    for sweep in range(5):
        before = mabk_value(x)
        after = _sweep(x, *_gradient_and_adjoint(x), free)
        if sweep == 0:
            assert (after > before).all()  # no random start is a fixed point
        # once at a fixed point, a sweep reproduces the value up to rounding
        assert (after >= before - 1e-14 * np.abs(before)).all()


def fresh_gradient_sweep(settings, grad, free):
    """The seesaw sweep by definition, in place: party 0 steps on ``grad``,
    every later party on a fresh ``mabk_gradient``; returns ``mabk_value``
    after the sweep.  O(N^2) per sweep."""
    for k in range(settings.shape[1]):
        if k:
            grad = mabk_gradient(settings)
        _party_step(settings, grad, k, free)
    return mabk_value(settings)


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("n", [*range(3, 13), 20, 29])
def test_the_sweep_equals_the_fresh_gradient_oracle_bit_for_bit(n, honest):
    # party k steps on the pre-sweep adjoint and the forward pair advanced
    # through parties 0..k-1, and the last pair gives the value: the same
    # operations as a fresh gradient and a fresh value, so the same bits.
    # Every second row is a party-1 mirror: the -v case
    x = _initial_settings(n, honest, 24, seed=n)
    x[1::2, 1] *= -1
    free = _free_slots(n, honest)
    for _ in range(3):
        want = x.copy()
        want_value = fresh_gradient_sweep(want, mabk_gradient(want), free)
        value = _sweep(x, *_gradient_and_adjoint(x), free)
        assert np.array_equal(x, want)
        assert np.array_equal(value, want_value)


def equatorial(phases):
    """Settings (1, n, 2, 3) of observables at theta = pi/2 and these phi."""
    phases = np.array(phases, dtype=float)
    return _bloch(np.full(phases.shape, math.pi / 2), phases)[None]


def record_batches(monkeypatch):
    """The row count of every later gradient call and sweep of blochopt: the
    stop test's ``_gradient_and_adjoint``, each ``_sweep`` and the post-sweep
    test's ``mabk_gradient``."""
    batches = []

    def recorded(step):
        def call(settings, *args):
            batches.append(len(settings))
            return step(settings, *args)

        return call

    for name, step in [
        ("_gradient_and_adjoint", _gradient_and_adjoint),
        ("_sweep", _sweep),
        ("mabk_gradient", mabk_gradient),
    ]:
        monkeypatch.setattr(blochopt, name, recorded(step))
    return batches


@pytest.mark.parametrize("honest", [True, False])
def test_no_gradient_batch_is_empty(monkeypatch, honest):
    # rows leave the batch by the stop test or by a stalled sweep; once the
    # last of them has left, the ascent sweeps no empty batch
    batches = record_batches(monkeypatch)
    blochopt._maximize(4, honest, QUICK)
    assert batches and min(batches) > 0


def assert_converged_at_once(monkeypatch, x0, free):
    # every row meets the stop test before its first sweep: one gradient
    # call on all rows, and no sweep of the empty rest, no post-sweep test
    batches = record_batches(monkeypatch)
    config = OptimizerConfig(restarts=1, max_iterations=1)
    x, f, converged = _ascend(x0, free, config)
    assert converged.all() and batches == [len(x0)]
    assert np.array_equal(x, x0)
    assert np.array_equal(f, mabk_value(x0))


def test_rows_at_an_optimum_converge_on_the_first_iteration(monkeypatch):
    # Mermin's (Y, X) at every party: the free N=3 value -2, whose -v optimum
    # the seesaw meets as the party-1 mirror at +2
    x0 = equatorial([(math.pi / 2, 0.0)] * 3)
    assert mabk_value(x0) == pytest.approx(-2.0, abs=1e-14)
    assert_converged_at_once(monkeypatch, mirrored(x0), _free_slots(3, False))

    # party 0 at phases +-pi/4 and (Y, X) elsewhere: the free N=8 value
    # 2**3.5; the stop is relative, so the same start with party 0's first
    # vector tilted by 1e-8 off the plane, a tangent gradient near 5.7e-8,
    # also converges
    n = 8
    free = _free_slots(n, False)
    optimum = equatorial([(math.pi / 4, -math.pi / 4)] + [(math.pi / 2, 0.0)] * 7)
    tilted = optimum.copy()
    tilted[0, 0, 0] = _bloch(math.pi / 2 + 1e-8, math.pi / 4)
    x0 = np.concatenate((optimum, tilted))
    value = mabk_value(x0)
    assert value == pytest.approx(2.0**3.5, abs=1e-12)
    tangent = _tangent_norm(tilted, mabk_gradient(tilted), free)[0]
    assert 1e-8 < tangent < _CONVERGENCE_TOL * value[1]
    assert_converged_at_once(monkeypatch, x0, free)


def test_rows_cut_by_the_iteration_cap_have_not_converged():
    # the cap counts sweeps
    # every second row is a party-1 mirror: the -v case
    x0 = _initial_settings(4, True, 8, seed=7)
    x0[1::2, 1] *= -1
    free = _free_slots(4, True)
    capped = OptimizerConfig(restarts=1, max_iterations=2)
    x, f, converged = _ascend(x0, free, capped)
    # a row that still moves in a third sweep was ascending at the cap
    longer = OptimizerConfig(restarts=1, max_iterations=3)
    cut = np.flatnonzero((_ascend(x0, free, longer)[0] != x).any(axis=(1, 2, 3)))
    assert cut.size
    assert not converged[cut].any()
    for r in cut:
        alone = _ascend(x0[r : r + 1], free, capped)
        assert np.array_equal(alone[0][0], x[r]) and alone[1][0] == f[r]


class Spike:
    """Value 1 at the start and ``elsewhere`` at every other point, with a
    constant gradient along x: the party step puts every free slot on x,
    where its tangent gradient is 0."""

    def __init__(self, start, elsewhere):
        self.start, self.elsewhere = start, elsewhere
        self.gradient_calls = 0

    def value(self, settings):
        at_start = (settings == self.start).all(axis=(-3, -2, -1))
        return np.where(at_start, 1.0, self.elsewhere)

    def gradient(self, settings):
        self.gradient_calls += 1
        return np.broadcast_to([1.0, 0.0, 0.0], settings.shape).copy()

    def gradient_and_adjoint(self, settings):
        # an adjoint of the real shape, (S, rows, n, 2); the stub sweep ignores it
        return self.gradient(settings), np.zeros((1, *settings.shape[:2], 2))

    def sweep(self, settings, grad, adj, free):
        # a slot's stub gradient depends on that slot alone, so each party
        # steps on the stop test's gradient as it would on a fresh one
        for k in range(settings.shape[1]):
            _party_step(settings, grad, k, free)
        return self.value(settings)


class Turning(Spike):
    """A spike whose gradient is ``(b_z, 0, -b_x)`` at each Bloch vector
    ``b``: ``b`` turned a quarter about y, so every slot's tangent gradient is
    1 wherever the party step puts it."""

    def gradient(self, settings):
        self.gradient_calls += 1
        turned = settings[..., [2, 1, 0]] * [1.0, 0.0, -1.0]
        return np.ascontiguousarray(turned)


def ascend_stub(monkeypatch, stub_class, elsewhere):
    """``_ascend`` of one honest N=4 row at all-z on a stub value; the start's
    tangent gradient fails the stop test, so the row takes one sweep."""
    n = 4
    x0 = np.broadcast_to([0.0, 0.0, 1.0], (1, n, 2, 3)).copy()
    stub = stub_class(x0, elsewhere)
    monkeypatch.setattr(blochopt, "mabk_value", stub.value)
    monkeypatch.setattr(blochopt, "_gradient_and_adjoint", stub.gradient_and_adjoint)
    monkeypatch.setattr(blochopt, "_sweep", stub.sweep)
    monkeypatch.setattr(blochopt, "mabk_gradient", stub.gradient)
    x, f, converged = _ascend(x0, _free_slots(n, True), OptimizerConfig())
    # the stop test's gradient, one sweep on it, then the post-sweep stop test
    assert stub.gradient_calls == 2
    # the row leaves after that sweep, back at its start, not live to the cap
    assert np.array_equal(x, x0) and f.tolist() == [1.0]
    return converged[0]


def test_a_sweep_that_cannot_raise_the_value_ends_the_row_unconverged(monkeypatch):
    # the sweep loses the whole value, and the post-sweep tangent gradient
    # is 1: the row ends unconverged
    assert not ascend_stub(monkeypatch, Turning, 0.0)


def test_a_tie_with_a_large_post_sweep_tangent_ends_the_row_unconverged(monkeypatch):
    # the sweep keeps the value exactly, and the post-sweep tangent gradient
    # is still 1: the row ends unconverged
    assert not ascend_stub(monkeypatch, Turning, 1.0)


def test_a_rounding_loss_at_a_stationary_point_converges(monkeypatch):
    # the sweep lowers the value by one ulp, as rounding does at an optimum,
    # and the post-sweep tangent gradient is 0: the row converges
    assert ascend_stub(monkeypatch, Spike, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize(
    "n, maximize", [(4, maximize_honest_mabk), (8, maximize_unconstrained_mabk)]
)
def test_rows_whose_last_sweep_keeps_the_value_can_converge(n, maximize):
    # at the default seed, N=4 honest restart 93 is won by its mirror, whose
    # last sweep loses one ulp; the tangent gradient at its post-sweep point
    # is 3.6e-18 of |v|, so it counts as converged.  At N=8 free no sweep
    # stalls at this seed: every restart meets the stop test before a sweep
    assert maximize(n, OptimizerConfig()).converged_count == 100


@pytest.mark.parametrize("n", [25, 29])
def test_honest_large_n_reaches_the_cap(n):
    # the seesaw's step does not scale with the value, which is about 1e-5
    # of the cap at a random start here
    result = maximize_honest_mabk(n, OptimizerConfig(restarts=16, seed=1))
    assert result.best_value == pytest.approx(theorem1_bound(n), rel=1e-12)


@pytest.mark.parametrize("n", [7, 9])
def test_every_restart_at_the_optimum_counts_as_converged(n):
    result = maximize_honest_mabk(n, OptimizerConfig(restarts=100, seed=1))
    cap = theorem1_bound(n)
    at_cap = sum(v == pytest.approx(cap, rel=1e-12) for v in result.per_restart_values)
    assert at_cap == 100
    assert result.converged_count == 100


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
