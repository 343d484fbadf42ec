"""Multi-start maximization of MABK values over measurement Bloch vectors.

A candidate is the (n, 2, 3) settings array of ``correlators``; the honest
search pins slot (party 0, input 0) to sigma_z's (0, 0, 1) and never writes
it.  The starts map spherical angles from one ``numpy.random.default_rng(seed)``
stream, drawn restart by restart (each restart's thetas, then its phis, one per
free slot in party-major order), so restart r depends only on (n, honest,
seed, r) and a longer run extends a shorter one bit for bit.

The ascent is a party-wise seesaw.  The value on GHZ is linear in each
party's pair of Bloch vectors, ``v = g_{i,0} . b_{i,0} + g_{i,1} . b_{i,1}``,
and the coefficients ``g_{i,x} = dv/db_{i,x}`` (``mabk_gradient``) do not
depend on that pair.  So the best pair given the other parties is exact: each
free slot becomes ``g/|g|`` (a slot with ``g = 0`` is kept), after which ``v``
is the sum of the free ``|g_{i,x}|`` plus the pinned slot's fixed term, and
no step lowers it.  A sweep steps party 0, then parties 1..n-1 in turn, each
on the gradient at the point its predecessors left, in O(N) per sweep: when
party k steps, parties k+1..n-1 have not moved, so the reverse-pass adjoint
at k is the one of the stop test's gradient call, and only the forward pair
through parties 0..k-1 is new; it advances one stepped party at a time, and
after the last party it gives the post-sweep value.  No step depends on the
value's scale.

The score is |v|, but the seesaw ascends ``+v`` only.  Negating one party's
pair negates ``v`` and every other party's gradient bit for bit, so the
``-v`` seesaw from a start is the ``+v`` seesaw from its mirror in that party.
The honest search, whose party 0 is pinned, ascends its R starts and then
their party-1 mirrors, negates party 1 back and keeps each restart's better
row.  The free search runs its R starts alone: their party-0 mirrors equal
them after party 0's first step.  Rows are independent and every kernel
operation is elementwise, so a batch equals its rows run one by one.

At the start of a sweep a row stops, converged, when the largest tangent part
``|g - (g . b) b|`` over its free slots is at most ``_CONVERGENCE_TOL`` times
|v|: relative, because the rounding of v, and with it the smallest gradient a
sweep can act on, grows with |v|.  A row whose sweep does not raise its value,
by a tie or by a rounding loss, stops at its pre-sweep point, converged when
its post-sweep point passes the same test.  A row still live after
``max_iterations`` sweeps stops unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlators import (
    _bloch_gradient,
    _factors,
    _forward_step,
    _gradient_and_adjoint,
    _pair_value,
    _party_derivative,
    mabk_gradient,
    mabk_value,
)

# A row has converged when no free slot's tangent gradient exceeds this times |value|.
_CONVERGENCE_TOL = 1e-8
# Restart values within this relative distance of the best count as tied.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 100
    seed: int = 20240811
    max_iterations: int = 400  # seesaw sweeps per row

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float  # the largest per-restart value
    # (n, 2, 3): party i's Bloch vector for input x, from the first restart
    # whose value is within _TIE_TOL (relative) of best_value
    best_settings: np.ndarray
    per_restart_values: tuple[float, ...]
    # restarts whose better ascent met the relative stop, before a sweep or
    # after one that did not raise the value
    converged_count: int


def _bloch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors (..., 3) at spherical angles theta and phi."""
    st = np.sin(theta)
    return np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


def _free_slots(n: int, honest: bool) -> np.ndarray:
    """(n, 2) mask of the slots the seesaw writes: all but the pinned key."""
    free = np.ones((n, 2), dtype=bool)
    free[0, 0] = not honest
    return free


def _initial_settings(n: int, honest: bool, restarts: int, seed: int) -> np.ndarray:
    """Starting settings (restarts, n, 2, 3), restart by restart from rng(seed)."""
    shape = (restarts, 2, 2 * n - honest)  # thetas in [0, pi), then phis in [0, 2 pi)
    angles = np.random.default_rng(seed).uniform(0.0, [[np.pi], [2 * np.pi]], shape)
    # the pinned slot's angles are 0: sigma_z
    angles = np.pad(angles, ((0, 0), (0, 0), (int(honest), 0)))
    return _bloch(angles[:, 0], angles[:, 1]).reshape(restarts, n, 2, 3)


def _tangent_norm(
    settings: np.ndarray, grad: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """Largest ``|g - (g . b) b|`` over the free slots of each row."""
    radial = (grad * settings).sum(axis=-1, keepdims=True) * settings
    tangent = np.linalg.norm(grad - radial, axis=-1)
    return np.where(free, tangent, 0.0).max(axis=(-2, -1))


def _party_step(
    settings: np.ndarray, grad: np.ndarray, k: int, free: np.ndarray
) -> None:
    """Set party k's free slots with a nonzero gradient to ``g/|g|``, in place."""
    g = grad[:, k]
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    np.divide(g, norm, out=settings[:, k], where=free[k, :, None] & (norm > 0))


def _sweep(
    settings: np.ndarray, grad: np.ndarray, adj: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """One seesaw sweep of the value, in place; returns the post-sweep value.

    ``grad`` and ``adj`` come from ``_gradient_and_adjoint`` at ``settings``.
    Party 0 steps on ``grad``.  Party k > 0 steps on its gradient at the point
    parties 0..k-1 left, written into ``grad[:, k]``: only parties k+1.. enter
    ``adj[k]``, and they have not moved, so the pre-sweep ``adj[k]`` pairs
    with the forward pair through the stepped parties, which then advances
    through party k.  The last pair's ``Re m`` is the post-sweep value.
    """
    n = settings.shape[1]
    even = n % 2 == 0
    _party_step(settings, grad, 0, free)
    pair = _factors(settings[:, 0], even)[0]
    for k in range(1, n):
        _bloch_gradient(_party_derivative(pair, adj[..., k, :]), grad[:, k])
        _party_step(settings, grad, k, free)
        _, a, b_pair = _factors(settings[:, k], even)
        pair = _forward_step(pair, a, b_pair)
    return _pair_value(pair)


def _ascend(
    x0: np.ndarray, free: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched seesaw of the value in each row; returns (x, f, converged)."""
    x = x0.copy()
    f = mabk_value(x)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))  # rows still ascending, in row order
    stalled = np.zeros(len(x), dtype=bool)  # rows whose last sweep did not raise f
    post = np.empty_like(x)  # a stalled row's post-sweep point

    for _ in range(config.max_iterations):
        if not live.size:
            break
        trial = x[live]
        grad, adj = _gradient_and_adjoint(trial)
        stop = _tangent_norm(trial, grad, free) <= _CONVERGENCE_TOL * np.abs(f[live])
        converged[live[stop]] = True
        live, trial = live[~stop], trial[~stop]
        if not live.size:
            break

        ft = _sweep(trial, grad[~stop], adj[:, ~stop], free)
        up = ft > f[live]  # a sweep that cannot raise the value is a local stop
        stalled[live[~up]] = True
        post[live[~up]] = trial[~up]
        live = live[up]
        x[live] = trial[up]
        f[live] = ft[up]

    # a stalled row takes the stop test at its post-sweep point, all of them
    # in one gradient call; the row keeps its pre-sweep point, never lower
    rows = np.flatnonzero(stalled)
    if rows.size:
        tangent = _tangent_norm(post[rows], mabk_gradient(post[rows]), free)
        converged[rows] = tangent <= _CONVERGENCE_TOL * np.abs(f[rows])
    return x, f, converged


def _maximize(n: int, honest: bool, config: OptimizerConfig | None) -> OptimizationResult:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cfg = config if config is not None else OptimizerConfig()
    restarts = cfg.restarts
    x0 = _initial_settings(n, honest, restarts, cfg.seed)

    # in the honest search, rows R..2R-1 ascend the starts with party 1
    # negated, that is -value from the same starts; party 1 is negated back
    # and each restart keeps its better row, the unmirrored one on a tie
    if honest:
        x0 = np.concatenate((x0, x0))
        x0[restarts:, 1] *= -1
    x, f, converged = _ascend(x0, _free_slots(n, honest), cfg)
    x[restarts:, 1] *= -1
    winner = np.argmax(f.reshape(-1, restarts), axis=0) * restarts
    winner += np.arange(restarts)
    values = f[winner]

    # several restarts reach the optimum up to rounding; the settings come
    # from the first of them, so a last-bit change in the kernel cannot swap
    # the reported strategy
    top = float(values.max())
    best = int(np.flatnonzero(values >= top - _TIE_TOL * max(1.0, abs(top)))[0])
    return OptimizationResult(
        best_value=top,
        best_settings=x[winner[best]],
        per_restart_values=tuple(float(v) for v in values),
        converged_count=int(converged[winner].sum()),
    )


def maximize_honest_mabk(
    n: int, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Best MABK value over all settings with the first party's A0 = sigma_z."""
    return _maximize(n, honest=True, config=config)


def maximize_unconstrained_mabk(
    n: int, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Best MABK value with every observable free; sanity oracle for 2**((n-1)/2)."""
    return _maximize(n, honest=False, config=config)
