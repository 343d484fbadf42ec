"""Multi-start maximization of MABK values over measurement Bloch vectors.

A candidate is the (n, 2, 3) settings array of ``correlators``; the honest
search pins slot (party 0, input 0) to sigma_z's (0, 0, 1) and never writes
it.  Restart r maps spherical angles drawn from
``numpy.random.default_rng([seed, r])`` to its start (the documented counter
scheme: results depend only on (n, restarts, seed)).

The ascent is a party-wise seesaw.  The value on GHZ is linear in each
party's pair of Bloch vectors, ``v = g_{i,0} . b_{i,0} + g_{i,1} . b_{i,1}``,
and the coefficients ``g_{i,x} = dv/db_{i,x}`` (``mabk_gradient``) do not
depend on that pair.  So the best pair given the other parties is exact: each
free slot becomes ``g/|g|`` (a slot with ``g = 0`` is kept), after which ``v``
is the sum of the free ``|g_{i,x}|`` plus the pinned slot's fixed term, and
no step lowers it.  A sweep steps party 0, then parties 1..n-1 in turn, each
on a fresh gradient.  No step depends on the value's scale.

The score is |v|, so each start ascends the signed objective ``sign * v``.
The honest search runs both signs from every start and keeps the better, as
``2R`` signed rows of one batch.  The free search runs only ``+v``: negating
party 0 negates ``v`` bit for bit, so the ``-v`` seesaw, which steps party 0
first, is the mirror of the ``+v`` one.  Rows are independent and every
kernel operation is elementwise, so a batch equals its rows run one by one.

At the start of a sweep a row stops, converged, when the largest tangent part
``|g - (g . b) b|`` over its free slots is at most ``_CONVERGENCE_TOL`` times
|v|: relative, because the rounding of v, and with it the smallest gradient a
sweep can act on, grows with |v|.  A row whose sweep does not raise its value
stops unconverged at its pre-sweep point, as does a row still live after
``max_iterations`` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlators import mabk_gradient, mabk_value

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
    # restarts whose better ascent met the relative stop, not a sweep that
    # could not raise its value or the sweep cap
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
    """Starting settings (restarts, n, 2, 3); restart r draws from rng([seed, r])."""
    n_obs = 2 * n - int(honest)
    angles = np.zeros((restarts, 2, 2 * n))  # theta, phi; the pinned slot 0 is z
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        angles[r, 0, 2 * n - n_obs :] = rng.uniform(0.0, np.pi, n_obs)
        angles[r, 1, 2 * n - n_obs :] = rng.uniform(0.0, 2.0 * np.pi, n_obs)
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
    settings: np.ndarray, sign: np.ndarray, grad: np.ndarray, free: np.ndarray
) -> None:
    """One seesaw sweep of ``sign * value``, in place; ``grad`` is its gradient now.

    Party 0 steps on ``grad``, every later party on a fresh gradient.
    """
    s = sign[:, None, None, None]
    for k in range(settings.shape[1]):
        if k:
            grad = s * mabk_gradient(settings)
        _party_step(settings, grad, k, free)


def _ascend(
    x0: np.ndarray, sign: np.ndarray, free: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched seesaw of ``sign[r] * value`` in each row r; returns (x, f, converged)."""
    x = x0.copy()
    f = sign * mabk_value(x)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))  # rows still ascending, in row order

    for _ in range(config.max_iterations):
        if not live.size:
            break
        trial = x[live]
        grad = sign[live, None, None, None] * mabk_gradient(trial)
        stop = _tangent_norm(trial, grad, free) <= _CONVERGENCE_TOL * np.abs(f[live])
        converged[live[stop]] = True
        live, trial = live[~stop], trial[~stop]

        _sweep(trial, sign[live], grad[~stop], free)
        ft = sign[live] * mabk_value(trial)
        up = ft > f[live]  # a sweep that cannot raise the value is a local stop
        live = live[up]
        x[live] = trial[up]
        f[live] = ft[up]

    return x, f, converged


def _maximize(n: int, honest: bool, config: OptimizerConfig | None) -> OptimizationResult:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cfg = config if config is not None else OptimizerConfig()
    restarts = cfg.restarts
    x0 = _initial_settings(n, honest, restarts, cfg.seed)

    # rows 0..R-1 ascend +value and, in the honest search, rows R..2R-1 -value
    # from the same starts (the free -value seesaw mirrors the +value one);
    # each restart keeps its better row, the +value one on a tie
    signs = np.array([1.0, -1.0] if honest else [1.0])
    sign = np.repeat(signs, restarts)
    x, f, converged = _ascend(
        np.tile(x0, (len(signs), 1, 1, 1)), sign, _free_slots(n, honest), cfg
    )
    winner = np.argmax(f.reshape(len(signs), restarts), axis=0) * restarts
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
