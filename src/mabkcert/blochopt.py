"""Multi-start maximization of MABK values over measurement Bloch vectors.

Observables are parameterized by spherical angles, so every candidate is a
unit Bloch vector by construction; the pinned key observable of the honest
search is the slot theta = phi = 0, which is sigma_z exactly.  Each restart
draws its starting angles from ``numpy.random.default_rng([seed,
restart_index])`` (the documented counter scheme: results depend only on (n,
restarts, seed)) and runs a local ascent with Armijo backtracking.  The
signed Bell value and its exact gradient in the Bloch vectors come from
``correlators.mabk_value`` and ``correlators.mabk_gradient``; this module maps
angles to the (n, 2, 3) settings array and chains the gradient through the
angles.  There are no finite differences.  The absolute value in the MABK
score is handled by ascending the signed objective from each start and its
negation from the same start, and keeping the larger of the two.

The ``2R`` signed ascents of R restarts run as one numpy batch whose rows
carry their sign.  Per-row state is independent and every kernel operation is
elementwise, so the batched run is identical to running rows one by one.  Rows
still ascending form the live set.  A row leaves it converged when its largest
angle derivative is at most ``_CONVERGENCE_TOL`` times its |value|: relative,
because the value's rounding, and with it the smallest derivative the ascent
can act on, grows with |value| (2**((N-1)/2) at the free optimum).  It leaves
unconverged when its line search finds no step that moves it and gains
enough.  Rows still live at the iteration cap have not converged either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlators import mabk_gradient, mabk_value

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 30
_STEP_GROWTH = 1.3
_MAX_STEP = 2.0
# A row has converged when no angle derivative exceeds this times |value|.
_CONVERGENCE_TOL = 1e-8
# Restart values within this relative distance of the best count as tied.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 100
    seed: int = 20240811
    max_iterations: int = 400

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
    # restarts whose better ascent met the relative stop, not a failed line
    # search or the iteration cap; too low at odd N >= 7, where restarts at
    # the optimum can end on a failed line search
    converged_count: int


class _MabkObjective:
    """Batched signed MABK value and its gradient as functions of packed angles."""

    def __init__(self, n: int, honest: bool):
        self.n = n
        self.honest = honest
        self.n_obs = 2 * n - 1 if honest else 2 * n
        self.dim = 2 * self.n_obs

    def _trig(self, angles: np.ndarray) -> tuple[np.ndarray, ...]:
        """sin/cos of theta and phi for all 2n observables, pinned slot first."""
        if self.honest:
            pinned = np.zeros(angles.shape[:-1] + (2,))
            angles = np.concatenate((pinned, angles), axis=-1)
        theta = angles[..., 0::2]
        phi = angles[..., 1::2]
        return np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)

    def observables(self, angles: np.ndarray) -> np.ndarray:
        """Angles (..., dim) -> Bloch tensor (..., n, 2, 3)."""
        return self._bloch(self._trig(angles))

    def _bloch(self, trig: tuple[np.ndarray, ...]) -> np.ndarray:
        st, ct, sp, cp = trig
        bloch = np.stack((st * cp, st * sp, ct), axis=-1)  # (..., 2n, 3)
        return bloch.reshape(st.shape[:-1] + (self.n, 2, 3))

    def value(self, angles: np.ndarray) -> np.ndarray:
        """Signed Bell value, batched over leading axes of ``angles``."""
        return mabk_value(self.observables(angles))

    def gradient(self, angles: np.ndarray) -> np.ndarray:
        """Exact gradient of ``value`` with respect to ``angles``."""
        trig = self._trig(angles)
        g = mabk_gradient(self._bloch(trig))
        g = g.reshape(angles.shape[:-1] + (2 * self.n, 3))
        st, ct, sp, cp = trig
        grad = np.empty(angles.shape[:-1] + (4 * self.n,))
        grad[..., 0::2] = ct * (g[..., 0] * cp + g[..., 1] * sp) - st * g[..., 2]
        grad[..., 1::2] = st * (g[..., 1] * cp - g[..., 0] * sp)
        return grad[..., 4 * self.n - self.dim :]


def _initial_angles(objective: _MabkObjective, restarts: int, seed: int) -> np.ndarray:
    angles = np.empty((restarts, objective.dim))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        theta = rng.uniform(0.0, np.pi, objective.n_obs)
        phi = rng.uniform(0.0, 2.0 * np.pi, objective.n_obs)
        angles[r, 0::2] = theta
        angles[r, 1::2] = phi
    return angles


def _ascend(
    objective: _MabkObjective, sign: np.ndarray, x0: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ascent of ``sign[r] * value`` in each row r; returns (x, f, converged)."""
    x = x0.copy()
    f = sign * objective.value(x)
    step = np.full(len(x), 0.5)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))  # rows still ascending, in row order

    for _ in range(config.max_iterations):
        if not live.size:
            break
        grad = sign[live, None] * objective.gradient(x[live])
        stop = np.abs(grad).max(axis=1) <= _CONVERGENCE_TOL * np.abs(f[live])
        converged[live[stop]] = True
        live, grad = live[~stop], grad[~stop]
        gsq = (grad * grad).sum(axis=1)

        moved = np.zeros(live.size, dtype=bool)
        for _bt in range(_MAX_BACKTRACKS):
            trying = np.flatnonzero(~moved)
            if not trying.size:
                break
            rows = live[trying]
            cand = x[rows] + step[rows, None] * grad[trying]
            fc = sign[rows] * objective.value(cand)
            ok = fc >= f[rows] + _ARMIJO_C1 * step[rows] * gsq[trying]
            # a step too short to move x passes that test once the bound is
            # below f's last bit; accepting it would keep the row alive,
            # unmoved, until the iteration cap
            ok &= (cand != x[rows]).any(axis=1)
            x[rows[ok]] = cand[ok]
            f[rows[ok]] = fc[ok]
            moved[trying[ok]] = True
            step[rows[~ok]] *= 0.5

        live = live[moved]  # an exhausted line search is a local stop
        step[live] = np.minimum(step[live] * _STEP_GROWTH, _MAX_STEP)

    return x, f, converged


def _maximize(n: int, honest: bool, config: OptimizerConfig | None) -> OptimizationResult:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cfg = config if config is not None else OptimizerConfig()
    objective = _MabkObjective(n, honest)
    x0 = _initial_angles(objective, cfg.restarts, cfg.seed)

    # rows 0..R-1 ascend +value, rows R..2R-1 -value, from the same starts;
    # each restart keeps its better row, the +value one on a tie
    restarts = cfg.restarts
    sign = np.repeat([1.0, -1.0], restarts)
    x, f, converged = _ascend(objective, sign, np.concatenate((x0, x0)), cfg)
    winner = np.argmax(f.reshape(2, restarts), axis=0) * restarts + np.arange(restarts)
    values = f[winner]

    # several restarts reach the optimum up to rounding; the settings come
    # from the first of them, so a last-bit change in the kernel cannot swap
    # the reported strategy
    top = float(values.max())
    best = int(np.flatnonzero(values >= top - _TIE_TOL * max(1.0, abs(top)))[0])
    return OptimizationResult(
        best_value=top,
        best_settings=objective.observables(x[winner[best]]),
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
