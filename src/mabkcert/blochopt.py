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
elementwise, so the batched run is identical to running rows one by one.  A
row has converged when its largest angle derivative is at most
``_CONVERGENCE_TOL`` times its |value|.  The test is relative because the
value's rounding, and with it the smallest derivative the ascent can still
act on, grows with |value| (2**((N-1)/2) at the free optimum).  A row also
stops when its line search finds no step that moves it and gains enough.
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
    # search or the iteration cap
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
    rows = x.shape[0]
    f = sign * objective.value(x)
    step = np.full(rows, 0.5)
    done = np.zeros(rows, dtype=bool)
    converged = np.zeros(rows, dtype=bool)

    for _ in range(config.max_iterations):
        active = ~done
        if not active.any():
            break
        idx_active = np.flatnonzero(active)
        xa = x[idx_active]
        grad = sign[idx_active, None] * objective.gradient(xa)

        gnorm = np.abs(grad).max(axis=1)
        newly_conv = gnorm <= _CONVERGENCE_TOL * np.abs(f[idx_active])
        if newly_conv.any():
            idx = idx_active[newly_conv]
            done[idx] = True
            converged[idx] = True
        still = ~newly_conv
        if not still.any():
            continue

        idx_live = idx_active[still]
        xl = xa[still]
        gl = grad[still]
        sl = sign[idx_live]
        fl = f[idx_live]
        tl = step[idx_live]
        gsq = (gl * gl).sum(axis=1)

        accepted = np.zeros(len(idx_live), dtype=bool)
        for _bt in range(_MAX_BACKTRACKS):
            trying = ~accepted
            if not trying.any():
                break
            cand = xl[trying] + tl[trying, None] * gl[trying]
            fc = sl[trying] * objective.value(cand)
            ok = fc >= fl[trying] + _ARMIJO_C1 * tl[trying] * gsq[trying]
            # a step too short to move x passes that test once the bound is
            # below fl's last bit; accepting it would keep the row alive,
            # unmoved, until the iteration cap
            ok &= (cand != xl[trying]).any(axis=1)
            sel = np.flatnonzero(trying)[ok]
            if sel.size:
                xl[sel] = cand[ok]
                fl[sel] = fc[ok]
                accepted[sel] = True
            tl[~accepted & trying] *= 0.5

        stalled = ~accepted
        if stalled.any():
            done[idx_live[stalled]] = True  # line search exhausted: local stop
        x[idx_live] = xl
        f[idx_live] = fl
        step[idx_live] = np.minimum(tl * _STEP_GROWTH, _MAX_STEP)

    return x, f, converged


def _maximize(n: int, honest: bool, config: OptimizerConfig | None) -> OptimizationResult:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cfg = config if config is not None else OptimizerConfig()
    objective = _MabkObjective(n, honest)
    x0 = _initial_angles(objective, cfg.restarts, cfg.seed)

    # rows 0..R-1 ascend +value, rows R..2R-1 -value, from the same starts
    sign = np.repeat([1.0, -1.0], cfg.restarts)
    x, f, converged = _ascend(objective, sign, np.concatenate((x0, x0)), cfg)
    x_plus, x_minus = np.split(x, 2)
    f_plus, f_minus = np.split(f, 2)
    conv_plus, conv_minus = np.split(converged, 2)

    plus_wins = f_plus >= f_minus
    values = np.where(plus_wins, f_plus, f_minus)
    winner_converged = np.where(plus_wins, conv_plus, conv_minus)

    # several restarts reach the optimum up to rounding; the settings come
    # from the first of them, so a last-bit change in the kernel cannot swap
    # the reported strategy
    top = float(values.max())
    best = int(np.flatnonzero(values >= top - _TIE_TOL * max(1.0, abs(top)))[0])
    best_angles = x_plus[best] if plus_wins[best] else x_minus[best]
    return OptimizationResult(
        best_value=top,
        best_settings=objective.observables(best_angles),
        per_restart_values=tuple(float(v) for v in values),
        converged_count=int(winner_converged.sum()),
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
