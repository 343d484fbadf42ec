"""Multi-start maximization of MABK values over measurement Bloch vectors.

Observables are parameterized by spherical angles, so every candidate is a
unit Bloch vector by construction; the pinned key observable of the honest
search is the slot theta = phi = 0, which is sigma_z exactly.  Each restart
draws its starting angles from ``numpy.random.default_rng([seed,
restart_index])`` (the documented counter scheme: results depend only on (n,
restarts, seed)) and runs a local ascent with Armijo backtracking.  Values
come from the closed-form GHZ kernel and gradients are exact: the kernel's
gradient with respect to each term's Bloch vectors, weighted by the term
coefficients and chained through the angles.  There are no finite
differences.  The absolute value in the MABK score is handled by ascending the
signed objective and its negation separately and keeping the larger of the
two.

All restarts are advanced together as numpy batches; per-restart state is
independent, so the batched run is identical to running restarts one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import (
    MeasurementSettings,
    ghz_expectation_batch,
    ghz_expectation_gradient,
)
from .mabk import mabk_expression
from .pauli import BlochVector

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 30
_STEP_GROWTH = 1.3
_MAX_STEP = 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 100
    seed: int = 20240811
    convergence_tol: float = 1e-8
    max_iterations: int = 400

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


def default_config(n: int, seed: int = 20240811) -> OptimizerConfig:
    """Default restart budget: 100 for n <= 5, 30 for larger scenarios."""
    return OptimizerConfig(restarts=100 if n <= 5 else 30, seed=seed)


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_settings: MeasurementSettings
    per_restart_values: tuple[float, ...]
    converged_count: int


def angles_to_bloch(theta: float, phi: float) -> BlochVector:
    """Spherical parameterization (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return BlochVector(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


class _MabkObjective:
    """Batched signed MABK value and its gradient as functions of packed angles."""

    def __init__(self, n: int, honest: bool):
        expr = mabk_expression(n)
        self.n = n
        self.honest = honest
        self.inputs = np.array([t.inputs for t in expr.terms], dtype=np.intp)
        self.coeffs = np.array([float(t.coefficient) for t in expr.terms])
        self.n_obs = 2 * n - 1 if honest else 2 * n
        self.dim = 2 * self.n_obs
        self._party_index = np.arange(n)[None, :]
        # _weights[t, i, x]: coefficient of term t where party i has input x, else 0
        uses_input = self.inputs[..., None] == np.arange(2)
        self._weights = uses_input * self.coeffs[:, None, None]

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
        st, ct, sp, cp = self._trig(angles)
        bloch = np.stack((st * cp, st * sp, ct), axis=-1)  # (..., 2n, 3)
        return bloch.reshape(angles.shape[:-1] + (self.n, 2, 3))

    def _term_observables(self, angles: np.ndarray) -> np.ndarray:
        """Each term's Bloch vectors, (..., T, n, 3)."""
        return self.observables(angles)[..., self._party_index, self.inputs, :]

    def value(self, angles: np.ndarray) -> np.ndarray:
        """Signed Bell value, batched over leading axes of ``angles``."""
        chosen = self._term_observables(angles)
        return ghz_expectation_batch(self.n, chosen) @ self.coeffs

    def gradient(self, angles: np.ndarray) -> np.ndarray:
        """Exact gradient of ``value`` with respect to ``angles``."""
        per_term = ghz_expectation_gradient(self.n, self._term_observables(angles))
        g = np.einsum("...tic,tix->...ixc", per_term, self._weights)
        g = g.reshape(angles.shape[:-1] + (2 * self.n, 3))
        st, ct, sp, cp = self._trig(angles)
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
    objective: _MabkObjective, sign: float, x0: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched gradient ascent of ``sign * value``; returns (x, f, converged)."""
    x = x0.copy()
    restarts = x.shape[0]
    f = sign * objective.value(x)
    step = np.full(restarts, 0.5)
    done = np.zeros(restarts, dtype=bool)
    converged = np.zeros(restarts, dtype=bool)

    for _ in range(config.max_iterations):
        active = ~done
        if not active.any():
            break
        xa = x[active]
        grad = sign * objective.gradient(xa)

        gnorm = np.abs(grad).max(axis=1)
        newly_conv = gnorm < config.convergence_tol
        if newly_conv.any():
            idx = np.flatnonzero(active)[newly_conv]
            done[idx] = True
            converged[idx] = True
        still = ~newly_conv
        if not still.any():
            continue

        idx_live = np.flatnonzero(active)[still]
        xl = xa[still]
        gl = grad[still]
        fl = f[idx_live]
        tl = step[idx_live]
        gsq = (gl * gl).sum(axis=1)

        accepted = np.zeros(len(idx_live), dtype=bool)
        for _bt in range(_MAX_BACKTRACKS):
            trying = ~accepted
            if not trying.any():
                break
            cand = xl[trying] + tl[trying, None] * gl[trying]
            fc = sign * objective.value(cand)
            ok = fc >= fl[trying] + _ARMIJO_C1 * tl[trying] * gsq[trying]
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


def _settings_from_angles(
    objective: _MabkObjective, angles: np.ndarray
) -> MeasurementSettings:
    obs = objective.observables(angles)

    def bloch(party: int, choice: int) -> BlochVector:
        v = obs[party, choice]
        return BlochVector(float(v[0]), float(v[1]), float(v[2]))

    n = objective.n
    alice = (bloch(0, 0), bloch(0, 1))
    bobs = tuple((bloch(i, 0), bloch(i, 1)) for i in range(1, n))
    return MeasurementSettings(alice, bobs, honest=objective.honest)


def _maximize(n: int, honest: bool, config: OptimizerConfig | None) -> OptimizationResult:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cfg = config if config is not None else default_config(n)
    objective = _MabkObjective(n, honest)
    x0 = _initial_angles(objective, cfg.restarts, cfg.seed)

    x_plus, f_plus, conv_plus = _ascend(objective, +1.0, x0, cfg)
    x_minus, f_minus, conv_minus = _ascend(objective, -1.0, x0, cfg)

    plus_wins = f_plus >= f_minus
    values = np.where(plus_wins, f_plus, f_minus)
    winner_converged = np.where(plus_wins, conv_plus, conv_minus)

    best = int(np.argmax(values))
    best_angles = x_plus[best] if plus_wins[best] else x_minus[best]
    return OptimizationResult(
        best_value=float(values[best]),
        best_settings=_settings_from_angles(objective, best_angles),
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
