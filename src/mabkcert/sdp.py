"""Small deterministic primal-dual interior-point solver for LMI problems.

Problem form:

    maximize    c . y
    subject to  M(y) = F0 + sum_i y_i F_i  is positive semidefinite

with symmetric basis matrices ``F_i`` of disjoint support.  The Lagrange dual is

    minimize    <F0, Z>
    subject to  <F_i, Z> = -c_i  for all i,   Z >= 0,

so any dual-feasible ``Z`` certifies ``c . y <= <F0, Z>``.  The solver runs the
HKM primal-dual iteration with Mehrotra's predictor-corrector step (Mehrotra
1992; with the HKM direction as in SDPT3, Toh, Todd & Tutuncu 1999).  Each
iteration assembles and Cholesky-factors the Schur matrix
``H_ij = <F_i, sym(W F_j Z)>``, ``W = S^-1``, once, and solves with that one
factor twice:

* predictor: ``H dy = c``, the affine step toward ``mu = 0``, whose step
  lengths to the boundary give ``mu_aff``;
* corrector: ``H dy = sigma mu <F_i, W> + c - <F_i, W dS_aff dZ_aff>``, with
  the centering parameter ``sigma = min(1, max((mu_aff / mu)^3,
  0.1 |gap| / (d mu)))``.  The floor keeps ``sigma mu`` at no less than a
  tenth of the per-dimension duality gap: without it ``mu`` can collapse
  while a lagging dual residual holds the gap up, and ``Z`` loses
  definiteness before the gap closes.

The corrector's step lengths follow the fraction-to-boundary rule (0.98), with
positive-definiteness checked through symmetric (Cholesky-based)
factorizations.  Each ``SdpSolution.trace`` row is ``(mu, primal, dual, gap,
dual residual, alpha_p, alpha_d, sigma)`` for one iteration; the last row of
an optimal solve takes no step and carries zeros in its last three fields.
Every ``y_i`` is free: a moment with a fixed value is not a variable, and
callers fold it into ``F0`` themselves, as ``npa.lower_to_sdp`` does for the
perfect-correlation pins.

The iterates are dense.  ``SdpProblem`` holds the basis as upper-triangle
entry arrays: entry ``e`` puts ``value[e]`` at ``(row[e], col[e])`` and at
``(col[e], row[e])`` of ``F_var[e]``, so every ``F_i`` is symmetric by
construction.  This module alone turns them into an operator:
``SdpProblem.operator``, built once per problem, is one CSR matrix of shape
(m, d*d) whose row ``i`` is ``F_i`` flattened, so the adjoint ``<F_i, Z>`` is
``operator @ vec(Z)``, ``sum y_i F_i`` is ``operator.T @ y`` reshaped, and each
Schur column is one sparse product with a dense ``W F_j Z`` (the column-wise
sparse evaluation of Fujisawa, Kojima & Nakata 1997).  scipy is imported by the
functions that need it, not by the module, so importing ``sdp`` loads no
scipy.  Everything is deterministic: fixed elimination order, no randomized
pivoting, so identical inputs produce bit-identical iteration traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CENTERING_FLOOR = 0.1
FRACTION_TO_BOUNDARY = 0.98
CERT_EIG_FLOOR = -1e-9
CERT_STATIONARITY_TOL = 1e-7


class SdpSolverError(RuntimeError):
    """Raised on numerical breakdown or iteration-limit hits, with diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SdpProblem:
    """Dual-form LMI data: ``M(y) = F0 + sum y_i F_i`` must stay PSD.

    Basis entry ``e`` puts ``value[e]`` at ``(row[e], col[e])`` and
    ``(col[e], row[e])`` of ``F_var[e]``; ``row[e] <= col[e]``, so a diagonal
    entry is counted once.  Malformed entries raise ``ValueError``.
    """

    f0: np.ndarray
    var: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        d, m = self.dimension, self.n_vars
        lengths = {len(a) for a in (self.var, self.row, self.col, self.value)}
        if len(lengths) > 1:
            raise ValueError("basis entry arrays var/row/col/value differ in length")
        checks = (
            (self.row > self.col, "lies below the diagonal"),
            ((self.row < 0) | (self.col >= d), f"has row or col outside range({d})"),
            ((self.var < 0) | (self.var >= m), f"has var outside range({m})"),
        )
        for bad, what in checks:
            if bad.any():
                e = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"basis entry {e} (var {self.var[e]}, row {self.row[e]},"
                    f" col {self.col[e]}) {what}"
                )

    @property
    def dimension(self) -> int:
        return self.f0.shape[0]

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @cached_property
    def operator(self):
        """The CSR matrix of shape (m, d*d) whose row ``i`` is ``F_i`` flattened."""
        from scipy.sparse import csr_matrix

        d, off = self.dimension, self.row != self.col
        var = np.append(self.var, self.var[off])
        flat = np.append(self.row * d + self.col, self.col[off] * d + self.row[off])
        value = np.append(self.value, self.value[off])
        return csr_matrix((value, (var, flat)), shape=(self.n_vars, d * d))

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """``<F_i, Z>`` for every i."""
        return self.operator @ z.ravel()

    def combination(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i F_i``."""
        return (self.operator.T @ y).reshape(self.dimension, self.dimension)


@dataclass(frozen=True)
class SdpSolution:
    """An optimal solve (``solve`` raises on every other exit); ``bound`` is
    the dual objective (a certified upper bound)."""

    y: np.ndarray
    primal_objective: float
    bound: float
    dual_matrix: np.ndarray
    iterations: int
    trace: tuple[tuple[float, ...], ...] = field(repr=False, default=())

    @property
    def duality_gap(self) -> float:
        return self.bound - self.primal_objective


def _max_step(x_chol: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with X + alpha*Delta still PSD, via L^-1 Delta L^-T."""
    from scipy.linalg import eigvalsh, solve_triangular

    a = solve_triangular(x_chol, delta, lower=True)
    t = solve_triangular(x_chol, a.T, lower=True)
    lam_min = float(eigvalsh(0.5 * (t + t.T))[0])
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem, tol: float = 1e-9, max_iter: int = 120) -> SdpSolution:
    """Run the interior-point iteration until gap and residuals drop below tol."""
    from scipy.linalg import cho_factor, cho_solve, cholesky

    d, m = problem.dimension, problem.n_vars
    f0, c = problem.f0, problem.c

    y = np.zeros(m)
    s = f0 + problem.combination(y)
    try:
        cholesky(s, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SdpSolverError(
            "no strictly feasible start: M(0) is not positive definite",
            {"dimension": d, "n_vars": m},
        ) from exc
    z = np.eye(d)
    # per basis matrix F_j: its entry rows, entry columns and values
    operator = problem.operator
    ptr, flat, vals = operator.indptr, operator.indices, operator.data
    columns = [
        (*np.divmod(flat[ptr[j] : ptr[j + 1]], d), vals[ptr[j] : ptr[j + 1]])
        for j in range(m)
    ]
    trace: list[tuple[float, ...]] = []

    for it in range(1, max_iter + 1):
        try:
            ls = cholesky(s, lower=True)
            lz = cholesky(z, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SdpSolverError(
                f"factorization failure at iteration {it}",
                {"iteration": it, "trace": tuple(trace)},
            ) from exc
        w = cho_solve((ls, True), np.eye(d))

        mu = float(np.tensordot(s, z)) / d
        primal = float(c @ y)
        dual = float(np.tensordot(f0, z))
        gap = dual - primal
        rd = c + problem.adjoint(z)  # want <F_i, Z> = -c_i
        rd_inf = float(np.abs(rd).max()) if m else 0.0

        # weak duality with the residual-corrected dual objective: by the exact
        # identity dual - primal = <S, Z> - y . rd, the corrected slack is
        # <S, Z>, which must stay non-negative while S and Z are PD
        wd_slack = gap + float(y @ rd)
        if wd_slack < -1e-9 * (1.0 + abs(dual)):
            raise SdpSolverError(
                f"weak duality violated at iteration {it}: slack {wd_slack}",
                {"iteration": it},
            )

        if (
            abs(gap) <= tol * (1.0 + abs(dual))
            and rd_inf <= max(tol, 1e-10) * 100.0
            and mu <= tol * 10.0
        ):
            trace.append((mu, primal, dual, gap, rd_inf, 0.0, 0.0, 0.0))
            break

        # Schur matrix H_ij = <F_i, sym(W F_j Z)> = <F_i, W F_j Z>, as every F_i
        # is symmetric; assembled column by column and factored once per
        # iteration, for both the predictor and the corrector solve
        h = np.empty((m, m))
        for j, (rj, cj, vj) in enumerate(columns):
            h[:, j] = problem.adjoint((w[:, rj] * vj) @ z[cj, :])
        h = 0.5 * (h + h.T)
        ridge = 1e-14 * max(1.0, float(h.diagonal().max()))
        h[np.diag_indices_from(h)] += ridge
        try:
            hc = cho_factor(h, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SdpSolverError(
                f"Schur complement factorization failed at iteration {it}",
                {"iteration": it, "mu": mu, "trace": tuple(trace)},
            ) from exc

        # predictor: the affine-scaling step, aimed at mu = 0
        dy_aff = cho_solve(hc, c)
        ds_aff = problem.combination(dy_aff)
        dz_aff = -z - w @ ds_aff @ z
        dz_aff = 0.5 * (dz_aff + dz_aff.T)
        s_aff = s + min(1.0, _max_step(ls, ds_aff)) * ds_aff
        z_aff = z + min(1.0, _max_step(lz, dz_aff)) * dz_aff
        mu_aff = float(np.tensordot(s_aff, z_aff)) / d

        # centering: Mehrotra's (mu_aff / mu)^3, floored so that sigma * mu
        # never falls below a tenth of the per-dimension gap
        floor = CENTERING_FLOOR * abs(gap) / (d * mu)
        sigma = min(1.0, max((mu_aff / mu) ** 3, floor))

        # corrector: the same factor, with the second-order term W dS_aff dZ_aff
        second_order = w @ ds_aff @ dz_aff
        dy = cho_solve(
            hc, sigma * mu * problem.adjoint(w) + c - problem.adjoint(second_order)
        )
        ds = problem.combination(dy)
        dz = sigma * mu * w - z - w @ ds @ z - second_order
        dz = 0.5 * (dz + dz.T)

        alpha_p = min(1.0, FRACTION_TO_BOUNDARY * _max_step(ls, ds))
        alpha_d = min(1.0, FRACTION_TO_BOUNDARY * _max_step(lz, dz))

        y = y + alpha_p * dy
        s = f0 + problem.combination(y)
        z = z + alpha_d * dz
        trace.append((mu, primal, dual, gap, rd_inf, alpha_p, alpha_d, sigma))
    else:
        raise SdpSolverError(
            f"iteration limit {max_iter} reached (gap {trace[-1][3]:.3e},"
            f" residual {trace[-1][4]:.3e})",
            {"iterations": max_iter, "trace": tuple(trace)},
        )

    return SdpSolution(
        y=y,
        primal_objective=float(c @ y),
        bound=float(np.tensordot(f0, z)),
        dual_matrix=z,
        iterations=it,
        trace=tuple(trace),
    )


def verify_certificate(problem: SdpProblem, solution: SdpSolution) -> bool:
    """Re-check the dual certificate without trusting solver internals.

    Confirms the dual slack is PSD up to a -1e-9 eigenvalue floor, dual
    feasibility (stationarity) residuals are below 1e-7 for every free
    variable, and the reported bound matches the recomputed dual objective.
    """
    from scipy.linalg import eigvalsh

    z = solution.dual_matrix
    lam_min = float(eigvalsh(0.5 * (z + z.T))[0])
    if lam_min < CERT_EIG_FLOOR:
        return False

    residual = problem.c + problem.adjoint(z)
    if residual.size and float(np.abs(residual).max()) >= CERT_STATIONARITY_TOL:
        return False

    recomputed = float(np.tensordot(problem.f0, z))
    return abs(recomputed - solution.bound) <= 1e-9 * (1.0 + abs(solution.bound))


def _check_certifiable(problem: SdpProblem) -> None:
    """Refuse problems for which ``certified_upper_bound`` would be unsound.

    The bound needs ``tr F_i = 0`` (so lifting ``Z`` by ``e * I`` leaves the
    stationarity residuals unchanged) and ``|y_i| <= 1`` on the feasible set.
    The latter holds when ``F0`` has a unit diagonal, no ``F_i`` touches the
    diagonal, and each ``F_i`` has an entry ``|v| >= 1`` that neither ``F0``
    nor any other ``F_k`` shares: the 2x2 principal minor through that entry,
    ``[[1, v y_i], [v y_i, 1]]``, is PSD only if ``|v y_i| <= 1``.
    """
    d = problem.dimension
    if not np.array_equal(np.diag(problem.f0), np.ones(d)):
        raise ValueError("certified bound needs F0 with a unit diagonal")
    row, col = problem.row, problem.col
    if np.any(row == col):
        raise ValueError("certified bound needs basis matrices with a zero diagonal")
    position = row * d + col
    sharers = np.bincount(position, minlength=d * d)[position]
    anchors = (
        (sharers == 1)
        & (problem.f0[row, col] == 0.0)
        & (np.abs(problem.value) >= 1.0)
    )
    anchored = np.zeros(problem.n_vars, dtype=bool)
    anchored[problem.var[anchors]] = True
    if not anchored.all():
        raise ValueError(
            f"certified bound needs |y_i| <= 1, not implied for variables"
            f" {np.flatnonzero(~anchored).tolist()}"
        )


def certified_upper_bound(problem: SdpProblem, solution: SdpSolution) -> float:
    """Bound valid even with tiny dual residuals; refuses problems it cannot bound.

    For moment problems every variable is a correlator of dichotomic words, so
    ``|y_i| <= 1``; each stationarity residual then costs at most its absolute
    value, and a negative dual eigenvalue ``-e`` can be lifted by ``e * I``
    at a price of ``e * tr F0``.  ``_check_certifiable`` raises ``ValueError``
    unless the problem's structure implies both assumptions.
    """
    from scipy.linalg import eigvalsh

    _check_certifiable(problem)
    z = solution.dual_matrix
    residual = problem.c + problem.adjoint(z)
    lam_min = float(eigvalsh(0.5 * (z + z.T))[0])
    lift = max(0.0, -lam_min) * float(np.trace(problem.f0))
    slack = float(np.abs(residual).sum()) if residual.size else 0.0
    return float(np.tensordot(problem.f0, z)) + slack + lift
