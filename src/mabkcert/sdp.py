"""Small deterministic primal-dual interior-point solver for block LMI problems.

Problem form:

    maximize    c . y
    subject to  M(y) = F0 + sum_i y_i F_i  is positive semidefinite

with symmetric basis matrices ``F_i``, all block-diagonal with the same
diagonal blocks (one block is the plain LMI).  The Lagrange dual is

    minimize    <F0, Z>
    subject to  <F_i, Z> = -c_i  for all i,   Z >= 0,

so any dual-feasible ``Z`` certifies ``c . y <= <F0, Z>``; an optimal ``Z`` is
block-diagonal too.  The solver runs the HKM primal-dual iteration with
Mehrotra's predictor-corrector step (Mehrotra 1992; with the HKM direction as
in SDPT3, Toh, Todd & Tutuncu 1999).  Each iteration assembles and
Cholesky-factors the Schur matrix ``H_ij = <F_i, sym(W F_j Z)>``,
``W = S^-1``, once, and solves with that one factor twice:

* predictor: ``H dy = c``, the affine step toward ``mu = 0``, whose step
  lengths to the boundary give ``mu_aff``;
* corrector: ``H dy = sigma mu <F_i, W> + c - <F_i, W dS_aff dZ_aff>``, with
  the centering parameter ``sigma = min(1, max((mu_aff / mu)^3,
  0.1 |gap| / (d mu)))``.  The floor keeps ``sigma mu`` at no less than a
  tenth of the per-dimension duality gap: without it ``mu`` can collapse
  while a lagging dual residual holds the gap up, and ``Z`` loses
  definiteness before the gap closes.  The corrector's ``dy`` is refined
  once against the operator, ``<F_i, W dS Z>``, which the assembled ``H``
  only approximates; without that step the dual residual grows a
  thousandfold as ``mu`` falls below 1e-12.

Iteration 1's Cholesky factorization of ``S = M(0)``, at ``Z = I``, checks
that the start is strictly feasible.  The corrector's step lengths follow the
fraction-to-boundary rule (0.98).  One MRRR routine, ``_smallest_eigenvalue``,
gives the step lengths' eigenvalues and ``Z``'s in the certificate checks,
which recompute everything on the problem they are given.  Each
``SdpSolution.trace`` row is ``(mu, primal, dual, gap, dual residual, alpha_p,
alpha_d, sigma)`` for one iteration; the last row of an optimal solve takes no
step and carries zeros in its last three fields.
Every ``y_i`` is free: a moment with a fixed value is not a variable, and
callers fold it into ``F0`` themselves, as ``npa.lower_to_sdp`` does for the
perfect-correlation pins.

``SdpProblem`` holds the basis as upper-triangle entry arrays: entry ``e`` puts
``value[e]`` at ``(row[e], col[e])`` and ``(col[e], row[e])`` of ``F_var[e]``,
so every ``F_i`` is symmetric by construction.  ``SdpProblem.block_sizes``
reads the diagonal blocks off the entries: the finest cut that no entry and no
nonzero of ``F0`` crosses (the aggregate sparsity pattern of Fukuda, Kojima,
Murota & Nakata 2000, cut into intervals).  Only this module turns entries
into operators, and only ``SdpProblem.operator`` reads them: the CSR matrix of
shape (m, d*d) whose row ``i`` is ``F_i`` flattened.  ``SdpProblem.restricted``
maps it through orthonormal bases ``Q_c``, in one product, onto the problem
whose diagonal blocks hold ``Q_c^T F Q_c``.  ``solve`` merges consecutive
blocks of the finest cut into solve blocks of at most ``SOLVE_BLOCK_ROWS``
rows, as every block costs a few LAPACK and numpy calls per iteration; it
maps the operator's columns into the solve blocks through a position table,
(m, b*b) per block, and keeps every iterate as a list of dense blocks.  The
Schur matrix is a sum over the blocks.  Within a block the column of ``F_j``
is ``<F_i, W F_j Z>`` for all ``i`` (Fujisawa, Kojima & Nakata 1997), and
``W F_j Z`` is a (b, e) by (e, b) product over the ``e`` entries of ``F_j``
there.  The columns, sorted by ``e``, are cut into chunks of at most
``SCHUR_SCRATCH`` floats of products and padded to each chunk's largest ``e``
with zero-valued entries, so a chunk is one batched ``np.matmul`` and one
sparse product with the block operator repeated along a diagonal.  scipy is
imported by the functions that need it.  Everything is deterministic: fixed
elimination order, no randomized pivoting, so identical inputs produce
bit-identical iteration traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CENTERING_FLOOR = 0.1
FRACTION_TO_BOUNDARY = 0.98
CERT_EIG_FLOOR = -1e-9
CERT_STATIONARITY_TOL = 1e-7
# Floats of W F_j Z products in one Schur chunk (256 kB): the chunk's buffer,
# its gathered entries and its stacked operator are the Schur assembly's
# scratch, a few times this size, beside the Schur matrix itself.
SCHUR_SCRATCH = 1 << 15
# Rows of a solve block: solve merges consecutive blocks of the finest cut up
# to this size.  Each block costs a few LAPACK and numpy calls per iteration,
# and the level-3 pinned NPA orbit problem (62 rows in 17 blocks of 1 to 11
# rows) solved fastest at 24 to 32 (see CHANGES.md for the sweep).
SOLVE_BLOCK_ROWS = 32
# Iterations after which solve gives up with SdpSolverError.
MAX_ITERATIONS = 120
# Entries of a restricted problem below this modulus are rounding residue of
# exact zeros and are dropped: in the N=3 and N=4 NPA problems that residue is
# at most 3e-16 and every other block entry at least 0.09.
BLOCK_ENTRY_FLOOR = 1e-12


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
    def block_sizes(self) -> tuple[int, ...]:
        """The finest cut of ``range(d)`` into diagonal blocks that no basis
        entry and no nonzero of ``F0``, in either triangle, crosses."""
        d = self.dimension
        reach = np.arange(d)
        i, j = np.nonzero(self.f0)
        np.maximum.at(reach, np.minimum(i, j), np.maximum(i, j))
        np.maximum.at(reach, self.row, self.col)
        ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(d)) + 1
        return tuple(np.diff(ends, prepend=0).tolist())

    @cached_property
    def operator(self):
        """The CSR matrix of shape (m, d*d) whose row ``i`` is ``F_i`` flattened:
        entry ``e`` at ``row[e] * d + col[e]`` and, off the diagonal, at its
        mirror image ``col[e] * d + row[e]``."""
        from scipy.sparse import csr_matrix

        d = self.dimension
        off = self.row != self.col
        var = np.append(self.var, self.var[off])
        flat = np.append(self.row * d + self.col, (self.col * d + self.row)[off])
        value = np.append(self.value, self.value[off])
        return csr_matrix((value, (var, flat)), shape=(self.n_vars, d * d))

    def restricted(self, bases: list[np.ndarray]) -> SdpProblem:
        """The problem on the spans of ``bases``, one diagonal block each:
        block ``c`` holds ``Q_c^T F Q_c`` for ``F0`` and every ``F_i``, whose
        entries below ``BLOCK_ENTRY_FLOOR`` in modulus (rounding left over
        where the exact entry is zero) are dropped.  With ``Q`` the bases side
        by side, row ``i`` of ``operator @ kron(Q, Q)`` is ``Q^T F_i Q``
        flattened, and each block keeps its own rows and columns of it."""
        from scipy.sparse import csr_matrix, kron

        q = np.hstack(bases)
        block = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
        sparse_q = csr_matrix(q)
        entries = (self.operator @ kron(sparse_q, sparse_q)).tocoo()
        i, j = np.divmod(entries.col, q.shape[1])
        keep = (i <= j) & (block[i] == block[j])
        keep &= np.abs(entries.data) > BLOCK_ENTRY_FLOOR
        return SdpProblem(
            f0=np.where(block[:, None] == block, q.T @ self.f0 @ q, 0.0),
            var=entries.row[keep],
            row=i[keep],
            col=j[keep],
            value=entries.data[keep],
            c=self.c,
        )


@dataclass(frozen=True)
class SdpSolution:
    """An optimal solve (``solve`` raises on every other exit); ``bound`` is
    the dual objective (a certified upper bound).

    ``schur_s``, ``factor_s`` and ``step_s`` are the seconds the solve spent
    assembling Schur matrices, in Cholesky factorizations (of ``S``, ``Z`` and
    the Schur matrix, and ``W = S^-1``) and in step lengths to the boundary.
    """

    y: np.ndarray
    primal_objective: float
    bound: float
    dual_matrix: np.ndarray
    iterations: int
    trace: tuple[tuple[float, ...], ...] = field(repr=False, default=())
    block_sizes: tuple[int, ...] = ()
    schur_s: float = 0.0
    factor_s: float = 0.0
    step_s: float = 0.0

    @property
    def duality_gap(self) -> float:
        return self.bound - self.primal_objective

    @property
    def dual_residual(self) -> float:
        """The largest ``|c_i + <F_i, Z>|`` of the last iteration."""
        return self.trace[-1][4]


@dataclass(frozen=True)
class _Block:
    """One diagonal block: its ``F0`` and its Schur columns, the variables
    with entries in the block by entry count, cut into chunks.  A chunk is
    ``(variables, rows, cols, values)`` with (n, e) arrays, ``e`` its largest
    entry count: row ``k`` holds the entries of ``variables[k]``, padded with
    zero-valued copies of its first entry.  ``stacked`` is the block operator
    repeated ``width`` times along the diagonal; ``scratch_size`` counts the
    floats of a chunk's products and gathered operands."""

    f0: np.ndarray
    width: int
    stacked: object
    chunks: tuple[tuple[np.ndarray, ...], ...]
    scratch_size: int


def _block(f0: np.ndarray, operator) -> _Block:
    """The block with ``F0`` block ``f0`` and (m, b*b) operator ``operator``."""
    from scipy.sparse import csr_matrix

    b = len(f0)
    ptr, counts = operator.indptr, np.diff(operator.indptr)
    rows, cols = np.divmod(operator.indices, b)
    order = np.flatnonzero(counts)
    order = order[np.argsort(counts[order], kind="stable")]
    width = max(1, min(len(order), SCHUR_SCRATCH // (b * b)))
    chunks = []
    for first in range(0, len(order), width):
        variables = order[first : first + width]
        slot = np.arange(counts[variables].max())
        real = slot < counts[variables, None]
        at = ptr[variables, None] + np.where(real, slot, 0)
        values = np.where(real, operator.data[at], 0.0)
        chunks.append((variables, rows[at], cols[at], values))
    m, nnz = operator.shape[0], operator.nnz
    copies = np.arange(width, dtype=ptr.dtype)[:, None]
    indices = operator.indices + b * b * copies
    indptr = np.append(ptr[:-1] + nnz * copies, ptr.dtype.type(width * nnz))
    stacked = csr_matrix(
        (np.tile(operator.data, width), indices.ravel(), indptr),
        shape=(width * m, width * b * b),
    )
    scratch_size = width * b * (b + 2 * counts.max(initial=0))
    return _Block(f0, width, stacked, tuple(chunks), scratch_size)


def _solve_blocks(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive ``sizes`` merged greedily into blocks of at most
    ``SOLVE_BLOCK_ROWS`` rows; a larger block stays alone."""
    merged: list[int] = []
    for b in sizes:
        if merged and merged[-1] + b <= SOLVE_BLOCK_ROWS:
            merged[-1] += b
        else:
            merged.append(b)
    return tuple(merged)


def _blocks(problem: SdpProblem) -> tuple[object, list[_Block]]:
    """The columns of ``problem.operator`` inside the solve blocks: the CSR
    matrix of shape (m, sum b*b) whose row ``i`` holds the blocks of ``F_i``,
    each flattened, one after another; and each block's data.  Every entry
    lies inside a block of the finest cut, so inside a solve block, and a
    position table of length d*d maps each column of the operator to its
    place; the blocks are contiguous, so that map keeps the columns' order."""
    from scipy.sparse import csr_matrix

    sizes = _solve_blocks(problem.block_sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    first = np.cumsum((0, *sizes))
    columns = np.cumsum((0, *[b * b for b in sizes]))
    # (i, j) in block c goes to column columns[c] + i' * b_c + j', with i' and
    # j' the positions of i and j in the block
    local = np.arange(problem.dimension) - first[block]
    position = columns[block, None] + local[:, None] * np.array(sizes)[block, None]
    position = position + local
    full = problem.operator
    operator = csr_matrix(
        (full.data, position.ravel()[full.indices], full.indptr),
        shape=(problem.n_vars, columns[-1]),
    )
    blocks = [
        _block(
            problem.f0[first[c] : first[c + 1], first[c] : first[c + 1]],
            operator[:, columns[c] : columns[c + 1]],
        )
        for c in range(len(sizes))
    ]
    return operator, blocks


def _schur_matrix(
    blocks: list[_Block], w: list[np.ndarray], z: list[np.ndarray], h, scratch
) -> None:
    """Write ``H_ij = <F_i, sym(W F_j Z)> = <F_i, W F_j Z>``, as every ``F_i``
    is symmetric, summed over the blocks, into the (m, m) array ``h``; each
    chunk is one batched ``W F_j Z`` product, in ``scratch``, and one adjoint."""
    m = len(h)
    ht = np.zeros((m, m))  # row j is column j of H
    for blk, wb, zb in zip(blocks, w, z):
        b = len(wb)
        w_cols = np.ascontiguousarray(wb.T)  # row r is column r of W
        products = scratch[: blk.width * b * b].reshape(blk.width, b, b)
        gathers = scratch[blk.width * b * b :]
        for variables, rows, cols, values in blk.chunks:
            left, right = gathers[: 2 * rows.size * b].reshape(2, *rows.shape, b)
            # mode "clip" takes into out in place, "raise" through a copy
            np.take(w_cols, rows, axis=0, out=left, mode="clip")
            left *= values[..., None]
            np.take(zb, cols, axis=0, out=right, mode="clip")
            np.matmul(left.transpose(0, 2, 1), right, out=products[: len(variables)])
            # rows past the chunk's variables hold stale values, whose
            # adjoints are cut off: the stacked operator is block-diagonal
            adjoints = (blk.stacked @ products.ravel()).reshape(blk.width, m)
            ht[variables] += adjoints[: len(variables)]
    np.add(ht, ht.T, out=h)
    h *= 0.5


def _cholesky(xs: list[np.ndarray]) -> list[np.ndarray]:
    """Lower Cholesky factors of every block; LinAlgError if one is not PD."""
    from scipy.linalg.lapack import dpotrf

    factors = []
    for x in xs:
        factor, info = dpotrf(x, lower=1)
        if info:
            raise np.linalg.LinAlgError(f"dpotrf info {info}")
        factors.append(factor)
    return factors


def _smallest_eigenvalue(x: np.ndarray) -> float:
    """The smallest eigenvalue of ``sym(x)``, alone, from LAPACK's MRRR
    driver; with numpy's divide-and-conquer driver (``dsyevd``) in the step
    length the level-3 pinned NPA solve lost Z's definiteness at tol 1e-12."""
    from scipy.linalg.lapack import dsyevr

    return float(dsyevr(_sym(x), compute_v=0, range="I", iu=1, lower=1)[0][0])


def _max_step(chols: list[np.ndarray], deltas: list[np.ndarray]) -> float:
    """Largest alpha with every block X + alpha*Delta still PSD, via the
    ``_smallest_eigenvalue`` of L^-1 Delta L^-T."""
    from scipy.linalg.lapack import dtrtrs

    lam_min = 0.0
    for x_chol, delta in zip(chols, deltas):
        a = dtrtrs(x_chol, delta, lower=1)[0]
        t = dtrtrs(x_chol, a.T, lower=1)[0]
        lam_min = min(lam_min, _smallest_eigenvalue(t))
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def _inner(xs: list[np.ndarray], ys: list[np.ndarray]) -> float:
    return sum(float(np.vdot(x, y)) for x, y in zip(xs, ys))


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def solve(problem: SdpProblem, tol: float = 1e-9) -> SdpSolution:
    """Run the interior-point iteration until gap and residuals drop below tol."""
    from scipy.linalg import block_diag
    from scipy.linalg.lapack import dpotrf, dpotrs

    d, m, c = problem.dimension, problem.n_vars, problem.c
    operator, blocks = _blocks(problem)
    sizes = tuple(len(blk.f0) for blk in blocks)
    operator_t = operator.T.tocsr()
    cuts = np.cumsum([b * b for b in sizes])[:-1]
    f0 = [blk.f0 for blk in blocks]

    def adjoint(xs: list[np.ndarray]) -> np.ndarray:
        return operator @ np.concatenate([x.ravel() for x in xs])

    def combination(v: np.ndarray) -> list[np.ndarray]:
        flat = np.split(operator_t @ v, cuts)
        return [x.reshape(b, b) for x, b in zip(flat, sizes)]

    y = np.zeros(m)
    s = [x.copy() for x in f0]
    z = [np.eye(b) for b in sizes]
    h = np.empty((m, m))
    scratch = np.zeros(max(blk.scratch_size for blk in blocks))
    trace: list[tuple[float, ...]] = []
    schur_s = factor_s = step_s = 0.0

    for it in range(1, MAX_ITERATIONS + 1):
        t0 = time.perf_counter()
        try:
            ls = _cholesky(s)
            lz = _cholesky(z)
        except np.linalg.LinAlgError as exc:
            if it == 1:  # Z = I, so S = M(0) failed
                raise SdpSolverError(
                    "no strictly feasible start: M(0) is not positive definite",
                    {"dimension": d, "n_vars": m},
                ) from exc
            raise SdpSolverError(
                f"factorization failure at iteration {it}",
                {"iteration": it, "trace": tuple(trace)},
            ) from exc
        w = [dpotrs(x, np.eye(len(x)), lower=1)[0] for x in ls]
        factor_s += time.perf_counter() - t0

        mu = _inner(s, z) / d
        primal = float(c @ y)
        dual = _inner(f0, z)
        gap = dual - primal
        rd = c + adjoint(z)  # want <F_i, Z> = -c_i
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

        # the Schur matrix, factored once per iteration, for both the
        # predictor and the corrector solve; it is factored in place, through
        # its Fortran-ordered transpose (h is symmetric), so that one (m, m)
        # array serves every iteration
        t0 = time.perf_counter()
        _schur_matrix(blocks, w, z, h, scratch)
        ridge = 1e-14 * max(1.0, float(h.diagonal().max()))
        h[np.diag_indices_from(h)] += ridge
        schur_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        hc, info = dpotrf(h.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise SdpSolverError(
                f"Schur complement factorization failed at iteration {it}",
                {"iteration": it, "mu": mu, "trace": tuple(trace)},
            )
        factor_s += time.perf_counter() - t0

        # predictor: the affine-scaling step, aimed at mu = 0
        dy_aff = dpotrs(hc, c, lower=1)[0]
        ds_aff = combination(dy_aff)
        dz_aff = [_sym(-zb - wb @ dsb @ zb) for zb, wb, dsb in zip(z, w, ds_aff)]
        t0 = time.perf_counter()
        a_p = min(1.0, _max_step(ls, ds_aff))
        a_d = min(1.0, _max_step(lz, dz_aff))
        step_s += time.perf_counter() - t0
        s_aff = [sb + a_p * dsb for sb, dsb in zip(s, ds_aff)]
        mu_aff = _inner(s_aff, [zb + a_d * dzb for zb, dzb in zip(z, dz_aff)]) / d

        # centering: Mehrotra's (mu_aff / mu)^3, floored so that sigma * mu
        # never falls below a tenth of the per-dimension gap
        floor = CENTERING_FLOOR * abs(gap) / (d * mu)
        sigma = min(1.0, max((mu_aff / mu) ** 3, floor))

        # corrector: the same factor, with the second-order term W dS_aff dZ_aff
        second_order = [wb @ dsb @ dzb for wb, dsb, dzb in zip(w, ds_aff, dz_aff)]
        rhs = sigma * mu * adjoint(w) + c - adjoint(second_order)
        dy = dpotrs(hc, rhs, lower=1)[0]
        ds = combination(dy)
        # one step of iterative refinement: H dy should equal <F_i, W dS Z>,
        # but the assembled H is symmetrized and ridged and drifts from it as
        # mu falls, and the dual residual grows with the drift
        applied = adjoint([wb @ dsb @ zb for wb, dsb, zb in zip(w, ds, z)])
        dy = dy + dpotrs(hc, rhs - applied, lower=1)[0]
        ds = combination(dy)
        dz = [
            _sym(sigma * mu * wb - zb - wb @ dsb @ zb - sob)
            for wb, zb, dsb, sob in zip(w, z, ds, second_order)
        ]

        t0 = time.perf_counter()
        alpha_p = min(1.0, FRACTION_TO_BOUNDARY * _max_step(ls, ds))
        alpha_d = min(1.0, FRACTION_TO_BOUNDARY * _max_step(lz, dz))
        step_s += time.perf_counter() - t0

        y = y + alpha_p * dy
        s = [f0b + sb for f0b, sb in zip(f0, combination(y))]
        z = [zb + alpha_d * dzb for zb, dzb in zip(z, dz)]
        trace.append((mu, primal, dual, gap, rd_inf, alpha_p, alpha_d, sigma))
    else:
        raise SdpSolverError(
            f"iteration limit {MAX_ITERATIONS} reached (gap {trace[-1][3]:.3e},"
            f" residual {trace[-1][4]:.3e})",
            {"iterations": MAX_ITERATIONS, "trace": tuple(trace)},
        )

    return SdpSolution(
        y=y,
        primal_objective=float(c @ y),
        bound=_inner(f0, z),
        dual_matrix=block_diag(*z),
        iterations=it,
        trace=tuple(trace),
        block_sizes=sizes,
        schur_s=schur_s,
        factor_s=factor_s,
        step_s=step_s,
    )


def _dual_check(problem: SdpProblem, z: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Z's smallest eigenvalue, the residuals ``c + <F_i, Z>`` and ``<F0, Z>``."""
    residual = problem.c + problem.operator @ z.ravel()
    return _smallest_eigenvalue(z), residual, float(np.tensordot(problem.f0, z))


def verify_certificate(problem: SdpProblem, solution: SdpSolution) -> bool:
    """Re-check the dual certificate without trusting solver internals.

    Confirms the dual slack is PSD up to a -1e-9 eigenvalue floor, dual
    feasibility (stationarity) residuals are below 1e-7 for every free
    variable, and the reported bound matches the recomputed dual objective.
    """
    lam_min, residual, recomputed = _dual_check(problem, solution.dual_matrix)
    if lam_min < CERT_EIG_FLOOR:
        return False
    if residual.size and float(np.abs(residual).max()) >= CERT_STATIONARITY_TOL:
        return False
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
    _check_certifiable(problem)
    lam_min, residual, dual = _dual_check(problem, solution.dual_matrix)
    lift = max(0.0, -lam_min) * float(np.trace(problem.f0))
    slack = float(np.abs(residual).sum()) if residual.size else 0.0
    return dual + slack + lift
