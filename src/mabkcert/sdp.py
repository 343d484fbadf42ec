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
that the start is strictly feasible.  Every factorization goes through
``np.linalg.cholesky``, and the solves through the inverse ``L^-1`` of each
lower factor: ``W = L^-T L^-1`` for ``L L^T = S``, the Schur solves are two
products with ``L^-1`` of the Schur factor, and a step ``Delta`` from ``X``
meets the boundary where ``L^-1 Delta L^-T`` does, for ``L L^T = X``.  The
corrector's step lengths follow the fraction-to-boundary rule (0.98).  One
routine, ``_smallest_eigenvalue`` (``np.linalg.eigvalsh``), gives the step
lengths' eigenvalues and ``Z``'s in the certificate checks, which recompute
everything on the problem they are given.  Each
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
into operators, and only ``SdpProblem.operator`` reads them: the ``Operator``
of shape (m, d*d) whose row ``i`` is ``F_i`` flattened, held as the mirrored
entries, sorted by variable, with both products one ``np.bincount``: the
adjoint ``<F_i, X>`` scatters by variable, the combination ``sum_i v_i F_i``
by position.  ``SdpProblem.restricted`` maps the entries through orthonormal
bases ``Q_c`` onto the problem whose diagonal blocks hold ``Q_c^T F Q_c``.
``solve`` merges consecutive blocks of the finest cut into solve blocks of at
most ``SOLVE_BLOCK_ROWS`` rows, as every block costs a few numpy calls per
iteration.  Each solve block keeps the ``SdpProblem.operator`` of its own
entries, of shape (m, b*b), so the adjoint is a sum over the blocks and the
combination one block at a time, and every iterate is a list of dense
blocks.  The Schur matrix is a sum over the blocks.  Within a block the
column of ``F_j`` is ``<F_i, W F_j Z>`` for all ``i`` (Fujisawa, Kojima &
Nakata 1997), and ``W F_j Z`` is a (b, e) by (e, b) product over the ``e``
entries of ``F_j`` there.  The columns, sorted by ``e``, are cut into chunks
of at most ``SCHUR_SCRATCH`` floats of products and padded to each chunk's
largest ``e`` with zero-valued entries, so a chunk is one batched
``np.matmul`` and one adjoint of the block operator repeated along a
diagonal.  The module needs numpy alone.  Everything is deterministic: fixed
elimination order, no randomized pivoting, so identical inputs produce
bit-identical iteration traces.
"""

from __future__ import annotations

import math
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
# to this size.  Each block costs a few numpy calls per iteration,
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
    def operator(self) -> Operator:
        """The basis as the map of shape (m, d*d) whose row ``i`` is ``F_i``
        flattened: entry ``e`` at ``row[e] * d + col[e]`` and, off the
        diagonal, at its mirror image ``col[e] * d + row[e]``."""
        d = self.dimension
        off = self.row != self.col
        var = np.append(self.var, self.var[off])
        flat = np.append(self.row * d + self.col, (self.col * d + self.row)[off])
        value = np.append(self.value, self.value[off])
        order = np.lexsort((flat, var))
        return Operator(var[order], flat[order], value[order], (self.n_vars, d * d))

    def restricted(self, bases: list[np.ndarray]) -> SdpProblem:
        """The problem on the spans of ``bases``, one diagonal block each:
        block ``c`` holds ``Q_c^T F Q_c`` for ``F0`` and every ``F_i``, whose
        entries below ``BLOCK_ENTRY_FLOOR`` in modulus (rounding left over
        where the exact entry is zero) are dropped.  With ``Q`` the bases side
        by side, an entry ``v`` at ``(r, s)`` of ``F_i`` adds
        ``v (Q[r, a] Q[s, b] + Q[s, a] Q[r, b])``, once if ``r = s``, to the
        pair ``a <= b`` when ``a`` and ``b`` are columns of one basis; the
        products run over the nonzeros of ``Q`` alone."""
        q = np.hstack(bases)
        k = q.shape[1]
        block = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
        q_row, q_col = np.nonzero(q)  # row by row
        q_value = q[q_row, q_col]
        per_row = np.bincount(q_row, minlength=self.dimension)
        first = np.cumsum(per_row) - per_row
        # entry e meets each nonzero of Q's row row[e] with each of row col[e]
        n_row, n_col = per_row[self.row], per_row[self.col]
        count = n_row * n_col
        e = np.repeat(np.arange(len(count)), count)
        nth = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        at_row = first[self.row][e] + nth // n_col[e]
        at_col = first[self.col][e] + nth % n_col[e]
        a, b = q_col[at_row], q_col[at_col]
        # (a, b) takes v Q[r, a] Q[s, b] from the product (a, b) and
        # v Q[s, a] Q[r, b] from the product (b, a): every product folds onto
        # (min, max), counts twice if a = b, and half for an entry on the
        # diagonal, whose two terms are one
        half = np.where(self.row == self.col, 0.5, 1.0)[e]
        terms = np.where(a == b, 2.0, 1.0) * half * self.value[e]
        terms *= q_value[at_row] * q_value[at_col]
        same = block[a] == block[b]
        lo, hi = np.minimum(a, b)[same], np.maximum(a, b)[same]
        key = (self.var[e][same].astype(np.int64) * k + lo) * k + hi
        keys, inverse = np.unique(key, return_inverse=True)
        sums = np.bincount(inverse, terms[same], minlength=len(keys))
        kept = np.abs(sums) > BLOCK_ENTRY_FLOOR
        var, pair = np.divmod(keys[kept], k * k)
        row, col = np.divmod(pair, k)
        return SdpProblem(
            f0=np.where(block[:, None] == block, q.T @ self.f0 @ q, 0.0),
            var=var,
            row=row,
            col=col,
            value=sums[kept],
            c=self.c,
        )


@dataclass(frozen=True)
class Operator:
    """A linear map of shape (m, n) from its entries, sorted by variable:
    row ``var[e]`` holds ``value[e]`` in column ``flat[e]``.  Entries sharing
    a row and column add up."""

    var: np.ndarray
    flat: np.ndarray
    value: np.ndarray
    shape: tuple[int, int]

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """The (m,) products of every row with the flat ``x``: ``<F_i, X>``."""
        weights = self.value * x[self.flat]
        return np.bincount(self.var, weights, minlength=self.shape[0])

    def combination(self, v: np.ndarray) -> np.ndarray:
        """The flat (n,) sum of the rows weighted by ``v``: ``sum_i v_i F_i``."""
        weights = self.value * v[self.var]
        return np.bincount(self.flat, weights, minlength=self.shape[1])


@dataclass(frozen=True)
class SdpSolution:
    """An optimal solve (``solve`` raises on every other exit); ``bound`` is
    the dual objective (a certified upper bound).

    ``schur_s``, ``factor_s`` and ``step_s`` are the seconds the solve spent
    assembling Schur matrices, in Cholesky factorizations (of ``S``, ``Z`` and
    the Schur matrix, with the inverses of their factors, and ``W = S^-1``)
    and in step lengths to the boundary.
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
    """One diagonal block: its ``F0``, its (m, b*b) operator and its Schur
    columns, the variables with entries in the block by entry count, cut into
    chunks.  A chunk is
    ``(variables, rows, cols, values)`` with (n, e) arrays, ``e`` its largest
    entry count: row ``k`` holds the entries of ``variables[k]``, padded with
    zero-valued copies of its first entry.  ``stacked`` is the block operator
    repeated ``width`` times along the diagonal; ``scratch_size`` counts the
    floats of a chunk's products and gathered operands."""

    f0: np.ndarray
    operator: Operator
    width: int
    stacked: Operator
    chunks: tuple[tuple[np.ndarray, ...], ...]
    scratch_size: int


def _block(f0: np.ndarray, operator: Operator) -> _Block:
    """The block with ``F0`` block ``f0`` and (m, b*b) operator ``operator``."""
    b, m = len(f0), operator.shape[0]
    counts = np.bincount(operator.var, minlength=m)
    ptr = np.cumsum(counts) - counts
    rows, cols = np.divmod(operator.flat, b)
    order = np.flatnonzero(counts)
    order = order[np.argsort(counts[order], kind="stable")]
    width = max(1, min(len(order), SCHUR_SCRATCH // (b * b)))
    chunks = []
    for first in range(0, len(order), width):
        variables = order[first : first + width]
        slot = np.arange(counts[variables].max())
        real = slot < counts[variables, None]
        at = ptr[variables, None] + np.where(real, slot, 0)
        values = np.where(real, operator.value[at], 0.0)
        chunks.append((variables, rows[at], cols[at], values))
    copies = np.arange(width)[:, None]
    stacked = Operator(
        (operator.var + m * copies).ravel(),
        (operator.flat + b * b * copies).ravel(),
        np.tile(operator.value, width),
        (width * m, width * b * b),
    )
    scratch_size = width * b * (b + 2 * counts.max(initial=0))
    return _Block(f0, operator, width, stacked, tuple(chunks), scratch_size)


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


def _blocks(problem: SdpProblem) -> list[_Block]:
    """The data of each solve block, whose operator is the
    ``SdpProblem.operator`` of the block's entries, their rows and columns
    shifted into the block.  Every entry lies inside a block of the finest
    cut, so inside a solve block."""
    sizes = _solve_blocks(problem.block_sizes)
    first = np.cumsum((0, *sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)[problem.row]
    blocks = []
    for c, (lo, hi) in enumerate(zip(first[:-1], first[1:])):
        mine = owner == c
        f0 = problem.f0[lo:hi, lo:hi]
        local = SdpProblem(
            f0,
            problem.var[mine],
            problem.row[mine] - lo,
            problem.col[mine] - lo,
            problem.value[mine],
            problem.c,
        )
        blocks.append(_block(f0, local.operator))
    return blocks


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
            adjoints = blk.stacked.adjoint(products.ravel()).reshape(blk.width, m)
            ht[variables] += adjoints[: len(variables)]
    np.add(ht, ht.T, out=h)
    h *= 0.5


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix, by halves:
    ``[[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]``, down to one
    ``np.linalg.inv`` at 64 rows or fewer.  ``np.linalg.inv`` factors its
    operand as a general matrix: on the whole 621-row Schur factor of the
    unreduced level-3 pinned NPA problem it takes 35 ms, the halves 6 ms."""
    n = len(lower)
    if n <= 64:
        return np.linalg.inv(lower)
    k = n // 2
    a, b = _lower_inverse(lower[:k, :k]), _lower_inverse(lower[k:, k:])
    out = np.zeros_like(lower)
    out[:k, :k], out[k:, k:] = a, b
    out[k:, :k] = -b @ (lower[k:, :k] @ a)
    return out


def _inverse_cholesky(xs: list[np.ndarray]) -> list[np.ndarray]:
    """``L^-1`` for the lower Cholesky factor ``L`` of every block;
    LinAlgError if one is not positive definite."""
    return [_lower_inverse(np.linalg.cholesky(x)) for x in xs]


def _smallest_eigenvalue(x: np.ndarray) -> float:
    """The smallest eigenvalue of ``sym(x)``."""
    return float(np.linalg.eigvalsh(_sym(x))[0])


def _max_step(inverses: list[np.ndarray], deltas: list[np.ndarray]) -> float:
    """Largest alpha with every block X + alpha*Delta still PSD, via the
    ``_smallest_eigenvalue`` of L^-1 Delta L^-T, ``inverses`` the L^-1."""
    lam_min = 0.0
    for inverse, delta in zip(inverses, deltas):
        lam_min = min(lam_min, _smallest_eigenvalue(inverse @ delta @ inverse.T))
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def _inner(xs: list[np.ndarray], ys: list[np.ndarray]) -> float:
    return sum(float(np.vdot(x, y)) for x, y in zip(xs, ys))


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def solve(problem: SdpProblem, tol: float = 1e-9) -> SdpSolution:
    """Run the interior-point iteration until gap and residuals drop below tol."""
    d, m, c = problem.dimension, problem.n_vars, problem.c
    blocks = _blocks(problem)
    sizes = tuple(len(blk.f0) for blk in blocks)
    f0 = [blk.f0 for blk in blocks]

    def adjoint(xs: list[np.ndarray]) -> np.ndarray:
        parts = [blk.operator.adjoint(x.ravel()) for blk, x in zip(blocks, xs)]
        return np.sum(parts, axis=0)

    def combination(v: np.ndarray) -> list[np.ndarray]:
        return [
            blk.operator.combination(v).reshape(b, b) for blk, b in zip(blocks, sizes)
        ]

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
            ls_inv = _inverse_cholesky(s)
            lz_inv = _inverse_cholesky(z)
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
        w = [x.T @ x for x in ls_inv]
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
        # predictor and the corrector solve: H^-1 = L^-T L^-1 for H = L L^T
        t0 = time.perf_counter()
        _schur_matrix(blocks, w, z, h, scratch)
        ridge = 1e-14 * max(1.0, float(h.diagonal().max()))
        h[np.diag_indices_from(h)] += ridge
        schur_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            lh_inv = _lower_inverse(np.linalg.cholesky(h))
        except np.linalg.LinAlgError as exc:
            raise SdpSolverError(
                f"Schur complement factorization failed at iteration {it}",
                {"iteration": it, "mu": mu, "trace": tuple(trace)},
            ) from exc
        factor_s += time.perf_counter() - t0

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            return lh_inv.T @ (lh_inv @ rhs)

        # predictor: the affine-scaling step, aimed at mu = 0
        dy_aff = schur_solve(c)
        ds_aff = combination(dy_aff)
        dz_aff = [_sym(-zb - wb @ dsb @ zb) for zb, wb, dsb in zip(z, w, ds_aff)]
        t0 = time.perf_counter()
        a_p = min(1.0, _max_step(ls_inv, ds_aff))
        a_d = min(1.0, _max_step(lz_inv, dz_aff))
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
        dy = schur_solve(rhs)
        ds = combination(dy)
        # one step of iterative refinement: H dy should equal <F_i, W dS Z>,
        # but the assembled H is symmetrized and ridged and drifts from it as
        # mu falls, and the dual residual grows with the drift
        applied = adjoint([wb @ dsb @ zb for wb, dsb, zb in zip(w, ds, z)])
        dy = dy + schur_solve(rhs - applied)
        ds = combination(dy)
        dz = [
            _sym(sigma * mu * wb - zb - wb @ dsb @ zb - sob)
            for wb, zb, dsb, sob in zip(w, z, ds, second_order)
        ]

        t0 = time.perf_counter()
        alpha_p = min(1.0, FRACTION_TO_BOUNDARY * _max_step(ls_inv, ds))
        alpha_d = min(1.0, FRACTION_TO_BOUNDARY * _max_step(lz_inv, dz))
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

    dual_matrix = np.zeros((d, d))
    for first, zb in zip(np.cumsum((0, *sizes)), z):
        dual_matrix[first : first + len(zb), first : first + len(zb)] = zb
    return SdpSolution(
        y=y,
        primal_objective=float(c @ y),
        bound=_inner(f0, z),
        dual_matrix=dual_matrix,
        iterations=it,
        trace=tuple(trace),
        block_sizes=sizes,
        schur_s=schur_s,
        factor_s=factor_s,
        step_s=step_s,
    )


def _dual_check(problem: SdpProblem, z: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Z's smallest eigenvalue, the residuals ``c + <F_i, Z>`` and ``<F0, Z>``."""
    residual = problem.c + problem.operator.adjoint(z.ravel())
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
    value, summed with ``math.fsum``, and a negative dual eigenvalue ``-e``
    can be lifted by ``e * I`` at a price of ``e * tr F0``.  The computed
    ``<F0, Z>``, a sum of ``n = d*d`` products, lies within
    ``gamma_n sum |F0 * Z|`` of the exact one, ``gamma_n = n u / (1 - n u)``
    with ``u`` the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1), and that is charged too: ``gamma_2n`` times the
    float sum of ``|F0 * Z|``, which also covers that sum's own rounding.
    ``_check_certifiable`` raises ``ValueError`` unless the problem's
    structure implies the two assumptions.
    """
    _check_certifiable(problem)
    z = solution.dual_matrix
    lam_min, residual, dual = _dual_check(problem, z)
    lift = max(0.0, -lam_min) * float(np.trace(problem.f0))
    slack = math.fsum(np.abs(residual))
    two_n_u = problem.f0.size * np.finfo(float).eps  # 2n u, as u = eps / 2
    rounding = two_n_u / (1.0 - two_n_u) * float(np.abs(problem.f0 * z).sum())
    return dual + rounding + slack + lift
