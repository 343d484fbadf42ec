"""Interior-point solver: toy instances, grid oracle, certificates, determinism."""

import numpy as np
import pytest

from conftest import block_diag
from mabkcert import sdp
from mabkcert.sdp import (
    SdpProblem,
    SdpSolverError,
    certified_upper_bound,
    solve,
    verify_certificate,
)


def dense_problem(f0, mats, c):
    """``SdpProblem`` from a dense ``F0``, a list of dense ``F_i`` and ``c``."""
    for i, m in enumerate(mats):
        if not np.allclose(m, m.T):
            raise ValueError(f"basis matrix {i} is not symmetric")
    upper = np.triu(np.array(mats, dtype=float))
    var, row, col = np.nonzero(upper)
    return SdpProblem(
        f0=np.array(f0, dtype=float),
        var=var,
        row=row,
        col=col,
        value=upper[var, row, col],
        c=np.array(c, dtype=float),
    )


def basis_matrix(problem, i):
    """``F_i`` as a dense matrix, built from the basis entries of ``i``."""
    d = problem.dimension
    entry = problem.var == i
    upper = np.zeros((d, d))
    np.add.at(upper, (problem.row[entry], problem.col[entry]), problem.value[entry])
    return upper + np.triu(upper, 1).T


def toy_1x1():
    return dense_problem(np.array([[1.0]]), [np.array([[-1.0]])], np.array([1.0]))


def toy_2x2():
    f1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return dense_problem(np.eye(2), [f1], np.array([1.0]))


def test_toy_1x1():
    sol = solve(toy_1x1())
    assert sol.y[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.bound == pytest.approx(1.0, abs=1e-7)


def test_toy_2x2():
    sol = solve(toy_2x2())
    assert sol.y[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.bound == pytest.approx(1.0, abs=1e-7)
    assert sol.bound >= sol.primal_objective - 1e-9


def random_disjoint_data(seed):
    """F0, basis matrices and c of a 5x5 instance: three moments on disjoint
    off-diagonal supports."""
    rng = np.random.default_rng(seed)
    d = 5
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (0, 4)]
    rng.shuffle(pairs)
    mats = []
    for k in range(3):
        m = np.zeros((d, d))
        (a, b), (p, q) = pairs[2 * k], pairs[2 * k + 1]
        m[a, b] = m[b, a] = 1.0
        m[p, q] = m[q, p] = rng.uniform(-0.8, 0.8)
        mats.append(m)
    c = rng.uniform(0.2, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
    return np.eye(d), mats, c


def random_disjoint_instance(seed):
    return dense_problem(*random_disjoint_data(seed))


def grid_oracle(problem, levels=6, width=1.05, points=21):
    """Refined grid search; each unit-entry pair bounds its moment to [-1, 1]."""
    f = [basis_matrix(problem, i) for i in range(problem.n_vars)]
    center = np.zeros(problem.n_vars)
    best_y = center
    best_val = -np.inf
    for level in range(levels):
        axes = [
            np.linspace(center[i] - width, center[i] + width, points)
            for i in range(problem.n_vars)
        ]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
            -1, problem.n_vars
        )
        mats = problem.f0 + np.einsum("gi,ikl->gkl", grid, np.stack(f))
        eigs = np.linalg.eigvalsh(mats)[:, 0]
        feasible = eigs >= -1e-12
        if feasible.any():
            vals = grid[feasible] @ problem.c
            idx = int(np.argmax(vals))
            if vals[idx] > best_val:
                best_val = float(vals[idx])
                best_y = grid[feasible][idx]
        center = best_y
        width = 2.2 * width / (points - 1)
    return best_val


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_instances_match_grid_oracle(seed):
    problem = random_disjoint_instance(seed)
    sol = solve(problem)
    oracle = grid_oracle(problem)
    assert sol.primal_objective == pytest.approx(oracle, abs=1e-4)
    assert sol.bound >= oracle - 1e-6
    assert verify_certificate(problem, sol)


def test_deterministic_bit_identical():
    a = solve(toy_2x2())
    b = solve(toy_2x2())
    assert a.trace == b.trace
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.dual_matrix, b.dual_matrix)


def test_objective_scaling_invariance():
    problem = random_disjoint_instance(5)
    scaled = dense_problem(
        problem.f0,
        [basis_matrix(problem, i) for i in range(problem.n_vars)],
        7.0 * problem.c,
    )
    sol = solve(problem)
    sol7 = solve(scaled)
    assert sol7.bound == pytest.approx(7.0 * sol.bound, rel=1e-7)
    assert np.allclose(sol7.y, sol.y, atol=1e-7)


def test_weak_duality_along_the_run():
    sol = solve(random_disjoint_instance(3))
    # final bound certifies the primal value
    assert sol.bound >= sol.primal_objective - 1e-9
    assert sol.duality_gap >= -1e-9
    assert len(sol.trace) == sol.iterations


def test_trace_rows_carry_the_centering_parameter():
    sol = solve(random_disjoint_instance(11))
    assert all(len(row) == 8 for row in sol.trace)
    *steps, last = sol.trace
    # sigma, the eighth field, is in (0, 1] on every step; the final row of an
    # optimal solve takes no step and carries zero step lengths and sigma
    assert steps and all(0.0 < row[7] <= 1.0 for row in steps)
    assert last[5:] == (0.0, 0.0, 0.0)


def test_one_schur_factorization_per_step(monkeypatch):
    # solve factors through np.linalg.cholesky, whose only (m, m) operand is
    # the Schur matrix: once per step, and not on the last iteration
    problem = random_disjoint_instance(23)
    m = problem.n_vars
    assert m not in problem.block_sizes
    cholesky = np.linalg.cholesky
    schur = []

    def counting_cholesky(a, *args, **kwargs):
        schur.append(a.shape == (m, m))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    sol = solve(problem)
    assert sum(schur) == sol.iterations - 1


def test_verify_certificate_rejects_perturbed_dual():
    problem = toy_2x2()
    sol = solve(problem)
    assert verify_certificate(problem, sol)
    w, v = np.linalg.eigh(sol.dual_matrix)
    bad = sol.dual_matrix - (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0])
    import dataclasses

    perturbed = dataclasses.replace(sol, dual_matrix=bad)
    assert not verify_certificate(problem, perturbed)


def test_certified_bound_dominates_dual_objective():
    problem = random_disjoint_instance(9)
    sol = solve(problem)
    assert certified_upper_bound(problem, sol) >= sol.bound - 1e-12
    assert certified_upper_bound(problem, sol) == pytest.approx(sol.bound, abs=1e-6)


def _offdiag(d, entries):
    m = np.zeros((d, d))
    for (a, b), v in entries.items():
        m[a, b] = m[b, a] = v
    return m


@pytest.mark.parametrize(
    "problem, reason",
    [
        (toy_1x1(), "zero diagonal"),
        (
            dense_problem(2.0 * np.eye(2), [_offdiag(2, {(0, 1): 1.0})], [1.0]),
            "unit diagonal",
        ),
        (
            dense_problem(np.eye(2), [_offdiag(2, {(0, 1): 0.5})], [1.0]),
            r"\|y_i\| <= 1",
        ),
        (
            dense_problem(
                np.eye(3),
                [
                    _offdiag(3, {(0, 1): 1.0, (0, 2): 1.0}),
                    _offdiag(3, {(0, 1): 1.0, (1, 2): 0.5}),
                ],
                [1.0, 1.0],
            ),
            r"variables \[1\]",
        ),
    ],
)
def test_certified_bound_refuses_unchecked_assumptions(problem, reason):
    sol = solve(problem)
    with pytest.raises(ValueError, match=reason):
        certified_upper_bound(problem, sol)


@pytest.mark.parametrize("seed", [5, 11, 23])
def test_sparse_operator_matches_dense_basis_matrices(seed):
    f0, mats, c = random_disjoint_data(seed)
    problem = dense_problem(f0, mats, c)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=len(mats))
    z = rng.normal(size=f0.shape)
    dense = f0 + sum(yi * f for yi, f in zip(y, mats))
    operator = problem.operator
    assert operator.shape == (len(mats), f0.size)
    assert (np.diff(operator.var) >= 0).all()
    combination = operator.combination(y).reshape(f0.shape)
    assert np.allclose(f0 + combination, dense, rtol=0.0, atol=1e-12)
    assert np.allclose(
        operator.adjoint(z.ravel()),
        [np.tensordot(f, z) for f in mats],
        rtol=0.0,
        atol=1e-12,
    )
    for i, f in enumerate(mats):
        assert np.array_equal(basis_matrix(problem, i), f)
        row = operator.var == i
        dense_row = np.bincount(
            operator.flat[row], operator.value[row], minlength=f0.size
        )
        assert np.array_equal(dense_row.reshape(f.shape), f)


@pytest.mark.parametrize(
    "entries, reason",
    [
        ({"row": [1], "col": [0]}, "below the diagonal"),
        ({"row": [0], "col": [2]}, r"outside range\(2\)"),
        ({"row": [-1], "col": [1]}, r"outside range\(2\)"),
        ({"var": [1]}, r"var outside range\(1\)"),
        ({"var": [-1]}, r"var outside range\(1\)"),
        ({"value": [1.0, 1.0]}, "differ in length"),
    ],
    ids=["below-diagonal", "col-2", "row-minus-1", "var-1", "var-minus-1", "lengths"],
)
def test_problem_refuses_malformed_entries(entries, reason):
    # one well-formed entry of a 2x2 problem with one variable, then one defect
    fields = {"var": [0], "row": [0], "col": [1], "value": [1.0], **entries}
    with pytest.raises(ValueError, match=reason):
        SdpProblem(
            f0=np.eye(2),
            c=np.array([1.0]),
            **{name: np.array(a) for name, a in fields.items()},
        )


def test_iteration_limit_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    with pytest.raises(SdpSolverError, match="iteration limit 3") as caught:
        solve(toy_2x2())
    assert "trace" in caught.value.diagnostics


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["definite", "indefinite", "1x1"])
def test_smallest_eigenvalue_matches_numpy(kind, seed):
    # the one routine behind the step lengths and the certificate checks
    rng = np.random.default_rng(seed)
    size = 1 if kind == "1x1" else int(rng.integers(2, 40))
    low = 0.1 if kind == "definite" else -3.0
    spectrum = rng.uniform(low, 3.0, size)
    if kind == "indefinite":
        spectrum[:2] = -1.0, 1.0
    q = np.linalg.qr(rng.normal(size=(size, size)))[0]
    x = q @ np.diag(spectrum) @ q.T
    x = 0.5 * (x + x.T)
    expected = np.linalg.eigvalsh(x)[0]
    assert sdp._smallest_eigenvalue(x) == pytest.approx(expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("size", [1, 64, 65, 150])
def test_lower_inverse_matches_numpy(size):
    # one np.linalg.inv call up to 64 rows, halves above; 65 splits unevenly
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, size))
    lower = np.linalg.cholesky(x @ x.T + size * np.eye(size))
    inverse = sdp._lower_inverse(lower)
    assert np.allclose(inverse, np.linalg.inv(lower), rtol=0.0, atol=1e-12)


def test_infeasible_start_is_reported():
    problem = dense_problem(-np.eye(2), [np.diag([1.0, 0.0])], np.array([1.0]))
    with pytest.raises(SdpSolverError, match="strictly feasible"):
        solve(problem)


def block_diagonal_data(seeds):
    """F0, basis matrices and c of the random instances of ``seeds`` side by
    side on the diagonal, their basis matrices sharing the three variables."""
    data = [random_disjoint_data(seed) for seed in seeds]
    f0 = block_diag(*(f for f, _, _ in data))
    mats = [block_diag(*parts) for parts in zip(*(m for _, m, _ in data))]
    return f0, mats, sum(c for _, _, c in data)


def block_diagonal_instance(seeds):
    return dense_problem(*block_diagonal_data(seeds))


def interleaved_instance(seeds):
    """``block_diagonal_instance(seeds)`` with its rows dealt out in turn, so
    that row ``k`` of instance ``a`` becomes row ``k * len(seeds) + a``."""
    f0, mats, c = block_diagonal_data(seeds)
    order = np.arange(len(f0)).reshape(len(seeds), -1).T.ravel()
    ix = np.ix_(order, order)
    return dense_problem(f0[ix], [m[ix] for m in mats], c)


def test_block_sizes_are_the_finest_uncrossed_cut():
    seeds = [3, 11, 23]
    assert block_diagonal_instance(seeds).block_sizes == (5, 5, 5)
    assert interleaved_instance(seeds).block_sizes == (15,)
    f0, mats, c = block_diagonal_data(seeds)
    crossed = [m.copy() for m in mats]
    crossed[1][4, 5] = crossed[1][5, 4] = 0.5  # one basis entry across the first cut
    assert dense_problem(f0, crossed, c).block_sizes == (10, 5)
    low = f0.copy()
    low[10, 5] = 0.1  # F0's lower triangle counts too
    assert dense_problem(low, mats, c).block_sizes == (5, 10)
    assert toy_1x1().block_sizes == (1,)
    f1 = np.zeros((3, 3))
    f1[0, 1] = f1[1, 0] = 1.0
    assert dense_problem(np.eye(3), [f1], [1.0]).block_sizes == (2, 1)


def test_blocks_solve_like_one_block(monkeypatch):
    # a cap of 5 rows keeps every 5-row block a solve block of its own
    monkeypatch.setattr(sdp, "SOLVE_BLOCK_ROWS", 5)
    seeds = [3, 11, 23]
    blocks = block_diagonal_instance(seeds)
    one = solve(interleaved_instance(seeds))
    split = solve(blocks)
    assert split.block_sizes == (5, 5, 5) and one.block_sizes == (15,)
    assert split.bound == pytest.approx(one.bound, abs=1e-9)
    assert split.iterations == one.iterations
    assert verify_certificate(blocks, split)
    z = split.dual_matrix
    for a in range(3):
        for b in range(3):
            if a != b:
                assert not z[5 * a : 5 * a + 5, 5 * b : 5 * b + 5].any()


@pytest.mark.parametrize(
    "cap, merged",
    [(1, (2, 1, 3, 1, 1)), (3, (3, 3, 2)), (4, (3, 4, 1)), (32, (8,))],
)
def test_consecutive_blocks_merge_up_to_the_cap(monkeypatch, cap, merged):
    # greedy, in order: a block joins the one before it while their rows stay
    # within the cap, and a block larger than the cap solves alone; the finest
    # cut stays the problem's, and the merged blocks solve like it
    monkeypatch.setattr(sdp, "SOLVE_BLOCK_ROWS", cap)
    rng = np.random.default_rng(5)
    sizes, m = (2, 1, 3, 1, 1), 4
    mats = []
    for _ in range(m):
        parts = [np.triu(rng.normal(size=(b, b)), 1) for b in sizes]
        mats.append(block_diag(*[p + p.T for p in parts]))
    problem = dense_problem(np.eye(sum(sizes)), mats, rng.uniform(-1.0, 1.0, m))
    assert problem.block_sizes == sizes
    assert sdp._solve_blocks(sizes) == merged
    solution = solve(problem)
    assert solution.block_sizes == merged
    monkeypatch.setattr(sdp, "SOLVE_BLOCK_ROWS", 1)
    assert solution.bound == pytest.approx(solve(problem).bound, abs=1e-9)
    assert verify_certificate(problem, solution)


def test_solutions_record_where_the_time_went():
    sol = solve(block_diagonal_instance([5, 9]))
    assert min(sol.schur_s, sol.factor_s, sol.step_s) > 0.0
    assert sol.dual_residual == sol.trace[-1][4] < 1e-7


@pytest.mark.parametrize("scratch", [32, 60, sdp.SCHUR_SCRATCH])
def test_schur_matrix_matches_the_dense_formula(monkeypatch, scratch):
    # chunks of one column in the 5x5 block beside chunks of two in the 4x4
    # block (32 floats), chunks cut inside a run of equal entry counts (60
    # floats are two columns of the 5x5 block), and the default; at each size
    # some chunk mixes entry counts, so some of its slots are padding
    monkeypatch.setattr(sdp, "SCHUR_SCRATCH", scratch)
    monkeypatch.setattr(sdp, "SOLVE_BLOCK_ROWS", 1)  # every block solves alone
    rng = np.random.default_rng(7)
    sizes, m = (5, 1, 4), 6
    mats = []
    for _ in range(m):
        parts = []
        for b in sizes:
            part = np.triu(rng.normal(size=(b, b)) * (rng.random((b, b)) < 0.4))
            parts.append(part + np.triu(part, 1).T)
        mats.append(block_diag(*parts))
    problem = dense_problem(np.eye(sum(sizes)), mats, np.ones(m))
    assert problem.block_sizes == sizes
    blocks = sdp._blocks(problem)
    slots = sum(values.size for blk in blocks for *_, values in blk.chunks)
    assert slots > sum(blk.operator.value.size for blk in blocks)
    w, z = [], []
    for b in sizes:
        x, y = rng.normal(size=(2, b, b))
        w.append(x @ x.T + np.eye(b))
        z.append(y @ y.T + np.eye(b))
    dense_w, dense_z = block_diag(*w), block_diag(*z)
    dense = np.array(
        [[np.tensordot(fi, dense_w @ fj @ dense_z) for fj in mats] for fi in mats]
    )
    h = np.empty((m, m))
    scratch = np.zeros(max(blk.scratch_size for blk in blocks))
    sdp._schur_matrix(blocks, w, z, h, scratch)
    assert np.allclose(h, 0.5 * (dense + dense.T), rtol=1e-13, atol=1e-12)
