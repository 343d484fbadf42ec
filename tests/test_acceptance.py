"""Acceptance suite: every computational claim at its stated tolerance.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to see
them on success).  Expensive optimizer runs and hierarchy solves are shared
through module-scoped fixtures, with wall-clock durations recorded for the
runtime checks.

Criterion 3 is implemented exactly as stated (four-party pinned-key maximum
equal to the classical bound 1.0 within 1e-4) and fails: the maximum is
2**0.5, attained by an explicit strategy that is dense-verified in
tests/test_correlators.py (all bob observables equatorial, which annuls every
term containing the pinned observable, while the surviving half reaches its
transverse quantum maximum).  The assertion is kept verbatim rather than
weakened; see the failure message for the analysis.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    dense_matrix,
    ghz_dense,
    ghz_vector,
    mabk_explicit,
    observable_product_matrix,
)
from mabkcert.blochopt import (
    OptimizerConfig,
    maximize_honest_mabk,
    maximize_unconstrained_mabk,
)
from mabkcert.correlators import ghz_expectation
from mabkcert.mabk import (
    expected_normalization,
    expected_term_count,
    mabk_expression,
    mabk_recursion_step,
)
from mabkcert.npa import npa_upper_bound
from mabkcert.stabilizer import ghz_expansion

SEED = 20240811
SQRT2 = math.sqrt(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _random_bloch_batch(rng, count, parties):
    v = rng.normal(size=(count, parties, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def optimizer_runs():
    config = OptimizerConfig(restarts=100, seed=SEED)
    runs = {}
    for n in (3, 4, 5):
        t0 = time.perf_counter()
        runs[("honest", n)] = maximize_honest_mabk(n, config)
        runs[("honest", n, "time")] = time.perf_counter() - t0
        t0 = time.perf_counter()
        runs[("free", n)] = maximize_unconstrained_mabk(n, config)
        runs[("free", n, "time")] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def hierarchy_runs():
    runs = {}
    for level, tol in ((2, 1e-9), (3, 1e-8)):
        for constrained in (False, True):
            t0 = time.perf_counter()
            runs[(level, constrained)] = npa_upper_bound(
                level, with_constraint=constrained, tol=tol
            )
            runs[(level, constrained, "time")] = time.perf_counter() - t0
    return runs


def test_criterion_1_odd_vanishing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (3, 5, 7):
        bobs = _random_bloch_batch(rng, 1000, n - 1)
        blochs = np.concatenate(
            [np.tile([0.0, 0.0, 1.0], (1000, 1, 1)), bobs], axis=1
        )
        worst = max(worst, float(np.abs(ghz_expectation(n, blochs)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    _report(
        "criterion 1 (odd-N vanishing with pinned key observable)",
        ok,
        f"max |value| = {worst:.3e} over 3000 settings, {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_2_even_product_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for n in (4, 6):
        bobs = _random_bloch_batch(rng, 1000, n - 1)
        blochs = np.concatenate(
            [np.tile([0.0, 0.0, 1.0], (1000, 1, 1)), bobs], axis=1
        )
        values = ghz_expectation(n, blochs)
        products = bobs[:, :, 2].prod(axis=1)
        worst = max(worst, float(np.abs(values - products).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    _report(
        "criterion 2 (even-N product formula)",
        ok,
        f"max residual = {worst:.3e} over 2000 settings, {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_3_four_party_pinned_key_maximum(optimizer_runs):
    result = optimizer_runs[("honest", 4)]
    elapsed = optimizer_runs[("honest", 4, "time")]
    ok = abs(result.best_value - 1.0) <= 1e-4 and elapsed < 60.0
    _report(
        "criterion 3 (four-party pinned-key maximum equals classical bound 1)",
        ok,
        f"observed {result.best_value:.9f}, target 1.0 +- 1e-4, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert abs(result.best_value - 1.0) <= 1e-4, (
        "the four-party maximum with the key observable pinned to sigma_z is "
        f"{result.best_value:.9f} = 2**0.5, not 1.0: the all-equatorial bob "
        "strategy zeroes every term containing the pinned observable and the "
        "remaining half attains its transverse quantum maximum (an exact "
        "strategy reaching 2**0.5 is dense-verified in test_correlators.py); "
        "the stated target is therefore unattainable and kept verbatim"
    )


def test_criterion_4_odd_honest_caps(optimizer_runs):
    v3 = optimizer_runs[("honest", 3)].best_value
    v5 = optimizer_runs[("honest", 5)].best_value
    elapsed = optimizer_runs[("honest", 3, "time")] + optimizer_runs[("honest", 5, "time")]
    ok = v3 <= 1.0 + 1e-6 and v5 <= 2.0 + 1e-6 and elapsed < 120.0
    _report(
        "criterion 4 (odd-N pinned-key maxima within the halved-terms caps)",
        ok,
        f"n=3: {v3:.9f} <= 1, n=5: {v5:.9f} <= 2, {elapsed:.1f}s",
    )
    assert v3 <= 1.0 + 1e-6
    assert v5 <= 2.0 + 1e-6
    assert elapsed < 120.0


def test_criterion_5_maximal_violation(optimizer_runs):
    elapsed = sum(optimizer_runs[("free", n, "time")] for n in (3, 4, 5))
    values = {n: optimizer_runs[("free", n)].best_value for n in (3, 4, 5)}
    targets = {n: 2.0 ** ((n - 1) / 2) for n in (3, 4, 5)}
    ok = all(abs(values[n] - targets[n]) <= 1e-3 for n in (3, 4, 5)) and elapsed < 120.0
    _report(
        "criterion 5 (unconstrained maxima reach 2^((N-1)/2))",
        ok,
        ", ".join(f"n={n}: {values[n]:.6f}/{targets[n]:.6f}" for n in (3, 4, 5))
        + f", {elapsed:.1f}s",
    )
    for n in (3, 4, 5):
        assert abs(values[n] - targets[n]) <= 1e-3
    assert elapsed < 120.0


def test_criterion_6_hierarchy_level2_bounds(hierarchy_runs):
    constrained = hierarchy_runs[(2, True)]
    unconstrained = hierarchy_runs[(2, False)]
    t_c = hierarchy_runs[(2, True, "time")]
    t_u = hierarchy_runs[(2, False, "time")]
    ok = (
        abs(constrained.bound - SQRT2) <= 1e-5
        and abs(unconstrained.bound - 2.0) <= 1e-5
        and constrained.verified
        and unconstrained.verified
        and max(t_c, t_u) < 60.0
    )
    _report(
        "criterion 6 (level-2 bounds: constrained sqrt(2), unconstrained 2)",
        ok,
        f"constrained {constrained.bound:.8f} ({t_c:.1f}s),"
        f" unconstrained {unconstrained.bound:.8f} ({t_u:.1f}s)",
    )
    assert constrained.verified
    assert unconstrained.verified
    assert abs(constrained.bound - SQRT2) <= 1e-5
    assert abs(unconstrained.bound - 2.0) <= 1e-5
    assert t_c < 60.0 and t_u < 60.0


def test_criterion_7_structural_identities():
    t0 = time.perf_counter()
    for n in (3, 5, 7):
        recursive = mabk_expression(2)
        for _ in range(n - 2):
            recursive = mabk_recursion_step(recursive)
        assert recursive == mabk_explicit(n)
    for n in range(2, 9):
        expr = mabk_expression(n)
        assert len(expr) == expected_term_count(n)
        assert max(c.denominator for c in expr.values()) == expected_normalization(n)
    for n in range(2, 7):
        v = ghz_vector(n)
        for sign, word in ghz_expansion(n):
            assert np.max(np.abs(sign * dense_matrix(word) @ v - v)) < 1e-12
    rng = np.random.default_rng(SEED + 2)
    for n in range(2, 7):
        for _ in range(20):
            raw = rng.normal(size=(n, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            stab = ghz_expectation(n, raw)
            dense = float(
                np.real(np.trace(ghz_dense(n) @ observable_product_matrix(raw)))
            )
            assert abs(stab - dense) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7 (structural identities)",
        elapsed < 30.0,
        f"recursion/counts/stabilization/path-equality all exact, {elapsed:.1f}s",
    )
    assert elapsed < 30.0


def test_criterion_8_solver_soundness(hierarchy_runs):
    results = [hierarchy_runs[key] for key in ((2, True), (2, False), (3, True), (3, False))]
    all_verified = all(r.verified for r in results)
    gaps_ok = all(r.solution.duality_gap >= -1e-9 for r in results)
    mono_c = hierarchy_runs[(3, True)].bound <= hierarchy_runs[(2, True)].bound + 1e-6
    mono_u = hierarchy_runs[(3, False)].bound <= hierarchy_runs[(2, False)].bound + 1e-6
    ok = all_verified and gaps_ok and mono_c and mono_u
    _report(
        "criterion 8 (certificates, weak duality, hierarchy monotonicity)",
        ok,
        f"verified={all_verified},"
        f" level-3 constrained {hierarchy_runs[(3, True)].bound:.8f}"
        f" <= {hierarchy_runs[(2, True)].bound:.8f},"
        f" unconstrained {hierarchy_runs[(3, False)].bound:.8f}"
        f" <= {hierarchy_runs[(2, False)].bound:.8f}",
    )
    assert all_verified
    assert gaps_ok
    assert mono_c
    assert mono_u
