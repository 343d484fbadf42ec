"""Seeded mutants of the package, each with the tests that must kill it.

A mutant is one exact source edit: ``old`` occurs exactly once in ``file``
(``tests/test_mutants.py`` checks this), and replacing it by ``new`` must make
at least one of ``killers`` fail.  ``scripts/run_mutants.py`` applies each
edit to a copy of the tree and runs its killers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


def _in(test_file: str, *tests: str) -> tuple[str, ...]:
    return tuple(f"tests/{test_file}::{test}" for test in tests)


MUTANTS = (
    Mutant(
        "writable-pinned-slot",
        "src/mabkcert/blochopt.py",
        "    free[0, 0] = not honest\n",
        "    free[0, 0] = True\n",
        _in(
            "test_blochopt.py",
            "test_honest_three_party_respects_cap",
            "test_a_party_step_reaches_the_sum_of_its_gradient_norms",
        ),
    ),
    Mutant(
        "skipped-party-1-negate-back",
        "src/mabkcert/blochopt.py",
        "    x, f, converged = _ascend(x0, _free_slots(n, honest), cfg)\n"
        "    x[restarts:, 1] *= -1\n",
        "    x, f, converged = _ascend(x0, _free_slots(n, honest), cfg)\n",
        _in(
            "test_blochopt.py",
            "test_each_restart_keeps_the_better_of_its_two_signed_ascents",
        ),
    ),
    Mutant(
        "absolute-stop-tolerance",
        "src/mabkcert/blochopt.py",
        "<= _CONVERGENCE_TOL * np.abs(f[live])",
        "<= _CONVERGENCE_TOL",
        _in(
            "test_blochopt.py",
            "test_rows_at_an_optimum_converge_on_the_first_iteration",
        ),
    ),
    Mutant(
        "ties-always-converge",
        "src/mabkcert/blochopt.py",
        "converged[rows] = tangent <= _CONVERGENCE_TOL * np.abs(f[rows])",
        "converged[rows] = True",
        _in(
            "test_blochopt.py",
            "test_a_tie_with_a_large_post_sweep_tangent_ends_the_row_unconverged",
            "test_a_sweep_that_cannot_raise_the_value_ends_the_row_unconverged",
        ),
    ),
    Mutant(
        "decreases-end-unconverged",
        "src/mabkcert/blochopt.py",
        "        stalled[live[~up]] = True\n",
        "        stalled[live[ft == f[live]]] = True\n",
        _in(
            "test_blochopt.py",
            "test_a_rounding_loss_at_a_stationary_point_converges",
        ),
    ),
    Mutant(
        "thetas-then-phis",
        "src/mabkcert/blochopt.py",
        "uniform(0.0, [[np.pi], [2 * np.pi]], shape)",
        "uniform(0.0, [[[np.pi]], [[2 * np.pi]]], shape[1::-1] + shape[2:])"
        ".swapaxes(0, 1)",
        _in(
            "test_blochopt.py",
            "test_per_restart_seeding_is_a_counter_scheme",
        ),
    ),
    Mutant(
        "empty-batch-sweep",
        "src/mabkcert/blochopt.py",
        "        live, trial = live[~stop], trial[~stop]\n"
        "        if not live.size:\n"
        "            break\n",
        "        live, trial = live[~stop], trial[~stop]\n",
        _in(
            "test_blochopt.py",
            "test_rows_at_an_optimum_converge_on_the_first_iteration",
            "test_no_gradient_batch_is_empty",
        ),
    ),
    Mutant(
        "sweep-reads-the-previous-adjoint",
        "src/mabkcert/blochopt.py",
        "_party_derivative(pair, adj[..., k, :])",
        "_party_derivative(pair, adj[..., k - 1, :])",
        _in(
            "test_blochopt.py",
            "test_the_sweep_equals_the_fresh_gradient_oracle_bit_for_bit",
        ),
    ),
    Mutant(
        "sweep-skips-the-pair-advance",
        "src/mabkcert/blochopt.py",
        "        pair = _forward_step(pair, a, b_pair)\n",
        "",
        _in(
            "test_blochopt.py",
            "test_the_sweep_equals_the_fresh_gradient_oracle_bit_for_bit",
        ),
    ),
    Mutant(
        "negated-mabk-value",
        "src/mabkcert/correlators.py",
        "    return _pair_value(_forward_sweep(settings)[2][..., -1, :])\n",
        "    return -_pair_value(_forward_sweep(settings)[2][..., -1, :])\n",
        _in(
            "test_correlators.py",
            "test_mabk_value_matches_term_sum_oracle",
            "test_report_value_is_absolute_weighted_sum",
        ),
    ),
    Mutant(
        "even-n-drops-the-z-product",
        "src/mabkcert/correlators.py",
        "    if n % 2 == 0:\n        value = value + np.prod(blochs[..., 2], axis=-1)\n",
        "",
        _in("test_cli.py", "test_theorem1_passes_odd_and_even")
        + _in("test_correlators.py", "test_even_product_formula"),
    ),
    Mutant(
        "reversal-not-identified",
        "src/mabkcert/npa.py",
        "np.minimum(code, code.T)",
        "code",
        _in(
            "test_npa.py",
            "test_array_builder_matches_the_loop_oracle",
            "test_structure_diagonal_and_symmetry",
        ),
    ),
    Mutant(
        "skipped-z-averaging",
        "src/mabkcert/npa.py",
        "    z = rows.average(z)\n",
        "",
        _in("test_npa.py", "test_certified_bound_stays_within_the_margin"),
    ),
    Mutant(
        "lift-shifts-the-dual",
        "src/mabkcert/npa.py",
        "    z = q @ solution.dual_matrix @ q.T\n",
        "    z = q @ solution.dual_matrix @ q.T + 1e-11 * np.eye(len(q))\n",
        _in("test_npa.py", "test_certified_bound_stays_within_the_margin"),
    ),
    Mutant(
        "symmetry-ignores-objective",
        "src/mabkcert/npa.py",
        "    for words, at in ((objective, at_objective), (pin_words, at_pins)):\n",
        "    for words, at in ((pin_words, at_pins),):\n",
        _in("test_npa.py", "test_an_asymmetric_problem_shrinks_the_group"),
    ),
    Mutant(
        "symmetry-ignores-pins",
        "src/mabkcert/npa.py",
        "    for words, at in ((objective, at_objective), (pin_words, at_pins)):\n",
        "    for words, at in ((objective, at_objective),):\n",
        _in("test_npa.py", "test_a_one_sided_pin_leaves_only_the_identity"),
    ),
    Mutant(
        "pin-signs-left-free",
        "src/mabkcert/npa.py",
        "        np.vstack(equations), np.hstack(bits)[keep].astype(bool)\n",
        "        equations[0], bits[0][keep].astype(bool)\n",
        _in(
            "test_npa.py",
            "test_random_problems_solve_on_orbits_to_the_unreduced_bound",
        ),
    ),
    Mutant(
        "slot-code-ignores-place",
        "src/mabkcert/npa.py",
        "    scale = np.where(real, base**place, 0)\n",
        "    scale = np.where(real, 1, 0)\n",
        _in("test_npa.py", "test_detected_party_groups[2]"),
    ),
    Mutant(
        "unchecked-variable-map",
        "src/mabkcert/npa.py",
        "    if not (\n        f0_kept\n",
        "    if False and not (\n        f0_kept\n",
        _in("test_npa.py", "test_a_tampered_lowering_raises"),
    ),
    Mutant(
        "basis-closure-raises",
        "src/mabkcert/npa.py",
        "    inside = (full_rows >= 0).all(axis=1)\n",
        "    inside = (full_rows >= 0).all(axis=1) | True\n",
        _in(
            "test_npa.py",
            "test_a_basis_word_without_an_image_leaves_only_the_identity",
        ),
    ),
    Mutant(
        "row-signs-dropped",
        "src/mabkcert/npa.py",
        "    parity = letter_signs.astype(np.intp) @ row_letters.T.astype(np.intp)"
        " & 1 == 1\n",
        "    parity = np.zeros((len(rows), len(kept)), dtype=bool)\n",
        _in(
            "test_npa.py",
            "test_party_symmetries_leave_the_lowered_problem_invariant"
            "[n3-level2-free]",
        ),
    ),
    Mutant(
        "sign-kernel-skipped",
        "src/mabkcert/npa.py",
        "image[:n], 1.0 - 2.0 * parity[:n], parity[n:])",
        "image[:n], 1.0 - 2.0 * parity[:n], parity[n:n])",
        _in("test_npa.py", "test_signed_relabelling_group_orders[n3-level2-free]"),
    ),
    Mutant(
        "self-negated-class-kept",
        "src/mabkcert/npa.py",
        "        live = ~(plus & minus) & ~self.kernel.any(axis=0)\n",
        "        live = plus | minus\n",
        _in(
            "test_npa.py",
            "test_self_negated_classes_leave_the_orbit_problem[n3-level2-free]",
        ),
    ),
    Mutant(
        "flipped-class-kept",
        "src/mabkcert/npa.py",
        "        live = ~(plus & minus) & ~self.kernel.any(axis=0)\n",
        "        live = ~(plus & minus)\n",
        _in(
            "test_npa.py",
            "test_self_negated_classes_leave_the_orbit_problem[n3-level2-pinned]",
        ),
    ),
    Mutant(
        "all-copies-kept",
        "src/mabkcert/npa.py",
        "(kind == t) & (copy == copy[kind == t].min())",
        "kind == t",
        _in(
            "test_npa.py",
            "test_symmetry_adapted_bases_block_diagonalize_the_orbit_problem"
            "[n3-level2-free]",
            "test_orbit_solve_runs_on_the_irreducible_blocks[n3-level2-free]",
        ),
    ),
    Mutant(
        "types-from-a",
        "src/mabkcert/npa.py",
        "    kind = _cluster(types, tol)\n",
        "    kind = copy\n",
        _in(
            "test_npa.py",
            "test_symmetry_adapted_bases_block_diagonalize_the_orbit_problem"
            "[n3-level2-free]",
            "test_orbit_solve_runs_on_the_irreducible_blocks[n3-level2-free]",
        ),
    ),
    Mutant(
        "structured-group-algebra-weights",
        "src/mabkcert/npa.py",
        "    draw = random.Random(GROUP_ALGEBRA_SEED).randbytes(8 * rows.order)\n"
        '    weights = (np.frombuffer(draw, dtype="<u8") >> 11) * 2.0**-53 + 1.0\n',
        "    weights = np.arange(rows.order) * 0.6180339887498949 % 1.0 + 1.0\n",
        _in(
            "test_npa.py",
            "test_orbit_solve_runs_on_the_irreducible_blocks[n3-level3-pinned]",
        ),
    ),
    Mutant(
        "restriction-ignores-orbit-signs",
        "src/mabkcert/sdp.py",
        "        value = (sign[self.var] * self.value)[live]\n",
        "        value = self.value[live]\n",
        _in(
            "test_npa.py",
            "test_restricted_blocks_are_the_dense_products[n3-level2-free]",
        ),
    ),
    Mutant(
        "restriction-keeps-cross-block-f0",
        "src/mabkcert/sdp.py",
        "f0=np.where(block[:, None] == block, q.T @ self.f0 @ q, 0.0),",
        "f0=q.T @ self.f0 @ q,",
        _in(
            "test_npa.py",
            "test_orbit_solve_runs_on_the_irreducible_blocks[n3-level3-pinned]",
        ),
    ),
    Mutant(
        "block-cut-ignores-f0",
        "src/mabkcert/sdp.py",
        "        np.maximum.at(reach, np.minimum(i, j), np.maximum(i, j))\n",
        "",
        _in("test_sdp.py", "test_block_sizes_are_the_finest_uncrossed_cut"),
    ),
    Mutant(
        "infeasible-start-unreported",
        "src/mabkcert/sdp.py",
        "            if it == 1:  # Z = I, so S = M(0) failed\n",
        "            if False:\n",
        _in("test_sdp.py", "test_infeasible_start_is_reported"),
    ),
    Mutant(
        "padding-with-a-real-value",
        "src/mabkcert/sdp.py",
        "values = np.where(real, operator.value[at], 0.0)",
        "values = operator.value[at]",
        _in("test_sdp.py", "test_schur_matrix_matches_the_dense_formula"),
    ),
    Mutant(
        "combination-scattered-by-variable",
        "src/mabkcert/sdp.py",
        "return np.bincount(self.flat, weights, minlength=self.shape[1])",
        "return np.bincount(self.var, weights, minlength=self.shape[1])",
        _in("test_sdp.py", "test_sparse_operator_matches_dense_basis_matrices"),
    ),
    Mutant(
        "largest-eigenvalue",
        "src/mabkcert/sdp.py",
        "return float(np.linalg.eigvalsh(_sym(x))[0])",
        "return float(np.linalg.eigvalsh(_sym(x))[-1])",
        _in("test_sdp.py", "test_smallest_eigenvalue_matches_numpy"),
    ),
)
