"""Moment structure, perfect-correlation encoding, and certified bounds."""

import dataclasses
import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from conftest import Z, block_diag, ghz_dense, observable_product_matrix, random_bloch
from mabkcert import npa
from mabkcert.blochopt import OptimizerConfig, maximize_unconstrained_mabk
from mabkcert.correlators import mabk_value
from mabkcert.mabk import mabk_expression
from mabkcert.npa import (
    KEY_INPUT,
    OperatorLetter,
    ReducedMoments,
    SignedPermutations,
    build_moment_structure,
    canonicalize,
    encode_objective,
    generate_monomials,
    lower_to_sdp,
    npa_upper_bound,
    objective_words,
    orbit_problem,
    perfect_correlation_pins,
    reduce_structure,
    relabelling_group,
    solve_on_orbits,
    symmetry_adapted_bases,
)
from mabkcert.sdp import BLOCK_ENTRY_FLOOR, solve, verify_certificate

A0 = OperatorLetter(0, 0)
A1 = OperatorLetter(0, 1)
B0_1 = OperatorLetter(1, 0)
B2_1 = OperatorLetter(1, KEY_INPUT)
B2_2 = OperatorLetter(2, KEY_INPUT)


def default_scenario(n_parties):
    """Input counts per party: two for the first party, three for the rest."""
    return (2,) + (3,) * (n_parties - 1)


SCENARIO = default_scenario(3)


def letter_strategy():
    return st.builds(
        lambda p, i: OperatorLetter(p, i % SCENARIO[p]),
        st.integers(0, 2),
        st.integers(0, 2),
    )


def test_canonicalize_examples():
    assert canonicalize([B0_1, A0]) == (A0, B0_1)
    assert canonicalize([A0, A0]) == ()
    assert canonicalize([A0, A1, A1, A0]) == ()
    assert canonicalize([A0, A1, A1, B2_1]) == (A0, B2_1)


@settings(max_examples=200)
@given(st.lists(letter_strategy(), max_size=6))
def test_canonicalize_idempotent_and_party_sorted(word):
    w = canonicalize(word)
    assert canonicalize(w) == w
    assert all(a.party <= b.party for a, b in zip(w, w[1:]))
    assert all(a != b for a, b in zip(w, w[1:]))


def test_monomial_counts():
    assert len(generate_monomials(SCENARIO, 0)) == 1
    assert len(generate_monomials(SCENARIO, 1)) == 9
    assert len(generate_monomials(SCENARIO, 2)) == 44


def test_monomial_count_level2_independent():
    # identity + letters + same-party ordered pairs + cross-party pairs
    letters = sum(SCENARIO)
    same_party = sum(c * (c - 1) for c in SCENARIO)
    cross = sum(
        SCENARIO[i] * SCENARIO[j]
        for i, j in itertools.combinations(range(len(SCENARIO)), 2)
    )
    assert 1 + letters + same_party + cross == 44


def test_monomials_identity_first_and_deterministic():
    a = generate_monomials(SCENARIO, 2)
    b = generate_monomials(SCENARIO, 2)
    assert a == b
    assert a[0] == ()


def _class_key(word):
    """Representative of {word, reversed word} (moments are reversal-symmetric)."""
    return min(word, canonicalize(tuple(reversed(word))))


def _loop_moment_structure(monomials):
    """The moment structure entry by entry: the class of every
    ``canonicalize(reverse(u) . v)``, numbered by first row-major appearance,
    and each class's representative ``_class_key``."""
    d = len(monomials)
    class_ids, reps = {}, []
    class_of = np.empty((d, d), dtype=np.int32)
    for i, u in enumerate(monomials):
        ru = tuple(reversed(u))
        for j, v in enumerate(monomials):
            key = _class_key(canonicalize(ru + v))
            if key not in class_ids:
                class_ids[key] = len(reps)
                reps.append(key)
            class_of[i, j] = class_ids[key]
    return class_of, tuple(reps)


ORACLE_CASES = (
    [((2, 3, 3), level) for level in (1, 2, 3)]
    + [((2, 2, 2), level) for level in (1, 2, 3)]
    + [(default_scenario(4), 2)]
)


@pytest.mark.parametrize("scenario, level", ORACLE_CASES)
def test_array_builder_matches_the_loop_oracle(scenario, level):
    monomials = generate_monomials(scenario, level)
    structure = build_moment_structure(monomials)
    class_of, reps = _loop_moment_structure(monomials)
    assert structure.class_of.dtype == class_of.dtype
    assert np.array_equal(structure.class_of, class_of)
    assert structure.n_classes == len(reps)


def _key_pairs(n_parties):
    """The pairwise key words: A0 and every later party's key input."""
    keys = [A0] + [OperatorLetter(p, KEY_INPUT) for p in range(1, n_parties)]
    return list(itertools.combinations(keys, 2))


def _mabk_words(n_parties):
    return objective_words(mabk_expression(n_parties))


def _pin_classes(structure, n_parties=3):
    """The moment classes of the perfect-correlation pins."""
    return [structure.class_id(w) for w in perfect_correlation_pins(n_parties)]


@pytest.mark.parametrize("scenario, level", ORACLE_CASES)
def test_class_lookups_match_the_loop_oracle(scenario, level):
    # class_id and encode_objective give every objective word and key pair
    # the oracle's class, and refuse the words that the oracle has no class for
    structure = build_moment_structure(generate_monomials(scenario, level))
    _, reps = _loop_moment_structure(structure.basis)
    oracle = {rep: k for k, rep in enumerate(reps)}
    expr = mabk_expression(len(scenario))
    words = [tuple(OperatorLetter(p, x) for p, x in enumerate(xs)) for xs in expr]
    pairs = _key_pairs(len(scenario))
    for word in words + pairs:
        if _class_key(word) in oracle:
            assert structure.class_id(word) == oracle[_class_key(word)]
        else:
            with pytest.raises(ValueError, match="increase the hierarchy level"):
                structure.class_id(word)

    if all(_class_key(w) in oracle for w in words):
        expected = np.zeros(len(reps))
        for word, coefficient in zip(words, expr.values()):
            expected[oracle[_class_key(word)]] += float(coefficient)
        encoded = encode_objective(objective_words(expr), structure)
        assert np.array_equal(encoded, expected)
    else:
        with pytest.raises(ValueError, match="increase the hierarchy level"):
            encode_objective(objective_words(expr), structure)
    assert perfect_correlation_pins(len(scenario)) == pairs


def test_four_party_pins_are_the_six_pair_classes():
    structure = build_moment_structure(generate_monomials(default_scenario(4), 2))
    _, reps = _loop_moment_structure(structure.basis)
    oracle = {rep: k for k, rep in enumerate(reps)}
    pinned = _pin_classes(structure, 4)
    assert len(pinned) == 6
    assert pinned == [oracle[_class_key(pair)] for pair in _key_pairs(4)]


def test_structure_diagonal_and_symmetry():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    d = structure.dimension
    assert all(structure.class_of[i, i] == structure.identity_class for i in range(d))
    assert np.array_equal(structure.class_of, structure.class_of.T)


def test_structure_entry_reduction_example():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    _, reps = _loop_moment_structure(structure.basis)
    basis = structure.index
    i = basis[(A0, A1)]
    j = basis[(A0,)]
    # reverse(A0 A1) . A0 = A1 A0 A0 = A1
    assert reps[structure.class_of[i, j]] == (A1,)
    k = basis[(B2_1,)]
    assert structure.class_of[j, k] == structure.class_of[k, j]


def test_objective_encoding_matches_expression():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    coeffs = encode_objective(_mabk_words(3), structure)
    _, reps = _loop_moment_structure(structure.basis)
    nonzero = {reps[i]: c for i, c in enumerate(coeffs) if c != 0.0}
    b1 = lambda x: OperatorLetter(1, x)
    b2 = lambda x: OperatorLetter(2, x)
    assert nonzero == {
        (A1, b1(0), b2(0)): 0.5,
        (A0, b1(1), b2(0)): 0.5,
        (A0, b1(0), b2(1)): 0.5,
        (A1, b1(1), b2(1)): -0.5,
    }


def test_objective_encoding_respects_party_permutation():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    coeffs = encode_objective(_mabk_words(3), structure)
    # the three-party expression is symmetric under exchanging the two
    # three-input parties, so the encoded functional must be too
    swap = {1: 2, 2: 1, 0: 0}
    _, reps = _loop_moment_structure(structure.basis)
    index = {rep: i for i, rep in enumerate(reps)}
    for i, c in enumerate(coeffs):
        if c == 0.0:
            continue
        rep = reps[i]
        swapped = tuple(
            sorted(
                (OperatorLetter(swap[l.party], l.input) for l in rep),
                key=lambda l: l.party,
            )
        )
        assert coeffs[index[swapped]] == c


def test_objective_encoding_needs_level_two():
    structure = build_moment_structure(generate_monomials(SCENARIO, 1))
    with pytest.raises(ValueError, match="increase the hierarchy level"):
        encode_objective(_mabk_words(3), structure)


def test_perfect_correlation_pins_three_pair_moments():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    pinned = _pin_classes(structure)
    _, reps = _loop_moment_structure(structure.basis)
    assert len(pinned) == 3
    assert {reps[c] for c in pinned} == {
        (A0, B2_1),
        (A0, B2_2),
        (B2_1, B2_2),
    }


def test_projector_correlation_operator_expands_to_pairwise_mean(rng):
    # C = P+ Q+ R+ + P- Q- R- has tr(C rho) = (1 + <PQ> + <PR> + <QR>) / 4
    # for dichotomic P, Q, R; checked on random observables and a random state
    for _ in range(10):
        mats = [observable_product_matrix([random_bloch(rng)]) for _ in range(3)]
        eye = np.eye(2)
        plus = [(eye + m) / 2 for m in mats]
        minus = [(eye - m) / 2 for m in mats]
        correlation_op = (
            np.kron(np.kron(plus[0], plus[1]), plus[2])
            + np.kron(np.kron(minus[0], minus[1]), minus[2])
        )
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = np.outer(psi, psi.conj())
        rho /= np.trace(rho).real

        def corr(i, j):
            ops = [eye, eye, eye]
            ops[i], ops[j] = mats[i], mats[j]
            return float(
                np.real(np.trace(rho @ np.kron(np.kron(ops[0], ops[1]), ops[2])))
            )

        lhs = float(np.real(np.trace(rho @ correlation_op)))
        rhs = 0.25 * (1.0 + corr(0, 1) + corr(0, 2) + corr(1, 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _honest_observables(rng):
    """Dense 2x2 observables per (party, input); key inputs pinned to sigma_z."""
    z = observable_product_matrix([Z])
    obs = {}
    for party, count in enumerate(SCENARIO):
        for inp in range(count):
            if (party == 0 and inp == 0) or inp == KEY_INPUT:
                obs[(party, inp)] = z
            else:
                obs[(party, inp)] = observable_product_matrix([random_bloch(rng)])
    return obs


def _word_value(word, obs, rho):
    m = np.eye(8, dtype=complex)
    for letter in word:
        mats = [np.eye(2, dtype=complex)] * 3
        mats[letter.party] = obs[(letter.party, letter.input)]
        m = m @ np.kron(np.kron(mats[0], mats[1]), mats[2])
    return complex(np.trace(rho @ m))


def test_ghz_honest_strategy_is_a_feasibility_witness(rng):
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    obs = _honest_observables(rng)
    rho = ghz_dense(3)

    _, reps = _loop_moment_structure(structure.basis)
    values = np.array([_word_value(rep, obs, rho).real for rep in reps])

    # same-class entries agree with the direct entry evaluation
    for i, u in enumerate(structure.basis[:12]):
        for j, v in enumerate(structure.basis[:12]):
            direct = _word_value(tuple(reversed(u)) + v, obs, rho).real
            assert direct == pytest.approx(
                values[structure.class_of[i, j]], abs=1e-10
            )

    moment_matrix = values[structure.class_of]
    assert np.linalg.eigvalsh(moment_matrix)[0] > -1e-10

    pinned = _pin_classes(structure)
    for cid in pinned:
        assert values[cid] == pytest.approx(1.0, abs=1e-12)

    # classes merged by the reduction take equal values on the witness
    reduced = reduce_structure(structure, [structure.identity_class, *pinned])
    roots: dict[int, list[int]] = {}
    for cid in range(structure.n_classes):
        roots.setdefault(int(reduced.root_of[cid]), []).append(cid)
    for members in roots.values():
        vals = [values[c] for c in members]
        assert max(vals) - min(vals) < 1e-10

    # the encoded objective evaluates to the strategy's Bell value
    coeffs = encode_objective(_mabk_words(3), structure)

    def to_bloch(m):
        return [np.real(m[0, 1]), np.imag(m[1, 0]), np.real(m[0, 0])]

    settings_ = np.array([[to_bloch(obs[(p, x)]) for x in (0, 1)] for p in range(3)])
    assert float(coeffs @ values) == pytest.approx(mabk_value(settings_), abs=1e-10)


def test_unconstrained_reduction_is_a_no_op():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    reduced = reduce_structure(structure, [structure.identity_class])
    assert reduced.kept_rows == tuple(range(structure.dimension))
    assert np.array_equal(reduced.class_matrix, structure.class_of)


@pytest.mark.parametrize(
    "level, kept, n_vars", [(2, 29, 123), (3, 95, 621)], ids=["level2", "level3"]
)
def test_constrained_reduction_restores_interior(level, kept, n_vars):
    structure = build_moment_structure(generate_monomials(SCENARIO, level))
    pins = [structure.identity_class, *_pin_classes(structure)]
    reduced = reduce_structure(structure, pins)
    assert len(reduced.kept_rows) == kept
    # fixpoint: no two kept rows are still joined by an entry pinned to one
    cm = reduced.class_matrix
    for i, j in zip(*np.triu_indices(kept, 1)):
        assert not reduced.pinned[cm[i, j]]
    problem, const = lower_to_sdp(reduced, np.zeros(structure.n_classes))
    assert problem.n_vars == n_vars
    assert np.array_equal(problem.f0, np.eye(problem.dimension))
    # zero objective solves to a zero bound
    assert abs(solve(problem).bound + const) < 1e-7


def _reference_reduction(structure, pinned):
    """The reduction as plain loops, each group labelled by its smallest member."""
    d, class_of = structure.dimension, structure.class_of
    rows, classes = list(range(d)), list(range(structure.n_classes))

    def join(label, a, b):
        low, high = sorted((label[a], label[b]))
        for x, current in enumerate(label):
            if current == high:
                label[x] = low
        return low != high

    while True:
        roots = {classes[cid] for cid in pinned}
        merged = False
        for a in range(d):
            for b in range(a + 1, d):
                if classes[class_of[a, b]] in roots:
                    merged |= join(rows, a, b)
        if not merged:
            break
        for a in range(d):
            for c in range(d):
                join(classes, class_of[rows[a], c], class_of[a, c])
    kept = sorted(set(rows))
    matrix = [[classes[class_of[a, b]] for b in kept] for a in kept]
    mask = np.isin(np.arange(structure.n_classes), list(roots))
    return tuple(kept), np.array(matrix), mask, np.array(classes), np.array(rows)


def test_reduction_matches_the_loop_reference():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    rng = np.random.default_rng(3)
    pin_sets = [_pin_classes(structure)] + [
        rng.choice(structure.n_classes, 3, replace=False).tolist() for _ in range(8)
    ]
    for pins in pin_sets:
        pins = [structure.identity_class, *pins]
        reduced = reduce_structure(structure, pins)
        kept, matrix, mask, classes, rows = _reference_reduction(structure, pins)
        assert reduced.kept_rows == kept
        assert np.array_equal(reduced.class_matrix, matrix)
        assert np.array_equal(reduced.pinned, mask)
        assert np.array_equal(reduced.root_of, classes)
        assert np.array_equal(reduced.row_of, rows)


def test_lowering_refuses_an_objective_class_outside_the_matrix():
    reduced = ReducedMoments(
        kept_rows=(0, 1),
        class_matrix=np.array([[0, 1], [1, 0]], dtype=np.int32),
        pinned=np.array([True, False, False]),
        root_of=np.arange(3, dtype=np.int32),
        row_of=np.arange(2),
    )
    problem, const = lower_to_sdp(reduced, np.array([0.0, 2.0, 0.0]))
    assert problem.n_vars == 1 and problem.c.tolist() == [2.0] and const == 0.0
    with pytest.raises(ValueError, match="objective class missing"):
        lower_to_sdp(reduced, np.array([0.0, 0.0, 1.0]))


Lowered = namedtuple("Lowered", "structure reduced problem const objective pins")


def _lowered(scenario, level, pinned_words=(), objective=None, extra_words=()):
    """npa_upper_bound's lowered problem, before any symmetry: the pruned
    ``scenario``, with the given words pinned to one, the MABK objective
    unless ``objective`` is given, and ``extra_words`` appended to the basis."""
    if objective is None:
        objective = _mabk_words(len(scenario))
    pins = list(pinned_words)
    monomials = generate_monomials(scenario, level) + list(extra_words)
    structure = build_moment_structure(monomials)
    pinned = [structure.identity_class] + [structure.class_id(w) for w in pins]
    reduced = reduce_structure(structure, pinned)
    problem, const = lower_to_sdp(reduced, encode_objective(objective, structure))
    return Lowered(structure, reduced, problem, const, objective, pins)


def _symmetries(lowered, problem=None):
    """relabelling_group of ``lowered``, or of ``problem`` in its place."""
    structure, reduced, own, _, objective, pins = lowered
    problem = own if problem is None else problem
    return relabelling_group(structure, reduced, problem, objective, pins)


def _elements(perms):
    """Every element of the group ``perms``, one a row: representative ``e``
    times sign change ``c`` at row ``e * len(perms.flips) + c``, its image and
    its sign."""
    image = np.repeat(perms.image, len(perms.flips), axis=0)
    sign = (perms.sign[:, None, :] * perms.flips).reshape(image.shape)
    return image, sign


def _relabellings(group):
    """Each element of ``group`` as a map letter -> (sign, image letter)."""
    letters = group.letters
    return [
        {letter: (s, letters[i]) for letter, i, s in zip(letters, image, sign)}
        for image, sign in zip(*_elements(group.on_letters))
    ]


def _unsigned_elements(group, relabel):
    """The elements of ``group`` that send each letter ``l``, with sign +1,
    to ``relabel(l)``."""
    return [
        g
        for g, r in enumerate(_relabellings(group))
        if all(r[l] == (1.0, relabel(l)) for l in r)
    ]


def _party_map(relabelling):
    """The party permutation of a relabelling, as the image of each party."""
    parties = sorted({letter.party for letter in relabelling})
    return tuple(relabelling[OperatorLetter(p, 0)][1].party for p in parties)


def _unsigned_party_maps(group):
    """The party maps of the elements without signs or input permutations."""
    return {
        _party_map(r)
        for r in _relabellings(group)
        if all(s == 1.0 and m.input == l.input for l, (s, m) in r.items())
    }


@pytest.mark.parametrize("level", [2, 3])
def test_detected_party_groups(level):
    # the unsigned relabellings that keep every input are the party groups:
    # {id, B <-> C} pinned, S3 unpinned
    pinned = _lowered(SCENARIO, level, _key_pairs(3))
    assert _unsigned_party_maps(_symmetries(pinned)) == {(0, 1, 2), (0, 2, 1)}
    free = _lowered((2, 2, 2), level)
    assert _unsigned_party_maps(_symmetries(free)) == set(
        itertools.permutations(range(3))
    )


def _brute_force_group(lowered):
    """Every signed letter relabelling that keeps the objective exactly, maps
    the pins onto pins with sign +1 and the basis into the basis, word by word."""
    structure, _, _, _, objective, pins = lowered
    basis, pin_images = set(structure.basis), {(1, p) for p in pins}
    coefficients = list(objective.values())
    letters = sorted({letter for w in structure.basis for letter in w})
    counts = [sum(letter.party == p for letter in letters) for p in range(3)]
    found = set()
    for parties in itertools.permutations(range(3)):
        if [counts[q] for q in parties] != counts:
            continue
        for inputs in itertools.product(
            *[itertools.permutations(range(c)) for c in counts]
        ):
            for signs in itertools.product((1, -1), repeat=len(letters)):
                sign = dict(zip(letters, signs))

                def relabel(word):
                    image = [
                        OperatorLetter(parties[l.party], inputs[l.party][l.input])
                        for l in word
                    ]
                    return math.prod(sign[l] for l in word), canonicalize(image)

                if not (
                    all(
                        objective.get(image) == s * c
                        for (s, image), c in zip(map(relabel, objective), coefficients)
                    )
                    and all(relabel(w) in pin_images for w in pins)
                    and all(relabel(w)[1] in basis for w in structure.basis)
                ):
                    continue
                found.add(tuple((l, sign[l], *relabel((l,))[1][0]) for l in letters))
    return found


ORACLE_GROUPS = {
    "n3-level2-free": lambda: _lowered((2, 2, 2), 2),
    "n3-level2-pinned": lambda: _lowered(SCENARIO, 2, _key_pairs(3)),
    "one-sided-pin": lambda: _lowered(SCENARIO, 2, [(A0, B2_1)]),
    "extra-basis-word": lambda: _lowered((2, 2, 2), 2, extra_words=[(A0, A1, B0_1)]),
    # words with two or three letters of one party: places 1 and 2
    "n3-level3-free": lambda: _lowered((2, 2, 2), 3),
    "n3-level3-pinned": lambda: _lowered(SCENARIO, 3, _key_pairs(3)),
}


@pytest.mark.parametrize("case", ORACLE_GROUPS)
def test_signed_group_matches_the_brute_force_oracle(case):
    # every signed relabelling of the letters (3072 of six letters, 36864 of
    # eight), each checked word by word, against the GF(2) enumeration
    lowered = ORACLE_GROUPS[case]()
    group = _symmetries(lowered)
    enumerated = {
        tuple((l, s, *m) for l, (s, m) in r.items()) for r in _relabellings(group)
    }
    assert enumerated == _brute_force_group(lowered)


def test_a_one_sided_pin_leaves_only_the_identity():
    # pinning A0 B2 alone breaks B <-> C: every element keeps every party
    lowered = _lowered(SCENARIO, 2, [(A0, B2_1)])
    maps = {_party_map(r) for r in _relabellings(_symmetries(lowered))}
    assert maps == {(0, 1, 2)}


def test_a_basis_word_without_an_image_leaves_only_the_identity():
    # every relabelling of the letters but the identity moves A0 A1 B0 to a
    # word outside the basis (A0 A1 and B0 each map to themselves, up to
    # sign, only under the identity letter permutation); the pins (none) and
    # the MABK objective alone would keep 192 signed relabellings
    lowered = _lowered((2, 2, 2), 2, extra_words=[(A0, A1, B0_1)])
    assert lowered.structure.dimension == 26
    group = _symmetries(lowered)
    assert (_elements(group.on_letters)[0] == np.arange(len(group.letters))).all()
    assert group.on_letters.order == 8  # the sign changes that keep MABK
    assert _symmetries(_lowered((2, 2, 2), 2)).on_letters.order == 192


def test_an_asymmetric_problem_shrinks_the_group():
    # tilting the coefficient of A1 B0 C0 to 3/4 leaves only the relabellings
    # that fix that word with sign +1, and with it its variable, the only one
    # whose c the tilt moves: 48 of the 192
    full = _lowered((2, 2, 2), 2)
    word = (A1, B0_1, OperatorLetter(2, 0))
    objective = dict(full.objective)
    objective[word] += Fraction(1, 4)
    tilted = _lowered((2, 2, 2), 2, objective=objective)
    (v,) = np.flatnonzero(tilted.problem.c != full.problem.c)
    found = _symmetries(tilted).variables
    assert _symmetries(full).variables.order == 192 and found.order == 48
    image, sign = _elements(found)
    assert (image[:, v] == v).all() and (sign[:, v] == 1.0).all()


def test_slot_codes_beyond_64_bits_raise_before_any_candidate():
    # 21 parties of two inputs and one word with two letters of party 0: the
    # slot codes need 3^42 > 2^63 values, and the 21! party maps are never
    # walked
    lowered = _lowered(
        (2,) * 21, 1, objective={(A0,): Fraction(1)}, extra_words=[(A0, A1)]
    )
    with pytest.raises(ValueError, match="64-bit"):
        _symmetries(lowered)


def test_a_tampered_lowering_raises():
    # moving one entry to another variable leaves the words symmetric but
    # not the lowered problem: that is a lowering bug, not a smaller group
    lowered = _lowered((2, 2, 2), 2)
    var = lowered.problem.var.copy()
    var[0] = 1 - var[0]
    tampered = dataclasses.replace(lowered.problem, var=var)
    with pytest.raises(ValueError, match="no symmetry of the lowering"):
        _symmetries(lowered, tampered)


@pytest.fixture(scope="module")
def reproduce_runs():
    """The four N=3 bounds at the tolerances reproduce-paper uses."""
    return {
        (level, pinned): npa_upper_bound(level, with_constraint=pinned, tol=tol)
        for level, tol in ((2, 1e-9), (3, 1e-8))
        for pinned in (True, False)
    }


@pytest.mark.parametrize("pinned", [True, False])
def test_level2_solves_stay_within_the_iteration_budget(reproduce_runs, pinned):
    # the predictor-corrector step needs 12; a fixed mu reduction needed 21
    assert reproduce_runs[(2, pinned)].solution.iterations <= 15


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("level", [2, 3])
def test_certified_bounds_are_sound_and_tight(reproduce_runs, level, pinned):
    target = math.sqrt(2.0) if pinned else 2.0
    result = reproduce_runs[(level, pinned)]
    assert result.verified
    assert target <= result.certified_bound <= target + 1e-7


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("level", [2, 3])
def test_orbit_bound_equals_the_unreduced_solve(reproduce_runs, level, pinned):
    scenario = SCENARIO if pinned else (2, 2, 2)
    lowered = _lowered(scenario, level, _key_pairs(3) if pinned else ())
    problem, const = lowered.problem, lowered.const
    tol = 1e-9 if level == 2 else 1e-8
    result = reproduce_runs[(level, pinned)]
    unreduced = solve(problem, tol=tol).bound + const
    assert result.n_moment_classes == problem.n_vars
    assert result.bound == pytest.approx(unreduced, abs=1e-8)


def test_the_bound_is_the_block_solves_own(monkeypatch):
    # the lift keeps the block solve's dual objective; <F0, Z> recomputed on
    # the unreduced problem, which verify_certificate compares it with, is
    # 1 ulp away here
    block_solves = []

    def recording_solve(problem, **kwargs):
        block_solves.append(solve(problem, **kwargs))
        return block_solves[-1]

    monkeypatch.setattr(npa, "solve", recording_solve)
    result = npa_upper_bound(2, True)
    assert len(block_solves) == 1
    assert result.solution.bound == block_solves[0].bound
    assert result.verified


@pytest.mark.parametrize("pinned", [True, False])
def test_four_party_orbit_bound_equals_the_unreduced_solve(pinned):
    scenario = default_scenario(4) if pinned else (2, 2, 2, 2)
    lowered = _lowered(scenario, 2, _key_pairs(4) if pinned else ())
    problem, const = lowered.problem, lowered.const
    result = npa_upper_bound(2, pinned, tol=1e-8, n_parties=4)
    unreduced = solve(problem, tol=1e-8).bound + const
    assert result.verified
    assert result.bound == pytest.approx(unreduced, abs=1e-8)


# The randomized differential gate: random N=3 level-2 problems through the
# whole moment pipeline, against the unreduced solve and the brute-force group.
COEFFICIENTS = [Fraction(s * m, 2) for s in (1, -1) for m in (1, 2, 4)]
SIGNS = st.sampled_from((1, -1))
# No shrink phase: every example solves SDPs, and shrinking a failure would
# take minutes; a failure is reported as drawn.
RANDOM_GATE = settings(
    derandomize=True,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.generate),
)


def _letters(scenario):
    return [OperatorLetter(p, x) for p, count in enumerate(scenario) for x in range(count)]


@st.composite
def random_problems(draw):
    """The arguments of ``_lowered`` for a random N=3 level-2 problem: 1-6
    words of up to 3 letters with coefficients in {+-1/2, +-1, +-2}, a random
    subset of the three key pins, and the scenario pruned to their letters,
    as npa_upper_bound prunes it."""
    words = st.lists(st.sampled_from(_letters(SCENARIO)), min_size=1, max_size=3)
    objective = {
        canonicalize(word): draw(st.sampled_from(COEFFICIENTS))
        for word in draw(st.lists(words, min_size=1, max_size=6))
    }
    objective.pop((), None)
    assume(objective)
    pins = draw(st.lists(st.sampled_from(_key_pairs(3)), unique=True))
    letters = {letter for word in [*objective, *pins] for letter in word}
    scenario = tuple(
        1 + max((l.input for l in letters if l.party == p), default=0)
        for p in range(3)
    )
    return scenario, 2, pins, objective


@st.composite
def relabelled(draw, problem):
    """``problem``, the arguments of ``_lowered``, under a random signed
    relabelling: a party permutation, an input permutation per party and a
    sign per letter, one sign shared by the pinned letters so that every pin
    keeps the value one."""
    scenario, level, pins, objective = problem
    parties = draw(st.permutations(range(3)))
    inputs = [draw(st.permutations(range(count))) for count in scenario]
    pinned = {letter for word in pins for letter in word}
    shared = draw(SIGNS)
    sign = {l: shared if l in pinned else draw(SIGNS) for l in _letters(scenario)}

    def relabel(word):
        image = [OperatorLetter(parties[l.party], inputs[l.party][l.input]) for l in word]
        return math.prod(sign[l] for l in word), canonicalize(image)

    images = {}
    for word, coefficient in objective.items():
        s, image = relabel(word)
        images[image] = s * coefficient
    return (
        tuple(scenario[p] for p in np.argsort(parties)),
        level,
        [relabel(word)[1] for word in pins],
        images,
    )


def _orbit_solve(lowered, tol):
    """npa_upper_bound's group and orbit solve of ``lowered``."""
    group = _symmetries(lowered)
    return group, solve_on_orbits(
        lowered.problem, group.rows, group.variables, tol, {}
    )


@settings(RANDOM_GATE, max_examples=30)
@given(random_problems())
def test_random_problems_solve_on_orbits_to_the_unreduced_bound(problem):
    lowered = _lowered(*problem)
    _, solution = _orbit_solve(lowered, 1e-8)
    unreduced = solve(lowered.problem, tol=1e-8)
    assert solution.bound == pytest.approx(unreduced.bound, abs=1e-7)
    assert verify_certificate(lowered.problem, solution)


@settings(RANDOM_GATE, max_examples=6)
@given(random_problems())
def test_random_problems_have_the_brute_force_group(problem):
    lowered = _lowered(*problem)
    enumerated = {
        tuple((l, s, *m) for l, (s, m) in r.items())
        for r in _relabellings(_symmetries(lowered))
    }
    assert enumerated == _brute_force_group(lowered)


@settings(RANDOM_GATE, max_examples=15)
@given(st.data())
def test_a_random_relabelling_keeps_the_bound_and_the_group_order(data):
    problem = data.draw(random_problems())
    lowered, image = _lowered(*problem), _lowered(*data.draw(relabelled(problem)))
    group, solution = _orbit_solve(lowered, 1e-8)
    image_group, image_solution = _orbit_solve(image, 1e-8)
    assert image_group.rows.order == group.rows.order
    assert image_solution.bound + image.const == pytest.approx(
        solution.bound + lowered.const, abs=1e-8
    )


@settings(RANDOM_GATE, max_examples=30)
@given(random_problems())
def test_random_problems_block_diagonalize_on_orbits(problem):
    # each symmetry-adapted basis spans an invariant subspace of F0 and of
    # every orbit basis matrix, the condition the block solve rests on
    lowered = _lowered(*problem)
    group = _symmetries(lowered)
    bases = symmetry_adapted_bases(group.rows)
    for f in _orbit_basis_matrices(lowered.problem, group.variables):
        for basis in bases:
            fq = f @ basis
            assert np.abs(fq - basis @ (basis.T @ fq)).max() < 1e-12


@pytest.fixture(scope="module")
def four_party_runs():
    """The two N=4 level-2 bounds at the default tolerance."""
    return {pinned: npa_upper_bound(2, pinned, n_parties=4) for pinned in (True, False)}


# certified_bound - bound at the default tolerances, measured at most 3.3e-11
# on these six problems; without the group average of Z the stationarity
# residuals it charges make it 1e-9 and more (9.8e-9 for N=3 level-2 pinned
# on a solve without blocks), when the certificate verifies at all
CERTIFIED_MARGIN = 1e-10


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("case", ["n3-level2", "n3-level3", "n4-level2"])
def test_certified_bound_stays_within_the_margin(
    reproduce_runs, four_party_runs, case, pinned
):
    result = {
        "n3-level2": reproduce_runs[(2, pinned)],
        "n3-level3": reproduce_runs[(3, pinned)],
        "n4-level2": four_party_runs[pinned],
    }[case]
    assert result.verified
    assert 0.0 <= result.certified_bound - result.bound < CERTIFIED_MARGIN


def _orbit_basis_matrices(problem, variables):
    """The dense F0 and signed orbit basis matrices ``sum_v t_v F_v`` of
    ``problem``."""
    orbit, sign = variables.orbits
    return [problem.f0] + [
        _dense_entries(problem, np.where(orbit == o, sign, 0.0))
        for o in range(orbit.max() + 1)
    ]


# scenario, level, pins and the dimensions of the irreducible types of the
# signed relabelling group's action on the rows
DECOMPOSITION_CASES = {
    "n3-level2-pinned": (SCENARIO, 2, _key_pairs(3), {1, 4}),
    "n3-level2-free": ((2, 2, 2), 2, (), {1, 2, 3, 6}),
    "n3-level3-pinned": (SCENARIO, 3, _key_pairs(3), {1, 4}),
    "n3-level3-free": ((2, 2, 2), 3, (), {1, 2, 3, 6}),
    "n4-level2-pinned": (default_scenario(4), 2, _key_pairs(4), {1, 2, 3, 6}),
    "n4-level2-free": ((2, 2, 2, 2), 2, (), {1, 3, 4, 6, 8, 12}),
}


def _dense_entries(problem, weights):
    """``sum_v weights[v] F_v`` as a dense matrix."""
    k = problem.dimension
    m = np.zeros((k, k))
    values = weights[problem.var] * problem.value
    np.add.at(m, (problem.row, problem.col), values)
    off = problem.row != problem.col
    np.add.at(m, (problem.col[off], problem.row[off]), values[off])
    return m


# the group order, and the representatives each action holds one row for;
# the sign changes are the rest, 8 in every case
GROUP_ORDERS = {
    "n3-level2-pinned": (32, 4),
    "n3-level2-free": (192, 24),
    "n3-level3-pinned": (32, 4),
    "n3-level3-free": (192, 24),
    "n4-level2-pinned": (384, 48),
    "n4-level2-free": (3072, 384),
}


@pytest.mark.parametrize("case", GROUP_ORDERS)
def test_signed_relabelling_group_orders(case):
    # each action holds one row per representative and one per sign change,
    # not one per element; the elements are distinct, the identity comes
    # first, and at N=3 every product of two elements is an element: the
    # enumeration is a group
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    group = _symmetries(_lowered(scenario, level, pins))
    order, representatives = GROUP_ORDERS[case]
    for action in (group.on_letters, group.rows, group.variables):
        assert action.order == order
        assert action.image.shape == action.sign.shape
        assert action.image.shape[0] == representatives
        assert action.flips.shape == (order // representatives, action.image.shape[1])
        assert (action.flips[0] == 1.0).all()
    image, sign = _elements(group.on_letters)
    signed = image * sign.astype(int) + 0.5 * sign
    assert len(np.unique(signed, axis=0)) == order
    assert np.array_equal(image[0], np.arange(len(group.letters)))
    assert (sign[0] == 1.0).all()
    if case.startswith("n3"):
        sign = sign[None, :, :] * np.take_along_axis(
            sign[:, None, :], image[None, :, :], axis=2
        )
        image = image[:, image]  # [g, h, l] = g(h(l))
        products = (image * sign.astype(int) + 0.5 * sign).reshape(-1, image.shape[2])
        assert len(np.unique(np.vstack([signed, products]), axis=0)) == order


@pytest.mark.parametrize("case", DECOMPOSITION_CASES)
def test_party_symmetries_leave_the_lowered_problem_invariant(case):
    # each element of the signed relabelling group maps F0 to F0 and every
    # F_v to sigma_v F_tau(v), with c_tau(v) sigma_v = c_v.  With (P^T F P)[i,
    # j] = s_i s_j F[g(i), g(j)] and distinct integer weights w_v, the dense
    # sum_v w_v F_v names each entry's variable, and P^T (sum_v w_v F_v) P is
    # the sum with the weights sigma_v w_tau(v)
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    lowered = _lowered(scenario, level, pins)
    problem = lowered.problem
    k, m = problem.dimension, problem.n_vars
    weights = np.arange(1.0, m + 1)
    dense = _dense_entries(problem, weights)
    group = _symmetries(lowered)
    actions = zip(*_elements(group.rows), *_elements(group.variables))
    for rows, row_signs, variables, signs in actions:
        flips = np.outer(row_signs, row_signs)
        assert np.array_equal(np.sort(rows), np.arange(k))
        assert np.array_equal(np.sort(variables), np.arange(m))
        assert np.array_equal(problem.f0[np.ix_(rows, rows)] * flips, problem.f0)
        relabelled = _dense_entries(problem, signs * weights[variables])
        assert np.array_equal(dense[np.ix_(rows, rows)] * flips, relabelled)
        assert np.array_equal(problem.c[variables] * signs, problem.c)


@pytest.mark.parametrize("case", DECOMPOSITION_CASES)
def test_group_average_is_the_mean_over_every_element(case):
    # SignedPermutations.average takes the representatives and masks by the
    # sign changes; the plain mean of s s^T * X[g, g] over all elements agrees
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    rows = _symmetries(_lowered(scenario, level, pins)).rows
    x = np.random.default_rng(4).normal(size=(rows.image.shape[1],) * 2)
    expected = sum(
        x[np.ix_(image, image)] * np.outer(sign, sign)
        for image, sign in zip(*_elements(rows))
    )
    assert np.allclose(rows.average(x), expected / rows.order, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", DECOMPOSITION_CASES)
def test_self_negated_classes_leave_the_orbit_problem(monkeypatch, case):
    # a class that some element maps to its own negative is 0 at every
    # symmetric point: the orbit problem has one variable per orbit of the
    # other classes, and the lifted y is 0 on it and sigma_v y_tau(v) on all
    block_solves = []

    def recording_solve(problem, **kwargs):
        block_solves.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(npa, "solve", recording_solve)
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    result = npa_upper_bound(level, bool(pins), n_parties=len(scenario))
    image, sign = _elements(_symmetries(_lowered(scenario, level, pins)).variables)
    m = result.n_moment_classes
    zeroed = ((image == np.arange(m)) & (sign < 0)).any(axis=0)
    assert zeroed.any() and result.n_zeroed == zeroed.sum()
    orbits = np.unique(image.min(axis=0)[~zeroed])
    assert block_solves[0].n_vars == result.n_orbits == len(orbits)
    y = result.solution.y
    assert (y[zeroed] == 0.0).all()
    assert (sign * y[image] == y).all()


@pytest.mark.parametrize("case", DECOMPOSITION_CASES)
def test_symmetry_adapted_bases_block_diagonalize_the_orbit_problem(case):
    scenario, level, pins, irrep_dimensions = DECOMPOSITION_CASES[case]
    lowered = _lowered(scenario, level, pins)
    problem = lowered.problem
    group = _symmetries(lowered)
    bases = symmetry_adapted_bases(group.rows)
    q = np.hstack(bases)
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), rtol=0.0, atol=1e-12)
    # each basis spans an invariant subspace of F0 and of every orbit matrix,
    # so every one of them is block-diagonal in q
    for f in _orbit_basis_matrices(problem, group.variables):
        for basis in bases:
            fq = f @ basis
            assert np.abs(fq - basis @ (basis.T @ fq)).max() < 1e-12
    # the group moves each basis through d copies of its type, d the
    # dimension of the irreducible representation; together they span all rows
    spans = []
    for basis in bases:
        images = []
        for rows, signs in zip(*_elements(group.rows)):
            image = np.empty_like(basis)
            image[rows] = basis * signs[:, None]
            images.append(image)
        spans.append(np.linalg.matrix_rank(np.hstack(images), tol=1e-9))
    dims = [span // basis.shape[1] for span, basis in zip(spans, bases)]
    assert [d * basis.shape[1] for d, basis in zip(dims, bases)] == spans
    assert sum(spans) == problem.dimension
    assert set(dims) == irrep_dimensions


@pytest.mark.parametrize("case", DECOMPOSITION_CASES)
def test_restricted_blocks_are_the_dense_products(case):
    # block c of the restricted problem holds Q_c^T F Q_c for F0 and, through
    # random weights w_v, for sum_v w_v F_v; nothing lies outside the blocks
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    lowered = _lowered(scenario, level, pins)
    group = _symmetries(lowered)
    orbits = orbit_problem(lowered.problem, group.variables)
    bases = symmetry_adapted_bases(group.rows)
    restricted = orbits.restricted(bases)
    weights = np.random.default_rng(3).normal(size=orbits.n_vars)
    dense, blocks = _dense_entries(orbits, weights), _dense_entries(restricted, weights)
    sizes = [q.shape[1] for q in bases]
    assert restricted.dimension == sum(sizes)
    block = np.repeat(np.arange(len(bases)), sizes)
    assert np.array_equal(block[restricted.row], block[restricted.col])
    for f, restricted_f in [(orbits.f0, restricted.f0), (dense, blocks)]:
        expected = block_diag(*[q.T @ f @ q for q in bases])
        assert np.allclose(restricted_f, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(restricted.c, orbits.c)
    assert (np.abs(restricted.value) > BLOCK_ENTRY_FLOOR).all()


# the sizes of the symmetry-adapted bases, one per irreducible type and one
# copy of each, largest first, whose blocks the restricted problem's finest
# cut refines (a 3-row type at level 2 pinned decouples into 2 + 1); and the
# solve blocks that sdp merges that cut into
BLOCK_SIZES = {
    "n3-level2-pinned": ((4, 3, 2, 2, 1, 1, 1, 1, 1, 1), (17,)),
    "n3-level2-free": ((2, 1, 1, 1, 1, 1), (7,)),
    "n3-level3-pinned": (
        (11, 6, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 1),
        (32, 30),
    ),
    "n3-level3-free": ((4, 2, 2, 2, 2, 1, 1, 1, 1), (16,)),
    "n4-level2-pinned": ((4, 3, 1, 1, 1, 1, 1, 1, 1), (14,)),
    "n4-level2-free": ((1, 1, 1, 1, 1, 1, 1, 1), (8,)),
}


@pytest.mark.parametrize("case", BLOCK_SIZES)
def test_orbit_solve_runs_on_the_irreducible_blocks(
    reproduce_runs, four_party_runs, case
):
    n, level, pins = case.split("-")
    runs = four_party_runs if n == "n4" else reproduce_runs
    pinned = pins == "pinned"
    result = runs[pinned] if n == "n4" else runs[(int(level[-1]), pinned)]
    types, solve_blocks = BLOCK_SIZES[case]
    scenario, level, pins, _ = DECOMPOSITION_CASES[case]
    lowered = _lowered(scenario, level, pins)
    group = _symmetries(lowered)
    bases = symmetry_adapted_bases(group.rows)
    assert tuple(q.shape[1] for q in bases) == types
    cut = orbit_problem(lowered.problem, group.variables).restricted(bases).block_sizes
    assert set(np.cumsum(types)) <= set(np.cumsum(cut))
    assert result.solution.block_sizes == solve_blocks


def test_symmetry_adapted_bases_of_the_trivial_group_are_the_identity():
    trivial = SignedPermutations(np.arange(4)[None], np.ones((1, 4)), np.ones((1, 4)))
    assert [b.tolist() for b in symmetry_adapted_bases(trivial)] == [
        np.eye(4).tolist()
    ]


def _group_average(problem, solution, perms):
    z = solution.dual_matrix
    z = sum(z[np.ix_(rows, rows)] for rows in perms) / len(perms)
    return dataclasses.replace(
        solution, dual_matrix=z, bound=float(np.tensordot(problem.f0, z))
    )


def test_averaging_over_a_non_symmetry_fails_the_certificate():
    # relabelling the first party's inputs 0 <-> 1 without signs keeps the
    # scenario and the moment matrix's structure but not MABK, and is no
    # element of the group; averaging Z over it must leave stationarity
    # residuals that verify_certificate refuses
    lowered = _lowered((2, 2, 2), 2)
    structure, problem = lowered.structure, lowered.problem
    solution = solve(problem)
    index = structure.index
    relabel = {A0: A1, A1: A0}
    swap = np.array(
        [index[canonicalize([relabel.get(l, l) for l in w])] for w in structure.basis]
    )
    identity = np.arange(problem.dimension)
    assert verify_certificate(problem, solution)
    assert not verify_certificate(
        problem, _group_average(problem, solution, [identity, swap])
    )
    group = _symmetries(lowered)
    assert _unsigned_elements(group, lambda l: relabel.get(l, l)) == []
    swap_b_c = {0: 0, 1: 2, 2: 1}
    (b_c,) = _unsigned_elements(
        group, lambda l: OperatorLetter(swap_b_c[l.party], l.input)
    )
    b_c_rows = _elements(group.rows)[0][b_c]
    assert verify_certificate(
        problem, _group_average(problem, solution, [identity, b_c_rows])
    )


def test_repeated_solves_are_bit_identical():
    first = npa_upper_bound(3, True)
    second = npa_upper_bound(3, True)
    assert first.bound == second.bound
    assert first.solution.trace == second.solution.trace


def test_group_algebra_weights_ignore_the_global_generators():
    # the weights come from a private generator, so reseeding and drawing from
    # the module-level random and numpy.random generators changes no solve
    saved = random.getstate(), np.random.get_state()
    try:
        runs = [npa_upper_bound(2, True)]
        for seed in (1, 2):
            random.seed(seed)
            random.random()
            np.random.seed(seed)
            runs.append(npa_upper_bound(2, True))
    finally:
        random.setstate(saved[0])
        np.random.set_state(saved[1])
    first = runs[0].solution
    for run in runs[1:]:
        assert run.solution.trace == first.trace
        assert np.array_equal(run.solution.dual_matrix, first.dual_matrix)


def test_level2_bounds():
    unconstrained = npa_upper_bound(2, with_constraint=False)
    constrained = npa_upper_bound(2, with_constraint=True)
    assert unconstrained.bound == pytest.approx(2.0, abs=1e-5)
    assert constrained.bound == pytest.approx(math.sqrt(2.0), abs=1e-5)
    assert unconstrained.verified and constrained.verified
    assert constrained.reduced_size < constrained.basis_size
    assert constrained.basis_size == 44  # the pins use every letter
    assert unconstrained.basis_size == 25  # the key inputs are pruned


@pytest.mark.parametrize("n_parties", [3, 4])
def test_pruning_unused_letters_keeps_the_bound(n_parties):
    structure = build_moment_structure(
        generate_monomials(default_scenario(n_parties), 2)
    )
    objective = encode_objective(_mabk_words(n_parties), structure)
    reduced = reduce_structure(structure, [structure.identity_class])
    problem, const = lower_to_sdp(reduced, objective)
    full = solve(problem)
    pruned = npa_upper_bound(2, with_constraint=False, n_parties=n_parties)
    assert pruned.basis_size < structure.dimension
    assert full.bound + const == pytest.approx(pruned.bound, abs=1e-8)
    assert verify_certificate(problem, full) and pruned.verified


def test_max_equals_minus_min():
    structure = build_moment_structure(generate_monomials(SCENARIO, 2))
    objective = encode_objective(_mabk_words(3), structure)
    for pins in (
        [structure.identity_class],
        [structure.identity_class, *_pin_classes(structure)],
    ):
        reduced = reduce_structure(structure, pins)
        plus, cp = lower_to_sdp(reduced, objective)
        minus, cm = lower_to_sdp(reduced, -objective)
        bound_plus = solve(plus).bound + cp
        bound_minus = solve(minus).bound + cm
        assert bound_plus == pytest.approx(bound_minus, abs=1e-6)


def test_strategy_values_never_exceed_the_bound():
    result = maximize_unconstrained_mabk(3, OptimizerConfig(restarts=10, seed=7))
    bound = npa_upper_bound(2, with_constraint=False)
    assert result.best_value <= bound.bound + 1e-6
    assert bound.bound == pytest.approx(result.best_value, abs=1e-4)


def test_level_must_carry_the_objective():
    with pytest.raises(ValueError, match="at least 2"):
        npa_upper_bound(1, with_constraint=False)


def test_a_tol_below_the_floor_raises():
    # below npa.MIN_TOL some solves fail to factorize near their end, and a
    # NaN tol fails so too; the floor refuses both before any work
    for tol in (1e-13, math.nan):
        with pytest.raises(ValueError, match="tol must be at least"):
            npa_upper_bound(2, True, tol=tol)


def test_four_party_scenario_runs():
    result = npa_upper_bound(2, with_constraint=True, n_parties=4, tol=1e-8)
    free = npa_upper_bound(2, with_constraint=False, n_parties=4, tol=1e-8)
    assert result.verified and free.verified
    assert result.bound <= free.bound + 1e-6
    assert free.bound == pytest.approx(2.0 ** 1.5, abs=1e-4)
