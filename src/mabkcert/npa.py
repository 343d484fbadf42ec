"""Moment-matrix relaxation for party-local dichotomic observables.

The first party has two inputs and every other party three, the third input
(``KEY_INPUT``) being the key setting.  ``npa_upper_bound`` keeps only the
letters that occur in the objective or in a pin: each party's input count is
one more than its largest such input.  The unpinned problems thereby drop
every key input; the pinned ones use all letters.  Pruning leaves the bound
unchanged:

- The pruned basis is a subset of the full one, so the pruned moment matrix
  is a principal submatrix of the full one and every feasible full matrix
  restricts to a feasible pruned one: bound(full) <= bound(pruned).
- Setting an unused dichotomic letter to the identity respects its square
  being the identity and its commuting with other parties' letters, so it is
  a homomorphism of the word algebra; it therefore commutes with
  canonicalization and with reversal, and maps every full basis monomial to
  a pruned one.  With ``V[phi(u), u] = 1`` for that map ``phi``, any feasible
  pruned ``M`` gives ``V^T M V`` on the full basis, which is PSD, is a moment
  matrix of the full structure, keeps every pin, and has the same objective,
  since the objective and pins contain no dropped letter: bound(full) >=
  bound(pruned).

Letters are Hermitian dichotomic operator symbols; words canonicalize by
stable-sorting letters by party (different parties commute) and cancelling
adjacent equal letters (squares are the identity).  The moment matrix over a
monomial basis has entry class ``canonicalize(reverse(u) . v)``; classes are
additionally identified under word reversal, which is valid for the real
symmetric relaxation and can only loosen the bound.  ``class_of`` is the only
record of the classes: ``MomentMatrixStructure.class_id`` reads a word's class
off the entry of its two halves, and the objective and the pins look their
words up through it.

Perfect correlations in the key settings are the statement that the operator

    C = P+ x Q+ x R+ ... + P- x Q- x R- ...

(projectors onto the +-1 eigenspaces of the key observables) has expectation
one.  Expanding the projectors ``P+- = (1 +- P)/2`` leaves only even products,
so ``tr(C rho) = 2^(1-N) * sum over even-size subsets of the key observables``
of their correlators; each correlator is at most one in modulus, hence
``tr(C rho) = 1`` holds exactly when every *pairwise* key correlator equals
one.  Those pairwise equalities are what this module pins.

Pinning a correlator ``<P Q> = 1`` forces the moment-matrix rows of any two
basis monomials ``u`` and ``v`` with ``M_uu = M_vv = M_uv = 1`` to coincide
(the Gram vectors have vanishing distance), so the pinned problem has no
strictly feasible point.  Every pin in this module has the value one (the
identity and the pairwise key correlators), so a pin is just a class id, and
``reduce_structure`` iterates exactly that implication: rows joined by a
pinned entry are identified, their entry classes are merged columnwise, and
newly pinned classes are propagated until a fixpoint.  Every identification
is forced for every feasible matrix of the pinned problem, so the reduced
problem has the same optimal value, and after deduplication the reduced
``M(0) = I`` is strictly feasible again.  Both the row groups and the class
merges are connected components, computed on arrays and labelled by their
smallest member.  ``lower_to_sdp`` then turns the reduced class matrix into
``F0`` (ones at the pinned entries) and the upper-triangle basis entries of
``sdp.SdpProblem`` (one variable per free class) by array indexing.

The solve runs on symmetry orbits, in symmetry-adapted blocks (Gatermann &
Parrilo 2004; Tavakoli, Rosset & Renou 2019).  Let a permutation ``g`` of the
kept rows map ``F0`` to ``F0``, each ``F_v`` onto one ``F_tau(v)`` and ``c``
to itself.  Then ``g`` maps feasible points to feasible points of equal
objective, and by convexity the average of a feasible point over the group
``G`` of such permutations is feasible, has the same objective and is
constant on the orbits of ``tau``.  The problem with one variable per orbit,
whose basis rows and ``c`` are summed over the orbit, therefore has the same
optimum.  Its ``F0`` and orbit basis matrices ``F_J`` commute with every
row permutation matrix of ``G``, so ``symmetry_adapted_bases`` finds one
orthonormal basis ``Q_c`` per irreducible type of ``G``'s action on the rows,
each spanning an invariant subspace of every ``F_J`` on which ``F_J`` has,
up to multiplicity, all its eigenvalues; the other copies of each type have
the same ones.  The solve therefore runs on the blocks ``Q_c^T F Q_c`` with
the same feasible set; ``sdp.SdpProblem.restricted`` builds them from the
orbit problem.  Its block dual lifts to ``Z = sum_c Q_c Z_c Q_c^T``,
which meets each orbit's summed stationarity condition exactly for any
bases, as ``<F_J, Z> = sum_c <Q_c^T F_J Q_c, Z_c>``: bases that missed an
invariant subspace could only restrict the dual and loosen the bound.
Averaged over ``G``, ``Z`` stays PSD, keeps ``<F0, Z>`` and meets ``<F_v, Z>
= -c_v`` for every ``v``, because each ``<F_v, Z>`` becomes the mean over
``v``'s orbit and ``c`` is constant there.  So the averaged ``Z`` is a
certificate for the unreduced problem.  The bound is the block solve's own
dual objective; ``verify_certificate`` and ``certified_upper_bound`` check
``Z`` on the unreduced problem, the first comparing the bound with ``<F0, Z>``
recomputed there: a wrong symmetry would leave stationarity residuals that
the first refuses and the second charges, so the symmetry is never trusted.  ``G`` is found exactly, on the problem's
words.  Relabelling the parties commutes with canonicalization and reversal,
so one that maps every basis word into the basis permutes the rows and the
moment classes.  One that also maps the pin words onto themselves maps the
pinned classes, and with them the row groups and class merges of the
reduction, onto their own; one that also keeps every objective coefficient
keeps ``c``.  Such a relabelling maps ``F0``, the ``F_v`` and ``c`` as above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .mabk import BitString, mabk_expression
from .sdp import (
    SdpProblem,
    SdpSolution,
    certified_upper_bound,
    solve,
    verify_certificate,
)

KEY_INPUT = 2  # the key-generation setting of every party after the first
# Seed of the group-algebra weights of symmetry_adapted_bases: fixed, so that
# repeated solves are bit-identical.
GROUP_ALGEBRA_SEED = 0


class OperatorLetter(NamedTuple):
    party: int
    input: int


Word = tuple[OperatorLetter, ...]


def canonicalize(word: tuple[OperatorLetter, ...] | list[OperatorLetter]) -> Word:
    """Sort by party (stable), then cancel equal neighbours in one stack pass."""
    out: list[OperatorLetter] = []
    for letter in sorted(word, key=lambda letter: letter.party):
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def generate_monomials(scenario: tuple[int, ...], level: int) -> list[Word]:
    """All canonical monomials of length <= level, identity first, sorted."""
    if level < 0:
        raise ValueError("level must be non-negative")
    alphabet = [
        OperatorLetter(party, inp)
        for party, count in enumerate(scenario)
        for inp in range(count)
    ]
    seen: set[Word] = {()}
    for length in range(1, level + 1):
        for combo in itertools.product(alphabet, repeat=length):
            seen.add(canonicalize(combo))
    return sorted(seen, key=lambda w: (len(w), w))


def _n_parties(words) -> int:
    """One more than the largest party that occurs in ``words``."""
    return 1 + max((letter.party for w in words for letter in w), default=0)


@dataclass(frozen=True)
class MomentMatrixStructure:
    """Monomial basis plus the map from matrix entries to moment classes."""

    basis: tuple[Word, ...]
    class_of: np.ndarray  # (d, d) int array of class ids

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def n_classes(self) -> int:
        return int(self.class_of.max()) + 1

    @property
    def identity_class(self) -> int:
        return int(self.class_of[0, 0])

    @cached_property
    def index(self) -> dict[Word, int]:
        """The row of each basis word."""
        return {w: i for i, w in enumerate(self.basis)}

    def class_id(self, word: Word) -> int:
        """The moment class of ``word``, which has at most one letter per party,
        in party order.

        For such a word split into halves ``u . v``, ``reverse(u)`` has the
        same letters, each of a different party, so it canonicalizes to ``u``,
        and ``canonicalize(reverse(u) . v) = u . v``: the word is the entry at
        row ``u`` and column ``v``.
        """
        half = len(word) // 2
        u, v = word[:half], word[half:]
        if u not in self.index or v not in self.index:
            raise ValueError(
                f"monomial {word} not present in the moment structure;"
                " increase the hierarchy level"
            )
        return int(self.class_of[self.index[u], self.index[v]])


def build_moment_structure(monomials: list[Word]) -> MomentMatrixStructure:
    """Entry classes of the moment matrix, numbered by first row-major appearance.

    A canonical word is the concatenation of its per-party sub-words, so the
    entry ``canonicalize(reverse(u) . v)`` is, party by party, the reduced
    product ``reverse(u_p) . v_p``, and its canonical reversal reverses each
    product.  Each pair of distinct sub-words is reduced once; the per-party
    products combine into mixed-radix codes of the entry word and of its
    reversal, and the smaller code names the class.
    """
    if not monomials or monomials[0] != ():
        raise ValueError("monomial list must contain the identity first")
    d = len(monomials)
    code = np.zeros(d * d, dtype=np.int64)
    rev_code = np.zeros(d * d, dtype=np.int64)
    radix = 1
    for party in range(_n_parties(monomials)):
        subwords: dict[Word, int] = {}
        index = np.array(
            [
                subwords.setdefault(
                    tuple(letter for letter in w if letter.party == party),
                    len(subwords),
                )
                for w in monomials
            ]
        )
        products: dict[Word, int] = {}
        table = np.empty((len(subwords), len(subwords)), dtype=np.int64)
        for s, a in subwords.items():
            for t, b in subwords.items():
                word = canonicalize(tuple(reversed(s)) + t)
                table[a, b] = products.setdefault(word, len(products))
                products.setdefault(tuple(reversed(word)), len(products))
        reverse = np.array([products[tuple(reversed(w))] for w in products])
        entry = table[np.ix_(index, index)].ravel()
        code += radix * entry
        rev_code += radix * reverse[entry]
        radix *= len(products)
        if radix > np.iinfo(np.int64).max:
            raise ValueError("too many distinct entry words for 64-bit codes")

    _, first, inverse = np.unique(
        np.minimum(code, rev_code), return_index=True, return_inverse=True
    )
    order = np.argsort(first)  # the classes in order of first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    class_of = rank[inverse].reshape(d, d).astype(np.int32)
    return MomentMatrixStructure(tuple(monomials), class_of)


def objective_words(expr: dict[BitString, Fraction]) -> dict[Word, Fraction]:
    """A full-correlation expression as a word map: one letter per party."""
    return {
        tuple(OperatorLetter(p, x) for p, x in enumerate(inputs)): coefficient
        for inputs, coefficient in expr.items()
    }


def perfect_correlation_pins(n_parties: int) -> list[Word]:
    """The pairwise key-setting correlators that perfect correlations pin to
    one (see module docstring); the first party's key is its input 0."""
    keys = [OperatorLetter(0, 0)]
    keys += [OperatorLetter(party, KEY_INPUT) for party in range(1, n_parties)]
    return list(itertools.combinations(keys, 2))


def encode_objective(
    objective: dict[Word, Fraction], structure: MomentMatrixStructure
) -> np.ndarray:
    """Coefficient vector over moment classes of a word map."""
    out = np.zeros(structure.n_classes)
    for word, coefficient in objective.items():
        out[structure.class_id(word)] += float(coefficient)
    return out


def _min_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component; edges are (u, v).

    Each pass lowers both ends of every edge to the smaller of their labels,
    then jumps every label to its label's label, until nothing changes.  A
    label is always a node of the same component, so at the fixpoint every
    edge has equal ends and each component carries its smallest node.
    """
    label = np.arange(n)
    while True:
        before = label
        label = label.copy()
        low = np.minimum(label[u], label[v])
        np.minimum.at(label, u, low)
        np.minimum.at(label, v, low)
        label = label[label]
        if np.array_equal(label, before):
            return label


@dataclass(frozen=True)
class ReducedMoments:
    """Moment structure after pin substitution and forced row identification."""

    kept_rows: tuple[int, ...]
    class_matrix: np.ndarray  # (k, k) of root class ids
    pinned: np.ndarray  # (n_classes,) bool: root classes pinned to one
    root_of: np.ndarray  # (n_classes,) map class id -> root id
    row_of: np.ndarray  # (d,) map basis row -> the kept row of its group


def reduce_structure(
    structure: MomentMatrixStructure, pinned: list[int]
) -> ReducedMoments:
    """Merge rows forced equal by the classes ``pinned`` to one (see module doc).

    Rows and classes are labelled by the smallest member of their group.  Each
    round joins the rows linked by an entry pinned to one, then merges each
    row's entry classes with those of its group's smallest row, column by
    column, until the rows stop merging.  Pins and merges only accumulate, so
    each round recomputes both partitions from all of its links.
    """
    d, n = structure.dimension, structure.n_classes
    class_of = structure.class_of
    pin_ids = np.asarray(pinned, dtype=np.intp)
    rows, classes = np.arange(d), np.arange(n)
    while True:
        is_pinned = np.zeros(n, dtype=bool)
        is_pinned[classes[pin_ids]] = True
        a, b = np.nonzero(is_pinned[classes[class_of]])
        merged = _min_labels(d, a, b)
        if np.array_equal(merged, rows):
            break
        rows = merged
        classes = _min_labels(n, class_of[rows].ravel(), class_of.ravel())

    kept = np.flatnonzero(rows == np.arange(d))
    return ReducedMoments(
        tuple(kept.tolist()),
        classes[class_of[np.ix_(kept, kept)]].astype(np.int32),
        is_pinned,
        classes.astype(np.int32),
        rows,
    )


def lower_to_sdp(
    reduced: ReducedMoments, objective: np.ndarray
) -> tuple[SdpProblem, float]:
    """Build the dual-form LMI; returns (problem, objective constant).

    Free root classes become variables numbered by first appearance in the
    row-major upper triangle; pinned ones go into ``F0``.
    """
    cm, pinned = reduced.class_matrix, reduced.pinned
    k = cm.shape[0]
    fixed = pinned.astype(float)  # every pin has the value one

    i, j = np.triu_indices(k)
    root = cm[i, j]
    free = ~pinned[root]
    i, j, root = i[free], j[free], root[free]
    roots, first = np.unique(root, return_index=True)
    order = roots[np.argsort(first)]  # the free roots in variable order
    var_of = np.full(len(pinned), -1)
    var_of[order] = np.arange(len(order))
    var = var_of[root]

    by_root = np.bincount(reduced.root_of, weights=objective, minlength=len(pinned))
    missing = (var_of < 0) & ~pinned
    if missing[reduced.root_of[objective != 0.0]].any():
        raise ValueError("objective class missing from the reduced matrix")
    const = float(by_root @ fixed)
    problem = SdpProblem(
        f0=fixed[cm], var=var, row=i, col=j, value=np.ones(len(var)), c=by_root[order]
    )
    return problem, const


def party_symmetries(
    structure: MomentMatrixStructure,
    reduced: ReducedMoments,
    problem: SdpProblem,
    objective: dict[Word, Fraction],
    pins: list[Word],
) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """Party relabellings that leave the problem's words invariant, with their
    permutations of the kept rows and of the variables of ``problem``.

    A candidate relabels party ``p`` as ``parties[p]``.  It is kept when it
    maps the ``pins`` onto themselves, the ``objective`` map onto itself,
    coefficients compared exactly, and every basis word into the basis; it is
    then a symmetry of ``problem`` (see the module docstring), and each
    upper-triangle entry's variable maps to that of the entry at its image.
    An entry that lands on an ``F0`` entry (as two rows sent onto one do) or
    a variable sent to two is a lowering bug and raises ValueError.
    """
    kept = np.array(reduced.kept_rows)
    position = np.full(structure.dimension, -1)
    position[kept] = np.arange(len(kept))
    k = problem.dimension
    var_at = np.full(k * k, -1)
    var_at[problem.row * k + problem.col] = problem.var
    found = {}
    for parties in itertools.permutations(range(_n_parties(structure.basis))):

        def relabel(word: Word) -> Word:
            return canonicalize([OperatorLetter(parties[p], x) for p, x in word])

        if {relabel(w) for w in pins} != set(pins):
            continue
        if any(objective.get(relabel(w)) != c for w, c in objective.items()):
            continue
        try:
            image = [structure.index[relabel(w)] for w in structure.basis]
        except KeyError:
            continue
        rows = position[reduced.row_of[np.array(image)[kept]]]
        i, j = rows[problem.row], rows[problem.col]
        target = var_at[np.minimum(i, j) * k + np.maximum(i, j)]
        variables = np.full(problem.n_vars, -1)
        variables[problem.var] = target
        if (target < 0).any() or not np.array_equal(variables[problem.var], target):
            raise ValueError(f"relabelling {parties} is no symmetry of the lowering")
        found[parties] = (rows, variables)
    return found


def _cluster(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster labels of ``values``: in sorted order, a gap above ``tol``
    starts the next cluster, so equal values up to rounding share a label."""
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=np.intp)
    labels[order] = np.cumsum(np.diff(values[order], prepend=-np.inf) > tol) - 1
    return labels


def symmetry_adapted_bases(row_permutations: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal bases, one per irreducible type of a row permutation group,
    that block-diagonalize every symmetric matrix the group fixes.

    With ``P_g e_i = e_{g(i)}``, a matrix ``F`` fixed by the group commutes
    with every ``P_g``, hence with the symmetric group-algebra element ``A =
    sum_g r_g (P_g + P_g^T)`` (seeded weights ``r_g`` in [1, 2)), and maps
    each eigenspace of ``A`` into itself.  For generic weights those
    eigenspaces are, for each irreducible type of multiplicity ``m`` and
    dimension ``n``, ``n`` spaces of dimension ``m`` on which every fixed
    ``F`` acts alike (Gatermann & Parrilo 2004), so one of them per type
    carries all of ``F``'s eigenvalues.  The type of an eigenvector is its
    eigenvalue under the central element ``C``, the group average of
    ``P_g A P_g^T``.  ``A`` and ``C`` act on each row orbit alone, so both
    are diagonalized orbit by orbit, all orbits of one size in one stacked
    call, and every basis vector lives on one orbit.  The permutations form a
    group, so row ``i``'s orbit is ``{g(i)}`` and its least image labels it.
    Eigenvalues closer than 1e-8 of ``A``'s norm bound are taken as equal; the
    kept eigenspace of each type is the one of smallest eigenvalue.
    """
    perms = np.asarray(row_permutations)
    n_group, k = perms.shape
    weights = np.random.default_rng(GROUP_ALGEBRA_SEED).uniform(1.0, 2.0, n_group)
    a = np.zeros((k, k))
    for weight, image in zip(weights, perms):
        a[image, np.arange(k)] += weight
    a += a.T
    # the rows sorted by orbit; each orbit's eigenvectors of A, and their
    # eigenvalues under A and C, take the columns of its rows' positions
    vectors, eigenvalues, types = np.zeros((k, k)), np.zeros(k), np.zeros(k)
    orbit = perms.min(axis=0)
    order = np.argsort(orbit, kind="stable")
    size = np.bincount(orbit)[orbit[order]]
    for s in np.unique(size):
        columns = np.flatnonzero(size == s).reshape(-1, s)  # one orbit a row
        rows = order[columns]
        lam, vec = np.linalg.eigh(a[rows[:, :, None], rows[:, None, :]])
        images = perms[:, rows]  # C[i, j] averages A[g(i), g(j)], as G = G^-1
        central = a[images[..., :, None], images[..., None, :]].sum(axis=0)
        vectors[rows[:, :, None], columns[:, None, :]], eigenvalues[columns] = vec, lam
        types[columns] = np.einsum("oia,oij,oja->oa", vec, central, vec) / n_group
    tol = 1e-8 * 2.0 * weights.sum()
    copy = _cluster(eigenvalues, tol)
    kind = _cluster(types, tol)
    return [
        vectors.compress((kind == t) & (copy == copy[kind == t].min()), axis=1)
        for t in range(kind.max() + 1)
    ]


def solve_on_orbits(
    problem: SdpProblem,
    symmetries: list[tuple[np.ndarray, np.ndarray]],
    tol: float,
) -> SdpSolution:
    """Solve ``problem`` with one variable per orbit, in symmetry-adapted
    blocks; lift the solution back.

    ``symmetries`` is a group of (row, variable) permutations of ``problem``.
    The orbit problem relabels each basis entry's variable by its orbit and
    sums ``c`` over each orbit; ``symmetry_adapted_bases`` splits it into one
    block per irreducible type.  Its ``y`` spreads back over the orbits, and
    its block ``Z``, lifted to ``sum_c Q_c Z_c Q_c^T`` and averaged over the
    group, is a dual point of ``problem`` itself (see the module docstring);
    the bound stays the block solve's own.
    """
    orbit = np.min([variables for _, variables in symmetries], axis=0)
    _, orbit_of = np.unique(orbit, return_inverse=True)
    orbits = replace(
        problem, var=orbit_of[problem.var], c=np.bincount(orbit_of, weights=problem.c)
    )
    bases = symmetry_adapted_bases([rows for rows, _ in symmetries])
    solution = solve(orbits.restricted(bases), tol=tol)
    q = np.hstack(bases)
    z = q @ solution.dual_matrix @ q.T
    z = sum(z[np.ix_(rows, rows)] for rows, _ in symmetries) / len(symmetries)
    return replace(solution, y=solution.y[orbit_of], dual_matrix=z)


@dataclass(frozen=True)
class NpaResult:
    bound: float
    certified_bound: float
    verified: bool
    solution: SdpSolution
    basis_size: int
    reduced_size: int
    n_moment_classes: int


def npa_upper_bound(
    level: int,
    with_constraint: bool,
    tol: float = 1e-9,
    n_parties: int = 3,
) -> NpaResult:
    """Certified upper bound on the Bell value at the given hierarchy level.

    The absolute value in the score needs no second solve: negating every
    observable of the first party maps the expression to its negative while
    preserving the feasible moment set (and the key-setting pins, once each
    key observable is negated along with it), so the maximum of the signed
    objective equals the maximum of its negation.

    The solve runs on the orbits of the party symmetries of the lowered
    problem; the certificate is checked on the lowered problem itself.
    """
    if level < 2:
        raise ValueError("hierarchy level must be at least 2 for the objective")
    objective = objective_words(mabk_expression(n_parties))
    pins = perfect_correlation_pins(n_parties) if with_constraint else []
    letters = {letter for word in [*objective, *pins] for letter in word}
    scenario = tuple(
        1 + max(letter.input for letter in letters if letter.party == party)
        for party in range(n_parties)
    )
    structure = build_moment_structure(generate_monomials(scenario, level))
    pinned = [structure.identity_class] + [structure.class_id(w) for w in pins]
    reduced = reduce_structure(structure, pinned)
    problem, const = lower_to_sdp(reduced, encode_objective(objective, structure))
    symmetries = party_symmetries(structure, reduced, problem, objective, pins)
    solution = solve_on_orbits(problem, list(symmetries.values()), tol)
    verified = verify_certificate(problem, solution)
    certified = certified_upper_bound(problem, solution)
    return NpaResult(
        bound=solution.bound + const,
        certified_bound=certified + const,
        verified=verified,
        solution=solution,
        basis_size=structure.dimension,
        reduced_size=problem.dimension,
        n_moment_classes=problem.n_vars,
    )
