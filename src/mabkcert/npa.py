"""Moment-matrix relaxation for party-local dichotomic observables.

The full scenario gives the first party two inputs and every other party
three, the third input being the key setting (``default_scenario``).
``npa_upper_bound`` keeps only the letters that occur in the objective or in a
pin: each party's input count is one more than its largest such input.  The
unpinned problems thereby drop every key input; the pinned ones use all
letters.  Pruning leaves the bound unchanged:

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
symmetric relaxation and can only loosen the bound.

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
strictly feasible point.  ``reduce_structure`` therefore iterates exactly that
implication: rows joined by a pinned unit entry are identified, their entry
classes are merged columnwise, and newly pinned classes are propagated until
a fixpoint.  Every identification is forced for every feasible matrix of the
pinned problem, so the reduced problem has the same optimal value, and after
deduplication the reduced ``M(0) = I`` is strictly feasible again.  Both the
row groups and the class merges are connected components, computed on arrays
and labelled by their smallest member.  ``lower_to_sdp`` then turns the
reduced class matrix into ``F0`` (the pinned entries) and the CSR basis of
``sdp.SdpProblem`` (one variable per free class) by array indexing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .mabk import BellExpression, mabk_expression
from .sdp import (
    SdpProblem,
    SdpSolution,
    certified_upper_bound,
    solve,
    verify_certificate,
)

KEY_INPUT = 2  # the key-generation setting of every party after the first


class OperatorLetter(NamedTuple):
    party: int
    input: int


Word = tuple[OperatorLetter, ...]


def default_scenario(n_parties: int = 3) -> tuple[int, ...]:
    """Input counts per party: two for the first party, three for the rest."""
    if n_parties < 2:
        raise ValueError("need at least two parties")
    return (2,) + (3,) * (n_parties - 1)


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


def _class_key(word: Word) -> Word:
    """Representative of {word, reversed word} (moments are reversal-symmetric)."""
    rev = canonicalize(tuple(reversed(word)))
    return min(word, rev)


@dataclass(frozen=True)
class MomentMatrixStructure:
    """Monomial basis plus the map from matrix entries to moment classes."""

    basis: tuple[Word, ...]
    class_of: np.ndarray  # (d, d) int array of class ids
    class_representatives: tuple[Word, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def n_classes(self) -> int:
        return len(self.class_representatives)

    @property
    def identity_class(self) -> int:
        return int(self.class_of[0, 0])


def build_moment_structure(monomials: list[Word]) -> MomentMatrixStructure:
    if not monomials or monomials[0] != ():
        raise ValueError("monomial list must contain the identity first")
    d = len(monomials)
    class_ids: dict[Word, int] = {}
    reps: list[Word] = []
    class_of = np.empty((d, d), dtype=np.int32)
    for i, u in enumerate(monomials):
        ru = tuple(reversed(u))
        for j, v in enumerate(monomials):
            key = _class_key(canonicalize(ru + v))
            idx = class_ids.get(key)
            if idx is None:
                idx = len(reps)
                class_ids[key] = idx
                reps.append(key)
            class_of[i, j] = idx
    return MomentMatrixStructure(tuple(monomials), class_of, tuple(reps))


def encode_objective(
    expr: BellExpression, structure: MomentMatrixStructure
) -> np.ndarray:
    """Coefficient vector over moment classes for a full-correlation expression."""
    lookup = {rep: k for k, rep in enumerate(structure.class_representatives)}
    out = np.zeros(structure.n_classes)
    for term in expr.terms:
        word = tuple(OperatorLetter(p, x) for p, x in enumerate(term.inputs))
        key = _class_key(canonicalize(word))
        if key not in lookup:
            raise ValueError(
                f"objective monomial {key} not present in the moment structure;"
                " increase the hierarchy level"
            )
        out[lookup[key]] += float(term.coefficient)
    return out


def _key_letters(n_parties: int) -> list[OperatorLetter]:
    """Each party's key observable: input 0 of the first, KEY_INPUT of the rest."""
    return [OperatorLetter(0, 0)] + [
        OperatorLetter(party, KEY_INPUT) for party in range(1, n_parties)
    ]


def encode_perfect_correlation(
    structure: MomentMatrixStructure, n_parties: int = 3
) -> dict[int, float]:
    """Pairwise key-setting correlators pinned to one (see module docstring).

    Returns the pinned moment classes, each mapped to its value 1.
    """
    lookup = {rep: k for k, rep in enumerate(structure.class_representatives)}
    pinned: dict[int, float] = {}
    for a, b in itertools.combinations(_key_letters(n_parties), 2):
        key = _class_key(canonicalize((a, b)))
        if key not in lookup:
            raise ValueError(f"pair moment {key} missing; level too low")
        pinned[lookup[key]] = 1.0
    return pinned


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
    pinned_roots: dict[int, float]
    root_of: np.ndarray  # (n_classes,) map class id -> root id


def reduce_structure(
    structure: MomentMatrixStructure, pinned: dict[int, float]
) -> ReducedMoments:
    """Merge rows forced equal by unit pins; value-preserving (see module doc).

    Rows and classes are labelled by the smallest member of their group.  Each
    round joins the rows linked by an entry pinned to one, then merges each
    row's entry classes with those of its group's smallest row, column by
    column, until the rows stop merging.  Pins and merges only accumulate, so
    each round recomputes both partitions from all of its links.
    """
    d, n = structure.dimension, structure.n_classes
    class_of = structure.class_of
    pin_ids = np.fromiter(pinned, dtype=np.intp, count=len(pinned))
    pin_vals = np.fromiter(pinned.values(), dtype=float, count=len(pinned))
    rows, classes = np.arange(d), np.arange(n)
    while True:
        # the pinned value of every root class, NaN where unpinned
        roots = classes[pin_ids]
        value = np.full(n, np.nan)
        value[roots] = pin_vals
        clash = np.flatnonzero(np.abs(value[roots] - pin_vals) > 1e-12)
        if clash.size:
            c = clash[0]
            raise ValueError(
                f"inconsistent pins for one moment class: {pin_vals[c]} vs"
                f" {value[roots[c]]}"
            )
        a, b = np.nonzero(value[classes[class_of]] == 1.0)
        merged = _min_labels(d, a, b)
        if np.array_equal(merged, rows):
            break
        rows = merged
        classes = _min_labels(n, class_of[rows].ravel(), class_of.ravel())

    kept = np.flatnonzero(rows == np.arange(d))
    pinned_roots = {int(r): float(value[r]) for r in np.flatnonzero(~np.isnan(value))}
    return ReducedMoments(
        tuple(kept.tolist()),
        classes[class_of[np.ix_(kept, kept)]].astype(np.int32),
        pinned_roots,
        classes.astype(np.int32),
    )


def lower_to_sdp(
    reduced: ReducedMoments, objective: np.ndarray
) -> tuple[SdpProblem, float]:
    """Build the dual-form LMI; returns (problem, objective constant).

    Free root classes become variables numbered by first appearance in the
    row-major upper triangle; pinned ones go into ``F0``.
    """
    cm = reduced.class_matrix
    k = cm.shape[0]
    pin = np.full(len(reduced.root_of), np.nan)
    pin[list(reduced.pinned_roots)] = list(reduced.pinned_roots.values())
    fixed = np.nan_to_num(pin)

    i, j = np.triu_indices(k)
    root = cm[i, j]
    free = np.isnan(pin[root])
    i, j, root = i[free], j[free], root[free]
    roots, first = np.unique(root, return_index=True)
    order = roots[np.argsort(first)]  # the free roots in variable order
    var_of = np.full(len(pin), -1)
    var_of[order] = np.arange(len(order))
    var = var_of[root]
    off = i != j
    basis = csr_matrix(
        (
            np.ones(len(var) + off.sum()),
            (np.append(var, var[off]), np.append(i * k + j, j[off] * k + i[off])),
        ),
        shape=(len(order), k * k),
    )

    by_root = np.bincount(reduced.root_of, weights=objective, minlength=len(pin))
    missing = (var_of < 0) & np.isnan(pin)
    if missing[reduced.root_of[objective != 0.0]].any():
        raise ValueError("objective class missing from the reduced matrix")
    const = float(by_root @ fixed)
    return SdpProblem(f0=fixed[cm], basis=basis, c=by_root[order]), const


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
    """
    if level < 2:
        raise ValueError("hierarchy level must be at least 2 for the objective")
    expr = mabk_expression(n_parties)
    letters = {
        OperatorLetter(party, inp)
        for term in expr.terms
        for party, inp in enumerate(term.inputs)
    }
    if with_constraint:
        letters.update(_key_letters(n_parties))
    scenario = tuple(
        1 + max(letter.input for letter in letters if letter.party == party)
        for party in range(n_parties)
    )
    monomials = generate_monomials(scenario, level)
    structure = build_moment_structure(monomials)
    objective = encode_objective(expr, structure)

    pinned: dict[int, float] = {structure.identity_class: 1.0}
    if with_constraint:
        pinned.update(encode_perfect_correlation(structure, n_parties))

    reduced = reduce_structure(structure, pinned)
    problem, const = lower_to_sdp(reduced, objective)
    solution = solve(problem, tol=tol)
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
