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
monomial basis has entry class ``canonicalize(reverse(u) . v)``.  Entry
``(v, u)`` is the reversal of entry ``(u, v)``, so identifying each word with
its reversal is the symmetry of the real moment matrix, valid for the real
symmetric relaxation, where it can only loosen the bound; the build reads it
off the transposed code.  ``class_of`` is the only record of the classes:
``MomentMatrixStructure.class_id`` reads a word's class off the entry of its
two halves, and the objective and the pins look their words up through it.

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
Parrilo 2004; Tavakoli, Rosset & Renou 2019).  Let a signed permutation of the
kept rows, ``P_g e_i = s_i e_{g(i)}``, map ``F0`` to ``F0`` (``P_g^T F0 P_g =
F0``) and each ``F_v`` onto ``sigma_v F_tau(v)``, with ``c_tau(v) sigma_v =
c_v``.  Then ``y -> (sigma_v y_tau(v))_v`` maps feasible points to feasible
points of equal objective, as it takes ``M(y)`` to ``P_g^T M(y) P_g``, and by
convexity the average of a feasible point over the group ``G`` of such maps
is feasible, has the same objective and is fixed by ``G``: on each orbit of
``tau``, ``y_v = t_v y_o`` with ``o`` the orbit's least member and ``t_v`` the
sign of any element that sends ``v`` to ``o``.  A variable whose orbit holds
its own negative (some element sends ``v`` to ``-v``) equals its own negative
at every fixed point, so it is 0 there, and it leaves the problem; its
``c_v = -c_v`` is 0 too.  The problem with one variable per other orbit,
with the basis matrices ``F_J = sum_{v in J} t_v F_v`` and ``c`` summed with
the same signs, therefore has the same optimum.  Its ``F0`` and ``F_J`` are
fixed by every ``P_g``, so ``symmetry_adapted_bases`` finds one orthonormal
basis ``Q_c`` per irreducible type of ``G``'s signed action on the rows, each
spanning an invariant subspace of every ``F_J`` on which ``F_J`` has, up to
multiplicity, all its eigenvalues; the other copies of each type have the
same ones.  The solve therefore runs on the blocks ``Q_c^T F Q_c`` with the
same feasible set.  ``sdp.SdpProblem.restricted`` builds them from the lowered
problem in one pass, substituting ``y_v = t_v y_o`` as it maps each entry
through the bases, and ``sdp.solve`` merges consecutive small blocks into
larger solve blocks.  Its block dual lifts to ``Z = sum_c Q_c Z_c Q_c^T``,
which meets each orbit's summed stationarity condition exactly for any bases,
as ``<F_J, Z> = sum_c <Q_c^T F_J Q_c, Z_c>``: bases that missed an invariant
subspace could only restrict the dual and loosen the bound.  Averaged over
``G`` as ``|G|^-1 sum_g P_g^T Z P_g``, ``Z`` stays PSD, keeps ``<F0, Z>`` and
meets ``<F_v, Z> = -c_v`` for every ``v``: the average of ``<F_v, P_g^T Z
P_g> = sigma_v(g) <F_tau_g(v), Z>`` over ``G`` is ``t_v <F_J, Z> / |J| = -t_v
c_J / |J| = -c_v``, and for a variable that left the problem the signed terms
cancel to ``0 = -c_v``.  So the averaged ``Z`` is a certificate for the
unreduced problem.  The bound is the block solve's own dual objective;
``verify_certificate`` and ``certified_upper_bound`` check ``Z`` on the
unreduced problem, the first comparing the bound with ``<F0, Z>`` recomputed
there: a wrong symmetry would leave stationarity residuals that the first
refuses and the second charges, so the symmetry is never trusted.

``G`` is found exactly, on the problem's words.  A signed letter relabelling
(a party permutation that keeps every party's input count, an input
permutation per party and a sign per letter) substitutes dichotomic
operators for dichotomic operators party by party, so it commutes with
canonicalization and with reversal and sends each word to a word times the
product of its letters' signs.  One that maps every basis word into the
basis therefore acts on the rows and on the moment classes as signed
permutations.  One that also maps every pin word onto a pin word with sign
+1 maps the pinned classes, and with them the row groups and class merges of
the reduction, onto their own; one that also maps every objective word
``w`` onto a word whose coefficient is exactly ``sign * c_w`` keeps ``c``.
Such a relabelling maps ``F0``, the ``F_v`` and ``c`` as above.  Those of
one party and input permutation differ by sign changes ``K`` that move no
letter, so ``G`` is held as found: representatives times ``K``, and ``K`` as
its GF(2) basis, which the orbits and the group average read alone; only
``symmetry_adapted_bases``, weighing every element, enumerates ``K``.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from operator import attrgetter
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
# Seed of the group-algebra weights of symmetry_adapted_bases, drawn from a
# private random.Random (the standard library's Mersenne Twister): fixed, so
# that repeated solves are bit-identical whatever the global generators hold,
# and pseudo-random, as the weights must be generic (see that docstring).
GROUP_ALGEBRA_SEED = 0
# Smallest tol npa_upper_bound accepts: every level-2/3 orbit problem converges
# at 1e-12 (in 15 or 16 iterations), with one or two BLAS threads.  At 1e-13
# the level-3 pinned one fails to factorize at iteration 18, where mu is 5e-15
# (the others converge in 16 to 19), and at 1e-14 the level-2 pinned one
# fails too.
MIN_TOL = 1e-12


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
    """Monomial basis plus the map from matrix entries to moment classes; the
    per-party sub-words that ``build_moment_structure`` splits the basis into
    stay inside it."""

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


def _subwords(words, n_parties: int) -> tuple[list[dict[Word, int]], np.ndarray]:
    """Each canonical word's sub-word of every party, numbered per party in
    order of first appearance after the empty sub-word, 0: one numbering per
    party, and the (len(words), n_parties) array of the numbers."""
    tables: list[dict[Word, int]] = [{(): 0} for _ in range(n_parties)]
    index = np.zeros((len(words), n_parties), dtype=np.intp)
    for w, word in enumerate(words):
        for party, letters in itertools.groupby(word, attrgetter("party")):
            table = tables[party]
            index[w, party] = table.setdefault(tuple(letters), len(table))
    return tables, index


def build_moment_structure(monomials: list[Word]) -> MomentMatrixStructure:
    """Entry classes of the moment matrix, numbered by first row-major appearance.

    A canonical word is the concatenation of its per-party sub-words, so the
    entry ``canonicalize(reverse(u) . v)`` is, party by party, the reduced
    product ``reverse(u_p) . v_p``, and entry ``(v, u)`` is its canonical
    reversal.  Each pair of sub-words is reduced once; the per-party products
    combine into one mixed-radix code of the entry words, whose transpose
    codes their reversals, and the smaller of the two names the class.
    """
    if not monomials or monomials[0] != ():
        raise ValueError("monomial list must contain the identity first")
    d = len(monomials)
    code = np.zeros((d, d), dtype=np.int64)
    radix = 1
    tables, indices = _subwords(monomials, _n_parties(monomials))
    for subwords, index in zip(tables, indices.T):
        products: dict[Word, int] = {}
        table = np.empty((len(subwords), len(subwords)), dtype=np.int64)
        for s, a in subwords.items():
            for t, b in subwords.items():
                word = canonicalize(tuple(reversed(s)) + t)
                table[a, b] = products.setdefault(word, len(products))
        code += radix * table[np.ix_(index, index)]
        radix *= len(products)
        if radix > np.iinfo(np.int64).max:
            raise ValueError("too many distinct entry words for 64-bit codes")

    _, first, inverse = np.unique(
        np.minimum(code, code.T), return_index=True, return_inverse=True
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


@dataclass(frozen=True)
class SignedPermutations:
    """A group of signed permutations as representatives times a group ``K``
    of sign changes, held as its GF(2) basis: element ``(e, c)`` is ``P_e
    D_c``, with ``P_e e_i = sign[e, i] e_{image[e, i]}`` and ``D_c`` the
    product of the basis vectors at the set bits of ``c``, each element once;
    ``(0, 0)`` is the identity."""

    image: np.ndarray  # (representatives, k)
    sign: np.ndarray  # (representatives, k)
    kernel: np.ndarray  # (r, k) bool: the indices each basis vector of K flips

    @property
    def order(self) -> int:
        return len(self.image) << len(self.kernel)

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """Each index's orbit and sign: a point fixed by the group has ``x_i =
        sign_i * x_o``, ``o`` the least member of ``i``'s orbit.  An orbit
        that holds its own negative forces ``x_o = -x_o = 0``; its members get
        the orbit -1 and the sign 0.  That is every orbit reached with both
        signs, and every index that a basis vector of ``K`` flips.  The other
        orbits are numbered in the order of their least members."""
        least = self.image.min(axis=0)
        at_least = self.image == least
        plus = (at_least & (self.sign > 0)).any(axis=0)
        minus = (at_least & (self.sign < 0)).any(axis=0)
        live = ~(plus & minus) & ~self.kernel.any(axis=0)
        orbit = np.full(len(least), -1)
        orbit[live] = np.unique(least[live], return_inverse=True)[1]
        return orbit, np.where(live, np.where(plus, 1.0, -1.0), 0.0)

    def average(self, x: np.ndarray) -> np.ndarray:
        """The group average of ``P_g^T x P_g``.

        ``P_e D_c`` gives ``D_c P_e^T x P_e D_c``, and the mean over ``K`` of
        ``D_c(i) D_c(j)`` is 1 where every basis vector flips ``i`` and ``j``
        alike and 0 elsewhere, so the group average is that mask times the
        mean over the representatives.
        """
        image, sign, kernel = self.image, self.sign, self.kernel
        mask = (kernel[:, :, None] == kernel[:, None, :]).all(axis=0)
        moved = x[image[:, :, None], image[:, None, :]]
        return mask * np.einsum("gi,gij,gj->ij", sign, moved, sign) / len(image)


class RelabellingGroup(NamedTuple):
    """A group of signed letter relabellings, acting on the ``letters`` (every
    ``(party, input)`` of the scenario, in sorted order), on the kept rows
    and on the variables of a lowered problem; element ``(e, c)`` of each
    action is the same relabelling."""

    letters: tuple[OperatorLetter, ...]
    on_letters: SignedPermutations
    rows: SignedPermutations
    variables: SignedPermutations


def _lookup(keys: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The position of each of ``codes`` in the array ``keys``, or -1."""
    order = np.argsort(keys, kind="stable")
    at = order[np.searchsorted(keys, codes, sorter=order).clip(max=len(keys) - 1)]
    return np.where(keys[at] == codes, at, -1)


def _gf2_solve(a: np.ndarray, b: np.ndarray):
    """Solve ``a x = b`` over GF(2) by Gauss-Jordan elimination, for ``a`` of
    shape (e, n) and each row of ``b`` (k, e) as a right-hand side: the
    solutions whose free variables are 0 (k, n), which right-hand sides are
    solvable (k,), and a basis of the kernel of ``a`` (r, n); all bool."""
    a, b = a.copy(), b.T.copy()
    pivots: list[int] = []
    for col in range(a.shape[1]):
        r = len(pivots)
        hits = np.flatnonzero(a[r:, col])
        if not hits.size:
            continue
        swap = [r, r + hits[0]]
        a[swap], b[swap] = a[swap[::-1]], b[swap[::-1]]
        others = np.flatnonzero(a[:, col])
        others = others[others != r]
        a[others] ^= a[r]
        b[others] ^= b[r]
        pivots.append(col)
    r = len(pivots)
    solutions = np.zeros((b.shape[1], a.shape[1]), dtype=bool)
    solutions[:, pivots] = b[:r].T
    free = [col for col in range(a.shape[1]) if col not in pivots]
    kernel = np.zeros((len(free), a.shape[1]), dtype=bool)
    kernel[np.arange(len(free)), free] = True
    kernel[:, pivots] = a[:r, free].T
    return solutions, ~b[r:].any(axis=0), kernel


def _word_slots(words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The letters of canonical ``words``, one word a row and one letter a
    column, padded with party -1: (len(words), longest) arrays of each
    letter's party, input and place, its position in its party's sub-word."""
    length = max(map(len, words), default=0)
    pad = [w + ((-1, 0),) * (length - len(w)) for w in words]
    slots = np.array(pad, dtype=np.intp).reshape(len(words), length, 2)
    party, inputs = slots.transpose(2, 0, 1)
    # a canonical word holds each party's letters together: a sub-word starts
    # at the first letter of its party
    start = (party[:, :, None] == party[:, None, :]).argmax(axis=2)
    return party, inputs, np.arange(length) - start


def _letter_parity(letter: np.ndarray, n_letters: int) -> np.ndarray:
    """(len(letter), n_letters) bool: whether each letter occurs an odd number
    of times in each row of ``letter``, the letter numbers of one word a row,
    -1 past its end."""
    word = np.indices(letter.shape)[0]
    cells = (word * n_letters + letter)[letter >= 0]
    counts = np.bincount(cells, minlength=len(letter) * n_letters)
    return (counts & 1).astype(bool).reshape(len(letter), n_letters)


def _variable_action(
    problem: SdpProblem, rows: np.ndarray, parity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The action on the variables of ``problem`` of the row relabellings
    ``rows`` with sign parities ``parity`` (both (n, k)): each variable's image
    and sign parity, read off its first entry.  A relabelling that sends a
    nonzero of ``F0`` to another value, a free entry onto ``F0`` (as two rows
    sent onto one do) or a variable onto two signed variables is a lowering
    bug and raises ValueError."""
    k, row, col = problem.dimension, problem.row, problem.col
    var_at = np.full((k, k), -1)
    var_at[row, col] = var_at[col, row] = problem.var
    moved = np.take(rows, row, axis=1) * k + np.take(rows, col, axis=1)
    target = np.take(var_at, moved)
    flip = np.take(parity, row, axis=1) ^ np.take(parity, col, axis=1)
    first = np.empty(problem.n_vars, dtype=np.intp)
    first[problem.var[::-1]] = np.arange(len(problem.var))[::-1]
    variables, signs = target[:, first], flip[:, first]
    a, b = np.nonzero(problem.f0)
    f0_sign = 1.0 - 2.0 * (parity[:, a] ^ parity[:, b])
    f0_kept = (problem.f0[rows[:, a], rows[:, b]] * f0_sign == problem.f0[a, b]).all()
    if not (
        f0_kept
        and (target >= 0).all()
        and np.array_equal(variables[:, problem.var], target)
        and np.array_equal(signs[:, problem.var], flip)
    ):
        raise ValueError("a relabelling is no symmetry of the lowering")
    return variables, signs


def relabelling_group(
    structure: MomentMatrixStructure,
    reduced: ReducedMoments,
    problem: SdpProblem,
    objective: dict[Word, Fraction],
    pins: list[Word],
) -> RelabellingGroup:
    """The signed letter relabellings that leave the problem's words invariant,
    with their actions on the kept rows and on the variables of ``problem``.

    A relabelling sends letter ``(p, x)`` to ``s_px (pi(p), rho_p(x))``: a
    party permutation ``pi`` that keeps every party's input count, an input
    permutation ``rho_p`` per party and a sign per letter.  A word's image is
    the product of its letters' signs times the relabelled word.  The
    relabelling is kept when it maps every pin word onto a pin word with sign
    +1, every objective word ``w`` onto a word whose coefficient is exactly
    ``sign * c_w`` and every basis word into the basis; it is then a symmetry
    of ``problem`` (see the module docstring).

    Every basis, objective and pin word is encoded once, as its letters'
    numbers and places (a letter's place is its position in its party's
    sub-word), and named by its slot code ``sum (x + 1) B^(p depth + place)``
    over its letters ``(p, x)``: ``B`` is one more than the largest input
    count, ``depth`` one more than the largest place.  A relabelling moves a
    letter's party and input but never its place, so each candidate ``(pi,
    rho)`` is one row of letter images, the identity first, and a word's
    image has the code ``sum (rho_p(x) + 1) B^(pi(p) depth + place)``, a
    gather of per-letter weights through that row, looked up among the
    identity's codes.  A word's sign is the product of the signs of the
    letters it holds an odd number of times, so for a fixed ``(pi, rho)``
    the admissible signs solve a linear system over GF(2), one equation per
    objective word and per pin: a particular solution plus the kernel of the
    system, which is the same for every candidate.  The group is therefore
    each admissible ``(pi, rho)`` with its particular signs, times every sign
    change of the kernel.  The actions of those representatives and of the
    kernel's basis go through ``_variable_action``'s check, and each action
    keeps that form: ``SignedPermutations`` of the representatives times the
    kernel, held as its basis, whose sign changes move no letter, row or
    variable.  Codes that would not fit in 64 bits raise ``ValueError``
    before any candidate is enumerated.
    """
    basis, d = structure.basis, structure.dimension
    pin_words = dict.fromkeys(pins, Fraction(1))
    party, inputs, place = _word_slots([*basis, *objective, *pin_words])
    at_objective = slice(d, d + len(objective))
    at_pins = slice(d + len(objective), None)
    n, real = _n_parties(basis), party >= 0
    counts = np.zeros(n, dtype=np.intp)
    np.maximum.at(counts, party[real], inputs[real] + 1)
    offset = np.cumsum(counts) - counts
    letters = tuple(OperatorLetter(p, x) for p in range(n) for x in range(counts[p]))
    letter = np.where(real, offset[party] + inputs, -1)
    base, depth = 1 + int(counts.max()), 1 + int(place.max(initial=0))
    if base ** (n * depth) > np.iinfo(np.int64).max:
        raise ValueError("too many letter slots for 64-bit word codes")
    scale = np.where(real, base**place, 0)
    owner = np.repeat(np.arange(n), counts)  # the party of each letter
    unit = (np.arange(len(letters)) - offset[owner] + 1) * base ** (owner * depth)

    # the candidates as rows of letter images, the identity first: each
    # party map that keeps the input counts, in permutation order, times one
    # input permutation per party, the last party's fastest
    maps = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    maps = maps[(counts[maps] == counts).all(axis=1)]
    perms = [np.array(list(itertools.permutations(range(c))), np.intp) for c in counts]
    choice = np.indices([len(r) for r in perms]).reshape(n, -1)
    rho = np.hstack([r[k] for r, k in zip(perms, choice)])
    image = (offset[maps][:, None, owner] + rho).reshape(-1, len(letters))

    def codes(candidates: np.ndarray, words: slice) -> np.ndarray:
        """The slot codes of the encoded ``words`` under each candidate of
        ``candidates``; past a word's end the scale is 0."""
        weight = unit[candidates.T]  # a letter a row
        code = np.zeros((len(letter[words]), len(candidates)), dtype=np.int64)
        for j in range(letter.shape[1]):
            code += weight[letter[words, j]] * scale[words, j, None]
        return code.T

    own = codes(image[:1], slice(None))[0]  # the identity's: each word's code

    # each candidate's images of the objective words and of the pins, and
    # the sign bit each image needs; a word maps onto one of its own map
    equations, bits = [], []
    keep = np.ones(len(image), dtype=bool)
    for words, at in ((objective, at_objective), (pin_words, at_pins)):
        found = _lookup(own[at], codes(image, at))
        c = list(words.values())
        needed = [[0 if b == a else 1 if b == -a else -1 for b in c] for a in c]
        bit = np.array(needed, dtype=np.intp).reshape(len(c), len(c))[
            np.arange(len(c)), found
        ]
        keep &= ((found >= 0) & (bit >= 0)).all(axis=1)
        equations.append(_letter_parity(letter[at], len(letters)))
        bits.append(bit)
    image = image[keep]
    signs, solvable, kernel = _gf2_solve(
        np.vstack(equations), np.hstack(bits)[keep].astype(bool)
    )
    image, signs = image[solvable], signs[solvable]
    full_rows = _lookup(own[:d], codes(image, slice(d)))
    inside = (full_rows >= 0).all(axis=1)
    image, signs, full_rows = image[inside], signs[inside], full_rows[inside]

    # the representatives' actions, then the kernel basis vectors'
    kept = np.array(reduced.kept_rows)
    position = np.full(d, -1)
    position[kept] = np.arange(len(kept))
    rows = np.vstack(
        [
            position[reduced.row_of[full_rows[:, kept]]],
            np.tile(np.arange(len(kept)), (len(kernel), 1)),
        ]
    )
    letter_signs = np.vstack([signs, kernel])
    row_letters = _letter_parity(letter[kept], len(letters))
    parity = letter_signs.astype(np.intp) @ row_letters.T.astype(np.intp) & 1 == 1
    variables, var_parity = _variable_action(problem, rows, parity)

    # each action: the representatives' images and signs, the kernel's parities
    def factored(image: np.ndarray, parity: np.ndarray) -> SignedPermutations:
        n = len(signs)
        return SignedPermutations(image[:n], 1.0 - 2.0 * parity[:n], parity[n:])

    return RelabellingGroup(
        letters,
        factored(image, letter_signs),
        factored(rows, parity),
        factored(variables, var_parity),
    )


def _cluster(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster labels of ``values``: in sorted order, a gap above ``tol``
    starts the next cluster, so equal values up to rounding share a label."""
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=np.intp)
    labels[order] = np.cumsum(np.diff(values[order], prepend=-np.inf) > tol) - 1
    return labels


def symmetry_adapted_bases(rows: SignedPermutations) -> list[np.ndarray]:
    """Orthonormal bases, one per irreducible type of a signed row permutation
    group, that block-diagonalize every symmetric matrix the group fixes.

    With ``P_g e_i = s_g(i) e_{g(i)}``, a matrix ``F`` fixed by the group
    (``P_g F P_g^T = F``) commutes with every ``P_g``, hence with the
    symmetric group-algebra element ``A = sum_g r_g (P_g + P_g^T)``, and maps
    each eigenspace of ``A`` into itself.  For generic weights those
    eigenspaces are, for each irreducible type, copies on which every fixed
    ``F`` acts alike (Gatermann & Parrilo 2004), so one of them per type
    carries all of ``F``'s eigenvalues.  Weights with linear relations among
    them are not generic: the golden-ratio Weyl sequence ``1 + frac(0.618 g)``
    lets eigenvalues of different types coincide, and changed the blocks of
    all four N=3 problems.  So the weights ``r_g`` in [1, 2) are
    pseudo-random: ``GROUP_ALGEBRA_SEED``'s Mersenne Twister (``random.Random``)
    draws ``8 |G|`` bytes in one call, read as little-endian 64-bit integers
    whose top 53 bits give ``1 + m / 2^53``.  ``numpy.random`` would give the
    same kind of weights but costs the first solve a module import.  The
    element ``g = P_e D_c`` puts ``r_g s_e(i) D_c(i)`` at ``(e(i), i)``, so
    ``A`` is built from one folded weight per representative and index, ``sum_c
    r_ec D_c(i)``, each ``D_c`` expanded from ``rows.kernel``: the package's
    one enumeration of the sign changes.  The type of an eigenvector is its
    eigenvalue under the central element ``C``, the group average of ``P_g^T A
    P_g``.  ``A`` and ``C`` act on each row orbit alone, so both are
    diagonalized orbit by orbit, all orbits of one size in one stacked call,
    and every basis vector lives on one orbit.  The elements form a group and
    the sign changes move no row, so row ``i``'s orbit is ``{e(i)}`` over the
    representatives and its least image labels it.  Eigenvalues closer than
    1e-8 of ``A``'s norm bound are taken as equal; the kept eigenspace of each
    type is the one of smallest eigenvalue.
    """
    perms, k = rows.image, rows.image.shape[1]
    draw = random.Random(GROUP_ALGEBRA_SEED).randbytes(8 * rows.order)
    weights = (np.frombuffer(draw, dtype="<u8") >> 11) * 2.0**-53 + 1.0
    r = len(rows.kernel)
    combos = np.arange(1 << r)[:, None] >> np.arange(r) & 1  # c's set bits
    folded = weights.reshape(len(perms), -1) @ (1.0 - 2.0 * (combos @ rows.kernel & 1))
    a = np.bincount(
        (perms * k + np.arange(k)).ravel(),
        weights=(folded * rows.sign).ravel(),
        minlength=k * k,
    ).reshape(k, k)
    a += a.T
    central = rows.average(a)
    # the rows sorted by orbit; each orbit's eigenvectors of A, and their
    # eigenvalues under A and C, take the columns of its rows' positions
    vectors, eigenvalues, types = np.zeros((k, k)), np.zeros(k), np.zeros(k)
    orbit = perms.min(axis=0)
    order = np.argsort(orbit, kind="stable")
    size = np.bincount(orbit)[orbit[order]]
    # the distinct orbit sizes (a bare np.unique would import numpy.ma)
    for s in np.flatnonzero(np.bincount(size)):
        columns = np.flatnonzero(size == s).reshape(-1, s)  # one orbit a row
        rows_ = order[columns]
        block = rows_[:, :, None], rows_[:, None, :]
        lam, vec = np.linalg.eigh(a[block])
        vectors[rows_[:, :, None], columns[:, None, :]], eigenvalues[columns] = vec, lam
        types[columns] = np.einsum("oia,oij,oja->oa", vec, central[block], vec)
    tol = 1e-8 * 2.0 * weights.sum()
    copy = _cluster(eigenvalues, tol)
    kind = _cluster(types, tol)
    bases = [
        vectors.compress((kind == t) & (copy == copy[kind == t].min()), axis=1)
        for t in range(kind.max() + 1)
    ]
    return sorted(bases, key=lambda q: -q.shape[1])


def _lap(stage_s: dict[str, float], stage: str, start: float) -> float:
    """Record the seconds since ``start`` as ``stage_s[stage]``; return now."""
    now = time.perf_counter()
    stage_s[stage] = now - start
    return now


def solve_on_orbits(
    problem: SdpProblem,
    rows: SignedPermutations,
    variables: SignedPermutations,
    tol: float,
    stage_s: dict[str, float],
) -> SdpSolution:
    """Solve ``problem`` on the signed orbits of a group, in symmetry-adapted
    blocks; lift the solution back.

    ``rows`` and ``variables`` are the group's actions on the rows and on
    the variables of ``problem``.  ``SdpProblem.restricted`` takes
    ``problem`` onto the variable orbits and into one block per irreducible
    type that ``symmetry_adapted_bases`` finds.  The lift is its inverse:
    ``y = t_v y_orbit``, 0 on the dropped variables, and the block ``Z``,
    lifted to ``sum_c Q_c Z_c Q_c^T`` and averaged over the group, is a dual
    point of ``problem`` itself (see the module docstring); the bound stays
    the block solve's own.  ``stage_s`` receives the seconds spent on the
    bases, the restriction, the SDP and the lift.
    """
    start = time.perf_counter()
    bases = symmetry_adapted_bases(rows)
    start = _lap(stage_s, "bases", start)
    orbit, sign = variables.orbits
    restricted = problem.restricted(bases, orbit, sign)
    start = _lap(stage_s, "restriction", start)
    solution = solve(restricted, tol=tol)
    start = _lap(stage_s, "sdp", start)
    q = np.hstack(bases)
    z = q @ solution.dual_matrix @ q.T
    z = rows.average(z)
    solution = replace(solution, y=sign * solution.y[orbit], dual_matrix=z)
    _lap(stage_s, "lift", start)
    return solution


@dataclass(frozen=True)
class NpaResult:
    bound: float
    certified_bound: float
    verified: bool
    solution: SdpSolution
    basis_size: int
    reduced_size: int
    n_moment_classes: int
    group_order: int  # of the signed relabelling group the solve ran on
    n_orbits: int  # the orbit problem's variables
    n_zeroed: int  # the moment classes that group forces to 0
    # seconds per stage, in pipeline order: build (monomials and classes),
    # reduce, lower, group, the orbit solve's bases, restriction, sdp and
    # lift, and check (both certificate passes)
    stage_s: dict[str, float]


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

    The solve runs on the orbits of the signed relabelling group of the
    lowered problem; the certificate is checked on the lowered problem itself.
    A ``tol`` below ``MIN_TOL`` raises ``ValueError``.
    """
    if level < 2:
        raise ValueError("hierarchy level must be at least 2 for the objective")
    if not tol >= MIN_TOL:  # NaN too
        raise ValueError(f"tol must be at least {MIN_TOL}, got {tol}")
    objective = objective_words(mabk_expression(n_parties))
    pins = perfect_correlation_pins(n_parties) if with_constraint else []
    letters = {letter for word in [*objective, *pins] for letter in word}
    scenario = tuple(
        1 + max(letter.input for letter in letters if letter.party == party)
        for party in range(n_parties)
    )
    stage_s: dict[str, float] = {}
    start = time.perf_counter()
    structure = build_moment_structure(generate_monomials(scenario, level))
    start = _lap(stage_s, "build", start)
    pinned = [structure.identity_class] + [structure.class_id(w) for w in pins]
    reduced = reduce_structure(structure, pinned)
    start = _lap(stage_s, "reduce", start)
    problem, const = lower_to_sdp(reduced, encode_objective(objective, structure))
    start = _lap(stage_s, "lower", start)
    group = relabelling_group(structure, reduced, problem, objective, pins)
    start = _lap(stage_s, "group", start)
    solution = solve_on_orbits(problem, group.rows, group.variables, tol, stage_s)
    orbit, _ = group.variables.orbits
    start = time.perf_counter()
    verified = verify_certificate(problem, solution)
    certified = certified_upper_bound(problem, solution)
    _lap(stage_s, "check", start)
    return NpaResult(
        bound=solution.bound + const,
        certified_bound=certified + const,
        verified=verified,
        solution=solution,
        basis_size=structure.dimension,
        reduced_size=problem.dimension,
        n_moment_classes=problem.n_vars,
        group_order=group.rows.order,
        n_orbits=int(orbit.max()) + 1,
        n_zeroed=int((orbit < 0).sum()),
        stage_s=stage_s,
    )
