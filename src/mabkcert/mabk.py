"""MABK Bell expressions with exact dyadic coefficients.

Every expression is built by the Belinskii-Klyshko recursion, started from
the one-party seed ``MK_1 = P_0``:

    MK_N = 1/2 * [ MK_{N-1} x (P_0 + P_1)  +  MK'_{N-1} x (P_0 - P_1) ]

where MK' swaps inputs 0 <-> 1 on every party.  With ``a = (P_0 + P_1)/2``
and ``b = (P_0 - P_1)/2`` for the new party, one step is the map
``(m, m') -> (a m + b m', a m' - b m)`` that ``correlators._forward_sweep``
runs numerically, here on exact coefficients with ``m'`` the input-swapped
``m``; one step from the seed gives CHSH, two give Mermin.  The tests compare
the result against the paper's odd-N closed form (Hamming-weight index set,
signs ``(-1)**((N-1)/4 - H(x)/2)``).  Coefficients are stored as
``fractions.Fraction`` so term-set comparisons are decidable exactly; every
constructed expression is validated against the counts

    #terms = 2**(2*floor(N/2)),   normalization = 2**floor(N/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

BitString = tuple[int, ...]


@dataclass(frozen=True)
class BellTerm:
    """One summand: ``coefficient * <P_{x_1}^1 x ... x P_{x_N}^N>``."""

    coefficient: Fraction
    inputs: BitString

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("BellTerm coefficient must be nonzero")
        if any(b not in (0, 1) for b in self.inputs):
            raise ValueError(f"inputs must be bits, got {self.inputs}")


@dataclass(frozen=True)
class BellExpression:
    """Signed, normalized combination of per-party input choices."""

    n_parties: int
    terms: tuple[BellTerm, ...]
    normalization: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        n = self.n_parties
        expected_terms = expected_term_count(n)
        expected_norm = expected_normalization(n)
        if len(self.terms) != expected_terms:
            raise ValueError(
                f"N={n}: expected {expected_terms} terms, got {len(self.terms)}"
            )
        if self.normalization != expected_norm:
            raise ValueError(
                f"N={n}: expected normalization {expected_norm},"
                f" got {self.normalization}"
            )
        inputs = [t.inputs for t in self.terms]
        if len(set(inputs)) != len(inputs):
            raise ValueError("duplicate input strings in Bell expression")
        if any(len(x) != n for x in inputs):
            raise ValueError("term input length does not match party count")
        total = sum(abs(t.coefficient) for t in self.terms)
        if total != Fraction(expected_terms, expected_norm):
            raise ValueError(
                f"N={n}: sum of |coefficients| is {total},"
                f" expected {Fraction(expected_terms, expected_norm)}"
            )

    def as_dict(self) -> dict[BitString, Fraction]:
        return {t.inputs: t.coefficient for t in self.terms}


def expected_term_count(n: int) -> int:
    return 2 ** (2 * (n // 2))


def expected_normalization(n: int) -> int:
    return 2 ** (n // 2)


def _swapped(x: BitString) -> BitString:
    """x with inputs 0 <-> 1 swapped on every party."""
    return tuple(1 - b for b in x)


def mabk_recursion_step(expr: BellExpression) -> BellExpression:
    """Extend an N-1 party expression to N parties by one recursion step.

    The new party's input 0 carries ``(m + m')/2`` and its input 1
    ``(m - m')/2``, with ``m'[x] = m[swapped x]``.  Raises if the result
    violates the term-count/normalization invariants, which would signal a
    wrong recursion variant.
    """
    n = expr.n_parties + 1
    half_m = {t.inputs: t.coefficient / 2 for t in expr.terms}
    terms = []
    for x in sorted(half_m.keys() | {_swapped(x) for x in half_m}):
        c, c_swapped = half_m.get(x, 0), half_m.get(_swapped(x), 0)
        for bit, coefficient in ((0, c + c_swapped), (1, c - c_swapped)):
            if coefficient:
                terms.append(BellTerm(coefficient, x + (bit,)))
    return BellExpression(n, tuple(terms), expected_normalization(n))


def mabk_expression(n: int) -> BellExpression:
    """MABK expression for any n >= 2: n - 1 recursion steps from ``P_0``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    expr = BellExpression(1, (BellTerm(Fraction(1), (0,)),), 1)
    for _ in range(n - 1):
        expr = mabk_recursion_step(expr)
    return expr
