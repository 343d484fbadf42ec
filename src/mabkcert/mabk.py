"""MABK Bell expressions with exact dyadic coefficients.

For odd N the expression is built directly from its closed form: terms run
over the bit strings with Hamming weight congruent to ``(N-1)/2`` mod 2, the
term for input string x carries sign ``(-1)**((N-1)/4 - H(x)/2)``, and every
coefficient includes the normalization ``1 / 2**((N-1)/2)``.  Even N is
produced by one step of the standard recursion

    MK_N = 1/2 * [ MK_{N-1} x (P_0 + P_1)  +  MK'_{N-1} x (P_0 - P_1) ]

where MK' swaps inputs 0 <-> 1 on every party.  Coefficients are stored as
``fractions.Fraction`` so term-set comparisons are decidable exactly; every
constructed expression is validated against the counts

    #terms = 2**(2*floor(N/2)),   normalization = 2**floor(N/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


def hamming_weight(x: Sequence[int]) -> int:
    """Number of 1-bits in x."""
    return sum(1 for b in x if b == 1)


def mabk_index_set(n: int) -> set[BitString]:
    """Bit strings of length n with Hamming weight = (n-1)/2 mod 2 (n odd)."""
    _require_odd(n)
    parity = ((n - 1) // 2) % 2
    out = set()
    for k in range(2**n):
        x = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        if hamming_weight(x) % 2 == parity:
            out.add(x)
    return out


def mabk_sign(n: int, x: BitString) -> int:
    """Sign ``(-1)**xi`` with ``xi = (n-1)/4 - H(x)/2``; xi must be an integer."""
    _require_odd(n)
    xi = Fraction(n - 1, 4) - Fraction(hamming_weight(x), 2)
    if xi.denominator != 1:
        raise ValueError(
            f"non-integer exponent {xi} for x={x}: string not in the index set"
        )
    return -1 if xi.numerator % 2 else 1


def mabk_explicit(n: int) -> BellExpression:
    """Closed-form MABK expression for odd n >= 3."""
    _require_odd(n)
    norm = 2 ** ((n - 1) // 2)
    terms = tuple(
        BellTerm(Fraction(mabk_sign(n, x), norm), x)
        for x in sorted(mabk_index_set(n))
    )
    return BellExpression(n, terms, norm)


def chsh_seed() -> BellExpression:
    """The N=2 seed ``(P0P0 + P0P1 + P1P0 - P1P1)/2`` used by the recursion."""
    half = Fraction(1, 2)
    terms = (
        BellTerm(half, (0, 0)),
        BellTerm(half, (0, 1)),
        BellTerm(half, (1, 0)),
        BellTerm(-half, (1, 1)),
    )
    return BellExpression(2, terms, 2)


def _swapped_inputs(expr: BellExpression) -> dict[BitString, Fraction]:
    """Coefficients of the expression with inputs 0 <-> 1 swapped on every party."""
    return {
        tuple(1 - b for b in t.inputs): t.coefficient for t in expr.terms
    }


def mabk_recursion_step(expr: BellExpression) -> BellExpression:
    """Extend an N-1 party expression to N parties by one recursion step.

    Raises if the result violates the term-count/normalization invariants,
    which would signal a wrong recursion variant.
    """
    n = expr.n_parties + 1
    half = Fraction(1, 2)
    plain = expr.as_dict()
    swapped = _swapped_inputs(expr)
    combined: dict[BitString, Fraction] = {}
    for x, c in plain.items():
        combined[x + (0,)] = combined.get(x + (0,), Fraction(0)) + half * c
        combined[x + (1,)] = combined.get(x + (1,), Fraction(0)) + half * c
    for x, c in swapped.items():
        combined[x + (0,)] = combined.get(x + (0,), Fraction(0)) + half * c
        combined[x + (1,)] = combined.get(x + (1,), Fraction(0)) - half * c
    terms = tuple(
        BellTerm(c, x) for x, c in sorted(combined.items()) if c != 0
    )
    return BellExpression(n, terms, expected_normalization(n))


def mabk_expression(n: int) -> BellExpression:
    """MABK expression for any n >= 2: explicit for odd n, recursion for even."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return chsh_seed()
    if n % 2 == 1:
        return mabk_explicit(n)
    return mabk_recursion_step(mabk_expression(n - 1))


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
