"""MABK Bell expressions with exact dyadic coefficients.

An expression is its coefficient map ``{inputs: coefficient}``: the summand
``c * <P_{x_1}^1 x ... x P_{x_N}^N>`` for each input string ``x`` with a
nonzero coefficient ``c``.  Every expression is built by the
Belinskii-Klyshko recursion, started from the one-party seed ``MK_1 = P_0``:

    MK_N = 1/2 * [ MK_{N-1} x (P_0 + P_1)  +  MK'_{N-1} x (P_0 - P_1) ]

where MK' swaps inputs 0 <-> 1 on every party.  With ``a = (P_0 + P_1)/2``
and ``b = (P_0 - P_1)/2`` for the new party, one step is the map
``(m, m') -> (a m + b m', a m' - b m)`` that ``correlators._forward_sweep``
runs numerically, here on exact coefficients with ``m'`` the input-swapped
``m``; one step from the seed gives CHSH, two give Mermin.  The tests compare
the result against the paper's odd-N closed form (Hamming-weight index set,
signs ``(-1)**((N-1)/4 - H(x)/2)``).  Coefficients are stored as
``fractions.Fraction`` so term-set comparisons are decidable exactly.  The
counts every MABK expression has,

    #terms = 2**(2*floor(N/2)),   normalization = 2**floor(N/2),

are checked by the verdicts of ``mabkcert mabk-show``.
"""

from __future__ import annotations

from fractions import Fraction

BitString = tuple[int, ...]


def expected_term_count(n: int) -> int:
    return 2 ** (2 * (n // 2))


def expected_normalization(n: int) -> int:
    return 2 ** (n // 2)


def _swapped(x: BitString) -> BitString:
    """x with inputs 0 <-> 1 swapped on every party."""
    return tuple(1 - b for b in x)


def mabk_recursion_step(expr: dict[BitString, Fraction]) -> dict[BitString, Fraction]:
    """Extend an N-1 party expression to N parties by one recursion step.

    The new party's input 0 carries ``(m + m')/2`` and its input 1
    ``(m - m')/2``, with ``m'[x] = m[swapped x]``.  The result's keys are in
    sorted order.
    """
    half_m = {x: c / 2 for x, c in expr.items()}
    out = {}
    for x in sorted(half_m.keys() | {_swapped(x) for x in half_m}):
        c, c_swapped = half_m.get(x, 0), half_m.get(_swapped(x), 0)
        for bit, coefficient in ((0, c + c_swapped), (1, c - c_swapped)):
            if coefficient:
                out[x + (bit,)] = coefficient
    return out


def mabk_expression(n: int) -> dict[BitString, Fraction]:
    """MABK expression for any n >= 2: n - 1 recursion steps from ``P_0``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    expr = {(0,): Fraction(1)}
    for _ in range(n - 1):
        expr = mabk_recursion_step(expr)
    return expr
