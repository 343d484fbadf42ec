"""Expectation values of product observables on GHZ states.

On the N-party GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` the expectation of
``O_1 x ... x O_N`` (each ``O_i = b_i . sigma``) has the closed form

    Re prod_i (b_i,x + i b_i,y)  +  [N even] prod_i b_i,z,

the off-diagonal ``<0...0|O|1...1>`` element plus the two diagonal ones.
``ghz_expectation_batch`` evaluates it in O(N) per point over any leading
batch axes, and every Bell value in the package goes through it; its gradient
with respect to the Bloch components, ``ghz_expectation_gradient``, drives the
optimizer.  The stabilizer expansion ``tr(rho O) = 2**-N * sum_S tr(O S)``
(``identity_free_elements``) is kept as the oracle the tests compare against.

With the first observable pinned to sigma_z its transverse factor is exactly
zero, so for odd N every such correlator is exactly ``0.0`` and for even N it
is exactly the product of the other parties' z-components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .mabk import BellExpression
from .pauli import SIGMA_Z, BlochVector, PauliLetter
from .stabilizer import ghz_expansion

_AXIS_INDEX = {PauliLetter.X: 0, PauliLetter.Y: 1, PauliLetter.Z: 2}


@dataclass(frozen=True)
class MeasurementSettings:
    """Two Bloch observables for the first party and for each of the others.

    ``honest=True`` asserts that the first party's input-0 observable is pinned
    to sigma_z exactly (the key-generation setting reused in test rounds).
    """

    alice: tuple[BlochVector, BlochVector]
    bobs: tuple[tuple[BlochVector, BlochVector], ...]
    honest: bool = False

    def __post_init__(self) -> None:
        if self.honest and self.alice[0] != SIGMA_Z:
            raise ValueError("honest settings require A0 = sigma_z exactly")

    @property
    def n_parties(self) -> int:
        return 1 + len(self.bobs)

    def observable(self, party: int, choice: int) -> BlochVector:
        if party == 0:
            return self.alice[choice]
        return self.bobs[party - 1][choice]

    def observables_for(self, inputs: Sequence[int]) -> list[BlochVector]:
        return [self.observable(i, x) for i, x in enumerate(inputs)]

    def negate_party(self, party: int) -> "MeasurementSettings":
        """Flip the sign of both observables of one party (outcome relabeling)."""
        if party == 0:
            return MeasurementSettings(
                (self.alice[0].negated(), self.alice[1].negated()), self.bobs
            )
        bobs = list(self.bobs)
        k = party - 1
        bobs[k] = (bobs[k][0].negated(), bobs[k][1].negated())
        return MeasurementSettings(self.alice, tuple(bobs), self.honest)


@dataclass(frozen=True)
class CorrelatorReport:
    """MABK value of one settings choice together with the relevant bounds."""

    expectations: dict[tuple[int, ...], float]
    mabk_value: float
    bound_gme: float
    bound_theorem1: float | None


@lru_cache(maxsize=None)
def identity_free_elements(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis indices (K, n) and signs (K,) of identity-free stabilizer elements.

    The stabilizer-sum oracle for the closed form: the expectation equals
    ``signs @ prod_i b_i[axes[:, i]]``.  No evaluation path uses it.
    """
    axes = []
    signs = []
    for element in ghz_expansion(n):
        if any(l is PauliLetter.I for l in element.letters):
            continue
        if element.phase_power not in (0, 2):
            raise AssertionError("stabilizer element with imaginary phase")
        axes.append([_AXIS_INDEX[l] for l in element.letters])
        signs.append(1.0 if element.phase_power == 0 else -1.0)
    return np.array(axes, dtype=np.intp), np.array(signs)


def ghz_expectation(n: int, observables: Sequence[BlochVector]) -> float:
    """``< O_1 x ... x O_n >`` on the n-party GHZ state."""
    if len(observables) != n:
        raise ValueError(f"expected {n} observables, got {len(observables)}")
    blochs = np.array([b.as_array() for b in observables])
    return float(ghz_expectation_batch(n, blochs))


def ghz_expectation_batch(n: int, blochs: np.ndarray) -> np.ndarray:
    """Batched expectation for an array of shape (..., n, 3) of Bloch vectors."""
    if blochs.shape[-2:] != (n, 3):
        raise ValueError(f"expected shape (..., {n}, 3), got {blochs.shape}")
    value = np.prod(blochs[..., 0] + 1j * blochs[..., 1], axis=-1).real
    if n % 2 == 0:
        value = value + np.prod(blochs[..., 2], axis=-1)
    return value


def ghz_expectation_gradient(n: int, blochs: np.ndarray) -> np.ndarray:
    """Gradient of ``ghz_expectation_batch``, shaped like ``blochs``.

    Entry ``[..., i, :]`` is the derivative in party i's Bloch vector: the
    product of the other parties' factors, in each of the two products.
    """
    others = _products_of_others(blochs[..., 0] + 1j * blochs[..., 1])
    grad = np.zeros(blochs.shape)
    grad[..., 0] = others.real
    grad[..., 1] = -others.imag
    if n % 2 == 0:
        grad[..., 2] = _products_of_others(blochs[..., 2])
    return grad


def _products_of_others(factors: np.ndarray) -> np.ndarray:
    """Product over the last axis of every factor but one, without division."""
    ones = np.ones_like(factors[..., :1])
    before = np.cumprod(np.concatenate((ones, factors[..., :-1]), axis=-1), axis=-1)
    after = np.cumprod(np.concatenate((ones, factors[..., :0:-1]), axis=-1), axis=-1)
    return before * after[..., ::-1]


def honest_even_formula(n: int, bob_bloch_z: Sequence[float]) -> float:
    """Product of the z-components; the even-N value of ``<sigma_z x B's>``."""
    if n % 2 == 1:
        raise ValueError(f"formula applies to even party counts, got n={n}")
    if len(bob_bloch_z) != n - 1:
        raise ValueError(f"expected {n - 1} z-components, got {len(bob_bloch_z)}")
    return math.prod(bob_bloch_z)


def gme_bound(n: int, m: int) -> float:
    """MABK bound ``2**((m-1)/2)`` for entanglement depth m among n parties."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return 2.0 ** ((m - 1) / 2)


def theorem1_bound(n: int) -> float:
    """Honest-implementation cap ``2**((n-3)/2)`` for odd n (half the terms vanish)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    return 2.0 ** ((n - 3) / 2)


def mabk_value(expr: BellExpression, settings: MeasurementSettings) -> CorrelatorReport:
    """Evaluate a Bell expression on the GHZ state with the given settings."""
    n = expr.n_parties
    if settings.n_parties != n:
        raise ValueError(
            f"settings have {settings.n_parties} parties, expression has {n}"
        )
    expectations: dict[tuple[int, ...], float] = {}
    total = 0.0
    for term in expr.terms:
        value = ghz_expectation(n, settings.observables_for(term.inputs))
        expectations[term.inputs] = value
        total += float(term.coefficient) * value
    return CorrelatorReport(
        expectations=expectations,
        mabk_value=abs(total),
        bound_gme=gme_bound(n, n - 1),
        bound_theorem1=theorem1_bound(n) if n % 2 == 1 else None,
    )
