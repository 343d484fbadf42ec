"""Expectation values of product observables on GHZ states.

On the N-party GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` the expectation of
``O_1 x ... x O_N`` (each ``O_i = b_i . sigma``) has the closed form

    Re prod_i (b_i,x + i b_i,y)  +  [N even] prod_i b_i,z,

the off-diagonal ``<0...0|O|1...1>`` element plus the two diagonal ones.
``ghz_expectation_batch`` evaluates it in O(N) per point over any leading
batch axes, and every Bell value in the package goes through it.  A Bloch
vector is always a float array whose last axis holds (x, y, z).

A settings choice is a float array of shape (..., N, 2, 3) whose entry
``[..., i, x]`` is party i's Bloch vector for input x.  ``mabk_value`` gathers
each MABK term's Bloch vectors from it, calls the kernel and weights the terms
by their coefficients; ``mabk_gradient`` does the same with the kernel's
gradient ``ghz_expectation_gradient`` and drives the optimizer.  Only this
module knows the term inputs and coefficients, cached once per N.  The
stabilizer expansion ``tr(rho O) = 2**-N * sum_S tr(O S)``
(``identity_free_elements``) is kept as the oracle the tests compare against.

With the first observable pinned to sigma_z its transverse factor is exactly
zero, so for odd N every such correlator is exactly ``0.0`` and for even N it
is exactly the product of the other parties' z-components
(``honest_even_formula``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .mabk import mabk_expression
from .pauli import PauliLetter
from .stabilizer import ghz_expansion

_AXIS_INDEX = {PauliLetter.X: 0, PauliLetter.Y: 1, PauliLetter.Z: 2}


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


def ghz_expectation(n: int, blochs: np.ndarray) -> float:
    """``< O_1 x ... x O_n >`` on the n-party GHZ state for one (n, 3) array."""
    blochs = np.asarray(blochs, dtype=float)
    if blochs.shape != (n, 3):
        raise ValueError(f"expected shape ({n}, 3), got {blochs.shape}")
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


def honest_even_formula(n: int, bob_z: np.ndarray) -> np.ndarray:
    """Product over the last axis of the other parties' z-components.

    The even-N value of ``<sigma_z x B_2 x ... x B_n>``, batched over leading axes.
    """
    if n % 2 == 1:
        raise ValueError(f"formula applies to even party counts, got n={n}")
    bob_z = np.asarray(bob_z, dtype=float)
    if bob_z.shape[-1:] != (n - 1,):
        raise ValueError(f"expected {n - 1} z-components, got shape {bob_z.shape}")
    return np.prod(bob_z, axis=-1)


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


@lru_cache(maxsize=None)
def _mabk_terms(n: int) -> tuple[np.ndarray, ...]:
    """Party index (1, n), term inputs (T, n), coefficients (T,), weights (T, n, 2).

    ``settings[..., party, inputs, :]`` gathers each term's Bloch vectors, and
    ``weights[t, i, x]`` is the coefficient of term t where party i has input
    x, else 0.  Every call shares these arrays, so they are read-only.
    """
    expr = mabk_expression(n)
    party = np.arange(n)[None, :]
    inputs = np.array([t.inputs for t in expr.terms], dtype=np.intp)
    coeffs = np.array([float(t.coefficient) for t in expr.terms])
    weights = (inputs[..., None] == np.arange(2)) * coeffs[:, None, None]
    for a in (party, inputs, coeffs, weights):
        a.flags.writeable = False
    return party, inputs, coeffs, weights


def _party_count(settings: np.ndarray) -> int:
    if settings.ndim < 3 or settings.shape[-2:] != (2, 3) or settings.shape[-3] < 2:
        raise ValueError(
            "settings must have shape (..., parties, 2, 3) with at least 2"
            f" parties, got {settings.shape}"
        )
    return settings.shape[-3]


def mabk_value(settings: np.ndarray) -> np.ndarray:
    """Signed MABK value on the GHZ state, batched over leading axes.

    ``settings[..., i, x]`` is party i's Bloch vector for input x; the Bell
    score is the absolute value of the result.
    """
    n = _party_count(settings)
    party, inputs, coeffs, _ = _mabk_terms(n)
    return ghz_expectation_batch(n, settings[..., party, inputs, :]) @ coeffs


def mabk_gradient(settings: np.ndarray) -> np.ndarray:
    """Gradient of ``mabk_value`` in every Bloch component, shaped like ``settings``."""
    n = _party_count(settings)
    party, inputs, _, weights = _mabk_terms(n)
    per_term = ghz_expectation_gradient(n, settings[..., party, inputs, :])
    return np.einsum("...tic,tix->...ixc", per_term, weights)
