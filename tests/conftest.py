from fractions import Fraction

import numpy as np
import pytest

from mabkcert.mabk import BitString

# A Bloch vector is a float array (x, y, z); Z is sigma_z's.
Z = (0.0, 0.0, 1.0)


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit Bloch vector (a normalized Gaussian 3-vector)."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def bloch_with_z(z: float, rng: np.random.Generator) -> np.ndarray:
    r = np.sqrt(1.0 - z * z)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return np.array((r * np.cos(angle), r * np.sin(angle), z))


def hamming_weight(x: BitString) -> int:
    """Number of 1-bits in x."""
    return sum(1 for b in x if b == 1)


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")


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


def mabk_explicit(n: int) -> dict[BitString, Fraction]:
    """The paper's closed-form MABK expression for odd n >= 3.

    The oracle for ``mabk.mabk_expression``, which builds every N by the
    Belinskii-Klyshko recursion instead.
    """
    _require_odd(n)
    norm = 2 ** ((n - 1) // 2)
    return {x: Fraction(mabk_sign(n, x), norm) for x in sorted(mabk_index_set(n))}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
