from fractions import Fraction

import numpy as np
import pytest

from mabkcert.mabk import BitString
from mabkcert.stabilizer import ghz_expansion

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


# Dense oracles.  Matrices are built by successive ``np.kron`` with qubit 0
# as the most significant bit, so basis state ``|b0 b1 ... >`` has column
# index ``sum(b_i * 2**(N-1-i))``.  Tests rely on this ordering bit-for-bit.

DENSE_QUBIT_LIMIT = 12

_LETTER_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# sigma_x, sigma_y, sigma_z on the first axis: tensordot(b, _SIGMA, 1) is b . sigma
_SIGMA = np.stack([_LETTER_MATRIX[letter] for letter in "XYZ"])


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The square ``blocks`` along the diagonal of one zero matrix."""
    ends = np.cumsum([len(b) for b in blocks])
    out = np.zeros((ends[-1], ends[-1]))
    for end, b in zip(ends, blocks):
        out[end - len(b) : end, end - len(b) : end] = b
    return out


def _dense_guard(n: int) -> None:
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense guard: {n} qubits exceeds {DENSE_QUBIT_LIMIT}")


def dense_matrix(word: str) -> np.ndarray:
    """Dense ``2**N x 2**N`` matrix of a Pauli word such as ``"XZI"``."""
    _dense_guard(len(word))
    m = np.array([[1.0 + 0.0j]])
    for letter in word:
        m = np.kron(m, _LETTER_MATRIX[letter])
    return m


def observable_product_matrix(blochs: np.ndarray) -> np.ndarray:
    """Dense Kronecker product over the rows of an (n, 3) array of ``b[i] . sigma``."""
    blochs = np.asarray(blochs, dtype=float)
    if blochs.ndim != 2 or blochs.shape[1] != 3:
        raise ValueError(f"expected shape (n, 3), got {blochs.shape}")
    m = np.array([[1.0 + 0.0j]])
    for b in blochs:
        m = np.kron(m, np.tensordot(b, _SIGMA, axes=1))
    return m


def ghz_vector(n: int) -> np.ndarray:
    """State vector ``(|0...0> + |1...1>)/sqrt(2)`` in the package's bit order."""
    _dense_guard(n)
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def ghz_dense(n: int) -> np.ndarray:
    """Rank-1 GHZ projector as a dense ``2**N x 2**N`` matrix."""
    v = ghz_vector(n)
    return np.outer(v, v.conj())


def expansion_sum_dense(n: int) -> np.ndarray:
    """``2**-N`` times the signed sum of the expansion (must equal ghz_dense)."""
    total = sum(sign * dense_matrix(word) for sign, word in ghz_expansion(n))
    return total / 2**n


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
