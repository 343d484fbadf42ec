"""GHZ states as stabilizer-group expansions, plus dense-matrix oracles.

The N-qubit GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` is fixed by the group
generated by ``X`` on every qubit together with the nearest-neighbour ``ZZ``
pairs.  Its projector equals the normalized sum of all ``2**N`` group elements;
for the bit string ``s = (s_1, ..., s_N)`` the element is

    (X**s_1 on every qubit) * Z-word with exponents z = (s_2, s_2+s_3, ...,
    s_{N-1}+s_N, s_N), exponents reduced mod 2.

``ghz_expansion`` writes each element in closed form as ``(sign, word)``:
``word`` is a string over ``IXYZ``, qubit 0 leftmost, whose letter j is
``"IZXY"[2*s_1 + z_j]``.  A qubit that carries both factors holds
``XZ = -iY``, and the exponents count every ``s_k`` (k >= 2) twice, so the
number of Ys is even and the sign is ``(-1)**(#Y/2)``.

Dense matrices are built by successive ``np.kron`` with qubit 0 as the most
significant bit, so basis state ``|b0 b1 ... >`` has column index
``sum(b_i * 2**(N-1-i))``.  Tests rely on this ordering bit-for-bit.
"""

from __future__ import annotations

import itertools

import numpy as np

DENSE_QUBIT_LIMIT = 12

_LETTER_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# sigma_x, sigma_y, sigma_z on the first axis: tensordot(b, _SIGMA, 1) is b . sigma
_SIGMA = np.stack([_LETTER_MATRIX[letter] for letter in "XYZ"])


def ghz_expansion(n: int) -> list[tuple[int, str]]:
    """All ``2**N`` stabilizer elements as ``(sign, word)``, in binary order of s."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    elements = []
    for s in itertools.product((0, 1), repeat=n):
        z = (s[1], *((s[j] + s[j + 1]) % 2 for j in range(1, n - 1)), s[n - 1])
        word = "".join("IZXY"[2 * s[0] + e] for e in z)
        elements.append(((-1) ** (word.count("Y") // 2), word))
    return elements


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
