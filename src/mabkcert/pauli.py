"""Exact multi-qubit Pauli algebra with integer phase tracking.

Conventions used throughout the package:

* A Pauli word is stored as an overall phase ``i**phase_power`` (``phase_power``
  an integer mod 4) times an ordered tuple of single-qubit letters.  Qubit 0 is
  the leftmost letter.
* Single-letter products follow ``s_j s_k = delta_jk * 1 + i * sum_l eps_jkl s_l``
  with (X, Y, Z) = (1, 2, 3); the Levi-Civita sign is computed, not tabulated.
* Dense matrices are built by successive ``np.kron`` with qubit 0 as the most
  significant bit, so basis state ``|b0 b1 ... >`` has column index
  ``sum(b_i * 2**(N-1-i))``.  Tests rely on this ordering bit-for-bit.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

DENSE_QUBIT_LIMIT = 12


class PauliLetter(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __repr__(self) -> str:  # compact reprs keep test output readable
        return self.value


_AXIS_OF = {PauliLetter.X: 1, PauliLetter.Y: 2, PauliLetter.Z: 3}
_LETTER_OF_AXIS = {1: PauliLetter.X, 2: PauliLetter.Y, 3: PauliLetter.Z}

_SINGLE_QUBIT_MATRIX = {
    PauliLetter.I: np.eye(2, dtype=complex),
    PauliLetter.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLetter.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliLetter.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}
# sigma_x, sigma_y, sigma_z on the first axis: tensordot(b, _SIGMA, 1) is b . sigma
_SIGMA = np.stack(
    [_SINGLE_QUBIT_MATRIX[l] for l in (PauliLetter.X, PauliLetter.Y, PauliLetter.Z)]
)


def _levi_civita(j: int, k: int, l: int) -> int:
    if (j, k, l) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (j, k, l) in ((3, 2, 1), (1, 3, 2), (2, 1, 3)):
        return -1
    return 0


def letter_mul(a: PauliLetter, b: PauliLetter) -> tuple[int, PauliLetter]:
    """Multiply two Pauli letters, returning ``(k, c)`` with ``a*b = i**k * c``."""
    if a is PauliLetter.I:
        return 0, b
    if b is PauliLetter.I:
        return 0, a
    if a is b:
        return 0, PauliLetter.I
    j, k = _AXIS_OF[a], _AXIS_OF[b]
    l = 6 - j - k  # the remaining axis
    eps = _levi_civita(j, k, l)
    # i * eps = i**1 for eps=+1, i**3 for eps=-1
    return (1 if eps == 1 else 3), _LETTER_OF_AXIS[l]


@dataclass(frozen=True)
class PauliString:
    """Phase-tracked word of Pauli letters: ``i**phase_power * (L_0 x L_1 x ...)``."""

    phase_power: int
    letters: tuple[PauliLetter, ...]

    def __post_init__(self) -> None:
        if len(self.letters) < 1:
            raise ValueError("PauliString needs at least one letter")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_hermitian(self) -> bool:
        return self.phase_power in (0, 2)

    def __str__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase_power]
        return prefix + "".join(l.value for l in self.letters)


def pauli_string(word: str, phase_power: int = 0) -> PauliString:
    """Build a PauliString from a letter string such as ``"XZI"``."""
    return PauliString(phase_power, tuple(PauliLetter(ch) for ch in word))


def identity_string(n: int) -> PauliString:
    return PauliString(0, (PauliLetter.I,) * n)


def string_mul(p: PauliString, q: PauliString) -> PauliString:
    """Letterwise product; result equals the matrix product of the operands."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(
            f"length mismatch: {p.n_qubits} vs {q.n_qubits} qubits"
        )
    phase = p.phase_power + q.phase_power
    letters = []
    for a, b in zip(p.letters, q.letters):
        k, c = letter_mul(a, b)
        phase += k
        letters.append(c)
    return PauliString(phase % 4, tuple(letters))


def trace_coeff(p: PauliString) -> int:
    """Trace of the represented operator: ``(+-1) * 2**N`` for identity words, else 0.

    A word with all-identity letters and an odd phase power would have the
    non-real trace ``(+-i) * 2**N``; that cannot arise from products of
    Hermitian words and is flagged as a logic error.
    """
    if any(l is not PauliLetter.I for l in p.letters):
        return 0
    if p.phase_power % 2 == 1:
        raise ValueError(
            f"non-real trace: identity word with phase i**{p.phase_power}"
        )
    sign = 1 if p.phase_power == 0 else -1
    return sign * 2**p.n_qubits


def dense_matrix(p: PauliString) -> np.ndarray:
    """Dense ``2**N x 2**N`` matrix of ``p`` (test oracle; N <= 12 guard)."""
    if p.n_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(
            f"dense matrix guard: {p.n_qubits} qubits exceeds {DENSE_QUBIT_LIMIT}"
        )
    m = np.array([[1.0 + 0.0j]])
    for letter in p.letters:
        m = np.kron(m, _SINGLE_QUBIT_MATRIX[letter])
    return (1j**p.phase_power) * m


def observable_product_matrix(blochs: np.ndarray) -> np.ndarray:
    """Dense Kronecker product over the rows of an (n, 3) array of ``b[i] . sigma``."""
    blochs = np.asarray(blochs, dtype=float)
    if blochs.ndim != 2 or blochs.shape[1] != 3:
        raise ValueError(f"expected shape (n, 3), got {blochs.shape}")
    m = np.array([[1.0 + 0.0j]])
    for b in blochs:
        m = np.kron(m, np.tensordot(b, _SIGMA, axes=1))
    return m
