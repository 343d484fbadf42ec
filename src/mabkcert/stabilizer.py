"""GHZ states as stabilizer-group expansions, plus a dense density-matrix oracle.

The N-qubit GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` is fixed by the group
generated by ``X`` on every qubit together with the nearest-neighbour ``ZZ``
pairs.  Its projector equals the normalized sum of all ``2**N`` group elements;
for the bit string ``s = (s_1, ..., s_N)`` the element is

    (X**s_1 on every qubit) * Z-word with exponents (s_2, s_2+s_3, ...,
    s_{N-1}+s_N, s_N), exponents reduced mod 2,

with the sign of each element produced by the Pauli product itself rather than
a hand-derived table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .pauli import DENSE_QUBIT_LIMIT, PauliLetter, PauliString, dense_matrix, string_mul


def ghz_generators(n: int) -> list[PauliString]:
    """The N stabilizer generators: X on every qubit, and Z_{j-1} Z_j for j >= 2."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    gens = [PauliString(0, (PauliLetter.X,) * n)]
    for j in range(2, n + 1):
        letters = [PauliLetter.I] * n
        letters[j - 2] = PauliLetter.Z
        letters[j - 1] = PauliLetter.Z
        gens.append(PauliString(0, tuple(letters)))
    return gens


def _z_exponents(s: tuple[int, ...]) -> list[int]:
    n = len(s)
    if n == 2:
        return [s[1], s[1]]
    exps = [s[1]]
    exps.extend((s[j] + s[j + 1]) % 2 for j in range(1, n - 1))
    exps.append(s[n - 1])
    return exps


def ghz_expansion(n: int) -> list[PauliString]:
    """All ``2**N`` stabilizer elements, one per bit string s, phases exact."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    elements = []
    for s in itertools.product((0, 1), repeat=n):
        x_part = PauliString(
            0, tuple(PauliLetter.X if s[0] else PauliLetter.I for _ in range(n))
        )
        z_part = PauliString(
            0, tuple(PauliLetter.Z if e else PauliLetter.I for e in _z_exponents(s))
        )
        elements.append(string_mul(x_part, z_part))
    return elements


def ghz_vector(n: int) -> np.ndarray:
    """State vector ``(|0...0> + |1...1>)/sqrt(2)`` in the package's bit order."""
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense guard: {n} qubits exceeds {DENSE_QUBIT_LIMIT}")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def ghz_dense(n: int) -> np.ndarray:
    """Rank-1 GHZ projector as a dense ``2**N x 2**N`` matrix."""
    v = ghz_vector(n)
    return np.outer(v, v.conj())


def expansion_sum_dense(n: int) -> np.ndarray:
    """``2**-N`` times the sum of all expansion elements (must equal ghz_dense)."""
    total = sum(dense_matrix(s) for s in ghz_expansion(n))
    return total / 2**n
