"""The GHZ state as a stabilizer-group expansion, in closed form.

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
"""

from __future__ import annotations

import itertools


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
