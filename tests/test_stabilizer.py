"""Stabilizer expansion of the GHZ state and the dense oracles, checked densely."""

import numpy as np
import pytest

from conftest import (
    dense_matrix,
    expansion_sum_dense,
    ghz_dense,
    ghz_vector,
    observable_product_matrix,
)
from mabkcert.stabilizer import ghz_expansion


def test_expansion_n3_selected_elements():
    elements = ghz_expansion(3)
    # bit strings enumerate in binary order: s=(1,0,0) is index 4, s=(1,1,1) is 7
    assert elements[0] == (1, "III")
    assert elements[4] == (1, "XXX")
    assert elements[7] == (-1, "YXY")


def test_expansion_size_and_real_phases():
    for n in range(2, 7):
        elements = ghz_expansion(n)
        assert len(elements) == 2**n
        assert all(sign in (1, -1) for sign, _ in elements)
    with pytest.raises(ValueError):
        ghz_expansion(1)


def test_expansion_sum_equals_projector():
    # Pauli words are an orthogonal basis, so distinct words whose signed sum
    # is 2**N times the projector fix every letter and every sign; odd N
    # tells X from Y (at even N the X <-> Y swap leaves the sum unchanged)
    for n in range(2, 7):
        words = [word for _, word in ghz_expansion(n)]
        assert len(set(words)) == 2**n
        assert np.allclose(expansion_sum_dense(n), ghz_dense(n), atol=1e-12)


def test_every_element_stabilizes_ghz_vector():
    for n in range(2, 7):
        v = ghz_vector(n)
        for sign, word in ghz_expansion(n):
            assert np.allclose(sign * dense_matrix(word) @ v, v, atol=1e-12)


def test_ghz_dense_n2_corners():
    rho = ghz_dense(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_ghz_dense_pure_state():
    rho = ghz_dense(3)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-14


def test_dense_single_qubit_conventions():
    assert np.array_equal(dense_matrix("Z"), np.diag([1.0 + 0j, -1.0]))
    assert np.allclose(dense_matrix("Y"), np.array([[0, -1j], [1j, 0]]))
    xx = dense_matrix("XX")
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.array_equal(xx @ ket00, np.array([0, 0, 0, 1], dtype=complex))


def test_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        dense_matrix("I" * 13)
    with pytest.raises(ValueError, match="guard"):
        ghz_vector(13)


def test_bloch_components_and_matrix():
    m = observable_product_matrix([(0.6, 0.0, 0.8)])
    components = [np.trace(m @ dense_matrix(letter)) / 2 for letter in "IXYZ"]
    assert np.allclose(components, [0.0, 0.6, 0.0, 0.8], atol=1e-15)
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(2))
    # one row per party, qubit 0 leftmost
    assert np.array_equal(
        observable_product_matrix([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]),
        dense_matrix("XZ"),
    )
    with pytest.raises(ValueError, match="shape"):
        observable_product_matrix((0.0, 0.0, 1.0))
