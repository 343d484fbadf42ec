"""Letter and string algebra against the dense matrix oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mabkcert.pauli import (
    PauliLetter,
    PauliString,
    dense_matrix,
    identity_string,
    letter_mul,
    observable_product_matrix,
    pauli_string,
    string_mul,
    trace_coeff,
)

LETTERS = list(PauliLetter)


def test_letter_products():
    assert letter_mul(PauliLetter.X, PauliLetter.Y) == (1, PauliLetter.Z)
    assert letter_mul(PauliLetter.Z, PauliLetter.Z) == (0, PauliLetter.I)
    assert letter_mul(PauliLetter.X, PauliLetter.I) == (0, PauliLetter.X)
    assert letter_mul(PauliLetter.Y, PauliLetter.X) == (3, PauliLetter.Z)


def test_letter_mul_matches_dense_for_all_pairs():
    for a, b in itertools.product(LETTERS, repeat=2):
        k, c = letter_mul(a, b)
        lhs = dense_matrix(PauliString(0, (a,))) @ dense_matrix(PauliString(0, (b,)))
        rhs = dense_matrix(PauliString(k, (c,)))
        assert np.allclose(lhs, rhs, atol=1e-15)


def test_letter_mul_associative_all_64_triples():
    def mul(state, letter):
        k, c = letter_mul(state[1], letter)
        return (state[0] + k) % 4, c

    for a, b, c in itertools.product(LETTERS, repeat=3):
        k_ab, ab = letter_mul(a, b)
        left = mul((k_ab, ab), c)
        k_bc, bc = letter_mul(b, c)
        k_abc, abc = letter_mul(a, bc)
        right = ((k_bc + k_abc) % 4, abc)
        assert left == right


def test_string_mul_examples():
    assert string_mul(pauli_string("XZ"), pauli_string("ZX")) == pauli_string("YY")
    assert string_mul(pauli_string("ZZ"), pauli_string("ZZ")) == identity_string(2)
    assert string_mul(pauli_string("XXX"), pauli_string("ZZI")) == pauli_string(
        "YYX", phase_power=2
    )


def test_string_mul_examples_against_dense():
    for p, q in [
        (pauli_string("XZ"), pauli_string("ZX")),
        (pauli_string("XXX"), pauli_string("ZZI")),
    ]:
        assert np.allclose(
            dense_matrix(string_mul(p, q)),
            dense_matrix(p) @ dense_matrix(q),
            atol=1e-15,
        )


def test_string_mul_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        string_mul(pauli_string("XX"), pauli_string("X"))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.integers(0, 3),
            st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n),
            st.integers(0, 3),
            st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n),
        )
    )
)
def test_string_mul_matches_dense(data):
    kp, lp, kq, lq = data
    p = PauliString(kp, tuple(lp))
    q = PauliString(kq, tuple(lq))
    assert np.allclose(
        dense_matrix(string_mul(p, q)),
        dense_matrix(p) @ dense_matrix(q),
        atol=1e-12,
    )


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.integers(0, 3),
            st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n),
        )
    )
)
def test_squares_are_identity_with_real_phase(data):
    k, letters = data
    p = PauliString(k, tuple(letters))
    sq = string_mul(p, p)
    assert sq.letters == identity_string(p.n_qubits).letters
    assert sq.phase_power in (0, 2)
    if p.is_hermitian:
        assert sq.phase_power == 0


def test_trace_coeff():
    assert trace_coeff(identity_string(3)) == 8
    assert trace_coeff(pauli_string("IXI")) == 0
    assert trace_coeff(pauli_string("YZ")) == 0
    assert trace_coeff(PauliString(2, (PauliLetter.I, PauliLetter.I))) == -4


def test_trace_reproduces_single_qubit_delta_rule():
    z = pauli_string("Z")
    x = pauli_string("X")
    # tr(Z * X^s1 * Z^s2) = 2 only when (s1, s2) = (0, 1)
    for s1 in (0, 1):
        for s2 in (0, 1):
            word = z
            if s1:
                word = string_mul(word, x)
            if s2:
                word = string_mul(word, z)
            expected = 2 if (s1, s2) == (0, 1) else 0
            assert trace_coeff(word) == expected


def test_trace_flags_non_real_identity_phase():
    with pytest.raises(ValueError, match="non-real trace"):
        trace_coeff(PauliString(1, (PauliLetter.I,)))


def test_dense_single_qubit_conventions():
    assert np.array_equal(dense_matrix(pauli_string("Z")), np.diag([1.0 + 0j, -1.0]))
    assert np.allclose(
        dense_matrix(pauli_string("Y")), np.array([[0, -1j], [1j, 0]])
    )
    xx = dense_matrix(pauli_string("XX"))
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.array_equal(xx @ ket00, np.array([0, 0, 0, 1], dtype=complex))


def test_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        dense_matrix(identity_string(13))


def test_bloch_components_and_matrix():
    m = observable_product_matrix([(0.6, 0.0, 0.8)])
    components = [np.trace(m @ dense_matrix(pauli_string(l))) / 2 for l in "IXYZ"]
    assert np.allclose(components, [0.0, 0.6, 0.0, 0.8], atol=1e-15)
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(2))
    # one row per party, qubit 0 leftmost
    assert np.array_equal(
        observable_product_matrix([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]),
        dense_matrix(pauli_string("XZ")),
    )
    with pytest.raises(ValueError, match="shape"):
        observable_product_matrix((0.0, 0.0, 1.0))
