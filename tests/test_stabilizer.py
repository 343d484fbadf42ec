"""Stabilizer expansion of the GHZ state, checked densely."""

import itertools

import numpy as np
import pytest

from mabkcert.pauli import dense_matrix, identity_string, pauli_string, string_mul
from mabkcert.stabilizer import (
    expansion_sum_dense,
    ghz_dense,
    ghz_expansion,
    ghz_generators,
    ghz_vector,
)


def test_generators_n3():
    assert ghz_generators(3) == [
        pauli_string("XXX"),
        pauli_string("ZZI"),
        pauli_string("IZZ"),
    ]


def test_generators_n2():
    assert ghz_generators(2) == [pauli_string("XX"), pauli_string("ZZ")]


def test_generators_n5_index_bookkeeping():
    g4 = ghz_generators(5)[3]
    assert g4 == pauli_string("IIZZI")


def test_generators_reject_small_n():
    with pytest.raises(ValueError):
        ghz_generators(1)


def test_expansion_n3_selected_elements():
    elements = ghz_expansion(3)
    # bit strings enumerate in binary order: s=(1,0,0) is index 4, s=(1,1,1) is 7
    assert elements[0] == identity_string(3)
    assert elements[4] == pauli_string("XXX")
    assert elements[7] == pauli_string("YXY", phase_power=2)


def test_expansion_size_and_real_phases():
    for n in range(2, 7):
        elements = ghz_expansion(n)
        assert len(elements) == 2**n
        assert all(e.phase_power in (0, 2) for e in elements)


def test_expansion_group_closure():
    for n in (2, 3, 4):
        members = set(ghz_expansion(n))
        for a, b in itertools.product(members, repeat=2):
            assert string_mul(a, b) in members


def test_generator_subset_products_reproduce_expansion():
    for n in (2, 3, 4, 5):
        gens = ghz_generators(n)
        products = set()
        for bits in itertools.product((0, 1), repeat=n):
            acc = identity_string(n)
            for g, bit in zip(gens, bits):
                if bit:
                    acc = string_mul(acc, g)
            products.add(acc)
        assert products == set(ghz_expansion(n))


def test_every_element_stabilizes_ghz_vector():
    for n in range(2, 7):
        v = ghz_vector(n)
        for element in ghz_expansion(n):
            assert np.allclose(dense_matrix(element) @ v, v, atol=1e-12)


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


def test_expansion_sum_equals_projector():
    for n in (2, 3, 4):
        assert np.allclose(expansion_sum_dense(n), ghz_dense(n), atol=1e-12)
