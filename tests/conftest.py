import numpy as np
import pytest

# random_bloch is imported from here by the test modules
from mabkcert.pauli import BlochVector, random_bloch  # noqa: F401


def bloch_with_z(z: float, rng: np.random.Generator) -> BlochVector:
    r = np.sqrt(1.0 - z * z)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return BlochVector(float(r * np.cos(angle)), float(r * np.sin(angle)), float(z))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
