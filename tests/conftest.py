import numpy as np
import pytest

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
