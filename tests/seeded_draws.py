"""Seeded single draws for the tests: one random state per seed."""

import numpy as np

from retrodict import linalg


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    """Full-rank random state from a normalized Ginibre Gram matrix, the one-seed case of the library's stack."""
    return linalg.random_density_matrices(d, (seed,))[0]


def random_pure_state(d: int, seed: int) -> np.ndarray:
    """Normalized complex Gaussian vector of one seeded generator."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)
