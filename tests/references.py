"""Independent references that tests compare framekit's spectral values with."""

import numpy as np


def redundancy_oracle(f, samples: int, seed: int) -> tuple[float, float]:
    """Observed (min, max) of the redundancy function ``x -> sum ||P_i x||^2``
    on ``samples`` seeded Gaussian directions normalized onto the unit
    sphere, evaluated directly from the unit columns of ``f``."""
    x = np.random.default_rng(seed).standard_normal((samples, f.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    coeffs = x @ f.unit_columns
    values = np.einsum("ij,ij->i", coeffs, coeffs)
    return float(values.min()), float(values.max())
