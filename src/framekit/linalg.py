"""Dense spectral and factorization primitives.

Matrices are plain float64 numpy arrays. Everything here is pure and
deterministic.  The six functions below (two input validators, three
spectra, and the rank-deciding ``orthonormalize``) hold the shared
tolerances.  Factorizations that decide no rank call ``np.linalg``
directly: the stacked SVDs of ``perturb._GeodesicPath`` (one per rank
chunk of tangents) and of ``angles._inf_sup_cos`` and ``angles._gap`` (one
per stack of member bases), the complement basis in ``angles`` and the
random rotation in ``theorems``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

# Relative rank tolerance used wherever a rank decision is made.
RANK_TOL = 1e-10


def as_matrix(m, *, square: bool = False) -> np.ndarray:
    """Validate and convert input to a 2-D float64 array.

    Raises DimensionError for non-2-D (or non-square when required) input
    and NumericError for NaN/Inf entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    return a


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert input to a 1-D float64 array of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise NumericError("vector contains non-finite entries")
    return v


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    The input is symmetrized via (m + m^T)/2 before decomposition; frame
    operators are symmetric only up to roundoff, so callers are expected
    to pass matrices with symmetry defect below ~1e-10.
    """
    a = as_matrix(m, square=True)
    sym = 0.5 * (a + a.T)
    return np.linalg.eigvalsh(sym)


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, sorted descending (length min(rows, cols))."""
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(min(a.shape))
    return np.linalg.svd(a, compute_uv=False)


def operator_norm(m) -> float:
    """Spectral norm: the largest singular value (0 for empty or zero matrices)."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def orthonormalize(vectors, tol: float = RANK_TOL, dim: int | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of ``vectors`` via Householder QR.

    The vectors are taken greedily in input order: one is dropped when its
    residual against the vectors already kept has norm <= tol times the
    largest input norm, so the rank does not change when the input is
    rescaled.  That residual is ``|R_jj|`` in the QR factorization of the
    kept columns; a column failing the rule is dropped and the rest is
    factored again, so full-rank input takes one QR.  Columns are signed
    so that ``diag R > 0``, which makes the basis the modified
    Gram-Schmidt basis of the kept vectors, up to rounding.

    Parameters
    ----------
    vectors : sequence of length-n arrays
    tol : relative drop tolerance (must be > 0)
    dim : ambient dimension, required only when ``vectors`` is empty

    Returns
    -------
    (basis, rank) : n-by-rank array with orthonormal columns, and its rank.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if len(vectors) == 0:
        return np.zeros((dim or 0, 0)), 0
    try:
        rows = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise DimensionError(f"vectors must have equal lengths ({exc})") from None
    cols = as_matrix(rows).T
    cutoff = tol * np.max(np.linalg.norm(cols, axis=0))
    keep = list(range(cols.shape[1]))
    while keep:
        q, r = np.linalg.qr(cols[:, keep])
        diag = np.diagonal(r)
        short = np.flatnonzero(np.abs(diag) <= cutoff)
        if not short.size:
            return q * np.sign(diag), q.shape[1]
        del keep[short[0]]
    return np.zeros((cols.shape[0], 0)), 0
