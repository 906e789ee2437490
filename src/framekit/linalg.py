"""Dense spectral and factorization primitives.

Matrices are plain float64 numpy arrays. Everything here is pure and
deterministic.  ``RANK_TOL`` is the one relative rank tolerance: the
rank-deciding ``orthonormalize`` applies it, and so does the framehood
rule of ``frames.bounds_from_extremes``; neither takes another value.

Validators guard the public boundary; inside it, numpy takes the
spectra, and the result is checked wherever a product can overflow.  The
two kernels take matrices framekit forms and check only what they
return; numpy forms ``c c^T`` exactly symmetric.  The SVDs of
``angles`` take orthonormal input, which cannot overflow, and call
``np.linalg`` directly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError

# Relative rank tolerance used wherever a rank decision is made.
RANK_TOL = 1e-10


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; NumericError when an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise NumericError("matrix contains non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Validate and convert input to a 2-D float64 array.

    Raises DimensionError for non-2-D input and NumericError for NaN/Inf
    entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    return _finite(a)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert input to a 1-D float64 array of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if v.size and not np.isfinite(v).all():
        raise NumericError("vector contains non-finite entries")
    return v


def _gram_eigenvalues(c: np.ndarray) -> np.ndarray:
    """All eigenvalues of ``c c^T`` for a column stack ``c``, ascending.
    An overflowed product gives NaN eigenvalues or a LAPACK error; both
    raise NumericError."""
    try:
        return _finite(np.linalg.eigvalsh(c @ c.T))
    except np.linalg.LinAlgError:
        raise NumericError("matrix contains non-finite entries") from None


def _top_singular_value(m: np.ndarray) -> float:
    """The spectral norm of a non-empty matrix: its largest singular value.
    An overflowed matrix gives NaN or a LAPACK error; both raise NumericError."""
    try:
        return float(_finite(np.linalg.svd(m, compute_uv=False))[0])
    except np.linalg.LinAlgError:
        raise NumericError("matrix contains non-finite entries") from None


def _rank_pass(scaled: np.ndarray, q: np.ndarray, cutoff: float) -> list[int]:
    """The columns of ``scaled`` the greedy rule keeps, decided in one pass.

    ``q`` is an orthonormal basis of the first ``j`` columns, all kept;
    column ``j`` is dropped.  Each later column is kept when its residual
    against the columns kept before it has norm above ``cutoff``; a kept
    column deflates the later ones by its unit residual.  Projections are
    taken twice, as in classical Gram-Schmidt with reorthogonalization.
    Once ``n`` columns are kept the rest are kept uninspected, since R has
    only ``n`` diagonal entries.
    """
    n, m = scaled.shape
    j = q.shape[1]
    keep = list(range(j))
    rest = scaled[:, j + 1:]
    for _ in range(2):
        rest = rest - q @ (q.T @ rest)
    i = 0  # the first column of ``rest`` not yet decided
    while len(keep) < n:
        norms = np.linalg.norm(rest[:, i:], axis=0)
        above = np.flatnonzero(norms > cutoff)
        if not above.size:
            return keep
        i += int(above[0])
        keep.append(j + 1 + i)
        u = rest[:, i] / norms[above[0]]
        later = rest[:, i + 1:]
        for _ in range(2):
            later -= np.outer(u, u @ later)
        i += 1
    return keep + list(range(j + 1 + i, m))


def orthonormalize(vectors) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of ``vectors`` via Householder QR.

    The vectors are taken greedily in input order: one is dropped when its
    residual against the vectors already kept has norm <= ``RANK_TOL``
    times the largest input norm.  Both sides are measured in units of
    ``2^e``, with ``e`` the exponent of the largest |entry|: the scaling
    is exact, and no square overflows or underflows in those units, so
    the rank does not change when the input is rescaled.

    The residual is ``|R_jj|`` in the QR factorization of the columns, so
    full-rank input takes one QR.  At the first short entry, one decision
    pass (``_rank_pass``) settles every later column once, and the kept
    columns are factored once more: no input takes more than two QRs.
    Ranks and bases are those of dropping one vector per QR, except for a
    vector whose residual lies within rounding of the cutoff (about 1e-6
    relative to it), where the pass decides.  Columns are signed so that
    ``diag R > 0``, which makes the basis the modified Gram-Schmidt basis
    of the kept vectors, up to rounding.

    Parameters
    ----------
    vectors : sequence of length-n arrays; an empty one gives a 0-by-0
        basis

    Returns
    -------
    (basis, rank) : n-by-rank array with orthonormal columns, and its rank.
    """
    if len(vectors) == 0:
        return np.zeros((0, 0)), 0
    try:
        rows = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise DimensionError(f"vectors must have equal lengths ({exc})") from None
    cols = as_matrix(rows).T
    e = math.frexp(np.abs(cols).max(initial=0.0))[1]
    scaled = np.ldexp(cols, -e)
    cutoff = RANK_TOL * np.linalg.norm(scaled, axis=0).max()
    q, r = np.linalg.qr(cols)
    short = np.flatnonzero(np.abs(np.ldexp(np.diagonal(r), -e)) <= cutoff)
    if short.size:
        q, r = np.linalg.qr(cols[:, _rank_pass(scaled, q[:, : short[0]], cutoff)])
    return q * np.sign(np.diagonal(r)), q.shape[1]
