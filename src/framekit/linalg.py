"""Dense spectral and factorization primitives.

Matrices are plain float64 numpy arrays. Everything here is pure and
deterministic.  ``RANK_TOL`` is the one relative rank tolerance: the
rank-deciding ``orthonormalize`` applies it, and so does the framehood
rule of ``frames.bounds_from_extremes``; neither takes another value.
Its cutoff and column signs are set in ``_qr_stack`` alone, which
``orthonormalize`` calls on its one set and the random fusion draws on
all blocks of one rank.

Validators guard the public boundary.  Inside it, every LAPACK call goes
through ``_eigvalsh``, ``_svdvals``, ``_svd_u`` or ``_qr``.  They call
the gufuncs of ``numpy.linalg`` as ``np.linalg`` does, on the same
arrays, and so give its bits without its per-call wrapper or its input
checks; a spectrum that overflows or does not converge comes back
non-finite and raises NumericError.  The gufunc names are private to
numpy and bound at import, so a numpy that renames them fails there.
LAPACK never sees a non-finite matrix: ``_gram_eigenvalues`` and
``_top_singular_value``, whose product or input can overflow, check it
first (numpy forms ``c c^T`` exactly symmetric); the QRs take validated
or drawn input, and ``angles`` orthonormal bases.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import (
    eigvalsh_lo as _eigvalsh_lo, qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced, svd as _svd, svd_f as _svd_f,
)

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


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric ``m`` (or a stack), ascending, from its
    lower triangle; NumericError when one is not finite."""
    return _finite(_eigvalsh_lo(m, signature="d->d"))


def _svdvals(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m`` (or a stack), descending; NumericError
    when one is not finite."""
    return _finite(_svd(m, signature="d->d"))


def _svd_u(m: np.ndarray) -> np.ndarray:
    """The square left factor U of the full SVD of ``m``; NumericError
    when an entry is not finite."""
    return _finite(_svd_f(m, signature="d->ddd")[0])


def _qr(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Householder QR of ``cols`` (or a stack): Q and the diagonal
    of R, factored in a float copy; R itself is never formed."""
    a = cols.astype(float, copy=True)
    tau = _qr_r_raw(a, signature="d->d")
    return _qr_reduced(a, tau, signature="dd->d"), a.diagonal(axis1=-2, axis2=-1)


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``: the root of the sum of squares that
    numpy's ``norm`` takes for real input, summed in memory order."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _gram_eigenvalues(c: np.ndarray) -> np.ndarray:
    """All eigenvalues of ``c c^T`` for a column stack ``c``, ascending.
    An overflowed product or spectrum raises NumericError."""
    return _eigvalsh(_finite(c @ c.T))


def _top_singular_value(m: np.ndarray) -> float:
    """The spectral norm of a non-empty matrix: its largest singular value.
    A non-finite matrix or an overflowed norm raises NumericError."""
    return float(_svdvals(_finite(m))[0])


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
        norms = _norms(rest[:, i:], 0)
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


def _qr_stack(cols: np.ndarray):
    """The rank rule's one factorization of an n-by-m column set, or of a
    stack of them in one ``_qr``, which factors each set with the bits of
    its own QR.  Per set: Q signed so that ``diag R > 0``, the exponent
    ``e`` of the largest |entry|, the cutoff (``RANK_TOL`` times the
    largest column norm in units of ``2^e``) and the mask of the diagonal
    entries of R at or below it in those units."""
    e = np.frexp(np.abs(cols).max(axis=(-2, -1), initial=0.0))[1]
    scaled = np.ldexp(cols, -e[..., None, None])
    cutoff = RANK_TOL * _norms(scaled, -2).max(axis=-1, initial=0.0)
    q, d = _qr(cols)
    short = np.abs(np.ldexp(d, -e[..., None])) <= cutoff[..., None]
    return q * np.sign(d)[..., None, :], e, cutoff, short


def orthonormalize(vectors) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of ``vectors`` via Householder QR.

    The vectors are taken greedily in input order: one is dropped when its
    residual against the vectors already kept has norm <= ``RANK_TOL``
    times the largest input norm.  Both sides are measured in units of
    ``2^e``, with ``e`` the exponent of the largest |entry|: the scaling
    is exact, and no square overflows or underflows in those units, so
    the rank does not change when the input is rescaled.

    The residual is ``|R_jj|`` in the QR factorization of the columns
    (``_qr_stack``), so full-rank input takes one QR.  At the first short
    entry, one decision pass (``_rank_pass``) settles every later column
    once, and the kept columns are factored once more: no input takes
    more than two QRs.  Ranks and bases are those of dropping one vector
    per QR, except for a vector whose residual lies within rounding of
    the cutoff (about 1e-6 relative to it), where the pass decides.
    Columns are signed so that ``diag R > 0``, which makes the basis the
    modified Gram-Schmidt basis of the kept vectors, up to rounding.

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
    q, e, cutoff, short = _qr_stack(cols)
    short = np.flatnonzero(short)
    if short.size:
        # Negating a column of Q leaves every projection's bits unchanged.
        keep = _rank_pass(np.ldexp(cols, -e), q[:, : short[0]], cutoff)
        q = _qr_stack(cols[:, keep])[0]
    return q, q.shape[1]
