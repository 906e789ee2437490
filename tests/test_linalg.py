"""Tests for the spectral/factorization primitives."""

import numpy as np
import pytest

from framekit import linalg
from framekit.errors import NumericError

# Golden value for the operator norm of [[1, 1], [0, 1]], frozen from the
# power-iteration oracle below (it converges to (1 + sqrt 5) / 2).
SHEAR_NORM = 1.618033988749895


def power_iteration_norm(m, iterations=200):
    """Independent operator-norm oracle: power iteration on m^T m."""
    m = np.asarray(m, dtype=float)
    v = np.ones(m.shape[1]) / np.sqrt(m.shape[1])
    for _ in range(iterations):
        w = m.T @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(m @ v))


class TestHermitianEigenvalues:
    """``linalg._gram_eigenvalues``: the eigenvalues of ``c c^T``."""

    def test_identity(self):
        assert np.allclose(linalg._gram_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        got = linalg._gram_eigenvalues(np.diag([2.0, 1.0]))
        assert np.allclose(got, [1, 4])

    def test_offdiagonal_pair(self):
        # c c^T = [[1, 1], [1, 1]]: characteristic polynomial x^2 - 2x by hand
        got = linalg._gram_eigenvalues(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(got, [0, 2], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="non-finite"):
            linalg._gram_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_overflowed_product_rejected(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericError, match="non-finite"):
                linalg._gram_eigenvalues(np.array([[1e200, 1e200], [1e200, -1e200]]))

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.standard_normal((5, 5))
            assert linalg._gram_eigenvalues(g).min() >= -1e-10


class TestSingularValues:
    """``linalg._top_singular_value`` against the whole spectrum."""

    def test_identity(self):
        assert linalg._top_singular_value(np.eye(2)) == pytest.approx(1.0)

    def test_zero_rectangular(self):
        assert linalg._top_singular_value(np.zeros((2, 3))) == 0.0

    def test_column_vector(self):
        assert linalg._top_singular_value(np.array([[3.0], [4.0]])) == pytest.approx(5.0)

    def test_matches_eigenvalues_of_gram(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rows, cols = rng.integers(1, 9, size=2)
            m = rng.standard_normal((rows, cols))
            top = linalg._top_singular_value(m)
            eig = linalg._gram_eigenvalues(m)
            assert top == pytest.approx(np.sqrt(max(eig[-1], 0.0)), abs=1e-9)


class TestOperatorNorm:
    """``linalg._top_singular_value`` as the spectral norm."""

    def test_identity(self):
        assert linalg._top_singular_value(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg._top_singular_value(np.diag([3.0, -7.0])) == pytest.approx(7.0)

    def test_shear_against_power_iteration(self):
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        oracle = power_iteration_norm(shear)
        assert abs(oracle - SHEAR_NORM) <= 1e-12
        assert linalg._top_singular_value(shear) == pytest.approx(SHEAR_NORM, abs=1e-12)

    def test_zero_matrix(self):
        assert linalg._top_singular_value(np.zeros((3, 2))) == 0.0

    def test_dominates_unit_vector_images(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.standard_normal((4, 6))
            top = linalg._top_singular_value(m)
            u = rng.standard_normal((100, 6))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert np.all(np.linalg.norm(u @ m.T, axis=1) <= top + 1e-9)


def reference_mgs(vectors, tol=linalg.RANK_TOL):
    """Modified Gram-Schmidt with one re-orthogonalization pass, taking the
    vectors in order and dropping one whose residual is at most ``tol``
    times the largest input norm."""
    vecs = np.asarray(vectors, dtype=float)
    cutoff = tol * max(np.linalg.norm(v) for v in vecs)
    cols = []
    for v in vecs:
        r = v.copy()
        for _ in range(2):
            for q in cols:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > cutoff:
            cols.append(r / norm)
    return np.column_stack(cols) if cols else np.zeros((vecs.shape[1], 0))


def case_vectors(rng, case, n):
    """Input vectors in R^n for one ``orthonormalize`` case."""
    if case == "wide":
        return rng.standard_normal((n + int(rng.integers(1, 5)), n))
    if case == "duplicate":
        # Axis vectors: the column QR builds at the duplicate is arbitrary
        # and may line up with a later axis.
        vecs = rng.permutation(np.eye(n))[: n - 1] * rng.uniform(0.5, 2.0, (n - 1, 1))
        return np.insert(vecs, 1, vecs[0], axis=0)
    vecs = rng.standard_normal((n - 1, n))
    if case == "full_rank":
        return vecs
    # A combination of vectors 0 and 1: dropped when it follows both, and
    # it drops vector 1 when it comes first.
    where = {"dependent_first": 0, "dependent_middle": (n - 1) // 2, "dependent_last": n - 1}[case]
    return np.insert(vecs, where, rng.standard_normal(2) @ vecs[:2], axis=0)


class TestOrthonormalize:
    @pytest.mark.parametrize(
        "case",
        ["full_rank", "dependent_first", "dependent_middle", "dependent_last", "duplicate", "wide"],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e-11, 1e11])
    def test_matches_reference_gram_schmidt(self, case, scale):
        rng = np.random.default_rng(29)
        for _ in range(20):
            vecs = scale * case_vectors(rng, case, int(rng.integers(3, 9)))
            ref = reference_mgs(vecs)
            basis, rank = linalg.orthonormalize(vecs)
            assert rank == ref.shape[1]
            assert np.max(np.abs(basis - ref)) <= 1e-12

    def test_drops_duplicates(self):
        e1 = [1.0, 0.0, 0.0]
        e2 = [0.0, 1.0, 0.0]
        basis, rank = linalg.orthonormalize([e1, e1, e2])
        assert rank == 2
        assert np.allclose(basis, np.eye(3)[:, :2])

    def test_normalizes_single_vector(self):
        basis, rank = linalg.orthonormalize([[1.0, 1.0]])
        assert rank == 1
        assert np.allclose(np.abs(basis[:, 0]), [1 / np.sqrt(2)] * 2)

    def test_generic_vectors_fill_the_space(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((5, 3))
        stacked_rank = int(np.sum(np.linalg.svd(vecs, compute_uv=False) > 1e-10))
        basis, rank = linalg.orthonormalize(vecs)
        assert rank == stacked_rank == 3

    def test_basis_is_orthonormal_to_spec_tolerance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            count = int(rng.integers(1, 7))
            vecs = rng.standard_normal((count, 4))
            if rng.random() < 0.4 and count > 1:
                vecs[-1] = vecs[0]  # force a dependent vector
            basis, rank = linalg.orthonormalize(vecs)
            defect = np.max(np.abs(basis.T @ basis - np.eye(rank)))
            assert defect <= 1e-12

    def test_rank_is_scale_invariant(self):
        assert linalg.orthonormalize(1e-11 * np.eye(2))[1] == 2
        vecs = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        assert linalg.orthonormalize(vecs)[1] == 2
        for scale in (1e-11, 1e11):
            assert linalg.orthonormalize(scale * vecs)[1] == 2

    def test_empty_input(self):
        basis, rank = linalg.orthonormalize([])
        assert rank == 0
        assert basis.shape == (0, 0)
