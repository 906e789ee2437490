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
        for scale in (1e-11, 1e11, 1e-170, 1e160, 1e-300, 1e300):
            assert linalg.orthonormalize(scale * vecs)[1] == 2

    def test_empty_input(self):
        basis, rank = linalg.orthonormalize([])
        assert rank == 0
        assert basis.shape == (0, 0)


def reference_drop_loop(vectors):
    """The greedy rule with one Householder QR per dropped vector: factor
    the kept columns, drop the first whose ``|R_jj|`` is at most the
    cutoff, and factor the rest again."""
    cols = np.asarray(vectors, dtype=float).T
    cutoff = linalg.RANK_TOL * np.max(np.linalg.norm(cols, axis=0))
    keep = list(range(cols.shape[1]))
    while keep:
        q, r = np.linalg.qr(cols[:, keep])
        diag = np.diagonal(r)
        short = np.flatnonzero(np.abs(diag) <= cutoff)
        if not short.size:
            return q * np.sign(diag), q.shape[1]
        del keep[short[0]]
    return np.zeros((cols.shape[0], 0)), 0


def pass_case_vectors(rng, case, n):
    """Input vectors in R^n that reach the rank pass, or skip it."""
    if case in ("full_rank", "dependent_first", "dependent_middle", "dependent_last",
                "duplicate", "wide"):
        return case_vectors(rng, case, n)
    if case == "zero_rows":
        vecs = rng.standard_normal((n + 2, n))
        vecs[rng.choice(n + 2, size=3, replace=False)] = 0.0
        return vecs
    if case == "all_zero":
        return np.zeros((int(rng.integers(1, 2 * n)), n))
    if case == "fills_mid_list":
        # A drop at column 1, then n - 1 new directions fill R^n, and the
        # three columns after them are kept uninspected.
        v = rng.standard_normal(n)
        return np.vstack([v, 2.0 * v, rng.standard_normal((n + 2, n))])
    # Seeded random combinations: rank k < n, some rows sparse
    # combinations of the base, so drops fall throughout the list.
    k = int(rng.integers(1, n))
    base = rng.standard_normal((k, n)) * rng.uniform(0.5, 2.0, (k, 1))
    coef = rng.standard_normal((int(rng.integers(k, 3 * n)), k))
    coef *= rng.random(coef.shape) < 0.6
    return coef @ base


PASS_CASES = ["full_rank", "dependent_first", "dependent_middle", "dependent_last",
              "duplicate", "zero_rows", "all_zero", "wide", "fills_mid_list", "combinations"]


class TestRankPass:
    """``orthonormalize`` decides the columns after the first drop in one
    pass; away from the cutoff its ranks and bases are those of one QR per
    dropped vector (``TestNearCutoff`` takes the band around it)."""

    @staticmethod
    def count_qr(monkeypatch):
        """Count every QR: the kernel's and those of ``np.linalg.qr``,
        which the reference drop loop takes."""
        calls = []
        for module, name in ((linalg, "_qr"), (np.linalg, "qr")):
            qr = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=qr, **k: calls.append(1) or _f(*a, **k))
        return calls

    @pytest.mark.parametrize("case", PASS_CASES)
    def test_bit_equal_to_drop_loop(self, case, monkeypatch):
        rng = np.random.default_rng(31)
        calls = self.count_qr(monkeypatch)
        for _ in range(40):
            vecs = pass_case_vectors(rng, case, int(rng.integers(3, 12)))
            ref_basis, ref_rank = reference_drop_loop(vecs)
            calls.clear()
            basis, rank = linalg.orthonormalize(vecs)
            assert len(calls) <= 2
            assert rank == ref_rank
            assert basis.shape == ref_basis.shape
            assert np.array_equal(basis, ref_basis)

    def test_structured_sets_at_many_scales_bit_equal(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            vecs = pass_case_vectors(rng, "combinations", int(rng.integers(2, 12)))
            vecs *= 10.0 ** rng.uniform(-100, 100)
            ref_basis, ref_rank = reference_drop_loop(vecs)
            basis, rank = linalg.orthonormalize(vecs)
            assert rank == ref_rank and np.array_equal(basis, ref_basis)

    def test_full_rank_input_takes_one_qr(self, monkeypatch):
        rng = np.random.default_rng(41)
        calls = self.count_qr(monkeypatch)
        for shape in ((3, 5), (5, 5), (9, 5), (300, 50)):
            calls.clear()
            assert linalg.orthonormalize(rng.standard_normal(shape))[1] == min(shape)
            assert len(calls) == 1

    @pytest.mark.parametrize("count, rank, n, loop_qrs", [(120, 20, 48, 101), (300, 10, 50, 291)])
    def test_dependent_input_takes_two_qrs(self, monkeypatch, count, rank, n, loop_qrs):
        rng = np.random.default_rng(43)
        vecs = rng.standard_normal((count, rank)) @ rng.standard_normal((rank, n))
        calls = self.count_qr(monkeypatch)
        ref_basis, _ = reference_drop_loop(vecs)
        assert len(calls) == loop_qrs
        calls.clear()
        basis, got = linalg.orthonormalize(vecs)
        assert got == rank and len(calls) <= 2
        assert np.array_equal(basis, ref_basis)


def near_cutoff_vectors(rng):
    """Vectors in R^n, n in [3, 8], whose third residual lies within 2e-6
    of the cutoff, relative to it: ``a q1``, ``b a q1`` (the first drop),
    ``c q1 + 1e-10 M (1 + u) q2`` and ``q3, ..., qn``, for the columns
    ``q_i`` of a random orthogonal matrix and ``M = max(|a|, |b a|, |c|)``
    (the ``q2`` part moves the third norm by ~1e-20, below rounding)."""
    n = int(rng.integers(3, 9))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a, b, c = rng.standard_normal(3)
    m = max(abs(a), abs(b * a), abs(c))
    near = c * q[:, 0] + 1e-10 * m * (1 + rng.uniform(-2e-6, 2e-6)) * q[:, 1]
    return np.vstack([a * q[:, 0], b * a * q[:, 0], near, q[:, 2:].T])


class TestNearCutoff:
    """Within rounding of the cutoff the pass decides alone: it may keep a
    vector whose ``|R_jj|`` the second QR finds short, or drop one the drop
    loop keeps.  No third QR is taken in either direction."""

    def test_two_qrs_and_ranks_within_one_of_drop_loop(self, monkeypatch):
        rng = np.random.default_rng(1)
        calls = TestRankPass.count_qr(monkeypatch)
        offsets = {-1: 0, 0: 0, 1: 0}
        for _ in range(1000):
            vecs = near_cutoff_vectors(rng)
            ref_basis, ref_rank = reference_drop_loop(vecs)
            calls.clear()
            basis, rank = linalg.orthonormalize(vecs)
            assert len(calls) <= 2
            offsets[rank - ref_rank] += 1
            if rank == ref_rank:
                assert np.array_equal(basis, ref_basis)
            assert basis.shape == (vecs.shape[1], rank)
            assert np.max(np.abs(basis.T @ basis - np.eye(rank))) <= 1e-12
        # The family straddles the cutoff: the pass goes each way.
        assert offsets[1] and offsets[-1]


class TestScaleFreeRank:
    """Rank decisions are taken in units of the largest entry's binade,
    so no norm overflows or underflows."""

    @pytest.mark.parametrize("case", PASS_CASES)
    def test_rank_unchanged_by_power_of_two_scaling(self, case):
        rng = np.random.default_rng(47)
        sets = [pass_case_vectors(rng, case, int(rng.integers(3, 12))) for _ in range(4)]
        rank_two = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        for vecs in [rank_two, *sets]:
            rank = linalg.orthonormalize(vecs)[1]
            for k in [*range(-1000, 1000, 40), 1000]:
                assert linalg.orthonormalize(np.ldexp(vecs, k))[1] == rank, k

    def test_entry_whose_square_overflows(self):
        # (0, 1) lies 1e-200 of the largest norm off the first vector's line.
        basis, rank = linalg.orthonormalize([[1e200, 0.0], [0.0, 1.0]])
        assert rank == 1
        assert np.array_equal(np.abs(basis), [[1.0], [0.0]])
        assert linalg.orthonormalize([[1e200, 0.0], [0.0, 1e195]])[1] == 2


class TestSignedQr:
    """``_signed_qr`` is the one sign rule: numpy's Householder Q with each
    column signed so that ``diag R >= 0`` (``TestRankPass`` compares its
    bits with the drop loop's), and R's unsigned diagonal."""

    def test_zero_diagonal_entry_keeps_an_orthonormal_column(self):
        for cols in (np.zeros((3, 2)), np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])):
            q, d = linalg._signed_qr(cols)
            assert d[-1] == 0.0
            assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-15

    def test_orthonormalize_factors_through_the_sign_rule(self, monkeypatch):
        # Full-rank input takes one signed QR; a dependent one takes a
        # second for the kept columns, and no QR runs outside the rule.
        calls = []
        rule = linalg._signed_qr
        monkeypatch.setattr(linalg, "_signed_qr", lambda c: calls.append(c.shape) or rule(c))
        qrs = TestRankPass.count_qr(monkeypatch)
        rng = np.random.default_rng(73)
        linalg.orthonormalize(rng.standard_normal((3, 5)))
        assert calls == [(5, 3)] and len(qrs) == 1
        calls.clear()
        linalg.orthonormalize([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert calls == [(3, 3), (3, 2)] and len(qrs) == 3


def kernel_inputs():
    """Matrices and stacks the kernels must take as ``np.linalg`` does:
    square, tall and wide, n = 1, rank-deficient, 3-D stacks and
    ``swapaxes`` views of them."""
    rng = np.random.default_rng(75)
    shapes = [(5, 5), (6, 3), (3, 6), (1, 1), (1, 4), (4, 1), (12, 12), (50, 20)]
    cases = {f"{m}x{n}": rng.standard_normal((m, n)) for m, n in shapes}
    low = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
    cases["rank-2 7x5"] = low
    cases["rank-2 5x7"] = low.T
    cases["repeated column"] = np.hstack([low[:, :3], low[:, :1]])
    cases["zero"] = np.zeros((3, 4))
    cases["scaled 2^-900"] = np.ldexp(rng.standard_normal((4, 3)), -900)
    stack = rng.standard_normal((4, 3, 6))
    cases["stack 4x3x6"] = stack
    cases["stack swapaxes 4x6x3"] = stack.swapaxes(1, 2)
    cases["stack 5x4x4"] = rng.standard_normal((5, 4, 4))
    cases["transposed view"] = rng.standard_normal((6, 4)).T
    return cases


class TestGufuncKernels:
    """The kernels give the bits of the ``np.linalg`` calls they replace,
    on every layout, so a numpy whose private gufuncs change shows here."""

    @pytest.mark.parametrize("case", sorted(kernel_inputs()))
    def test_bit_equal_to_numpy_linalg(self, case):
        m = kernel_inputs()[case]
        gram = m @ m.swapaxes(-2, -1)
        for a in (gram, gram.swapaxes(-2, -1)):
            assert linalg._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
        assert linalg._svdvals(m).tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()
        q, d = linalg._qr(m)
        q_ref, r_ref = np.linalg.qr(m)
        assert q.tobytes() == q_ref.tobytes()
        assert d.tobytes() == np.diagonal(r_ref, axis1=-2, axis2=-1).tobytes()
        for axis in range(-m.ndim, m.ndim):
            assert linalg._norms(m, axis).tobytes() == np.linalg.norm(m, axis=axis).tobytes()
        if m.ndim == 2:
            u = np.linalg.svd(m, full_matrices=True)[0]
            assert linalg._svd_u(m).tobytes() == u.tobytes()

    def test_qr_leaves_its_input_unchanged(self):
        m = np.random.default_rng(76).standard_normal((6, 3))
        before = m.copy()
        linalg._qr(m)
        assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("m", [
        np.array([[1.0, np.nan, 0.0], [2.0, 1.0, 1.0]]),
        np.diag([np.inf, 1.0, 2.0]),
        np.diag([-np.inf, 1.0, 2.0]),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_never_reaches_lapack(self, m, recwarn):
        # Only the product may warn (numpy's matmul); the gufuncs, which
        # would warn "invalid value encountered in svd", see nothing.
        with pytest.raises(NumericError, match="non-finite"):
            linalg._gram_eigenvalues(m)
        with pytest.raises(NumericError, match="non-finite"):
            linalg._top_singular_value(m)
        assert all(str(w.message).endswith("in matmul") for w in recwarn)

    def test_overflowed_product_never_reaches_lapack(self, recwarn, capfd):
        # On this product LAPACK warns "divide by zero encountered in
        # eigvalsh_lo" and prints an illegal-argument message of its own.
        vecs = np.array([[1e200, 1e200, 1.0], [1e200, -1e200, 2.0], [1.0, 1e200, 1e200]])
        with pytest.raises(NumericError, match="non-finite"):
            linalg._gram_eigenvalues(vecs.T)
        assert [str(w.message) for w in recwarn] == ["overflow encountered in matmul"]
        assert capfd.readouterr().err == ""

    def test_overflowed_spectrum_rejected(self):
        # Finite entries whose largest singular value exceeds float max.
        with pytest.raises(NumericError, match="non-finite"):
            linalg._top_singular_value(np.full((3, 3), 1e308))
