"""Tests for subspace angles, the gap, and the angle-sum expressions."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    angles,
    check_rs_relation,
    cosine_angles,
    full_space,
    linalg,
    orthogonal_complement,
    subspace_from_spanning,
    vector_span,
    verify_angle_sums,
)
from framekit.errors import DimensionError


def random_subspace(rng, dim, rank=None):
    rank = rank or int(rng.integers(1, dim + 1))
    return subspace_from_spanning(rng.standard_normal((rank, dim)))


def random_pairs(seed, count, max_dim=6):
    """Pairs with dim V <= dim W <= n, a full-space W included.

    Where dim V > dim W the kernel and meet rules decide every extreme
    exactly; these pairs reach the spectral routes instead.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        rank_w = int(rng.integers(1, dim + 1))
        rank_v = int(rng.integers(1, rank_w + 1))
        yield random_subspace(rng, dim, rank_v), random_subspace(rng, dim, rank_w)


def wide_pairs(seed, count, max_dim=6):
    """Pairs with dim V > dim W, where the gap takes its kernel branch."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        rank_v = int(rng.integers(2, dim + 1))
        rank_w = int(rng.integers(1, rank_v))
        yield random_subspace(rng, dim, rank_v), random_subspace(rng, dim, rank_w)


def wide_bases(seed, count, max_dim=6):
    """A basis of V and one of W of rank below dim V, zero-column W
    included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        rank_v = int(rng.integers(1, dim + 1))
        rank_w = int(rng.integers(0, rank_v))
        v = random_subspace(rng, dim, rank_v).basis
        if rank_w == 0:
            yield v, np.empty((dim, 0))
        else:
            yield v, random_subspace(rng, dim, rank_w).basis


def unrestricted_pairs(seed, count, max_dim=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        yield random_subspace(rng, dim), random_subspace(rng, dim)


class TestCosineAngles:
    def test_same_subspace(self):
        v = vector_span([1.0, 2.0, -1.0])
        rep = cosine_angles(v, v)
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        assert rep.s == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= rep.gap <= 1e-14
        assert 0.0 <= rep.theta <= 1e-14

    def test_orthogonal_lines(self):
        rep = cosine_angles(vector_span([1.0, 0.0]), vector_span([0.0, 1.0]))
        assert rep.r == 0.0 and rep.s == 0.0
        assert rep.gap == pytest.approx(1.0, abs=1e-12)
        assert rep.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_forty_five_degrees(self):
        rep = cosine_angles(vector_span([1.0, 0.0]), vector_span([1.0, 1.0]))
        assert rep.r == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert rep.s == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_wide_v_forces_zero_infimum(self):
        v = full_space(3)
        w = vector_span([0.0, 0.0, 1.0])
        rep = cosine_angles(v, w)
        assert rep.r == 0.0
        assert rep.s == pytest.approx(1.0, abs=1e-12)

    def test_report_invariants_on_random_pairs(self):
        # theta = arctan2(gap, r) is the angle whose cosine is r and whose
        # sine is the gap, at any rank mix
        for v, w in unrestricted_pairs(60, 500):
            rep = cosine_angles(v, w)
            assert 0.0 <= rep.r <= rep.s + 1e-12 <= 1.0 + 1e-12
            assert abs(rep.gap**2 + rep.r**2 - 1.0) <= 1e-13
            assert abs(math.cos(rep.theta) - rep.r) <= 1e-13
            assert abs(math.sin(rep.theta) - rep.gap) <= 1e-13

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_angles(vector_span([1.0, 0.0]), vector_span([1.0, 0.0, 0.0]))


class TestSpectralGap:
    def test_same_subspace(self):
        # The gap is measured spectrally, so a subspace read against
        # itself gives a rounding-level gap and angle (worst 2.1e-15 over
        # these draws).
        rng = np.random.default_rng(60)
        for _ in range(2000):
            dim = int(rng.integers(2, 12))
            v = random_subspace(rng, dim, int(rng.integers(1, dim)))
            rep = cosine_angles(v, v)
            assert rep.gap <= 1e-14 and rep.theta <= 1e-14

    def test_orthogonal(self):
        rep = cosine_angles(vector_span([1.0, 0.0]), vector_span([0.0, 1.0]))
        assert rep.gap == pytest.approx(1.0)

    def test_gap_link_on_random_pairs(self):
        for v, w in random_pairs(61, 500):
            rep = cosine_angles(v, w)
            assert abs(rep.r * rep.r + rep.gap * rep.gap - 1.0) <= 1e-13

    def test_known_angles(self):
        # W turns the j-th basis vector of V by alpha_j towards a vector
        # orthogonal to V, so the principal angles are the alpha_j; the
        # largest one and its sine hold to rounding from 1e-12 to pi/2
        # (worst 6.7e-16 over these draws).
        rng = np.random.default_rng(65)
        for _ in range(2000):
            dim = int(rng.integers(4, 12))
            p = int(rng.integers(1, dim // 2 + 1))
            q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            alpha = np.exp(rng.uniform(np.log(1e-12), np.log(np.pi / 2), size=p))
            v = Subspace(q[:, :p])
            w = Subspace(q[:, :p] * np.cos(alpha) + q[:, p : 2 * p] * np.sin(alpha))
            rep = cosine_angles(v, w)
            assert abs(rep.theta - alpha.max()) <= 1e-14
            assert abs(rep.gap - math.sin(alpha.max())) <= 1e-14

    def test_sampled_distances_stay_below_spectral_gap(self):
        # The spectral value is a maximum over the unit sphere of V, so no
        # sampled unit vector of V may lie farther from W.
        rng = np.random.default_rng(62)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            v, w = random_subspace(rng, dim), random_subspace(rng, dim)
            coeffs = rng.standard_normal((512, v.dim))
            coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
            x = coeffs @ v.basis.T
            dist = np.linalg.norm(x - (x @ w.basis) @ w.basis.T, axis=1)
            assert dist.max() <= cosine_angles(v, w).gap + 1e-9


def test_the_gap_has_one_route():
    """``cosine_angles`` reports the spectral gap, so no second gap
    function is defined under ``src/`` or exported by ``framekit``."""
    source = "".join(p.read_text() for p in Path(angles.__file__).parent.glob("*.py"))
    assert "def gap_direct(" not in source
    with pytest.raises(ImportError):
        exec("from framekit import gap_direct", {})


class TestGapKernelBranch:
    """Where dim V > dim W, V has a unit vector orthogonal to W, so the
    gap is exactly 1 and is returned without an SVD."""

    def test_exactly_one_without_an_svd(self, monkeypatch):
        pairs, bases = list(wide_pairs(80, 300)), list(wide_bases(81, 300))
        assert any(w.shape[1] == 0 for _, w in bases)
        calls = []
        svd = linalg._svdvals
        monkeypatch.setattr(linalg, "_svdvals", lambda m: calls.append(1) or svd(m))
        for v, w in pairs:
            assert angles._gap(v.basis, w.basis) == 1.0
        for v, w in bases:
            gap = angles._gap(v, w)
            assert type(gap) is float and gap == 1.0
        assert calls == []

    def test_branch_returns_the_clipped_spectral_value(self):
        bases = [(v.basis, w.basis) for v, w in wide_pairs(82, 300)]
        for v, w in bases + list(wide_bases(83, 300)):
            top = np.linalg.svd(v - w @ (w.T @ v), compute_uv=False)[0]
            assert abs(min(1.0, top) - 1.0) <= 1e-12


class TestRsRelation:
    def test_same_subspace(self):
        v = vector_span([1.0, 1.0, 0.0])
        assert check_rs_relation(v, v) <= 1e-12

    def test_orthogonal(self):
        assert check_rs_relation(vector_span([1.0, 0.0]), vector_span([0.0, 1.0])) <= 1e-12

    def test_residual_small_on_random_pairs(self):
        for v, w in itertools.chain(random_pairs(62, 500), unrestricted_pairs(62, 500)):
            assert check_rs_relation(v, w) <= 1e-13

    def test_complement_of_full_space_is_empty(self):
        comp = orthogonal_complement(full_space(3))
        assert comp.shape == (3, 0)
        # R(V, full space) must be exactly one
        v = vector_span([1.0, -2.0, 0.5])
        assert check_rs_relation(v, full_space(3)) <= 1e-12


def ranked_pairs(seed, count, max_dim=8):
    """Pairs in R^n, n in 2..max_dim, with each rank drawn from 1..n."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        v = random_subspace(rng, dim, int(rng.integers(1, dim + 1)))
        yield v, random_subspace(rng, dim, int(rng.integers(1, dim + 1)))


class TestDimensionRules:
    """The kernel rule (dim V > dim W: infimum cosine 0) and the meet rule
    (dim V + dim W > n: supremum cosine 1) decide exactly, from ranks."""

    def test_rules_are_exact_and_the_svd_gives_the_rest(self):
        seen = {"meet": 0, "kernel": 0, "open": 0}
        for v, w in ranked_pairs(90, 600):
            n, p, k = v.ambient_dim, v.dim, w.dim
            rep = cosine_angles(v, w)
            if p + k > n:
                seen["meet"] += 1
                assert rep.s == 1.0
            if p > k:
                seen["kernel"] += 1
                assert rep.r == 0.0
                assert check_rs_relation(v, w) == 0.0
            if p <= k and p + k <= n:
                seen["open"] += 1
                sv = np.linalg.svd(w.basis.T @ v.basis, compute_uv=False)
                assert rep.r == min(1.0, max(0.0, float(sv[-1])))
                assert rep.s == min(1.0, float(sv[0]))
        assert min(seen.values()) >= 50

    def test_no_svd_where_both_rules_decide(self, monkeypatch):
        pairs = [(v, w) for v, w in ranked_pairs(91, 300)
                 if v.dim > w.dim and v.dim + w.dim > v.ambient_dim]
        assert len(pairs) >= 50
        calls = []
        svd = linalg._svdvals
        monkeypatch.setattr(linalg, "_svdvals", lambda m: calls.append(1) or svd(m))
        for v, w in pairs:
            assert angles._inf_sup_cos(v.basis, w.basis) == (0.0, 1.0)
        assert calls == []


class TestAngleSums:
    """``verify_angle_sums`` predicts the sums of squared infimum (lower)
    and supremum (upper) cosines from the reference to each member."""

    def test_one_dimensional_space(self):
        sums = verify_angle_sums(Frame([[2.0]] * 4), full_space(1)).predicted
        assert sums["lower"] == pytest.approx(4.0, abs=1e-12)
        assert sums["upper"] == pytest.approx(4.0, abs=1e-12)

    def test_full_space_reference_with_lines(self):
        rng = np.random.default_rng(63)
        sums = verify_angle_sums(Frame(rng.standard_normal((5, 3))), full_space(3)).predicted
        assert sums["lower"] == pytest.approx(0.0, abs=1e-12)
        assert sums["upper"] == pytest.approx(5.0, abs=1e-10)

    def test_reference_equal_to_member_contributes_one(self):
        w1 = vector_span([1.0, 1.0, 0.0])
        sums = verify_angle_sums(FusionFrame(((w1, 1.0),)), w1).predicted
        assert sums["lower"] == pytest.approx(1.0, abs=1e-12)

    def test_supremum_cosine_to_full_space_is_one(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            w = random_subspace(rng, dim)
            rep = cosine_angles(full_space(dim), w)
            assert rep.s == 1.0  # the meet rule
