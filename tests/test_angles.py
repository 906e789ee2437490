"""Tests for subspace angles, the gap, and the angle-sum expressions."""

import math

import numpy as np
import pytest

from framekit import (
    Frame,
    Subspace,
    angles,
    check_rs_relation,
    cosine_angles,
    full_space,
    gap_direct,
    orthogonal_complement,
    redundancy_angle_sums,
    subspace_from_spanning,
    vector_span,
)
from framekit.errors import DimensionError
from framekit.frames import _rank_stacks
from framekit.theorems import random_fusion_frame


def random_subspace(rng, dim, rank=None):
    rank = rank or int(rng.integers(1, dim + 1))
    return subspace_from_spanning(rng.standard_normal((rank, dim)))


def random_pairs(seed, count, max_dim=6):
    """Proper-rank pairs with dim V <= dim W.

    The two-route identity checks lose half the significand when the
    infimum cosine or the gap is structurally 0 or 1 (dim V > dim W, or
    a full-space member), so the 1e-10 residual suites draw away from
    those configurations; the degenerate ones are covered by exact-case
    tests.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        rank_w = int(rng.integers(1, dim))
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


def wide_stacks(seed, count, max_dim=6):
    """A basis of V and a stack of 1-4 bases of W, all of one rank below
    dim V, zero-column stacks included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        rank_v = int(rng.integers(1, dim + 1))
        rank_w = int(rng.integers(0, rank_v))
        members = int(rng.integers(1, 5))
        v = random_subspace(rng, dim, rank_v).basis
        if rank_w == 0:
            yield v, np.empty((members, dim, 0))
        else:
            yield v, np.stack([random_subspace(rng, dim, rank_w).basis for _ in range(members)])


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
        assert rep.gap == pytest.approx(0.0, abs=1e-7)

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
        # derivation identities carry no cancellation, so any rank mix works
        for v, w in unrestricted_pairs(60, 500):
            rep = cosine_angles(v, w)
            assert 0.0 <= rep.r <= rep.s + 1e-12 <= 1.0 + 1e-12
            assert abs(rep.gap**2 + rep.r**2 - 1.0) <= 1e-10
            assert rep.theta == pytest.approx(math.acos(min(1.0, max(0.0, rep.r))), abs=1e-12)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_angles(vector_span([1.0, 0.0]), vector_span([1.0, 0.0, 0.0]))


class TestGapDirect:
    def test_same_subspace(self):
        v = vector_span([2.0, 1.0])
        assert gap_direct(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        assert gap_direct(vector_span([1.0, 0.0]), vector_span([0.0, 1.0])) == pytest.approx(1.0)

    def test_matches_derived_gap_on_random_pairs(self):
        for v, w in random_pairs(61, 500):
            assert abs(gap_direct(v, w) - cosine_angles(v, w).gap) <= 1e-10

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
            assert dist.max() <= gap_direct(v, w) + 1e-9


class TestGapKernelBranch:
    """Where dim V > dim W, V has a unit vector orthogonal to W, so the
    gap is exactly 1 and is returned without an SVD."""

    def test_exactly_one_without_an_svd(self, monkeypatch):
        pairs, stacks = list(wide_pairs(80, 300)), list(wide_stacks(81, 300))
        assert any(w.shape[-1] == 0 for _, w in stacks)
        assert any(w.shape[0] > 1 for _, w in stacks)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for v, w in pairs:
            assert gap_direct(v, w) == 1.0
        for v, w in stacks:
            gap = angles._gap(v, w)
            assert gap.shape == w.shape[:1]
            assert np.all(gap == 1.0)
        assert calls == []

    def test_branch_returns_the_clipped_spectral_value(self):
        bases = [(v.basis, w.basis[None]) for v, w in wide_pairs(82, 300)]
        for v, w in bases + list(wide_stacks(83, 300)):
            top = np.linalg.svd(v - w @ (w.mT @ v), compute_uv=False)[..., 0]
            assert np.all(np.abs(np.minimum(1.0, top) - 1.0) <= 1e-12)

    def test_both_routes_agree_bit_for_bit(self):
        for v, w in wide_pairs(84, 300):
            assert cosine_angles(v, w).gap == gap_direct(v, w)


class TestRsRelation:
    def test_same_subspace(self):
        v = vector_span([1.0, 1.0, 0.0])
        assert check_rs_relation(v, v) <= 1e-12

    def test_orthogonal(self):
        assert check_rs_relation(vector_span([1.0, 0.0]), vector_span([0.0, 1.0])) <= 1e-12

    def test_residual_small_on_random_pairs(self):
        for v, w in random_pairs(62, 500):
            assert check_rs_relation(v, w) <= 1e-10

    def test_complement_of_full_space_is_empty(self):
        comp = orthogonal_complement(full_space(3))
        assert comp.shape == (3, 0)
        # R(V, full space) must be exactly one
        v = vector_span([1.0, -2.0, 0.5])
        assert check_rs_relation(v, full_space(3)) <= 1e-12


class TestAngleSums:
    def test_one_dimensional_space(self):
        spans = [vector_span([2.0]) for _ in range(4)]
        sum_r2, sum_s2 = redundancy_angle_sums(spans, full_space(1))
        assert sum_r2 == pytest.approx(4.0, abs=1e-12)
        assert sum_s2 == pytest.approx(4.0, abs=1e-12)

    def test_full_space_reference_with_lines(self):
        rng = np.random.default_rng(63)
        spans = [vector_span(rng.standard_normal(3)) for _ in range(5)]
        sum_r2, sum_s2 = redundancy_angle_sums(spans, full_space(3))
        assert sum_r2 == pytest.approx(0.0, abs=1e-12)
        assert sum_s2 == pytest.approx(5.0, abs=1e-10)

    def test_reference_equal_to_member_contributes_one(self):
        w1 = vector_span([1.0, 1.0, 0.0])
        sum_r2, _ = redundancy_angle_sums([w1], w1)
        assert sum_r2 == pytest.approx(1.0, abs=1e-12)

    def test_supremum_cosine_to_full_space_is_one(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            w = random_subspace(rng, dim)
            rep = cosine_angles(full_space(dim), w)
            assert rep.s == pytest.approx(1.0, abs=1e-12)


def member_subspaces(structure):
    """The member subspaces of a frame or fusion frame, one at a time."""
    offsets = np.cumsum(structure.ranks)[:-1]
    return [Subspace(b) for b in np.split(structure.unit_columns, offsets, axis=1)]


class TestStackedKernels:
    """The rank-stacked kernels behind ``verify_angle_sums`` give every
    member the bits of the pairwise ``cosine_angles`` and ``gap_direct``."""

    @staticmethod
    def assert_matches_pairwise(structure, reference):
        members = member_subspaces(structure)
        seen = []
        for indices, blocks in _rank_stacks(structure.ranks, structure.unit_columns):
            r, s = angles._inf_sup_cos(reference.basis, blocks)
            gap = angles._gap(reference.basis, blocks)
            for j, i in enumerate(indices):
                report = cosine_angles(reference, members[i])
                assert r[j] == report.r and s[j] == report.s
                assert gap[j] == gap_direct(reference, members[i])
            seen.extend(indices.tolist())
        assert sorted(seen) == list(range(len(members)))

    @staticmethod
    def references(rng, dim):
        return {
            "full": full_space(dim),
            "line": vector_span(rng.standard_normal(dim)),
            "middle": random_subspace(rng, dim, dim // 2),
        }

    @pytest.mark.parametrize("reference", ["full", "line", "middle"])
    def test_frames(self, reference):
        rng = np.random.default_rng(70)
        for dim, count in [(2, 3), (4, 9), (6, 12)]:
            f = Frame(rng.standard_normal((count, dim)))
            self.assert_matches_pairwise(f, self.references(rng, dim)[reference])

    @pytest.mark.parametrize("reference", ["full", "line", "middle"])
    def test_mixed_rank_fusion_frames(self, reference):
        rng = np.random.default_rng(71)
        for dim, count in [(3, 4), (5, 10), (7, 14)]:
            ff = random_fusion_frame(rng, dim, count)
            assert len(set(ff.ranks)) > 1
            self.assert_matches_pairwise(ff, self.references(rng, dim)[reference])

    def test_rank_group_of_600_members(self):
        # One rank group of 600 lines in R^10 is one stack, and every
        # member still gets the bits of its own pairwise call.
        rng = np.random.default_rng(72)
        f = Frame(rng.standard_normal((600, 10)))
        stacks = list(_rank_stacks(f.ranks, f.unit_columns))
        assert len(stacks) == 1 and stacks[0][1].shape == (600, 10, 1)
        for reference in self.references(rng, 10).values():
            self.assert_matches_pairwise(f, reference)
