"""Tests for fusion frames: projections, bounds, redundancy."""

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    full_space,
    is_orthonormal_fusion_basis,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_bounds,
    subspace_from_spanning,
    vector_span,
)
from framekit.errors import DegenerateInputError, DimensionError, PreconditionError
from references import redundancy_oracle


def axis_span(n, i):
    return vector_span(np.eye(n)[i])


def coordinate_fusion(n, weights=None):
    """Orthonormal fusion basis from the coordinate axes of R^n."""
    weights = weights or [1.0] * n
    return FusionFrame(tuple((axis_span(n, i), w) for i, w in enumerate(weights)))


def random_fusion(rng, dim, count, ranks=None, weights=None):
    members = []
    for i in range(count):
        rank = ranks[i] if ranks else int(rng.integers(1, dim))
        sub = subspace_from_spanning(rng.standard_normal((rank, dim)))
        members.append((sub, weights[i] if weights else 1.0))
    return FusionFrame(tuple(members))


class TestSubspaceType:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(PreconditionError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(DimensionError):
            Subspace(np.eye(2, 3))

    def test_empty_full_space_rejected(self):
        # full_space builds its basis through the checked constructor.
        with pytest.raises(DimensionError, match=r"^subspace dimension 0 must lie in \[1, 0\]$"):
            full_space(0)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(PreconditionError):
            FusionFrame(((axis_span(2, 0), 0.0),))

    def test_read_only_flag_cannot_be_set_back(self):
        # Checked and unchecked constructors alike store a read-only view
        # of a read-only copy.
        rng = np.random.default_rng(3)
        for s in (
            Subspace(np.eye(3)[:, :2]),
            full_space(3),
            vector_span([1.0, 2.0, 2.0]),
            subspace_from_spanning(rng.standard_normal((2, 3))),
        ):
            with pytest.raises(ValueError):
                s.basis.flags.writeable = True
            assert not s.basis.flags.writeable


def fresh_fusion_values(ff):
    """The cached stacks and spectra of ``ff``, recomputed from writeable
    copies of its member bases by the same operations."""
    bases = [np.array(s.basis) for s in ff.subspaces]
    synthesis = np.hstack([w * b for b, w in zip(bases, ff.weights)])
    unit = np.hstack(bases)
    return {
        "synthesis_columns": synthesis,
        "unit_columns": unit,
        "_operator_eigenvalues": np.linalg.eigvalsh(synthesis @ synthesis.T),
        "_unit_eigenvalues": np.linalg.eigvalsh(unit @ unit.T),
    }


class TestCachedValues:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_cached_arrays_are_read_only_and_bit_equal_to_fresh(self, weighted):
        rng = np.random.default_rng(32 + weighted)
        for _ in range(20):
            dim, count = int(rng.integers(2, 7)), int(rng.integers(1, 9))
            weights = list(rng.uniform(0.5, 2.0, count)) if weighted else None
            ff = random_fusion(rng, dim, count, weights=weights)
            optimal_frame_bounds(ff)
            redundancy_bounds(ff)
            for name, expected in fresh_fusion_values(ff).items():
                cached = getattr(ff, name)
                assert cached is getattr(ff, name), name
                assert cached.tobytes() == expected.tobytes(), name
                with pytest.raises(ValueError):
                    cached.flags.writeable = True

    def test_with_unit_weights_returns_self_only_for_unit_weights(self):
        rng = np.random.default_rng(34)
        unit = random_fusion(rng, 4, 3)
        assert unit.with_unit_weights() is unit
        weighted = random_fusion(rng, 4, 3, weights=[1.0, 2.0, 1.0])
        copy = weighted.with_unit_weights()
        assert copy is not weighted
        assert all(a is b for a, b in zip(copy.subspaces, weighted.subspaces))
        assert copy.weights.tolist() == [1.0, 1.0, 1.0]


class TestSubspaceFromSpanning:
    def test_duplicates_collapse(self):
        e1 = np.eye(3)[0]
        sub = subspace_from_spanning([e1, e1])
        assert sub.dim == 1
        assert np.allclose(np.abs(sub.basis[:, 0]), e1)

    def test_plane_from_two_vectors(self):
        sub = subspace_from_spanning([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        assert sub.dim == 2
        assert np.allclose(sub.basis @ sub.basis.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            subspace_from_spanning([[0.0, 0.0, 0.0]])


class TestVectorSpan:
    """``vector_span`` is ``subspace_from_spanning`` of one vector."""

    def test_only_the_zero_vector_is_rejected(self):
        assert np.array_equal(vector_span([1e-13, 0.0]).basis, [[1.0], [0.0]])
        with pytest.raises(DegenerateInputError):
            vector_span([0.0, 0.0])

    def test_overflowing_and_subnormal_norms_span_a_line(self):
        # The norm of [1e200, 1e200] overflows and [1e-320, 1e-320] is
        # subnormal; both are decided in units of their largest entry's binade.
        for vec in ([1e200, 1e200], [1e-320, 1e-320]):
            basis = vector_span(vec).basis
            assert basis.shape == (2, 1)
            assert np.allclose(basis, np.sqrt(0.5), rtol=1e-15, atol=0.0)

    def test_zero_decision_unchanged_by_power_of_two_scaling(self):
        rng = np.random.default_rng(53)
        vecs = [rng.standard_normal(int(rng.integers(1, 6))) for _ in range(6)]
        for v in [*vecs, np.array([1.0, 1e-300, 0.0]), np.zeros(3)]:
            for k in range(-1000, 1001, 40):
                if not v.any():
                    with pytest.raises(DegenerateInputError):
                        vector_span(np.ldexp(v, k))
                    continue
                basis = vector_span(np.ldexp(v, k)).basis
                assert basis.shape == (v.size, 1)
                assert abs(np.linalg.norm(basis) - 1.0) <= 1e-15
                line = np.abs(v) / np.linalg.norm(v)
                assert np.allclose(np.abs(basis[:, 0]), line, rtol=1e-14, atol=1e-15)


class TestProjectionMatrix:
    def test_axis(self):
        b = axis_span(2, 0).basis
        assert np.allclose(b @ b.T, [[1, 0], [0, 0]])

    def test_full_space_is_identity(self):
        b = full_space(3).basis
        assert np.allclose(b @ b.T, np.eye(3))

    def test_diagonal_line(self):
        b = vector_span([1.0, 1.0]).basis
        assert np.allclose(b @ b.T, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_idempotent_and_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            b = subspace_from_spanning(rng.standard_normal((rng.integers(1, 4), 4))).basis
            p = b @ b.T
            assert np.max(np.abs(p @ p - p)) <= 1e-10
            assert np.max(np.abs(p - p.T)) <= 1e-12


def operator(ff):
    """The fusion frame operator ``T T^T`` of the synthesis columns ``T``."""
    t = ff.synthesis_columns
    return t @ t.T


class TestFusionOperator:
    def test_orthonormal_fusion_basis_gives_identity(self):
        assert np.allclose(operator(coordinate_fusion(2)), np.eye(2))

    def test_weights_enter_squared(self):
        ff = coordinate_fusion(2, weights=[2.0, 1.0])
        assert np.allclose(operator(ff), np.diag([4.0, 1.0]))

    def test_single_full_member(self):
        ff = FusionFrame(((full_space(3), 1.0),))
        assert np.allclose(operator(ff), np.eye(3))

    def test_matches_weighted_projector_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ff = random_fusion(rng, 5, 4, weights=list(rng.uniform(0.5, 2.0, 4)))
            loop = sum(w * w * (s.basis @ s.basis.T) for s, w in ff.members)
            assert np.allclose(operator(ff), loop, rtol=0.0, atol=1e-12)
            assert np.allclose(ff._operator_eigenvalues, np.linalg.eigvalsh(loop), rtol=0, atol=1e-12)

    def test_column_stacks(self):
        ff = FusionFrame(((full_space(2), 2.0), (axis_span(2, 1), 0.5)))
        assert np.array_equal(ff.synthesis_columns, [[2.0, 0.0, 0.0], [0.0, 2.0, 0.5]])
        assert np.array_equal(ff.unit_columns, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert ff.ranks == (2, 1)

    def test_trace_counts_dimensions(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            ff = random_fusion(rng, 5, int(rng.integers(1, 6)))
            trace = np.trace(operator(ff))
            assert trace == pytest.approx(sum(s.dim for s in ff.subspaces), abs=1e-9)


class TestFusionBounds:
    def test_parseval_case(self):
        rep = optimal_frame_bounds(coordinate_fusion(2))
        assert (rep.lower, rep.upper) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert rep.is_parseval

    def test_repeated_line_has_no_lower_bound(self):
        ff = FusionFrame(((axis_span(2, 0), 1.0), (axis_span(2, 0), 1.0)))
        rep = optimal_frame_bounds(ff)
        assert rep.lower == 0.0
        assert not rep.is_frame

    def test_plane_plus_line(self):
        ff = FusionFrame(((full_space(2), 1.0), (axis_span(2, 0), 1.0)))
        rep = optimal_frame_bounds(ff)
        assert (rep.lower, rep.upper) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_parseval_iff_operator_is_identity(self):
        near = coordinate_fusion(3)
        assert optimal_frame_bounds(near).is_parseval
        assert np.max(np.abs(operator(near) - np.eye(3))) <= 1e-9
        skew = coordinate_fusion(3, weights=[1.0, 1.0, 1.1])
        assert not optimal_frame_bounds(skew).is_parseval
        assert np.max(np.abs(operator(skew) - np.eye(3))) > 1e-9


class TestFusionRedundancy:
    def test_orthonormal_fusion_basis_value(self):
        ff = coordinate_fusion(2)
        assert redundancy_at(ff, [0.6, 0.8]) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_members(self):
        ff = FusionFrame(((full_space(2), 1.0), (axis_span(2, 0), 1.0)))
        assert redundancy_at(ff, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
        assert redundancy_at(ff, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit_point(self):
        with pytest.raises(PreconditionError):
            redundancy_at(coordinate_fusion(2), [1.0, 1.0])

    def test_bounds_orthonormal_basis(self):
        prof = redundancy_bounds(coordinate_fusion(2))
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert prof.uniform

    def test_bounds_plane_plus_line(self):
        ff = FusionFrame(((full_space(2), 1.0), (axis_span(2, 0), 1.0)))
        prof = redundancy_bounds(ff)
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert prof.mean == pytest.approx(1.5)

    def test_bounds_repeated_full_space(self):
        ff = FusionFrame(tuple((full_space(3), 1.0) for _ in range(4)))
        prof = redundancy_bounds(ff)
        assert (prof.lower, prof.upper) == pytest.approx((4.0, 4.0), abs=1e-12)
        assert prof.uniform

    def test_weights_do_not_matter(self):
        rng = np.random.default_rng(33)
        ff = random_fusion(rng, 4, 4)
        reweighted = FusionFrame(
            tuple((s, float(rng.uniform(0.1, 5.0))) for s, _ in ff.members)
        )
        a, b = redundancy_bounds(ff), redundancy_bounds(reweighted)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_rank_one_members_match_frame_redundancy(self):
        rng = np.random.default_rng(34)
        vecs = rng.standard_normal((5, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ff = FusionFrame(tuple((vector_span(v), 1.0) for v in vecs))
        frame = Frame(vecs)
        for _ in range(20):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert redundancy_at(ff, x) == pytest.approx(
                redundancy_at(frame, x), abs=1e-12
            )


class TestOrthonormalFusionBasis:
    def test_coordinate_axes(self):
        assert is_orthonormal_fusion_basis(coordinate_fusion(2))

    def test_overlap_fails(self):
        ff = FusionFrame(((full_space(2), 1.0), (axis_span(2, 0), 1.0)))
        assert not is_orthonormal_fusion_basis(ff)

    def test_not_spanning_fails(self):
        ff = FusionFrame(((axis_span(2, 0), 1.0),))
        assert not is_orthonormal_fusion_basis(ff)

    def test_rotated_partition(self):
        q = np.linalg.qr(np.random.default_rng(24).standard_normal((5, 5)))[0]
        ff = FusionFrame(tuple((Subspace(q[:, a:b]), 1.0) for a, b in [(0, 2), (2, 3), (3, 5)]))
        assert is_orthonormal_fusion_basis(ff)

    def test_oblique_lines_fail(self):
        ff = FusionFrame(((axis_span(2, 0), 1.0), (vector_span([1.0, 1e-6]), 1.0)))
        assert not is_orthonormal_fusion_basis(ff)


class TestFusionOracle:
    def test_orthonormal_basis_constant(self):
        lo, hi = redundancy_oracle(coordinate_fusion(3), 500, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_plane_plus_line_extremes(self):
        ff = FusionFrame(((full_space(2), 1.0), (axis_span(2, 0), 1.0)))
        lo, hi = redundancy_oracle(ff, 100_000, seed=2)
        assert abs(lo - 1.0) <= 5e-3
        assert abs(hi - 2.0) <= 5e-3

    def test_single_full_member_constant(self):
        ff = FusionFrame(((full_space(4), 2.0),))
        lo, hi = redundancy_oracle(ff, 1000, seed=3)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
