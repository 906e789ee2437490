"""Tests for frame operators, bounds, and redundancy."""

import math

import numpy as np
import pytest

from framekit import (
    Frame,
    analysis_apply,
    frame_operator,
    is_riesz_basis,
    normalize_frame,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_bounds,
    redundancy_oracle,
    synthesis_matrix,
)
from framekit.errors import DegenerateInputError, DimensionError, PreconditionError


def mercedes_frame():
    """Three unit vectors in the plane at mutual angle 120 degrees."""
    root3 = math.sqrt(3.0)
    return Frame([[0.0, 1.0], [-root3 / 2, -0.5], [root3 / 2, -0.5]])


ONB2 = Frame([[1.0, 0.0], [0.0, 1.0]])
REPEATED = Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestFrameType:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Frame(np.zeros((0, 2)))

    def test_label_count_must_match(self):
        with pytest.raises(DimensionError):
            Frame([[1.0, 0.0]], labels=("a", "b"))

    def test_vectors_are_frozen(self):
        f = Frame([[1.0, 0.0]])
        with pytest.raises(ValueError):
            f.vectors[0, 0] = 2.0


class TestSynthesisAnalysis:
    def test_onb_synthesis_is_identity(self):
        assert np.array_equal(synthesis_matrix(ONB2), np.eye(2))

    def test_columns_stack_in_order(self):
        assert np.array_equal(synthesis_matrix(REPEATED), [[1, 1, 0], [0, 0, 1]])

    def test_synthesis_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        f = Frame(rng.standard_normal((7, 4)))
        c = rng.standard_normal(7)
        direct = sum(ci * vi for ci, vi in zip(c, f.vectors))
        assert np.allclose(synthesis_matrix(f) @ c, direct, atol=1e-12)

    def test_onb_coefficients(self):
        assert np.allclose(analysis_apply(ONB2, [3.0, 4.0]), [3, 4])

    def test_zero_vector_gives_zero_coefficients(self):
        assert np.all(analysis_apply(REPEATED, [0.0, 0.0]) == 0)

    def test_analysis_is_synthesis_transpose(self):
        rng = np.random.default_rng(4)
        f = Frame(rng.standard_normal((6, 3)))
        x = rng.standard_normal(3)
        assert np.allclose(analysis_apply(f, x), synthesis_matrix(f).T @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            analysis_apply(ONB2, [1.0, 2.0, 3.0])


class TestFrameOperator:
    def test_onb_gives_identity(self):
        assert np.allclose(frame_operator(Frame(np.eye(4))), np.eye(4))

    def test_repeated_vector_sums_projections(self):
        assert np.allclose(frame_operator(REPEATED), np.diag([2.0, 1.0]))

    def test_mercedes_is_tight(self):
        assert np.allclose(frame_operator(mercedes_frame()), 1.5 * np.eye(2), atol=1e-12)

    def test_is_the_synthesis_columns_times_their_transpose(self):
        rng = np.random.default_rng(13)
        f = Frame(rng.standard_normal((7, 4)))
        assert np.shares_memory(f.synthesis_columns, f.vectors)
        assert np.array_equal(frame_operator(f), f.vectors.T @ f.vectors)
        assert f.ranks == (1,) * 7

    def test_symmetric_psd_on_random_frames(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = Frame(rng.standard_normal((rng.integers(1, 9), 4)))
            op = frame_operator(f)
            assert np.allclose(op, op.T, atol=1e-12)
            assert np.linalg.eigvalsh(op).min() >= -1e-10


class TestOptimalBounds:
    def test_onb_r5_is_parseval(self):
        rep = optimal_frame_bounds(Frame(np.eye(5)))
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.is_frame and rep.is_tight and rep.is_parseval

    def test_repeated_vector_bounds(self):
        rep = optimal_frame_bounds(REPEATED)
        assert (rep.lower, rep.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert not rep.is_tight

    def test_rank_deficient_is_not_a_frame(self):
        rep = optimal_frame_bounds(Frame([[1.0, 0.0]]))
        assert rep.lower == 0.0
        assert not rep.is_frame


class TestRieszDetection:
    def test_onb(self):
        assert is_riesz_basis(Frame(np.eye(3)))

    def test_count_mismatch(self):
        assert not is_riesz_basis(REPEATED)

    def test_below_tolerance(self):
        f = Frame([[1.0, 0.0], [0.0, 1e-14]])
        assert not is_riesz_basis(f, tol=1e-10)

    def test_decision_is_scale_invariant(self):
        f = Frame(1e-6 * np.eye(3))
        assert optimal_frame_bounds(f).is_frame
        assert is_riesz_basis(f)


class TestNormalize:
    def test_scales_away(self):
        f = normalize_frame(Frame([[2.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(f.vectors, np.eye(2))

    def test_idempotent_on_unit_frame(self):
        m = mercedes_frame()
        assert np.allclose(normalize_frame(m).vectors, m.vectors, atol=1e-15)

    def test_random_output_norms(self):
        rng = np.random.default_rng(9)
        f = normalize_frame(Frame(rng.standard_normal((10, 5))))
        assert np.allclose(f.norms(), 1.0, atol=1e-12)

    def test_zero_vector_error_names_index(self):
        with pytest.raises(DegenerateInputError, match="vector 1"):
            normalize_frame(Frame([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_vector_rule_is_relative_to_largest_norm(self):
        with pytest.raises(DegenerateInputError, match="vector 1"):
            normalize_frame(Frame([[1e3, 0.0], [0.0, 1e-10]]))
        tiny = normalize_frame(Frame([[1e-20, 0.0], [0.0, 1e-20]]))
        assert np.array_equal(tiny.vectors, np.eye(2))

    def test_unit_columns(self):
        assert np.array_equal(Frame([[3.0, 4.0], [0.0, -2.0]]).unit_columns, [[0.6, 0.0], [0.8, -1.0]])


class TestRedundancyFunction:
    def test_onb_value(self):
        assert redundancy_at(ONB2, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_vector_counts_twice(self):
        assert redundancy_at(REPEATED, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_mercedes_is_constant(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            assert redundancy_at(mercedes_frame(), x) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_non_unit_point(self):
        with pytest.raises(PreconditionError):
            redundancy_at(ONB2, [2.0, 0.0])


class TestRedundancyBounds:
    def test_onb(self):
        prof = redundancy_bounds(ONB2)
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert prof.uniform

    def test_orthogonal_non_unit_basis(self):
        prof = redundancy_bounds(Frame([[2.0, 0.0], [0.0, 5.0]]))
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_repeated_vector_profile(self):
        prof = redundancy_bounds(REPEATED)
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert prof.mean == pytest.approx(1.5)
        assert not prof.uniform

    def test_mercedes_uniform(self):
        prof = redundancy_bounds(mercedes_frame())
        assert (prof.lower, prof.upper) == pytest.approx((1.5, 1.5), abs=1e-12)
        assert prof.uniform

    def test_invariant_under_tiny_scale(self):
        rng = np.random.default_rng(14)
        f = Frame(rng.standard_normal((6, 3)))
        a, b = redundancy_bounds(f), redundancy_bounds(Frame(1e-13 * f.vectors))
        assert (b.lower, b.upper) == pytest.approx((a.lower, a.upper), rel=1e-12)
        assert b.mean == a.mean

    def test_normalized_trace_equals_count(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            f = Frame(rng.standard_normal((rng.integers(1, 12), 4)))
            trace = np.trace(frame_operator(normalize_frame(f)))
            assert trace == pytest.approx(f.count, abs=1e-9)
            prof = redundancy_bounds(f)
            assert prof.lower - 1e-12 <= prof.mean <= prof.upper + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        f = Frame(rng.standard_normal((8, 3)))
        scales = rng.uniform(0.1, 10.0, size=8)
        g = Frame(f.vectors * scales[:, None])
        a, b = redundancy_bounds(f), redundancy_bounds(g)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_function_values_stay_inside_bounds(self):
        rng = np.random.default_rng(14)
        f = Frame(rng.standard_normal((9, 3)))
        prof = redundancy_bounds(f)
        x = rng.standard_normal((1000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        vals = np.array([redundancy_at(f, xi) for xi in x])
        assert np.all(vals >= prof.lower - 1e-9)
        assert np.all(vals <= prof.upper + 1e-9)


class TestRedundancyOracle:
    def test_onb_is_constant_one(self):
        lo, hi = redundancy_oracle(ONB2, 500, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_repeated_vector_extremes(self):
        lo, hi = redundancy_oracle(REPEATED, 100_000, seed=2)
        assert abs(lo - 1.0) <= 5e-3
        assert abs(hi - 2.0) <= 5e-3

    def test_mercedes_constant(self):
        lo, hi = redundancy_oracle(mercedes_frame(), 1000, seed=3)
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_deterministic_per_seed(self):
        assert redundancy_oracle(REPEATED, 1000, seed=7) == redundancy_oracle(
            REPEATED, 1000, seed=7
        )

    def test_agrees_with_spectral_bounds_in_low_dimension(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            dim = 2 + trial % 2
            f = Frame(rng.standard_normal((rng.integers(dim, 9), dim)))
            prof = redundancy_bounds(f)
            lo, hi = redundancy_oracle(f, 100_000, seed=trial)
            assert abs(lo - prof.lower) <= 5e-3
            assert abs(hi - prof.upper) <= 5e-3
