"""Tests for the theorem verifiers and the randomized suite."""

import math

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    SuiteConfig,
    cosine_angles,
    full_space,
    fusion_frame_bounds,
    fusion_redundancy_bounds,
    gap_direct,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    normalize_frame,
    optimal_frame_bounds,
    redundancy_angle_sums,
    redundancy_bounds,
    replay_instance,
    run_random_suite,
    verify_angle_sums,
    verify_fusion_perturbed_bounds,
    verify_fusion_redundancy_perturbation,
    verify_normalized_perturbation,
    verify_perturbed_frame_bounds,
    verify_redundancy_perturbation,
    verify_riesz_redundancy,
    vector_span,
)
from framekit.errors import DimensionError, PreconditionError
from framekit.frames import _rank_stacks
from framekit.theorems import (
    THEOREM_IDS,
    THEOREMS,
    random_fusion_frame,
    random_orthogonal_basis,
)


def unit_fusion(rng, dim, count):
    return random_fusion_frame(rng, dim, count, unit_weights=True)


class TestPerturbedFrameBounds:
    def test_zero_perturbation_fixpoint(self):
        f = Frame(np.random.default_rng(1).standard_normal((6, 3)))
        verdict = verify_perturbed_frame_bounds(f, f)
        assert verdict.hypotheses_met and verdict.inequality_pass
        assert all(r <= 1e-12 for r in verdict.equality_residuals.values())

    def test_random_suite_has_no_violations(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(dim, 13))
            phi = Frame(rng.standard_normal((count, dim)))
            base = optimal_frame_bounds(phi)
            if not base.is_frame:
                continue
            target = float(rng.uniform(0.1, 0.9)) * math.sqrt(base.lower)
            psi, _ = generate_perturbed_frame(phi, target, seed=int(rng.integers(2**31)))
            verdict = verify_perturbed_frame_bounds(phi, psi)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_large_mu_gates(self):
        phi = Frame(np.eye(2))
        psi = Frame([[5.0, 0.0], [0.0, 5.0]])
        verdict = verify_perturbed_frame_bounds(phi, psi)
        assert not verdict.hypotheses_met
        assert verdict.margin is None

    def test_symmetric_roles(self):
        # the perturbation relation is symmetric: checking with the
        # perturbed frame's own bounds as hypothesis also passes
        rng = np.random.default_rng(3)
        phi = Frame(rng.standard_normal((8, 4)))
        psi, _ = generate_perturbed_frame(
            phi, 0.3 * math.sqrt(optimal_frame_bounds(phi).lower), seed=4
        )
        forward = verify_perturbed_frame_bounds(phi, psi)
        backward = verify_perturbed_frame_bounds(psi, phi)
        assert forward.hypotheses_met and forward.inequality_pass
        if backward.hypotheses_met:
            assert backward.inequality_pass

    def test_predicted_lower_decreases_along_mu_ladder(self):
        rng = np.random.default_rng(5)
        phi = Frame(rng.standard_normal((7, 3)))
        root_a = math.sqrt(optimal_frame_bounds(phi).lower)
        previous = None
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            psi, achieved = generate_perturbed_frame(phi, frac * root_a, seed=6)
            verdict = verify_perturbed_frame_bounds(phi, psi)
            assert verdict.hypotheses_met
            lower = verdict.predicted["lower"]
            if previous is not None:
                assert lower < previous
            previous = lower


class TestNormalizedPerturbation:
    def test_unit_norms_give_identical_constant(self):
        rng = np.random.default_rng(7)
        phi = normalize_frame(Frame(rng.standard_normal((6, 3))))
        psi, _ = generate_perturbed_frame(phi, 0.2, seed=8, norm_preserving=True)
        verdict = verify_normalized_perturbation(phi, psi)
        mu = verdict.predicted["mu"]
        mu_normalized = verdict.observed["mu_normalized"]
        assert mu_normalized == pytest.approx(mu, abs=1e-12)
        assert verdict.equality_residuals["excess"] <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_common_scale_divides_the_constant(self, alpha):
        rng = np.random.default_rng(9)
        base = normalize_frame(Frame(rng.standard_normal((5, 3))))
        phi = Frame(alpha * base.vectors)
        psi, _ = generate_perturbed_frame(phi, 0.1 * alpha, seed=10, norm_preserving=True)
        verdict = verify_normalized_perturbation(phi, psi)
        assert verdict.observed["mu_normalized"] == pytest.approx(
            verdict.predicted["mu"] / alpha, abs=1e-10
        )
        assert verdict.inequality_pass

    def test_mixed_small_norms_can_exceed_mu_without_failing(self):
        # norms 0.1 and 1: normalization divides one difference column by
        # 0.1, so the normalized constant exceeds the original
        phi = Frame([[0.1, 0.0], [0.0, 1.0]])
        psi, _ = generate_perturbed_frame(phi, 0.05, seed=11, norm_preserving=True)
        verdict = verify_normalized_perturbation(phi, psi)
        assert verdict.equality_residuals["excess"] > 0
        assert verdict.inequality_pass  # the scaled bound still holds

    def test_norm_mismatch_gates(self):
        verdict = verify_normalized_perturbation(Frame([[1.0, 0.0]]), Frame([[2.0, 0.0]]))
        assert not verdict.hypotheses_met
        assert verdict.margin is None
        assert verdict.notes == (
            "gate failed: vector norms differ by 1.000e+00; the lemma needs equal norms"
        )


class TestRedundancyPerturbation:
    def test_zero_perturbation_fixpoint(self):
        f = Frame(np.random.default_rng(12).standard_normal((6, 3)))
        verdict = verify_redundancy_perturbation(f, f)
        assert verdict.hypotheses_met and verdict.inequality_pass
        assert all(r <= 1e-12 for r in verdict.equality_residuals.values())

    def test_random_norm_preserving_suite(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            count = int(rng.integers(dim, 10))
            scale = float(rng.uniform(0.5, 2.0))
            phi = Frame(scale * normalize_frame(Frame(rng.standard_normal((count, dim)))).vectors)
            target = float(rng.uniform(0.1, 0.9)) * math.sqrt(optimal_frame_bounds(phi).lower)
            psi, _ = generate_perturbed_frame(
                phi, target, seed=int(rng.integers(2**31)), norm_preserving=True
            )
            verdict = verify_redundancy_perturbation(phi, psi)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_generic_instances_have_positive_residuals(self):
        rng = np.random.default_rng(14)
        phi = normalize_frame(Frame(rng.standard_normal((8, 3))))
        psi, _ = generate_perturbed_frame(phi, 0.4, seed=15, norm_preserving=True)
        verdict = verify_redundancy_perturbation(phi, psi)
        assert verdict.inequality_pass
        assert max(verdict.equality_residuals.values()) > 1e-6

    def test_norm_mismatch_gates_instead_of_raising(self):
        phi = Frame([[1.0, 0.0], [0.0, 1.0]])
        psi = Frame([[2.0, 0.0], [0.0, 1.0]])
        verdict = verify_redundancy_perturbation(phi, psi)
        assert not verdict.hypotheses_met


class TestRieszRedundancy:
    def test_onb(self):
        verdict = verify_riesz_redundancy(Frame(np.eye(3)))
        assert verdict.hypotheses_met and verdict.inequality_pass

    def test_scaled_orthogonal_basis(self):
        verdict = verify_riesz_redundancy(Frame([[2.0, 0.0], [0.0, 5.0]]))
        assert verdict.inequality_pass
        assert verdict.observed["lower"] == pytest.approx(1.0, abs=1e-9)
        assert verdict.observed["upper"] == pytest.approx(1.0, abs=1e-9)

    def test_random_scaled_rotations(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            basis = random_orthogonal_basis(rng, int(rng.integers(2, 9)))
            verdict = verify_riesz_redundancy(basis)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_oblique_basis_falsifies_the_claim(self):
        # {e1, (e1+e2)/sqrt 2} is a Riesz basis whose redundancy bounds
        # are 1 -/+ 1/sqrt 2, not (1, 1): the unit-redundancy statement
        # only holds for orthogonal bases
        s = 1 / math.sqrt(2)
        verdict = verify_riesz_redundancy(Frame([[1.0, 0.0], [s, s]]))
        assert verdict.hypotheses_met
        assert not verdict.inequality_pass
        assert verdict.observed["lower"] == pytest.approx(1 - s, abs=1e-12)
        assert verdict.observed["upper"] == pytest.approx(1 + s, abs=1e-12)

    def test_non_riesz_input_gates(self):
        verdict = verify_riesz_redundancy(Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert not verdict.hypotheses_met


class TestFusionPerturbedBounds:
    def test_zero_perturbation_fixpoint(self):
        ff = unit_fusion(np.random.default_rng(17), 4, 3)
        verdict = verify_fusion_perturbed_bounds(ff, ff)
        assert verdict.hypotheses_met and verdict.inequality_pass
        assert all(r <= 1e-12 for r in verdict.equality_residuals.values())

    def test_random_suite(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(2, 7))
            w = random_fusion_frame(rng, dim, count, max_rank=3)
            target = (
                float(rng.uniform(0.1, 0.9))
                * math.sqrt(fusion_frame_bounds(w).lower)
                / math.sqrt(count)
            )
            v, _ = generate_perturbed_fusion(w, target, seed=int(rng.integers(2**31)))
            verdict = verify_fusion_perturbed_bounds(w, v)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_large_mu_gates(self):
        w = FusionFrame(((vector_span([1.0, 0.0]), 1.0), (vector_span([0.0, 1.0]), 1.0)))
        v = FusionFrame(((vector_span([0.0, 1.0]), 1.0), (vector_span([1.0, 0.0]), 1.0)))
        verdict = verify_fusion_perturbed_bounds(w, v)
        assert not verdict.hypotheses_met


class TestFusionRedundancyPerturbation:
    def test_zero_perturbation_fixpoint(self):
        ff = unit_fusion(np.random.default_rng(19), 3, 3)
        verdict = verify_fusion_redundancy_perturbation(ff, ff)
        assert verdict.hypotheses_met and verdict.inequality_pass
        assert all(r <= 1e-12 for r in verdict.equality_residuals.values())

    def test_random_suite(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(2, 7))
            w = unit_fusion(rng, dim, count)
            target = (
                float(rng.uniform(0.1, 0.9))
                * math.sqrt(fusion_redundancy_bounds(w).lower)
                / math.sqrt(count)
            )
            v, _ = generate_perturbed_fusion(w, target, seed=int(rng.integers(2**31)))
            verdict = verify_fusion_redundancy_perturbation(w, v)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_non_unit_weights_gate(self):
        ff = FusionFrame(((vector_span([1.0, 0.0]), 2.0), (vector_span([0.0, 1.0]), 1.0)))
        verdict = verify_fusion_redundancy_perturbation(ff, ff).to_dict()
        assert verdict["hypotheses_met"] is False
        assert verdict["margin"] is None
        assert verdict["notes"] == (
            "gate failed: first fusion frame has non-unit weights "
            "(off by 1.000e+00); the statement concerns unit weights"
        )


class TestAngleSums:
    def test_one_dimension_is_exact(self):
        f = Frame([[2.0], [-1.0], [0.5]])
        verdict = verify_angle_sums(f, full_space(1))
        assert verdict.inequality_pass
        assert verdict.equality_residuals["lower"] <= 1e-12
        assert verdict.equality_residuals["upper"] <= 1e-12

    def test_full_space_reference_for_frames(self):
        rng = np.random.default_rng(21)
        f = Frame(rng.standard_normal((6, 3)))
        verdict = verify_angle_sums(f, full_space(3))
        assert verdict.inequality_pass  # the gap link is exact here
        assert verdict.predicted["upper"] == pytest.approx(6.0, abs=1e-10)
        assert verdict.predicted["lower"] == pytest.approx(0.0, abs=1e-12)
        prof = redundancy_bounds(f)
        assert verdict.equality_residuals["lower"] == pytest.approx(prof.lower, abs=1e-9)
        assert verdict.equality_residuals["upper"] == pytest.approx(6.0 - prof.upper, abs=1e-9)

    def test_full_space_reference_for_fusion(self):
        rng = np.random.default_rng(22)
        ff = unit_fusion(rng, 4, 5)
        verdict = verify_angle_sums(ff, full_space(4))
        assert verdict.theorem_id == "angle_sum_fusion"
        assert verdict.inequality_pass
        assert verdict.predicted["upper"] == pytest.approx(5.0, abs=1e-10)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            verify_angle_sums([[1.0, 0.0]], full_space(2))

    @pytest.mark.parametrize("kind", ["frame", "fusion"])
    def test_matches_the_pairwise_sums_bit_for_bit(self, kind):
        # The per-member loop over the pairwise functions is the
        # reference: sums in member order, each member's cosines once.
        rng = np.random.default_rng(26)
        for dim in (2, 4, 6):
            if kind == "frame":
                structure = Frame(rng.standard_normal((2 * dim + 1, dim)))
            else:
                structure = unit_fusion(rng, dim, 2 * dim)
            offsets = np.cumsum(structure.ranks)[:-1]
            subs = [Subspace(b) for b in np.split(structure.unit_columns, offsets, axis=1)]
            for reference in (full_space(dim), vector_span(rng.standard_normal(dim))):
                verdict = verify_angle_sums(structure, reference)
                sum_r2, sum_s2 = redundancy_angle_sums(subs, reference)
                gap_worst = 0.0
                for sub in subs:
                    r = cosine_angles(reference, sub).r
                    delta = gap_direct(reference, sub)
                    gap_worst = max(gap_worst, abs(delta - math.sqrt(max(0.0, 1.0 - r * r))))
                assert verdict.predicted == {"lower": sum_r2, "upper": sum_s2}
                assert verdict.observed["gap_link_worst"] == gap_worst

    def test_takes_two_svds_per_rank_chunk(self, monkeypatch):
        # One stacked SVD for the cosines and one for the gaps of each
        # rank chunk, however many members the chunk holds.
        rng = np.random.default_rng(27)
        ff = unit_fusion(rng, 5, 12)
        chunks = len(list(_rank_stacks(ff.ranks, ff.unit_columns)))
        assert chunks < ff.count
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        verify_angle_sums(ff, full_space(5))
        assert len(calls) == 2 * chunks
        calls.clear()
        verify_angle_sums(Frame(rng.standard_normal((30, 5))), vector_span(rng.standard_normal(5)))
        assert len(calls) == 2


class TestSuite:
    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            SuiteConfig(instances=0)
        with pytest.raises(PreconditionError):
            SuiteConfig(dim_range=(1, 4))
        with pytest.raises(PreconditionError):
            SuiteConfig(mu_fraction_range=(0.0, 0.5))
        with pytest.raises(PreconditionError):
            SuiteConfig(count_range=(1, 1))

    def test_small_run_passes_everywhere(self):
        report = run_random_suite(SuiteConfig(instances=25, seed=7))
        assert report.total_failures == 0
        assert set(report.tallies) == set(THEOREM_IDS)
        for tally in report.tallies.values():
            assert tally.passed + tally.gated == 25

    def test_replay_is_bit_identical(self):
        config = SuiteConfig(instances=5, seed=123)
        first = replay_instance(config, 3)
        second = replay_instance(config, 3)
        assert {k: v.to_dict() for k, v in first.items()} == {
            k: v.to_dict() for k, v in second.items()
        }

    def test_suite_and_replay_follow_registry_order(self):
        ids = tuple(t.id for t in THEOREMS)
        assert THEOREM_IDS == ids
        config = SuiteConfig(instances=2, seed=3)
        assert tuple(run_random_suite(config).to_dict()["tallies"]) == ids
        assert tuple(replay_instance(config, 1)) == ids

    def test_suite_report_is_deterministic(self):
        config = SuiteConfig(instances=10, seed=99)
        a = run_random_suite(config).to_dict()
        b = run_random_suite(config).to_dict()
        assert a == b

    def test_report_structure(self):
        report = run_random_suite(SuiteConfig(instances=5, seed=1)).to_dict()
        assert report["total_failures"] == 0
        tally = report["tallies"]["redundancy_perturbation"]
        assert {"theorem_id", "passed", "failed", "gated", "worst_margin",
                "residual_histograms", "failures"} <= set(tally)
        hist = tally["residual_histograms"]["upper"]
        assert sum(hist["counts"]) == tally["passed"]
        assert len(hist["edges"]) == len(hist["counts"]) + 1


@pytest.mark.parametrize("row", [t for t in THEOREMS if t.id in (
    "perturbed_frame_bounds", "normalized_perturbation", "redundancy_perturbation",
    "fusion_perturbed_bounds", "fusion_redundancy_perturbation")])
def test_mismatched_shapes_raise(row):
    if row.kind is Frame:
        a, b = Frame(np.eye(2)), Frame(np.eye(3))
    else:
        a = FusionFrame(((full_space(2), 1.0),))
        b = FusionFrame(((full_space(2), 1.0), (full_space(2), 1.0)))
    with pytest.raises(DimensionError, match="have shapes"):
        row.run(a, b)
