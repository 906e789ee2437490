"""Tests for the theorem verifiers and the randomized suite."""

import math
import sys
import warnings

import numpy as np
import pytest

from framekit import (
    AngleReport,
    BoundsReport,
    Frame,
    FusionFrame,
    RedundancyProfile,
    Subspace,
    SuiteConfig,
    TheoremVerdict,
    cosine_angles,
    full_space,
    frame_perturbation_mu,
    fusion_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    optimal_frame_bounds,
    redundancy_bounds,
    replay_instance,
    run_random_suite,
    subspace_from_spanning,
    verify_angle_sums,
    verify_fusion_perturbed_bounds,
    verify_fusion_redundancy_perturbation,
    verify_normalized_perturbation,
    verify_perturbed_frame_bounds,
    verify_redundancy_perturbation,
    verify_riesz_redundancy,
    vector_span,
)
from framekit import fusion, linalg, perturb
from framekit.errors import DimensionError, PreconditionError
from framekit.theorems import (
    MIN_LOWER,
    THEOREM_IDS,
    THEOREMS,
    TheoremTally,
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
        phi = Frame(Frame(rng.standard_normal((6, 3))).unit_columns.T)
        psi, _ = generate_perturbed_frame(phi, 0.2, seed=8, norm_preserving=True)
        verdict = verify_normalized_perturbation(phi, psi)
        mu = verdict.predicted["mu"]
        mu_normalized = verdict.observed["mu_normalized"]
        assert mu_normalized == pytest.approx(mu, abs=1e-12)
        assert verdict.equality_residuals["excess"] <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_common_scale_divides_the_constant(self, alpha):
        rng = np.random.default_rng(9)
        phi = Frame(alpha * Frame(rng.standard_normal((5, 3))).unit_columns.T)
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

    def test_overflowed_norm_gates(self):
        # The first vector's norm is summed in its largest entry's binade,
        # with no overflow, so the true norm difference gates, and the
        # frame constant takes no difference norms that could overflow.
        phi = Frame([[1e154, 1e154], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi.norms()[0] == pytest.approx(math.sqrt(2) * 1e154, rel=1e-15)
            verdict = verify_normalized_perturbation(phi, Frame(np.eye(2)))
        assert verdict.notes == (
            "gate failed: vector norms differ by 1.414e+154; the lemma needs equal norms"
        )


def test_equal_norms_pairs_decide_alike_in_every_binade():
    # Scaling a pair by 2^k moves each norm by exactly 2^k and leaves the
    # unit columns and the equal-norms verdicts as they are, down to
    # 2^-1000, where every sum of squares underflows.
    rows = [t for t in THEOREMS if t.id in ("normalized_perturbation", "angle_sum_frames")]
    rng = np.random.default_rng(71)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        phi = Frame(float(rng.uniform(0.5, 2.0))
                    * Frame(rng.standard_normal((int(rng.integers(dim, 13)), dim))).unit_columns.T)
        target = float(rng.uniform(0.1, 0.9)) * math.sqrt(optimal_frame_bounds(phi).lower)
        psi, _ = generate_perturbed_frame(phi, target, int(rng.integers(2**31)), norm_preserving=True)
        for k in range(-1000, 1, 50):
            a, b = Frame(np.ldexp(phi.vectors, k)), Frame(np.ldexp(psi.vectors, k))
            assert np.array_equal(a.norms(), np.ldexp(phi.norms(), k))
            assert np.array_equal(a.unit_columns, phi.unit_columns)
            for row in rows:
                verdict = row.run(a, b)
                assert verdict.hypotheses_met and verdict.inequality_pass, (row.id, k)


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
            phi = Frame(scale * Frame(rng.standard_normal((count, dim))).unit_columns.T)
            target = float(rng.uniform(0.1, 0.9)) * math.sqrt(optimal_frame_bounds(phi).lower)
            psi, _ = generate_perturbed_frame(
                phi, target, seed=int(rng.integers(2**31)), norm_preserving=True
            )
            verdict = verify_redundancy_perturbation(phi, psi)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_generic_instances_have_positive_residuals(self):
        rng = np.random.default_rng(14)
        phi = Frame(Frame(rng.standard_normal((8, 3))).unit_columns.T)
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
                * math.sqrt(optimal_frame_bounds(w).lower)
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
                * math.sqrt(redundancy_bounds(w).lower)
                / math.sqrt(count)
            )
            v, _ = generate_perturbed_fusion(w, target, seed=int(rng.integers(2**31)))
            verdict = verify_fusion_redundancy_perturbation(w, v)
            assert verdict.hypotheses_met
            assert verdict.inequality_pass, verdict

    def test_weighted_pair_gets_the_unit_weight_verdict(self):
        # The statement concerns the subspaces alone: the verifier measures
        # a weighted pair at unit weights, so the weights change nothing.
        rng = np.random.default_rng(23)
        w = random_fusion_frame(rng, 4, 5)
        v, _ = generate_perturbed_fusion(w, 0.05, seed=24)
        assert np.ptp(w.weights) > 0
        weighted = verify_fusion_redundancy_perturbation(w, v)
        unit = verify_fusion_redundancy_perturbation(w.with_unit_weights(), v.with_unit_weights())
        assert weighted.hypotheses_met
        assert weighted.to_dict() == unit.to_dict()


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
            references = (
                full_space(dim),
                vector_span(rng.standard_normal(dim)),
                subspace_from_spanning(rng.standard_normal((dim // 2, dim))),
            )
            for reference in references:
                verdict = verify_angle_sums(structure, reference)
                sum_r2 = sum_s2 = gap_worst = 0.0
                for sub in subs:
                    angle = cosine_angles(reference, sub)
                    r, s, gap = angle.r, angle.s, angle.gap
                    sum_r2 += r * r
                    sum_s2 += s * s
                    gap_worst = max(gap_worst, abs(r * r + gap * gap - 1.0))
                assert verdict.predicted == {"lower": sum_r2, "upper": sum_s2}
                assert verdict.observed["gap_link_worst"] == gap_worst

    def test_no_svd_at_the_full_space(self, monkeypatch):
        # At the full space the ranks decide every extreme: a member of
        # rank below n has infimum 0, supremum 1 and gap 1, a full-rank
        # member (P_W = I) infimum 1, supremum 1 and gap 0.
        rng = np.random.default_rng(27)
        ff = unit_fusion(rng, 5, 12)
        assert max(ff.ranks) < 5
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        verify_angle_sums(ff, full_space(5))
        verify_angle_sums(Frame(rng.standard_normal((30, 5))), full_space(5))
        assert calls == []
        full = FusionFrame(ff.members + ((full_space(5), 1.0),) * 3)
        verdict = verify_angle_sums(full, full_space(5))
        assert calls == []
        assert verdict.predicted["upper"] == full.count
        assert verdict.observed["gap_link_worst"] == 0.0

    def test_full_rank_members_pass_the_gap_link(self):
        # A member spanning R^n is decided by the full rule: its infimum
        # cosine is exactly 1 and its gap exactly 0, so the link is 0.
        # A spectral infimum of 1 - eps left a link of about 1.5e-8 and
        # failed most of these frames.
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ff = FusionFrame(((subspace_from_spanning(rng.standard_normal((n, n))), 1.0),))
            verdict = verify_angle_sums(ff, full_space(n))
            assert verdict.inequality_pass
            assert verdict.observed["gap_link_worst"] == 0.0
            assert verdict.predicted == {"lower": 1.0, "upper": 1.0}


class TestRandomFusionFrame:
    def test_one_qr_per_distinct_rank(self, monkeypatch):
        # The Gaussian blocks of one rank are factored in one stacked QR.
        calls = []
        qr = linalg._qr
        monkeypatch.setattr(linalg, "_qr", lambda a: calls.append(a.shape) or qr(a))
        ff = random_fusion_frame(np.random.default_rng(74), 5, 12)
        ranks = sorted(set(ff.ranks))
        assert len(ranks) > 1
        assert sorted(shape[2] for shape in calls) == ranks
        assert sum(shape[0] for shape in calls) == ff.count

    def test_draws_keep_the_bits_of_one_span_per_member(self):
        # The reference draws rank, block and weight per member, in order,
        # and spans each block on its own.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ff = random_fusion_frame(rng, int(rng.integers(2, 9)), int(rng.integers(2, 14)))
            rng = np.random.default_rng(seed)
            dim, count = int(rng.integers(2, 9)), int(rng.integers(2, 14))
            while True:
                members = []
                for _ in range(count):
                    block = rng.standard_normal((int(rng.integers(1, dim)), dim))
                    members.append((subspace_from_spanning(block), float(rng.uniform(0.5, 2.0))))
                reference = FusionFrame(tuple(members))
                if optimal_frame_bounds(reference).lower >= MIN_LOWER:
                    break
            assert ff.weights.tobytes() == reference.weights.tobytes()
            assert ff.unit_columns.tobytes() == reference.unit_columns.tobytes()
            for a, b in zip(ff.subspaces, reference.subspaces):
                assert a.basis.tobytes() == b.basis.tobytes()


    def test_a_short_block_is_spanned_on_its_own(self):
        # Blocks whose last row repeats their first have a short diagonal
        # entry: those members leave the stack for subspace_from_spanning
        # and come out one rank lower, with its bits.
        class RepeatingRows:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, shape):
                block = self.rng.standard_normal(shape)
                block[-1] = block[0]
                return block

            def __getattr__(self, name):
                return getattr(self.rng, name)

        ff = random_fusion_frame(RepeatingRows(75), 6, 10)
        rng = RepeatingRows(75)
        blocks = []
        for _ in range(10):
            blocks.append(rng.standard_normal((int(rng.integers(1, 6)), 6)))
            rng.uniform(0.5, 2.0)
        assert ff.ranks == tuple(max(1, len(b) - 1) for b in blocks)
        assert any(len(b) > 1 for b in blocks)
        for sub, block in zip(ff.subspaces, blocks):
            assert sub.basis.tobytes() == subspace_from_spanning(block).basis.tobytes()


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
        # The generators draw dimensions and counts as int64.
        for field in ("dim_range", "count_range"):
            with pytest.raises(PreconditionError, match=field):
                SuiteConfig(**{field: (2, 2**63)})
        # An instance's largest array, 2 n N (n - 1) float64 entries, must
        # stay within numpy's 2**63 - 1 bytes: at n = 2, N < 2**58.
        SuiteConfig(dim_range=(2, 2), count_range=(2, 2**58 - 1))
        with pytest.raises(PreconditionError, match="size limit"):
            SuiteConfig(dim_range=(2, 2), count_range=(2, 2**58))
        with pytest.raises(PreconditionError, match="size limit"):
            SuiteConfig(dim_range=(2, 2**63 - 1), count_range=(2, 2**63 - 1))

    def test_ranges_become_tuples(self):
        # The benchmark keys operations by ``config.dim_range``.
        config = SuiteConfig(dim_range=[2, 3], count_range=[2, 5], mu_fraction_range=[0.2, 0.4])
        assert (config.dim_range, config.count_range, config.mu_fraction_range) == (
            (2, 3), (2, 5), (0.2, 0.4)
        )
        assert hash(config) == hash(SuiteConfig(dim_range=(2, 3), count_range=(2, 5),
                                                mu_fraction_range=(0.2, 0.4)))

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

    def test_instance_measures_each_value_once(self, monkeypatch):
        # The generators' landing constants are the verifiers' constants,
        # and each structure's spectra are taken once.  Stacks are told
        # apart by their bits: the stacks of one instance's distinct
        # structures differ.
        differences = []
        take = perturb._projector_differences
        monkeypatch.setattr(
            perturb, "_projector_differences", lambda w, v: differences.append(1) or take(w, v)
        )
        stacks = []
        gram = linalg._gram_eigenvalues

        def record(c):
            if sys._getframe(1).f_globals["__name__"] == "framekit.frames":
                stacks.append((c.shape, c.tobytes()))
            return gram(c)

        monkeypatch.setattr(linalg, "_gram_eigenvalues", record)
        replay_instance(SuiteConfig(), 0)
        assert len(differences) == 2
        assert len(stacks) == len(set(stacks)) > 0

    def test_no_svd_input_repeats_within_an_instance(self, monkeypatch):
        # Every generator returns the constant its pair's memo holds, so a
        # verifier reading it again decomposes nothing twice.
        inputs = []
        svd = linalg._svdvals

        def record(a):
            inputs.append((a.shape, a.tobytes()))
            return svd(a)

        monkeypatch.setattr(linalg, "_svdvals", record)
        config = SuiteConfig(seed=905)
        for index in range(50):
            inputs.clear()
            replay_instance(config, index)
            assert len(inputs) == len(set(inputs)) > 0, index

    def test_an_instance_calls_no_numpy_linalg_wrapper(self, monkeypatch):
        # Every LAPACK call and column norm goes through the ``linalg``
        # kernels, which call numpy's gufuncs without its wrappers.
        def wrapper(*args, **kwargs):
            raise AssertionError("np.linalg wrapper called")

        for name in ("eigvalsh", "svd", "qr", "norm"):
            monkeypatch.setattr(np.linalg, name, wrapper)
        config = SuiteConfig()
        for index in range(50):
            replay_instance(config, index)

    GUARD_INSTANCES = [*((SuiteConfig(seed=905), i) for i in range(20)),
                       (SuiteConfig(dim_range=(50, 50), count_range=(50, 50), seed=5), 0)]

    def test_an_instance_builds_no_member_subspace(self, monkeypatch):
        # Every fusion frame of an instance is its stack, ranks and
        # weights: no member Subspace is made, checked or unchecked.  The
        # only Subspaces are the two angle-sum references ``full_space(n)``,
        # identity bases built unchecked.
        unchecked, checked = [], []
        make, check = fusion._orthonormal_subspace, Subspace.__post_init__
        monkeypatch.setattr(fusion, "_orthonormal_subspace", lambda b: unchecked.append(b) or make(b))
        monkeypatch.setattr(Subspace, "__post_init__", lambda s: checked.append(s) or check(s))
        for config, index in self.GUARD_INSTANCES:
            unchecked.clear()
            replay_instance(config, index)
            assert checked == []
            assert len(unchecked) == 2
            assert all(np.array_equal(b, np.eye(len(b))) for b in unchecked)

    def test_an_instance_runs_no_boundary_check(self, monkeypatch):
        # The frames an instance draws and generates are built unchecked
        # (``frames._frame``): no Frame constructor check and no
        # ``linalg.as_matrix`` runs.
        calls = []
        check, as_matrix = Frame.__post_init__, linalg.as_matrix
        monkeypatch.setattr(Frame, "__post_init__", lambda f: calls.append("Frame") or check(f))
        monkeypatch.setattr(linalg, "as_matrix", lambda m: calls.append("as_matrix") or as_matrix(m))
        Frame([[1.0, 0.0]])
        assert calls == ["Frame", "as_matrix"]
        for config, index in self.GUARD_INSTANCES:
            calls.clear()
            replay_instance(config, index)
            assert calls == [], (config.seed, index)

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

    def test_tally_counts_gated_and_failed_verdicts(self):
        def verdict(met, passing, margin, residual):
            return TheoremVerdict(
                theorem_id="t", hypotheses_met=met, predicted={}, observed={},
                inequality_pass=passing, equality_residuals={"lower": residual},
                notes="", margin=margin,
            )

        tally = TheoremTally(theorem_id="t")
        tally.add(verdict(True, True, 0.25, 0.5), 0, 7)
        tally.add(verdict(False, True, None, 100.0), 1, 7)  # gated: nothing recorded
        tally.add(verdict(True, False, -0.5, 1.5), 2, 7)
        assert tally.to_dict() == {
            "theorem_id": "t",
            "passed": 1,
            "failed": 1,
            "gated": 1,
            "worst_margin": -0.5,
            "residual_histograms": {
                "lower": {
                    "counts": [1] + [0] * 10 + [1],
                    "edges": np.linspace(0.5, 1.5, 13).tolist(),
                    "max": 1.5,
                }
            },
            "failures": [{"index": 2, "seed": [7, 2], "margin": -0.5}],
        }

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


def _band_cases():
    """(verifier, original, perturbed, constant c, base extremes, perturbed
    extremes, leading ``predicted`` keys, asserted sides) for the four
    perturbation statements, each on a pair whose hypotheses hold."""
    rng = np.random.default_rng(17)
    phi = Frame(1.5 * Frame(rng.standard_normal((6, 3))).unit_columns.T)
    target = 0.3 * math.sqrt(optimal_frame_bounds(phi).lower)
    psi, _ = generate_perturbed_frame(phi, target, seed=3, norm_preserving=True)
    w = unit_fusion(rng, 3, 5)
    v, _ = generate_perturbed_fusion(w, 0.3 * math.sqrt(redundancy_bounds(w).lower / 5), seed=4)
    # Unequal vector norms: the normalized constant 2 reaches sqrt(2), the
    # root of the lower redundancy, so only the upper side is asserted.
    tall, flipped = Frame([[10.0], [1.0]]), Frame([[10.0], [-1.0]])
    mu = frame_perturbation_mu(phi, psi)
    mu_n = frame_perturbation_mu(Frame(phi.unit_columns.T), Frame(psi.unit_columns.T))
    fusion_c = fusion_perturbation_mu(w, v) * math.sqrt(5)
    both = ("lower", "upper")
    return [
        (verify_perturbed_frame_bounds, phi, psi, mu, optimal_frame_bounds, ["mu"], both),
        (verify_redundancy_perturbation, phi, psi, mu_n, redundancy_bounds,
         ["mu", "mu_normalized"], ("upper", "lower")),
        (verify_redundancy_perturbation, tall, flipped, 2.0, redundancy_bounds,
         ["mu", "mu_normalized"], ("upper",)),
        (verify_fusion_perturbed_bounds, w, v, fusion_c, optimal_frame_bounds, ["mu"], both),
        (verify_fusion_redundancy_perturbation, w, v, fusion_c, redundancy_bounds, ["mu"], both),
    ]


@pytest.mark.parametrize("case", _band_cases(), ids=lambda c: c[0].__name__)
def test_perturbation_band(case):
    """Every perturbation verdict is the band ``(sqrt(A) - c)^2`` to
    ``(sqrt(B) + c)^2`` around the original extremes, with its keys in the
    order ``framekit verify`` prints."""
    verify, a, b, c, extremes, leading, sides = case
    verdict = verify(a, b)
    base, obs = extremes(a), extremes(b)
    band = {"lower": (math.sqrt(base.lower) - c) ** 2, "upper": (math.sqrt(base.upper) + c) ** 2}
    slack = {"lower": obs.lower - band["lower"], "upper": band["upper"] - obs.upper}
    assert verdict.hypotheses_met and verdict.inequality_pass
    assert list(verdict.predicted) == [*leading, *sides]
    for side in sides:
        assert verdict.predicted[side] == pytest.approx(band[side], rel=1e-12)
    assert verdict.observed == {"lower": obs.lower, "upper": obs.upper}
    assert list(verdict.equality_residuals) == list(sides)
    assert verdict.margin == pytest.approx(min(slack[s] for s in sides), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "record, expected",
    [
        (
            BoundsReport(1.0, 2.0, True, False, False),
            {"lower": 1.0, "upper": 2.0, "is_frame": True, "is_tight": False, "is_parseval": False},
        ),
        (
            RedundancyProfile(0.5, 2.5, False, 1.5),
            {"lower": 0.5, "upper": 2.5, "uniform": False, "mean": 1.5},
        ),
        (AngleReport(0.6, 1.0, 0.9, 0.8), {"r": 0.6, "s": 1.0, "theta": 0.9, "gap": 0.8}),
        (
            TheoremVerdict("t", True, {"mu": 0.1, "upper": 4.0}, {"lower": 1.0}, False, {"upper": 0.5}, "n", -0.5),
            {
                "theorem_id": "t",
                "hypotheses_met": True,
                "predicted": {"mu": 0.1, "upper": 4.0},
                "observed": {"lower": 1.0},
                "inequality_pass": False,
                "equality_residuals": {"upper": 0.5},
                "notes": "n",
                "margin": -0.5,
            },
        ),
        (
            SuiteConfig(instances=3, dim_range=[2, 3], seed=5),
            {
                "instances": 3,
                "dim_range": [2, 3],
                "count_range": [2, 12],
                "mu_fraction_range": [0.1, 0.9],
                "seed": 5,
            },
        ),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, dict) else "",
)
def test_record_to_dict(record, expected):
    """Fields in declaration order (the order ``framekit verify`` and
    ``analyze`` print), tuples as lists, dicts as copies."""
    out = record.to_dict()
    assert out == expected
    assert list(out) == list(expected)
    for key, value in out.items():
        assert type(value) is type(expected[key])
        if isinstance(value, dict):
            assert value is not getattr(record, key)
            assert list(value) == list(expected[key])
