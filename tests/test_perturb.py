"""Tests for perturbation measurement and instance generation."""

import json
import math

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    check_lambda_perturbation,
    frame_perturbation_mu,
    fusion_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    subspace_from_spanning,
    synthesis_matrix,
    vector_span,
)
from framekit import cli, linalg, perturb, theorems
from framekit.errors import DimensionError, GenerationError, PreconditionError
from framekit.fileio import load_structure, write_structure
from framekit.fusion import full_space


def random_fusion(rng, dim, count):
    members = []
    for _ in range(count):
        rank = int(rng.integers(1, dim))
        members.append((subspace_from_spanning(rng.standard_normal((rank, dim))), 1.0))
    return FusionFrame(tuple(members))


class TestFramePerturbationMu:
    def test_identical_frames(self):
        f = Frame([[1.0, 0.0], [0.0, 1.0]])
        rep = frame_perturbation_mu(f, f)
        assert rep.mu == 0.0
        assert rep.per_index_norms == (0.0, 0.0)

    def test_single_column_difference(self):
        phi = Frame([[1.0, 0.0], [0.0, 1.0]])
        psi = Frame([[1.0, 0.0], [1.0, 0.0]])
        rep = frame_perturbation_mu(phi, psi)
        assert rep.mu == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_mu_dominates_column_norms(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            phi = Frame(rng.standard_normal((6, 3)))
            psi = Frame(rng.standard_normal((6, 3)))
            rep = frame_perturbation_mu(phi, psi)
            assert rep.mu >= max(rep.per_index_norms) - 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        phi = Frame(rng.standard_normal((5, 3)))
        psi = Frame(rng.standard_normal((5, 3)))
        a = frame_perturbation_mu(phi, psi)
        b = frame_perturbation_mu(psi, phi)
        assert abs(a.mu - b.mu) <= 1e-12

    def test_constant_satisfies_the_definition(self):
        rng = np.random.default_rng(42)
        phi = Frame(rng.standard_normal((7, 4)))
        psi = Frame(rng.standard_normal((7, 4)))
        mu = frame_perturbation_mu(phi, psi).mu
        diff = synthesis_matrix(phi) - synthesis_matrix(psi)
        for _ in range(100):
            c = rng.standard_normal(7)
            assert np.linalg.norm(diff @ c) <= mu * np.linalg.norm(c) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frame_perturbation_mu(Frame([[1.0, 0.0]]), Frame([[1.0, 0.0, 0.0]]))


class TestFusionPerturbationMu:
    def test_identical(self):
        rng = np.random.default_rng(43)
        ff = random_fusion(rng, 3, 2)
        assert fusion_perturbation_mu(ff, ff).mu == 0.0

    def test_orthogonal_lines(self):
        w = FusionFrame(((vector_span([1.0, 0.0]), 1.0),))
        v = FusionFrame(((vector_span([0.0, 1.0]), 1.0),))
        rep = fusion_perturbation_mu(w, v)
        # the projector difference is diag(1, -1)
        assert rep.mu == pytest.approx(1.0, abs=1e-12)

    def test_triangle_and_column_bounds(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            w = random_fusion(rng, 4, 3)
            v = random_fusion(rng, 4, 3)
            rep = fusion_perturbation_mu(w, v)
            assert rep.mu <= sum(rep.per_index_norms) + 1e-9
            assert rep.mu >= max(rep.per_index_norms) - 1e-9

    def test_per_index_norms_below_mu(self):
        rng = np.random.default_rng(45)
        w = random_fusion(rng, 5, 4)
        v = random_fusion(rng, 5, 4)
        rep = fusion_perturbation_mu(w, v)
        assert all(norm <= rep.mu + 1e-9 for norm in rep.per_index_norms)

    def test_symmetric(self):
        rng = np.random.default_rng(46)
        w = random_fusion(rng, 4, 3)
        v = random_fusion(rng, 4, 3)
        assert abs(fusion_perturbation_mu(w, v).mu - fusion_perturbation_mu(v, w).mu) <= 1e-12


    def test_constant_matches_svd_of_concatenation(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(1, 7))
            members = []
            for _ in range(2 * count):
                rank = int(rng.integers(1, dim + 1))
                sub = subspace_from_spanning(rng.standard_normal((rank, dim)))
                members.append((sub, float(rng.uniform(0.2, 3.0))))
            w = FusionFrame(tuple(members[:count]))
            v = FusionFrame(tuple(members[count:]))
            blocks = [
                ww * ws.basis @ ws.basis.T - vw * vs.basis @ vs.basis.T
                for (ws, ww), (vs, vw) in zip(w.members, v.members)
            ]
            reference = np.linalg.svd(np.hstack(blocks), compute_uv=False)[0]
            mu = fusion_perturbation_mu(w, v).mu
            assert mu == perturb._fusion_constant(w, v)
            assert abs(mu - reference) <= 1e-12 * reference

    def test_cli_achieved_mu_is_the_reported_constant(self, tmp_path, capsys):
        rng = np.random.default_rng(56)
        w = theorems.random_fusion_frame(rng, 5, 4)
        src, out = tmp_path / "w.json", tmp_path / "v.json"
        write_structure(src, w)
        argv = ["perturb", str(src), "--mu", "0.2", "--seed", "4", "--out", str(out),
                "--format", "json"]
        assert cli.main(argv) == 0
        achieved = json.loads(capsys.readouterr().out)["results"]["achieved_mu"]
        assert achieved == fusion_perturbation_mu(w, load_structure(out)).mu


class TestLambdaPerturbation:
    def test_identical_families_hold(self):
        subs = [vector_span([1.0, 0.0]), vector_span([0.0, 1.0])]
        verdict = check_lambda_perturbation(subs, subs, 0.0, 0.0, 1e-6)
        assert verdict.holds_exact is True
        assert verdict.holds_on_samples is True

    def test_exact_reduction_matches_operator_norms(self):
        rng = np.random.default_rng(47)
        w = random_fusion(rng, 4, 3)
        v = random_fusion(rng, 4, 3)
        rep = fusion_perturbation_mu(w, v)
        top = max(rep.per_index_norms)
        ok = check_lambda_perturbation(
            w.subspaces, v.subspaces, 0.0, 0.0, rep.mu + 1e-12
        )
        assert ok.holds_exact is True
        assert abs((rep.mu - top) - ok.worst_margin) <= 1e-10

    def test_rotated_line_threshold(self):
        theta = math.radians(30.0)
        w = [vector_span([1.0, 0.0])]
        v = [vector_span([math.cos(theta), math.sin(theta)])]
        sin_theta = math.sin(theta)
        above = check_lambda_perturbation(w, v, 0.0, 0.0, sin_theta + 1e-9)
        below = check_lambda_perturbation(w, v, 0.0, 0.0, sin_theta - 1e-6)
        assert above.holds_exact is True
        assert below.holds_exact is False
        assert below.counterexample is not None
        assert below.counterexample_index == 0

    def test_sampled_mode_with_mixed_terms(self):
        rng = np.random.default_rng(48)
        w = random_fusion(rng, 3, 2)
        v = random_fusion(rng, 3, 2)
        top = max(fusion_perturbation_mu(w, v).per_index_norms)
        # generous epsilon: the mixed inequality must hold everywhere
        verdict = check_lambda_perturbation(
            w.subspaces, v.subspaces, 0.5, 0.5, top + 0.1, samples=2000, seed=1
        )
        assert verdict.holds_exact is None
        assert verdict.holds_on_samples is True
        assert verdict.worst_margin >= 0

    def test_sampled_mode_detects_violation_at_top_direction(self):
        w = [vector_span([1.0, 0.0])]
        v = [vector_span([0.0, 1.0])]
        # projections onto W and V vanish along the worst direction of
        # P-Q only when lambda terms cannot help; epsilon alone is short
        verdict = check_lambda_perturbation(w, v, 0.1, 0.1, 0.5, samples=100, seed=2)
        assert verdict.holds_on_samples is False
        assert verdict.counterexample is not None

    def test_parameter_validation(self):
        subs = [vector_span([1.0, 0.0])]
        with pytest.raises(PreconditionError):
            check_lambda_perturbation(subs, subs, 1.0, 0.0, 0.1)
        with pytest.raises(PreconditionError):
            check_lambda_perturbation(subs, subs, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            check_lambda_perturbation(subs, [], 0.0, 0.0, 0.1)


class TestGeneratePerturbedFrame:
    def test_gaussian_mode_hits_target_exactly(self):
        rng = np.random.default_rng(49)
        phi = Frame(rng.standard_normal((6, 3)))
        psi, achieved = generate_perturbed_frame(phi, 0.37, seed=5)
        assert achieved == pytest.approx(0.37, abs=1e-12)
        assert frame_perturbation_mu(phi, psi).mu == pytest.approx(0.37, abs=1e-12)

    def test_norm_preserving_keeps_norms(self):
        rng = np.random.default_rng(50)
        phi = Frame(rng.standard_normal((5, 3)))
        psi, achieved = generate_perturbed_frame(phi, 0.2, seed=6, norm_preserving=True)
        assert np.allclose(psi.norms(), phi.norms(), atol=1e-12)
        assert achieved <= 1.05 * 0.2
        assert frame_perturbation_mu(phi, psi).mu == pytest.approx(achieved, abs=1e-12)

    def test_norm_preserving_small_target_stays_close(self):
        phi = Frame(np.eye(3))
        psi, achieved = generate_perturbed_frame(phi, 1e-6, seed=7, norm_preserving=True)
        assert achieved <= 1.05e-6
        assert np.max(np.abs(psi.vectors - phi.vectors)) <= 2e-6

    def test_rejects_non_positive_target(self):
        with pytest.raises(PreconditionError):
            generate_perturbed_frame(Frame(np.eye(2)), 0.0, seed=1)

    def test_norm_preserving_drift_stays_at_rounding_level(self, monkeypatch):
        # Suite seed 201, instance 941 once drifted by 1.6e-12 relative.
        pairs = []

        def record(phi, target_mu, seed, norm_preserving=False):
            out = generate_perturbed_frame(phi, target_mu, seed, norm_preserving)
            if norm_preserving:
                pairs.append((phi, out[0]))
            return out

        monkeypatch.setattr(theorems, "generate_perturbed_frame", record)
        theorems.replay_instance(theorems.SuiteConfig(seed=201), 941)
        (phi, psi), = pairs
        assert np.max(np.abs(psi.norms() / phi.norms() - 1.0)) <= 1e-14

    def test_norm_preserving_unreachable_target_errors(self):
        phi = Frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(GenerationError, match="unreachable"):
            generate_perturbed_frame(phi, 100.0, seed=42, norm_preserving=True)

    def test_norm_preserving_extends_a_short_bracket(self, monkeypatch):
        # Suite seed 23, instance 3780: at step 1 the turns of this basis
        # reach 0.88 of the target; the second bracket end lands it.
        pairs = []

        def record(phi, target_mu, seed, norm_preserving=False):
            out = generate_perturbed_frame(phi, target_mu, seed, norm_preserving)
            if norm_preserving:
                pairs.append((target_mu, out[1]))
            return out

        monkeypatch.setattr(theorems, "generate_perturbed_frame", record)
        theorems.replay_instance(theorems.SuiteConfig(seed=23), 3780)
        (target, achieved), = pairs
        assert abs(achieved - target) <= 0.05 * target

    def test_norm_preserving_keeps_relatively_zero_vectors(self):
        # 1e-10 is below ZERO_VECTOR_TOL times the largest norm, 1e3.
        phi = Frame([[1e3, 0.0], [0.0, 1e3], [1e-10, 0.0]])
        psi, _ = generate_perturbed_frame(phi, 10.0, seed=3, norm_preserving=True)
        assert np.array_equal(psi.vectors[2], phi.vectors[2])
        assert np.allclose(psi.norms(), phi.norms(), rtol=1e-14, atol=0.0)

    def test_norm_preserving_needs_two_dimensions(self):
        with pytest.raises(GenerationError):
            generate_perturbed_frame(Frame([[1.0]]), 0.1, seed=1, norm_preserving=True)


class TestGeneratePerturbedFusion:
    def test_achieved_within_window_and_remeasures(self):
        rng = np.random.default_rng(51)
        w = random_fusion(rng, 4, 3)
        v, achieved = generate_perturbed_fusion(w, 0.25, seed=8)
        assert abs(achieved - 0.25) <= 0.05 * 0.25
        assert fusion_perturbation_mu(w, v).mu == pytest.approx(achieved, abs=1e-12)

    def test_ranks_and_weights_preserved(self):
        rng = np.random.default_rng(52)
        w = FusionFrame(
            tuple(
                (subspace_from_spanning(rng.standard_normal((k, 5))), float(wt))
                for k, wt in [(1, 0.5), (3, 2.0), (2, 1.0)]
            )
        )
        v, _ = generate_perturbed_fusion(w, 0.1, seed=9)
        assert [s.dim for s in v.subspaces] == [s.dim for s in w.subspaces]
        assert np.array_equal(v.weights, w.weights)

    def test_unreachable_target_errors(self):
        w = FusionFrame(((vector_span([1.0, 0.0]), 1.0),))
        with pytest.raises(GenerationError):
            generate_perturbed_fusion(w, 50.0, seed=10)

    def test_rejects_non_positive_target(self):
        w = FusionFrame(((vector_span([1.0, 0.0]), 1.0),))
        with pytest.raises(PreconditionError):
            generate_perturbed_fusion(w, -0.1, seed=1)

    def test_full_space_members_cannot_move(self):
        w = FusionFrame(((full_space(3), 1.0), (full_space(3), 2.0)))
        with pytest.raises(GenerationError):
            generate_perturbed_fusion(w, 0.1, seed=11)

    def test_bisection_takes_no_singular_values(self, monkeypatch):
        # Each bisection step needs the constant only; per-member norms
        # (one SVD each) belong to the public report alone.
        calls = []
        svd = linalg.singular_values
        monkeypatch.setattr(linalg, "singular_values", lambda m: calls.append(1) or svd(m))
        rng = np.random.default_rng(57)
        w = theorems.random_fusion_frame(rng, 6, 8)
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=13)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert calls == []

    def test_generation_builds_one_subspace_per_member(self, monkeypatch):
        # Bisection steps measure raw geodesic bases; only the step the
        # generator lands on becomes a FusionFrame.
        built = []
        post_init = Subspace.__post_init__
        rng = np.random.default_rng(58)
        w = theorems.random_fusion_frame(rng, 6, 8)
        monkeypatch.setattr(Subspace, "__post_init__", lambda s: built.append(1) or post_init(s))
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=14)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert len(built) == 8

    def test_target_near_top_weight_lands_in_one_bracket(self):
        rng = np.random.default_rng(53)
        w = FusionFrame(
            tuple(
                (subspace_from_spanning(rng.standard_normal((k, 4))), wt)
                for k, wt in [(1, 0.5), (3, 2.0), (2, 1.0)]
            )
        )
        target = 0.99 * 2.0
        v, achieved = generate_perturbed_fusion(w, target, seed=12)
        assert abs(achieved - target) <= 0.05 * target
        assert fusion_perturbation_mu(w, v).mu == pytest.approx(achieved, abs=1e-12)


class TestGeodesic:
    def test_projector_gap_is_sine_of_scaled_angle(self):
        rng = np.random.default_rng(54)
        for n, k in [(2, 1), (5, 2), (6, 4), (7, 3)]:
            u = subspace_from_spanning(rng.standard_normal((k, n))).basis
            h = perturb._horizontal(u, rng.standard_normal((n, k)))
            path, (theta,) = perturb._geodesic([u], [h])
            assert theta == pytest.approx(np.linalg.norm(h, 2), rel=1e-12)
            for t in np.linspace(0.0, np.pi / (2.0 * theta), 7):
                (y,) = path(t)
                assert np.max(np.abs(y.T @ y - np.eye(k))) <= 1e-12
                gap = np.linalg.norm(u @ u.T - y @ y.T, 2)
                assert gap == pytest.approx(math.sin(t * theta), abs=1e-12)
