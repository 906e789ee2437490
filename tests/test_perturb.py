"""Tests for perturbation measurement and instance generation."""

import json
import math

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
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
from framekit.frames import _rank_stacks
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

    def test_per_index_norms_are_the_column_norms_of_a_c_ordered_difference(self):
        # np.linalg.norm(axis=0) sums in memory order, so an F-ordered
        # difference moves the last digit of some column norms.
        rng = np.random.default_rng(67)
        for n, count in [(3, 7), (8, 20), (20, 60), (30, 200)]:
            phi = Frame(rng.standard_normal((count, n)))
            psi = Frame(rng.standard_normal((count, n)))
            diff = synthesis_matrix(phi) - synthesis_matrix(psi)
            assert diff.flags.c_contiguous
            expected = np.linalg.norm(diff, axis=0)
            got = np.array(frame_perturbation_mu(phi, psi).per_index_norms)
            assert got.tobytes() == expected.tobytes()

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

    def test_norm_preserving_builds_one_frame(self, monkeypatch):
        # Bisection steps measure raw arrays; only the step the generator
        # lands on becomes a Frame.
        rng = np.random.default_rng(61)
        phi = Frame(rng.standard_normal((9, 4)))
        built = []
        post_init = Frame.__post_init__
        monkeypatch.setattr(Frame, "__post_init__", lambda f: built.append(1) or post_init(f))
        psi, achieved = generate_perturbed_frame(phi, 0.3, seed=17, norm_preserving=True)
        assert len(built) == 1
        monkeypatch.undo()
        assert achieved == frame_perturbation_mu(phi, psi).mu

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

    def test_generation_moves_the_bases_once(self, monkeypatch):
        # Bisection steps take the closed form; only the landing step
        # evaluates the geodesic path.
        calls = []
        call = perturb._GeodesicPath.__call__
        monkeypatch.setattr(
            perturb._GeodesicPath, "__call__", lambda self, t: calls.append(t) or call(self, t)
        )
        rng = np.random.default_rng(59)
        w = theorems.random_fusion_frame(rng, 6, 8)
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=15)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert len(calls) == 1

    def test_generation_takes_one_svd_per_rank_chunk(self, monkeypatch):
        # The tangents of each rank chunk are factored by one stacked SVD.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        rng = np.random.default_rng(60)
        w = theorems.random_fusion_frame(rng, 6, 12)
        chunks = list(_rank_stacks(w.ranks, w.unit_columns))
        assert len(chunks) < w.count
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=16)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert len(calls) == len(chunks)

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
            path = perturb._GeodesicPath([u], [h])
            (theta,) = path.thetas
            assert theta == pytest.approx(np.linalg.norm(h, 2), rel=1e-12)
            for t in np.linspace(0.0, np.pi / (2.0 * theta), 7):
                (y,) = path(t)
                assert np.max(np.abs(y.T @ y - np.eye(k))) <= 1e-12
                gap = np.linalg.norm(u @ u.T - y @ y.T, 2)
                assert gap == pytest.approx(math.sin(t * theta), abs=1e-12)

    def test_stacked_geodesic_matches_each_member_alone(self):
        # Equal-rank members share one stacked SVD; each must come out
        # bit for bit as its own single-member geodesic.
        rng = np.random.default_rng(65)
        n = 6
        bases = [
            subspace_from_spanning(rng.standard_normal((k, n))).basis
            for k in (2, 1, 3, 2, 1, 2, 5, 3, 1)
        ]
        tangents = [perturb._horizontal(u, rng.standard_normal(u.shape)) for u in bases]
        path = perturb._GeodesicPath(bases, tangents)
        for i, (u, h) in enumerate(zip(bases, tangents)):
            alone = perturb._GeodesicPath([u], [h])
            (theta,) = alone.thetas
            assert path.thetas[i] == theta
            for t in (0.0, 0.3, 1.0, 0.5 * np.pi / theta, 2.7):
                assert np.array_equal(path(t)[i], alone(t)[0])

    def test_closed_form_constant_matches_measured_constant(self):
        # sum_i w_i^2 (P_i - P_i(t))^2 = g diag(w^2 sin^2(t angles)) g^T
        # holds at every step, past pi / (2 theta) too, because each Q_i
        # is orthogonal to U_i; a full-space member stays fixed.  The
        # floor covers steps where every member has come back round and
        # both routes read rounding noise (about 1e-16).
        rng = np.random.default_rng(66)
        n = 5
        bases = [
            subspace_from_spanning(rng.standard_normal((k, n))).basis
            for k in (1, 3, 2, 3, 1, 5, 4, 2)
        ]
        weights = rng.uniform(0.5, 2.0, size=len(bases))
        tangents = [
            np.zeros_like(u) if u.shape[1] == n else perturb._horizontal(u, rng.standard_normal(u.shape))
            for u in bases
        ]
        path = perturb._GeodesicPath(bases, tangents)
        closed = path.fusion_constant(weights)
        w = FusionFrame(tuple((Subspace(u), wt) for u, wt in zip(bases, weights)))
        assert closed(0.0) == 0.0
        thetas = path.thetas
        for t in np.linspace(0.0, np.pi / min(thetas[thetas > 0]), 13)[1:]:
            v = FusionFrame(tuple((Subspace(u), wt) for u, wt in zip(path(t), weights)))
            measured = perturb._fusion_constant(w, v)
            assert abs(closed(t) - measured) <= 1e-13 * max(measured, 1e-3)
