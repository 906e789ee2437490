"""Tests for perturbation measurement and instance generation."""

import gc
import json
import math
import weakref

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
    vector_span,
)
from framekit import cli, fusion, linalg, perturb, theorems
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
        assert frame_perturbation_mu(f, f) == 0.0

    def test_single_column_difference(self):
        phi = Frame([[1.0, 0.0], [0.0, 1.0]])
        psi = Frame([[1.0, 0.0], [1.0, 0.0]])
        assert frame_perturbation_mu(phi, psi) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_mu_dominates_column_norms(self, tmp_path, capsys):
        # The per-index norms framekit perturb prints are the columns of
        # the difference, each below the constant.
        rng = np.random.default_rng(40)
        for seed in range(20):
            phi = Frame(rng.standard_normal((6, 3)))
            results, psi = perturb_report(tmp_path, capsys, phi, 0.5, seed)
            assert results["achieved_mu"] == frame_perturbation_mu(phi, psi)
            assert results["achieved_mu"] >= max(results["per_index_norms"]) - 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        phi = Frame(rng.standard_normal((5, 3)))
        psi = Frame(rng.standard_normal((5, 3)))
        assert abs(frame_perturbation_mu(phi, psi) - frame_perturbation_mu(psi, phi)) <= 1e-12

    def test_constant_satisfies_the_definition(self):
        rng = np.random.default_rng(42)
        phi = Frame(rng.standard_normal((7, 4)))
        psi = Frame(rng.standard_normal((7, 4)))
        mu = frame_perturbation_mu(phi, psi)
        assert type(mu) is float
        diff = phi.synthesis_columns - psi.synthesis_columns
        for _ in range(100):
            c = rng.standard_normal(7)
            assert np.linalg.norm(diff @ c) <= mu * np.linalg.norm(c) + 1e-9

    def test_per_index_norms_are_the_column_norms_of_a_c_ordered_difference(self, tmp_path, capsys):
        # framekit perturb prints the column norms of the difference of its
        # input and output.  np.linalg.norm(axis=0) sums in memory order,
        # so an F-ordered difference moves the last digit of some of them.
        rng = np.random.default_rng(67)
        for n, count in [(3, 7), (8, 20), (20, 60), (30, 200)]:
            phi = Frame(rng.standard_normal((count, n)))
            results, psi = perturb_report(tmp_path, capsys, phi, 0.5, n)
            diff = load_structure(tmp_path / "in.json").synthesis_columns.copy() - psi.synthesis_columns.copy()
            assert diff.flags.c_contiguous
            expected = np.linalg.norm(diff, axis=0)
            assert np.array(results["per_index_norms"]).tobytes() == expected.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frame_perturbation_mu(Frame([[1.0, 0.0]]), Frame([[1.0, 0.0, 0.0]]))


class TestFusionPerturbationMu:
    def test_identical(self):
        rng = np.random.default_rng(43)
        ff = random_fusion(rng, 3, 2)
        assert fusion_perturbation_mu(ff, ff) == 0.0

    def test_orthogonal_lines(self):
        w = FusionFrame(((vector_span([1.0, 0.0]), 1.0),))
        v = FusionFrame(((vector_span([0.0, 1.0]), 1.0),))
        # the projector difference is diag(1, -1)
        assert fusion_perturbation_mu(w, v) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_and_column_bounds(self, tmp_path, capsys):
        # The constant of the printed member norms lies between their
        # largest and their sum.
        rng = np.random.default_rng(44)
        for seed in range(20):
            w = random_fusion(rng, 4, 3)
            results, _ = perturb_report(tmp_path, capsys, w, 0.3, seed)
            norms, mu = results["per_index_norms"], results["achieved_mu"]
            assert mu <= sum(norms) + 1e-9
            assert mu >= max(norms) - 1e-9

    def test_per_index_norms_below_mu(self, tmp_path, capsys):
        rng = np.random.default_rng(45)
        w = random_fusion(rng, 5, 4)
        results, v = perturb_report(tmp_path, capsys, w, 0.4, 3)
        mu = fusion_perturbation_mu(w, v)
        assert all(norm <= mu + 1e-9 for norm in results["per_index_norms"])

    def test_per_index_norms_are_the_member_difference_norms(self, tmp_path, capsys):
        # framekit perturb prints, per member, the top singular value of
        # a (B B^T) - b (C C^T) for the member bases and weights of its
        # input and output.
        rng = np.random.default_rng(47)
        members = [
            (subspace_from_spanning(rng.standard_normal((k, 6))), float(rng.uniform(0.5, 2.0)))
            for k in (1, 3, 2, 5, 4)
        ]
        results, v = perturb_report(tmp_path, capsys, FusionFrame(tuple(members)), 0.3, 5)
        w = load_structure(tmp_path / "in.json")
        expected = [
            np.linalg.svd(a * (s.basis @ s.basis.T) - b * (t.basis @ t.basis.T), compute_uv=False)[0]
            for (s, a), (t, b) in zip(w.members, v.members)
        ]
        assert np.array(results["per_index_norms"]).tobytes() == np.array(expected).tobytes()

    def test_symmetric(self):
        rng = np.random.default_rng(46)
        w = random_fusion(rng, 4, 3)
        v = random_fusion(rng, 4, 3)
        assert abs(fusion_perturbation_mu(w, v) - fusion_perturbation_mu(v, w)) <= 1e-12


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
            mu = fusion_perturbation_mu(w, v)
            assert type(mu) is float
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
        assert achieved == fusion_perturbation_mu(w, load_structure(out))


def perturb_report(tmp_path, capsys, structure, mu, seed):
    """The results of ``framekit perturb --format json`` on ``structure``
    (written to in.json) and the structure it writes."""
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    write_structure(src, structure)
    argv = ["perturb", str(src), "--mu", repr(mu), "--seed", str(seed), "--out", str(out),
            "--format", "json"]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)["results"], load_structure(out)


def _frames(rng):
    return [Frame(rng.standard_normal((6, 3))) for _ in range(3)]


def _fusion_frames(rng):
    return [random_fusion(rng, 4, 5) for _ in range(3)]


PAIR_MEASURES = {
    "frame_mu": (_frames, lambda f: Frame(f.vectors), frame_perturbation_mu),
    "normalized_mu": (_frames, lambda f: Frame(f.vectors), lambda a, b: theorems._normalized_mu(a, b)),
    "fusion_constant": (_fusion_frames, lambda f: FusionFrame(f.members), fusion_perturbation_mu),
}


class TestPairMemo:
    @pytest.mark.parametrize("kind", sorted(PAIR_MEASURES))
    def test_never_answers_for_another_partner(self, kind, monkeypatch):
        # psi is measured against phi, another structure phi2 and an equal
        # copy of phi: each gives the bits of a fresh computation and is
        # measured anew; only asking again about the same partner reuses.
        build, copy, measure = PAIR_MEASURES[kind]
        phi, phi2, psi = build(np.random.default_rng(71))
        calls = []
        for name in ("_svdvals", "_eigvalsh"):
            kernel = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda m, _f=kernel: calls.append(1) or _f(m))
        for partner, measured in ((phi, True), (phi2, True), (copy(phi), True), (phi, True), (phi, False)):
            fresh = measure(copy(partner), copy(psi))
            del calls[:]
            assert measure(partner, psi) == fresh
            assert bool(calls) == measured
            assert measure(partner, psi) == fresh

    def test_pair_measured_in_both_orders_dies_without_the_collector(self):
        # The memo holds the original weakly, so measuring (a, b) and
        # (b, a) makes no cycle: reference counting alone frees both.
        rng = np.random.default_rng(72)
        a, b = Frame(rng.standard_normal((5, 3))), Frame(rng.standard_normal((5, 3)))
        gc.disable()
        try:
            frame_perturbation_mu(a, b)
            frame_perturbation_mu(b, a)
            refs = weakref.ref(a), weakref.ref(b)
            del a, b
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_fusion_constant_is_measured_once_per_pair(self, monkeypatch):
        # fusion_perturbation_mu is the pair memo: one Gram spectrum per
        # pair object, with the bits of a fresh measurement of an equal pair.
        w, _, v = _fusion_frames(np.random.default_rng(73))
        fresh = fusion_perturbation_mu(FusionFrame(w.members), FusionFrame(v.members))
        calls = []
        spectrum = linalg._gram_eigenvalues
        monkeypatch.setattr(linalg, "_gram_eigenvalues", lambda c: calls.append(1) or spectrum(c))
        for pair in ((w, v), (FusionFrame(w.members), FusionFrame(v.members))):
            del calls[:]
            assert fusion_perturbation_mu(*pair) == fresh
            assert fusion_perturbation_mu(*pair) == fresh
            assert len(calls) == 1

    def test_fusion_perturb_takes_the_difference_spectrum_once(self, tmp_path, capsys, monkeypatch):
        # The generator's landing remeasure takes the one Gram spectrum of
        # the n-by-Nn projector differences; the printed member norms take none.
        rng = np.random.default_rng(74)
        w = theorems.random_fusion_frame(rng, 6, 5)
        assert 2 * sum(w.ranks) != 6 * 5  # closed-form steps have another width
        src = tmp_path / "w.json"
        write_structure(src, w)
        widths = []
        spectrum = linalg._gram_eigenvalues
        monkeypatch.setattr(linalg, "_gram_eigenvalues", lambda c: widths.append(c.shape[1]) or spectrum(c))
        argv = ["perturb", str(src), "--mu", "0.2", "--seed", "5", "--out", str(tmp_path / "v.json")]
        assert cli.main(argv) == 0
        assert widths.count(6 * 5) == 1


class TestGeneratePerturbedFrame:
    def test_gaussian_mode_hits_target_exactly(self):
        rng = np.random.default_rng(49)
        phi = Frame(rng.standard_normal((6, 3)))
        psi, achieved = generate_perturbed_frame(phi, 0.37, seed=5)
        assert achieved == pytest.approx(0.37, abs=1e-12)
        assert frame_perturbation_mu(phi, psi) == pytest.approx(0.37, abs=1e-12)

    def test_norm_preserving_keeps_norms(self):
        rng = np.random.default_rng(50)
        phi = Frame(rng.standard_normal((5, 3)))
        psi, achieved = generate_perturbed_frame(phi, 0.2, seed=6, norm_preserving=True)
        assert np.allclose(psi.norms(), phi.norms(), atol=1e-12)
        assert achieved <= 1.05 * 0.2
        assert frame_perturbation_mu(phi, psi) == pytest.approx(achieved, abs=1e-12)

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
        # reach 0.88 of the target, and a step past 1 lands it.
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

    def test_norm_preserving_fills_the_pair_memo(self, monkeypatch):
        # Each landing step is a Frame measured by frame_perturbation_mu,
        # and the last one is returned: its constant is already in the
        # pair memo, so reading it again takes no SVD.
        rng = np.random.default_rng(61)
        phi = Frame(rng.standard_normal((9, 4)))
        psi, achieved = generate_perturbed_frame(phi, 0.3, seed=17, norm_preserving=True)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert frame_perturbation_mu(phi, psi) == achieved
        assert calls == []

    def test_norm_preserving_needs_two_dimensions(self):
        with pytest.raises(GenerationError):
            generate_perturbed_frame(Frame([[1.0]]), 0.1, seed=1, norm_preserving=True)


class TestGeneratePerturbedFusion:
    def test_achieved_within_window_and_remeasures(self):
        rng = np.random.default_rng(51)
        w = random_fusion(rng, 4, 3)
        v, achieved = generate_perturbed_fusion(w, 0.25, seed=8)
        assert abs(achieved - 0.25) <= 0.05 * 0.25
        assert fusion_perturbation_mu(w, v) == pytest.approx(achieved, abs=1e-12)

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
        # Each landing step needs the constant only; per-member norms
        # (one SVD each) belong to the public report alone.
        calls = []
        top = linalg._top_singular_value
        monkeypatch.setattr(linalg, "_top_singular_value", lambda m: calls.append(1) or top(m))
        rng = np.random.default_rng(57)
        w = theorems.random_fusion_frame(rng, 6, 8)
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=13)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert calls == []

    def test_generation_builds_one_subspace_per_member(self, monkeypatch):
        # Landing steps measure raw geodesic bases, and the step the
        # generator lands on becomes a FusionFrame of its stack alone
        # (``fusion._stacked``).  Reading its members then builds one
        # unchecked Subspace per member, a copy of its block.
        built = []
        make = fusion._orthonormal_subspace
        rng = np.random.default_rng(58)
        w = theorems.random_fusion_frame(rng, 6, 8)
        monkeypatch.setattr(fusion, "_orthonormal_subspace", lambda b: built.append(1) or make(b))
        v, achieved = generate_perturbed_fusion(w, 0.3, seed=14)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert built == []
        ends = np.cumsum(v.ranks)
        for (s, _), end, rank in zip(v.members, ends, v.ranks):
            assert s.basis.tobytes() == v.unit_columns[:, end - rank : end].tobytes()
            assert s.basis.flags.c_contiguous and not s.basis.flags.writeable
        assert len(built) == 8
        assert v.members is v.members and len(built) == 8

    def test_generated_instances_take_no_gram_check(self, monkeypatch):
        # QR factors and geodesic points are orthonormal by construction,
        # so neither generator runs the constructor's checks.
        checked = []
        monkeypatch.setattr(Subspace, "__post_init__", lambda s: checked.append(1))
        rng = np.random.default_rng(60)
        w = theorems.random_fusion_frame(rng, 5, 7)
        v, _ = generate_perturbed_fusion(w, 0.2, seed=16)
        assert v.count == 7
        assert checked == []

    def test_generation_moves_the_bases_once(self, monkeypatch):
        # Landing steps take the closed form; only the landing step
        # evaluates the geodesic path.
        calls = []
        columns = perturb._GeodesicPath.columns
        monkeypatch.setattr(
            perturb._GeodesicPath, "columns", lambda self, t: calls.append(t) or columns(self, t)
        )
        rng = np.random.default_rng(59)
        w = theorems.random_fusion_frame(rng, 6, 8)
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=15)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert len(calls) == 1

    def test_generation_takes_no_svd(self, monkeypatch):
        # Each member's tangent is rank one with known factors, so no
        # member is factored.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        rng = np.random.default_rng(60)
        w = theorems.random_fusion_frame(rng, 6, 12)
        _, achieved = generate_perturbed_fusion(w, 0.3, seed=16)
        assert abs(achieved - 0.3) <= 0.05 * 0.3
        assert calls == []

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
        assert fusion_perturbation_mu(w, v) == pytest.approx(achieved, abs=1e-12)

    def test_targets_up_to_the_heaviest_movable_weight_land(self):
        # The bracket end turns the heaviest movable member by pi/2, where
        # its own constant is its weight: every target up to that weight
        # lands, full-space members (which stay fixed) included.
        rng = np.random.default_rng(67)
        for seed in range(200):
            n = int(rng.integers(2, 9))
            ranks = rng.integers(1, n + 1, size=int(rng.integers(2, 13)))
            ranks[0] = min(ranks[0], n - 1)
            weights = rng.uniform(0.5, 2.0, size=ranks.size)
            w = FusionFrame(
                tuple(
                    (subspace_from_spanning(rng.standard_normal((k, n))), wt)
                    for k, wt in zip(ranks, weights)
                )
            )
            target = 0.99 * weights[ranks < n].max()
            _, achieved = generate_perturbed_fusion(w, target, seed=seed)
            assert abs(achieved - target) <= 0.05 * target


class TestLand:
    def test_end_inside_the_window_is_returned(self):
        # A zero slope starts at the bracket's end, whose constant already
        # lands: one measurement.
        calls = []
        t, mu = perturb._land(lambda t: calls.append(t) or t, 0.0, 1.0, 1.02)
        assert (t, mu) == (1.0, 1.0)
        assert calls == [1.0]

    def test_step_that_never_lands_returns_the_lower_end(self):
        # The constant jumps from 0 to 2 at t = 0.5, past both sides of the
        # window round 1: after LAND_MAX_ITER steps the lower end, whose
        # constant lies below the target, is measured once more.
        calls = []
        t, mu = perturb._land(
            lambda t: calls.append(t) or (0.0 if t < 0.5 else 2.0), 1.0, 1.0, 1.0
        )
        assert len(calls) == perturb.LAND_MAX_ITER + 1 == 101
        assert t == pytest.approx(0.5) and t < 0.5
        assert mu == 0.0 <= (1.0 + perturb.TARGET_WINDOW) * 1.0

    def test_constant_below_the_window_at_every_end_raises(self):
        # 0.4 t never reaches 1: the first step, 2.5, passes the end, which
        # is measured once and names what the bracket reaches.
        calls = []
        with pytest.raises(GenerationError, match="reaches 0.8$"):
            perturb._land(lambda t: calls.append(t) or 0.4 * t, 0.4, 2.0, 1.0)
        assert calls == [2.0]

    @pytest.mark.parametrize("slope", [0.0, math.inf, math.nan])
    def test_unusable_slope_starts_at_the_first_end(self, slope):
        # From the end at 4, the secant through the origin of the linear
        # constant t lands on the target at once.
        calls = []
        assert perturb._land(lambda t: calls.append(t) or t, slope, 4.0, 1.0) == (1.0, 1.0)
        assert calls == [4.0, 1.0]

    def test_exact_slope_lands_in_one_measurement(self):
        calls = []
        t, mu = perturb._land(lambda t: calls.append(t) or math.sin(t), 1.0, math.pi / 2, 0.3)
        assert calls == [0.3] and t == 0.3 and mu == math.sin(0.3)

    def test_secant_climbs_from_below(self):
        # sin(t) / t falls, so each secant step stays below the target and
        # the steps grow until one lands; no end is measured.
        calls = []
        t, mu = perturb._land(lambda t: calls.append(t) or math.sin(t), 1.0, math.pi / 2, 0.98)
        assert abs(mu - 0.98) <= 0.05 * 0.98
        assert calls == sorted(calls) and len(calls) == 3 and math.pi / 2 not in calls

    def test_first_fusion_step_never_overshoots(self, monkeypatch):
        # sin^2 x <= x^2: the closed form at target / slope is at most the
        # target, up to rounding, whatever the target and the instance.
        firsts = []
        land = perturb._land

        def spy(measure, slope, end, target_mu):
            firsts.append(measure(target_mu / slope) / target_mu)
            return land(measure, slope, end, target_mu)

        monkeypatch.setattr(perturb, "_land", spy)
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            dim = int(rng.integers(2, 8))
            w = theorems.random_fusion_frame(rng, dim, int(rng.integers(2, 10)))
            target = float(rng.uniform(0.01, 0.99)) * float(np.max(w.weights))
            generate_perturbed_fusion(w, target, seed=seed)
        assert len(firsts) == 60
        assert max(firsts) <= 1.0 + 1e-12

    def test_default_suite_lands_in_about_two_measurements(self, monkeypatch):
        # Counting the slope as one measurement, over 400 default instances.
        landings, measurements = [], []
        land = perturb._land

        def count(measure, slope, end, target_mu):
            landings.append(1)
            measurements.append(1)
            return land(lambda t: measurements.append(1) or measure(t), slope, end, target_mu)

        monkeypatch.setattr(perturb, "_land", count)
        config = theorems.SuiteConfig(seed=901)
        for index in range(400):
            theorems.replay_instance(config, index)
        assert len(landings) == 3 * 400
        assert len(measurements) / len(landings) <= 2.2


def one_plane_path(rng, bases):
    """A path turning each basis in one seeded plane; full-space members
    get theta = 0 and a zero q."""
    n, ranks = bases[0].shape[0], np.array([b.shape[1] for b in bases])
    u = np.hstack(bases)
    starts = np.cumsum(ranks) - ranks
    member = np.repeat(np.arange(len(bases)), ranks)
    v = rng.standard_normal(u.shape[1])
    v /= np.sqrt(np.add.reduceat(v * v, starts))[member]
    h = perturb._horizontal(u, starts, member, rng.standard_normal((n, len(bases))))
    moves = ranks < n
    h[:, ~moves] = 0.0
    q = h / np.where(moves, np.linalg.norm(h, axis=0), 1.0)
    thetas = np.where(moves, rng.uniform(0.2, 3.0, size=len(bases)), 0.0)
    return perturb._GeodesicPath(u, ranks, v, q, thetas), v, q


class TestGeodesic:
    def test_projector_gap_is_sine_of_scaled_angle(self):
        rng = np.random.default_rng(54)
        for n, k in [(2, 1), (5, 2), (6, 4), (7, 3)]:
            u = subspace_from_spanning(rng.standard_normal((k, n))).basis
            path, _, q = one_plane_path(rng, [u])
            assert np.max(np.abs(u.T @ q)) <= 1e-15
            (theta,) = path.thetas
            for t in np.linspace(0.0, np.pi / (2.0 * theta), 7):
                y = path.columns(t)
                assert np.max(np.abs(y.T @ y - np.eye(k))) <= 1e-12
                gap = np.linalg.norm(u @ u.T - y @ y.T, 2)
                assert gap == pytest.approx(math.sin(t * theta), abs=1e-12)

    def test_stacked_geodesic_matches_each_member_alone(self):
        # All members move in one pass; each must come out bit for bit as
        # its own single-member geodesic.
        rng = np.random.default_rng(65)
        n = 6
        bases = [
            subspace_from_spanning(rng.standard_normal((k, n))).basis
            for k in (2, 1, 3, 2, 1, 6, 2, 5, 3, 1)
        ]
        path, v, q = one_plane_path(rng, bases)
        stop = np.cumsum([u.shape[1] for u in bases])
        for i, u in enumerate(bases):
            own = slice(stop[i] - u.shape[1], stop[i])
            theta = path.thetas[i : i + 1]
            alone = perturb._GeodesicPath(
                np.hstack(bases)[:, own], (u.shape[1],), v[own], q[:, [i]], theta
            )
            for t in (0.0, 0.3, 1.0, 2.7) + ((0.5 * np.pi / theta[0],) if theta[0] else ()):
                assert np.array_equal(path.columns(t)[:, own], alone.columns(t))

    def test_closed_form_constant_matches_measured_constant(self):
        # sum_i w_i^2 (P_i - P_i(t))^2 = g diag(w^2 sin^2(t angles)) g^T
        # holds at every step, past pi / (2 theta) too, because each q_i
        # is orthogonal to U_i; a full-space member stays bit-fixed.  The
        # floor covers steps where every member has come back round and
        # both routes read rounding noise (about 1e-16).
        rng = np.random.default_rng(66)
        n = 5
        bases = [
            subspace_from_spanning(rng.standard_normal((k, n))).basis
            for k in (1, 3, 2, 3, 1, 5, 4, 2)
        ]
        weights = rng.uniform(0.5, 2.0, size=len(bases))
        path, _, _ = one_plane_path(rng, bases)
        closed = path.fusion_constant(weights)
        w = FusionFrame(tuple((Subspace(u), wt) for u, wt in zip(bases, weights)))
        assert closed(0.0) == 0.0
        thetas = path.thetas
        for t in np.linspace(0.0, np.pi / min(thetas[thetas > 0]), 13)[1:]:
            moved = np.split(path.columns(t), np.cumsum([u.shape[1] for u in bases])[:-1], axis=1)
            assert np.array_equal(moved[5], bases[5])
            v = FusionFrame(tuple((Subspace(u), wt) for u, wt in zip(moved, weights)))
            measured = fusion_perturbation_mu(w, v)
            assert abs(closed(t) - measured) <= 1e-13 * max(measured, 1e-3)
