"""End-to-end tests for the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    optimal_frame_bounds,
)
from framekit import cli, cosine_angles, theorems
from framekit.cli import build_parser, main
from framekit.fileio import load_structure, write_structure
from framekit.theorems import THEOREMS, random_fusion_frame


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def one_error_line(capsys):
    """The stderr of a failed command: exactly one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture
def onb_file(tmp_path):
    doc = {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [0.0, 1.0]]}
    return write_json(tmp_path / "onb.json", doc)


@pytest.fixture(scope="module")
def verify_pairs(tmp_path_factory):
    """One (original, perturbed) file pair per kind on which every
    hypothesis holds."""
    rng = np.random.default_rng(90)
    root = tmp_path_factory.mktemp("pairs")
    phi = Frame(1.5 * Frame(rng.standard_normal((3, 3))).unit_columns.T)
    target = 0.3 * math.sqrt(optimal_frame_bounds(phi).lower)
    psi, _ = generate_perturbed_frame(phi, target, seed=91, norm_preserving=True)
    w = random_fusion_frame(rng, 3, 4)
    v, _ = generate_perturbed_fusion(w, 0.05, seed=92)
    pairs = {}
    for kind, a, b in ((Frame, phi, psi), (FusionFrame, w, v)):
        paths = (root / f"{kind.__name__}-a.json", root / f"{kind.__name__}-b.json")
        write_structure(paths[0], a)
        write_structure(paths[1], b)
        pairs[kind] = tuple(map(str, paths))
    return pairs


@pytest.fixture
def repeated_file(tmp_path):
    doc = {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
    return write_json(tmp_path / "rep.json", doc)


class TestAnalyze:
    def test_onb_report(self, capsys, onb_file):
        code, doc = run_json(capsys, ["analyze", onb_file, "--format", "json"])
        assert code == 0
        results = doc["results"]
        assert results["bounds"]["lower"] == 1.0
        assert results["bounds"]["is_parseval"] is True
        assert results["redundancy"]["lower"] == 1.0
        assert results["redundancy"]["upper"] == 1.0
        assert doc["tool_version"]
        assert "sha256" in doc["inputs"]["input"]

    def test_repeated_vector_report(self, capsys, repeated_file):
        code, doc = run_json(capsys, ["analyze", repeated_file, "--format", "json"])
        assert code == 0
        results = doc["results"]
        assert results["bounds"]["lower"] == pytest.approx(1.0, abs=1e-12)
        assert results["bounds"]["upper"] == pytest.approx(2.0, abs=1e-12)
        assert results["redundancy"]["mean"] == pytest.approx(1.5)
        assert results["is_riesz_basis"] is False

    def test_fusion_report(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "kind": "fusion",
            "subspaces": [
                {"weight": 1.0, "basis": [[1.0, 0.0]]},
                {"weight": 1.0, "basis": [[0.0, 1.0]]},
            ],
        }
        path = write_json(tmp_path / "fus.json", doc)
        code, out = run_json(capsys, ["analyze", path, "--format", "json"])
        assert code == 0
        assert out["results"]["orthonormal_fusion_basis"] is True
        assert out["results"]["bounds"]["is_parseval"] is True

    @pytest.mark.parametrize("c", [1e-13, 1e13])
    def test_uniform_weights_is_relative_to_scale(self, capsys, tmp_path, c):
        for weights, uniform in (((c, 2 * c), False), ((c, c), True)):
            doc = {
                "dim": 2,
                "kind": "fusion",
                "subspaces": [
                    {"weight": weights[0], "basis": [[1.0, 0.0]]},
                    {"weight": weights[1], "basis": [[0.0, 1.0]]},
                ],
            }
            path = write_json(tmp_path / "fus.json", doc)
            code, out = run_json(capsys, ["analyze", path, "--format", "json"])
            assert code == 0
            assert out["results"]["uniform_weights"] is uniform

    def test_ragged_array_exits_2(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [1.0]]},
        )
        assert main(["analyze", path]) == 2
        assert "$.vectors[1]" in one_error_line(capsys)

    def test_zero_vector_redundancy_exits_3(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "zero.json",
            {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [0.0, 0.0]]},
        )
        assert main(["analyze", path]) == 3
        assert "zero vectors" in one_error_line(capsys)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "No such file" in one_error_line(capsys)

    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dim": 2, "kind": "frame", "vectors": [[1.0, 1%s]]}' % ("0" * 400))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: $.vectors[0][1]: number outside the float64 range\n"
        )


class TestPerturb:
    def test_output_file_remeasures_to_target(self, capsys, onb_file, tmp_path):
        out = str(tmp_path / "out.json")
        code, doc = run_json(
            capsys,
            ["perturb", onb_file, "--mu", "0.1", "--seed", "3", "--out", out, "--format", "json"],
        )
        assert code == 0
        assert doc["results"]["achieved_mu"] == pytest.approx(0.1, abs=1e-12)
        assert doc["seeds"]["seed"] == 3
        perturbed = load_structure(out)
        original = load_structure(onb_file)
        from framekit import frame_perturbation_mu

        assert frame_perturbation_mu(original, perturbed).mu == pytest.approx(0.1, abs=1e-12)

    def test_norm_preserving_keeps_norms(self, capsys, tmp_path):
        rng = np.random.default_rng(80)
        frame = Frame(rng.standard_normal((5, 3)))
        src = tmp_path / "src.json"
        write_structure(src, frame)
        out = str(tmp_path / "out.json")
        code, doc = run_json(
            capsys,
            ["perturb", str(src), "--mu", "0.2", "--norm-preserving", "--out", out,
             "--format", "json"],
        )
        assert code == 0
        perturbed = load_structure(out)
        assert np.allclose(perturbed.norms(), frame.norms(), atol=1e-12)

    def test_unreachable_norm_preserving_target_exits_4(self, capsys, tmp_path):
        # Turning {e1, e2, e1+e2} inside their spheres reaches about 3.6.
        src = write_json(
            tmp_path / "three.json",
            {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
        )
        out = tmp_path / "out.json"
        code = main(["perturb", src, "--mu", "100", "--norm-preserving", "--out", str(out)])
        assert code == 4
        assert "unreachable" in one_error_line(capsys)
        assert not out.exists()

    def test_norm_preserving_lands_at_any_scale(self, capsys, tmp_path):
        # The first step follows the slope at 0, about 1e150 here, so a
        # target far below the bracket's end still lands.
        src = write_json(
            tmp_path / "big.json", {"dim": 2, "kind": "frame", "vectors": [[1e150, 0.0], [0.0, 1.0]]}
        )
        argv = ["perturb", src, "--mu", "0.5", "--norm-preserving", "--seed", "3",
                "--out", str(tmp_path / "out.json"), "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert abs(doc["results"]["achieved_mu"] - 0.5) <= 0.05 * 0.5

    @pytest.mark.parametrize("kind", ["fusion", "norm-preserving", "gaussian"])
    def test_target_below_the_rounding_floor_exits_4(self, capsys, tmp_path, kind):
        # Rebuilding vectors or projectors rounds at about 1e-16 of their
        # scale, so 1e-20 cannot be met; nothing is written.  A Gaussian
        # offset that small vanishes when added, leaving the input.
        rng = np.random.default_rng(5)
        if kind == "fusion":
            structure, extra = random_fusion_frame(rng, 5, 6), []
        else:
            extra = ["--norm-preserving"] if kind == "norm-preserving" else []
            structure = theorems.random_frame(rng, 4, 7)
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        write_structure(src, structure)
        code = main(["perturb", str(src), "--mu", "1e-20", "--seed", "2", "--out", str(out), *extra])
        assert code == 4
        assert "outside 5% of the target 1e-20" in one_error_line(capsys)
        assert not out.exists()

    def test_fusion_input(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "kind": "fusion",
            "subspaces": [
                {"weight": 1.0, "basis": [[1.0, 0.0]]},
                {"weight": 1.0, "basis": [[0.0, 1.0]]},
            ],
        }
        src = write_json(tmp_path / "fus.json", doc)
        out = str(tmp_path / "fout.json")
        code, rep = run_json(
            capsys, ["perturb", src, "--mu", "0.1", "--out", out, "--format", "json"]
        )
        assert code == 0
        assert abs(rep["results"]["achieved_mu"] - 0.1) <= 0.005

    def test_output_onto_its_input_reports_the_input_digest(self, capsys, tmp_path):
        src = tmp_path / "f.json"
        write_structure(src, Frame(np.random.default_rng(82).standard_normal((5, 3))))
        before = hashlib.sha256(src.read_bytes()).hexdigest()
        code, doc = run_json(
            capsys, ["perturb", str(src), "--mu", "0.1", "--out", str(src), "--format", "json"]
        )
        assert code == 0
        assert doc["inputs"]["input"]["sha256"] == before
        assert hashlib.sha256(src.read_bytes()).hexdigest() != before

    def test_negative_mu_exits_2(self, capsys, onb_file, tmp_path):
        code = main(["perturb", onb_file, "--mu", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert one_error_line(capsys) == "error: --mu must be positive, got -1.0\n"

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_exits_2(self, capsys, onb_file, tmp_path, mu):
        out = tmp_path / "x.json"
        assert main(["perturb", onb_file, "--mu", mu, "--out", str(out)]) == 2
        assert "--mu must be" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "scale, mu, extra",
        [(1.0, "1e308", []), (1.0, "1e160", []), (1e154, "1.5e154", ["--norm-preserving"])],
        ids=["offset-1e308", "offset-1e160", "norm-preserving"],
    )
    def test_target_whose_norms_overflow_exits_4(self, capsys, tmp_path, scale, mu, extra):
        # The per-vector difference norms of such a pair overflow; pytest
        # turns numpy's overflow warning into an error, so none is raised.
        src = write_json(tmp_path / "f.json", {"dim": 2, "kind": "frame",
                                               "vectors": [[scale, 0.0], [0.0, scale]]})
        out = tmp_path / "x.json"
        assert main(["perturb", src, "--mu", mu, "--out", str(out), *extra]) == 4
        assert "unreachable" in one_error_line(capsys)
        assert not out.exists()


class TestVerify:
    def test_identical_files_pass_with_zero_residuals(self, capsys, onb_file):
        code, doc = run_json(capsys, ["verify", onb_file, onb_file, "--format", "json"])
        assert code == 0
        for verdict in doc["results"]["verdicts"]:
            if not verdict["hypotheses_met"]:
                continue
            assert verdict["inequality_pass"]
            if verdict["theorem_id"].startswith("angle_sum"):
                continue  # angle sums report reference-subspace residuals
            for value in verdict["equality_residuals"].values():
                assert value <= 1e-12

    def test_gated_pair_exits_0(self, capsys, tmp_path, onb_file):
        far = write_json(
            tmp_path / "far.json",
            {"dim": 2, "kind": "frame", "vectors": [[9.0, 0.0], [0.0, 9.0]]},
        )
        code, doc = run_json(
            capsys,
            ["verify", onb_file, far, "--theorem", "perturbed_frame_bounds", "--format", "json"],
        )
        assert code == 0
        verdict = doc["results"]["verdicts"][0]
        assert verdict["hypotheses_met"] is False
        assert "gate failed" in verdict["notes"]

    def test_zero_vector_gates_the_span_checks(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "zero.json",
            {"dim": 2, "kind": "frame", "vectors": [[1, 0], [0, 0], [0, 1]]},
        )
        code, doc = run_json(capsys, ["verify", path, path, "--format", "json"])
        assert code == 0
        notes = {v["theorem_id"]: v["notes"] for v in doc["results"]["verdicts"]}
        zero = "gate failed: vector 1 has norm 0.000e+00; spans of zero vectors are undefined"
        assert [t for t, n in notes.items() if n == zero] == [
            "normalized_perturbation", "redundancy_perturbation", "angle_sum_frames"
        ]
        assert doc["results"]["inequality_failures"] == 0

    def test_oblique_riesz_basis_fails_with_exit_1(self, capsys, tmp_path):
        s = 1 / math.sqrt(2)
        path = write_json(
            tmp_path / "oblique.json",
            {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [s, s]]},
        )
        code, doc = run_json(
            capsys, ["verify", path, path, "--theorem", "riesz_redundancy", "--format", "json"]
        )
        assert code == 1
        assert doc["results"]["inequality_failures"] == 1

    def test_full_space_member_passes_angle_sum_fusion(self, capsys, tmp_path):
        # R^3 from a random spanning set and span{e1}: the full member's
        # cosines and gap are decided by its rank, so its gap link is 0.
        rows = np.random.default_rng(45).standard_normal((3, 3)).tolist()
        path = write_json(tmp_path / "full.json", {"dim": 3, "kind": "fusion", "subspaces": [
            {"weight": 1.0, "basis": rows},
            {"weight": 1.0, "basis": [[1.0, 0.0, 0.0]]},
        ]})
        code, doc = run_json(
            capsys, ["verify", path, path, "--theorem", "angle_sum_fusion", "--format", "json"]
        )
        assert code == 0
        (verdict,) = doc["results"]["verdicts"]
        assert verdict["inequality_pass"] and verdict["observed"]["gap_link_worst"] == 0.0

    def test_kind_mismatch_exits_3(self, capsys, tmp_path, onb_file):
        fusion = write_json(
            tmp_path / "fus.json",
            {"dim": 2, "kind": "fusion", "subspaces": [{"weight": 1.0, "basis": [[1.0, 0.0]]}]},
        )
        assert main(["verify", onb_file, fusion]) == 3
        assert "different kinds" in one_error_line(capsys)

    def test_inapplicable_theorem_exits_3(self, capsys, onb_file):
        assert main(["verify", onb_file, onb_file, "--theorem", "fusion_perturbed_bounds"]) == 3

    def test_unknown_theorem_exits_2(self, capsys, onb_file):
        with pytest.raises(SystemExit) as err:
            main(["verify", onb_file, onb_file, "--theorem", "nope"])
        assert err.value.code == 2

    def test_unequal_norms_gate_normalized_perturbation(self, capsys, tmp_path, onb_file):
        longer = write_json(
            tmp_path / "longer.json",
            {"dim": 2, "kind": "frame", "vectors": [[2.0, 0.0], [0.0, 1.0]]},
        )
        code, doc = run_json(
            capsys,
            ["verify", onb_file, longer, "--theorem", "normalized_perturbation", "--format", "json"],
        )
        assert code == 0
        (verdict,) = doc["results"]["verdicts"]
        assert verdict["hypotheses_met"] is False
        assert verdict["notes"] == (
            "gate failed: vector norms differ by 1.000e+00; the lemma needs equal norms"
        )

    def test_theorem_choices_follow_registry(self):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        option = next(a for a in sub.choices["verify"]._actions if a.dest == "theorem")
        assert tuple(option.choices) == ("all", *(t.id for t in THEOREMS))

    @pytest.mark.parametrize("theorem", THEOREMS, ids=lambda t: t.id)
    def test_single_theorem_matches_full_battery(self, capsys, verify_pairs, theorem):
        original, perturbed = verify_pairs[theorem.kind]
        _, full = run_json(capsys, ["verify", original, perturbed, "--format", "json"])
        _, single = run_json(
            capsys, ["verify", original, perturbed, "--theorem", theorem.id, "--format", "json"]
        )
        (verdict,) = single["results"]["verdicts"]
        assert verdict["theorem_id"] == theorem.id
        assert verdict in full["results"]["verdicts"]

    def test_full_battery_on_perturbed_pair(self, capsys, tmp_path):
        rng = np.random.default_rng(81)
        phi = Frame(Frame(rng.standard_normal((6, 3))).unit_columns.T)
        src = tmp_path / "phi.json"
        write_structure(src, phi)
        out = str(tmp_path / "psi.json")
        assert main(["perturb", str(src), "--mu", "0.2", "--norm-preserving",
                     "--out", out]) == 0
        capsys.readouterr()
        code, doc = run_json(capsys, ["verify", str(src), out, "--format", "json"])
        assert code == 0
        ids = [v["theorem_id"] for v in doc["results"]["verdicts"]]
        assert ids == [
            "perturbed_frame_bounds",
            "normalized_perturbation",
            "redundancy_perturbation",
            "riesz_redundancy",
            "angle_sum_frames",
        ]
        assert "stated_equality_residuals" in doc["results"]

    def test_fusion_battery_normalizes_weights(self, capsys, tmp_path):
        # The fusion-redundancy verdict of a weighted file is the verdict
        # of its unit-weight copy; the report discloses no rewrite.
        def fusion_file(name, weights):
            subspaces = [
                {"weight": w, "basis": b} for w, b in zip(weights, ([[1.0, 0.0]], [[0.0, 1.0]]))
            ]
            return write_json(tmp_path / name, {"dim": 2, "kind": "fusion", "subspaces": subspaces})

        def redundancy_verdict(results):
            (verdict,) = [
                v for v in results["verdicts"] if v["theorem_id"] == "fusion_redundancy_perturbation"
            ]
            return verdict

        weighted = fusion_file("w.json", (2.0, 0.5))
        unit = fusion_file("u.json", (1.0, 1.0))
        code, out = run_json(capsys, ["verify", weighted, weighted, "--format", "json"])
        assert code == 0
        assert "weights_normalized" not in out["results"]
        _, ref = run_json(capsys, ["verify", unit, unit, "--format", "json"])
        assert redundancy_verdict(out["results"]) == redundancy_verdict(ref["results"])


class TestAngles:
    def test_same_file_twice(self, capsys, tmp_path, onb_file):
        code, doc = run_json(capsys, ["angles", onb_file, onb_file, "--format", "json"])
        assert code == 0
        assert doc["results"]["angles"]["r"] == pytest.approx(1.0, abs=1e-12)
        assert doc["results"]["angles"]["gap"] == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_lines(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0]]})
        b = write_json(tmp_path / "b.json", {"dim": 2, "kind": "frame", "vectors": [[0.0, 1.0]]})
        code, doc = run_json(capsys, ["angles", a, b, "--format", "json"])
        assert code == 0
        assert doc["results"]["angles"]["gap"] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pair_text_rendering(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0]]})
        b = write_json(tmp_path / "b.json", {"dim": 2, "kind": "frame", "vectors": [[1.0, 1.0]]})
        assert main(["angles", a, b]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.strip().startswith("r:"))
        assert abs(float(line.split(":")[1]) - 0.70711) <= 1e-5

    def test_ambient_mismatch_exits_3(self, capsys, tmp_path, onb_file):
        other = write_json(
            tmp_path / "r3.json", {"dim": 3, "kind": "frame", "vectors": [[1.0, 0.0, 0.0]]}
        )
        assert main(["angles", onb_file, other]) == 3

    def test_single_subspace_fusion_files(self, capsys, tmp_path):
        rng = np.random.default_rng(61)
        paths = []
        for name, rows in (("v", rng.standard_normal((3, 5))),
                           ("w", rng.standard_normal((2, 2)) @ rng.standard_normal((2, 5)))):
            rows = np.vstack([rows, rows[0] + rows[1]])  # a dependent row: ranks 3 and 2
            doc = {"dim": 5, "kind": "fusion", "subspaces": [{"weight": 2.0, "basis": rows.tolist()}]}
            paths.append(write_json(tmp_path / f"{name}.json", doc))
        code, doc = run_json(capsys, ["angles", *paths, "--format", "json"])
        assert code == 0
        v, w = (load_structure(p).subspaces[0] for p in paths)
        assert (doc["results"]["dim_v"], doc["results"]["dim_w"]) == (v.dim, w.dim) == (3, 2)
        assert doc["results"]["angles"] == json.loads(json.dumps(cosine_angles(v, w).to_dict()))

    def test_multi_subspace_fusion_rejected(self, capsys, tmp_path, onb_file):
        fusion = write_json(
            tmp_path / "two.json",
            {
                "dim": 2,
                "kind": "fusion",
                "subspaces": [
                    {"weight": 1.0, "basis": [[1.0, 0.0]]},
                    {"weight": 1.0, "basis": [[0.0, 1.0]]},
                ],
            },
        )
        assert main(["angles", onb_file, fusion]) == 3


class TestSuite:
    def test_small_suite_passes(self, capsys):
        code, doc = run_json(
            capsys, ["suite", "--instances", "5", "--seed", "11", "--format", "json"]
        )
        assert code == 0
        assert doc["results"]["total_failures"] == 0
        assert doc["seeds"]["seed"] == 11

    def test_failing_instance_exits_1_and_replays(self, capsys, monkeypatch):
        # One verifier fails on instance 3 alone, which its margin names:
        # every instance replays bit for bit from (seed, index).
        config = theorems.SuiteConfig(instances=5, seed=11)
        margin = theorems.replay_instance(config, 3)["perturbed_frame_bounds"].margin
        verify = theorems.verify_perturbed_frame_bounds

        def failing_on_instance_3(phi, psi):
            v = verify(phi, psi)
            return dataclasses.replace(v, inequality_pass=False, margin=-1.0) if v.margin == margin else v

        monkeypatch.setattr(theorems, "verify_perturbed_frame_bounds", failing_on_instance_3)
        code, doc = run_json(capsys, ["suite", "--instances", "5", "--seed", "11", "--format", "json"])
        assert code == 1
        assert doc["results"]["total_failures"] == 1
        (failure,) = doc["results"]["tallies"]["perturbed_frame_bounds"]["failures"]
        assert failure == {"index": 3, "seed": [11, 3], "margin": -1.0}
        seed, index = failure["seed"]
        replayed = theorems.replay_instance(theorems.SuiteConfig(seed=seed), index)
        assert replayed["perturbed_frame_bounds"].inequality_pass is False
        assert replayed["perturbed_frame_bounds"].margin == failure["margin"]

    def test_large_mu_fractions_are_gated_not_failed(self, capsys):
        argv = ["suite", "--instances", "60", "--mu-frac-min", "0.5", "--mu-frac-max", "0.99",
                "--seed", "7", "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        tallies = doc["results"]["tallies"]
        gated = {tid: tally["gated"] for tid, tally in tallies.items() if tally["gated"]}
        assert gated == {"redundancy_perturbation": 1}
        assert doc["results"]["total_failures"] == 0

    def test_zero_instances_exits_2(self, capsys):
        assert main(["suite", "--instances", "0"]) == 2

    def test_bad_mu_fraction_exits_2(self, capsys):
        assert main(["suite", "--instances", "2", "--mu-frac-min", "0"]) == 2

    def test_config_file(self, capsys, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instances": 3, "dim_range": [2, 3], "count_range": [2, 5],
             "mu_fraction_range": [0.2, 0.6], "seed": 5},
        )
        code, doc = run_json(capsys, ["suite", "--config", cfg, "--format", "json"])
        assert code == 0
        assert doc["results"]["config"]["instances"] == 3

    @pytest.mark.parametrize(
        "flag_or_doc, field",
        [
            ({"instances": 1, "count_range": [2, 10**30]}, "count_range"),
            (["--count-max", str(10**23)], "count_range"),
            (["--dim-max", str(2**63)], "dim_range"),
        ],
        ids=["config-count", "flag-count", "flag-dim"],
    )
    def test_bound_beyond_int64_exits_2(self, capsys, tmp_path, flag_or_doc, field):
        if isinstance(flag_or_doc, dict):
            argv = ["suite", "--config", write_json(tmp_path / "cfg.json", flag_or_doc)]
        else:
            argv = ["suite", "--instances", "1", *flag_or_doc]
        assert main(argv) == 2
        assert field in one_error_line(capsys)
        assert capsys.readouterr().out == ""

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"instances": 3, "bogus": 1})
        assert main(["suite", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim_range": 5},
            {"dim_range": [2, 3, 4]},
            {"instances": 1.5},
            {"seed": 1.5},
            {"instances": True},
            {"dim_range": [2.5, 4]},
        ],
        ids=["scalar-range", "triple-range", "float-instances", "float-seed", "bool-instances",
             "float-dims"],
    )
    def test_wrongly_typed_config_value_exits_2(self, capsys, tmp_path, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["suite", "--config", cfg]) == 2
        assert next(iter(doc)) in one_error_line(capsys)
        assert capsys.readouterr().out == ""

    def test_bounds_beyond_numpy_array_size_exit_2(self, capsys):
        # The bounds fit int64, but an instance's arrays could not exist.
        argv = ["suite", "--instances", "1",
                "--dim-min", "9223372036854775806", "--dim-max", "9223372036854775807",
                "--count-min", "9223372036854775807", "--count-max", "9223372036854775807"]
        assert main(argv) == 2
        assert "size limit" in one_error_line(capsys)
        assert capsys.readouterr().out == ""

    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert cli._suite_config(args) == theorems.SuiteConfig()

    def test_byte_identical_reports(self, capsys):
        argv = ["suite", "--instances", "4", "--seed", "21", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestExitCodes:
    """The rows of the exit-code table that no test above pins: each
    file or input fault exits with its code and one ``error:`` line.
    ``IN`` in a command line stands for the input file; a full line as
    the fragment pins the message exactly."""

    NESTED = "[" * 100_000 + "]" * 100_000
    IN = "<input>"
    TWO_LINES = json.dumps({"dim": 2, "kind": "fusion", "subspaces": [
        {"weight": 1.0, "basis": [[1.0, 0.0]]}, {"weight": 1.0, "basis": [[0.0, 1.0]]},
    ]})

    @pytest.mark.parametrize(
        "argv, content, code, fragment",
        [
            (["analyze", IN], None, 2, "Is a directory"),
            (["suite", "--config", IN], None, 2, "Is a directory"),
            (["analyze", IN], b"\xff\xfe", 2, "not utf-8 text"),
            (["suite", "--config", IN], b"\xff\xfe", 2, "can't decode"),
            (["analyze", IN], NESTED, 2, "nested too deeply"),
            (["suite", "--config", IN], NESTED, 2, "recursion"),
            (["analyze", IN], '{"dim": 2, "kind": "frame", "vectors": [[1, 0], [0, 1}', 2, "line 1"),
            (
                ["analyze", IN],
                '{"dim": 2, "kind": "fusion", "subspaces": [{"weight": -1, "basis": [[1, 0]]}]}',
                3,
                "weight 0 must be positive",
            ),
            (["analyze", IN], '{"dim": 2, "kind": "frame", "vectors": [[NaN, 0], [0, 1]]}', 3, "non-finite"),
            (
                ["perturb", IN, "--mu", "0.1", "--norm-preserving", "--out", os.devnull],
                TWO_LINES,
                2,
                "error: --norm-preserving applies only to frame inputs\n",
            ),
            (
                ["angles", IN, IN],
                TWO_LINES,
                3,
                "error: first fusion file must hold exactly one subspace, got 2\n",
            ),
            (["suite", "--config", IN], "[1, 2]", 2, "error: config must be a JSON object\n"),
            (
                ["analyze", IN],
                '{"dim": 2, "kind": "frame", "vectors": [[1, 0], [0, 1]], "labels": ["a", 1]}',
                2,
                "error: $.labels: expected an array of strings\n",
            ),
            (
                ["analyze", IN],
                '{"dim": 2, "kind": "fusion", "subspaces": [1]}',
                2,
                "error: $.subspaces[0]: expected an object with weight and basis\n",
            ),
        ],
        ids=[
            "directory", "config-directory", "non-utf8", "config-non-utf8", "nested",
            "config-nested", "malformed", "precondition", "numeric", "norm-preserving-fusion",
            "angles-two-members", "config-array", "non-string-label", "subspace-not-object",
        ],
    )
    def test_exit_code_table(self, capsys, tmp_path, argv, content, code, fragment):
        path = tmp_path / "input.json"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main([str(path) if a == self.IN else a for a in argv]) == code
        assert fragment in one_error_line(capsys)


class TestOverflow:
    """Finite input whose products overflow exits 3 with one ``error:``
    line, after numpy's overflow warning."""

    def test_analyze_entry_of_1e200_exits_3(self, capsys, tmp_path):
        doc = {"dim": 2, "kind": "frame", "vectors": [[1e200, 0.0], [0.0, 1.0]]}
        path = write_json(tmp_path / "big.json", doc)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["analyze", path]) == 3
        assert one_error_line(capsys) == "error: matrix contains non-finite entries\n"

    def test_verify_fusion_weight_of_1e200_exits_3(self, capsys, tmp_path):
        paths = []
        for i, line in enumerate(([0.6, 0.8], [0.8, 0.6])):
            doc = {"dim": 2, "kind": "fusion", "subspaces": [
                {"weight": 1e200, "basis": [[1.0, 0.0]]},
                {"weight": 1.0, "basis": [line]},
            ]}
            paths.append(write_json(tmp_path / f"fusion{i}.json", doc))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["verify", *paths]) == 3
        assert one_error_line(capsys) == "error: matrix contains non-finite entries\n"


class TestConsoleEntry:
    def test_module_run_matches_main(self, capsys, verify_pairs):
        # ``python -m framekit.cli`` runs ``entry()`` on ``sys.argv``, as the
        # ``framekit`` console script does.
        argv = ["analyze", verify_pairs[FusionFrame][0], "--format", "json"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-m", "framekit.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        code = main(argv)
        assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, verify_pairs, tmp_path):
        original, perturbed = verify_pairs[Frame]
        out = str(tmp_path / "out.json")
        sequence = [
            ["verify", original, perturbed, "--theorem", "perturbed_frame_bounds"],
            ["verify", original, perturbed],
            ["perturb", original, "--mu", "0.1", "--norm-preserving", "--out", out],
            ["perturb", original, "--mu", "0.1", "--out", out],
            ["analyze", original],
            ["analyze", original, "--format", "json"],
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        reused = [run(argv) for argv in sequence]
        assert cli._parser() is cli._parser()
        assert "norm_preserving: True" in reused[2][1]
        assert "norm_preserving: False" in reused[3][1]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [run(argv) for argv in sequence]
        assert reused == fresh
        assert len({text for _, text in reused}) == len(sequence)


class TestJsonReports:
    """``--format json`` prints the standard library's indented dump of
    the report the command built."""

    @pytest.mark.parametrize("command", ["analyze", "verify", "angles", "perturb", "suite"])
    @pytest.mark.parametrize("kind", [Frame, FusionFrame])
    def test_stdout_is_the_stdlib_dump(self, capsys, monkeypatch, verify_pairs, tmp_path, command, kind):
        original, perturbed = verify_pairs[kind]
        argv = {
            "analyze": ["analyze", original],
            "verify": ["verify", original, perturbed],
            "angles": ["angles", original, original],
            "perturb": ["perturb", original, "--mu", "0.05", "--out", str(tmp_path / "out.json")],
            "suite": ["suite", "--instances", "3", "--seed", "5"],
        }[command]
        reports = []
        json_text = cli._json_text

        def recorded(report):
            reports.append(report)
            return json_text(report)

        monkeypatch.setattr(cli, "_json_text", recorded)
        code = main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        if command == "angles" and kind is FusionFrame:
            assert code == 3 and not reports  # a multi-member fusion file
            return
        assert code in (0, 1)  # a verify check fails on the oblique frame pair
        assert len(reports) == 1
        assert out == json.dumps(reports[0], indent=2) + "\n"
