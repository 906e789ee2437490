"""End-to-end tests for the command-line interface."""

import json
import math

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    normalize_frame,
    optimal_frame_bounds,
)
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
    phi = Frame(1.5 * normalize_frame(Frame(rng.standard_normal((3, 3)))).vectors)
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
        assert "$.vectors[1]" in capsys.readouterr().err

    def test_zero_vector_redundancy_exits_3(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "zero.json",
            {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [0.0, 0.0]]},
        )
        assert main(["analyze", path]) == 3

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2


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
        assert "unreachable" in capsys.readouterr().err
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

    def test_negative_mu_exits_2(self, capsys, onb_file, tmp_path):
        code = main(["perturb", onb_file, "--mu", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 2


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

    def test_kind_mismatch_exits_3(self, capsys, tmp_path, onb_file):
        fusion = write_json(
            tmp_path / "fus.json",
            {"dim": 2, "kind": "fusion", "subspaces": [{"weight": 1.0, "basis": [[1.0, 0.0]]}]},
        )
        assert main(["verify", onb_file, fusion]) == 3

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
        assert ("weights_normalized" in single["results"]) == theorem.unit_weights

    def test_full_battery_on_perturbed_pair(self, capsys, tmp_path):
        rng = np.random.default_rng(81)
        phi = normalize_frame(Frame(rng.standard_normal((6, 3))))
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
        doc = {
            "dim": 2,
            "kind": "fusion",
            "subspaces": [
                {"weight": 2.0, "basis": [[1.0, 0.0]]},
                {"weight": 0.5, "basis": [[0.0, 1.0]]},
            ],
        }
        src = write_json(tmp_path / "w.json", doc)
        code, out = run_json(capsys, ["verify", src, src, "--format", "json"])
        assert code == 0
        assert out["results"]["weights_normalized"] is True


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

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"instances": 3, "bogus": 1})
        assert main(["suite", "--config", cfg]) == 2

    def test_byte_identical_reports(self, capsys):
        argv = ["suite", "--instances", "4", "--seed", "21", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
