"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion pins its tolerance here.
"""

import json
import math

import numpy as np

from framekit import (
    Frame,
    FusionFrame,
    full_space,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    optimal_frame_bounds,
    redundancy_bounds,
    subspace_from_spanning,
    verify_angle_sums,
    verify_fusion_perturbed_bounds,
    verify_fusion_redundancy_perturbation,
    verify_normalized_perturbation,
    verify_perturbed_frame_bounds,
    verify_redundancy_perturbation,
    verify_riesz_redundancy,
)
from framekit.angles import check_rs_relation, cosine_angles
from framekit.cli import main
from framekit.fileio import load_structure, write_structure
from framekit.theorems import random_frame, random_fusion_frame, random_orthogonal_basis
from references import redundancy_oracle


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number:02d} {name}{suffix}"


def mercedes_frame():
    root3 = math.sqrt(3.0)
    return Frame([[0.0, 1.0], [-root3 / 2, -0.5], [root3 / 2, -0.5]])


def test_criterion_01_golden_spectral_cases():
    ok = True
    onb = optimal_frame_bounds(Frame(np.eye(5)))
    onb_red = redundancy_bounds(Frame(np.eye(5)))
    ok &= abs(onb.lower - 1) <= 1e-12 and abs(onb.upper - 1) <= 1e-12
    ok &= abs(onb_red.lower - 1) <= 1e-12 and abs(onb_red.upper - 1) <= 1e-12

    rep = Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep_bounds = optimal_frame_bounds(rep)
    rep_red = redundancy_bounds(rep)
    ok &= abs(rep_bounds.lower - 1) <= 1e-12 and abs(rep_bounds.upper - 2) <= 1e-12
    ok &= abs(rep_red.lower - 1) <= 1e-12 and abs(rep_red.upper - 2) <= 1e-12
    ok &= abs(rep_red.mean - 1.5) <= 1e-12

    mb = mercedes_frame()
    mb_bounds = optimal_frame_bounds(mb)
    mb_red = redundancy_bounds(mb)
    ok &= mb_bounds.is_tight and abs(mb_bounds.lower - 1.5) <= 1e-12
    ok &= abs(mb_bounds.upper - 1.5) <= 1e-12
    ok &= mb_red.uniform and abs(mb_red.lower - 1.5) <= 1e-12
    ok &= abs(mb_red.upper - 1.5) <= 1e-12
    report(1, "golden spectral cases", bool(ok))


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(50):
        dim = 2 + i % 2
        count = int(rng.integers(dim, 9))
        frame = Frame(rng.standard_normal((count, dim)))
        prof = redundancy_bounds(frame)
        lo, hi = redundancy_oracle(frame, 100_000, seed=int(rng.integers(2**31)))
        worst = max(worst, abs(lo - prof.lower), abs(hi - prof.upper))
    for i in range(50):
        dim = 2 + i % 2
        count = int(rng.integers(2, 9))
        ff = random_fusion_frame(rng, dim, count, unit_weights=True)
        prof = redundancy_bounds(ff)
        lo, hi = redundancy_oracle(ff, 100_000, seed=int(rng.integers(2**31)))
        worst = max(worst, abs(lo - prof.lower), abs(hi - prof.upper))
    report(2, "spectral bounds vs sphere oracle", worst <= 5e-3, f"worst gap {worst:.2e}")


def test_criterion_03_perturbed_frame_bounds_theorem():
    rng = np.random.default_rng(3003)
    failures = 0
    gated = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(dim, 13))
        phi = random_frame(rng, dim, count)
        target = float(rng.uniform(0.1, 0.9)) * math.sqrt(optimal_frame_bounds(phi).lower)
        psi, _ = generate_perturbed_frame(phi, target, seed=int(rng.integers(2**31)))
        verdict = verify_perturbed_frame_bounds(phi, psi)
        if not verdict.hypotheses_met:
            gated += 1
        elif not verdict.inequality_pass:
            failures += 1
    report(
        3,
        "perturbed frame bounds on 1000 instances",
        failures == 0 and gated == 0,
        f"failures {failures}, gated {gated}",
    )


def test_criterion_04_perturbed_fusion_bounds_theorem():
    rng = np.random.default_rng(4004)
    failures = 0
    gated = 0
    for _ in range(1000):
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
        if not verdict.hypotheses_met:
            gated += 1
        elif not verdict.inequality_pass:
            failures += 1
    report(
        4,
        "perturbed fusion bounds on 1000 instances",
        failures == 0 and gated == 0,
        f"failures {failures}, gated {gated}",
    )


def test_criterion_05_riesz_redundancy():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(200):
        basis = random_orthogonal_basis(rng, int(rng.integers(1, 9)))
        verdict = verify_riesz_redundancy(basis)
        assert verdict.hypotheses_met
        worst = max(
            worst,
            abs(verdict.observed["lower"] - 1.0),
            abs(verdict.observed["upper"] - 1.0),
        )
    report(5, "Riesz bases have unit redundancy", worst <= 1e-9, f"worst offset {worst:.2e}")


def _histogram_line(name, values):
    counts, edges = np.histogram(np.asarray(values), bins=8)
    span = ", ".join(str(int(c)) for c in counts)
    return f"    residual histogram {name}: range [{edges[0]:.3e}, {edges[-1]:.3e}], counts [{span}]"


def test_criterion_06_redundancy_perturbation_inequalities():
    rng = np.random.default_rng(6006)
    failures = 0
    gated = 0
    frame_residuals = []
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(dim, 13))
        scale = float(rng.uniform(0.5, 2.0))
        phi = Frame(scale * random_frame(rng, dim, count).unit_columns.T)
        target = float(rng.uniform(0.1, 0.9)) * math.sqrt(optimal_frame_bounds(phi).lower)
        psi, _ = generate_perturbed_frame(
            phi, target, seed=int(rng.integers(2**31)), norm_preserving=True
        )
        verdict = verify_redundancy_perturbation(phi, psi)
        if not verdict.hypotheses_met:
            gated += 1
            continue
        if not verdict.inequality_pass:
            failures += 1
        frame_residuals.extend(verdict.equality_residuals.values())

    fusion_residuals = []
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(2, 7))
        w = random_fusion_frame(rng, dim, count, unit_weights=True)
        target = (
            float(rng.uniform(0.1, 0.9))
            * math.sqrt(redundancy_bounds(w).lower)
            / math.sqrt(count)
        )
        v, _ = generate_perturbed_fusion(w, target, seed=int(rng.integers(2**31)))
        verdict = verify_fusion_redundancy_perturbation(w, v)
        if not verdict.hypotheses_met:
            gated += 1
            continue
        if not verdict.inequality_pass:
            failures += 1
        fusion_residuals.extend(verdict.equality_residuals.values())

    print(_histogram_line("frames", frame_residuals))
    print(_histogram_line("fusion", fusion_residuals))
    inexact = max(frame_residuals) > 1e-6 and max(fusion_residuals) > 1e-6
    report(
        6,
        "redundancy perturbation inequalities on 2000 instances",
        failures == 0 and gated == 0 and inexact,
        f"failures {failures}, gated {gated}, max residuals "
        f"{max(frame_residuals):.2e}/{max(fusion_residuals):.2e}",
    )


def test_criterion_07_angle_identities():
    rng = np.random.default_rng(7007)
    worst_gap = worst_rs = 0.0
    order_ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        rank_w = int(rng.integers(1, dim))
        rank_v = int(rng.integers(1, rank_w + 1))
        v = subspace_from_spanning(rng.standard_normal((rank_v, dim)))
        w = subspace_from_spanning(rng.standard_normal((rank_w, dim)))
        rep = cosine_angles(v, w)
        order_ok &= rep.r <= rep.s + 1e-12
        worst_gap = max(worst_gap, abs(rep.r * rep.r + rep.gap * rep.gap - 1.0))
        worst_rs = max(worst_rs, check_rs_relation(v, w))

    # gap link across the angle-sum suite (reference = full space)
    link_ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        frame = random_frame(rng, dim, int(rng.integers(dim, 10)))
        link_ok &= verify_angle_sums(frame, full_space(dim)).inequality_pass
    ok = worst_gap <= 1e-13 and worst_rs <= 1e-13 and order_ok and link_ok
    report(
        7,
        "angle identities on 500 pairs",
        bool(ok),
        f"worst gap residual {worst_gap:.2e}, worst complement residual {worst_rs:.2e}",
    )


def test_criterion_08_angle_sum_formulas():
    rng = np.random.default_rng(8008)
    ok = True
    worst_sum = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(dim, 10))
        frame = random_frame(rng, dim, count)
        verdict = verify_angle_sums(frame, full_space(dim))
        worst_sum = max(worst_sum, abs(verdict.predicted["upper"] - count))
        ok &= verdict.predicted["upper"] == count  # each supremum cosine is exactly 1
        ok &= "lower" in verdict.equality_residuals and "upper" in verdict.equality_residuals
    for _ in range(20):
        count = int(rng.integers(1, 8))
        frame = Frame(rng.uniform(0.5, 2.0, size=(count, 1)) * rng.choice([-1.0, 1.0], (count, 1)))
        verdict = verify_angle_sums(frame, full_space(1))
        ok &= verdict.equality_residuals["lower"] <= 1e-12
        ok &= verdict.equality_residuals["upper"] <= 1e-12
    report(
        8,
        "angle-sum expressions at the full-space reference",
        bool(ok),
        f"worst |sum S^2 - N| = {worst_sum:.2e}",
    )


def test_criterion_09_normalized_perturbation_lemma():
    rng = np.random.default_rng(9009)
    worst = {0.5: 0.0, 1.0: 0.0, 2.0: 0.0}
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(dim, 10))
            phi = Frame(alpha * random_frame(rng, dim, count).unit_columns.T)
            psi, _ = generate_perturbed_frame(
                phi,
                float(rng.uniform(0.05, 0.3)) * alpha,
                seed=int(rng.integers(2**31)),
                norm_preserving=True,
            )
            verdict = verify_normalized_perturbation(phi, psi)
            mu = verdict.predicted["mu"]
            mu_normalized = verdict.observed["mu_normalized"]
            worst[alpha] = max(worst[alpha], abs(mu_normalized - mu / alpha))
    ok = worst[0.5] <= 1e-10 and worst[2.0] <= 1e-10 and worst[1.0] <= 1e-12
    report(
        9,
        "normalization scales the constant by 1/alpha",
        bool(ok),
        f"worst offsets {worst[0.5]:.2e} / {worst[1.0]:.2e} / {worst[2.0]:.2e}",
    )


def test_criterion_10_determinism_and_round_trip(capsys, tmp_path):
    argv = ["suite", "--instances", "40", "--seed", "77", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    identical = first == second
    json.loads(first)  # well-formed

    rng = np.random.default_rng(1010)
    round_trips = True
    for i in range(100):
        if i % 2 == 0:
            count, dim = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            obj = Frame(rng.standard_normal((count, dim)))
        else:
            dim = int(rng.integers(2, 6))
            members = []
            for _ in range(int(rng.integers(1, 5))):
                rank = int(rng.integers(1, dim))
                members.append(
                    (subspace_from_spanning(rng.standard_normal((rank, dim))),
                     float(rng.uniform(0.1, 3.0)))
                )
            obj = FusionFrame(tuple(members))
        path = tmp_path / f"rt{i}.json"
        write_structure(path, obj)
        back = load_structure(path)
        if isinstance(obj, Frame):
            round_trips &= np.array_equal(back.vectors, obj.vectors)
        else:
            round_trips &= np.array_equal(back.weights, obj.weights)
            round_trips &= all(
                np.array_equal(a.basis, b.basis)
                for a, b in zip(back.subspaces, obj.subspaces)
            )
    with capsys.disabled():
        print()
        report(
            10,
            "byte-identical suite reports and bit-exact round trips",
            bool(identical and round_trips),
            f"report bytes {len(first)}",
        )
