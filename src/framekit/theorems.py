"""Executable checks for the perturbation/redundancy theorems.

Each ``verify_*`` function measures everything from its inputs alone (no
trusted metadata), gates on the theorem's hypotheses, asserts the
inequality consequences with a fixed absolute slack, and reports the
residuals of the stronger equality claims as data instead of asserting
them.  A hypothesis that fails on well-formed input yields a gated
verdict, never an exception; only mismatched shapes raise.  ``THEOREMS``
lists every statement once, in report order, and is the only list the
suite, ``replay_instance`` and ``framekit verify`` read.
``run_random_suite`` drives all checks over seeded random instances;
every instance is reproducible bit-for-bit from the suite seed and its
index via ``replay_instance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .angles import _gap, _inf_sup_cos
from .errors import DimensionError, GenerationError, PreconditionError
from .frames import (
    Frame,
    _rank_stacks,
    normalize_frame,
    optimal_frame_bounds,
    is_riesz_basis,
    redundancy_bounds,
)
from .fusion import FusionFrame, Subspace, full_space, subspace_from_spanning
from .perturb import (
    _fusion_constant,
    frame_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
)

# Absolute slack for every asserted inequality.
INEQ_SLACK = 1e-9
# Tolerance for exact identities (gap link).
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one theorem check on one instance.

    ``margin`` is the smallest signed slack among the asserted
    inequalities (negative means violated); it is None when the
    hypothesis gate failed and nothing was asserted.
    """

    theorem_id: str
    hypotheses_met: bool
    predicted: dict[str, float]
    observed: dict[str, float]
    inequality_pass: bool
    equality_residuals: dict[str, float]
    notes: str
    margin: float | None = None

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses_met": self.hypotheses_met,
            "predicted": dict(self.predicted),
            "observed": dict(self.observed),
            "inequality_pass": self.inequality_pass,
            "equality_residuals": dict(self.equality_residuals),
            "notes": self.notes,
            "margin": self.margin,
        }


def _gated(theorem_id: str, notes: str, observed: dict[str, float] | None = None) -> TheoremVerdict:
    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses_met=False,
        predicted={},
        observed=observed or {},
        inequality_pass=True,
        equality_residuals={},
        notes=notes,
        margin=None,
    )


def verify_perturbed_frame_bounds(phi: Frame, psi: Frame) -> TheoremVerdict:
    """Perturbing a frame by less than the root of its lower bound keeps
    it a frame, with bounds shrunk/grown by the measured constant."""
    mu = frame_perturbation_mu(phi, psi).mu
    base = optimal_frame_bounds(phi)
    if not (base.is_frame and mu < math.sqrt(base.lower)):
        return _gated(
            "perturbed_frame_bounds",
            f"gate failed: mu={mu:.6g} not below sqrt(lower)="
            f"{math.sqrt(base.lower):.6g}",
        )
    pred_lower = (math.sqrt(base.lower) - mu) ** 2
    pred_upper = (math.sqrt(base.upper) + mu) ** 2
    obs = optimal_frame_bounds(psi)
    margin = min(obs.lower - pred_lower, pred_upper - obs.upper)
    return TheoremVerdict(
        theorem_id="perturbed_frame_bounds",
        hypotheses_met=True,
        predicted={"mu": mu, "lower": pred_lower, "upper": pred_upper},
        observed={"lower": obs.lower, "upper": obs.upper},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals={
            "lower": abs(obs.lower - pred_lower),
            "upper": abs(obs.upper - pred_upper),
        },
        notes=f"base bounds ({base.lower:.6g}, {base.upper:.6g})",
        margin=margin,
    )


def verify_normalized_perturbation(phi: Frame, psi: Frame) -> TheoremVerdict:
    """Normalizing an equal-norms perturbed pair: measure the constant of
    the normalized pair and compare it with the original constant.

    The claim that the constant is unchanged is recorded as a residual
    (the excess over the original), never asserted: dividing by norms
    below one can enlarge the constant.  What is asserted is the
    provable scaled bound, the original constant over the smallest
    vector norm.
    """
    mu = frame_perturbation_mu(phi, psi).mu
    norms_phi = phi.norms()
    worst = float(np.max(np.abs(norms_phi - psi.norms())))
    if worst > 1e-9:
        return _gated(
            "normalized_perturbation",
            f"gate failed: vector norms differ by {worst:.3e}; the lemma needs equal norms",
        )
    mu_normalized = frame_perturbation_mu(normalize_frame(phi), normalize_frame(psi)).mu
    min_norm = float(np.min(norms_phi))
    scaled_bound = mu / min_norm
    margin = scaled_bound - mu_normalized
    return TheoremVerdict(
        theorem_id="normalized_perturbation",
        hypotheses_met=True,
        predicted={"mu": mu, "scaled_bound": scaled_bound},
        observed={"mu_normalized": mu_normalized},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals={"excess": max(0.0, mu_normalized - mu)},
        notes=(
            f"min vector norm {min_norm:.6g}; "
            f"mu_normalized <= mu/min_norm holds: {margin >= -INEQ_SLACK}"
        ),
        margin=margin,
    )


def verify_redundancy_perturbation(phi: Frame, psi: Frame) -> TheoremVerdict:
    """Redundancy bounds of an equal-norms perturbation, in inequality form.

    Uses the constant measured between the normalized frames, which is
    the exact hypothesis under which the perturbation theorem applies to
    the normalized pair; the stated equalities are recorded as residuals.
    """
    mu = frame_perturbation_mu(phi, psi).mu
    norm_gap = float(np.max(np.abs(phi.norms() - psi.norms())))
    base = optimal_frame_bounds(phi)
    if norm_gap > 1e-9:
        return _gated(
            "redundancy_perturbation", f"gate failed: norms differ by {norm_gap:.3e}"
        )
    if not (base.is_frame and mu < math.sqrt(base.lower)):
        return _gated(
            "redundancy_perturbation",
            f"gate failed: mu={mu:.6g} not below sqrt(lower)="
            f"{math.sqrt(base.lower):.6g}",
        )
    mu_n = frame_perturbation_mu(normalize_frame(phi), normalize_frame(psi)).mu
    r_phi = redundancy_bounds(phi)
    r_psi = redundancy_bounds(psi)
    pred_upper = (math.sqrt(r_phi.upper) + mu_n) ** 2
    residuals = {"upper": abs(r_psi.upper - pred_upper)}
    predicted = {"mu": mu, "mu_normalized": mu_n, "upper": pred_upper}
    margins = [pred_upper - r_psi.upper]
    lower_applicable = mu_n < math.sqrt(r_phi.lower)
    if lower_applicable:
        pred_lower = (math.sqrt(r_phi.lower) - mu_n) ** 2
        predicted["lower"] = pred_lower
        residuals["lower"] = abs(r_psi.lower - pred_lower)
        margins.append(r_psi.lower - pred_lower)
    margin = min(margins)
    return TheoremVerdict(
        theorem_id="redundancy_perturbation",
        hypotheses_met=True,
        predicted=predicted,
        observed={"lower": r_psi.lower, "upper": r_psi.upper},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals=residuals,
        notes=(
            f"base redundancy ({r_phi.lower:.6g}, {r_phi.upper:.6g}); "
            f"original mu {mu:.6g}, normalized mu {mu_n:.6g}"
            + ("" if lower_applicable else "; lower check skipped (mu too large)")
        ),
        margin=margin,
    )


def verify_riesz_redundancy(phi: Frame) -> TheoremVerdict:
    """A Riesz basis is claimed to have lower and upper redundancy one."""
    if not is_riesz_basis(phi):
        return _gated("riesz_redundancy", "gate failed: input is not a Riesz basis")
    profile = redundancy_bounds(phi)
    worst = max(abs(profile.lower - 1.0), abs(profile.upper - 1.0))
    unit = phi.unit_columns
    gram = unit.T @ unit
    ortho_defect = float(np.max(np.abs(gram - np.eye(phi.count))))
    return TheoremVerdict(
        theorem_id="riesz_redundancy",
        hypotheses_met=True,
        predicted={"lower": 1.0, "upper": 1.0},
        observed={"lower": profile.lower, "upper": profile.upper},
        inequality_pass=worst <= INEQ_SLACK,
        equality_residuals={
            "lower": abs(profile.lower - 1.0),
            "upper": abs(profile.upper - 1.0),
        },
        notes=f"orthogonality defect of normalized basis: {ortho_defect:.3e}",
        margin=-worst,
    )


def verify_fusion_perturbed_bounds(w: FusionFrame, v: FusionFrame) -> TheoremVerdict:
    """Perturbed fusion frames keep framehood with bounds adjusted by the
    measured constant times the square root of the member count."""
    mu = _fusion_constant(w, v)
    base = optimal_frame_bounds(w)
    root_n = math.sqrt(w.count)
    if not (base.is_frame and math.sqrt(base.lower) - mu * root_n > 0):
        return _gated(
            "fusion_perturbed_bounds",
            f"gate failed: sqrt(lower)-mu*sqrt(N) = "
            f"{math.sqrt(base.lower) - mu * root_n:.6g} <= 0",
        )
    pred_lower = (math.sqrt(base.lower) - mu * root_n) ** 2
    pred_upper = (math.sqrt(base.upper) + mu * root_n) ** 2
    obs = optimal_frame_bounds(v)
    margin = min(obs.lower - pred_lower, pred_upper - obs.upper)
    return TheoremVerdict(
        theorem_id="fusion_perturbed_bounds",
        hypotheses_met=True,
        predicted={"mu": mu, "lower": pred_lower, "upper": pred_upper},
        observed={"lower": obs.lower, "upper": obs.upper},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals={
            "lower": abs(obs.lower - pred_lower),
            "upper": abs(obs.upper - pred_upper),
        },
        notes=f"base bounds ({base.lower:.6g}, {base.upper:.6g}), N={w.count}",
        margin=margin,
    )


def verify_fusion_redundancy_perturbation(w: FusionFrame, v: FusionFrame) -> TheoremVerdict:
    """Fusion redundancy of a unit-weight perturbation, in inequality form."""
    mu = _fusion_constant(w, v)
    for ff, name in ((w, "first"), (v, "second")):
        off = float(np.max(np.abs(ff.weights - 1.0)))
        if off > 1e-12:
            return _gated(
                "fusion_redundancy_perturbation",
                f"gate failed: {name} fusion frame has non-unit weights "
                f"(off by {off:.3e}); the statement concerns unit weights",
            )
    r_w = redundancy_bounds(w)
    root_n = math.sqrt(w.count)
    if not (r_w.lower > 0 and math.sqrt(r_w.lower) - mu * root_n > 0):
        return _gated(
            "fusion_redundancy_perturbation",
            f"gate failed: sqrt(lower redundancy)-mu*sqrt(N) = "
            f"{math.sqrt(r_w.lower) - mu * root_n:.6g} <= 0",
        )
    r_v = redundancy_bounds(v)
    pred_lower = (math.sqrt(r_w.lower) - mu * root_n) ** 2
    pred_upper = (math.sqrt(r_w.upper) + mu * root_n) ** 2
    margin = min(r_v.lower - pred_lower, pred_upper - r_v.upper)
    return TheoremVerdict(
        theorem_id="fusion_redundancy_perturbation",
        hypotheses_met=True,
        predicted={"mu": mu, "lower": pred_lower, "upper": pred_upper},
        observed={"lower": r_v.lower, "upper": r_v.upper},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals={
            "lower": abs(r_v.lower - pred_lower),
            "upper": abs(r_v.upper - pred_upper),
        },
        notes=f"base redundancy ({r_w.lower:.6g}, {r_w.upper:.6g}), N={w.count}",
        margin=margin,
    )


def verify_angle_sums(frame_or_fusion: Frame | FusionFrame, wprime: Subspace) -> TheoremVerdict:
    """Compare spectral redundancies with the angle-sum expressions at a
    reference subspace, asserting only the gap/cosine link per member.

    The members are the blocks of the unit columns: the vectors' spans of
    a frame, the subspaces of a fusion frame; each rank chunk takes one
    stacked SVD for cosines and one for gaps.  The redundancy equalities
    are reported as residuals: at the only subspace containing the whole
    unit sphere (the full space) the angle sums evaluate to 0 and N, which
    generically differ from the spectral redundancies.
    """
    ids = {Frame: "angle_sum_frames", FusionFrame: "angle_sum_fusion"}
    theorem_id = ids.get(type(frame_or_fusion))
    if theorem_id is None:
        raise TypeError(f"expected Frame or FusionFrame, got {type(frame_or_fusion)}")
    if wprime.ambient_dim != frame_or_fusion.dim:
        raise DimensionError(
            f"reference subspace lives in R^{wprime.ambient_dim}, "
            f"members in R^{frame_or_fusion.dim}"
        )
    ranks = frame_or_fusion.ranks
    r, s, gap = np.empty(len(ranks)), np.empty(len(ranks)), np.empty(len(ranks))
    for members, _, (blocks,) in _rank_stacks(ranks, frame_or_fusion.unit_columns):
        r[members], s[members] = _inf_sup_cos(wprime.basis, blocks)
        gap[members] = _gap(wprime.basis, blocks)
    profile = redundancy_bounds(frame_or_fusion)
    # Summed in member order, as redundancy_angle_sums sums.
    sum_r2 = sum_s2 = gap_worst = 0.0
    for ri, si, delta in zip(r.tolist(), s.tolist(), gap.tolist()):
        sum_r2 += ri * ri
        sum_s2 += si * si
        gap_worst = max(gap_worst, abs(delta - math.sqrt(max(0.0, 1.0 - ri * ri))))
    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses_met=True,
        predicted={"lower": sum_r2, "upper": sum_s2},
        observed={
            "lower": profile.lower,
            "upper": profile.upper,
            "gap_link_worst": gap_worst,
        },
        inequality_pass=gap_worst <= IDENTITY_TOL,
        equality_residuals={
            "lower": abs(profile.lower - sum_r2),
            "upper": abs(profile.upper - sum_s2),
        },
        notes=f"reference subspace dimension {wprime.dim}",
        margin=IDENTITY_TOL - gap_worst,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Theorem(NamedTuple):
    """One checked statement: ``check(a, b)`` verifies it on an
    (original, perturbed) pair of ``kind``.  With ``unit_weights`` set,
    both fusion frames have their weights replaced by one first, since the
    statement concerns unit-weight fusion frames only."""

    id: str
    kind: type
    check: Callable[[object, object], TheoremVerdict]
    unit_weights: bool = False

    def run(self, a, b) -> TheoremVerdict:
        if self.unit_weights:
            a, b = a.with_unit_weights(), b.with_unit_weights()
        return self.check(a, b)


# Report order.  Each check looks its verifier up by module name when
# called, so a wrapper installed on that name (a tracer, say) sees the call.
THEOREMS = (
    Theorem("perturbed_frame_bounds", Frame, lambda a, b: verify_perturbed_frame_bounds(a, b)),
    Theorem("normalized_perturbation", Frame, lambda a, b: verify_normalized_perturbation(a, b)),
    Theorem("redundancy_perturbation", Frame, lambda a, b: verify_redundancy_perturbation(a, b)),
    Theorem("riesz_redundancy", Frame, lambda a, b: verify_riesz_redundancy(a)),
    Theorem("fusion_perturbed_bounds", FusionFrame, lambda a, b: verify_fusion_perturbed_bounds(a, b)),
    Theorem(
        "fusion_redundancy_perturbation",
        FusionFrame,
        lambda a, b: verify_fusion_redundancy_perturbation(a, b),
        unit_weights=True,
    ),
    Theorem("angle_sum_frames", Frame, lambda a, b: verify_angle_sums(a, full_space(a.dim))),
    Theorem("angle_sum_fusion", FusionFrame, lambda a, b: verify_angle_sums(a, full_space(a.dim))),
)
THEOREM_IDS = tuple(t.id for t in THEOREMS)


# ---------------------------------------------------------------------------
# Randomized suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Shape of the randomized verification run."""

    instances: int = 1000
    dim_range: tuple[int, int] = (2, 6)
    count_range: tuple[int, int] = (2, 12)
    mu_fraction_range: tuple[float, float] = (0.1, 0.9)
    seed: int = 42

    def __post_init__(self):
        if self.instances < 1:
            raise PreconditionError(f"instances must be >= 1, got {self.instances}")
        dlo, dhi = self.dim_range
        clo, chi = self.count_range
        flo, fhi = self.mu_fraction_range
        if not (2 <= dlo <= dhi):
            raise PreconditionError(f"dim_range must satisfy 2 <= lo <= hi, got {self.dim_range}")
        if not (1 <= clo <= chi):
            raise PreconditionError(f"count_range must satisfy 1 <= lo <= hi, got {self.count_range}")
        if chi < dlo:
            raise PreconditionError(
                f"count_range max {chi} below dim_range min {dlo}: no frame fits"
            )
        if not (0.0 < flo <= fhi < 1.0):
            raise PreconditionError(
                f"mu_fraction_range must lie strictly inside (0, 1), got {self.mu_fraction_range}"
            )
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "dim_range": list(self.dim_range),
            "count_range": list(self.count_range),
            "mu_fraction_range": list(self.mu_fraction_range),
            "seed": self.seed,
        }


@dataclass
class TheoremTally:
    """Aggregate of one theorem's verdicts across a suite."""

    theorem_id: str
    passed: int = 0
    failed: int = 0
    gated: int = 0
    worst_margin: float | None = None
    residuals: dict[str, list[float]] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    def add(self, verdict: TheoremVerdict, index: int, seed: int) -> None:
        if not verdict.hypotheses_met:
            self.gated += 1
            return
        if verdict.inequality_pass:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(
                {"index": index, "seed": [seed, index], "margin": verdict.margin}
            )
        if verdict.margin is not None:
            if self.worst_margin is None or verdict.margin < self.worst_margin:
                self.worst_margin = verdict.margin
        for name, value in verdict.equality_residuals.items():
            self.residuals.setdefault(name, []).append(value)

    def to_dict(self) -> dict:
        histograms = {}
        for name, values in sorted(self.residuals.items()):
            counts, edges = np.histogram(np.asarray(values), bins=12)
            histograms[name] = {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
                "max": float(np.max(values)),
            }
        return {
            "theorem_id": self.theorem_id,
            "passed": self.passed,
            "failed": self.failed,
            "gated": self.gated,
            "worst_margin": self.worst_margin,
            "residual_histograms": histograms,
            "failures": self.failures,
        }


@dataclass
class SuiteReport:
    """Aggregated verdicts for a full randomized run."""

    config: SuiteConfig
    tallies: dict[str, TheoremTally]
    total_failures: int

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "tallies": {tid: self.tallies[tid].to_dict() for tid in THEOREM_IDS},
            "total_failures": self.total_failures,
        }


def random_frame(rng, dim: int, count: int, min_lower: float = 1e-8, max_tries: int = 500) -> Frame:
    """Gaussian frame with optimal lower bound at least ``min_lower``."""
    for _ in range(max_tries):
        f = Frame(rng.standard_normal((count, dim)))
        if optimal_frame_bounds(f).lower >= min_lower:
            return f
    raise GenerationError(
        f"no frame with lower bound >= {min_lower} in {max_tries} draws "
        f"(dim={dim}, count={count})"
    )


def random_orthogonal_basis(rng, dim: int, scale_range: tuple[float, float] = (0.5, 2.0)) -> Frame:
    """Randomly rotated orthogonal basis with random per-vector scales.

    This is the instance family on which the unit-redundancy claim for
    Riesz bases actually holds; oblique bases falsify it (see the
    theorem tests for a counterexample).
    """
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    scales = rng.uniform(*scale_range, size=dim)
    return Frame(q.T * scales[:, None])


def random_fusion_frame(
    rng,
    dim: int,
    count: int,
    max_rank: int | None = None,
    unit_weights: bool = False,
    weight_range: tuple[float, float] = (0.5, 2.0),
    min_lower: float = 1e-8,
    max_tries: int = 500,
) -> FusionFrame:
    """Random spanning fusion frame with subspace ranks in [1, dim-1]."""
    if dim < 2:
        raise GenerationError("random fusion frames need ambient dimension >= 2")
    cap = dim - 1 if max_rank is None else max(1, min(max_rank, dim - 1))
    for _ in range(max_tries):
        members = []
        for _ in range(count):
            rank = int(rng.integers(1, cap + 1))
            sub = subspace_from_spanning(rng.standard_normal((rank, dim)))
            weight = 1.0 if unit_weights else float(rng.uniform(*weight_range))
            members.append((sub, weight))
        ff = FusionFrame(tuple(members))
        if optimal_frame_bounds(ff).lower >= min_lower:
            return ff
    raise GenerationError(
        f"no fusion frame with lower bound >= {min_lower} in {max_tries} draws "
        f"(dim={dim}, count={count})"
    )


def replay_instance(config: SuiteConfig, index: int) -> dict[str, TheoremVerdict]:
    """Regenerate suite instance ``index`` and run every theorem check.

    All randomness flows from (config.seed, index), so a recorded failure
    replays to the identical verdict.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))

    def child_seed() -> int:
        return int(rng.integers(0, 2**63 - 1))

    dlo, dhi = config.dim_range
    clo, chi = config.count_range
    dim = int(rng.integers(dlo, min(dhi, chi) + 1))
    count = int(rng.integers(max(dim, clo), chi + 1))
    frac = float(rng.uniform(*config.mu_fraction_range))

    phi = random_frame(rng, dim, count)
    target = frac * math.sqrt(optimal_frame_bounds(phi).lower)
    psi, _ = generate_perturbed_frame(phi, target, seed=child_seed())

    # Equal-norms pair: perturb a rescaled unit-norm copy inside its own
    # spheres so every hypothesis gate holds by construction.
    scale = float(rng.uniform(0.5, 2.0))
    phi_eq = Frame(scale * phi.unit_columns.T)
    target_eq = frac * scale * math.sqrt(redundancy_bounds(phi).lower)
    psi_eq, _ = generate_perturbed_frame(
        phi_eq, target_eq, seed=child_seed(), norm_preserving=True
    )

    basis = random_orthogonal_basis(rng, dim)

    fusion_count = int(rng.integers(max(2, clo), chi + 1))
    weighted = random_fusion_frame(rng, dim, fusion_count)
    target_f = frac * math.sqrt(optimal_frame_bounds(weighted).lower) / math.sqrt(fusion_count)
    perturbed_f, _ = generate_perturbed_fusion(weighted, target_f, seed=child_seed())

    unit = weighted.with_unit_weights()
    target_u = frac * math.sqrt(redundancy_bounds(unit).lower) / math.sqrt(fusion_count)
    perturbed_u, _ = generate_perturbed_fusion(unit, target_u, seed=child_seed())

    pairs = {
        "perturbed_frame_bounds": (phi, psi),
        "normalized_perturbation": (phi_eq, psi_eq),
        "redundancy_perturbation": (phi_eq, psi_eq),
        "riesz_redundancy": (basis, basis),
        "fusion_perturbed_bounds": (weighted, perturbed_f),
        "fusion_redundancy_perturbation": (unit, perturbed_u),
        "angle_sum_frames": (phi, psi),
        "angle_sum_fusion": (unit, perturbed_u),
    }
    return {t.id: t.run(*pairs[t.id]) for t in THEOREMS}


def run_random_suite(config: SuiteConfig) -> SuiteReport:
    """Run every theorem check over ``config.instances`` seeded instances."""
    tallies = {tid: TheoremTally(theorem_id=tid) for tid in THEOREM_IDS}
    for index in range(config.instances):
        for tid, verdict in replay_instance(config, index).items():
            tallies[tid].add(verdict, index, config.seed)
    total_failures = sum(t.failed for t in tallies.values())
    return SuiteReport(config=config, tallies=tallies, total_failures=total_failures)
