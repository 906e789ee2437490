"""Executable checks for the perturbation/redundancy theorems.

Each ``verify_*`` function measures everything from its inputs alone (no
trusted metadata: a constant or spectrum it reuses is only the memo of
the same function on the same objects, which a generator or another
verifier measured first), gates on the theorem's hypotheses, asserts the
inequality consequences with a fixed absolute slack, and reports the
residuals of the stronger equality claims as data instead of asserting
them.  A hypothesis that fails on well-formed input yields a gated
verdict, never an exception, and so does a zero vector that a registry
row cannot measure; only mismatched shapes raise.  ``THEOREMS``
lists every statement once, in report order, and is the only list the
suite, ``replay_instance`` and ``framekit verify`` read; a row names the
suite pair it runs on, which ``replay_instance`` builds once, and hands
that pair to the verifier unchanged.  The fusion-redundancy statement
concerns unit weights, and its verifier takes the unit-weight copies.
``run_random_suite`` drives all checks over seeded random instances;
every instance is reproducible bit-for-bit from the suite seed and its
index via ``replay_instance``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .angles import _gap, _inf_sup_cos
from .errors import DegenerateInputError, DimensionError, GenerationError, PreconditionError
from .frames import (
    Frame,
    _blocks,
    _frame,
    _pair_memo,
    _Record,
    optimal_frame_bounds,
    is_riesz_basis,
    redundancy_bounds,
)
from .fusion import FusionFrame, Subspace, _stacked, full_space, subspace_from_spanning
from .perturb import (
    frame_perturbation_mu,
    fusion_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
)

# Absolute slack for every asserted inequality.
INEQ_SLACK = 1e-9
# Tolerance for the gap link |r^2 + gap^2 - 1|, which holds to rounding; it
# stays 1e-10 as suite reports print IDENTITY_TOL minus a link of exactly 0.
IDENTITY_TOL = 1e-10
# Two frames have equal norms when their vector norms differ by at most
# this fraction of the largest norm of the pair.
EQUAL_NORMS_TOL = 1e-9
# The random instance generators redraw until the optimal lower bound is
# at least MIN_LOWER, at most MAX_TRIES times.
MIN_LOWER = 1e-8
MAX_TRIES = 500


@dataclass(frozen=True)
class TheoremVerdict(_Record):
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


def _gated(theorem_id: str, notes: str) -> TheoremVerdict:
    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses_met=False,
        predicted={},
        observed={},
        inequality_pass=True,
        equality_residuals={},
        notes=notes,
    )


def _band(
    theorem_id: str, predicted: dict, base, obs, c: float, notes: str, sides=("lower", "upper")
) -> TheoremVerdict:
    """The statement every perturbation theorem makes: perturbing by the
    constant ``c`` keeps the perturbed extremes ``obs`` (frame bounds or
    redundancy) no less than ``(sqrt(base.lower) - c)^2`` and no more than
    ``(sqrt(base.upper) + c)^2`` for the original extremes ``base``.
    Asserts ``sides`` in order, appending their predictions to
    ``predicted``."""
    bands = {"lower": (math.sqrt(base.lower) - c) ** 2, "upper": (math.sqrt(base.upper) + c) ** 2}
    slack = {"lower": obs.lower - bands["lower"], "upper": bands["upper"] - obs.upper}
    predicted.update((side, bands[side]) for side in sides)
    margin = min(slack[side] for side in sides)
    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses_met=True,
        predicted=predicted,
        observed={"lower": obs.lower, "upper": obs.upper},
        inequality_pass=margin >= -INEQ_SLACK,
        equality_residuals={side: abs(slack[side]) for side in sides},
        notes=notes,
        margin=margin,
    )


def _norm_gap(phi: Frame, psi: Frame) -> float:
    """The largest difference of the pair's vector norms when it breaks
    the equal-norms hypothesis (see EQUAL_NORMS_TOL), else 0.  A norm
    that overflowed to infinity breaks it too."""
    a, b = phi.norms(), psi.norms()
    worst = float(np.abs(a - b).max())
    broken = worst > EQUAL_NORMS_TOL * max(a.max(), b.max()) or worst == math.inf
    return worst if broken else 0.0


def _normalized_mu(phi: Frame, psi: Frame) -> float:
    """The constant between the normalized frames, measured once per pair."""
    return _pair_memo(
        phi, psi, "_normalized_mu",
        lambda a, b: linalg._top_singular_value(a.unit_columns - b.unit_columns),
    )


def verify_perturbed_frame_bounds(phi: Frame, psi: Frame) -> TheoremVerdict:
    """Perturbing a frame by less than the root of its lower bound keeps
    it a frame, with bounds shrunk/grown by the measured constant."""
    mu = frame_perturbation_mu(phi, psi)
    base = optimal_frame_bounds(phi)
    if not (base.is_frame and mu < math.sqrt(base.lower)):
        return _gated(
            "perturbed_frame_bounds",
            f"gate failed: mu={mu:.6g} not below sqrt(lower)="
            f"{math.sqrt(base.lower):.6g}",
        )
    return _band(
        "perturbed_frame_bounds", {"mu": mu}, base, optimal_frame_bounds(psi), mu,
        f"base bounds ({base.lower:.6g}, {base.upper:.6g})",
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
    mu = frame_perturbation_mu(phi, psi)
    worst = _norm_gap(phi, psi)
    if worst:
        return _gated(
            "normalized_perturbation",
            f"gate failed: vector norms differ by {worst:.3e}; the lemma needs equal norms",
        )
    mu_normalized = _normalized_mu(phi, psi)
    min_norm = float(phi.norms().min())
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
    mu = frame_perturbation_mu(phi, psi)
    norm_gap = _norm_gap(phi, psi)
    base = optimal_frame_bounds(phi)
    if norm_gap:
        return _gated(
            "redundancy_perturbation", f"gate failed: norms differ by {norm_gap:.3e}"
        )
    if not (base.is_frame and mu < math.sqrt(base.lower)):
        return _gated(
            "redundancy_perturbation",
            f"gate failed: mu={mu:.6g} not below sqrt(lower)="
            f"{math.sqrt(base.lower):.6g}",
        )
    mu_n = _normalized_mu(phi, psi)
    r_phi = redundancy_bounds(phi)
    lower_applicable = mu_n < math.sqrt(r_phi.lower)
    return _band(
        "redundancy_perturbation", {"mu": mu, "mu_normalized": mu_n},
        r_phi, redundancy_bounds(psi), mu_n,
        f"base redundancy ({r_phi.lower:.6g}, {r_phi.upper:.6g}); "
        f"original mu {mu:.6g}, normalized mu {mu_n:.6g}"
        + ("" if lower_applicable else "; lower check skipped (mu too large)"),
        sides=("upper", "lower") if lower_applicable else ("upper",),
    )


def verify_riesz_redundancy(phi: Frame) -> TheoremVerdict:
    """A Riesz basis is claimed to have lower and upper redundancy one."""
    if not is_riesz_basis(phi):
        return _gated("riesz_redundancy", "gate failed: input is not a Riesz basis")
    profile = redundancy_bounds(phi)
    residuals = {"lower": abs(profile.lower - 1.0), "upper": abs(profile.upper - 1.0)}
    worst = max(residuals.values())
    unit = phi.unit_columns
    gram = unit.T @ unit
    ortho_defect = float(np.abs(gram - np.eye(phi.count)).max())
    return TheoremVerdict(
        theorem_id="riesz_redundancy",
        hypotheses_met=True,
        predicted={"lower": 1.0, "upper": 1.0},
        observed={"lower": profile.lower, "upper": profile.upper},
        inequality_pass=worst <= INEQ_SLACK,
        equality_residuals=residuals,
        notes=f"orthogonality defect of normalized basis: {ortho_defect:.3e}",
        margin=-worst,
    )


def verify_fusion_perturbed_bounds(w: FusionFrame, v: FusionFrame) -> TheoremVerdict:
    """Perturbed fusion frames keep framehood with bounds adjusted by the
    measured constant times the square root of the member count."""
    mu = fusion_perturbation_mu(w, v)
    base = optimal_frame_bounds(w)
    c = mu * math.sqrt(w.count)
    if not (base.is_frame and math.sqrt(base.lower) - c > 0):
        return _gated(
            "fusion_perturbed_bounds",
            f"gate failed: sqrt(lower)-mu*sqrt(N) = {math.sqrt(base.lower) - c:.6g} <= 0",
        )
    return _band(
        "fusion_perturbed_bounds", {"mu": mu}, base, optimal_frame_bounds(v), c,
        f"base bounds ({base.lower:.6g}, {base.upper:.6g}), N={w.count}",
    )


def verify_fusion_redundancy_perturbation(w: FusionFrame, v: FusionFrame) -> TheoremVerdict:
    """Fusion redundancy of a perturbation, in inequality form.  The
    statement concerns the subspaces at unit weights, so the constant is
    measured between the unit-weight copies, whatever weights the pair holds."""
    mu = fusion_perturbation_mu(w.with_unit_weights(), v.with_unit_weights())
    r_w = redundancy_bounds(w)
    c = mu * math.sqrt(w.count)
    if not math.sqrt(r_w.lower) - c > 0:
        return _gated(
            "fusion_redundancy_perturbation",
            f"gate failed: sqrt(lower redundancy)-mu*sqrt(N) = "
            f"{math.sqrt(r_w.lower) - c:.6g} <= 0",
        )
    return _band(
        "fusion_redundancy_perturbation", {"mu": mu}, r_w, redundancy_bounds(v), c,
        f"base redundancy ({r_w.lower:.6g}, {r_w.upper:.6g}), N={w.count}",
    )


def verify_angle_sums(frame_or_fusion: Frame | FusionFrame, wprime: Subspace) -> TheoremVerdict:
    """Compare spectral redundancies with the angle-sum expressions at a
    reference subspace, asserting only the gap link r^2 + gap^2 = 1 per member.

    The members are the blocks of the unit columns, sliced by rank: the
    vectors' spans of a frame, the subspaces of a fusion frame, summed in
    order.  The ranks decide what they can (see ``angles``), so at the
    full space no member takes an SVD.  The redundancy equalities are
    reported as residuals: at the only subspace containing the whole unit
    sphere (the full space) the angle sums evaluate to the count of
    full-rank members and N, which generically differ from the spectral
    redundancies.
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
    profile = redundancy_bounds(frame_or_fusion)
    sum_r2 = sum_s2 = gap_worst = 0.0
    for block in _blocks(frame_or_fusion):
        # C layout, as a member's Subspace holds it: an SVD gives the
        # pairwise bits.  A frame's n-by-1 blocks are C-contiguous already.
        block = np.ascontiguousarray(block)
        r, s = _inf_sup_cos(wprime.basis, block)
        delta = _gap(wprime.basis, block)
        sum_r2 += r * r
        sum_s2 += s * s
        gap_worst = max(gap_worst, abs(r * r + delta * delta - 1.0))
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
    (original, perturbed) pair of ``kind``, as given; ``pair`` names the
    suite pair it runs on.  A degenerate input the check cannot measure
    (a zero vector, whose span is undefined) gives a gated verdict
    naming it."""

    id: str
    kind: type
    pair: str
    check: Callable[[object, object], TheoremVerdict]

    def run(self, a, b) -> TheoremVerdict:
        try:
            return self.check(a, b)
        except DegenerateInputError as exc:
            return _gated(self.id, f"gate failed: {exc}")


# Report order.  Each check looks its verifier up by module name when
# called, so a wrapper installed on that name (a tracer, say) sees the call.
THEOREMS = (
    Theorem("perturbed_frame_bounds", Frame, "frame", lambda a, b: verify_perturbed_frame_bounds(a, b)),
    Theorem("normalized_perturbation", Frame, "equal_norms", lambda a, b: verify_normalized_perturbation(a, b)),
    Theorem("redundancy_perturbation", Frame, "equal_norms", lambda a, b: verify_redundancy_perturbation(a, b)),
    Theorem("riesz_redundancy", Frame, "basis", lambda a, b: verify_riesz_redundancy(a)),
    Theorem("fusion_perturbed_bounds", FusionFrame, "weighted", lambda a, b: verify_fusion_perturbed_bounds(a, b)),
    Theorem(
        "fusion_redundancy_perturbation",
        FusionFrame,
        "unit",
        lambda a, b: verify_fusion_redundancy_perturbation(a, b),
    ),
    Theorem("angle_sum_frames", Frame, "frame", lambda a, b: verify_angle_sums(a, full_space(a.dim))),
    Theorem("angle_sum_fusion", FusionFrame, "unit", lambda a, b: verify_angle_sums(a, full_space(a.dim))),
)
THEOREM_IDS = tuple(t.id for t in THEOREMS)


# ---------------------------------------------------------------------------
# Randomized suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig(_Record):
    """Shape of the randomized verification run.  Each range is a pair,
    stored as a tuple so the config stays hashable."""

    instances: int = 1000
    dim_range: tuple[int, int] = (2, 6)
    count_range: tuple[int, int] = (2, 12)
    mu_fraction_range: tuple[float, float] = (0.1, 0.9)
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_range"):
                if not isinstance(value, (tuple, list)) or len(value) != 2:
                    raise PreconditionError(f"{f.name} must be a pair, got {value!r}")
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            kind = numbers.Real if f.name == "mu_fraction_range" else numbers.Integral
            entries = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(x, kind) and not isinstance(x, bool) for x in entries):
                raise PreconditionError(f"{f.name} must be {kind.__name__.lower()}, got {value!r}")
        if self.instances < 1:
            raise PreconditionError(f"instances must be >= 1, got {self.instances}")
        for name in ("dim_range", "count_range"):  # the generators draw these as int64
            if max(getattr(self, name)) > 2**63 - 1:
                raise PreconditionError(
                    f"{name} bounds must not exceed 2**63 - 1, got {getattr(self, name)}"
                )
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
        # An instance's largest array is the n-by-Nn float64 buffer of
        # ``perturb._projector_differences``, n N n <= 2 n N (n - 1) entries;
        # numpy creates no array of more than 2**63 - 1 bytes.
        n = min(dhi, chi)
        if 8 * n * 2 * chi * (n - 1) > 2**63 - 1:
            raise PreconditionError(
                f"dim_range {self.dim_range} with count_range {self.count_range} needs "
                "arrays beyond numpy's size limit of 2**63 - 1 bytes"
            )
        if not (0.0 < flo <= fhi < 1.0):
            raise PreconditionError(
                f"mu_fraction_range must lie strictly inside (0, 1), got {self.mu_fraction_range}"
            )
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")


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
            values = np.asarray(values)
            counts, edges = np.histogram(values, bins=12)
            histograms[name] = {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
                "max": float(values.max()),
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


def random_frame(rng, dim: int, count: int) -> Frame:
    """Gaussian frame with optimal lower bound at least ``MIN_LOWER``."""
    for _ in range(MAX_TRIES):
        f = _frame(rng.standard_normal((count, dim)))
        if optimal_frame_bounds(f).lower >= MIN_LOWER:
            return f
    raise GenerationError(
        f"no frame with lower bound >= {MIN_LOWER} in {MAX_TRIES} draws "
        f"(dim={dim}, count={count})"
    )


def random_orthogonal_basis(rng, dim: int) -> Frame:
    """Randomly rotated orthogonal basis with random per-vector scales.

    This is the instance family on which the unit-redundancy claim for
    Riesz bases actually holds; oblique bases falsify it (see the
    theorem tests for a counterexample).
    """
    q = linalg._qr(rng.standard_normal((dim, dim)))[0]
    scales = rng.uniform(0.5, 2.0, size=dim)
    return _frame(q.T * scales[:, None])


def random_fusion_frame(
    rng,
    dim: int,
    count: int,
    max_rank: int | None = None,
    unit_weights: bool = False,
) -> FusionFrame:
    """Random spanning fusion frame with subspace ranks in [1, dim-1]:
    per member, in order, a rank, a Gaussian block of that many vectors
    and a weight.  The blocks of one rank take one stacked QR
    (``linalg._qr_stack``), with the bits of one QR each; a block with a
    short diagonal entry is spanned by ``subspace_from_spanning``."""
    if dim < 2:
        raise GenerationError("random fusion frames need ambient dimension >= 2")
    cap = dim - 1 if max_rank is None else max(1, min(max_rank, dim - 1))
    for _ in range(MAX_TRIES):
        blocks, weights, groups = [], [], {}
        for i in range(count):
            blocks.append(rng.standard_normal((int(rng.integers(1, cap + 1)), dim)))
            groups.setdefault(len(blocks[-1]), []).append(i)
            weights.append(1.0 if unit_weights else float(rng.uniform(0.5, 2.0)))
        bases = [None] * count
        for group in groups.values():
            q, _, _, short = linalg._qr_stack(np.stack([blocks[i] for i in group]).swapaxes(1, 2))
            for i, basis, fallback in zip(group, q, short.any(axis=1).tolist()):
                bases[i] = subspace_from_spanning(blocks[i]).basis if fallback else basis
        ff = _stacked(np.hstack(bases), [b.shape[1] for b in bases], weights)
        if optimal_frame_bounds(ff).lower >= MIN_LOWER:
            return ff
    raise GenerationError(
        f"no fusion frame with lower bound >= {MIN_LOWER} in {MAX_TRIES} draws "
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
    phi_eq = _frame(scale * phi.unit_columns.T)
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
        "frame": (phi, psi),
        "equal_norms": (phi_eq, psi_eq),
        "basis": (basis, basis),
        "weighted": (weighted, perturbed_f),
        "unit": (unit, perturbed_u),
    }
    return {t.id: t.run(*pairs[t.pair]) for t in THEOREMS}


def run_random_suite(config: SuiteConfig) -> SuiteReport:
    """Run every theorem check over ``config.instances`` seeded instances."""
    tallies = {tid: TheoremTally(theorem_id=tid) for tid in THEOREM_IDS}
    for index in range(config.instances):
        for tid, verdict in replay_instance(config, index).items():
            tallies[tid].add(verdict, index, config.seed)
    total_failures = sum(t.failed for t in tallies.values())
    return SuiteReport(config=config, tallies=tallies, total_failures=total_failures)
