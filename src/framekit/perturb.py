"""Measuring and constructing perturbations of frames and fusion frames.

The perturbation constant reported here is always the exact least one:
the operator norm of the synthesis-matrix difference for frames, and of
the horizontal block concatenation of weighted-projector differences for
fusion frames.  Theorem checks downstream consume these tight values, so
they exercise the sharpest admissible hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, GenerationError, PreconditionError
from .frames import Frame, _nonzero, synthesis_matrix
from .fusion import FusionFrame, Subspace, projection_matrix

# Relative window the bisection-based generators must land in.
TARGET_WINDOW = 0.05
BISECT_MAX_ITER = 100


@dataclass(frozen=True)
class PerturbationReport:
    """Least perturbation constant plus per-index difference norms."""

    mu: float
    per_index_norms: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"mu": self.mu, "per_index_norms": list(self.per_index_norms)}


@dataclass(frozen=True)
class LambdaPerturbationVerdict:
    """Outcome of checking the mixed projector-difference inequality."""

    lambda1: float
    lambda2: float
    epsilon: float
    holds_exact: bool | None
    holds_on_samples: bool
    worst_margin: float
    counterexample: np.ndarray | None
    counterexample_index: int | None

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "epsilon": self.epsilon,
            "holds_exact": self.holds_exact,
            "holds_on_samples": self.holds_on_samples,
            "worst_margin": self.worst_margin,
            "counterexample": None
            if self.counterexample is None
            else list(self.counterexample),
            "counterexample_index": self.counterexample_index,
        }


def frame_perturbation_mu(phi: Frame, psi: Frame) -> PerturbationReport:
    """Least constant bounding ||sum c_i (phi_i - psi_i)|| / ||c||."""
    if phi.dim != psi.dim or phi.count != psi.count:
        raise DimensionError(
            f"frames have shapes {(phi.count, phi.dim)} vs {(psi.count, psi.dim)}"
        )
    diff = synthesis_matrix(phi) - synthesis_matrix(psi)
    mu = linalg.operator_norm(diff)
    per_index = tuple(float(x) for x in np.linalg.norm(diff, axis=0))
    return PerturbationReport(mu=mu, per_index_norms=per_index)


def _weighted_projectors(bases, weights):
    """``w_i U_i U_i^T`` for each orthonormal basis ``U_i`` and weight
    ``w_i``, one at a time."""
    return (w * (b @ b.T) for b, w in zip(bases, weights))


def _projector_pairs(w: FusionFrame, v: FusionFrame) -> tuple[list, list]:
    if w.dim != v.dim or w.count != v.count:
        raise DimensionError(
            f"fusion frames have shapes {(w.count, w.dim)} vs {(v.count, v.dim)}"
        )
    return tuple(
        list(_weighted_projectors([s.basis for s in ff.subspaces], ff.weights)) for ff in (w, v)
    )


def _constant(p: list[np.ndarray], q) -> float:
    """Operator norm of ``C = [p_1 - q_1 ... p_N - q_N]`` (n-by-n blocks),
    taken as the root of the top eigenvalue of the n-by-n ``C C^T``."""
    n = len(p[0])
    c = np.empty((n, n * len(p)))
    for i, (a, b) in enumerate(zip(p, q)):
        np.subtract(a, b, out=c[:, i * n : (i + 1) * n])
    return math.sqrt(max(0.0, float(linalg.hermitian_eigenvalues(c @ c.T)[-1])))


def _fusion_constant(w: FusionFrame, v: FusionFrame) -> float:
    return _constant(*_projector_pairs(w, v))


def fusion_perturbation_mu(w: FusionFrame, v: FusionFrame) -> PerturbationReport:
    """Least constant bounding the synthesis-operator difference of two
    fusion frames, taken on the product of ambient-space copies (the
    blockwise weighted-projector difference)."""
    p, q = _projector_pairs(w, v)
    per_index = tuple(linalg.operator_norm(a - b) for a, b in zip(p, q))
    return PerturbationReport(mu=_constant(p, q), per_index_norms=per_index)


def check_lambda_perturbation(
    w,
    v,
    lambda1: float,
    lambda2: float,
    epsilon: float,
    samples: int = 10_000,
    seed: int = 0,
) -> LambdaPerturbationVerdict:
    """Check the mixed inequality
    ||(P_i - Q_i) f|| <= lambda1 ||P_i f|| + lambda2 ||Q_i f|| + epsilon ||f||
    for two subspace families.

    With lambda1 = lambda2 = 0 the check reduces exactly to comparing each
    ||P_i - Q_i|| against epsilon and the verdict is exact.  Otherwise the
    inequality is sampled on seeded unit vectors plus the top singular
    direction of each projector difference (the analytic worst case for
    the left-hand side).
    """
    w = list(w)
    v = list(v)
    if len(w) != len(v) or not w:
        raise DimensionError(f"families have lengths {len(w)} vs {len(v)}")
    n = w[0].ambient_dim
    for s in (*w, *v):
        if s.ambient_dim != n:
            raise DimensionError("families live in different ambient spaces")
    if not (0 <= lambda1 < 1 and 0 <= lambda2 < 1):
        raise PreconditionError("lambda parameters must lie in [0, 1)")
    if not epsilon > 0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")

    projs = [(projection_matrix(a), projection_matrix(b)) for a, b in zip(w, v)]
    diffs = [p - q for p, q in projs]
    top_dirs = []
    norms = []
    for d in diffs:
        u_, s_, vt = np.linalg.svd(d)
        norms.append(float(s_[0]) if s_.size else 0.0)
        top_dirs.append(vt[0])

    exact = None
    if lambda1 == 0.0 and lambda2 == 0.0:
        worst_i = int(np.argmax(norms))
        margin = epsilon - norms[worst_i]
        exact = norms[worst_i] <= epsilon
        return LambdaPerturbationVerdict(
            lambda1=lambda1,
            lambda2=lambda2,
            epsilon=epsilon,
            holds_exact=exact,
            holds_on_samples=exact,
            worst_margin=float(margin),
            counterexample=None if exact else top_dirs[worst_i],
            counterexample_index=None if exact else worst_i,
        )

    rng = np.random.default_rng(seed)
    worst_margin = np.inf
    counterexample = None
    counterexample_index = None
    for i, ((p, q), d) in enumerate(zip(projs, diffs)):
        cand = rng.standard_normal((samples, n))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand = np.vstack([top_dirs[i], cand])
        lhs = np.linalg.norm(cand @ d.T, axis=1)
        rhs = (
            lambda1 * np.linalg.norm(cand @ p.T, axis=1)
            + lambda2 * np.linalg.norm(cand @ q.T, axis=1)
            + epsilon
        )
        margins = rhs - lhs
        j = int(np.argmin(margins))
        if margins[j] < worst_margin:
            worst_margin = float(margins[j])
            if margins[j] < 0:
                counterexample = cand[j].copy()
                counterexample_index = i
    return LambdaPerturbationVerdict(
        lambda1=lambda1,
        lambda2=lambda2,
        epsilon=epsilon,
        holds_exact=exact,
        holds_on_samples=worst_margin >= 0,
        worst_margin=worst_margin,
        counterexample=counterexample,
        counterexample_index=counterexample_index,
    )


def _horizontal(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` with its component in the column span of orthonormal ``u``
    removed; the second pass leaves a residual at rounding level."""
    g = g - u @ (u.mT @ g)
    return g - u @ (u.mT @ g)


def _geodesic(bases, tangents):
    """Grassmann geodesics ``t -> U V cos(S t) V^T + Q sin(S t) V^T``
    through each basis ``U`` along its horizontal tangent ``H = Q S V^T``
    (Edelman, Arias & Smith 1998); a stack of equal-shape bases counts
    as one entry.

    The principal angles between ``span U`` and the point at ``t`` are
    ``t * S`` while ``t * max(S) <= pi/2``, so ``||P - Q(t)|| =
    sin(t * max(S))`` there.  Returns the path and each ``max(S)``.
    """
    factors = []
    for u, h in zip(bases, tangents):
        q, s, vt = np.linalg.svd(h, full_matrices=False)
        factors.append((u @ vt.mT, q, s[..., None, :], vt))

    def path(t: float) -> list[np.ndarray]:
        return [(uv * np.cos(s * t) + q * np.sin(s * t)) @ vt for uv, q, s, vt in factors]

    return path, [s[..., 0, 0] for _, _, s, _ in factors]


def _bisect(measure, ends, target_mu: float):
    """Bisect the step ``t`` until ``measure(t) = (perturbed, constant)``
    lands within TARGET_WINDOW of ``target_mu``.

    The constant is 0 at ``t = 0``.  The bracket ends at the first of the
    increasing ``ends`` whose constant is not below the window, and starts
    at the end before it (or 0); when every end stays below the window,
    the target is out of reach and GenerationError is raised.  The result
    never exceeds ``(1 + TARGET_WINDOW) * target_mu``.
    """
    lo = 0.0
    for hi in ends:
        result = measure(hi)
        if result[1] >= (1.0 - TARGET_WINDOW) * target_mu:
            break
        lo = hi
    else:
        raise GenerationError(
            f"target {target_mu} unreachable: the geodesic bracket reaches {result[1]:.6g}"
        )
    if result[1] <= (1.0 + TARGET_WINDOW) * target_mu:
        return result
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        result = measure(mid)
        if abs(result[1] - target_mu) <= TARGET_WINDOW * target_mu:
            return result
        if result[1] > target_mu:
            hi = mid
        else:
            lo = mid
    return measure(lo)  # measured below target, therefore within the guarantee


def generate_perturbed_frame(
    phi: Frame, target_mu: float, seed: int, norm_preserving: bool = False
) -> tuple[Frame, float]:
    """Produce a perturbed copy of ``phi`` whose measured constant tracks
    ``target_mu``.

    In the default mode a Gaussian offset is rescaled so the measured
    constant equals the target to machine precision.  In norm-preserving
    mode every vector turns inside its own sphere along a great circle,
    the one-dimensional case of the subspace geodesics of
    ``generate_perturbed_fusion``, and a bisection on the common step
    lands the measured constant within 5% of the target.  The step runs
    to 1, or, when the constant there falls short, on to the step that
    turns the vector with the largest angle by pi; GenerationError means
    the target lies above what both reach.  Each turning
    direction is projected off its vector twice, so norms move by
    rounding only (about 1e-16 relative).  Zero vectors (see
    ``frames.ZERO_VECTOR_TOL``) stay as they are.
    """
    if not target_mu > 0:
        raise PreconditionError(f"target_mu must be positive, got {target_mu}")
    rng = np.random.default_rng(seed)

    if not norm_preserving:
        offset = rng.standard_normal(phi.vectors.shape)
        base = linalg.operator_norm(offset.T)
        if base == 0.0:
            raise GenerationError("degenerate zero offset draw")
        offset *= target_mu / base
        psi = Frame(phi.vectors + offset, labels=phi.labels)
        return psi, frame_perturbation_mu(phi, psi).mu

    if phi.dim < 2:
        raise GenerationError("norm-preserving rotation needs ambient dimension >= 2")
    norms = phi.norms()
    movable = _nonzero(norms)
    lengths = np.where(movable, norms, 1.0)
    angles = rng.uniform(0.1 * np.pi, np.pi, size=phi.count)
    units = (phi.vectors / lengths[:, None])[:, :, None]
    g = _horizontal(units[movable], rng.standard_normal((np.count_nonzero(movable), phi.dim, 1)))
    tangents = np.zeros_like(units)
    tangents[movable] = (angles[movable] / np.linalg.norm(g, axis=(1, 2)))[:, None, None] * g
    path, _ = _geodesic([units], [tangents])

    def measure(t: float) -> tuple[Frame, float]:
        psi = Frame(lengths[:, None] * path(t)[0][:, :, 0], labels=phi.labels)
        return psi, frame_perturbation_mu(phi, psi).mu

    # At the second end the vector with the largest angle has turned by
    # pi, so its own difference is twice its norm.
    return _bisect(measure, (1.0, np.pi / angles.max()), target_mu)


def generate_perturbed_fusion(
    w: FusionFrame, target_mu: float, seed: int
) -> tuple[FusionFrame, float]:
    """Move every subspace along a Grassmann geodesic in a seeded random
    horizontal direction (ranks and weights kept) and bisect the common
    step until the measured constant lands within 5% of ``target_mu``.

    Member i's own constant is ``w_i sin(t theta_i)`` with ``theta_i``
    the largest singular value of its tangent (Bjorck & Golub 1973), so
    at ``t = pi / (2 theta_top)``, with ``top`` the heaviest member that
    can move, the constant is at least ``w_top``: one bracket holds every
    target up to that weight.  GenerationError means the target lies
    above what the bracket reaches, or that every member is the whole
    space and nothing can move.
    """
    if not target_mu > 0:
        raise PreconditionError(f"target_mu must be positive, got {target_mu}")
    rng = np.random.default_rng(seed)
    bases = [s.basis for s in w.subspaces]
    weights = w.weights
    tangents = []
    for u in bases:
        g = rng.standard_normal(u.shape)
        # A full-space member has no horizontal direction; a zero tangent
        # keeps it fixed with theta = 0 instead of moving it by rounding.
        tangents.append(np.zeros_like(g) if u.shape[1] == w.dim else _horizontal(u, g))
    path, thetas = _geodesic(bases, tangents)
    movable = [i for i, theta in enumerate(thetas) if theta > 0]
    if not movable:
        raise GenerationError("no member can move: every subspace is the whole space")
    top = max(movable, key=lambda i: weights[i])
    fixed = list(_weighted_projectors(bases, weights))

    def measure(t: float) -> tuple[list[np.ndarray], float]:
        moved = path(t)
        return moved, _constant(fixed, _weighted_projectors(moved, weights))

    moved, mu = _bisect(measure, (np.pi / (2.0 * thetas[top]),), target_mu)
    return FusionFrame(tuple((Subspace(b), wt) for b, wt in zip(moved, weights))), mu
