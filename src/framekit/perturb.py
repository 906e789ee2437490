"""Measuring and constructing perturbations of frames and fusion frames.

The perturbation constant measured here is always the exact least one,
one float per pair: the operator norm of the synthesis-matrix difference
for frames, and of the horizontal block concatenation of weighted-projector
differences for fusion frames.  Theorem checks downstream consume these
tight values, so they exercise the sharpest admissible hypotheses.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import DimensionError, GenerationError, PreconditionError
from .frames import Frame, _blocks, _frame, _nonzero, _pair_memo
from .fusion import FusionFrame, _stacked

# Relative window the geodesic generators must land in.
TARGET_WINDOW = 0.05
LAND_MAX_ITER = 100
# Frame targets must lie below this: the per-vector difference norms that
# ``framekit perturb`` prints are roots of sums of squares, which overflow
# from sqrt(float max) ~ 1.34e154 up; 2^511, half of that, leaves room for
# the landing window and rounding.
MAX_FRAME_TARGET = 2.0**511


def frame_perturbation_mu(phi: Frame, psi: Frame) -> float:
    """Least constant bounding ||sum c_i (phi_i - psi_i)|| / ||c||,
    measured once per pair (see ``frames._pair_memo``)."""
    return _pair_memo(phi, psi, "_frame_perturbation_mu", _frame_constant)


def _frame_constant(phi: Frame, psi: Frame) -> float:
    if phi.dim != psi.dim or phi.count != psi.count:
        raise DimensionError(
            f"frames have shapes {(phi.count, phi.dim)} vs {(psi.count, psi.dim)}"
        )
    return linalg._top_singular_value(phi.synthesis_columns - psi.synthesis_columns)


def _gram_norm(c: np.ndarray) -> float:
    """Operator norm of a wide matrix, from the eigenvalues of ``c c^T``."""
    return math.sqrt(max(0.0, float(linalg._gram_eigenvalues(c)[-1])))


def _projector_differences(w: FusionFrame, v: FusionFrame) -> np.ndarray:
    """``C = [w_1 P_1 - v_1 Q_1 ... w_N P_N - v_N Q_N]``, n-by-Nn, filled
    block by block into one buffer from column slices of the unit stacks."""
    if w.dim != v.dim or w.count != v.count:
        raise DimensionError(
            f"fusion frames have shapes {(w.count, w.dim)} vs {(v.count, v.dim)}"
        )
    n = w.dim
    c = np.empty((n, n * w.count))
    for i, (s, t, a, b) in enumerate(zip(_blocks(w), _blocks(v), w.weights, v.weights)):
        np.subtract(a * (s @ s.T), b * (t @ t.T), out=c[:, i * n : (i + 1) * n])
    return c


def fusion_perturbation_mu(w: FusionFrame, v: FusionFrame) -> float:
    """Least constant bounding the synthesis-operator difference of two
    fusion frames, taken on the product of ambient-space copies (the
    blockwise weighted-projector difference), measured once per pair."""
    return _pair_memo(w, v, "_fusion_perturbation_mu", lambda w, v: _gram_norm(_projector_differences(w, v)))


def _horizontal(u: np.ndarray, starts: np.ndarray, member: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each column ``g_i`` of n-by-N ``g`` with its component in the span
    of member i's orthonormal block of ``u`` removed (blocks start at
    ``starts``, ``member`` owns each column of ``u``); the second pass
    leaves a residual at rounding level."""
    for _ in range(2):
        g = g - np.add.reduceat(u * (u * g[:, member]).sum(axis=0), starts, axis=1)
    return g


class _GeodesicPath:
    """Grassmann geodesics (Edelman, Arias & Smith 1998) through the
    member bases ``U_i``, blocks of the n-by-K ``u``, along rank-one
    horizontal tangents ``theta_i q_i v_i^T``: ``v`` holds the unit
    ``v_i`` (K entries), ``q`` the unit ``q_i`` orthogonal to ``U_i``
    (n-by-N).  Member i turns in the plane of ``[U_i v_i, q_i]`` alone,
    by the one principal angle ``t theta_i``, so while that is at most
    pi/2, ``||P - P(t)|| = sin(t theta_i)``; at ``theta_i = 0`` it stays
    bit-fixed.  ``columns(t)``, the one way to move, stacks the moved
    bases n-by-K.  ``g = [U_1 v_1 ... U_N v_N, q_1 ... q_N]`` is the only
    copy of the planes; ``angles`` and ``owner`` give the angle and member
    of each of its columns.  ``P - P(t)`` is ``sin(t theta)`` times a
    reflection of the plane, so at every ``t``
    ``sum_i w_i^2 (P_i - P_i(t))^2 = g diag(w^2 sin^2(t angles)) g^T``.
    """

    def __init__(self, u, ranks, v, q, thetas):
        starts = np.cumsum(ranks) - ranks
        self._member = np.arange(len(thetas)).repeat(ranks)
        self._u, self._v, self.thetas = u, v, thetas
        self.g = np.concatenate([np.add.reduceat(u * v, starts, axis=1), q], axis=1)
        self.angles = np.concatenate([thetas, thetas])
        self.owner = np.arange(2 * len(thetas)) % len(thetas)

    def columns(self, t: float) -> np.ndarray:
        uv, q = self.g[:, : len(self.thetas)], self.g[:, len(self.thetas) :]
        turn = (np.cos(t * self.thetas) - 1.0) * uv + np.sin(t * self.thetas) * q
        return self._u + turn[:, self._member] * self._v

    def fusion_constant(self, weights):
        """``t ->`` the fusion constant from the start to step ``t``, in closed form."""
        column_weights = weights[self.owner]
        return lambda t: _gram_norm(self.g * (column_weights * np.sin(t * self.angles)))


def _land(measure, slope: float, end: float, target_mu: float) -> tuple[float, float]:
    """Step ``t`` in ``(0, end]`` until ``measure(t)`` lies within
    TARGET_WINDOW of ``target_mu``; returns the step and its constant, and
    that step is always the last one measured.  The first step is
    ``target_mu / slope`` (``end`` for a zero or non-finite slope), each
    later one the secant through the origin, kept strictly inside the
    bracket or else its midpoint.  ``end`` is measured only when a step
    reaches it; GenerationError means its constant stays below the window.
    After LAND_MAX_ITER steps the highest step below the window is
    remeasured and returned."""
    lo, hi, hi_measured = 0.0, end, False
    t = target_mu / slope if 0.0 < slope < math.inf else hi
    for _ in range(LAND_MAX_ITER):
        if not hi_measured and t >= hi:
            t = hi
        elif not lo < t < hi:
            t = 0.5 * (lo + hi)
        mu = measure(t)
        if abs(mu - target_mu) <= TARGET_WINDOW * target_mu:
            return t, mu
        if mu > target_mu:
            hi, hi_measured = t, True
        elif t == hi:
            raise GenerationError(f"target {target_mu} unreachable: the geodesic bracket reaches {mu:.6g}")
        else:
            lo = t
        t = t * target_mu / mu if mu > 0.0 else math.inf
    return lo, measure(lo)


def generate_perturbed_frame(
    phi: Frame, target_mu: float, seed: int, norm_preserving: bool = False
) -> tuple[Frame, float]:
    """Produce a perturbed copy of ``phi`` whose measured constant tracks
    ``target_mu``.

    In the default mode a Gaussian offset is rescaled so the measured
    constant equals the target to machine precision; an offset below
    about 1e-16 times the largest norm vanishes when added.  In the
    norm-preserving mode every vector turns inside its own sphere along
    a great circle, the one-dimensional case of the subspace geodesics of
    ``generate_perturbed_fusion``, and ``_land`` lands the common step
    within 5% of the target, from the slope at 0 (the norm of the tangents
    times the lengths).  The step runs up to the one that turns the vector
    with the largest angle by pi; GenerationError means the target lies
    above what that reaches.  Each step is a Frame measured by
    ``frame_perturbation_mu``, and the last one is returned.
    Each turning direction is projected off its vector twice, so norms
    move by rounding only, about 1e-16 relative: a target below that
    times the largest norm comes back outside the window.  Zero vectors
    (see ``frames.ZERO_VECTOR_TOL``) stay as they are.  Targets from
    ``MAX_FRAME_TARGET`` up raise GenerationError in both modes.  Both
    return the constant ``frame_perturbation_mu(phi, psi)`` holds.
    """
    if not target_mu > 0:
        raise PreconditionError(f"target_mu must be positive, got {target_mu}")
    if not target_mu < MAX_FRAME_TARGET:
        raise GenerationError(
            f"target {target_mu} unreachable: frame constants from {MAX_FRAME_TARGET:.6g} up "
            "overflow the difference norms"
        )
    rng = np.random.default_rng(seed)

    if not norm_preserving:
        offset = rng.standard_normal(phi.vectors.shape)
        base = linalg._top_singular_value(offset.T)
        if base == 0.0:
            raise GenerationError("degenerate zero offset draw")
        offset *= target_mu / base
        psi = _frame(phi.vectors + offset, labels=phi.labels)
        return psi, frame_perturbation_mu(phi, psi)

    if phi.dim < 2:
        raise GenerationError("norm-preserving rotation needs ambient dimension >= 2")
    norms = phi.norms()
    movable = _nonzero(norms)
    lengths = np.where(movable, norms, 1.0)
    angles = rng.uniform(0.1 * np.pi, np.pi, size=phi.count)
    units = phi.vectors.T / lengths
    each = np.arange(np.count_nonzero(movable))
    g = _horizontal(units[:, movable], each, each, rng.standard_normal((each.size, phi.dim)).T)
    q = np.zeros_like(units)
    q[:, movable] = g / linalg._norms(g, 0)
    thetas = np.where(movable, angles, 0.0)
    path = _GeodesicPath(units, (1,) * phi.count, np.ones(phi.count), q, thetas)

    built = []

    def measure(t: float) -> float:
        built.append(_frame((path.columns(t) * lengths).T, labels=phi.labels))
        return frame_perturbation_mu(phi, built[-1])

    slope = linalg._top_singular_value(q * (thetas * lengths))
    # At the end the vector with the largest angle has turned by pi, so
    # its own difference is twice its norm.
    _, mu = _land(measure, slope, np.pi / angles.max(), target_mu)
    return built[-1], mu


def generate_perturbed_fusion(
    w: FusionFrame, target_mu: float, seed: int
) -> tuple[FusionFrame, float]:
    """Move every subspace along a Grassmann geodesic in a seeded random
    horizontal direction (ranks and weights kept) and step the common
    step until the measured constant lands within 5% of ``target_mu``.
    The perturbed frame is built from the moved n-by-K stack alone
    (``fusion._stacked``).

    Member i turns in one plane (see ``_GeodesicPath``): ``v_i`` is a
    seeded unit vector of its basis coordinates, and ``theta_i q_i`` the
    projection of a seeded Gaussian vector off the member (``theta_i = 0``
    for a full-space member).  Its one principal angle is ``t theta_i``,
    so its own constant is ``w_i sin(t theta_i)``, and at
    ``t = pi / (2 theta_top)``, with ``top`` the heaviest member that can
    move, the constant is at least ``w_top``: one bracket holds every
    target up to that weight.  GenerationError means the target lies
    above what the bracket reaches (possible above ``w_top``), or that
    every member is the whole space and nothing can move.  Steps take the
    closed form from its slope at 0; the landing step alone is moved and
    remeasured by ``fusion_perturbation_mu``, with rounding (about
    1e-15 times the largest weight) below which a target comes back
    outside the window.
    """
    if not target_mu > 0:
        raise PreconditionError(f"target_mu must be positive, got {target_mu}")
    rng = np.random.default_rng(seed)
    u, ranks, weights = w.unit_columns, np.asarray(w.ranks), w.weights
    starts = np.cumsum(ranks) - ranks
    member = np.arange(w.count).repeat(ranks)
    coords = rng.standard_normal(member.size)
    coords /= np.sqrt(np.add.reduceat(coords * coords, starts))[member]
    h = _horizontal(u, starts, member, rng.standard_normal((w.dim, w.count)))
    # A full-space member has no horizontal direction; theta = 0 keeps it
    # fixed instead of moving it by rounding.
    thetas = np.where(ranks < w.dim, linalg._norms(h, 0), 0.0)
    if not thetas.any():
        raise GenerationError("no member can move: every subspace is the whole space")
    top = np.where(thetas > 0, weights, 0.0).argmax()
    path = _GeodesicPath(u, ranks, coords, h / np.where(thetas > 0, thetas, 1.0), thetas)
    # sin(t angles) replaced by angles; as sin^2 x <= x^2, no step
    # overshoots t * slope.
    slope = _gram_norm(path.g * (weights[path.owner] * path.angles))
    t, _ = _land(path.fusion_constant(weights), slope, np.pi / (2.0 * thetas[top]), target_mu)
    v = _stacked(path.columns(t), w.ranks, weights)
    return v, fusion_perturbation_mu(w, v)
