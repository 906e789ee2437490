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
from .frames import Frame, _nonzero, _rank_stacks
from .fusion import FusionFrame, Subspace

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


def frame_perturbation_mu(phi: Frame, psi: Frame) -> PerturbationReport:
    """Least constant bounding ||sum c_i (phi_i - psi_i)|| / ||c||.

    The difference is formed C-ordered: the column norms are summed in
    memory order, so the layout fixes the bits of ``per_index_norms``."""
    if phi.dim != psi.dim or phi.count != psi.count:
        raise DimensionError(
            f"frames have shapes {(phi.count, phi.dim)} vs {(psi.count, psi.dim)}"
        )
    diff = np.subtract(phi.synthesis_columns, psi.synthesis_columns, order="C")
    mu = linalg.operator_norm(diff)
    per_index = tuple(float(x) for x in np.linalg.norm(diff, axis=0))
    return PerturbationReport(mu=mu, per_index_norms=per_index)


def _gram_norm(c: np.ndarray) -> float:
    """Operator norm of a wide matrix, from the eigenvalues of ``c c^T``."""
    return math.sqrt(max(0.0, float(linalg.hermitian_eigenvalues(c @ c.T)[-1])))


def _projector_differences(w: FusionFrame, v: FusionFrame) -> np.ndarray:
    """``C = [w_1 P_1 - v_1 Q_1 ... w_N P_N - v_N Q_N]``, n-by-Nn, filled
    block by block into one buffer."""
    if w.dim != v.dim or w.count != v.count:
        raise DimensionError(
            f"fusion frames have shapes {(w.count, w.dim)} vs {(v.count, v.dim)}"
        )
    n = w.dim
    c = np.empty((n, n * w.count))
    for i, ((s, a), (t, b)) in enumerate(zip(w.members, v.members)):
        block = c[:, i * n : (i + 1) * n]
        np.subtract(a * (s.basis @ s.basis.T), b * (t.basis @ t.basis.T), out=block)
    return c


def _fusion_constant(w: FusionFrame, v: FusionFrame) -> float:
    return _gram_norm(_projector_differences(w, v))


def fusion_perturbation_mu(w: FusionFrame, v: FusionFrame) -> PerturbationReport:
    """Least constant bounding the synthesis-operator difference of two
    fusion frames, taken on the product of ambient-space copies (the
    blockwise weighted-projector difference)."""
    c = _projector_differences(w, v)
    per_index = tuple(linalg.operator_norm(block) for block in np.split(c, w.count, axis=1))
    return PerturbationReport(mu=_gram_norm(c), per_index_norms=per_index)


def _horizontal(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` with its component in the column span of orthonormal ``u``
    removed; the second pass leaves a residual at rounding level."""
    g = g - u @ (u.mT @ g)
    return g - u @ (u.mT @ g)


class _GeodesicPath:
    """Grassmann geodesics ``t -> U V cos(S t) V^T + Q sin(S t) V^T``
    through member bases ``U`` along horizontal tangents ``H = Q S V^T``
    (Edelman, Arias & Smith 1998), one stacked SVD per rank chunk.

    ``path(t)`` lists the moved bases, ``columns(t)`` stacks them n-by-K.
    ``thetas`` holds each member's ``theta = max(S)``: the principal
    angles between ``span U`` and the point at ``t`` are ``t * S`` while
    ``t * theta <= pi/2``, so ``||P - P(t)|| = sin(t * theta)`` there.
    ``g`` (n-by-2K) is the only copy of each member's ``[U V, Q]``;
    ``angles`` and ``owner`` give the ``S`` entry and member of each of
    its columns.  ``Q`` is orthogonal to ``U``, so ``P - P(t)`` is
    ``sin(tS)`` times a reflection on ``[U V, Q]`` and, at every ``t``,
    ``sum_i w_i^2 (P_i - P_i(t))^2 = g diag(w^2 sin^2(t angles)) g^T``.
    """

    def __init__(self, bases, tangents):
        ranks = [b.shape[1] for b in bases]
        n, width = bases[0].shape[0], sum(ranks)
        self.g = np.empty((n, 2 * width))
        self.angles = np.empty(2 * width)
        self.owner = np.empty(2 * width, dtype=int)
        self.thetas = np.empty(len(ranks))
        self._offsets = np.cumsum(ranks)[:-1]
        self._factors = []
        start = 0
        for members, cols, (u, h) in _rank_stacks(
            ranks, np.concatenate(bases, axis=1), np.concatenate(tangents, axis=1)
        ):
            m, _, k = u.shape
            q, s, vt = np.linalg.svd(h, full_matrices=False)
            stop = start + 2 * m * k
            pair = self.g[:, start:stop].reshape(n, m, 2, k).transpose(2, 1, 0, 3)
            np.matmul(u, vt.mT, out=pair[0])
            pair[1] = q
            spectrum = self.angles[start:stop].reshape(m, 2, k)
            spectrum[...] = s[:, None, :]
            self.owner[start:stop] = np.repeat(members, 2 * k)
            self.thetas[members] = s[:, 0]
            self._factors.append((cols, pair[0], pair[1], spectrum[:, :1], vt))
            start = stop

    def columns(self, t: float) -> np.ndarray:
        out = np.empty((self.g.shape[0], len(self.angles) // 2))
        for cols, uv, q, s, vt in self._factors:
            moved = (uv * np.cos(s * t) + q * np.sin(s * t)) @ vt
            out[:, cols] = moved.transpose(1, 0, 2).reshape(len(out), -1)
        return out

    def __call__(self, t: float) -> list[np.ndarray]:
        return np.split(self.columns(t), self._offsets, axis=1)

    def fusion_constant(self, weights):
        """``t ->`` the fusion constant from the start to step ``t`` by the
        closed form, scaling ``g`` into one buffer."""
        column_weights = weights[self.owner]
        scaled = np.empty_like(self.g)

        def constant(t: float) -> float:
            np.multiply(self.g, column_weights * np.sin(t * self.angles), out=scaled)
            return _gram_norm(scaled)

        return constant


def _bisect(measure, ends, target_mu: float) -> tuple[float, float]:
    """Bisect the step ``t`` until the constant ``measure(t)`` lands
    within TARGET_WINDOW of ``target_mu``; returns the step and its
    constant.

    The constant is 0 at ``t = 0``.  The bracket ends at the first of the
    increasing ``ends`` whose constant is not below the window, and starts
    at the end before it (or 0); when every end stays below the window,
    the target is out of reach and GenerationError is raised.  The result
    never exceeds ``(1 + TARGET_WINDOW) * target_mu``.
    """
    lo = 0.0
    for hi in ends:
        mu = measure(hi)
        if mu >= (1.0 - TARGET_WINDOW) * target_mu:
            break
        lo = hi
    else:
        raise GenerationError(
            f"target {target_mu} unreachable: the geodesic bracket reaches {mu:.6g}"
        )
    if mu <= (1.0 + TARGET_WINDOW) * target_mu:
        return hi, mu
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        mu = measure(mid)
        if abs(mu - target_mu) <= TARGET_WINDOW * target_mu:
            return mid, mu
        if mu > target_mu:
            hi = mid
        else:
            lo = mid
    return lo, measure(lo)  # measured below target, therefore within the guarantee


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
    the target lies above what both reach; steps measure raw arrays and
    one Frame is built where the bisection lands.  Each turning
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
    path = _GeodesicPath(units, tangents)
    synthesis = phi.synthesis_columns

    # The same n-by-N difference that frame_perturbation_mu measures.
    def measure(t: float) -> float:
        return linalg.operator_norm(synthesis - path.columns(t) * lengths)

    # At the second end the vector with the largest angle has turned by
    # pi, so its own difference is twice its norm.
    t, mu = _bisect(measure, (1.0, np.pi / angles.max()), target_mu)
    return Frame((path.columns(t) * lengths).T, labels=phi.labels), mu


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
    space and nothing can move.  Steps take the closed form; the landing
    step alone is moved and remeasured as ``fusion_perturbation_mu`` does.
    """
    if not target_mu > 0:
        raise PreconditionError(f"target_mu must be positive, got {target_mu}")
    rng = np.random.default_rng(seed)
    bases = [s.basis for s in w.subspaces]
    weights = w.weights

    def tangent(u):
        g = rng.standard_normal(u.shape)
        # A full-space member has no horizontal direction; a zero tangent
        # keeps it fixed with theta = 0 instead of moving it by rounding.
        return np.zeros_like(g) if u.shape[1] == w.dim else _horizontal(u, g)

    path = _GeodesicPath(bases, [tangent(u) for u in bases])
    thetas = path.thetas
    movable = [i for i, theta in enumerate(thetas) if theta > 0]
    if not movable:
        raise GenerationError("no member can move: every subspace is the whole space")
    top = max(movable, key=lambda i: weights[i])
    t, _ = _bisect(path.fusion_constant(weights), (np.pi / (2.0 * thetas[top]),), target_mu)
    v = FusionFrame(tuple((Subspace(b), wt) for b, wt in zip(path(t), weights)))
    return v, _fusion_constant(w, v)
