"""Property tests: a frame is the fusion frame of its spans, bounds scale
quadratically, redundancy is invariant under scaling and rotation, files
round-trip bit for bit, the frame constant is symmetric, cosine angles
are invariant under rotation, and every registry row gives a verdict on
degenerate inputs.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples.  It still caches the constants it reads from
the sources under ``.hypothesis/``, which git ignores.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    TheoremVerdict,
    cosine_angles,
    frame_perturbation_mu,
    fusion_frame_bounds,
    fusion_redundancy_bounds,
    optimal_frame_bounds,
    redundancy_bounds,
    subspace_from_spanning,
    vector_span,
)
from framekit.fileio import load_structure, write_structure
from framekit.theorems import THEOREMS

settings.register_profile("framekit", derandomize=True, database=None, deadline=None)
settings.load_profile("framekit")

# Agreement demanded between two routes to the same spectral quantity,
# relative to the upper bound of the structure.
REL = 1e-12

entries = st.floats(-10.0, 10.0).map(lambda x: x if abs(x) >= 1e-3 else 0.0)
scales = st.floats(1e-12, 1e12)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def frame_arrays(draw):
    """Frames of 1-5 dimensions with no zero vector."""
    n = draw(st.integers(1, 5))
    v = draw(hnp.arrays(np.float64, (draw(st.integers(n, n + 6)), n), elements=entries))
    norms = np.linalg.norm(v, axis=1)
    assume(np.all(norms > 1e-6 * norms.max()))
    return v


@st.composite
def fusion_frames(draw):
    """Up to six weighted subspaces of R^2..R^5 with random ranks."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(seeds))
    return FusionFrame(
        tuple(
            (subspace_from_spanning(rng.standard_normal((int(rng.integers(1, n + 1)), n))), w)
            for w in weights
        )
    )


def rotation(seed: int, n: int) -> np.ndarray:
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def reweighted(ff: FusionFrame, factor: float) -> FusionFrame:
    return FusionFrame(tuple((s, factor * w) for s, w in ff.members))


def rotated(ff: FusionFrame, q: np.ndarray) -> FusionFrame:
    return FusionFrame(tuple((Subspace(q @ s.basis), w) for s, w in ff.members))


def assert_close(a, b, scale):
    assert abs(a[0] - b[0]) <= REL * scale
    assert abs(a[1] - b[1]) <= REL * scale


def extremes(report):
    return report.lower, report.upper


@given(frame_arrays())
def test_frame_is_the_fusion_frame_of_its_spans(v):
    f = Frame(v)
    spans = FusionFrame(tuple((vector_span(x), float(np.linalg.norm(x))) for x in v))
    bounds = optimal_frame_bounds(f)
    assert_close(extremes(bounds), extremes(fusion_frame_bounds(spans)), bounds.upper)
    profile = redundancy_bounds(f)
    unit = fusion_redundancy_bounds(spans.with_unit_weights())
    assert_close(extremes(profile), extremes(unit), profile.upper)
    assert profile.mean == unit.mean


@given(frame_arrays(), scales)
def test_frame_bounds_scale_as_square(v, c):
    a = optimal_frame_bounds(Frame(v))
    b = optimal_frame_bounds(Frame(c * v))
    assert_close(extremes(b), (c * c * a.lower, c * c * a.upper), c * c * a.upper)
    assert b.is_frame == a.is_frame
    assert b.is_tight == a.is_tight


@given(fusion_frames(), st.floats(1e-6, 1e6))
def test_fusion_bounds_scale_as_square(ff, c):
    a = fusion_frame_bounds(ff)
    b = fusion_frame_bounds(reweighted(ff, c))
    assert_close(extremes(b), (c * c * a.lower, c * c * a.upper), c * c * a.upper)


@given(frame_arrays(), scales, seeds)
def test_frame_redundancy_invariant_under_scaling_and_rotation(v, c, seed):
    base = redundancy_bounds(Frame(v))
    for moved in (c * v, v @ rotation(seed, v.shape[1]).T):
        other = redundancy_bounds(Frame(moved))
        assert_close(extremes(other), extremes(base), base.upper)
        assert other.mean == base.mean


@given(fusion_frames(), scales, seeds)
def test_fusion_redundancy_invariant_under_scaling_and_rotation(ff, c, seed):
    base = fusion_redundancy_bounds(ff)
    for moved in (reweighted(ff, c), rotated(ff, rotation(seed, ff.dim))):
        assert_close(extremes(fusion_redundancy_bounds(moved)), extremes(base), base.upper)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_frame_file_round_trips_bit_for_bit(tmp_path_factory, v):
    path = tmp_path_factory.getbasetemp() / "frame.json"
    write_structure(path, Frame(v))
    assert load_structure(path).vectors.tobytes() == v.tobytes()


@given(fusion_frames())
def test_fusion_file_round_trips_bit_for_bit(tmp_path_factory, ff):
    path = tmp_path_factory.getbasetemp() / "fusion.json"
    write_structure(path, ff)
    loaded = load_structure(path)
    assert loaded.weights.tobytes() == ff.weights.tobytes()
    assert [s.basis.tobytes() for s in loaded.subspaces] == [s.basis.tobytes() for s in ff.subspaces]


@given(frame_arrays(), seeds)
def test_frame_perturbation_mu_is_symmetric(v, seed):
    psi = Frame(v + np.random.default_rng(seed).standard_normal(v.shape))
    a = frame_perturbation_mu(Frame(v), psi)
    b = frame_perturbation_mu(psi, Frame(v))
    assert abs(a.mu - b.mu) <= REL * max(a.mu, b.mu)
    assert np.array(a.per_index_norms).tobytes() == np.array(b.per_index_norms).tobytes()


@st.composite
def subspace_pairs(draw):
    """Two random subspaces of R^2..R^6 with independent ranks."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(seeds))
    return tuple(
        subspace_from_spanning(rng.standard_normal((draw(st.integers(1, n)), n))) for _ in range(2)
    )


@given(subspace_pairs(), seeds)
def test_cosine_angles_invariant_under_rotation(pair, seed):
    v, w = pair
    q = rotation(seed, v.ambient_dim)
    base = cosine_angles(v, w)
    moved = cosine_angles(Subspace(q @ v.basis), Subspace(q @ w.basis))
    assert abs(moved.r - base.r) <= REL
    assert abs(moved.s - base.s) <= REL


@st.composite
def degenerate_frames(draw):
    """Repeated, rank-deficient (nonzero vectors in a proper subspace)
    and dimension-1 frames."""
    rng = np.random.default_rng(draw(seeds))
    case = draw(st.sampled_from(("repeated", "rank_deficient", "dim1")))
    if case == "dim1":
        m = draw(st.integers(1, 4))
        return Frame(rng.choice([-1.0, 1.0], (m, 1)) * rng.uniform(0.5, 2.0, (m, 1)))
    n = draw(st.integers(2, 5))
    if case == "repeated":
        v = rng.standard_normal((draw(st.integers(1, n)), n))
        return Frame(np.repeat(v, draw(st.integers(2, 3)), axis=0))
    k = draw(st.integers(1, n - 1))
    return Frame(rng.standard_normal((draw(st.integers(n, n + 3)), k)) @ rng.standard_normal((k, n)))


@st.composite
def degenerate_fusion_frames(draw):
    """Repeated and non-spanning fusion frames."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        sub = subspace_from_spanning(rng.standard_normal((draw(st.integers(1, n)), n)))
        return FusionFrame(tuple((sub, float(w)) for w in rng.uniform(0.5, 2.0, draw(st.integers(2, 4)))))
    inside = rng.standard_normal((n - 1, n))
    return FusionFrame(
        tuple(
            (subspace_from_spanning(rng.standard_normal((int(rng.integers(1, n)), n - 1)) @ inside), 1.0)
            for _ in range(draw(st.integers(1, 4)))
        )
    )


def assert_every_row_gives_a_verdict(a):
    rows = [t for t in THEOREMS if isinstance(a, t.kind)]
    assert rows
    for b in (a, reweighted(a, 1.5) if isinstance(a, FusionFrame) else Frame(1.5 * a.vectors)):
        for t in rows:
            assert isinstance(t.run(a, b), TheoremVerdict)


@given(degenerate_frames())
def test_registry_gives_verdicts_on_degenerate_frames(f):
    assert_every_row_gives_a_verdict(f)


@given(degenerate_fusion_frames())
def test_registry_gives_verdicts_on_degenerate_fusion_frames(ff):
    assert_every_row_gives_a_verdict(ff)
