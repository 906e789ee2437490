"""Property tests: a frame is the fusion frame of its spans, bounds scale
quadratically, redundancy is invariant under scaling and rotation, and
files round-trip bit for bit.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and writes nothing to disk.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    fusion_frame_bounds,
    fusion_redundancy_bounds,
    optimal_frame_bounds,
    redundancy_bounds,
    subspace_from_spanning,
    vector_span,
)
from framekit.fileio import load_structure, write_structure

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
