"""Property tests: a frame is the fusion frame of its spans, bounds scale
quadratically, redundancy is invariant under scaling and rotation, files
round-trip bit for bit, the frame constant is symmetric, every Gram
product is exactly symmetric, the bases that skip the Gram check would
pass it, the equal-norms gate is invariant under
scaling, cosine angles are invariant under rotation, every registry row
gives a verdict on degenerate inputs, and the file loader raises only
its own errors.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples.  It still caches the constants it reads from
the sources under ``.hypothesis/``, which git ignores.
"""

from contextlib import suppress
from unittest import mock

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
    fusion_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    optimal_frame_bounds,
    redundancy_bounds,
    subspace_from_spanning,
    vector_span,
)
from framekit import linalg
from framekit.errors import FramekitError, GenerationError
from framekit.fileio import FrameFileError, load_structure, structure_from_dict, write_structure
from framekit.theorems import (
    THEOREMS,
    random_fusion_frame,
    verify_normalized_perturbation,
    verify_redundancy_perturbation,
)

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
    assert_close(extremes(bounds), extremes(optimal_frame_bounds(spans)), bounds.upper)
    profile = redundancy_bounds(f)
    unit = redundancy_bounds(spans.with_unit_weights())
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
    a = optimal_frame_bounds(ff)
    b = optimal_frame_bounds(reweighted(ff, c))
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
    base = redundancy_bounds(ff)
    for moved in (reweighted(ff, c), rotated(ff, rotation(seed, ff.dim))):
        assert_close(extremes(redundancy_bounds(moved)), extremes(base), base.upper)


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
    assert abs(a - b) <= REL * max(a, b)
    # The per-index norms framekit perturb prints, of C-ordered differences.
    ab = np.subtract(Frame(v).synthesis_columns, psi.synthesis_columns, order="C")
    ba = np.subtract(psi.synthesis_columns, Frame(v).synthesis_columns, order="C")
    assert np.linalg.norm(ab, axis=0).tobytes() == np.linalg.norm(ba, axis=0).tobytes()


@given(frame_arrays(), fusion_frames(), seeds)
def test_gram_products_are_exactly_symmetric(v, ff, seed):
    # The eigenvalue kernel takes eigvalsh of c c^T without symmetrizing
    # it: the frame and fusion synthesis and unit stacks, the projector
    # differences and the geodesic generator's scaled buffers.
    products = []
    eigvalsh = linalg._eigvalsh

    def record(g):
        products.append(g)
        return eigvalsh(g)

    f = Frame(v)
    with mock.patch.object(linalg, "_eigvalsh", record):
        for structure in (f, ff):
            optimal_frame_bounds(structure)
            redundancy_bounds(structure)
        fusion_perturbation_mu(ff, rotated(ff, rotation(seed, ff.dim)))
        with suppress(GenerationError):  # every member may be the whole space
            generate_perturbed_fusion(ff, 0.1 * ff.weights.min(), seed)
    assert len(products) >= 5
    assert all(np.array_equal(g, g.T) for g in products)


@st.composite
def spanning_sets(draw):
    """Random, dependent, 1e-11-scaled and 1e11-scaled spanning sets."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    m = draw(st.integers(1, n + 3))
    case = draw(st.sampled_from(("random", "dependent", "small", "large")))
    if case == "dependent":
        k = draw(st.integers(1, n))
        return rng.standard_normal((m + k, k)) @ rng.standard_normal((k, n))
    return {"random": 1.0, "small": 1e-11, "large": 1e11}[case] * rng.standard_normal((m, n))


@given(spanning_sets(), fusion_frames(), seeds)
def test_unchecked_bases_pass_the_gram_check(v, ff, seed):
    # Every basis that skips the constructor's checks: the QR factor of a
    # spanning set, each block of the unit stacks of a random fusion frame
    # and of a generation (both built by ``fusion._stacked``), and each
    # member basis copied out of those stacks when read.
    made = [random_fusion_frame(np.random.default_rng(seed), ff.dim, ff.count + ff.dim)]
    with suppress(GenerationError):  # every member may be the whole space
        made.append(generate_perturbed_fusion(ff, 0.1 * ff.weights.min(), seed)[0])
    bases = [subspace_from_spanning(v).basis]
    for f in made:
        assert "members" not in vars(f)
        bases += np.split(f.unit_columns, np.cumsum(f.ranks)[:-1], axis=1)
        bases += [s.basis for s in f.subspaces]
    for b in bases:
        assert np.array_equal(Subspace(b).basis, b)
        assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) <= 1e-12


@settings(max_examples=50)
@given(frame_arrays(), seeds, st.booleans())
def test_equal_norms_gate_is_invariant_under_scaling(v, seed, unequal):
    # One pair whose norms agree up to rounding, or one whose first
    # vector is 5% longer; scaling both frames by 10^k keeps the decision.
    assume(v.shape[1] >= 2)
    phi = Frame(v)
    if unequal:
        psi = Frame(v * np.r_[1.05, np.ones(len(v) - 1)][:, None])
    else:
        psi, _ = generate_perturbed_frame(phi, 0.1 * phi.norms().min(), seed, norm_preserving=True)
    for k in range(-8, 9):
        a, b = Frame(10.0**k * phi.vectors), Frame(10.0**k * psi.vectors)
        assert verify_normalized_perturbation(a, b).hypotheses_met is not unequal
        notes = verify_redundancy_perturbation(a, b).notes
        assert notes.startswith("gate failed: norms differ") is unequal


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
    """Repeated, rank-deficient (nonzero vectors in a proper subspace),
    dimension-1 and zero-vector frames."""
    rng = np.random.default_rng(draw(seeds))
    case = draw(st.sampled_from(("repeated", "rank_deficient", "dim1", "zero_vector")))
    if case == "dim1":
        m = draw(st.integers(1, 4))
        return Frame(rng.choice([-1.0, 1.0], (m, 1)) * rng.uniform(0.5, 2.0, (m, 1)))
    n = draw(st.integers(2, 5))
    if case == "zero_vector":
        v = rng.standard_normal((draw(st.integers(n, n + 3)), n))
        v[draw(st.integers(0, v.shape[0] - 1))] = 0.0
        return Frame(v)
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


# What json.loads can produce, integers beyond the float range included.
huge_ints = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 3) | huge_ints
    | st.floats(-10.0, 10.0) | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
odd_numbers = huge_ints | st.sampled_from([float("nan"), float("inf")]) | json_values


def mostly(strategy, other=json_values):
    """``strategy``, with about one draw in sixteen taken from ``other`` instead.

    The switch sits on a middle value, since Hypothesis favours the ends
    of a range."""
    return st.integers(0, 15).flatmap(lambda k: other if k == 7 else strategy)


@st.composite
def frame_file_documents(draw):
    """Documents near the frame-file schema, any part of which may be
    replaced by other JSON."""
    dim = draw(mostly(st.integers(1, 3)))
    width = dim if type(dim) is int and 1 <= dim <= 3 else 2
    entries = mostly(st.integers(-3, 3) | st.floats(-10.0, 10.0), odd_numbers)
    grid = mostly(st.lists(mostly(st.lists(entries, min_size=width, max_size=width)),
                           min_size=1, max_size=3))
    member = mostly(st.fixed_dictionaries({"weight": entries, "basis": grid}))
    kind = draw(mostly(st.sampled_from(["frame", "fusion"])))
    doc = {"dim": dim, "kind": kind}
    # Each kind mostly comes with its own payload.
    if (kind == "frame") != draw(mostly(st.just(False), st.just(True))):
        doc["vectors"] = draw(grid)
    if (kind == "fusion") != draw(mostly(st.just(False), st.just(True))):
        doc["subspaces"] = draw(mostly(st.lists(member, min_size=1, max_size=3)))
    if draw(st.booleans()):
        doc["labels"] = draw(mostly(st.lists(st.text(max_size=2), min_size=1, max_size=3)))
    return doc


@given(frame_file_documents())
def test_loader_raises_only_its_own_errors(doc):
    try:
        structure_from_dict(doc)
    except (FrameFileError, FramekitError):
        pass
