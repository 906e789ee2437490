"""Tests for frame operators, bounds, and redundancy."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import framekit
from framekit import (
    BoundsReport,
    Frame,
    FusionFrame,
    RedundancyProfile,
    frame_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
    is_riesz_basis,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_bounds,
    subspace_from_spanning,
)
from framekit import fusion, linalg
from framekit.errors import DegenerateInputError, DimensionError, NumericError, PreconditionError
from framekit.fileio import load_structure, write_structure
from framekit.frames import _frame, bounds_from_extremes
from framekit.theorems import random_frame, random_fusion_frame
from references import redundancy_oracle


def mercedes_frame():
    """Three unit vectors in the plane at mutual angle 120 degrees."""
    root3 = math.sqrt(3.0)
    return Frame([[0.0, 1.0], [-root3 / 2, -0.5], [root3 / 2, -0.5]])


ONB2 = Frame([[1.0, 0.0], [0.0, 1.0]])
REPEATED = Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestFrameType:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Frame(np.zeros((0, 2)))

    def test_label_count_must_match(self):
        with pytest.raises(DimensionError):
            Frame([[1.0, 0.0]], labels=("a", "b"))

    def test_vectors_are_frozen(self):
        f = Frame([[1.0, 0.0]])
        with pytest.raises(ValueError):
            f.vectors[0, 0] = 2.0

    def test_read_only_flag_cannot_be_set_back(self):
        # A writeable alias would let stale cached spectra follow an edit.
        f = Frame([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            f.vectors.flags.writeable = True
        assert not f.vectors.flags.writeable


class TestUncheckedFrame:
    """``frames._frame`` builds a frame from an array framekit made itself:
    the same frame as the public constructor's, bit for bit, stored in C
    order and read-only."""

    def inputs(self):
        rng = np.random.default_rng(41)
        for dim in range(1, 7):
            count = int(rng.integers(dim, 13))
            q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            columns = rng.standard_normal((dim, count))
            yield rng.standard_normal((count, dim))
            yield q.T * rng.uniform(0.5, 2.0, size=dim)[:, None]
            yield (columns * rng.uniform(0.5, 2.0, size=count)).T

    def test_equals_the_public_constructor(self):
        layouts = set()
        for x in self.inputs():
            layouts.add(x.flags.c_contiguous)
            labels = tuple(f"v{i}" for i in range(len(x)))
            public = Frame(x, labels=labels)
            other = Frame(x + 0.25)
            unchecked = _frame(x, labels=labels)
            v = unchecked.vectors
            assert v.flags.c_contiguous and not v.flags.writeable
            assert v.tobytes() == public.vectors.tobytes()
            assert unchecked.labels is labels
            assert unchecked.norms().tobytes() == public.norms().tobytes()
            for name in ("synthesis_columns", "unit_columns"):
                spectra = [linalg._gram_eigenvalues(getattr(f, name)).tobytes() for f in (unchecked, public)]
                assert spectra[0] == spectra[1], name
            assert frame_perturbation_mu(unchecked, other) == frame_perturbation_mu(public, other)
            assert frame_perturbation_mu(other, unchecked) == frame_perturbation_mu(other, public)
        assert layouts == {True, False}

    def test_copies_only_an_input_not_in_c_order(self):
        for x in self.inputs():
            held = x.flags.c_contiguous
            v = _frame(x).vectors
            assert np.shares_memory(v, x) == held
            assert x.flags.writeable != held
        assert _frame(np.eye(2)).labels is None


def fresh_frame_values(f):
    """The cached stacks of ``f``, each with its Gram spectrum, recomputed
    from a writeable copy of its vectors by the same operations."""
    v = np.array(f.vectors)
    unit = (v / np.linalg.norm(v, axis=1)[:, None]).T
    return {
        "synthesis_columns": (v.T, np.linalg.eigvalsh(v.T @ v)),
        "unit_columns": (unit, np.linalg.eigvalsh(unit @ unit.T)),
    }


class TestCachedValues:
    def test_cached_arrays_are_read_only_and_bit_equal_to_fresh(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            f = Frame(rng.standard_normal((int(rng.integers(dim, 13)), dim)))
            optimal_frame_bounds(f)
            redundancy_bounds(f)
            assert f.unit_columns is f.unit_columns
            for name, (expected, spectrum) in fresh_frame_values(f).items():
                cached = getattr(f, name)
                assert cached.tobytes() == expected.tobytes(), name
                assert linalg._gram_eigenvalues(cached).tobytes() == spectrum.tobytes(), name
                with pytest.raises(ValueError):
                    cached.flags.writeable = True

    def test_norms_are_measured_once_and_read_only(self):
        f = Frame(np.random.default_rng(33).standard_normal((5, 3)))
        norms = f.norms()
        assert f.norms() is norms
        assert norms.tobytes() == np.linalg.norm(f.vectors, axis=1).tobytes()
        with pytest.raises(ValueError):
            norms[0] = 0.0

    def test_zero_vector_raises_on_every_access(self):
        f = Frame([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(2):
            with pytest.raises(DegenerateInputError, match="vector 1"):
                f.unit_columns
            with pytest.raises(DegenerateInputError, match="vector 1"):
                redundancy_bounds(f)
        assert optimal_frame_bounds(f).upper == 1.0

    def test_caches_add_no_field(self):
        f = Frame([[1.0, 0.0], [0.0, 2.0]], labels=("a", "b"))
        g = Frame([[1.0, 0.0], [0.0, 2.0]], labels=("a", "b"))
        redundancy_bounds(f)
        assert "_redundancy" in vars(f) and "_redundancy" not in vars(g)
        assert [fl.name for fl in dataclasses.fields(f)] == ["vectors", "labels"]
        assert repr(f) == repr(g)


class TestReportMemo:
    """Each structure builds one bounds report and one redundancy profile,
    from its spectra, and keeps them only once measured."""

    @staticmethod
    def structures():
        rng = np.random.default_rng(34)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            yield Frame(rng.standard_normal((int(rng.integers(dim, 13)), dim)))
            yield random_fusion_frame(rng, dim, int(rng.integers(2, 9)))

    def test_repeated_calls_return_the_same_report(self):
        for f in self.structures():
            assert optimal_frame_bounds(f) is optimal_frame_bounds(f)
            assert redundancy_bounds(f) is redundancy_bounds(f)

    def test_fields_equal_fresh_reports(self):
        for f in self.structures():
            c, u = np.array(f.synthesis_columns), np.array(f.unit_columns)
            ops, units = np.linalg.eigvalsh(c @ c.T), np.linalg.eigvalsh(u @ u.T)
            bounds = optimal_frame_bounds(f)
            assert type(bounds) is BoundsReport
            assert bounds == bounds_from_extremes(ops[0], ops[-1])
            b = bounds_from_extremes(units[0], units[-1])
            fresh = RedundancyProfile(b.lower, b.upper, b.is_tight, u.shape[1] / u.shape[0])
            assert redundancy_bounds(f) == fresh

    def test_failed_measurement_caches_nothing(self):
        overflowed = Frame([[1e200, 1e200, 1.0], [1e200, -1e200, 2.0], [1.0, 1e200, 1e200]])
        zero = Frame([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(NumericError):
                    optimal_frame_bounds(overflowed)
            with pytest.raises(DegenerateInputError):
                redundancy_bounds(zero)
        assert not {"_bounds", "_operator_eigenvalues"} & set(vars(overflowed))
        assert not {"_redundancy", "_unit_eigenvalues"} & set(vars(zero))


class TestEachValueHeldOnce:
    """A structure keeps its two reports, not the spectra they are read
    from, and a fusion frame holds only its stack, ranks and weights
    until its members are read, however either was built."""

    @staticmethod
    def structures(tmp_path):
        rng = np.random.default_rng(38)
        for dim in range(2, 7):
            count = int(rng.integers(dim, 10))
            phi = random_frame(rng, dim, count)
            w = random_fusion_frame(rng, dim, count)
            public = FusionFrame([(subspace_from_spanning(rng.standard_normal((int(rng.integers(1, dim)), dim))),
                                   float(rng.uniform(0.5, 2.0))) for _ in range(count)])
            built = {
                "drawn frame": phi,
                "generated frame": generate_perturbed_frame(phi, 0.1, seed=dim)[0],
                "public frame": Frame(rng.standard_normal((count, dim))),
                "drawn fusion": w,
                "generated fusion": generate_perturbed_fusion(w, 0.1, seed=dim)[0],
                "unit-weight fusion": public.with_unit_weights(),
                "public fusion": public,
            }
            for name in ("drawn frame", "public fusion"):
                path = tmp_path / f"{name.replace(' ', '-')}-{dim}.json"
                write_structure(path, built[name])
                built[f"loaded {name}"] = load_structure(path)
            for name, f in built.items():
                yield f"{name} in R^{dim}", f

    def test_no_spectrum_is_kept(self, tmp_path):
        for label, f in self.structures(tmp_path):
            optimal_frame_bounds(f)
            redundancy_bounds(f)
            spectra = {linalg._gram_eigenvalues(c).tobytes() for c in (f.synthesis_columns, f.unit_columns)}
            held = [k for k, v in vars(f).items() if isinstance(v, np.ndarray) and v.tobytes() in spectra]
            assert not held, label
            assert not {"_operator_eigenvalues", "_unit_eigenvalues"} & set(vars(f)), label

    def test_fusion_state_is_the_stack_until_members_are_read(self, tmp_path):
        def state(ff):
            return {k for k in vars(ff) if not k.startswith("_")} - {"synthesis_columns"}

        given = [(subspace_from_spanning(np.eye(4)[:k]), 1.5) for k in range(1, 5)]
        assert set(vars(FusionFrame(given))) == {"unit_columns", "ranks", "weights"}
        for label, ff in self.structures(tmp_path):
            if isinstance(ff, Frame):
                continue
            optimal_frame_bounds(ff)
            redundancy_bounds(ff)
            assert state(ff) == set(vars(fusion._stacked(ff.unit_columns, ff.ranks, ff.weights))), label
            ff.subspaces
            assert state(ff) == {"unit_columns", "ranks", "weights", "members"}, label


class TestSynthesisAnalysis:
    def test_onb_synthesis_is_identity(self):
        assert np.array_equal(ONB2.synthesis_columns, np.eye(2))

    def test_columns_stack_in_order(self):
        assert np.array_equal(REPEATED.synthesis_columns, [[1, 1, 0], [0, 0, 1]])

    def test_synthesis_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        f = Frame(rng.standard_normal((7, 4)))
        c = rng.standard_normal(7)
        direct = sum(ci * vi for ci, vi in zip(c, f.vectors))
        assert np.allclose(f.synthesis_columns @ c, direct, atol=1e-12)


class TestFrameOperator:
    def test_onb_gives_identity(self):
        t = Frame(np.eye(4)).synthesis_columns
        assert np.allclose(t @ t.T, np.eye(4))

    def test_repeated_vector_sums_projections(self):
        t = REPEATED.synthesis_columns
        assert np.allclose(t @ t.T, np.diag([2.0, 1.0]))

    def test_mercedes_is_tight(self):
        rep = optimal_frame_bounds(mercedes_frame())
        assert (rep.lower, rep.upper) == pytest.approx((1.5, 1.5), abs=1e-12)
        assert rep.is_tight

    def test_is_the_synthesis_columns_times_their_transpose(self):
        rng = np.random.default_rng(13)
        f = Frame(rng.standard_normal((7, 4)))
        assert np.shares_memory(f.synthesis_columns, f.vectors)
        assert np.array_equal(f.synthesis_columns @ f.synthesis_columns.T, f.vectors.T @ f.vectors)
        assert f.ranks == (1,) * 7

    def test_symmetric_psd_on_random_frames(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = Frame(rng.standard_normal((rng.integers(1, 9), 4)))
            op = f.synthesis_columns @ f.synthesis_columns.T
            assert np.allclose(op, op.T, atol=1e-12)
            assert np.linalg.eigvalsh(op).min() >= -1e-10
            spectrum = linalg._gram_eigenvalues(f.synthesis_columns)
            assert np.allclose(spectrum, np.linalg.eigvalsh(op), rtol=0, atol=1e-12)


class TestOptimalBounds:
    def test_onb_r5_is_parseval(self):
        rep = optimal_frame_bounds(Frame(np.eye(5)))
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.is_frame and rep.is_tight and rep.is_parseval

    def test_repeated_vector_bounds(self):
        rep = optimal_frame_bounds(REPEATED)
        assert (rep.lower, rep.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert not rep.is_tight

    def test_rank_deficient_is_not_a_frame(self):
        rep = optimal_frame_bounds(Frame([[1.0, 0.0]]))
        assert rep.lower == 0.0
        assert not rep.is_frame


class TestRieszDetection:
    def test_onb(self):
        assert is_riesz_basis(Frame(np.eye(3)))

    def test_count_mismatch(self):
        assert not is_riesz_basis(REPEATED)

    def test_below_tolerance(self):
        f = Frame([[1.0, 0.0], [0.0, 1e-14]])
        assert not is_riesz_basis(f)

    def test_decision_is_scale_invariant(self):
        f = Frame(1e-6 * np.eye(3))
        assert optimal_frame_bounds(f).is_frame
        assert is_riesz_basis(f)


class TestNormalize:
    def test_scales_away(self):
        assert np.allclose(Frame([[2.0, 0.0], [0.0, 3.0]]).unit_columns, np.eye(2))

    def test_idempotent_on_unit_frame(self):
        m = mercedes_frame()
        assert np.allclose(m.unit_columns, m.synthesis_columns, atol=1e-15)

    def test_random_output_norms(self):
        rng = np.random.default_rng(9)
        f = Frame(rng.standard_normal((10, 5)))
        assert np.allclose(Frame(f.unit_columns.T).norms(), 1.0, atol=1e-12)

    def test_zero_vector_error_names_index(self):
        with pytest.raises(DegenerateInputError, match="vector 1"):
            Frame([[1.0, 0.0], [0.0, 0.0]]).unit_columns

    def test_zero_vector_rule_is_relative_to_largest_norm(self):
        with pytest.raises(DegenerateInputError, match="vector 1"):
            Frame([[1e3, 0.0], [0.0, 1e-10]]).unit_columns
        tiny = Frame([[1e-20, 0.0], [0.0, 1e-20]]).unit_columns
        assert np.array_equal(tiny, np.eye(2))

    def test_unit_columns(self):
        assert np.array_equal(Frame([[3.0, 4.0], [0.0, -2.0]]).unit_columns, [[0.6, 0.0], [0.8, -1.0]])


class TestRedundancyFunction:
    def test_onb_value(self):
        assert redundancy_at(ONB2, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_vector_counts_twice(self):
        assert redundancy_at(REPEATED, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_mercedes_is_constant(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            assert redundancy_at(mercedes_frame(), x) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_non_unit_point(self):
        with pytest.raises(PreconditionError):
            redundancy_at(ONB2, [2.0, 0.0])


class TestRedundancyBounds:
    def test_onb(self):
        prof = redundancy_bounds(ONB2)
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert prof.uniform

    def test_orthogonal_non_unit_basis(self):
        prof = redundancy_bounds(Frame([[2.0, 0.0], [0.0, 5.0]]))
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_repeated_vector_profile(self):
        prof = redundancy_bounds(REPEATED)
        assert (prof.lower, prof.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert prof.mean == pytest.approx(1.5)
        assert not prof.uniform

    def test_mercedes_uniform(self):
        prof = redundancy_bounds(mercedes_frame())
        assert (prof.lower, prof.upper) == pytest.approx((1.5, 1.5), abs=1e-12)
        assert prof.uniform

    def test_invariant_under_tiny_scale(self):
        rng = np.random.default_rng(14)
        f = Frame(rng.standard_normal((6, 3)))
        a, b = redundancy_bounds(f), redundancy_bounds(Frame(1e-13 * f.vectors))
        assert (b.lower, b.upper) == pytest.approx((a.lower, a.upper), rel=1e-12)
        assert b.mean == a.mean

    def test_normalized_trace_equals_count(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            f = Frame(rng.standard_normal((rng.integers(1, 12), 4)))
            trace = np.trace(f.unit_columns @ f.unit_columns.T)
            assert trace == pytest.approx(f.count, abs=1e-9)
            prof = redundancy_bounds(f)
            assert prof.lower - 1e-12 <= prof.mean <= prof.upper + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        f = Frame(rng.standard_normal((8, 3)))
        scales = rng.uniform(0.1, 10.0, size=8)
        g = Frame(f.vectors * scales[:, None])
        a, b = redundancy_bounds(f), redundancy_bounds(g)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_function_values_stay_inside_bounds(self):
        rng = np.random.default_rng(14)
        f = Frame(rng.standard_normal((9, 3)))
        prof = redundancy_bounds(f)
        x = rng.standard_normal((1000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        vals = np.array([redundancy_at(f, xi) for xi in x])
        assert np.all(vals >= prof.lower - 1e-9)
        assert np.all(vals <= prof.upper + 1e-9)


class TestRedundancyOracle:
    def test_onb_is_constant_one(self):
        lo, hi = redundancy_oracle(ONB2, 500, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_repeated_vector_extremes(self):
        lo, hi = redundancy_oracle(REPEATED, 100_000, seed=2)
        assert abs(lo - 1.0) <= 5e-3
        assert abs(hi - 2.0) <= 5e-3

    def test_mercedes_constant(self):
        lo, hi = redundancy_oracle(mercedes_frame(), 1000, seed=3)
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_agrees_with_spectral_bounds_in_low_dimension(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            dim = 2 + trial % 2
            f = Frame(rng.standard_normal((rng.integers(dim, 9), dim)))
            prof = redundancy_bounds(f)
            lo, hi = redundancy_oracle(f, 100_000, seed=trial)
            assert abs(lo - prof.lower) <= 5e-3
            assert abs(hi - prof.upper) <= 5e-3


def test_no_operation_has_a_second_name():
    """Within the package namespace and within each of its modules, no two
    public names bind the same function."""
    modules = [
        importlib.import_module(f"framekit.{info.name}")
        for info in pkgutil.iter_modules(framekit.__path__)
    ]
    for namespace in [framekit, *modules]:
        names = {}
        for name, value in vars(namespace).items():
            if not name.startswith("_") and inspect.isfunction(value):
                names.setdefault(id(value), []).append(name)
        doubles = [sorted(group) for group in names.values() if len(group) > 1]
        assert not doubles, f"{namespace.__name__} binds one function under {doubles}"


def test_test_references_are_not_in_the_library():
    """Tests write these references themselves: ``src/`` defines none and
    ``framekit`` exports none."""
    source = "".join(p.read_text() for p in Path(framekit.__file__).parent.glob("*.py"))
    for name in ("frame_operator", "normalize_frame", "redundancy_oracle",
                 "projection_matrix", "redundancy_angle_sums"):
        with pytest.raises(ImportError):
            exec(f"from framekit import {name}", {})
        assert f"def {name}(" not in source
