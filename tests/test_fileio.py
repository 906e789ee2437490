"""Tests for frame-file serialization."""

import json
import random
import sys

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    Subspace,
    fileio,
    generate_perturbed_fusion,
    subspace_from_spanning,
)
from framekit.errors import NumericError
from framekit.fileio import (
    FrameFileError,
    load_structure,
    structure_from_dict,
    structure_to_dict,
    write_structure,
)
from framekit.theorems import random_fusion_frame


def random_frame(rng):
    count, dim = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    labels = None
    if rng.random() < 0.3:
        labels = tuple(f"v{i}" for i in range(count))
    return Frame(rng.standard_normal((count, dim)), labels=labels)


def random_fusion(rng):
    dim = int(rng.integers(2, 6))
    members = []
    for _ in range(int(rng.integers(1, 5))):
        rank = int(rng.integers(1, dim + 1))
        sub = subspace_from_spanning(rng.standard_normal((rank, dim)))
        members.append((sub, float(rng.uniform(0.1, 3.0))))
    return FusionFrame(tuple(members))


class TestRoundTrip:
    def test_frame_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        for i in range(20):
            f = random_frame(rng)
            path = tmp_path / f"frame{i}.json"
            write_structure(path, f)
            back = load_structure(path)
            assert isinstance(back, Frame)
            assert np.array_equal(back.vectors, f.vectors)
            assert back.labels == f.labels

    def test_fusion_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(71)
        for i in range(20):
            ff = random_fusion(rng)
            path = tmp_path / f"fusion{i}.json"
            write_structure(path, ff)
            back = load_structure(path)
            assert isinstance(back, FusionFrame)
            assert np.array_equal(back.weights, ff.weights)
            for a, b in zip(back.subspaces, ff.subspaces):
                assert np.array_equal(a.basis, b.basis)

    def test_writing_a_drawn_fusion_frame_builds_no_member(self, tmp_path):
        # The writer reads the stack and the weights, so a drawn or
        # generated frame (``fusion._stacked``) is written without members,
        # in the bytes its members would give, and loads back bit for bit.
        rng = np.random.default_rng(72)
        for i in range(10):
            w = random_fusion_frame(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
            v, _ = generate_perturbed_fusion(w, 0.05, seed=i)
            for ff in (w, v, w.with_unit_weights()):
                doc = structure_to_dict(ff)
                write_structure(tmp_path / "ff.json", ff)
                assert "members" not in vars(ff)
                assert doc["subspaces"] == [
                    {"weight": wt, "basis": s.basis.T.tolist()} for s, wt in ff.members
                ]
                back = load_structure(tmp_path / "ff.json")
                assert back.unit_columns.tobytes() == ff.unit_columns.tobytes()
                assert back.weights.tobytes() == ff.weights.tobytes()

    def test_spanning_sets_are_orthonormalized_on_load(self):
        doc = {
            "dim": 3,
            "kind": "fusion",
            "subspaces": [{"weight": 1.0, "basis": [[2.0, 0.0, 0.0], [3.0, 1.0, 0.0]]}],
        }
        ff = structure_from_dict(doc)
        assert ff.subspaces[0].dim == 2


class TestSchemaErrors:
    def test_top_level_must_be_object(self):
        with pytest.raises(FrameFileError, match=r"\$"):
            structure_from_dict([1, 2, 3])

    def test_bad_dim(self):
        with pytest.raises(FrameFileError, match=r"\$\.dim"):
            structure_from_dict({"dim": 0, "kind": "frame", "vectors": [[1.0]]})

    def test_bad_kind(self):
        with pytest.raises(FrameFileError, match=r"\$\.kind"):
            structure_from_dict({"dim": 1, "kind": "banana", "vectors": [[1.0]]})

    def test_ragged_vectors_name_the_row(self):
        doc = {"dim": 2, "kind": "frame", "vectors": [[1.0, 0.0], [1.0]]}
        with pytest.raises(FrameFileError, match=r"\$\.vectors\[1\]"):
            structure_from_dict(doc)

    def test_non_numeric_entry_names_the_cell(self):
        doc = {"dim": 2, "kind": "frame", "vectors": [[1.0, "x"]]}
        with pytest.raises(FrameFileError, match=r"\$\.vectors\[0\]\[1\]"):
            structure_from_dict(doc)

    def test_kind_and_payload_must_agree(self):
        with pytest.raises(FrameFileError):
            structure_from_dict({"dim": 2, "kind": "frame", "subspaces": []})
        with pytest.raises(FrameFileError):
            structure_from_dict({"dim": 2, "kind": "fusion", "vectors": [[1.0, 0.0]]})

    def test_label_length_checked(self):
        doc = {"dim": 1, "kind": "frame", "vectors": [[1.0]], "labels": ["a", "b"]}
        with pytest.raises(FrameFileError, match=r"\$\.labels"):
            structure_from_dict(doc)

    def test_bad_weight(self):
        doc = {"dim": 1, "kind": "fusion", "subspaces": [{"weight": "w", "basis": [[1.0]]}]}
        with pytest.raises(FrameFileError, match=r"weight"):
            structure_from_dict(doc)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,,}')
        with pytest.raises(FrameFileError, match="line 1"):
            load_structure(path)


class TestDocumentShape:
    def test_frame_document_fields(self):
        doc = structure_to_dict(Frame([[1.0, 0.5]], labels=("a",)))
        assert doc == {
            "dim": 2,
            "kind": "frame",
            "vectors": [[1.0, 0.5]],
            "labels": ["a"],
        }

    def test_fusion_document_fields(self):
        ff = FusionFrame(((subspace_from_spanning([[3.0, 0.0]]), 2.0),))
        doc = structure_to_dict(ff)
        assert doc["kind"] == "fusion"
        assert doc["subspaces"][0]["weight"] == 2.0
        assert doc["subspaces"][0]["basis"] == [[1.0, 0.0]]

    def test_document_text_is_that_of_per_entry_floats(self):
        # The written text over the whole exponent range, signed zeros,
        # subnormals and the largest binade is the text of a per-entry
        # float() copy, and it reads back bit for bit.
        rng = np.random.default_rng(71)
        grid = rng.standard_normal((300, 50)) * 10.0 ** rng.integers(-300, 301, size=(300, 50))
        grid[0, :4] = [-0.0, 1e-320, 2.0**1023, -(2.0**1023)]
        text = json.dumps(structure_to_dict(Frame(grid)))
        plain = {"dim": 50, "kind": "frame", "vectors": [[float(x) for x in row] for row in grid]}
        assert text == json.dumps(plain)
        back = structure_from_dict(json.loads(text)).vectors
        assert np.array_equal(back, grid) and np.signbit(back[0, 0])
        basis = np.eye(3)
        basis[0, 1], basis[1, 0] = -0.0, 1e-320
        text = json.dumps(structure_to_dict(FusionFrame(((Subspace(basis), 2.0),))))
        plain = {"dim": 3, "kind": "fusion",
                 "subspaces": [{"weight": 2.0, "basis": [[float(x) for x in col] for col in basis.T]}]}
        assert text == json.dumps(plain)

    def test_written_file_is_plain_json(self, tmp_path):
        path = tmp_path / "f.json"
        write_structure(path, Frame(np.eye(2)))
        doc = json.loads(path.read_text())
        assert doc["kind"] == "frame"


def frame_doc(grid):
    return {"dim": 2, "kind": "frame", "vectors": grid}


def fusion_doc(grid):
    return {
        "dim": 2,
        "kind": "fusion",
        "subspaces": [
            {"weight": 1.0, "basis": [[1.0, 0.0]]},
            {"weight": 1.0, "basis": grid},
        ],
    }


# Where a malformed grid sits: the document around it and its location.
GRID_PLACES = {
    "vectors": (frame_doc, "$.vectors"),
    "basis": (fusion_doc, "$.subspaces[1].basis"),
}

# Each malformed grid and the rest of its message after the location.
GRID_ERRORS = {
    "true entry": ([[1.0, 0.0], [0.5, True]], "[1][1]: expected a number"),
    "string entry": ([[1.0, 0.0], [0.5, "1.0"]], "[1][1]: expected a number"),
    "null entry": ([[1.0, 0.0], [0.5, None]], "[1][1]: expected a number"),
    "array entry": ([[1.0, 0.0], [0.5, [1.0]]], "[1][1]: expected a number"),
    "ragged row": ([[1.0, 0.0], [1.0]], "[1]: expected 2 entries, got 1"),
    "non-array row": ([[1.0, 0.0], 3], "[1]: expected an array of numbers"),
    "empty grid": ([], ": expected a non-empty array of arrays"),
    "non-array grid": ({"a": 1}, ": expected a non-empty array of arrays"),
}


class TestGridErrors:
    @pytest.mark.parametrize("place", sorted(GRID_PLACES))
    @pytest.mark.parametrize("case", list(GRID_ERRORS))
    def test_message_names_the_row_or_cell(self, place, case):
        make, location = GRID_PLACES[place]
        grid, rest = GRID_ERRORS[case]
        with pytest.raises(FrameFileError) as info:
            structure_from_dict(make(grid))
        assert str(info.value) == location + rest
        assert info.value.location == location + rest.split(":")[0]

    def test_integer_entries_have_the_bits_of_float(self):
        pick = random.Random(72)
        rows = [[2**53 + 1, -3], [2**64 + 1, -(2**70) + 5], [0, 2**1023], [1, 0.5]]
        rows += [[pick.randint(-(2**70), 2**70) for _ in range(2)] for _ in range(300)]
        vectors = structure_from_dict(frame_doc(rows)).vectors
        assert vectors.tobytes() == np.array([[float(x) for x in row] for row in rows]).tobytes()

    def test_float_subclass_entries_load_like_floats(self):
        doc = frame_doc([[np.float64(0.1), 1], [2.5, np.float64(-3.0)]])
        assert structure_from_dict(doc).vectors.tolist() == [[0.1, 1.0], [2.5, -3.0]]


class TestOutOfRangeIntegers:
    HUGE = 10**400

    def test_vector_entry(self):
        with pytest.raises(FrameFileError) as info:
            structure_from_dict(frame_doc([[1.0, 0.0], [0.5, self.HUGE]]))
        assert str(info.value) == "$.vectors[1][1]: number outside the float64 range"

    def test_basis_entry(self):
        with pytest.raises(FrameFileError) as info:
            structure_from_dict(fusion_doc([[-self.HUGE, 0.0]]))
        assert str(info.value) == (
            "$.subspaces[1].basis[0][0]: number outside the float64 range"
        )

    def test_weight(self):
        doc = {"dim": 1, "kind": "fusion", "subspaces": [{"weight": self.HUGE, "basis": [[1.0]]}]}
        with pytest.raises(FrameFileError) as info:
            structure_from_dict(doc)
        assert str(info.value) == "$.subspaces[0].weight: number outside the float64 range"

    def test_401_digit_literal_in_a_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dim": 2, "kind": "frame", "vectors": [[1.0, 1%s]]}' % ("0" * 400))
        with pytest.raises(FrameFileError, match=r"^\$\.vectors\[0\]\[1\]: number outside"):
            load_structure(path)

    def test_literal_past_the_int_digit_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text('{"dim": 1, "kind": "frame", "vectors": [[%s]]}' % ("7" * (limit + 1)))
        with pytest.raises(FrameFileError) as info:
            load_structure(path)
        assert str(info.value) == f"$: integer literal of more than {limit} digits"


class TestStoredBases:
    def test_non_orthonormal_basis_loads_as_a_spanning_set(self, monkeypatch):
        # The Gram check of the stored rows fails, so the loader spans them.
        rows = [[2.0, 0.0, 0.0], [3.0, 1.0, 0.0]]
        spanned = []
        span = fileio.subspace_from_spanning
        monkeypatch.setattr(fileio, "subspace_from_spanning", lambda v: spanned.append(1) or span(v))
        ff = structure_from_dict({"dim": 3, "kind": "fusion", "subspaces": [{"weight": 1.0, "basis": rows}]})
        assert len(spanned) == 1
        assert np.array_equal(ff.subspaces[0].basis, span(np.array(rows)).basis)

    def test_more_rows_than_dim_are_a_spanning_set(self):
        rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        ff = structure_from_dict({"dim": 2, "kind": "fusion", "subspaces": [{"weight": 1.0, "basis": rows}]})
        assert ff.subspaces[0].dim == 2

    @pytest.mark.parametrize(
        "rows", [[[float("nan"), 0.0]], [[1.0, 0.0], [0.0, 1.0], [float("inf"), 1.0]]]
    )
    def test_non_finite_basis_raises_numeric_error(self, rows):
        doc = {"dim": 2, "kind": "fusion", "subspaces": [{"weight": 1.0, "basis": rows}]}
        with pytest.raises(NumericError, match="^matrix contains non-finite entries$"):
            structure_from_dict(doc)


def stdlib_text(obj):
    return json.dumps(obj, indent=2)


class TestJsonText:
    """``fileio._json_text`` writes ``json.dumps(obj, indent=2)`` byte for
    byte."""

    LABELS = ("α", 'quote " mark', "back\\slash", "tab\tand\nnewline", " ", "😀", "\x00\x1f")

    def test_structures(self, tmp_path):
        rng = np.random.default_rng(73)
        structures = [random_frame(rng) for _ in range(20)] + [random_fusion(rng) for _ in range(20)]
        structures.append(Frame(rng.standard_normal((len(self.LABELS), 3)), labels=self.LABELS))
        structures.append(Frame(rng.standard_normal((300, 50))))
        for i, obj in enumerate(structures):
            doc = structure_to_dict(obj)
            assert fileio._json_text(doc) == stdlib_text(doc)
            path = tmp_path / f"s{i}.json"
            write_structure(path, obj)
            assert path.read_text() == stdlib_text(doc) + "\n"

    def test_report_shaped_documents(self):
        floats = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  float("nan"), float("inf"), float("-inf"), 0.1, 1e-7, 1e16]
        doc = {
            "tool_version": "1.0",
            "inputs": {},
            "results": {
                "empty_list": [],
                "empty_dict": {},
                "nested_empties": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
                "tuple": (1, 2.5, "x"),
                "tuple_of_floats": (0.5, -2.0),
                "flags": [True, False, None],
                "bool": True,
                "none": None,
                "int": -(2**70),
                "floats": floats,
                "each_float": {repr(x): x for x in floats},
                "float64_items": [np.float64(0.1), np.float64(-0.0), 1.5],
                "float64_only": [np.float64(2.5), np.float64(np.inf)],
                "float64_value": np.float64(1e-300),
                "sum_overflows": [1e308, 1e308, -1.0],
                "rows": [[1.0, 2.0], [3.0, float("nan")], [], [4, 5.0]],
                "labels": list(self.LABELS),
                "verdicts": [{"theorem_id": "t", "margin": 1e-12, "notes": []}],
            },
            "seeds": {"seed": 42},
        }
        for obj in (doc, doc["results"], [], {}, [[]], 1.5, "é", None, floats, tuple(floats)):
            assert fileio._json_text(obj) == stdlib_text(obj)

    def test_keys_convert_as_in_the_standard_library(self):
        doc = {1: [1.0], 2.5: {}, True: None, None: "n", float("nan"): 0, "é\"": 1}
        assert fileio._json_text(doc) == stdlib_text(doc)
        for bad in ({(1, 2): 1.0}, {"a": np.int64(1)}, {"a": [np.float32(1.0)]}):
            with pytest.raises(TypeError):
                stdlib_text(bad)
            with pytest.raises(TypeError):
                fileio._json_text(bad)
