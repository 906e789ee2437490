"""Reading and writing frame/fusion-frame JSON files.

One JSON document per structure.  Numbers round-trip bit-exactly because
serialization uses Python's shortest-repr decimals (up to 17 significant
digits) and loading never re-derives entries: a stored fusion basis that
is already orthonormal is used verbatim.

Loading validates each number grid in one pass over its rows and entry
types and converts it with one ``np.array`` call; the cell-by-cell walk
runs only to name the offending cell of a rejected file.  A stored basis
gets one Gram check, the one ``Subspace`` makes; a basis that fails it is
taken as a spanning set and orthonormalized.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError, PreconditionError
from .frames import Frame, _blocks
from .fusion import FusionFrame, Subspace, subspace_from_spanning


class FrameFileError(ValueError):
    """Malformed frame file: JSON, schema, or shape problems."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# The exact types of the numbers ``json.loads`` produces (a bool's is bool).
_JSON_NUMBERS = {int, float}


def _as_float(x, location: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise FrameFileError(location, "number outside the float64 range") from None


def _require_number_grid(value, location: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise FrameFileError(location, "expected a non-empty array of arrays")
    if all(type(row) is list and len(row) == dim for row in value) and (
        set(map(type, chain.from_iterable(value))) <= _JSON_NUMBERS
    ):
        try:
            # Each entry gets the bits of float(x), ints beyond 2^53 too.
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    # Name the first bad row or cell.  A parsed JSON grid that gets here
    # has one; only a grid built in Python from subclasses of list, int
    # or float passes the walk.
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise FrameFileError(f"{location}[{i}]", "expected an array of numbers")
        if len(row) != dim:
            raise FrameFileError(
                f"{location}[{i}]", f"expected {dim} entries, got {len(row)}"
            )
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise FrameFileError(f"{location}[{i}][{j}]", "expected a number")
            _as_float(x, f"{location}[{i}][{j}]")
    return np.array(value, dtype=float)


def structure_from_dict(doc) -> Frame | FusionFrame:
    """Build a Frame or FusionFrame from a parsed frame-file document."""
    if not isinstance(doc, dict):
        raise FrameFileError("$", "expected a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FrameFileError("$.dim", f"expected a positive integer, got {dim!r}")
    kind = doc.get("kind")
    if kind not in ("frame", "fusion"):
        raise FrameFileError("$.kind", f'expected "frame" or "fusion", got {kind!r}')
    has_vectors = "vectors" in doc
    has_subspaces = "subspaces" in doc
    if kind == "frame":
        if not has_vectors or has_subspaces:
            raise FrameFileError("$", 'kind "frame" requires vectors and no subspaces')
        vectors = _require_number_grid(doc["vectors"], "$.vectors", dim)
        labels = doc.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
                raise FrameFileError("$.labels", "expected an array of strings")
            if len(labels) != len(vectors):
                raise FrameFileError(
                    "$.labels", f"expected {len(vectors)} labels, got {len(labels)}"
                )
            labels = tuple(labels)
        return Frame(vectors, labels=labels)
    if not has_subspaces or has_vectors:
        raise FrameFileError("$", 'kind "fusion" requires subspaces and no vectors')
    subs = doc["subspaces"]
    if not isinstance(subs, list) or not subs:
        raise FrameFileError("$.subspaces", "expected a non-empty array")
    members = []
    for i, entry in enumerate(subs):
        loc = f"$.subspaces[{i}]"
        if not isinstance(entry, dict):
            raise FrameFileError(loc, "expected an object with weight and basis")
        weight = entry.get("weight")
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise FrameFileError(f"{loc}.weight", f"expected a number, got {weight!r}")
        basis_rows = _require_number_grid(entry.get("basis"), f"{loc}.basis", dim)
        # Rows are spanning vectors; reuse them verbatim when already
        # orthonormal so write/read round-trips are bit-exact.
        try:
            sub = Subspace(basis_rows.T)
        except (DimensionError, PreconditionError):
            sub = subspace_from_spanning(basis_rows)
        members.append((sub, _as_float(weight, f"{loc}.weight")))
    return FusionFrame(tuple(members))


def structure_to_dict(obj: Frame | FusionFrame) -> dict:
    """Frame-file document for a structure (lists of plain floats)."""
    if isinstance(obj, Frame):
        doc = {"dim": obj.dim, "kind": "frame", "vectors": obj.vectors.tolist()}
        if obj.labels is not None:
            doc["labels"] = list(obj.labels)
        return doc
    if isinstance(obj, FusionFrame):
        return {
            "dim": obj.dim,
            "kind": "fusion",
            "subspaces": [{"weight": w, "basis": b.T.tolist()}
                          for b, w in zip(_blocks(obj), obj.weights.tolist())],
        }
    raise TypeError(f"expected Frame or FusionFrame, got {type(obj)}")


def load_structure(path) -> Frame | FusionFrame:
    """Load a frame file; FrameFileError on malformed content."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except UnicodeDecodeError as exc:
        raise FrameFileError(f"byte {exc.start}", f"not {exc.encoding} text: {exc.reason}") from exc
    except RecursionError:
        raise FrameFileError("$", "arrays or objects nested too deeply to parse") from None
    except ValueError as exc:
        # The only other ValueError of json.loads: an integer literal past
        # Python's limit on the digits of a str-to-int conversion.
        raise FrameFileError(
            "$", f"integer literal of more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    return structure_from_dict(doc)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a value at the
    indentation ``pad``.

    Plain finite floats are written by ``repr``, a list of them joined in
    one call, where the standard library's indenting encoder formats one
    value at a time in Python.  Every other scalar, and every key, goes
    through ``json.dumps``.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # A key that is not a string is converted, or rejected, as the
        # standard library does: ``{key: null}`` less its braces and value.
        items = (
            f"{json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1:-7]}: "
            f"{_json_text(v, inner)}"
            for k, v in obj.items()
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # A sum of finite floats is NaN or infinite only when it
        # overflows; such a list takes the general route.
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = map(repr, obj)
        else:
            items = (_json_text(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(obj) is float and math.isfinite(obj):
        return repr(obj)
    return json.dumps(obj)


def write_structure(path, obj: Frame | FusionFrame) -> None:
    Path(path).write_text(_json_text(structure_to_dict(obj)) + "\n")


def file_digest(path) -> str:
    """Hex sha256 of the file bytes, for report provenance."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
