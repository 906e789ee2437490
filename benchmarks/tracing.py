"""Span tracing around calls into framekit's public functions.

The tracer replaces every public function of the eight layer modules with
a wrapper that records one span (name, start, end, parent).  Because
``from .x import y`` binds a function under a second name in each
importing module, the wrapper is installed under every framekit module
attribute that refers to the original.  Dataclass ``__post_init__``
methods (``Subspace``, ``Frame``, ...) are wrapped on their class, so each
construction is a span named after the class.

Spans are kept in flat arrays while the run lasts and reduced to
per-layer figures when it ends; a span's self time is its duration minus
the durations of its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "frames", "fusion", "perturb", "angles", "theorems", "fileio", "cli")

# Input validators run hundreds of times per instance; they are counted,
# not spanned, so their time stays in the caller's self time.
COUNTED_ONLY = {"linalg.as_vector", "linalg.as_matrix"}

GENERATORS = ("perturb.generate_perturbed_frame", "perturb.generate_perturbed_fusion")
MU_OF = {
    "perturb.generate_perturbed_frame": "perturb.frame_perturbation_mu",
    "perturb.generate_perturbed_fusion": "perturb.fusion_perturbation_mu",
}
INSTANCE_GEN = (
    "theorems.random_frame",
    "theorems.random_orthogonal_basis",
    "theorems.random_fusion_frame",
    *GENERATORS,
)


def _shape_bytes(m) -> int:
    """float64 bytes of a matrix argument, computed from its shape."""
    return 8 * int(np.prod(np.shape(m)))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans for one run; ``install``/``uninstall`` patch framekit."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _spanned(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if after is not None:
                    after(args)

        return wrapper

    def _counted(self, fn, name: str):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] = self.counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str):
        """Work counters computed from a call's arguments."""
        if name == "linalg.orthonormalize":
            return (lambda a: self._count("linalg.orthonormalize.vectors_in", len(a[0]))), None
        if name == "linalg.singular_values":
            return (lambda a: self._count("linalg.singular_values.bytes_in", _shape_bytes(a[0]))), None
        if name == "fileio.load_structure":
            return (lambda a: self._count("fileio.bytes_read", _file_size(a[0]))), None
        if name == "fileio.write_structure":
            return None, (lambda a: self._count("fileio.bytes_written", _file_size(a[0])))
        return None, None

    # -- patching ----------------------------------------------------------

    def _modules(self):
        pkg = self.package
        return [pkg] + [getattr(pkg, layer) for layer in LAYERS]

    def install(self) -> None:
        """Wrap the public functions of every layer module under every
        framekit attribute that names them."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(value):
                    if name in COUNTED_ONLY:
                        wrappers[id(value)] = self._counted(value, name)
                    else:
                        before, after = self._hooks(name)
                        wrappers[id(value)] = self._spanned(value, name, before, after)
                elif inspect.isclass(value) and "__post_init__" in vars(value):
                    original = vars(value)["__post_init__"]
                    self._patched.append((value, "__post_init__", original))
                    setattr(value, "__post_init__", self._spanned(original, name))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and not attr.startswith("__"):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def active(self):
        """Trace the calls made inside the ``with`` block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """Save the raw spans (name id, start, end, parent) and the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            parent=np.array(self.span_parent, dtype=np.int32),
        )

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation figures for every per-layer metric."""
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)

        def by_name(n, arr):
            i = self.name_ids.get(n)
            return float(arr[i]) if i is not None else 0.0

        # Constant evaluations nested in each generation: walk the parent
        # chain once, in span order (a parent always precedes its children).
        gen_ids = {self.name_ids[g]: g for g in GENERATORS if g in self.name_ids}
        mu_ids = {self.name_ids[m]: m for m in MU_OF.values() if m in self.name_ids}
        mu_evals = {g: 0 for g in GENERATORS}
        if gen_ids and mu_ids:
            enclosing = [-1] * len(name)
            for i in range(len(name)):
                p = int(parent[i])
                nid = int(name[i])
                enclosing[i] = nid if nid in gen_ids else (enclosing[p] if p >= 0 else -1)
                if nid in mu_ids and p >= 0 and enclosing[p] >= 0:
                    gen = gen_ids[enclosing[p]]
                    if MU_OF[gen] == mu_ids[nid]:
                        mu_evals[gen] += 1

        per_op = 1.0 / ops
        out: dict[str, float] = {}
        for n in ("linalg.orthonormalize", "linalg.singular_values", "fusion.Subspace",
                  "perturb.fusion_perturbation_mu", "perturb.frame_perturbation_mu",
                  "angles.gap_direct"):
            out[f"{n}.calls"] = by_name(n, calls) * per_op
            out[f"{n}.self_s"] = by_name(n, self_s) * per_op
        out["linalg.orthonormalize.vectors_in"] = self.counters.get("linalg.orthonormalize.vectors_in", 0) * per_op
        out["linalg.singular_values.bytes_in"] = self.counters.get("linalg.singular_values.bytes_in", 0) * per_op
        out["linalg.validate.calls"] = (
            self.counters.get("linalg.as_vector.calls", 0) + self.counters.get("linalg.as_matrix.calls", 0)
        ) * per_op
        out["angles.cosine_angles.calls"] = by_name("angles.cosine_angles", calls) * per_op
        for g in GENERATORS:
            gen_calls = by_name(g, calls)
            out[f"{g}.total_s"] = by_name(g, total_s) * per_op
            out[f"{g}.mu_evals"] = mu_evals[g] / gen_calls if gen_calls else 0.0
        out["theorems.instance_gen.total_s"] = sum(by_name(n, total_s) for n in INSTANCE_GEN) * per_op
        out["theorems.verify.total_s"] = sum(
            float(total_s[i]) for n, i in self.name_ids.items() if n.startswith("theorems.verify_")
        ) * per_op
        for short, full in (("load", "fileio.load_structure"), ("write", "fileio.write_structure")):
            out[f"fileio.{short}.calls"] = by_name(full, calls) * per_op
            out[f"fileio.{short}.self_s"] = by_name(full, self_s) * per_op
        out["fileio.bytes_read"] = self.counters.get("fileio.bytes_read", 0) * per_op
        out["fileio.bytes_written"] = self.counters.get("fileio.bytes_written", 0) * per_op
        layer_of = np.array([n.split(".", 1)[0] for n in self.names]) if self.names else np.zeros(0, dtype=str)
        for layer in LAYERS:
            mask = layer_of == layer
            out[f"{layer}.calls"] = float(calls[mask].sum()) * per_op
            out[f"{layer}.self_s"] = float(self_s[mask].sum()) * per_op
        return out
