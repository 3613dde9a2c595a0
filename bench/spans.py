"""Spans around polydiv's public functions, recorded from outside the package.

Recorder.install wraps every public function of the layer modules in every
polydiv namespace that binds it, so calls inside a module (classify_report ->
rational_singularities) and across modules (cli -> is_proper) both open a
span. A span is (function, start, end, parent span, document); spans stay in
memory in flat arrays and are written out once, at the end of the run.

Self time is a span's duration minus the time its child spans cover; calls
are single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

LAYERS = ("cli", "problem_io", "pdiv", "geometry", "linalg", "curves", "classify",
          "sections", "toric")

WATCHED = {
    "problem_io": ("parse_problem", "emit_report"),
    "pdiv": ("is_proper", "evaluate"),
    "geometry": ("chamber_fan", "make_cone", "make_polyhedron"),
    "linalg": ("feasible", "cone_from_inequalities", "solve", "rref", "determinant"),
    "curves": ("floor_divisor", "h1_dim"),
    "classify": ("classify_report", "rational_singularities", "decide_floor_bound",
                 "h1_report", "elliptic_singularity", "ray_slopes"),
    "sections": ("ring_presentation", "multiply_sections"),
    "toric": ("toric_cone", "cone_diagnostics"),
}

# calls per classify document, the base of the *.per_doc metrics
PER_DOC = ("pdiv.is_proper", "geometry.chamber_fan", "classify.decide_floor_bound")


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports: name, unit, better."""
    out = []

    def add(name, unit, better="lower"):
        out.append({"name": name, "unit": unit, "better": better})

    keys = list(LAYERS) + [f"{layer}.{fn}" for layer, fns in WATCHED.items() for fn in fns]
    for key in keys:
        add(f"{key}.calls", "count")
        add(f"{key}.self_s", "s")
    for fn in PER_DOC:
        add(f"{fn}.per_doc", "count")
    # lattice points inside the caps per bounding-box point; higher wastes less
    add("classify.search_hit_ratio", "ratio", "higher")
    add("problem_io.emit_bytes", "bytes")
    # traced over untraced docs_per_s
    add("trace.overhead_ratio", "ratio", "higher")
    return out


class Recorder:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.doc = array("i")
        self.stack: list[int] = []
        self.doc_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(rec.start)
            rec.fn.append(index)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.doc.append(rec.doc_id)
            rec.end.append(0.0)
            rec.stack.append(span)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[span] = clock()
                rec.stack.pop()

        return traced

    def install(self, package: str = "polydiv") -> None:
        layer_modules = {f"{package}.{layer}" for layer in LAYERS}
        wrappers = {}
        for modname in sorted(layer_modules):
            for attr, obj in vars(sys.modules[modname]).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == modname and obj not in wrappers):
                    wrappers[obj] = self.wrap(obj, f"{modname.split('.')[-1]}.{obj.__name__}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == package or name.startswith(package + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the first."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tfunction\tdocument\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.fn[i]]}\t{self.doc[i]}\t{self.parent[i]}\t"
                         f"{round((self.start[i] - origin) * 1e6)}\t"
                         f"{round((self.end[i] - origin) * 1e6)}\n")


def self_times(start, end, parent) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(rec: Recorder, classify_docs) -> dict:
    """calls and self_s per layer and per watched function, plus the
    per-classify-document call counts and the floor-search hit ratio.

    The search evaluates the rounded-down degree only at lattice points inside
    the capped parallelepiped, one floor_divisor call each, after one solve per
    point of the bounding box; so the hit ratio is floor_divisor calls over
    solve calls below decide_floor_bound. (pdiv.evaluate would also count the
    evaluations at the fan rays.)
    """
    own = self_times(rec.start, rec.end, rec.parent)
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    per_doc = dict.fromkeys(PER_DOC, 0)
    dfb = rec.names.index("classify.decide_floor_bound") if "classify.decide_floor_bound" in rec.names else -1
    under = bytearray(len(own))
    hits = solves = 0
    for i, t in enumerate(own):
        name = rec.names[rec.fn[i]]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] = calls.get(key, 0) + 1
            selfs[key] = selfs.get(key, 0.0) + t
        if name in per_doc and rec.doc[i] in classify_docs:
            per_doc[name] += 1
        p = rec.parent[i]
        if p >= 0 and (under[p] or rec.fn[p] == dfb):
            under[i] = 1
            if name == "curves.floor_divisor":
                hits += 1
            elif name == "linalg.solve":
                solves += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for layer, fns in WATCHED.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = selfs.get(key, 0.0)
    for name, count in per_doc.items():
        out[f"{name}.per_doc"] = count / len(classify_docs) if classify_docs else 0.0
    out["classify.search_hit_ratio"] = hits / solves if solves else 0.0
    return out
