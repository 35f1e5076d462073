"""Span tracing of plhomeo from outside the package.

The tracer replaces each traced function in every ``plhomeo.*`` module
namespace that holds a reference to it.  ``from .maps import compose``
binds the name once per importing module, so patching ``plhomeo.maps``
alone would miss the calls made from ``disc``, ``sphere`` or
``conjugacy``; imports inside a function body resolve through the
defining module, which is patched too.

A span is ``(group, start, end, parent, case, outer, count)``: ``parent``
is the index of the enclosing span (-1 for a root), ``outer`` is false when
a span of the same group encloses it, and ``count`` is the size measured on
the result (cells out, non-empty clip, interior vertices), or None.
"""

from __future__ import annotations

import functools
import sys
import time


def _cells(args, kwargs, result):
    return len(result.cells)


def _polys(args, kwargs, result):
    return len(result.polys)


def _nonempty(args, kwargs, result):
    return 1 if result else 0


def _interior(args, kwargs, result):
    adjacency, prescribed = args[0], args[1]
    return sum(1 for v in adjacency if v not in prescribed)


# group name -> (defining module, functions, size measured on each result
# as (metric suffix, function), or None)
GROUPS = {
    "geom.clip_convex": ("geom", ("clip_convex",), ("hit_ratio", _nonempty)),
    "geom.normalize_poly": ("geom", ("normalize_poly",), None),
    "geom.clip_halfplane": ("geom", ("clip_halfplane",), None),
    "maps.compose": ("maps", ("compose",), ("cells_out", _cells)),
    "maps.map_equal": ("maps", ("map_equal",), None),
    "maps.first_disagreement": ("maps", ("first_disagreement",), None),
    "maps.validate_homeo": ("maps", ("validate_homeo",), None),
    "maps.inverse": ("maps", ("inverse",), None),
    "maps.period": ("maps", ("period",), None),
    "maps.fixed_set": ("maps", ("fixed_set",), None),
    "maps.locate_cell": ("maps", ("locate_cell",), None),
    "eqcomplex.equivariant_complex": (
        "eqcomplex", ("equivariant_complex",), ("cells_out", _polys)),
    "eqcomplex.conjugated_equivariant_complex": (
        "eqcomplex", ("conjugated_equivariant_complex",),
        ("cells_out", _polys)),
    "eqcomplex.refine": ("eqcomplex", ("refine_cells", "refine_edges"), None),
    "embedding.tutte_positions": ("embedding", ("tutte_positions",),
                                  ("interior_verts", _interior)),
    "disc.analyze_disc": ("disc", ("analyze_disc",), None),
    "disc.build_conjugacy": ("disc", ("build_conjugacy_rotation",
                                      "build_conjugacy_reflection"), None),
    "sphere.analyze_sphere": ("sphere", ("analyze_sphere",), None),
    "sphere.free_structure": ("sphere", ("free_structure",), None),
    "sphere.t0_cut": ("sphere", ("t0_cut",), None),
    "sphere.build_conjugacy": ("sphere", ("build_conjugacy_fixedpoint",
                                          "build_conjugacy_free"), None),
    "conjugacy.require_exact": ("conjugacy", ("require_exact",), None),
    "circle": ("circle", ("rotation_number", "period_circle"), None),
    "io.parse": ("io", ("load_json", "instance_from_dict",
                        "certificate_from_dict"), None),
    "io.write": ("io", ("save_json", "dumps", "certificate_to_dict"), None),
}
STAGES = ("analyze", "conjugate", "verify")
ROOTS = tuple(f"cli.{s}" for s in STAGES)


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores
    every patched name."""

    def __init__(self):
        self.names = list(ROOTS) + list(GROUPS)
        self._gid = {name: i for i, name in enumerate(self.names)}
        self.spans: list = []
        self.case = None
        self._stack: list = []
        self._active = [0] * len(self.names)
        self._patched: list = []

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "plhomeo"
                                         or name.startswith("plhomeo."))]
        for group, (modname, funcs, size) in GROUPS.items():
            home = sys.modules[f"plhomeo.{modname}"]
            measure = size[1] if size else None
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(self._gid[group], original, measure)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, gid, fn, measure):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = active[gid] == 0
            active[gid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                active[gid] -= 1
                stack.pop()
                spans[idx] = (gid, t0, t1, parent, tracer.case, outer, None)
                raise
            t1 = clock()
            active[gid] -= 1
            stack.pop()
            count = measure(args, kwargs, result) if measure else None
            spans[idx] = (gid, t0, t1, parent, tracer.case, outer, count)
            return result

        return wrapper

    def root(self, stage, fn, *args):
        """Call fn(*args) inside the root span ``cli.<stage>``."""
        return self._wrap(self._gid[f"cli.{stage}"], fn, None)(*args)

    # -- analysis ----------------------------------------------------------

    def aggregate(self, first=0):
        """Per-group calls, self/total seconds, counts over spans[first:].

        Self time is a span's duration minus its direct children's, so the
        self times under a root span add up to its duration; total time
        sums only the outermost span of each group, so recursion is not
        counted twice."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for gid, t0, t1, parent, *_ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "count": 0} for name in self.names}
        for i, (gid, t0, t1, parent, case, outer, count) in enumerate(spans):
            s = stats[self.names[gid]]
            s["calls"] += 1
            s["self_s"] += t1 - t0 - child[i]
            if outer:
                s["total_s"] += t1 - t0
            if count:
                s["count"] += count
        return stats

    def dump(self):
        """Spans in a JSON-friendly form; a span's first field indexes
        ``groups``."""
        return {"groups": self.names,
                "fields": ["group", "start", "end", "parent", "case",
                           "outer", "count"],
                "spans": [list(s) for s in self.spans]}
