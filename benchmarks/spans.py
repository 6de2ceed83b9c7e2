"""Span tracing of the library's public functions, installed from outside.

`Tracer.install` wraps each function in `TRACED` on its module or class,
and rebinds the same object in every `outerspacekit` module that imported
it with `from ... import`. Each call records a span (name, start, end,
parent span, and a value and flag observed from its result) in flat arrays
kept in memory; `summary` turns them into the per-layer metrics and
`write` dumps them when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

LAYERS = ("words", "whitehead", "graphs", "metric", "traintrack", "axes", "cli")

TRACED = {
    "words": ("is_basis", "inverse_images", "verify_inverse", "Automorphism.compose"),
    "whitehead": ("whitehead_minimize", "is_primitive", "cut_analysis"),
    "graphs": ("validate_point", "enumerate_candidates", "random_point",
               "MarkedMetricGraph.act", "MarkedMetricGraph.loop_length"),
    "metric": ("distance", "distance_oracle"),
    "traintrack": ("pf_metric", "lamination_length_ratio", "lamination_whitehead_graph",
                   "no_cut_vertex_search", "TrainTrackMap.leaf_path"),
    "axes": ("project", "Axis.point", "contraction_experiment", "probe_experiment",
             "two_axis_report"),
    "cli": ("main",),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# name -> function of the call's result giving the (value, flag) kept with its span
OBSERVE = {
    "whitehead.whitehead_minimize": lambda r: (len(r.steps), False),
    "graphs.validate_point": lambda r: (0, not r.valid),
    "graphs.enumerate_candidates": lambda r: (len(r), False),
    "traintrack.lamination_length_ratio": lambda r: (r.k_used, r.converged),
    "traintrack.no_cut_vertex_search": lambda r: (len(r.moves), False),
    "traintrack.TrainTrackMap.leaf_path": lambda r: (len(r), False),
    "axes.project": lambda r: (r.scanned[1] - r.scanned[0] + 1, False),
}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("d")
        self.flag = array("b")
        self._stack = []
        self._undo = []
        self.on = False  # while off, wrapped calls run as they are and record nothing

    def _wrap(self, idx, fn, observe):
        name, start, end, parent, value, flag = (
            self.name, self.start, self.end, self.parent, self.value, self.flag)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            value.append(0.0)
            flag.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if observe is not None:
                v, f = observe(result)
                value[span] = v
                flag[span] = bool(f)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package="outerspacekit"):
        """Wrap every traced function; the package must already be imported."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for idx, full in enumerate(NAMES):
            layer, _, qual = full.partition(".")
            owner = sys.modules[f"{package}.{layer}"]
            *classes, attr = qual.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, original, OBSERVE.get(full))
            if classes:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self, wall_s):
        """Per-layer metrics {name: (value, unit)} over `wall_s` traced seconds.

        Self time is a span's duration minus the durations of its child spans.
        """
        n = len(self.name)
        name, parent, value, flag = self.name, self.parent, self.value, self.flag
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        for i in range(n):
            if parent[i] >= 0:
                self_s[parent[i]] -= dur[i]
        k = len(NAMES)
        calls, total_self, total_value, flags = [0] * k, [0.0] * k, [0.0] * k, [0] * k
        for i in range(n):
            j = name[i]
            calls[j] += 1
            total_self[j] += self_s[i]
            total_value[j] += value[i]
            flags[j] += flag[i]

        def at(full):
            return NAMES.index(full)

        def mean(total, count):
            return total / count if count else 0.0

        leaf, project, dist = (at("traintrack.TrainTrackMap.leaf_path"), at("axes.project"),
                               at("metric.distance"))
        outer_leaf_letters = 0.0
        project_distances = 0
        for i in range(n):
            p = parent[i]
            if name[i] == leaf and (p < 0 or name[p] != leaf):
                outer_leaf_letters += value[i]
            elif name[i] == dist:
                while p >= 0 and name[p] != project:
                    p = parent[p]
                project_distances += p >= 0

        m = {}
        for j, full in enumerate(NAMES):
            m[f"{full}.calls"] = (calls[j], "count")
            m[f"{full}.self_ms"] = (total_self[j] * 1000.0, "ms")
        j = at("whitehead.whitehead_minimize")
        m["whitehead.whitehead_minimize.steps"] = (total_value[j], "count")
        j = at("graphs.validate_point")
        m["graphs.validate_point.reject_ratio"] = (mean(flags[j], calls[j]), "ratio")
        j = at("graphs.enumerate_candidates")
        m["graphs.enumerate_candidates.mean_candidates"] = (mean(total_value[j], calls[j]), "count")
        m["traintrack.leaf_letters"] = (outer_leaf_letters, "count")
        j = at("traintrack.lamination_length_ratio")
        m["traintrack.lamination_length_ratio.mean_k_used"] = (mean(total_value[j], calls[j]), "count")
        m["traintrack.lamination_length_ratio.converged_ratio"] = (mean(flags[j], calls[j]), "ratio")
        j = at("traintrack.no_cut_vertex_search")
        m["traintrack.no_cut_vertex_search.mean_moves"] = (mean(total_value[j], calls[j]), "count")
        m["axes.project.mean_window"] = (mean(total_value[project], calls[project]), "count")
        m["axes.project.distances_per_call"] = (mean(project_distances, calls[project]), "count")
        for layer in LAYERS:
            layer_self = sum(total_self[j] for j, full in enumerate(NAMES)
                             if full.startswith(layer + "."))
            m[f"{layer}.self_share"] = (mean(layer_self, wall_s), "ratio")
        return m

    def write(self, path):
        """Dump the spans as gzipped JSON: the names, then one row per span."""
        rows = [[self.name[i], self.start[i], self.end[i], self.parent[i], self.value[i],
                 self.flag[i]] for i in range(len(self.name))]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": NAMES,
                       "columns": ["name", "start", "end", "parent", "value", "flag"],
                       "spans": rows}, fh, separators=(",", ":"))


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    return [(k, unit) for k, (_, unit) in Tracer().summary(1.0).items()] + [
        ("trace.overhead_ratio", "ratio")]
