"""Outside-in span tracer for the levelcurves layers.

``Tracer.install`` wraps every public function of each layer module under
every module-level name bound to it, including the names that importing
modules bind (``cli.isoline_lengths``, ``limits.boundary_functional``, ...).
Function-local imports read the defining module's attribute at call time,
so they see the wrapper too.  Spans (name, start, end, parent, run id) are
kept in memory and handed out at the end by ``spans``.

Some counts are computed from arguments and return values.  That work runs
while the tracer clock is paused, so no span, the enclosing ones included,
is charged for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("spectrum", "synthesis", "special", "geometry", "chaos", "limits",
          "mcstats", "cli")

# counts computed from arguments and return values
COUNTS = (
    "geometry.triangle_slices",
    "geometry.crossings",
    "geometry.gather_bytes",
    "geometry.perturbed_vertices",
    "synthesis.synthesize_values.flop",
    "synthesis.clipped_eigenvalues",
    "synthesis.embedding_doublings",
    "limits.rosenblatt_draws",
    "limits.rosenblatt_fft_points",
)


def _count_isolines(counts, a, result):
    vals = np.asarray(a["values"], dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    tris = a["mesh"].triangles
    n_tri, n_slices = tris.shape[0], vals.shape[1]
    # values exactly at u are nudged upwards by the kernel, hence >=
    npos = (vals >= a["u"])[tris].sum(axis=1)
    counts["geometry.triangle_slices"] += n_tri * n_slices
    counts["geometry.crossings"] += int(np.count_nonzero((npos == 1)
                                                         | (npos == 2)))
    # the kernel gathers one float64 per triangle corner and slice
    counts["geometry.gather_bytes"] += 24 * n_tri * n_slices
    counts["geometry.perturbed_vertices"] += int(result[1])


def _count_synthesis(counts, a, result):
    n_vert, n_harm = a["basis"].y.shape
    counts["synthesis.synthesize_values.flop"] += \
        2 * n_vert * n_harm * result.shape[1]


def _count_paths(counts, a, result):
    counts["synthesis.clipped_eigenvalues"] += result.clipped_eigenvalues
    counts["synthesis.embedding_doublings"] += result.embedding_doublings


def _count_rosenblatt(counts, a, result):
    count = max(int(a["count"]), 0)
    sampler = a["sampler"]
    counts["limits.rosenblatt_draws"] += count
    counts["limits.rosenblatt_fft_points"] += \
        (count + 1) // 2 * sampler.burn_factor * sampler.n_inner


COUNTERS = {
    "geometry.isoline_lengths": _count_isolines,
    "synthesis.synthesize_values": _count_synthesis,
    "synthesis.sample_time_processes": _count_paths,
    "limits.sample_rosenblatt": _count_rosenblatt,
}


class Tracer:
    """Span recorder over the layer modules of one process."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self._spans = []
        self._stack = []
        self._paused = 0.0
        self.counts = dict.fromkeys(COUNTS, 0)
        self._restore = []

    def now(self):
        """Tracer clock: wall time minus the time spent computing counts."""
        return time.perf_counter() - self._paused

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id]
            self._stack.append(len(self._spans))
            self._spans.append(span)
            span[1] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self._stack.pop()
            if counter is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def install(self):
        """Wrap each layer's public functions under every binding name."""
        modules = {layer: importlib.import_module(f"levelcurves.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def spans(self):
        """Recorded spans as (name, start, end, parent, run_id) tuples."""
        return [tuple(s) for s in self._spans]


def summarize(spans):
    """Per function name: calls, inclusive seconds ``s`` (nested calls of
    the same name counted once) and ``self_s`` (duration minus the part its
    direct children cover)."""
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _run) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["s"] += end - start
    return out
