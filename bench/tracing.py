"""Spans around the public functions each quadfeat module calls into.

The traced run installs wrappers from outside the package: every module
attribute bound to a listed function (``from .grids import sparse_grid``
included) and every listed method is replaced for the duration of a
round, then restored.  Each call records one span (name, start, end,
parent index) and, for some functions, counts computed from array shapes
and return values, so those counts repeat exactly from run to run.

A span's self time is its duration minus the durations of its direct
children; summing self times by module gives each layer's share.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

LAYERS = ("quad1d", "grids", "solvers", "kernels", "featuremaps", "harness",
          "cli")

# name -> unit of every per-layer metric the traced run reports.  Counts are
# per round; times are self times per round, in seconds.
LAYER_METRICS = {
    "quad1d.gauss_hermite.s": "s",
    "quad1d.gauss_hermite.calls": "count",
    "grids.sparse_grid.s": "s",
    "grids.sparse_grid.points": "count",
    "grids.dense_grid.s": "s",
    "grids.dense_grid.points": "count",
    "grids.subsample_dense_grid.s": "s",
    "solvers.construct_poly_exact.s": "s",
    "solvers.construct_poly_exact.calls": "count",
    "solvers.bisect_lambda.s": "s",
    "solvers.bisect_lambda.calls": "count",
    "solvers.support_points": "count",
    "kernels.value.s": "s",
    "kernels.value.rows": "count",
    "featuremaps.approx.s": "s",
    "featuremaps.approx.cos_evals": "count",
    "featuremaps.embed_batch.s": "s",
    "featuremaps.embed_batch.rows": "count",
    "featuremaps.embed_batch.cos_evals": "count",
    "featuremaps.embed_grid_fast.s": "s",
    "featuremaps.embed_grid_fast.rows": "count",
    "featuremaps.rff.s": "s",
    "featuremaps.qmc_halton.s": "s",
    "harness.build_method_map.s": "s",
    "harness.build_anova_map.s": "s",
    "harness.error_stats.s": "s",
    "harness.rms_error.s": "s",
    "harness.displacement_sample.s": "s",
    "harness.load_csv.s": "s",
    "harness.sample_pairs.s": "s",
    "harness.sweep.s": "s",
    "cli.build.s": "s",
    "cli.embed.s": "s",
    "cli.eval.s": "s",
    "cli.sweep.s": "s",
    "cli.savetxt.s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}


def _rows(x) -> int:
    a = np.asarray(x)
    return 1 if a.ndim == 1 else int(a.shape[0])


def _approx_counts(args, kwargs, result):
    fm, u = args[0], args[1]
    return {"featuremaps.approx.cos_evals": _rows(u) * fm.count}


def _embed_counts(args, kwargs, result):
    fm, X = args[0], args[1]
    return {"featuremaps.embed_batch.rows": _rows(X),
            "featuremaps.embed_batch.cos_evals": _rows(X) * fm.count}


def _anova_embed_counts(args, kwargs, result):
    return {"featuremaps.embed_batch.rows": _rows(args[1])}


def _points(metric: str):
    return lambda args, kwargs, result: {metric: result.count}


# (module, attribute, span name, counter).  Counters return {metric: count}.
FUNCTIONS = (
    ("quad1d", "gauss_hermite", "quad1d.gauss_hermite", None),
    ("grids", "sparse_grid", "grids.sparse_grid",
     _points("grids.sparse_grid.points")),
    ("grids", "dense_grid", "grids.dense_grid", _points("grids.dense_grid.points")),
    ("grids", "subsample_dense_grid", "grids.subsample_dense_grid", None),
    ("solvers", "construct_poly_exact", "solvers.construct_poly_exact",
     _points("solvers.support_points")),
    ("solvers", "bisect_lambda", "solvers.bisect_lambda",
     lambda a, k, r: {"solvers.support_points": r.grid.count}),
    ("featuremaps", "rff", "featuremaps.rff", None),
    ("featuremaps", "qmc_halton", "featuremaps.qmc_halton", None),
    ("featuremaps", "embed_grid_fast", "featuremaps.embed_grid_fast",
     lambda a, k, r: {"featuremaps.embed_grid_fast.rows": _rows(a[1])}),
    ("harness", "build_method_map", "harness.build_method_map", None),
    ("harness", "build_anova_map", "harness.build_anova_map", None),
    ("harness", "error_stats", "harness.error_stats", None),
    ("harness", "rms_error", "harness.rms_error", None),
    ("harness", "displacement_sample", "harness.displacement_sample", None),
    ("harness", "load_csv", "harness.load_csv", None),
    ("harness", "sample_pairs", "harness.sample_pairs", None),
    ("harness", "sweep", "harness.sweep", None),
    ("cli", "cmd_build", "cli.build", None),
    ("cli", "cmd_embed", "cli.embed", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_sweep", "cli.sweep", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("featuremaps", "FeatureMap", "approx", "featuremaps.approx", _approx_counts),
    ("featuremaps", "AnovaFeatureMap", "approx", "featuremaps.approx", None),
    ("featuremaps", "FeatureMap", "embed_batch", "featuremaps.embed_batch",
     _embed_counts),
    ("featuremaps", "AnovaFeatureMap", "embed_batch", "featuremaps.embed_batch",
     _anova_embed_counts),
    ("kernels", "GaussianKernel", "value", "kernels.value",
     lambda a, k, r: {"kernels.value.rows": _rows(a[1])}),
    ("kernels", "AnovaKernel", "value", "kernels.value",
     lambda a, k, r: {"kernels.value.rows": _rows(a[1])}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


def _savetxt_counts(args, kwargs, result):
    return {"cli.bytes_written": os.path.getsize(args[0])}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            # a span nested in one of the same name (an ANOVA map calling its
            # sub-maps) adds work counts but not rows: the rows are the outer's
            nested = any(tracer.spans[i].name == name for i in tracer._stack)
            span = Span(name, time.perf_counter(), parent=parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counts = counter(args, kwargs, result)
                if nested:
                    counts = {k: v for k, v in counts.items()
                              if not k.endswith(".rows")}
                span.counts = counts
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.spans, self._stack = [], []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "quadfeat" or name.startswith("quadfeat.")]
        for mod_name, attr, name, counter in FUNCTIONS:
            orig = getattr(importlib.import_module(f"quadfeat.{mod_name}"), attr)
            traced = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, traced)
        for mod_name, cls_name, attr, name, counter in METHODS:
            cls = getattr(importlib.import_module(f"quadfeat.{mod_name}"), cls_name)
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], counter))
        # quadfeat.cli.cmd_embed is the package's one caller of np.savetxt
        self._replace(np, "savetxt",
                      self._wrap("cli.savetxt", np.savetxt, _savetxt_counts))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def aggregate(self) -> dict:
        """Per-name self time (``.s``), call count (``.calls``) and counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span.name + ".s"] += span.end - span.start - child[i]
            out[span.name + ".calls"] += 1
            for key, value in span.counts.items():
                out[key] += value
        return {k: (int(v) if not k.endswith(".s") else v) for k, v in out.items()}

    def layer_self_times(self) -> dict:
        totals = self.aggregate()
        return {layer: sum(v for k, v in totals.items()
                           if k.startswith(layer + ".") and k.endswith(".s"))
                for layer in LAYERS}

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
                for s in self.spans]
