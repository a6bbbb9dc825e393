"""Per-layer tracing for the benchmark, done from outside the program.

Nothing under src/ knows about this module. While a `Tracer` is installed
it replaces each traced vidseg function at every place a vidseg module
binds it (the defining module, and every module that did
`from .x import f`), records one span per call, and restores the original
bindings on exit. Counters are taken from the arguments and results of the
traced calls after the span closes, so their cost lands in the tracing
overhead, not in the layer's time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (defining module, traced functions); each span is `<layer>.<function>_s`
TRACED = {
    "mrf": ("vidseg.mrf", ("solve_binary", "build_problem", "rasterize")),
    "gmm": ("vidseg.gmm", ("fit_gmm",)),
    "graph": (
        "vidseg.graph",
        ("build_graph", "spatial_edges", "temporal_edges", "motion_reliability", "assemble"),
    ),
    "video": (
        "vidseg.video",
        ("load_video", "load_superpixels", "load_flow", "load_mask", "compute_superpixel_stats"),
    ),
    "pipeline": (
        "vidseg.pipeline",
        (
            "load_inputs",
            "pool_stage",
            "adapt_stage",
            "segment_stage",
            "eval_stage",
            "write_confidence_csv",
            "read_confidence_csv",
        ),
    ),
    "proposals": (
        "vidseg.proposals",
        ("load_proposal_manifest", "score_proposals", "pool_confidence", "filter_by_confidence"),
    ),
    "propagation": ("vidseg.propagation", ("propagate",)),
    "evaluation": ("vidseg.evaluation", ("render_overlay",)),
    "pnm": ("vidseg.pnm", ("write_pgm", "write_ppm")),
}

# The pipeline stages: every stage span sits directly under a CLI command,
# so together they show how much of a traced run the layers account for.
STAGE_SPANS = tuple(f"pipeline.{name}_s" for name in TRACED["pipeline"][1])


def _with_history(kwargs):
    return kwargs if "history" in kwargs else {**kwargs, "history": []}


def _count_fit_gmm(tracer, args, kwargs, result):
    tracer.add("gmm.em_iterations", len(kwargs["history"]))
    tracer.add("gmm.samples", len(args[0]))


def _count_solve_binary(tracer, args, kwargs, result):
    from vidseg.mrf import mrf_energy

    tracer.add("mrf.energy", mrf_energy(args[0], result.labels))


def _count_build_graph(tracer, args, kwargs, result):
    tracer.add("graph.builds", 1)
    tracer.add("graph.nodes", result.n_nodes)
    tracer.add("graph.edges", len(result.spatial_i) + len(result.temporal_i))


def _count_propagate(tracer, args, kwargs, result):
    from vidseg.propagation import stationarity_residual

    graph, c, cfg = args
    tracer.add("propagation.iterations", result.iterations)
    tracer.peak("propagation.residual", stationarity_residual(result.x, graph, c, cfg.mu))


def _count_filter(tracer, args, kwargs, result):
    tracer.add("proposals.scored", len(args[0]))
    tracer.add("proposals.retained", len(result))


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.add("pipeline.confidence_csv_bytes", os.path.getsize(args[0]))


def _count_pnm_bytes(tracer, args, kwargs, result):
    tracer.add("pnm.bytes_written", os.path.getsize(args[0]))


# function -> (rewrite of keyword arguments before the call, counter after it)
HOOKS = {
    ("vidseg.gmm", "fit_gmm"): (_with_history, _count_fit_gmm),
    ("vidseg.mrf", "solve_binary"): (None, _count_solve_binary),
    ("vidseg.graph", "build_graph"): (None, _count_build_graph),
    ("vidseg.propagation", "propagate"): (None, _count_propagate),
    ("vidseg.proposals", "filter_by_confidence"): (None, _count_filter),
    ("vidseg.pipeline", "write_confidence_csv"): (None, _count_csv_bytes),
    ("vidseg.pnm", "write_pgm"): (None, _count_pnm_bytes),
    ("vidseg.pnm", "write_ppm"): (None, _count_pnm_bytes),
}


class Tracer:
    """Spans and counters of one traced repeat."""

    def __init__(self):
        self.totals = defaultdict(float)  # span name -> summed seconds
        self.counts = defaultdict(float)
        self._saved = []

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - start

    def _wrap(self, fn, name, prepare, count):
        def traced(*args, **kwargs):
            if prepare is not None:
                kwargs = prepare(kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded vidseg module."""
        for module_name, _ in TRACED.values():
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "vidseg" or n.startswith("vidseg.")]
        for layer, (module_name, functions) in TRACED.items():
            for function in functions:
                original = getattr(sys.modules[module_name], function)
                prepare, count = HOOKS.get((module_name, function), (None, None))
                wrapper = self._wrap(original, f"{layer}.{function}_s", prepare, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def metrics(self):
        """Span totals and counters as flat per-layer metric values."""
        out = dict(self.totals)
        out.update(self.counts)
        scored = self.counts.get("proposals.scored", 0)
        out["proposals.retained_ratio"] = self.counts["proposals.retained"] / scored if scored else 0.0
        out["trace.stage_s"] = sum(self.totals.get(name, 0.0) for name in STAGE_SPANS)
        return out
