"""Spans around the program's public functions, installed from outside it.

Each hook replaces a function that a graphclean module looks up by name at
call time, so a span opens and closes at the boundary between two layers.
Spans stay in memory as ``[name, parent, start, end, maxrss_before_kb,
maxrss_after_kb]`` and are written out when the run ends; self times and
per-layer totals are derived from them afterwards by :func:`summarize`.
"""

from __future__ import annotations

import functools
import resource
import time

# (module, attribute, span name); a span is named after the module that
# owns the function, whichever module's name for it was wrapped
HOOKS = (
    ("cli", "run_pipeline", "pipeline.run_pipeline"),
    ("cli", "load_bundle", "datasets.load_bundle"),
    ("cli", "load_splits", "datasets.load_splits"),
    ("cli", "save_bundle", "datasets.save_bundle"),
    ("cli", "denoise", "denoise.denoise"),
    ("cli", "laplacian_from_weights", "operators.laplacian_from_weights"),
    ("pipeline", "run_repetition", "pipeline.run_repetition"),
    ("pipeline", "generate_sbm", "datasets.generate_sbm"),
    ("pipeline", "load_bundle", "datasets.load_bundle"),
    ("pipeline", "load_splits", "datasets.load_splits"),
    ("pipeline", "split_nodes", "datasets.split_nodes"),
    ("pipeline", "random_add", "attacks.random_add"),
    ("pipeline", "heterophilic_add", "attacks.heterophilic_add"),
    ("pipeline", "perturbation_report", "attacks.perturbation_report"),
    ("pipeline", "pairwise_p_distances", "denoise.pairwise_p_distances"),
    ("pipeline", "denoise", "denoise.denoise"),
    ("pipeline", "laplacian_from_weights", "operators.laplacian_from_weights"),
    ("pipeline", "adjacency_from_weights", "operators.adjacency_from_weights"),
    ("pipeline", "normalize_adjacency", "gcn.normalize_adjacency"),
    ("pipeline", "train", "gcn.train"),
    ("denoise", "pairwise_p_distances", "denoise.pairwise_p_distances"),
    ("denoise", "objective", "denoise.objective"),
    ("denoise", "laplacian_from_weights", "operators.laplacian_from_weights"),
    ("denoise", "adjoint_of", "operators.adjoint_of"),
    ("gcn", "loss_and_gradients", "gcn.loss_and_gradients"),
    ("gcn", "forward", "gcn.forward"),
    ("gcn", "xavier_params", "gcn.xavier_params"),
)

ROOT = "cli.main"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                      _maxrss_kb(), 0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                record[5] = _maxrss_kb()
                self._stack.pop()
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every hook whose function exists; note the others as missing
        so a renamed function costs one metric, not the run."""
        for module, attr, name in HOOKS:
            fn = getattr(modules.get(module), attr, None)
            if callable(fn):
                setattr(modules[module], attr, self.wrap(name, fn))
            else:
                self.missing.append(f"{module}.{attr}")


def summarize(spans: list) -> dict:
    """Per-name totals, counts and self times; per-layer maxrss growth.

    Self time is a span's duration minus that of its direct children.  A
    layer's growth sums spans whose parent lies in another layer, so nested
    spans of one layer are not counted twice.
    """
    total, count, self_s = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    growth_mb = {}
    for i, (name, parent, start, end, rss0, rss1) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        layer = name.split(".", 1)[0]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            growth_mb[layer] = growth_mb.get(layer, 0.0) + (rss1 - rss0) / 1024.0
    return {"total_s": total, "calls": count, "self_s": self_s,
            "rss_growth_mb": growth_mb}
