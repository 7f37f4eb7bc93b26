"""Per-layer tracing from outside the program.

The traced run wraps erfe's layer functions under the names each calling
module binds (``erfe.cli.read_panel_csv``, ``erfe.estimator.spd_solve``,
...), then calls ``erfe.cli.main`` in this process.  Each wrapped call
records a span (name, start, end, parent) in memory; spans are written out
once the run ends.  A layer's self time is its spans' duration minus the
time covered by their direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# Span name -> (attribute, modules that bind it and call it).  Only the
# bindings through which calls cross into the layer are wrapped, so calls
# a module makes to its own helpers stay inside the caller's span, except
# where a listed module calls its own public function by its global name.
BINDINGS = {
    "panel.read_panel_csv": ("read_panel_csv", ("erfe.cli",)),
    "panel.assemble": ("_assemble_panel", ("erfe.cli", "erfe.montecarlo")),
    "within.subject_weights": ("subject_weights", ("erfe.cli", "erfe.estimator", "erfe.covariance")),
    "within.apply_within": ("apply_within", ("erfe.cli", "erfe.estimator", "erfe.covariance")),
    "within.pooled_subject_weights": ("pooled_subject_weights", ("erfe.estimator", "erfe.covariance")),
    "within.apply_pooled_within": ("apply_pooled_within", ("erfe.estimator",)),
    "estimator.fit_erfe_single": ("fit_erfe_single", ("erfe.cli", "erfe.montecarlo")),
    "estimator.fit_erfe_multi": ("fit_erfe_multi", ("erfe.cli", "erfe.montecarlo")),
    "estimator.pooled_transform": ("pooled_transform", ("erfe.covariance",)),
    "estimator.recover_fixed_effects": ("recover_fixed_effects", ("erfe.estimator",)),
    "expectiles.expectile_regression": ("expectile_regression", ("erfe.estimator",)),
    "expectiles.distribution_expectile": ("distribution_expectile", ("erfe.montecarlo",)),
    "linalg.spd_solve": ("spd_solve", ("erfe.estimator", "erfe.expectiles")),
    "covariance.sandwich_single": ("sandwich_single", ("erfe.cli", "erfe.montecarlo")),
    "covariance.sandwich_multi": ("sandwich_multi", ("erfe.cli", "erfe.montecarlo")),
    "montecarlo.generate_dgp": ("generate_dgp", ("erfe.montecarlo",)),
    "montecarlo.run_monte_carlo": ("run_monte_carlo", ("erfe.cli",)),
}
ROOT = "cli"


class Tracer:
    """Spans and iteration counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.iterations: Counter = Counter()
        self._open: list[int] = []
        self.missing: set[str] = set()

    def _open_span(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _close_span(self, index):
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # A fit that runs out of rounds still did its rounds.
                self._count(name, getattr(exc, "result", None))
                raise
            finally:
                self._close_span(index)
            self._count(name, result)
            return result
        return traced

    def _count(self, name, result):
        iterations = getattr(result, "iterations", None)
        if isinstance(iterations, int):
            self.iterations[name] += iterations

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS that exists; restore them on exit.

        Bindings that no longer exist are listed in ``missing``, so a
        refactor that moves a call shows up instead of silently reading 0.
        """
        originals = []
        try:
            for name, (attr, modules) in BINDINGS.items():
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if callable(fn):
                        originals.append((module, attr, fn))
                        setattr(module, attr, self.wrap(name, fn))
                    else:
                        self.missing.add(f"{module_name}.{attr}")
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self):
        """Per span name: total seconds, self seconds and call count."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child_s[index]
            calls[name] += 1
        return total, self_s, calls

    def child_seconds(self, parent_name, child_name) -> float:
        """Time in ``child_name`` spans whose direct parent is ``parent_name``."""
        return sum(end - start for name, start, end, parent in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)
