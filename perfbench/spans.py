"""Outside-in tracing: spans around the public functions of each module.

The tracer replaces module attributes at the call sites the package
itself uses (``quality.compress``, ``reduction.truncate``, ...) with
timing wrappers, and puts the originals back afterwards; nothing under
``src/`` changes.  Spans stay in memory until the run ends.  A span's
name is the layer metric it feeds, so the per-layer report is the self
time of each name: the span's duration minus that of its direct
children.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from eigensieve import cli, constrained, experiments, problems, quality, reduction

ROOT = "trace.untraced"


def _count_report(counts, args, result):
    counts["quality.reports"] += 1
    counts["quality.modes"] += len(result.modes)


def _count_stack(counts, args, result):
    counts["constrained.stack_rows"] += result.entries.shape[0]


def _count_model(counts, args, result):
    counts["reduction.models"] += 1
    counts["reduction.retained"] += result.size
    counts["reduction.scored"] += len(args[0].modes)


def _count_rk4(counts, args, result):
    counts["reduction.rk4_steps"] += len(result.times) - 1


def _counter(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


# (module, attribute, span name, counter): every site where the package
# or the benchmark looks a public function up at call time.
SITES = [
    (cli, "main", "cli.self", None),
    (quality, "quality_report", "quality.score", _count_report),
    (experiments, "quality_report", "quality.score", _count_report),
    (reduction, "quality_report", "quality.score", _count_report),
    (quality, "eigenpairs", "quality.eig", None),
    (quality, "compress", "constrained.compress", _counter("constrained.calls")),
    (experiments, "compress", "constrained.compress", _counter("constrained.calls")),
    (constrained, "compress", "constrained.compress", _counter("constrained.calls")),
    (constrained, "observability", "constrained.observability", _count_stack),
    (constrained, "nullspace_basis", "constrained.nullspace", None),
    (experiments, "k_sweep", "experiments.self", None),
    (experiments, "k_quality_sweep", "experiments.self", None),
    (experiments, "eigvals", "experiments.eigvals", None),
    (experiments, "match_to_reference", "experiments.match", _counter("experiments.depths")),
    (reduction, "reduction_sweep", "reduction.self", None),
    (reduction, "truncate", "reduction.truncate", _count_model),
    (reduction, "simulate_modal", "reduction.simulate_modal", None),
    (reduction, "simulate_rk4", "reduction.rk4", _count_rk4),
    (reduction, "relative_l2_error", "reduction.error", None),
    (reduction, "acoustic_wave", "problems.build", None),
    (reduction, "acoustic_reference", "problems.reference", None),
    (reduction, "clenshaw_curtis", "chebyshev.busy", None),
    (problems, "cheb_points", "chebyshev.busy", None),
    (problems, "cheb_diff", "chebyshev.busy", None),
    (problems, "diff_power", "chebyshev.busy", None),
]

TIMES = sorted({name for _, _, name, _ in SITES} | {ROOT})
COUNTS = [
    "quality.reports", "quality.modes", "constrained.calls", "constrained.stack_rows",
    "experiments.depths", "reduction.models", "reduction.rk4_steps", "cli.bytes_out",
]


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, op]
        self.counts: Counter = Counter()
        self.ops = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter(), None, self.ops])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def op(self):
        """Trace one op: install every wrapper, open the root span, restore."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in SITES]
        registry = dict(problems.REGISTRY)
        try:
            for module, attr, name, count in SITES:
                setattr(module, attr, self._wrap(getattr(module, attr), name, count))
            for key, prob in registry.items():
                cover = prob.reference_cover
                problems.REGISTRY[key] = dataclasses.replace(
                    prob,
                    build=self._wrap(prob.build, "problems.build", None),
                    reference_cover=cover and self._wrap(cover, "problems.reference", None),
                )
            with self.span(ROOT):
                yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            problems.REGISTRY.update(registry)
            self.ops += 1

    def self_times(self) -> dict[str, float]:
        """Total self time of each span name over all traced ops."""
        total = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total

    def summary(self) -> dict[str, float]:
        """Per-op means of every layer time and count."""
        ops = max(self.ops, 1)
        self_times = self.self_times()
        out = {f"{name}_s": self_times.get(name, 0.0) / ops for name in TIMES}
        out.update({name: self.counts[name] / ops for name in COUNTS})
        scored = self.counts["reduction.scored"]
        out["reduction.retained_ratio"] = self.counts["reduction.retained"] / scored if scored else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "op"], "spans": self.spans}, fh)
