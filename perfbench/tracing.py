"""In-memory span tracing around the names fbcsurv's layers call through.

Nothing in the package is edited: `traced(tracer)` rebinds module attributes
(and three `BinnedMatrix` methods) to timing wrappers for the duration of a
`with` block, then restores the originals. Spans are kept in a list and
written out once, after the traced work has finished.

A span is (name, start, end, parent id, run id). Its layer is the name up to
the last dot, so `classifiers.gbt.fit` belongs to `classifiers.gbt` and
`cli.evaluate` to `cli`. Self time is the span's duration minus the time its
children cover; children never overlap because the traced work runs on one
thread.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

import numpy as np

# family value -> layer module name
FAMILY_LAYER = {"decision_tree": "tree", "adaboost": "adaboost", "gbt": "gbt"}

LAYERS = (
    "cli",
    "cohort",
    "synth",
    "labeling",
    "features",
    "selection",
    "evaluation",
    "classifiers.splits",
    "classifiers.tree",
    "classifiers.adaboost",
    "classifiers.gbt",
    "trace",
)

# (module, attribute, span name) for plain functions called through a module global
_FUNCTION_SPANS = (
    ("fbcsurv.cli", "read_cohort", "cohort.read"),
    ("fbcsurv.cli", "write_cohort", "cohort.write"),
    ("fbcsurv.cli", "apply_inclusion_filters", "cohort.filter"),
    ("fbcsurv.cli", "apply_followup_filter", "cohort.filter"),
    ("fbcsurv.cli", "generate", "synth.generate"),
    ("fbcsurv.cli", "write_generator_config", "synth.write"),
    ("fbcsurv.cli", "label_cohort", "labeling.label"),
    ("fbcsurv.cli", "write_labels_csv", "labeling.write"),
    ("fbcsurv.cli", "build_matrix", "features.build"),
    ("fbcsurv.cli", "write_features_csv", "features.write"),
    ("fbcsurv.cli", "read_features_csv", "features.read"),
    ("fbcsurv.cli", "write_ranking_csv", "selection.write"),
    ("fbcsurv.cli", "cohort_stats", "evaluation.stats"),
    ("fbcsurv.cli", "run_sweep", "evaluation.sweep"),
    ("fbcsurv.cli", "write_results_csv", "evaluation.write"),
    ("fbcsurv.cli", "write_summary_csv", "evaluation.write"),
    ("fbcsurv.cli", "write_consistency_csv", "evaluation.write"),
    ("fbcsurv.cli", "write_stats_csv", "evaluation.write"),
    ("fbcsurv.evaluation", "label_cohort", "labeling.label"),
    ("fbcsurv.evaluation", "build_matrix", "features.build"),
    ("fbcsurv.evaluation", "rank_features", "selection.rank"),
    ("fbcsurv.selection", "rank_features", "selection.rank"),
)


class Tracer:
    """Span store plus the exact work counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counts: Counter = Counter()
        self.fit_rounds_allowed = 0
        self.fit_rounds_used = 0
        self.pattern_ratios: list[float] = []
        self._last_X = None

    def open(self) -> tuple[int, float]:
        i = len(self.spans)
        self.spans.append(None)
        self.stack.append(i)
        return i, time.perf_counter()

    def close(self, name: str, i: int, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[i] = (name, start, end, self.stack[-1] if self.stack else -1, self.run_id)

    @contextlib.contextmanager
    def span(self, name: str):
        i, start = self.open()
        try:
            yield
        finally:
            self.close(name, i, start)

    def wrap(self, fn, name: str):
        def traced_call(*args, **kwargs):
            i, start = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, i, start)

        return traced_call

    def note_pattern_ratio(self, X: np.ndarray, y: np.ndarray) -> None:
        """Distinct (x, y) training rows / training rows, once per training matrix."""
        if X is self._last_X:
            return
        self._last_X = X
        with self.span("trace.patterns"):
            rows = np.column_stack([np.asarray(X, dtype=np.int64), np.asarray(y, dtype=np.int64)])
            self.pattern_ratios.append(len(np.unique(rows, axis=0)) / len(rows))

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[tuple[str, float, float]]:
        """(name, duration, self time) per span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (name, end - start, end - start - child_time[i])
            for i, (name, start, end, _, _) in enumerate(self.spans)
        ]

    def write(self, path) -> None:
        lines = ["id\tname\tstart\tend\tparent\trun"]
        lines += [
            f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{run}"
            for i, (name, start, end, parent, run) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind the layer boundaries to span-recording wrappers; restore on exit."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for module_name, attr, name in _FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        patch(module, attr, tracer.wrap(getattr(module, attr), name))

    evaluation = importlib.import_module("fbcsurv.evaluation")
    BinnedMatrix = importlib.import_module("fbcsurv.classifiers.splits").BinnedMatrix

    fit_model = evaluation.fit_model
    predict = evaluation.predict
    counts = tracer.counts

    def traced_fit(family, X, y, hp, feature_names=None):
        tracer.note_pattern_ratio(X, y)
        name = f"classifiers.{FAMILY_LAYER[family.value]}.fit"
        i, start = tracer.open()
        try:
            model = fit_model(family, X, y, hp, feature_names)
        finally:
            tracer.close(name, i, start)
        if family.value == "adaboost":
            tracer.fit_rounds_allowed += hp.ada_rounds
            tracer.fit_rounds_used += len(model.model.stumps)
        return model

    def traced_predict(model, X, columns=None):
        name = f"classifiers.{FAMILY_LAYER[model.family.value]}.predict"
        i, start = tracer.open()
        try:
            return predict(model, X, columns)
        finally:
            tracer.close(name, i, start)

    patch(evaluation, "fit_model", traced_fit)
    patch(evaluation, "predict", traced_predict)

    bin_init = BinnedMatrix.__init__
    scan = BinnedMatrix.scan
    split_at = BinnedMatrix.split_at

    def traced_scan(self, idx, weights):
        counts["classifiers.splits.scan_rows"] += len(idx)
        i, start = tracer.open()
        try:
            return scan(self, idx, weights)
        finally:
            tracer.close("classifiers.splits.scan", i, start)

    def counted_split_at(self, flat_bin, bin_counts):
        # every split search calls split_at exactly when its scan yielded an accepted split
        counts["classifiers.splits.split_at"] += 1
        return split_at(self, flat_bin, bin_counts)

    patch(BinnedMatrix, "__init__", tracer.wrap(bin_init, "classifiers.splits.bin"))
    patch(BinnedMatrix, "scan", traced_scan)
    patch(BinnedMatrix, "split_at", counted_split_at)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
