"""Per-column integer binning of a feature matrix into one flat code space.

Features are binned once per fold: each column is rank-coded (np.unique), so
it has one bin per distinct value present. Every column's bins live in one
flat code space, ordered by feature, then ascending value, so "first max"
over a node's flat bins is the deterministic tie-break: lowest feature
index, then lowest threshold. The bins of the first k columns are a prefix
of the flat code space, so one binning serves every column prefix. The
level-wise grower in `tree.py` builds its histograms over these codes.

Splits are `feature <= t` with t the midpoint between consecutive distinct
values present at the node, so integer features give a finite, exact set.
"""

from __future__ import annotations

import numpy as np


class BinnedMatrix:
    """Per-column integer binning of a feature matrix, shared across rounds/nodes."""

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        self.n, self.d = X.shape
        offsets = [0]
        codes = np.empty_like(X)
        values: list[np.ndarray] = []
        for j in range(self.d):
            uniq, codes[:, j] = np.unique(X[:, j], return_inverse=True)
            values.append(uniq.astype(np.float64))
            offsets.append(offsets[-1] + len(values[-1]))
        self.offsets = np.asarray(offsets, dtype=np.int64)  # segment bounds, len d+1
        self.n_bins = int(self.offsets[-1])
        self.bin_values = np.concatenate(values)
        self.col_of_bin = np.repeat(np.arange(self.d, dtype=np.int64), np.diff(self.offsets))
        self.flat_codes = codes + self.offsets[:-1][np.newaxis, :]
        # flat index of the first bin of each bin's column
        self.seg_start = self.offsets[self.col_of_bin]

    def prefix(self, k: int) -> "BinnedMatrix":
        """The binning of the first k columns, as views of this matrix's arrays (no new np.unique)."""
        if not 1 <= k <= self.d:
            raise ValueError(f"column prefix {k} must lie in 1..{self.d}")
        view = object.__new__(BinnedMatrix)
        end = int(self.offsets[k])
        view.n, view.d, view.n_bins = self.n, k, end
        view.offsets, view.flat_codes = self.offsets[: k + 1], self.flat_codes[:, :k]
        for name in ("bin_values", "col_of_bin", "seg_start"):  # one entry per flat bin
            setattr(view, name, getattr(self, name)[:end])
        return view

    def scan(self, idx: np.ndarray, weights: tuple[np.ndarray, ...]):
        """Per flat bin: node row counts, left-cumulative counts and weight sums.

        `weights` entries must already be sliced to the node rows (same order
        as idx). Returns (counts, left_counts, left_sums, valid) where valid
        marks bins usable as split points (occupied, with rows on both sides).
        Only the per-node test references call it, and perfbench/tracing.py
        rebinds it by name: renaming or removing it breaks every traced run.
        """
        fc = self.flat_codes[idx].ravel()
        counts = np.bincount(fc, minlength=self.n_bins)
        cum = np.concatenate(([0], np.cumsum(counts)))
        left_counts = cum[1:] - cum[self.seg_start]
        left_sums = []
        for w in weights:
            ws = np.bincount(fc, weights=np.repeat(w, self.d), minlength=self.n_bins)
            wcum = np.concatenate(([0.0], np.cumsum(ws)))
            left_sums.append(wcum[1:] - wcum[self.seg_start])
        valid = (counts > 0) & (left_counts < len(idx))
        return counts, left_counts, left_sums, valid

    def split_at(self, flat_bin: int, counts: np.ndarray) -> tuple[int, float]:
        """Resolve a chosen flat bin to (feature index, midpoint threshold); kept for the same callers as `scan`."""
        j = int(self.col_of_bin[flat_bin])
        seg_end = int(self.offsets[j + 1])
        nxt = flat_bin + 1 + int(np.argmax(counts[flat_bin + 1 : seg_end] > 0))
        return j, (self.bin_values[flat_bin] + self.bin_values[nxt]) / 2.0
