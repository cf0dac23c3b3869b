"""Synthetic regression data, CSV ingestion, normalization, and splits."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, DimensionError, GenerationError, ParseError
from .kernels import as_sample_matrix

_RESAMPLE_ROUNDS = 200


@dataclass
class Dataset:
    """Feature matrix, single-column targets, optional normalization record.

    ``normalization`` maps column statistics for features and target:
    {"feature_min": [...], "feature_max": [...], "target_min": m,
    "target_max": M}; invertible via :func:`denormalize_targets`.
    """

    features: np.ndarray
    targets: np.ndarray
    normalization: dict | None = None
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.features = as_sample_matrix(self.features, "features")
        self.targets = as_sample_matrix(self.targets, "targets")
        if self.features.shape[0] != self.targets.shape[0]:
            raise DimensionError("features and targets must have equal row counts")
        if self.targets.shape[1] != 1:
            raise DimensionError("targets must be a single column")
        if not self.feature_names:
            self.feature_names = [f"x{i}" for i in range(self.features.shape[1])]

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    def take(self, indices) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.targets[indices],
            normalization=self.normalization,
            feature_names=list(self.feature_names),
        )


def gen_synthetic(n: int, d: int = 30, seed: int = 0) -> Dataset:
    """Nonlinear regression data: y = sin(w.x) + log2(w.x) on w.x > 0.

    x rows are standard Gaussian and w is drawn once; rows with
    w.x <= 0 (where log2 is undefined) are rejection-resampled, so every
    retained row satisfies w.x > 0.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    w = rng.standard_normal(d, seed, 11)
    rows = np.empty((n, d))
    filled = 0
    for attempt in range(_RESAMPLE_ROUNDS):
        need = n - filled
        if need == 0:
            break
        draw = rng.standard_normal((need, d), seed, 12, attempt)
        keep = draw @ w > 0.0
        kept = draw[keep]
        rows[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    else:
        raise GenerationError(
            f"could not draw {n} rows with positive projection in "
            f"{_RESAMPLE_ROUNDS} rounds"
        )
    proj = rows @ w
    y = np.sin(proj) + np.log2(proj)
    return Dataset(rows, y.reshape(-1, 1))


def _read_numeric_csv(path: str, target_col: str | None = None):
    """Stripped header and float64 rows of a headered numeric CSV.

    Each row converts with ``map(float, row)``; only a row that fails is
    scanned again, to name its first bad cell.  With ``target_col``, the
    header must name it.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        if target_col is not None and target_col not in header:
            raise ParseError(f"{path}: target column {target_col!r} not in header {header}")
        rows: list = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                for col_idx, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}: non-numeric cell at row {row_num}, "
                            f"column {header[col_idx]!r}: {cell!r}"
                        ) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.array(rows)


def load_csv(path: str, target_col: str) -> Dataset:
    """Load a numeric CSV with a header row; target column by name."""
    header, values = _read_numeric_csv(path, target_col)
    target_idx = header.index(target_col)
    return Dataset(
        np.delete(values, target_idx, axis=1),
        values[:, target_idx : target_idx + 1],
        feature_names=[h for i, h in enumerate(header) if i != target_idx],
    )


def load_matrix(path: str) -> np.ndarray:
    """Load a headered numeric CSV as a plain sample matrix (all columns)."""
    return _read_numeric_csv(path)[1]


def save_csv(path: str, ds: Dataset, target_col: str = "y") -> None:
    """Write a dataset back out in the load_csv format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(ds.feature_names) + [target_col])
        for xi, yi in zip(ds.features, ds.targets):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi[0]))])


def fit_minmax(ds: Dataset) -> dict:
    """Per-column min/max statistics; constant columns are flagged."""
    fmin = ds.features.min(axis=0)
    fmax = ds.features.max(axis=0)
    return {
        "feature_min": fmin.tolist(),
        "feature_max": fmax.tolist(),
        "target_min": float(ds.targets.min()),
        "target_max": float(ds.targets.max()),
    }


def minmax_normalize(ds: Dataset, record: dict | None = None) -> Dataset:
    """Map every column to [0, 1].

    Statistics come from ``record`` when given (computed on a training
    split) and from ``ds`` itself otherwise.  Constant columns are left
    at 0 with a warning.
    """
    if record is None:
        record = fit_minmax(ds)
    fmin = np.array(record["feature_min"])
    fmax = np.array(record["feature_max"])
    span = fmax - fmin
    constant = span == 0
    if np.any(constant):
        warnings.warn(
            f"{int(constant.sum())} constant feature column(s) left at 0",
            stacklevel=2,
        )
    safe_span = np.where(constant, 1.0, span)
    features = (ds.features - fmin) / safe_span
    features[:, constant] = 0.0
    t_span = record["target_max"] - record["target_min"]
    if t_span == 0:
        warnings.warn("constant target column left at 0", stacklevel=2)
        targets = np.zeros_like(ds.targets)
    else:
        targets = (ds.targets - record["target_min"]) / t_span
    return Dataset(features, targets, normalization=record, feature_names=list(ds.feature_names))


def denormalize_targets(values: np.ndarray, record: dict) -> np.ndarray:
    """Invert the target part of a min/max record."""
    span = record["target_max"] - record["target_min"]
    return np.asarray(values) * span + record["target_min"]


def split(ds: Dataset, fractions=(0.7, 0.1, 0.2), seed: int = 0):
    """Seeded permutation partition into len(fractions) disjoint datasets.

    Sizes are floor(f_i * N), with the remainder distributed one row at
    a time to the parts with the largest fractional remainders (ties
    resolved in declaration order).
    """
    fractions = [float(f) for f in fractions]
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be nonnegative and sum to 1, got {fractions}")
    n = ds.rows
    raw = [f * n for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    remainder = n - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in order[:remainder]:
        sizes[i] += 1
    if any(size == 0 for size in sizes):
        raise ConfigError(f"fractions {fractions} yield an empty part for N={n}")
    perm = rng.permutation(n, seed, 31)
    parts = []
    start = 0
    for size in sizes:
        parts.append(ds.take(perm[start : start + size]))
        start += size
    return tuple(parts)
