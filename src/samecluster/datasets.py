"""Labeled CSV ingestion with per-feature standardization."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import PointSet


class DatasetError(ValueError):
    pass


@dataclass
class DatasetSpec:
    path: str | Path
    label_column: int | str = -1
    delimiter: str = ","
    has_header: bool = False
    normalize: bool = True


def load(spec: DatasetSpec):
    """Read a labeled CSV into a PointSet.

    A feature that is not a finite number is an error citing its file line.
    Constant (zero-variance) feature columns are dropped; remaining features
    are standardized to mean 0 / population SD 1 when spec.normalize. Labels
    map to dense 1..L ids by first occurrence. Returns (PointSet, mapping).
    """
    path = Path(spec.path)
    rows: list[list[str]] = []
    linenos: list[int] = []         # the file line each row ends on
    header: list[str] | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if spec.has_header and header is None:
                header = [c.strip() for c in row]
                continue
            rows.append([c.strip() for c in row])
            linenos.append(reader.line_num)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    width = len(rows[0])

    if isinstance(spec.label_column, str):
        if header is None:
            raise DatasetError("label column named but the file has no header")
        try:
            label_idx = header.index(spec.label_column)
        except ValueError:
            raise DatasetError(f"label column {spec.label_column!r} not in header")
    elif -width <= spec.label_column < width:
        label_idx = spec.label_column % width
    else:
        raise DatasetError(f"label column {spec.label_column} outside a {width}-field row")

    features = np.empty((len(rows), width - 1), dtype=np.float64)
    raw_labels: list[str] = []
    for i, (row, lineno) in enumerate(zip(rows, linenos)):
        if len(row) != width:
            raise DatasetError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        feat = [c for j, c in enumerate(row) if j != label_idx]
        try:
            features[i] = [float(c) for c in feat]
        except ValueError as e:
            raise DatasetError(f"{path}:{lineno}: unparseable numeric value ({e})")
        raw_labels.append(row[label_idx])
    # A nan or inf would make its column's max or min NaN, and the column
    # would be dropped below as if it were constant.
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        i, j = bad[0]
        raise DatasetError(f"{path}:{linenos[i]}: non-finite numeric value ({features[i, j]})")

    # Constant means max == min: a constant column's std can be a rounding
    # error above 0, as the float mean of 0.1s need not be 0.1.
    keep = features.max(axis=0) > features.min(axis=0)
    if not keep.any():
        raise DatasetError(f"{path}: every feature column is constant")
    features = features[:, keep]
    if spec.normalize:
        features = (features - features.mean(axis=0)) / features.std(axis=0)

    mapping: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        labels[i] = mapping.setdefault(lab, len(mapping) + 1)
    return PointSet(features, labels=labels), mapping


def write_csv(path, points: np.ndarray, labels, header: bool = False,
              delimiter: str = ","):
    """Write a dataset in the loadable format: feature columns, label last."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if header:
            writer.writerow([f"f{i}" for i in range(points.shape[1])] + ["label"])
        for row, lab in zip(points, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
