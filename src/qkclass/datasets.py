"""Dataset file handling and seeded toy-set generation.

Two interchangeable on-disk formats:

* CSV: one row per datum, feature columns then the label column last.
  Complex entries are written/read as ``a+bi`` strings, bare reals are fine.
* JSON: a list of rows ``[features, label]`` or ``[features, label, weight]``
  where a feature is a number or an ``[re, im]`` pair.

Feature vectors must be homogeneous in length and labels must be 0 or 1.
Validation errors name the offending row and column (1-based).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import TOY_KINDS, check_dense_budget, check_seed
from .errors import DataError
from .fileio import dump_json, read_json


@dataclass(frozen=True)
class DatasetFile:
    """In-memory dataset: complex features (M, N), labels, optional weights."""

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("one label per row required")
        if self.weights is not None and self.weights.shape != self.labels.shape:
            raise DataError("one weight per row required")

    def __len__(self) -> int:
        return int(self.features.shape[0])


def parse_complex(token: str, row: int, col: int) -> complex:
    text = token.strip().replace(" ", "")
    if not text:
        raise DataError(f"row {row}, column {col}: empty entry")
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise DataError(f"row {row}, column {col}: cannot parse {token!r} as a number")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DataError(f"row {row}, column {col}: non-finite entry {token!r}")
    return value


def _parse_label(token, row: int) -> int:
    try:
        value = float(token)
    except (TypeError, ValueError):
        raise DataError(f"row {row}: cannot parse label {token!r}")
    if value not in (0.0, 1.0):
        raise DataError(f"row {row}: label must be 0 or 1, got {token!r}")
    return int(value)


def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise DataError(f"unknown dataset format {fmt!r}")
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in ("csv", "json"):
        return suffix
    raise DataError(f"cannot infer dataset format from {path!r}; pass csv or json")


def _features(rows: list[list[complex]]) -> np.ndarray:
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise DataError(f"inhomogeneous feature lengths: {sorted(lengths)}")
    return np.array(rows, dtype=complex)


def _finish(rows: list[list[complex]], labels: list[int],
            weights: list[float] | None) -> DatasetFile:
    if not rows:
        raise DataError("dataset has no rows")
    return DatasetFile(_features(rows), np.array(labels, dtype=int),
                       None if weights is None else np.array(weights, dtype=float))


def _csv_records(path: str):
    """(1-based row number, nonblank cells) of each CSV row that has any."""
    with open(path, newline="") as handle:
        for r, record in enumerate(csv.reader(handle), start=1):
            record = [c for c in record if c.strip() != ""]
            if record:
                yield r, record


def _parse_row(parse, tokens, row: int) -> list[complex]:
    if not isinstance(tokens, list) or not tokens:
        raise DataError(f"row {row}: features must be a nonempty list")
    return [parse(tok, row, c) for c, tok in enumerate(tokens, start=1)]


def _ingest_csv(path: str) -> DatasetFile:
    rows, labels = [], []
    for r, record in _csv_records(path):
        if len(record) < 2:
            raise DataError(f"row {r}: need at least one feature and a label")
        rows.append(_parse_row(parse_complex, record[:-1], r))
        labels.append(_parse_label(record[-1].strip(), r))
    return _finish(rows, labels, None)


def _parse_json_feature(entry, row: int, col: int) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, (int, float)) for v in entry)):
        return complex(entry[0], entry[1])
    raise DataError(f"row {row}, column {col}: expected a number or [re, im] pair")


def _ingest_json(path: str) -> DatasetFile:
    payload = read_json(path, "JSON dataset")
    if not isinstance(payload, list):
        raise DataError("JSON dataset must be a list of rows")
    rows, labels, weights = [], [], []
    for r, record in enumerate(payload, start=1):
        if not isinstance(record, list) or len(record) not in (2, 3):
            raise DataError(f"row {r}: expected [features, label] or [features, label, weight]")
        rows.append(_parse_row(_parse_json_feature, record[0], r))
        labels.append(_parse_label(record[1], r))
        weight = record[2] if len(record) == 3 else 1.0
        if type(weight) not in (int, float) or not 0 <= weight < math.inf:
            raise DataError(f"row {r}: weight must be a finite nonnegative number, "
                            f"got {weight!r}")
        weights.append(float(weight))
    return _finish(rows, labels, weights if any(len(r) == 3 for r in payload) else None)


def ingest(path: str, fmt: str | None = None) -> DatasetFile:
    """Load a dataset file, inferring the format from the extension."""
    fmt = _infer_format(path, fmt)
    return _ingest_csv(path) if fmt == "csv" else _ingest_json(path)


def load_test_points(path: str, labeled: bool = False):
    """Load test inputs: labeled files share the dataset schema; unlabeled
    CSV rows are all features, unlabeled JSON is a list of feature lists.

    Returns (features, labels-or-None).
    """
    fmt = _infer_format(path, None)
    if labeled:
        ds = ingest(path)
        return ds.features, ds.labels
    if fmt == "csv":
        rows = [_parse_row(parse_complex, record, r) for r, record in _csv_records(path)]
    else:
        payload = read_json(path, "JSON test file")
        if not isinstance(payload, list):
            raise DataError("JSON test file must be a list of feature lists")
        rows = [_parse_row(_parse_json_feature, feats, r)
                for r, feats in enumerate(payload, start=1)]
    return (_features(rows) if rows else np.zeros((0, 0), dtype=complex)), None


def write_dataset(ds: DatasetFile, path: str):
    if _infer_format(path, None) == "csv":
        if ds.weights is not None:
            raise DataError("CSV datasets cannot carry per-row weights; use JSON")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            for feats, label in zip(ds.features, ds.labels):
                writer.writerow([format_complex(complex(f)) for f in feats] + [int(label)])
        return
    rows = ([[[f.real, f.imag] if f.imag != 0.0 else f.real for f in map(complex, feats)],
             int(label)] + ([] if ds.weights is None else [float(ds.weights[i])])
            for i, (feats, label) in enumerate(zip(ds.features, ds.labels)))
    with open(path, "w") as handle:
        dump_json(rows, handle)


def gen_toy(kind: str, m: int, dim: int, seed: int, noise: float = 0.25) -> DatasetFile:
    """Seeded toy sets: an orthogonal pair, two separable clusters, or fully
    random labelled states."""
    if kind not in TOY_KINDS:
        raise DataError(f"unknown toy kind {kind!r}, expected one of {TOY_KINDS}")
    if dim < 2:
        raise DataError("toy sets need feature dimension >= 2")
    if not math.isfinite(noise):
        raise DataError(f"toy noise must be finite, got {noise!r}")
    check_dense_budget((2, dim) if kind == "orthogonal-pair" else (m, dim), "toy feature matrix")
    rng = np.random.default_rng(check_seed(seed))
    if kind == "orthogonal-pair":
        features = np.zeros((2, dim), dtype=complex)
        features[0, 0] = 1.0
        features[1, dim - 1] = 1.0
        return DatasetFile(features, np.array([0, 1]))
    if m < 2:
        raise DataError("toy sets need at least two points")
    if kind == "separable":
        labels = (np.arange(m) >= (m + 1) // 2).astype(int)
        # Row by row, dim real then dim imaginary draws: the stream of one draw per row.
        draws = rng.standard_normal((m, 2, dim))
        samples = np.empty((m, dim), dtype=complex)
        samples.real, samples.imag = draws[:, 0], draws[:, 1]
        del draws
        # In place, center + noise * draw: adding 0.0 everywhere gives a zero
        # product (noise 0) the +0.0 that the sum with the all-zero centers gives.
        samples *= noise
        samples += 0.0
        samples[np.arange(m), labels * (dim - 1)] += 1.0
        # Each norm of its row alone, which a batched norm may round differently.
        samples /= np.array([np.linalg.norm(row) for row in samples])[:, None]
        return DatasetFile(samples, labels)
    features = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    labels = rng.integers(0, 2, size=m)
    labels[0], labels[-1] = 0, 1
    return DatasetFile(features, labels.astype(int))
