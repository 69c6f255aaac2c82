"""Experiment orchestration: configuration, batch classification runs,
results JSON, and the flat plot-data CSV.

Results are deterministic for a fixed (config, dataset, seed) triple apart
from the ``wall_clock_seconds`` field; output files are written to a
temporary sibling and renamed into place so failures never leave partial
files behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import classifier as clf
from . import encoding
from .circuit import draw_shots, empirical_expectation
from .datasets import DatasetFile
from .encoding import RawDatum, TrainingSet
from .errors import DataError
from .kernelsvm import HS_TRACE, GramMatrix, KernelSpec, gram, svm_train
from .qmath import QState

SCHEMA_VERSION = 1
SEED_ENV_VAR = "QKCLASS_SEED"

CLASSIFIERS = ("stc", "stc-bias", "hc", "qsvm")
WEIGHT_MODES = ("uniform", "explicit", "trained")


@dataclass(frozen=True)
class ExperimentConfig:
    classifier: str = "stc"
    mode: str = "analytic"
    kernel: str = "squared-overlap"
    k: int = 1
    weights: str = "uniform"
    explicit_weights: tuple[float, ...] | None = None
    bias: float | str | None = None
    box_c: float = 1e6
    shots: int = 0
    seed: int = 0
    tie_as_zero: bool = False
    keep_norms: bool = False

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise DataError(f"unknown classifier {self.classifier!r}")
        if self.mode not in clf.STC_MODES:
            raise DataError(f"unknown mode {self.mode!r}")
        if self.weights not in WEIGHT_MODES:
            raise DataError(f"unknown weights mode {self.weights!r}")
        if self.k < 1:
            raise DataError("k must be >= 1")
        if self.shots < 0:
            raise DataError("shots must be >= 0")
        if self.weights == "explicit":
            if not self.explicit_weights:
                raise DataError("explicit weights mode needs a weight list")
            w = np.asarray(self.explicit_weights, dtype=float)
            if np.any(w < 0) or w.sum() <= 0:
                raise DataError("explicit weights must be nonnegative with positive sum")
        if isinstance(self.bias, str) and self.bias != "trained":
            raise DataError(f"bias must be a number, null, or 'trained', got {self.bias!r}")

    def echo(self) -> dict:
        payload = asdict(self)
        if payload["explicit_weights"] is not None:
            payload["explicit_weights"] = list(payload["explicit_weights"])
        return payload


_CONFIG_KEYS = tuple(ExperimentConfig.__dataclass_fields__)


def load_config_file(path: str) -> dict:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid config file: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("config file must hold a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    return payload


def merge_config(cli_values: dict, file_values: dict) -> ExperimentConfig:
    """Precedence: explicit CLI values, then the config file, then defaults;
    the QKCLASS_SEED environment variable overrides only the default seed."""
    merged = {}
    for key in _CONFIG_KEYS:
        if cli_values.get(key) is not None:
            merged[key] = cli_values[key]
        elif key in file_values and file_values[key] is not None:
            merged[key] = file_values[key]
    if "seed" not in merged and SEED_ENV_VAR in os.environ:
        try:
            merged["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise DataError(f"{SEED_ENV_VAR} must be an integer")
    if isinstance(merged.get("explicit_weights"), list):
        merged["explicit_weights"] = tuple(float(v) for v in merged["explicit_weights"])
    return ExperimentConfig(**merged)


def dataset_gram(dataset: DatasetFile, spec: KernelSpec) -> GramMatrix:
    """Gram matrix of the amplitude-encoded rows; hs-trace takes them as
    density matrices (on pure states it equals the squared overlap)."""
    states = [encoding.amplitude_encode(row) for row in dataset.features]
    if spec.kind == HS_TRACE:
        states = [s.to_density() for s in states]
    return gram(spec, states)


def build_training_set(config: ExperimentConfig, dataset: DatasetFile):
    """Training set, plus the trained model and the Gram matrix it was
    trained on (both None unless the weights mode is trained)."""
    mode = encoding.KEEP_NORMS if config.keep_norms else encoding.UNIT_VECTORS
    model = g = None
    if config.weights == "uniform":
        weights = np.ones(len(dataset))
    elif config.weights == "explicit":
        if len(config.explicit_weights) != len(dataset):
            raise DataError(f"{len(config.explicit_weights)} explicit weights "
                            f"for {len(dataset)} rows")
        weights = np.asarray(config.explicit_weights, dtype=float)
    else:
        g = dataset_gram(dataset, KernelSpec(config.kernel, k=config.k))
        model = svm_train(g, dataset.labels, C=config.box_c)
        weights = np.asarray(model.multipliers, dtype=float)
        if weights.sum() <= 0:
            raise DataError("trained multipliers are all zero")
    if dataset.weights is not None and config.weights == "uniform":
        weights = dataset.weights
    bias = config.bias
    if bias == "trained":
        if model is None:
            raise DataError("bias 'trained' requires weights mode 'trained'")
        bias = model.bias
    if bias == 0.0:
        bias = None
    data = [RawDatum(row, int(label), float(w))
            for row, label, w in zip(dataset.features, dataset.labels, weights)]
    ts = TrainingSet.from_raw(data, k=config.k, bias=bias, mode=mode)
    return ts, model, g


def _alphas_for_oracle(config: ExperimentConfig, ts: TrainingSet, model) -> np.ndarray:
    if model is not None:
        return np.asarray(model.signed_multipliers, dtype=float)
    signs = 1 - 2 * ts.labels
    return ts.weights * signs


def _classify_point(config: ExperimentConfig, ts: TrainingSet, model,
                    test: QState) -> clf.ClassifierOutput:
    if config.classifier == "stc":
        return clf.stc_classify(ts, test, mode=config.mode)
    if config.classifier == "stc-bias":
        return clf.stc_classify_bias(ts, test)
    if config.classifier == "hc":
        return clf.hadamard_classify(ts, test, with_bias=ts.bias is not None)
    bias = ts.bias if ts.bias is not None else 0.0
    return clf.qsvm_oracle_classify(_alphas_for_oracle(config, ts, model), bias, ts, test)


def _label_payload(label, tie_as_zero: bool):
    if label == clf.TIE:
        return 0 if tie_as_zero else "tie"
    return int(label)


def run_experiment(config: ExperimentConfig, dataset: DatasetFile,
                   test_features: np.ndarray,
                   test_labels: np.ndarray | None = None) -> dict:
    """Classify every test row and collect a machine-readable results object."""
    start = time.monotonic()
    if config.shots > 0 and config.classifier not in ("stc", "stc-bias"):
        raise DataError("shot sampling is defined for the swap-test classifiers only")
    ts, model, g = build_training_set(config, dataset)
    if config.classifier == "stc-bias" and ts.bias is None:
        raise DataError("stc-bias requires a nonzero bias (explicit or trained)")
    point_seeds = np.random.SeedSequence(config.seed).generate_state(
        max(1, len(test_features)))
    results = []
    for i, row in enumerate(test_features):
        test = encoding.amplitude_encode(row)
        out = _classify_point(config, ts, model, test)
        entry = {
            "index": i,
            "expectation": out.expectation,
            "predicted_label": _label_payload(out.predicted_label, config.tie_as_zero),
            "per_term": [[m, v] for m, v in (out.per_term or ())],
            "bias_term": out.bias_term,
        }
        if test_labels is not None:
            entry["true_label"] = int(test_labels[i])
        if config.shots > 0:
            records = draw_shots(out.expectation, config.shots, int(point_seeds[i]))
            counts = {r.outcome: r.count for r in records}
            entry["shots"] = {
                "seed": int(point_seeds[i]),
                "total": config.shots,
                "plus": counts[1],
                "minus": counts[-1],
                "empirical_expectation": empirical_expectation(records),
            }
        results.append(entry)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "seed": config.seed,
        "results": results,
        "wall_clock_seconds": time.monotonic() - start,
    }
    if model is not None:
        payload["svm"] = {
            "multipliers": [float(a) for a in model.multipliers],
            "bias": model.bias,
            "support_indices": list(model.support_indices),
            "kernel": {"kind": model.kernel.kind, "k": model.kernel.k},
        }
        payload["gram_summary"] = {
            "min_eigenvalue": float(g.eigenvalues[0]),
            "max_eigenvalue": float(g.eigenvalues[-1]),
            "eigenvalues": [float(v) for v in g.eigenvalues],
        }
    return payload


def _atomic_write(path: str, writer):
    """Write through a temporary sibling and rename, so a failure cannot
    leave a partial output file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = tempfile.NamedTemporaryFile("w", dir=directory, delete=False,
                                         suffix=".tmp", newline="")
    try:
        with handle:
            writer(handle)
        os.replace(handle.name, path)
    except Exception:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def jsonable(value):
    """``default`` hook of the JSON encoder: numpy scalars and arrays as
    Python values. The payload itself is encoded as it stands, not copied."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_results(payload: dict, path: str):
    def writer(handle):
        json.dump(payload, handle, indent=2, sort_keys=True, default=jsonable)
        handle.write("\n")

    _atomic_write(path, writer)


PLOT_COLUMNS = ("index", "expectation", "predicted_label", "shots_total",
                "shots_plus", "shots_minus", "freq_plus")


def emit_plot_data(payload: dict, path: str):
    """Flatten a results object to CSV, one row per test point.

    Column order is fixed: index, expectation, predicted_label, shots_total,
    shots_plus, shots_minus, freq_plus; the shot columns stay empty for
    exact (shots=0) runs. Floats use repr and parse back to full precision.
    """
    if "results" not in payload or not isinstance(payload["results"], list):
        raise DataError("results payload has no 'results' list")

    def writer(handle):
        out = csv.writer(handle)
        out.writerow(PLOT_COLUMNS)
        for entry in payload["results"]:
            shots = entry.get("shots")
            if shots:
                shot_cols = [shots["total"], shots["plus"], shots["minus"],
                             repr(shots["plus"] / shots["total"])]
            else:
                shot_cols = ["", "", "", ""]
            out.writerow([entry["index"], repr(float(entry["expectation"])),
                          entry["predicted_label"], *shot_cols])

    _atomic_write(path, writer)


def error_payload(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}
