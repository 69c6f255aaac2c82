"""Experiment orchestration: configuration and batch classification runs.

Results are deterministic for a fixed (config, dataset, seed) triple apart
from the ``wall_clock_seconds`` field. Results files and the plot CSV are
written by :mod:`qkclass.fileio`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import classifier as clf
from . import encoding
from .circuit import draw_shots, empirical_expectation
from .constants import (CLASSIFIERS, DEFAULT_C, KERNEL_KINDS, SCHEMA_VERSION, STC_MODES,
                        WEIGHT_MODES, check_seed, env_seed)
from .datasets import DatasetFile
from .encoding import TrainingSet
from .errors import DataError
from .fileio import read_json
from .kernelsvm import KernelSpec, encode_rows, gram, svm_train

# Types of the typed config fields; a bool is no number, a float is finite.
_FIELD_TYPES = (("k", int), ("shots", int), ("seed", int), ("box_c", float),
                ("tie_as_zero", bool), ("keep_norms", bool))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number a float holds finitely: not NaN, not infinite, no huge int."""
    return _is_number(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    classifier: str = "stc"
    mode: str = "analytic"
    kernel: str = "squared-overlap"
    k: int = 1
    weights: str = "uniform"
    explicit_weights: tuple[float, ...] | None = None
    bias: float | str | None = None
    box_c: float = DEFAULT_C
    shots: int = 0
    seed: int = 0
    tie_as_zero: bool = False
    keep_norms: bool = False

    def __post_init__(self):
        for name, kind in _FIELD_TYPES:
            value = getattr(self, name)
            if not (isinstance(value, bool) if kind is bool
                    else _is_finite(value) if kind is float
                    else _is_number(value) and isinstance(value, int)):
                what = "a finite number" if kind is float else f"of type {kind.__name__}"
                raise DataError(f"{name} must be {what}, got {value!r}")
        weights = self.explicit_weights
        if weights is not None:
            if not (isinstance(weights, (list, tuple)) and all(map(_is_finite, weights))):
                raise DataError("explicit weights must be a list of finite numbers")
            object.__setattr__(self, "explicit_weights", tuple(map(float, weights)))
        if not (self.bias is None or self.bias == "trained" or _is_finite(self.bias)):
            raise DataError(f"bias must be a finite number, null or 'trained', got {self.bias!r}")
        for name, allowed in (("classifier", CLASSIFIERS), ("mode", STC_MODES),
                              ("weights", WEIGHT_MODES), ("kernel", KERNEL_KINDS)):
            if getattr(self, name) not in allowed:
                raise DataError(f"unknown {name} {getattr(self, name)!r}")
        if self.k < 1:
            raise DataError("k must be >= 1")
        if self.shots < 0:
            raise DataError("shots must be >= 0")
        check_seed(self.seed)
        if self.weights == "explicit":
            if not self.explicit_weights:
                raise DataError("explicit weights mode needs a weight list")
            w = np.asarray(self.explicit_weights, dtype=float)
            if np.any(w < 0) or w.sum() <= 0:
                raise DataError("explicit weights must be nonnegative with positive sum")

    def echo(self) -> dict:
        payload = asdict(self)
        if payload["explicit_weights"] is not None:
            payload["explicit_weights"] = list(payload["explicit_weights"])
        return payload


_CONFIG_KEYS = tuple(ExperimentConfig.__dataclass_fields__)


def load_config_file(path: str) -> dict:
    payload = read_json(path, "config file")
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
    if "seed" not in merged:
        merged["seed"] = env_seed()
    return ExperimentConfig(**merged)


def build_training_set(config: ExperimentConfig, dataset: DatasetFile):
    """Training set, plus the trained model and the Gram matrix it was
    trained on (both None unless the weights mode is trained). The rows are
    amplitude-encoded once, for both."""
    vecs, norms = encode_rows(dataset.features)
    model = g = None
    if config.weights == "uniform":
        weights = np.ones(len(dataset))
    elif config.weights == "explicit":
        if len(config.explicit_weights) != len(dataset):
            raise DataError(f"{len(config.explicit_weights)} explicit weights "
                            f"for {len(dataset)} rows")
        weights = np.asarray(config.explicit_weights, dtype=float)
    else:
        g = gram(KernelSpec(config.kernel, k=config.k), vecs)
        g.eigenvalues  # written with the results: computed now, while little else is held
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
    mode = encoding.KEEP_NORMS if config.keep_norms else encoding.UNIT_VECTORS
    ts = TrainingSet(vecs, dataset.labels, weights, norms=norms, k=config.k, bias=bias, mode=mode)
    return ts, model, g


def _alphas_for_oracle(ts: TrainingSet, model) -> np.ndarray:
    if model is not None:
        return np.asarray(model.signed_multipliers, dtype=float)
    return ts.weights * (1 - 2 * ts.labels)


def _scored(chunks, count: int, width: int):
    """Each test's (value, bias term, per-term row), in order, from a batch
    classifier's (values, terms, bias) chunks over ``count`` tests and
    ``width`` training entries. The per-term rows are the read-only rows of
    one (count, width) table with fields ``index`` and ``value``, made once
    the first chunk has come (its kernel temporaries freed) and filled
    chunk by chunk."""
    table, lo = None, 0
    for values, terms, bias in chunks:
        if table is None:
            table = np.empty((count, width), dtype=[("index", np.int64), ("value", np.float64)])
            table["index"] = np.arange(width)
            rows = table.view()
            rows.setflags(write=False)
        table["value"][lo:lo + len(values)] = terms
        bias_terms = np.broadcast_to(bias, values.shape).tolist()
        for i, (value, bias_term) in enumerate(zip(values.tolist(), bias_terms), lo):
            yield value, bias_term, rows[i]
        lo += len(values)


def run_experiment(config: ExperimentConfig, dataset: DatasetFile,
                   test_features: np.ndarray,
                   test_labels: np.ndarray | None = None) -> dict:
    """Classify every test row and collect a machine-readable results object.

    The arrays stay numpy arrays until :func:`qkclass.fileio.write_results`
    writes them as JSON lists: the ``svm`` multipliers, the ``gram_summary``
    eigenvalues, and each record's ``per_term``, a read-only row of one
    (N, m) structured array with fields ``index`` and ``value``, whose
    ``tolist()`` is the ``[(m, value), ...]`` list.
    """
    start = time.monotonic()
    if config.shots > 0 and config.classifier not in ("stc", "stc-bias"):
        raise DataError("shot sampling is defined for the swap-test classifiers only")
    ts, model, g = build_training_set(config, dataset)
    if config.classifier == "stc-bias" and ts.bias is None:
        raise DataError("stc-bias requires a nonzero bias (explicit or trained)")
    if config.shots > 0:
        point_seeds = np.random.SeedSequence(config.seed).generate_state(
            max(1, len(test_features)))
    scored = ()
    if len(test_features):
        vecs, norms = encode_rows(test_features)
        if config.classifier in ("stc", "stc-bias"):
            chunks = clf._stc_batch(ts, vecs, config.mode if config.classifier == "stc" else "bias")
        elif config.classifier == "hc":
            chunks = clf._hadamard_batch(ts, vecs, norms, ts.bias is not None)
        else:
            chunks = clf._qsvm_batch(_alphas_for_oracle(ts, model),
                                     ts.bias if ts.bias is not None else 0.0, ts, vecs, norms)
        scored = _scored(chunks, len(vecs), len(ts))
    results = []
    for i, (value, bias_term, per_term) in enumerate(scored):
        label = clf.decide(value)
        entry = {
            "index": i,
            "expectation": value,
            "predicted_label": label if label != clf.TIE else 0 if config.tie_as_zero else "tie",
            "per_term": per_term,
            "bias_term": bias_term,
        }
        if test_labels is not None:
            entry["true_label"] = int(test_labels[i])
        if config.shots > 0:
            records = draw_shots(value, config.shots, int(point_seeds[i]))
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
            "multipliers": model.multipliers,
            "bias": model.bias,
            "support_indices": list(model.support_indices),
            "kernel": {"kind": model.kernel.kind, "k": model.kernel.k},
        }
        payload["gram_summary"] = {
            "min_eigenvalue": float(g.eigenvalues[0]),
            "max_eigenvalue": float(g.eigenvalues[-1]),
            "eigenvalues": g.eigenvalues,
        }
    return payload
