"""Traced pass of one workload, run in-process: per-layer metrics.

    python3 perfbench/traced.py --workload NAME --seed N --inputs DIR \
        --out-dir DIR --trace-file PATH --metrics PATH [--toy]

Runs the workload's pass twice in this process: once untraced, then once
with every public ``qkclass`` function wrapped where its name is bound
(aliases imported into other modules included), plus
``DensityMatrix.__init__``. CLI steps run through the click group with
``standalone_mode=False``; the mixed-circuit step calls
``mixed.run_pass``. Each wrapped call is a span (name, start, end, parent)
kept in memory. ``tracemalloc`` runs only in this traced pass, and only
inside the spans named in ``MEMORY_SPANS`` (running it everywhere makes the
pass several times slower); those spans get their peak allocation above
their starting point. At exit the spans and per-name statistics go to
``--trace-file`` and the per-layer metrics named in ``PER_LAYER`` go to
``--metrics``.

A layer's self time is its spans' duration minus the part covered by child
spans. Span records are capped at ``SPAN_CAP`` per name; statistics cover
every call. The difference between the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import tracemalloc
import traceback
import types
from array import array

import numpy as np

import mixed
import workloads

MODULES = ("qmath", "registers", "encoding", "circuit", "classifier", "kernelsvm",
           "datasets", "experiment", "cli")
SPAN_CAP = 2000
MIB = 2.0 ** 20
MEMORY_SPANS = frozenset((
    "encoding.assemble_pure_stc_input", "encoding.assemble_bias_extended",
    "encoding.assemble_mixed_stc_input", "circuit.apply_swap_test_unitary",
    "circuit.run_swap_test", "circuit.outcome_probabilities",
    "circuit.ancilla_label_parity", "circuit.swap_label_observable"))
OBSERVABLE_BUILDERS = frozenset(
    f"circuit.{n}" for n in ("ancilla_label_parity", "swap_label_observable", "swap_operator",
                             "build_effective_observable", "build_swap_test_unitary"))
CLASSIFIERS = ("stc_classify-analytic", "stc_classify-ancilla-circuit", "stc_classify-minimal",
               "stc_classify_bias", "hadamard_classify", "qsvm_oracle_classify")

UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms", "p90_ms": "ms",
         "peak_mib": "MiB", "bytes": "B", "errors": "count", "count": "count",
         "ratio": "ratio", "hit_ratio": "ratio", "misses": "count", "smo_iterations": "count"}


def _names(prefix: str, *stats: str) -> list[str]:
    return [f"{prefix}.{s}" for s in stats]


PER_LAYER = [
    # kernelsvm -> train_s, classify_points_per_s, wall_s on kernel-train; train_s on
    # mixed-circuit. Predicted not to move on pure-circuit.
    "kernelsvm.self_s", *_names("kernelsvm.gram", "s", "self_s", "calls"),
    *_names("kernelsvm.kernel_eval", "calls", "s"), "kernelsvm.psd_certify.s",
    *_names("kernelsvm.svm_train", "s", "calls"), "kernelsvm.smo_iterations",
    *_names("kernelsvm.regression", "s", "calls"),
    # qmath -> classify_points_per_s, peak_rss_mb on pure-circuit; must hold on mixed.
    "qmath.self_s", *_names("qmath.DensityMatrix", "calls", "s", "bytes"),
    *_names("qmath.tensor", "s", "calls"), *_names("qmath.hs_inner", "s", "calls"),
    "registers.self_s",
    # encoding -> pure-circuit (pure assemblies) / mixed-circuit (mixed, ensembles).
    "encoding.self_s", *_names("encoding.amplitude_encode", "calls", "s"),
    *_names("encoding.assemble_pure_stc_input", "s", "self_s", "calls", "peak_mib"),
    *_names("encoding.assemble_bias_extended", "s", "self_s", "calls", "peak_mib"),
    *_names("encoding.assemble_mixed_stc_input", "s", "self_s", "calls", "peak_mib"),
    "encoding.assemble_ensemble_weights.s", "encoding.assemble_ensemble_exponents.s",
    # circuit -> classify_points_per_s on both circuit workloads.
    "circuit.self_s", *_names("circuit.apply_swap_test_unitary", "s", "calls", "p50_ms", "peak_mib"),
    *_names("circuit.run_swap_test", "s", "self_s", "calls", "peak_mib"),
    *_names("circuit.expectation", "s", "calls", "p50_ms", "p90_ms"),
    *_names("circuit.outcome_probabilities", "s", "calls", "peak_mib"),
    "circuit.sample_shots.s", *_names("circuit.observable_build", "s", "calls"),
    "circuit.ancilla_label_parity.peak_mib",
    *_names("circuit.observable_cache", "hit_ratio", "misses"),
    # classifier -> classify_points_per_s per classifier and mode.
    "classifier.self_s",
    *[n for c in CLASSIFIERS for n in _names(f"classifier.{c}", "calls", "p50_ms", "p90_ms")],
    *_names("classifier.single_shot_classify", "calls", "p50_ms"),
    *_names("classifier.misclassification_probability", "s", "calls"),
    *_names("classifier.classify_assembled", "s", "calls"), "classifier.minimal_input_state.s",
    # experiment / datasets / cli -> wall_s on kernel-train.
    "experiment.self_s", *_names("experiment.run_experiment", "s", "self_s"),
    "experiment.build_training_set.s", *_names("experiment.write_results", "s", "bytes"),
    "experiment.emit_plot_data.s", "experiment.jsonable.calls",
    "datasets.self_s", "datasets.ingest.s", "datasets.load_test_points.s",
    "cli.self_s", *[f"cli.{c}.s" for c in ("train-svm", "gram", "classify", "sample", "emit-plot")],
    "driver.self_s", "driver.run_pass.s",
    "trace.overhead.ratio", "trace.untraced_pass.s", "trace.traced_pass.s", "trace.spans.count",
    "trace.errors.count",
]


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations", "peak", "bytes", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")
        self.peak = 0
        self.bytes = 0
        self.errors = 0

    def as_dict(self) -> dict:
        d = np.frombuffer(self.durations, dtype=float) if self.calls else np.zeros(1)
        return {"calls": self.calls, "s": self.total, "self_s": self.self_time,
                "p50_ms": float(np.percentile(d, 50)) * 1e3,
                "p90_ms": float(np.percentile(d, 90)) * 1e3,
                "peak_mib": self.peak / MIB, "bytes": self.bytes, "errors": self.errors}


class Frame:
    __slots__ = ("name", "span_id", "start", "child", "mem0", "peak", "owns_tracing")

    def __init__(self, name, span_id, start):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0
        self.mem0 = None          # traced bytes at entry; None when not measured
        self.peak = 0
        self.owns_tracing = False


class Tracer:
    """Span recorder. ``enter``/``exit`` bracket one call of a named layer.

    ``tracemalloc`` runs only inside spans named in ``MEMORY_SPANS`` (and
    whatever they call); a measured span's peak is the traced high-water
    mark above its entry, kept per frame across ``reset_peak`` calls.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.recorded: dict[str, int] = {}
        self.dropped: dict[str, int] = {}
        self.active: dict[str, int] = {}
        self.folded: dict[str, int] = {}
        self.stack: list[Frame] = []
        self.next_id = 0
        self.observable_depth = 0
        self.observable_s = 0.0
        self.observable_calls = 0
        self.last_svm_call = None

    def enter(self, name: str):
        frame = Frame(name, self.next_id + 1, 0.0)
        self.next_id += 1
        if tracemalloc.is_tracing():
            frame.mem0, peak = tracemalloc.get_traced_memory()
            top = self.stack[-1]
            top.peak = max(top.peak, peak)
            tracemalloc.reset_peak()
        elif name in MEMORY_SPANS:
            tracemalloc.start()
            frame.mem0, frame.owns_tracing = 0, True
        frame.peak = frame.mem0 or 0
        self.active[name] = self.active.get(name, 0) + 1
        self.observable_depth += name in OBSERVABLE_BUILDERS
        self.stack.append(frame)
        frame.start = time.perf_counter()

    def exit(self, failed: bool, nbytes: int = 0):
        end = time.perf_counter()
        frame = self.stack.pop()
        name = frame.name
        parent = self.stack[-1] if self.stack else None
        if frame.mem0 is not None:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            if frame.owns_tracing:
                tracemalloc.stop()
            else:
                tracemalloc.reset_peak()
                parent.peak = max(parent.peak, frame.peak)
        duration = end - frame.start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_time += duration - frame.child
        stat.durations.append(duration)
        if frame.mem0 is not None:
            stat.peak = max(stat.peak, frame.peak - frame.mem0)
        stat.bytes += nbytes
        stat.errors += failed
        self.active[name] -= 1
        if not self.active[name]:
            stat.total += duration
        if name in OBSERVABLE_BUILDERS:
            self.observable_depth -= 1
            if not self.observable_depth:
                self.observable_s += duration
                self.observable_calls += 1
        if parent is not None:
            parent.child += duration
        if self.recorded.get(name, 0) < SPAN_CAP:
            self.recorded[name] = self.recorded.get(name, 0) + 1
            self.spans.append((frame.span_id, parent.span_id if parent else 0, name,
                               frame.start - self.origin, end - self.origin))
        else:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.exit(failed)


def _wrap(tracer: Tracer, name: str, fn):
    """Traced stand-in for ``fn``. A call made while the same name is already
    open (recursion, e.g. ``jsonable``) is counted and folded into the outer
    span rather than opening a new one."""
    if name == "classifier.stc_classify":
        def label(args, kwargs):
            return f"{name}-{kwargs.get('mode', args[2] if len(args) > 2 else 'analytic')}"
    else:
        def label(args, kwargs):
            return name
    measure = None
    if name == "experiment.write_results":
        def measure(args, kwargs):
            return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    elif name == "qmath.DensityMatrix":
        def measure(args, kwargs):
            return args[0].entries.shape[0] ** 2 * 16
    capture = name == "kernelsvm.svm_train"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = label(args, kwargs)
        if tracer.active.get(span):
            tracer.folded[span] = tracer.folded.get(span, 0) + 1
            return fn(*args, **kwargs)
        if capture:
            tracer.last_svm_call = (args, kwargs)
        tracer.enter(span)
        failed, nbytes = True, 0
        try:
            result = fn(*args, **kwargs)
            failed = False
            if measure is not None:
                nbytes = measure(args, kwargs)
            return result
        finally:
            tracer.exit(failed, nbytes)

    return wrapper


def _is_traceable(obj) -> bool:
    return (isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            and getattr(obj, "__module__", "").startswith("qkclass.")
            and not obj.__name__.startswith("_"))


class Instrumentation:
    """Rebinds every public qkclass function to a traced wrapper, and back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.modules = [importlib.import_module(f"qkclass.{m}") for m in MODULES]
        self.modules.append(importlib.import_module("qkclass"))
        self.patches: list[tuple] = []

    def install(self):
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj):
                    continue
                if id(obj) not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = _wrap(self.tracer, f"{home}.{obj.__name__}", obj)
                self.patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        dm = importlib.import_module("qkclass.qmath").DensityMatrix
        self.patches.append((dm, "__init__", dm.__init__))
        dm.__init__ = _wrap(self.tracer, "qmath.DensityMatrix", dm.__init__)

    def uninstall(self):
        for owner, attr, obj in reversed(self.patches):
            setattr(owner, attr, obj)
        self.patches.clear()


def cached_functions() -> list:
    circuit = importlib.import_module("qkclass.circuit")
    return [circuit.ancilla_label_parity, circuit.swap_label_observable,
            circuit.swap_operator, circuit.build_swap_test_unitary]


def cache_totals(funcs) -> tuple[int, int]:
    infos = [f.cache_info() for f in funcs]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_steps(steps, tracer: Tracer | None, caches) -> list[str]:
    """Run a pass in-process from cold observable caches; returns the names
    of steps that failed."""
    cli = importlib.import_module("qkclass.cli")
    for fn in caches:
        fn.cache_clear()
    failed = []
    for step in steps:
        if workloads.preflight(step.planned_bytes):
            continue
        root = f"cli.{step.argv[0]}" if step.kind == "cli" else "driver.run_pass"
        code = 1
        context = tracer.span(root) if tracer else contextlib.nullcontext()
        try:
            with context, contextlib.redirect_stdout(io.StringIO()):
                if step.kind == "cli":
                    cli.main.main(args=step.argv, prog_name="qkclass", standalone_mode=False)
                else:
                    mixed.main(step.argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failing step is reported, not fatal
            traceback.print_exc()
        if code != 0:
            failed.append(step.name)
    return failed


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    stats = {name: stat.as_dict() for name, stat in tracer.stats.items()}
    out = {}
    for metric in PER_LAYER:
        if metric in extra:
            value = extra[metric]
        elif metric.count(".") == 1 and metric.endswith(".self_s"):
            prefix = metric[: -len("self_s")]
            value = sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix))
        else:
            name, stat = metric.rsplit(".", 1)
            value = stats.get(name, {}).get(stat, 0)
        out[metric] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Traced in-process pass of one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    kernelsvm = importlib.import_module("qkclass.kernelsvm")
    importlib.import_module("qkclass.cli")

    def steps(tag):
        out = os.path.join(args.out_dir, tag)
        os.makedirs(out, exist_ok=True)
        return workload.steps(args.inputs, out, args.toy, args.seed)

    caches = cached_functions()
    start = time.perf_counter()
    failed = run_steps(steps("untraced"), None, caches)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    start = time.perf_counter()
    try:
        failed += run_steps(steps("traced"), tracer, caches)
    finally:
        traced_s = time.perf_counter() - start
        instrumentation.uninstall()
    hits, misses = cache_totals(caches)  # run_steps cleared them, statistics included

    for name, count in tracer.folded.items():
        tracer.stats[name].calls += count

    smo_iterations = 0
    if tracer.last_svm_call is not None:
        call_args, call_kwargs = tracer.last_svm_call
        model = kernelsvm.svm_train(*call_args, **{**call_kwargs, "record_objective": True})
        smo_iterations = len(model.objective_history) - 1

    extra = {
        "kernelsvm.smo_iterations": smo_iterations,
        "circuit.observable_build.s": tracer.observable_s,
        "circuit.observable_build.calls": tracer.observable_calls,
        "circuit.observable_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "circuit.observable_cache.misses": misses,
        "trace.overhead.ratio": traced_s / untraced_s - 1.0,
        "trace.untraced_pass.s": untraced_s,
        "trace.traced_pass.s": traced_s,
        "trace.spans.count": sum(s.calls for s in tracer.stats.values()),
        "trace.errors.count": sum(s.errors for s in tracer.stats.values()),
    }
    metrics = layer_metrics(tracer, extra)
    with open(args.trace_file, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "span_cap": SPAN_CAP,
                   "untraced_s": untraced_s, "traced_s": traced_s,
                   "stats": {n: s.as_dict() for n, s in sorted(tracer.stats.items())},
                   "dropped_spans": tracer.dropped,
                   "spans": tracer.spans}, handle)
    with open(args.metrics, "w") as handle:
        json.dump({"metrics": metrics, "failed_steps": failed,
                   "steps": len(steps("traced")) * 2}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
