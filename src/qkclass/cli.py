"""Command-line front-end.

Subcommands: ``classify``, ``train-svm``, ``gram``, ``sample``, ``gen-toy``,
``emit-plot``. Every command reads datasets in the CSV/JSON formats described
in :mod:`qkclass.datasets`, writes machine-readable JSON (or the plot CSV),
and exits 0 on success, 2 on usage errors, 3 on data errors, and 4 on
numeric or dimension errors, including a ``MemoryError`` or a numpy
``LinAlgError`` raised by the computation. Errors print a JSON object to
stderr.

Each command imports the layers it runs inside its own body, so a process
loads only those: ``emit-plot`` no numpy at all, ``gen-toy`` the dataset
layer, ``train-svm`` and ``gram`` the dataset and kernel/SVM layers, and
``classify`` and ``sample`` the classifier stack. At module level this file
needs only click, the option vocabularies of :mod:`qkclass.constants`, the
error types and the numpy-free reader and writers of :mod:`qkclass.fileio`.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__
from .constants import (CLASSIFIERS, DEFAULT_C, KERNEL_KINDS, SCHEMA_VERSION, SEED_ENV_VAR,
                        SQUARED_OVERLAP, STC_MODES, TOY_KINDS, WEIGHT_MODES, env_seed)
from .errors import DataError, QKClassError
from .fileio import dump_json, emit_plot_data, jsonable, read_json, write_results

EXIT_DATA = 3
EXIT_NUMERIC = 4


def _reported_errors() -> tuple:
    """The errors a command reports as JSON: the package's own, MemoryError,
    and numpy's LinAlgError when numpy is loaded (a command that never
    loaded numpy cannot raise it)."""
    np = sys.modules.get("numpy")
    return (QKClassError, MemoryError) + (() if np is None else (np.linalg.LinAlgError,))


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _reported_errors() as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            click.echo(json.dumps({"error": error}), err=True)
            sys.exit(EXIT_DATA if isinstance(exc, DataError) else EXIT_NUMERIC)

    return wrapper


def _write_json(payload: dict, out: str | None):
    if out is None:
        dump_json(payload, sys.stdout, default=jsonable)
    else:
        write_results(payload, out)


def _parse_bias(_ctx, _param, value):
    if value is None or value == "trained":
        return value
    try:
        return float(value)
    except ValueError:
        raise click.BadParameter("expected a number or 'trained'")


def _parse_weight_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(float(tok) for tok in value.split(","))
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of numbers")


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact simulation of quantum kernel-based binary classifiers."""


_config_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config file; CLI flags take precedence."),
    click.option("--classifier", type=click.Choice(CLASSIFIERS), default=None),
    click.option("--mode", type=click.Choice(STC_MODES),
                 default=None, help="Evaluation mode for the swap-test classifier."),
    click.option("--kernel", type=click.Choice(KERNEL_KINDS), default=None),
    click.option("--k", type=int, default=None, help="Copies of test and training data."),
    click.option("--weights", type=click.Choice(WEIGHT_MODES), default=None),
    click.option("--explicit-weights", callback=_parse_weight_list, default=None,
                 help="Comma-separated weights for weights mode 'explicit'."),
    click.option("--bias", callback=_parse_bias, default=None,
                 help="Bias value, or 'trained' to reuse the SVM bias."),
    click.option("--box-c", type=float, default=None, help="SVM box constraint."),
    click.option("--shots", type=int, default=None,
                 help="Projective shots per test point (0 = exact expectation)."),
    click.option("--seed", type=int, default=None,
                 help=f"RNG seed (default from ${SEED_ENV_VAR} if set)."),
    click.option("--tie-as-zero/--tie-as-tie", "tie_as_zero", default=None,
                 help="Map tied expectation values to label 0 instead of 'tie'."),
    click.option("--keep-norms/--unit-vectors", "keep_norms", default=None,
                 help="Retain raw vector norms instead of unit-normalizing."),
]


def config_options(fn):
    for option in reversed(_config_options):
        fn = option(fn)
    return fn


def _merged_config(config_path, **cli_values):
    from .experiment import load_config_file, merge_config
    file_values = load_config_file(config_path) if config_path else {}
    return merge_config(cli_values, file_values)


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Test file: CSV feature rows or a JSON list of feature lists.")
@click.option("--labeled-tests", is_flag=True, default=False,
              help="Treat the test file as labelled (dataset schema); labels are echoed.")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Results JSON path (stdout if omitted).")
@config_options
@handles_errors
def classify(dataset, test_path, labeled_tests, fmt, out, config_path, **cli_values):
    """Classify test points against a labelled dataset."""
    _run(_merged_config(config_path, **cli_values), dataset, test_path, labeled_tests, fmt, out)


def _run(config, dataset, test_path, labeled_tests, fmt, out):
    from .datasets import ingest, load_test_points
    from .experiment import run_experiment
    ds = ingest(dataset, fmt)
    tests, test_labels = load_test_points(test_path, labeled=labeled_tests)
    payload = run_experiment(config, ds, tests, test_labels)
    _write_json(payload, out)


def _dataset_gram(dataset, fmt, kernel, k):
    """The dataset file and the Gram matrix of its amplitude-encoded rows."""
    from .datasets import ingest
    from .kernelsvm import KernelSpec, encode_rows, vector_gram
    ds = ingest(dataset, fmt)
    return ds, vector_gram(KernelSpec(kernel, k=k), encode_rows(ds.features)[0])


@main.command("train-svm")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--kernel", type=click.Choice(KERNEL_KINDS), default=SQUARED_OVERLAP)
@click.option("--k", type=int, default=1)
@click.option("--box-c", type=float, default=DEFAULT_C)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def train_svm(dataset, kernel, k, box_c, fmt, out):
    """Train the dual SVM on a dataset and emit the model."""
    from .kernelsvm import svm_train
    ds, g = _dataset_gram(dataset, fmt, kernel, k)
    model = svm_train(g, ds.labels, C=box_c)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": {"kind": kernel, "k": k},
        "box_c": box_c,
        "multipliers": model.multipliers,
        "bias": model.bias,
        "support_indices": list(model.support_indices),
        "labels": model.labels,
        "gram_summary": {
            "min_eigenvalue": float(g.eigenvalues[0]),
            "max_eigenvalue": float(g.eigenvalues[-1]),
        },
    }
    _write_json(payload, out)


@main.command("gram")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--kernel", type=click.Choice(KERNEL_KINDS), default=SQUARED_OVERLAP)
@click.option("--k", type=int, default=1)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def gram_command(dataset, kernel, k, fmt, out):
    """Gram matrix, its eigenvalues, and the PSD certificate."""
    from .kernelsvm import psd_certify
    _, g = _dataset_gram(dataset, fmt, kernel, k)
    cert = psd_certify(g)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": {"kind": kernel, "k": k},
        "matrix": g.matrix,
        "eigenvalues": g.eigenvalues,
        "certified_psd": cert.certified,
        "min_eigenvalue": cert.min_eigenvalue,
        "threshold": cert.threshold,
    }
    _write_json(payload, out)


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--labeled-tests", is_flag=True, default=False,
              help="Treat the test file as labelled (dataset schema); labels are echoed.")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@config_options
@handles_errors
def sample(dataset, test_path, labeled_tests, fmt, out, config_path, **cli_values):
    """Shot-sampled swap-test classification of test points."""
    config = _merged_config(config_path, **cli_values)
    if config.shots < 1:
        raise DataError("sample requires shots >= 1 (pass --shots)")
    _run(config, dataset, test_path, labeled_tests, fmt, out)


@main.command("gen-toy")
@click.option("--kind", type=click.Choice(TOY_KINDS), default="separable")
@click.option("--m", type=int, default=8, help="Number of points.")
@click.option("--dim", type=int, default=2, help="Feature dimension.")
@click.option("--seed", type=int, default=None)
@click.option("--noise", type=float, default=0.25)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True,
              help="Output dataset path (.csv or .json).")
@handles_errors
def gen_toy(kind, m, dim, seed, noise, out):
    """Generate a seeded toy dataset."""
    from .datasets import gen_toy as toy_dataset
    from .datasets import write_dataset
    if seed is None:
        seed = env_seed()
    ds = toy_dataset(kind, m, dim, seed, noise)
    write_dataset(ds, out)
    click.echo(json.dumps({"written": out, "rows": len(ds), "seed": seed}))


@main.command("emit-plot")
@click.argument("results", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@handles_errors
def emit_plot(results, out):
    """Flatten a results JSON file into plot-ready CSV."""
    payload = read_json(results, "results file")
    emit_plot_data(payload, out)
    click.echo(json.dumps({"written": out, "rows": len(payload.get("results", []))}))


if __name__ == "__main__":
    main()
