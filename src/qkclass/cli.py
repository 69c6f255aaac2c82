"""Command-line front-end.

Subcommands: ``classify``, ``train-svm``, ``gram``, ``sample``, ``gen-toy``,
``emit-plot``. Every command reads datasets in the CSV/JSON formats described
in :mod:`qkclass.datasets`, writes machine-readable JSON (or the plot CSV),
and exits 0 on success, 2 on usage errors, 3 on data errors, and 4 on
numeric or dimension errors, including a ``MemoryError`` or a numpy
``LinAlgError`` raised by the computation. Errors print a JSON object to
stderr.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import datasets, experiment
from .errors import DataError, QKClassError
from .kernelsvm import KERNEL_KINDS, KernelSpec, psd_certify, svm_train

EXIT_DATA = 3
EXIT_NUMERIC = 4


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (QKClassError, MemoryError, np.linalg.LinAlgError) as exc:
            click.echo(json.dumps(experiment.error_payload(exc)), err=True)
            sys.exit(EXIT_DATA if isinstance(exc, DataError) else EXIT_NUMERIC)

    return wrapper


def _write_json(payload: dict, out: str | None):
    if out is None:
        datasets.dump_json(payload, sys.stdout, default=experiment.jsonable)
    else:
        experiment.write_results(payload, out)


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
@click.version_option(package_name="qkclass")
def main():
    """Exact simulation of quantum kernel-based binary classifiers."""


_config_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config file; CLI flags take precedence."),
    click.option("--classifier", type=click.Choice(experiment.CLASSIFIERS), default=None),
    click.option("--mode", type=click.Choice(("analytic", "ancilla-circuit", "minimal")),
                 default=None, help="Evaluation mode for the swap-test classifier."),
    click.option("--kernel", type=click.Choice(KERNEL_KINDS), default=None),
    click.option("--k", type=int, default=None, help="Copies of test and training data."),
    click.option("--weights", type=click.Choice(experiment.WEIGHT_MODES), default=None),
    click.option("--explicit-weights", callback=_parse_weight_list, default=None,
                 help="Comma-separated weights for weights mode 'explicit'."),
    click.option("--bias", callback=_parse_bias, default=None,
                 help="Bias value, or 'trained' to reuse the SVM bias."),
    click.option("--box-c", type=float, default=None, help="SVM box constraint."),
    click.option("--shots", type=int, default=None,
                 help="Projective shots per test point (0 = exact expectation)."),
    click.option("--seed", type=int, default=None,
                 help=f"RNG seed (default from ${experiment.SEED_ENV_VAR} if set)."),
    click.option("--tie-as-zero/--tie-as-tie", "tie_as_zero", default=None,
                 help="Map tied expectation values to label 0 instead of 'tie'."),
    click.option("--keep-norms/--unit-vectors", "keep_norms", default=None,
                 help="Retain raw vector norms instead of unit-normalizing."),
]


def config_options(fn):
    for option in reversed(_config_options):
        fn = option(fn)
    return fn


def _merged_config(config_path, **cli_values) -> experiment.ExperimentConfig:
    file_values = experiment.load_config_file(config_path) if config_path else {}
    return experiment.merge_config(cli_values, file_values)


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
    ds = datasets.ingest(dataset, fmt)
    tests, test_labels = datasets.load_test_points(test_path, labeled=labeled_tests)
    payload = experiment.run_experiment(config, ds, tests, test_labels)
    _write_json(payload, out)


@main.command("train-svm")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--kernel", type=click.Choice(KERNEL_KINDS), default="squared-overlap")
@click.option("--k", type=int, default=1)
@click.option("--box-c", type=float, default=1e6)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def train_svm(dataset, kernel, k, box_c, fmt, out):
    """Train the dual SVM on a dataset and emit the model."""
    ds = datasets.ingest(dataset, fmt)
    g = experiment.dataset_gram(ds, KernelSpec(kernel, k=k))
    model = svm_train(g, ds.labels, C=box_c)
    payload = {
        "schema_version": experiment.SCHEMA_VERSION,
        "kernel": {"kind": kernel, "k": k},
        "box_c": box_c,
        "multipliers": model.multipliers.tolist(),
        "bias": model.bias,
        "support_indices": list(model.support_indices),
        "labels": model.labels.tolist(),
        "gram_summary": {
            "min_eigenvalue": float(g.eigenvalues[0]),
            "max_eigenvalue": float(g.eigenvalues[-1]),
        },
    }
    _write_json(payload, out)


@main.command("gram")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--kernel", type=click.Choice(KERNEL_KINDS), default="squared-overlap")
@click.option("--k", type=int, default=1)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default=None)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def gram_command(dataset, kernel, k, fmt, out):
    """Gram matrix, its eigenvalues, and the PSD certificate."""
    ds = datasets.ingest(dataset, fmt)
    g = experiment.dataset_gram(ds, KernelSpec(kernel, k=k))
    cert = psd_certify(g)
    payload = {
        "schema_version": experiment.SCHEMA_VERSION,
        "kernel": {"kind": kernel, "k": k},
        "matrix": g.matrix.tolist(),
        "eigenvalues": g.eigenvalues.tolist(),
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
@click.option("--kind", type=click.Choice(datasets.TOY_KINDS), default="separable")
@click.option("--m", type=int, default=8, help="Number of points.")
@click.option("--dim", type=int, default=2, help="Feature dimension.")
@click.option("--seed", type=int, default=None)
@click.option("--noise", type=float, default=0.25)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True,
              help="Output dataset path (.csv or .json).")
@handles_errors
def gen_toy(kind, m, dim, seed, noise, out):
    """Generate a seeded toy dataset."""
    if seed is None:
        seed = experiment.merge_config({}, {}).seed
    ds = datasets.gen_toy(kind, m, dim, seed, noise)
    datasets.write_dataset(ds, out)
    click.echo(json.dumps({"written": out, "rows": len(ds), "seed": seed}))


@main.command("emit-plot")
@click.argument("results", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@handles_errors
def emit_plot(results, out):
    """Flatten a results JSON file into plot-ready CSV."""
    payload = datasets.read_json(results, "results file")
    experiment.emit_plot_data(payload, out)
    click.echo(json.dumps({"written": out, "rows": len(payload.get("results", []))}))


if __name__ == "__main__":
    main()
