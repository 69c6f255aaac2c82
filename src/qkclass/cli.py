"""Command-line front-end.

Subcommands: ``classify``, ``train-svm``, ``gram``, ``sample``, ``gen-toy``,
``emit-plot``. Every command reads datasets in the CSV/JSON formats described
in :mod:`qkclass.datasets`, writes machine-readable JSON (or the plot CSV),
and exits 0 on success, 2 on usage errors, 3 on data errors, and 4 on
numeric or dimension errors, including a ``MemoryError`` or a numpy
``LinAlgError`` raised by the computation. Errors print a JSON object to
stderr.

The commands and their options are one stdlib ``argparse`` table,
:data:`COMMANDS`. Each command imports the layers it runs inside its own
body, so a process loads only those: ``emit-plot`` no numpy at all,
``gen-toy`` the dataset layer, ``train-svm`` and ``gram`` the dataset and
kernel/SVM layers, and ``classify`` and ``sample`` the classifier stack. At
module level this file needs only ``argparse``, the option vocabularies of
:mod:`qkclass.constants`, the error types and the numpy-free reader and
writers of :mod:`qkclass.fileio`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _write_json(payload: dict, out: str | None):
    if out is None:
        dump_json(payload, sys.stdout, default=jsonable)
    else:
        write_results(payload, out)


def _input_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    return _output_file(path)


def _output_file(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _bias(value: str):
    if value == "trained":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number or 'trained'")


def _weight_list(value: str) -> tuple:
    try:
        return tuple(float(tok) for tok in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")


def _merged_config(args):
    from .experiment import load_config_file, merge_config
    file_values = load_config_file(args.config_path) if args.config_path else {}
    return merge_config(vars(args), file_values)


def _run(config, args):
    from .datasets import ingest, load_test_points
    from .experiment import run_experiment
    ds = ingest(args.dataset, args.fmt)
    tests, test_labels = load_test_points(args.test_path, labeled=args.labeled_tests)
    _write_json(run_experiment(config, ds, tests, test_labels), args.out)


def _classify(args):
    _run(_merged_config(args), args)


def _sample(args):
    config = _merged_config(args)
    if config.shots < 1:
        raise DataError("sample requires shots >= 1 (pass --shots)")
    _run(config, args)


def _dataset_gram(args):
    """The dataset file and the Gram matrix of its amplitude-encoded rows."""
    from .datasets import ingest
    from .kernelsvm import KernelSpec, encode_rows, gram
    ds = ingest(args.dataset, args.fmt)
    g = gram(KernelSpec(args.kernel, k=args.k), encode_rows(ds.features)[0])
    g.eigenvalues  # written by every caller: computed now, before training
    return ds, g


def _train_svm(args):
    from .kernelsvm import svm_train
    ds, g = _dataset_gram(args)
    model = svm_train(g, ds.labels, C=args.box_c)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": {"kind": args.kernel, "k": args.k},
        "box_c": args.box_c,
        "multipliers": model.multipliers,
        "bias": model.bias,
        "support_indices": list(model.support_indices),
        "labels": model.labels,
        "gram_summary": {
            "min_eigenvalue": float(g.eigenvalues[0]),
            "max_eigenvalue": float(g.eigenvalues[-1]),
        },
    }
    _write_json(payload, args.out)


def _gram(args):
    from .kernelsvm import psd_certify
    _, g = _dataset_gram(args)
    cert = psd_certify(g)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": {"kind": args.kernel, "k": args.k},
        "matrix": g.matrix,
        "eigenvalues": g.eigenvalues,
        "certified_psd": cert.certified,
        "min_eigenvalue": cert.min_eigenvalue,
        "threshold": cert.threshold,
    }
    _write_json(payload, args.out)


def _gen_toy(args):
    from .datasets import gen_toy, write_dataset
    seed = env_seed() if args.seed is None else args.seed
    ds = gen_toy(args.kind, args.m, args.dim, seed, args.noise)
    write_dataset(ds, args.out)
    print(json.dumps({"written": args.out, "rows": len(ds), "seed": seed}))


def _emit_plot(args):
    payload = read_json(args.results, "results file")
    emit_plot_data(payload, args.out)
    print(json.dumps({"written": args.out, "rows": len(payload.get("results", []))}))


DATASET = (("dataset",), {"type": _input_file})
FORMAT = (("--format",), {"dest": "fmt", "choices": ("csv", "json")})
OUT = (("-o", "--out"), {"type": _output_file, "help": "Output path (stdout if omitted)."})
REQUIRED_OUT = (("-o", "--out"), {"type": _output_file, "required": True})
TESTS = [
    (("--test",), {"dest": "test_path", "required": True, "type": _input_file,
                   "help": "Test file: CSV feature rows or a JSON list of feature lists."}),
    (("--labeled-tests",), {"action": "store_true",
                            "help": "Treat the test file as labelled (dataset schema); "
                                    "labels are echoed."}),
]
KERNEL_OPTIONS = [
    (("--kernel",), {"choices": KERNEL_KINDS, "default": SQUARED_OVERLAP}),
    (("--k",), {"type": int, "default": 1}),
]
# The experiment settings of classify and sample. Every default is None, "not
# given", so a config file's value applies; each flag pair shares one dest.
CONFIG_OPTIONS = [
    (("--config",), {"dest": "config_path", "type": _input_file,
                     "help": "JSON config file; command-line flags take precedence."}),
    (("--classifier",), {"choices": CLASSIFIERS}),
    (("--mode",), {"choices": STC_MODES, "help": "Evaluation mode for the swap-test classifier."}),
    (("--kernel",), {"choices": KERNEL_KINDS}),
    (("--k",), {"type": int, "help": "Copies of test and training data."}),
    (("--weights",), {"choices": WEIGHT_MODES}),
    (("--explicit-weights",), {"type": _weight_list,
                               "help": "Comma-separated weights for weights mode 'explicit'."}),
    (("--bias",), {"type": _bias, "help": "Bias value, or 'trained' to reuse the SVM bias."}),
    (("--box-c",), {"type": float, "help": "SVM box constraint."}),
    (("--shots",), {"type": int,
                    "help": "Projective shots per test point (0 = exact expectation)."}),
    (("--seed",), {"type": int, "help": f"RNG seed (default from ${SEED_ENV_VAR} if set)."}),
    (("--tie-as-zero",), {"dest": "tie_as_zero", "action": "store_true", "default": None,
                          "help": "Map tied expectation values to label 0 instead of 'tie'."}),
    (("--tie-as-tie",), {"dest": "tie_as_zero", "action": "store_false", "default": None}),
    (("--keep-norms",), {"dest": "keep_norms", "action": "store_true", "default": None,
                         "help": "Retain raw vector norms instead of unit-normalizing."}),
    (("--unit-vectors",), {"dest": "keep_norms", "action": "store_false", "default": None}),
]

# name -> (run, summary, arguments): every command and option of the CLI.
COMMANDS = {
    "classify": (_classify, "Classify test points against a labelled dataset.",
                 [DATASET, *TESTS, FORMAT, OUT, *CONFIG_OPTIONS]),
    "train-svm": (_train_svm, "Train the dual SVM on a dataset and emit the model.",
                  [DATASET, *KERNEL_OPTIONS, (("--box-c",), {"type": float, "default": DEFAULT_C}),
                   FORMAT, OUT]),
    "gram": (_gram, "Gram matrix, its eigenvalues, and the PSD certificate.",
             [DATASET, *KERNEL_OPTIONS, FORMAT, OUT]),
    "sample": (_sample, "Shot-sampled swap-test classification of test points.",
               [DATASET, *TESTS, FORMAT, OUT, *CONFIG_OPTIONS]),
    "gen-toy": (_gen_toy, "Generate a seeded toy dataset.", [
        (("--kind",), {"choices": TOY_KINDS, "default": "separable"}),
        (("--m",), {"type": int, "default": 8, "help": "Number of points."}),
        (("--dim",), {"type": int, "default": 2, "help": "Feature dimension."}),
        (("--seed",), {"type": int}),
        (("--noise",), {"type": float, "default": 0.25}),
        REQUIRED_OUT,
    ]),
    "emit-plot": (_emit_plot, "Flatten a results JSON file into plot-ready CSV.",
                  [(("results",), {"type": _input_file}), REQUIRED_OUT]),
}

VALUE_OPTIONS = frozenset(flag for _, _, arguments in COMMANDS.values()
                          for flags, spec in arguments if "action" not in spec
                          for flag in flags if flag.startswith("-"))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkclass", description="Exact simulation of quantum kernel-based binary classifiers.",
        add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (run, summary, arguments) in COMMANDS.items():
        command = commands.add_parser(name, help=summary, description=summary,
                                      add_help=False, allow_abbrev=False)
        command.add_argument("--help", action="help", help="Show this message and exit.")
        for flags, spec in arguments:
            command.add_argument(*flags, **spec)
        command.set_defaults(run=run)
    return parser


def _attached(argv) -> list[str]:
    """``argv`` with each option that takes a value joined to the token after
    it (``--bias -1e-3`` -> ``--bias=-1e-3``), so that a value may start with
    '-'. Tokens after ``--`` are left as they are."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token == "--":
            return [*out, token, *tokens]
        value = next(tokens, None) if token in VALUE_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` if ``argv`` is None) and return
    its exit code: 0, 2 for a usage error (argparse's message on stderr), or 3
    and 4 for a reported error (a JSON object on stderr)."""
    try:
        args = _parser().parse_args(_attached(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits after --help, --version and usage errors
        return exc.code
    try:
        args.run(args)
    except _reported_errors() as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error}), file=sys.stderr)
        return EXIT_DATA if isinstance(exc, DataError) else EXIT_NUMERIC
    return 0


def _standalone(args=None, prog_name="qkclass", standalone_mode=True):
    """``main.main(args, prog_name=..., standalone_mode=...)``, the call form
    that ``perfbench/traced.py`` uses to run a step in-process. Runs
    :func:`main` on ``args``; raises ``SystemExit`` with the exit code, except
    that with ``standalone_mode`` false a successful run returns None. The
    program name is always ``qkclass``."""
    code = main(args)
    if standalone_mode or code:
        raise SystemExit(code)


main.main = _standalone


if __name__ == "__main__":
    sys.exit(main())
