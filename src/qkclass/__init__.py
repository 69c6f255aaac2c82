"""Exact classical simulation of quantum kernel-based binary classifiers.

The package is organized bottom-up: linear algebra (``qmath``), register
layouts (``registers``), data encoding and state assembly (``encoding``),
circuit operators and measurement (``circuit``), the classifiers
(``classifier``), the kernel/SVM layer (``kernelsvm``), and the batch
front-end (``datasets``, ``experiment``, ``cli``). ``constants``, ``errors``
and ``fileio`` hold what the layers share and import no numpy.

Importing the package loads none of its submodules. A public name is
resolved on first access from the submodule that defines it (PEP 562), so
``from qkclass import stc_classify`` loads the classifier stack while a CLI
command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "classifier": ("ClassifierOutput", "TestMixture", "classify_assembled",
                   "hadamard_classify", "helstrom_operator",
                   "misclassification_probability", "qsvm_oracle_classify",
                   "single_shot_classify", "stc_classify", "stc_classify_bias"),
    "circuit": ("Observable", "ShotRecord", "build_swap_test_unitary",
                "empirical_expectation", "expectation", "outcome_probabilities",
                "sample_shots", "swap_label_observable", "swap_operator"),
    "encoding": ("ClassifierState", "RawDatum", "TrainingSet", "amplitude_encode",
                 "assemble_bias_extended", "assemble_ensemble_exponents",
                 "assemble_ensemble_weights", "assemble_mixed_stc_input",
                 "assemble_pure_stc_input"),
    "errors": ("DataError", "DimensionError", "NumericError", "QKClassError"),
    "kernelsvm": ("GramMatrix", "KernelSpec", "SvmModel", "gram", "kernel_eval",
                  "kernel_matrix", "psd_certify", "regression", "svm_train"),
    "qmath": ("DensityMatrix", "HermitianSpectrum", "QState", "fidelity", "hs_inner",
              "partial_trace", "tensor"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    # Not cached in the package namespace: every access reads the
    # submodule's current binding.
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
