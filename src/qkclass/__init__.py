"""Exact classical simulation of quantum kernel-based binary classifiers.

The package is organized bottom-up: linear algebra (``qmath``), register
layouts (``registers``), data encoding and state assembly (``encoding``),
circuit operators and measurement (``circuit``), the classifiers
(``classifier``), the kernel/SVM layer (``kernelsvm``), and the batch
front-end (``datasets``, ``experiment``, ``cli``).
"""

from .classifier import (ClassifierOutput, TestMixture, classify_assembled,
                         hadamard_classify, helstrom_operator,
                         misclassification_probability, qsvm_oracle_classify,
                         single_shot_classify, stc_classify, stc_classify_bias)
from .circuit import (Observable, ShotRecord, apply_swap_test_unitary,
                      build_swap_test_unitary, empirical_expectation,
                      expectation, outcome_probabilities, run_swap_test,
                      sample_shots, swap_label_observable, swap_operator)
from .encoding import (ClassifierState, RawDatum, TrainingSet,
                       amplitude_encode, assemble_bias_extended,
                       assemble_ensemble_exponents, assemble_ensemble_weights,
                       assemble_mixed_stc_input, assemble_pure_stc_input)
from .errors import DataError, DimensionError, NumericError, QKClassError
from .kernelsvm import (GramMatrix, KernelSpec, SvmModel, gram, kernel_eval,
                        kernel_matrix, psd_certify, regression, svm_train)
from .qmath import (DensityMatrix, HermitianSpectrum, QState, fidelity,
                    hs_inner, partial_trace, tensor)

__version__ = "0.1.0"

__all__ = [
    "ClassifierOutput", "ClassifierState", "DataError", "DensityMatrix",
    "DimensionError", "GramMatrix", "HermitianSpectrum", "KernelSpec",
    "NumericError", "Observable", "QKClassError", "QState", "RawDatum",
    "ShotRecord", "SvmModel", "TestMixture", "TrainingSet", "amplitude_encode",
    "apply_swap_test_unitary", "assemble_bias_extended",
    "assemble_ensemble_exponents", "assemble_ensemble_weights",
    "assemble_mixed_stc_input", "assemble_pure_stc_input",
    "build_swap_test_unitary", "classify_assembled", "empirical_expectation",
    "expectation", "fidelity",
    "gram", "hadamard_classify", "helstrom_operator", "hs_inner",
    "kernel_eval", "kernel_matrix", "misclassification_probability",
    "outcome_probabilities", "partial_trace", "psd_certify",
    "qsvm_oracle_classify", "regression", "run_swap_test", "sample_shots",
    "single_shot_classify", "stc_classify", "stc_classify_bias", "svm_train",
    "swap_label_observable", "swap_operator", "tensor",
]
