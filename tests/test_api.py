"""The public surface of ``qkclass``, pinned.

Every name in ``qkclass.__all__`` is listed here with the signature of its
function or class constructor, so a change to the public API shows up as an
edit to this file. The dotted code names that the README cites must exist.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import qkclass
from qkclass.errors import QKClassError

ERRORS = ('DataError', 'DimensionError', 'NumericError', 'QKClassError')

SIGNATURES = {
    'ClassifierOutput': "(expectation: 'float', predicted_label: 'int | str', per_term: 'tuple[tuple[int, float], ...] | None' = None, bias_term: 'float' = 0.0) -> None",
    'ClassifierState': '(layout: \'RegisterLayout\', stack: \'np.ndarray | None\' = None, signs: \'np.ndarray | None\' = None, members: "tuple[tuple[float, \'ClassifierState\'], ...] | None" = None)',
    'DensityMatrix': "(entries, *, check_psd: 'bool' = True)",
    'GramMatrix': "(matrix: 'np.ndarray', kernel: 'KernelSpec', eigenvalues: 'np.ndarray | None' = None)",
    'HermitianSpectrum': "(eigenvalues: 'np.ndarray', eigenvectors: 'np.ndarray') -> None",
    'KernelSpec': "(kind: 'str', k: 'int' = 1) -> None",
    'Observable': "(layout: 'RegisterLayout', z_registers=(), order=None)",
    'QState': '(vec)',
    'RawDatum': "(features: 'np.ndarray', label: 'int', weight: 'float' = 1.0) -> None",
    'ShotRecord': "(outcome: 'int', count: 'int', seed: 'int') -> None",
    'SvmModel': "(multipliers: 'np.ndarray', bias: 'float', support_indices: 'tuple[int, ...]', kernel: 'KernelSpec', labels: 'np.ndarray', objective_history: 'tuple[float, ...]' = ()) -> None",
    'TestMixture': "(p0: 'float', p1: 'float', rho0: 'DensityMatrix', rho1: 'DensityMatrix') -> None",
    'TrainingSet': "(states, labels, weights, *, norms=None, k: 'int' = 1, bias: 'float | None' = None, mode: 'str' = 'unit-vectors')",
    'amplitude_encode': "(x) -> 'QState'",
    'assemble_bias_extended': "(ts: 'TrainingSet', test: 'QState') -> 'ClassifierState'",
    'assemble_ensemble_exponents': "(test: 'DensityMatrix', models: 'Sequence[tuple[float, Sequence[float], int]]', train: 'Sequence[tuple[DensityMatrix, int]]', max_copies: 'int') -> 'ClassifierState'",
    'assemble_ensemble_weights': "(test: 'DensityMatrix', models: 'Sequence[tuple[float, Sequence[float]]]', train: 'Sequence[tuple[DensityMatrix, int]]', k: 'int', *, with_ancilla: 'bool' = True) -> 'ClassifierState'",
    'assemble_mixed_stc_input': "(test: 'DensityMatrix', train: 'Sequence[tuple[DensityMatrix, int, float]]', k: 'int', *, with_ancilla: 'bool' = True) -> 'ClassifierState'",
    'assemble_pure_stc_input': "(ts: 'TrainingSet', test: 'QState', *, with_index: 'bool' = False, with_ancilla: 'bool' = True) -> 'ClassifierState'",
    'build_swap_test_unitary': "(layout: 'RegisterLayout') -> 'np.ndarray'",
    'classify_assembled': "(state: 'ClassifierState') -> 'ClassifierOutput'",
    'empirical_expectation': "(records: 'list[ShotRecord]') -> 'float'",
    'expectation': "(obs: 'Observable', state) -> 'float'",
    'fidelity': "(a, b) -> 'float'",
    'gram': "(spec: 'KernelSpec', states: 'Sequence') -> 'GramMatrix'",
    'hadamard_classify': "(ts: 'TrainingSet', test, with_bias: 'bool' = False) -> 'ClassifierOutput'",
    'helstrom_operator': "(ts: 'TrainingSet') -> 'np.ndarray'",
    'hs_inner': "(a, b) -> 'float'",
    'kernel_eval': "(spec: 'KernelSpec', a, b) -> 'float'",
    'kernel_matrix': "(spec: 'KernelSpec', rows: 'Sequence', cols: 'Sequence') -> 'np.ndarray'",
    'misclassification_probability': "(ts: 'TrainingSet', mix: 'TestMixture') -> 'float'",
    'outcome_probabilities': "(obs: 'Observable', state) -> 'dict[int, float]'",
    'partial_trace': "(rho, dims: 'Sequence[int]', keep: 'Sequence[int]')",
    'psd_certify': "(g) -> 'PsdCertificate'",
    'qsvm_oracle_classify': "(alphas: 'Sequence[float]', b: 'float', ts: 'TrainingSet', test) -> 'ClassifierOutput'",
    'regression': "(model: 'SvmModel', train_states: 'Sequence', test) -> 'float'",
    'sample_shots': "(obs: 'Observable', state, shots: 'int', seed: 'int') -> 'list[ShotRecord]'",
    'single_shot_classify': "(ts: 'TrainingSet', test, seed: 'int') -> 'int'",
    'stc_classify': "(ts: 'TrainingSet', test, mode: 'str' = 'analytic') -> 'ClassifierOutput'",
    'stc_classify_bias': "(ts: 'TrainingSet', test) -> 'ClassifierOutput'",
    'svm_train': "(g: 'GramMatrix', labels: 'Sequence[int]', C: 'float' = 1000000.0, record_objective: 'bool' = False) -> 'SvmModel'",
    'swap_label_observable': "(layout: 'RegisterLayout') -> 'Observable'",
    'swap_operator': "(dim: 'int') -> 'Observable'",
    'tensor': "(*operands) -> 'np.ndarray'",
}


def test_all_is_pinned():
    assert sorted(qkclass.__all__) == sorted([*ERRORS, *SIGNATURES])


def test_error_classes_share_the_base():
    for name in ERRORS:
        assert issubclass(getattr(qkclass, name), QKClassError)


def test_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(qkclass, name))) for name in SIGNATURES}
    assert got == SIGNATURES


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# `module.name`, `qkclass.module.name`, each with an optional `.attribute`.
DOTTED_NAME = re.compile(r"`(?:qkclass\.)?([a-z_]+)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`")


def test_readme_code_names_resolve():
    submodules = {info.name for info in pkgutil.iter_modules(qkclass.__path__)}
    cited = [m.groups() for m in DOTTED_NAME.finditer(README.read_text())
             if m.group(1) in submodules]
    assert cited
    stale = []
    for module, name, attribute in cited:
        home = importlib.import_module(f"qkclass.{module}")
        if not hasattr(home, name) or (attribute and not hasattr(getattr(home, name), attribute)):
            stale.append(".".join(filter(None, (module, name, attribute))))
    assert stale == []
