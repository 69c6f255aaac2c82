"""The user-facing binary classifiers.

All of them score a test input against a weighted training set and decide
the class from the sign of an expectation value:

* ``stc_classify``            swap-test classifier, pure or mixed data,
                              three interchangeable evaluation modes
* ``stc_classify_bias``       swap-test classifier with an encoded bias
* ``hadamard_classify``       Hadamard classifier (real part of the overlap)
* ``qsvm_oracle_classify``    oracle-state classifier driven by externally
                              supplied multipliers and bias
* ``single_shot_classify``    one projective-measurement draw
* ``misclassification_probability``  error rate of the single-shot classifier
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import encoding, qmath
from .circuit import (ancilla_label_parity, apply_swap_test_unitary,
                      expectation, outcome_probabilities, run_swap_test,
                      swap_label_observable)
from .encoding import ClassifierState, TrainingSet, amplitude_encode
from .errors import DataError, DimensionError, NumericError
from .kernelsvm import (HS_TRACE, REAL_OVERLAP, SQUARED_OVERLAP, KernelSpec,
                        kernel_matrix)
from .qmath import DensityMatrix, QState, basis_state, tensor, tensor_power
from .registers import ANCILLA, block_layout, index_register_dim

TIE_EPS = 1e-12
MODE_AGREEMENT_ATOL = 1e-10

TIE = "tie"

STC_MODES = ("analytic", "ancilla-circuit", "minimal")


def label_sign(label: int) -> int:
    """Map external labels {0, 1} to the internal signs {+1, -1}."""
    if label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    return 1 - 2 * label


def outcome_to_label(outcome: int) -> int:
    """Map a +-1 measurement outcome to the class label (1 - outcome) / 2."""
    if outcome not in (1, -1):
        raise DataError(f"outcome must be +1 or -1, got {outcome!r}")
    return (1 - outcome) // 2


def decide(value: float, tie_eps: float = TIE_EPS):
    if value > tie_eps:
        return 0
    if value < -tie_eps:
        return 1
    return TIE


@dataclass(frozen=True)
class ClassifierOutput:
    """Expectation value, decided label, and its per-datum decomposition."""

    expectation: float
    predicted_label: int | str
    per_term: tuple[tuple[int, float], ...] | None = None
    bias_term: float = 0.0

    def __post_init__(self):
        if not -1.0 - 1e-10 <= self.expectation <= 1.0 + 1e-10:
            raise NumericError(f"expectation {self.expectation} outside [-1, 1]")
        if self.per_term is not None:
            total = sum(v for _, v in self.per_term) + self.bias_term
            if abs(total - self.expectation) > 1e-12:
                raise NumericError(
                    f"per-term sum {total} does not reproduce expectation {self.expectation}")


def _coerce_test_pure(test, ts: TrainingSet) -> tuple[QState, float]:
    """Accept a QState or a raw feature vector; track the raw norm only in
    keep-norms mode."""
    if isinstance(test, QState):
        return test, 1.0
    if isinstance(test, DensityMatrix):
        raise DataError("this classifier accepts pure test states only")
    vec = qmath.as_cvec(test)
    norm = float(np.linalg.norm(vec))
    state = amplitude_encode(vec)
    return state, (norm if ts.mode == encoding.KEEP_NORMS else 1.0)


def _as_test_density(test) -> DensityMatrix:
    if isinstance(test, DensityMatrix):
        return test
    if isinstance(test, QState):
        return test.to_density()
    return amplitude_encode(test).to_density()


def _terms(values: np.ndarray) -> tuple[tuple[int, float], ...]:
    return tuple(enumerate(values.tolist()))


def _stc_terms(ts: TrainingSet, test, weights: np.ndarray) -> tuple[tuple[int, float], ...]:
    """Swap-test terms sign_m w_m kernel(x_m, test)**k: the squared overlap
    on pure data, the trace inner product once either side is mixed."""
    if ts.is_mixed or isinstance(test, DensityMatrix):
        spec, train = KernelSpec(HS_TRACE, ts.k), ts.density_states()
        test = _as_test_density(test)
    else:
        spec, train = KernelSpec(SQUARED_OVERLAP, ts.k), ts.pure_states()
    return _terms((1 - 2 * ts.labels) * weights * kernel_matrix(spec, train, [test])[:, 0])


def _real_overlaps(ts: TrainingSet, test: QState) -> np.ndarray:
    """Re<x_m|test> for every training entry."""
    return kernel_matrix(KernelSpec(REAL_OVERLAP), ts.pure_states(), [test])[:, 0]


def _mixed_data(ts: TrainingSet) -> list:
    return list(zip(ts.density_states(), ts.labels, ts.effective_weights()))


def minimal_input_state(ts: TrainingSet, test) -> ClassifierState:
    """Ancilla-free swap-test input as a density matrix; the circuit modes
    use it for mixed data (pure data is evolved entry by entry as vectors)."""
    return encoding.assemble_mixed_stc_input(_as_test_density(test), _mixed_data(ts),
                                             ts.k, with_ancilla=False)


def _pure_component_vectors(ts: TrainingSet, test: QState, with_ancilla: bool):
    """The assembled pure-data state is a classical mixture of product
    states, one per training entry; yield its (weight, vector) components."""
    test_block = tensor_power(test.vec, ts.k)
    for state, entry, w in zip(ts.pure_states(), ts.entries, ts.effective_weights()):
        if w == 0.0:
            continue
        parts = [test_block, tensor_power(state.vec, ts.k),
                 basis_state(2, entry.label)]
        if with_ancilla:
            parts.insert(0, basis_state(2, 0))
        yield w, tensor(*parts)


def _circuit_mode_value(ts: TrainingSet, test, minimal: bool) -> float:
    """Swap-test measurement value through the circuit or the ancilla-free
    observable; pure mixtures are evolved component by component."""
    mixed = ts.is_mixed or isinstance(test, DensityMatrix)
    if not mixed:
        layout = block_layout(test.dim, ts.k, ancilla=not minimal)
        if minimal:
            obs = swap_label_observable(layout)
            return sum(w * expectation(obs, vec)
                       for w, vec in _pure_component_vectors(ts, test, False))
        obs = ancilla_label_parity(layout)
        return sum(w * expectation(obs, apply_swap_test_unitary(vec, layout))
                   for w, vec in _pure_component_vectors(ts, test, True))
    if minimal:
        assembled = minimal_input_state(ts, test)
        return expectation(swap_label_observable(assembled.layout), assembled)
    assembled = run_swap_test(encoding.assemble_mixed_stc_input(
        _as_test_density(test), _mixed_data(ts), ts.k))
    return expectation(ancilla_label_parity(assembled.layout), assembled)


def stc_classify(ts: TrainingSet, test, mode: str = "analytic",
                 tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Swap-test classifier expectation and label.

    The three modes are numerically interchangeable: ``analytic`` sums the
    signed, weighted kernel powers directly; ``ancilla-circuit`` runs the
    swap-test circuit and measures the ancilla-label parity; ``minimal``
    measures the ancilla-free swap observable on the bare input state.
    """
    if mode not in STC_MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {STC_MODES}")
    if ts.bias is not None:
        raise DataError("training set carries a bias; use stc_classify_bias")
    if not ts.entries:
        raise DataError("empty training set")
    if not (ts.is_mixed or isinstance(test, DensityMatrix)):
        test, _ = _coerce_test_pure(test, ts)
    terms = _stc_terms(ts, test, ts.effective_weights())
    if mode == "analytic":
        value = float(sum(v for _, v in terms))
    else:
        value = _circuit_mode_value(ts, test, minimal=(mode == "minimal"))
    return ClassifierOutput(value, decide(value, tie_eps), terms)


def stc_classify_bias(ts: TrainingSet, test,
                      tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Swap-test classifier with the bias encoded in an extra index slot.

    The expectation equals (b + sum_m sign_m w_m kernel_m**k) / N with
    N = |b| + sum_m w_m. On every call the swap-test circuit is also
    simulated on the bias-extended state vector, and its ancilla-label
    parity, applied as a sign mask, must agree with the closed form to
    1e-10. Neither a density matrix nor a dense operator is built, so the
    check costs about the state vector.
    """
    if ts.bias is None:
        raise DataError("training set has no bias; use stc_classify")
    state, _ = _coerce_test_pure(test, ts)
    bias_term, weights = ts.effective_bias_and_weights()
    terms = _stc_terms(ts, state, weights) if ts.entries else ()
    value = bias_term + float(sum(v for _, v in terms))
    assembled = run_swap_test(encoding.assemble_bias_extended(ts, state))
    simulated = expectation(ancilla_label_parity(assembled.layout), assembled)
    if abs(simulated - value) > MODE_AGREEMENT_ATOL:
        raise NumericError(
            f"bias circuit value {simulated} disagrees with the closed form {value}")
    return ClassifierOutput(value, decide(value, tie_eps), terms, bias_term=bias_term)


def _interference_pair_expectation(left: np.ndarray, right: np.ndarray,
                                   measure_label: bool) -> float:
    """Simulate the one-gate interference circuit.

    Prepares (|0>|left> + |1>|right>)/sqrt(2), applies a Hadamard to the
    ancilla, and measures Z on the ancilla (times Z on the trailing label
    qubit when ``measure_label`` is set). Both branches must be normalized.
    """
    psi = np.stack([left, right]) / math.sqrt(2.0)
    psi = qmath.HADAMARD @ psi
    if measure_label:
        rest = psi.reshape(2, -1, 2)
        measured = rest @ qmath.SIGMA_Z.T
        measured = measured.reshape(2, -1)
    else:
        measured = psi
    value = complex(np.vdot(psi[0], measured[0]) - np.vdot(psi[1], measured[1]))
    if abs(value.imag) > MODE_AGREEMENT_ATOL:
        raise NumericError(f"interference expectation has imaginary part {value.imag}")
    return float(value.real)


def _hc_sides(ts: TrainingSet, test: QState, test_norm: float,
              with_bias: bool) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Training-side and test-side interference vectors of the Hadamard
    classifier on registers [index | data | label], with their squared norms."""
    offset = 1 if with_bias else 0
    slots = len(ts) + offset
    idx_dim = index_register_dim(slots)
    dim = ts.data_dim
    u = np.zeros(idx_dim * dim * 2, dtype=complex)
    x = np.zeros_like(u)
    bias = ts.bias if with_bias else 0.0
    if with_bias:
        y_b = 0 if bias > 0 else 1
        slot0 = math.sqrt(abs(bias)) * tensor(
            basis_state(idx_dim, 0), basis_state(dim, 0), basis_state(2, y_b))
        u += slot0
        x += slot0
    for m, e in enumerate(zip(ts.pure_states(), ts.entries)):
        state, entry = e
        amp = math.sqrt(entry.weight)
        u += amp * entry.norm * tensor(
            basis_state(idx_dim, m + offset), state.vec, basis_state(2, entry.label))
        x += amp * test_norm * tensor(
            basis_state(idx_dim, m + offset), test.vec, basis_state(2, entry.label))
    n_u = float(np.vdot(u, u).real)
    n_x = float(np.vdot(x, x).real)
    return u, x, n_u, n_x, bias


def hadamard_classify(ts: TrainingSet, test, with_bias: bool = False,
                      tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Hadamard classifier: interference of training and test branches of an
    ancilla, scoring by the real part of the overlap.

    Sensitive to global phases of the data (only the real part of the inner
    product enters), unlike the swap-test classifier. Pure states and a
    single data copy only.
    """
    if ts.is_mixed:
        raise DataError("the Hadamard classifier accepts pure-state data only")
    if ts.k != 1:
        raise DataError("the Hadamard classifier has no copy structure; use k=1")
    if with_bias and ts.bias is None:
        raise DataError("with_bias=True requires a training-set bias")
    if not with_bias and ts.bias is not None:
        raise DataError("training set carries a bias; call with with_bias=True")
    if not ts.entries:
        raise DataError("empty training set")
    state, test_norm = _coerce_test_pure(test, ts)
    if state.dim != ts.data_dim:
        raise DimensionError(f"test dim {state.dim} != training dim {ts.data_dim}")
    u, x, n_u, n_x, bias = _hc_sides(ts, state, test_norm, with_bias)
    scale = 1.0 / math.sqrt(n_u * n_x)
    terms = _terms(scale * (1 - 2 * ts.labels) * ts.weights * test_norm * ts.norms
                   * _real_overlaps(ts, state))
    bias_term = scale * bias
    value = bias_term + sum(v for _, v in terms)
    simulated = _interference_pair_expectation(
        u / math.sqrt(n_u), x / math.sqrt(n_x), measure_label=True)
    if abs(simulated - value) > MODE_AGREEMENT_ATOL:
        raise NumericError(
            f"Hadamard circuit value {simulated} disagrees with the closed form {value}")
    return ClassifierOutput(value, decide(value, tie_eps), terms, bias_term=bias_term)


def qsvm_oracle_classify(alphas: Sequence[float], b: float, ts: TrainingSet,
                         test, tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Oracle-state classifier with externally supplied signed multipliers.

    Builds the two-branch oracle state over [index | data] registers,
    interferes the branches through a Hadamard on the ancilla, and returns
    the ancilla Z expectation (b + sum_m alpha_m |x_m| |x~| Re<x_m|x~>) / N.
    """
    alphas = np.asarray(alphas, dtype=float)
    if ts.is_mixed:
        raise DataError("the oracle classifier accepts pure-state data only")
    if alphas.size != len(ts):
        raise DataError(f"{alphas.size} multipliers for {len(ts)} training points")
    state, test_norm = _coerce_test_pure(test, ts)
    if not np.any(alphas) and b == 0.0:
        raise DataError("degenerate oracle: all multipliers and the bias are zero")
    if ts.entries and state.dim != ts.data_dim:
        raise DimensionError(f"test dim {state.dim} != training dim {ts.data_dim}")
    dim = ts.data_dim
    idx_dim = index_register_dim(len(ts) + 1)
    u = b * tensor(basis_state(idx_dim, 0), basis_state(dim, 0))
    x = 1.0 * tensor(basis_state(idx_dim, 0), basis_state(dim, 0))
    for m, (s, entry) in enumerate(zip(ts.pure_states(), ts.entries)):
        u = u + alphas[m] * entry.norm * tensor(basis_state(idx_dim, m + 1), s.vec)
        x = x + test_norm * tensor(basis_state(idx_dim, m + 1), state.vec)
    n_u = float(np.vdot(u, u).real)
    n_x = float(np.vdot(x, x).real)
    if n_u <= 0.0:
        raise DataError("degenerate oracle: training branch has zero norm")
    scale = 1.0 / math.sqrt(n_u * n_x)
    terms = _terms(scale * alphas * ts.norms * test_norm * _real_overlaps(ts, state))
    bias_term = scale * b
    value = bias_term + sum(v for _, v in terms)
    simulated = _interference_pair_expectation(
        u / math.sqrt(n_u), x / math.sqrt(n_x), measure_label=False)
    if abs(simulated - value) > MODE_AGREEMENT_ATOL:
        raise NumericError(
            f"oracle circuit value {simulated} disagrees with the closed form {value}")
    return ClassifierOutput(value, decide(value, tie_eps), terms, bias_term=bias_term)


def classify_assembled(state: ClassifierState,
                       tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Expectation-value classification of an already assembled state.

    Ensembles whose members use different copy counts are evaluated member
    by member and combined linearly; otherwise the state is measured through
    the circuit (with ancilla) or the swap observable (without).
    """
    if state.members is not None:
        value = sum(q * classify_assembled(member, tie_eps).expectation
                    for q, member in state.members)
    elif state.layout.has(ANCILLA):
        after = run_swap_test(state)
        value = expectation(ancilla_label_parity(after.layout), after)
    else:
        value = expectation(swap_label_observable(state.layout), state)
    return ClassifierOutput(float(value), decide(value, tie_eps))


def single_shot_classify(ts: TrainingSet, test, seed: int) -> int:
    """One projective-measurement draw, mapped to a label by (1 - outcome)/2.

    The swap-label observable squares to the identity, so p(+1) = (1 + E)/2
    with E the analytic expectation; the draw is ``random() < p(+1)`` on a
    generator seeded with ``seed``.
    """
    value = stc_classify(ts, test).expectation
    rng = np.random.default_rng(seed)
    outcome = 1 if rng.random() < (1.0 + value) / 2.0 else -1
    return outcome_to_label(outcome)


@dataclass(frozen=True)
class TestMixture:
    """Test data drawn from class-conditional states with known priors."""

    p0: float
    p1: float
    rho0: DensityMatrix
    rho1: DensityMatrix

    def __post_init__(self):
        if self.p0 < 0 or self.p1 < 0 or abs(self.p0 + self.p1 - 1.0) > 1e-9:
            raise DataError("mixture priors must be nonnegative and sum to 1")
        if self.rho0.dim != self.rho1.dim:
            raise DimensionError("mixture components have different dimensions")


def misclassification_probability(ts: TrainingSet, mix: TestMixture) -> float:
    """Single-shot error probability for test data drawn from ``mix``.

    Computed from the measurement projectors; at k=1 the equivalent closed
    form in terms of trace inner products is evaluated as well and both must
    agree to 1e-10.
    """
    if not ts.entries:
        raise DataError("empty training set")
    data = _mixed_data(ts)

    def error_given(test_rho: DensityMatrix, wrong_outcome: int) -> float:
        state = encoding.assemble_mixed_stc_input(test_rho, data, ts.k,
                                                  with_ancilla=False)
        probs = outcome_probabilities(swap_label_observable(state.layout), state)
        return probs[wrong_outcome]

    # Outcome +1 decides class 0, so a class-0 test point errs on -1.
    projector_value = mix.p0 * error_given(mix.rho0, -1) + mix.p1 * error_given(mix.rho1, +1)
    if ts.k == 1:
        # Tr((p0 rho0 - p1 rho1) rho_m) from the trace kernel of each class state.
        kernels = kernel_matrix(KernelSpec(HS_TRACE), [mix.rho0, mix.rho1],
                                [rho for rho, _, _ in data])
        helstrom = mix.p0 * kernels[0] - mix.p1 * kernels[1]
        closed = 0.5 - 0.5 * float(np.sum((1 - 2 * ts.labels) * ts.effective_weights()
                                          * helstrom))
        if abs(closed - projector_value) > MODE_AGREEMENT_ATOL:
            raise NumericError(
                f"projector error rate {projector_value} disagrees with "
                f"the closed form {closed}")
        value = closed
    else:
        value = projector_value
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise NumericError(f"error probability {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class HelstromSpec:
    """Class priors and class-conditional training states (k-fold copies)."""

    p0: float
    p1: float
    rho0: DensityMatrix
    rho1: DensityMatrix

    @classmethod
    def from_training_set(cls, ts: TrainingSet) -> "HelstromSpec":
        weights = ts.effective_weights()
        labels = ts.labels
        p = [float(weights[labels == c].sum()) for c in (0, 1)]
        if p[0] <= 0.0 or p[1] <= 0.0:
            raise DataError("both classes must be present in the training set")
        dim = ts.data_dim ** ts.k
        blocks = {c: np.zeros((dim, dim), dtype=complex) for c in (0, 1)}
        for rho, label, w in zip(ts.density_states(), labels, weights):
            blocks[label] += (w / p[label]) * tensor_power(rho.entries, ts.k)
        return cls(p[0], p[1],
                   DensityMatrix(blocks[0], check_psd=False),
                   DensityMatrix(blocks[1], check_psd=False))


def helstrom_operator(ts: TrainingSet) -> np.ndarray:
    """p0 rho0 - p1 rho1 over the k-fold training registers.

    Its trace against the k-fold test state reproduces the analytic
    swap-test expectation.
    """
    spec = HelstromSpec.from_training_set(ts)
    return spec.p0 * spec.rho0.entries - spec.p1 * spec.rho1.entries
