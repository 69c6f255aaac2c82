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
from .circuit import (expectation, outcome_probabilities,
                      swap_label_observable, swap_test_expectation)
from .encoding import ClassifierState, TrainingSet
from .errors import DataError, DimensionError, NumericError
from .kernelsvm import (HS_TRACE, REAL_OVERLAP, SQUARED_OVERLAP, KernelSpec,
                        kernel_matrix)
from .qmath import DensityMatrix, QState
from .registers import ANCILLA, index_register_dim

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
    vecs, norms = encoding.encode_rows(qmath.as_cvec(test)[None])
    return QState(vecs[0]), (float(norms[0]) if ts.mode == encoding.KEEP_NORMS else 1.0)


def _terms(values: np.ndarray) -> tuple[tuple[int, float], ...]:
    return tuple(enumerate(values.tolist()))


def _stc_terms(ts: TrainingSet, tests, weights: np.ndarray) -> np.ndarray:
    """Swap-test terms T[n, m] = sign_m w_m kernel(tests[n], x_m)**k: the
    squared overlap of pure tests, the trace inner product of density matrices."""
    if isinstance(tests[0], DensityMatrix):
        spec, train = KernelSpec(HS_TRACE, ts.k), ts.density_matrices()
    else:
        spec, train = KernelSpec(SQUARED_OVERLAP, ts.k), ts.states
    return kernel_matrix(spec, tests, train) * ((1 - 2 * ts.labels) * weights)


def _kernel_output(terms: np.ndarray, tie_eps: float, bias_term: float = 0.0) -> ClassifierOutput:
    """Output whose value is the bias term plus the sum of one row of terms."""
    per_term = _terms(terms)
    value = bias_term + float(sum(v for _, v in per_term))
    return ClassifierOutput(value, decide(value, tie_eps), per_term, bias_term=bias_term)


def _real_overlaps(ts: TrainingSet, test: QState) -> np.ndarray:
    """Re<x_m|test> for every training entry."""
    return kernel_matrix(KernelSpec(REAL_OVERLAP), ts.states, [test])[:, 0]


def _circuit_mode_value(ts: TrainingSet, test, minimal: bool) -> float:
    """Swap-test measurement value of the assembled input stack:
    label-grouped eigen-factor products for a density-matrix test state;
    for pure data one row per training entry, measured part by part so that
    memory does not grow with the number of entries."""
    if isinstance(test, DensityMatrix):
        state = encoding.mixed_stc_state(ts, test, with_ancilla=not minimal)
        return classify_assembled(state).expectation
    return sum(p * classify_assembled(part).expectation
               for p, part in encoding.pure_stc_parts(ts, test, with_ancilla=not minimal))


def stc_classify(ts: TrainingSet, test, mode: str = "analytic",
                 tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Swap-test classifier expectation and label.

    The three modes are numerically interchangeable: ``analytic`` sums the
    signed, weighted kernel powers directly; ``ancilla-circuit`` runs the
    swap-test circuit and measures the ancilla-label parity; ``minimal``
    measures the ancilla-free swap observable on the bare input state. The
    circuit modes return the simulated value; :class:`ClassifierOutput`
    checks it against the per-term kernel sum to 1e-12. With mixed training
    data the test is taken as a density matrix.
    """
    if mode not in STC_MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {STC_MODES}")
    if not isinstance(test, DensityMatrix):
        test, _ = _coerce_test_pure(test, ts)
        if ts.is_mixed:
            test = test.to_density()
    out = next(stc_classify_batch(ts, [test], tie_eps))
    if mode == "analytic":
        return out
    value = _circuit_mode_value(ts, test, minimal=(mode == "minimal"))
    return ClassifierOutput(value, decide(value, tie_eps), out.per_term)


def stc_classify_batch(ts: TrainingSet, tests, tie_eps: float = TIE_EPS):
    """Analytic swap-test outputs of N test states (QStates or an (N, d)
    stack of unit vectors; DensityMatrices for mixed data): the terms from
    one :func:`kernel_matrix` call, each output made as it is iterated."""
    if ts.bias is not None:
        raise DataError("training set carries a bias; use stc_classify_bias")
    if not len(ts):
        raise DataError("empty training set")
    return (_kernel_output(row, tie_eps)
            for row in _stc_terms(ts, tests, ts.effective_weights()))


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
    out = _kernel_output(_stc_terms(ts, [state], weights)[0] if len(ts) else np.zeros(0),
                         tie_eps, bias_term)
    simulated = swap_test_expectation(encoding.assemble_bias_extended(ts, state))
    if abs(simulated - out.expectation) > MODE_AGREEMENT_ATOL:
        raise NumericError(f"bias circuit value {simulated} disagrees with "
                           f"the closed form {out.expectation}")
    return out


def _interference(u: np.ndarray, x: np.ndarray, coefficients: np.ndarray,
                  overlaps: np.ndarray, bias: float, measure_label: bool, what: str,
                  tie_eps: float) -> ClassifierOutput:
    """Closed form and simulation of the one-gate interference circuit with
    training branch ``u`` and test branch ``x``.

    The closed form is (bias + sum_m coefficients_m overlaps_m) / (|u| |x|).
    The circuit prepares (|0>|u> + |1>|x>)/sqrt(2) with both branches
    normalized, applies a Hadamard to the ancilla, and measures Z on the
    ancilla (times Z on the trailing label qubit when ``measure_label`` is
    set); the two must agree to 1e-10, with no imaginary part above it.
    """
    n_u, n_x = float(np.vdot(u, u).real), float(np.vdot(x, x).real)
    if n_u <= 0.0:
        raise DataError(f"degenerate {what}: training branch has zero norm")
    scale = 1.0 / math.sqrt(n_u * n_x)
    terms = _terms(scale * coefficients * overlaps)
    bias_term = scale * bias
    value = bias_term + sum(v for _, v in terms)
    psi = qmath.HADAMARD @ (np.stack([u / math.sqrt(n_u), x / math.sqrt(n_x)]) / math.sqrt(2.0))
    measured = (psi.reshape(2, -1, 2) @ qmath.SIGMA_Z.T).reshape(2, -1) if measure_label else psi
    simulated = complex(np.vdot(psi[0], measured[0]) - np.vdot(psi[1], measured[1]))
    if max(abs(simulated.imag), abs(simulated.real - value)) > MODE_AGREEMENT_ATOL:
        raise NumericError(
            f"{what} circuit value {simulated} disagrees with the closed form {value}")
    return ClassifierOutput(value, decide(value, tie_eps), terms, bias_term=bias_term)


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
    if not len(ts):
        raise DataError("empty training set")
    state, test_norm = _coerce_test_pure(test, ts)
    if state.dim != ts.data_dim:
        raise DimensionError(f"test dim {state.dim} != training dim {ts.data_dim}")
    # Branches on [index | data | label]: slot 0 holds the bias (amplitude 0
    # without one), slot 1 + m entry m in its label block.
    bias = ts.bias if with_bias else 0.0
    u = np.zeros((index_register_dim(len(ts) + 1), ts.data_dim, 2), dtype=complex)
    x = np.zeros_like(u)
    u[0, 0, int(bias < 0)] = x[0, 0, int(bias < 0)] = math.sqrt(abs(bias))
    slots, amp = 1 + np.arange(len(ts)), np.sqrt(ts.weights)
    u[slots, :, ts.labels] = (amp * ts.norms)[:, None] * ts.states
    x[slots, :, ts.labels] = (amp * test_norm)[:, None] * state.vec
    return _interference(u.reshape(-1), x.reshape(-1),
                         (1 - 2 * ts.labels) * ts.weights * test_norm * ts.norms,
                         _real_overlaps(ts, state), bias, True, "Hadamard", tie_eps)


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
    if len(ts) and state.dim != ts.data_dim:
        raise DimensionError(f"test dim {state.dim} != training dim {ts.data_dim}")
    u = np.zeros((index_register_dim(len(ts) + 1), ts.data_dim), dtype=complex)
    x = np.zeros_like(u)
    u[0, 0], x[0, 0] = b, 1.0
    u[1:len(ts) + 1] = (alphas * ts.norms)[:, None] * ts.states
    x[1:len(ts) + 1] = test_norm * state.vec
    return _interference(u.reshape(-1), x.reshape(-1), alphas * ts.norms * test_norm,
                         _real_overlaps(ts, state), b, False, "oracle", tie_eps)


def classify_assembled(state: ClassifierState,
                       tie_eps: float = TIE_EPS) -> ClassifierOutput:
    """Expectation-value classification of an already assembled state.

    Ensembles whose members use different copy counts are evaluated member
    by member and combined linearly; otherwise the stack is measured through
    the blocked circuit kernel (with ancilla) or the swap observable
    (without).
    """
    if state.members is not None:
        value = sum(q * classify_assembled(member, tie_eps).expectation
                    for q, member in state.members)
    elif state.layout.has(ANCILLA):
        value = swap_test_expectation(state)
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

    Computed from the measurement projectors on the assembled stacks of the
    two class states, and checked to 1e-10, at every copy count k, against
    the closed form 1/2 (p0 + p1) - 1/2 (p0 E_0 - p1 E_1) with
    E_c = sum_m sign_m w_m Tr(rho_c rho_m)**k.
    """
    if not len(ts):
        raise DataError("empty training set")

    def error_given(test_rho: DensityMatrix, wrong_outcome: int) -> float:
        state = encoding.mixed_stc_state(ts, test_rho, with_ancilla=False)
        probs = outcome_probabilities(swap_label_observable(state.layout), state)
        return probs[wrong_outcome]

    # Outcome +1 decides class 0, so a class-0 test point errs on -1.
    projector_value = mix.p0 * error_given(mix.rho0, -1) + mix.p1 * error_given(mix.rho1, +1)
    kernels = kernel_matrix(KernelSpec(HS_TRACE, ts.k), [mix.rho0, mix.rho1],
                            ts.density_matrices())
    signed = (1 - 2 * ts.labels) * ts.effective_weights()
    value = 0.5 * (mix.p0 + mix.p1) - 0.5 * float(
        signed @ (mix.p0 * kernels[0] - mix.p1 * kernels[1]))
    if abs(value - projector_value) > MODE_AGREEMENT_ATOL:
        raise NumericError(
            f"projector error rate {projector_value} disagrees with "
            f"the closed form {value}")
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise NumericError(f"error probability {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def helstrom_operator(ts: TrainingSet) -> np.ndarray:
    """p0 rho0 - p1 rho1 = sum_m sign_m w_m rho_m^(x)k over the k-fold
    training registers, with p_c the prior and rho_c the class-conditional
    state of class c.

    Its trace against the k-fold test state reproduces the analytic
    swap-test expectation.
    """
    weights, labels = ts.effective_weights(), ts.labels
    if not (np.any(weights[labels == 0] > 0) and np.any(weights[labels == 1] > 0)):
        raise DataError("both classes must be present in the training set")
    return qmath.power_mixture(ts.density_matrices(), (1 - 2 * labels) * weights, ts.k)
