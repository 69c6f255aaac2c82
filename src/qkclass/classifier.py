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
from .circuit import _stack_value, expectation, swap_label_observable, swap_test_expectation
from .constants import STC_MODES, check_dense_budget, check_seed
from .encoding import ClassifierState, TrainingSet
from .errors import DataError, DimensionError, NumericError
from .kernelsvm import HS_TRACE, REAL_OVERLAP, KernelSpec, kernel_matrix
from .qmath import ATOL_DERIVED, DensityMatrix, QState
from .registers import ANCILLA, block_layout

TIE_EPS = 1e-12

TIE = "tie"


def outcome_to_label(outcome: int) -> int:
    """Map a +-1 measurement outcome to the class label (1 - outcome) / 2."""
    if outcome not in (1, -1):
        raise DataError(f"outcome must be +1 or -1, got {outcome!r}")
    return (1 - outcome) // 2


def decide(value: float):
    if value > TIE_EPS:
        return 0
    if value < -TIE_EPS:
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
        _checked(np.array([self.expectation], dtype=float), None if self.per_term is None
                 else np.array([[v for _, v in self.per_term]], dtype=float), self.bias_term)


def _coerce_test_pure(test) -> tuple[np.ndarray, np.ndarray]:
    """A QState or a raw feature vector as a stack of one unit vector, with
    its raw norm (1 for a QState)."""
    if isinstance(test, QState):
        return test.vec[None], np.ones(1)
    if isinstance(test, DensityMatrix):
        raise DataError("this classifier accepts pure test states only")
    return encoding.encode_rows(qmath.as_cvec(test)[None])


def _stc_terms(ts: TrainingSet, tests, weights: np.ndarray) -> np.ndarray:
    """Swap-test terms T[n, m] = sign_m w_m Tr(rho_n sigma_m)**k, which for
    pure tests and training states is their squared overlap."""
    if not len(ts):
        return np.zeros((len(tests), 0))
    train = ts.density_matrices() if isinstance(tests[0], DensityMatrix) else ts.states
    return kernel_matrix(KernelSpec(HS_TRACE, ts.k), tests, train) * ((1 - 2 * ts.labels) * weights)


def _chunks(count: int, row_bytes: int):
    """Slices of consecutive rows, as many to a slice as fit in
    ``encoding.PART_BYTES`` at ``row_bytes`` each, and at least one."""
    size = max(1, encoding.PART_BYTES // max(1, row_bytes))
    return (slice(lo, lo + size) for lo in range(0, count, size))


def _checked(values: np.ndarray, terms: np.ndarray | None, bias):
    """A chunk's (values, terms, bias), after the checks every
    :class:`ClassifierOutput` makes of itself, run once over the chunk:
    every value in [-1, 1] to 1e-10 (NaN fails), and, unless ``terms`` is
    None, each row's terms plus its bias term reproduce its value to 1e-12."""
    bad = np.flatnonzero(~(np.abs(values) <= 1.0 + 1e-10))
    if bad.size:
        raise NumericError(f"expectation {values[bad[0]]} outside [-1, 1]")
    if terms is None:
        return values, terms, bias
    totals = terms.sum(axis=1) + bias
    bad = np.flatnonzero(~(np.abs(totals - values) <= 1e-12))
    if bad.size:
        raise NumericError(f"per-term sum {totals[bad[0]]} does not reproduce "
                           f"expectation {values[bad[0]]}")
    return values, terms, bias


def _outputs(chunks):
    """One output per test row of a batch's (values, terms, bias) chunks: its
    value, its row of terms and its bias term. The chunks come checked
    (:func:`_checked`), so the outputs are built without checking each row
    again."""
    for values, terms, bias in chunks:
        bias_terms = np.broadcast_to(bias, values.shape).tolist()
        for value, row, bias_term in zip(values.tolist(), terms, bias_terms):
            out = object.__new__(ClassifierOutput)
            out.__dict__.update(expectation=value, predicted_label=decide(value),
                                per_term=tuple(enumerate(row.tolist())), bias_term=bias_term)
            yield out


def _check_circuit(simulated: np.ndarray, closed: np.ndarray, what: str):
    """Every test row's circuit value must equal its closed form to 1e-10."""
    gap = np.abs(simulated - closed).max()
    if gap > ATOL_DERIVED:
        raise NumericError(f"{what} circuit values disagree with the closed form by {gap}")


def stc_classify(ts: TrainingSet, test, mode: str = "analytic") -> ClassifierOutput:
    """Swap-test classifier expectation and label.

    The three modes are numerically interchangeable: ``analytic`` sums the
    signed, weighted kernel powers directly; ``ancilla-circuit`` runs the
    swap-test circuit and measures the ancilla-label parity; ``minimal``
    measures the ancilla-free swap observable on the bare input state. The
    circuit modes return the simulated value; :class:`ClassifierOutput`
    checks it against the per-term kernel sum to 1e-12. With mixed training
    data the test is taken as a density matrix. The test is scored as a
    batch of one.
    """
    if mode not in STC_MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {STC_MODES}")
    if isinstance(test, DensityMatrix):
        tests = [test]
    else:
        tests = _coerce_test_pure(test)[0]
        if ts.is_mixed:
            tests = [QState(tests[0]).to_density()]
    return next(_outputs(_stc_batch(ts, tests, mode)))


def _stc_batch(ts: TrainingSet, tests, mode: str):
    """Swap-test (values, terms, bias) of N tests (an (N, d) stack of unit
    vectors, or a list of DensityMatrices, unless ``analytic``), one
    :func:`_checked` chunk at a time: per chunk one :func:`kernel_matrix`
    call and one blocked circuit pass. Mode ``bias``
    (:func:`stc_classify_bias`) checks its closed form on the
    bias-extended rows; the circuit modes sum each test's signed
    index-free input rows (:func:`encoding.mixed_stc_state`), built in
    parts of at most ``PART_BYTES``. One row of a circuit mode's layout is
    checked against the size budget before any row is built."""
    if (mode == "bias") != (ts.bias is not None):
        raise DataError("stc_classify_bias takes a training set with a bias, "
                        "stc_classify one without")
    bias, weights = ts.effective_bias_and_weights()
    layout = None if mode == "analytic" else block_layout(
        ts.data_dim if len(ts) else tests.shape[1], ts.k, ancilla=mode != "minimal",
        index_slots=len(ts) + 1 if mode == "bias" else None)
    if layout is not None:
        check_dense_budget((1, layout.dim), "circuit row")
    obs = swap_label_observable(layout) if mode == "minimal" else None
    if layout is not None and mode != "bias":
        train = encoding._train_rows(ts)
    row_bytes = (8 * len(ts) if layout is None
                 else 16 * layout.dim * (1 if mode == "bias" else len(train[0])))
    for rows in _chunks(len(tests), row_bytes):
        terms = _stc_terms(ts, tests[rows], weights)
        values = bias + terms.sum(axis=1)
        if mode == "bias":
            _check_circuit(_stack_value(*encoding._indexed_rows(ts, tests[rows])), values, "bias")
        elif layout is not None:
            test_rows, test_signs, starts = encoding._test_rows(tests[rows], ts.k)
            signs = np.multiply.outer(test_signs, train[2]).ravel()
            pairs = np.arange(signs.size)
            values = np.concatenate([_stack_value(encoding._product_rows(
                test_rows, train, pairs[part], ancilla=obs is None), layout, obs)
                for part in _chunks(pairs.size, 16 * layout.dim)])
            values = np.add.reduceat(values * signs, starts * len(train[0]))
            residual = np.abs(values.imag).max()
            if residual > ATOL_DERIVED:
                raise NumericError(f"circuit value has imaginary residual {residual}")
            values = values.real
        yield _checked(values, terms, bias)


def stc_classify_bias(ts: TrainingSet, test) -> ClassifierOutput:
    """Swap-test classifier with the bias encoded in an extra index slot.

    The expectation equals (b + sum_m sign_m w_m kernel_m**k) / N with
    N = |b| + sum_m w_m. On every call the swap-test circuit is also
    simulated on the bias-extended state vector, and its ancilla-label
    parity must agree with the closed form to 1e-10. Neither a density
    matrix nor a dense operator is built, so the check costs about the
    state vector. The test is scored as a batch of one.
    """
    return next(_outputs(_stc_batch(ts, _coerce_test_pure(test)[0], "bias")))


def _interference_batch(ts: TrainingSet, tests: np.ndarray, norms: np.ndarray, amps,
                        labels: np.ndarray, what: str):
    """One-gate interference (values, terms, bias) of an (N, d) stack of
    unit vectors t with raw norms n (read in keep-norms mode). Branch u
    holds amps[0]_0 |0> in index slot 0 and amps[0]_s |x_s> in slot s,
    branch x amps[1]_0 |0> and amps[1]_s n |t>, on label labels[s]. Per
    chunk the closed form Re<u|Z_label|x> / (|u| |x|) comes from one
    kernel_matrix call, and the circuit, a Hadamard on the ancilla of
    (|0>|u> + |1>|x>)/sqrt(2) with normalized branches, then Z on ancilla
    and label, must agree to 1e-10. Each chunk is yielded through
    :func:`_checked`.
    """
    if ts.is_mixed:
        raise DataError(f"the {what} classifier accepts pure-state data only")
    dim, slots = tests.shape[1], labels.size
    if len(ts) and dim != ts.data_dim:
        raise DimensionError(f"test dim {dim} != training dim {ts.data_dim}")
    norms = norms if ts.mode == encoding.KEEP_NORMS else np.ones(len(tests))
    coefficients = (1 - 2 * labels) * amps[0] * amps[1]
    branches = np.concatenate([np.eye(1, dim), ts.states.reshape(-1, dim)])
    u = encoding._slot_rows(np.ones((1, 1)), amps[0][None, :, None] * branches, labels,
                            slots=slots)
    n_u = np.linalg.norm(u)
    for rows in _chunks(len(tests), 32 * u.size):
        t, n = tests[rows], norms[rows]
        branches = np.repeat((n[:, None] * t)[:, None], slots, axis=1)
        branches[:, 0] = np.eye(1, dim)
        x = encoding._slot_rows(np.ones((1, 1)), amps[1][:, None] * branches, labels,
                                slots=slots)
        scale = 1.0 / (n_u * np.linalg.norm(x, axis=1))
        overlaps = (kernel_matrix(KernelSpec(REAL_OVERLAP), ts.states, t).T if len(ts)
                    else np.zeros((len(t), 0)))
        terms = (scale * n)[:, None] * coefficients[1:] * overlaps
        closed = scale * coefficients[0] + terms.sum(axis=1)
        # After the Hadamard the ancilla halves are (u +- x) / 2, normalized.
        u_hat, x_hat = u / n_u, x * (scale * n_u)[:, None]
        parity = ((np.abs(u_hat + x_hat) ** 2 - np.abs(u_hat - x_hat) ** 2) / 4.0).reshape(
            len(t), dim, 2, slots)
        _check_circuit((parity[:, :, 0] - parity[:, :, 1]).sum(axis=(1, 2)), closed, what)
        yield _checked(closed, terms, scale * coefficients[0])


def hadamard_classify(ts: TrainingSet, test, with_bias: bool = False) -> ClassifierOutput:
    """Hadamard classifier: interference of training and test branches of an
    ancilla, scoring by the real part of the overlap.

    Sensitive to global phases of the data (only the real part of the inner
    product enters), unlike the swap-test classifier. Pure states and a
    single data copy only. The test is scored as a batch of one.
    """
    return next(_outputs(_hadamard_batch(ts, *_coerce_test_pure(test), with_bias)))


def _hadamard_batch(ts: TrainingSet, tests: np.ndarray, norms: np.ndarray, with_bias: bool):
    """:func:`hadamard_classify` of an (N, d) stack of unit vectors with raw
    norms: sqrt|b| on label y_b in slot 0 (0 without a bias), entry m in 1 + m."""
    if ts.k != 1:
        raise DataError("the Hadamard classifier has no copy structure; use k=1")
    if with_bias != (ts.bias is not None):
        raise DataError("with_bias=True takes a training set with a bias, False one without")
    if not len(ts):
        raise DataError("empty training set")
    bias = ts.bias if with_bias else 0.0
    amp = np.append(math.sqrt(abs(bias)), np.sqrt(ts.weights))
    return _interference_batch(ts, tests, norms, (amp * np.append(1.0, ts.norms), amp),
                               np.append(int(bias < 0), ts.labels), "Hadamard")


def qsvm_oracle_classify(alphas: Sequence[float], b: float, ts: TrainingSet,
                         test) -> ClassifierOutput:
    """Oracle-state classifier with externally supplied signed multipliers.

    Builds the two-branch oracle state over index and data registers,
    interferes the branches through a Hadamard on the ancilla, and returns
    the ancilla Z expectation (b + sum_m alpha_m |x_m| |x~| Re<x_m|x~>) / N.
    The test is scored as a batch of one.
    """
    return next(_outputs(_qsvm_batch(alphas, b, ts, *_coerce_test_pure(test))))


def _qsvm_batch(alphas: Sequence[float], b: float, ts: TrainingSet, tests: np.ndarray,
                norms: np.ndarray):
    """:func:`qsvm_oracle_classify` of an (N, d) stack of unit vectors with raw
    norms; all on label 0, so the parity is Z on the ancilla."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size != len(ts):
        raise DataError(f"{alphas.size} multipliers for {len(ts)} training points")
    if not np.any(alphas) and b == 0.0:
        raise DataError("degenerate oracle: all multipliers and the bias are zero")
    return _interference_batch(ts, tests, norms, (np.append(b, alphas * ts.norms),
                                                  np.ones(len(ts) + 1)),
                               np.zeros(len(ts) + 1, dtype=int), "oracle")


def classify_assembled(state: ClassifierState) -> ClassifierOutput:
    """Expectation-value classification of an already assembled state.

    Ensembles whose members use different copy counts are evaluated member
    by member and combined linearly; otherwise the stack is measured through
    the blocked circuit kernel (with ancilla) or the swap observable
    (without).
    """
    if state.members is not None:
        value = sum(q * classify_assembled(member).expectation for q, member in state.members)
    elif state.layout.has(ANCILLA):
        value = swap_test_expectation(state)
    else:
        value = expectation(swap_label_observable(state.layout), state)
    return ClassifierOutput(float(value), decide(value))


def single_shot_classify(ts: TrainingSet, test, seed: int) -> int:
    """One projective-measurement draw, mapped to a label by (1 - outcome)/2.

    The swap-label observable squares to the identity, so p(+1) = (1 + E)/2
    with E the analytic expectation; the draw is ``random() < p(+1)`` on a
    generator seeded with ``seed``.
    """
    seed = check_seed(seed)
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
    """Single-shot error probability for test data drawn from ``mix``:
    1/2 (p0 + p1) - 1/2 (p0 E_0 - p1 E_1), where E_c is the ``minimal``
    mode of :func:`stc_classify` on rho_c, the ancilla-free swap-label
    observable measured on rho_c^(x)k and the training state.

    Both class states go through one batch call, their rows streamed in
    parts of at most ``PART_BYTES``. Each simulated E_c is checked
    (:func:`_checked`) against its per-term sum
    sum_m sign_m w_m Tr(rho_c rho_m)**k to 1e-12, at every copy count k. A
    training set with a bias is refused: the single-shot classifier has none.
    """
    if ts.bias is not None:
        raise DataError("misclassification_probability takes a training set without a bias")
    e0, e1 = np.concatenate([values for values, _, _ in
                             _stc_batch(ts, [mix.rho0, mix.rho1], "minimal")]).tolist()
    value = 0.5 * (mix.p0 + mix.p1) - 0.5 * (mix.p0 * e0 - mix.p1 * e1)
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
