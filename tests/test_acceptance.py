"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is computed independently of the code path under
test: closed forms are evaluated from raw overlaps/traces inside the test,
hand-derived constants are frozen, and statistical checks use seeded draws
with binomial bounds.
"""

import time

import numpy as np
from helpers import basis_state, maximally_mixed, projector_onto, random_density_matrix

from qkclass.circuit import (ancilla_label_parity, build_swap_test_unitary,
                             empirical_expectation, expectation,
                             outcome_probabilities, run_swap_test,
                             sample_shots, swap_label_observable)
from qkclass.classifier import (TestMixture as Mixture,
                                hadamard_classify,
                                misclassification_probability, stc_classify,
                                stc_classify_bias)
from qkclass.datasets import gen_toy
from qkclass.encoding import (TrainingSet, amplitude_encode,
                              assemble_ensemble_exponents,
                              assemble_ensemble_weights,
                              assemble_mixed_stc_input)
from qkclass.kernelsvm import (HS_TRACE, SQUARED_OVERLAP, KernelSpec, gram,
                               psd_certify, regression, svm_train)
from qkclass.qmath import (SIGMA_Z, DensityMatrix, QState, fidelity, hs_inner,
                           random_state_vector, tensor)
from qkclass.registers import block_layout

N_HARNESS = 200


def _sign(y):
    return 1 - 2 * y


def pure_harness_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    m = int(rng.integers(1, 5))
    dim = 2 ** n
    states = [random_state_vector(dim, rng) for _ in range(m)]
    labels = [int(rng.integers(0, 2)) for _ in range(m)]
    weights = rng.random(m) + 0.05
    weights /= weights.sum()
    test = random_state_vector(dim, rng)
    ts = TrainingSet.from_states(list(zip(states, labels, weights)), k=k)
    return ts, test, states, labels, weights, k


def mixed_harness_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    m = int(rng.integers(1, 5))
    dim = 2 ** n
    states = [random_density_matrix(dim, rng) for _ in range(m)]
    labels = [int(rng.integers(0, 2)) for _ in range(m)]
    weights = rng.random(m) + 0.05
    weights /= weights.sum()
    test = random_density_matrix(dim, rng)
    ts = TrainingSet.from_states(list(zip(states, labels, weights)), k=k)
    return ts, test, states, labels, weights, k


def test_criterion_01_circuit_formula_equivalence_pure():
    seeds = np.random.SeedSequence(20240101).generate_state(N_HARNESS)
    start = time.monotonic()
    worst = 0.0
    for seed in seeds:
        ts, test, states, labels, weights, k = pure_harness_instance(seed)
        circuit = stc_classify(ts, test, mode="ancilla-circuit").expectation
        formula = sum(_sign(y) * w * abs(test.overlap(s)) ** (2 * k)
                      for s, y, w in zip(states, labels, weights))
        worst = max(worst, abs(circuit - formula))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"\n[criterion 01] PASS circuit vs closed form (pure): "
          f"max |diff| = {worst:.2e} over {N_HARNESS} instances in {elapsed:.1f}s")


def test_criterion_02_circuit_formula_equivalence_mixed():
    seeds = np.random.SeedSequence(20240202).generate_state(N_HARNESS)
    worst = 0.0
    for seed in seeds:
        ts, test, states, labels, weights, k = mixed_harness_instance(seed)
        circuit = stc_classify(ts, test, mode="ancilla-circuit").expectation
        formula = sum(_sign(y) * w * hs_inner(test, s) ** k
                      for s, y, w in zip(states, labels, weights))
        worst = max(worst, abs(circuit - formula))
    assert worst < 1e-10
    print(f"\n[criterion 02] PASS circuit vs closed form (mixed): "
          f"max |diff| = {worst:.2e} over {N_HARNESS} instances")


def test_criterion_03_effective_observable_identity():
    worst = 0.0
    for n, k in ((1, 1), (1, 2), (2, 1)):
        layout = block_layout(2 ** n, k)
        v = build_swap_test_unitary(layout)
        conjugated = v.conj().T @ ancilla_label_parity(layout).matrix @ v
        bare = block_layout(2 ** n, k, ancilla=False)
        effective = tensor(SIGMA_Z, swap_label_observable(bare).matrix)
        worst = max(worst, float(np.linalg.norm(conjugated - effective)))
    assert worst < 1e-12
    seeds = np.random.SeedSequence(20240303).generate_state(60)
    worst_mode = 0.0
    for i, seed in enumerate(seeds):
        make = pure_harness_instance if i % 2 else mixed_harness_instance
        ts, test = make(seed)[:2]
        ancilla = stc_classify(ts, test, mode="ancilla-circuit").expectation
        minimal = stc_classify(ts, test, mode="minimal").expectation
        worst_mode = max(worst_mode, abs(ancilla - minimal))
    assert worst_mode < 1e-10
    print(f"\n[criterion 03] PASS effective observable: max Frobenius gap = {worst:.2e}, "
          f"max |minimal - ancilla| = {worst_mode:.2e}")


def test_criterion_04_spectral_check():
    spec = swap_label_observable(block_layout(2, 1, ancilla=False)).spectrum
    counts = {1.0: 0, -1.0: 0}
    for lam in spec.eigenvalues:
        key = 1.0 if abs(lam - 1) < 1e-10 else -1.0
        assert abs(abs(lam) - 1.0) < 1e-10
        counts[key] += 1
    assert counts == {1.0: 4, -1.0: 4}
    s2 = 1 / np.sqrt(2)
    table = [
        (1.0, np.kron([1, 0, 0, 0], [1, 0])), (1.0, np.kron([0, 0, 0, 1], [1, 0])),
        (1.0, np.kron([0, s2, s2, 0], [1, 0])), (1.0, np.kron([0, s2, -s2, 0], [0, 1])),
        (-1.0, np.kron([1, 0, 0, 0], [0, 1])), (-1.0, np.kron([0, 0, 0, 1], [0, 1])),
        (-1.0, np.kron([0, s2, s2, 0], [0, 1])), (-1.0, np.kron([0, s2, -s2, 0], [1, 0])),
    ]
    worst = 0.0
    for lam, vec in table:
        proj = projector_onto(spec, lam)
        worst = max(worst, float(np.linalg.norm(proj @ vec - vec)))
    assert worst < 1e-10
    print(f"\n[criterion 04] PASS spectral table: 4/4 eigenvalue split, "
          f"max eigenvector residual = {worst:.2e}")


def test_criterion_05_projective_measurement_law():
    seeds = np.random.SeedSequence(20240505).generate_state(50)
    worst_prob = 0.0
    worst_avg = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        states = [random_density_matrix(2, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        test = random_density_matrix(2, rng)
        assembled = assemble_mixed_stc_input(
            test, list(zip(states, labels, weights)), 1, with_ancilla=False)
        obs = swap_label_observable(assembled.layout)
        probs = outcome_probabilities(obs, assembled)
        signed = sum(_sign(y) * w * hs_inner(test, s)
                     for s, y, w in zip(states, labels, weights))
        for lam in (1, -1):
            worst_prob = max(worst_prob, abs(probs[lam] - 0.5 * (1 + lam * signed)))
        value = expectation(obs, assembled)
        worst_avg = max(worst_avg, abs(value - (probs[1] - probs[-1])))
    assert worst_prob < 1e-10
    assert worst_avg < 1e-10

    ket0 = QState(basis_state(2, 0)).to_density()
    ket1 = QState(basis_state(2, 1)).to_density()
    balanced = assemble_mixed_stc_input(ket0, [(ket1, 0, 1.0)], 1, with_ancilla=False)
    obs = swap_label_observable(balanced.layout)
    shots = 10 ** 5
    records = sample_shots(obs, balanced, shots, seed=515)
    mean = empirical_expectation(records)
    assert abs(mean) < 3.0 / np.sqrt(shots)
    print(f"\n[criterion 05] PASS projective law: max probability gap = {worst_prob:.2e}, "
          f"max averaging gap = {worst_avg:.2e}, sampler mean {mean:+.4f} within 3 sigma")


def test_criterion_06_misclassification_formula():
    seeds = np.random.SeedSequence(20240606).generate_state(100)
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        states = [random_density_matrix(2, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        ts = TrainingSet.from_states(list(zip(states, labels, weights)), k=1)
        p0 = float(rng.random())
        mix = Mixture(p0, 1 - p0, random_density_matrix(2, rng),
                      random_density_matrix(2, rng))
        got = misclassification_probability(ts, mix)
        helstrom_block = p0 * mix.rho0.entries - (1 - p0) * mix.rho1.entries
        closed = 0.5
        for s, y, w in zip(states, labels, weights):
            block = helstrom_block if y == 1 else -helstrom_block
            closed += 0.5 * w * float(np.trace(block @ s.entries).real)
        worst = max(worst, abs(got - closed))
    assert worst < 1e-10

    ket0, ket1 = QState(basis_state(2, 0)), QState(basis_state(2, 1))
    ts = TrainingSet.from_states([(ket0, 0, 0.5), (ket1, 1, 0.5)])
    mix = Mixture(0.5, 0.5, ket0.to_density(), ket1.to_density())
    value = misclassification_probability(ts, mix)
    assert abs(value - 0.25) < 1e-12
    print(f"\n[criterion 06] PASS misclassification: max dual-route gap = {worst:.2e}, "
          f"two-point instance = {value:.12f} (expected 0.25)")


def test_criterion_07_fidelity_counterexample():
    rng = np.random.default_rng(70707)
    mixed = maximally_mixed(2)
    worst_hs = 0.0
    for _ in range(50):
        rho = random_density_matrix(2, rng)
        worst_hs = max(worst_hs, abs(hs_inner(mixed, rho) - 0.5))
    assert worst_hs < 1e-12
    worst_fid = 0.0
    for eps in np.arange(0.0, 1.0 + 1e-9, 0.1):
        rho = DensityMatrix(np.diag([eps, 1 - eps]).astype(complex), check_psd=False)
        expect = 0.5 + np.sqrt(eps * (1 - eps))
        worst_fid = max(worst_fid, abs(fidelity(mixed, rho) - expect))
    assert worst_fid < 1e-10
    print(f"\n[criterion 07] PASS fidelity counterexample: max HS gap = {worst_hs:.2e}, "
          f"max fidelity gap = {worst_fid:.2e}")


def test_criterion_08_psd_property():
    rng = np.random.default_rng(80808)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 11))
        dim = int(rng.choice([2, 4, 8]))
        if trial % 2 == 0:
            states = [random_state_vector(dim, rng) for _ in range(m)]
            g = gram(KernelSpec(SQUARED_OVERLAP), states)
        else:
            states = [random_density_matrix(dim, rng) for _ in range(m)]
            g = gram(KernelSpec(HS_TRACE), states)
        assert psd_certify(g).certified
        worst = min(worst, g.min_eigenvalue)
    assert worst >= -1e-8
    states = [random_state_vector(4, rng) for _ in range(8)]
    g = gram(KernelSpec(SQUARED_OVERLAP), states)
    vecs = np.stack([s.vec for s in states])
    overlaps = vecs.conj() @ vecs.T
    schur_gap = float(np.abs(g.matrix - (overlaps * overlaps.conj()).real).max())
    assert schur_gap < 1e-12
    print(f"\n[criterion 08] PASS PSD kernels: min Gram eigenvalue = {worst:.2e}, "
          f"Schur-product gap = {schur_gap:.2e}")


def test_criterion_09_ensemble_linearity():
    rng = np.random.default_rng(90909)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        train = [(random_density_matrix(2, rng), int(rng.integers(0, 2)))
                 for _ in range(m)]
        test = random_density_matrix(2, rng)
        s_models = int(rng.integers(1, 4))
        qs = rng.random(s_models) + 0.05
        qs /= qs.sum()
        models = []
        for q in qs:
            a = rng.random(m) + 0.05
            models.append((float(q), a / a.sum()))
        ens = assemble_ensemble_weights(test, models, train, k=1)
        after = run_swap_test(ens)
        whole = expectation(ancilla_label_parity(ens.layout), after)
        member_sum = 0.0
        for q, a in models:
            member_sum += q * sum(_sign(y) * w * hs_inner(test, s)
                                  for (s, y), w in zip(train, a))
        worst = max(worst, abs(whole - member_sum))
    assert worst < 1e-10

    x = random_state_vector(2, rng)
    test = random_state_vector(2, rng)
    kappa = abs(test.overlap(x)) ** 2
    ens = assemble_ensemble_exponents(
        test.to_density(), [(0.5, [1.0], 1), (0.5, [1.0], 2)],
        [(x.to_density(), 0)], max_copies=2)
    member_value = sum(q * expectation(
        ancilla_label_parity(member.layout), run_swap_test(member))
        for q, member in ens.members)
    spot = abs(member_value - 0.5 * (kappa + kappa ** 2))
    assert spot < 1e-10
    print(f"\n[criterion 09] PASS ensemble linearity: max weight-ensemble gap = "
          f"{worst:.2e}, mixed-exponent spot check gap = {spot:.2e}")


def test_criterion_10_svm_pipeline():
    start = time.monotonic()
    rng = np.random.default_rng(101010)
    spec = KernelSpec(SQUARED_OVERLAP)
    checked = 0
    for trial in range(6):
        toy = gen_toy("separable", m=int(rng.integers(6, 21)),
                      dim=int(rng.choice([2, 4])), seed=3000 + trial)
        states = [amplitude_encode(row) for row in toy.features]
        labels = toy.labels
        model = svm_train(gram(spec, states), labels)
        l = 1 - 2 * labels
        assert abs(float(model.multipliers @ l)) < 1e-8
        for s_idx in model.support_indices:
            margin = l[s_idx] * regression(model, states, states[s_idx])
            assert margin >= 1 - 1e-6
        entries = [(s, int(y), float(a))
                   for s, y, a in zip(states, labels, model.multipliers)]
        test_points = states + [random_state_vector(states[0].dim, rng) for _ in range(5)]
        for t in test_points:
            f = regression(model, states, t)
            if abs(f) <= 1e-9:
                continue
            if model.bias != 0.0:
                ts = TrainingSet.from_states(entries, bias=model.bias)
                out = stc_classify_bias(ts, t)
            else:
                out = stc_classify(TrainingSet.from_states(entries), t)
            assert out.predicted_label == (0 if f > 0 else 1)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\n[criterion 10] PASS SVM pipeline: KKT, margins, and "
          f"{checked} regression/classifier sign agreements in {elapsed:.1f}s")


def test_criterion_11_global_phase_invariance():
    rng = np.random.default_rng(111111)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        states = [random_state_vector(2, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.05
        test = random_state_vector(2, rng)
        base = stc_classify(TrainingSet.from_states(
            list(zip(states, labels, weights))), test)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=m + 1))
        rotated_states = [QState(p * s.vec) for p, s in zip(phases[:-1], states)]
        rotated_test = QState(phases[-1] * test.vec)
        moved = stc_classify(TrainingSet.from_states(
            list(zip(rotated_states, labels, weights))), rotated_test)
        worst = max(worst, abs(base.expectation - moved.expectation))
    assert worst < 1e-12

    ket0 = QState(basis_state(2, 0))
    ts = TrainingSet.from_states([(ket0, 0, 1.0)])
    hc_base = hadamard_classify(ts, ket0).expectation
    hc_rotated = hadamard_classify(ts, QState(1j * ket0.vec)).expectation
    assert abs(hc_base - hc_rotated) > 0.5
    print(f"\n[criterion 11] PASS global phase: max STC drift = {worst:.2e}, "
          f"HC value moved {hc_base:+.3f} -> {hc_rotated:+.3f} under i*x")
