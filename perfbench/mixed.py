"""Library driver of the ``mixed-circuit`` workload.

The CLI reads pure feature vectors only, so density-matrix data is driven
through the library API. Two subcommands, each run as its own process:

    python3 perfbench/mixed.py gen --seed N --out-dir DIR [--toy]
    python3 perfbench/mixed.py run --inputs DIR/setJ/inputs.npz --out-dir DIR

``gen`` draws ``SIZES[toy]["sets"]`` input sets of rank-2 density matrices
from two class clusters (class 0 near |0>, class 1 near |dim-1>) using the
package's own random pure states, set ``j`` from the generator seeded with
``(seed, j)``, and writes ``DIR/setJ/inputs.npz``; the passes of a run
rotate through the sets.

``run`` trains hs-trace SVMs with a finite box constraint on the first half
of the SVM problems, classifies every test state with ``stc_classify`` in
all three modes, ``single_shot_classify`` and both ensemble assemblies +
``classify_assembled``, evaluates ``misclassification_probability`` at k=1
and k=2, then trains on the second half of the problems and evaluates the
last model's ``regression``. The trainings sit at the two ends of the pass,
so that a pass's training time spans it. It writes ``values.json``
(deterministic results), ``gram.npy`` (every Gram matrix) and
``timings.json`` to DIR.

Calls go through module attributes (``clf.stc_classify``), so the traced run
sees them after it rebinds those attributes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

SIZES = {
    # train: stc training set (k copies); test: test states per pass;
    # svm, svm_sets: size and number of the hs-trace Gram/SVM problems;
    # regress: decision values evaluated; sets: input sets the passes rotate
    # through.
    False: {"dim": 4, "k": 2, "train": 32, "test": 2, "svm": 300, "svm_sets": 4, "regress": 16,
            "sets": 4},
    True: {"dim": 4, "k": 2, "train": 6, "test": 2, "svm": 24, "svm_sets": 2, "regress": 4,
           "sets": 2},
}
NOISE = 0.5
BOX_C = 10.0
SINGLE_SHOT_SEED = 12345


def _cluster_rho(qmath, rng, label: int, dim: int) -> np.ndarray:
    center = np.zeros(dim, dtype=complex)
    center[0 if label == 0 else dim - 1] = 1.0
    probs = rng.random(2)
    probs /= probs.sum()
    mat = np.zeros((dim, dim), dtype=complex)
    for p in probs:
        v = center + NOISE * qmath.random_state_vector(dim, rng).vec
        v = v / np.linalg.norm(v)
        mat += p * np.outer(v, v.conj())
    return (mat + mat.conj().T) / 2.0


def _labelled_set(qmath, rng, count: int, dim: int):
    labels = np.array([i % 2 for i in range(count)], dtype=int)
    rhos = np.stack([_cluster_rho(qmath, rng, int(y), dim) for y in labels])
    return rhos, labels


def set_dir(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"set{index}")


def generate(seed: int, toy: bool, out_dir: str):
    """Write every input set of one mixed-circuit run, derived from ``seed``."""
    for index in range(SIZES[toy]["sets"]):
        os.mkdir(set_dir(out_dir, index))
        generate_set(np.random.default_rng([seed, index]), toy,
                     os.path.join(set_dir(out_dir, index), "inputs.npz"))


def generate_set(rng, toy: bool, out: str):
    from qkclass import qmath

    size = SIZES[toy]
    dim, m = size["dim"], size["train"]
    train_rhos, train_labels = _labelled_set(qmath, rng, m, dim)
    test_rhos, test_labels = _labelled_set(qmath, rng, size["test"], dim)
    problems = [_labelled_set(qmath, rng, size["svm"], dim) for _ in range(size["svm_sets"])]
    svm_rhos = np.stack([rhos for rhos, _ in problems])
    svm_labels = np.stack([labels for _, labels in problems])
    reg_rhos, _ = _labelled_set(qmath, rng, size["regress"], dim)
    weights_b = rng.dirichlet(np.ones(m))
    np.savez(out, train_rhos=train_rhos, train_labels=train_labels,
             test_rhos=test_rhos, test_labels=test_labels,
             svm_rhos=svm_rhos, svm_labels=svm_labels, reg_rhos=reg_rhos,
             weights_a=np.full(m, 1.0 / m), weights_b=weights_b,
             k=np.array(size["k"]), box_c=np.array(BOX_C))


def load_inputs(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def run_pass(inputs: str, out_dir: str):
    """One pass of the workload; writes values.json, gram.npy, timings.json."""
    from qkclass import classifier as clf
    from qkclass import encoding, kernelsvm, qmath

    data = load_inputs(inputs)
    k = int(data["k"])
    box_c = float(data["box_c"])

    def dm(mat):
        return qmath.DensityMatrix(mat)

    train = [dm(r) for r in data["train_rhos"]]
    labels = [int(y) for y in data["train_labels"]]
    ts = encoding.TrainingSet.from_states([(r, y, 1.0) for r, y in zip(train, labels)], k=k)
    ts1 = encoding.TrainingSet.from_states([(r, y, 1.0) for r, y in zip(train, labels)], k=1)
    tests = [dm(r) for r in data["test_rhos"]]
    pairs = list(zip(train, labels))
    weight_models = [(0.6, data["weights_a"]), (0.4, data["weights_b"])]
    exponent_models = [(0.5, data["weights_a"], 1), (0.5, data["weights_b"], 2)]

    timings = {"classify_s": 0.0, "classify_points": 0, "train_s": 0.0}
    values = {"stc": {mode: [] for mode in clf.STC_MODES}, "single_shot": [],
              "ensemble_weights": [], "ensemble_exponents": []}

    def timed(key, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[key] += time.perf_counter() - start
        return out

    def train(problem: int):
        states = [dm(r) for r in data["svm_rhos"][problem]]
        start = time.perf_counter()
        g = kernelsvm.gram(kernelsvm.KernelSpec("hs-trace", k=1), states)
        model = kernelsvm.svm_train(g, data["svm_labels"][problem], C=box_c)
        timings["train_s"] += time.perf_counter() - start
        summary = {"multipliers": [float(a) for a in model.multipliers], "bias": model.bias,
                   "support_indices": list(model.support_indices)}
        return states, g, model, summary

    problems = len(data["svm_rhos"])
    trained = [train(p) for p in range(problems // 2)]
    for i, test in enumerate(tests):
        for mode in clf.STC_MODES:
            out = timed("classify_s", clf.stc_classify, ts, test, mode=mode)
            values["stc"][mode].append([out.expectation, out.predicted_label])
        values["single_shot"].append(
            timed("classify_s", clf.single_shot_classify, ts, test, SINGLE_SHOT_SEED + i))
        start = time.perf_counter()
        state = encoding.assemble_ensemble_weights(test, weight_models, pairs, k)
        out = clf.classify_assembled(state)
        state = encoding.assemble_ensemble_exponents(test, exponent_models, pairs, k)
        out2 = clf.classify_assembled(state)
        timings["classify_s"] += time.perf_counter() - start
        values["ensemble_weights"].append(out.expectation)
        values["ensemble_exponents"].append(out2.expectation)
        timings["classify_points"] += len(clf.STC_MODES) + 3

    values["misclassification"] = {"k1": [], "k2": []}
    for c0, c1 in zip(tests[0::2], tests[1::2]):
        mix = clf.TestMixture(0.5, 0.5, c0, c1)
        for key, tset in (("k1", ts1), ("k2", ts)):
            values["misclassification"][key].append(clf.misclassification_probability(tset, mix))

    trained += [train(p) for p in range(problems // 2, problems)]
    states, _, model, _ = trained[-1]
    values["svm"] = [summary for _, _, _, summary in trained]
    values["regression"] = [kernelsvm.regression(model, states, dm(r)) for r in data["reg_rhos"]]

    with open(os.path.join(out_dir, "values.json"), "w") as handle:
        json.dump(values, handle, indent=1, sort_keys=True)
    np.save(os.path.join(out_dir, "gram.npy"), np.stack([g.matrix for _, g, _, _ in trained]))
    with open(os.path.join(out_dir, "timings.json"), "w") as handle:
        json.dump(timings, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--toy", action="store_true")
    run = sub.add_parser("run")
    run.add_argument("--inputs", required=True)
    run.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "gen":
        generate(args.seed, args.toy, args.out_dir)
    else:
        run_pass(args.inputs, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
