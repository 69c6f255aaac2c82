"""Bench-side correctness oracle: plain-numpy closed forms, no qkclass import.

Each ``check_<workload>`` reads the inputs the benchmark generated and the
files one pass wrote, and returns ``{step name: [failure, ...]}``. The
identities, all held to ``ATOL`` = 1e-10:

* stc: sum_m sign_m w_m K_m**k with K the squared overlap (pure) or
  Re Tr(rho_t rho_m) (mixed), w the normalized weights;
* stc-bias: (b + sum_m sign_m a_m K_m) / (|b| + sum_m a_m);
* hc: (b + sum_m sign_m a_m Re<x_m|t>) / (|b| + sum_m a_m);
* qsvm: (b' + sum_m alpha_m Re<x_m|t>) / sqrt((b'**2 + |alpha|**2) (1 + M)),
  with alpha the signed multipliers and b' = b / sum(a), as the CLI passes them;
* misclassification: p0 (1 - E0) / 2 + p1 (1 + E1) / 2, which at k=1 is the
  trace formula 1/2 + 1/2 sum_m w_m Tr(+-(p0 rho0 - p1 rho1) rho_m);
* SVM: |sum_i a_i l_i| and the Gram matrix and its spectrum. Support margins
  are held to the solver's own KKT tolerance ``MARGIN_TOL``, since SMO stops
  there.

Sampled expectations must lie within ``SHOT_SIGMAS`` standard deviations of
the exact value.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

ATOL = 1e-10
TIE_EPS = 1e-12
MARGIN_TOL = 1e-6
SUPPORT_EPS = 1e-8
SHOT_SIGMAS = 5.0
TRAIN_SVM_C = 1e6
_WALL_CLOCK = re.compile(rb'"wall_clock_seconds": [-+0-9.eE]+')


def read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows, labels = [], []
    with open(path, newline="") as handle:
        for record in csv.reader(handle):
            if not record:
                continue
            rows.append([complex(tok.strip().replace("i", "j")) for tok in record[:-1]])
            labels.append(int(float(record[-1])))
    return np.array(rows, dtype=complex), np.array(labels, dtype=int)


def encode(x: np.ndarray) -> np.ndarray:
    """Row-wise amplitude encoding: normalize, zero-pad to a power of two."""
    dim = 1 << max(0, math.ceil(math.log2(x.shape[1])))
    out = np.zeros((x.shape[0], dim), dtype=complex)
    out[:, : x.shape[1]] = x / np.linalg.norm(x, axis=1, keepdims=True)
    return out


def decide(value: float):
    if value > TIE_EPS:
        return 0
    if value < -TIE_EPS:
        return 1
    return "tie"


def signs(labels) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(labels, dtype=float)


def normalized_bytes(path: str) -> bytes:
    """File contents with the run-time field blanked, for repeat comparison."""
    with open(path, "rb") as handle:
        return _WALL_CLOCK.sub(b'"wall_clock_seconds": 0', handle.read())


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


class Findings:
    def __init__(self):
        self.by_step: dict[str, list[str]] = {}

    def step(self, name: str) -> list[str]:
        return self.by_step.setdefault(name, [])

    def close(self, step: str, what: str, got, want, tol: float = ATOL):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.step(step).append(f"{what}: shape {got.shape} != {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not err <= tol:
            self.step(step).append(f"{what}: max deviation {err:.3e} > {tol:.0e}")

    def labels(self, step: str, what: str, got, values):
        bad = [i for i, (g, v) in enumerate(zip(got, values))
               if g != decide(v) and abs(v) > ATOL]
        if bad:
            self.step(step).append(f"{what}: predicted labels differ at rows {bad[:5]}")


def check_svm(f: Findings, step: str, gram: np.ndarray, labels, model: dict, C: float):
    """Equality constraint, box, and KKT margins of a dual SVM solution."""
    a = np.asarray(model["multipliers"], dtype=float)
    l = signs(labels)
    b = float(model["bias"])
    if a.shape != l.shape:
        f.step(step).append(f"svm: {a.size} multipliers for {l.size} labels")
        return
    f.close(step, "svm sum(a*l)", a @ l, 0.0, ATOL * max(1.0, a.sum()))
    if a.min() < 0.0 or a.max() > C:
        f.step(step).append("svm: multipliers outside [0, C]")
    support = [int(i) for i in np.flatnonzero(a > SUPPORT_EPS)]
    if list(model["support_indices"]) != support:
        f.step(step).append("svm: support_indices disagree with the multipliers")
    margin = l * (gram @ (a * l) + b)
    free = (a > SUPPORT_EPS) & (a < C - SUPPORT_EPS)
    tol = MARGIN_TOL * max(1.0, float(np.abs(gram @ (a * l)).max()))
    if np.any(np.abs(margin[free] - 1.0) > tol):
        f.step(step).append("svm: free support vector off the unit margin")
    if np.any(margin[a <= SUPPORT_EPS] < 1.0 - tol):
        f.step(step).append("svm: zero multiplier inside the margin")
    if np.any(margin[a >= C - SUPPORT_EPS] > 1.0 + tol):
        f.step(step).append("svm: bounded multiplier outside the margin")


def _svm_block_matches(f: Findings, step: str, results: dict, model: dict):
    svm = results.get("svm", {})
    for key in ("multipliers", "bias", "support_indices"):
        if svm.get(key) != model.get(key):
            f.step(step).append(f"svm block {key!r} differs from train-svm output")


def _check_records(f: Findings, step: str, results: dict, expected, true_labels,
                   per_term=None, bias_term=None):
    records = results["results"]
    if len(records) != len(expected):
        f.step(step).append(f"{len(records)} result rows, expected {len(expected)}")
        return
    got = [r["expectation"] for r in records]
    f.close(step, "expectation", got, expected)
    f.labels(step, "label", [r["predicted_label"] for r in records], expected)
    if [r.get("true_label") for r in records] != [int(y) for y in true_labels]:
        f.step(step).append("true_label echo differs from the test file")
    if per_term is not None:
        terms = [[v for _, v in r["per_term"]] for r in records]
        f.close(step, "per_term", terms, per_term)
    if bias_term is not None:
        f.close(step, "bias_term", [r["bias_term"] for r in records], bias_term)


def _check_plot(f: Findings, step: str, plot_path: str, results: dict):
    with open(plot_path, newline="") as handle:
        rows = list(csv.reader(handle))
    records = results["results"]
    if len(rows) != len(records) + 1:
        f.step(step).append(f"{len(rows) - 1} plot rows for {len(records)} results")
        return
    for row, rec in zip(rows[1:], records):
        if (int(row[0]) != rec["index"] or float(row[1]) != rec["expectation"]
                or row[2] != str(rec["predicted_label"])):
            f.step(step).append(f"plot row {row[0]} does not round-trip its result")
            return


def _spectrum(f: Findings, step: str, got_eigs, gram: np.ndarray):
    want = np.linalg.eigvalsh(gram)
    scale = max(1.0, float(np.abs(want).max()))
    f.close(step, "gram eigenvalues", got_eigs, want, ATOL * scale)


def check_kernel_train(inputs: str, out: str, rotation: int, **_) -> dict:
    """Every ``model<j>.json`` against ``train<j>.csv``; gram, classify and
    plot against the rotation's set."""
    f = Findings()
    sets = len([n for n in os.listdir(inputs) if re.fullmatch(r"train\d+\.csv", n)])
    for j in range(sets):
        x, y = read_csv(f"{inputs}/train{j}.csv")
        states = encode(x)
        gram = np.abs(states.conj() @ states.T) ** 2
        model = _load(f"{out}/model{j}.json")
        check_svm(f, f"train-svm{j}", gram, y, model, TRAIN_SVM_C)
        if model.get("labels") != [int(v) for v in y]:
            f.step(f"train-svm{j}").append("labels echo differs from the dataset")
        if j == rotation % sets:
            used = (x, y, states, gram, model)
    x, y, states, gram, model = used
    tx, ty = read_csv(f"{inputs}/tests.csv")
    tests = encode(tx)

    g = _load(f"{out}/gram.json")
    f.close("gram", "gram matrix", g["matrix"], gram)
    _spectrum(f, "gram", g["eigenvalues"], gram)
    if g["certified_psd"] is not True:
        f.step("gram").append("squared-overlap Gram not certified PSD")

    res = _load(f"{out}/results.json")
    _svm_block_matches(f, "classify-stc", res, model)
    _spectrum(f, "classify-stc", res["gram_summary"]["eigenvalues"], gram)
    a = np.asarray(model["multipliers"])
    w = a / a.sum()
    kern = np.abs(tests.conj() @ states.T) ** 2
    terms = signs(y) * w * kern
    _check_records(f, "classify-stc", res, terms.sum(axis=1), ty, per_term=terms)
    _check_plot(f, "emit-plot", f"{out}/plot.csv", res)
    return f.by_step


def check_pure_circuit(inputs: str, out: str, seed: int, shots: int, **_) -> dict:
    f = Findings()
    x, y = read_csv(f"{inputs}/train.csv")
    xb, yb = read_csv(f"{inputs}/train_big.csv")
    tx, ty = read_csv(f"{inputs}/tests.csv")
    bx, by = read_csv(f"{inputs}/tests_bias.csv")
    states, big, tests, btests = encode(x), encode(xb), encode(tx), encode(bx)
    sgn, sgn_big = signs(y), signs(yb)

    gram = np.abs(states.conj() @ states.T) ** 2
    model = _load(f"{out}/model.json")
    check_svm(f, "train-svm", gram, y, model, TRAIN_SVM_C)
    check_svm(f, "train-svm-big", np.abs(big.conj() @ big.T) ** 2, yb,
              _load(f"{out}/model_big.json"), TRAIN_SVM_C)

    res = _load(f"{out}/bias.json")
    _svm_block_matches(f, "classify-stc-bias", res, model)
    a, b = np.asarray(model["multipliers"]), float(model["bias"])
    norm = abs(b) + a.sum()
    terms = sgn * a * np.abs(btests.conj() @ states.T) ** 2 / norm
    _check_records(f, "classify-stc-bias", res, b / norm + terms.sum(axis=1), by,
                   per_term=terms, bias_term=np.full(len(by), b / norm))

    kern = np.abs(tests.conj() @ states.T) ** 2
    w = np.full(len(y), 1.0 / len(y))
    for step, name in (("classify-ancilla", "ancilla"), ("classify-minimal", "minimal")):
        terms = sgn * w * kern ** 2
        _check_records(f, step, _load(f"{out}/{name}.json"), terms.sum(axis=1), ty,
                       per_term=terms)

    res = _load(f"{out}/sample.json")
    exact = (sgn_big / len(yb) * np.abs(tests.conj() @ big.T) ** 2).sum(axis=1)
    _check_records(f, "sample", res, exact, ty)
    point_seeds = np.random.SeedSequence(seed).generate_state(max(1, len(ty)))
    for i, (rec, e) in enumerate(zip(res["results"], exact)):
        s = rec["shots"]
        sigma = math.sqrt(max(1.0 - e * e, 0.0) / shots)
        if s["total"] != shots or s["plus"] + s["minus"] != shots:
            f.step("sample").append(f"row {i}: shot counts do not add up to {shots}")
        elif s["empirical_expectation"] != (s["plus"] - s["minus"]) / shots:
            f.step("sample").append(f"row {i}: empirical expectation != counts")
        elif abs(s["empirical_expectation"] - e) > SHOT_SIGMAS * sigma + 1.0 / shots:
            f.step("sample").append(f"row {i}: sampled value beyond {SHOT_SIGMAS} sigma")
        if s["seed"] != int(point_seeds[i]):
            f.step("sample").append(f"row {i}: per-point seed not derived from --seed")

    re_overlap = np.real(tests.conj() @ big.T)
    hc = _load(f"{out}/hc.json")
    qsvm = _load(f"{out}/qsvm.json")
    if hc.get("svm") != qsvm.get("svm"):
        f.step("classify-qsvm").append("hc and qsvm trained different models")
    check_svm(f, "classify-hc", np.abs(big.conj() @ big.T) ** 2, yb, hc["svm"], TRAIN_SVM_C)
    a, b = np.asarray(hc["svm"]["multipliers"]), float(hc["svm"]["bias"])
    norm = abs(b) + a.sum()
    _check_records(f, "classify-hc", hc, (b + (sgn_big * a * re_overlap).sum(axis=1)) / norm,
                   ty, bias_term=np.full(len(ty), b / norm))
    alpha, b_scaled = sgn_big * a, b / a.sum()
    scale = 1.0 / math.sqrt((b_scaled ** 2 + alpha @ alpha) * (1 + len(yb)))
    _check_records(f, "classify-qsvm", qsvm,
                   scale * (b_scaled + (alpha * re_overlap).sum(axis=1)), ty,
                   bias_term=np.full(len(ty), scale * b_scaled))
    _check_plot(f, "emit-plot", f"{out}/plot.csv", _load(f"{out}/bias.json"))
    return f.by_step


def _hs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a_i b_j) for stacks of matrices."""
    return np.real(np.einsum("iab,jba->ij", a, b))


def check_mixed_circuit(inputs: str, out: str, single_shot_seed: int, rotation: int,
                        **_) -> dict:
    f = Findings()
    step = "mixed-driver"
    sets = len([n for n in os.listdir(inputs) if re.fullmatch(r"set\d+", n)])
    with np.load(f"{inputs}/set{rotation % sets}/inputs.npz") as data:
        d = {key: data[key] for key in data.files}
    v = _load(f"{out}/values.json")
    k = int(d["k"])
    sgn = signs(d["train_labels"])
    kern = _hs(d["test_rhos"], d["train_rhos"])
    m = len(sgn)
    stc = (sgn / m * kern ** k).sum(axis=1)
    for mode, rows in v["stc"].items():
        f.close(step, f"stc {mode}", [e for e, _ in rows], stc)
        f.labels(step, f"stc {mode}", [lab for _, lab in rows], stc)
    shot_labels = [0 if np.random.default_rng(single_shot_seed + i).random() < (1 + e) / 2
                   else 1 for i, e in enumerate(stc)]
    if v["single_shot"] != shot_labels:
        f.step(step).append("single-shot labels differ from the seeded draw")
    wa, wb = d["weights_a"], d["weights_b"]
    f.close(step, "ensemble weights", v["ensemble_weights"],
            (sgn * (0.6 * wa + 0.4 * wb) * kern ** k).sum(axis=1))
    f.close(step, "ensemble exponents", v["ensemble_exponents"],
            0.5 * (sgn * wa * kern).sum(axis=1) + 0.5 * (sgn * wb * kern ** 2).sum(axis=1))
    for key, copies in (("k1", 1), ("k2", k)):
        e = (sgn / m * kern ** copies).sum(axis=1)
        want = 0.25 * (1.0 - e[0::2]) + 0.25 * (1.0 + e[1::2])
        f.close(step, f"misclassification {key}", v["misclassification"][key],
                want[: len(e) // 2])

    grams = np.load(f"{out}/gram.npy")
    for rhos, labels, got, model in zip(d["svm_rhos"], d["svm_labels"], grams, v["svm"]):
        gram = _hs(rhos, rhos)
        f.close(step, "hs-trace gram", got, gram)
        check_svm(f, step, gram, labels, model, float(d["box_c"]))
    a = np.asarray(model["multipliers"])
    want = model["bias"] + _hs(d["reg_rhos"], rhos) @ (a * signs(labels))
    f.close(step, "regression", v["regression"], want)
    return f.by_step


CHECKS = {
    "kernel-train": check_kernel_train,
    "pure-circuit": check_pure_circuit,
    "mixed-circuit": check_mixed_circuit,
}


def same_outputs(first: str, second: str, names) -> list[str]:
    """Names of output files whose normalized bytes differ between two
    directories; a file missing from either one differs."""
    differing = []
    for name in names:
        try:
            same = (normalized_bytes(os.path.join(first, name))
                    == normalized_bytes(os.path.join(second, name)))
        except OSError:
            same = False
        if not same:
            differing.append(name)
    return differing
