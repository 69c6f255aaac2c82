"""The benchmark's three workloads: inputs, passes and allocation plan.

A workload makes its inputs from the run's seed (``setup_commands``), then
repeats a *pass*: a fixed list of steps run one after another, each a CLI
command (``python3 -m qkclass.cli ...``) or the mixed-circuit library driver
(``perfbench/mixed.py run``). The program only ever sees the generated files.

Where the work of a step depends on the data (the SMO iteration count of an
SVM solve), the seed makes several *input sets* (``sets``): a pass trains
on every set, and the steps that use one set rotate through them, pass
``i`` using set ``i mod sets`` (``steps(..., rotation=i)``). A run's medians
then cover several draws instead of one.

Every step is a *cell* with a planned dense allocation, (layout dim)**2 * 16
bytes for the largest density matrix or dense operator its code path builds
(m**2 * 8 for a Gram matrix). The runner never launches a cell over
``DENSE_BUDGET``; ``skipped_cells`` lists the grid cells from ROADMAP.md
that are over it, so the defect stays on record instead of being sized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DENSE_BUDGET = 64 * 2**20
COMPLEX_BYTES = 16


@dataclass
class Step:
    name: str
    kind: str                 # "cli" or "mixed"
    argv: list[str]           # arguments after ``-m qkclass.cli`` / ``mixed.py``
    cell: str                 # human-readable cell description
    planned_bytes: int
    role: str = "other"       # "train", "classify", "library" or "other"
    points: int = 0           # test points classified by this step
    outputs: list[str] = field(default_factory=list)


def index_dim(slots: int) -> int:
    return 1 << max(0, math.ceil(math.log2(slots)))


def block_dim(data_dim: int, k: int, *, ancilla: bool, index_slots: int | None = None) -> int:
    """Dimension of [ancilla | test x k | train x k | label | index]."""
    dim = (2 if ancilla else 1) * data_dim ** (2 * k) * 2
    return dim * (index_dim(index_slots) if index_slots else 1)


def dense_bytes(layout_dim: int) -> int:
    return layout_dim * layout_dim * COMPLEX_BYTES


def _gen_toy(m: int, dim: int, seed: int, out: str) -> list[str]:
    return ["gen-toy", "--kind", "separable", "--m", str(m), "--dim", str(dim),
            "--seed", str(seed), "-o", out]


class Workload:
    """Defaults for a workload with one input set, no post-processing and no
    skipped cells."""

    def after_setup(self, inputs: str, toy: bool):
        pass

    def sets(self, toy: bool) -> int:
        """Number of input sets the passes rotate through."""
        return 1

    def skipped_cells(self, toy: bool) -> list[dict]:
        return []


class KernelTrain(Workload):
    name = "kernel-train"
    why = ("4 separable pure sets m=400 dim=8 k=1, 100 test rows: train-svm on each, gram, "
           "trained stc classify, emit-plot; kernelsvm Gram/SMO and the result writer work")
    sizes = {False: {"m": 400, "dim": 8, "tests": 100, "sets": 4},
             True: {"m": 24, "dim": 8, "tests": 10, "sets": 2}}

    def setup_commands(self, seed: int, inputs: str, toy: bool) -> list[tuple[str, list[str]]]:
        s = self.sizes[toy]
        pool = s["m"] * s["sets"]
        return [("cli", _gen_toy(pool, s["dim"], seed * 16 + 1, f"{inputs}/pool.csv")),
                ("cli", _gen_toy(s["tests"], s["dim"], seed * 16 + 2, f"{inputs}/tests.csv"))]

    def after_setup(self, inputs: str, toy: bool):
        """Deal the pool's rows out to ``train<j>.csv`` in turn; the pool lists
        class 0 first, so every set gets both classes in the same order."""
        sets = self.sets(toy)
        with open(f"{inputs}/pool.csv") as handle:
            rows = [line for line in handle if line.strip()]
        for j in range(sets):
            with open(f"{inputs}/train{j}.csv", "w") as handle:
                handle.writelines(rows[j::sets])

    def sets(self, toy: bool) -> int:
        return self.sizes[toy]["sets"]

    def steps(self, inputs: str, out: str, toy: bool, seed: int, rotation: int = 0) -> list[Step]:
        s = self.sizes[toy]
        m, dim = s["m"], s["dim"]
        gram_bytes = m * m * 8
        train = f"{inputs}/train{rotation % s['sets']}.csv"
        return [
            *(Step(f"train-svm{j}", "cli",
                   ["train-svm", f"{inputs}/train{j}.csv", "-o", f"{out}/model{j}.json"],
                   f"train-svm squared-overlap m={m} dim={dim} k=1 set {j}", gram_bytes,
                   role="train", outputs=[f"model{j}.json"])
              for j in range(s["sets"])),
            Step("gram", "cli", ["gram", train, "-o", f"{out}/gram.json"],
                 f"gram squared-overlap m={m} dim={dim} k=1", gram_bytes,
                 outputs=["gram.json"]),
            Step("classify-stc", "cli",
                 ["classify", train, "--test", f"{inputs}/tests.csv", "--labeled-tests",
                  "--weights", "trained", "-o", f"{out}/results.json"],
                 f"classify stc analytic trained m={m} dim={dim} k=1 tests={s['tests']}",
                 gram_bytes, role="classify", points=s["tests"], outputs=["results.json"]),
            Step("emit-plot", "cli", ["emit-plot", f"{out}/results.json", "-o", f"{out}/plot.csv"],
                 f"emit-plot rows={s['tests']}", 0, outputs=["plot.csv"]),
        ]


class PureCircuit(Workload):
    name = "pure-circuit"
    why = ("pure states via encoding/qmath/circuit: stc-bias m=24 dim=4 on 6 rows (2048 "
           "amplitudes, 64 MiB rho), ancilla/minimal k=2, 1e5-shot sample, hc, qsvm m=64")
    sizes = {False: {"m": 24, "m_big": 64, "dim": 4, "tests": 48, "bias_every": 8},
             True: {"m": 6, "m_big": 8, "dim": 4, "tests": 8, "bias_every": 4}}
    shots = 100_000

    def setup_commands(self, seed: int, inputs: str, toy: bool) -> list[tuple[str, list[str]]]:
        s = self.sizes[toy]
        return [("cli", _gen_toy(s["m"], s["dim"], seed * 16 + 1, f"{inputs}/train.csv")),
                ("cli", _gen_toy(s["m_big"], s["dim"], seed * 16 + 2, f"{inputs}/train_big.csv")),
                ("cli", _gen_toy(s["tests"], s["dim"], seed * 16 + 3, f"{inputs}/tests.csv"))]

    def after_setup(self, inputs: str, toy: bool):
        """Every ``bias_every``-th test row (both classes) feeds stc-bias."""
        every = self.sizes[toy]["bias_every"]
        with open(f"{inputs}/tests.csv") as handle:
            rows = [line for line in handle if line.strip()]
        with open(f"{inputs}/tests_bias.csv", "w") as handle:
            handle.writelines(rows[::every])

    def steps(self, inputs: str, out: str, toy: bool, seed: int, rotation: int = 0) -> list[Step]:
        s = self.sizes[toy]
        m, big, dim, n = s["m"], s["m_big"], s["dim"], s["tests"]
        n_bias = math.ceil(n / s["bias_every"])
        train, train_big = f"{inputs}/train.csv", f"{inputs}/train_big.csv"
        tests = ["--test", f"{inputs}/tests.csv", "--labeled-tests"]
        trained = ["--weights", "trained", "--bias", "trained"]
        return [
            Step("train-svm", "cli", ["train-svm", train, "-o", f"{out}/model.json"],
                 f"train-svm squared-overlap m={m} dim={dim} k=1", m * m * 8,
                 role="train", outputs=["model.json"]),
            Step("train-svm-big", "cli", ["train-svm", train_big, "-o", f"{out}/model_big.json"],
                 f"train-svm squared-overlap m={big} dim={dim} k=1", big * big * 8,
                 role="train", outputs=["model_big.json"]),
            Step("classify-stc-bias", "cli",
                 ["classify", train, "--test", f"{inputs}/tests_bias.csv", "--labeled-tests",
                  "--classifier", "stc-bias", *trained, "-o", f"{out}/bias.json"],
                 f"classify stc-bias m={m} dim={dim} k=1 tests={n_bias}",
                 dense_bytes(block_dim(dim, 1, ancilla=True, index_slots=m + 1)),
                 role="classify", points=n_bias, outputs=["bias.json"]),
            Step("classify-ancilla", "cli",
                 ["classify", train, *tests, "--mode", "ancilla-circuit", "--k", "2",
                  "-o", f"{out}/ancilla.json"],
                 f"classify stc ancilla-circuit m={m} dim={dim} k=2 tests={n}",
                 dense_bytes(block_dim(dim, 2, ancilla=True)),
                 role="classify", points=n, outputs=["ancilla.json"]),
            Step("classify-minimal", "cli",
                 ["classify", train, *tests, "--mode", "minimal", "--k", "2",
                  "-o", f"{out}/minimal.json"],
                 f"classify stc minimal m={m} dim={dim} k=2 tests={n}",
                 dense_bytes(block_dim(dim, 2, ancilla=False)),
                 role="classify", points=n, outputs=["minimal.json"]),
            Step("sample", "cli",
                 ["sample", train_big, *tests, "--shots", str(self.shots), "--seed", str(seed),
                  "-o", f"{out}/sample.json"],
                 f"sample stc m={big} dim={dim} k=1 tests={n} shots={self.shots}",
                 dense_bytes(block_dim(dim, 1, ancilla=False)),
                 role="classify", points=n, outputs=["sample.json"]),
            Step("classify-hc", "cli",
                 ["classify", train_big, *tests, "--classifier", "hc", *trained,
                  "-o", f"{out}/hc.json"],
                 f"classify hc trained m={big} dim={dim} tests={n}",
                 dense_bytes(index_dim(big + 1) * dim * 2),
                 role="classify", points=n, outputs=["hc.json"]),
            Step("classify-qsvm", "cli",
                 ["classify", train_big, *tests, "--classifier", "qsvm", *trained,
                  "-o", f"{out}/qsvm.json"],
                 f"classify qsvm trained m={big} dim={dim} tests={n}",
                 dense_bytes(index_dim(big + 1) * dim),
                 role="classify", points=n, outputs=["qsvm.json"]),
            Step("emit-plot", "cli", ["emit-plot", f"{out}/bias.json", "-o", f"{out}/plot.csv"],
                 f"emit-plot rows={n_bias}", 0, outputs=["plot.csv"]),
        ]

    def skipped_cells(self, toy: bool) -> list[dict]:
        return [
            {"cell": "classify stc-bias m=40 dim=4 k=1",
             "planned_bytes": dense_bytes(block_dim(4, 1, ancilla=True, index_slots=41)),
             "measured": "103 s and 1.3 GB peak RSS (ROADMAP, Recent)"},
            {"cell": "classify stc-bias m=100 dim=8 k=1",
             "planned_bytes": dense_bytes(block_dim(8, 1, ancilla=True, index_slots=101)),
             "measured": "numpy raises MemoryError on the 16 GiB request (ROADMAP, Recent)"},
        ]


class MixedCircuit(Workload):
    name = "mixed-circuit"
    why = ("4 sets of rank-2 density matrices m=32 dim=4 k=2, 2 test states, via the library: "
           "stc 3 modes, single-shot, ensembles, misclassification; 4 hs-trace gram+SVM m=300")

    def setup_commands(self, seed: int, inputs: str, toy: bool) -> list[tuple[str, list[str]]]:
        argv = ["gen", "--seed", str(seed), "--out-dir", inputs]
        return [("mixed", argv + (["--toy"] if toy else []))]

    def sets(self, toy: bool) -> int:
        from mixed import SIZES

        return SIZES[toy]["sets"]

    def steps(self, inputs: str, out: str, toy: bool, seed: int, rotation: int = 0) -> list[Step]:
        from mixed import SIZES, set_dir

        s = SIZES[toy]
        npz = f"{set_dir(inputs, rotation % s['sets'])}/inputs.npz"
        dim, k = s["dim"], s["k"]
        pair_dim = 2 * (dim * dim) ** k * 2
        return [Step("mixed-driver", "mixed",
                     ["run", "--inputs", npz, "--out-dir", out],
                     f"library mixed m={s['train']} dim={dim} k={k} tests={s['test']}; "
                     f"{s['svm_sets']} hs-trace svm m={s['svm']}",
                     max(dense_bytes(pair_dim), s["svm"] ** 2 * 8),
                     role="library", outputs=["values.json", "gram.npy"])]


WORKLOADS = {w.name: w for w in (KernelTrain(), PureCircuit(), MixedCircuit())}


def preflight(planned_bytes: int) -> str | None:
    """Reason to skip a cell, or None when it fits the dense budget."""
    if planned_bytes > DENSE_BUDGET:
        return (f"planned dense allocation {planned_bytes} B exceeds the "
                f"{DENSE_BUDGET} B budget")
    return None
