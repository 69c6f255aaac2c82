"""The library calls and CLI commands the benchmark's workloads make.

``perfbench/mixed.py`` reaches the library through module attributes
(``classifier.STC_MODES``, ``encoding.TrainingSet.from_states``, both
ensemble assemblers, ``qmath.random_state_vector``, ...). The
``kernel-train`` workload runs CLI commands (``gen-toy``, ``train-svm``,
``gram``, ``classify --weights trained``, ``emit-plot``) and reads the files
they write; the ``pure-circuit`` workload's CLI steps (stc-bias, the two
circuit modes at k=2, ``sample``, hc and qsvm) are the ones that run the
swap-test kernel. One toy pass of each, checked by the benchmark's own
plain-numpy oracle, keeps those names, options and results tied to the
code. Nothing under ``perfbench/`` is written.
"""

import sys
from pathlib import Path

import pytest
from helpers import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import mixed
    import oracle
    return mixed, oracle


def test_mixed_driver_pass_satisfies_the_oracle(bench, tmp_path):
    mixed, oracle = bench
    inputs, out = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    out.mkdir()
    mixed.generate(7, True, str(inputs))
    mixed.run_pass(mixed.set_dir(str(inputs), 0) + "/inputs.npz", str(out))
    assert oracle.check_mixed_circuit(str(inputs), str(out),
                                      single_shot_seed=mixed.SINGLE_SHOT_SEED,
                                      rotation=0) == {}


def test_kernel_train_cli_pass_satisfies_the_oracle(bench, tmp_path):
    _, oracle = bench
    import workloads
    workload, seed = workloads.KernelTrain(), 7
    inputs, out = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    out.mkdir()
    for kind, argv in workload.setup_commands(seed, str(inputs), True):
        assert kind == "cli"
        result = run_cli(argv)
        assert result.exit_code == 0, result.stderr
    workload.after_setup(str(inputs), True)
    steps = workload.steps(str(inputs), str(out), True, seed, rotation=0)
    assert [step.argv[0] for step in steps] == (
        ["train-svm"] * workload.sets(True) + ["gram", "classify", "emit-plot"])
    assert "--weights" in steps[-2].argv and "trained" in steps[-2].argv
    for step in steps:
        assert step.kind == "cli"
        result = run_cli(step.argv)
        assert result.exit_code == 0, result.stderr
    assert oracle.check_kernel_train(str(inputs), str(out), rotation=0) == {}


def test_pure_circuit_cli_pass_satisfies_the_oracle(bench, tmp_path):
    _, oracle = bench
    import workloads
    workload, seed = workloads.PureCircuit(), 7
    inputs, out = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    out.mkdir()
    for kind, argv in workload.setup_commands(seed, str(inputs), True):
        assert kind == "cli"
        result = run_cli(argv)
        assert result.exit_code == 0, result.stderr
    workload.after_setup(str(inputs), True)
    steps = workload.steps(str(inputs), str(out), True, seed, rotation=0)
    modes = [step.argv[step.argv.index("--mode") + 1] for step in steps if "--mode" in step.argv]
    assert modes == ["ancilla-circuit", "minimal"]
    for step in steps:
        assert step.kind == "cli"
        result = run_cli(step.argv)
        assert result.exit_code == 0, result.stderr
    assert oracle.check_pure_circuit(str(inputs), str(out), seed=seed,
                                     shots=workload.shots) == {}
