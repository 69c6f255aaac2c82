"""The library calls the ``mixed-circuit`` benchmark driver makes.

``perfbench/mixed.py`` reaches the library through module attributes
(``classifier.STC_MODES``, ``encoding.TrainingSet.from_states``, both
ensemble assemblers, ``qmath.random_state_vector``, ...). One toy pass of
that driver, checked by the benchmark's own plain-numpy oracle, keeps those
names and their results tied to the code. Nothing under ``perfbench/`` is
written.
"""

import sys
from pathlib import Path

import pytest

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
