import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import run_cli

from qkclass import circuit as circuit_module
from qkclass import classifier, cli, constants, encoding, experiment, fileio, kernelsvm
from qkclass.classifier import stc_classify
from qkclass.constants import CLASSIFIERS, SEED_ENV_VAR, STC_MODES
from qkclass.datasets import (DatasetFile, format_complex, gen_toy, ingest,
                              parse_complex, write_dataset)
from qkclass.encoding import amplitude_encode
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.experiment import (ExperimentConfig, build_training_set, merge_config,
                                run_experiment)
from qkclass.fileio import emit_plot_data, write_results

# The form in which perfbench/oracle.py finds the timing field to mask it.
WALL_CLOCK = re.compile(r'"wall_clock_seconds": [-+0-9.eE]+')


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    return tmp_path


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestIngest:
    def test_csv_real_row(self, workdir):
        write_lines(workdir / "d.csv", ["0.6,0.8,1"])
        write_lines(workdir / "d.txt", ["0.6,0.8,1"])
        for ds in (ingest("d.csv"), ingest("d.txt", "csv")):
            assert np.allclose(ds.features, [[0.6, 0.8]])
            assert ds.labels.tolist() == [1]
        with pytest.raises(DataError, match="cannot infer"):
            ingest("d.txt")

    def test_csv_complex_row(self, workdir):
        write_lines(workdir / "d.csv", ["1+0i,0+1i,0"])
        ds = ingest("d.csv")
        assert np.allclose(ds.features, [[1.0, 1j]])
        assert ds.labels.tolist() == [0]

    def test_json_pairs(self, workdir):
        (workdir / "d.json").write_text(json.dumps([[[[1, 0], [0, 1]], 0]]))
        ds = ingest("d.json")
        assert np.allclose(ds.features, [[1.0, 1j]])
        assert ds.labels.tolist() == [0]

    def test_json_weights(self, workdir):
        (workdir / "d.json").write_text(json.dumps(
            [[[1.0, 0.0], 0, 2.0], [[0.0, 1.0], 1, 1.0]]))
        ds = ingest("d.json")
        assert ds.weights.tolist() == [2.0, 1.0]
        # Under uniform weights the file's weights are used:
        # (2 |<t|x_0>|^2 - 1 |<t|x_1>|^2) / 3.
        payload = run_experiment(ExperimentConfig(), ds, np.array([[0.6, 0.8]]))
        assert payload["results"][0]["expectation"] == pytest.approx(
            (2 * 0.36 - 0.64) / 3, abs=1e-12)

    def test_parse_error_names_row_and_column(self, workdir):
        write_lines(workdir / "d.csv", ["1,0,0", "1,zap,1"])
        with pytest.raises(DataError, match="row 2, column 2"):
            ingest("d.csv")

    def test_label_out_of_range(self, workdir):
        write_lines(workdir / "d.csv", ["1,0,2"])
        with pytest.raises(DataError, match="label"):
            ingest("d.csv")

    def test_inhomogeneous_lengths(self, workdir):
        write_lines(workdir / "d.csv", ["1,0,0", "1,0,0,1"])
        with pytest.raises(DataError, match="inhomogeneous"):
            ingest("d.csv")

    def test_round_trip_complex_formatting(self, workdir):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        ds = DatasetFile(feats, np.array([0, 1, 0]))
        write_dataset(ds, "round.csv")
        back = ingest("round.csv")
        assert np.array_equal(back.features, ds.features)

    def test_parse_complex_variants(self):
        assert parse_complex("2i", 1, 1) == 2j
        assert parse_complex("-1.5-0.5i", 1, 1) == complex(-1.5, -0.5)
        assert parse_complex("3", 1, 1) == 3.0
        assert complex(parse_complex(format_complex(1 - 2j), 1, 1)) == 1 - 2j


class TestToyGeneration:
    def test_orthogonal_pair(self):
        ds = gen_toy("orthogonal-pair", 2, 4, seed=0)
        assert np.allclose(ds.features[0], [1, 0, 0, 0])
        assert np.allclose(ds.features[1], [0, 0, 0, 1])
        assert ds.labels.tolist() == [0, 1]

    def test_seeded_reproducibility(self):
        a = gen_toy("separable", 10, 2, seed=3)
        b = gen_toy("separable", 10, 2, seed=3)
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("m, dim", [(24, 4), (7, 2), (64, 3)])
    def test_separable_rows_follow_the_per_row_stream(self, m, dim):
        # Row i draws dim real then dim imaginary normals, in row order.
        rng = np.random.default_rng(5)
        rows = []
        for i in range(m):
            center = np.zeros(dim, dtype=complex)
            center[0 if i < (m + 1) // 2 else dim - 1] = 1.0
            sample = center + 0.25 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            rows.append(sample / np.linalg.norm(sample))
        ds = gen_toy("separable", m, dim, seed=5)
        assert np.array_equal(ds.features, np.array(rows))
        assert ds.labels.tolist() == [0] * ((m + 1) // 2) + [1] * (m // 2)

    @pytest.mark.parametrize("m, dim", [(2, 2), (7, 3), (24, 4), (100, 8)])
    @pytest.mark.parametrize("seed", [1, 113])
    @pytest.mark.parametrize("noise", ["0.25", "0.7", "0", "-0.0"])
    def test_separable_csv_bytes_match_the_formula(self, workdir, m, dim, seed, noise):
        # The formula the generator computes in place, with the all-zero
        # centers it adds: at noise 0 every off-center zero is +0.0.
        rng = np.random.default_rng(seed)
        labels = (np.arange(m) >= (m + 1) // 2).astype(int)
        centers = np.zeros((m, dim), dtype=complex)
        centers[np.arange(m), labels * (dim - 1)] = 1.0
        draws = rng.standard_normal((m, 2, dim))
        samples = centers + float(noise) * (draws[:, 0] + 1j * draws[:, 1])
        reference = samples / np.array([np.linalg.norm(row) for row in samples])[:, None]
        write_dataset(DatasetFile(reference, labels), "reference.csv")
        result = run_cli(["gen-toy", "--m", str(m), "--dim", str(dim), "--seed", str(seed),
                          "--noise", noise, "-o", "toy.csv"])
        assert result.exit_code == 0, result.stderr
        assert (workdir / "toy.csv").read_bytes() == (workdir / "reference.csv").read_bytes()
        assert gen_toy("separable", m, dim, seed, float(noise)).features.tobytes() == \
            reference.tobytes()

    def test_separable_set_is_built_in_place(self):
        # m=1600, dim 8: the draws (0.195 MiB) and one complex array of the
        # same size; the formula's temporaries peak at 0.93 MiB.
        gen_toy("separable", 16, 8, seed=1)
        tracemalloc.start()
        try:
            gen_toy("separable", 1600, 8, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_random_has_both_classes(self):
        ds = gen_toy("random", 5, 2, seed=1)
        assert set(ds.labels.tolist()) == {0, 1}

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            gen_toy("spiral", 5, 2, seed=0)

    def test_over_budget_refused_before_generating(self, monkeypatch):
        monkeypatch.setattr(constants, "DENSE_BYTES_BUDGET", 2**10)
        assert len(gen_toy("separable", 32, 2, seed=0)) == 32  # 1024 bytes
        for kind, m, dim in (("separable", 33, 2), ("random", 33, 2), ("orthogonal-pair", 1, 64)):
            with pytest.raises(DimensionError, match="toy feature matrix"):
                gen_toy(kind, m, dim, seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            gen_toy("separable", 4, 2, seed=seed)


def gen_toy_file(*options):
    result = run_cli(["gen-toy", "--kind", "separable", "--seed", "3", *options, "-o", "toy.csv"])
    assert result.exit_code == 0, result.stderr


def two_point_dataset():
    return DatasetFile(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
                       np.array([0, 1]))


class TestRunExperiment:
    def test_orthogonal_toy_class_zero_point(self):
        payload = run_experiment(ExperimentConfig(), two_point_dataset(),
                                 np.array([[1.0, 0.0]], dtype=complex))
        entry = payload["results"][0]
        assert entry["expectation"] == pytest.approx(0.5, abs=1e-12)
        assert entry["predicted_label"] == 0
        circuit = run_experiment(
            ExperimentConfig(mode="ancilla-circuit"), two_point_dataset(),
            np.array([[1.0, 0.0]], dtype=complex))
        assert circuit["results"][0]["expectation"] == pytest.approx(0.5, abs=1e-10)

    def test_kernel_zero_histogram_within_binomial_bounds(self):
        ds = DatasetFile(np.array([[0.0, 1.0]], dtype=complex), np.array([0]))
        payload = run_experiment(ExperimentConfig(shots=10**5, seed=21), ds,
                                 np.array([[1.0, 0.0]], dtype=complex))
        shots = payload["results"][0]["shots"]
        sigma = 0.5 * math.sqrt(10**5)
        assert abs(shots["plus"] - 50_000) < 3 * sigma
        assert shots["plus"] + shots["minus"] == 10**5

    def test_trained_mode_emits_model(self):
        ds = gen_toy("separable", 6, 2, seed=4)
        payload = run_experiment(
            ExperimentConfig(weights="trained", bias="trained",
                             classifier="stc-bias"),
            ds, ds.features, ds.labels)
        assert "svm" in payload and "gram_summary" in payload
        assert len(payload["svm"]["multipliers"]) == 6
        assert payload["gram_summary"]["min_eigenvalue"] >= -1e-8

    def test_explicit_weights_validated(self):
        with pytest.raises(DataError):
            ExperimentConfig(weights="explicit", explicit_weights=(0.5, -0.1))

    def test_tie_as_zero(self):
        ds = DatasetFile(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex),
                         np.array([0, 1]))
        tests = np.array([[1.0, 0.0]], dtype=complex)
        tie = run_experiment(ExperimentConfig(), ds, tests)
        assert tie["results"][0]["predicted_label"] == "tie"
        zero = run_experiment(ExperimentConfig(tie_as_zero=True), ds, tests)
        assert zero["results"][0]["predicted_label"] == 0

    def test_shots_rejected_for_hc(self):
        with pytest.raises(DataError):
            run_experiment(ExperimentConfig(classifier="hc", shots=10),
                           two_point_dataset(), np.zeros((0, 2), dtype=complex))

    def test_qsvm_classifier_runs(self):
        payload = run_experiment(ExperimentConfig(classifier="qsvm", bias=0.1),
                                 two_point_dataset(),
                                 np.array([[1.0, 0.0]], dtype=complex))
        assert payload["results"][0]["predicted_label"] in (0, 1, "tie")

    def test_determinism_modulo_wall_clock(self, workdir):
        ds = gen_toy("separable", 5, 2, seed=6)
        tests = ds.features[:2]
        blobs = []
        for name in ("a.json", "b.json"):
            payload = run_experiment(ExperimentConfig(shots=100, seed=9), ds, tests)
            payload.pop("wall_clock_seconds")
            write_results(payload, name)
            blobs.append((workdir / name).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("overrides", [
        {"shots": 10, "seed": 3}, {"mode": "minimal"}, {"classifier": "stc-bias", "bias": 0.2},
        {"classifier": "hc"},
    ])
    def test_per_term_written_as_the_list_form(self, workdir, overrides):
        # run_experiment hands each output's per_term tuple to the writer
        # unchanged; the file must hold the bytes of the [[m, v], ...] list
        # form, apart from the timing field.
        ds = gen_toy("separable", 6, 2, seed=6)
        tests = gen_toy("random", 3, 2, seed=7).features
        payload = run_experiment(ExperimentConfig(**overrides), ds, tests)
        as_lists = dict(payload, results=[
            dict(entry, per_term=[[m, v] for m, v in entry["per_term"]])
            for entry in payload["results"]])
        assert any(entry["per_term"] for entry in as_lists["results"])
        blobs = []
        for name, body in (("tuples.json", payload), ("lists.json", as_lists)):
            write_results(body, name)
            blobs.append(WALL_CLOCK.sub("", (workdir / name).read_text()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("part_bytes", [None, 2**14, 1])
    @pytest.mark.parametrize("overrides", [
        {}, {"k": 2}, {"keep_norms": True}, {"k": 2, "keep_norms": True}, {"bias": 0.0},
        {"weights": "explicit", "explicit_weights": tuple(range(1, 13))},
        {"weights": "trained"}, {"weights": "trained", "k": 2, "keep_norms": True},
        {"mode": "ancilla-circuit"}, {"mode": "ancilla-circuit", "k": 2},
        {"mode": "minimal"}, {"mode": "minimal", "k": 2, "keep_norms": True},
        {"mode": "ancilla-circuit", "weights": "explicit",
         "explicit_weights": (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2)},
        {"classifier": "stc-bias", "bias": 0.3},
        {"classifier": "stc-bias", "bias": -0.4, "k": 2, "keep_norms": True},
        {"classifier": "stc-bias", "weights": "trained", "bias": "trained"},
        {"classifier": "hc"}, {"classifier": "hc", "bias": 0.7, "keep_norms": True},
        {"classifier": "hc", "weights": "trained", "bias": "trained"},
        {"classifier": "qsvm"}, {"classifier": "qsvm", "bias": -0.2, "k": 2},
        {"classifier": "qsvm", "weights": "trained", "bias": "trained", "keep_norms": True},
    ])
    def test_batched_scoring_equals_per_point(self, monkeypatch, overrides, part_bytes):
        # One kernel_matrix call per chunk of test rows: one chunk at the
        # default part size (two for stc-bias at k=2, whose 256 KiB rows fit
        # 8 to a part), one chunk per row when a part holds one row.
        rng = np.random.default_rng(17)
        toy = gen_toy("separable", 12, 3, seed=8)
        ds = DatasetFile(toy.features * rng.uniform(0.5, 2.0, (12, 1)), toy.labels)
        tests = gen_toy("random", 9, 3, seed=9).features
        config = ExperimentConfig(**overrides)
        ts, model, _ = build_training_set(config, ds)
        expected = [one_point(config, ts, model, row) for row in tests]
        if part_bytes is not None:
            monkeypatch.setattr(encoding, "PART_BYTES", part_bytes)
        calls = []
        kernel_matrix = classifier.kernel_matrix
        monkeypatch.setattr(classifier, "kernel_matrix",
                            lambda *args: calls.append(1) or kernel_matrix(*args))
        payload = run_experiment(config, ds, tests)
        if part_bytes is None:
            assert len(calls) == (2 if config.classifier == "stc-bias" and config.k == 2 else 1)
        elif part_bytes == 1:
            assert len(calls) == len(tests)
        assert len(payload["results"]) == len(tests)
        for entry, out in zip(payload["results"], expected):
            assert entry["predicted_label"] == out.predicted_label
            assert abs(entry["expectation"] - out.expectation) <= 1e-12
            assert abs(entry["bias_term"] - out.bias_term) <= 1e-12
            assert [m for m, _ in entry["per_term"]] == list(range(len(ds)))
            assert np.abs(np.subtract([v for _, v in entry["per_term"]],
                                      [v for _, v in out.per_term])).max() <= 1e-12
        for empty in (np.zeros((0, 0), dtype=complex), np.zeros((0, 3), dtype=complex)):
            assert run_experiment(config, ds, empty)["results"] == []

    @pytest.mark.parametrize("classifier_name", ["hc", "qsvm"])
    def test_keep_norms_scores_with_the_test_norm(self, classifier_name):
        # The raw test norm enters the Hadamard and oracle branches in
        # keep-norms mode: run_experiment must give the library's value for
        # the raw row, not the value of its unit vector.
        ds = gen_toy("separable", 12, 2, seed=3)
        tests = np.array([[3.0, 0.5], [-0.2, 4.0]], dtype=complex)
        config = ExperimentConfig(classifier=classifier_name, bias=0.7, keep_norms=True)
        ts, model, _ = build_training_set(config, ds)
        payload = run_experiment(config, ds, tests)
        for entry, row in zip(payload["results"], tests):
            out = one_point(config, ts, model, row)
            unit = one_point(config, ts, model, amplitude_encode(row))
            assert abs(entry["expectation"] - out.expectation) <= 1e-12
            assert abs(out.expectation - unit.expectation) > 1e-3

    @pytest.mark.parametrize("overrides", [
        {"classifier": "stc-bias", "bias": 0.3},
        {"mode": "ancilla-circuit"}, {"mode": "minimal", "k": 2},
    ])
    def test_corrupted_circuit_in_a_batch_raises(self, workdir, monkeypatch,
                                                 overrides):
        # Skipping the circuit kernel's swap step changes the measured value
        # of the rows; a multi-row run must reject it, and the CLI must map
        # it to exit 4 with a JSON error.
        ds = gen_toy("separable", 6, 2, seed=5)
        tests = gen_toy("random", 7, 2, seed=6).features
        run_experiment(ExperimentConfig(**overrides), ds, tests)
        write_dataset(ds, "train.csv")
        write_dataset(DatasetFile(tests, np.zeros(len(tests), dtype=int)), "tests.csv")
        argv = ["classify", "train.csv", "--test", "tests.csv", "--labeled-tests",
                "-o", "out.json"]
        for key, value in overrides.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        monkeypatch.setattr(circuit_module, "_permute",
                            lambda src, plan, out: np.copyto(out, src))
        with pytest.raises(NumericError):
            run_experiment(ExperimentConfig(**overrides), ds, tests)
        result = run_cli(argv)
        assert result.exit_code == 4, result.stderr
        assert json.loads(result.stderr)["error"]["type"] == "NumericError"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("mode", ["ancilla-circuit", "minimal"])
    def test_perturbed_circuit_value_raises(self, monkeypatch, mode):
        # These modes have no closed-form circuit check, so only the
        # per-term check, run once per chunk at 1e-12, can refuse a
        # simulated value 1e-9 off its kernel sum.
        ds = gen_toy("separable", 6, 2, seed=5)
        tests = gen_toy("random", 7, 2, seed=6).features
        stack_value = classifier._stack_value

        def perturbed(*args):
            values = stack_value(*args).copy()
            values[0] += 1e-9
            return values

        monkeypatch.setattr(classifier, "_stack_value", perturbed)
        with pytest.raises(NumericError, match="per-term sum"):
            run_experiment(ExperimentConfig(mode=mode), ds, tests)

    def test_out_of_range_expectation_raises(self, monkeypatch):
        # Terms scaled 100-fold still sum to their values, so only the range
        # check can refuse them.
        ds = gen_toy("separable", 6, 2, seed=5)
        stc_terms = classifier._stc_terms
        monkeypatch.setattr(classifier, "_stc_terms", lambda *args: 100 * stc_terms(*args))
        with pytest.raises(NumericError, match=r"outside \[-1, 1\]"):
            run_experiment(ExperimentConfig(), ds, ds.features)

    def test_per_term_rows_are_read_only_rows_of_one_table(self):
        ds = gen_toy("separable", 6, 2, seed=5)
        tests = gen_toy("random", 4, 2, seed=6).features
        results = run_experiment(ExperimentConfig(), ds, tests)["results"]
        rows = [entry["per_term"] for entry in results]
        assert all(not row.flags.writeable for row in rows)
        assert len({id(row.base) for row in rows}) == 1
        for entry, row in zip(results, rows):
            assert [m for m, _ in row.tolist()] == list(range(len(ds)))
            assert abs(sum(v for _, v in row.tolist()) - entry["expectation"]) <= 1e-12

    def test_run_and_write_memory(self, workdir):
        # m = N = 200: the complex kernel product of a chunk and the
        # (index, value) table are 16 B a pair each, and never alive
        # together. Per-term tuples (about 100 B a pair) break the bound.
        m = n = 200
        ds = gen_toy("separable", m, 8, seed=1)
        tests = gen_toy("random", n, 8, seed=2).features
        run_experiment(ExperimentConfig(), ds, tests[:2])
        tracemalloc.start()
        try:
            write_results(run_experiment(ExperimentConfig(), ds, tests), "r.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * n * m


def one_point(config, ts, model, row):
    """The one-point library call that scores ``row`` as run_experiment does."""
    if config.classifier == "stc":
        return stc_classify(ts, row, mode=config.mode)
    if config.classifier == "stc-bias":
        return classifier.stc_classify_bias(ts, row)
    if config.classifier == "hc":
        return classifier.hadamard_classify(ts, row, with_bias=ts.bias is not None)
    return classifier.qsvm_oracle_classify(experiment._alphas_for_oracle(ts, model),
                                           ts.bias if ts.bias is not None else 0.0, ts, row)


class TestResultsWriter:
    @staticmethod
    def payload():
        return {
            "schema_version": 1,
            "matrix": (np.arange(12.0).reshape(3, 4) / 7).tolist(),
            "spectrum": np.array([[0.5, 1.0], [2.0, 4.0]]),
            "eigenvalues": np.array([-1e-17, 0.25, 1.0 / 3]),
            "count": np.int64(3),
            "results": [{"expectation": np.float64(0.5), "per_term": [[0, 0.25], [1, 0.25]]},
                        {"expectation": -0.1, "per_term": [], "shots": None}],
            "svm": {"multipliers": np.array([0.5, 0.5]), "bias": np.float64(-0.0)},
            "empty": [],
            "wall_clock_seconds": 1.25e-05,
        }

    def test_file_parses_to_the_payload_with_one_row_per_line(self, workdir):
        payload = self.payload()
        write_results(payload, "a.json")
        text = (workdir / "a.json").read_text()
        assert json.loads(text) == json.loads(json.dumps(payload, default=fileio.jsonable))
        lines = text.splitlines()
        start = lines.index('"matrix": [')
        assert lines[start + 1:start + 5] == [
            json.dumps(payload["matrix"][0]) + ",",
            json.dumps(payload["matrix"][1]) + ",",
            json.dumps(payload["matrix"][2]),
            "],"]
        assert [line.split(":")[0] for line in lines if line.startswith('"')] == [
            json.dumps(key) for key in sorted(payload)]
        assert lines[-1] == "}" and text.endswith("}\n")
        assert [line for line in lines if WALL_CLOCK.fullmatch(line)] == [
            '"wall_clock_seconds": 1.25e-05']

    @pytest.mark.parametrize("shape", [(3, 4), (1, 1), (2, 0), (0, 3)])
    def test_two_dimensional_array_written_as_its_list(self, shape):
        arr = np.arange(math.prod(shape), dtype=float).reshape(shape) / 7
        written = []
        for matrix in (arr, arr.tolist()):
            handle = io.StringIO()
            fileio.dump_json({"matrix": matrix, "n": 1}, handle, default=fileio.jsonable)
            written.append(handle.getvalue())
        assert written[0] == written[1]

    def test_gram_payload_written_row_by_row(self, workdir):
        # Only one row at a time becomes Python floats and text; a list copy
        # of the whole matrix is about 4 times its bytes, its text 2 times.
        g = kernelsvm.gram(kernelsvm.KernelSpec(constants.SQUARED_OVERLAP),
                           kernelsvm.encode_rows(gen_toy("separable", 300, 8, seed=1).features)[0])
        payload = {"matrix": g.matrix, "eigenvalues": g.eigenvalues}
        tracemalloc.start()
        try:
            write_results(payload, "g.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.matrix.nbytes / 4
        assert json.loads((workdir / "g.json").read_text())["matrix"] == g.matrix.tolist()

    def test_repeated_writes_are_byte_identical(self, workdir):
        for name in ("a.json", "b.json"):
            write_results(self.payload(), name)
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    @pytest.mark.parametrize("args", [
        ["gram", "train.csv"],
        ["train-svm", "train.csv"],
        ["classify", "train.csv", "--test", "train.csv", "--labeled-tests",
         "--weights", "trained", "--shots", "10"],
    ])
    def test_stdout_has_the_file_bytes(self, workdir, args):
        write_lines(workdir / "train.csv", ["1,0,0", "0.6,0.8,0", "0,1,1"])
        to_file = run_cli([*args, "-o", "out.json"])
        to_stdout = run_cli(args)
        assert to_file.exit_code == to_stdout.exit_code == 0, to_stdout.stderr
        masked = [WALL_CLOCK.sub('"wall_clock_seconds": 0', text)
                  for text in ((workdir / "out.json").read_text(), to_stdout.stdout)]
        assert masked[0] == masked[1]

    def test_json_dataset_one_row_per_line(self, workdir):
        ds = DatasetFile(np.array([[1.0, 0.5j], [0.25, 1.0]]), np.array([0, 1]),
                         np.array([1.0, 2.0]))
        write_dataset(ds, "d.json")
        assert (workdir / "d.json").read_text() == (
            "[\n[[1.0, [0.0, 0.5]], 0, 1.0],\n[[0.25, 1.0], 1, 2.0]\n]\n")
        back = ingest("d.json")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.weights, ds.weights)


class TestConfigMerging:
    def test_cli_over_file_over_default(self, workdir):
        file_values = {"k": 2, "shots": 50}
        config = merge_config({"shots": 7}, file_values)
        assert config.k == 2 and config.shots == 7
        assert config.classifier == "stc"

    def test_env_seed_fallback(self, workdir, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        assert merge_config({}, {}).seed == 123
        assert merge_config({"seed": 5}, {}).seed == 5
        assert merge_config({}, {"seed": 6}).seed == 6

    def test_seed_must_be_an_integer_at_least_zero(self, workdir, monkeypatch):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            ExperimentConfig(seed=-3)
        assert ExperimentConfig(seed=0).seed == 0
        monkeypatch.setenv(SEED_ENV_VAR, "-4")
        with pytest.raises(DataError, match=f"{SEED_ENV_VAR} must be an integer >= 0"):
            constants.env_seed()
        assert merge_config({"seed": 5}, {}).seed == 5

    def test_unknown_config_keys_rejected(self, workdir):
        (workdir / "c.json").write_text(json.dumps({"shots": 5, "bogus": 1}))
        with pytest.raises(DataError, match="bogus"):
            experiment.load_config_file("c.json")


class TestEmitPlot:
    def _payload(self, n, shots=False):
        results = []
        for i in range(n):
            entry = {"index": i, "expectation": 0.1 * i - 0.05,
                     "predicted_label": 0 if i % 2 else 1, "per_term": []}
            if shots:
                entry["shots"] = {"total": 100, "plus": 60 + i, "minus": 40 - i,
                                  "empirical_expectation": 0.2}
            results.append(entry)
        return {"schema_version": 1, "results": results}

    def test_empty_results_header_only(self, workdir):
        emit_plot_data(self._payload(0), "plot.csv")
        rows = read_rows("plot.csv")
        assert rows == [list(fileio.PLOT_COLUMNS)]

    def test_three_rows(self, workdir):
        emit_plot_data(self._payload(3, shots=True), "plot.csv")
        rows = read_rows("plot.csv")
        assert len(rows) == 4

    def test_round_trip_full_precision(self, workdir):
        payload = {"schema_version": 1, "results": [{
            "index": 0, "expectation": 1 / 3.0, "predicted_label": 0,
            "shots": {"total": 7, "plus": 3, "minus": 4,
                      "empirical_expectation": -1 / 7.0}}]}
        emit_plot_data(payload, "plot.csv")
        rows = read_rows("plot.csv")
        record = dict(zip(rows[0], rows[1]))
        assert float(record["expectation"]) == 1 / 3.0
        assert float(record["freq_plus"]) == 3 / 7.0


class TestCliCommands:
    def test_classify_end_to_end(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = run_cli(["classify", "train.csv", "--test", "tests.csv", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"][0]["expectation"] == pytest.approx(0.5)
        assert payload["schema_version"] == 1

    def test_gram_command_memory(self, workdir):
        # m = 400: the kernel's complex product and its real values (24 B an
        # entry) are the peak; a list copy of the matrix (about 32 B an
        # entry) on top of the matrix breaks the bound.
        m = 400
        write_dataset(gen_toy("separable", m, 8, seed=1), "toy.csv")
        assert run_cli(["gram", "toy.csv", "-o", "gram.json"]).exit_code == 0
        tracemalloc.start()
        try:
            result = run_cli(["gram", "toy.csv", "-o", "gram.json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.stderr
        assert peak < 4 * 8 * m * m

    def test_gen_toy_then_train_svm(self, workdir):
        assert run_cli(["gen-toy", "--kind", "separable", "--m", "6",
                        "--seed", "2", "-o", "toy.csv"]).exit_code == 0
        result = run_cli(["train-svm", "toy.csv", "-o", "model.json"])
        assert result.exit_code == 0, result.stderr
        model = json.loads((workdir / "model.json").read_text())
        signed = [a * (1 - 2 * y) for a, y in zip(model["multipliers"], model["labels"])]
        assert abs(sum(signed)) < 1e-8

    def test_sample_command(self, workdir):
        write_lines(workdir / "train.csv", ["0,1,0"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = run_cli(["sample", "train.csv", "--test", "tests.csv",
                          "--shots", "200", "--seed", "5",
                          "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "out.json").read_text())
        shots = payload["results"][0]["shots"]
        assert shots["plus"] + shots["minus"] == 200

    def test_sample_accepts_labeled_tests(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        result = run_cli(["sample", "train.csv", "--test", "train.csv",
                          "--labeled-tests", "--shots", "100",
                          "--seed", "5", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"][0]["true_label"] == 0

    def test_emit_plot_command(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0", "0,1"])
        run_cli(["classify", "train.csv", "--test", "tests.csv", "-o", "res.json"])
        result = run_cli(["emit-plot", "res.json", "-o", "plot.csv"])
        assert result.exit_code == 0, result.stderr
        rows = read_rows(workdir / "plot.csv")
        assert len(rows) == 3

    def test_usage_error_exit_code(self, workdir):
        result = run_cli(["classify", "missing.csv", "--test", "x.csv"])
        assert result.exit_code == 2

    def test_data_error_exit_code_and_payload(self, workdir):
        write_lines(workdir / "bad.csv", ["1,0,7"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = run_cli(["classify", "bad.csv", "--test", "tests.csv", "-o", "out.json"])
        assert result.exit_code == 3
        error = json.loads(result.stderr)
        assert error["error"]["type"] == "DataError"
        assert not (workdir / "out.json").exists()

    def test_numeric_error_exit_code(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = run_cli(["classify", "train.csv", "--test", "tests.csv",
                          "--classifier", "stc-bias", "-o", "out.json"])
        # stc-bias without a bias is a data error
        assert result.exit_code == 3

    @pytest.mark.parametrize("argv", [
        ["classify", "train.csv", "--test", "tests.csv"],
        # Over-budget requests are refused before their arrays are built:
        # a dim-8 layout at k=6 is over the dimension cap, a 10**6 x 1000
        # toy set over the byte budget.
        ["classify", "train8.csv", "--test", "tests8.csv", "--mode", "minimal", "--k", "6"],
        ["classify", "train8.csv", "--test", "tests8.csv", "--classifier", "stc-bias",
         "--bias", "0.3", "--k", "6"],
        ["gen-toy", "--m", "1000000", "--dim", "1000"],
    ])
    def test_dimension_error_exit_code(self, workdir, argv):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0,0,0"])
        write_lines(workdir / "train8.csv", ["1,0,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,1,1"])
        write_lines(workdir / "tests8.csv", ["1,0,0,0,0,0,0,1"])
        result = run_cli(argv + ["-o", "out.json"])
        assert result.exit_code == 4
        error = json.loads(result.stderr)
        assert error["error"]["type"] == "DimensionError"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 16.0 GiB for an array"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
    ])
    def test_memory_and_linalg_errors_exit_numeric(self, workdir, monkeypatch, error):
        def failing_gram(*args, **kwargs):
            raise error

        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        monkeypatch.setattr(kernelsvm, "gram", failing_gram)
        result = run_cli(["gram", "train.csv", "-o", "gram.json"])
        assert result.exit_code == 4
        payload = json.loads(result.stderr)
        assert payload["error"] == {"type": type(error).__name__, "message": str(error)}
        assert not (workdir / "gram.json").exists()

    def test_empty_test_set(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        (workdir / "tests.json").write_text("[]")
        result = run_cli(["classify", "train.csv", "--test", "tests.json", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"] == []
        result = run_cli(["emit-plot", "out.json", "-o", "plot.csv"])
        assert result.exit_code == 0
        rows = read_rows(workdir / "plot.csv")
        assert rows == [list(fileio.PLOT_COLUMNS)]

    @pytest.mark.parametrize("args", [
        ["--mode", "ancilla-circuit", "--k", "2"], ["--mode", "minimal"],
        ["--classifier", "stc-bias", "--bias", "0.3"], ["--classifier", "hc", "--keep-norms"],
        ["--classifier", "qsvm", "--weights", "trained", "--bias", "trained"],
    ])
    def test_empty_test_set_every_classifier(self, workdir, args):
        write_lines(workdir / "train.csv", ["1,0,0", "0.6,0.8,0", "0,1,1"])
        (workdir / "tests.json").write_text("[]")
        result = run_cli(["classify", "train.csv", "--test", "tests.json", *args, "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        assert json.loads((workdir / "out.json").read_text())["results"] == []

    def test_config_file_flow(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        (workdir / "conf.json").write_text(json.dumps({"k": 2, "seed": 7}))
        result = run_cli(["classify", "train.csv", "--test", "tests.csv",
                          "--config", "conf.json", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["config"]["k"] == 2 and payload["seed"] == 7
        # k=2: 0.5 * 0.36**2 - 0.5 * 0.64**2
        assert payload["results"][0]["expectation"] == pytest.approx(
            0.5 * 0.36**2 - 0.5 * 0.64**2, abs=1e-12)

    @pytest.mark.parametrize("config", [
        {"k": "two"}, {"box_c": "x", "weights": "trained"}, {"seed": "abc"},
        {"weights": "explicit", "explicit_weights": [1, "a"]},
        {"shots": 1.5}, {"k": 2.5}, {"tie_as_zero": "no"}, {"bias": "trained"},
    ])
    def test_config_file_value_types_checked(self, workdir, config):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        (workdir / "conf.json").write_text(json.dumps(config))
        result = run_cli(["classify", "train.csv", "--test", "tests.csv",
                          "--config", "conf.json", "-o", "out.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        assert json.loads(result.stderr)["error"]["type"] == "DataError"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("argv,env", [
        (["gen-toy", "--seed", "-1"], None),
        (["gen-toy"], "-4"),
        (["sample", "train.csv", "--test", "tests.csv", "--shots", "10", "--seed", "-3"], None),
        (["classify", "train.csv", "--test", "tests.csv", "--seed", "-3"], None),
        (["classify", "train.csv", "--test", "tests.csv", "--config", "seed.json"], None),
        (["classify", "train.csv", "--test", "tests.csv"], "-4"),
    ])
    def test_negative_seed_is_a_data_error(self, workdir, monkeypatch, argv, env):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        (workdir / "seed.json").write_text(json.dumps({"seed": -3}))
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        result = run_cli([*argv, "-o", "out.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "DataError" and "must be an integer >= 0" in error["message"]
        assert not (workdir / "out.json").exists()

    def test_explicit_weights_must_match_the_rows(self, workdir):
        write_lines(workdir / "train.csv", [f"{i % 2},{1 - i % 2},{i % 2}" for i in range(6)])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        result = run_cli(["classify", "train.csv", "--test", "tests.csv", "--weights", "explicit",
                          "--explicit-weights", "1,2", "-o", "out.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        assert json.loads(result.stderr)["error"]["type"] == "DataError"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("weight", ["abc", None, [1.0], -1.0])
    def test_json_dataset_weight_must_be_a_number(self, workdir, weight):
        (workdir / "train.json").write_text(json.dumps(
            [[[1.0, 0.0], 0, 1.0], [[0.0, 1.0], 1, weight]]))
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        result = run_cli(["classify", "train.json", "--test", "tests.csv", "-o", "out.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "DataError" and "row 2" in error["message"]

    def test_unlabeled_json_test_entry_must_be_a_list(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        (workdir / "t.json").write_text("[[1, 0], 5]")
        result = run_cli(["classify", "train.csv", "--test", "t.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "DataError" and "row 2" in error["message"]

    @pytest.mark.parametrize("args", [
        ["classify", "train.csv", "--test", "tests.csv", "--config", "nan.json"],
        ["train-svm", "train.csv", "--box-c", "nan"],
        ["classify", "train.csv", "--test", "tests.csv", "--weights", "trained",
         "--box-c", "inf"],
        ["classify", "train.csv", "--test", "tests.csv", "--classifier", "stc-bias",
         "--bias", "inf"],
        ["classify", "train.csv", "--test", "tests.csv", "--weights", "explicit",
         "--explicit-weights", "1,nan"],
        ["classify", "train.csv", "--test", "tests.csv", "--config", "huge.json"],
        ["gen-toy", "--kind", "separable", "--noise", "nan"],
        ["gen-toy", "--kind", "separable", "--noise", "inf"],
        ["gen-toy", "--kind", "separable", "--noise", "-inf"],
    ])
    def test_non_finite_numbers_rejected(self, workdir, args):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        (workdir / "nan.json").write_text('{"box_c": NaN, "weights": "trained"}')
        (workdir / "huge.json").write_text(
            '{"weights": "explicit", "explicit_weights": [1, 1%s]}' % ("0" * 400))
        result = run_cli([*args, "-o", "out.json"])
        assert result.exit_code == 3, (result.stdout, result.stderr)
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "DataError" and "finite" in error["message"]
        assert not (workdir / "out.json").exists()

    def test_gram_command(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        result = run_cli(["gram", "train.csv", "-o", "gram.json"])
        assert result.exit_code == 0, result.stderr
        payload = json.loads((workdir / "gram.json").read_text())
        assert payload["certified_psd"] is True
        assert np.allclose(payload["matrix"], np.eye(2))

    def test_hs_trace_gram_equals_squared_overlap(self, workdir):
        gen_toy_file("--m", "8", "--dim", "4")
        matrices = {}
        for kind in ("hs-trace", "squared-overlap"):
            result = run_cli(["gram", "toy.csv", "--kernel", kind, "-o", f"{kind}.json"])
            assert result.exit_code == 0, result.stderr
            payload = json.loads((workdir / f"{kind}.json").read_text())
            matrices[kind] = np.array(payload["matrix"])
        assert np.abs(matrices["hs-trace"] - matrices["squared-overlap"]).max() <= 1e-12

    def test_hs_trace_training(self, workdir):
        gen_toy_file("--m", "8", "--dim", "4")
        result = run_cli(["train-svm", "toy.csv", "--kernel", "hs-trace", "-o", "model.json"])
        assert result.exit_code == 0, result.stderr
        result = run_cli(["classify", "toy.csv", "--test", "toy.csv",
                          "--labeled-tests", "--kernel", "hs-trace",
                          "--weights", "trained", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr

    def test_sample_stc_bias(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        shots = 10_000
        result = run_cli(["sample", "train.csv", "--test", "tests.csv",
                          "--classifier", "stc-bias", "--bias", "0.3",
                          "--shots", str(shots), "--seed", "3", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        record = json.loads((workdir / "out.json").read_text())["results"][0]
        e = record["expectation"]
        assert record["bias_term"] != 0.0
        assert record["shots"]["plus"] + record["shots"]["minus"] == shots
        sigma = math.sqrt((1 - e * e) / shots)
        assert abs(record["shots"]["empirical_expectation"] - e) < 5 * sigma

    def test_sample_two_copies_of_dim_eight(self, workdir):
        gen_toy_file("--m", "8", "--dim", "8")
        result = run_cli(["sample", "toy.csv", "--test", "toy.csv",
                          "--labeled-tests", "--k", "2", "--shots", "1000",
                          "--seed", "1", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        records = json.loads((workdir / "out.json").read_text())["results"]
        assert len(records) == 8
        assert all(r["shots"]["total"] == 1000 for r in records)

    def test_stdout_when_no_output_path(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = run_cli(["classify", "train.csv", "--test", "tests.csv"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["results"][0]["predicted_label"] == 0


class TestTrainingGramSpectrum:
    def test_training_commands_never_factor(self, workdir, monkeypatch):
        # These commands compute the spectrum they write, and svm_train
        # certifies from the bound or from it, never by a Cholesky gate.
        def cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        gen_toy_file("--m", "40", "--dim", "4")
        write_lines(workdir / "tests.csv", ["1,0,0,0", "0.6,0.8,0,0"])
        for argv in (["train-svm", "toy.csv", "-o", "model.json"],
                     ["train-svm", "toy.csv", "--kernel", "hs-trace", "-o", "model.json"],
                     ["gram", "toy.csv", "-o", "gram.json"],
                     ["classify", "toy.csv", "--test", "tests.csv", "--weights", "trained",
                      "-o", "out.json"]):
            result = run_cli(argv)
            assert result.exit_code == 0, (argv, result.stderr)


class TestCliSweep:
    """Every classifier, mode, copy count, dimension and training-set size
    either runs or is refused with a JSON error: exit 0, 3 or 4, and never a
    MemoryError, reported or raised."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(classifier=st.sampled_from(CLASSIFIERS), mode=st.sampled_from(STC_MODES),
           k=st.integers(1, 3), dim=st.sampled_from([2, 4, 8]), m=st.integers(2, 40),
           weights=st.sampled_from(["uniform", "trained"]), seed=st.integers(0, 2**16))
    # The largest cells: the biggest circuit that runs, and a layout over the cap.
    @example(classifier="stc", mode="ancilla-circuit", k=3, dim=8, m=40, weights="trained",
             seed=1)
    @example(classifier="stc-bias", mode="analytic", k=3, dim=8, m=40, weights="uniform",
             seed=2)
    def test_every_run_exits_0_3_or_4(self, classifier, mode, k, dim, m, weights, seed):
        with tempfile.TemporaryDirectory() as tmp:
            toy, tests, out = (os.path.join(tmp, name) for name in ("toy.csv", "t.csv", "o.json"))
            code, _, err = run_cli(["gen-toy", "--kind", "separable", "--m", str(m),
                                    "--dim", str(dim), "--seed", str(seed), "-o", toy])
            assert (code, err) == (0, "")
            write_lines(Path(tests), [",".join(["0.6", "0.8"] + ["0"] * (dim - 2))])
            argv = ["classify", toy, "--test", tests, "--classifier", classifier,
                    "--mode", mode, "--k", str(k), "--weights", weights, "--box-c", "10",
                    "-o", out]
            if classifier == "stc-bias":
                argv += ["--bias", "trained" if weights == "trained" else "0.25"]
            code, _, err = run_cli(argv)
            assert code in (0, 3, 4), (argv, code, err)
            if code == 0:
                assert len(json.loads(Path(out).read_text())["results"]) == 1
            else:
                error = json.loads(err)["error"]
                assert error["type"] in ("DataError", "DimensionError", "NumericError"), error
                assert not os.path.exists(out)


# Runs CLI commands in one fresh interpreter and prints, after each, which of
# numpy's lazily loaded submodules are loaded that ``import numpy`` alone
# does not load.
IMPORT_PROBE = """
import json, sys
import numpy
lazy = [name for name in ("numpy.ma", "numpy.random") if name not in sys.modules]
from qkclass.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    print(json.dumps([argv, [name for name in lazy if name in sys.modules]]))
"""


class TestImportHygiene:
    def test_training_and_exact_classify_load_neither_ma_nor_random(self, workdir):
        gen_toy_file("--m", "12", "--dim", "4")
        write_lines(workdir / "tests.csv", ["1,0,0,0", "0.6,0.8,0,0"])
        classify = ["classify", "toy.csv", "--test", "tests.csv", "-o", "out.json"]
        trained = ["--weights", "trained", "--bias", "trained"]
        commands = [
            ["train-svm", "toy.csv", "-o", "model.json"],
            ["gram", "toy.csv", "-o", "gram.json"],
            classify,
            [*classify, "--mode", "ancilla-circuit"],
            *([*classify, "--classifier", name, *trained] for name in ("stc-bias", "hc", "qsvm")),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
                              capture_output=True, text=True, env=env, check=True)
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        assert [argv for argv, _ in lines] == commands
        assert all(loaded == [] for _, loaded in lines), lines

    def test_shot_seeds_come_from_the_seed_sequence(self, workdir):
        gen_toy_file("--m", "6", "--dim", "2")
        write_lines(workdir / "tests.csv", ["1,0", "0,1", "0.6,0.8"])
        result = run_cli(["sample", "toy.csv", "--test", "tests.csv",
                          "--shots", "50", "--seed", "11", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        records = json.loads((workdir / "out.json").read_text())["results"]
        assert [r["shots"]["seed"] for r in records] == \
            np.random.SeedSequence(11).generate_state(3).tolist()
        result = run_cli(["classify", "toy.csv", "--test", "tests.csv",
                          "--seed", "11", "-o", "exact.json"])
        assert result.exit_code == 0, result.stderr
        assert all("shots" not in r
                   for r in json.loads((workdir / "exact.json").read_text())["results"])


# Runs one CLI command in a fresh interpreter, then writes its exit code and
# the names of the loaded modules as the last line of stderr.
FRESH_PROBE = """
import json, sys
from qkclass.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""

SRC = str(Path(cli.__file__).resolve().parents[1])
HEAVY = ("qkclass.circuit", "qkclass.classifier", "qkclass.encoding", "qkclass.experiment")


def run_fresh(argv, cwd):
    """(stdout, stderr lines before the report, exit code, loaded modules)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", FRESH_PROBE, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env)
    *errors, report = done.stderr.splitlines()
    report = json.loads(report)
    return done.stdout, errors, report["exit"], set(report["modules"])


class TestFreshCommandImports:
    """Each command in its own interpreter, so no earlier command's imports
    mask what a later one loads."""

    def test_emit_plot_loads_no_numpy(self, workdir):
        gen_toy_file("--m", "6", "--dim", "2")
        write_lines(workdir / "tests.csv", ["1,0", "0.6,0.8"])
        result = run_cli(["classify", "toy.csv", "--test", "tests.csv", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        stdout, _, code, modules = run_fresh(["emit-plot", "out.json", "-o", "plot.csv"],
                                             workdir)
        assert code == 0 and json.loads(stdout) == {"written": "plot.csv", "rows": 2}
        assert "numpy" not in modules
        assert len(read_rows(workdir / "plot.csv")) == 3

    def test_emit_plot_data_error_exits_3_without_numpy(self, workdir):
        (workdir / "bad.json").write_text("{")
        _, errors, code, modules = run_fresh(["emit-plot", "bad.json", "-o", "plot.csv"],
                                             workdir)
        assert code == 3 and "numpy" not in modules
        assert json.loads(errors[-1])["error"]["type"] == "DataError"
        assert not (workdir / "plot.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["gen-toy", "--seed", "3", "-o", "again.csv"],
        ["train-svm", "toy.csv", "-o", "model.json"],
        ["gram", "toy.csv", "-o", "gram.json"],
    ])
    def test_training_commands_load_only_the_dataset_and_kernel_layers(
            self, workdir, argv):
        gen_toy_file("--m", "8", "--dim", "4")
        _, _, code, modules = run_fresh(argv, workdir)
        assert code == 0
        assert not modules & set(HEAVY), sorted(modules & set(HEAVY))
        assert {m for m in modules if m.startswith("qkclass")} <= {
            "qkclass", "qkclass.cli", "qkclass.constants", "qkclass.errors",
            "qkclass.fileio", "qkclass.datasets", "qkclass.kernelsvm"}
        assert (workdir / argv[-1]).exists()

    def test_version_from_source_loads_no_numpy(self, workdir):
        stdout, errors, code, modules = run_fresh(["--version"], workdir)
        assert code == 0 and errors == []
        assert stdout.split() == ["qkclass,", "version", "0.1.0"]
        assert "numpy" not in modules

    def test_no_command_loads_click(self, workdir):
        gen_toy_file("--m", "6", "--dim", "2")
        write_lines(workdir / "tests.csv", ["1,0", "0.6,0.8"])
        for argv in (["--version"],
                     ["gen-toy", "--seed", "3", "-o", "again.csv"],
                     ["train-svm", "toy.csv", "-o", "model.json"],
                     ["gram", "toy.csv", "-o", "gram.json"],
                     ["classify", "toy.csv", "--test", "tests.csv", "-o", "out.json"],
                     ["sample", "toy.csv", "--test", "tests.csv", "--shots", "10", "-o", "s.json"],
                     ["emit-plot", "out.json", "-o", "plot.csv"]):
            _, errors, code, modules = run_fresh(argv, workdir)
            assert code == 0 and errors == [], (argv, errors)
            assert not {m for m in modules if m.split(".")[0] == "click"}, argv


class TestArgumentTable:
    """The argparse table keeps the commands, flags, defaults and exit codes
    of the command line."""

    @pytest.fixture
    def files(self, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        return workdir

    def test_standalone_call_form(self, files):
        # cli.main.main(args=..., prog_name=..., standalone_mode=False) returns on
        # success and raises SystemExit with the code otherwise.
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main.main(args=["gram", "train.csv", "-o", "gram.json"],
                                 prog_name="qkclass", standalone_mode=False) is None
        assert json.loads((files / "gram.json").read_text())["certified_psd"] is True
        write_lines(files / "bad.csv", ["1,0,7"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            cli.main.main(args=["gram", "bad.csv", "-o", "bad.json"], prog_name="qkclass",
                          standalone_mode=False)
        assert exit_info.value.code == 3
        assert json.loads(err.getvalue())["error"]["type"] == "DataError"
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_info:
            cli.main.main(args=["gram", "train.csv", "-o", "gram.json"])
        assert exit_info.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["classify", "train.csv", "--test", "tests.csv", "--no-such-flag"],
        ["classify", "train.csv", "--test", "tests.csv", "--kern", "hs-trace"],
        ["classify", "train.csv", "--test", "tests.csv", "--kernel", "linear"],
        ["train-svm", "train.csv", "--kernel", "linear"],
        ["classify", "train.csv"],
        ["classify", "missing.csv", "--test", "tests.csv"],
        ["classify", "train.csv", "--test", "tests.csv", "--config", "missing.json"],
        ["emit-plot", "missing.json", "-o", "plot.csv"],
        ["classify", "train.csv", "--test", "tests.csv", "--bias", "abc"],
        ["classify", "train.csv", "--test", "tests.csv", "--weights", "explicit",
         "--explicit-weights", "1,x"],
        ["classify", "train.csv", "--test", "tests.csv", "--k", "2.5"],
        ["classify", "train.csv", "--test", "tests.csv", "-o", "."],
        ["gen-toy", "--m", "6"],
        ["gen-toy", "-o"],
        ["no-such-command"],
        [],
        ["-h"],
    ])
    def test_usage_errors_exit_2(self, files, argv):
        result = run_cli(argv)
        assert result.exit_code == 2
        assert result.stdout == "" and "usage: qkclass" in result.stderr
        assert sorted(os.listdir(files)) == ["tests.csv", "train.csv"]

    def test_help_exits_0(self, files):
        for argv in (["--help"], ["classify", "--help"], ["emit-plot", "--help"]):
            result = run_cli(argv)
            assert result.exit_code == 0 and result.stdout.startswith("usage: qkclass"), argv

    def test_an_option_value_may_start_with_a_dash(self, files):
        result = run_cli(["classify", "train.csv", "--test", "tests.csv", "--classifier",
                          "stc-bias", "--bias", "-1e-3", "-o", "out.json"])
        assert result.exit_code == 0, result.stderr
        assert json.loads((files / "out.json").read_text())["config"]["bias"] == -1e-3
        result = run_cli(["classify", "train.csv", "--test", "tests.csv", "--weights", "explicit",
                          "--explicit-weights", "-1,2", "-o", "out.json"])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"]["type"] == "DataError"

    @pytest.mark.parametrize("key, flags", [
        ("tie_as_zero", ("--tie-as-zero", "--tie-as-tie")),
        ("keep_norms", ("--keep-norms", "--unit-vectors")),
    ])
    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_flag_pairs_leave_the_config_file_value_when_unset(self, files, key, flags,
                                                               command):
        on, off = flags
        argv = [command, "train.csv", "--test", "tests.csv", "--shots", "5", "-o", "out.json"]

        def echoed(*extra, config=None):
            if config is not None:
                (files / "conf.json").write_text(json.dumps(config))
                extra = (*extra, "--config", "conf.json")
            result = run_cli([*argv, *extra])
            assert result.exit_code == 0, result.stderr
            return json.loads((files / "out.json").read_text())["config"][key]

        assert echoed() is False
        assert echoed(on) is True and echoed(off) is False
        for value in (True, False):
            assert echoed(config={key: value}) is value
        assert echoed(off, config={key: True}) is False
        assert echoed(on, config={key: False}) is True


class TestLazyPackage:
    def test_every_public_name_resolves_from_its_module(self):
        import qkclass
        for name in qkclass.__all__:
            value = getattr(qkclass, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(qkclass.__all__) <= set(dir(qkclass))

    def test_unknown_name_raises_attribute_error(self):
        import qkclass
        with pytest.raises(AttributeError, match="no_such_name"):
            qkclass.no_such_name
        assert not hasattr(qkclass, "label_sign")

    def test_import_loads_no_submodule(self, workdir):
        code = ("import json, sys, qkclass; "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('qkclass', 'numpy')))))")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert json.loads(done.stdout) == ["qkclass"]


def readme_round_trip() -> list[list[str]]:
    """The commands of the README's round-trip block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("A full round trip:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def readme_quick_start() -> str:
    """The README's "Library quick start" Python block, as written."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_quick_start_runs_as_written(self, capsys):
        exec(compile(readme_quick_start(), "README.md", "exec"), {})
        value, label = capsys.readouterr().out.splitlines()[0].split()
        assert abs(float(value) - (-0.14)) <= 1e-12 and label == "1"

    def test_round_trip_runs_as_written(self, workdir):
        commands = readme_round_trip()
        assert [argv[:2] for argv in commands] == [
            ["qkclass", "gen-toy"], ["qkclass", "train-svm"], ["qkclass", "classify"],
            ["qkclass", "sample"], ["qkclass", "emit-plot"]]
        for argv in commands:
            result = run_cli(argv[1:])
            assert result.exit_code == 0, (argv, result.stdout, result.stderr)
        assert (workdir / "plot.csv").exists()
