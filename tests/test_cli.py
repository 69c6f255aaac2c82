import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qkclass import cli, experiment
from qkclass.cli import main
from qkclass.datasets import (DatasetFile, format_complex, gen_toy, ingest,
                              parse_complex, write_dataset)
from qkclass.errors import DataError
from qkclass.experiment import (ExperimentConfig, emit_plot_data,
                                merge_config, run_experiment, write_results)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(experiment.SEED_ENV_VAR, raising=False)
    return tmp_path


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_csv_real_row(self, workdir):
        write_lines(workdir / "d.csv", ["0.6,0.8,1"])
        ds = ingest("d.csv")
        assert np.allclose(ds.features, [[0.6, 0.8]])
        assert ds.labels.tolist() == [1]

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

    def test_random_has_both_classes(self):
        ds = gen_toy("random", 5, 2, seed=1)
        assert set(ds.labels.tolist()) == {0, 1}

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            gen_toy("spiral", 5, 2, seed=0)


def gen_toy_file(runner, *options):
    result = runner.invoke(main, ["gen-toy", "--kind", "separable", "--seed", "3",
                                  *options, "-o", "toy.csv"])
    assert result.exit_code == 0, result.output


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


class TestConfigMerging:
    def test_cli_over_file_over_default(self, workdir):
        file_values = {"k": 2, "shots": 50}
        config = merge_config({"shots": 7}, file_values)
        assert config.k == 2 and config.shots == 7
        assert config.classifier == "stc"

    def test_env_seed_fallback(self, workdir, monkeypatch):
        monkeypatch.setenv(experiment.SEED_ENV_VAR, "123")
        assert merge_config({}, {}).seed == 123
        assert merge_config({"seed": 5}, {}).seed == 5
        assert merge_config({}, {"seed": 6}).seed == 6

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
        rows = list(csv.reader(open("plot.csv")))
        assert rows == [list(experiment.PLOT_COLUMNS)]

    def test_three_rows(self, workdir):
        emit_plot_data(self._payload(3, shots=True), "plot.csv")
        rows = list(csv.reader(open("plot.csv")))
        assert len(rows) == 4

    def test_round_trip_full_precision(self, workdir):
        payload = {"schema_version": 1, "results": [{
            "index": 0, "expectation": 1 / 3.0, "predicted_label": 0,
            "shots": {"total": 7, "plus": 3, "minus": 4,
                      "empirical_expectation": -1 / 7.0}}]}
        emit_plot_data(payload, "plot.csv")
        rows = list(csv.reader(open("plot.csv")))
        record = dict(zip(rows[0], rows[1]))
        assert float(record["expectation"]) == 1 / 3.0
        assert float(record["freq_plus"]) == 3 / 7.0


class TestCliCommands:
    def test_classify_end_to_end(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv",
                                      "-o", "out.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"][0]["expectation"] == pytest.approx(0.5)
        assert payload["schema_version"] == 1

    def test_gen_toy_then_train_svm(self, runner, workdir):
        assert runner.invoke(main, ["gen-toy", "--kind", "separable", "--m", "6",
                                    "--seed", "2", "-o", "toy.csv"]).exit_code == 0
        result = runner.invoke(main, ["train-svm", "toy.csv", "-o", "model.json"])
        assert result.exit_code == 0, result.output
        model = json.loads((workdir / "model.json").read_text())
        signed = [a * (1 - 2 * y) for a, y in zip(model["multipliers"], model["labels"])]
        assert abs(sum(signed)) < 1e-8

    def test_sample_command(self, runner, workdir):
        write_lines(workdir / "train.csv", ["0,1,0"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = runner.invoke(main, ["sample", "train.csv", "--test", "tests.csv",
                                      "--shots", "200", "--seed", "5",
                                      "-o", "out.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "out.json").read_text())
        shots = payload["results"][0]["shots"]
        assert shots["plus"] + shots["minus"] == 200

    def test_sample_accepts_labeled_tests(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        result = runner.invoke(main, ["sample", "train.csv", "--test", "train.csv",
                                      "--labeled-tests", "--shots", "100",
                                      "--seed", "5", "-o", "out.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"][0]["true_label"] == 0

    def test_emit_plot_command(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0", "0,1"])
        runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv",
                             "-o", "res.json"])
        result = runner.invoke(main, ["emit-plot", "res.json", "-o", "plot.csv"])
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(open(workdir / "plot.csv")))
        assert len(rows) == 3

    def test_usage_error_exit_code(self, runner, workdir):
        result = runner.invoke(main, ["classify", "missing.csv", "--test", "x.csv"])
        assert result.exit_code == 2

    def test_data_error_exit_code_and_payload(self, runner, workdir):
        write_lines(workdir / "bad.csv", ["1,0,7"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = runner.invoke(main, ["classify", "bad.csv", "--test", "tests.csv",
                                      "-o", "out.json"])
        assert result.exit_code == 3
        error = json.loads(result.stderr)
        assert error["error"]["type"] == "DataError"
        assert not (workdir / "out.json").exists()

    def test_numeric_error_exit_code(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv",
                                      "--classifier", "stc-bias", "-o", "out.json"])
        # stc-bias without a bias is a data error
        assert result.exit_code == 3

    def test_dimension_error_exit_code(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0,0,0"])
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv",
                                      "-o", "out.json"])
        assert result.exit_code == 4
        error = json.loads(result.stderr)
        assert error["error"]["type"] == "DimensionError"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 16.0 GiB for an array"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
    ])
    def test_memory_and_linalg_errors_exit_numeric(self, runner, workdir, monkeypatch, error):
        def failing_gram(*args, **kwargs):
            raise error

        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        monkeypatch.setattr(experiment, "gram", failing_gram)
        result = runner.invoke(main, ["gram", "train.csv", "-o", "gram.json"])
        assert result.exit_code == 4
        payload = json.loads(result.stderr)
        assert payload["error"] == {"type": type(error).__name__, "message": str(error)}
        assert not (workdir / "gram.json").exists()

    def test_empty_test_set(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        (workdir / "tests.json").write_text("[]")
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.json",
                                      "-o", "out.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["results"] == []
        result = runner.invoke(main, ["emit-plot", "out.json", "-o", "plot.csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(open(workdir / "plot.csv")))
        assert rows == [list(experiment.PLOT_COLUMNS)]

    def test_config_file_flow(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        (workdir / "conf.json").write_text(json.dumps({"k": 2, "seed": 7}))
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv",
                                      "--config", "conf.json", "-o", "out.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["config"]["k"] == 2 and payload["seed"] == 7
        # k=2: 0.5 * 0.36**2 - 0.5 * 0.64**2
        assert payload["results"][0]["expectation"] == pytest.approx(
            0.5 * 0.36**2 - 0.5 * 0.64**2, abs=1e-12)

    def test_gram_command(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        result = runner.invoke(main, ["gram", "train.csv", "-o", "gram.json"])
        assert result.exit_code == 0, result.output
        payload = json.loads((workdir / "gram.json").read_text())
        assert payload["certified_psd"] is True
        assert np.allclose(payload["matrix"], np.eye(2))

    def test_hs_trace_gram_equals_squared_overlap(self, runner, workdir):
        gen_toy_file(runner, "--m", "8", "--dim", "4")
        matrices = {}
        for kind in ("hs-trace", "squared-overlap"):
            result = runner.invoke(main, ["gram", "toy.csv", "--kernel", kind,
                                          "-o", f"{kind}.json"])
            assert result.exit_code == 0, result.output
            payload = json.loads((workdir / f"{kind}.json").read_text())
            matrices[kind] = np.array(payload["matrix"])
        assert np.abs(matrices["hs-trace"] - matrices["squared-overlap"]).max() <= 1e-12

    def test_hs_trace_training(self, runner, workdir):
        gen_toy_file(runner, "--m", "8", "--dim", "4")
        result = runner.invoke(main, ["train-svm", "toy.csv", "--kernel", "hs-trace",
                                      "-o", "model.json"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["classify", "toy.csv", "--test", "toy.csv",
                                      "--labeled-tests", "--kernel", "hs-trace",
                                      "--weights", "trained", "-o", "out.json"])
        assert result.exit_code == 0, result.output

    def test_sample_stc_bias(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["0.6,0.8"])
        shots = 10_000
        result = runner.invoke(main, ["sample", "train.csv", "--test", "tests.csv",
                                      "--classifier", "stc-bias", "--bias", "0.3",
                                      "--shots", str(shots), "--seed", "3", "-o", "out.json"])
        assert result.exit_code == 0, result.output
        record = json.loads((workdir / "out.json").read_text())["results"][0]
        e = record["expectation"]
        assert record["bias_term"] != 0.0
        assert record["shots"]["plus"] + record["shots"]["minus"] == shots
        sigma = math.sqrt((1 - e * e) / shots)
        assert abs(record["shots"]["empirical_expectation"] - e) < 5 * sigma

    def test_sample_two_copies_of_dim_eight(self, runner, workdir):
        gen_toy_file(runner, "--m", "8", "--dim", "8")
        result = runner.invoke(main, ["sample", "toy.csv", "--test", "toy.csv",
                                      "--labeled-tests", "--k", "2", "--shots", "1000",
                                      "--seed", "1", "-o", "out.json"])
        assert result.exit_code == 0, result.output
        records = json.loads((workdir / "out.json").read_text())["results"]
        assert len(records) == 8
        assert all(r["shots"]["total"] == 1000 for r in records)

    def test_stdout_when_no_output_path(self, runner, workdir):
        write_lines(workdir / "train.csv", ["1,0,0", "0,1,1"])
        write_lines(workdir / "tests.csv", ["1,0"])
        result = runner.invoke(main, ["classify", "train.csv", "--test", "tests.csv"])
        assert result.exit_code == 0
        assert json.loads(result.output)["results"][0]["predicted_label"] == 0


def readme_round_trip() -> list[list[str]]:
    """The commands of the README's round-trip block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("A full round trip:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


class TestReadme:
    def test_round_trip_runs_as_written(self, runner, workdir):
        commands = readme_round_trip()
        assert [argv[:2] for argv in commands] == [
            ["qkclass", "gen-toy"], ["qkclass", "train-svm"], ["qkclass", "classify"],
            ["qkclass", "sample"], ["qkclass", "emit-plot"]]
        for argv in commands:
            result = runner.invoke(main, argv[1:])
            assert result.exit_code == 0, (argv, result.output, result.stderr)
        assert (workdir / "plot.csv").exists()
