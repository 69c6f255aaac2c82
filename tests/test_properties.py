"""Property tests: the classifiers do not depend on the overall scale of the
weights, pure data scores as its density matrices do, and datasets survive
a write-read round trip exactly."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_density_matrix

from qkclass.classifier import (STC_MODES, hadamard_classify, stc_classify,
                                stc_classify_bias)
from qkclass.datasets import DatasetFile, ingest, write_dataset
from qkclass.encoding import TrainingSet
from qkclass.qmath import random_state_vector

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
scales = st.floats(1e-3, 1e3)


def draw_data(seed: int, m: int, dim: int, mixed: bool):
    rng = np.random.default_rng(seed)
    draw = random_density_matrix if mixed else random_state_vector
    states = [draw(dim, rng) for _ in range(m)]
    labels = rng.integers(0, 2, size=m).tolist()
    weights = (rng.random(m) + 0.05).tolist()
    return states, labels, weights, draw(dim, rng)


def scaled_pair(states, labels, weights, c, *, k=1, bias=None):
    """The same training set from raw weights (and bias) and from c times them."""
    sets = []
    for factor in (1.0, c):
        entries = [(s, y, factor * w) for s, y, w in zip(states, labels, weights)]
        sets.append(TrainingSet.from_states(
            entries, k=k, bias=None if bias is None else factor * bias))
    return sets


def assert_same(a, b):
    assert abs(a.expectation - b.expectation) <= 1e-12
    assert a.predicted_label == b.predicted_label


class TestWeightScaleInvariance:
    @pytest.mark.parametrize("mode", STC_MODES)
    @pytest.mark.parametrize("mixed", [False, True])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), k=st.integers(1, 2),
           dim=st.sampled_from([2, 4]), c=scales)
    def test_stc_classify(self, mode, mixed, seed, m, k, dim, c):
        states, labels, weights, test = draw_data(seed, m, dim, mixed)
        ts, ts_c = scaled_pair(states, labels, weights, c, k=k)
        assert_same(stc_classify(ts, test, mode=mode), stc_classify(ts_c, test, mode=mode))

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), k=st.integers(1, 2),
           bias=st.floats(0.01, 2.0), negative=st.booleans(), c=scales)
    def test_stc_classify_bias(self, seed, m, k, bias, negative, c):
        states, labels, weights, test = draw_data(seed, m, 2, False)
        ts, ts_c = scaled_pair(states, labels, weights, c, k=k,
                               bias=-bias if negative else bias)
        assert_same(stc_classify_bias(ts, test), stc_classify_bias(ts_c, test))

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), dim=st.sampled_from([2, 4]),
           bias=st.one_of(st.none(), st.floats(0.01, 2.0), st.floats(-2.0, -0.01)), c=scales)
    def test_hadamard_classify(self, seed, m, dim, bias, c):
        states, labels, weights, test = draw_data(seed, m, dim, False)
        ts, ts_c = scaled_pair(states, labels, weights, c, bias=bias)
        with_bias = bias is not None
        assert_same(hadamard_classify(ts, test, with_bias=with_bias),
                    hadamard_classify(ts_c, test, with_bias=with_bias))


class TestPureDataIsRankOne:
    @pytest.mark.parametrize("mode", STC_MODES)
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), k=st.integers(1, 2),
           dim=st.sampled_from([2, 4]))
    def test_stc_classify(self, mode, seed, m, k, dim):
        # Pure data given as density matrices (projectors) scores the same.
        states, labels, weights, test = draw_data(seed, m, dim, False)
        pure = TrainingSet.from_states(list(zip(states, labels, weights)), k=k)
        mixed = TrainingSet.from_states(
            [(s.to_density(), y, w) for s, y, w in zip(states, labels, weights)], k=k)
        assert_same(stc_classify(pure, test, mode=mode),
                    stc_classify(mixed, test.to_density(), mode=mode))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, with_weights: bool):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    parts = draw(st.lists(finite, min_size=2 * m * n, max_size=2 * m * n))
    features = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    weights = None
    if with_weights:
        weights = np.array(draw(st.lists(st.floats(0.0, 1e300), min_size=m, max_size=m)))
    return DatasetFile(features.reshape(m, n), labels, weights)


def round_trip(ds: DatasetFile, name: str) -> DatasetFile:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        write_dataset(ds, path)
        return ingest(path)


class TestDatasetRoundTrip:
    @SETTINGS
    @given(ds=datasets(with_weights=False))
    def test_csv(self, ds):
        back = round_trip(ds, "data.csv")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels) and back.weights is None

    @SETTINGS
    @given(ds=datasets(with_weights=True))
    def test_json(self, ds):
        back = round_trip(ds, "data.json")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.weights, ds.weights)
