import tracemalloc

import numpy as np
import pytest

from jcas_regions import (
    DegenerateInput,
    DomainError,
    InputDesign,
    build_joint,
    expected_distortion,
    make_binary_multiplicative,
    make_channel_spec,
    marginalize,
    sample_run,
    synthesize_estimator,
    verify_distortion,
)
from jcas_regions import simulator
from jcas_regions.simulator import CHUNK
from conftest import oracle_sample_run, random_channel_spec

SPEC_3ARY = random_channel_spec(np.random.default_rng(5), 3, 2, 2, 3, 3)  # |Y| = 9


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_verify_distortion_rejects_bad_tolerance(tol):
    # these used to return passed=False instead of raising
    with pytest.raises(DomainError):
        verify_distortion(make_binary_multiplicative(0.5, 0.5), [0.5, 0.5], 1000, 0, tol)


def test_empirical_distortion_near_analytic():
    spec = make_binary_multiplicative(0.3, 0.5)
    stats = sample_run(spec, [0.5, 0.5], 10 ** 6, seed=42)
    assert abs(stats.mean_d1 - 0.15) <= 0.005


def test_always_on_input_exact_zero():
    spec = make_binary_multiplicative(0.3, 0.5)
    stats = sample_run(spec, [0.0, 1.0], 10 ** 4, seed=1)
    assert stats.mean_d1 == 0.0
    assert stats.mean_d2 == 0.0


def test_same_seed_bit_identical():
    spec = make_binary_multiplicative(0.6, 0.2)
    a = sample_run(spec, [0.3, 0.7], 5000, seed=7)
    b = sample_run(spec, [0.3, 0.7], 5000, seed=7)
    assert a.mean_d1 == b.mean_d1
    assert a.mean_d2 == b.mean_d2
    assert np.array_equal(a.freq, b.freq)


def test_different_seed_differs():
    spec = make_binary_multiplicative(0.6, 0.2)
    a = sample_run(spec, [0.3, 0.7], 5000, seed=7)
    b = sample_run(spec, [0.3, 0.7], 5000, seed=8)
    assert not np.array_equal(a.freq, b.freq)


def test_freq_is_a_distribution():
    spec = make_binary_multiplicative(0.3, 0.5)
    stats = sample_run(spec, [0.5, 0.5], 12345, seed=3)
    assert stats.freq.min() >= 0.0
    assert abs(stats.freq.sum() - 1.0) <= 1e-12


def test_freq_converges_in_total_variation():
    spec = make_binary_multiplicative(0.3, 0.5)
    stats = sample_run(spec, [0.5, 0.5], 10 ** 6, seed=11)
    joint = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    analytic = marginalize(joint, {"X", "S1", "S2", "Y1", "Y2"}).probs
    tv = 0.5 * np.abs(stats.freq - analytic).sum()
    assert tv <= 0.01


def test_verify_distortion_passes():
    spec = make_binary_multiplicative(0.3, 0.5)
    rep = verify_distortion(spec, [0.5, 0.5], 10 ** 6, seed=4, tol=0.01)
    assert rep.passed
    assert rep.analytic[0] == pytest.approx(0.15, abs=1e-12)
    assert rep.stderr[0] > 0.0


def test_verify_single_sample_loose_tolerance():
    spec = make_binary_multiplicative(0.3, 0.5)
    rep = verify_distortion(spec, [0.5, 0.5], 1, seed=0, tol=1.0)
    assert rep.passed  # Hamming distortion is bounded by 1


def test_verify_deterministic_states_exact():
    spec = make_binary_multiplicative(0.0, 0.5)
    rep = verify_distortion(spec, [0.5, 0.5], 1000, seed=2, tol=0.0)
    assert rep.passed
    assert rep.empirical == (0.0, 0.0)


def test_verify_zero_distortion_metric_has_zero_stderr():
    # d1 is 0 everywhere, so the metric has no spread to estimate
    spec = make_binary_multiplicative(0.3, 0.5)
    spec = make_channel_spec(spec.state_dist, spec.kernel, d1=np.zeros((2, 2)))
    rep = verify_distortion(spec, [0.5, 0.5], 1000, seed=2, tol=0.0)
    assert rep.analytic[0] == rep.empirical[0] == rep.stderr[0] == 0.0
    assert rep.stderr[1] > 0.0


def test_rejects_bad_inputs():
    spec = make_binary_multiplicative(0.3, 0.5)
    with pytest.raises(DegenerateInput):
        sample_run(spec, [0.5, 0.5], 0, seed=1)
    with pytest.raises(DegenerateInput):
        sample_run(spec, [0.7, 0.7], 10, seed=1)


@pytest.mark.parametrize("n, seed", [(2.5, 1), (10, -1), (10, 1.5), ("10", 1)])
def test_rejects_non_integer_count_and_bad_seed(n, seed):
    spec = make_binary_multiplicative(0.3, 0.5)
    with pytest.raises(DomainError):
        sample_run(spec, [0.5, 0.5], n, seed)
    with pytest.raises(DomainError):
        verify_distortion(spec, [0.5, 0.5], n, seed, 0.01)


def test_verify_distortion_synthesizes_each_estimator_once(monkeypatch):
    calls = []

    def counting(spec, p_x, j):
        calls.append(j)
        return synthesize_estimator(spec, p_x, j)

    monkeypatch.setattr(simulator, "synthesize_estimator", counting)
    spec, p_x = make_binary_multiplicative(0.3, 0.5), [0.4, 0.6]
    report = verify_distortion(spec, p_x, 1000, 7, 0.1)
    assert sorted(calls) == [1, 2]
    stats = sample_run(spec, p_x, 1000, 7)
    assert report.empirical == (stats.mean_d1, stats.mean_d2)
    assert report.analytic == tuple(
        expected_distortion(spec, p_x, synthesize_estimator(spec, p_x, j), j)
        for j in (1, 2))


@pytest.mark.parametrize("spec, p_x", [
    (make_binary_multiplicative(0.3, 0.5), [0.4, 0.6]),
    (SPEC_3ARY, [0.2, 0.3, 0.5]),
    (SPEC_3ARY, [0.0, 0.0, 1.0]),
], ids=["binary", "3ary", "3ary-px001"])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("seed", [0, 42])
def test_chunked_draws_equal_one_shot_oracle(spec, p_x, n, seed):
    # 0/1 distortion tables: every partial sum is an exact integer
    stats = sample_run(spec, p_x, n, seed)
    mean_d1, mean_d2, freq = oracle_sample_run(spec, p_x, n, seed)
    assert stats.mean_d1 == mean_d1
    assert stats.mean_d2 == mean_d2
    assert np.array_equal(stats.freq, freq)


def test_numpy_integer_count_and_seed():
    # PCG64.advance rejects a numpy integer offset
    spec = make_binary_multiplicative(0.3, 0.5)
    stats = sample_run(spec, [0.4, 0.6], np.int64(CHUNK + 1), np.uint32(9))
    mean_d1, mean_d2, freq = oracle_sample_run(spec, [0.4, 0.6], CHUNK + 1, 9)
    assert (stats.mean_d1, stats.mean_d2) == (mean_d1, mean_d2)
    assert np.array_equal(stats.freq, freq)


def test_chunked_means_on_general_distortions_within_rounding():
    # sums over the count table and the oracle's pairwise sum over n terms
    # may round differently in the last bits
    rng = np.random.default_rng(3)
    spec = make_channel_spec(SPEC_3ARY.state_dist, SPEC_3ARY.kernel,
                             rng.uniform(0, 2, (2, 2)), rng.uniform(0, 2, (2, 3)))
    n = 3 * CHUNK + 5
    stats = sample_run(spec, [0.2, 0.3, 0.5], n, 42)
    mean_d1, mean_d2, freq = oracle_sample_run(spec, [0.2, 0.3, 0.5], n, 42)
    assert stats.mean_d1 == pytest.approx(mean_d1, rel=1e-15, abs=0)
    assert stats.mean_d2 == pytest.approx(mean_d2, rel=1e-15, abs=0)
    assert np.array_equal(stats.freq, freq)


def test_memory_is_flat_in_n():
    # the one-shot oracle needs about 145 MB at n = 10^6
    peaks = []
    for n in (10 ** 6, 4 * 10 ** 6):
        tracemalloc.start()
        try:
            sample_run(SPEC_3ARY, [0.2, 0.3, 0.5], n, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
