import math
import tracemalloc

import numpy as np
import pytest

from jcas_regions import (
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    InputDesign,
    build_joint,
    expected_distortion,
    make_binary_multiplicative,
    make_channel_spec,
    marginalize,
    sample_run,
    serialize_channel_spec,
    synthesize_estimator,
    verify_distortion,
)
from jcas_regions import channel, estimators, info, regions, simulator
from jcas_regions.channel import check_input_law
from jcas_regions.cli import main
from jcas_regions.estimators import _both_receivers
from jcas_regions.simulator import CHUNK
from conftest import oracle_sample_run, random_channel_spec

SPEC_3ARY = random_channel_spec(np.random.default_rng(5), 3, 2, 2, 3, 3)  # |Y| = 9


def _with_plateaus(spec):
    # kernel row (x, s1, s2) = (0, 0, 0) puts its mass on outputs 3 and 9 of
    # 16, so its cdf is flat on outputs 0-2, 4-8 and 10-15
    kernel = spec.kernel.copy()
    row = np.zeros(spec.ny1 * spec.ny2)
    row[[3, 9]] = [0.25, 0.75]
    kernel[0, 0, 0] = row.reshape(spec.ny1, spec.ny2)
    return make_channel_spec(spec.state_dist, kernel)


SPEC_WIDE = _with_plateaus(random_channel_spec(np.random.default_rng(7), 2, 2, 2, 4, 4))


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


def test_draws_past_the_budget_are_refused_before_any_draw(monkeypatch, capsys,
                                                          tmp_path):
    # exactly the budget runs; one draw more is one error line, exit 1
    def no_draws(*args):
        raise AssertionError("a draw was made")

    spec = make_binary_multiplicative(0.3, 0.5)
    monkeypatch.setattr(simulator, "MAX_DRAWS", 1000)
    assert sample_run(spec, [0.5, 0.5], 1000, 1).n == 1000
    monkeypatch.setattr(simulator, "_categorical", no_draws)
    monkeypatch.setattr(simulator, "_both_receivers", no_draws)
    with pytest.raises(DomainError, match="n = 1001 draws is more than the budget of 1000"):
        verify_distortion(spec, [0.5, 0.5], 1001, 1, 0.1)
    chan = tmp_path / "chan.json"
    chan.write_text(serialize_channel_spec(spec))
    rc = main(["simulate", str(chan), "--px", "0.5,0.5", "--n", "100000000000",
               "--tol", "0.1"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == "error: n = 100000000000 draws is more than the budget of 1000\n"


def test_sample_run_checks_the_input_law_once(monkeypatch):
    # the estimator pass checks P_X, after the counts, and the run does not
    # check it again
    calls = []

    def counting(spec, p_x):
        calls.append(list(p_x))
        return check_input_law(spec, p_x)

    for module in (channel, estimators, info, regions, simulator):
        monkeypatch.setattr(module, "check_input_law", counting, raising=False)
    spec = make_binary_multiplicative(0.3, 0.5)
    assert sample_run(spec, [0.25, 0.75], 100, 3).n == 100
    assert calls == [[0.25, 0.75]]
    with pytest.raises(DegenerateInput, match="^n must be at least 1, got 0$"):
        sample_run(spec, [0.5, 0.6], 0, 3)
    with pytest.raises(DegenerateInput, match="^p_x is not a probability distribution$"):
        sample_run(spec, [0.5, 0.6], 100, 3)
    with pytest.raises(DimensionMismatch, match="^p_x must be a vector of length 2"):
        sample_run(spec, [1.0], 100, 3)


HUGE = 1.7e308  # a finite distortion whose products with counts overflow


def test_huge_finite_distortions_do_not_overflow():
    # the means are taken over the matrix's largest entry, so a distortion
    # near the largest float gives a finite mean and standard error, and on
    # a scaled Hamming matrix exactly the Hamming mean scaled
    spec = make_binary_multiplicative(0.3, 0.5)
    huge = make_channel_spec(spec.state_dist, spec.kernel, d1=HUGE * spec.d1,
                             d2=HUGE * spec.d2)
    base = sample_run(spec, [0.5, 0.5], 1000, 2)
    stats = sample_run(huge, [0.5, 0.5], 1000, 2)
    assert (stats.mean_d1, stats.mean_d2) == (base.mean_d1 * HUGE, base.mean_d2 * HUGE)
    report = verify_distortion(huge, [0.5, 0.5], 1000, 2, 0.1)
    assert all(map(math.isfinite, report.analytic + report.empirical + report.stderr))


def test_simulate_reports_huge_finite_distortions(capsys, tmp_path):
    # such a file passes validate, so the report must be finite and the
    # run silent (pyproject.toml makes a numpy overflow warning an error)
    spec = make_binary_multiplicative(0.3, 0.5)
    huge = make_channel_spec(spec.state_dist, spec.kernel, d1=HUGE * spec.d1,
                             d2=HUGE * spec.d2)
    chan = tmp_path / "huge.json"
    chan.write_text(serialize_channel_spec(huge))
    rc = main(["simulate", str(chan), "--px", "0.5,0.5", "--n", "1000", "--tol", "1e308"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "inf" not in out and "nan" not in out and out.endswith("PASS\n"), out


def test_verify_distortion_synthesizes_each_estimator_once(monkeypatch):
    # one estimator pass gives both tables and both analytic distortions
    calls = []

    def counting(spec, p_x):
        calls.append(list(p_x))
        return _both_receivers(spec, p_x)

    monkeypatch.setattr(simulator, "_both_receivers", counting)
    spec, p_x = make_binary_multiplicative(0.3, 0.5), [0.4, 0.6]
    report = verify_distortion(spec, p_x, 1000, 7, 0.1)
    assert calls == [p_x]
    stats = sample_run(spec, p_x, 1000, 7)
    assert report.empirical == (stats.mean_d1, stats.mean_d2)
    assert report.analytic == stats.analytic == tuple(
        expected_distortion(spec, p_x, synthesize_estimator(spec, p_x, j), j)
        for j in (1, 2))
    assert [e.table.tolist() for e in stats.estimators] == [
        synthesize_estimator(spec, p_x, j).table.tolist() for j in (1, 2)]


def test_verify_stderr_on_rescaled_distortion():
    # d1 = 2 Hamming, so m = 2: the variance bound is v (m - v), not the
    # Bernoulli v (1 - v/m), which is smaller by a factor of 2 here
    spec = make_binary_multiplicative(0.3, 0.5)
    spec = make_channel_spec(spec.state_dist, spec.kernel, d1=2 * spec.d1)
    n = 10 ** 4
    rep = verify_distortion(spec, [0.5, 0.5], n, seed=4, tol=0.05)
    v = rep.analytic[0]
    assert v == pytest.approx(0.3, abs=1e-12)
    assert rep.stderr[0] == math.sqrt(v * (2.0 - v) / n)
    assert rep.stderr[0] == pytest.approx(math.sqrt(0.3 * 1.7 / n), rel=1e-12)


@pytest.mark.parametrize("spec, p_x", [
    (make_binary_multiplicative(0.3, 0.5), [0.4, 0.6]),
    (SPEC_3ARY, [0.2, 0.3, 0.5]),
    (SPEC_3ARY, [0.0, 0.0, 1.0]),
    (SPEC_WIDE, [0.5, 0.5]),
], ids=["binary", "3ary", "3ary-px001", "wide-plateaus"])
# n on both sides of the first chunk boundary and of the fourth, and past a
# partial chunk
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5,
                               4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 12 * CHUNK + 5])
@pytest.mark.parametrize("seed", [0, 42])
def test_chunked_draws_equal_one_shot_oracle(spec, p_x, n, seed):
    # 0/1 distortion tables: every partial sum is an exact integer
    stats = sample_run(spec, p_x, n, seed)
    mean_d1, mean_d2, freq = oracle_sample_run(spec, p_x, n, seed)
    assert stats.mean_d1 == mean_d1
    assert stats.mean_d2 == mean_d2
    assert np.array_equal(stats.freq, freq)
    assert not stats.freq[spec.kernel == 0].any()  # zero-mass outputs


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


def _traced_peak(spec, p_x, n):
    tracemalloc.start()
    try:
        sample_run(spec, p_x, n, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_n():
    # the one-shot oracle needs about 145 MB at n = 10^6; a chunk that
    # gathers whole cdf rows (2^16 draws x |Y|) peaked at 4.3 MB with
    # |Y| = 4 and 11.1 MB with |Y| = 16
    peaks = [_traced_peak(SPEC_3ARY, [0.2, 0.3, 0.5], n) for n in (10 ** 6, 4 * 10 ** 6)]
    assert max(peaks) < 16 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    narrow = _traced_peak(random_channel_spec(np.random.default_rng(7)), [0.5, 0.5], 10 ** 6)
    wide = _traced_peak(SPEC_WIDE, [0.5, 0.5], 10 ** 6)  # |Y| = 16
    assert max(narrow, wide) < 2 * 2 ** 20
    assert abs(wide - narrow) <= 0.1 * narrow
