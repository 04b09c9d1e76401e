import numpy as np
import pytest

from jcas_regions import (
    DegenerateInput,
    DomainError,
    InputDesign,
    build_joint,
    make_binary_multiplicative,
    marginalize,
    sample_run,
    verify_distortion,
)


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


def test_rejects_bad_inputs():
    spec = make_binary_multiplicative(0.3, 0.5)
    with pytest.raises(DegenerateInput):
        sample_run(spec, [0.5, 0.5], 0, seed=1)
    with pytest.raises(DegenerateInput):
        sample_run(spec, [0.7, 0.7], 10, seed=1)
