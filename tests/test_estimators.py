import itertools

import numpy as np
import pytest

from jcas_regions import (
    DegenerateInput,
    DimensionMismatch,
    EstimatorTable,
    expected_distortion,
    make_binary_multiplicative,
    synthesize_estimator,
)
from jcas_regions.estimators import _both_receivers
from conftest import random_channel_spec


def brute_force_distortion(spec, p_x, table, j):
    """Plain nested-loop expectation of d_j under an arbitrary table."""
    d = spec.d1 if j == 1 else spec.d2
    total = 0.0
    for x, s1, s2, y1, y2 in itertools.product(
            range(spec.nx), range(spec.ns1), range(spec.ns2),
            range(spec.ny1), range(spec.ny2)):
        joint = p_x[x] * spec.state_dist[s1, s2] * spec.kernel[x, s1, s2, y1, y2]
        s = s1 if j == 1 else s2
        total += joint * d[s, table[x, y1, y2]]
    return total


def test_active_input_copies_the_observation():
    # when x = 1 the output reveals s_j exactly, so the estimator copies it
    spec = make_binary_multiplicative(0.3, 0.6)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    for y1 in range(2):
        for y2 in range(2):
            assert est.table[1, y1, y2] == y1
    est2 = synthesize_estimator(spec, [0.5, 0.5], 2)
    for y1 in range(2):
        for y2 in range(2):
            if y1 == 0 and y2 == 1:
                # impossible observation (s2 = 1 forces s1 = 1): filled by the
                # prior rule, which picks 0 here since P(s2 = 1) < 0.5
                assert est2.table[1, y1, y2] == 0
            else:
                assert est2.table[1, y1, y2] == y2


def test_idle_input_uses_the_prior():
    spec = make_binary_multiplicative(0.3, 0.6)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    assert np.all(est.table[0] == 0)  # P(s1=1) = 0.3 < 0.5
    spec = make_binary_multiplicative(0.8, 0.6)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    assert np.all(est.table[0] == 1)  # P(s1=1) = 0.8 > 0.5


def test_exact_tie_breaks_to_smallest_index():
    spec = make_binary_multiplicative(0.5, 0.5)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    assert np.all(est.table[0] == 0)


def test_expected_distortion_binary_value():
    # (1 - p) * min(q, 1 - q) = 0.5 * 0.3 = 0.15
    spec = make_binary_multiplicative(0.3, 0.5)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    v = expected_distortion(spec, [0.5, 0.5], est, 1)
    assert v == pytest.approx(0.15, abs=1e-12)
    assert v == pytest.approx(
        brute_force_distortion(spec, [0.5, 0.5], est.table, 1), abs=1e-15)


def test_always_on_input_has_zero_distortion():
    spec = make_binary_multiplicative(0.37, 0.81)
    for j in (1, 2):
        est = synthesize_estimator(spec, [0.0, 1.0], j)
        assert expected_distortion(spec, [0.0, 1.0], est, j) == pytest.approx(0.0, abs=1e-15)


def test_deterministic_states_have_zero_distortion():
    spec = make_binary_multiplicative(0.0, 0.4)
    for j in (1, 2):
        est = synthesize_estimator(spec, [0.6, 0.4], j)
        assert expected_distortion(spec, [0.6, 0.4], est, j) == pytest.approx(0.0, abs=1e-15)


def test_determinism():
    rng = np.random.default_rng(20)
    spec = random_channel_spec(rng)
    p_x = rng.dirichlet(np.ones(spec.nx))
    a = synthesize_estimator(spec, p_x, 1)
    b = synthesize_estimator(spec, p_x, 1)
    assert np.array_equal(a.table, b.table)


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2, 2), (3, 3, 2, 3, 2), (2, 3, 3, 2, 3)])
def test_optimality_cell_by_cell(sizes):
    # Expected distortion decomposes as a sum of independent per-cell costs,
    # so enumerating the reconstruction choice of every cell separately is an
    # exhaustive search over all deterministic tables.
    nx, ns1, ns2, ny1, ny2 = sizes
    rng = np.random.default_rng(21)
    for _ in range(10):
        spec = random_channel_spec(rng, nx=nx, ns1=ns1, ns2=ns2, ny1=ny1, ny2=ny2)
        for _ in range(10):
            p_x = rng.dirichlet(np.ones(nx))
            for j in (1, 2):
                est = synthesize_estimator(spec, p_x, j)
                base = expected_distortion(spec, p_x, est, j)
                nshat = spec.d1.shape[1] if j == 1 else spec.d2.shape[1]
                for x, y1, y2 in itertools.product(
                        range(nx), range(ny1), range(ny2)):
                    for alt in range(nshat):
                        table = np.array(est.table)
                        table[x, y1, y2] = alt
                        other = expected_distortion(
                            spec, p_x, EstimatorTable(j=j, table=table), j)
                        assert base <= other + 1e-12


def test_non_hamming_distortion_and_larger_reconstruction_alphabet():
    # a third "hedge" reconstruction with flat cost 0.5 must win whenever the
    # posterior is uncertain enough that both hard decisions cost more
    from jcas_regions import make_channel_spec
    rng = np.random.default_rng(22)
    state = rng.dirichlet(np.ones(4)).reshape(2, 2)
    kernel = rng.dirichlet(np.ones(4), size=8).reshape(2, 2, 2, 2, 2)
    d1 = np.array([[0.0, 2.0, 0.5], [3.0, 0.0, 0.5]])
    spec = make_channel_spec(state, kernel, d1=d1)
    p_x = np.array([0.5, 0.5])
    est = synthesize_estimator(spec, p_x, 1)
    base = expected_distortion(spec, p_x, est, 1)
    for x in range(2):
        for y1 in range(2):
            for y2 in range(2):
                for alt in range(3):
                    table = np.array(est.table)
                    table[x, y1, y2] = alt
                    alt_v = expected_distortion(
                        spec, p_x, EstimatorTable(j=1, table=table), 1)
                    assert base <= alt_v + 1e-12


def test_rejects_non_distribution():
    spec = make_binary_multiplicative(0.5, 0.5)
    with pytest.raises(DegenerateInput):
        synthesize_estimator(spec, [0.5, 0.6], 1)
    with pytest.raises(DegenerateInput):
        synthesize_estimator(spec, [1.5, -0.5], 1)
    with pytest.raises(DegenerateInput):
        synthesize_estimator(spec, [float("nan"), 1.0], 1)
    for p_x in ([float("inf"), 0.0], [float("-inf"), 1.0], [], [0.5, 0.5 + 1e-8]):
        with pytest.raises(DegenerateInput):
            synthesize_estimator(spec, p_x, 1)
        with pytest.raises(DegenerateInput):
            expected_distortion(spec, p_x, synthesize_estimator(spec, [0.5, 0.5], 1), 1)


def test_estimator_table_rejects_bad_receiver_and_shape():
    with pytest.raises(DimensionMismatch):
        EstimatorTable(j=3, table=np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        EstimatorTable(j=1, table=np.zeros((2, 2)))


@pytest.mark.parametrize("j", [0, 3])
def test_rejects_unknown_receiver(j):
    spec = make_binary_multiplicative(0.5, 0.5)
    with pytest.raises(DimensionMismatch, match="receiver index"):
        synthesize_estimator(spec, [0.5, 0.5], j)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    with pytest.raises(DimensionMismatch, match="receiver index"):
        expected_distortion(spec, [0.5, 0.5], est, j)


def test_expected_distortion_rejects_mismatched_table():
    spec = make_binary_multiplicative(0.5, 0.5)
    est = synthesize_estimator(spec, [0.5, 0.5], 1)
    with pytest.raises(DimensionMismatch, match="built for receiver 1"):
        expected_distortion(spec, [0.5, 0.5], est, 2)
    with pytest.raises(DimensionMismatch, match="does not match the channel"):
        expected_distortion(spec, [0.5, 0.5],
                            EstimatorTable(j=1, table=np.zeros((2, 2, 3))), 1)
    with pytest.raises(DimensionMismatch, match="outside the reconstruction"):
        expected_distortion(spec, [0.5, 0.5],
                            EstimatorTable(j=1, table=np.full((2, 2, 2), 2)), 1)


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2, 2), (3, 3, 2, 3, 2), (2, 3, 3, 2, 3)])
def test_both_receivers_equal_the_public_functions(sizes):
    # the one-pass path runs the same arithmetic, so the bits agree
    nx, ns1, ns2, ny1, ny2 = sizes
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = random_channel_spec(rng, nx=nx, ns1=ns1, ns2=ns2, ny1=ny1, ny2=ny2)
        p_x = rng.dirichlet(np.ones(nx))
        p_x[rng.integers(nx)] = 0.0  # leaves cells empty, so the prior rule runs
        p_x /= p_x.sum()
        tables, dists = _both_receivers(spec, p_x)
        for j, table, dist in zip((1, 2), tables, dists):
            ref = synthesize_estimator(spec, p_x, j)
            assert np.array_equal(table, ref.table)
            assert dist == expected_distortion(spec, p_x, ref, j)
