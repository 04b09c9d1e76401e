import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcas_regions import (
    DegenerateInput,
    DimensionMismatch,
    EstimatorTable,
    InputDesign,
    build_joint,
    exact_region_degraded_single,
    exact_region_reverse_single,
    expected_distortion,
    inner_bound_ps,
    make_binary_multiplicative,
    make_channel_spec,
    outer_bound_ps,
    outer_bound_single,
    sample_run,
    swap_receivers,
    synthesize_estimator,
    verify_distortion,
)
from jcas_regions import info
from jcas_regions.estimators import _both_receivers, _receivers
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
    for p_x in ([float("inf"), 0.0], [float("-inf"), 1.0], [0.5, 0.5 + 1e-8]):
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


def _random_receivers_case(seed, sizes, m, sparse):
    """A channel with integer-valued distortions (so costs tie) and, where
    ``sparse``, zero-mass states and kernel cells; and m input laws, every
    other one with a zero entry where nx > 1."""
    nx, ns1, ns2, ny1, ny2 = sizes
    rng = np.random.default_rng(seed)
    state = rng.dirichlet(np.ones(ns1 * ns2))
    kernel = rng.dirichlet(np.ones(ny1 * ny2), size=nx * ns1 * ns2)
    if sparse:
        state[rng.random(state.size) < 0.3] = 0.0
        state[rng.integers(state.size)] += 0.5
        kernel[rng.random(kernel.shape) < 0.4] = 0.0
        kernel[np.arange(len(kernel)), rng.integers(ny1 * ny2, size=len(kernel))] += 0.5
    d1 = rng.integers(0, 3, size=(ns1, rng.integers(1, 4))).astype(float)
    d2 = rng.integers(0, 3, size=(ns2, rng.integers(1, 4))).astype(float)
    spec = make_channel_spec((state / state.sum()).reshape(ns1, ns2),
                             (kernel / kernel.sum(axis=1, keepdims=True))
                             .reshape(nx, ns1, ns2, ny1, ny2), d1, d2)
    p_x = rng.dirichlet(np.ones(nx), size=m)
    if nx > 1:
        p_x[::2, 0] = 0.0
    return spec, p_x / p_x.sum(axis=1, keepdims=True)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2, 7, 65]),
       sizes=st.tuples(*[st.integers(1, 4)] * 3, *[st.integers(1, 9)] * 2),
       sparse=st.booleans(), designs_per_chunk=st.sampled_from([1, 3, 64, None]))
@example(seed=0, m=65, sizes=(2, 2, 2, 2, 2), sparse=True, designs_per_chunk=7)
@example(seed=1, m=7, sizes=(3, 4, 4, 9, 9), sparse=True, designs_per_chunk=3)
def test_receivers_equal_both_receivers_and_the_public_functions(seed, m, sizes, sparse,
                                                                 designs_per_chunk):
    # a stack of M input laws, in chunks of designs_per_chunk joints (the
    # default budget where None), gives every row the bits of the M = 1
    # pass and of the public functions
    spec, p_x = _random_receivers_case(seed, sizes, m, sparse)
    cells = info.BATCH_CELLS if designs_per_chunk is None \
        else designs_per_chunk * spec.kernel.size
    with mock.patch.object(info, "BATCH_CELLS", cells):
        chunks = list(_receivers(spec, p_x))
    step = max(1, cells // spec.kernel.size)
    assert [len(d) for _, d in chunks] == [step] * (m // step) + [m % step] * (m % step > 0)
    tables = [np.concatenate(t) for t in zip(*(t for t, _ in chunks))]
    d = [pair for _, chunk in chunks for pair in chunk]
    assert len(d) == m
    for i, row in enumerate(p_x):
        one_tables, one_d = _both_receivers(spec, row)
        assert d[i] == one_d
        for j in (1, 2):
            ref = synthesize_estimator(spec, row, j)
            assert np.array_equal(tables[j - 1][i], ref.table)
            assert np.array_equal(one_tables[j - 1], ref.table)
            assert d[i][j - 1] == expected_distortion(spec, row, ref, j)


def test_receivers_memory_stays_flat_in_the_number_of_input_laws():
    # one chunk's joint and scratch at a time: 20 chunks' worth of input
    # laws peak where one chunk does, plus the chunk the caller still holds
    spec = random_channel_spec(np.random.default_rng(3), 3, 2, 2, 3, 3)
    step = info.BATCH_CELLS // spec.kernel.size
    rng = np.random.default_rng(4)

    def peak_bytes(m):
        p_x = rng.dirichlet(np.ones(3), size=m)
        tracemalloc.start()
        try:
            for _ in _receivers(spec, p_x):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak_bytes(step), peak_bytes(20 * step)
    # both tables, and a tuple of two floats per row (under 128 bytes)
    held = step * (2 * spec.nx * spec.ny1 * spec.ny2 * 8 + 128)
    assert one > step * spec.kernel.size * 8  # the chunk's joint is traced
    assert many <= one + held + 2 ** 16, (one, many, held)


# One defect of P_X each, on a binary channel: any shape other than (2,) is
# a DimensionMismatch, checked before the values; a vector of length 2 that
# is no distribution is a DegenerateInput.
_BAD_PX = {"2-D": [[0.5, 0.5]], "length": [0.2, 0.3, 0.5],
           "length-and-sum": [0.5, 0.6, 0.5], "nan": [math.nan, 1.0],
           "inf": [math.inf, 0.0], "-inf": [-math.inf, 1.0], "negative": [-0.5, 1.5],
           "unnormalised": [0.5, 0.6], "empty": []}
_SHAPES = {"2-D": "(1, 2)", "length": "(3,)", "length-and-sum": "(3,)", "empty": "(0,)"}


def _design(p_x, **aux):
    """A design whose P_X is ``p_x`` as given.  InputDesign knows no
    alphabet and refuses a P_X that is no vector or no distribution itself
    (tests/test_info.py), so the law is set past its checks: what answers
    is the entry point's own check."""
    design = InputDesign(p_x=np.full(2, 0.5), **aux)
    object.__setattr__(design, "p_x", np.asarray(p_x, dtype=float))
    return design


def _refused_alike(bad, calls):
    """Every call refuses the P_X ``_BAD_PX[bad]`` through
    channel.check_input_law: one class and one message per defect, before
    any joint or draw."""
    cls, message = (DegenerateInput, "p_x is not a probability distribution") \
        if bad not in _SHAPES else (
            DimensionMismatch, f"p_x must be a vector of length 2, got shape {_SHAPES[bad]}")
    for call in calls:
        with pytest.raises(cls) as e:
            call(_BAD_PX[bad])
        assert (type(e.value), str(e.value)) == (cls, message)


@pytest.mark.parametrize("bad", _BAD_PX)
def test_bad_input_law_errors_on_the_estimator_path(bad):
    # the estimators, the simulator and build_joint
    spec = make_binary_multiplicative(0.5, 0.5)
    table = synthesize_estimator(spec, [0.5, 0.5], 1)
    _refused_alike(bad, (lambda p: build_joint(spec, _design(p)),
                         lambda p: _both_receivers(spec, p),
                         lambda p: synthesize_estimator(spec, p, 2),
                         lambda p: expected_distortion(spec, p, table, 1),
                         lambda p: sample_run(spec, p, 10, 0),
                         lambda p: verify_distortion(spec, p, 10, 0, 0.1)))


@pytest.mark.parametrize("bad", _BAD_PX)
def test_bad_input_law_errors_on_the_evaluator_path(bad):
    # the region evaluators answer a bad P_X as the estimators do
    spec = make_binary_multiplicative(0.5, 0.5)
    _refused_alike(bad, (lambda p: outer_bound_single(spec, p),
                         lambda p: exact_region_degraded_single(spec, p),
                         lambda p: exact_region_reverse_single(swap_receivers(spec), p),
                         lambda p: inner_bound_ps(spec, _design(p)),
                         lambda p: outer_bound_ps(spec, _design(p, p_v_given_x=np.eye(2)))))
