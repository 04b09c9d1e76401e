import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcas_regions import (
    DimensionMismatch,
    DomainError,
    InputDesign,
    JointDistribution,
    OverlapError,
    UnknownVariable,
    binary_entropy,
    build_joint,
    entropy,
    make_binary_multiplicative,
    marginalize,
    mutual_information,
    pos_part,
    swap_receivers,
)
from jcas_regions import info
from conftest import (oracle_entropy, oracle_joint, oracle_mi, oracle_row_entropies,
                      random_channel_spec, random_design)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # -1/3 log2(1/3) - 2/3 log2(2/3) = log2(3) - 2/3, high-precision reference
    assert binary_entropy(1 / 3) == pytest.approx(0.9182958340544896, abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_pos_part():
    assert pos_part(0.3) == 0.3
    assert pos_part(-0.2) == 0.0
    assert pos_part(0.0) == 0.0


def test_build_joint_reproduces_marginals():
    spec = make_binary_multiplicative(0.5, 0.5)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    px = marginalize(j, {"X"}).probs
    assert np.array_equal(px, np.array([0.5, 0.5]))
    states = marginalize(j, {"S1", "S2"}).probs
    assert np.array_equal(states, spec.state_dist)


def test_build_joint_normalized():
    rng = np.random.default_rng(0)
    for _ in range(5):
        spec = random_channel_spec(rng)
        design = random_design(rng, spec, nv=3, nu=2)
        j = build_joint(spec, design)
        assert abs(j.probs.sum() - 1.0) < 1e-12


def test_build_joint_matches_nested_loop_oracle():
    rng = np.random.default_rng(1)
    spec = random_channel_spec(rng)
    design = random_design(rng, spec, nv=3, nu=2)
    j = build_joint(spec, design)
    ref = oracle_joint(spec, design)
    for key, p in ref.items():
        assert j.probs[key] == pytest.approx(p, abs=1e-15)


def test_build_joint_dimension_mismatch():
    spec = make_binary_multiplicative(0.3, 0.7)
    with pytest.raises(DimensionMismatch):
        build_joint(spec, InputDesign(p_x=np.array([0.2, 0.3, 0.5])))


@pytest.mark.parametrize("design", [
    dict(p_x=np.full((1, 2), 0.5)),
    dict(p_x=np.full(2, 0.5), p_v_given_x=np.full(2, 0.5)),
    dict(p_x=np.full(2, 0.5), p_u_given_v=np.full(2, 0.5)),
], ids=["p_x", "p_v_given_x", "p_u_given_v"])
def test_input_design_rejects_wrong_rank(design):
    with pytest.raises(DimensionMismatch):
        InputDesign(**design)


@pytest.mark.parametrize("design", [
    InputDesign(p_x=np.full(2, 0.5), p_v_given_x=np.full((3, 2), 0.5)),
    InputDesign(p_x=np.full(2, 0.5), p_v_given_x=np.eye(2),
                p_u_given_v=np.full((3, 2), 0.5)),
], ids=["v-rows", "u-rows"])
def test_build_joint_rejects_auxiliary_row_mismatch(design):
    with pytest.raises(DimensionMismatch, match="one row per"):
        build_joint(make_binary_multiplicative(0.3, 0.7), design)


def test_joint_cell_cap(monkeypatch):
    with pytest.raises(DimensionMismatch, match="variable names"):
        JointDistribution(("X", "Y1"), np.full(4, 0.25))
    monkeypatch.setattr(info, "MAX_JOINT_CELLS", 16)
    spec = make_binary_multiplicative(0.3, 0.7)  # 32 kernel cells, 64 joint cells
    with pytest.raises(DimensionMismatch, match="joint would have 64 cells"):
        build_joint(spec, InputDesign(p_x=np.full(2, 0.5)))
    with pytest.raises(DimensionMismatch, match="joint has 32 cells"):
        JointDistribution(("X", "S1", "S2", "Y1", "Y2"), spec.kernel)


def test_marginalize_identity_and_empty():
    spec = make_binary_multiplicative(0.4, 0.6)
    j = build_joint(spec, InputDesign(p_x=np.array([0.25, 0.75])))
    full = marginalize(j, set(j.var_names))
    assert full.var_names == j.var_names
    assert np.array_equal(full.probs, j.probs)
    scalar = marginalize(j, set())
    assert scalar.var_names == ()
    assert scalar.probs == pytest.approx(1.0, abs=1e-12)


def test_marginalize_matches_hand_sum():
    # P(x, y1) for the multiplicative channel: y1 = s1 * x with S1 ~ Bern(q)
    q, p = 0.3, 0.6
    spec = make_binary_multiplicative(q, 0.5)
    j = build_joint(spec, InputDesign(p_x=np.array([1 - p, p])))
    m = marginalize(j, {"X", "Y1"}).probs
    expect = np.array([[1 - p, 0.0], [p * (1 - q), p * q]])
    assert np.allclose(m, expect, atol=1e-15)


def test_marginalize_unknown_variable():
    spec = make_binary_multiplicative(0.4, 0.6)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    with pytest.raises(UnknownVariable):
        marginalize(j, {"Z"})


def test_entropy_uniform():
    j = JointDistribution(("X",), np.full(4, 0.25))
    assert entropy(j, "X") == pytest.approx(2.0, abs=1e-15)


def test_entropy_deterministic_copy():
    probs = np.zeros((2, 2))
    probs[0, 0] = probs[1, 1] = 0.5
    j = JointDistribution(("X", "Y1"), probs)
    assert entropy(j, "Y1", "X") == pytest.approx(0.0, abs=1e-12)


def test_entropy_binary_example():
    # H(Y1|S1) = q * Hb(p): state 0 forces y1 = 0, state 1 copies the input
    spec = make_binary_multiplicative(0.5, 0.5)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    assert entropy(j, "Y1", "S1") == pytest.approx(0.5, abs=1e-12)


def test_entropy_errors():
    spec = make_binary_multiplicative(0.4, 0.6)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    with pytest.raises(OverlapError):
        entropy(j, ("Y1",), ("Y1", "S1"))
    with pytest.raises(UnknownVariable):
        entropy(j, ("W",))


@pytest.mark.parametrize("a, b, givens", [
    ("X", "X", ()), ("X", "Y1", "X"), ("X", "Y1", "Y1")], ids=["a-b", "a-given", "b-given"])
def test_mutual_information_rejects_overlap(a, b, givens):
    spec = make_binary_multiplicative(0.4, 0.6)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    with pytest.raises(OverlapError):
        mutual_information(j, a, b, givens)


def test_mutual_information_independent_variables():
    j = JointDistribution(("X", "Y1"), np.full((2, 2), 0.25))
    assert abs(mutual_information(j, "X", "Y1")) <= 1e-12


def test_mutual_information_binary_example():
    spec = make_binary_multiplicative(0.5, 0.5)
    j = build_joint(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    # I(X;Y1|S1) = q * Hb(p) = 0.5
    assert mutual_information(j, "X", "Y1", "S1") == pytest.approx(0.5, abs=1e-12)


def test_mutual_information_symmetry_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        j = JointDistribution(("X", "Y1", "S1"), probs)
        ab = mutual_information(j, "X", "Y1", "S1")
        ba = mutual_information(j, "Y1", "X", "S1")
        assert ab == pytest.approx(ba, abs=1e-12)


def test_chain_rule_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(12)).reshape(3, 2, 2)
        j = JointDistribution(("X", "Y1", "Y2"), probs)
        lhs = entropy(j, ("X", "Y1"))
        rhs = entropy(j, "X") + entropy(j, "Y1", "X")
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_state_independence_of_auxiliaries():
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec = random_channel_spec(rng)
        design = random_design(rng, spec, nv=3, nu=2)
        j = build_joint(spec, design)
        assert abs(mutual_information(j, "V", ("S1", "S2"))) <= 1e-12
        assert abs(mutual_information(j, "X", ("S1", "S2"))) <= 1e-12


def test_secrecy_conditioning_identity():
    # I(V; Y2, S2) = I(V; Y2 | S2) because V is independent of the states.
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_channel_spec(rng)
        design = random_design(rng, spec, nv=3)
        j = build_joint(spec, design)
        lhs = mutual_information(j, "V", ("Y2", "S2"))
        rhs = mutual_information(j, "V", "Y2", "S2")
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_info_measures_match_oracle():
    rng = np.random.default_rng(6)
    spec = random_channel_spec(rng)
    design = random_design(rng, spec, nv=3, nu=2)
    j = build_joint(spec, design)
    ref = oracle_joint(spec, design)
    assert entropy(j, ("Y1", "S1"), ("Y2", "S2")) == pytest.approx(
        oracle_entropy(ref, ("Y1", "S1"), ("Y2", "S2")), abs=1e-12)
    assert mutual_information(j, "V", "Y1", ("S1", "U")) == pytest.approx(
        oracle_mi(ref, ("V",), ("Y1",), ("S1", "U")), abs=1e-12)


def test_nonnegativity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        j = JointDistribution(("X", "S1", "Y1", "Y2"), probs)
        assert entropy(j, "Y1", ("X", "S1")) >= -1e-12
        assert mutual_information(j, "X", "Y1", "S1") >= -1e-12


def test_input_design_rejects_bad_rows():
    from jcas_regions import DegenerateInput
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([0.5, 0.6]))
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([0.5, 0.5]),
                    p_v_given_x=np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([1.5, -0.5]))
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([np.nan, 1.0]))
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([0.5, 0.5]),
                    p_v_given_x=np.array([[np.nan, 1.0], [0.5, 0.5]]))
    for p_x in ([np.inf, 0.0], [-np.inf, 1.0], []):
        with pytest.raises(DegenerateInput):
            InputDesign(p_x=np.array(p_x))
    with pytest.raises(DegenerateInput):
        InputDesign(p_x=np.array([0.5, 0.5]),
                    p_v_given_x=np.array([[np.inf, 0.0], [0.5, 0.5]]))
    for row in ([1.1, -0.1], [np.nan, 1.0], [0.5, 0.6]):
        with pytest.raises(DegenerateInput):
            InputDesign(p_x=np.array([0.5, 0.5]),
                        p_u_given_v=np.array([row, [0.5, 0.5]]))


def _masked_rows(seed, width, masks):
    rows = np.random.default_rng(seed).random((len(masks), width))
    return np.where(np.array(masks, dtype=bool), rows, 0.0)


_RNG = np.random.default_rng(70)
_ABOVE_MIN = np.nextafter(info.MIN_PROB, 1.0)


@pytest.mark.parametrize("rows", [
    _masked_rows(0, 12, [[1, 0] * 6]),
    _masked_rows(1, 12, [[1] * 12]),
    # one shared support, 300 wide: past the pairwise sum's 8- and 128-blocks
    _masked_rows(2, 300, [[1, 1, 0] * 100] * 5),
    # equal support sizes, different masks
    _masked_rows(3, 40, [_RNG.permutation([1] * 30 + [0] * 10) for _ in range(6)]),
    # unequal support sizes, and a row with no mass
    _masked_rows(4, 300, [_RNG.random(300) < f for f in (0.9, 0.5, 0.9, 0.1, 0.5)]
                 + [[0] * 300]),
    # one support size besides rows with no mass
    _masked_rows(5, 9, [[1, 0, 1] * 3, [0] * 9, [0, 1, 1] * 3, [0] * 9]),
    _masked_rows(6, 9, [[0] * 9]),
    # cells at MIN_PROB count as zero, cells just above it do not
    np.array([[0.5, info.MIN_PROB, 0.5, _ABOVE_MIN],
              [0.25, 0.25, info.MIN_PROB, 0.5],
              [_ABOVE_MIN, 5e-324, 0.0, 1.0]]),
], ids=["one-row", "one-row-full", "shared", "equal-sizes", "unequal-sizes",
        "one-size-and-empty", "empty", "min-prob"])
def test_row_entropies_equal_per_row_oracle(rows):
    got = info._row_entropies(rows).tolist()
    expect = oracle_row_entropies(rows)
    assert got == expect
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expect]


# the 127 nonempty subsets of the seven variables
_SUBSETS = [keep for r in range(1, 8)
            for keep in itertools.combinations(info.VAR_NAMES, r)]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(alphabets=st.tuples(*[st.integers(1, 3)] * 7),
       k=st.sampled_from([1, 2, 5]),
       x_zeros=st.lists(st.booleans(), min_size=3, max_size=3),
       swap=st.booleans(), two_stage=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alphabets=(3, 2, 2, 3, 3, 3, 3), k=2, x_zeros=[True, True, False],
         swap=False, two_stage=True, seed=0)
def test_batch_marginals_equal_numpy_sum_and_reference(alphabets, k, x_zeros,
                                                       swap, two_stage, seed):
    # alphabets of 1 give length-1 axes, which numpy's order skips; the
    # swapped spec's arrays are transposed views, so the einsum lays the
    # stack out in another memory order
    nx, ns1, ns2, ny1, ny2, nu, nv = alphabets
    rng = np.random.default_rng(seed)
    spec = random_channel_spec(rng, nx, ns1, ns2, ny1, ny2)
    if swap:
        spec = swap_receivers(spec)
    p_x = np.where(x_zeros[:nx], 0.0, rng.dirichlet(np.ones(nx)))
    if not p_x.any():
        p_x[-1] = 1.0
    p_x /= p_x.sum()
    p_v = rng.dirichlet(np.ones(nv), size=(k, nx))
    p_u = rng.dirichlet(np.ones(nu), size=(k, nv))
    [batch] = info.joint_batches(spec, p_x, p_v, p_u)
    joints = [build_joint(spec, InputDesign(p_x, p_v[d], p_u[d])) for d in range(k)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(info, "TWO_STAGE_CELLS", 0 if two_stage else math.inf)
        stack = info.JointBatch(batch.probs)
        for keep in _SUBSETS:
            drop = tuple(i + 1 for i, n in enumerate(info.VAR_NAMES)
                         if n not in keep)
            got = stack._rows(drop)
            assert got.tobytes() == batch.probs.sum(axis=drop).reshape(
                k, -1).tobytes(), keep
            for row, joint in zip(got, joints):
                assert row.tobytes() == marginalize(
                    joint, keep).probs.reshape(-1).tobytes(), keep
            assert stack.entropy(keep).tolist() == [
                entropy(joint, keep) for joint in joints], keep
        assert bool(stack._runs) == two_stage
