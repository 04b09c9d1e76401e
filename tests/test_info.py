import itertools
import json
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
    make_channel_spec,
    marginalize,
    mutual_information,
    parse_channel_document,
    pos_part,
    serialize_channel_spec,
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
    # the oracle multiplies in the same order, one cell at a time, so the
    # shared product must match it bit for bit, at |V| = 1 and |U| = 1 too
    rng = np.random.default_rng(1)
    for dims, nv, nu in [((2, 2, 2, 2, 2), 3, 2), ((3, 2, 1, 3, 2), 1, 3),
                         ((2, 1, 2, 2, 3), 2, 1), ((3, 2, 2, 3, 3), None, None),
                         ((1, 2, 2, 2, 2), 1, 1), ((2, 3, 2, 1, 2), 4, None)]:
        spec = random_channel_spec(rng, *dims)
        design = random_design(rng, spec, nv=nv, nu=nu)
        j = build_joint(spec, design)
        ref = oracle_joint(spec, design)
        assert j.probs.size == len(ref)
        for key, p in ref.items():
            assert j.probs[key] == p, (dims, nv, nu, key)


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


@pytest.mark.parametrize("design, message", [
    (dict(p_v_given_x=np.full((3, 2), 0.5)), "p_v_given_x must have one row per x symbol"),
    (dict(p_v_given_x=np.eye(2), p_u_given_v=np.full((3, 2), 0.5)),
     "p_u_given_v must have one row per v symbol"),
    (dict(p_u_given_v=np.full((3, 2), 0.5)), "p_u_given_v must have one row per v symbol"),
], ids=["v-rows", "u-rows", "u-rows-at-v-equal-x"])
def test_build_joint_rejects_auxiliary_row_mismatch(design, message):
    # the design owns its row counts: it is refused when it is made, so
    # build_joint never sees it
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        build_joint(make_binary_multiplicative(0.3, 0.7),
                    InputDesign(p_x=np.full(2, 0.5), **design))


def test_joint_cell_cap(monkeypatch):
    with pytest.raises(DimensionMismatch, match="variable names"):
        JointDistribution(("X", "Y1"), np.full(4, 0.25))
    monkeypatch.setattr(info, "MAX_JOINT_CELLS", 16)
    spec = make_binary_multiplicative(0.3, 0.7)  # 32 kernel cells, 64 joint cells
    with pytest.raises(DimensionMismatch, match="joint would have 64 cells"):
        build_joint(spec, InputDesign(p_x=np.full(2, 0.5)))
    with pytest.raises(DimensionMismatch, match="^joint would have 32 cells, above the 16 cap$"):
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
    # InputDesign knows no channel: its P_X must be a vector, of any length
    with pytest.raises(DimensionMismatch) as e:
        InputDesign(p_x=np.array([[0.5, 0.5]]))
    assert str(e.value) == "p_x must be a vector"
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
       swap=st.booleans(), fortran=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alphabets=(3, 2, 2, 3, 3, 3, 3), k=2, x_zeros=[True, True, False],
         swap=False, fortran=False, seed=0)
# S1 S2 Y1 Y2 is a trailing run of 150 cells, past the pairwise sum's
# 128-cell block
@example(alphabets=(2, 2, 3, 5, 5, 2, 2), k=2, x_zeros=[False, True, False],
         swap=False, fortran=False, seed=1)
def test_batch_marginals_equal_numpy_sum_and_reference(alphabets, k, x_zeros,
                                                       swap, fortran, seed):
    # alphabets of 1 give length-1 axes, which numpy's order skips; the
    # swapped spec is made from transposed views and the Fortran-order one
    # from reversed arrays, which the spec stores C-order and the joints
    # lay out in one memory order, so these cases check that the layout of
    # the arrays passed in does not matter
    nx, ns1, ns2, ny1, ny2, nu, nv = alphabets
    rng = np.random.default_rng(seed)
    spec = random_channel_spec(rng, nx, ns1, ns2, ny1, ny2)
    if swap:
        spec = swap_receivers(spec)
    if fortran:
        spec = make_channel_spec(np.asfortranarray(spec.state_dist),
                                 np.asfortranarray(spec.kernel), spec.d1, spec.d2)
    p_x = np.where(x_zeros[:nx], 0.0, rng.dirichlet(np.ones(nx)))
    if not p_x.any():
        p_x[-1] = 1.0
    p_x /= p_x.sum()
    p_v = rng.dirichlet(np.ones(nv), size=(k, nx))
    p_u = rng.dirichlet(np.ones(nu), size=(k, nv))
    _assert_batch_equals_reference(spec, p_x, p_v, p_u)


def _assert_batch_equals_reference(spec, p_x, p_v, p_u):
    # every marginal's rows, byte for byte: against numpy's sum over the
    # designs' joints stacked design-major, each in build_joint's memory
    # order, and against marginalize on each design's build_joint; every
    # batch, of one design as of several, takes the two stages
    k = len(p_v)
    [batch] = info.joint_batches(spec, p_x[None], p_v, p_u)
    joints = [build_joint(spec, InputDesign(p_x, p_v[d], p_u[d])) for d in range(k)]
    outer = np.stack([j.probs.transpose(2, 1, 0, 3, 4, 5, 6) for j in joints])
    outer = outer.transpose(0, 3, 2, 1, 4, 5, 6, 7)
    for keep in _SUBSETS:
        drop = tuple(i + 1 for i, n in enumerate(info.VAR_NAMES)
                     if n not in keep)
        got = batch._rows(keep)
        assert got.tobytes() == outer.sum(axis=drop).reshape(k, -1).tobytes(), keep
        for row, joint in zip(got, joints):
            assert row.tobytes() == marginalize(
                joint, keep).probs.reshape(-1).tobytes(), keep
        assert batch.entropy(keep).tolist() == [
            entropy(joint, keep) for joint in joints], keep
    assert batch._runs  # every batch, k = 1 included, caches its runs


@pytest.mark.parametrize("k", [1, 2])
def test_batch_equals_reference_on_negative_zero_entries(k):
    # check_distribution admits -0.0 in a channel file; the joint product
    # makes it +0.0 for build_joint and the batches alike, as the two-stage
    # sums need
    doc = json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))
    for key in ("state_dist", "kernel"):
        doc[key] = np.where(np.array(doc[key]) == 0.0, -0.0, doc[key]).tolist()
    spec = parse_channel_document(json.dumps(doc))
    assert np.signbit(spec.kernel).any() and np.signbit(spec.state_dist).any()
    p_v = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.25, 0.75]]])
    p_u = np.array([[[0.5, 0.5], [1.0, 0.0]]] * 2)
    for p_x in ([0.0, 1.0], [0.25, 0.75]):
        _assert_batch_equals_reference(spec, np.array(p_x), p_v[:k], p_u[:k])


_MASSES = st.one_of(
    st.sampled_from([0.0, 5e-324, info.MIN_PROB, _ABOVE_MIN, 0.5, 1.0]),
    st.floats(0.0, 1.0))


def _sum_entropy(row):
    # _entropy_of written with ndarray.sum, the wrapper np.add.reduce skips
    flat = row[row > info.MIN_PROB]
    return float(-(flat * np.log2(flat)).sum()) if flat.size else 0.0


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rows=st.integers(1, 40).flatmap(lambda m: st.lists(
           st.lists(_MASSES, min_size=m, max_size=m), min_size=1, max_size=4)),
       pick=st.integers(0, 3))
@example(rows=[[0.0] * 5], pick=0)
@example(rows=[[info.MIN_PROB, 5e-324, 0.0]], pick=0)
@example(rows=[[1.0, 0.0, info.MIN_PROB], [0.5, 0.5, 0.0]], pick=0)
def test_one_row_entropies_equal_reference(rows, pick):
    # _row_entropies on one row, as a one-design batch has, and
    # np.add.reduce in _entropy_of give the bits of the ndarray.sum
    # reference, and of the same row inside a batch of several rows (tobytes
    # tells -0.0 from 0.0)
    rows = np.array(rows)
    row = rows[pick % len(rows)]
    want = np.array([_sum_entropy(row)])
    assert np.array([info._entropy_of(row)]).tobytes() == want.tobytes()
    assert info._row_entropies(row[None]).tobytes() == want.tobytes()
    batch = info._row_entropies(np.vstack([rows, row]))
    assert batch[-1:].tobytes() == want.tobytes()
    assert batch[pick % len(rows)].tobytes() == want.tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(p_x=st.one_of(
           st.sampled_from([(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                            (0.5, 0.5, 0.0), (0.0, 0.25, 0.75)]),
           st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda t: sum(t) > 0)
           .map(lambda t: tuple(v / sum(t) for v in t))),
       nv=st.sampled_from([None, 1, 2]), nu=st.sampled_from([None, 2]),
       state_zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_design_batch_equals_build_joint_entropies(p_x, nv, nu, state_zero,
                                                       seed):
    # the one-design JointBatch of a region evaluator, which takes a sweep
    # chunk's two stages, against entropy() on the same build_joint and
    # against a batch of two designs; P_X such as 0|0|1, and a state cell of
    # no mass, give all-zero rows and marginals
    rng = np.random.default_rng(seed)
    spec = random_channel_spec(rng, 3, 2, 2, 2, 2)
    if state_zero:
        state = spec.state_dist.copy()
        state[0, 1] = 0.0
        spec = make_channel_spec(state / state.sum(), spec.kernel)
    p_x = np.array(p_x)
    if abs(p_x.sum() - 1.0) > 1e-12:
        p_x[-1] = 1.0 - p_x[:-1].sum()
    p_v = None if nv is None else rng.dirichlet(np.ones(nv), size=3)
    p_u = None if nu is None else rng.dirichlet(np.ones(nu), size=nv or 3)
    design = InputDesign(p_x=p_x, p_v_given_x=p_v, p_u_given_v=p_u)
    joint = build_joint(spec, design)
    one = info.JointBatch(joint.probs[None])
    # a second design, with other auxiliary channels where there are any
    other = p_v if p_v is None else rng.dirichlet(np.ones(nv), size=3)
    p_vs = np.stack([np.eye(3) if v is None else v for v in (p_v, other)])
    p_us = np.stack([np.ones((p_vs.shape[2], 1)) if p_u is None else p_u] * 2)
    [two] = info.joint_batches(spec, p_x[None], p_vs, p_us)
    for keep in _SUBSETS:
        want = np.array([entropy(joint, keep)])
        assert one.entropy(keep).tobytes() == want.tobytes(), keep
        assert two.entropy(keep)[:1].tobytes() == want.tobytes(), keep
    want = np.array([entropy(joint, "Y1", ("Y2", "S2", "V"))])
    assert one.entropy("Y1", ("Y2", "S2", "V")).tobytes() == want.tobytes()


def test_pairwise_sum_equals_numpy_sum():
    # every run length through numpy's 8-cell unroll, its 128-cell block and
    # two levels of splitting, and runs on either side of numpy's
    # 8,192-element buffer (a 10^4-cell run, H(U, S1) of a ps_inner joint at
    # |Y1| = |Y2| = 100, fits under MAX_JOINT_CELLS), with zeros and
    # subnormals; the run axis is innermost in memory, as in JointBatch,
    # and the other axes are transposed, reversed and strided, or absent
    rng = np.random.default_rng(12)
    for n in [*range(1, 301), 1000, 8191, 8192, 8193, 10000]:
        cells = rng.random((3, 4, 2, 2 * n))
        cells[rng.random(cells.shape) < 0.2] = 0.0
        cells[rng.random(cells.shape) < 0.2] *= 5e-321
        for v in (cells[..., ::2].transpose(2, 0, 1, 3)[:, ::-1], cells[1, 2, 0, :n]):
            got = info._pairwise_sum(v)
            assert got.tobytes() == np.sum(v, axis=-1).tobytes(), (n, v.ndim)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("alphabets", [(2, 2, 2, 2, 2), (3, 2, 2, 3, 3), (3, 3, 3, 3, 3)])
def test_output_table_row_alone_equals_row_among_others(alphabets):
    # each P_X of an OutputTableBatch is summed on its own, so a region
    # evaluator (one row) and a sweep (every grid point) give it the same
    # bits: every row among 50 others, vertices and a mass below MIN_PROB
    # included, against the same row alone
    rng = np.random.default_rng(sum(alphabets))
    spec = random_channel_spec(rng, *alphabets)
    nx = spec.nx
    below_min = np.full(nx, 1 / (nx - 1))
    below_min[0] = 1e-310
    p_xs = np.vstack([rng.dirichlet(np.ones(nx), size=47), np.eye(nx)[:2],
                      np.full((1, nx), 1 / nx), below_min])
    among = info.OutputTableBatch(spec, p_xs)
    for i, p_x in enumerate(p_xs):
        alone = info.OutputTableBatch(spec, p_x[None])
        for keep in _SUBSETS:
            if {"U", "V"} & set(keep):
                continue
            assert alone.entropy(keep).tobytes() \
                == among.entropy(keep)[i:i + 1].tobytes(), (i, keep)


def test_output_table_batch_knows_only_the_v_equals_x_names():
    batch = info.OutputTableBatch(make_binary_multiplicative(0.5, 0.5),
                                  np.array([[0.5, 0.5]]))
    for names in (("V",), ("U", "Y1"), ("X", "Z")):
        with pytest.raises(UnknownVariable):
            batch.entropy(names)
