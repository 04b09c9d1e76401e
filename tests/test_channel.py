import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jcas_regions import (
    ChannelSpec,
    DegenerateInput,
    DegradednessKind,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    NegativeProbability,
    SchemaError,
    StochasticityError,
    classify_degradedness,
    make_binary_multiplicative,
    make_channel_spec,
    parse_channel_document,
    parse_channel_spec,
    serialize_channel_spec,
    swap_receivers,
    validate,
)
from jcas_regions import channel
from jcas_regions.channel import (DEGRADEDNESS_TOL, check_count, check_distribution,
                                  check_probability, check_tolerance)
from jcas_regions.info import binary_entropy
from conftest import (oracle_conditionally_independent, oracle_residuals,
                      oracle_validate, random_channel_spec, random_degraded_spec,
                      random_reverse_degraded_spec)


#: Finite floats, with a signed zero, the smallest subnormal and a huge value.
_FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _any_spec(draw):
    """A spec of any alphabet sizes in 1..3, so often non-square d1/d2, with
    any finite entries: the file format carries numbers, not laws."""
    nx, ns1, ns2, ny1, ny2, nshat1, nshat2 = draw(st.tuples(*[st.integers(1, 3)] * 7))

    def array(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=_FINITE))

    return ChannelSpec(array(ns1, ns2), array(nx, ns1, ns2, ny1, ny2),
                       array(ns1, nshat1), array(ns2, nshat2))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(spec=_any_spec())
@example(spec=make_binary_multiplicative(1 / 3, 2 / 7))
def test_parse_serialize_round_trip(spec):
    text = serialize_channel_spec(spec)
    back = parse_channel_document(text)
    for name in ("state_dist", "kernel", "d1", "d2"):
        got, want = getattr(back, name), getattr(spec, name)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
    # and the text itself is a fixed point
    assert serialize_channel_spec(back) == text


def test_parse_rejects_substochastic_kernel():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    doc["kernel"][0][0][0] = [0.49, 0.49, 0.0, 0.0]
    with pytest.raises(StochasticityError):
        parse_channel_spec(json.dumps(doc))


def test_parse_rejects_negative_probability():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    doc["state_dist"][0][0] = -0.5
    with pytest.raises(NegativeProbability):
        parse_channel_spec(json.dumps(doc))


def test_parse_missing_field():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    del doc["kernel"]
    with pytest.raises(SchemaError):
        parse_channel_spec(json.dumps(doc))


def test_parse_missing_distortion_defaults_to_hamming():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    del doc["d2"]
    del doc["alphabets"]["shat2"]
    back = parse_channel_spec(json.dumps(doc))
    assert np.array_equal(back.d2, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("given", [(), ("d1",), ("d2",), ("d1", "d2")])
def test_parse_builds_hamming_default_only_for_missing_distortions(monkeypatch, given):
    # a file that supplies d_j must not pay for a default sized by shat_j
    rng = np.random.default_rng(5)
    spec = dataclasses.replace(
        random_channel_spec(rng, ns1=2, ns2=3),
        d1=rng.random((2, 3)), d2=rng.random((3, 2)))
    doc = json.loads(serialize_channel_spec(spec))
    expected, missing = [], []
    for key, d in (("d1", spec.d1), ("d2", spec.d2)):
        if key in given:
            expected.append(d)
        else:
            del doc[key]
            expected.append(channel.hamming_distortion(*d.shape))
            missing.append(d.shape)
    calls, real = [], channel.hamming_distortion

    def spy(n, n_hat=None):
        calls.append((n, n_hat))
        return real(n, n_hat)

    monkeypatch.setattr(channel, "hamming_distortion", spy)
    back = parse_channel_document(json.dumps(doc))
    assert calls == missing
    assert np.array_equal(back.state_dist, spec.state_dist)
    assert np.array_equal(back.kernel, spec.kernel)
    assert np.array_equal(back.d1, expected[0])
    assert np.array_equal(back.d2, expected[1])


def test_parse_refuses_default_distortion_larger_than_the_kernel():
    # a few hundred bytes that declare shat1 = 2,000,000 must not allocate a
    # 2 x 2,000,000 Hamming default
    doc = json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))
    del doc["d1"], doc["d2"]
    doc["alphabets"]["shat1"] = 2_000_000
    text = json.dumps(doc)
    assert len(text) < 400
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="default Hamming d1"):
            parse_channel_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # a default exactly as large as the kernel is still built
    doc["alphabets"]["shat1"] = 16
    assert parse_channel_document(json.dumps(doc)).d1.shape == (2, 16)


def test_parse_rejects_wrong_dimension():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    doc["state_dist"] = [[1.0]]
    with pytest.raises(SchemaError):
        parse_channel_spec(json.dumps(doc))


def test_parse_rejects_non_json():
    with pytest.raises(SchemaError):
        parse_channel_spec("not json {")


def test_validate_valid_spec_is_clean():
    report = validate(make_binary_multiplicative(0.3, 0.8))
    assert report.is_valid
    assert report.findings == ()


def test_validate_names_negative_distortion():
    spec = make_binary_multiplicative(0.5, 0.5)
    d1 = spec.d1.copy()
    d1[0][1] = -2.0
    bad = make_channel_spec(spec.state_dist, spec.kernel, d1, spec.d2)
    report = validate(bad)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.location == "d1[0][1]"
    assert f.magnitude == 2.0


def test_validate_orders_findings_deterministically():
    spec = make_binary_multiplicative(0.5, 0.5)
    state = spec.state_dist.copy()
    state[0][0] = 0.6  # sum now off by 0.1
    d2 = spec.d2.copy()
    d2[1][0] = -1.0
    bad = make_channel_spec(state, spec.kernel, spec.d1, d2)
    report = validate(bad)
    assert [f.location for f in report.findings] == ["state_dist", "d2[1][0]"]
    again = validate(bad)
    assert again == report


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("array, index, location", [
    ("state_dist", (0, 1), "state_dist[0][1]"),
    ("kernel", (1, 0, 1, 1, 0), "kernel[1][0][1][2]"),
])
def test_validate_flags_nonfinite_probability(array, index, location, value):
    spec = make_binary_multiplicative(0.5, 0.5)
    arrays = {"state_dist": spec.state_dist.copy(), "kernel": spec.kernel.copy()}
    arrays[array][index] = value
    bad = make_channel_spec(arrays["state_dist"], arrays["kernel"])
    first = validate(bad).findings[0]
    assert (first.kind, first.location) == ("nonfinite", location)
    assert first.magnitude == float("inf")
    # a NaN row sum passes the tolerance test, so the entry check is the
    # only finding that catches it; parsing stops there
    doc = json.loads(serialize_channel_spec(spec))
    if array == "state_dist":
        doc["state_dist"][0][1] = value
    else:
        doc["kernel"][1][0][1][2] = value
    with pytest.raises(SchemaError, match="not finite"):
        parse_channel_spec(json.dumps(doc))


_ARRAYS = ("state_dist", "kernel", "d1", "d2")
_EDITS = st.one_of(
    # set one entry, to a bad value or to any value in a row
    st.tuples(st.just("set"), st.sampled_from(_ARRAYS), st.integers(0, 255),
              st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.1, -0.0,
                                         -1e-300, -2.0, 0.0, 1.0, 1e308]),
                        st.floats(-1.0, 2.0))),
    # move a row's sum, past PROB_TOL or not
    st.tuples(st.just("add"), st.sampled_from(_ARRAYS), st.integers(0, 255),
              st.sampled_from([2e-9, -2e-9, 5e-10, 1e-3])),
    # both infinities in one row, whose sum is then NaN, or two entries
    # whose sum overflows
    st.tuples(st.just("pair"), st.sampled_from(["state_dist", "kernel"]),
              st.integers(0, 255), st.sampled_from([(math.inf, -math.inf),
                                                    (1e308, 1e308)])),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alphabets=st.tuples(*[st.integers(1, 3)] * 7),
       seed=st.integers(0, 2 ** 32 - 1), edits=st.lists(_EDITS, max_size=4))
@example(alphabets=(2, 2, 2, 2, 2, 2, 2), seed=0,
         edits=[("pair", "kernel", 3, (math.inf, -math.inf)),
                ("pair", "state_dist", 0, (1e308, 1e308))])
def test_validate_equals_per_entry_oracle(alphabets, seed, edits):
    # kind, location, message, magnitude and order of every finding
    nx, ns1, ns2, ny1, ny2, nshat1, nshat2 = alphabets
    rng = np.random.default_rng(seed)
    spec = random_channel_spec(rng, nx, ns1, ns2, ny1, ny2)
    arrays = {"state_dist": spec.state_dist.reshape(1, -1).copy(),
              "kernel": spec.kernel.reshape(-1, ny1 * ny2).copy(),
              "d1": rng.random((ns1, nshat1)), "d2": rng.random((ns2, nshat2))}
    for op, name, i, value in edits:
        rows = arrays[name]
        row, col = divmod(i % rows.size, rows.shape[1])
        if op == "set":
            rows[row, col] = value
        elif op == "add":
            rows[row, col] += value
        else:
            rows[row, col], rows[row, (col + 1) % rows.shape[1]] = value
    bad = make_channel_spec(arrays["state_dist"].reshape(ns1, ns2),
                            arrays["kernel"].reshape(nx, ns1, ns2, ny1, ny2),
                            arrays["d1"], arrays["d2"])
    got = [(f.kind, f.location, f.message, f.magnitude) for f in validate(bad).findings]
    assert got == oracle_validate(bad)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alphabets=st.tuples(*[st.integers(1, 3)] * 5),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "degraded", "reverse", "deterministic"]),
       zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
       state_zero=st.sampled_from([None, 0.0, -0.0, 1e-318]))
def test_residuals_equal_per_cell_oracle(alphabets, seed, kind, zero_frac, state_zero):
    # bit for bit, -0.0 included; zeroed kernel entries and state rows make
    # conditioning cells with no mass or one admissible x
    nx, ns1, ns2, ny1, ny2 = alphabets
    rng = np.random.default_rng(seed)
    make = {"random": random_channel_spec, "degraded": random_degraded_spec,
            "reverse": random_reverse_degraded_spec,
            "deterministic": random_channel_spec}[kind]
    spec = make(rng, nx, ns1, ns2, ny1, ny2)
    kernel, state = spec.kernel.copy(), spec.state_dist.copy()
    if kind == "deterministic":
        kernel = np.eye(ny1 * ny2)[rng.integers(0, ny1 * ny2, (nx, ns1, ns2))]
        kernel = kernel.reshape(nx, ns1, ns2, ny1, ny2)
    kernel[rng.random(kernel.shape) < zero_frac] = 0.0
    if state_zero is not None:
        state[rng.integers(ns1)] = state_zero
    spec = make_channel_spec(state, kernel)
    got = channel._residuals(spec)
    assert [v.hex() for v in got] == [v.hex() for v in oracle_residuals(spec)]


def test_make_binary_multiplicative_state_dist():
    spec = make_binary_multiplicative(0.5, 0.5)
    assert spec.state_dist.tolist() == [[0.5, 0.0], [0.25, 0.25]]


def test_make_binary_multiplicative_degenerate_corners():
    spec = make_binary_multiplicative(0.0, 0.7)
    assert spec.state_dist[0, 0] == 1.0
    assert spec.state_dist.sum() == 1.0
    spec = make_binary_multiplicative(1.0, 1.0)
    assert spec.state_dist[1, 1] == 1.0


def test_make_binary_multiplicative_domain():
    # checked before the spec cache is looked up
    for q, alpha in ((1.2, 0.5), (0.5, -0.1), (float("nan"), 0.5), (0.5, float("nan"))):
        with pytest.raises(DomainError):
            make_binary_multiplicative(q, alpha)


_BAD_UNIT = [float("nan"), -0.1, 1.1, float("inf"), float("-inf")]


@pytest.mark.parametrize("check, bad, error", [
    *[(check, v, DomainError) for check in (
        lambda v: check_probability("p", v),
        binary_entropy,
        lambda v: make_binary_multiplicative(v, 0.5),
        lambda v: make_binary_multiplicative(0.5, v),
    ) for v in _BAD_UNIT],
    *[(check_tolerance, v, DomainError)
      for v in (float("nan"), -1e-9, float("inf"), float("-inf"))],
    *[(lambda p: check_distribution("p", p), p, DegenerateInput) for p in (
        [float("nan"), 1.0], [-0.1, 1.1], [0.5, 0.6], [float("inf"), 0.0],
        [float("-inf"), 1.0], [], [[0.5, 0.5], [0.4, 0.5]])],
])
def test_shared_checks_reject_out_of_domain(check, bad, error):
    with pytest.raises(error):
        check(bad)


def test_shared_checks_return_their_argument():
    assert check_probability("p", 0.0) == 0.0
    assert check_probability("p", 1.0) == 1.0
    assert check_tolerance(0.0) == 0.0
    p = check_distribution("p", [[0.25, 0.75], [1.0, 0.0]])
    assert p.dtype == float and p.tolist() == [[0.25, 0.75], [1.0, 0.0]]


@pytest.mark.parametrize("name, low, error", [
    ("grid_step", 2, EmptyGrid), ("n_samples", 1, DomainError),
    ("seed", 0, DomainError), ("n", 1, DegenerateInput), ("threads", 1, DomainError)])
def test_count_rules(name, low, error):
    assert check_count(name, low) == low
    assert check_count(name, np.int64(low + 1)) == low + 1
    with pytest.raises(error, match=f"{name} must be at least {low}, got {low - 1}"):
        check_count(name, low - 1)
    for bad in (float(low), str(low), None, True, False):
        with pytest.raises(DomainError, match="must be an integer"):
            check_count(name, bad)


def test_binary_multiplicative_is_physically_degraded():
    rng = np.random.default_rng(10)
    for _ in range(10):
        q, alpha = rng.random(), rng.random()
        cls = classify_degradedness(make_binary_multiplicative(q, alpha))
        assert cls.is_physically_degraded
        assert cls.residual_phys <= 1e-12


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), float("-inf")])
def test_classify_rejects_bad_tolerance(tol):
    # a NaN tolerance used to classify every channel as "neither"
    with pytest.raises(DomainError):
        classify_degradedness(make_binary_multiplicative(0.5, 0.5), tol)


def _spec_bytes(spec):
    return [a.tobytes() for a in (spec.state_dist, spec.kernel, spec.d1, spec.d2)]


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_binary_spec_cache_tells_negative_zero_apart(first):
    # the cache finds -0.0 == 0.0, but a -0.0 state mass has other bits;
    # either order of first calls must give each sign its own spec
    channel._binary_multiplicative.cache_clear()
    build = channel._binary_multiplicative.__wrapped__  # uncached
    for q in (first, -first):
        for alpha in (-0.0, 0.0, 0.25):
            got = make_binary_multiplicative(q, alpha)
            assert _spec_bytes(got) == _spec_bytes(build(q, alpha)), (q, alpha)
    assert np.signbit(make_binary_multiplicative(-0.0, 0.25).state_dist).any()
    assert not np.signbit(make_binary_multiplicative(0.0, 0.25).state_dist).any()


def test_binary_spec_is_shared_and_read_only():
    spec = make_binary_multiplicative(0.3, 0.6)
    assert make_binary_multiplicative(0.3, 0.6) is spec
    for name in ("state_dist", "kernel", "d1", "d2"):
        arr = getattr(spec, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, arr.copy())
    assert _spec_bytes(make_binary_multiplicative(0.3, 0.6)) == _spec_bytes(
        channel._binary_multiplicative.__wrapped__(0.3, 0.6))


def test_binary_spec_cache_is_bounded():
    make_binary_multiplicative(0.5, 0.5)
    for k in range(5000):
        make_binary_multiplicative(k / 5000, 0.5)
    info = channel._binary_multiplicative.cache_info()
    assert info.currsize == info.maxsize == 1024


def test_classify_computes_residuals_once_per_spec(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return residuals(spec)

    residuals = channel._residuals
    monkeypatch.setattr(channel, "_residuals", counted)
    spec = random_channel_spec(np.random.default_rng(5), ny1=3)
    # both residuals lie strictly between 0 and 1 and differ, so tol 1, 0
    # and one between them give three kinds, in any call order
    first = classify_degradedness(spec, 1.0)
    lo, hi = sorted((first.residual_phys, first.residual_rev))
    assert 0.0 < lo < hi < 1.0
    one_sided = (DegradednessKind.PHYSICALLY_DEGRADED if first.residual_phys == lo
                 else DegradednessKind.REVERSELY_DEGRADED)
    kinds = []
    for tol in (0.0, 1.0, (lo + hi) / 2, 0.0):
        cls = classify_degradedness(spec, tol)
        assert (cls.residual_phys, cls.residual_rev) == (
            first.residual_phys, first.residual_rev)
        kinds.append(cls.kind)
    assert kinds == [DegradednessKind.NEITHER, DegradednessKind.BOTH, one_sided,
                     DegradednessKind.NEITHER]
    assert len(calls) == 1
    classify_degradedness(swap_receivers(spec))
    assert len(calls) == 2


@pytest.mark.parametrize("name, index, value", [
    ("kernel", (1, 0, 1, 0, 1), float("nan")),
    ("state_dist", (1, 0), float("nan")),
    ("kernel", (0, 1, 1, 1, 1), float("inf")),
    ("state_dist", (0, 0), float("-inf")),
], ids=["kernel-nan", "state-nan", "kernel-inf", "state-neg-inf"])
def test_classify_rejects_nonfinite_entries(name, index, value):
    # a NaN used to drop out of every comparison and classify as BOTH with
    # zero residuals; the error is raised on every call, not cached away
    arrays = {"state_dist": np.full((2, 2), 0.25),
              "kernel": np.full((2, 2, 2, 2, 2), 0.25)}
    arrays[name][index] = value
    spec = make_channel_spec(arrays["state_dist"], arrays["kernel"])
    for _ in range(2):
        with pytest.raises(DegenerateInput, match="finite"):
            classify_degradedness(spec)


@pytest.mark.parametrize("cell", [[[2.0, -1.0], [0.0, 0.0]],
                                  [[1e300, -1e300], [1e-310, 0.0]]],
                         ids=["neither", "physically"])
def test_classify_rejects_negative_entries(cell):
    # library-built specs skip validate: these kernel rows used to classify
    # as NEITHER and as PHYSICALLY_DEGRADED; a negative state mass too
    binary = make_binary_multiplicative(0.5, 0.5)
    kernel = binary.kernel.copy()
    kernel[0, 0, 0] = cell
    state = binary.state_dist * [[1.0, 1.0], [-1.0, 1.0]]
    for spec in (make_channel_spec(binary.state_dist, kernel),
                 make_channel_spec(state, binary.kernel)):
        with pytest.raises(DegenerateInput, match="finite and nonnegative"):
            classify_degradedness(spec)
    # -0.0 is not negative
    kernel[0, 0, 0] = [[1.0, -0.0], [-0.0, -0.0]]
    assert classify_degradedness(make_channel_spec(binary.state_dist, kernel)).kind \
        is classify_degradedness(binary).kind


def test_identical_receivers_classified_both():
    # y1 = y2 = x with a single constant state on each side
    kernel = np.zeros((2, 1, 1, 2, 2))
    kernel[0, 0, 0, 0, 0] = 1.0
    kernel[1, 0, 0, 1, 1] = 1.0
    spec = make_channel_spec(np.array([[1.0]]), kernel)
    assert classify_degradedness(spec).kind is DegradednessKind.BOTH


@pytest.mark.parametrize("seed", range(4))
def test_denormal_state_mass_counts_as_zero(seed):
    # a state row of total mass 1e-318 must classify like a zero row, not
    # add denormal rounding noise to the conditionals
    spec = random_degraded_spec(np.random.default_rng(seed), 3, 3, 3, 3, 3)
    tiny, zero = spec.state_dist.copy(), spec.state_dist.copy()
    tiny[0] *= 1e-318 / tiny[0].sum()
    zero[0] = 0.0
    got = classify_degradedness(make_channel_spec(tiny, spec.kernel))
    want = classify_degradedness(make_channel_spec(zero, spec.kernel))
    assert want.kind is DegradednessKind.PHYSICALLY_DEGRADED
    assert got.kind is want.kind
    assert got.residual_phys <= DEGRADEDNESS_TOL


def test_swapped_binary_is_reversely_degraded():
    spec = swap_receivers(make_binary_multiplicative(0.4, 0.3))
    cls = classify_degradedness(spec)
    assert cls.kind is DegradednessKind.REVERSELY_DEGRADED
    # brute-force conditional-independence enumeration agrees both ways
    assert oracle_conditionally_independent(spec, "2")
    assert not oracle_conditionally_independent(spec, "1")


def test_swap_receivers_swaps_residuals():
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = random_channel_spec(rng, ny1=3)
        cls = classify_degradedness(spec)
        swapped = classify_degradedness(swap_receivers(spec))
        assert swapped.residual_phys == cls.residual_rev
        assert swapped.residual_rev == cls.residual_phys


def test_non_square_alphabets_round_trip_and_swap():
    rng = np.random.default_rng(99)
    state = rng.dirichlet(np.ones(6)).reshape(2, 3)
    kernel = rng.dirichlet(np.ones(8), size=2 * 2 * 3).reshape(2, 2, 3, 4, 2)
    spec = make_channel_spec(state, kernel)
    back = parse_channel_spec(serialize_channel_spec(spec))
    assert np.array_equal(back.kernel, spec.kernel)
    assert (back.nx, back.ns1, back.ns2, back.ny1, back.ny2) == (2, 2, 3, 4, 2)
    cls = classify_degradedness(spec)
    swp = classify_degradedness(swap_receivers(spec))
    assert (cls.residual_phys, cls.residual_rev) == (swp.residual_rev, swp.residual_phys)


def test_parse_document_keeps_invalid_specs():
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    doc["state_dist"][0][0] = 0.7
    bad = parse_channel_document(json.dumps(doc))
    assert not validate(bad).is_valid


@pytest.mark.parametrize("state, kernel, d1, d2", [
    (np.ones(2) / 2, np.ones((2, 2, 2, 2, 2)), np.eye(2), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 2)), np.eye(2), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 3, 2, 2, 2)), np.eye(2), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 0, 2)), np.eye(2), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 2, 2)), np.eye(3), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 2, 2)), np.eye(2), np.ones(2)),
    # with no reconstruction symbol an estimator has nothing to choose
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 2, 2)), np.zeros((2, 0)), np.eye(2)),
    (np.ones((2, 2)) / 4, np.ones((2, 2, 2, 2, 2)), np.eye(2), np.zeros((2, 0))),
], ids=["state-1d", "kernel-4d", "state-axes", "empty-alphabet", "d1-rows", "d2-rows",
        "d1-empty", "d2-empty"])
def test_channel_spec_rejects_inconsistent_shapes(state, kernel, d1, d2):
    with pytest.raises(DimensionMismatch):
        ChannelSpec(state, kernel, d1, d2)


def _binary_doc():
    return json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))


@pytest.mark.parametrize("edit", [
    lambda doc: [1, 2],
    lambda doc: {**doc, "extra": 1},
    lambda doc: {**doc, "alphabets": [2, 2]},
    lambda doc: {**doc, "alphabets": {k: v for k, v in doc["alphabets"].items()
                                      if k != "y2"}},
    lambda doc: {**doc, "alphabets": {**doc["alphabets"], "z": 2}},
    lambda doc: {**doc, "alphabets": {**doc["alphabets"], "x": True}},
    lambda doc: {**doc, "alphabets": {**doc["alphabets"], "s1": 0}},
    lambda doc: {**doc, "state_dist": [[0.5, 0.0], [0.25]]},
    lambda doc: {**doc, "state_dist": [["0.5", 0.0], [0.25, 0.25]]},
    lambda doc: {**doc, "state_dist": [[0.5, False], [0.25, 0.25]]},
    lambda doc: {**doc, "kernel": [[[[True, 0, 0, 0]] * 2] * 2] * 2},
    lambda doc: {**doc, "d1": [[0.0, None], [1.0, 0.0]]},
    lambda doc: {**doc, "state_dist": json.loads("[" * 50 + "1" + "]" * 50)},
    lambda doc: {**doc, "state_dist": None},
    lambda doc: {**doc, "kernel": None},
], ids=["top-list", "unknown-key", "alphabets-list", "missing-alphabet",
        "unknown-alphabet", "bool-size", "zero-size", "ragged", "string-entry",
        "bool-entry", "bool-kernel", "null-entry", "50-d-entry", "null-state",
        "null-kernel"])
def test_parse_schema_errors(edit):
    with pytest.raises(SchemaError):
        parse_channel_document(json.dumps(edit(_binary_doc())))


def test_parse_rejects_single_string_and_bool_entries():
    # float("1") and float(True) are 1.0, so these used to parse as 1.0
    doc = {"alphabets": {"x": 1, "s1": 1, "s2": 1, "y1": 1, "y2": 1},
           "state_dist": [[1.0]], "kernel": [[[[1.0]]]]}
    parse_channel_document(json.dumps(doc))
    for key, value in (("state_dist", [["1"]]), ("kernel", [[[[True]]]])):
        with pytest.raises(SchemaError, match=f"{key!r} must hold numbers only"):
            parse_channel_document(json.dumps({**doc, key: value}))


@pytest.mark.parametrize("big", [10 ** 400, -10 ** 400], ids=["plus", "minus"])
@pytest.mark.parametrize("key", ["state_dist", "kernel", "d1", "d2"])
def test_parse_integer_too_large_for_a_float_is_schema_error(key, big):
    # float(10**400) raises OverflowError, not the ValueError of other junk
    doc = _binary_doc()
    entry = doc[key]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = big
    with pytest.raises(SchemaError, match=f"{key!r} holds a number too large for a float"):
        parse_channel_document(json.dumps(doc))


def test_parse_deep_nesting_is_schema_error():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_channel_document("[" * 100_000)
