import itertools
import math
import tracemalloc
import types
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcas_regions import (
    CardinalityExceeded,
    DomainError,
    EmptyGrid,
    InputDesign,
    MixedArity,
    NotDegraded,
    RegionPoint,
    SearchConfig,
    binary_entropy,
    build_joint,
    cardinality_caps,
    entropy,
    exact_region_degraded_ps,
    exact_region_degraded_single,
    exact_region_reverse_ps,
    exact_region_reverse_single,
    expected_distortion,
    inner_bound_ps,
    inner_bound_single,
    make_binary_multiplicative,
    make_channel_spec,
    mutual_information,
    outer_bound_ps,
    outer_bound_single,
    pareto_filter,
    pos_part,
    swap_receivers,
    sweep_region,
    synthesize_estimator,
)
from jcas_regions import info, regions
from jcas_regions.regions import DOMINANCE_EPS, MODES, PARETO_BLOCK
from conftest import (
    oracle_entropy,
    oracle_joint,
    oracle_mi,
    oracle_rates,
    random_channel_spec,
    random_degraded_spec,
    random_design,
    random_reverse_degraded_spec,
)


def binary_spec():
    return make_binary_multiplicative(0.5, 0.5)


def uniform_design():
    return InputDesign(p_x=np.array([0.5, 0.5]))


def mode_spec(mode):
    # the binary channel is physically degraded, its swap reversely degraded
    return swap_receivers(binary_spec()) if mode.endswith("_rev") else binary_spec()


def canonical(p):
    return tuple(-r for r in p.rates) + p.distortions + (p.design_tag,)


WRAPPERS = {
    "ps_inner": inner_bound_ps,
    "ps_outer": outer_bound_ps,
    "ps_exact_deg": exact_region_degraded_ps,
    "ps_exact_rev": exact_region_reverse_ps,
    "single_inner": inner_bound_single,
    "single_outer": outer_bound_single,
    "single_exact_deg": exact_region_degraded_single,
    "single_exact_rev": exact_region_reverse_single,
}

# CardinalityCaps field bounding |V| in the modes that sample V
V_CAPS = {
    "ps_inner": "v_inner",
    "ps_outer": "v_outer",
    "ps_exact_deg": "v_outer",
    "ps_exact_rev": "v_reverse",
    "single_inner": "v_outer",
}


def direct_input(mode):
    # modes that sample V take a design; the V = X modes take a bare P_X
    return uniform_design() if mode in V_CAPS else [0.5, 0.5]


def non_degraded_spec():
    # two independent noisy looks at the input: the conditional of either
    # output pair given the other still depends on x, so neither
    # degradedness factorization holds
    state = np.full((2, 2), 0.25)
    kernel = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for y1 in range(2):
            q1 = 0.9 if y1 == x else 0.1
            for y2 in range(2):
                q2 = 0.8 if y2 == x else 0.2
                kernel[x, :, :, y1, y2] = q1 * q2
    return make_channel_spec(state, kernel)


# ---------------------------------------------------------------------------
# partial-secrecy bounds


def test_inner_ps_constant_auxiliaries_give_zero_rates():
    spec = binary_spec()
    design = InputDesign(
        p_x=np.array([0.5, 0.5]),
        p_v_given_x=np.ones((2, 1)),
        p_u_given_v=np.ones((1, 1)),
    )
    pts = inner_bound_ps(spec, design)
    assert all(p.r1 == 0.0 and p.r2 == 0.0 for p in pts)


def test_inner_ps_corner_matches_single_message_exact_value():
    spec = binary_spec()
    pts = inner_bound_ps(spec, uniform_design())  # V = X, constant U
    corner = max(p.r2 for p in pts if p.r1 == 0.0)
    exact = exact_region_degraded_single(spec, [0.5, 0.5])
    assert corner == pytest.approx(exact.r, abs=1e-12)


def test_inner_ps_terms_match_oracle():
    rng = np.random.default_rng(30)
    spec = random_degraded_spec(rng)
    design = random_design(rng, spec, nv=3, nu=2)
    joint = build_joint(spec, design)
    ref = oracle_joint(spec, design)
    assert mutual_information(joint, "U", "Y1", "S1") == pytest.approx(
        oracle_mi(ref, ("U",), ("Y1",), ("S1",)), abs=1e-12)
    assert mutual_information(joint, "V", "Y1", ("S1", "U")) == pytest.approx(
        oracle_mi(ref, ("V",), ("Y1",), ("S1", "U")), abs=1e-12)
    assert mutual_information(joint, "V", "Y2", ("S2", "U")) == pytest.approx(
        oracle_mi(ref, ("V",), ("Y2",), ("S2", "U")), abs=1e-12)
    assert entropy(joint, "Y1", ("Y2", "S2", "V")) == pytest.approx(
        oracle_entropy(ref, ("Y1",), ("Y2", "S2", "V")), abs=1e-12)


def test_inner_ps_cardinality_cap():
    spec = binary_spec()
    caps = cardinality_caps(spec)
    rng = np.random.default_rng(31)
    design = random_design(rng, spec, nv=caps.v_inner + 1)
    with pytest.raises(CardinalityExceeded):
        inner_bound_ps(spec, design)
    design = random_design(rng, spec, nv=2, nu=caps.u + 1)
    with pytest.raises(CardinalityExceeded):
        inner_bound_ps(spec, design)


def test_outer_ps_constant_v_gives_zero_r1():
    spec = binary_spec()
    design = InputDesign(p_x=np.array([0.5, 0.5]), p_v_given_x=np.ones((2, 1)))
    pts = outer_bound_ps(spec, design)
    assert all(p.r1 == 0.0 for p in pts)


def test_outer_ps_corner_matches_closed_form():
    # with V = X the secrecy cap is q(1-a)Hb(p) + p(1-qa)Hb(q(1-a)/(1-qa))
    for q, alpha, p in [(0.5, 0.5, 0.25), (0.3, 0.6, 0.5), (0.7, 0.2, 0.8)]:
        spec = make_binary_multiplicative(q, alpha)
        design = InputDesign(p_x=np.array([1 - p, p]))
        pts = outer_bound_ps(spec, design)
        cap = q * (1 - alpha) * binary_entropy(p) + \
            p * (1 - q * alpha) * binary_entropy(q * (1 - alpha) / (1 - q * alpha))
        corner = max(pt.r2 for pt in pts if pt.r1 == 0.0)
        expect = min(cap, q * binary_entropy(p))
        assert corner == pytest.approx(expect, abs=1e-12)


def test_outer_ps_no_secrecy_advantage_channel():
    # identical receivers: H(Y1,S1|Y2,S2) - H(S1|Y1,Y2,S2,V) = 0
    kernel = np.zeros((2, 1, 1, 2, 2))
    kernel[0, 0, 0, 0, 0] = 1.0
    kernel[1, 0, 0, 1, 1] = 1.0
    spec = make_channel_spec(np.array([[1.0]]), kernel)
    pts = outer_bound_ps(spec, InputDesign(p_x=np.array([0.5, 0.5])))
    assert all(p.r2 == 0.0 for p in pts)


def test_exact_degraded_ps_rate_sum_is_total_budget():
    spec = binary_spec()
    pts = exact_region_degraded_ps(spec, uniform_design())
    # q Hb(p) = 0.5: at the last grid corner the whole budget is public rate
    top = max(pts, key=lambda p: p.r1)
    assert top.r1 == pytest.approx(0.5, abs=1e-12)
    assert top.r1 + top.r2 == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "mode", ["ps_outer", "ps_exact_deg", "ps_exact_rev", "single_inner"])
def test_non_constant_u_refused_unless_ignored(mode):
    spec = mode_spec(mode)
    design = InputDesign(p_x=np.array([0.5, 0.5]),
                         p_u_given_v=np.full((2, 2), 0.5))
    if mode == "ps_outer":
        # the outer bound does not involve U
        assert outer_bound_ps(spec, design, "t") == \
            outer_bound_ps(spec, uniform_design(), "t")
    else:
        with pytest.raises(DomainError):
            WRAPPERS[mode](spec, design)


@pytest.mark.parametrize("channel", ["opposite", "neither"])
@pytest.mark.parametrize("mode", [m for m in MODES if "_exact_" in m])
def test_exact_wrappers_require_degradedness(mode, channel):
    if channel == "neither":
        spec = non_degraded_spec()
    elif mode.endswith("_rev"):
        spec = binary_spec()
    else:
        spec = swap_receivers(binary_spec())
    with pytest.raises(NotDegraded):
        WRAPPERS[mode](spec, direct_input(mode))


def test_exact_reverse_ps_on_swapped_binary():
    spec = swap_receivers(make_binary_multiplicative(0.5, 0.5))
    pts = exact_region_reverse_ps(spec, uniform_design())
    joint = build_joint(spec, uniform_design())
    cap = entropy(joint, "Y1", ("Y2", "S2"))
    budget = mutual_information(joint, "X", "Y1", "S1")
    corner = max(p.r2 for p in pts if p.r1 == 0.0)
    assert corner == pytest.approx(min(cap, budget), abs=1e-12)


def test_exact_reverse_ps_conditioning_collapse():
    rng = np.random.default_rng(32)
    for _ in range(10):
        spec = random_reverse_degraded_spec(rng)
        design = random_design(rng, spec, nv=2)
        joint = build_joint(spec, design)
        with_v = entropy(joint, "Y1", ("Y2", "S2", "V"))
        without = entropy(joint, "Y1", ("Y2", "S2"))
        assert with_v == pytest.approx(without, abs=1e-9)


def test_thm1_identity_inner_equals_outer_corner():
    rng = np.random.default_rng(33)
    for _ in range(10):
        spec = random_degraded_spec(rng)
        design = random_design(rng, spec, nv=3)
        inner = inner_bound_ps(spec, design)
        outer = outer_bound_ps(spec, design)
        by_r1_inner = {round(p.r1, 9): p.r2 for p in inner}
        by_r1_outer = {round(p.r1, 9): p.r2 for p in outer}
        # constant-U inner and outer share the r1 grid and must agree
        for r1, r2 in by_r1_inner.items():
            assert r2 == pytest.approx(by_r1_outer[r1], abs=1e-9)


# ---------------------------------------------------------------------------
# single-message bounds


def test_inner_single_constant_v_is_zero():
    spec = binary_spec()
    design = InputDesign(p_x=np.array([0.5, 0.5]), p_v_given_x=np.ones((2, 1)))
    (pt,) = inner_bound_single(spec, design)
    assert pt.r == 0.0


def test_inner_single_equals_exact_on_degraded_channel():
    spec = binary_spec()
    (pt,) = inner_bound_single(spec, uniform_design())
    exact = exact_region_degraded_single(spec, [0.5, 0.5])
    assert pt.r == pytest.approx(exact.r, abs=1e-12)
    assert pt.d1 == exact.d1 and pt.d2 == exact.d2


def test_inner_single_matches_oracle():
    rng = np.random.default_rng(34)
    spec = random_degraded_spec(rng)
    design = random_design(rng, spec, nv=3)
    (pt,) = inner_bound_single(spec, design)
    ref = oracle_joint(spec, design)
    i1 = oracle_mi(ref, ("V",), ("Y1",), ("S1",))
    i2 = oracle_mi(ref, ("V",), ("Y2",), ("S2",))
    h = oracle_entropy(ref, ("Y1",), ("Y2", "S2", "V"))
    expect = min(max(i1 - i2, 0.0) + h, i1)
    assert pt.r == pytest.approx(expect, abs=1e-12)


def test_outer_single_degenerate_input():
    spec = binary_spec()
    pt = outer_bound_single(spec, [1.0, 0.0])
    assert pt.r == 0.0


def test_outer_single_binary_reference_point():
    pt = outer_bound_single(binary_spec(), [0.5, 0.5])
    assert pt.r == pytest.approx(0.5, abs=1e-12)
    assert pt.d1 == pytest.approx(0.25, abs=1e-12)
    assert pt.d2 == pytest.approx(0.125, abs=1e-12)


def test_outer_single_no_state_randomness():
    pt = outer_bound_single(make_binary_multiplicative(0.0, 0.3), [0.5, 0.5])
    assert pt.r == 0.0 and pt.d1 == 0.0 and pt.d2 == 0.0


def test_thm3_identity_on_random_degraded_channels():
    rng = np.random.default_rng(35)
    for _ in range(20):
        spec = random_degraded_spec(rng)
        p_x = rng.dirichlet(np.ones(spec.nx))
        joint = build_joint(spec, InputDesign(p_x=p_x))
        lhs = max(
            mutual_information(joint, "X", "Y1", "S1")
            - mutual_information(joint, "X", "Y2", "S2"), 0.0) \
            + entropy(joint, "Y1", ("Y2", "S2", "X"))
        rhs = entropy(joint, ("Y1", "S1"), ("Y2", "S2")) \
            - entropy(joint, "S1", ("Y1", "Y2", "S2", "X"))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_exact_degraded_single_degenerate_cases():
    assert exact_region_degraded_single(
        make_binary_multiplicative(0.0, 0.5), [0.5, 0.5]).r == 0.0
    pt = exact_region_degraded_single(binary_spec(), [0.0, 1.0])
    assert pt.r == 0.0 and pt.d1 == 0.0 and pt.d2 == 0.0


def test_exact_reverse_single_on_swapped_binary():
    spec = swap_receivers(binary_spec())
    pt = exact_region_reverse_single(spec, [0.5, 0.5])
    joint = build_joint(spec, uniform_design())
    expect = min(entropy(joint, "Y1", ("Y2", "S2")),
                 mutual_information(joint, "X", "Y1", "S1"))
    assert pt.r == pytest.approx(expect, abs=1e-12)
    with pytest.raises(NotDegraded):
        exact_region_reverse_single(binary_spec(), [0.5, 0.5])


def test_exact_reverse_single_degenerate_px():
    spec = swap_receivers(binary_spec())
    assert exact_region_reverse_single(spec, [1.0, 0.0]).r == 0.0


def test_reverse_identity_with_x():
    rng = np.random.default_rng(36)
    for _ in range(10):
        spec = random_reverse_degraded_spec(rng)
        joint = build_joint(spec, InputDesign(p_x=rng.dirichlet(np.ones(spec.nx))))
        assert entropy(joint, "Y1", ("Y2", "S2", "X")) == pytest.approx(
            entropy(joint, "Y1", ("Y2", "S2")), abs=1e-9)


# ---------------------------------------------------------------------------
# sweeps and the Pareto filter


def test_sweep_finds_reference_point():
    pts = sweep_region(binary_spec(),
                       SearchConfig(mode="single_exact_deg", grid_step=64))
    assert any(abs(p.r - 0.5) <= 1e-9 and abs(p.d1 - 0.25) <= 1e-9
               and abs(p.d2 - 0.125) <= 1e-9 for p in pts)


@pytest.mark.parametrize("field, value", [
    ("nv", 0), ("nu", 0), ("nv", -2), ("seed", -1), ("n_samples", 0),
    ("nu", 1.5), ("nv", float("nan")), ("nv", 2.0)])
def test_search_config_rejects_out_of_range_values(field, value):
    with pytest.raises(DomainError):
        SearchConfig(mode="ps_inner", grid_step=4, **{field: value})


def test_sweep_rejects_tiny_grid():
    with pytest.raises(EmptyGrid):
        sweep_region(binary_spec(),
                     SearchConfig(mode="single_exact_deg", grid_step=1))


def test_sweep_takes_tol_by_keyword_only():
    # a positional argument that once was a thread count must not become the
    # degradedness tolerance
    with pytest.raises(TypeError):
        sweep_region(swap_receivers(binary_spec()),
                     SearchConfig(mode="single_exact_deg", grid_step=4), 2)


def test_sweep_is_deterministic():
    cfg = SearchConfig(mode="ps_inner", grid_step=4, n_samples=3, seed=17)
    a = sweep_region(binary_spec(), cfg)
    b = sweep_region(binary_spec(), cfg)
    assert a == b


def test_sweep_sample_prefix_monotonicity():
    # points from the first-n prefix that survive the doubled filter must
    # already be on the first-n frontier: new samples only add competitors
    spec = binary_spec()
    small = sweep_region(spec, SearchConfig(
        mode="ps_inner", grid_step=4, n_samples=4, seed=5))
    big = sweep_region(spec, SearchConfig(
        mode="ps_inner", grid_step=4, n_samples=8, seed=5))

    def sample_index(tag):
        return int(tag.rsplit("s=", 1)[1])

    small_set = set(small)
    for p in big:
        if sample_index(p.design_tag) < 4:
            assert p in small_set


def test_sweep_order_invariance():
    # the frontier plus canonical sort makes the output independent of the
    # evaluation order; emulate a permuted grid by reversing the jobs
    spec = binary_spec()
    cfg = SearchConfig(mode="single_exact_deg", grid_step=8)
    pts = sweep_region(spec, cfg)
    redone = sorted(pareto_filter(list(reversed(pts))), key=canonical)
    assert redone == pts


@pytest.mark.parametrize("mode", MODES)
def test_sweep_equals_filtered_wrapper_outputs(mode):
    # rebuild the sweep's designs and tags by hand and evaluate them through
    # the public wrappers
    spec = mode_spec(mode)
    grid, n_samples, seed = 4, 3, 21
    caps = cardinality_caps(spec)
    rng = np.random.default_rng(seed)
    draws = []
    if mode in V_CAPS:
        nv = getattr(caps, V_CAPS[mode])
        for _ in range(n_samples):
            p_v = rng.dirichlet(np.ones(nv), size=spec.nx)
            p_u = rng.dirichlet(np.ones(caps.u), size=nv) \
                if mode == "ps_inner" else None
            draws.append((p_v, p_u))
    points = []
    for k in range(grid + 1):
        p_x = np.array([k, grid - k]) / grid
        tag = f"px={p_x[0]:.12g}|{p_x[1]:.12g}"
        if mode not in V_CAPS:
            points.append(WRAPPERS[mode](spec, p_x, tag))
        for s, (p_v, p_u) in enumerate(draws):
            design = InputDesign(p_x=p_x, p_v_given_x=p_v, p_u_given_v=p_u)
            points += WRAPPERS[mode](spec, design, f"{tag};s={s}")
    expect = sorted(pareto_filter(points), key=canonical)
    assert sweep_region(spec, SearchConfig(
        mode=mode, grid_step=grid, n_samples=n_samples, seed=seed)) == expect


@pytest.mark.parametrize("mode", MODES)
def test_sweep_classifies_once_and_synthesizes_once_per_px(mode, monkeypatch):
    calls = {"classify_degradedness": 0, "_both_receivers": 0}
    for name in calls:
        def counted(*args, _fn=getattr(regions, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(regions, name, counted)
    grid = 4
    sweep_region(mode_spec(mode), SearchConfig(
        mode=mode, grid_step=grid, n_samples=3, seed=1))
    assert calls["classify_degradedness"] == (1 if "_exact_" in mode else 0)
    # one estimator pass (both receivers) at each of the grid + 1 binary P_X
    assert calls["_both_receivers"] == grid + 1


@pytest.mark.parametrize("mode", ["ps_inner", "single_inner"])
def test_sweep_hands_pareto_only_px_survivors(mode, monkeypatch):
    # every sample at one P_X shares its distortions, so a rate row that
    # another row of the same P_X dominates never becomes a point
    handed = []

    def recording(points):
        handed.append(points)
        return pareto_filter(points)

    monkeypatch.setattr(regions, "pareto_filter", recording)
    sweep_region(binary_spec(), SearchConfig(
        mode=mode, grid_step=4, n_samples=6, seed=4))
    [points] = handed
    groups = {}
    for p in points:
        groups.setdefault(p.design_tag.split(";")[0], []).append(p)
    assert len(groups) == 5
    for group in groups.values():
        assert [id(p) for p in quadratic_pareto(group)] == [id(p) for p in group]


def test_sweep_nan_rate_raises_domain_error(monkeypatch):
    # at P_X = (0.5, 0.5), a NaN r1 bound and a zero secrecy cap give rows
    # (nan, 0.0), which the other samples' rows would dominate if NaN were
    # compared; they are kept, so RegionPoint still refuses them
    def with_nan(mode, batch):
        terms = original(mode, batch)
        if next(calls) == 2:
            terms[1] = (float("nan"), 0.0, terms[1][2])
        return terms

    original, calls = regions._terms, itertools.count()
    monkeypatch.setattr(regions, "_terms", with_nan)
    with pytest.raises(DomainError):
        sweep_region(binary_spec(), SearchConfig(
            mode="ps_inner", grid_step=4, n_samples=4, seed=3))


@pytest.mark.parametrize("mode, evaluator, column", [
    ("single_inner", inner_bound_single, 1),
    ("ps_outer", outer_bound_ps, 2),
], ids=["single_inner-cap", "ps_outer-budget"])
def test_sweep_nan_term_raises_domain_error(monkeypatch, mode, evaluator, column):
    # max/min drop a NaN: a NaN secrecy cap used to give r = 0 and a NaN
    # budget the cap, with no error
    def with_nan(m, batch):
        terms = original(m, batch)
        terms[0] = tuple(float("nan") if i == column else t
                         for i, t in enumerate(terms[0]))
        return terms

    original = regions._terms
    monkeypatch.setattr(regions, "_terms", with_nan)
    with pytest.raises(DomainError):
        sweep_region(binary_spec(), SearchConfig(
            mode=mode, grid_step=4, n_samples=2, seed=0))
    with pytest.raises(DomainError):
        evaluator(binary_spec(), InputDesign(p_x=np.array([0.5, 0.5])))


@pytest.mark.parametrize("k, step", [(1, 2), (2, 7), (3, 4), (4, 3), (5, 2)])
def test_simplex_grid_is_lazy_and_complete(k, step):
    grid = regions._simplex_grid(k, step)
    assert isinstance(grid, types.GeneratorType)
    got = [tuple(p) for p in grid]
    # every composition in lexicographic order, divided as the tags print it
    brute = [tuple(np.array(c, dtype=float) / step)
             for c in itertools.product(range(step + 1), repeat=k) if sum(c) == step]
    assert got == brute
    assert len(got) == math.comb(step + k - 1, k - 1)


# The rate terms of each mode on one design through the scalar reference API.
def _inner_ps_reference(joint, v):
    r2_cap = pos_part(
        mutual_information(joint, v, "Y1", ("S1", "U"))
        - mutual_information(joint, v, "Y2", ("S2", "U"))
    ) + entropy(joint, "Y1", ("Y2", "S2", v))
    return (mutual_information(joint, "U", "Y1", "S1"), r2_cap,
            mutual_information(joint, v, "Y1", "S1"))


def _inner_single_reference(joint, v):
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    rpp = pos_part(i_v_y1 - mutual_information(joint, v, "Y2", "S2")) \
        + entropy(joint, "Y1", ("Y2", "S2", v))
    return i_v_y1, rpp, i_v_y1


def _outer_reference(joint, v):
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    cap = entropy(joint, ("Y1", "S1"), ("Y2", "S2")) \
        - entropy(joint, "S1", ("Y1", "Y2", "S2", v))
    return i_v_y1, cap, i_v_y1


def _reverse_reference(joint, v):
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    return i_v_y1, entropy(joint, "Y1", ("Y2", "S2")), i_v_y1


REFERENCE_TERMS = {
    "ps_inner": _inner_ps_reference,
    "ps_outer": _outer_reference,
    "ps_exact_deg": _outer_reference,
    "ps_exact_rev": _reverse_reference,
    "single_inner": _inner_single_reference,
    "single_outer": _outer_reference,
    "single_exact_deg": _outer_reference,
    "single_exact_rev": _reverse_reference,
}


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("channel", ["random-3ary", "binary", "swapped"])
@pytest.mark.parametrize("mode", MODES)
def test_batched_terms_equal_per_design_reference(mode, channel, chunked,
                                                  monkeypatch):
    # the sweep's stacked kernel must reproduce the build_joint path bit for
    # bit, or frontier membership can flip on rounding-level ties; the
    # binary channels have zero-mass cells, so their entropies take the
    # per-row path
    rng = np.random.default_rng(60 + MODES.index(mode))
    spec = {"random-3ary": random_channel_spec(rng, nx=3, ny1=3, ny2=3),
            "binary": binary_spec(),
            "swapped": swap_receivers(binary_spec())}[channel]
    row = regions._MODE_TABLE[mode]
    caps = cardinality_caps(spec)
    n = 5 if row.aux else 1
    nv = getattr(caps, row.v_cap) if row.aux else spec.nx
    nu = caps.u if row.aux == "UV" else 1
    p_v = rng.dirichlet(np.ones(nv), size=(n, spec.nx)) if row.aux \
        else np.eye(spec.nx)[None]
    # one-category Dirichlet rows are not always exactly 1.0
    p_u = rng.dirichlet(np.ones(nu), size=(n, nv)) if row.aux == "UV" \
        else np.ones((n, nv, 1))
    if chunked:
        # three designs per einsum, so five designs span two chunks
        monkeypatch.setattr(info, "BATCH_CELLS", 3 * nu * nv * spec.kernel.size)
    for p_x in (rng.dirichlet(np.ones(spec.nx)), np.eye(spec.nx)[-1],
                np.full(spec.nx, 1 / spec.nx)):
        got = [t for batch in info.joint_batches(spec, p_x, p_v, p_u)
               for t in regions._terms(row, batch)]
        expect = []
        for k in range(n):
            design = InputDesign(p_x=p_x, p_v_given_x=p_v[k] if row.aux else None,
                                 p_u_given_v=p_u[k] if row.aux == "UV" else None)
            expect.append(REFERENCE_TERMS[mode](
                build_joint(spec, design), "V" if row.aux else "X"))
        assert got == expect


@pytest.mark.parametrize("channel", ["random-3ary", "binary"])
def test_batch_sums_stay_within_scratch_budget(channel, monkeypatch):
    # the budget stated at info.BATCH_CELLS, on one batch of that size for
    # each mode's rate terms: the two stages cache runs of under 2x the
    # batch's bytes, and allocate at most that much more than the one-call
    # path does for the same terms
    rng = np.random.default_rng(80)
    spec = {"random-3ary": random_channel_spec(rng, nx=3, ny1=3, ny2=3),
            "binary": binary_spec()}[channel]
    caps = cardinality_caps(spec)

    def peak_bytes(terms, probs, two_stage_cells):
        monkeypatch.setattr(info, "TWO_STAGE_CELLS", two_stage_cells)
        batch = info.JointBatch(probs)
        tracemalloc.start()
        try:
            terms(batch, "V")
            return tracemalloc.get_traced_memory()[1], batch
        finally:
            tracemalloc.stop()

    for mode in MODES:
        row = regions._MODE_TABLE[mode]
        nv = getattr(caps, row.v_cap) if row.aux else spec.nx
        nu = caps.u if row.aux == "UV" else 1
        k = info.BATCH_CELLS // (nu * nv * spec.kernel.size)
        p_v = rng.dirichlet(np.ones(nv), size=(k, spec.nx))
        p_u = rng.dirichlet(np.ones(nu), size=(k, nv))
        [batch] = info.joint_batches(spec, rng.dirichlet(np.ones(spec.nx)),
                                     p_v, p_u)
        budget = 2 * batch.probs.nbytes
        one_call, _ = peak_bytes(row.terms, batch.probs, math.inf)
        two_stage, batch = peak_bytes(row.terms, batch.probs, 0)
        assert sum(r.nbytes for r in batch._runs.values()) < budget
        assert two_stage <= one_call + budget, (mode, two_stage, one_call)


# (r1 bound, secrecy cap, budget) of designs whose rate rows hit the edge
# cases: an r1 bound of zero (either sign) or below, tiny r1 bounds whose
# grid rows round to repeated keys, a subnormal r1 bound (linspace's step-0
# branch), a cap above the budget, a negative budget, and cap == budget.
_RATE_TERMS = [
    (0.0, 0.5, 0.5), (-0.0, 0.5, 0.5), (-0.0, -0.0, -0.0), (0.0, 0.0, -0.0),
    (-1e-17, 0.2, 0.3), (1e-16, 0.5, 0.5), (3e-14, 0.5, 0.5), (1e-13, 0.5, 0.5),
    (3e-14, 0.25, 0.25 + 2e-14), (5e-324, 0.1, 0.1), (1e-310, 0.1, 1e-310),
    (0.5, 0.9, 0.3), (0.5, 0.3, -0.2), (0.5, 0.25, 0.25), (0.7, 0.25, 0.6),
    (2.0, 1.0, 3.0),
]


def _assert_rates_equal_oracle(ps, terms):
    mode = regions._MODE_TABLE["ps_outer" if ps else "single_outer"]
    rows, design = regions._rates(mode, np.array(terms, dtype=float).reshape(-1, 3))
    expect = [(k, r) for k, t in enumerate(terms) for r in oracle_rates(ps, t)]
    got = [tuple(r) for r in rows.tolist()]
    assert design.tolist() == [k for k, _ in expect]
    assert got == [r for _, r in expect]
    # == treats -0.0 and 0.0 as equal; the printed CSV does not
    assert [math.copysign(1.0, v) for r in got for v in r] \
        == [math.copysign(1.0, v) for _, r in expect for v in r]


@pytest.mark.parametrize("ps", [True, False], ids=["ps", "single"])
def test_rate_rows_equal_loop_oracle(ps):
    # stacked, and one design at a time as _evaluate calls it
    _assert_rates_equal_oracle(ps, _RATE_TERMS)
    for terms in _RATE_TERMS:
        _assert_rates_equal_oracle(ps, [terms])


_rate_term = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-16, 3e-14, 1e-13, 5e-324, 0.25, 0.5]),
    st.floats(-1.0, 4.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_rate_term, _rate_term, _rate_term), min_size=1,
                max_size=6), st.booleans())
def test_rate_rows_property(terms, ps):
    _assert_rates_equal_oracle(ps, terms)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rate_rows_reject_nonfinite_terms(bad):
    terms = np.array([(0.5, 0.25, 0.5), (0.5, bad, 0.5)])
    for name in ("ps_outer", "single_outer"):
        with pytest.raises(DomainError, match="rate terms must be finite"):
            regions._rates(regions._MODE_TABLE[name], terms)


def test_sweep_distortions_decouple_from_rates():
    spec = binary_spec()
    pts = sweep_region(spec, SearchConfig(
        mode="single_inner", grid_step=4, n_samples=2, seed=9))
    for p in pts:
        px_part = p.design_tag.split(";")[0].removeprefix("px=")
        p_x = np.array([float(t) for t in px_part.split("|")])
        for j, d in ((1, p.d1), (2, p.d2)):
            est = synthesize_estimator(spec, p_x, j)
            assert d == expected_distortion(spec, p_x, est, j)


def test_sweep_convexify_adds_mixture_points():
    spec = binary_spec()
    base = sweep_region(spec, SearchConfig(mode="single_exact_deg", grid_step=4))
    mixed = sweep_region(spec, SearchConfig(
        mode="single_exact_deg", grid_step=4, convexify=True))
    assert len(mixed) >= len(base)
    assert any(p.design_tag.startswith("ts(") for p in mixed)


@pytest.mark.parametrize("mode", ["ps_outer", "single_exact_deg"])
def test_sweep_convexify_mixes_every_coordinate(mode):
    # each ts(a~b@lam) point is lam * a + (1 - lam) * b in every rate and
    # distortion, for neighbours a, b of the sorted frontier without mixtures
    spec = binary_spec()
    cfg = dict(mode=mode, grid_step=8, n_samples=2, seed=3) if mode.startswith("ps") \
        else dict(mode=mode, grid_step=8)
    base = sweep_region(spec, SearchConfig(**cfg))
    expect = {(f"ts({a.design_tag}~{b.design_tag}@{k / 8:.12g})", tuple(
        k / 8 * u + (1 - k / 8) * v
        for u, v in zip(a.rates + a.distortions, b.rates + b.distortions)))
        for a, b in zip(base, base[1:]) for k in range(1, 8)}
    mixed = [p for p in sweep_region(spec, SearchConfig(**cfg, convexify=True))
             if p.design_tag.startswith("ts(")]
    assert mixed
    for p in mixed:
        assert p.arity == base[0].arity
        assert (p.design_tag, p.rates + p.distortions) in expect


def test_sweep_rates_nonnegative_finite():
    spec = binary_spec()
    for mode in ("ps_inner", "ps_outer", "single_inner", "single_outer"):
        pts = sweep_region(spec, SearchConfig(
            mode=mode, grid_step=4, n_samples=2, seed=2))
        for p in pts:
            for v in p.rates + p.distortions:
                assert np.isfinite(v) and v >= 0.0


@pytest.mark.parametrize("coords", [
    dict(r=-1.0, d1=0.0, d2=0.0), dict(r1=0.0, r2=math.inf, d1=0.0, d2=0.0),
    dict(r=0.0, d1=math.nan, d2=0.0)], ids=["negative", "infinite", "nan"])
def test_region_point_rejects_bad_coordinates(coords):
    with pytest.raises(DomainError, match="finite and >= 0"):
        RegionPoint(**coords)


def test_search_config_rejects_unknown_mode():
    with pytest.raises(DomainError, match="unknown mode 'ps_bogus'"):
        SearchConfig(mode="ps_bogus", grid_step=4)


def test_pareto_filter_of_nothing_is_empty():
    assert pareto_filter([]) == []
    assert pareto_filter(iter(())) == []


def test_pareto_filter_examples():
    a = RegionPoint(r=1.0, d1=1.0, d2=1.0, design_tag="a")
    b = RegionPoint(r=2.0, d1=2.0, d2=2.0, design_tag="b")
    assert pareto_filter([a, b]) == [a, b]

    c = RegionPoint(r=1.0, d1=2.0, d2=2.0, design_tag="c")
    assert pareto_filter([c, b]) == [b]

    assert pareto_filter([a]) == [a]


def test_pareto_filter_mixed_arity():
    a = RegionPoint(r=1.0, d1=0.0, d2=0.0, design_tag="a")
    b = RegionPoint(r1=1.0, r2=1.0, d1=0.0, d2=0.0, design_tag="b")
    with pytest.raises(MixedArity):
        pareto_filter([a, b])


def test_pareto_filter_keeps_incomparable_chain():
    pts = [RegionPoint(r=k / 10, d1=k / 10, d2=0.0, design_tag=str(k))
           for k in range(10)]
    assert pareto_filter(pts) == pts


def test_outer_ps_cardinality_cap():
    spec = binary_spec()
    caps = cardinality_caps(spec)
    rng = np.random.default_rng(40)
    design = random_design(rng, spec, nv=caps.v_outer + 1)
    with pytest.raises(CardinalityExceeded):
        outer_bound_ps(spec, design)


@pytest.mark.parametrize("override", ["none", "nu", "nv", "nu-over", "nv-over"])
@pytest.mark.parametrize("mode", MODES)
def test_sweep_admits_what_the_evaluator_admits(mode, override):
    # a mode samples U only in ps_inner and V only where it has a V cap; an
    # override of anything else is refused, and a size above its cap fails
    # in the sweep with the evaluator's message
    spec = mode_spec(mode)
    caps = cardinality_caps(spec)
    v_cap = getattr(caps, V_CAPS[mode]) if mode in V_CAPS else spec.nx
    name = override[:2]
    value = {"none": None, "nu": 2, "nv": 2,
             "nu-over": caps.u + 1, "nv-over": v_cap + 1}[override]

    def sweep():
        kwargs = {} if value is None else {name: value}
        return sweep_region(spec, SearchConfig(
            mode=mode, grid_step=2, n_samples=1, **kwargs))

    sampled = mode == "ps_inner" if name == "nu" else mode in V_CAPS
    if value is not None and not sampled:
        with pytest.raises(DomainError, match="cannot be set"):
            sweep()
    elif override.endswith("-over"):
        nu = value if name == "nu" else None
        nv = value if name == "nv" else v_cap
        design = random_design(np.random.default_rng(7), spec, nv=nv, nu=nu)
        with pytest.raises(CardinalityExceeded) as swept:
            sweep()
        with pytest.raises(CardinalityExceeded) as evaluated:
            WRAPPERS[mode](spec, design)
        assert str(swept.value) == str(evaluated.value)
    else:
        assert sweep()


def test_sweep_cardinality_override_only_downward():
    spec = binary_spec()
    with pytest.raises(CardinalityExceeded):
        sweep_region(spec, SearchConfig(
            mode="ps_outer", grid_step=4, n_samples=1, nv=99))
    pts = sweep_region(spec, SearchConfig(
        mode="ps_outer", grid_step=4, n_samples=1, nv=2))
    assert pts


def test_sweep_reverse_modes_on_swapped_binary():
    spec = swap_receivers(binary_spec())
    for mode in ("ps_exact_rev", "single_exact_rev"):
        pts = sweep_region(spec, SearchConfig(
            mode=mode, grid_step=4, n_samples=2, seed=3))
        assert pts
        assert all(v >= 0.0 for p in pts for v in p.rates)
    with pytest.raises(NotDegraded):
        sweep_region(binary_spec(), SearchConfig(
            mode="single_exact_rev", grid_step=4))


def test_pareto_filter_matches_quadratic_reference():
    rng = np.random.default_rng(41)
    pts = [RegionPoint(r=float(r), d1=float(d1), d2=float(d2), design_tag=str(i))
           for i, (r, d1, d2) in enumerate(rng.random((300, 3)))]

    def dominates(a, b):
        weak = a.r >= b.r and a.d1 <= b.d1 and a.d2 <= b.d2
        strict = a.r > b.r + 1e-12 or a.d1 < b.d1 - 1e-12 or a.d2 < b.d2 - 1e-12
        return weak and strict

    ref = [p for p in pts if not any(dominates(q, p) for q in pts if q is not p)]
    assert pareto_filter(pts) == ref


def test_region_point_arity_validation():
    with pytest.raises(MixedArity):
        RegionPoint(r1=0.1, r2=0.2, r=0.3, d1=0.0, d2=0.0)
    with pytest.raises(MixedArity):
        RegionPoint(d1=0.0, d2=0.0)
    with pytest.raises(MixedArity):
        RegionPoint(r1=0.1, d1=0.0, d2=0.0)


# ---------------------------------------------------------------------------
# Pareto filter properties


def quadratic_pareto(points):
    # every pair compared directly, for either arity
    def dominates(a, b):
        weak = all(x >= y for x, y in zip(a.rates, b.rates)) \
            and a.d1 <= b.d1 and a.d2 <= b.d2
        strict = any(x > y + DOMINANCE_EPS for x, y in zip(a.rates, b.rates)) \
            or a.d1 < b.d1 - DOMINANCE_EPS or a.d2 < b.d2 - DOMINANCE_EPS
        return weak and strict

    return [p for p in points if not any(dominates(q, p) for q in points)]


# Coordinates from a small pool, nudged by 0, half, one or two margins, so
# draws share distortion pairs, repeat points exactly and tie within 1e-12.
_coordinate = st.builds(
    lambda base, nudge: base + nudge * DOMINANCE_EPS,
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 2.0]))


@st.composite
def _point_sets(draw):
    ps = draw(st.booleans())
    groups = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(groups), _coordinate, _coordinate), min_size=1, max_size=40))
    points = []
    for i, ((d1, d2), r1, r2) in enumerate(rows):
        rates = {"r1": r1, "r2": r2} if ps else {"r": r1}
        points.append(RegionPoint(**rates, d1=d1, d2=d2, design_tag=str(i)))
    # exact duplicates (same coordinates and tag) too
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    return points


# Rates exactly one margin apart tie, so all four points are kept.
_MARGIN_TIES = [
    RegionPoint(r1=r1, r2=r2, d1=0.5, d2=0.5, design_tag=str(i))
    for i, (r1, r2) in enumerate([(0.25 + DOMINANCE_EPS, 0.5), (0.25, 0.5),
                                  (0.5, 0.25 + DOMINANCE_EPS), (0.5, 0.25)])]


# The second point dominates the first by 2e-12 in r2, yet both coordinate
# sums round to the same float, so ordering by the sum alone is not enough.
_SUM_TIE = [RegionPoint(r1=1e5, r2=r2, d1=0.1, d2=0.1, design_tag=str(i))
            for i, r2 in enumerate([0.5, 0.5 + 2e-12])]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_point_sets(), st.randoms(use_true_random=False))
@example(_MARGIN_TIES, Random(0))
@example(_SUM_TIE, Random(0))
@example(_SUM_TIE[::-1], Random(0))
def test_pareto_filter_properties(points, random):
    kept = pareto_filter(points)
    assert [id(p) for p in kept] == [id(p) for p in quadratic_pareto(points)]
    # the sweep's per-P_X staircase on each group of equal distortions
    groups = {}
    for p in points:
        groups.setdefault(p.distortions, []).append(p)
    for group in groups.values():
        dropped = regions._dominated(np.array([p.rates for p in group]))
        assert [id(p) for p, drop in zip(group, dropped) if not drop] \
            == [id(p) for p in quadratic_pareto(group)]
    assert pareto_filter(kept) == kept
    shuffled = random.sample(points, len(points))
    assert sorted(map(id, pareto_filter(shuffled))) == sorted(map(id, kept))
    # blocks of at most 3 points, shrinking to 1 as the frontier grows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "PARETO_BLOCK", 3)
        mp.setattr(regions, "PARETO_CELLS", 30)
        assert [id(p) for p in pareto_filter(points)] == [id(p) for p in kept]


@pytest.mark.parametrize("n", [PARETO_BLOCK - 1, PARETO_BLOCK, PARETO_BLOCK + 1,
                               3 * PARETO_BLOCK + 5])
@pytest.mark.parametrize("ps", [True, False], ids=["ps", "single"])
def test_pareto_filter_across_blocks(n, ps):
    # each distortion equals its rate on a 9-value pool, so most points are
    # incomparable and the frontier spans every block; each coordinate is
    # nudged by 0-2 margins, as in _point_sets, so ties within 1e-12 fall
    # inside and across blocks; the last 8 points repeat earlier ones
    rng = np.random.default_rng(n)
    base = rng.choice(np.linspace(0.0, 1.0, 9), (n - 8, 2))
    coords = np.hstack([base, base]) \
        + rng.choice([0.0, 0.5, 1.0, 2.0], (n - 8, 4)) * DOMINANCE_EPS
    points = []
    for i, (a, b, d1, d2) in enumerate(coords.tolist()):
        rates = {"r1": a, "r2": b} if ps else {"r": a + b}
        points.append(RegionPoint(**rates, d1=d1, d2=d2, design_tag=str(i)))
    points += [points[i] for i in rng.integers(0, n - 8, 8)]
    kept = pareto_filter(points)
    assert PARETO_BLOCK // 2 < len(kept) < n
    assert [id(p) for p in kept] == [id(p) for p in quadratic_pareto(points)]
