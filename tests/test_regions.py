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
    parse_channel_spec,
    pos_part,
    serialize_channel_spec,
    swap_receivers,
    sweep_region,
    synthesize_estimator,
)
from jcas_regions import info, regions
from jcas_regions.estimators import _both_receivers
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
    ("nu", 1.5), ("nv", float("nan")), ("nv", 2.0), ("convexify", True)])
def test_search_config_rejects_out_of_range_values(field, value):
    # nu, nv and convexify are no longer fields, so any value of them is
    # refused
    error = TypeError if field in ("nu", "nv", "convexify") else DomainError
    with pytest.raises(error):
        SearchConfig(mode="ps_inner", grid_step=4, **{field: value})


def test_sweep_rejects_tiny_grid():
    with pytest.raises(EmptyGrid):
        sweep_region(binary_spec(),
                     SearchConfig(mode="single_exact_deg", grid_step=1))


def test_sweep_takes_tol_by_keyword_only():
    # a positional argument that once was a thread count must not be taken,
    # and the degradedness tolerance is DEGRADEDNESS_TOL: the sweep and the
    # exact evaluators no longer take tol=, even as a keyword
    spec = swap_receivers(binary_spec())
    cfg = SearchConfig(mode="single_exact_deg", grid_step=4)
    with pytest.raises(TypeError):
        sweep_region(spec, cfg, 2)
    with pytest.raises(TypeError, match="tol"):
        sweep_region(spec, cfg, tol=1.0)
    for mode in ("ps_exact_deg", "ps_exact_rev", "single_exact_deg",
                 "single_exact_rev"):
        with pytest.raises(TypeError, match="tol"):
            WRAPPERS[mode](mode_spec(mode), direct_input(mode), tol=1.0)


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


@pytest.mark.parametrize("mode, spec, grid, n_samples", [
    *((mode, mode_spec(mode), 4, 3) for mode in MODES),
    # 21,600-cell batches: the two-stage sums' trailing runs of 3, 9 and 18
    # cells (Y2, Y1 Y2 and S2 Y1 Y2) meet the per-design reference
    ("ps_inner", random_channel_spec(np.random.default_rng(12), nx=3, ny1=3, ny2=3),
     2, 2),
], ids=[*MODES, "ps_inner-3ary"])
def test_sweep_equals_filtered_wrapper_outputs(mode, spec, grid, n_samples):
    # rebuild the sweep's designs and tags by hand and evaluate them through
    # the public wrappers
    seed = 21
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
    for counts in itertools.product(range(grid + 1), repeat=spec.nx):
        if sum(counts) != grid:
            continue
        p_x = np.array(counts) / grid
        tag = "px=" + "|".join(f"{v:.12g}" for v in p_x)
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
    # every sample at one P_X shares its distortions, so the rows that reach
    # the final filter are, P_X by P_X, exactly the quadratic oracle's
    # survivors among the public evaluator's points of that P_X's samples;
    # the whole sweep in one chunk, and chunks of 5 designs that split P_X
    handed = []

    def recording(m):
        handed.append(m.copy())
        return front(m)

    front = regions._pareto_front
    monkeypatch.setattr(regions, "_pareto_front", recording)
    spec, seed, n = binary_spec(), 4, 6
    cfg = SearchConfig(mode=mode, grid_step=4, n_samples=n, seed=seed)
    caps = cardinality_caps(spec)
    nv, nu = getattr(caps, V_CAPS[mode]), caps.u if mode == "ps_inner" else 1
    sweep_region(spec, cfg)
    monkeypatch.setattr(info, "BATCH_CELLS", 5 * nu * nv * spec.kernel.size)
    sweep_region(spec, cfg)
    rng = np.random.default_rng(seed)
    draws = [(rng.dirichlet(np.ones(nv), size=2),
              rng.dirichlet(np.ones(caps.u), size=nv) if mode == "ps_inner" else None)
             for _ in range(n)]
    expect = []
    for i in range(5):
        p_x = np.array([i, 4 - i]) / 4
        points = [p for p_v, p_u in draws
                  for p in WRAPPERS[mode](spec, InputDesign(p_x, p_v, p_u))]
        expect += [p.rates + (-p.d1, -p.d2) for p in quadratic_pareto(points)]
    assert len(handed) == 2
    for m in handed:
        assert [tuple(r) for r in m.tolist()] == expect


def test_sweep_nan_rate_raises_domain_error(monkeypatch):
    # a NaN r1 bound and a zero secrecy cap at P_X = (0.5, 0.5), sample 1:
    # the third P_X of the grid, so stream row 2 * 4 + 1 in whichever chunk
    # holds it (chunks of the default size, and of 1 and 3 designs of 1,536
    # cells); the rows (nan, 0.0) would be dominated if NaN were compared
    def with_nan(mode, batch):
        terms = original(mode, batch)
        at = target - seen[0]
        if 0 <= at < len(terms):
            terms[at] = (float("nan"), 0.0, terms[at][2])
        seen[0] += len(terms)
        return terms

    original, target = regions._terms, 2 * 4 + 1
    monkeypatch.setattr(regions, "_terms", with_nan)
    for cells in (info.BATCH_CELLS, 1536, 3 * 1536):
        monkeypatch.setattr(info, "BATCH_CELLS", cells)
        seen = [0]
        with pytest.raises(DomainError, match="rate terms must be finite"):
            sweep_region(binary_spec(), SearchConfig(
                mode="ps_inner", grid_step=4, n_samples=4, seed=3))
        assert seen[0] > target


@pytest.mark.parametrize("mode", ["ps_inner", "ps_outer", "single_outer"])
@pytest.mark.parametrize("channel", ["binary", "random-3ary"])
def test_sweep_points_do_not_depend_on_chunk_size(mode, channel, monkeypatch):
    # chunks of one design, of 5 designs (which split the 6 samples of a
    # P_X), and of the whole sweep give the default's points
    spec = binary_spec() if channel == "binary" else random_channel_spec(
        np.random.default_rng(31), nx=3, ny1=3, ny2=3)
    cfg = SearchConfig(mode=mode, grid_step=4, n_samples=6, seed=2)
    default = sweep_region(spec, cfg)
    row, caps = regions._MODE_TABLE[mode], cardinality_caps(spec)
    nv = getattr(caps, row.v_cap) if row.aux else spec.nx
    nu = caps.u if row.aux == "UV" else 1
    designs = math.comb(4 + spec.nx - 1, spec.nx - 1) * (6 if row.aux else 1)
    for per_chunk in (1, 5, designs):
        monkeypatch.setattr(info, "BATCH_CELLS", per_chunk * nu * nv * spec.kernel.size)
        assert sweep_region(spec, cfg) == default, per_chunk


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
@pytest.mark.parametrize("column", [0, 1], ids=["d1", "d2"])
def test_sweep_refuses_bad_distortions_before_the_filter(monkeypatch, bad, column):
    # RegionPoint checks only the frontier now; the rows reaching the final
    # filter are checked as one array
    def with_bad(spec, p_x):
        tables, d12 = original(spec, p_x)
        return tables, tuple(bad if i == column else d for i, d in enumerate(d12))

    def no_point(*args):
        raise AssertionError("a point was built")

    original = regions._both_receivers
    monkeypatch.setattr(regions, "_both_receivers", with_bad)
    monkeypatch.setattr(regions, "_point", no_point)
    with pytest.raises(DomainError, match="finite and >= 0"):
        sweep_region(binary_spec(), SearchConfig(mode="ps_outer", grid_step=2))


@pytest.mark.parametrize("row", [[math.nan, -0.1, -0.1], [math.inf, -0.1, -0.1],
                                 [-1e-300, -0.1, -0.1], [0.5, 0.1, -0.1],
                                 [0.5, -0.1, -math.inf]])
def test_pareto_front_refuses_bad_coordinates(row):
    m = np.array([[0.25, -0.2, -0.2], row])
    with pytest.raises(DomainError, match="finite and >= 0"):
        regions._pareto_front(m)
    assert regions._pareto_front(np.array([[0.0, -0.0, 0.0], [0.25, -0.2, -0.2]])) \
        == [0, 1]


def test_sweep_refuses_designs_past_the_budget(monkeypatch):
    # grid points times samples, counted before any work; exactly the budget
    # passes and one more design is refused
    spec = binary_spec()
    cfg = SearchConfig(mode="ps_inner", grid_step=4, n_samples=3)  # 5 x 3
    monkeypatch.setattr(regions, "MAX_SWEEP_DESIGNS", 15)
    assert sweep_region(spec, cfg)
    monkeypatch.setattr(regions, "MAX_SWEEP_DESIGNS", 14)
    with pytest.raises(DomainError, match=r"15 designs \(5 P_X x 3 each\), more than the budget of 14"):
        sweep_region(spec, cfg)
    # the V = X modes draw nothing, so --samples does not count
    monkeypatch.setattr(regions, "MAX_SWEEP_DESIGNS", 5)
    assert sweep_region(spec, SearchConfig(mode="single_exact_deg", grid_step=4,
                                           n_samples=3))

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(regions, "classify_degradedness", no_work)
    monkeypatch.setattr(regions, "joint_batches", no_work)
    with pytest.raises(DomainError, match=r"6 designs \(6 P_X x 1 each\), more than the budget of 5"):
        sweep_region(spec, SearchConfig(mode="single_exact_deg", grid_step=5))
    monkeypatch.setattr(regions, "MAX_SWEEP_DESIGNS", 10 ** 6)
    with pytest.raises(DomainError, match="more than the budget of 1000000"):
        sweep_region(spec, SearchConfig(mode="ps_inner", grid_step=10 ** 8))


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
        # three designs per batch, so chunks cross P_X boundaries
        monkeypatch.setattr(info, "BATCH_CELLS", 3 * nu * nv * spec.kernel.size)
    p_xs = np.array([rng.dirichlet(np.ones(spec.nx)), np.eye(spec.nx)[-1],
                     np.full(spec.nx, 1 / spec.nx)])
    got = np.concatenate([regions._terms(row, batch) for batch
                          in info.joint_batches(spec, p_xs, p_v, p_u)])
    expect = []
    for p_x in p_xs:
        for k in range(n):
            design = InputDesign(p_x=p_x, p_v_given_x=p_v[k] if row.aux else None,
                                 p_u_given_v=p_u[k] if row.aux == "UV" else None)
            expect.append(REFERENCE_TERMS[mode](
                build_joint(spec, design), "V" if row.aux else "X"))
    assert got.tolist() == [list(t) for t in expect]


class _OneCallBatch(info.JointBatch):
    # numpy's own sum over the whole batch: not a design's order of
    # additions, but the allocations of the one-call path
    def _rows(self, drop):
        return np.add.reduce(self.probs, axis=drop).reshape(len(self.probs), -1)


@pytest.mark.parametrize("channel", ["random-3ary", "binary"])
def test_batch_sums_stay_within_scratch_budget(channel):
    # the budget stated at info.BATCH_CELLS, on one batch of that size for
    # each mode's rate terms: the two stages cache runs of under the batch's
    # bytes (a marginal with no run reads the batch itself), and with stage
    # 1's accumulators allocate at most 7/4 of it more than one np.sum per
    # marginal does for the same terms
    rng = np.random.default_rng(80)
    spec = {"random-3ary": random_channel_spec(rng, nx=3, ny1=3, ny2=3),
            "binary": binary_spec()}[channel]
    caps = cardinality_caps(spec)

    def peak_bytes(terms, batch):
        tracemalloc.start()
        try:
            terms(batch, "V")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for mode in MODES:
        row = regions._MODE_TABLE[mode]
        nv = getattr(caps, row.v_cap) if row.aux else spec.nx
        nu = caps.u if row.aux == "UV" else 1
        k = info.BATCH_CELLS // (nu * nv * spec.kernel.size)
        p_v = rng.dirichlet(np.ones(nv), size=(k, spec.nx))
        p_u = rng.dirichlet(np.ones(nu), size=(k, nv))
        [batch] = info.joint_batches(spec, rng.dirichlet(np.ones(spec.nx))[None],
                                     p_v, p_u)
        nbytes = batch.probs.nbytes
        one_call = peak_bytes(row.terms, _OneCallBatch(batch.probs))
        two_stage = peak_bytes(row.terms, batch)
        assert sum(r.nbytes for r in batch._runs.values()
                   if not np.shares_memory(r, batch.probs)) < nbytes
        assert two_stage <= one_call + 7 * nbytes // 4, (mode, two_stage, one_call)


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
    # the sweep draws |U| and |V| at the mode's caps and no caller sets
    # them: the old SearchConfig overrides are unknown keywords.  The
    # evaluator admits a design of the sizes the sweep draws, and refuses
    # one above a cap with CardinalityExceeded
    spec = mode_spec(mode)
    if override == "none":
        assert sweep_region(spec, SearchConfig(mode=mode, grid_step=2, n_samples=1))
        return
    name = override[:2]
    with pytest.raises(TypeError, match=name):
        SearchConfig(mode=mode, grid_step=2, n_samples=1, **{name: 2})
    if not (mode == "ps_inner" if name == "nu" else mode in V_CAPS):
        return  # the mode does not sample that auxiliary
    caps = cardinality_caps(spec)
    sizes = {"nu": caps.u if mode == "ps_inner" else None,
             "nv": getattr(caps, V_CAPS[mode])}
    if not override.endswith("-over"):
        assert WRAPPERS[mode](spec, random_design(
            np.random.default_rng(7), spec, **sizes))
        return
    cap = sizes[name]
    sizes[name] += 1
    design = random_design(np.random.default_rng(7), spec, **sizes)
    with pytest.raises(CardinalityExceeded, match=rf"\| = {cap + 1} exceeds the cap {cap}$"):
        WRAPPERS[mode](spec, design)


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


# np.sum adds in memory order, so these check that a channel's results
# depend on the values of its arrays only: a Fortran-order copy, a file
# round trip and the transposed views of swap_receivers must give the same
# bits.


def _layout_copies():
    """(same channel, same channel) pairs whose arrays differ in layout only."""
    spec = random_channel_spec(np.random.default_rng(7), 3, 2, 2, 3, 3)
    fortran = make_channel_spec(*map(np.asfortranarray, (
        spec.state_dist, spec.kernel, spec.d1, spec.d2)))
    swapped = swap_receivers(binary_spec())
    return [(spec, fortran), (spec, _round_trip(spec)),
            (swapped, _round_trip(swapped))]


def _round_trip(spec):
    return parse_channel_spec(serialize_channel_spec(spec))


def test_sweep_depends_on_values_not_layout():
    (spec, fortran), (_, parsed), (swapped, swapped_parsed) = _layout_copies()
    cfg = SearchConfig(mode="ps_inner", grid_step=6, n_samples=4)
    points = sweep_region(spec, cfg)
    assert sweep_region(fortran, cfg) == points
    assert sweep_region(parsed, cfg) == points
    for mode in ("ps_exact_rev", "single_inner"):
        cfg = SearchConfig(mode=mode, grid_step=6, n_samples=4)
        assert sweep_region(swapped, cfg) == sweep_region(swapped_parsed, cfg), mode


def test_distortions_depend_on_values_not_layout():
    for a, b in _layout_copies():
        for px in regions._simplex_grid(a.nx, 8):
            assert _both_receivers(a, px)[1] == _both_receivers(b, px)[1], px


def _memory_order(probs):
    # axes longer than 1, outermost in memory first
    axes = [a for a, n in enumerate(probs.shape) if n > 1]
    return [info.VAR_NAMES[a] for a in sorted(axes, key=lambda a: -probs.strides[a])]


def test_joint_has_one_memory_order():
    # X, V, U, S1, S2, Y1, Y2 from outermost in memory, whatever the layout
    # of the spec and the design, at |V| = 1 and |U| = 1 too
    (spec, fortran), _, _ = _layout_copies()
    rng = np.random.default_rng(8)
    for nv, nu in ((4, 3), (1, 3), (3, 1)):
        p_x = rng.dirichlet(np.ones(3))
        p_v, p_u = rng.dirichlet(np.ones(nv), size=3), rng.dirichlet(np.ones(nu), size=nv)
        c_order = InputDesign(p_x, p_v, p_u)
        f_order = InputDesign(p_x, np.asfortranarray(p_v), np.asfortranarray(p_u))
        joint = build_joint(spec, c_order)
        sizes = dict(zip(info.VAR_NAMES, joint.probs.shape))
        expect = [n for n in ("X", "V", "U", "S1", "S2", "Y1", "Y2") if sizes[n] > 1]
        for s, design in ((spec, c_order), (spec, f_order), (fortran, c_order)):
            other = build_joint(s, design)
            assert _memory_order(other.probs) == expect, (nv, nu)
            assert other.probs.tobytes() == joint.probs.tobytes(), (nv, nu)
        assert inner_bound_ps(spec, f_order) == inner_bound_ps(spec, c_order)


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
