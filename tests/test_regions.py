import numpy as np
import pytest

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
    swap_receivers,
    sweep_region,
    synthesize_estimator,
)
from jcas_regions import regions
from jcas_regions.regions import MODES
from conftest import (
    oracle_entropy,
    oracle_joint,
    oracle_mi,
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
    ("nv", 0), ("nu", 0), ("nv", -2), ("seed", -1), ("n_samples", 0)])
def test_search_config_rejects_out_of_range_values(field, value):
    with pytest.raises(DomainError):
        SearchConfig(mode="ps_inner", grid_step=4, **{field: value})


def test_sweep_rejects_tiny_grid():
    with pytest.raises(EmptyGrid):
        sweep_region(binary_spec(),
                     SearchConfig(mode="single_exact_deg", grid_step=1))


def test_sweep_is_deterministic():
    cfg = SearchConfig(mode="ps_inner", grid_step=4, n_samples=3, seed=17)
    a = sweep_region(binary_spec(), cfg)
    b = sweep_region(binary_spec(), cfg)
    assert a == b


def test_sweep_threads_do_not_change_results():
    cfg = SearchConfig(mode="ps_inner", grid_step=4, n_samples=3, seed=17)
    a = sweep_region(binary_spec(), cfg, threads=1)
    b = sweep_region(binary_spec(), cfg, threads=8)
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
    calls = {"classify_degradedness": 0, "synthesize_estimator": 0}
    for name in calls:
        def counted(*args, _fn=getattr(regions, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(regions, name, counted)
    grid = 4
    sweep_region(mode_spec(mode), SearchConfig(
        mode=mode, grid_step=grid, n_samples=3, seed=1))
    assert calls["classify_degradedness"] == (1 if "_exact_" in mode else 0)
    # two estimators (one per receiver) at each of the grid + 1 binary P_X
    assert calls["synthesize_estimator"] == 2 * (grid + 1)


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


def test_sweep_rates_nonnegative_finite():
    spec = binary_spec()
    for mode in ("ps_inner", "ps_outer", "single_inner", "single_outer"):
        pts = sweep_region(spec, SearchConfig(
            mode=mode, grid_step=4, n_samples=2, seed=2))
        for p in pts:
            for v in p.rates + p.distortions:
                assert np.isfinite(v) and v >= 0.0


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
