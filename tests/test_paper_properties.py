"""The paper's own inequalities between its bounds, as properties of the
public evaluators.

These check the theory, not the arithmetic (the dict oracles in
``conftest.py`` do that), so they hold whatever kernel computes the rate
terms: the outer terms peak at V = X (data processing over V - X - (S, Y),
with V independent of S), each inner region lies inside the outer one at
the same P_X, on physically-degraded channels the single-message inner
bound at V = X is the exact region, and the single-message bounds are the
partial-secrecy ones without a public rate.  On degraded channels one
chain design attains the exact region at each P_X.  Every row of an inner
sweep lies in the V = X outer region of its own P_X, and joint design beats
separation on more than the binary example.  Specs are random, physically
degraded or reversely degraded, with alphabets of 2-3 symbols (so the caps
admit V = X; 1-3 in the last check), and P_X may sit on a face or a vertex
of the simplex.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcas_regions import (
    InputDesign,
    SearchConfig,
    build_joint,
    cardinality_caps,
    closed_form_sweep,
    entropy,
    exact_region_degraded_single,
    exact_region_reverse_ps,
    inner_bound_ps,
    inner_bound_single,
    make_binary_multiplicative,
    make_channel_spec,
    mutual_information,
    outer_bound_ps,
    outer_bound_single,
    separation_baseline,
    sweep_region,
)
from conftest import (
    joint_gain,
    random_channel_spec,
    random_degraded_spec,
    random_reverse_degraded_spec,
    separation_points,
)

#: Slack allowed for rounding in every inequality.
MARGIN = 1e-12

_MAKERS = {"random": random_channel_spec, "degraded": random_degraded_spec,
           "reverse": random_reverse_degraded_spec}
_SETTINGS = settings(max_examples=100, derandomize=True, database=None,
                     deadline=None)


@st.composite
def _cases(draw, kinds=tuple(_MAKERS)):
    """(kind, spec, P_X, rng): P_X has a random support, so a face or a
    vertex of the simplex as often as its interior."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx = draw(st.integers(2, 3))
    spec = _MAKERS[kind](rng, nx, *draw(st.tuples(*[st.integers(2, 3)] * 4)))
    support = draw(st.lists(st.booleans(), min_size=nx, max_size=nx)
                   .filter(any))
    p_x = rng.dirichlet(np.ones(nx)) * support
    return kind, spec, p_x / p_x.sum(), rng


def _channel(rng, rows, cols, deterministic):
    """A random channel with ``rows`` input and ``cols`` output symbols; a
    0/1 one if ``deterministic``."""
    if deterministic:
        return np.eye(cols)[rng.integers(cols, size=rows)]
    return rng.dirichlet(np.ones(cols), size=rows)


def _design(rng, spec, p_x, nv, nu=None, deterministic=False):
    p_v = _channel(rng, spec.nx, nv, deterministic)
    p_u = None if nu is None else _channel(rng, nv, nu, deterministic)
    return InputDesign(p_x=p_x, p_v_given_x=p_v, p_u_given_v=p_u)


def _assert_inside(points, outer_points):
    """Every (r1, r2) of ``points`` lies in the region of one design whose
    points are ``outer_points``: r1 <= A and r2 <= min(R, A - r1), where A
    is its largest r1 and R its r2 at r1 = 0.  That is the region
    {r1 <= A, r2 <= min(C, B - r1)} of its terms, because the outer and
    reverse bounds have B = A."""
    a = max(p.r1 for p in outer_points)
    r = max(p.r2 for p in outer_points if p.r1 == 0.0)
    for p in points:
        assert p.r1 <= a + MARGIN, (p, a)
        assert p.r2 <= min(r, a - p.r1) + MARGIN, (p, a, r)


@_SETTINGS
@given(_cases(), st.integers(1, 4), st.booleans())
def test_outer_terms_peak_at_v_equal_x(case, nv, deterministic):
    # no sampled V gives a larger outer (or, on reversely-degraded
    # channels, reverse) region than V = X
    kind, spec, p_x, rng = case
    caps = cardinality_caps(spec)
    at_x = InputDesign(p_x=p_x)
    sampled = _design(rng, spec, p_x, nv, deterministic=deterministic)
    if nv <= caps.v_outer:
        _assert_inside(outer_bound_ps(spec, sampled), outer_bound_ps(spec, at_x))
    if kind == "reverse" and nv <= caps.v_reverse:
        _assert_inside(exact_region_reverse_ps(spec, sampled),
                       exact_region_reverse_ps(spec, at_x))


@_SETTINGS
@given(_cases(), st.integers(1, 6), st.integers(1, 3), st.booleans())
def test_inner_region_inside_outer_region(case, nv, nu, deterministic):
    # each inner design's rates lie in the outer region of V = X at the
    # same P_X, in both message modes
    _, spec, p_x, rng = case
    caps = cardinality_caps(spec)
    outer = outer_bound_ps(spec, InputDesign(p_x=p_x))
    design = _design(rng, spec, p_x, min(nv, caps.v_inner), nu, deterministic)
    _assert_inside(inner_bound_ps(spec, design), outer)
    single = _design(rng, spec, p_x, min(nv, caps.v_outer),
                     deterministic=deterministic)
    [point] = inner_bound_single(spec, single)
    assert point.r <= outer_bound_single(spec, p_x).r + MARGIN


@_SETTINGS
@given(_cases(kinds=("degraded",)))
def test_inner_single_at_v_equal_x_is_exact_on_degraded_channels(case):
    _, spec, p_x, _ = case
    [inner] = inner_bound_single(spec, InputDesign(p_x=p_x))
    exact = exact_region_degraded_single(spec, p_x)
    assert abs(inner.r - exact.r) <= MARGIN
    assert inner.distortions == exact.distortions


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alphabets=st.tuples(*[st.integers(1, 3)] * 5), copy=st.booleans(),
       nv=st.integers(1, 4), v=st.sampled_from(["random", "deterministic", "x"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alphabets=(3, 2, 2, 3, 3), copy=True, nv=4, v="x", seed=0)
@example(alphabets=(2, 1, 1, 2, 3), copy=True, nv=1, v="x", seed=1)
def test_single_message_bounds_are_the_ps_bounds_without_public_rate(
        alphabets, copy, nv, v, seed):
    # a fully secret message is the partial-secrecy case with no public
    # rate: the single-message inner bound is the partial-secrecy one at a
    # constant U, whose one row has r1 = 0, bit for bit; the outer bound is
    # the partial-secrecy one at V = X and r1 = 0.  Where Y2 is a
    # near-clean copy of Y1, the feedback key falls short of the budget and
    # the inner cap takes its wiretap difference, as it does at V = X
    rng = np.random.default_rng(seed)
    spec = random_channel_spec(rng, *alphabets)
    if copy:
        ny1, ny2 = alphabets[3], max(alphabets[3:])
        to_y2 = 0.99 * np.eye(ny1, ny2) + 0.01 / ny2
        spec = make_channel_spec(spec.state_dist, spec.kernel.sum(axis=-1)[..., None] * to_y2)
    caps = cardinality_caps(spec)
    p_x = rng.dirichlet(np.ones(spec.nx)) * (rng.random(spec.nx) < 0.8)  # a face at times
    p_x = p_x / p_x.sum() if p_x.sum() > 0 else np.eye(spec.nx)[-1]
    nv = min(nv, caps.v_outer)
    if v == "x" and spec.nx <= caps.v_outer:  # V = X on the first nx of max(nv, nx) symbols
        design = InputDesign(p_x=p_x, p_v_given_x=np.eye(spec.nx, max(nv, spec.nx)))
    else:
        design = _design(rng, spec, p_x, nv, deterministic=v == "deterministic")
    [single] = inner_bound_single(spec, design)
    [ps] = inner_bound_ps(spec, design)
    assert (ps.r1, ps.r2, ps.distortions, ps.design_tag) == (
        0.0, single.r, single.distortions, single.design_tag)
    if spec.nx <= caps.v_outer:
        outer = outer_bound_single(spec, p_x)
        [at_zero] = [p for p in outer_bound_ps(spec, InputDesign(p_x=p_x)) if p.r1 == 0.0]
        assert abs(outer.r - at_zero.r2) <= MARGIN
        assert outer.distortions == at_zero.distortions


def _partitions(n):
    """Every partition of n symbols, as the block of each symbol, blocks
    numbered in order of their first symbol (restricted growth strings)."""
    rows = [()]
    for _ in range(n):
        rows = [r + (b,) for r in rows for b in range(max(r, default=-1) + 2)]
    return rows


def _chains(nx):
    """(P_{V|X}, P_{U|V}) of every chain: V a partition of X's symbols and
    U a partition of V's, each a 0/1 channel."""
    for v in _partitions(nx):
        for u in _partitions(max(v) + 1):
            yield np.eye(max(v) + 1)[list(v)], np.eye(max(u) + 1)[list(u)]


def _vertices(a, c, b):
    """The two Pareto vertices of {0 <= r1 <= a, 0 <= r2 <= c, r1 + r2 <= b}."""
    return np.array([min(a, max(b - c, 0.0)), max(min(c, b), 0.0),
                     a, max(min(c, b - a), 0.0)])


@_SETTINGS
@given(_cases(kinds=("degraded", "reverse")))
def test_one_chain_attains_the_exact_region_on_degraded_channels(case):
    # the paper's exactness claim at one P_X: the exact V = X polytope,
    # {r1 <= I(X;Y1|S1), r2 <= cap, r1 + r2 <= I(X;Y1|S1)}, is achieved by
    # the inner bound of one chain, and no chain's inner polytope leaves it.
    # Every term comes from build_joint through the reference API
    kind, spec, p_x, _ = case
    at_x = build_joint(spec, InputDesign(p_x=p_x))
    budget = mutual_information(at_x, "X", "Y1", "S1")
    if kind == "degraded":
        cap = entropy(at_x, ("Y1", "S1"), ("Y2", "S2")) \
            - entropy(at_x, "S1", ("Y1", "Y2", "S2", "X"))
    else:
        cap = entropy(at_x, "Y1", ("Y2", "S2"))
    exact = _vertices(budget, cap, budget)
    gaps = []
    for p_v, p_u in _chains(spec.nx):
        j = build_joint(spec, InputDesign(p_x=p_x, p_v_given_x=p_v, p_u_given_v=p_u))
        wiretap = mutual_information(j, "V", "Y1", ("S1", "U")) \
            - mutual_information(j, "V", "Y2", ("S2", "U"))
        vertices = _vertices(mutual_information(j, "U", "Y1", "S1"),
                             max(wiretap, 0.0) + entropy(j, "Y1", ("Y2", "S2", "V")),
                             mutual_information(j, "V", "Y1", "S1"))
        for r1, r2 in vertices.reshape(2, 2):
            assert r1 <= budget + MARGIN and r2 <= cap + MARGIN \
                and r1 + r2 <= budget + MARGIN, (kind, p_v, p_u, r1, r2)
        gaps.append(np.abs(vertices - exact).max())
    assert len(gaps) == {2: 3, 3: 12}[spec.nx]
    assert min(gaps) <= MARGIN, (kind, p_x, exact)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["random", "degraded"]), nx=st.integers(2, 3),
       alphabets=st.tuples(*[st.integers(2, 3)] * 4), seed=st.integers(0, 2 ** 32 - 1))
def test_inner_sweep_rows_lie_under_the_outer_polytope_at_their_p_x(kind, nx, alphabets,
                                                                     seed):
    # every row an inner sweep prints lies in the V = X outer polytope
    # {r1 <= A, r2 <= C, r1 + r2 <= B} of its own grid P_X (single_inner:
    # under outer_bound_single's rate), with A, C and B the outer terms
    # through build_joint, not the r1 grid's points
    rng = np.random.default_rng(seed)
    spec = _MAKERS[kind](rng, nx, *alphabets)
    grid, outer = 4, {}
    for mode in ("ps_inner", "single_inner"):
        rows = sweep_region(spec, SearchConfig(mode=mode, grid_step=grid, n_samples=3,
                                               seed=seed % 1000))
        assert rows
        for row in rows:
            ticks = [float(v) * grid for v in row.design_tag.split(";")[0][3:].split("|")]
            p_x = np.rint(ticks) / grid
            if p_x.tobytes() not in outer:
                at_x = build_joint(spec, InputDesign(p_x=p_x))
                a = mutual_information(at_x, "X", "Y1", "S1")
                c = entropy(at_x, ("Y1", "S1"), ("Y2", "S2")) \
                    - entropy(at_x, "S1", ("Y1", "Y2", "S2", "X"))
                outer[p_x.tobytes()] = a, c, a, outer_bound_single(spec, p_x).r
            a, c, b, r = outer[p_x.tobytes()]
            if mode == "ps_inner":
                assert row.r1 <= a + MARGIN and row.r2 <= c + MARGIN \
                    and row.r1 + row.r2 <= b + MARGIN, (row, a, c, b)
            else:
                assert row.r <= r + MARGIN, (row, r)


def _exact_front(spec, grid):
    return sweep_region(spec, SearchConfig(mode="single_exact_deg", grid_step=grid))


@pytest.mark.parametrize("q, alpha", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.2)])
def test_separation_points_are_the_binary_baseline(q, alpha):
    # the general baseline, built from the exact frontier, is the binary
    # example's time sharing with zero distortion at p = 1, and the gain
    # over it is the closed form's
    front = _exact_front(make_binary_multiplicative(q, alpha), 64)
    got = separation_points(front)
    want = [(b.r, b.d1, b.d2) for b in separation_baseline(q, alpha, 64)]
    assert got.shape == (65, 3) and np.abs(got - want).max() <= MARGIN
    closed = closed_form_sweep(q, alpha, 64)
    gain = max(max(c.r for c in closed if c.d1 <= b.d1 and c.d2 <= b.d2) - b.r
               for b in separation_baseline(q, alpha, 64))
    assert abs(joint_gain(front) - gain) <= MARGIN
    if (q, alpha) == (0.5, 0.5):
        assert joint_gain(front) == pytest.approx(0.161, abs=5e-4)


def test_joint_design_beats_separation_on_random_degraded_channels():
    # never worse (lambda = 1 is the frontier's max-rate point), and on
    # these 20 seeded 3-ary channels strictly better, by 0.004 to 0.19 bits
    rng = np.random.default_rng(7)
    gains = [joint_gain(_exact_front(random_degraded_spec(rng, 3), 16)) for _ in range(20)]
    assert min(gains) >= 0.0
    assert sum(g > MARGIN for g in gains) == 20
