"""Secrecy-distortion rate regions: bound formulas, design sweeps, and
Pareto-frontier extraction.

Two message configurations are supported.  In partial-secrecy mode a point
carries two rates (r1 for the public part, r2 for the secret part); in
single-message mode it carries one secret rate r.  Every mode pairs the rate
bound with the two estimation distortions obtained from the optimal
per-letter estimators, which depend on P_X alone.

The exact characterizations only hold for (reversely-)physically-degraded
channels, so those evaluators check degradedness first and refuse otherwise.
Sampled sweeps of the outer bounds are a necessary-condition envelope of the
per-design bounds, not a converse region; they are labelled as such.

A sweep evaluates its designs, every P_X grid point paired with every
sampled auxiliary draw, as one stream of rows
(:func:`jcas_regions.info.joint_batches`), in fixed-size chunks that may
cross P_X boundaries, and makes the rate rows of each group of whole P_X as
one array.  The samples of one P_X share its distortions, so the sweep
drops rate rows another row of the same P_X dominates; the survivors stay
one float matrix through the final filter, and only the frontier becomes
points.  Both give the same points, bit for bit, as evaluating and
comparing designs one by one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, check_count, classify_degradedness
from .errors import (
    CardinalityExceeded,
    DomainError,
    MixedArity,
    NotDegraded,
)
from .estimators import _both_receivers
from .info import InputDesign, JointBatch, build_joint, joint_batches

__all__ = [
    "RegionPoint",
    "SearchConfig",
    "CardinalityCaps",
    "cardinality_caps",
    "inner_bound_ps",
    "outer_bound_ps",
    "exact_region_degraded_ps",
    "exact_region_reverse_ps",
    "inner_bound_single",
    "outer_bound_single",
    "exact_region_degraded_single",
    "exact_region_reverse_single",
    "sweep_region",
    "pareto_filter",
    "MODES",
]

#: Number of r1 grid values emitted per design in partial-secrecy modes.
#: ``_rates`` builds every design's grid with one ``np.linspace``, which takes
#: its step-0 branch for all rows once one row needs it.  That equals each
#: design's own grid, bit for bit, because R1_GRID - 1 is a power of two;
#: only rows of a subnormal r1 bound differ, and those dedup to one row.
R1_GRID = 33

#: Strictness margin used by Pareto dominance.
DOMINANCE_EPS = 1e-12

#: Block size and comparison budget of :func:`pareto_filter`.
PARETO_BLOCK, PARETO_CELLS = 256, 2 ** 18

#: Most designs, P_X grid points times auxiliary draws, that one sweep
#: evaluates; :func:`sweep_region` refuses a larger sweep before any work.
MAX_SWEEP_DESIGNS = 10 ** 6


@dataclass(frozen=True, kw_only=True)
class RegionPoint:
    """One point of a rate-distortion trade-off.

    Partial-secrecy points set (r1, r2) and leave r as None; single-message
    points set r only.  Distortions are always present.
    """

    r1: float | None = None
    r2: float | None = None
    r: float | None = None
    d1: float
    d2: float
    design_tag: str = ""

    def __post_init__(self):
        ps = self.r1 is not None or self.r2 is not None
        single = self.r is not None
        if ps == single:
            raise MixedArity("set either (r1, r2) or r, not both")
        if ps and (self.r1 is None or self.r2 is None):
            raise MixedArity("partial-secrecy points need both r1 and r2")
        for v in self.rates + self.distortions:
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"coordinates must be finite and >= 0, got {v!r}")

    @property
    def arity(self) -> str:
        return "single" if self.r is not None else "ps"

    @property
    def rates(self) -> tuple[float, ...]:
        if self.r is not None:
            return (self.r,)
        return (self.r1, self.r2)

    @property
    def distortions(self) -> tuple[float, float]:
        return (self.d1, self.d2)


@dataclass(frozen=True)
class CardinalityCaps:
    """Auxiliary-alphabet sizes beyond which the search gains nothing."""

    u: int
    v_inner: int
    v_outer: int
    v_reverse: int


def cardinality_caps(spec: ChannelSpec) -> CardinalityCaps:
    m = min(spec.nx, spec.ny1 * spec.ns1, spec.ny2 * spec.ns2)
    return CardinalityCaps(
        u=m + 2,
        v_inner=(m + 2) * (m + 1),
        v_outer=m + 1,
        v_reverse=m,
    )


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.12g}"


def _auto_tag(design: InputDesign) -> str:
    px = "|".join(_fmt(v) for v in design.p_x)
    parts = [f"px={px}"]
    if design.p_v_given_x is not None:
        parts.append(f"nv={design.nv}")
    if design.p_u_given_v is not None:
        parts.append(f"nu={design.nu}")
    return ";".join(parts)


# Rate terms.  Each reads (r1 bound, secrecy cap, total-rate budget) off a
# JointBatch, one value per design; v names the auxiliary the bound is taken
# over ("V", or "X" when the mode fixes V = X).  Single-message modes ignore
# the r1 bound.


def _pos(a: np.ndarray) -> np.ndarray:
    # pos_part over a batch
    return np.where(a > 0.0, a, 0.0)


def _inner_ps_terms(j, v):
    r1max = j.mutual_information("U", "Y1", "S1")
    i_v_y1 = j.mutual_information(v, "Y1", "S1")
    r2_cap = _pos(
        j.mutual_information(v, "Y1", ("S1", "U"))
        - j.mutual_information(v, "Y2", ("S2", "U"))
    ) + j.entropy("Y1", ("Y2", "S2", v))
    return r1max, r2_cap, i_v_y1


def _inner_single_terms(j, v):
    i_v_y1 = j.mutual_information(v, "Y1", "S1")
    rpp = _pos(i_v_y1 - j.mutual_information(v, "Y2", "S2")) \
        + j.entropy("Y1", ("Y2", "S2", v))
    return i_v_y1, rpp, i_v_y1


def _outer_terms(j, v):
    i_v_y1 = j.mutual_information(v, "Y1", "S1")
    cap = j.entropy(("Y1", "S1"), ("Y2", "S2")) \
        - j.entropy("S1", ("Y1", "Y2", "S2", v))
    return i_v_y1, cap, i_v_y1


def _reverse_terms(j, v):
    # On reversely-degraded channels the secrecy cap collapses to H(Y1|Y2,S2).
    i_v_y1 = j.mutual_information(v, "Y1", "S1")
    return i_v_y1, j.entropy("Y1", ("Y2", "S2")), i_v_y1


@dataclass(frozen=True)
class _Mode:
    """Everything that tells one region mode apart from the others."""

    ps: bool                 # (r1, r2) points, else one single-message rate r
    aux: str                 # auxiliaries a sweep samples: "" (V = X), "V", "UV"
    degraded: str            # required degradedness: "", "physically", "reversely"
    v_cap: str | None        # CardinalityCaps field that bounds |V|
    constant_u: bool         # refuse a non-constant U rather than ignore it
    terms: Callable          # (JointBatch, v) -> (r1 bound, secrecy cap, budget)


_MODE_TABLE = {
    "ps_inner": _Mode(True, "UV", "", "v_inner", False, _inner_ps_terms),
    "ps_outer": _Mode(True, "V", "", "v_outer", False, _outer_terms),
    "ps_exact_deg": _Mode(True, "V", "physically", "v_outer", True, _outer_terms),
    "ps_exact_rev": _Mode(True, "V", "reversely", "v_reverse", True, _reverse_terms),
    "single_inner": _Mode(False, "V", "", "v_outer", True, _inner_single_terms),
    "single_outer": _Mode(False, "", "", None, False, _outer_terms),
    "single_exact_deg": _Mode(False, "", "physically", None, False, _outer_terms),
    "single_exact_rev": _Mode(False, "", "reversely", None, False, _reverse_terms),
}

MODES = tuple(_MODE_TABLE)


def _require(spec: ChannelSpec, mode: _Mode) -> None:
    if not mode.degraded:
        return
    cls = classify_degradedness(spec)
    if mode.degraded == "physically":
        ok, residual = cls.is_physically_degraded, cls.residual_phys
    else:
        ok, residual = cls.is_reversely_degraded, cls.residual_rev
    if not ok:
        raise NotDegraded(
            f"channel is not {mode.degraded} degraded (residual {residual:.3g})")


def _terms(mode: _Mode, batch: JointBatch) -> np.ndarray:
    """(r1 bound, secrecy cap, budget) of each design in ``batch``, one row
    per design."""
    return np.stack(mode.terms(batch, "V" if mode.aux else "X"), axis=1)


def _rates(mode: _Mode, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate rows of designs with (r1 bound, secrecy cap, budget) ``terms``, and
    the design of each: r, or (r1, r2) along one design's ``np.linspace(0,
    max(r1max, 0), R1_GRID)`` less rows whose ``round(., 15)`` key repeats
    the row before (keys are monotone, so only a row within 1e-14 can)."""
    if not np.isfinite(terms).all():
        bad = terms[~np.isfinite(terms).all(axis=1)][0].tolist()
        raise DomainError(f"rate terms must be finite, got {bad!r}")
    r1max, cap, budget = terms.T[:, :, None]
    if not mode.ps:
        return np.maximum(np.minimum(cap, budget), 0.0) + 0.0, np.arange(len(terms))
    stop = np.where(0.0 > r1max, 0.0, r1max)[:, 0]
    r1 = np.linspace(0.0, stop, R1_GRID, axis=1) + 0.0
    r2 = np.maximum(np.minimum(cap, budget - r1), 0.0) + 0.0  # -0.0 + 0.0 == 0.0
    rows = np.stack([r1, r2], axis=-1)
    new = np.ones(r1.shape, dtype=bool)
    near = np.isclose(rows[:, 1:], rows[:, :-1], rtol=1e-14, atol=1e-14).all(axis=-1)
    for k, g in zip(*near.nonzero()):
        new[k, g + 1] = [round(v, 15) for v in rows[k, g + 1].tolist()] \
            != [round(v, 15) for v in rows[k, g].tolist()]
    return rows[new], new.nonzero()[0]


def _point(rates, d12, tag: str) -> RegionPoint:
    d1, d2 = d12
    if len(rates) == 2:
        return RegionPoint(r1=rates[0], r2=rates[1], d1=d1, d2=d2, design_tag=tag)
    return RegionPoint(r=rates[0], d1=d1, d2=d2, design_tag=tag)


def _evaluate(name: str, spec: ChannelSpec, design,
              tag: str | None) -> list[RegionPoint]:
    """Points of one design under mode ``name``; a bare P_X where V = X.
    Refuses |U| or |V| above the mode's caps, and a non-constant U where
    the mode needs a constant one."""
    mode = _MODE_TABLE[name]
    _require(spec, mode)
    if not mode.aux:
        design = InputDesign(p_x=np.asarray(design, dtype=float))
    caps = cardinality_caps(spec)
    if mode.aux == "UV" and design.nu > caps.u:
        raise CardinalityExceeded(f"|U| = {design.nu} exceeds the cap {caps.u}")
    if mode.constant_u and design.nu != 1:
        raise DomainError("this region requires a constant U auxiliary")
    if mode.v_cap is not None and design.nv > getattr(caps, mode.v_cap):
        raise CardinalityExceeded(
            f"|V| = {design.nv} exceeds the cap {getattr(caps, mode.v_cap)}")
    terms = _terms(mode, JointBatch(build_joint(spec, design).probs[None]))
    tag = tag if tag is not None else _auto_tag(design)
    d12 = _both_receivers(spec, design.p_x)[1]
    return [_point(r, d12, tag) for r in _rates(mode, terms)[0].tolist()]


def inner_bound_ps(spec: ChannelSpec, design: InputDesign,
                   design_tag: str | None = None) -> list[RegionPoint]:
    """Achievable (r1, r2, d1, d2) corner points for one auxiliary design.

    r1 runs on a grid up to I(U;Y1|S1); the secret rate is capped both by
    the secrecy term [I(V;Y1|S1,U) - I(V;Y2|S2,U)]^+ + H(Y1|Y2,S2,V) and by
    the total-rate budget I(V;Y1|S1) - r1.
    """
    return _evaluate("ps_inner", spec, design, design_tag)


def outer_bound_ps(spec: ChannelSpec, design: InputDesign,
                   design_tag: str | None = None) -> list[RegionPoint]:
    """Converse corner points for one design: r1 <= I(V;Y1|S1) and
    r2 <= min(H(Y1,S1|Y2,S2) - H(S1|Y1,Y2,S2,V), I(V;Y1|S1) - r1).

    The bound does not involve U, so a non-constant U is accepted and
    ignored.
    """
    return _evaluate("ps_outer", spec, design, design_tag)


def exact_region_degraded_ps(spec: ChannelSpec, design: InputDesign,
                             design_tag: str | None = None) -> list[RegionPoint]:
    """Exact trade-off for physically-degraded channels (constant U)."""
    return _evaluate("ps_exact_deg", spec, design, design_tag)


def exact_region_reverse_ps(spec: ChannelSpec, design: InputDesign,
                            design_tag: str | None = None) -> list[RegionPoint]:
    """Exact trade-off for reversely-degraded channels: the secrecy cap
    collapses to H(Y1|Y2,S2)."""
    return _evaluate("ps_exact_rev", spec, design, design_tag)


def inner_bound_single(spec: ChannelSpec, design: InputDesign,
                       design_tag: str | None = None) -> list[RegionPoint]:
    """Achievable secret rate for one design, single-message mode."""
    return _evaluate("single_inner", spec, design, design_tag)


def outer_bound_single(spec: ChannelSpec, p_x,
                       design_tag: str | None = None) -> RegionPoint:
    """Converse rate bound for one input law, single-message mode."""
    return _evaluate("single_outer", spec, p_x, design_tag)[0]


def exact_region_degraded_single(spec: ChannelSpec, p_x,
                                 design_tag: str | None = None) -> RegionPoint:
    """Exact single-message trade-off for physically-degraded channels.

    Identical formula to :func:`outer_bound_single`; degradedness is what
    makes the bound tight, so it is enforced here.
    """
    return _evaluate("single_exact_deg", spec, p_x, design_tag)[0]


def exact_region_reverse_single(spec: ChannelSpec, p_x,
                                design_tag: str | None = None) -> RegionPoint:
    """Exact single-message trade-off for reversely-degraded channels."""
    return _evaluate("single_exact_rev", spec, p_x, design_tag)[0]


@dataclass(frozen=True, kw_only=True)
class SearchConfig:
    """Parameters of a discretized design search.

    grid_step fixes the P_X simplex grid (step 1/grid_step); n_samples
    counts the random auxiliary-channel draws per grid point in modes that
    use auxiliaries, each drawn at the mode's cardinality caps (the sizes
    the paper's bounds prove enough); the seed must be nonnegative.
    """

    mode: str
    grid_step: int
    n_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; choose from {MODES}")
        check_count("n_samples", self.n_samples)
        check_count("seed", self.seed)


def _simplex_grid(k: int, step: int):
    """Yield every composition of `step` into k parts, scaled to the
    simplex, in lexicographic order: each choice of k - 1 bar positions
    among step + k - 1 slots is one composition (stars and bars)."""
    for bars in itertools.combinations(range(step + k - 1), k - 1):
        yield (np.diff((-1, *bars, step + k - 1)) - 1) / step


def _sort_key(p: RegionPoint):
    return tuple(-r for r in p.rates) + p.distortions + (p.design_tag,)


def sweep_region(spec: ChannelSpec, cfg: SearchConfig) -> list[RegionPoint]:
    """Search the design space and return the Pareto-nondominated points.

    P_X is enumerated exhaustively on the simplex grid; conditional rows of
    P_{V|X} (and P_{U|V} where the mode uses U) are drawn uniformly from row
    simplices with a seeded generator, so results are a pure function of
    (spec, cfg).  The random draws happen up front in sample order, which
    means growing n_samples only extends the stream: points found with a
    shorter prefix are never produced differently.

    A sweep of more than ``MAX_SWEEP_DESIGNS`` designs (grid points times
    draws) is refused with :class:`DomainError` before any work.
    Degradedness is checked once per sweep, at ``DEGRADEDNESS_TOL``, and
    the distortions once per P_X grid point.  The designs, P_X-major, run
    as one stream through :func:`jcas_regions.info.joint_batches`, in
    chunks of ``info.BATCH_CELLS`` cells.  |U| and |V| are drawn at the
    mode's cardinality caps, which the evaluators admit.  After each chunk
    the P_X whose samples are all in make their rate rows together.  Every
    sample at one P_X shares its distortions, so a rate row that another
    row of the same P_X dominates is dropped.  Dominance is transitive, so
    the final filter keeps the same rows either way.  Rows stay arrays
    until that filter, and only the frontier becomes points.  No
    time-sharing mixtures are added: the rows describe their down-closed
    convex hull, and a mixture of two rows lies inside it.
    """
    check_count("grid_step", cfg.grid_step)
    mode = _MODE_TABLE[cfg.mode]
    n_px = math.comb(cfg.grid_step + spec.nx - 1, spec.nx - 1)
    k = cfg.n_samples if mode.aux else 1
    if n_px * k > MAX_SWEEP_DESIGNS:
        raise DomainError(
            f"the sweep would evaluate {n_px * k} designs ({n_px} P_X x {k} "
            f"each), more than the budget of {MAX_SWEEP_DESIGNS}")
    _require(spec, mode)

    # One stack of auxiliary channels, shared by every P_X: V = X and a
    # constant U unless the mode samples them.
    p_v, p_u = np.eye(spec.nx)[None], np.ones((1, spec.nx, 1))
    suffixes = [""]
    if mode.aux:
        caps = cardinality_caps(spec)
        nv, nu = getattr(caps, mode.v_cap), caps.u
        rng = np.random.default_rng(cfg.seed)
        draws_v, draws_u = [], []
        for _ in range(k):
            draws_v.append(rng.dirichlet(np.ones(nv), size=spec.nx))
            draws_u.append(rng.dirichlet(np.ones(nu), size=nv)
                           if mode.aux == "UV" else np.ones((nv, 1)))
        p_v, p_u = np.array(draws_v), np.array(draws_u)
        suffixes = [f";s={j}" for j in range(k)]

    flat = itertools.chain.from_iterable
    p_x = np.fromiter(flat(_simplex_grid(spec.nx, cfg.grid_step)), float,
                      n_px * spec.nx).reshape(n_px, spec.nx)
    d12 = np.fromiter(flat(_both_receivers(spec, px)[1] for px in p_x), float,
                      2 * n_px).reshape(n_px, 2)

    # Kept rows (rates, -d1, -d2) and their stream positions, one array of
    # each per group of whole P_X; tail holds the terms of the P_X whose
    # samples run on into the next chunk.
    rows, where, tail, done = [], [], np.empty((0, 3)), 0
    chunks = joint_batches(spec, p_x, p_v, p_u)
    for terms in map(_terms, itertools.repeat(mode), chunks):  # holds no chunk
        terms = np.concatenate([tail, terms])
        whole = len(terms) // k * k
        if whole:
            kept, at = _px_survivors(mode, terms[:whole], done, k, d12)
            rows.append(kept)
            where.append(at)
        tail, done = terms[whole:], done + whole
    m, where = np.concatenate(rows), np.concatenate(where)

    points, px_tags = [], {}
    front = _pareto_front(m)
    for rates, at in zip(m[front, :-2].tolist(), where[front].tolist()):
        i, j = divmod(at, k)
        if i not in px_tags:
            px_tags[i] = "|".join(_fmt(v) for v in p_x[i])
        tag = f"px={px_tags[i]}{suffixes[j]}"
        points.append(_point(rates, d12[i].tolist(), tag))
    return sorted(points, key=_sort_key)


def _px_survivors(mode: _Mode, terms: np.ndarray, start: int, k: int,
                  d12: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rate rows of ``terms``, the designs at stream positions ``start``
    on (k per P_X, whole P_X only), that no other row of the same P_X
    dominates, as (rates, -d1, -d2) rows, and the stream position of each."""
    rates, at = _rates(mode, terms)
    at += start
    px = at // k
    keep = np.ones(len(rates), dtype=bool)
    edges = np.flatnonzero(np.diff(px, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo > 1:
            keep[lo:hi] = ~_dominated(rates[lo:hi])
    return np.hstack([rates[keep], -d12[px[keep]]]), at[keep]


def _dominated(rates: np.ndarray) -> np.ndarray:
    """Rows of ``rates`` (one or two columns, all at the same distortions)
    that another row dominates, with the margin of :func:`pareto_filter`.

    Sorting by the first rate, descending, turns "some row with r1 >= t"
    into a prefix, so a running maximum of the last rate answers both forms
    of strict dominance (better first rate, or better last rate) with
    binary searches: O(n log n) time and O(n) memory, after Kung, Luccio &
    Preparata (JACM 1975).  With one rate both columns are that rate.
    """
    order = np.argsort(-rates[:, 0], kind="stable")
    first, last = rates[order, 0], rates[order, -1]
    best_last = np.maximum.accumulate(last)
    ascending = first[::-1]
    n = len(order)
    # another row with first rate above first + eps, last rate >= last
    above = n - np.searchsorted(ascending, first + DOMINANCE_EPS, side="right")
    strict_first = (above > 0) & (best_last[above - 1] >= last)
    # another row with first rate >= first, last rate above last + eps
    at_least = n - np.searchsorted(ascending, first, side="left")
    strict_last = best_last[at_least - 1] > last + DOMINANCE_EPS
    dominated = np.empty(n, dtype=bool)
    dominated[order] = strict_first | strict_last
    return dominated


def pareto_filter(points) -> list[RegionPoint]:
    """Keep exactly the points not dominated by any other.

    A point dominates another when every rate coordinate is >= and every
    distortion coordinate is <=, with at least one coordinate better by more
    than ``DOMINANCE_EPS``.  Retained points keep their input order.  The
    comparison is :func:`_pareto_front` on one row per point.
    """
    points = list(points)
    if not points:
        return []
    arities = {p.arity for p in points}
    if len(arities) > 1:
        raise MixedArity("cannot filter points of mixed arity")
    m = np.array([p.rates + tuple(-d for d in p.distortions) for p in points])
    return [points[i] for i in _pareto_front(m)]


def _pareto_front(m: np.ndarray) -> list[int]:
    """Indices, ascending, of the rows of ``m`` that no other row dominates,
    in the sense of :func:`pareto_filter`.  A row holds a point's rates and
    then its two distortions negated, which turns dominance into a uniform
    componentwise >= plus one strict margin.  A coordinate that is not
    finite and >= 0 raises :class:`DomainError`, as a :class:`RegionPoint`
    would.

    Blocks of ``PARETO_BLOCK`` rows, in descending coordinate-sum order,
    then descending lexicographic order, are compared with the rows kept so
    far and with themselves; a block shrinks so that (kept + block) x block
    stays within ``PARETO_CELLS``.
    """
    coords = m * np.where(np.arange(m.shape[1]) < m.shape[1] - 2, 1.0, -1.0)
    bad = ~(np.isfinite(coords) & (coords >= 0))
    if bad.any():
        raise DomainError(
            f"coordinates must be finite and >= 0, got {coords[bad][0].item()!r}")
    # Floating-point sums are monotone, so a dominating row comes first in
    # this order, and a row is dropped exactly when an earlier one dominates it.
    order = np.lexsort((*(-m.T[::-1]), -m.sum(axis=1)))
    kept, lo = [], 0
    while lo < len(order):
        step = max(1, min(PARETO_BLOCK, PARETO_CELLS // (len(kept) + PARETO_BLOCK)))
        block, lo = order[lo:lo + step], lo + step
        # [i, j]: kept or block row i dominates block row j; a block row
        # counts only against the block rows before it
        rows = m[kept + block.tolist()]
        weak = np.ones((len(rows), len(block)), dtype=bool)
        strict = np.zeros_like(weak)
        for a, b in zip(rows.T, m[block].T):
            weak &= a[:, None] >= b
            strict |= a[:, None] > b + DOMINANCE_EPS
        kept += block[~np.triu(weak & strict, 1 - len(kept)).any(axis=0)].tolist()
    return sorted(kept)
