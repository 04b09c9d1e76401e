"""Secrecy-distortion rate regions: bound formulas, design sweeps, and
Pareto-frontier extraction.

Two message configurations are supported.  In partial-secrecy mode a point
carries two rates (r1 for the public part, r2 for the secret part); in
single-message mode it carries one secret rate r.  Every mode pairs the rate
bound with the two estimation distortions obtained from the optimal
per-letter estimators, which depend on P_X alone.

The exact characterizations only hold for (reversely-)physically-degraded
channels, so those evaluators check degradedness first and refuse otherwise.
The sampled ``ps_outer`` sweep is a necessary-condition envelope of the
per-design bounds, not a converse region; ``single_outer`` fixes V = X and
is the outer bound on the P_X grid.  Each says so in the ``note`` of its
``_MODE_TABLE`` row, which the CLI prints.

A sweep evaluates its designs, every P_X grid point paired with every
sampled auxiliary draw, as one stream of rows
(:func:`jcas_regions.info.joint_batches`), in fixed-size chunks that may
cross P_X boundaries, and makes the rate rows of each group of whole P_X as
one array.  The samples of one P_X share its distortions, so the sweep
drops rate rows another row of the same P_X dominates; the survivors stay
one float matrix through the final filter, and only the frontier becomes
points.  Both give the same points, bit for bit, as evaluating and
comparing designs one by one.

The modes that fix V = X (``single_outer``, ``single_exact_deg`` and
``single_exact_rev``) build no joint, one design or a sweep: their terms
are H(O) and H(X, O) with O among (S1, S2, Y1, Y2), which
:class:`jcas_regions.info.OutputTableBatch` takes from the channel's
per-input output tables.  They agree with the :func:`build_joint` path
within 1e-12, not bit for bit; an evaluator and a sweep give a P_X the same
bits.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, check_count, check_input_law, classify_degradedness
from .errors import (
    CardinalityExceeded,
    DomainError,
    MixedArity,
    NotDegraded,
)
from .estimators import _receivers
from .info import (InputDesign, JointBatch, OutputTableBatch, _check_cells, build_joint,
                   joint_batches, output_batches)

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
]

#: Number of r1 grid values emitted per design in partial-secrecy modes.
#: ``_rates`` builds every design's grid with one ``np.linspace``, which takes
#: its step-0 branch for all rows once one row needs it.  That equals each
#: design's own grid, bit for bit, because R1_GRID - 1 is a power of two;
#: only rows of a subnormal r1 bound differ, and those dedup to one row.
R1_GRID = 33

#: Strictness margin used by Pareto dominance.
DOMINANCE_EPS = 1e-12

#: Most designs, P_X grid points times auxiliary draws, that one sweep
#: evaluates; :func:`sweep_region` refuses a larger sweep before any work.
MAX_SWEEP_DESIGNS = 10 ** 6

#: A sweep makes and filters rate rows in groups of whole P_X: as many as
#: fit in this many designs (one at least).  Larger groups amortise the
#: per-call cost of ``_rates``; the rows a group holds bound its memory.
RATE_GROUP = 256


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
        if ps == (self.r is not None):
            raise MixedArity("set either (r1, r2) or r, not both")
        if ps and (self.r1 is None or self.r2 is None):
            raise MixedArity("partial-secrecy points need both r1 and r2")
        for v in ((self.r1, self.r2) if ps else (self.r,)) + (self.d1, self.d2):
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


def _px_tag(p_x) -> str:
    return "px=" + "|".join(_fmt(v) for v in p_x)


def _auto_tag(design: InputDesign) -> str:
    parts = [_px_tag(design.p_x)]
    if design.p_v_given_x is not None:
        parts.append(f"nv={design.nv}")
    if design.p_u_given_v is not None:
        parts.append(f"nu={design.nu}")
    return ";".join(parts)


# Rate terms, one function per bound: inner, outer and reverse.  Each reads
# (r1 bound, secrecy cap, total-rate budget) off a JointBatch, one value per
# design; v names the auxiliary the bound is taken over ("V", or "X" when
# the mode fixes V = X).  Single-message modes ignore the r1 bound, and
# single_inner is the inner bound at a constant U, whose r1 bound is 0.
#
# The inner cap is [wiretap difference]^+ + H(Y1|Y2,S2,V), the last term
# the key that output feedback shares with receiver 1 (Ahlswede & Cai,
# 2006).  It is returned clipped at the budget, which every rate row reads
# it under anyway, and where the key covers the budget for every design of
# the batch the wiretap difference is skipped: adding a value >= 0 never
# rounds below the key, so the clipped cap is the budget, bit for bit,
# either way.


def _pos(a: np.ndarray) -> np.ndarray:
    # pos_part over a batch
    return np.where(a > 0.0, a, 0.0)


def _inner_terms(j, v):
    budget = j.mutual_information(v, "Y1", "S1")
    cap = j.entropy("Y1", ("Y2", "S2", v))  # the key
    if not (cap >= budget).all():
        cap = _pos(j.mutual_information(v, "Y1", ("S1", "U"))
                   - j.mutual_information(v, "Y2", ("S2", "U"))) + cap
    return j.mutual_information("U", "Y1", "S1"), np.minimum(cap, budget), budget


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
    note: str = ""           # the CLI's stderr reminder of what the sweep is


_MODE_TABLE = {
    "ps_inner": _Mode(True, "UV", "", "v_inner", False, _inner_terms),
    "ps_outer": _Mode(True, "V", "", "v_outer", False, _outer_terms,
                      "sampled outer-bound sweep is a necessary-condition envelope, "
                      "not a converse region"),
    "ps_exact_deg": _Mode(True, "V", "physically", "v_outer", True, _outer_terms),
    "ps_exact_rev": _Mode(True, "V", "reversely", "v_reverse", True, _reverse_terms),
    "single_inner": _Mode(False, "V", "", "v_outer", True, _inner_terms),
    "single_outer": _Mode(False, "", "", None, False, _outer_terms,
                          "outer bound on the P_X grid"),
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
    # a row equal to the one before has its key; only other rows within
    # 1e-14 of it need the keys compared
    new = np.ones(r1.shape, dtype=bool)
    new[:, 1:] = (r1[:, 1:] != r1[:, :-1]) | (r2[:, 1:] != r2[:, :-1])
    near = new[:, 1:] & np.isclose(r1[:, 1:], r1[:, :-1], rtol=1e-14, atol=1e-14) \
        & np.isclose(r2[:, 1:], r2[:, :-1], rtol=1e-14, atol=1e-14)
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
    if mode.aux:
        caps = cardinality_caps(spec)
        if mode.aux == "UV" and design.nu > caps.u:
            raise CardinalityExceeded(f"|U| = {design.nu} exceeds the cap {caps.u}")
        if mode.constant_u and design.nu != 1:
            raise DomainError("this region requires a constant U auxiliary")
        if design.nv > getattr(caps, mode.v_cap):
            raise CardinalityExceeded(
                f"|V| = {design.nv} exceeds the cap {getattr(caps, mode.v_cap)}")
        batch = JointBatch(build_joint(spec, design).probs[None])
        p_x = design.p_x
    else:
        p_x = check_input_law(spec, design)
        batch = OutputTableBatch(spec, p_x[None])
    terms = _terms(mode, batch)
    if tag is None:
        tag = _auto_tag(design) if mode.aux else _px_tag(p_x)
    [(_, [d12])] = _receivers(spec, p_x[None])  # P_X checked above
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
    Degradedness is checked once per sweep, at ``DEGRADEDNESS_TOL``, then a
    design's joint against ``info.MAX_JOINT_CELLS``, and then the
    distortions of the whole grid come from one batched estimator pass.
    The designs, P_X-major, run as one stream through
    :func:`jcas_regions.info.joint_batches`, in chunks of
    ``info.BATCH_CELLS`` cells, or at V = X through
    :func:`jcas_regions.info.output_batches`.  |U| and |V| are drawn at the
    mode's cardinality caps, which the evaluators admit.  The sweep holds
    every design's three rate terms, 24 bytes a design, and the P_X make
    their rate rows together, in stream order, in groups of as many whole
    P_X as fit in ``RATE_GROUP`` designs.  Every sample at one P_X shares
    its distortions, so a rate row that another row of the same P_X
    dominates is dropped.  Dominance is transitive, so the final filter
    keeps the same rows either way.  Rows stay arrays until that filter,
    and only the frontier becomes points.  No time-sharing mixtures are
    added: the rows describe their down-closed convex hull, and a mixture
    of two rows lies inside it.
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
    if mode.aux:
        caps = cardinality_caps(spec)
        nv, nu = getattr(caps, mode.v_cap), caps.u if mode.aux == "UV" else 1
        _check_cells(nu * nv * spec.kernel.size)

    flat = itertools.chain.from_iterable
    p_x = np.fromiter(flat(_simplex_grid(spec.nx, cfg.grid_step)), float,
                      n_px * spec.nx).reshape(n_px, spec.nx)
    d12 = np.concatenate([d for _, d in _receivers(spec, p_x)])

    # V = X reads the channel's output tables; other modes draw one stack
    # of auxiliary channels, shared by every P_X, with a constant U unless
    # they sample U too.
    suffixes, chunks = [""], output_batches(spec, p_x)
    if mode.aux:
        rng = np.random.default_rng(cfg.seed)
        draws_v, draws_u = [], []
        for _ in range(k):
            draws_v.append(rng.dirichlet(np.ones(nv), size=spec.nx))
            draws_u.append(rng.dirichlet(np.ones(nu), size=nv)
                           if mode.aux == "UV" else np.ones((nv, 1)))
        chunks = joint_batches(spec, p_x, np.array(draws_v), np.array(draws_u))
        suffixes = [f";s={j}" for j in range(k)]

    # Every design's terms in stream order (map holds no chunk), then the
    # kept rows (rates, -d1, -d2) and their stream positions, slice by slice
    # of whole P_X.
    terms = np.concatenate(list(map(_terms, itertools.repeat(mode), chunks)))
    size = max(1, RATE_GROUP // k) * k
    kept = [_px_survivors(mode, terms[lo:lo + size], lo, k, d12)
            for lo in range(0, len(terms), size)]
    m, where = (np.concatenate(a) for a in zip(*kept))

    # The frontier, sorted as plain tuples: rates descending, then the
    # distortions and the tag ascending.
    front = _pareto_front(m)
    px, sample = (a.tolist() for a in np.divmod(where[front], k))
    px_tags = {i: _px_tag(p_x[i]) for i in set(px)}
    tags = [px_tags[i] + suffixes[j] for i, j in zip(px, sample)]
    keys = sorted(zip(*(-m[front, :-2]).T.tolist(), *d12[px].T.tolist(), tags))
    return [_point((-key[0], -key[1]) if mode.ps else (-key[0],), key[-3:-1], key[-1])
            for key in keys]


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


def _dominated(rates: np.ndarray, by: np.ndarray | None = None,
               weak=False) -> np.ndarray:
    """Rows of ``rates`` (one or two columns) that a row of ``by``, by
    default ``rates`` itself, dominates with the margin of
    :func:`pareto_filter`, where ``by`` sits at distortions no worse than
    theirs: both rates >= and one of them better by more than
    ``DOMINANCE_EPS``.  Where ``weak`` (a bool, or one per row) holds,
    ``by`` is better by more than the margin in a distortion, so both
    rates >= suffice.

    Sorting ``by`` by the first rate, descending, turns "some row with r1 >=
    t" into a prefix, so a running maximum of the last rate answers weak
    dominance and both forms of strict dominance (better first rate, or
    better last rate) with binary searches: O((rows + by) log by) time and
    O(rows + by) memory, after Kung, Luccio & Preparata (JACM 1975).  With
    one rate both columns are that rate.  A one-row ``by``, as a group of
    one row per P_X gives, is compared with every row directly.
    """
    by = rates if by is None else by
    if len(by) == 1:
        b = by[0]
        return (rates <= b).all(axis=1) & (weak | (b > rates + DOMINANCE_EPS).any(axis=1))
    order = (-by[:, 0]).argsort(kind="stable")
    best_last = np.maximum.accumulate(by[order, -1])
    ascending = by[order[::-1], 0]

    def best(t, side):
        # highest last rate among rows of ``by`` whose first rate is >= t
        # (side "left") or > t (side "right"); -inf where there is none
        n = len(order) - ascending.searchsorted(t, side)
        return np.where(n > 0, best_last[n - 1], -np.inf)

    first, last = rates[:, 0], rates[:, -1]
    at_least = best(first, "left")
    return (weak & (at_least >= last)) | (at_least > last + DOMINANCE_EPS) \
        | (best(first + DOMINANCE_EPS, "right") >= last)


def pareto_filter(points) -> list[RegionPoint]:
    """Keep exactly the points not dominated by any other.

    A point dominates another when every rate coordinate is >= and every
    distortion coordinate is <=, with at least one coordinate better by more
    than ``DOMINANCE_EPS``.  Retained points keep their input order.  The
    comparison is :func:`_pareto_front` on one row per point: group by
    group, one group per distortion pair, along rate staircases.
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

    The rows are grouped by their exact distortion pair (:func:`_groups`).
    Each group that still has live rows, in order, tests the live rows of
    every group weakly below it, itself included, against its own live
    rows' rate staircase (:func:`_dominated`): both rates >= suffice where
    it is better by more than ``DOMINANCE_EPS`` in a distortion, and
    otherwise one rate must be better by more.  A group whose rows are all
    dominated is skipped, since whatever it dominates, its dominators
    dominate too.  Any order that puts a group before every group below it
    visits the same groups: those with a row that no row dominates.
    O(groups x rows) time, O(rows) memory.
    """
    coords = m * np.where(np.arange(m.shape[1]) < m.shape[1] - 2, 1.0, -1.0)
    bad = ~(np.isfinite(coords) & (coords >= 0))
    if bad.any():
        raise DomainError(
            f"coordinates must be finite and >= 0, got {coords[bad][0].item()!r}")
    order, starts = _groups(m)
    rates, e1, e2 = m[order, :-2], m[order, -2], m[order, -1]
    live = np.ones(len(m), dtype=bool)
    for lo, hi in zip(starts.tolist(), np.append(starts[1:], len(m)).tolist()):
        if not live[lo:hi].any():
            continue
        # the groups come in descending e1 order, so every later row has
        # e1 <= e1[lo]
        a, b = e1[lo], e2[lo]
        at = lo + np.flatnonzero(live[lo:] & (e2[lo:] <= b))
        far = (a > e1[at] + DOMINANCE_EPS) | (b > e2[at] + DOMINANCE_EPS)
        live[at] = ~_dominated(rates[at], rates[lo:hi][live[lo:hi]], far)
    return np.sort(order[live]).tolist()


def _groups(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``m`` grouped by their (-d1, -d2) pair, the groups in
    descending lexicographic order: the row order, and the position in it
    where each group starts.  A group that is >= another in both
    coordinates comes first."""
    d = m[:, -2:]
    order = np.lexsort((-d[:, 1], -d[:, 0]))
    pairs = d[order]
    return order, np.flatnonzero(np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)])
