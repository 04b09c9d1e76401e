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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelSpec,
    DEGRADEDNESS_TOL,
    classify_degradedness,
)
from .errors import (
    CardinalityExceeded,
    DomainError,
    EmptyGrid,
    MixedArity,
    NotDegraded,
)
from .estimators import expected_distortion, synthesize_estimator
from .info import InputDesign, build_joint, entropy, mutual_information, pos_part

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
R1_GRID = 33

#: Strictness margin used by Pareto dominance.
DOMINANCE_EPS = 1e-12


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
            if not np.isfinite(v) or v < 0:
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


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _auto_tag(design: InputDesign) -> str:
    px = "|".join(_fmt(v) for v in design.p_x)
    parts = [f"px={px}"]
    if design.p_v_given_x is not None:
        parts.append(f"nv={design.nv}")
    if design.p_u_given_v is not None:
        parts.append(f"nu={design.nu}")
    return ";".join(parts)


def _distortions(spec: ChannelSpec, p_x) -> tuple[float, float]:
    out = []
    for j in (1, 2):
        est = synthesize_estimator(spec, p_x, j)
        out.append(expected_distortion(spec, p_x, est, j))
    return out[0], out[1]


def _ps_points(r1max: float, r2_cap: float, i_v_y1: float,
               d1: float, d2: float, tag: str) -> list[RegionPoint]:
    # Corner trade-off: r2 = min(r2_cap, i_v_y1 - r1) along an r1 grid.
    points = []
    seen = set()
    for r1 in np.linspace(0.0, max(r1max, 0.0), R1_GRID):
        r1 = float(r1)
        r2 = max(0.0, min(r2_cap, i_v_y1 - r1))
        key = (round(r1, 15), round(r2, 15))
        if key in seen:
            continue
        seen.add(key)
        points.append(RegionPoint(r1=max(r1, 0.0), r2=r2, d1=d1, d2=d2,
                                  design_tag=tag))
    return points


# Rate terms.  Each reads (r1 bound, secrecy cap, total-rate budget) off the
# joint; v names the auxiliary the bound is taken over ("V", or "X" when the
# mode fixes V = X).  Single-message modes ignore the r1 bound.


def _inner_ps_terms(joint, v):
    r1max = mutual_information(joint, "U", "Y1", "S1")
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    r2_cap = pos_part(
        mutual_information(joint, v, "Y1", ("S1", "U"))
        - mutual_information(joint, v, "Y2", ("S2", "U"))
    ) + entropy(joint, "Y1", ("Y2", "S2", v))
    return r1max, r2_cap, i_v_y1


def _inner_single_terms(joint, v):
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    rpp = pos_part(i_v_y1 - mutual_information(joint, v, "Y2", "S2")) \
        + entropy(joint, "Y1", ("Y2", "S2", v))
    return i_v_y1, rpp, i_v_y1


def _outer_terms(joint, v):
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    cap = entropy(joint, ("Y1", "S1"), ("Y2", "S2")) \
        - entropy(joint, "S1", ("Y1", "Y2", "S2", v))
    return i_v_y1, cap, i_v_y1


def _reverse_terms(joint, v):
    # On reversely-degraded channels the secrecy cap collapses to H(Y1|Y2,S2).
    i_v_y1 = mutual_information(joint, v, "Y1", "S1")
    return i_v_y1, entropy(joint, "Y1", ("Y2", "S2")), i_v_y1


@dataclass(frozen=True)
class _Mode:
    """Everything that tells one region mode apart from the others."""

    ps: bool                 # (r1, r2) points, else one single-message rate r
    aux: str                 # auxiliaries a sweep samples: "" (V = X), "V", "UV"
    degraded: str            # required degradedness: "", "physically", "reversely"
    v_cap: str | None        # CardinalityCaps field that bounds |V|
    constant_u: bool         # refuse a non-constant U rather than ignore it
    terms: Callable          # (joint, v) -> (r1 bound, secrecy cap, budget)


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


def _require(spec: ChannelSpec, mode: _Mode, tol: float) -> None:
    if not mode.degraded:
        return
    cls = classify_degradedness(spec, tol)
    if mode.degraded == "physically":
        ok, residual = cls.is_physically_degraded, cls.residual_phys
    else:
        ok, residual = cls.is_reversely_degraded, cls.residual_rev
    if not ok:
        raise NotDegraded(
            f"channel is not {mode.degraded} degraded (residual {residual:.3g})")


def _evaluate(spec: ChannelSpec, mode: _Mode, design: InputDesign,
              tag: str | None,
              d12: tuple[float, float] | None = None) -> list[RegionPoint]:
    """Points of one design under ``mode``; degradedness is the caller's
    job.  ``d12`` passes in the distortions of ``design.p_x`` when known."""
    caps = cardinality_caps(spec)
    if mode.aux == "UV" and design.nu > caps.u:
        raise CardinalityExceeded(f"|U| = {design.nu} exceeds the cap {caps.u}")
    if mode.constant_u and design.nu != 1:
        raise DomainError("this region requires a constant U auxiliary")
    if mode.v_cap is not None and design.nv > getattr(caps, mode.v_cap):
        raise CardinalityExceeded(
            f"|V| = {design.nv} exceeds the cap {getattr(caps, mode.v_cap)}")
    joint = build_joint(spec, design)
    r1max, cap, budget = mode.terms(joint, "V" if mode.aux else "X")
    d1, d2 = d12 if d12 is not None else _distortions(spec, design.p_x)
    tag = tag if tag is not None else _auto_tag(design)
    if mode.ps:
        return _ps_points(r1max, cap, budget, d1, d2, tag)
    return [RegionPoint(r=max(0.0, min(cap, budget)), d1=d1, d2=d2,
                        design_tag=tag)]


def _direct(name: str, spec: ChannelSpec, design, design_tag: str | None,
            tol: float = DEGRADEDNESS_TOL) -> list[RegionPoint]:
    # Modes with V = X take a bare P_X in place of a design.
    mode = _MODE_TABLE[name]
    _require(spec, mode, tol)
    if not mode.aux:
        design = InputDesign(p_x=np.asarray(design, dtype=float))
    return _evaluate(spec, mode, design, design_tag)


def inner_bound_ps(spec: ChannelSpec, design: InputDesign,
                   design_tag: str | None = None) -> list[RegionPoint]:
    """Achievable (r1, r2, d1, d2) corner points for one auxiliary design.

    r1 runs on a grid up to I(U;Y1|S1); the secret rate is capped both by
    the secrecy term [I(V;Y1|S1,U) - I(V;Y2|S2,U)]^+ + H(Y1|Y2,S2,V) and by
    the total-rate budget I(V;Y1|S1) - r1.
    """
    return _direct("ps_inner", spec, design, design_tag)


def outer_bound_ps(spec: ChannelSpec, design: InputDesign,
                   design_tag: str | None = None) -> list[RegionPoint]:
    """Converse corner points for one design: r1 <= I(V;Y1|S1) and
    r2 <= min(H(Y1,S1|Y2,S2) - H(S1|Y1,Y2,S2,V), I(V;Y1|S1) - r1).

    The bound does not involve U, so a non-constant U is accepted and
    ignored.
    """
    return _direct("ps_outer", spec, design, design_tag)


def exact_region_degraded_ps(spec: ChannelSpec, design: InputDesign,
                             design_tag: str | None = None,
                             tol: float = DEGRADEDNESS_TOL) -> list[RegionPoint]:
    """Exact trade-off for physically-degraded channels (constant U)."""
    return _direct("ps_exact_deg", spec, design, design_tag, tol)


def exact_region_reverse_ps(spec: ChannelSpec, design: InputDesign,
                            design_tag: str | None = None,
                            tol: float = DEGRADEDNESS_TOL) -> list[RegionPoint]:
    """Exact trade-off for reversely-degraded channels: the secrecy cap
    collapses to H(Y1|Y2,S2)."""
    return _direct("ps_exact_rev", spec, design, design_tag, tol)


def inner_bound_single(spec: ChannelSpec, design: InputDesign,
                       design_tag: str | None = None) -> list[RegionPoint]:
    """Achievable secret rate for one design, single-message mode."""
    return _direct("single_inner", spec, design, design_tag)


def outer_bound_single(spec: ChannelSpec, p_x,
                       design_tag: str | None = None) -> RegionPoint:
    """Converse rate bound for one input law, single-message mode."""
    return _direct("single_outer", spec, p_x, design_tag)[0]


def exact_region_degraded_single(spec: ChannelSpec, p_x,
                                 design_tag: str | None = None,
                                 tol: float = DEGRADEDNESS_TOL) -> RegionPoint:
    """Exact single-message trade-off for physically-degraded channels.

    Identical formula to :func:`outer_bound_single`; degradedness is what
    makes the bound tight, so it is enforced here.
    """
    return _direct("single_exact_deg", spec, p_x, design_tag, tol)[0]


def exact_region_reverse_single(spec: ChannelSpec, p_x,
                                design_tag: str | None = None,
                                tol: float = DEGRADEDNESS_TOL) -> RegionPoint:
    """Exact single-message trade-off for reversely-degraded channels."""
    return _direct("single_exact_rev", spec, p_x, design_tag, tol)[0]


@dataclass(frozen=True, kw_only=True)
class SearchConfig:
    """Parameters of a discretized design search.

    grid_step fixes the P_X simplex grid (step 1/grid_step); n_samples
    counts the random auxiliary-channel draws per grid point in modes that
    use auxiliaries.  Cardinality overrides may only lower the caps, and
    must be at least 1; the seed must be nonnegative.
    """

    mode: str
    grid_step: int
    n_samples: int = 1
    seed: int = 0
    nu: int | None = None
    nv: int | None = None
    convexify: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.n_samples < 1:
            raise DomainError("n_samples must be at least 1")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        for name in ("nu", "nv"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be at least 1, got {value}")


def _simplex_grid(k: int, step: int):
    """All compositions of `step` into k parts, scaled to the simplex."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return [np.array(c, dtype=float) / step for c in compositions(step, k)]


def _sort_key(p: RegionPoint):
    return tuple(-r for r in p.rates) + p.distortions + (p.design_tag,)


def _mixtures(points: list[RegionPoint]) -> list[RegionPoint]:
    # Chords between neighbours in canonical order.  Any mixture of
    # achievable points is achievable by time sharing, so emitting only
    # these keeps the output sound and linear in the frontier size; no
    # completeness of the convexification is claimed.
    lams = [k / 8 for k in range(1, 8)]
    ordered = sorted(points, key=_sort_key)
    out = []
    for a, b in zip(ordered, ordered[1:]):
        for lam in lams:
            mix = {
                "d1": lam * a.d1 + (1 - lam) * b.d1,
                "d2": lam * a.d2 + (1 - lam) * b.d2,
                "design_tag": f"ts({a.design_tag}~{b.design_tag}@{_fmt(lam)})",
            }
            if a.arity == "single":
                mix["r"] = lam * a.r + (1 - lam) * b.r
            else:
                mix["r1"] = lam * a.r1 + (1 - lam) * b.r1
                mix["r2"] = lam * a.r2 + (1 - lam) * b.r2
            out.append(RegionPoint(**mix))
    return out


def sweep_region(spec: ChannelSpec, cfg: SearchConfig, threads: int = 1,
                 tol: float = DEGRADEDNESS_TOL) -> list[RegionPoint]:
    """Search the design space and return the Pareto-nondominated points.

    P_X is enumerated exhaustively on the simplex grid; conditional rows of
    P_{V|X} (and P_{U|V} where the mode uses U) are drawn uniformly from row
    simplices with a seeded generator, so results are a pure function of
    (spec, cfg).  The random draws happen up front in sample order, which
    means growing n_samples only extends the stream: points found with a
    shorter prefix are never produced differently.

    Degradedness is checked once per sweep and the distortions once per
    P_X grid point.  Evaluation is serial: ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.  With
    ``convexify`` set, time-sharing mixtures between neighbouring retained
    points are added before the final filter.
    """
    if cfg.grid_step < 2:
        raise EmptyGrid(f"grid_step must be at least 2, got {cfg.grid_step}")
    mode = _MODE_TABLE[cfg.mode]
    _require(spec, mode, tol)

    px_grid = _simplex_grid(spec.nx, cfg.grid_step)
    samples = [(0, None, None)]
    if mode.aux:
        caps = cardinality_caps(spec)
        v_cap = getattr(caps, mode.v_cap)
        nv = v_cap if cfg.nv is None else cfg.nv
        if nv > v_cap:
            raise CardinalityExceeded(f"|V| override {nv} exceeds the cap {v_cap}")
        nu = caps.u if cfg.nu is None else cfg.nu
        if nu > caps.u:
            raise CardinalityExceeded(f"|U| override {nu} exceeds the cap {caps.u}")
        rng = np.random.default_rng(cfg.seed)
        samples = []
        for k in range(cfg.n_samples):
            p_v = rng.dirichlet(np.ones(nv), size=spec.nx)
            p_u = rng.dirichlet(np.ones(nu), size=nv) if mode.aux == "UV" else None
            samples.append((k, p_v, p_u))

    points = []
    for px in px_grid:
        px_tag = "|".join(_fmt(v) for v in px)
        d12 = _distortions(spec, px)
        for k, p_v, p_u in samples:
            design = InputDesign(p_x=px, p_v_given_x=p_v, p_u_given_v=p_u)
            tag = f"px={px_tag}" + (f";s={k}" if mode.aux else "")
            points += _evaluate(spec, mode, design, tag, d12)

    frontier = pareto_filter(points)
    if cfg.convexify and len(frontier) > 1:
        frontier = pareto_filter(frontier + _mixtures(frontier))
    return sorted(frontier, key=_sort_key)


def pareto_filter(points) -> list[RegionPoint]:
    """Keep exactly the points not dominated by any other.

    A point dominates another when every rate coordinate is >= and every
    distortion coordinate is <=, with at least one coordinate better by more
    than ``DOMINANCE_EPS``.  Retained points keep their input order.
    """
    points = list(points)
    if not points:
        return []
    arities = {p.arity for p in points}
    if len(arities) > 1:
        raise MixedArity("cannot filter points of mixed arity")

    # One matrix with distortions negated turns dominance into a uniform
    # componentwise >= plus one strict margin.
    m = np.array([p.rates + tuple(-d for d in p.distortions) for p in points])
    # A dominating point has a strictly larger coordinate sum, so processing
    # in descending-sum order means candidates are only ever dominated by
    # points already accepted (or by a chain leading to one).
    order = np.argsort(-m.sum(axis=1), kind="stable")

    # Cheap vectorized prefilter: drop everything dominated by a block of
    # top-sum points before the exact incremental pass.  Chunked to keep the
    # broadcast buffers small on large sweeps.
    block = m[order[: min(128, len(points))]]
    pre_dominated = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), 8192):
        chunk = m[lo:lo + 8192]
        ge = (block[None, :, :] >= chunk[:, None, :]).all(axis=2)
        gt = (block[None, :, :] > chunk[:, None, :] + DOMINANCE_EPS).any(axis=2)
        pre_dominated[lo:lo + 8192] = (ge & gt).any(axis=1)

    kept: list[int] = []
    frontier = np.empty_like(m)
    for i in order:
        if pre_dominated[i]:
            continue
        if kept:
            fr = frontier[: len(kept)]
            dominated = ((fr >= m[i]).all(axis=1)
                         & (fr > m[i] + DOMINANCE_EPS).any(axis=1)).any()
            if bool(dominated):
                continue
        frontier[len(kept)] = m[i]
        kept.append(i)
    return [points[i] for i in sorted(kept)]
