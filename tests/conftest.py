"""Shared helpers: random channel constructions and independent brute-force
oracles.

The oracles deliberately avoid the package's tensor code paths: joints are
dicts keyed by symbol tuples, entropies are plain ``math.log2`` sums over
``itertools.product``, so agreement with the numpy implementation is a real
two-path check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jcas_regions import ChannelSpec, InputDesign, make_channel_spec, synthesize_estimator
from jcas_regions.channel import MIN_PROB, PROB_TOL
from jcas_regions.info import _entropy_of


# ---------------------------------------------------------------------------
# random constructions


def random_channel_spec(rng, nx=2, ns1=2, ns2=2, ny1=2, ny2=2) -> ChannelSpec:
    """Fully random valid spec with Hamming distortions."""
    state = rng.dirichlet(np.ones(ns1 * ns2)).reshape(ns1, ns2)
    kernel = rng.dirichlet(np.ones(ny1 * ny2), size=nx * ns1 * ns2)
    kernel = kernel.reshape(nx, ns1, ns2, ny1, ny2)
    return make_channel_spec(state, kernel)


def random_degraded_spec(rng, nx=2, ns1=2, ns2=2, ny1=2, ny2=2) -> ChannelSpec:
    """Random spec satisfying the physical-degradedness factorization.

    Built from P(s1), P(y1|s1,x), P(s2|s1) and P(y2|s1,y1,s2):
    the eavesdropper's pair (y2, s2) then depends on the input only through
    (s1, y1).  The degrading kernel's state marginal must not depend on y1,
    otherwise the joint state law would vary with the input and the object
    would not be a state-dependent channel at all.
    """
    p_s1 = rng.dirichlet(np.ones(ns1))
    p_y1 = rng.dirichlet(np.ones(ny1), size=(nx, ns1))        # (x, s1) -> y1
    p_s2 = rng.dirichlet(np.ones(ns2), size=ns1)              # s1 -> s2
    p_y2 = rng.dirichlet(np.ones(ny2), size=(ns1, ny1, ns2))  # (s1,y1,s2) -> y2

    state = p_s1[:, None] * p_s2
    kernel = np.zeros((nx, ns1, ns2, ny1, ny2))
    for x, s1, s2, y1 in itertools.product(
            range(nx), range(ns1), range(ns2), range(ny1)):
        kernel[x, s1, s2, y1, :] = p_y1[x, s1, y1] * p_y2[s1, y1, s2, :]
    return make_channel_spec(state, kernel)


def random_reverse_degraded_spec(rng, nx=2, ns1=2, ns2=2, ny1=2, ny2=2):
    """Random spec where receiver 1's pair is degraded from receiver 2's."""
    p_s2 = rng.dirichlet(np.ones(ns2))
    p_y2 = rng.dirichlet(np.ones(ny2), size=(nx, ns2))
    p_s1 = rng.dirichlet(np.ones(ns1), size=ns2)
    p_y1 = rng.dirichlet(np.ones(ny1), size=(ns2, ny2, ns1))

    state = (p_s2[:, None] * p_s1).T
    kernel = np.zeros((nx, ns1, ns2, ny1, ny2))
    for x, s1, s2, y2 in itertools.product(
            range(nx), range(ns1), range(ns2), range(ny2)):
        kernel[x, s1, s2, :, y2] = p_y2[x, s2, y2] * p_y1[s2, y2, s1, :]
    return make_channel_spec(state, kernel)


def random_design(rng, spec, nv=None, nu=None) -> InputDesign:
    p_x = rng.dirichlet(np.ones(spec.nx))
    p_v = None if nv is None else rng.dirichlet(np.ones(nv), size=spec.nx)
    n_rows = spec.nx if nv is None else nv
    p_u = None if nu is None else rng.dirichlet(np.ones(nu), size=n_rows)
    return InputDesign(p_x=p_x, p_v_given_x=p_v, p_u_given_v=p_u)


# ---------------------------------------------------------------------------
# brute-force oracles (dict-based, no numpy tensor algebra)


def oracle_joint(spec: ChannelSpec, design: InputDesign) -> dict:
    """Sevenfold nested-loop product joint over (u, v, x, s1, s2, y1, y2)."""
    nx = spec.nx
    p_v = design.p_v_given_x
    if p_v is None:
        p_v = np.eye(nx)
    p_u = design.p_u_given_v
    if p_u is None:
        p_u = np.ones((p_v.shape[1], 1))
    nv, nu = p_v.shape[1], p_u.shape[1]

    joint = {}
    for u in range(nu):
        for v in range(nv):
            for x in range(nx):
                for s1 in range(spec.ns1):
                    for s2 in range(spec.ns2):
                        for y1 in range(spec.ny1):
                            for y2 in range(spec.ny2):
                                joint[(u, v, x, s1, s2, y1, y2)] = (
                                    float(p_u[v, u]) * float(p_v[x, v])
                                    * float(design.p_x[x])
                                    * float(spec.state_dist[s1, s2])
                                    * float(spec.kernel[x, s1, s2, y1, y2]))
    return joint


ORACLE_VARS = ("U", "V", "X", "S1", "S2", "Y1", "Y2")


def oracle_marginal(joint: dict, names) -> dict:
    idx = [ORACLE_VARS.index(n) for n in names]
    out = {}
    for key, p in joint.items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, 0.0) + p
    return out


def _oracle_plain_entropy(marg: dict) -> float:
    return -sum(p * math.log2(p) for p in marg.values() if p > 1e-300)


def oracle_entropy(joint: dict, targets, givens=()) -> float:
    targets, givens = tuple(targets), tuple(givens)
    h = _oracle_plain_entropy(oracle_marginal(joint, targets + givens))
    if givens:
        h -= _oracle_plain_entropy(oracle_marginal(joint, givens))
    return h


def oracle_mi(joint: dict, a, b, givens=()) -> float:
    a, b, givens = tuple(a), tuple(b), tuple(givens)
    return oracle_entropy(joint, a, givens) - oracle_entropy(joint, a, b + givens)


def oracle_conditionally_independent(spec, cond_pair, tol=1e-12) -> bool:
    """Brute-force check that X is independent of the non-conditioned output
    pair given ``cond_pair`` ("1" or "2"), under the uniform input.

    Enumerates the full joint cell by cell and compares conditionals across
    input symbols.
    """
    nx = spec.nx
    cells = {}
    for x, s1, s2, y1, y2 in itertools.product(
            range(nx), range(spec.ns1), range(spec.ns2),
            range(spec.ny1), range(spec.ny2)):
        p = float(spec.state_dist[s1, s2]) * float(spec.kernel[x, s1, s2, y1, y2]) / nx
        if cond_pair == "1":
            cond, rest = (s1, y1), (s2, y2)
        else:
            cond, rest = (s2, y2), (s1, y1)
        inner = cells.setdefault(cond, {}).setdefault(x, {})
        inner[rest] = inner.get(rest, 0.0) + p

    for cond, by_x in cells.items():
        dists = []
        for x, restmap in sorted(by_x.items()):
            mass = sum(restmap.values())
            if mass <= 0.0:
                continue
            dists.append({k: v / mass for k, v in restmap.items()})
        for i in range(1, len(dists)):
            keys = set(dists[0]) | set(dists[i])
            for k in keys:
                if abs(dists[0].get(k, 0.0) - dists[i].get(k, 0.0)) > tol:
                    return False
    return True


# ---------------------------------------------------------------------------
# one-shot simulator oracle


def oracle_sample_run(spec, p_x, n, seed):
    """The simulator as one length-n block per stream, returning
    ``(mean_d1, mean_d2, freq)``.

    Memory is linear in n; the streamed :func:`sample_run` must reproduce it.
    """
    p_x = np.asarray(p_x, dtype=float)
    est1 = synthesize_estimator(spec, p_x, 1)
    est2 = synthesize_estimator(spec, p_x, 2)

    rng = np.random.default_rng(seed)
    u_state = rng.random(n)
    u_x = rng.random(n)
    u_y = rng.random(n)

    cum_state = np.cumsum(spec.state_dist.reshape(-1))
    cum_state[-1] = 1.0
    state_flat = np.searchsorted(cum_state, u_state, side="right")
    s1, s2 = np.divmod(state_flat, spec.ns2)

    cum_x = np.cumsum(p_x)
    cum_x[-1] = 1.0
    x = np.searchsorted(cum_x, u_x, side="right")

    cum_y = np.cumsum(
        spec.kernel.reshape(spec.nx * spec.ns1 * spec.ns2, -1), axis=1)
    cum_y[:, -1] = 1.0
    rows = (x * spec.ns1 + s1) * spec.ns2 + s2
    y_flat = (u_y[:, None] >= cum_y[rows]).sum(axis=1)
    y1, y2 = np.divmod(y_flat, spec.ny2)

    shat1 = est1.table[x, y1, y2]
    shat2 = est2.table[x, y1, y2]
    mean_d1 = float(spec.d1[s1, shat1].mean())
    mean_d2 = float(spec.d2[s2, shat2].mean())

    dims = (spec.nx, spec.ns1, spec.ns2, spec.ny1, spec.ny2)
    flat = np.ravel_multi_index((x, s1, s2, y1, y2), dims)
    counts = np.bincount(flat, minlength=int(np.prod(dims)))
    freq = counts.reshape(dims) / n
    return mean_d1, mean_d2, freq


# ---------------------------------------------------------------------------
# per-row loops that the sweep's array code replaced


def oracle_rates(ps: bool, terms, grid: int = 33) -> list[tuple[float, ...]]:
    """Rate rows of one design from its (r1 bound, secrecy cap, budget):
    (r1, r2) corners along an r1 grid, skipping a row whose rounded key was
    seen before, or the one rate r."""
    r1max, cap, budget = terms
    if not ps:
        return [(max(0.0, min(cap, budget)),)]
    rows = []
    seen = set()
    for r1 in np.linspace(0.0, max(r1max, 0.0), grid):
        r1 = float(r1)
        r2 = max(0.0, min(cap, budget - r1))
        key = (round(r1, 15), round(r2, 15))
        if key in seen:
            continue
        seen.add(key)
        rows.append((max(r1, 0.0), r2))
    return rows


def oracle_row_entropies(rows) -> list[float]:
    """Entropy in bits of each row, one row at a time."""
    return [_entropy_of(row) for row in rows]


def oracle_validate(spec) -> list[tuple]:
    """``validate``'s findings as (kind, location, message, magnitude), found
    one entry at a time: state entries, the state sum, each kernel row's
    entries then its sum in (x, s1, s2) order, then d1 and d2."""
    found = []

    def entry(loc, v, nonfinite, negative):
        v = float(v)
        if not math.isfinite(v):
            found.append((nonfinite, loc, f"{loc} = {v!r} is not finite", math.inf))
        elif v < 0:
            found.append((negative, loc, f"{loc} = {v!r} is negative", abs(v)))

    def total(loc, t):
        gap = abs(t - 1.0)
        if gap > PROB_TOL:
            found.append(("sum", loc, f"{loc} sums to {t!r}, off by {gap:.3g}", gap))

    for i, k in itertools.product(range(spec.ns1), range(spec.ns2)):
        entry(f"state_dist[{i}][{k}]", spec.state_dist[i, k], "nonfinite", "negative")
    with np.errstate(invalid="ignore", over="ignore"):
        total("state_dist", float(spec.state_dist.sum()))
    for x, s1, s2 in itertools.product(range(spec.nx), range(spec.ns1), range(spec.ns2)):
        row = spec.kernel[x, s1, s2]
        loc = f"kernel[{x}][{s1}][{s2}]"
        for y1, y2 in itertools.product(range(spec.ny1), range(spec.ny2)):
            entry(f"{loc}[{y1 * spec.ny2 + y2}]", row[y1, y2], "nonfinite", "negative")
        with np.errstate(invalid="ignore", over="ignore"):
            total(loc, float(row.sum()))
    for name, d in (("d1", spec.d1), ("d2", spec.d2)):
        for i, k in itertools.product(*map(range, d.shape)):
            entry(f"{name}[{i}][{k}]", d[i, k], "distortion", "distortion")
    return found


def oracle_residuals(spec) -> tuple[float, float]:
    """``channel._residuals`` one conditioning cell at a time: the worst
    spread over admissible x of the tested pair's conditional law, over
    cells with at least two admissible x."""
    nx, ns1, ns2, ny1, ny2 = spec.kernel.shape
    joint = spec.state_dist[None, :, :, None, None] * spec.kernel / nx

    def worst(j):
        mass = j.sum(axis=2)
        out = 0.0
        for c in range(j.shape[1]):
            ok = mass[:, c] > MIN_PROB
            if ok.sum() < 2:
                continue
            cond = j[ok, c, :] / mass[ok, c][:, None]
            out = max(out, float((cond.max(axis=0) - cond.min(axis=0)).max()))
        return out

    return (worst(joint.transpose(0, 1, 3, 2, 4).reshape(nx, ns1 * ny1, ns2 * ny2)),
            worst(joint.transpose(0, 2, 4, 1, 3).reshape(nx, ns2 * ny2, ns1 * ny1)))


def _hb(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def closed_form_ps(q: float, alpha: float, p: float) -> tuple[float, float]:
    """(A, C) of the binary example's partial-secrecy region at V = X with
    input Bern(p): {r1 <= A, r2 <= C, r1 + r2 <= A}.  A = q Hb(p) is
    I(X;Y1|S1), and C is the secrecy term, the first argument of
    ``closed_form_point``'s min."""
    a = q * _hb(p)
    if q * alpha >= 1.0:
        return a, 0.0
    ratio = q * (1 - alpha) / (1 - q * alpha)
    return a, q * (1 - alpha) * _hb(p) + p * (1 - q * alpha) * _hb(ratio)
