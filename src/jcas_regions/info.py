"""Exact probability algebra over small dense joint distributions.

Joints are dense tensors indexed by a named subset of the seven variables
(U, V, X, S1, S2, Y1, Y2).  U and V are auxiliary variables chained as
X -> V -> U, independent of the states by construction.  All entropies and
mutual informations are in bits, with the convention 0*log(0) = 0; masses
below ``1e-300`` are treated as exact zeros to keep denormal noise out of
the logs.

Everything here is a pure function over immutable tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, PROB_TOL
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    OverlapError,
    UnknownVariable,
)

#: Canonical variable order used by :func:`build_joint`.
VAR_NAMES = ("U", "V", "X", "S1", "S2", "Y1", "Y2")

#: Masses below this contribute zero entropy.
MIN_PROB = 1e-300

#: Hard cap on dense joint size, checked at construction.
MAX_JOINT_CELLS = 10 ** 8


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; 0 at both endpoints."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    if p <= MIN_PROB or 1.0 - p <= MIN_PROB:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def pos_part(a: float) -> float:
    """max(a, 0)."""
    return a if a > 0.0 else 0.0


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_rows(name: str, mat: np.ndarray) -> None:
    if np.any(mat < 0):
        raise DegenerateInput(f"{name} has a negative entry")
    gaps = np.abs(mat.sum(axis=-1) - 1.0)
    if np.any(gaps > PROB_TOL):
        raise DegenerateInput(
            f"{name} row sums deviate from 1 by up to {float(gaps.max()):.3g}")


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint probability tensor over named variables."""

    var_names: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "probs", _frozen(self.probs))
        if self.probs.ndim != len(self.var_names):
            raise DimensionMismatch(
                f"{len(self.var_names)} variable names for a "
                f"{self.probs.ndim}-d tensor")
        if self.probs.size > MAX_JOINT_CELLS:
            raise DimensionMismatch(
                f"joint has {self.probs.size} cells, above the "
                f"{MAX_JOINT_CELLS} cap")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.probs.shape

    def axes(self, names) -> tuple[int, ...]:
        names = _as_names(names)
        missing = [n for n in names if n not in self.var_names]
        if missing:
            raise UnknownVariable(f"unknown variable(s) {missing}")
        return tuple(self.var_names.index(n) for n in names)


def _as_names(names) -> tuple[str, ...]:
    if isinstance(names, str):
        return (names,)
    return tuple(names)


@dataclass(frozen=True)
class InputDesign:
    """Decision variables of the region search: P_X plus the optional
    auxiliary channels P_{V|X} (rows over v) and P_{U|V} (rows over u).

    A missing P_{V|X} means V = X; a missing P_{U|V} means U is constant.
    """

    p_x: np.ndarray
    p_v_given_x: np.ndarray | None = None
    p_u_given_v: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "p_x", _frozen(self.p_x))
        if self.p_x.ndim != 1:
            raise DimensionMismatch("p_x must be a vector")
        _check_rows("p_x", self.p_x[None, :])
        if self.p_v_given_x is not None:
            object.__setattr__(self, "p_v_given_x", _frozen(self.p_v_given_x))
            if self.p_v_given_x.ndim != 2:
                raise DimensionMismatch("p_v_given_x must be a matrix")
            _check_rows("p_v_given_x", self.p_v_given_x)
        if self.p_u_given_v is not None:
            object.__setattr__(self, "p_u_given_v", _frozen(self.p_u_given_v))
            if self.p_u_given_v.ndim != 2:
                raise DimensionMismatch("p_u_given_v must be a matrix")
            _check_rows("p_u_given_v", self.p_u_given_v)

    @property
    def nv(self) -> int:
        if self.p_v_given_x is None:
            return len(self.p_x)
        return self.p_v_given_x.shape[1]

    @property
    def nu(self) -> int:
        if self.p_u_given_v is None:
            return 1
        return self.p_u_given_v.shape[1]


def build_joint(spec: ChannelSpec, design: InputDesign) -> JointDistribution:
    """Product-form joint over (U, V, X, S1, S2, Y1, Y2).

    The tensor is P(u|v) P(v|x) P(x) P(s1,s2) P(y1,y2|s1,s2,x), so the states
    are independent of (U, V, X) by construction.
    """
    nx = spec.nx
    if len(design.p_x) != nx:
        raise DimensionMismatch(
            f"p_x has {len(design.p_x)} entries for an input alphabet of {nx}")
    p_v = design.p_v_given_x
    if p_v is None:
        p_v = np.eye(nx)
    elif p_v.shape[0] != nx:
        raise DimensionMismatch("p_v_given_x must have one row per x symbol")
    nv = p_v.shape[1]
    p_u = design.p_u_given_v
    if p_u is None:
        p_u = np.ones((nv, 1))
    elif p_u.shape[0] != nv:
        raise DimensionMismatch("p_u_given_v must have one row per v symbol")
    nu = p_u.shape[1]

    size = nu * nv * nx * spec.ns1 * spec.ns2 * spec.ny1 * spec.ny2
    if size > MAX_JOINT_CELLS:
        raise DimensionMismatch(
            f"joint would have {size} cells, above the {MAX_JOINT_CELLS} cap")
    probs = np.einsum(
        "vu,xv,x,ab,xabcd->uvxabcd",
        p_u, p_v, design.p_x, spec.state_dist, spec.kernel)
    return JointDistribution(VAR_NAMES, probs)


def marginalize(j: JointDistribution, keep) -> JointDistribution:
    """Sum out every variable not in ``keep`` (order follows the parent)."""
    keep = set(_as_names(keep))
    j.axes(keep)
    kept = tuple(n for n in j.var_names if n in keep)
    drop = tuple(i for i, n in enumerate(j.var_names) if n not in keep)
    return JointDistribution(kept, j.probs.sum(axis=drop))


def _entropy_of(probs: np.ndarray) -> float:
    flat = probs.reshape(-1)
    flat = flat[flat > MIN_PROB]
    if flat.size == 0:
        return 0.0
    return float(-(flat * np.log2(flat)).sum())


def entropy(j: JointDistribution, targets, givens=()) -> float:
    """Conditional entropy H(targets | givens) in bits."""
    targets = _as_names(targets)
    givens = _as_names(givens)
    j.axes(targets)
    j.axes(givens)
    if set(targets) & set(givens):
        raise OverlapError("targets and givens overlap")
    h_joint = _entropy_of(marginalize(j, set(targets) | set(givens)).probs)
    if not givens:
        return h_joint
    return h_joint - _entropy_of(marginalize(j, set(givens)).probs)


def mutual_information(j: JointDistribution, a, b, givens=()) -> float:
    """Conditional mutual information I(a; b | givens) in bits."""
    a = _as_names(a)
    b = _as_names(b)
    givens = _as_names(givens)
    if set(a) & set(b) or set(a) & set(givens) or set(b) & set(givens):
        raise OverlapError("variable groups must be pairwise disjoint")
    return entropy(j, a, givens) - entropy(j, a, tuple(b) + tuple(givens))
