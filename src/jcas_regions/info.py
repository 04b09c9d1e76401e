"""Exact probability algebra over small dense joint distributions.

Joints are dense tensors indexed by a named subset of the seven variables
(U, V, X, S1, S2, Y1, Y2).  U and V are auxiliary variables chained as
X -> V -> U, independent of the states by construction.  All entropies and
mutual informations are in bits, with the convention 0*log(0) = 0; masses
below ``1e-300`` are treated as exact zeros to keep denormal noise out of
the logs.

:func:`build_joint`, :func:`marginalize`, :func:`entropy` and
:func:`mutual_information` are the reference API, one design at a time.
Sweeps evaluate all sampled designs at one P_X together: :func:`joint_batches`
stacks their joints on a leading axis, in chunks of at most ``BATCH_CELLS``
cells, and :class:`JointBatch` sums each distinct marginal once per chunk
and takes its rows' entropies as arrays, bit for bit as the reference API.

Everything else here is a pure function over immutable tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (MIN_PROB, ChannelSpec, _frozen, check_distribution,
                      check_probability)
from .errors import (
    DimensionMismatch,
    OverlapError,
    UnknownVariable,
)

#: Canonical variable order used by :func:`build_joint`.
VAR_NAMES = ("U", "V", "X", "S1", "S2", "Y1", "Y2")

#: Hard cap on dense joint size, checked at construction.
MAX_JOINT_CELLS = 10 ** 8

#: Cells per einsum in :func:`joint_batches`; a larger stack of designs is
#: split along the design axis, so memory stays flat in ``--samples``.
BATCH_CELLS = 2 ** 20


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; 0 at both endpoints."""
    check_probability("probability", p)
    if p <= MIN_PROB or 1.0 - p <= MIN_PROB:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def pos_part(a: float) -> float:
    """max(a, 0)."""
    return a if a > 0.0 else 0.0


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
        check_distribution("p_x", self.p_x)
        if self.p_v_given_x is not None:
            object.__setattr__(self, "p_v_given_x", _frozen(self.p_v_given_x))
            if self.p_v_given_x.ndim != 2:
                raise DimensionMismatch("p_v_given_x must be a matrix")
            check_distribution("p_v_given_x", self.p_v_given_x)
        if self.p_u_given_v is not None:
            object.__setattr__(self, "p_u_given_v", _frozen(self.p_u_given_v))
            if self.p_u_given_v.ndim != 2:
                raise DimensionMismatch("p_u_given_v must be a matrix")
            check_distribution("p_u_given_v", self.p_u_given_v)

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
    are independent of (U, V, X) by construction.  This is the reference
    path; sweeps use :func:`joint_batches`, which agrees with it bit for bit.
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
    _check_cells(p_u.size * spec.kernel.size)
    probs = np.einsum(
        "vu,xv,x,ab,xabcd->uvxabcd",
        p_u, p_v, design.p_x, spec.state_dist, spec.kernel)
    return JointDistribution(VAR_NAMES, probs)


def _check_cells(size: int) -> None:
    if size > MAX_JOINT_CELLS:
        raise DimensionMismatch(
            f"joint would have {size} cells, above the {MAX_JOINT_CELLS} cap")


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


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """:func:`_entropy_of` of every row, bit for bit: the rows with m cells of
    mass form one C-contiguous (rows, m) array, whose sum along the last axis
    adds each row pairwise in the scalar path's order (``np.add.reduce`` is
    ``sum`` without its Python wrapper).  ``reduceat``, or a column selection
    that is not contiguous, would add sequentially."""
    mask = rows > MIN_PROB
    sizes = np.add.reduce(mask, axis=1)
    groups = set(sizes.tolist())
    if len(groups) == 1 and 0 not in groups:  # e.g. a shared support: no copies
        kept = rows if groups == {rows.shape[1]} else rows[mask].reshape(len(rows), -1)
        return -np.add.reduce(kept * np.log2(kept), axis=1)
    out = np.zeros(len(rows))
    for m in groups - {0}:
        pick = sizes == m
        kept = rows[pick][mask[pick]].reshape(-1, m)
        out[pick] = -np.add.reduce(kept * np.log2(kept), axis=1)
    return out


class JointBatch:
    """The joints of K designs that share P_X, stacked on a leading axis.

    :meth:`entropy` and :meth:`mutual_information` return one value per
    design, each equal bit for bit to the scalar function of the same name
    on that design's :func:`build_joint`: the stacked einsum multiplies in
    the same order, every marginal is one ``sum`` over the same axes, and
    differences are taken in the same order.  Each distinct marginal is
    summed once per batch.  Arguments are trusted, not checked.
    """

    def __init__(self, probs: np.ndarray):
        self.probs = probs
        self._h: dict[frozenset, np.ndarray] = {}

    def _joint_entropy(self, names) -> np.ndarray:
        key = frozenset(names)
        if key not in self._h:
            drop = tuple(i + 1 for i, n in enumerate(VAR_NAMES) if n not in key)
            marginal = self.probs.sum(axis=drop)
            self._h[key] = _row_entropies(marginal.reshape(len(marginal), -1))
        return self._h[key]

    def entropy(self, targets, givens=()) -> np.ndarray:
        """H(targets | givens) in bits, one value per design."""
        targets = _as_names(targets)
        givens = _as_names(givens)
        h_joint = self._joint_entropy(targets + givens)
        if not givens:
            return h_joint
        return h_joint - self._joint_entropy(givens)

    def mutual_information(self, a, b, givens=()) -> np.ndarray:
        """I(a; b | givens) in bits, one value per design."""
        a = _as_names(a)
        givens = _as_names(givens)
        return self.entropy(a, givens) - self.entropy(a, _as_names(b) + givens)


def joint_batches(spec: ChannelSpec, p_x: np.ndarray, p_v: np.ndarray,
                  p_u: np.ndarray):
    """Yield one :class:`JointBatch` per chunk of the K designs
    (p_x, p_v[k], p_u[k]), in order.

    ``p_v`` (K, nx, nv) and ``p_u`` (K, nv, nu) stack the designs'
    auxiliary channels, with V = X written as the identity and a constant U
    as a column of ones, as :func:`build_joint` fills them in.  Shapes are
    the caller's job.  The designs are split along K so that each batch
    holds at most ``BATCH_CELLS`` cells, or one design where a single joint
    is larger.
    """
    cells = p_u[0].size * spec.kernel.size
    _check_cells(cells)
    step = max(1, BATCH_CELLS // cells)
    for lo in range(0, len(p_v), step):
        yield JointBatch(np.einsum(
            "kvu,kxv,x,ab,xabcd->kuvxabcd", p_u[lo:lo + step],
            p_v[lo:lo + step], p_x, spec.state_dist, spec.kernel))
