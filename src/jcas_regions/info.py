"""Exact probability algebra over small dense joint distributions.

Joints are dense tensors indexed by a named subset of the seven variables
(U, V, X, S1, S2, Y1, Y2).  U and V are auxiliary variables chained as
X -> V -> U, independent of the states by construction.  A joint keeps its
axes in that order, but its memory order is always X, V, U, S1, S2, Y1,
Y2, outermost first, whatever the layout of the arrays it is made from:
``np.sum`` adds in memory order, so its marginals depend on values only.
All entropies and mutual informations are in bits, with the convention
0*log(0) = 0; masses below ``1e-300`` are treated as exact zeros to keep
denormal noise out of the logs.

:func:`build_joint`, :func:`marginalize`, :func:`entropy` and
:func:`mutual_information` are the reference API, one design at a time.
A sweep evaluates its designs as one stream of (P_X, auxiliary channels)
rows: :func:`joint_batches` stacks their joints on a leading axis, in
chunks of ``BATCH_CELLS`` cells that may cross P_X boundaries, and
:class:`JointBatch` sums each distinct marginal once per chunk and takes
its rows' entropies as arrays, bit for bit as the reference API.
The modes that fix V = X need no joint at all: :class:`OutputTableBatch`
takes their entropies from tables of P(O | x) that each channel builds once,
within 1e-12 of the reference API.
Every joint, one design or a chunk, comes from one product,
:func:`_joint_product`, so the two paths hold the same bits, and each
design's cells lie in the same memory order; a batch puts its design axis
innermost.  Every batch, a region evaluator's one design as much as a
sweep's chunk, sums its marginals in two stages that add the same terms in
the same order as ``np.sum`` on one design's joint (numpy's order rule is
spelled out at :class:`JointBatch`): elementwise adds over the designs
that repeat numpy's pairwise sum over each trailing run of summed-out
axes, shared among marginals, then one ``sum`` over the other axes.

Everything else here is a pure function over immutable tensors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (MIN_PROB, ChannelSpec, _frozen, check_distribution,
                      check_input_law, check_probability)
from .errors import (
    DimensionMismatch,
    OverlapError,
    UnknownVariable,
)

__all__ = ["InputDesign", "JointDistribution", "binary_entropy", "build_joint", "entropy",
           "marginalize", "mutual_information", "pos_part"]

#: Canonical variable order used by :func:`build_joint`.
VAR_NAMES = ("U", "V", "X", "S1", "S2", "Y1", "Y2")

#: Hard cap on one design's dense joint, 2^24 cells (128 MiB), checked
#: before it is built: at the cardinality caps, ``ps_inner`` fits on any
#: channel of alphabets up to 7 symbols (10,890,936 cells).
MAX_JOINT_CELLS = 2 ** 24

#: Cells per chunk in :func:`joint_batches`: the stream of designs is cut
#: into chunks of as many whole designs as fit in this many cells (one
#: design where a joint is larger), so memory stays flat in the grid and in
#: ``--samples``.  Every chunk but the last holds the same number of designs.
#: :func:`output_batches` cuts its input laws by the same budget.
#: Scratch budget of a batch's two-stage sums (:class:`JointBatch`): the
#: runs it caches stay under the batch's bytes, as sums of at least 2 cells
#: each that at least halve from one run to the next (a marginal with no
#: run reads the batch itself).  While stage 1 sums a run of n >= 8 cells,
#: its accumulators and their pairwise sums, each 1/n of the batch, add at
#: most 3/4 of the batch's bytes (12/n at n = 16; a shorter run needs
#: none).  The marginal being summed, its rows in C order and their
#: entropy arrays come on top, as they would with one ``np.sum`` per
#: marginal.
BATCH_CELLS = 2 ** 17


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
        for name in ("p_v_given_x", "p_u_given_v"):
            if (a := getattr(self, name)) is not None:
                object.__setattr__(self, name, a := _frozen(a))
                if a.ndim != 2:
                    raise DimensionMismatch(f"{name} must be a matrix")
                check_distribution(name, a)

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
    are independent of (U, V, X) by construction.  It is the one-design
    :func:`_joint_product`, the product :func:`joint_batches` stacks, so its
    memory order is X, V, U, S1, S2, Y1, Y2 whatever the operands' strides,
    and its axes are those of ``VAR_NAMES``.  This is the reference path.
    """
    nx = len(check_input_law(spec, design.p_x))
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
    return JointDistribution(
        VAR_NAMES, _joint_product(spec, design.p_x[None], p_v[None], p_u[None])[0])


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
    return float(-np.add.reduce(flat * np.log2(flat)))


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


#: The axes of a :class:`JointBatch`, (K, U, V, X, S1, S2, Y1, Y2), in the
#: memory order of :func:`_joint_product`, outermost first.
_MEMORY_ORDER = (3, 2, 1, 4, 5, 6, 7, 0)


@functools.lru_cache(maxsize=1024)
def _sum_plan(shape, keep):
    """How :class:`JointBatch` sums the variables not in ``keep`` out of a
    batch of this shape: the transpose to memory order, with the variables'
    length-1 axes first; that order's shape with the trailing dropped run
    merged into one axis, next to last; where the run starts; whether there
    is one; the axes to sum after it; and the transpose back to axis order."""
    drop = {i + 1 for i, n in enumerate(VAR_NAMES) if n not in keep}
    axes = [a for a in _MEMORY_ORDER[:-1] if shape[a] > 1]
    start = len(axes)
    while start and axes[start - 1] in drop:
        start -= 1
    kept = [a for a in axes[:start] if a not in drop] + [0]
    perm = tuple(a for a in range(1, 8) if shape[a] == 1) + tuple(axes) + (0,)
    run_shape = tuple(shape[a] for a in axes[:start]) + (-1, shape[0])
    rest = tuple(i for i, a in enumerate(axes[:start]) if a in drop)
    return (perm, run_shape, start, start < len(axes), rest,
            tuple(sorted(range(len(kept)), key=kept.__getitem__)))


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
    """The joints of K designs, stacked on a leading axis.

    :meth:`entropy` and :meth:`mutual_information` return one value per
    design, each equal bit for bit to the scalar function of the same name
    on that design's :func:`build_joint`: both hold the same product, every
    marginal adds the same terms in the same order as ``np.sum`` over that
    design's joint, and differences are taken in the same order.  Each
    distinct marginal is summed once per batch, and the variables of one
    symbol are left out of its cache key: such an axis changes no row of a
    marginal (:func:`_sum_plan` skips it), so at a constant U, H(U, S1)
    and H(S1) are one marginal.  Arguments are trusted, not
    checked: ``probs`` has the axes (K, U, V, X, S1, S2, Y1, Y2) and must be
    dense in memory order X, V, U, S1, S2, Y1, Y2, K, design axis innermost,
    and hold no -0.0, as :func:`_joint_product` makes it.  Each design's
    cells then lie in the memory order of its :func:`build_joint`, K cells
    apart.

    The order rule: ``np.sum`` walks the array in memory order, ignoring
    length-1 axes.  It adds the trailing run of dropped axes (the innermost
    ones in memory) as one coalesced inner loop, with numpy's
    ``pairwise_sum``, and then adds the other dropped axes one term at a
    time, in memory order.  ``pairwise_sum`` adds a run of n cells left to
    right if n < 8.  Up to 128 cells it keeps 8 accumulators that step
    through the run by 8, combines them as
    ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))`` and adds the
    remainder left to right.  A longer run is split at n/2, rounded down to
    a multiple of 8, and each half is summed the same way.  A batch sums in
    two stages that follow this rule, applied to each design's joint:

    1. The run: :func:`_pairwise_sum` repeats ``pairwise_sum`` with
       elementwise adds across all of the batch's runs at once, each over
       the K designs side by side, and writes the sums into a C-order
       array in memory order, design axis innermost.  Every marginal whose
       run starts at the same axis shares it, so it is summed once per
       batch and cached.  A marginal that keeps the innermost variable has
       no run; it reads the batch itself.
    2. The other dropped axes: one ``sum`` over the run.  Every marginal
       keeps the design axis and the last axis before the run, the
       innermost two, so numpy adds each output cell's terms one at a time
       in the memory order of the dropped axes, as it would on one
       design's joint, with inner loops over that kept block of at least K
       cells.

    Every batch takes the two stages, whatever K is: a batch of one design,
    as a region evaluator makes, gives each design the bits it has inside a
    sweep's chunk.
    """

    def __init__(self, probs: np.ndarray):
        self.probs = probs
        self._h: dict[frozenset, np.ndarray] = {}
        self._runs: dict[int, np.ndarray] = {}

    def _rows(self, keep) -> np.ndarray:
        """Each design's marginal on the variables ``keep`` (hashable), bit
        for bit as ``np.sum`` over its own joint, one row per design.  The
        two-stage sum has the design axis innermost, so its rows are copied
        into the C order that :func:`_row_entropies` needs."""
        probs = self.probs
        perm, run_shape, start, has_run, rest, back = _sum_plan(probs.shape, keep)
        run = self._runs.get(start)
        if run is None:
            v = probs.transpose(perm).reshape(run_shape)  # a view
            run = self._runs[start] = \
                _pairwise_sum(v.swapaxes(-1, -2)) if has_run else v[..., 0, :]
        out = (run.sum(axis=rest) if rest else run).transpose(back)
        return np.ascontiguousarray(out.reshape(len(probs), -1))

    def _joint_entropy(self, names) -> np.ndarray:
        shape = self.probs.shape
        key = frozenset(n for n in names if shape[VAR_NAMES.index(n) + 1] > 1)
        if key not in self._h:
            self._h[key] = _row_entropies(self._rows(key))
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


#: The variables besides X that a V = X rate term reads.  Subset b of them
#: holds ``_OUTPUTS[i]`` where bit i of b is set.
_OUTPUTS = ("S1", "S2", "Y1", "Y2")

#: The column of :class:`OutputTableBatch` that holds the entropy of each
#: subset of X and ``_OUTPUTS``: H(O) in column b, H(X, O) in 16 + b.
_VX_COLUMNS = {
    frozenset(n for i, n in enumerate(("X",) + _OUTPUTS) if c >> i & 1):
        16 * (c & 1) + (c >> 1)
    for c in range(32)}


def _output_tables(spec: ChannelSpec):
    """P(O | x) of all 16 subsets O of ``_OUTPUTS``, side by side in one
    (nx, C) table, C = (ns1 + 1)(ns2 + 1)(ny1 + 1)(ny2 + 1), subset b in the
    columns from ``starts[b]`` on; and the (nx, 16) entropies H(O | X = x).
    :attr:`ChannelSpec._output_tables` keeps them, built on first use."""
    cond = spec.state_dist[:, :, None, None] * spec.kernel
    parts = [np.add.reduce(cond, axis=tuple(i + 1 for i in range(4) if not b >> i & 1))
             .reshape(spec.nx, -1) for b in range(16)]
    starts = np.cumsum([0] + [p.shape[1] for p in parts[:-1]])
    table = np.concatenate(parts, axis=1)
    return table, starts, _segment_entropies(table, starts)


def _segment_entropies(p: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """-sum p log2 p over each segment of the last axis of ``p`` that
    ``starts`` begins, masses at or below ``MIN_PROB`` left out."""
    mask = p > MIN_PROB
    plogp = np.log2(p, out=np.zeros_like(p), where=mask)
    np.multiply(plogp, p, out=plogp, where=mask)
    return 0.0 - np.add.reduceat(plogp, starts, axis=-1)


class OutputTableBatch(JointBatch):
    """The joint entropies of M designs at V = X, one per input law of
    ``p_x`` (M, nx), without their joints.

    Every term of a V = X rate formula is H(O) or H(X, O), with O a subset
    of (S1, S2, Y1, Y2).  The states do not depend on X, so P(x, o) =
    P(x) P(o | x): H(O) is the entropy of sum_x P(x) P(O | x), and H(X, O)
    is H(X) + sum_x P(x) H(O | X = x), from the channel's
    :func:`_output_tables`.  Sums over x reduce the middle axis of an
    (M, nx, .) product and segment sums use ``reduceat``, so each row is
    computed the same way, bit for bit, whatever M is.  They agree with
    the reference API within rounding, not bit for bit, on a stochastic
    channel; where a row sums to one only within ``PROB_TOL``, as
    :func:`~jcas_regions.channel.validate` admits, one entropy may differ
    by about as much.  Only the names X, S1, S2, Y1 and Y2 are known; the
    rest of the interface is :class:`JointBatch`'s.
    """

    def __init__(self, spec: ChannelSpec, p_x: np.ndarray):
        table, starts, h_given_x = spec._output_tables
        p = p_x[:, :, None]
        h_x = _segment_entropies(p_x, np.zeros(1, dtype=np.intp))
        h_o = _segment_entropies(np.add.reduce(p * table, axis=1), starts)
        self._columns = np.concatenate(
            [h_o, h_x + np.add.reduce(p * h_given_x, axis=1)], axis=1)

    def _joint_entropy(self, names) -> np.ndarray:
        column = _VX_COLUMNS.get(frozenset(names))
        if column is None:
            raise UnknownVariable(f"{names} is not a set of X, S1, S2, Y1 and Y2")
        return self._columns[:, column]


def output_batches(spec: ChannelSpec, p_x: np.ndarray):
    """Yield one :class:`OutputTableBatch` per chunk of the rows of ``p_x``
    (M, nx), in order, each of at most ``BATCH_CELLS`` cells of products
    (one row at least)."""
    step = max(1, BATCH_CELLS // spec._output_tables[0].size)
    for lo in range(0, len(p_x), step):
        yield OutputTableBatch(spec, p_x[lo:lo + step])


def joint_batches(spec: ChannelSpec, p_x: np.ndarray, p_v: np.ndarray,
                  p_u: np.ndarray):
    """Yield one :class:`JointBatch` per chunk of the stream of designs
    (p_x[m], p_v[k], p_u[k]), m-major, in order.

    ``p_x`` (M, nx) holds one P_X per row; ``p_v`` (K, nx, nv) and ``p_u``
    (K, nv, nu) stack the auxiliary channels that every P_X is paired with,
    with V = X written as the identity and a constant U as a column of
    ones, as :func:`build_joint` fills them in; shapes, and a design's
    joint against ``MAX_JOINT_CELLS``, are the caller's job.  The M K
    designs are cut into chunks of ``BATCH_CELLS`` cells (whole designs, at
    least one), which may cross P_X boundaries.  Each
    batch holds the bits of the designs' :func:`build_joint` tensors: both
    come from :func:`_joint_product`.
    """
    step, k = max(1, BATCH_CELLS // (p_u[0].size * spec.kernel.size)), len(p_v)
    for lo in range(0, len(p_x) * k, step):
        m, j = np.divmod(np.arange(lo, min(lo + step, len(p_x) * k)), k)
        yield JointBatch(_joint_product(spec, p_x[m], p_v[j], p_u[j]))


def _joint_product(spec: ChannelSpec, p_x: np.ndarray, p_v: np.ndarray,
                   p_u: np.ndarray) -> np.ndarray:
    """P(u|v) P(v|x) P(x) P(s1,s2) P(y1,y2|s1,s2,x) of the K designs
    (p_x[k], p_v[k], p_u[k]), in one C-order (X, V, U, S1, S2, Y1, Y2, K)
    buffer viewed with the axes (K, U, V, X, S1, S2, Y1, Y2).

    The products run (((p_u p_v) p_x) P_S) W, so that only the last is more
    than K |U||V||X||S| cells; the first three make one C-order (X, V, U,
    S1, S2, K) factor, so the last reads both operands in memory order.  A
    channel file or a design may hold -0.0; adding 0.0 to the two factors
    of the last product makes it +0.0, so the joint holds none, as the
    two-stage sums of :class:`JointBatch` need.
    """
    w = spec.kernel
    probs = np.empty((p_x.shape[1], *p_u.shape[1:], *w.shape[1:], len(p_u)))
    uvx = p_u.transpose(1, 2, 0)[None] * p_v.transpose(1, 2, 0)[:, :, None] \
        * p_x.T[:, None, None]
    uvxs = np.multiply(uvx[:, :, :, None, None], spec.state_dist[:, :, None],
                       order="C") + 0.0
    np.multiply(uvxs[:, :, :, :, :, None, None],
                (w + 0.0)[:, None, None, :, :, :, :, None], out=probs)
    return probs.transpose(7, 2, 1, 0, 3, 4, 5, 6)


def _pairwise_sum(v: np.ndarray) -> np.ndarray:
    """The sums along the last axis of ``v`` that numpy's ``pairwise_sum``
    takes of runs innermost in memory, bit for bit, as a new C-order array:
    ``np.sum(v, axis=-1)`` where that axis is innermost.  The steps are
    listed under the order rule of :class:`JointBatch`; each is one
    elementwise add across all runs at once, so ``v`` may have any strides.
    ``v`` holds no -0.0 (numpy adds each sum to 0.0, which changes only
    -0.0)."""
    n = v.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_sum(v[..., :half])
        return np.add(out, _pairwise_sum(v[..., half:]), out=out)
    out = np.empty(v.shape[:-1])
    if n < 8:
        np.add(v[..., 0], v[..., 1] if n > 1 else 0.0, out=out)
        tail = range(2, n)
    else:
        m = n - n % 8
        acc = [v[..., j] for j in range(8)]
        for i in range(8, m, 8):
            acc = [a + v[..., i + j] for j, a in enumerate(acc)]
        np.add((acc[0] + acc[1]) + (acc[2] + acc[3]),
               (acc[4] + acc[5]) + (acc[6] + acc[7]), out=out)
        tail = range(m, n)
    for i in tail:
        np.add(out, v[..., i], out=out)
    return out
