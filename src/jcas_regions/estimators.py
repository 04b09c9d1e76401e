"""Optimal deterministic per-letter state estimators.

Once the input law P_X is fixed, the transmitter's best symbolwise estimate
of state component j from (x, y1, y2) is the reconstruction minimising the
posterior expected distortion.  The resulting table depends on P_X only,
never on the auxiliary variables, which is what decouples the distortion
coordinates of a region point from the auxiliary-channel search.  The region
layer and the CLI take both receivers' tables and distortions from one pass
over a stack of checked input laws, in chunks of joints P(x, s1, s2, y1, y2)
of at most ``info.BATCH_CELLS`` cells; one P_X is a stack of one, checked
once.

Tie-breaking and zero-probability cells follow fixed rules (smallest
reconstruction index; prior argmin) so tables are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import info
from .channel import ChannelSpec, _frozen, check_input_law
from .errors import DimensionMismatch

__all__ = ["EstimatorTable", "synthesize_estimator", "expected_distortion"]


@dataclass(frozen=True)
class EstimatorTable:
    """Deterministic map (x, y1, y2) -> reconstruction index for receiver j."""

    j: int
    table: np.ndarray  # (nx, ny1, ny2) integer reconstruction indices

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen(self.table, np.int64))
        if self.j not in (1, 2):
            raise DimensionMismatch("receiver index j must be 1 or 2")
        if self.table.ndim != 3:
            raise DimensionMismatch("estimator table must be indexed by (x, y1, y2)")


def _joint5(spec: ChannelSpec, p_x: np.ndarray) -> np.ndarray:
    """P(x, s1, s2, y1, y2) = P(x) P(s1,s2) P(y1,y2|s1,s2,x) of each input law
    on the last axis of ``p_x``, stacked on its leading axes."""
    return p_x[..., None, None, None, None] * spec.state_dist[:, :, None, None] \
        * spec.kernel


def _receiver(spec: ChannelSpec, joint: np.ndarray, j: int):
    """d_j, the (..., x, s_j, y1, y2) masses of ``joint`` and the prior P_{S_j}."""
    if j not in (1, 2):
        raise DimensionMismatch("receiver index j must be 1 or 2")
    # the other receiver's state axis of joint, summed out with
    # np.add.reduce: ndarray.sum without its Python wrapper, the same bits
    other = 2 if j == 1 else 1
    return ((spec.d1, spec.d2)[j - 1], np.add.reduce(joint, axis=other - 5),
            np.add.reduce(spec.state_dist, axis=other - 1))


def _table(d: np.ndarray, w: np.ndarray, prior: np.ndarray) -> np.ndarray:
    # posterior weights over s_j per (..., x, y1, y2); normalisation is
    # irrelevant to the argmin so the raw masses are used directly
    w = w.transpose(*range(w.ndim - 3), -2, -1, -3)  # (..., x, y1, y2, s_j)
    table = (w @ d).argmin(axis=-1)                  # costs (..., nshat)
    empty = np.add.reduce(w, axis=-1) == 0.0
    if empty.any():
        table[empty] = int(np.argmin(prior @ d))
    return table


def _expected(d: np.ndarray, w: np.ndarray, table: np.ndarray) -> float:
    return float(np.einsum("xsab,sxab->", w, d[:, table]))  # d: (s_j, x, y1, y2)


def _receivers(spec: ChannelSpec, p_x: np.ndarray):
    """Yield ``((table1, table2), d)``, bare (m, nx, ny1, ny2) index arrays
    and each row's (d1, d2), per chunk of the checked input laws ``p_x`` (M,
    nx): joints of at most ``info.BATCH_CELLS`` cells, one row at least.
    One stacked product per receiver and one ``einsum`` per row give each
    row the bits of :func:`synthesize_estimator` and :func:`expected_distortion`."""
    step = max(1, info.BATCH_CELLS // spec.kernel.size)
    for lo in range(0, len(p_x), step):
        joint, tables, d = _joint5(spec, p_x[lo:lo + step]), [], []
        for j in (1, 2):
            dj, w, prior = _receiver(spec, joint, j)
            tables.append(_table(dj, w, prior))
            d.append(list(map(_expected, [dj] * len(w), w, tables[-1])))
        del joint, w  # before the next chunk's
        yield tables, list(zip(*d))


def _both_receivers(spec: ChannelSpec, p_x):
    """``((table1, table2), (d1, d2))`` at one P_X, checked once: the
    one-row case of :func:`_receivers`."""
    tables, d = next(_receivers(spec, check_input_law(spec, p_x)[None]))
    return (tables[0][0], tables[1][0]), d[0]


def synthesize_estimator(spec: ChannelSpec, p_x, j: int) -> EstimatorTable:
    """Build the optimal deterministic table for receiver j under P_X.

    Every cell (x, y1, y2) with positive probability gets the reconstruction
    minimising sum_s P(s_j = s | x, y1, y2) d_j(s, s_hat); ties go to the
    smallest index.  Cells that cannot occur get the argmin under the prior
    P_{S_j}, which costs nothing but keeps the table total and reproducible.
    """
    return EstimatorTable(
        j=j, table=_table(*_receiver(spec, _joint5(spec, check_input_law(spec, p_x)), j)))


def expected_distortion(spec: ChannelSpec, p_x, est: EstimatorTable, j: int) -> float:
    """Exact E[d_j(S_j, table(X, Y1, Y2))] under the joint induced by P_X."""
    d, w, _ = _receiver(spec, _joint5(spec, check_input_law(spec, p_x)), j)
    if est.j != j:
        raise DimensionMismatch(f"table was built for receiver {est.j}, not {j}")
    if est.table.shape != (spec.nx, spec.ny1, spec.ny2):
        raise DimensionMismatch(
            f"table shape {est.table.shape} does not match the channel "
            f"({spec.nx}, {spec.ny1}, {spec.ny2})")
    if est.table.max() >= d.shape[1]:
        raise DimensionMismatch("table outputs fall outside the reconstruction alphabet")
    return _expected(d, w, est.table)
