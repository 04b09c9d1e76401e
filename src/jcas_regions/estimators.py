"""Optimal deterministic per-letter state estimators.

Once the input law P_X is fixed, the transmitter's best symbolwise estimate
of state component j from (x, y1, y2) is the reconstruction minimising the
posterior expected distortion.  The resulting table depends on P_X only,
never on the auxiliary variables, which is what decouples the distortion
coordinates of a region point from the auxiliary-channel search.  The region
layer and the CLI take both receivers' tables and distortions from one pass
per P_X: one check of P_X and one joint P(x, s1, s2, y1, y2).

Tie-breaking and zero-probability cells follow fixed rules (smallest
reconstruction index; prior argmin) so tables are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, _frozen, check_distribution
from .errors import DegenerateInput, DimensionMismatch

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


def _joint5(spec: ChannelSpec, p_x) -> np.ndarray:
    """P(x, s1, s2, y1, y2) = P(x) P(s1,s2) P(y1,y2|s1,s2,x), P_X checked first."""
    p_x = np.asarray(p_x, dtype=float)
    if p_x.ndim != 1 or len(p_x) != spec.nx:
        raise DegenerateInput(
            f"p_x must be a vector of length {spec.nx}, got shape {p_x.shape}")
    p_x = check_distribution("p_x", p_x)
    return p_x[:, None, None, None, None] * spec.state_dist[None, :, :, None, None] \
        * spec.kernel


def _receiver(spec: ChannelSpec, joint: np.ndarray, j: int):
    """d_j, the (x, s_j, y1, y2) masses of ``joint`` and the prior P_{S_j}."""
    if j not in (1, 2):
        raise DimensionMismatch("receiver index j must be 1 or 2")
    if j == 1:
        return spec.d1, joint.sum(axis=2), spec.state_dist.sum(axis=1)
    return spec.d2, joint.sum(axis=1), spec.state_dist.sum(axis=0)


def _table(d: np.ndarray, w: np.ndarray, prior: np.ndarray) -> np.ndarray:
    # posterior weights over s_j per (x, y1, y2); normalisation is irrelevant
    # to the argmin so the raw masses are used directly
    w = w.transpose(0, 2, 3, 1)                      # (x, y1, y2, s_j)
    table = np.argmin(w @ d, axis=3)                 # costs (x, y1, y2, nshat)
    empty = w.sum(axis=3) == 0.0
    if np.any(empty):
        table[empty] = int(np.argmin(prior @ d))
    return table


def _expected(d: np.ndarray, w: np.ndarray, table: np.ndarray) -> float:
    return float(np.einsum("xsab,sxab->", w, d[:, table]))  # d: (s_j, x, y1, y2)


def _both_receivers(spec: ChannelSpec, p_x):
    """``((est1, est2), (d1, d2))`` from one check of P_X and one joint."""
    joint, pairs = _joint5(spec, p_x), []
    for j in (1, 2):
        d, w, prior = _receiver(spec, joint, j)
        table = _table(d, w, prior)
        pairs.append((EstimatorTable(j=j, table=table), _expected(d, w, table)))
    return tuple(zip(*pairs))


def synthesize_estimator(spec: ChannelSpec, p_x, j: int) -> EstimatorTable:
    """Build the optimal deterministic table for receiver j under P_X.

    Every cell (x, y1, y2) with positive probability gets the reconstruction
    minimising sum_s P(s_j = s | x, y1, y2) d_j(s, s_hat); ties go to the
    smallest index.  Cells that cannot occur get the argmin under the prior
    P_{S_j}, which costs nothing but keeps the table total and reproducible.
    """
    return EstimatorTable(j=j, table=_table(*_receiver(spec, _joint5(spec, p_x), j)))


def expected_distortion(spec: ChannelSpec, p_x, est: EstimatorTable, j: int) -> float:
    """Exact E[d_j(S_j, table(X, Y1, Y2))] under the joint induced by P_X."""
    d, w, _ = _receiver(spec, _joint5(spec, p_x), j)
    if est.j != j:
        raise DimensionMismatch(f"table was built for receiver {est.j}, not {j}")
    if est.table.shape != (spec.nx, spec.ny1, spec.ny2):
        raise DimensionMismatch(
            f"table shape {est.table.shape} does not match the channel "
            f"({spec.nx}, {spec.ny1}, {spec.ny2})")
    if est.table.max() >= d.shape[1]:
        raise DimensionMismatch("table outputs fall outside the reconstruction alphabet")
    return _expected(d, w, est.table)
