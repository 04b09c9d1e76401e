"""Optimal deterministic per-letter state estimators.

Once the input law P_X is fixed, the transmitter's best symbolwise estimate
of state component j from (x, y1, y2) is the reconstruction minimising the
posterior expected distortion.  The resulting table depends on P_X only,
never on the auxiliary variables, which is what decouples the distortion
coordinates of a region point from the auxiliary-channel search.

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


def _check_p_x(spec: ChannelSpec, p_x) -> np.ndarray:
    p_x = np.asarray(p_x, dtype=float)
    if p_x.ndim != 1 or len(p_x) != spec.nx:
        raise DegenerateInput(
            f"p_x must be a vector of length {spec.nx}, got shape {p_x.shape}")
    return check_distribution("p_x", p_x)


def _joint5(spec: ChannelSpec, p_x: np.ndarray) -> np.ndarray:
    # P(x, s1, s2, y1, y2) = P(x) P(s1,s2) P(y1,y2|s1,s2,x)
    return p_x[:, None, None, None, None] * spec.state_dist[None, :, :, None, None] \
        * spec.kernel


def synthesize_estimator(spec: ChannelSpec, p_x, j: int) -> EstimatorTable:
    """Build the optimal deterministic table for receiver j under P_X.

    Every cell (x, y1, y2) with positive probability gets the reconstruction
    minimising sum_s P(s_j = s | x, y1, y2) d_j(s, s_hat); ties go to the
    smallest index.  Cells that cannot occur get the argmin under the prior
    P_{S_j}, which costs nothing but keeps the table total and reproducible.
    """
    p_x = _check_p_x(spec, p_x)
    if j not in (1, 2):
        raise DimensionMismatch("receiver index j must be 1 or 2")
    joint = _joint5(spec, p_x)
    d = spec.d1 if j == 1 else spec.d2
    # posterior weights over s_j per (x, y1, y2); normalisation is irrelevant
    # to the argmin so the raw masses are used directly
    if j == 1:
        w = joint.sum(axis=2).transpose(0, 2, 3, 1)  # (x, y1, y2, s1)
        prior = spec.state_dist.sum(axis=1)
    else:
        w = joint.sum(axis=1).transpose(0, 2, 3, 1)  # (x, y1, y2, s2)
        prior = spec.state_dist.sum(axis=0)
    costs = w @ d                                    # (x, y1, y2, nshat)
    table = np.argmin(costs, axis=3)
    empty = w.sum(axis=3) == 0.0
    if np.any(empty):
        table[empty] = int(np.argmin(prior @ d))
    return EstimatorTable(j=j, table=table)


def expected_distortion(spec: ChannelSpec, p_x, est: EstimatorTable, j: int) -> float:
    """Exact E[d_j(S_j, table(X, Y1, Y2))] under the joint induced by P_X."""
    p_x = _check_p_x(spec, p_x)
    if j not in (1, 2):
        raise DimensionMismatch("receiver index j must be 1 or 2")
    if est.j != j:
        raise DimensionMismatch(f"table was built for receiver {est.j}, not {j}")
    if est.table.shape != (spec.nx, spec.ny1, spec.ny2):
        raise DimensionMismatch(
            f"table shape {est.table.shape} does not match the channel "
            f"({spec.nx}, {spec.ny1}, {spec.ny2})")
    d = spec.d1 if j == 1 else spec.d2
    if est.table.max() >= d.shape[1]:
        raise DimensionMismatch("table outputs fall outside the reconstruction alphabet")
    joint = _joint5(spec, p_x)
    w = joint.sum(axis=2) if j == 1 else joint.sum(axis=1)  # (x, s_j, y1, y2)
    sel = d[:, est.table]                                   # (s_j, x, y1, y2)
    return float(np.einsum("xsab,sxab->", w, sel))
