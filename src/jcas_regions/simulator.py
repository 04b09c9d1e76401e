"""Seeded Monte-Carlo sampling used to validate the analytic quantities.

Draws i.i.d. rounds of (S1, S2), X and (Y1, Y2), runs the synthesized
optimal estimators on each round, and reports empirical distortions plus
the empirical joint frequency tensor.  Sampling is inverse-CDF over
flattened categorical tables (cumulative sums computed once), driven by
``numpy.random.default_rng(seed)`` (PCG64) drawing the three uniform blocks
in the fixed order states, inputs, outputs.  Output is therefore a pure
function of (spec, p_x, n, seed); acceptance checks use tolerance bands,
never exact stream values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, _frozen, check_tolerance
from .errors import DegenerateInput
from .estimators import expected_distortion, synthesize_estimator

__all__ = ["EmpiricalStats", "DistortionReport", "sample_run", "verify_distortion"]


@dataclass(frozen=True)
class EmpiricalStats:
    n: int
    seed: int
    mean_d1: float
    mean_d2: float
    freq: np.ndarray  # (nx, ns1, ns2, ny1, ny2), counts / n

    def __post_init__(self):
        object.__setattr__(self, "freq", _frozen(self.freq))


def _categorical(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    # cum is a 1-d cdf with final entry pinned to 1.0; u is in [0, 1).
    return np.searchsorted(cum, u, side="right")


def sample_run(spec: ChannelSpec, p_x, n: int, seed: int) -> EmpiricalStats:
    """Draw n i.i.d. channel uses and apply the optimal estimators."""
    if n < 1:
        raise DegenerateInput(f"sample count must be at least 1, got {n}")
    p_x = np.asarray(p_x, dtype=float)
    est1 = synthesize_estimator(spec, p_x, 1)  # also validates p_x
    est2 = synthesize_estimator(spec, p_x, 2)

    rng = np.random.default_rng(seed)
    u_state = rng.random(n)
    u_x = rng.random(n)
    u_y = rng.random(n)

    cum_state = np.cumsum(spec.state_dist.reshape(-1))
    cum_state[-1] = 1.0
    state_flat = _categorical(cum_state, u_state)
    s1, s2 = np.divmod(state_flat, spec.ns2)

    cum_x = np.cumsum(p_x)
    cum_x[-1] = 1.0
    x = _categorical(cum_x, u_x)

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

    return EmpiricalStats(n=n, seed=seed, mean_d1=mean_d1, mean_d2=mean_d2,
                          freq=freq)


@dataclass(frozen=True)
class DistortionReport:
    n: int
    seed: int
    tol: float
    analytic: tuple[float, float]
    empirical: tuple[float, float]
    stderr: tuple[float, float]
    passed: bool


def verify_distortion(spec: ChannelSpec, p_x, n: int, seed: int,
                      tol: float) -> DistortionReport:
    """Compare empirical against analytic distortions at the given tolerance.

    The reported standard errors are binomial-style: sqrt(v (1 - v/m) / n)
    with v the analytic mean and m the largest distortion value, which is
    exact for 0/1 metrics and conservative for rescaled ones.  ``tol`` must
    be finite and nonnegative.
    """
    check_tolerance(tol)
    stats = sample_run(spec, p_x, n, seed)
    analytic = []
    stderr = []
    for j, d in ((1, spec.d1), (2, spec.d2)):
        est = synthesize_estimator(spec, p_x, j)
        v = expected_distortion(spec, p_x, est, j)
        analytic.append(v)
        dmax = float(d.max())
        if dmax <= 0:
            stderr.append(0.0)
        else:
            stderr.append(math.sqrt(max(v * (dmax - v), 0.0) / n))
    empirical = (stats.mean_d1, stats.mean_d2)
    passed = all(abs(e - a) <= tol for e, a in zip(empirical, analytic))
    return DistortionReport(
        n=n, seed=seed, tol=tol,
        analytic=(analytic[0], analytic[1]),
        empirical=empirical,
        stderr=(stderr[0], stderr[1]),
        passed=passed,
    )
