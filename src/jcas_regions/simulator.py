"""Seeded Monte-Carlo sampling used to validate the analytic quantities.

Draws i.i.d. rounds of (S1, S2), X and (Y1, Y2), runs the synthesized
optimal estimators on each round, and reports empirical distortions plus
the empirical joint frequency tensor.  Sampling is inverse-CDF over
flattened categorical tables (cumulative sums computed once), driven by
``numpy.random.default_rng(seed)`` (PCG64) drawing three uniform blocks of
n in the fixed order states, inputs, outputs.  Output is therefore a pure
function of (spec, p_x, n, seed); acceptance checks use tolerance bands,
never exact stream values.

The draws are streamed in chunks of ``CHUNK``, so memory is bounded by
``CHUNK`` * |Y|, not by n.  Each block has its own generator, advanced to
the block's start, so the streams are the same as drawing whole blocks.
Chunks add integer counts over (x, s1, s2, y1, y2), and the frequencies and
mean distortions come from the counts: exact on 0/1 distortion tables, and
within last-bit rounding of a sum over the draws on general ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, _frozen, check_count, check_tolerance
from .estimators import EstimatorTable, expected_distortion, synthesize_estimator

__all__ = ["EmpiricalStats", "DistortionReport", "sample_run", "verify_distortion"]

#: Draws per chunk; memory is O(CHUNK * |Y|) whatever n is.
CHUNK = 2 ** 16


@dataclass(frozen=True)
class EmpiricalStats:
    n: int
    seed: int
    mean_d1: float
    mean_d2: float
    freq: np.ndarray  # (nx, ns1, ns2, ny1, ny2), counts / n
    estimators: tuple[EstimatorTable, EstimatorTable]  # the tables applied

    def __post_init__(self):
        object.__setattr__(self, "freq", _frozen(self.freq))


def _categorical(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    # cum is a 1-d cdf with final entry pinned to 1.0; u is in [0, 1).
    return np.searchsorted(cum, u, side="right")


def sample_run(spec: ChannelSpec, p_x, n: int, seed: int) -> EmpiricalStats:
    """Draw n i.i.d. channel uses and apply the optimal estimators."""
    check_count("seed", seed)
    check_count("n", n)
    p_x = np.asarray(p_x, dtype=float)
    est1 = synthesize_estimator(spec, p_x, 1)  # also validates p_x
    est2 = synthesize_estimator(spec, p_x, 2)

    cum_state = np.cumsum(spec.state_dist.reshape(-1))
    cum_state[-1] = 1.0
    cum_x = np.cumsum(p_x)
    cum_x[-1] = 1.0
    cum_y = np.cumsum(
        spec.kernel.reshape(spec.nx * spec.ns1 * spec.ns2, -1), axis=1)
    cum_y[:, -1] = 1.0

    # counts over the flat (x, s1, s2, y1, y2) index, i.e. row * |Y| + y
    ns, ny = cum_state.size, cum_y.shape[1]
    counts = np.zeros(cum_y.size, dtype=np.int64)
    streams = [np.random.default_rng(seed) for _ in range(3)]  # states, X, Y
    for s, rng in enumerate(streams):
        rng.bit_generator.advance(s * int(n))  # one output per double
    for lo in range(0, n, CHUNK):
        m = min(CHUNK, n - lo)
        state = _categorical(cum_state, streams[0].random(m))
        rows = _categorical(cum_x, streams[1].random(m)) * ns + state
        y = (streams[2].random(m)[:, None] >= cum_y[rows]).sum(axis=1)
        counts += np.bincount(rows * ny + y, minlength=counts.size)

    counts = counts.reshape(spec.nx, spec.ns1, spec.ns2, spec.ny1, spec.ny2)
    # d_j[s_j, shat_j(x, y1, y2)] on the axes of the count table
    d1 = spec.d1[np.arange(spec.ns1)[:, None, None, None], est1.table[:, None, None]]
    d2 = spec.d2[np.arange(spec.ns2)[:, None, None], est2.table[:, None, None]]
    mean_d1 = float((counts * d1).sum() / n)
    mean_d2 = float((counts * d2).sum() / n)
    return EmpiricalStats(n=n, seed=seed, mean_d1=mean_d1, mean_d2=mean_d2,
                          freq=counts / n, estimators=(est1, est2))


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
    for j, d, est in zip((1, 2), (spec.d1, spec.d2), stats.estimators):
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
