"""Seeded Monte-Carlo sampling used to validate the analytic quantities.

Draws i.i.d. rounds of (S1, S2), X and (Y1, Y2), runs the synthesized
optimal estimators on each round, and reports empirical distortions plus
the empirical joint frequency tensor.  Sampling is inverse-CDF over
flattened categorical tables (cumulative sums computed once), driven by
``numpy.random.default_rng(seed)`` (PCG64) drawing three uniform blocks of
n in the fixed order states, inputs, outputs.  Output is therefore a pure
function of (spec, p_x, n, seed); acceptance checks use tolerance bands,
never exact stream values.

The draws are streamed in chunks of ``CHUNK``, whose scratch beside the
count table is a few ``CHUNK``-entry arrays whatever n and |Y| are: a draw
counts the cdf entries at or below its uniform, and an output draw reads its
cdf one column at a time.  Each block has its own generator, advanced to
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
from .errors import DomainError
from .estimators import EstimatorTable, _both_receivers

__all__ = ["EmpiricalStats", "DistortionReport", "sample_run", "verify_distortion"]

#: Draws per chunk: its scratch (0.9 MB traced) fits one core's 2 MB L2
#: cache, and 2^13 and 2^14 ran fastest of 2^12 to 2^16 on 10^6-draw runs
#: (Xeon, 2 cores, numpy 2.4).
CHUNK = 2 ** 14

#: Most draws one run makes: 20 to 60 s at the 17 to 46 million draws/s of
#: runs on the binary and a 3-ary channel (Xeon, 2 cores, numpy 2.4).  A
#: larger n is refused with :class:`DomainError` before any draw.
MAX_DRAWS = 10 ** 9


@dataclass(frozen=True)
class EmpiricalStats:
    n: int
    seed: int
    mean_d1: float
    mean_d2: float
    freq: np.ndarray  # (nx, ns1, ns2, ny1, ny2), counts / n
    estimators: tuple[EstimatorTable, EstimatorTable]  # the tables applied
    analytic: tuple[float, float]  # their exact expected distortions

    def __post_init__(self):
        object.__setattr__(self, "freq", _frozen(self.freq))


def _categorical(thresholds, u: np.ndarray) -> np.ndarray:
    # The count of thresholds at or below each u in [0, 1): a cdf's entries
    # but its last, each a scalar or an array shaped like u.
    # On a nondecreasing cdf it equals np.searchsorted(cdf, u, side="right").
    k = np.zeros(u.shape, dtype=np.intp)
    for t in thresholds:
        k += u >= t
    return k


def sample_run(spec: ChannelSpec, p_x, n: int, seed: int) -> EmpiricalStats:
    """Draw n i.i.d. channel uses and apply the optimal estimators; n is at
    most ``MAX_DRAWS``."""
    check_count("seed", seed)
    check_count("n", n)
    if n > MAX_DRAWS:
        raise DomainError(f"n = {n} draws is more than the budget of {MAX_DRAWS}")
    (table1, table2), analytic = _both_receivers(spec, p_x)  # checks p_x

    ns, ny = spec.ns1 * spec.ns2, spec.ny1 * spec.ny2
    cum_state = np.cumsum(spec.state_dist.reshape(-1))[:-1]
    cum_x = np.cumsum(np.asarray(p_x, dtype=float))[:-1]
    # one contiguous cdf column per output
    cols_y = np.cumsum(spec.kernel.reshape(-1, ny), axis=1)[:, :-1].T.copy()

    # counts over the flat (x, s1, s2, y1, y2) index, i.e. row * |Y| + y
    counts = np.zeros(spec.kernel.size, dtype=np.int64)
    streams = [np.random.default_rng(seed) for _ in range(3)]  # states, X, Y
    for s, rng in enumerate(streams):
        rng.bit_generator.advance(s * int(n))  # one output per double
    for lo in range(0, n, CHUNK):
        m = min(CHUNK, n - lo)
        state = _categorical(cum_state, streams[0].random(m))
        rows = _categorical(cum_x, streams[1].random(m)) * ns + state
        y = _categorical((col.take(rows) for col in cols_y), streams[2].random(m))
        counts += np.bincount(rows * ny + y, minlength=counts.size)

    counts = counts.reshape(spec.nx, spec.ns1, spec.ns2, spec.ny1, spec.ny2)
    # d_j[s_j, shat_j(x, y1, y2)] / max d_j on the count table's axes (no overflow)
    top1, top2 = (float(d.max()) or 1.0 for d in (spec.d1, spec.d2))
    d1 = spec.d1[np.arange(spec.ns1)[:, None, None, None], table1[:, None, None]] / top1
    d2 = spec.d2[np.arange(spec.ns2)[:, None, None], table2[:, None, None]] / top2
    mean_d1 = float((counts * d1).sum() / n) * top1
    mean_d2 = float((counts * d2).sum() / n) * top2
    return EmpiricalStats(n=n, seed=seed, mean_d1=mean_d1, mean_d2=mean_d2,
                          freq=counts / n,
                          estimators=(EstimatorTable(j=1, table=table1),
                                      EstimatorTable(j=2, table=table2)),
                          analytic=analytic)


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

    The reported standard errors are sqrt(v (m - v) / n), with v the
    analytic mean and m the largest distortion value: the Bhatia-Davis
    bound on the variance of a distortion in [0, m] with mean v.  That is
    exact for 0/1 metrics and conservative for rescaled ones.  ``tol`` must
    be finite and nonnegative.
    """
    check_tolerance(tol)
    stats = sample_run(spec, p_x, n, seed)
    analytic = stats.analytic
    stderr = []
    for d, v in zip((spec.d1, spec.d2), analytic):
        dmax = max(float(d.max()), 0.0)
        u = v / dmax if dmax > 0 else 0.0  # m sqrt(u (1 - u) / n) does not overflow
        stderr.append(dmax * math.sqrt(max(u * (1.0 - u), 0.0) / n))
    empirical = (stats.mean_d1, stats.mean_d2)
    passed = all(abs(e - a) <= tol for e, a in zip(empirical, analytic))
    return DistortionReport(
        n=n, seed=seed, tol=tol,
        analytic=analytic,
        empirical=empirical,
        stderr=(stderr[0], stderr[1]),
        passed=passed,
    )
