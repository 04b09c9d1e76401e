"""Closed-form trade-off for the binary multiplicative-Bernoulli channel,
plus the time-sharing separation baseline it is compared against.

With X ~ Bern(p), states parametrized by (q, alpha) and Hamming distortion,
the single-secure-message region has the closed form

    r  <= min( q(1-a) Hb(p) + p(1-qa) Hb( q(1-a) / (1-qa) ),  q Hb(p) )
    d1 >= (1-p) min(q, 1-q)
    d2 >= (1-p) min(qa, 1-qa)

where Hb is the binary entropy function.  When q*alpha = 1 the ratio inside
the first term is 0/0; the whole first argument is defined as 0 there, which
is both the continuity limit and operationally forced (the eavesdropper then
sees everything the receiver sees).

:func:`crosscheck` recomputes the same tuple through the generic tensor
machinery and compares, which is the package's main end-to-end consistency
probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import (check_count, check_probability, check_tolerance,
                      make_binary_multiplicative)
from .info import binary_entropy
from .regions import exact_region_degraded_single

__all__ = [
    "ExamplePoint",
    "BaselinePoint",
    "CrosscheckReport",
    "closed_form_point",
    "closed_form_sweep",
    "separation_baseline",
    "crosscheck",
]


@dataclass(frozen=True)
class ExamplePoint:
    q: float
    alpha: float
    p: float
    r: float
    d1: float
    d2: float


@dataclass(frozen=True)
class BaselinePoint:
    """One time-sharing point; lam is the fraction spent at the max-rate
    operating point, the remainder at the zero-distortion point p = 1."""

    q: float
    alpha: float
    p: float
    lam: float
    r: float
    d1: float
    d2: float


def closed_form_point(q: float, alpha: float, p: float) -> ExamplePoint:
    """Evaluate the closed-form rate and distortions at one (q, alpha, p)."""
    check_probability("q", q)
    check_probability("alpha", alpha)
    check_probability("p", p)
    if q * alpha >= 1.0:
        secrecy_term = 0.0
    else:
        ratio = q * (1.0 - alpha) / (1.0 - q * alpha)
        secrecy_term = q * (1.0 - alpha) * binary_entropy(p) \
            + p * (1.0 - q * alpha) * binary_entropy(ratio)
    r = min(secrecy_term, q * binary_entropy(p))
    d1 = (1.0 - p) * min(q, 1.0 - q)
    d2 = (1.0 - p) * min(q * alpha, 1.0 - q * alpha)
    return ExamplePoint(q=q, alpha=alpha, p=p, r=r, d1=d1, d2=d2)


def closed_form_sweep(q: float, alpha: float, grid_step: int) -> list[ExamplePoint]:
    """Sweep p over {0, 1/grid_step, ..., 1} in increasing order."""
    check_count("grid_step", grid_step)
    return [closed_form_point(q, alpha, k / grid_step)
            for k in range(grid_step + 1)]


def separation_baseline(q: float, alpha: float,
                        lambda_grid_step: int) -> list[BaselinePoint]:
    """Time-sharing baseline between the max-rate point and zero distortion.

    The max-rate input probability p* is found on the same grid (ties to the
    smaller p); p = 1 gives rate 0 with both distortions 0, so sharing a
    fraction lam at p* scales the whole tuple by lam.
    """
    sweep = closed_form_sweep(q, alpha, lambda_grid_step)
    best = max(sweep, key=lambda pt: (pt.r, -pt.p))
    return [
        BaselinePoint(q=q, alpha=alpha, p=best.p, lam=k / lambda_grid_step,
                      r=k / lambda_grid_step * best.r,
                      d1=k / lambda_grid_step * best.d1,
                      d2=k / lambda_grid_step * best.d2)
        for k in range(lambda_grid_step + 1)
    ]


@dataclass(frozen=True)
class CrosscheckReport:
    q: float
    alpha: float
    p: float
    tol: float
    closed_form: tuple[float, float, float]
    region: tuple[float, float, float]
    max_abs_dev: float
    passed: bool


def crosscheck(q: float, alpha: float, p: float, tol: float) -> CrosscheckReport:
    """Compare the closed form against the generic tensor evaluation.

    Builds the actual channel, evaluates the exact degraded single-message
    region at Bern(p), and reports the worst absolute deviation across
    (r, d1, d2).  Passes iff that deviation is within tol.
    """
    check_tolerance(tol)
    cf = closed_form_point(q, alpha, p)
    spec = make_binary_multiplicative(q, alpha)
    pt = exact_region_degraded_single(spec, [1.0 - p, p])
    dev = max(abs(cf.r - pt.r), abs(cf.d1 - pt.d1), abs(cf.d2 - pt.d2))
    return CrosscheckReport(
        q=q, alpha=alpha, p=p, tol=tol,
        closed_form=(cf.r, cf.d1, cf.d2),
        region=(pt.r, pt.d1, pt.d2),
        max_abs_dev=dev,
        passed=dev <= tol,
    )
