"""Finite-alphabet state-dependent broadcast channels for joint communication
and sensing.

A channel couples a joint state distribution ``P(s1, s2)`` with a stochastic
kernel ``P(y1, y2 | s1, s2, x)`` and two bounded per-letter distortion
matrices, one per reconstructed state component.  Receiver 1 observes
``(y1, s1)`` and receiver 2 (the eavesdropper) observes ``(y2, s2)``.  The
transmitter sees both outputs through perfect feedback, so no separate
feedback alphabet is modelled.

All arrays are dense float64 tensors and every object here is immutable after
construction, so channel specs can be shared freely across workers.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    NegativeProbability,
    SchemaError,
    StochasticityError,
)

#: Tolerance for "sums to one" checks on probability rows.
PROB_TOL = 1e-9

#: Default tolerance for the degradedness residual tests.
DEGRADEDNESS_TOL = 1e-9

#: Masses at or below this count as exact zeros (denormal noise).
MIN_PROB = 1e-300


def _frozen(a, dtype=float, order="K") -> np.ndarray:
    arr = np.array(a, dtype=dtype, order=order)
    arr.setflags(write=False)
    return arr


def check_probability(name: str, v: float) -> float:
    """Return ``v``; raise :class:`DomainError` unless 0 <= v <= 1 (NaN fails)."""
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
    return v


def check_tolerance(tol: float) -> float:
    """Return ``tol``; raise :class:`DomainError` unless it is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


#: Integer arguments: (minimum, error raised below it); a non-integer, or a
#: bool, is a DomainError.
COUNT_RULES = {"grid_step": (2, EmptyGrid), "n_samples": (1, DomainError),
               "seed": (0, DomainError), "n": (1, DegenerateInput),
               "threads": (1, DomainError)}


def check_count(name: str, v: int) -> int:
    """Return ``v``, checked against ``COUNT_RULES[name]``."""
    low, error = COUNT_RULES[name]
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if v < low:
        raise error(f"{name} must be at least {low}, got {v}")
    return v


def check_distribution(name: str, p) -> np.ndarray:
    """Return ``p`` as a float array whose last axis sums to one within
    ``PROB_TOL``; raise :class:`DegenerateInput` otherwise.

    A NaN entry makes the minimum NaN, which fails ``>= 0``; an infinite
    entry fails the sum, and so does an empty row.
    """
    p = np.asarray(p, dtype=float)
    if not (p.min(initial=math.inf) >= 0
            and (abs(p.sum(axis=-1) - 1.0) <= PROB_TOL).all()):
        raise DegenerateInput(f"{name} is not a probability distribution")
    return p


def hamming_distortion(n: int, n_hat: int | None = None) -> np.ndarray:
    """0/1 distortion matrix: d(s, s_hat) = 1 unless s == s_hat."""
    if n_hat is None:
        n_hat = n
    return 1.0 - np.eye(n, n_hat)


@dataclass(frozen=True)
class ChannelSpec:
    """Immutable description of one channel.

    state_dist : (ns1, ns2) joint state probabilities.
    kernel     : (nx, ns1, ns2, ny1, ny2); kernel[x, s1, s2] is the output
                 distribution over (y1, y2).
    d1, d2     : (nsj, nshatj) per-letter distortion matrices.

    The four arrays are stored as read-only C-order copies, so every sum
    over them, and every result, depends on their values only, not on the
    memory order of the arrays passed in.  Construction only enforces shape
    consistency; probabilistic invariants are checked by :func:`validate` so
    that malformed specs can still be inspected and reported on.
    """

    state_dist: np.ndarray
    kernel: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        for name in ("state_dist", "kernel", "d1", "d2"):
            object.__setattr__(self, name, _frozen(getattr(self, name), order="C"))
        if self.state_dist.ndim != 2:
            raise DimensionMismatch("state_dist must be a 2-d matrix")
        if self.kernel.ndim != 5:
            raise DimensionMismatch("kernel must be a 5-d tensor")
        ns1, ns2 = self.state_dist.shape
        if self.kernel.shape[1] != ns1 or self.kernel.shape[2] != ns2:
            raise DimensionMismatch(
                f"kernel state axes {self.kernel.shape[1:3]} do not match "
                f"state_dist shape {self.state_dist.shape}"
            )
        if min(self.kernel.shape) < 1:
            raise DimensionMismatch("all alphabets must be nonempty")
        if self.d1.ndim != 2 or self.d1.shape[0] != ns1:
            raise DimensionMismatch("d1 must have one row per s1 symbol")
        if self.d2.ndim != 2 or self.d2.shape[0] != ns2:
            raise DimensionMismatch("d2 must have one row per s2 symbol")

    @property
    def nx(self) -> int:
        return self.kernel.shape[0]

    @property
    def ns1(self) -> int:
        return self.kernel.shape[1]

    @property
    def ns2(self) -> int:
        return self.kernel.shape[2]

    @property
    def ny1(self) -> int:
        return self.kernel.shape[3]

    @property
    def ny2(self) -> int:
        return self.kernel.shape[4]

    @property
    def nshat1(self) -> int:
        return self.d1.shape[1]

    @property
    def nshat2(self) -> int:
        return self.d2.shape[1]

    @functools.cached_property
    def _degradedness_residuals(self) -> tuple[float, float]:
        # the arrays are read-only, so the residuals of
        # classify_degradedness are computed once per spec object; an error
        # is not cached, so it is raised on every call
        return _residuals(self)


def make_channel_spec(state_dist, kernel, d1=None, d2=None) -> ChannelSpec:
    """Build a spec, defaulting missing distortions to Hamming on S_j."""
    state_dist = np.asarray(state_dist, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if d1 is None:
        d1 = hamming_distortion(state_dist.shape[0])
    if d2 is None:
        d2 = hamming_distortion(state_dist.shape[1])
    return ChannelSpec(state_dist, kernel, d1, d2)


@dataclass(frozen=True)
class Finding:
    """One violated invariant: where, what, and by how much."""

    kind: str
    location: str
    message: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def is_valid(self) -> bool:
        return not self.findings


def _findings(loc: str, a: np.ndarray, nonfinite: str, negative: str,
              total: float | None = None) -> list[Finding]:
    """One finding per NaN, infinite or negative entry of ``a``, in C order,
    named ``loc`` plus its indices; then one ``sum`` finding if ``total`` is
    more than ``PROB_TOL`` from 1 (a NaN total is not)."""
    found = []
    # NaN fails every comparison, so it fails the mask as a bad entry
    for idx in zip(*np.nonzero(~(np.isfinite(a) & (a >= 0)))):
        at = loc + "".join(f"[{i}]" for i in idx)
        v = float(a[idx])
        if math.isfinite(v):
            found.append(Finding(negative, at, f"{at} = {v!r} is negative", -v))
        else:
            found.append(Finding(nonfinite, at, f"{at} = {v!r} is not finite",
                                 math.inf))
    gap = 0.0 if total is None else abs(total - 1.0)
    if gap > PROB_TOL:
        found.append(Finding(
            "sum", loc, f"{loc} sums to {total!r}, off by {gap:.3g}", gap))
    return found


def validate(spec: ChannelSpec) -> ValidationReport:
    """Check every probabilistic invariant and report all violations.

    Each NaN, infinite or negative entry is one finding, and so is each
    probability row whose sum is more than ``PROB_TOL`` from 1.  Findings
    come in a fixed traversal order: state entries, then the state sum;
    each kernel row in (x, s1, s2) order, its entries before its sum; then
    the entries of d1 and d2.  So a given spec always yields the same
    report.  Messages print values as plain Python floats.  A row whose
    entries include both infinities sums to NaN, so it gets no sum finding;
    its entries are ``nonfinite`` findings, which :func:`parse_channel_spec`
    raises as a :class:`SchemaError`.
    """
    rows = spec.kernel.reshape(spec.nx, spec.ns1, spec.ns2, -1)
    # inf + -inf sums to NaN, NaN compares false and 1e308 + 1e308 sums to
    # inf: none of these is a warning
    with np.errstate(invalid="ignore", over="ignore"):
        row_sums = rows.sum(axis=-1)
        found = _findings("state_dist", spec.state_dist, "nonfinite",
                          "negative", float(spec.state_dist.sum()))
        visit = (~(np.isfinite(rows) & (rows >= 0)).all(axis=-1)
                 | (abs(row_sums - 1.0) > PROB_TOL))
        for x, s1, s2 in zip(*np.nonzero(visit)):
            found += _findings(f"kernel[{x}][{s1}][{s2}]", rows[x, s1, s2],
                               "nonfinite", "negative", float(row_sums[x, s1, s2]))
        for name, d in (("d1", spec.d1), ("d2", spec.d2)):
            found += _findings(name, d, "distortion", "distortion")
    return ValidationReport(tuple(found))


_REQUIRED_ALPHABETS = ("x", "s1", "s2", "y1", "y2")
_TOP_LEVEL_KEYS = {"alphabets", "state_dist", "kernel", "d1", "d2"}


def parse_channel_document(text: str) -> ChannelSpec:
    """Parse the JSON channel document, checking only the schema.

    The returned spec may still violate probabilistic invariants; use
    :func:`validate` (or :func:`parse_channel_spec`, which raises) to check
    them.  The document layout is::

        {
          "alphabets": {"x": 2, "s1": 2, "s2": 2, "y1": 2, "y2": 2,
                        "shat1": 2, "shat2": 2},      # shat* optional
          "state_dist": [[...], ...],                 # ns1 x ns2
          "kernel": [[[[...], ...], ...], ...],       # [x][s1][s2] -> flat
                                                      # length ny1*ny2, y1-major
          "d1": [[...], ...],                         # optional, ns1 x nshat1
          "d2": [[...], ...]                          # optional, ns2 x nshat2
        }

    Missing distortion matrices default to Hamming distortion on the matching
    state alphabet, of at most as many cells as the kernel.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"document is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("alphabets", "state_dist", "kernel"):
        if doc.get(key) is None:
            raise SchemaError(f"missing required key {key!r}")

    alph = doc["alphabets"]
    if not isinstance(alph, dict):
        raise SchemaError("'alphabets' must be an object")
    for key in _REQUIRED_ALPHABETS:
        if key not in alph:
            raise SchemaError(f"missing alphabet size {key!r}")
    sizes = {}
    for key, value in alph.items():
        if key not in _REQUIRED_ALPHABETS + ("shat1", "shat2"):
            raise SchemaError(f"unknown alphabet key {key!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SchemaError(f"alphabet size {key!r} must be a positive integer")
        sizes[key] = value

    def _array(key, shape):
        if doc.get(key) is None:
            return None
        try:
            arr = np.array(doc[key], dtype=float)
        except (TypeError, ValueError):
            raise SchemaError(f"{key!r} is not a rectangular numeric array") from None
        if arr.shape != shape:
            raise SchemaError(f"{key!r} has shape {arr.shape}, expected {shape}")
        if not all(type(v) in (int, float)  # dtype=float takes "1", true, null
                   for v in np.array(doc[key], dtype=object).flat):
            raise SchemaError(f"{key!r} must hold numbers only")
        return arr

    state = _array("state_dist", (sizes["s1"], sizes["s2"]))
    flat = _array(
        "kernel",
        (sizes["x"], sizes["s1"], sizes["s2"], sizes["y1"] * sizes["y2"]))
    kernel = flat.reshape(
        sizes["x"], sizes["s1"], sizes["s2"], sizes["y1"], sizes["y2"])
    dists = []
    for j in (1, 2):
        ns, nshat = sizes[f"s{j}"], sizes.get(f"shat{j}", sizes[f"s{j}"])
        d = _array(f"d{j}", (ns, nshat))
        if d is None and ns * nshat > kernel.size:
            # a default sized by the declared alphabet alone could dwarf
            # the file; one no larger than the kernel stays proportional
            raise SchemaError(
                f"default Hamming d{j} would have {ns * nshat} cells, more "
                f"than the kernel's {kernel.size}; give 'd{j}' explicitly")
        dists.append(hamming_distortion(ns, nshat) if d is None else d)
    return ChannelSpec(state, kernel, *dists)


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse a channel document and raise on the first violated invariant."""
    spec = parse_channel_document(text)
    report = validate(spec)
    for f in report.findings:
        if f.kind == "negative":
            raise NegativeProbability(f.message)
        if f.kind == "sum":
            raise StochasticityError(f.message)
        raise SchemaError(f.message)
    return spec


def serialize_channel_spec(spec: ChannelSpec) -> str:
    """Inverse of :func:`parse_channel_spec`; round-trips bit exactly.

    Floats are written with full repr precision (17 significant digits),
    which exceeds the 12 digits the format requires.
    """
    doc = {
        "alphabets": {
            "x": spec.nx, "s1": spec.ns1, "s2": spec.ns2,
            "y1": spec.ny1, "y2": spec.ny2,
            "shat1": spec.nshat1, "shat2": spec.nshat2,
        },
        "state_dist": spec.state_dist.tolist(),
        "kernel": spec.kernel.reshape(
            spec.nx, spec.ns1, spec.ns2, spec.ny1 * spec.ny2).tolist(),
        "d1": spec.d1.tolist(),
        "d2": spec.d2.tolist(),
    }
    return json.dumps(doc, indent=1)


def make_binary_multiplicative(q: float, alpha: float) -> ChannelSpec:
    """Binary channel with multiplicative Bernoulli states.

    Outputs are y1 = s1 * x and y2 = s2 * x.  The states are correlated
    Bernoulli variables with P(s1=0, s2=0) = 1-q, P(s1=1, s2=0) = q(1-alpha),
    P(s1=1, s2=1) = q*alpha and P(s1=0, s2=1) = 0, so receiver 2's state can
    be active only when receiver 1's is.  Both distortions are Hamming.

    Calls with the same (q, alpha), of the same types and signs, return one
    shared immutable spec from a cache of the last 1,024, so its
    degradedness residuals are computed once.
    """
    check_probability("q", q)
    check_probability("alpha", alpha)
    # the cache finds -0.0 equal to 0.0, but a -0.0 state mass has other bits
    return _binary_multiplicative(q, alpha, math.copysign(1.0, q),
                                  math.copysign(1.0, alpha))


@functools.lru_cache(maxsize=1024, typed=True)
def _binary_multiplicative(q, alpha, *signs) -> ChannelSpec:
    state = np.array([[1.0 - q, 0.0], [q * (1.0 - alpha), q * alpha]])
    kernel = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for s1 in range(2):
            for s2 in range(2):
                kernel[x, s1, s2, s1 * x, s2 * x] = 1.0
    return make_channel_spec(state, kernel)


def swap_receivers(spec: ChannelSpec) -> ChannelSpec:
    """Exchange the roles of (Y1, S1) and (Y2, S2)."""
    return ChannelSpec(
        state_dist=spec.state_dist.T,
        kernel=spec.kernel.transpose(0, 2, 1, 4, 3),
        d1=spec.d2,
        d2=spec.d1,
    )


class DegradednessKind(enum.Enum):
    PHYSICALLY_DEGRADED = "physically-degraded"
    REVERSELY_DEGRADED = "reversely-physically-degraded"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class DegradednessClass:
    """Classification outcome plus the measured factorization residuals."""

    kind: DegradednessKind
    residual_phys: float
    residual_rev: float

    @property
    def is_physically_degraded(self) -> bool:
        return self.kind in (DegradednessKind.PHYSICALLY_DEGRADED,
                             DegradednessKind.BOTH)

    @property
    def is_reversely_degraded(self) -> bool:
        return self.kind in (DegradednessKind.REVERSELY_DEGRADED,
                             DegradednessKind.BOTH)


def _conditional_residual(joint: np.ndarray) -> float:
    # joint axes: (x, c, t) where c indexes the conditioning pair and t the
    # tested pair.  Residual = worst spread, over x values that can occur
    # with the conditioning cell, of the conditional distribution of t.  A
    # cell with one such x has spread 0 and one with none -inf, so keeping
    # spreads above 0 skips both; a NaN spread is skipped too.
    mass = joint.sum(axis=2, keepdims=True)
    ok = mass > MIN_PROB
    cond = np.divide(joint, mass, out=np.zeros_like(joint), where=ok)
    spread = (cond.max(axis=0, where=ok, initial=-math.inf)
              - cond.min(axis=0, where=ok, initial=math.inf)).max(axis=-1)
    return float(spread.max(where=spread > 0, initial=0.0))


def _residuals(spec: ChannelSpec) -> tuple[float, float]:
    """(physical, reverse) factorization residuals of ``spec``; a NaN or
    infinite state or kernel entry is a :class:`DegenerateInput`, since a
    NaN would drop out of every comparison and read as a zero residual."""
    if not (np.isfinite(spec.state_dist).all() and np.isfinite(spec.kernel).all()):
        raise DegenerateInput("state_dist and kernel must be finite to classify")
    nx = spec.nx
    # joint[x, s1, s2, y1, y2] under uniform full-support input
    joint = spec.state_dist[None, :, :, None, None] * spec.kernel / nx
    ns1, ns2, ny1, ny2 = spec.ns1, spec.ns2, spec.ny1, spec.ny2

    phys = joint.transpose(0, 1, 3, 2, 4).reshape(nx, ns1 * ny1, ns2 * ny2)
    rev = joint.transpose(0, 2, 4, 1, 3).reshape(nx, ns2 * ny2, ns1 * ny1)
    return _conditional_residual(phys), _conditional_residual(rev)


def classify_degradedness(spec: ChannelSpec,
                          tol: float = DEGRADEDNESS_TOL) -> DegradednessClass:
    """Decide whether receiver 2's pair is a degraded version of receiver 1's
    (or the reverse) by testing conditional independence from the input.

    The joint over (X, S1, S2, Y1, Y2) is built under the uniform input,
    which witnesses the factorization because the tested conditionals given
    X do not depend on the input law.  Physical degradedness holds when
    (Y2, S2) is conditionally independent of X given (S1, Y1); the reverse
    direction swaps the two pairs.  Residuals are exact max deviations, not
    averages, so deterministic channels come out at exactly zero.  They are
    computed once per spec object and kept on it; only the comparison with
    ``tol`` is made per call.  A NaN or infinite entry in ``state_dist`` or
    ``kernel`` raises :class:`DegenerateInput`.
    """
    check_tolerance(tol)
    residual_phys, residual_rev = spec._degradedness_residuals
    p = residual_phys <= tol
    r = residual_rev <= tol
    if p and r:
        kind = DegradednessKind.BOTH
    elif p:
        kind = DegradednessKind.PHYSICALLY_DEGRADED
    elif r:
        kind = DegradednessKind.REVERSELY_DEGRADED
    else:
        kind = DegradednessKind.NEITHER
    return DegradednessClass(kind, residual_phys, residual_rev)
