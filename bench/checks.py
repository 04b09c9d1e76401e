"""Output checks: stored references and independent oracles.

A reference holds, per workload and seed, the SHA-256 and the text of every
output (what one ``jcas`` call printed or wrote, or the dump of one group of
library calls).  An output
whose hash matches is correct.  One whose hash differs is compared number by
number at 1e-9: if it still matches it is a byte-only change, counted in
``csv_byte_mismatch``; if not, its calls fail.  The oracles below recompute
what they can without the package, so that seeds with no stored reference
are checked too.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from inputs import FAMILY_KINDS

NUMERIC_TOL = 1e-9

_TOKEN = re.compile(r"[,\s]+")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_path(directory: Path, workload: str, seed: int) -> Path:
    return directory / workload / f"seed-{seed}.json.gz"


def load_reference(directory: Path, workload: str, seed: int) -> dict | None:
    path = _reference_path(directory, workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(directory: Path, workload: str, seed: int,
                   texts: dict[str, str]) -> Path:
    path = _reference_path(directory, workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {g: {"sha256": sha256(t), "text": t} for g, t in sorted(texts.items())}
    # mtime=0 keeps the file bytes a function of its content
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, indent=0, sort_keys=True).encode("utf-8"))
    return path


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= NUMERIC_TOL * max(1.0, abs(y))


def numeric_mismatches(text: str, ref: str) -> set[int]:
    """Indices of the lines of ``text`` that differ from ``ref`` beyond
    1e-9 in some number, or in any other token."""
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if len(lines) != len(ref_lines):
        return set(range(max(len(lines), 1)))
    bad = set()
    for i, (line, ref_line) in enumerate(zip(lines, ref_lines)):
        tokens, ref_tokens = _TOKEN.split(line), _TOKEN.split(ref_line)
        if len(tokens) != len(ref_tokens) or not all(
                _close(a, b) for a, b in zip(tokens, ref_tokens)):
            bad.add(i)
    return bad


def _frontier(text: str) -> np.ndarray:
    """Rows of a region CSV as rates followed by negated distortions, so
    that a larger value is better in every column."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return np.array([[float(v) for v in (row[2:4] if row[4] == "" else row[4:5])]
                     + [-float(row[5]), -float(row[6])] for row in rows])


def _covered(a: np.ndarray, b: np.ndarray) -> bool:
    # every point of a has a point of b at least as good, up to the tolerance
    return all(bool((b >= p - NUMERIC_TOL).all(axis=1).any()) for p in a)


def same_region(text: str, ref: str) -> bool:
    """True when two region CSVs describe the same region within 1e-9: each
    frontier covers the other.  A relabelled channel has the same region,
    but rounding-level ties can move points in and out of the frontier, so
    the rows themselves need not match."""
    try:
        a, b = _frontier(text), _frontier(ref)
    except (ValueError, IndexError):
        return False
    return a.shape[1:] == b.shape[1:] and _covered(a, b) and _covered(b, a)


# ---------------------------------------------------------------------------
# independent oracles, one per kind of library call; each returns True when
# the output line is right


def closed_form(q: float, alpha: float, p: float) -> tuple[float, float, float]:
    """Rate and distortions of the binary multiplicative example."""
    def hb(x):
        return 0.0 if x <= 0.0 or x >= 1.0 else \
            -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    if q * alpha >= 1.0:
        secrecy = 0.0
    else:
        secrecy = q * (1 - alpha) * hb(p) \
            + p * (1 - q * alpha) * hb(q * (1 - alpha) / (1 - q * alpha))
    return (min(secrecy, q * hb(p)), (1 - p) * min(q, 1 - q),
            (1 - p) * min(q * alpha, 1 - q * alpha))


def optimal_distortion(channel, px, j: int) -> float:
    """Smallest expected distortion of any per-letter estimator of S_j from
    (x, y1, y2): sum over cells of the cheapest reconstruction's cost."""
    joint = np.asarray(px)[:, None, None, None, None] \
        * channel.state[None, :, :, None, None] * channel.kernel
    d = channel.d1 if j == 1 else channel.d2
    w = joint.sum(axis=2 if j == 1 else 1)          # (x, s_j, y1, y2)
    cost = np.einsum("xsab,sh->xabh", w, d)
    return float(cost.min(axis=3).sum())


def _near(a: str, b: float) -> bool:
    return abs(float(a) - b) <= NUMERIC_TOL


def check_crosscheck(line: str, args, plan) -> bool:
    t = line.split()
    if len(t) != 11 or t[3] != "PASS":
        return False
    expected = closed_form(*args)
    return all(_near(v, e) for v, e in zip(t[4:7], expected)) \
        and all(_near(v, e) for v, e in zip(t[7:10], expected))


def check_pipeline(line: str, args, plan) -> bool:
    path, px = args
    t = line.split()
    channel = plan.channels[path]
    if len(t) != 9 or t[0] != path or t[1] != "valid":
        return False
    if t[2] not in FAMILY_KINDS[channel.family]:
        return False
    return _near(t[6], optimal_distortion(channel, px, 1)) \
        and _near(t[8], optimal_distortion(channel, px, 2))


def check_verify(line: str, args, plan) -> bool:
    path, px, n, seed, tol = args
    t = line.split()
    if len(t) != 11 or t[0] != path or t[10] != "PASS":
        return False
    analytic = [optimal_distortion(plan.channels[path], px, j) for j in (1, 2)]
    empirical = [float(t[5]), float(t[6])]
    return all(_near(a, e) for a, e in zip(t[3:5], analytic)) \
        and all(abs(m - e) <= tol for m, e in zip(empirical, analytic))


def check_region(text: str, args, plan) -> bool:
    lines = text.splitlines()
    mode = args[args.index("--mode") + 1]
    return bool(lines) and lines[0] == "mode,design_tag,r1,r2,r,d1,d2" \
        and all(line.startswith(mode + ",") for line in lines[1:])


def _fields(text: str) -> dict[str, str]:
    """``key=value`` tokens of a CLI report, keyed by line head and key."""
    out = {}
    for line in text.splitlines():
        head, *rest = line.split()
        for token in rest:
            key, _, value = token.partition("=")
            out[f"{head}.{key}"] = value
    return out


def check_cli_crosscheck(text: str, args, plan) -> bool:
    value = {a: float(args[args.index(f"--{a}") + 1]) for a in ("q", "alpha", "p")}
    expected = closed_form(value["q"], value["alpha"], value["p"])
    f = _fields(text)
    try:
        return text.startswith("PASS\n") and all(
            _near(f[f"{part}.{k}"], e)
            for part in ("closed_form", "region")
            for k, e in zip(("r", "d1", "d2"), expected))
    except KeyError:
        return False


def check_simulate(text: str, args, plan) -> bool:
    path = args[1]
    px = [float(v) for v in args[args.index("--px") + 1].split(",")]
    tol = float(args[args.index("--tol") + 1])
    f = _fields(text)
    try:
        return text.rstrip().endswith("PASS") and all(
            _near(f[f"d{j}.analytic"], optimal_distortion(plan.channels[path], px, j))
            and abs(float(f[f"d{j}.empirical"]) - float(f[f"d{j}.analytic"])) <= tol
            for j in (1, 2))
    except KeyError:
        return False


def check_classify(text: str, args, plan) -> bool:
    kind = text.split("\n", 1)[0]
    return kind in FAMILY_KINDS[plan.channels[args[1]].family]


ORACLES = {"crosscheck": check_crosscheck, "pipeline": check_pipeline,
           "verify": check_verify, "region": check_region,
           "crosscheck-cli": check_cli_crosscheck, "simulate": check_simulate,
           "classify": check_classify}
