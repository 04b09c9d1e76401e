"""Command line interface.

Subcommands::

    validate <file>
    classify <file> [--tol T]
    estimator <file> --px p0,p1,...
    region <file> --mode M --grid G --samples N --seed S [--threads K]
                  [--out F]
    example --q Q --alpha A --grid G [--out F]
    baseline --q Q --alpha A --grid G [--out F]
    simulate <file> --px ... --n N --seed S --tol T
    crosscheck --q Q --alpha A --p P --tol T

Exit status: 0 on success, 1 on domain or validation failure (including an
``--out`` that cannot be written), 2 on usage errors.  Option values pass
the library's checks (``check_probability``, ``check_tolerance``,
``check_distribution``, ``check_count`` in :mod:`.channel`), and a value
they reject is a usage error.  All numeric output uses 12 significant
digits; identical invocations produce byte-identical output; ``--out``
writes atomically (write then rename).  ``--threads`` is a compatibility
flag of the CLI alone, checked like any count and then dropped.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import binary_example, regions, simulator
from .channel import (
    DEGRADEDNESS_TOL,
    check_count,
    check_distribution,
    check_probability,
    check_tolerance,
    classify_degradedness,
    parse_channel_document,
    parse_channel_spec,
    validate,
)
from .errors import JcasError
from .estimators import _both_receivers
from .regions import _fmt


def _arg(convert):
    """argparse type running ``convert(text)``: a value it rejects with
    ``ValueError`` or the library's :class:`JcasError` is a usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, JcasError) as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _count(name: str):
    return _arg(lambda text: check_count(name, int(text)))


_probability = _arg(lambda text: check_probability("probability", float(text)))
_tolerance = _arg(lambda text: check_tolerance(float(text)))
_px = _arg(lambda text: check_distribution(
    repr(text), [float(t) for t in text.split(",")]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcas",
        description="Secrecy-distortion regions for state-dependent joint "
                    "communication and sensing channels.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a channel file's invariants")
    p.add_argument("file")

    p = sub.add_parser("classify", help="test physical/reverse degradedness")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEGRADEDNESS_TOL)

    p = sub.add_parser("estimator", help="print the optimal estimator tables")
    p.add_argument("file")
    p.add_argument("--px", type=_px, required=True)

    p = sub.add_parser("region", help="sweep designs and print frontier CSV")
    p.add_argument("file")
    p.add_argument("--mode", choices=regions.MODES, required=True)
    p.add_argument("--grid", type=_count("grid_step"), default=16)
    p.add_argument("--samples", type=_count("n_samples"), default=16)
    p.add_argument("--seed", type=_count("seed"), default=0)
    p.add_argument("--threads", type=_count("threads"), default=1,
                   help="accepted for compatibility; evaluation is serial")
    p.add_argument("--out")

    p = sub.add_parser("example", help="closed-form binary example sweep CSV")
    p.add_argument("--q", type=_probability, required=True)
    p.add_argument("--alpha", type=_probability, required=True)
    p.add_argument("--grid", type=_count("grid_step"), default=64)
    p.add_argument("--out")

    p = sub.add_parser("baseline", help="time-sharing separation baseline CSV")
    p.add_argument("--q", type=_probability, required=True)
    p.add_argument("--alpha", type=_probability, required=True)
    p.add_argument("--grid", type=_count("grid_step"), default=64)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="Monte-Carlo check of the distortions")
    p.add_argument("file")
    p.add_argument("--px", type=_px, required=True)
    p.add_argument("--n", type=_count("n"), required=True)
    p.add_argument("--seed", type=_count("seed"), default=0)
    p.add_argument("--tol", type=_tolerance, required=True)

    p = sub.add_parser("crosscheck", help="closed form vs tensor evaluation")
    p.add_argument("--q", type=_probability, required=True)
    p.add_argument("--alpha", type=_probability, required=True)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--tol", type=_tolerance, required=True)

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:  # a decode error has no strerror
        reason = getattr(e, "strerror", None) or e
        raise JcasError(f"cannot read {path}: {reason}") from None


def _read_spec(path: str):
    return parse_channel_spec(_read_text(path))


def _cmd_validate(ns) -> tuple[str, int]:
    # Schema-only parse so that probabilistic findings are all reported
    # together rather than stopping at the first violation.
    spec = parse_channel_document(_read_text(ns.file))
    report = validate(spec)
    if report.is_valid:
        return "OK\n", 0
    lines = [f"{f.location}: {f.message} (magnitude {_fmt(f.magnitude)})"
             for f in report.findings]
    return "\n".join(lines) + "\n", 1


def _cmd_classify(ns) -> tuple[str, int]:
    spec = _read_spec(ns.file)
    cls = classify_degradedness(spec, ns.tol)
    lines = [
        cls.kind.value,
        f"residual_phys={_fmt(cls.residual_phys)}",
        f"residual_rev={_fmt(cls.residual_rev)}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_estimator(ns) -> tuple[str, int]:
    spec = _read_spec(ns.file)
    (table1, table2), (d1, d2) = _both_receivers(spec, ns.px)
    lines = ["x,y1,y2,shat1,shat2"]
    for (x, y1, y2), shat1 in np.ndenumerate(table1):
        lines.append(f"{x},{y1},{y2},{shat1},{table2[x, y1, y2]}")
    lines += [f"expected_d1,{_fmt(d1)}", f"expected_d2,{_fmt(d2)}"]
    return "\n".join(lines) + "\n", 0


def _cmd_region(ns) -> tuple[str, int]:
    spec = _read_spec(ns.file)
    cfg = regions.SearchConfig(
        mode=ns.mode, grid_step=ns.grid, n_samples=ns.samples, seed=ns.seed)
    if ns.mode in ("ps_outer", "single_outer"):
        print("note: sampled outer-bound sweep is a necessary-condition "
              "envelope, not a converse region", file=sys.stderr)
    points = regions.sweep_region(spec, cfg)
    lines = ["mode,design_tag,r1,r2,r,d1,d2"]
    for p in points:
        lines.append(",".join([
            ns.mode, p.design_tag,
            _fmt(p.r1), _fmt(p.r2), _fmt(p.r), _fmt(p.d1), _fmt(p.d2)]))
    return "\n".join(lines) + "\n", 0


def _cmd_example(ns) -> tuple[str, int]:
    pts = binary_example.closed_form_sweep(ns.q, ns.alpha, ns.grid)
    lines = ["q,alpha,p,r,d1,d2"]
    for pt in pts:
        lines.append(",".join(
            _fmt(v) for v in (pt.q, pt.alpha, pt.p, pt.r, pt.d1, pt.d2)))
    return "\n".join(lines) + "\n", 0


def _cmd_baseline(ns) -> tuple[str, int]:
    pts = binary_example.separation_baseline(ns.q, ns.alpha, ns.grid)
    lines = ["q,alpha,p,r,d1,d2,lambda"]
    for pt in pts:
        lines.append(",".join(
            _fmt(v) for v in (pt.q, pt.alpha, pt.p, pt.r, pt.d1, pt.d2, pt.lam)))
    return "\n".join(lines) + "\n", 0


def _cmd_simulate(ns) -> tuple[str, int]:
    spec = _read_spec(ns.file)
    report = simulator.verify_distortion(spec, ns.px, ns.n, ns.seed, ns.tol)
    lines = [
        f"n={report.n} seed={report.seed} tol={_fmt(report.tol)}",
        f"d1 analytic={_fmt(report.analytic[0])} "
        f"empirical={_fmt(report.empirical[0])} stderr={_fmt(report.stderr[0])}",
        f"d2 analytic={_fmt(report.analytic[1])} "
        f"empirical={_fmt(report.empirical[1])} stderr={_fmt(report.stderr[1])}",
        "PASS" if report.passed else "FAIL",
    ]
    return "\n".join(lines) + "\n", 0 if report.passed else 1


def _cmd_crosscheck(ns) -> tuple[str, int]:
    report = binary_example.crosscheck(ns.q, ns.alpha, ns.p, ns.tol)
    lines = [
        "PASS" if report.passed else "FAIL",
        f"closed_form r={_fmt(report.closed_form[0])} "
        f"d1={_fmt(report.closed_form[1])} d2={_fmt(report.closed_form[2])}",
        f"region r={_fmt(report.region[0])} "
        f"d1={_fmt(report.region[1])} d2={_fmt(report.region[2])}",
        f"max_abs_dev={_fmt(report.max_abs_dev)} tol={_fmt(report.tol)}",
    ]
    return "\n".join(lines) + "\n", 0 if report.passed else 1


_DISPATCH = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "estimator": _cmd_estimator,
    "region": _cmd_region,
    "example": _cmd_example,
    "baseline": _cmd_baseline,
    "simulate": _cmd_simulate,
    "crosscheck": _cmd_crosscheck,
}


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jcas-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise JcasError(f"cannot write {out}: {e.strerror}") from None


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:  # 2 for a usage error, 0 for --help
        return e.code
    try:
        text, rc = _DISPATCH[ns.subcommand](ns)
        _write_output(text, getattr(ns, "out", None))
    except JcasError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return rc


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
