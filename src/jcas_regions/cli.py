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
import functools
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


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:  # a decode error has no strerror
        reason = getattr(e, "strerror", None) or e
        raise JcasError(f"cannot read {path}: {reason}") from None


def _read_spec(path: str):
    return parse_channel_spec(_read_text(path))


def _csv(header: str, rows) -> list[str]:
    """CSV lines: ``header``, then one per row, its numbers and ``None``s (as
    empty fields) through ``_fmt``."""
    return [header] + [
        ",".join([v if isinstance(v, str) else _fmt(v) for v in row]) for row in rows]


def _cmd_validate(ns) -> tuple[list[str], int]:
    # Schema-only parse so that probabilistic findings are all reported
    # together rather than stopping at the first violation.
    spec = parse_channel_document(_read_text(ns.file))
    report = validate(spec)
    if report.is_valid:
        return ["OK"], 0
    return [f"{f.location}: {f.message} (magnitude {_fmt(f.magnitude)})"
            for f in report.findings], 1


def _cmd_classify(ns) -> tuple[list[str], int]:
    spec = _read_spec(ns.file)
    cls = classify_degradedness(spec, ns.tol)
    return [
        cls.kind.value,
        f"residual_phys={_fmt(cls.residual_phys)}",
        f"residual_rev={_fmt(cls.residual_rev)}",
    ], 0


def _cmd_estimator(ns) -> tuple[list[str], int]:
    spec = _read_spec(ns.file)
    (table1, table2), (d1, d2) = _both_receivers(spec, ns.px)
    rows = [(x, y1, y2, shat1, table2[x, y1, y2])
            for (x, y1, y2), shat1 in np.ndenumerate(table1)]
    rows += [("expected_d1", d1), ("expected_d2", d2)]
    return _csv("x,y1,y2,shat1,shat2", rows), 0


def _cmd_region(ns) -> tuple[list[str], int]:
    spec = _read_spec(ns.file)
    cfg = regions.SearchConfig(
        mode=ns.mode, grid_step=ns.grid, n_samples=ns.samples, seed=ns.seed)
    if note := regions._MODE_TABLE[ns.mode].note:
        print(f"note: {note}", file=sys.stderr)
    return _csv("mode,design_tag,r1,r2,r,d1,d2", (
        (ns.mode, p.design_tag, p.r1, p.r2, p.r, p.d1, p.d2)
        for p in regions.sweep_region(spec, cfg))), 0


def _cmd_example(ns) -> tuple[list[str], int]:
    pts = binary_example.closed_form_sweep(ns.q, ns.alpha, ns.grid)
    return _csv("q,alpha,p,r,d1,d2", (
        (pt.q, pt.alpha, pt.p, pt.r, pt.d1, pt.d2) for pt in pts)), 0


def _cmd_baseline(ns) -> tuple[list[str], int]:
    pts = binary_example.separation_baseline(ns.q, ns.alpha, ns.grid)
    return _csv("q,alpha,p,r,d1,d2,lambda", (
        (pt.q, pt.alpha, pt.p, pt.r, pt.d1, pt.d2, pt.lam) for pt in pts)), 0


def _cmd_simulate(ns) -> tuple[list[str], int]:
    spec = _read_spec(ns.file)
    report = simulator.verify_distortion(spec, ns.px, ns.n, ns.seed, ns.tol)
    return [
        f"n={report.n} seed={report.seed} tol={_fmt(report.tol)}",
        f"d1 analytic={_fmt(report.analytic[0])} "
        f"empirical={_fmt(report.empirical[0])} stderr={_fmt(report.stderr[0])}",
        f"d2 analytic={_fmt(report.analytic[1])} "
        f"empirical={_fmt(report.empirical[1])} stderr={_fmt(report.stderr[1])}",
        "PASS" if report.passed else "FAIL",
    ], 0 if report.passed else 1


def _cmd_crosscheck(ns) -> tuple[list[str], int]:
    report = binary_example.crosscheck(ns.q, ns.alpha, ns.p, ns.tol)
    return [
        "PASS" if report.passed else "FAIL",
        f"closed_form r={_fmt(report.closed_form[0])} "
        f"d1={_fmt(report.closed_form[1])} d2={_fmt(report.closed_form[2])}",
        f"region r={_fmt(report.region[0])} "
        f"d1={_fmt(report.region[1])} d2={_fmt(report.region[2])}",
        f"max_abs_dev={_fmt(report.max_abs_dev)} tol={_fmt(report.tol)}",
    ], 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcas",
        description="Secrecy-distortion regions for state-dependent joint "
                    "communication and sensing channels.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Options that several subcommands take, each declared once.  A subcommand
    # lists its options in order: a flag names a shared option, and a
    # (flag, keywords) pair adds one of its own or updates a shared one.
    shared = {
        "file": {},
        "--q": dict(type=_probability, required=True),
        "--alpha": dict(type=_probability, required=True),
        "--px": dict(type=_px, required=True),
        "--grid": dict(type=_count("grid_step"), default=64),
        "--seed": dict(type=_count("seed"), default=0),
        "--tol": dict(type=_tolerance, required=True),
        "--out": {},
    }

    def command(name: str, run, summary: str, *options) -> None:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for option in options:
            flag, own = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **{**shared.get(flag, {}), **own})

    command("validate", _cmd_validate, "check a channel file's invariants",
            "file")
    command("classify", _cmd_classify, "test physical/reverse degradedness",
            "file", ("--tol", dict(required=False, default=DEGRADEDNESS_TOL)))
    command("estimator", _cmd_estimator, "print the optimal estimator tables",
            "file", "--px")
    command("region", _cmd_region, "sweep designs and print frontier CSV",
            "file", ("--mode", dict(choices=regions.MODES, required=True)),
            ("--grid", dict(default=16)),
            ("--samples", dict(type=_count("n_samples"), default=16)),
            "--seed",
            ("--threads", dict(type=_count("threads"), default=1,
                               help="accepted for compatibility; evaluation is serial")),
            "--out")
    command("example", _cmd_example, "closed-form binary example sweep CSV",
            "--q", "--alpha", "--grid", "--out")
    command("baseline", _cmd_baseline, "time-sharing separation baseline CSV",
            "--q", "--alpha", "--grid", "--out")
    command("simulate", _cmd_simulate, "Monte-Carlo check of the distortions",
            "file", "--px", ("--n", dict(type=_count("n"), required=True)),
            "--seed", "--tol")
    command("crosscheck", _cmd_crosscheck, "closed form vs tensor evaluation",
            "--q", "--alpha", ("--p", dict(type=_probability, required=True)),
            "--tol")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call in a process: a
    parse leaves the parser as it was, and building it takes longer than
    most commands' parse."""
    return build_parser()


def _write_output(lines: list[str], out: str | None) -> None:
    """The one writer of every report: its lines, each ended by a newline."""
    text = "\n".join(lines) + "\n"
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
        ns = _parser().parse_args(argv)
    except SystemExit as e:  # 2 for a usage error, 0 for --help
        return e.code
    try:
        lines, rc = ns.run(ns)
        _write_output(lines, getattr(ns, "out", None))
    except JcasError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return rc


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
