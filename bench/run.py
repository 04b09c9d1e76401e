"""Benchmark of the jcas-regions program.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-3ary --seed 0 --seconds 30 --trace 0

Each run generates its inputs from ``--seed`` under ``.bench_run/``, starts
a fresh workload process (``worker.py``) that imports the package from
``src/`` and repeats the workload for ``--seconds``, checks every output,
and prints one line per metric followed by a JSON summary as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with span wrappers (half the time each) and
reports the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent

#: Extra fresh processes that only set up, for the median of ``setup_s``.
SETUP_PROBES = 9

#: A workload process that runs longer than this is killed.
WORKER_TIMEOUT_S = 160

TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99, 99.999)


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                   help="'smoke' shrinks every workload for the smoke test")
    p.add_argument("--reference", type=Path, default=BENCH / "reference",
                   help="directory of stored reference outputs")
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the seed's reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Runner:
    """Starts workload processes for one plan in one work directory."""

    def __init__(self, plan, work: Path, src: Path):
        self.plan = plan
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        # One BLAS thread; with the sweep's own --threads 2 pool the process
        # stays within the two cores.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.log = work / "worker.log"
        self._n = 0

    def _spawn(self, mode: str, seconds: float, trace: Path | None = None):
        self._n += 1
        plan_file = self.work / f"plan-{self._n}.json"
        result = self.work / f"result-{self._n}.json"
        self.plan.write_plan(plan_file, seconds, result, trace)
        t_spawn = time.monotonic()
        try:
            with open(self.log, "ab") as err:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), str(plan_file), mode],
                    cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                    stderr=err, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            tail = self.log.read_text(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"workload process exited with status "
                             f"{proc.returncode}: " + " | ".join(tail))
        return t_spawn, proc.stdout, result

    def setup_time(self) -> float:
        t_spawn, stdout, _ = self._spawn("setup", 0.0)
        return json.loads(stdout)["ready"] - t_spawn

    def run(self, seconds: float, trace: Path | None = None):
        t_spawn, _, result = self._spawn("run" if trace is None else "trace",
                                         seconds, trace)
        res = json.loads(result.read_text(encoding="utf-8"))
        return res["ready"] - t_spawn, res


class Verdict:
    """Checks of one workload process's outputs."""

    def __init__(self, plan, res, reference, seed0_reference):
        calls = plan.calls
        passes = len(res["passes"])
        outputs = res["outputs"]
        self.attempted = passes * len(calls)
        failed = {tuple(e) for e in res["errors"]} | {tuple(u) for u in res["unstable"]}
        self.byte_mismatch = 0
        self.texts: dict[str, str] = {}
        positions: dict[str, list[int]] = {}
        where = {id(c): i for i, c in enumerate(calls)}

        for group, members in plan.groups().items():
            pos = [where[id(c)] for c in members]
            positions[group] = pos
            kind, check = members[0]["kind"], members[0]["check"]
            oracle = checks.ORACLES[check]
            if kind == "cli":
                text = outputs[pos[0]]
                bad = set() if oracle(text, members[0]["args"], plan) else {0}
            else:
                text = "\n".join(outputs[i] for i in pos) + "\n"
                bad = {k for k, (c, i) in enumerate(zip(members, pos))
                       if not oracle(outputs[i], c["args"], plan)}
            ref = (reference or {}).get(group)
            seed0 = (seed0_reference or {}).get(group)
            if ref is None and group in plan.seed_free:
                ref = seed0
            if ref is not None:
                if checks.sha256(text) != ref["sha256"]:
                    mismatched = checks.numeric_mismatches(text, ref["text"])
                    if mismatched:
                        bad |= mismatched
                    else:
                        self.byte_mismatch += 1
            elif check == "region" and seed0 is not None \
                    and not checks.same_region(text, seed0["text"]):
                bad.add(0)
            self.texts[group] = text
            for k in bad:
                for p in range(passes):
                    failed.add((p, pos[min(k, len(pos) - 1)]))

        for group, other in plan.same_as.items():
            if self.texts.get(group) != self.texts.get(other):
                for p in range(passes):
                    failed.add((p, positions[group][0]))
        self.failed = len(failed)
        self.bytes_out = sum(len(self.texts[g].encode("utf-8"))
                             for g, members in plan.groups().items()
                             if members[0]["kind"] == "cli")


def _median_wall(res) -> float:
    return statistics.median(p["wall"] for p in res["passes"])


def _percentile_line(latencies: list[float]) -> str:
    n = len(latencies)
    tail = [p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10]
    if not tail:
        return f"call latency tail: fewer than 100 samples (n={n})"
    p = tail[-1]
    return (f"call latency tail: p{p:g} = "
            f"{float(np.percentile(latencies, p)) * 1e6:.1f} us (n={n})")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "jcas_regions" / "__init__.py").is_file():
        print("error: src/jcas_regions not found; run from the root of a "
              "jcas-regions checkout", file=sys.stderr)
        return 2

    plan = inputs.build(args.workload, args.seed, args.size)
    runs = root / ".bench_run"
    work = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan.write_inputs(work)
        runner = Runner(plan, work, src)
        reference = None if args.record else \
            checks.load_reference(args.reference, args.workload, args.seed)
        seed0_reference = checks.load_reference(args.reference, args.workload, 0) \
            if args.seed != 0 else reference

        metrics: dict[str, tuple[float, str]] = {}
        if args.trace == 0:
            setups = [runner.setup_time() for _ in range(SETUP_PROBES)]
            ready, res = runner.run(args.seconds)
            setups.append(ready)
            verdicts = [Verdict(plan, res, reference, seed0_reference)]
            latencies = [t for p in res["passes"] for t in p["latencies"]]
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["wall_s"] = (_median_wall(res), "s")
            metrics["peak_rss_mb"] = (res["maxrss_kb"] / 1024, "MB")
            p50, p90 = np.percentile(latencies, [50, 90]) * 1e6
            metrics["call_p90_us"] = (float(p90), "us")
            # The median call is printed but is not a metric: when the host
            # alternates between a fast and a slow speed, the median falls
            # between the two modes and moves by more than any allowed bound
            # from run to run.
            info = [f"passes: {len(res['passes'])}, calls per pass: {len(plan.calls)}",
                    f"call_p50_us = {p50:.6g} us (information)",
                    _percentile_line(latencies)]
        else:
            trace_file = runs / f"trace-{args.workload}.npz"
            _, plain = runner.run(args.seconds / 2)
            _, traced = runner.run(args.seconds / 2, trace_file)
            verdicts = [Verdict(plan, plain, reference, seed0_reference),
                        Verdict(plan, traced, reference, seed0_reference)]
            summary = traced["trace"]
            metrics.update(tracing.layer_metrics(
                summary["file"], len(traced["passes"]),
                summary["estimator_keys"], verdicts[0].bytes_out))
            metrics["trace.overhead_frac"] = (
                _median_wall(traced) / _median_wall(plain) - 1.0, "ratio")
            info = [f"trace file: {Path(summary['file']).relative_to(root)}",
                    *(f"trace note: {n}" for n in summary["notes"])]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    byte_mismatch = sum(v.byte_mismatch for v in verdicts)
    if args.record and failed == 0:
        path = checks.save_reference(args.reference, args.workload, args.seed,
                                     verdicts[0].texts)
        info.append(f"recorded reference: {path}")

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}")
    for line in info:
        print(line)
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"csv_byte_mismatch = {byte_mismatch} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
