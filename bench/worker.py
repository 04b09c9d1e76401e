"""Workload process of the benchmark: one fresh interpreter per run.

Usage: ``python3 worker.py PLAN.json setup|run|trace`` with the package on
``PYTHONPATH`` and the plan's directory as the working directory.

The process imports ``jcas_regions`` and parses and validates every channel
file of the plan; that point is "ready".  ``setup`` prints the ready time
(``time.monotonic``, which the parent shares) and exits.  ``run`` then
repeats the plan's calls in passes until its time budget is spent and writes
what it saw to the plan's result file.  ``trace`` does the same with span
wrappers installed after ready; ``run`` never imports the tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def _fmt(v) -> str:
    return f"{v:.12g}"


def main(argv) -> int:
    plan_path, mode = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    from jcas_regions import binary_example, channel, cli, estimators, simulator

    specs = {}
    for path in plan["setup_files"]:
        with open(path, encoding="utf-8") as fh:
            specs[path] = channel.parse_channel_spec(fh.read())
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    # Library entry points are looked up on their modules at call time, so
    # the tracer's wrappers see the calls.
    def run_cli(args):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main(args)
        if rc != 0:
            raise RuntimeError(f"jcas exited with status {rc}")
        if "--out" not in args:
            return stdout.getvalue()
        with open(args[args.index("--out") + 1], encoding="utf-8") as fh:
            return fh.read()

    def run_crosscheck(args):
        q, alpha, p = args
        r = binary_example.crosscheck(q, alpha, p, 1e-9)
        return " ".join([_fmt(q), _fmt(alpha), _fmt(p),
                         "PASS" if r.passed else "FAIL",
                         *map(_fmt, r.closed_form + r.region),
                         _fmt(r.max_abs_dev)])

    def run_pipeline(args):
        path, px = args
        with open(path, encoding="utf-8") as fh:
            spec = channel.parse_channel_spec(fh.read())
        valid = channel.validate(spec).is_valid
        cls = channel.classify_degradedness(spec)
        parts = [path, "valid" if valid else "invalid", cls.kind.value,
                 _fmt(cls.residual_phys), _fmt(cls.residual_rev)]
        for j in (1, 2):
            est = estimators.synthesize_estimator(spec, px, j)
            parts += ["".join(map(str, est.table.ravel().tolist())),
                      _fmt(estimators.expected_distortion(spec, px, est, j))]
        return " ".join(parts)

    def run_verify(args):
        path, px, n, seed, tol = args
        r = simulator.verify_distortion(specs[path], px, n, seed, tol)
        return " ".join([path, str(n), str(seed),
                         *map(_fmt, r.analytic + r.empirical + r.stderr),
                         _fmt(tol), "PASS" if r.passed else "FAIL"])

    execute = {"cli": run_cli, "crosscheck": run_crosscheck,
               "pipeline": run_pipeline, "verify": run_verify}

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    calls = plan["calls"]
    first: list[str] = []
    passes, errors, unstable = [], [], []
    budget = plan["seconds"]
    begin = time.perf_counter()
    while True:
        latencies = []
        start = time.perf_counter()
        for idx, call in enumerate(calls):
            if tracer is not None:
                tracer.next_op()
            t0 = time.perf_counter()
            try:
                out = execute[call["kind"]](call["args"])
            except Exception as e:  # every failure is counted, none stops the run
                out = " ".join(["ERROR", type(e).__name__, *str(e).split()])
                errors.append([len(passes), idx])
            latencies.append(time.perf_counter() - t0)
            if not passes:
                first.append(out)
            elif out != first[idx]:
                unstable.append([len(passes), idx])
        passes.append({"wall": time.perf_counter() - start,
                       "latencies": latencies})
        if len(passes) == 1:
            # Peak memory of set-up plus one pass, so that it does not
            # depend on how many passes fit in the budget.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        typical = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - begin + typical > budget:
            break

    result = {
        "ready": ready,
        "passes": passes,
        "errors": errors,
        "unstable": unstable,
        "outputs": first,
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        result["trace"] = tracer.save(plan["trace"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
