"""Spans around the calls into each layer of ``jcas_regions``, installed from
outside the package.

:meth:`Tracer.install` replaces the module attributes that callers look up
with timing wrappers.  A name a later refactor removes is reported in the
trace notes and records zero calls; it never stops the run.  Each span holds
its id, name, start, end, parent, thread and operation, plus up to two
amounts measured at the boundary (joint cells, points in and out, draws).
Spans stay in memory and are written to a side file when the run ends.
:func:`layer_metrics` turns that file into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from array import array
from time import perf_counter

import numpy as np

ID, NAME, START, END, PARENT, THREAD, OP, A, B = range(9)

EVALUATORS = (
    "inner_bound_ps", "outer_bound_ps", "exact_region_degraded_ps",
    "exact_region_reverse_ps", "inner_bound_single", "outer_bound_single",
    "exact_region_degraded_single", "exact_region_reverse_single",
)


def _points(result):
    return len(result) if isinstance(result, list) else 1


# (module, attribute, span name, amounts(args, result) -> (a, b))
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_channel_spec", "channel.parse", None),
    ("channel", "parse_channel_spec", "channel.parse", None),
    ("channel", "validate", "channel.validate", None),
    ("channel", "classify_degradedness", "channel.classify", None),
    ("regions", "classify_degradedness", "channel.classify", None),
    ("regions", "sweep_region", "regions.sweep", None),
    ("regions", "pareto_filter", "regions.pareto",
     lambda args, r: (len(args[0]), len(r))),
    *[("regions", name, f"regions.eval.{name}",
       lambda args, r: (_points(r), 0)) for name in EVALUATORS],
    ("regions", "build_joint", "info.build_joint",
     lambda args, r: (r.probs.size, 0)),
    ("regions", "mutual_information", "info.mutual_information", None),
    ("regions", "entropy", "info.entropy", None),
    ("info", "entropy", "info.entropy", None),
    ("info", "marginalize", "info.marginalize",
     lambda args, r: (args[0].probs.nbytes, 0)),
    ("regions", "synthesize_estimator", "estimators.synthesize", None),
    ("simulator", "synthesize_estimator", "estimators.synthesize", None),
    ("estimators", "synthesize_estimator", "estimators.synthesize", None),
    ("regions", "expected_distortion", "estimators.expected_distortion", None),
    ("simulator", "expected_distortion", "estimators.expected_distortion", None),
    ("estimators", "expected_distortion", "estimators.expected_distortion", None),
    ("binary_example", "crosscheck", "binary_example.crosscheck", None),
    ("binary_example", "exact_region_degraded_single",
     "binary_example.exact_region_degraded_single", None),
    ("simulator", "sample_run", "simulator.sample_run",
     lambda args, r: (r.n, 0)),
    ("simulator", "verify_distortion", "simulator.verify_distortion", None),
]


class Tracer:
    """In-memory span recorder.  Create it on the thread that issues the
    benchmark's calls; spans opened on other threads with nothing open there
    take that thread's innermost open span as parent."""

    def __init__(self):
        self.names: list[str] = []
        self.notes: list[str] = []
        self.op = -1
        self._ids = itertools.count()
        self._spans = array("d")
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        # estimator tables requested per operation: (op, P_X, j)
        self._estimator_keys: set = set()

    def next_op(self) -> None:
        self.op += 1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self, package: str = "jcas_regions") -> None:
        for module_name, attr, name, amounts in TARGETS:
            self._name_id(name)
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.notes.append(f"{module_name}.{attr} not found: "
                                  f"{name} records no calls there")
                continue
            if name == "estimators.synthesize":
                amounts = self._estimator_key
            setattr(module, attr, self.wrap(name, fn, amounts))

    def _estimator_key(self, args, result):
        p_x = np.asarray(args[1], dtype=float)
        self._estimator_keys.add((self.op, p_x.tobytes(), result.j))
        return 0, 0

    def wrap(self, name: str, fn, amounts=None):
        name_id = self._name_id(name)
        local = self._local
        main_stack = self._main_stack
        spans = self._spans
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                a = b = 0
                if amounts is not None and result is not None:
                    try:
                        a, b = amounts(args, result)
                    except Exception as e:  # a changed signature must not stop the run
                        tracer._note(f"{name}: amounts unavailable ({type(e).__name__})")
                spans.extend((sid, name_id, start, end, parent,
                              threading.get_native_id(), tracer.op, a, b))

        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def save(self, path: str) -> dict:
        """Write the spans to ``path`` (``.npz``) and return the summary the
        parent needs alongside them."""
        spans = np.frombuffer(self._spans, dtype=float).reshape(-1, 9)
        np.savez(path, spans=spans, names=np.array(self.names))
        return {"file": path, "notes": self.notes,
                "estimator_keys": len(self._estimator_keys)}


def _self_times(spans: np.ndarray) -> np.ndarray:
    """Duration minus the part of it covered by child spans.  Children on
    one thread never overlap; children on a pool's threads may, so the
    covered part is the union of the child intervals."""
    row = {sid: i for i, sid in enumerate(spans[:, ID].astype(int).tolist())}
    children: dict[int, list[tuple[float, float]]] = {}
    for p, a, b in spans[:, [PARENT, START, END]].tolist():
        if p >= 0:
            children.setdefault(int(p), []).append((a, b))
    covered = np.zeros(len(spans))
    for parent, intervals in children.items():
        intervals.sort()
        total, (lo, hi) = 0.0, intervals[0]
        for a, b in intervals[1:]:
            if a > hi:
                total += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered[row[parent]] = total + hi - lo
    return spans[:, END] - spans[:, START] - covered


def layer_metrics(path: str, passes: int, estimator_keys: int,
                  bytes_out: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass from a saved trace."""
    data = np.load(path)
    spans, names = data["spans"], [str(n) for n in data["names"]]
    ids = spans[:, ID].astype(int).tolist()
    parents = spans[:, PARENT].astype(int).tolist()
    row = {sid: i for i, sid in enumerate(ids)}
    name_list = [names[k] for k in spans[:, NAME].astype(int).tolist()]
    parent_list = [name_list[row[p]] if p >= 0 else "" for p in parents]
    name = np.array(name_list, dtype=object)
    parent_name = np.array(parent_list, dtype=object)
    dur = spans[:, END] - spans[:, START]
    self_t = _self_times(spans)

    # Spans reached from a sweep; ids grow with entry time, so a parent's
    # flag is set before any child's.
    flag = {}
    for sid, p, n in sorted(zip(ids, parents, name_list)):
        flag[sid] = n == "regions.sweep" or (p >= 0 and flag[p])
    in_sweep = np.array([flag[sid] for sid in ids], dtype=bool)

    def layer(prefix):
        return np.array([n.startswith(prefix) for n in name_list], dtype=bool)

    def named(n):
        return name == n

    def count(mask):
        return float(mask.sum()) / passes

    def total(values, mask):
        return float(values[mask].sum()) / passes

    info = layer("info.")
    info_top = info & ~np.array([p.startswith("info.") for p in parent_list],
                                dtype=bool)
    evals = layer("regions.eval.")
    designs = evals & (parent_name == "regions.sweep")
    pareto = named("regions.pareto")
    parse = named("channel.parse")
    classify = named("channel.classify")
    sample = named("simulator.sample_run")
    synth = named("estimators.synthesize")
    sweeps = count(named("regions.sweep"))

    points_in = total(spans[:, A], pareto)
    kept = total(spans[:, B], pareto)
    draws = total(spans[:, A], sample)
    sample_s = total(dur, sample)
    synth_calls = count(synth)
    return {
        "info.busy_s": (total(dur, info_top), "s"),
        "info.self_s": (total(self_t, info), "s"),
        "info.build_joint.calls": (count(named("info.build_joint")), "count"),
        "info.joint_cells": (total(spans[:, A], named("info.build_joint")), "count"),
        "info.marginalize.calls": (count(named("info.marginalize")), "count"),
        "info.bytes_reduced_computed": (
            total(spans[:, A], named("info.marginalize")), "bytes"),
        "info.entropy.calls": (count(named("info.entropy")), "count"),
        "regions.designs": (count(designs), "count"),
        "regions.raw_points": (total(spans[:, A], designs), "count"),
        "regions.eval.self_s": (total(self_t, evals & in_sweep), "s"),
        "regions.sweep.self_s": (total(self_t, named("regions.sweep")), "s"),
        "regions.pareto.points_in": (points_in, "count"),
        "regions.pareto.kept": (kept, "count"),
        "regions.pareto.kept_frac": (kept / points_in if points_in else 0.0, "ratio"),
        "regions.pareto.self_s": (total(self_t, pareto), "s"),
        "estimators.synthesize.calls": (synth_calls, "count"),
        "estimators.useful_frac": (
            estimator_keys / passes / synth_calls if synth_calls else 0.0, "ratio"),
        "estimators.self_s": (total(self_t, layer("estimators.")), "s"),
        "channel.parse.busy_s": (
            total(dur, parse & (parent_name != "channel.parse")), "s"),
        "channel.classify.calls": (count(classify), "count"),
        "channel.classify.per_sweep": (
            count(classify) / sweeps if sweeps else 0.0, "ratio"),
        "channel.classify.self_s": (total(self_t, classify), "s"),
        "binary_example.crosscheck.calls": (
            count(named("binary_example.crosscheck")), "count"),
        "binary_example.crosscheck.self_s": (
            total(self_t, named("binary_example.crosscheck")), "s"),
        "simulator.draws": (draws, "count"),
        "simulator.self_s": (total(self_t, layer("simulator.")), "s"),
        "simulator.draws_per_s": (draws / sample_s if sample_s else 0.0, "1/s"),
        "cli.self_s": (total(self_t, named("cli.main")), "s"),
        "cli.bytes_out": (float(bytes_out), "bytes"),
        "trace.spans": (float(len(spans)) / passes, "count"),
    }
