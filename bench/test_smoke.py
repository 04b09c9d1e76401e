"""Smoke test of the benchmark at tiny sizes: grid 4, 2 samples, a 3^3
crosscheck lattice and 10^4 Monte-Carlo draws.

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import gzip
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "smoke",
         "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def printed(lines, name):
    """(value, unit) of a ``name = value unit`` line."""
    for line in lines:
        if line.startswith(name + " = "):
            value, unit = line[len(name) + 3:].split()[:2]
            return float(value), unit
    raise AssertionError(f"{name} was not printed")


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference")
    for workload in WORKLOADS:
        _, result = result_of(run("--workload", workload, "--seed", "0",
                                  "--reference", str(directory), "--record"))
        assert result["correct"]
    return directory


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(reference, workload, trace):
    lines, result = result_of(run("--workload", workload, "--seed", "0",
                                  "--trace", trace, "--reference", str(reference)))
    expected = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed(lines, m["name"])[1] == m["unit"]
        if m["unit"] == "s":  # every layer is reached, so no time reads 0
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert printed(lines, "failed_frac") == (0.0, "ratio")
    assert printed(lines, "csv_byte_mismatch") == (0.0, "count")


def edited_reference(reference: Path, target: Path, edit) -> Path:
    """Copy of the references with the sweep-3ary output rewritten by
    ``edit`` and its hash updated to match."""
    shutil.copytree(reference, target)
    path = target / "sweep-3ary" / "seed-0.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    lines = doc["ps_inner"]["text"].splitlines()
    row = lines[1].split(",")
    row[-1] = edit(row[-1])
    lines[1] = ",".join(row)
    checks.save_reference(target, "sweep-3ary", 0,
                          {**{g: v["text"] for g, v in doc.items()},
                           "ps_inner": "\n".join(lines) + "\n"})
    return target


def test_corrupted_reference_fails(reference, tmp_path):
    corrupted = edited_reference(reference, tmp_path / "ref",
                                 lambda v: repr(float(v) + 1e-3))
    lines, result = result_of(run("--workload", "sweep-3ary", "--seed", "0",
                                  "--reference", str(corrupted)))
    assert printed(lines, "failed_frac")[0] > 0
    assert not result["correct"] and result["failed"] > 0


def test_byte_only_change_is_counted(reference, tmp_path):
    # "+0.25" and "0.25" are the same number in different bytes
    changed = edited_reference(reference, tmp_path / "ref", lambda v: "+" + v)
    lines, result = result_of(run("--workload", "sweep-3ary", "--seed", "0",
                                  "--reference", str(changed)))
    assert printed(lines, "csv_byte_mismatch")[0] >= 1
    assert printed(lines, "failed_frac")[0] == 0 and result["correct"]


def test_relabelled_seed_checked_against_seed_zero(reference):
    _, result = result_of(run("--workload", "sweep-binary", "--seed", "5",
                              "--reference", str(reference)))
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "call-mix", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_removed_name_records_no_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from jcas_regions import binary_example, simulator

    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"jcas_regions.{module_name}")
        # install() rebinds these; monkeypatch restores them afterwards
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.delattr(simulator, "sample_run")  # as if a refactor removed it

    tracer = tracing.Tracer()
    tracer.install()
    tracer.next_op()
    assert binary_example.crosscheck(0.5, 0.5, 0.5, 1e-9).passed
    summary = tracer.save(str(tmp_path / "trace.npz"))

    assert any("simulator.sample_run" in n for n in summary["notes"])
    metrics = tracing.layer_metrics(summary["file"], 1,
                                    summary["estimator_keys"], 0)
    assert metrics["simulator.draws"] == (0.0, "count")
    assert metrics["binary_example.crosscheck.calls"] == (1.0, "count")
    assert metrics["info.build_joint.calls"][0] >= 1
