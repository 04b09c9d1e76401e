import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import jcas_regions
from jcas_regions import (errors, make_binary_multiplicative, serialize_channel_spec,
                          swap_receivers)
from jcas_regions.cli import build_parser, main


def write_binary_spec(tmp_path, q=0.5, alpha=0.5):
    path = tmp_path / "chan.json"
    path.write_text(serialize_channel_spec(make_binary_multiplicative(q, alpha)))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 2
    assert "usage" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--bogus"],
    # time-sharing mixtures of printed rows add nothing, so the flag is gone
    ["region", "--mode", "single_exact_deg", "--convexify"],
], ids=["classify-bogus", "region-convexify"])
def test_unknown_flag_rejected(capsys, tmp_path, argv):
    rc, _, _ = run(capsys, argv[:1] + [write_binary_spec(tmp_path)] + argv[1:])
    assert rc == 2


def test_usage_errors_have_no_exception_class():
    # argparse exits with status 2 by itself, so nothing raises a UsageError
    assert not hasattr(jcas_regions, "UsageError")
    assert not hasattr(errors, "UsageError")
    assert "UsageError" not in jcas_regions.__all__


def test_out_of_domain_option_is_usage_error(capsys, tmp_path):
    rc, _, _ = run(capsys, ["example", "--q", "1.2", "--alpha", "0.5", "--grid", "8"])
    assert rc == 2
    spec = write_binary_spec(tmp_path)
    for argv in (["example", "--q", "0.5", "--alpha", "0.5", "--grid", "1"],
                 ["region", spec, "--mode", "ps_inner", "--grid", "1"],
                 ["region", spec, "--mode", "ps_inner", "--samples", "0"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert argv[-2] in err


@pytest.mark.parametrize("option, value, message", [
    ("--grid", "1", "grid_step must be at least 2, got 1"),
    ("--samples", "0", "n_samples must be at least 1, got 0"),
    ("--seed", "-1", "seed must be at least 0, got -1"),
    ("--threads", "0", "threads must be at least 1, got 0"),
    ("--n", "0", "n must be at least 1, got 0"),
])
def test_integer_options_use_library_rules(capsys, tmp_path, option, value, message):
    # the library raises the same message for the same value
    spec = write_binary_spec(tmp_path)
    argv = ["simulate", spec, "--px", "0.5,0.5", "--tol", "0.1"] if option == "--n" \
        else ["region", spec, "--mode", "ps_inner"]
    rc, out, err = run(capsys, argv + [option, value])
    assert (rc, out) == (2, "")
    assert f"argument {option}: {message}" in err


def test_validate_ok(capsys, tmp_path):
    rc, out, _ = run(capsys, ["validate", write_binary_spec(tmp_path)])
    assert rc == 0
    assert out == "OK\n"


def test_validate_reports_findings(capsys, tmp_path):
    spec = make_binary_multiplicative(0.5, 0.5)
    doc = json.loads(serialize_channel_spec(spec))
    doc["state_dist"][0][0] = 0.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, ["validate", str(path)])
    assert rc == 1
    assert "state_dist" in out


@pytest.mark.parametrize("array", ["state_dist", "kernel"])
def test_nonfinite_probability_rejected(capsys, tmp_path, array):
    doc = json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))
    if array == "state_dist":
        doc["state_dist"][1][0] = float("nan")
    else:
        doc["kernel"][0][1][1][3] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the bare token NaN
    rc, out, _ = run(capsys, ["validate", str(path)])
    assert rc == 1
    assert "is not finite" in out.splitlines()[0]
    for argv in (["classify", str(path)],
                 ["region", str(path), "--mode", "ps_inner", "--grid", "4"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not finite" in err


@pytest.mark.parametrize("array, values, finding", [
    ("state_dist", (float("inf"), float("-inf")), "[0][1] = -inf is not finite"),
    ("kernel", (float("inf"), float("-inf")), "[1] = -inf is not finite"),
    ("kernel", (1e308, 1e308), "sums to inf, off by inf"),
], ids=["state-infs", "kernel-infs", "kernel-overflow"])
def test_row_summing_to_nan_or_overflowing_prints_no_warning(tmp_path, array, values,
                                                             finding):
    # Infinity and -Infinity in one row sum to NaN, and two entries of 1e308
    # overflow; the checks must say so without a numpy warning or a numpy
    # scalar repr, so the commands run in a fresh interpreter whose stderr
    # is the user's
    doc = json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))
    row = doc["state_dist"][0] if array == "state_dist" else doc["kernel"][1][0][1]
    row[:2] = values
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # json writes the bare tokens
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jcas_regions.__file__)))

    def jcas(*argv):
        done = subprocess.run(
            [sys.executable, "-c", "from jcas_regions.cli import entrypoint; entrypoint()",
             *argv], capture_output=True, text=True, env=env, timeout=60)
        assert "np.float64(" not in done.stdout + done.stderr
        assert "Warning" not in done.stdout + done.stderr
        return done.returncode, done.stdout, done.stderr

    rc, out, err = jcas("validate", str(path))
    assert (rc, err) == (1, "")
    assert finding in out
    assert_one_error_line(*jcas("classify", str(path)))


def test_classify_prints_class(capsys, tmp_path):
    rc, out, _ = run(capsys, ["classify", write_binary_spec(tmp_path)])
    assert rc == 0
    assert out.splitlines()[0] == "physically-degraded"


@pytest.mark.parametrize("argv", [
    ["estimator", "{spec}", "--px", "nan,1"],
    ["classify", "{spec}", "--tol", "nan"],
    ["simulate", "{spec}", "--px", "0.5,0.5", "--n", "100", "--tol", "inf"],
    ["crosscheck", "--q", "0.5", "--alpha", "0.5", "--p", "0.5", "--tol", "nan"],
    ["example", "--q", "nan", "--alpha", "0.5"],
], ids=["estimator-px", "classify-tol", "simulate-tol", "crosscheck-tol", "example-q"])
def test_nonfinite_option_is_usage_error(capsys, tmp_path, argv):
    # NaN fails every comparison and nothing bounded inf, so these used to
    # run: the first three exited 0, crosscheck printed FAIL
    spec = write_binary_spec(tmp_path)
    rc, out, _ = run(capsys, [a.format(spec=spec) for a in argv])
    assert rc == 2
    assert out == ""


def test_estimator_table(capsys, tmp_path):
    rc, out, _ = run(capsys,
                     ["estimator", write_binary_spec(tmp_path, q=0.3), "--px", "0.5,0.5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,y1,y2,shat1,shat2"
    assert "expected_d1,0.15" in out


def test_region_csv_header(capsys, tmp_path):
    rc, out, _ = run(capsys, [
        "region", write_binary_spec(tmp_path), "--mode", "single_exact_deg",
        "--grid", "8", "--samples", "2", "--seed", "1"])
    assert rc == 0
    assert out.splitlines()[0] == "mode,design_tag,r1,r2,r,d1,d2"
    assert all(line.startswith("single_exact_deg,") for line in out.splitlines()[1:])


def test_region_on_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    rc, _, err = run(capsys, [
        "region", str(path), "--mode", "single_exact_deg", "--grid", "8"])
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("mode", ["ps_inner", "single_outer"])
def test_region_past_the_design_budget_is_one_line_error(capsys, tmp_path, mode):
    # 10^8 + 1 grid points are refused before any of them is evaluated
    start = time.perf_counter()
    rc, out, err = run(capsys, [
        "region", write_binary_spec(tmp_path), "--mode", mode,
        "--grid", "100000000"])
    assert time.perf_counter() - start < 5.0
    assert (rc, out) == (1, "")
    k = 16 if mode == "ps_inner" else 1  # the default --samples, or V = X
    assert [line for line in err.splitlines() if not line.startswith("note:")] == [
        f"error: the sweep would evaluate {100000001 * k} designs (100000001 P_X "
        f"x {k} each), more than the budget of 1000000"]


def test_region_not_degraded_exit_code(capsys, tmp_path):
    spec = make_binary_multiplicative(0.5, 0.5)
    path = tmp_path / "swapped.json"
    from jcas_regions import swap_receivers
    path.write_text(serialize_channel_spec(swap_receivers(spec)))
    rc, _, err = run(capsys, [
        "region", str(path), "--mode", "single_exact_deg", "--grid", "8"])
    assert rc == 1
    assert "degraded" in err


def test_example_and_baseline_csv(capsys):
    rc, out, _ = run(capsys, ["example", "--q", "0.5", "--alpha", "0.5", "--grid", "4"])
    assert rc == 0
    assert out.splitlines()[0] == "q,alpha,p,r,d1,d2"
    assert len(out.splitlines()) == 6

    rc, out, _ = run(capsys, ["baseline", "--q", "0.5", "--alpha", "0.5", "--grid", "4"])
    assert rc == 0
    assert out.splitlines()[0] == "q,alpha,p,r,d1,d2,lambda"
    assert len(out.splitlines()) == 6


def test_simulate_pass(capsys, tmp_path):
    rc, out, _ = run(capsys, [
        "simulate", write_binary_spec(tmp_path, q=0.3), "--px", "0.5,0.5",
        "--n", "100000", "--seed", "5", "--tol", "0.01"])
    assert rc == 0
    assert out.splitlines()[-1] == "PASS"


def test_simulate_fail_exit_code(capsys, tmp_path):
    rc, out, _ = run(capsys, [
        "simulate", write_binary_spec(tmp_path, q=0.3), "--px", "0.5,0.5",
        "--n", "100", "--seed", "5", "--tol", "0.0"])
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL"


def test_crosscheck_pass(capsys):
    rc, out, _ = run(capsys, [
        "crosscheck", "--q", "0.5", "--alpha", "0.5", "--p", "0.5",
        "--tol", "1e-9"])
    assert rc == 0
    assert out.splitlines()[0] == "PASS"


def test_out_file_written_atomically(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, [
        "example", "--q", "0.5", "--alpha", "0.5", "--grid", "4",
        "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    text = out_path.read_text()
    assert text.splitlines()[0] == "q,alpha,p,r,d1,d2"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".jcas-")]
    assert leftovers == []


@pytest.mark.parametrize("argv", [
    ["region", "--mode", "ps_inner", "--grid", "4"],
    ["simulate", "--px", "0.5,0.5", "--n", "100", "--tol", "0.1"],
], ids=["region", "simulate"])
def test_negative_seed_is_usage_error(capsys, tmp_path, argv):
    argv = argv[:1] + [write_binary_spec(tmp_path)] + argv[1:] + ["--seed", "-1"]
    rc, out, _ = run(capsys, argv)
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("target", ["missing/sweep.csv", "."])
def test_unwritable_out_is_one_line_error(capsys, tmp_path, target):
    # a missing directory fails before the temporary file exists; an
    # existing directory as the target fails at the rename, after it
    rc, out, err = run(capsys, [
        "example", "--q", "0.5", "--alpha", "0.5", "--grid", "4",
        "--out", str(tmp_path / target)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".jcas-")] == []


def test_byte_identical_repeats(capsys, tmp_path):
    argv = ["region", write_binary_spec(tmp_path), "--mode", "ps_inner",
            "--grid", "4", "--samples", "2", "--seed", "11"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def assert_one_error_line(rc, out, err, start="error: "):
    assert (rc, out) == (1, "")
    assert err.startswith(start) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["region", "--mode", "single_exact_deg", "--grid", "4"],
], ids=["validate", "region"])
def test_non_utf8_file_is_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    rc, out, err = run(capsys, argv[:1] + [str(path)] + argv[1:])
    assert_one_error_line(rc, out, err, f"error: cannot read {path}: ")


def test_directory_as_file_is_one_line_error(capsys, tmp_path):
    rc, out, err = run(capsys, ["validate", str(tmp_path)])
    assert_one_error_line(rc, out, err, f"error: cannot read {tmp_path}: ")


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    json.dumps({"alphabets": {"x": 1, "s1": 1, "s2": 1, "y1": 1, "y2": 1},
                "state_dist": [["1"]], "kernel": [[[[1.0]]]]}),
    json.dumps({"alphabets": {"x": 1, "s1": 1, "s2": 1, "y1": 1, "y2": 1},
                "state_dist": [[1.0]], "kernel": [[[[True]]]]}),
    json.dumps({"alphabets": {"x": 1, "s1": 1, "s2": 1, "y1": 1, "y2": 1},
                "state_dist": [[1.0]], "kernel": None}),
], ids=["deep-nesting", "string-entry", "bool-entry", "null-kernel"])
def test_validate_schema_error_is_one_line(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["validate", str(path)])
    assert_one_error_line(rc, out, err)


def test_outer_bound_note_goes_to_stderr_only(capsys, tmp_path):
    # single_outer and single_exact_deg share one formula, so on a degraded
    # channel their CSVs differ only in the mode column
    spec = write_binary_spec(tmp_path)
    argv = ["region", spec, "--grid", "8", "--mode"]
    rc, outer, err = run(capsys, argv + ["single_outer"])
    assert rc == 0
    assert err == ("note: sampled outer-bound sweep is a necessary-condition "
                   "envelope, not a converse region\n")
    rc, exact, err = run(capsys, argv + ["single_exact_deg"])
    assert (rc, err) == (0, "")
    assert outer.encode() == exact.replace("single_exact_deg,", "single_outer,").encode()
    out_path = tmp_path / "outer.csv"
    rc, out, _ = run(capsys, argv + ["single_outer", "--out", str(out_path)])
    assert (rc, out) == (0, "")
    assert out_path.read_bytes() == outer.encode()


def _subcommands() -> dict:
    """Name to subparser, for every ``jcas`` subcommand."""
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_every_subcommand_has_a_handler(capsys, name):
    # a subcommand registered without one fails here, not in a user's traceback
    assert callable(_subcommands()[name].get_default("run"))
    rc, out, err = run(capsys, [name, "--help"])
    assert (rc, err) == (0, "")
    assert out.startswith(f"usage: jcas {name} ")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: rates are printed unquantized, so a rate that is "
    "exactly 0 prints as 1.11022302463e-16"))
def test_no_printed_rate_below_the_quantum(capsys, tmp_path):
    # X is constant at px=0|1, so every rate of those rows is exactly 0
    path = tmp_path / "swapped.json"
    path.write_text(serialize_channel_spec(
        swap_receivers(make_binary_multiplicative(0.5, 0.5))))
    rc, out, _ = run(capsys, ["region", str(path), "--mode", "ps_exact_rev",
                              "--grid", "2", "--samples", "4"])
    assert rc == 0
    rates = [float(v) for line in out.splitlines()[1:]
             for v in line.split(",")[2:5] if v]
    assert [r for r in rates if 0.0 < r < 1e-12] == []
