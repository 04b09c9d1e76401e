import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jcas_regions
from jcas_regions import (errors, make_binary_multiplicative, serialize_channel_spec,
                          swap_receivers)
from jcas_regions import binary_example, cli, info, regions, simulator
from jcas_regions.cli import build_parser, main
from conftest import random_channel_spec


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


# SHA-256 of `jcas example` and `jcas baseline` stdout at four (q, alpha, grid)
# points, the bytes an array form of the closed form must keep: `.12g` shows
# a last-bit change only at some points, so several grids and laws pin them
_EXAMPLE_SHA256 = {
    ("0.5", "0.5", "64"): ("3909449929505c5671ccb6fa759ebea136f47a2fd9e2d3dfd8d000b4084c257f",
                           "464665d47dad14c8652b05f3f3479deb64987e8fc2a6b53d746e63cd0a546f86"),
    ("0.3", "0.7", "999"): ("4463057638b4ba2d680b95a11303ec332a40780452cc932edf66ad488651411e",
                            "409031a740d078f3f15e509eeef2d4b97c7a2372856f03303e69c13413990b61"),
    ("1", "0", "17"): ("ca8bb501abc98e595bd512c638924ad1ef8a77c02fe581c97cfddd73f7f729e8",
                       "77fa5f2f93ddf4219196eb2f0372db2b0a0ee26507c40eba2c9491cc966cede9"),
    ("0", "1", "8"): ("55fd4d597c2c89e665ca4e3053d653de226c13160f87c0e1af046080e009ba3d",
                      "218b9d8ffcec884e6f19f41a8157c634cab015bdd9eaa4bd2ac0c2f071f18f73"),
}


@pytest.mark.parametrize("q, alpha, grid", _EXAMPLE_SHA256)
def test_example_and_baseline_keep_their_bytes(capsys, q, alpha, grid):
    for command, digest in zip(("example", "baseline"), _EXAMPLE_SHA256[q, alpha, grid]):
        rc, out, err = run(capsys, [command, "--q", q, "--alpha", alpha, "--grid", grid])
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


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


@pytest.mark.parametrize("key", ["state_dist", "kernel", "d1", "d2"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["classify"], ["estimator", "--px", "0.5,0.5"],
    ["region", "--mode", "ps_inner", "--grid", "2", "--samples", "1"],
    ["simulate", "--px", "0.5,0.5", "--n", "10", "--tol", "0.5"],
], ids=["validate", "classify", "estimator", "region", "simulate"])
def test_integer_too_large_for_a_float_is_one_line_error(capsys, tmp_path, argv, key):
    doc = json.loads(serialize_channel_spec(make_binary_multiplicative(0.5, 0.5)))
    entry = doc[key]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = 10 ** 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, argv[:1] + [str(path)] + argv[1:])
    assert_one_error_line(rc, out, err, f"error: {key!r} holds a number too large")


def test_joint_past_the_cell_cap_is_one_line_error(capsys, monkeypatch, tmp_path):
    # ps_inner at the caps on five 8-symbol alphabets: 29,491,200 cells a
    # joint, past info.MAX_JOINT_CELLS, refused before any product and
    # before the estimator pass
    def no_product(*args):
        raise AssertionError("a joint was built, or the estimator pass ran")

    monkeypatch.setattr(info, "_joint_product", no_product)
    monkeypatch.setattr(regions, "_receivers", no_product)
    path = tmp_path / "chan8.json"
    path.write_text(serialize_channel_spec(
        random_channel_spec(np.random.default_rng(3), 8, 8, 8, 8, 8)))
    rc, out, err = run(capsys, ["region", str(path), "--mode", "ps_inner", "--grid", "2",
                                "--samples", "1"])
    assert_one_error_line(rc, out, err, "error: joint would have 29491200 cells")


@pytest.mark.parametrize("command", ["example", "baseline"])
def test_grid_past_the_budget_is_refused_before_any_work(capsys, monkeypatch, command):
    # with a budget of 8 points, --grid 7 (8 points) runs and --grid 8 (9)
    # ends in one error line before any point is computed
    monkeypatch.setattr(regions, "MAX_SWEEP_DESIGNS", 8)
    argv = [command, "--q", "0.5", "--alpha", "0.5", "--grid"]
    rc, out, err = run(capsys, argv + ["7"])
    assert (rc, err, len(out.splitlines())) == (0, "", 9)

    def no_work(*args):
        raise AssertionError("a point was computed")

    monkeypatch.setattr(binary_example, "closed_form_point", no_work)
    rc, out, err = run(capsys, argv + ["8"])
    assert_one_error_line(rc, out, err)
    assert "budget of 8" in err


def test_outer_bound_note_goes_to_stderr_only(capsys, tmp_path):
    # single_outer and single_exact_deg share one formula, so on a degraded
    # channel their CSVs differ only in the mode column
    spec = write_binary_spec(tmp_path)
    argv = ["region", spec, "--grid", "8", "--mode"]
    rc, outer, err = run(capsys, argv + ["single_outer"])
    assert rc == 0
    assert err == "note: outer bound on the P_X grid\n"
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


def test_parser_is_built_once_and_not_at_import():
    # importing the CLI builds nothing; main builds the parser on its first
    # call and reuses it
    code = ("from jcas_regions import cli; n = cli._parser.cache_info().currsize; "
            "cli.main(['validate', '--help']); p = cli._parser(); "
            "cli.main(['example', '--q', '0.5', '--alpha', '0.5', '--grid', '2']); "
            "print(n, cli._parser() is p)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jcas_regions.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 True"


def test_reused_parser_equals_fresh_parser_per_call(capsys, tmp_path, monkeypatch):
    # the same calls, in the same order, twice through the one parser and
    # then through a new parser each: same stdout, stderr and exit status
    spec = write_binary_spec(tmp_path)
    calls = [
        ["region", spec, "--mode", "ps_inner", "--grid", "4", "--samples", "2"],
        ["classify", spec],
        ["region", spec, "--mode", "single_outer", "--grid", "4"],
        ["crosscheck", "--q", "0.5", "--alpha", "0.5", "--p", "0.3", "--tol", "1e-9"],
        ["region", spec, "--mode", "bogus"],
        ["example", "--q", "0.5", "--alpha", "0.25", "--grid", "3"],
        ["simulate", spec, "--px", "0.5,0.5", "--n", "100", "--tol", "0.5"],
        ["region", "--help"],
        ["estimator", spec, "--px", "0.5,0.5"],
        ["baseline", "--q", "2", "--alpha", "0.5"],
        [],
        ["--help"],
    ]
    reused = [run(capsys, argv) for argv in calls + calls]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [run(capsys, argv) for argv in calls]
    assert reused == fresh + fresh
    assert {rc for rc, _, _ in fresh} == {0, 2}


@pytest.fixture(scope="module")
def simulate_channels(tmp_path_factory):
    """A binary and a 3-ary (|Y| = 9) channel file, by input alphabet size."""
    specs = {2: make_binary_multiplicative(0.3, 0.5),
             3: random_channel_spec(np.random.default_rng(5), 3, 2, 2, 3, 3)}
    paths = {}
    for nx, spec in specs.items():
        paths[nx] = tmp_path_factory.mktemp("simulate") / f"chan{nx}.json"
        paths[nx].write_text(serialize_channel_spec(spec))
    return paths


_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4).map(
        lambda p: ",".join(map(repr, p))),
    st.sampled_from(["", "-0", "1e-320", "1e400", "nan", "-inf", " 0.5", "0x1p-1", "1_0",
                     "½", "abc", "1e3", "1.5", "-1", "0.5,,0.5", "0,1e-320,1", "1,0,0,0"]),
    st.text(max_size=8),
)


def _ends_in_a_report_or_one_error_line(argv, check_report):
    """Run main(argv) in process and return its status: a usage error
    (status 2) is argparse's usage lines and one error line, a domain error
    (status 1) is one ``error:`` line, and anything else is a report that
    ``check_report(rc, lines)`` accepts.  A traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not line.startswith("note: "))
    if rc == 2:
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: jcas {argv[0]} ")
        assert lines[-1].startswith(f"jcas {argv[0]}: error: argument ")
        assert not any("error:" in line for line in lines[:-1])
    elif err:
        assert_one_error_line(rc, out, err)
    else:
        check_report(rc, out.splitlines())
    return rc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(nx=st.sampled_from([2, 3]), p=st.lists(st.floats(0, 1), min_size=2, max_size=3),
       n=st.integers(1, 10 ** 4), seed=st.integers(0, 2 ** 70), tol=st.floats(0, 1),
       garbled=st.none() | st.sampled_from(["--px", "--n", "--seed", "--tol"]), junk=_JUNK)
@example(nx=2, p=[0.5, 0.5], n=10 ** 4, seed=0, tol=0.01, garbled=None, junk="")
@example(nx=3, p=[0.0, 0.0, 1.0], n=1, seed=0, tol=0.0, garbled=None, junk="")
@example(nx=3, p=[0.5, 0.5], n=100, seed=1, tol=0.1, garbled=None, junk="")
@example(nx=2, p=[0.5, 0.5], n=100, seed=1, tol=0.1, garbled="--n", junk="-1")
@example(nx=2, p=[0.5, 0.5], n=100, seed=1, tol=0.1, garbled="--n", junk="10001")
def test_simulate_ends_in_a_report_or_one_error_line(simulate_channels, nx, p, n, seed, tol,
                                                     garbled, junk):
    # valid options, or one of them replaced by junk; main must return,
    # never raise, and the draw budget keeps every case to 10^4 draws
    options = {"--px": ",".join(repr(v / (sum(p) or 1)) for v in p), "--n": str(n),
               "--seed": str(seed), "--tol": repr(tol)}
    if garbled:
        options[garbled] = junk

    def report(rc, lines):  # PASS with status 0 or FAIL with status 1
        assert len(lines) == 4 and lines[0].startswith(f"n={int(options['--n'])} ")
        assert (rc, lines[-1]) in ((0, "PASS"), (1, "FAIL"))

    with mock.patch.object(simulator, "MAX_DRAWS", 10 ** 4):
        _ends_in_a_report_or_one_error_line(
            ["simulate", str(simulate_channels[nx]),
             *(text for option in options.items() for text in option)], report)


@pytest.fixture(scope="module")
def region_channels(tmp_path_factory):
    """The binary channel, its receiver swap and a random 3-ary channel, by
    name, as channel files."""
    binary = make_binary_multiplicative(0.5, 0.5)
    specs = {"binary": binary, "swapped": jcas_regions.swap_receivers(binary),
             "3ary": random_channel_spec(np.random.default_rng(8), 3, 2, 2, 3, 2)}
    paths = {}
    for name, spec in specs.items():
        paths[name] = tmp_path_factory.mktemp("region") / f"{name}.json"
        paths[name].write_text(serialize_channel_spec(spec))
    return paths


@pytest.mark.parametrize("mode", regions.MODES)
@pytest.mark.parametrize("channel", ["binary", "3ary"])
def test_region_stdout_is_the_csv_of_the_sweep_points(capsys, region_channels, mode,
                                                      channel):
    # the CLI writes the points through _csv, as every other report; the
    # oracle formats each point with its own `.12g` f-strings, and the notes
    # of the two outer sweeps are spelled out here
    if channel == "binary" and mode.endswith("_rev"):
        channel = "swapped"
    path = str(region_channels[channel])
    if "_exact_" in mode and channel == "3ary":
        mode = {"ps_exact_deg": "ps_inner", "ps_exact_rev": "ps_outer",
                "single_exact_deg": "single_inner",
                "single_exact_rev": "single_outer"}[mode]
    rc, out, err = run(capsys, ["region", path, "--mode", mode, "--grid", "6",
                                "--samples", "3", "--seed", "5"])
    points = regions.sweep_region(cli._read_spec(path), regions.SearchConfig(
        mode=mode, grid_step=6, n_samples=3, seed=5))
    expect = ["mode,design_tag,r1,r2,r,d1,d2"] + [
        f"{mode},{p.design_tag},{p.r1:.12g},{p.r2:.12g},,{p.d1:.12g},{p.d2:.12g}"
        if p.r is None else f"{mode},{p.design_tag},,,{p.r:.12g},{p.d1:.12g},{p.d2:.12g}"
        for p in points]
    note = {"ps_outer": "note: sampled outer-bound sweep is a necessary-condition "
                        "envelope, not a converse region\n",
            "single_outer": "note: outer bound on the P_X grid\n"}.get(mode, "")
    assert (rc, err) == (0, note)
    assert out == "\n".join(expect) + "\n"


_REGION_JUNK = st.one_of(st.sampled_from(["", "0", "1", "-1", "nan", "1e3", "2.5", "x", "9" * 30]),
                         st.text(max_size=6))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(channel=st.sampled_from(["binary", "swapped", "3ary"]),
       mode=st.sampled_from(regions.MODES), grid=st.integers(2, 8),
       samples=st.integers(1, 4), seed=st.integers(0, 2 ** 70), threads=st.integers(1, 3),
       garbled=st.sampled_from([None] * 5 + ["--mode", "--grid", "--samples", "--seed",
                                             "--threads"]), junk=_REGION_JUNK)
@example(channel="swapped", mode="ps_exact_deg", grid=4, samples=2, seed=0, threads=1,
         garbled=None, junk="")
@example(channel="3ary", mode="ps_inner", grid=8, samples=4, seed=0, threads=1,
         garbled=None, junk="")
@example(channel="binary", mode="single_outer", grid=8, samples=1, seed=0, threads=2,
         garbled="--grid", junk="0")
def test_region_ends_in_a_frontier_or_one_error_line(region_channels, channel, mode, grid,
                                                     samples, seed, threads, garbled, junk):
    # the design budget is patched down to 40, so that larger sweeps end in
    # its one-line refusal and no case starts a large run
    options = {"--mode": mode, "--grid": str(grid), "--samples": str(samples),
               "--seed": str(seed), "--threads": str(threads)}
    if garbled:
        options[garbled] = junk

    def frontier(rc, lines):
        assert rc == 0 and lines[0] == "mode,design_tag,r1,r2,r,d1,d2" and len(lines) > 1
        assert all(line.startswith(f"{mode},px=") and line.count(",") == 6
                   for line in lines[1:])

    with mock.patch.object(regions, "MAX_SWEEP_DESIGNS", 40):
        _ends_in_a_report_or_one_error_line(
            ["region", str(region_channels[channel]),
             *(text for option in options.items() for text in option)], frontier)


_LEAF_JUNK = st.sampled_from([None, True, "0.5", "x", -1, 0, 1, 2, 0.5, -0.5, 1.5, 1e-320,
                              2 ** 70, 10 ** 400, -10 ** 400, float("nan"), float("inf"),
                              -float("inf"), [], {}, [0.5], [[0.5, 0.5]]])


@st.composite
def _channel_files(draw, texts):
    """The bytes of a channel file: one of ``texts`` as it is, or with one
    key dropped, one value replaced, one probability nudged, one alphabet
    size moved, its text cut short, or junk in its place."""
    name = draw(st.sampled_from(sorted(texts)))
    doc = json.loads(texts[name])
    kind = draw(st.sampled_from(["valid", "valid", "drop", "replace", "nudge", "resize",
                                 "truncate", "junk"]))
    if kind == "truncate":
        return texts[name][:draw(st.integers(0, len(texts[name]) - 1))].encode()
    if kind == "junk":
        return draw(st.binary(max_size=12) | st.text(max_size=12).map(str.encode))
    if kind == "resize":
        key = draw(st.sampled_from(sorted(doc["alphabets"])))
        doc["alphabets"][key] += draw(st.sampled_from([-2, -1, 1, 10 ** 6]))
    elif kind != "valid":
        # walk to a random node of one top-level entry
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (list, dict)) and draw(st.booleans()):
            parent, key = parent[key], draw(st.sampled_from(
                sorted(parent[key]) if isinstance(parent[key], dict)
                else range(len(parent[key]))))
        if kind == "drop":
            del parent[key]
        elif kind == "replace":
            parent[key] = draw(_LEAF_JUNK)
        elif isinstance(parent[key], float):
            parent[key] = parent[key] * (1 + draw(st.sampled_from([1e-12, 1e-6, 0.1])))
    return json.dumps(doc).encode()


# The text of a valid channel file, by name: the binary channel, its receiver
# swap, a random 3-ary channel and one with a single input symbol.
_REGION_FILES = {name: serialize_channel_spec(spec) for name, spec in {
    "binary": make_binary_multiplicative(0.5, 0.5),
    "swapped": swap_receivers(make_binary_multiplicative(0.5, 0.5)),
    "3ary": random_channel_spec(np.random.default_rng(8), 3, 2, 2, 3, 2),
    "1ary": random_channel_spec(np.random.default_rng(9), 1, 1, 2, 2, 1)}.items()}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=_channel_files(_REGION_FILES), mode=st.sampled_from(regions.MODES),
       grid=st.integers(2, 4), samples=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
@example(data=_REGION_FILES["swapped"].encode(), mode="ps_exact_rev", grid=4, samples=3,
         seed=0)
@example(data=_REGION_FILES["1ary"].encode(), mode="ps_inner", grid=2, samples=1, seed=0)
@example(data=b"\xff\xfe{}", mode="single_inner", grid=2, samples=1, seed=0)
@example(data=b"", mode="ps_outer", grid=2, samples=1, seed=0)
def test_region_on_any_channel_file_ends_in_a_frontier_or_one_error_line(
        tmp_path_factory, data, mode, grid, samples, seed):
    # valid and malformed channel files through every mode; the design
    # budget is patched down to 40, so no case starts a large run
    path = tmp_path_factory.getbasetemp() / "region-fuzz.json"
    path.write_bytes(data)

    def frontier(rc, lines):
        assert rc == 0 and lines[0] == "mode,design_tag,r1,r2,r,d1,d2" and len(lines) > 1
        assert all(line.startswith(f"{mode},px=") and line.count(",") == 6
                   for line in lines[1:])

    with mock.patch.object(regions, "MAX_SWEEP_DESIGNS", 40):
        rc = _ends_in_a_report_or_one_error_line(
            ["region", str(path), "--mode", mode, "--grid", str(grid),
             "--samples", str(samples), "--seed", str(seed)], frontier)
    assert rc in (0, 1)


def _file_report(command):
    """The check of a report that ``command`` prints on a channel file."""
    def report(rc, lines):
        if command == "validate":  # OK, or the findings and status 1
            assert (rc, lines) == (0, ["OK"]) or (
                rc == 1 and lines and all(" (magnitude " in line for line in lines))
        elif command == "classify":
            assert rc == 0 and len(lines) == 3
            assert lines[1].startswith("residual_phys=") and lines[2].startswith("residual_rev=")
        else:
            assert rc == 0 and lines[0] == "x,y1,y2,shat1,shat2"
            assert lines[-2].startswith("expected_d1,") and lines[-1].startswith("expected_d2,")
    return report


@pytest.mark.parametrize("command", ["validate", "classify", "estimator"])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=_channel_files(_REGION_FILES), px=st.sampled_from(["1", "0.5,0.5", "0.2,0.3,0.5"]))
@example(data=_REGION_FILES["3ary"].encode(), px="0.2,0.3,0.5")
@example(data=_REGION_FILES["1ary"].encode(), px="1")
def test_any_channel_file_ends_in_a_report_or_one_error_line(tmp_path_factory, command,
                                                             data, px):
    # the region fuzz's channel files through the other file readers
    path = tmp_path_factory.getbasetemp() / f"{command}-fuzz.json"
    path.write_bytes(data)
    argv = [command, str(path)] + (["--px", px] if command == "estimator" else [])
    rc = _ends_in_a_report_or_one_error_line(argv, _file_report(command))
    assert rc in (0, 1)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["example", "baseline"]), q=st.floats(0, 1),
       alpha=st.floats(0, 1), grid=st.integers(1, 50),
       garbled=st.sampled_from([None] * 3 + ["--q", "--alpha", "--grid"]), junk=_JUNK)
@example(command="baseline", q=0.5, alpha=0.5, grid=39, garbled=None, junk="")
@example(command="example", q=0.5, alpha=0.5, grid=40, garbled=None, junk="")
def test_example_and_baseline_end_in_a_csv_or_one_error_line(command, q, alpha, grid,
                                                             garbled, junk):
    # the point budget is patched down to 40, so a larger --grid ends in its
    # one-line refusal and no case starts a large run
    options = {"--q": repr(q), "--alpha": repr(alpha), "--grid": str(grid)}
    if garbled:
        options[garbled] = junk

    def csv(rc, lines):
        header = "q,alpha,p,r,d1,d2" + (",lambda" if command == "baseline" else "")
        assert rc == 0 and lines[0] == header
        assert len(lines) == int(options["--grid"]) + 2
        assert all(line.count(",") == header.count(",") for line in lines[1:])

    with mock.patch.object(regions, "MAX_SWEEP_DESIGNS", 40):
        _ends_in_a_report_or_one_error_line(
            [command, *(text for option in options.items() for text in option)], csv)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(channel=st.sampled_from(["binary", "swapped", "3ary"]), junk=_JUNK)
@example(channel="binary", junk="1e-9")
@example(channel="3ary", junk="1e400")
def test_classify_tol_ends_in_a_report_or_one_error_line(region_channels, channel, junk):
    # any --tol: the three-line class report, or a usage error where it is
    # no finite nonnegative number
    def report(rc, lines):
        assert rc == 0 and len(lines) == 3
        assert lines[1].startswith("residual_phys=") and lines[2].startswith("residual_rev=")

    _ends_in_a_report_or_one_error_line(
        ["classify", str(region_channels[channel]), "--tol", junk], report)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(channel=st.sampled_from(["binary", "3ary"]),
       p=st.lists(st.floats(0, 1), min_size=1, max_size=4), junk=st.none() | _JUNK)
@example(channel="3ary", p=[0.5, 0.5], junk=None)
@example(channel="binary", p=[0.0, 1.0], junk=None)
def test_estimator_ends_in_tables_or_one_error_line(region_channels, channel, p, junk):
    # a P_X of the wrong length is a domain error (status 1), one that is no
    # distribution a usage error (status 2)
    px = ",".join(repr(v / (sum(p) or 1)) for v in p) if junk is None else junk
    nx = 2 if channel == "binary" else 3

    def tables(rc, lines):
        assert rc == 0 and lines[0] == "x,y1,y2,shat1,shat2"
        assert lines[-2].startswith("expected_d1,") and lines[-1].startswith("expected_d2,")

    rc = _ends_in_a_report_or_one_error_line(
        ["estimator", str(region_channels[channel]), "--px", px], tables)
    if junk is None and len(p) != nx and sum(p) > 0:
        assert rc == 1


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(values=st.lists(st.floats(0, 1) | st.sampled_from([0.0, 1.0, 0.5, -0.5, 1.5]),
                       min_size=4, max_size=4),
       garbled=st.sampled_from([None] * 4 + ["--q", "--alpha", "--p", "--tol"]), junk=_JUNK)
@example(values=[0.5, 0.5, 0.5, 1e-9], garbled=None, junk="")
@example(values=[1.0, 1.0, 0.0, 0.0], garbled=None, junk="")
def test_crosscheck_ends_in_a_report_or_one_error_line(values, garbled, junk):
    options = dict(zip(["--q", "--alpha", "--p", "--tol"], map(repr, values)))
    if garbled:
        options[garbled] = junk

    def report(rc, lines):
        assert len(lines) == 4 and (rc, lines[0]) in ((0, "PASS"), (1, "FAIL"))

    _ends_in_a_report_or_one_error_line(
        ["crosscheck", *(text for option in options.items() for text in option)], report)
