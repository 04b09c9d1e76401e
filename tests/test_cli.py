import json

import pytest

from jcas_regions import make_binary_multiplicative, serialize_channel_spec
from jcas_regions.cli import main


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


def test_unknown_flag_rejected(capsys, tmp_path):
    rc, _, _ = run(capsys, ["classify", write_binary_spec(tmp_path), "--bogus"])
    assert rc == 2


def test_out_of_domain_option_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["example", "--q", "1.2", "--alpha", "0.5", "--grid", "8"])
    assert rc == 2


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


def test_classify_prints_class(capsys, tmp_path):
    rc, out, _ = run(capsys, ["classify", write_binary_spec(tmp_path)])
    assert rc == 0
    assert out.splitlines()[0] == "physically-degraded"


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
