import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

import hofq
from hofq import cli, verify
from hofq.triangle import build_triangle
from test_verify import off_by_one_at_a_sample


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_csv(capsys):
    code, out, err = run(capsys, "compute", "--f", "floor:1/2", "--n", "16",
                         "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,q"
    assert len(lines) == 17
    assert lines[1] == "1,0,1"
    assert lines[2] == "2,1,2"


def test_compute_death_exit_code(capsys):
    code, out, err = run(capsys, "compute", "--f", "prefix:0,2,2", "--n", "3")
    assert code == 2
    assert "died at n = 3" in err
    assert "lookup index 0" in err


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--f", "one-minus-delta:1", "--n",
                       "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hofq.trace/1"
    assert doc["q"] == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6]
    assert doc["outcome"]["status"] == "exists"


def test_compute_mod_past_int64_is_the_linear_trace(capsys):
    mod = run(capsys, "compute", "--f", "mod:9223372036854775808", "--n", "5",
              "--format", "csv")
    assert mod == (0, run(capsys, "compute", "--f", "linear", "--n", "5",
                          "--format", "csv")[1], "")
    assert mod[1].splitlines()[-1] == "5,4,5"


def test_compute_bad_fspec_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--f", "wat:7", "--n", "4")
    assert code == 1 and "hofq" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "compute", "--f", "zeros", "--wat")
    assert code == 1


def test_byte_identical_reruns(capsys):
    a = run(capsys, "compute", "--f", "gamma2", "--n", "64", "--format", "csv")
    b = run(capsys, "compute", "--f", "gamma2", "--n", "64", "--format", "csv")
    assert a == b


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "all", "--n", "2000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS") for line in lines)


def test_verify_selection_json(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "golden,mod", "--n", "1000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hofq.verify/1"
    assert [r["name"] for r in doc["results"]] == ["golden", "mod"]
    assert doc["ok"] is True


def test_verify_oracle_failure_exits_3(capsys, monkeypatch):
    j = off_by_one_at_a_sample(monkeypatch, 2000)
    code, out, err = run(capsys, "verify", "--lemma", "golden-identity",
                         "--n", "2000")
    assert code == 3 and err == ""
    assert out.startswith(f"FAIL golden-identity at n = {j}: ")
    assert len(out.splitlines()) == 1 and "Traceback" not in out


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_nonpositive_n_is_a_usage_error(capsys, n):
    for lemma in ("zeros-linear", "golden-identity", "all"):
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--n", n)
        assert code == 1 and out == ""
        assert err.splitlines() == ["hofq: n_max must be >= 1"]


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "nope")
    assert code == 1 and "unknown verifier" in err


@pytest.mark.parametrize("lemma", [",", "", " , "])
def test_verify_empty_selection_is_a_usage_error(capsys, lemma):
    code, out, err = run(capsys, "verify", "--lemma", lemma, "--format",
                         "json")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["hofq: no verifier selected; known names: "
                                + ", ".join(verify.REGISTRY)]


def test_triangle_text_matches_library(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "8", "--format", "text")
    assert code == 0
    assert out.rstrip("\n") == build_triangle(8).to_text()


def test_triangle_json(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "5", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == "hofq.triangle/1"
    assert {"n": 4, "i": 1, "values": [2, 3]} in doc["cells"]


def test_triangle_depth_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "triangle", "--n", "63", "--cap", "63")
    assert code == 1 and out == ""
    assert err == "hofq: walk depth m = 63 is outside [1, 62]\n"


def test_scan_selfsim_on_constant_trace(capsys):
    code, out, _ = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "400",
                       "--shifts", "5,17", "--min-run", "10", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "shift,delta,lo,hi"
    assert rows[1] == "5,0,1,395"
    assert rows[2] == "17,0,1,383"


def test_scan_selfsim_on_dying_trace_exits_2(capsys):
    code, out, err = run(capsys, "scan-selfsim", "--f", "prefix:0,2,2", "--n",
                         "3", "--shifts", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["hofq: sequence died at n = 3 (lookup index 0)"]


def test_scan_selfsim_requires_shifts(capsys):
    code, _, err = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "100")
    assert code == 1 and "no shifts" in err


def test_scan_selfsim_shift_range(capsys):
    code, out, _ = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "100",
                       "--shift-range", "2:6:2", "--min-run", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [m["shift"] for m in doc["matches"]] == [2, 4, 6]


@pytest.mark.parametrize("shift_range", ["1:5:0", "5:1:0"])
def test_scan_selfsim_zero_step_is_a_usage_error(capsys, shift_range):
    code, out, err = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "100",
                         "--shift-range", shift_range)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"hofq: --shift-range {shift_range}: STEP must not be 0"]


def test_scan_selfsim_descending_range_includes_hi(capsys):
    scan = ("scan-selfsim", "--f", "floor:1/2", "--n", "100", "--min-run",
            "2")
    ascending = run(capsys, *scan, "--shift-range", "1:4")
    assert ascending[0] == 0
    assert {line.split(":")[0] for line in ascending[1].splitlines()} == {
        "shift 1", "shift 2", "shift 3", "shift 4"}
    assert run(capsys, *scan, "--shift-range", "4:1:-1") == ascending
    assert run(capsys, *scan, "--shift-range", "10:1:-3") == run(
        capsys, *scan, "--shifts", "1,4,7,10")


@pytest.mark.parametrize("shift_range", [
    "1:9223372036854775807", "-9223372036854775808:9223372036854775807",
    "9223372036854775807:-9223372036854775808:-1"])
def test_scan_selfsim_huge_range_is_clipped_before_it_is_built(
        capsys, shift_range):
    scan = ("scan-selfsim", "--f", "floor:1/2", "--n", "3000", "--min-run",
            "40")
    want = run(capsys, *scan, "--shift-range", "1:2999")
    assert want[0] == 0 and want[1].count("\n") > 50
    start = time.perf_counter()
    got = run(capsys, *scan, f"--shift-range={shift_range}")
    assert time.perf_counter() - start < 1.0
    assert got == want


@pytest.mark.parametrize("shift_range", [
    "200:300", "-9:0", "9223372036854775000:9223372036854775807:5",
    "0:-9223372036854775808:-1"])
def test_scan_selfsim_range_outside_the_trace_scans_nothing(capsys,
                                                            shift_range):
    # a range with members, none of them in [1, n - 1]: as --shifts 200
    code, out, err = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "100",
                         f"--shift-range={shift_range}", "--min-run", "2")
    assert (code, out, err) == (0, "no matches at this min-run\n", "")


@pytest.mark.parametrize("shift_range", ["5:1", "1:4:-1", "1:2:-5"])
def test_scan_selfsim_empty_range_gives_no_shifts(capsys, shift_range):
    code, out, err = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "100",
                         "--shift-range", shift_range)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "hofq: no shifts given (use --shifts, --shift-range or --discover)"]


@pytest.mark.parametrize("flag, value", [
    ("--shifts", "1,,2"), ("--shift-range", "1:x"),
    ("--shift-range", "1:2:3:x")])
def test_scan_selfsim_bad_number_names_its_flag(capsys, flag, value):
    code, out, err = run(capsys, "scan-selfsim", "--f", "zeros", "--n", "10",
                         flag, value)
    assert (code, out) == (1, "")
    bad = "''" if value == "1,,2" else "'x'"
    assert err.splitlines() == [f"hofq: {flag} {value}: {bad} is not an "
                                "integer"]


def test_perturb_text_and_csv(capsys):
    code, out, _ = run(capsys, "perturb", "--f", "floor:1/2", "--at", "16",
                       "--amount", "1", "--n", "512")
    assert code == 0
    assert "zero regions" in out
    code, out, _ = run(capsys, "perturb", "--f", "floor:1/2", "--at", "16",
                       "--amount", "1", "--n", "64", "--format", "csv")
    rows = out.strip().splitlines()
    assert rows[0] == "n,diff"
    assert rows[1] == "1,0"
    assert rows[16] == "16,-1"


@pytest.mark.parametrize("n, regions", [(196, 20), (197, 21)])
def test_perturb_text_shows_the_first_20_zero_regions(capsys, n, regions):
    code, out, _ = run(capsys, "perturb", "--f", "floor:1/2", "--at", "5",
                       "--amount", "2", "--n", str(n))
    lines = out.splitlines()
    shown = lines[lines.index(f"zero regions ({regions}):") + 1:]
    assert code == 0 and all(line.startswith("  [") for line in shown[:20])
    assert shown[20:] == (["  ..."] if regions > 20 else [])


def test_perturb_on_dying_base_trace_exits_2(capsys):
    code, out, err = run(capsys, "perturb", "--f", "prefix:0,2,2", "--at", "2",
                         "--amount", "1", "--n", "3")
    assert code == 2 and out == ""
    assert err.splitlines() == ["hofq: sequence died at n = 3 (lookup index 0)"]


def test_approx_on_dying_trace_exits_2(capsys):
    code, out, err = run(capsys, "approx", "--f", "prefix:0,2,2", "--n", "3",
                         "--model", "sqrt:1/2")
    assert code == 2 and out == ""
    assert err.splitlines() == ["hofq: sequence died at n = 3 (lookup index 0)"]


@pytest.mark.parametrize("model, message", [
    ("sqrt:1/0", "model 'sqrt:1/0' has a zero denominator"),
    ("power:1:1/0:1", "model 'power:1:1/0:1' has a zero denominator"),
    ("cubic:2", "unknown model 'cubic:2'"),
    ("power:1:2", "power model needs power:A:P:B"),
    ("const:1e400", "model 'const:1e400': '1e400' is not an integer"),
    ("const:", "model 'const:': '' is not an integer"),
    ("sqrt:abc", "model 'sqrt:abc': 'abc' is not a number"),
])
def test_approx_bad_model_is_a_usage_error(capsys, model, message):
    code, out, err = run(capsys, "approx", "--f", "floor:1/2", "--n", "10",
                         "--model", model)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"hofq: {message}"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, message", [
    ("power:1:1000:0", "model power:1:1000:0 leaves float64 for some n in"
                       " 1..3"),
    ("sqrt:1e400", "model 'sqrt:1e400' has a parameter that float64 does"
                   " not hold"),
    ("power:1e400:1:0", "model 'power:1e400:1:0' has a parameter that"
                        " float64 does not hold"),
    (f"const:{2**1024}", "const-limit model needs an a that float64 holds"),
])
def test_approx_model_outside_float64_is_a_usage_error(capsys, model,
                                                       message):
    code, out, err = run(capsys, "approx", "--f", "floor:1/2", "--n", "3",
                         "--model", model)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"hofq: {message}"]


def test_approx_negative_alpha_is_a_usage_error(capsys):
    code, out, err = run(capsys, "approx", "--f", "floor:1/2", "--n", "10",
                         "--model", "sqrt:-1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["hofq: sqrt model needs a finite alpha >= 0, "
                                "got alpha = -1.0"]


@pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
def test_export_figure_bad_alpha_is_a_usage_error(tmp_path, capsys, alpha):
    out_file = tmp_path / "fig.csv"
    code, out, err = run(capsys, "export-figure", "--which", "detrended",
                         "--n", "10", "--alpha", alpha, "--out", str(out_file))
    assert (code, out) == (1, "") and not out_file.exists()
    assert err.splitlines() == ["hofq: sqrt model needs a finite alpha >= 0, "
                                f"got alpha = {float(alpha)!r}"]


def test_approx_negative_const_is_a_usage_error(capsys):
    code, out, err = run(capsys, "approx", "--f", "floor:1/2", "--n", "5",
                         "--model", "const:-1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["hofq: const-limit model needs a >= 0, "
                                "got a = -1"]


def test_export_approach_a_below_one_is_a_usage_error(tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    code, out, err = run(capsys, "export-figure", "--which", "approach",
                         "--f", "floor:1/2", "--n", "3", "--a", "0",
                         "--out", str(out_file))
    assert (code, out) == (1, "") and not out_file.exists()
    assert err.splitlines() == ["hofq: const-limit model needs a >= 0, "
                                "got a = -1"]


def test_approx_text_and_json(capsys):
    code, out, _ = run(capsys, "approx", "--f", "floor:1/2", "--model",
                       "sqrt:1/2", "--n", "4000")
    assert code == 0 and "max |error|" in out
    code, out, _ = run(capsys, "approx", "--f", "floor:1/2", "--model",
                       "sqrt:1/2", "--n", "4000", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == "hofq.approx/1"
    assert doc["max_abs_error"] > 0


def test_export_figure(tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    code, _, err = run(capsys, "export-figure", "--which", "fig2", "--n", "32",
                       "--out", str(out_file))
    assert code == 0
    assert "wrote 32 rows" in err
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "detrended"]
    assert len(rows) == 33


@pytest.mark.parametrize("which", ["detrended", "approach"])
def test_export_figure_on_dying_trace_exits_2(tmp_path, capsys, which):
    out_file = tmp_path / "fig.csv"
    code, out, err = run(capsys, "export-figure", "--which", which, "--f",
                         "prefix:0,2,2", "--n", "3", "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert err.splitlines() == ["hofq: sequence died at n = 3 (lookup index 0)"]


@pytest.mark.parametrize("which", ["trace", "detrended", "perturbation"])
def test_export_figure_zero_n_is_a_usage_error(tmp_path, capsys, which):
    out_file = tmp_path / "fig.csv"
    code, out, err = run(capsys, "export-figure", "--which", which, "--f",
                         "zeros", "--n", "0", "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err.splitlines() == ["hofq: n_max must be >= 1"]


def test_export_figure_trace_keeps_dying_trace(tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    code, _, err = run(capsys, "export-figure", "--which", "trace", "--f",
                       "prefix:0,2,2", "--n", "3", "--out", str(out_file))
    assert code == 0 and "wrote 2 rows" in err
    assert out_file.read_bytes() == b"n,q,f\r\n1,1,0\r\n2,3,2\r\n"


def test_hofstadter_variants(capsys):
    code, out, _ = run(capsys, "hofstadter", "--variant", "hof", "--n", "1000")
    assert code == 0 and "exists up to 1000" in out
    code, out, _ = run(capsys, "hofstadter", "--variant", "tanny", "--n", "500",
                       "--format", "csv")
    rows = out.strip().splitlines()
    assert rows[0] == "n,q"
    assert rows[1] == "0,1"  # start index 0
    code, out, _ = run(capsys, "hofstadter", "--variant", "quasipoly", "--n",
                       "100", "--format", "json")
    doc = json.loads(out)
    assert doc["start"] == 3 and doc["q"][13 - 3] == 8


def test_out_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "compute", "--f", "zeros", "--n", "4",
                       "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "n,f,q"


def test_config_file_defaults_and_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 5, "format": "csv"}))
    code, out, _ = run(capsys, "--config", str(conf), "compute", "--f", "zeros")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + 5 rows from config
    code, out, _ = run(capsys, "--config", str(conf), "compute", "--f", "zeros",
                       "--n", "3")
    assert len(out.strip().splitlines()) == 4  # explicit flag wins


def test_cached_parser_keeps_nothing_between_calls(tmp_path, capsys):
    """The parser is built once and reused: a flag, a usage error or a
    --config file of one call leaves nothing behind for the next."""
    plain = ("compute", "--f", "zeros", "--format", "csv")
    cli.build_parser.cache_clear()
    fresh = run(capsys, *plain)
    assert fresh[0] == 0 and len(fresh[1].splitlines()) == 17  # --n 16
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 5, "format": "text"}))
    for before in [(*plain, "--n", "7"), ("compute", "--n", "x"),
                   (*plain, "--format", "xml"), ("hofstadter", "--n", "9"),
                   ("--config", str(conf), "compute", "--f", "zeros"),
                   ("--config", str(conf), *plain, "--n", "bad")]:
        run(capsys, *before)
        assert run(capsys, *plain) == fresh


def test_parser_is_built_once_per_parser_class(monkeypatch, tmp_path,
                                               capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 5}))
    for _ in range(5):
        run(capsys, "compute", "--f", "zeros")
        run(capsys, "--config", str(conf), "compute", "--f", "zeros")
        run(capsys, "compute", "--n", "x")
    # one top-level parser and one per subcommand, for each class
    per_build = 1 + len(cli._COMMANDS)
    assert built.count(cli._Parser) == per_build
    assert built.count(cli._ConfigParser) == per_build
    assert len(built) == 2 * per_build


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("argv", [
    ["compute", "--f", "mod:{}"],
    ["approx", "--f", "floor:1/2", "--n", "10", "--model", "const:{}"],
    ["scan-selfsim", "--f", "floor:1/2", "--n", "100", "--shifts", "1,{}"],
])
def test_overlong_integer_literal_gets_one_short_true_line(capsys, argv):
    """A literal of more digits than int() reads is called that, not "not
    an integer", on one line that quotes it in brief, with its length."""
    limit = sys.get_int_max_str_digits()
    literal = "1" * (limit + 700)
    code, out, err = run(capsys, *(a.format(literal) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert (f"'{literal[:24]}'... ({len(literal)} characters) is longer than"
            f" Python's {limit}-digit integer limit\n") in err


_DIGITS_5000 = "1" * 5000


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("argv, quoted", [
    (["approx", "--model", "sqrt:{}"], "model 'sqrt:{}"),
    (["approx", "--model", "sqrt:0.{}"], "model 'sqrt:0.{}"),
    (["approx", "--model", "sqrt:1e{}"], "model 'sqrt:1e{}"),
    (["approx", "--model", "power:1:1:1/{}"], "model 'power:1:1:1/{}"),
    (["compute", "--f", "floor:{}/2"], "rational '{}"),
    (["compute", "--f", "floor:0.{}"], "rational '0.{}"),
    (["compute", "--f", "const-limit:exp:a=5,b=1e-{}"], "rational '1e-{}"),
])
def test_overlong_decimal_literal_gets_one_short_true_line(capsys, argv,
                                                           quoted):
    """A rational or decimal literal with a part of more digits than int()
    reads is called that, not "not a number" or a "bad rational", on one
    short line."""
    if argv[0] == "approx":
        argv = [*argv, "--f", "floor:1/2", "--n", "10"]
    code, out, err = run(capsys, *(a.format(_DIGITS_5000) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 250
    assert err.startswith("hofq: " + quoted.format(_DIGITS_5000)[:30])
    assert err.endswith(" is longer than Python's"
                        f" {sys.get_int_max_str_digits()}-digit integer"
                        " limit\n")


@pytest.mark.parametrize("argv", [
    ["compute", "--f", "floor:1e-9999999"],
    ["compute", "--f", "floor:-1e-99999999999999999999999"],
    ["compute", "--f", "floor:0e-9999999"],
    ["compute", "--f", "floor:1e9999999"],
    ["compute", "--f", "floor:1e99999999999999999999999"],
    ["compute", "--f", "const-limit:pow:a=5,b=1e-9999999"],
    ["approx", "--model", "sqrt:1e-9999999", "--f", "floor:1/2"],
    ["approx", "--model", "sqrt:1e9999999", "--f", "floor:1/2"],
    ["approx", "--model", "power:1:1e-99999999999999999999999:1",
     "--f", "floor:1/2"],
])
def test_decimal_exponent_is_bounded_before_it_is_expanded(capsys, argv):
    """A literal of a few characters whose exponent would expand into a
    number of millions of digits is read without expanding it: it finishes
    at once, with at most one line on stderr."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--n", "3")
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and len(err.splitlines()) <= 1, err
    if code:
        assert out == "" and err.startswith("hofq: ") and len(err) < 200


def test_decimal_below_the_cap_gives_the_rows_of_zero(capsys):
    """A decimal that the 10^9 denominator cap rounds to 0 is 0, however
    small its exponent: the rows of floor:1e-30, which are those of
    floor:0."""
    texts = [run(capsys, "compute", "--f", spec, "--n", "40", "--format",
                 "csv") for spec in ("floor:1e-30", "floor:1e-9999999",
                                     "floor:-1e-99999999999999999999",
                                     "floor:0/1")]
    assert texts[0][0] == 0 and all(t == texts[0] for t in texts)


@pytest.mark.parametrize("literal", ["1e-30", "1e-9999999", "0.0000000000001"])
def test_positive_b_that_rounds_to_zero_is_called_that(capsys, literal):
    code, out, err = run(capsys, "compute", "--f",
                         f"const-limit:exp:a=5,b={literal}", "--n", "3")
    assert code == 1 and out == ""
    assert err == (f"hofq: const-limit exp: b = {literal!r} rounds to 0 at"
                   " the 10^9 denominator cap; need b > 0\n")
    # a b of 0, or below, is no positive literal
    for b in ("0", "0.0", "-1e-30"):
        code, out, err = run(capsys, "compute", "--f",
                             f"const-limit:exp:a=5,b={b}", "--n", "3")
        assert code == 1 and err == "hofq: const-limit: need b > 0\n"


def test_messages_quote_a_long_spec_briefly(capsys):
    """A message that quotes a spec of thousands of characters stays one
    short line."""
    code, out, err = run(capsys, "compute", "--f", "floor:1e3000", "--n", "3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith("hofq: overflow: 'floor:1000") and (
        "(3009 characters): f values exceed the 64-bit range" in err)
    # a spec built directly, past the parser's own check of its form
    with pytest.raises(hofq.InvalidFSpec) as refused:
        hofq.ConstLimit("x" * 3000, a=1)
    assert str(refused.value) == ("const-limit: unknown form '"
                                  + "x" * 24 + "'... (3000 characters)")


_TAIL = 3000


@pytest.mark.parametrize("spec, quoted", [
    ("nosuch" + "x" * _TAIL, "unknown f-spec 'nosuch"),
    ("floor:1/2:" + "x" * _TAIL, "floor: unknown option 'x"),
    ("fracpow:n^1/2+" + "x" * _TAIL, "fracpow: bad term '+x"),
    ("fracpow:n^1/2--" + "1" * _TAIL, "fracpow: cannot parse 'n^1/2--1"),
    ("const-limit:sqrt:a=1," + "x" * _TAIL,
     "const-limit: expected key=value, got 'x"),
    ("const-limit:nosuch" + "x" * _TAIL + ":a=1",
     "const-limit: unknown form 'nosuch"),
], ids=["spec", "floor-option", "fracpow-term", "fracpow-expression",
        "key-value", "const-limit-form"])
def test_parse_errors_quote_a_long_text_briefly(capsys, spec, quoted):
    """Each parse error that quotes a piece of the spec quotes it in brief:
    one short line, with the piece's length."""
    code, out, err = run(capsys, "compute", "--f", spec, "--n", "3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith("hofq: " + quoted)
    assert err.endswith(" characters)\n")


@pytest.mark.parametrize("conf", ["[5, 3]", '{"n": "abc"}', '{"n": 2.5}',
                                  '{"format": "xml"}', "{", '{"n": [5]}',
                                  '{"n": true}', '{"unknown": 1}'])
def test_config_type_errors_are_usage_errors(tmp_path, capsys, conf):
    path = tmp_path / "conf.json"
    path.write_text(conf)
    code, out, err = run(capsys, "--config", str(path), "compute", "--f",
                         "zeros")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hofq: ")


def test_config_values_go_through_flag_types(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"n": "3", "format": "csv", "f": "linear",
                                "full-resolution": True}))
    code, out, _ = run(capsys, "--config", str(path), "export-figure",
                       "--which", "trace", "--out", str(tmp_path / "t.csv"))
    assert code == 0
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert rows[0] == "n,q,f" and len(rows) == 4 and rows[3] == "3,3,2"


def test_config_yields_to_abbreviated_flag(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"format": "json", "n": 2}))
    code, out, _ = run(capsys, "--config=" + str(path), "compute", "--f",
                       "zeros", "--form", "csv")
    assert code == 0 and out.splitlines() == ["n,f,q", "1,0,1", "2,0,1"]


@pytest.mark.parametrize("flag,config", [("0", None), ("-1", None),
                                         (None, -3)])
def test_verify_threads_below_one_is_a_usage_error(capsys, tmp_path, flag,
                                                   config):
    argv = ["verify", "--lemma", "mod", "--n", "100"]
    if flag is not None:
        argv += ["--threads", flag]
    else:  # the --config key is typed in as the flag
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"threads": config}))
        argv = ["--config", str(path)] + argv
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("hofq: ")


def test_verify_json_is_the_same_for_any_thread_count(capsys):
    argv = ["verify", "--lemma", "all", "--format", "json", "--n", "2000"]
    outs = set()
    for extra in (["--threads", "1"], ["--threads", "2"], []):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises EPIPE."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("compute", "--f", "gamma2", "--n", "100", "--format", "csv"),
    ("compute", "--f", "gamma2", "--n", "100", "--format", "json"),
    ("perturb", "--f", "floor:1/2", "--n", "64"),
    ("verify", "--lemma", "mod", "--n", "100"),
])
def test_closed_stdout_exits_0_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(list(argv)) == 0
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,lines_read,expect_code", [
    (["compute", "--f", "gamma2", "--n", "200000", "--format", "csv"], 1, 0),
    (["compute", "--f", "gamma2", "--n", "16", "--format", "csv"], 0, 0),
    (["compute", "--f", "prefix:0,2,2", "--n", "3", "--format", "csv"], 0, 2),
    (["--help"], 0, 0),
])
def test_closed_pipe_in_a_pipeline(argv, lines_read, expect_code):
    """`hofq compute ... | head -1`, and readers that have gone before hofq
    writes anything.  stdout is block-buffered, as in a plain shell, so the
    interpreter's last flush at exit would also hit the closed pipe.  Only
    a command that finished reports on stderr and sets the exit code."""
    src = os.path.dirname(os.path.dirname(hofq.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen([sys.executable, "-m", "hofq.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        first = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()  # n = 200000 gives ~3 MB, far more than a pipe holds
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert first == [b"n,f,q\n"] * lines_read
    assert code == expect_code
    expect_err = b"hofq: sequence died at n = 3 (lookup index 0)\n"
    assert err == (expect_err if expect_code == 2 else b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["compute", "--f", "gamma2", "--n", "100000", "--format", "csv"],
    ["hofstadter", "--n", "100000", "--format", "csv"],
    ["export-figure", "--which", "trace", "--f", "gamma2", "--n", "100000",
     "--format", "json"],
    ["scan-selfsim", "--f", "floor:1/2", "--n", "20000", "--shift-range",
     "60:130", "--min-run", "50", "--format", "text"],
])
def test_full_disk_is_one_line(argv):
    """A write that finds the disk full (more than one table chunk, for the
    first three) ends the command with exit 1 and one line, no traceback,
    also from the interpreter's exit."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hofq.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hofq.cli", *argv,
                           "--out", "/dev/full"], env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"hofq: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [
    ("compute", "--f", "gamma2", "--n", "70000", "--format", "csv"),
    ("compute", "--f", "prefix:0,2,2", "--n", "3", "--format", "json"),
    ("hofstadter", "--variant", "hof", "--n", "40", "--format", "text"),
    ("approx", "--f", "gamma2", "--model", "sqrt:gamma2", "--n", "500",
     "--format", "csv"),
])
def test_every_stdout_gets_the_out_file_bytes(capsys, tmp_path, argv):
    """The bytes of --out, after the text printed to stdout before the
    command, on every kind of stdout: capsys, an io.StringIO under
    redirect_stdout (no binary buffer beneath it) and a pipe to a child
    process, whose stdout is block-buffered.  The csv table is more than
    one chunk."""
    path = tmp_path / "out"
    code = cli.main([*argv, "--out", str(path)])
    assert code == (2 if "prefix:0,2,2" in argv else 0)
    head = "before\n"
    expect = head.encode() + path.read_bytes()
    capsys.readouterr()

    print(head, end="")
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().out.encode() == expect

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print(head, end="")
        assert cli.main(list(argv)) == code
    assert buf.getvalue().encode() == expect

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hofq.__file__))
    script = ("import sys\nfrom hofq import cli\n"
              f"print({head!r}, end='')\nsys.exit(cli.main({list(argv)!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, expect)


def test_terminal_stdout_shows_the_table_before_stderr(monkeypatch):
    """On a line-buffered stdout, as on a terminal, the table reaches the
    terminal before the death that follows it is reported on stderr."""
    events = []

    class Terminal(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            events.append("out")
            return len(data)

    class Stderr(io.StringIO):
        def write(self, s):
            events.append("err")
            return len(s)

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        io.BufferedWriter(Terminal()), line_buffering=True))
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert cli.main(["compute", "--f", "prefix:0,2,2", "--n", "3",
                     "--format", "csv"]) == 2
    assert events[0] == "out" and "err" in events


def test_runtime_does_not_import_mpmath():
    """mpmath is a test-only oracle: the verifiers and the exact exp
    ceiling (a > 2**52 goes term by term) run on the standard library."""
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from fractions import Fraction\n"
        "import hofq, hofq.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert hofq.cli.main(['verify', '--lemma', 'all',"
        " '--n', '2000']) == 0\n"
        "spec = hofq.ConstLimit('exp', a=2**60 + 3, b=Fraction(1, 7))\n"
        "try:\n"
        "    spec.values(50)  # every term, then refused: f(1) > 0\n"
        "except hofq.InvalidFSpec:\n"
        "    pass\n"
        "print('mpmath' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hofq.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

