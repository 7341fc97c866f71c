"""Golden digests of the command line: every subcommand in every format it
accepts, to stdout and to --out, plus its failure paths and --help.

Each case runs `cli.main` in-process and hashes four things: the exit code,
stdout, stderr (with the temporary directory written as <TMP>) and the
bytes of the --out file.  The digests in cli_golden.json were recorded with

    PYTHONPATH=src python3 tests/record_cli_golden.py

from a tree whose output is known to be right; a case whose output changes
on purpose is re-recorded with it, and says so in CHANGES.md.  --help runs
at COLUMNS=80; its text also follows the Python version's argparse
(recorded on 3.11).
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hofq
from hofq import cli

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")

TEXT_CSV_JSON = ("text", "csv", "json")
TEXT_JSON = ("text", "json")


def _formatted(name, argv, formats, dests=("stdout", "out")):
    """One case per format and destination: `--format F`, then `--out` to a
    file in the case's temporary directory, or nothing for stdout."""
    for fmt in formats:
        for dest in dests:
            extra = ["--out", "{out}"] if dest == "out" else []
            yield f"{name}/{fmt}/{dest}", argv + ["--format", fmt] + extra


def _cases():
    floor = ["--f", "floor:1/2"]
    yield from _formatted("compute", ["compute", *floor, "--n", "40"],
                          TEXT_CSV_JSON)
    yield from _formatted("compute-gamma2", ["compute", "--f", "gamma2",
                                             "--n", "3000"], TEXT_CSV_JSON)
    yield from _formatted("compute-dies", ["compute", "--f", "prefix:0,2,2",
                                           "--n", "3"], TEXT_CSV_JSON)
    yield from _formatted("compute-bad-spec", ["compute", "--f", "wat:7",
                                               "--n", "4"], ("text",))
    yield "compute-bad-spec-syntax", ["compute", "--f", "floor:1/0", "--n",
                                      "4"]
    yield "compute-zero-n", ["compute", "--f", "zeros", "--n", "0"]
    # text that a spec's family does not read is refused, not dropped
    for name, spec in [("zeros-param", "zeros:junk"),
                       ("linear-param", "linear:5"),
                       ("gamma2-param", "gamma2:x"),
                       ("exp-key", "const-limit:exp:a=5,b=1/1000,zz=3"),
                       ("sqrt-key", "const-limit:sqrt:a=5,b=7"),
                       ("clamp-key", "const-limit:clamp:alpha=1/2,n0=9,a=5"),
                       ("floor-repeat", "floor:1/2:shift=1:shift=2"),
                       ("exp-repeat", "const-limit:exp:a=5,a=6,b=1/1000"),
                       ("shift-empty-field", "shift::3:(zeros)"),
                       ("perturb-empty-field", "perturb:2::+1:(zeros)")]:
        yield f"compute-refuses-{name}", ["compute", "--f", spec, "--n", "4"]
    yield from _formatted("verify", ["verify", "--lemma", "golden,staircase",
                                     "--n", "3000"], TEXT_JSON)
    yield from _formatted("verify-all", ["verify", "--n", "500"], TEXT_JSON)
    yield "verify-unknown", ["verify", "--lemma", "wat"]
    yield "verify-zero-n", ["verify", "--n", "0"]
    yield from _formatted("triangle", ["triangle", "--n", "7"], TEXT_JSON)
    yield "triangle-over-cap", ["triangle", "--n", "9", "--cap", "8"]
    scan = ["scan-selfsim", *floor, "--n", "3000"]
    yield from _formatted("scan", scan + ["--shifts", "512,1024",
                                          "--min-run", "40"], TEXT_CSV_JSON)
    yield from _formatted("scan-range", scan + ["--shift-range", "500:530:6",
                                                "--min-run", "40"],
                          TEXT_CSV_JSON)
    yield from _formatted("scan-no-match", scan + ["--shifts", "64",
                                                   "--min-run", "40"],
                          TEXT_CSV_JSON)
    yield from _formatted("scan-discover", ["scan-selfsim", *floor, "--n",
                                            "300", "--discover",
                                            "--min-run", "20"], ("text",))
    yield "scan-dies", ["scan-selfsim", "--f", "prefix:0,2,2", "--n", "3",
                        "--shifts", "1"]
    yield "scan-no-shifts", scan
    yield "scan-bad-range", scan + ["--shift-range", "1:2:3:4"]
    yield from _formatted("perturb", ["perturb", *floor, "--n", "4096"],
                          TEXT_CSV_JSON)
    yield from _formatted("perturb-few-regions", ["perturb", *floor, "--n",
                                                  "150", "--at", "5",
                                                  "--amount", "2"],
                          TEXT_CSV_JSON)
    yield "perturb-dies", ["perturb", "--f", "prefix:0,2,2", "--n", "3"]
    # a perturbation of a prefix edits a copy of the prefix's f
    yield "perturb-prefix", ["perturb", "--f", "prefix:0,1,1,2,2,3", "--at",
                             "3", "--n", "6"]
    yield "compute-perturbed-prefix", ["compute", "--f",
                                       "perturb:2:+1:(prefix:0,0,1,1)",
                                       "--n", "4"]
    yield "compute-perturbed-past-int64", [
        "compute", "--f", "perturb:2:+1:(prefix:0,9223372036854775807)",
        "--n", "2"]
    # a prefix value past int64 beyond n stops nothing
    yield "compute-prefix-past-int64-unused", [
        "compute", "--f", "prefix:0,1,9223372036854775808", "--n", "2"]
    approx = ["approx", *floor, "--n", "2000"]
    yield from _formatted("approx", approx + ["--model", "sqrt:1/2"],
                          TEXT_CSV_JSON)
    yield from _formatted("approx-power", approx + ["--model",
                                                    "power:1/2:1:1/3"],
                          TEXT_CSV_JSON)
    yield from _formatted("approx-const", ["approx", "--f",
                                           "const-limit:sqrt:a=5", "--n",
                                           "1000", "--model", "const:4"],
                          TEXT_CSV_JSON)
    # f = zeros gives q = 1, so these error columns cross 0, the 1e-4 and
    # 1e12 edges of %.12g's fixed notation, and hold an exact 0.0
    for name, model in [("approx-zero-crossing", "power:1/100000:1:99/100"),
                        ("approx-exponent-form", "power:1000000000:1:0"),
                        ("approx-exact-zero", "power:0:1:1")]:
        yield from _formatted(name, ["approx", "--f", "zeros", "--n", "3000",
                                     "--model", model], ("csv",))
    yield "approx-bad-model", approx + ["--model", "wat:1"]
    yield "approx-dies", ["approx", "--f", "prefix:0,2,2", "--n", "3",
                          "--model", "sqrt:1/2"]
    for which, extra in [("detrended", ["--n", "3000"]),
                         ("fig2", ["--n", "500", "--alpha", "0.3"]),
                         ("approach", ["--n", "2000", "--a", "4"]),
                         ("perturbation", ["--n", "1024"]),
                         ("trace", ["--n", "400", "--f", "gamma2"]),
                         ("trace-dies", ["--n", "9", "--f",
                                         "prefix:0,2,2,2,2,2,2,2,2"]),
                         ("trace-full", ["--n", "1500", "--f", "floor:1/2",
                                         "--full-resolution"])]:
        argv = ["export-figure", "--which", which.split("-")[0], *extra]
        yield from _formatted(f"export-{which}", argv, ("csv", "json"),
                              dests=("out",))
    for which in ("detrended", "approach", "perturbation"):  # two chunks
        yield f"export-{which}-70000", ["export-figure", "--which", which,
                                        "--n", "70000", "--format", "csv",
                                        "--out", "{out}"]
    yield "export-unknown-kind", ["export-figure", "--which", "wat",
                                  "--out", "{out}"]
    yield "export-trace-no-spec", ["export-figure", "--which", "trace",
                                   "--out", "{out}"]
    yield "export-dies", ["export-figure", "--which", "approach", "--f",
                          "prefix:0,2,2", "--n", "3", "--out", "{out}"]
    for variant in ("hof", "tanny", "v", "quasipoly"):
        yield from _formatted(f"hofstadter-{variant}",
                              ["hofstadter", "--variant", variant,
                               "--n", "2000"], TEXT_CSV_JSON)
    yield from _formatted("hofstadter-short", ["hofstadter", "--n", "1"],
                          TEXT_CSV_JSON)
    yield from _formatted("hofstadter-two", ["hofstadter", "--n", "2"],
                          TEXT_CSV_JSON)
    yield "no-subcommand", []
    yield "unknown-flag", ["compute", "--f", "zeros", "--wat"]
    yield "bad-format", ["triangle", "--format", "csv"]
    yield "missing-out-dir", ["compute", "--f", "zeros",
                              "--out", "{tmp}/no/such/file"]
    yield "help", ["--help"]
    for cmd in cli._COMMANDS:
        yield f"help-{cmd}", [cmd, "--help"]


CASES = dict(_cases())


@contextlib.contextmanager
def _environ(**values):
    """os.environ with these keys set (None: removed), restored after."""
    old = {key: os.environ.get(key) for key in values}
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(argv, tmp) -> dict:
    """The exit code of `hofq argv` and the digests of its stdout, stderr
    and --out file (empty when there is none); `{out}` and `{tmp}` in argv
    name a file and the directory tmp."""
    tmp = str(tmp)
    out_path = os.path.join(tmp, "out.dat")
    argv = [a.replace("{out}", out_path).replace("{tmp}", tmp) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with _environ(COLUMNS="80"), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    data = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
    return {"code": code,
            "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().replace(tmp, "<TMP>").encode()),
            "file": _digest(data)}


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == _golden()[name]


@pytest.mark.parametrize("argv", [["compute", "--f", "zeros", "--n", "3"],
                                  CASES["compute-refuses-zeros-param"]],
                         ids=["compute", "refusal"])
def test_python_m_hofq_is_cli_main(argv):
    """`python -m hofq` runs cli.main: the same exit code, stdout and
    stderr, byte for byte."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.path.dirname(os.path.dirname(hofq.__file__))}
    proc = subprocess.run([sys.executable, "-m", "hofq", *argv], env=env,
                          capture_output=True, timeout=120)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert proc.returncode == code
    assert proc.stdout == stdout.getvalue().encode()
    assert proc.stderr == stderr.getvalue().encode()
