"""Seeded argv fuzz of the command line.

hypothesis builds argv for every subcommand from the f-spec and model
grammars, with numbers near the int64 limits, malformed and not finite.
Whatever the argv, `hofq` must end with a documented exit code (0 to 3),
print no traceback and no Python warning, and write at most one `hofq`
line to stderr after argparse's usage block.  `--n` stays at most 2,000
and triangles at depth 12, so each example runs in milliseconds; the
examples are derandomized, so every run tries the same argv.
"""

import contextlib
import io
import os
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hofq import cli, verify

EXAMPLES = 300

INT64_MAX = 2**63 - 1
ODD_NUMBERS = [str(v) for v in (INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1,
                                -INT64_MAX - 2, 2**64, 2**1024)]
ODD_NUMBERS += ["1e400", "-1e400", "1e-400", "nan", "inf", "-inf", "-0.0",
                "2.5", "1/0", "0/0", "", "x", "0x10", "1_0", " 7", "+5", "٣"]

numbers = st.one_of(st.integers(-20, 2000).map(str),
                    st.sampled_from(ODD_NUMBERS))
rationals = st.one_of(numbers, st.builds("{}/{}".format, numbers, numbers))
shift_bounds = st.one_of(st.integers(-5, 300),
                         st.integers(-INT64_MAX - 2, INT64_MAX + 1))
lengths = st.one_of(st.integers(-3, 2000).map(str),  # every valid one small
                    st.sampled_from(["", "x", "2.5", "1e3", "nan", "-0"]))


def _options(*pairs):
    """argv pieces: each (flag, values) pair, present or not."""
    return st.tuples(*(st.one_of(st.just([]), values.map(lambda v, f=flag:
                                                          [f, v]))
                       for flag, values in pairs)).map(
        lambda parts: [a for part in parts for a in part])


_leaf_specs = st.one_of(
    st.sampled_from(["zeros", "linear", "gamma2", "wat", "", "floor:",
                     "prefix:", "const-limit:wat", "shift:1:zeros"]),
    st.builds(lambda r, opts: f"floor:{r}" + "".join(opts), rationals,
              st.lists(st.builds(":{}={}".format,
                                 st.sampled_from(["shift", "scale", "x"]),
                                 numbers), max_size=2)),
    st.builds("one-minus-delta:{}".format, numbers),
    st.builds("mod:{}".format, numbers),
    st.builds(",".join, st.lists(numbers, min_size=1, max_size=6)).map(
        "prefix:{}".format),
    st.text(alphabet="01x", max_size=12).map("bits:{}".format),
    st.builds("const-limit:sqrt:a={}".format, numbers),
    st.builds("const-limit:{}:a={},b={}".format,
              st.sampled_from(["exp", "pow"]), numbers, rationals),
    st.builds("const-limit:clamp:alpha={},n0={}".format, rationals, numbers),
    st.builds(lambda terms, c: "fracpow:" + "+".join([*terms, c]),
              st.lists(st.builds("{}*n^{}".format, rationals, rationals),
                       min_size=1, max_size=2), rationals),
)
specs = st.recursive(_leaf_specs, lambda inner: st.one_of(
    st.builds("shift:{}:({})".format, numbers, inner),
    st.builds("perturb:{}:+{}:({})".format, numbers, numbers, inner)),
    max_leaves=3)
models = st.one_of(
    st.builds("sqrt:{}".format, rationals), st.just("sqrt:gamma2"),
    st.builds("const:{}".format, numbers),
    st.builds("power:{}:{}:{}".format, rationals, rationals, rationals),
    st.sampled_from(["wat:1", "power:1:2", ""]))
formats = st.sampled_from(["text", "csv", "json", "wat"])
outs = st.just("{out}")


def _command(name, *required, options=()):
    """argv for one subcommand: its required flags, then its options."""
    head = st.tuples(*(st.tuples(st.just(flag), values)
                       for flag, values in required)).map(
        lambda pairs: [name] + [a for pair in pairs for a in pair])
    return st.builds(list.__add__, head, _options(*options))


_common = (("--format", formats), ("--out", outs))
argvs = st.one_of(
    _command("compute", ("--f", specs), ("--n", lengths), options=_common),
    _command("verify", ("--n", lengths),
             options=(("--lemma", st.sampled_from(
                 ["all", *verify.REGISTRY, "golden,mod", "wat", ",", ""])),
                      ("--threads", st.sampled_from(["1", "2", "0", "-1",
                                                     "x"])),
                      ("--format", formats), ("--out", outs))),
    _command("triangle", options=(
        ("--n", st.one_of(st.integers(-2, 12).map(str),
                          st.sampled_from(["x", "99", str(INT64_MAX)]))),
        ("--cap", numbers), ("--format", formats), ("--out", outs))),
    _command("scan-selfsim", ("--f", specs), ("--n", lengths),
             options=(("--shifts", st.lists(numbers, min_size=1,
                                            max_size=6).map(",".join)),
                      ("--shift-range", st.one_of(
                          st.builds("{}:{}{}".format, shift_bounds,
                                    shift_bounds, st.sampled_from(
                                        ["", ":1", ":7", ":0", ":-3", ":-1",
                                         f":{INT64_MAX}",
                                         f":{-INT64_MAX - 1}"])),
                          st.sampled_from([f"{INT64_MAX}:5", "1:2:3:4",
                                           "a:b", "", "5"]))),
                      ("--min-run", numbers),
                      ("--discover", st.just(None)), *_common)).map(
        lambda argv: [a for a in argv if a is not None]),
    _command("perturb", ("--f", specs), ("--n", lengths),
             options=(("--at", numbers), ("--amount", numbers), *_common)),
    _command("approx", ("--f", specs), ("--n", lengths),
             ("--model", models), options=_common),
    _command("export-figure", ("--which", st.sampled_from(
        ["detrended", "approach", "perturbation", "trace", "fig2", "ascon",
         "fig3", "wat"])), ("--n", lengths), ("--out", outs),
        options=(("--f", specs),
                 ("--format", st.sampled_from(["csv", "json", "text"])),
                 ("--full-resolution", st.just(None)),
                 ("--alpha", rationals), ("--a", numbers),
                 ("--at", numbers), ("--amount", numbers))).map(
        lambda argv: [a for a in argv if a is not None]),
    _command("hofstadter", ("--n", lengths), options=(
        ("--variant", st.sampled_from(["hof", "tanny", "v", "quasipoly",
                                       "wat"])), *_common)),
)


def _after_usage(lines):
    """stderr's lines after argparse's usage block, which starts with
    `usage:` and continues on indented lines."""
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


@settings(max_examples=EXAMPLES, derandomize=True, database=None,
          deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@example(["approx", "--f", "floor:1/2", "--n", "3", "--model",
          "power:1:1000:0"])
@example(["approx", "--f", "floor:1/2", "--n", "3", "--model", "const:1e400"])
@example(["scan-selfsim", "--f", "zeros", "--n", "2000", "--shift-range",
          f"{-INT64_MAX - 1}:{INT64_MAX}"])
@given(argvs)
def test_any_argv_ends_in_a_documented_exit(tmp_path, argv):
    out_path = os.path.join(tmp_path, "out.dat")
    argv = [a.replace("{out}", out_path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    if os.path.exists(out_path):
        os.remove(out_path)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert [str(w.message) for w in caught] == [], argv
    hofq_lines = [line for line in _after_usage(err.splitlines())
                  if line.startswith("hofq")]
    assert len(hofq_lines) <= 1, (argv, err)
    assert "invalid literal" not in err, (argv, err)
