"""Command-line front end.

Subcommands: compute, verify, triangle, scan-selfsim, perturb, approx,
export-figure, hofstadter.  Data goes to stdout (or --out); progress and
error messages go to stderr.  Exit codes: 0 success, 1 usage error,
2 a computed sequence died, 3 verifier failure.  A reader that stops early
(`hofq compute ... | head`) is not an error: the broken pipe ends the output
with nothing on stderr, and the exit code is 0, or the command's own code if
it had finished (2 for a trace that died).

Identical invocations produce byte-identical output: ordering is stable and
data files carry no timestamps.  An optional --config JSON file supplies
per-flag defaults: keys are the subcommand's flag names without dashes, each
value is read as if typed right after the subcommand name (`true` as the bare
flag, `false` as nothing), and flags typed on the command line win.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, engine, table, triangle, verify
from .errors import SequenceDied
from .fspec import brief, int_literal, parse_fspec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIED = 2
EXIT_VERIFY_FAILED = 3

_FORMATS = ("text", "csv", "json")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _ConfigParser(_Parser):
    """Reparses argv with the --config values in: a bad one is a ValueError,
    reported on one line like every other usage error."""

    def error(self, message):
        raise ValueError(f"--config: {message}")


@functools.cache
def build_parser(parser_class: type[_Parser] = _Parser) -> _Parser:
    """The parser of every subcommand, built once per process for each
    parser class: building it took most of the time of a short command.
    Reuse is safe, as parse_args leaves the parser as it found it: each
    call fills a new Namespace, and no action has a mutable default or
    appends."""
    p = parser_class(prog="hofq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=parser_class)

    def add_common(sp, n_default):
        sp.add_argument("--f", dest="fspec", required=True,
                        help="driving-sequence spec (see grammar)")
        sp.add_argument("--n", type=int, default=n_default, help="trace length")
        sp.add_argument("--format", choices=_FORMATS, default="text")
        sp.add_argument("--out", help="write data here instead of stdout")

    sp = sub.add_parser("compute", help="trace q for a driving sequence")
    add_common(sp, 16)

    sp = sub.add_parser("verify", help="run closed-form verifiers")
    sp.add_argument("--lemma", default="all",
                    help="all, or comma-separated names: "
                         + ", ".join(verify.REGISTRY))
    sp.add_argument("--n", type=int, default=None,
                    help="override the per-verifier default N")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.add_argument("--threads", type=int, help="default: one per verifier, "
                    "at most one per CPU this process may use")

    sp = sub.add_parser("triangle", help="exhaustive attained-value triangle")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--cap", type=int, default=triangle.TRIANGLE_CAP)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("scan-selfsim", help="find exact self-similar intervals")
    add_common(sp, 160000)
    sp.add_argument("--shifts", help="comma-separated shift candidates")
    sp.add_argument("--shift-range", help="LO:HI[:STEP] candidate range")
    sp.add_argument("--min-run", type=int, default=1000)
    sp.add_argument("--discover", action="store_true",
                    help="propose candidate shifts from repeated patterns")

    sp = sub.add_parser("perturb", help="compare a trace against a one-index bump")
    add_common(sp, 2**19)
    sp.add_argument("--at", type=int, default=16)
    sp.add_argument("--amount", type=int, default=1)

    sp = sub.add_parser("approx", help="error of an asymptotic model")
    add_common(sp, 160000)
    sp.add_argument("--model", required=True,
                    help="sqrt:ALPHA | sqrt:gamma2 | const:A | power:A:P:B")

    sp = sub.add_parser("export-figure", help="write plot-ready data files")
    sp.add_argument("--which", required=True,
                    help="detrended | approach | perturbation | trace "
                         "(aliases: fig2, ascon, fig3)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--f", dest="fspec", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--full-resolution", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--a", type=int, default=5)
    sp.add_argument("--at", type=int, default=16)
    sp.add_argument("--amount", type=int, default=1)

    sp = sub.add_parser("hofstadter", help="two-nested-lookup traces")
    sp.add_argument("--variant", choices=_VARIANTS, default="hof")
    sp.add_argument("--n", type=int, default=10**5)
    sp.add_argument("--format", choices=_FORMATS, default="text")
    sp.add_argument("--out")
    return p


def _config_argv(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with the --config file's values typed in as `--key=value` right
    after the subcommand name, so argparse checks them like typed flags and
    a flag typed later on the command line wins."""
    with open(args.config) as fh:
        try:
            conf = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--config {args.config}: {exc}") from None
    if not isinstance(conf, dict):
        raise ValueError(f"--config {args.config}: expected a JSON object "
                         f"of flag defaults, got {type(conf).__name__}")
    tokens = []
    for key, value in conf.items():
        if not isinstance(value, (str, int, float)):
            raise ValueError(f"--config: bad value {value!r} for --{key}")
        if value is True:
            tokens.append(f"--{key}")
        elif value is not False:
            tokens.append(f"--{key}={value}")
    i = 0  # before the subcommand stand only --config VALUE or --config=VALUE
    while argv[i] != args.cmd:
        i += 1 if "=" in argv[i] else 2
    return argv[:i + 1] + tokens + argv[i + 1:]


class _TextSink:
    """The binary sink of a text stdout that has no buffer beneath it (an
    io.StringIO under contextlib.redirect_stdout): each write is decoded
    and passed on."""

    def __init__(self, text):
        self.text = text

    def write(self, data):
        return self.text.write(str(data, "utf-8"))


def _write(args, **formats) -> None:
    """Write the pieces of args.format to --out, or to stdout, as bytes.
    Each format maps to a function that builds its list of pieces for
    table.write, so only the chosen one is built.  stdout's text layer is
    flushed first, so that what was printed to it stays ahead, and its
    buffer after, when it is line-buffered (a terminal)."""
    if args.out:
        with open(args.out, "wb") as fh:
            table.write(fh, formats[args.format]())
        return
    sys.stdout.flush()
    sink = getattr(sys.stdout, "buffer", None)
    table.write(_TextSink(sys.stdout) if sink is None else sink,
                formats[args.format]())
    if sink is not None and getattr(sys.stdout, "line_buffering", False):
        sink.flush()


def _write_trace(args, trace: engine.QTrace, text=None) -> int:
    """Write a trace as JSON, CSV or (unless text builds other pieces) a
    table with its outcome; SequenceDied after it if the trace died."""
    outcome, f = trace.outcome, trace.f_values
    names = ("n", "q") if f is None else ("n", "f", "q")
    arrays = {"q": ("%d", (trace.q_values,))}
    if f is not None:
        arrays["f"] = ("%d", (f,))

    def columns():
        idx = np.arange(trace.start, trace.n_max + 1, dtype=np.int64)
        if f is None:
            return idx, trace.q_values
        return idx, f[:len(idx)], trace.q_values

    _write(args,
           json=lambda: [({"schema": "hofq.trace/1",
                           "fspec": trace.fspec.spec_str() if trace.fspec
                           else None,
                           "start": trace.start,
                           "outcome": {"status": "exists" if outcome.exists
                                       else "died", **asdict(outcome)}},
                          arrays)],
           csv=lambda: [",".join(names) + "\n",
                        (",".join(["%d"] * len(names)) + "\n", columns())],
           text=text or (lambda: [
               " " + "  ".join(names) + "\n",
               ("%2d" + "  %d" * (len(names) - 1) + "\n", columns()),
               f"outcome: {outcome}\n"]))
    if not outcome.exists:
        raise SequenceDied(outcome)
    return EXIT_OK


def _cmd_compute(args) -> int:
    return _write_trace(args, engine.compute_q(parse_fspec(args.fspec), args.n))


def _cmd_verify(args) -> int:
    names = None if args.lemma == "all" else [s.strip() for s in
                                              args.lemma.split(",") if s.strip()]
    try:
        results = verify.run_suite(names, args.n, args.threads)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    ok = all(r.ok for r in results)
    _write(args,
           json=lambda: [({"schema": "hofq.verify/1",
                           "results": [{"name": r.name, "ok": r.ok,
                                        "checked_up_to": r.checked_up_to,
                                        "first_counterexample":
                                            r.first_counterexample,
                                        "details": r.details}
                                       for r in results],
                           "ok": ok}, {})],
           text=lambda: [f"{r}\n" for r in results])
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_triangle(args) -> int:
    cells = triangle.build_triangle(args.n, cap=args.cap)
    _write(args, json=lambda: [triangle.triangle_json(cells), "\n"],
           text=lambda: [cells.to_text(), "\n"])
    return EXIT_OK


def _cmd_scan(args) -> int:
    trace = engine.compute_q(parse_fspec(args.fspec), args.n)
    if not trace.exists:
        raise SequenceDied(trace.outcome)
    shifts: list[int] = []
    ranged = False  # --shift-range has members, in [1, n - 1] or not
    if args.shifts:
        shifts.extend(_ints("--shifts", args.shifts, ","))
    if args.shift_range:
        in_window, ranged = _shift_range(args.shift_range, args.n - 1)
        shifts.extend(in_window)
    found = None
    if args.discover:
        found = analysis.propose_shifts(trace, min_run=args.min_run)
        shifts.extend(found)
    if not (shifts or ranged):
        raise ValueError("discovery proposed no shifts, and none were given"
                         if args.discover else "no shifts given (use "
                         "--shifts, --shift-range or --discover)")
    matches = analysis.scan_self_similarity(trace, shifts, args.min_run)

    def columns():
        return np.array([(m.shift, m.delta, m.lo, m.hi) for m in matches],
                        dtype=np.int64).reshape(-1, 4).T

    def text():
        shift, delta, lo, hi = columns()
        return [("shift %d: q(i+%d) - q(i) = %d for i in [%d, %d] "
                 "(length %d)\n", (shift, shift, delta, lo, hi, hi - lo + 1)),
                "" if matches else "no matches at this min-run\n"]

    _write(args,
           json=lambda: [({"schema": "hofq.selfsim/1",
                           "fspec": trace.fspec.spec_str(), "n": args.n,
                           "min_run": args.min_run,
                           "matches": [asdict(m) for m in matches]}, {})],
           csv=lambda: ["shift,delta,lo,hi\n", ("%d,%d,%d,%d\n", columns())],
           text=text)
    if found is not None:  # after any error, which is then the one line
        print(f"hofq: discovery proposed shifts {found}", file=sys.stderr)
    return EXIT_OK


def _ints(flag: str, text: str, sep: str) -> list[int]:
    """The integers of `text`, split at `sep`; a ValueError naming `flag`
    for a field that is not one."""
    out = []
    for field in text.split(sep):
        try:
            out.append(int_literal(field))
        except ValueError as exc:
            raise ValueError(f"{flag} {brief(text, str)}: {exc}") from None
    return out


def _shift_range(text: str, last: int) -> tuple[range, bool]:
    """The shifts of `--shift-range LO:HI[:STEP]` that lie in [1, last], HI
    included for either sign of STEP, as an ascending range found without
    building the whole one; and whether the whole one has any member."""
    parts = _ints("--shift-range", text, ":")
    if len(parts) not in (2, 3):
        raise ValueError("shift range must be LO:HI[:STEP]")
    lo, hi, step = (parts + [1])[:3]
    if step == 0:
        raise ValueError(f"--shift-range {text}: STEP must not be 0")
    if step < 0:  # the same members, from the smallest up to LO
        step = -step
        lo, hi = lo - (lo - hi) // step * step, lo
    members = lo <= hi
    lo += max(0, (step - lo) // step) * step  # the first member >= 1
    return range(lo, min(hi, last) + 1, step), members


def _cmd_perturb(args) -> int:
    pert = analysis.perturb_compare(parse_fspec(args.fspec), args.at,
                                    args.amount, args.n)
    regions = pert.zero_regions
    _write(args,
           json=lambda: [({"schema": "hofq.perturb/1", "fspec": pert.fspec,
                           "at": pert.at, "amount": pert.amount,
                           "base_outcome": pert.base_outcome,
                           "perturbed_outcome": pert.perturbed_outcome,
                           "zero_regions": [list(z) for z in regions]}, {})],
           csv=lambda: ["n,diff\n", ("%d,%d\n", (np.arange(
               1, len(pert.diff) + 1), pert.diff))],
           text=lambda: [
               f"base:      {pert.base_outcome}\n"
               f"perturbed: {pert.perturbed_outcome}\n"
               f"difference is nonzero at {np.count_nonzero(pert.diff)} "
               f"of {len(pert.diff)} indices\n"
               f"zero regions ({len(regions)}):\n",
               ("  [%d, %d]\n",
                np.array(regions[:20], dtype=np.int64).reshape(-1, 2).T),
               "  ...\n" if len(regions) > 20 else ""])
    return EXIT_OK


def _cmd_approx(args) -> int:
    model = analysis.parse_model(args.model)
    report = analysis.approx_error(parse_fspec(args.fspec), model, args.n,
                                   keep_trace=args.format == "csv")
    _write(args,
           json=lambda: [({"schema": "hofq.approx/1", "fspec": report.fspec,
                           "model": report.model, "n": report.n_max,
                           "max_abs_error": report.max_abs_error,
                           "min_signed_error": report.min_signed_error,
                           "max_signed_error": report.max_signed_error}, {})],
           csv=lambda: ["n,error\n", ("%d,%.12g\n", report.error_trace)],
           text=lambda: [
               f"fspec:  {report.fspec}\n"
               f"model:  {report.model}\n"
               f"n:      {report.n_max}\n"
               f"max |error|:  {report.max_abs_error:.6f}\n"
               f"signed range: [{report.min_signed_error:.6f}, "
               f"{report.max_signed_error:.6f}]\n"])
    return EXIT_OK


def _cmd_export(args) -> int:
    rows = analysis.export_figure_data(
        args.which, args.out, n_max=args.n, fspec=args.fspec, fmt=args.format,
        full_resolution=args.full_resolution, alpha=args.alpha, a=args.a,
        at=args.at, amount=args.amount)
    print(f"hofq: wrote {rows} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


_VARIANTS = {"hof": engine.hofstadter_spec, "tanny": engine.tanny_spec,
             "v": engine.v_variant_spec, "quasipoly": engine.quasipolynomial_spec}


def _cmd_hofstadter(args) -> int:
    spec = _VARIANTS[args.variant]()
    trace = engine.compute_two_term(spec, args.n)
    q = trace.q_values
    return _write_trace(args, trace, text=lambda: [
        f"variant: {spec.name}\n"
        f"outcome: {trace.outcome}\n"
        f"first terms (from index {trace.start}): "
        + ", ".join(str(v) for v in q[:12]) + "\n",
        f"max value: {int(q.max())}\n" if len(q) else ""])


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "triangle": _cmd_triangle,
    "scan-selfsim": _cmd_scan,
    "perturb": _cmd_perturb,
    "approx": _cmd_approx,
    "export-figure": _cmd_export,
    "hofstadter": _cmd_hofstadter,
}


def main(argv=None) -> int:
    code = _run(list(sys.argv[1:] if argv is None else argv))
    try:
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # point stdout's descriptor at the null device, so the interpreter's
        # last flush of what is still buffered raises nothing at exit
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no descriptor
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


def _run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(_ConfigParser).parse_args(
                _config_argv(args, argv))
        return _COMMANDS[args.cmd](args)
    except SystemExit as exc:  # argparse: --help, or a usage error reported
        return int(exc.code or 0)
    except SequenceDied as exc:
        print(f"hofq: sequence died at n = {exc.outcome.died_at} "
              f"(lookup index {exc.outcome.lookup_index})", file=sys.stderr)
        return EXIT_DIED
    except BrokenPipeError:  # the reader stopped early: not an error
        return EXIT_OK
    except ValueError as exc:  # InvalidFSpec, InvalidQ and CapExceeded too
        print(f"hofq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"hofq: overflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hofq: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
