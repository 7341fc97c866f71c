#!/usr/bin/env python3
"""Compare two benchmark records written by `run.py --record FILE`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the relative change.  Records made
under a different kernel backend, core count or library versions are marked
as not comparable instead of being mixed silently; a backend mismatch makes
the exit status 1.
"""

import json
import sys

FACTS = ("backend", "kernel_extension_importable", "nproc", "python", "numpy",
         "mpmath", "workload", "scale", "trace")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (load(path) for path in argv)
    fb, fn = base["facts"], new["facts"]
    differ = [k for k in FACTS if fb.get(k) != fn.get(k)]
    for k in differ:
        print(f"NOT COMPARABLE: {k} differs: {fb.get(k)!r} vs {fn.get(k)!r}")
    mark = " (not comparable)" if differ else ""
    print(f"{'metric':<28}{'base':>14}{'new':>14}{'change':>10}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:<28}{b['value']:>14.6g}{'-':>14}")
            continue
        change = (f"{n['value'] / b['value'] - 1:+.1%}" if b["value"]
                  else "-")
        print(f"{name:<28}{b['value']:>14.6g}{n['value']:>14.6g}{change:>10}"
              f" {b['unit']}{mark}")
    return 1 if "backend" in differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
