#!/usr/bin/env python3
"""Write tests/cli_golden.json: the exit code and output digests of every
case in test_cli_golden.CASES.

    PYTHONPATH=src python3 tests/record_cli_golden.py

Record only from a tree whose output is known to be right: the golden test
counts every later difference as a failure.
"""

import json
import sys
import tempfile

from test_cli_golden import CASES, GOLDEN_PATH, run_case


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            golden[name] = run_case(argv, tmp)
            print(f"{golden[name]['code']}  {name}", file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
