"""`python -m hofq`: the `hofq` command line, hofq.cli.main."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
