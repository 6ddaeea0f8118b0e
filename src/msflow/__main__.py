"""`python3 -m msflow`: the msflow command line (`bench_cli.main`)."""

import sys

from .bench_cli import main

if __name__ == "__main__":
    sys.exit(main())
