"""Benchmark entry point for specjudge.

    python3 perfbench/run.py --workload decode-greedy-w8 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy, so the numbers belong to this checkout.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).  Exit code 2 means the package source is missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "specjudge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'specjudge'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
