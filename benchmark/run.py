#!/usr/bin/env python3
"""Run one workload of the dlog benchmark in this process and print its
metrics; the last line of standard output is one JSON object.

    python3 benchmark/run.py --workload families --seed 1 --seconds 30 --trace 0

Run it from anywhere: the program is imported from the `src/` directory next
to this one, and the run fails (exit 2, no result) when it is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("families", "reach", "crosscheck")
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009  # never used while tuning; for re-checking a claimed gain


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "dlog" / "__init__.py").is_file():
        print(f"error: no dlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports dlog from SRC

    if not harness.imported_from(SRC):
        print(f"error: dlog was not imported from {SRC}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
