#!/usr/bin/env python3
"""Tracing overhead: traced minus untraced time for the same operations.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 1
    python3 perfbench/overhead.py --workload W --seed N

Both runs draw the same request stream from the seed and run the same
number of blocks, so they execute the same operations.  The script compares
their scaled latencies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    plain, traced = (
        json.loads((OUT / f"{args.workload}-seed{args.seed}-trace{t}.json").read_text())
        for t in (0, 1)
    )
    count = min(plain["operations"], traced["operations"])
    base = sum(plain["latencies_scaled_s"][:count])
    with_spans = sum(traced["latencies_scaled_s"][:count])
    print(f"{args.workload} seed {args.seed}: {count} operations, untraced {base:.4f} s, "
          f"traced {with_spans:.4f} s, overhead {with_spans - base:.4f} s "
          f"({(with_spans - base) / base:.1%}), {traced['spans']} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
