"""Run one workload of the sweep benchmark and print its result as JSON.

Usage, from the repository root:

    python3 bench/run.py --workload dense-sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Failed checks go to standard error.  The full run (rows, spans, failures)
is written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The sweep runs with jobs=1; single-threaded BLAS keeps a shared machine's
# other load out of the numbers.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphonfit" / "__init__.py").is_file():
        print(f"error: no graphonfit source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import sweepbench  # noqa: E402 - needs the source path and BLAS settings

    workload = sweepbench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(sweepbench.WORKLOADS)}", file=sys.stderr)
        return 2
    result = sweepbench.run(workload, args.seed, args.seconds, bool(args.trace))
    sweepbench.write_raw(
        HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", result
    )
    for msg in result["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: result[key] for key in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
