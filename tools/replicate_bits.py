"""Print every benchmark replicate's risk report with exact float bits.

Usage, from the repository root:

    python3 tools/replicate_bits.py --seeds 1 2 3 > change.txt
    python3 tools/replicate_bits.py --root ../parent --seeds 1 2 3 > parent.txt
    diff parent.txt change.txt

For each seed and each workload of bench/sweepbench.WORKLOADS (read, not
changed), it runs the workload's sweep config one ``run_replicate`` call at
a time with one BLAS thread, as the benchmark's timed pass does, and prints
one line per replicate: the workload, the root seed, the replicate's index
and every RiskReport field but runtime_ms, floats as ``float.hex``.  The
library and the workloads come from the checkout at --root (default: this
repository), so the outputs of two checkouts can be compared with diff.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def report_fields(report) -> str:
    """Every field of a RiskReport but runtime_ms, floats as float.hex."""
    return " ".join(f"{f.name}={_field(getattr(report, f.name))}"
                    for f in fields(report) if f.name != "runtime_ms")


def _field(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def replicate_lines(seeds, workloads=None):
    """One line per replicate of the named workloads (all by default)."""
    from graphonfit.harness import run_replicate
    from sweepbench import WORKLOADS

    for seed in seeds:
        for name in workloads or WORKLOADS:
            cfg = WORKLOADS[name].sweep_config(seed)
            for n in cfg.n_list:
                for rep in range(cfg.replicates):
                    report = run_replicate(cfg, n, rep)
                    yield f"{name} root_seed={seed} rep={rep} {report_fields(report)}"


def parse_checkout_args(doc: str, default_seeds: list, argv=None) -> argparse.Namespace:
    """Parse --root, --seeds and --workloads, pin one BLAS thread, and put
    the library and the workloads of the checkout at --root first on the
    path.  An unknown workload name, or a library imported from elsewhere,
    is a usage error."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--seeds", type=int, nargs="+", default=default_seeds)
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import graphonfit
    from sweepbench import WORKLOADS

    if Path(graphonfit.__file__).resolve().parents[1] != root / "src":
        parser.error(f"graphonfit was imported from {graphonfit.__file__}, not {root / 'src'}")
    unknown = [name for name in args.workloads or () if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_checkout_args(__doc__, [1, 2, 3], argv)
    for line in replicate_lines(args.seeds, args.workloads):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
