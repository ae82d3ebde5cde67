"""Run the sweep benchmark's workloads and write one BENCH_<label>.json.

Usage, from the repository root:

    python3 tools/bench_trajectory.py --seed 3 --seconds 25
    python3 tools/bench_trajectory.py --root ../other-checkout --label abc1234

For every workload in BENCHMARK.json it runs ``bench/run.py`` of the
checkout at --root (default: this repository) once with ``--trace 0`` (the
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics), one
run at a time, and keeps each run's last output line.  The label defaults
to the checkout's short commit hash; the file goes to this repository's
root.  Nothing under bench/ is changed apart from the raw outputs
bench/run.py itself writes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACES = (0, 1)


def short_commit(root: Path) -> str:
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """bench/run.py's result object for one workload and trace mode."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "processor": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    label = args.label or short_commit(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        workloads[workload] = {}
        for trace in TRACES:
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            workloads[workload][f"trace{trace}"] = run_workload(
                root, workload, args.seed, args.seconds, trace)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "label": label,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine(),
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
