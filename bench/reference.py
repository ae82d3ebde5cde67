"""Regenerate the reference medians and quartiles quoted in bench/README.md.

Usage, from the repository root:

    python3 bench/reference.py [--seeds 1-10] [--workloads dense-sweep,...]

Runs ``bench/run.py`` once per (workload, seed) with tracing off and once
per workload with tracing on (first seed), each in its own process.  Prints,
for every end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
then the per-layer metrics of the traced run.  Every result line is
appended to ``bench/out/reference.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    if done.stderr:
        print(done.stderr, file=sys.stderr, end="")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = {"workload": workload, "seed": seed, "trace": trace, **result}
    with open(HERE / "out" / "reference.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    seeds = _seeds(args.seeds)
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, meta in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {meta['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / abs(med):.3f} |")
        traced = run_once(workload, seeds[0], 1)
        print(f"\n{workload}, traced, seed {seeds[0]}: correct {traced['correct']}")
        for name, meta in traced["metrics"].items():
            print(f"    {name} = {meta['value']:.4g} {meta['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
