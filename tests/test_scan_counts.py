"""tools/scan_counts.py prints the scans, windows and moves each kind of
search scan scored on a benchmark workload, and a rerun prints the same
lines."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "scan_counts.py"
LINE = re.compile(r"small-k-sweep root_seed=1 (\S+) scans=(\d+) windows=(\d+) moves=(\d+)")


def run_tool(*args):
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          check=True, cwd=ROOT)
    return done.stdout.splitlines()


def test_small_k_counts_repeat_exactly():
    first = run_tool("--seeds", "1", "--workloads", "small-k-sweep")
    counts = {}
    for line in first:
        kind, *values = LINE.fullmatch(line).groups()
        counts[kind] = [int(v) for v in values]
    assert list(counts) == ["fit.relabel", "fit.swap", "oracle.relabel", "oracle.swap",
                            "mse.descent"]
    for kind in ("fit.relabel", "fit.swap", "oracle.relabel", "oracle.swap"):
        scans, windows, moves = counts[kind]
        assert 0 < scans <= windows <= moves, kind
    # k = 8 aligns by scoring every block order, so no descent runs
    assert counts["mse.descent"] == [0, 0, 0]
    assert run_tool("--seeds", "1", "--workloads", "small-k-sweep", "--root", str(ROOT)) == first
