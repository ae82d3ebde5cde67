"""tools/replicate_bits.py prints one exact line per benchmark replicate, and
a rerun prints the same lines."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replicate_bits.py"


def run_tool(*args):
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          check=True, cwd=ROOT)
    return done.stdout.splitlines()


def test_small_k_lines_repeat_exactly():
    first = run_tool("--seeds", "1", "--workloads", "small-k-sweep")
    # n 48 and 64, three replicates each
    assert len(first) == 6
    assert all(line.startswith("small-k-sweep root_seed=1 ") and "status=ok" in line for line in first)
    assert "runtime_ms" not in first[0] and "mse_aligned=0x" in first[0]
    assert run_tool("--seeds", "1", "--workloads", "small-k-sweep", "--root", str(ROOT)) == first


@pytest.mark.parametrize("tool", ["replicate_bits.py", "scan_counts.py"])
def test_unknown_workload_is_a_usage_error(tool):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / tool), "--workloads", "bogus"],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "unknown workload bogus; known: dense-sweep" in done.stderr
