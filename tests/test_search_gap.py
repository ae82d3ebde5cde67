"""tools/search_gap.py prints each replicate's gap to its reference search and
a summary per workload, and refuses a truth the workload's rho cannot take."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "search_gap.py"
REPLICATE = re.compile(r"small-k-sweep root_seed=1 rep=\d n=(48|64) loglik=(\S+) reference=(\S+) "
                       r"gap=(\S+) fitted_risk=\S+ reference_risk=\S+")
SUMMARY = re.compile(r"small-k-sweep graphon=cosine rho=0.3 replicates=6 median_gap=(\S+) "
                     r"max_gap=(\S+) share_above_tol=(\S+) median_risk_change=\S+")


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)


def test_small_k_gaps():
    done = run_tool("--seeds", "1", "--workloads", "small-k-sweep")
    assert done.returncode == 0, done.stderr
    *lines, summary = done.stdout.splitlines()
    assert len(lines) == 6
    gaps = []
    for line in lines:
        _, loglik, reference, gap = REPLICATE.fullmatch(line).groups()
        # the reference is never below the configured fit, and the gap is theirs
        assert float.fromhex(reference) >= float.fromhex(loglik)
        assert abs(float(gap) - (float.fromhex(reference) - float.fromhex(loglik))) < 1e-4
        gaps.append(float(gap))
    median, largest, share = (float(v) for v in SUMMARY.fullmatch(summary).groups())
    assert largest == max(gaps) and 0.0 <= median <= largest and 0.0 <= share <= 1.0


def test_rho_the_truth_cannot_take_is_a_usage_error():
    # product's sup is 4, so the workload's rho of 0.3 gives probabilities above 1
    done = run_tool("--seeds", "1", "--workloads", "small-k-sweep", "--graphon", "product")
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "need 0 < rho*sup f < 1" in done.stderr
