"""A replicate's risk report does not depend on the BLAS thread count.

One dense n = 400 replicate (k = 20, whose oracle search and block sums
once went through multi-threaded BLAS products) and one ultra-sparse
replicate (k = 40, whose degree-sorted alignment start is a k-vector gemv)
run in fresh interpreters with OPENBLAS_NUM_THREADS=1 and =2.  Every
RiskReport field but runtime_ms must have the same bits, printed as
float.hex by tools/replicate_bits.py's report_fields.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from graphonfit.harness import run_replicate
from replicate_bits import report_fields
from sweepbench import WORKLOADS

for name, n in (("dense-sweep", 400), ("ultra-sparse-sweep", 100)):
    print(name, report_fields(run_replicate(WORKLOADS[name].sweep_config(1), n, 0)))
"""


def replicate_lines(threads: int) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench", "tools")))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          check=True, cwd=ROOT, env=env)
    return done.stdout.splitlines()


def test_reports_keep_their_bits_across_blas_threads():
    one = replicate_lines(1)
    assert len(one) == 2 and all("status=ok" in line and "oracle_risk=0x" in line for line in one)
    assert replicate_lines(2) == one
