"""A replicate's risk report does not depend on the BLAS thread count, nor
on the SIMD level numpy dispatches to.

One dense n = 400 replicate (k = 20, whose oracle search and block sums
once went through multi-threaded BLAS products), one ultra-sparse replicate
(k = 40, whose degree-sorted alignment start is a k-vector gemv) and one
small-k replicate (k = 8) run in fresh interpreters with
OPENBLAS_NUM_THREADS=1 and =2, and, on a CPU with AVX-512, with numpy's
AVX-512 kernels switched off, which changes the bits of np.log.  Every
RiskReport field but runtime_ms must have the same bits, printed as
float.hex by tools/replicate_bits.py's report_fields.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from graphonfit.harness import run_replicate
from replicate_bits import report_fields
from sweepbench import WORKLOADS

for name, n in (("dense-sweep", 400), ("ultra-sparse-sweep", 100), ("small-k-sweep", 64)):
    print(name, report_fields(run_replicate(WORKLOADS[name].sweep_config(1), n, 0)))
"""

# numpy's dispatch down to AVX2: its AVX-512 log kernel gives other bits
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
LOG_BITS = """
import hashlib
import numpy as np
x = np.random.default_rng(0).random(10**5) * 1e3
print(hashlib.sha256(np.log(x).tobytes()).hexdigest())
"""


def python_lines(code: str, env: dict) -> list:
    """The lines code prints, run in a fresh interpreter with env added."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench", "tools")))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=ROOT, env=env)
    return done.stdout.splitlines()


def replicate_lines(env: dict) -> list:
    return python_lines(SCRIPT, env)


@pytest.fixture(scope="module")
def one_thread():
    lines = replicate_lines(ONE_THREAD)
    assert len(lines) == 3
    assert all("status=ok" in line and "oracle_risk=0x" in line for line in lines)
    return lines


def test_reports_keep_their_bits_across_blas_threads(one_thread):
    assert replicate_lines({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}) == one_thread


@pytest.mark.skipif(not __cpu_features__.get("AVX512_SKX"), reason="needs AVX-512 (SKX)")
def test_reports_keep_their_bits_across_simd_levels(one_thread):
    assert python_lines(LOG_BITS, NO_AVX512) != python_lines(LOG_BITS, {})  # the setting bites
    assert replicate_lines({**ONE_THREAD, **NO_AVX512}) == one_thread
