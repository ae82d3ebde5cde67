"""The fit and oracle searches reproduce committed results to the last bit.

Three small seeded networks, one per benchmark workload's setting (dense,
ultra-sparse and small k), are fitted with mple_search and searched with
oracle_mple as a sweep replicate does.  The committed record holds each
result's assignment, search metadata, and its log-likelihood and divergence
as float.hex(), so a change that means to keep the search's moves is checked
to the last bit; the golden sweep files keep 12 digits and cannot see that.

The searches run in a subprocess with BLAS pinned to one thread, as in
bench/run.py; no bit depends on it, which tests/test_blas_threads.py checks.
To regenerate the record (only for a change that means to alter fits, and
say why):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_search_bits.py \\
        > tests/data/search_bits.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RECORD = Path(__file__).parent / "data" / "search_bits.json"

# name: (sweep config fields, root seed); the network is replicate 0 at n.
CASES = {
    "dense": (dict(n_list=(100,), k_rule="sqrt(n)", rho_rule="0.3", restarts=3,
                   h_max_rule="ceil(2*n/k)"), 5),
    "ultra-sparse": (dict(n_list=(100,), k_rule="n^0.8", rho_rule="2*log10(n)^4/n",
                          restarts=1), 1),
    "small-k": (dict(n_list=(64,), k_rule="8", rho_rule="0.3", restarts=3), 7),
}


def record() -> dict:
    """Fit and oracle search results of every case, as the record holds them."""
    from graphonfit import (
        balanced_partition, edge_probabilities, graphon_by_name, mple_search,
        oracle_mple, sample_adjacency, sample_latents,
    )
    from graphonfit.harness import ExperimentConfig, _replicate_seed, oracle_rank_assignment

    out = {}
    for name, (fields, root) in CASES.items():
        cfg = ExperimentConfig(graphon_name="cosine", replicates=1, seed=root, grid=64, **fields)
        n = cfg.n_list[0]
        k, rho, h_max = cfg.instantiate(n)
        seed = _replicate_seed(cfg.seed, n, 0)
        xi = sample_latents(n, seed)
        p = edge_probabilities(graphon_by_name(cfg.graphon_name), xi, rho)
        fit = mple_search(sample_adjacency(p, seed), k, h_min=cfg.h_min, h_max=h_max,
                          restarts=cfg.restarts, seed=seed)
        rank_z = oracle_rank_assignment(xi, balanced_partition(n, k))
        ofit = oracle_mple(p, k, h_min=cfg.h_min, h_max=h_max, restarts=1, seed=seed,
                           extra_inits=[rank_z.z - 1])
        out[name] = {
            "fit": {
                "assignment": fit.assignment.z.tolist(),
                "profile_loglik": fit.profile_loglik.hex(),
                "swap_count": fit.swap_count,
                "ties": fit.ties,
                "restarts_used": fit.restarts_used,
            },
            "oracle": {
                "assignment": ofit.assignment.z.tolist(),
                "divergence": ofit.divergence.hex(),
                "ties": ofit.ties,
                "restarts_used": ofit.restarts_used,
            },
        }
    return out


def test_searches_equal_committed_bits():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got, want = json.loads(done.stdout), json.loads(RECORD.read_text())
    assert got.keys() == want.keys()
    for name in want:
        for search in ("fit", "oracle"):
            assert got[name][search] == want[name][search], (name, search)
    # the record exercises accepted swaps, which the dense setting alone does not
    assert any(want[name]["fit"]["swap_count"] > 0 for name in want)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
