"""Print how far the configured profile-likelihood search stops from a reference.

Usage, from the repository root:

    python3 tools/search_gap.py --seeds 1 2 --workloads dense-sweep
    python3 tools/search_gap.py --graphon product --rho 0.2 --seeds 1 2 3
    python3 tools/search_gap.py --root ../parent --seeds 1 > parent.txt

For each seed and each workload of bench/sweepbench.WORKLOADS (read, not
changed), with its graphon replaced by --graphon and its rho rule by --rho
when given, it samples every replicate's network as a sweep does, with one
BLAS thread, and fits it with ``mple_search`` as configured.  The reference
is the better of that fit and one search from the degree-sorted start and
REFERENCE_STARTS random balanced starts, seeded by the replicate and passed
explicitly, so the reference does not depend on the start rule it judges.

It prints one line per replicate (the two log-likelihoods as float.hex, the
gap in nats, and the fitted risk of each) and, per workload, a summary line:
the median and largest gap, the share of replicates whose gap exceeds the
search's least move gain (_SEARCH_TOL), and the median change in fitted risk
(reference minus configured).  The library and the workloads come from the
checkout at --root (default: this repository).
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from replicate_bits import parse_checkout_args

REFERENCE_STARTS = 20


def gap_lines(seeds, workloads, graphon=None, rho=None):
    """One line per replicate and one summary line per workload."""
    from graphonfit import (
        balanced_partition, edge_probabilities, graphon_by_name, mple_search,
        normalized_kl_risk, sample_adjacency, sample_latents,
    )
    from graphonfit.blockmodel import (
        _SEARCH_TOL, _contiguous_labels, _finish_fit, _maximize_profile,
    )
    from graphonfit.harness import _replicate_seed
    from sweepbench import WORKLOADS

    for name in workloads or WORKLOADS:
        gaps, risk_changes = [], []
        for seed in seeds:
            cfg = WORKLOADS[name].sweep_config(seed)
            cfg = replace(cfg, graphon_name=graphon or cfg.graphon_name,
                          rho_rule=rho or cfg.rho_rule)
            truth = graphon_by_name(cfg.graphon_name)
            for n in cfg.n_list:
                k, rho_n, h_max = cfg.instantiate(n)
                for rep in range(cfg.replicates):
                    s = _replicate_seed(cfg.seed, n, rep)
                    p = edge_probabilities(truth, sample_latents(n, s), rho_n)
                    a = sample_adjacency(p, s)
                    fit = mple_search(a, k, h_min=cfg.h_min, h_max=h_max,
                                      restarts=cfg.restarts, seed=s)
                    rng = np.random.default_rng([s, REFERENCE_STARTS])
                    sizes = balanced_partition(n, k).h
                    starts = [_contiguous_labels(rng.permutation(n), sizes)
                              for _ in range(REFERENCE_STARTS)]
                    z0, total, swaps, ties, runs = _maximize_profile(
                        a.a.astype(np.intp), k, cfg.h_min, h_max, 1, s, starts)
                    ref = _finish_fit(a, z0, k, total, runs, swaps, ties, s, cfg.h_min, h_max)
                    if fit.profile_loglik >= ref.profile_loglik:
                        ref = fit
                    gap = ref.profile_loglik - fit.profile_loglik
                    risk, ref_risk = normalized_kl_risk(p, fit), normalized_kl_risk(p, ref)
                    gaps.append(gap)
                    risk_changes.append(ref_risk - risk)
                    yield (f"{name} root_seed={seed} rep={rep} n={n} "
                           f"loglik={fit.profile_loglik.hex()} "
                           f"reference={ref.profile_loglik.hex()} gap={gap:.4f} "
                           f"fitted_risk={risk:.6g} reference_risk={ref_risk:.6g}")
        yield (f"{name} graphon={cfg.graphon_name} rho={cfg.rho_rule} replicates={len(gaps)} "
               f"median_gap={np.median(gaps):.4f} max_gap={max(gaps):.4f} "
               f"share_above_tol={np.mean(np.array(gaps) > _SEARCH_TOL):.3f} "
               f"median_risk_change={np.median(risk_changes):+.6g}")


def main(argv=None) -> int:
    args = parse_checkout_args(__doc__, [1, 2], argv, {
        "--graphon": dict(default=None, help="graphon in place of the workload's"),
        "--rho": dict(default=None, help="rho rule in place of the workload's"),
    })
    from graphonfit.errors import ConfigError

    try:
        for line in gap_lines(args.seeds, args.workloads, args.graphon, args.rho):
            print(line, flush=True)
    except ConfigError as e:
        print(f"search_gap.py: error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
