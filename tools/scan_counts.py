"""Print how many scans, windows and moves each kind of search scan scored.

Usage, from the repository root:

    python3 tools/scan_counts.py --seeds 1 > change.txt
    python3 tools/scan_counts.py --root ../parent --seeds 1 > parent.txt
    diff parent.txt change.txt

For each seed and each workload of bench/sweepbench.WORKLOADS it runs every
replicate as tools/replicate_bits.py does, one ``run_replicate`` call at a
time with one BLAS thread, and prints one line per kind of scan:

- ``fit.relabel`` and ``fit.swap``: the relabel scans and swap sweeps of
  ``mple_search`` (0/1 weights);
- ``oracle.relabel`` and ``oracle.swap``: those of ``oracle_mple``
  (fixed-point weights);
- ``mse.descent``: the exact block-order descent of the aligned ``graphon_mse``
  (k > 8 only; k <= 8 scores every order and runs none).

Each line gives the scans run, the windows scored and the moves those
windows covered (nodes for a relabel, pairs for a swap or a descent).  A
scan's first window starts at move 0 and no later window does, so scans
count the windows that start there.  The counts come from wrapping, from
outside, the two searches as the harness calls them (``mple_search`` and
``oracle_mple``, which label the scans) and the library's scan drivers
(``_local_searches``, ``_first_improvement`` and ``_lockstep``); no library
code is changed.  They depend only on the moves the searches score, not on timing,
so a rerun prints the same lines.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

from replicate_bits import parse_checkout_args, replicate_lines

KINDS = ("fit.relabel", "fit.swap", "oracle.relabel", "oracle.swap", "mse.descent")


def count_scans(blockmodel, risk, harness, counts: Counter) -> None:
    """Wrap the harness's searches and the scan drivers of the imported
    modules so that every window scored adds to
    counts[kind, "scans" | "windows" | "moves"]."""
    context = []  # the search, then the kind of scan, innermost last

    @contextmanager
    def within(labels):
        context.extend(labels)
        try:
            yield
        finally:
            del context[-len(labels):]

    def wrap(module, name, *labels):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            with within(labels):
                return inner(*args, **kwargs)

        setattr(module, name, wrapped)

    lockstep = blockmodel._lockstep

    def counted_lockstep(searches, cap, take_first, *args, **kwargs):
        kind = f"{context[0]}.{context[-1]}"

        def take(windows):
            for _, lo, hi in windows:
                counts[kind, "scans"] += lo == 0
                counts[kind, "windows"] += 1
                counts[kind, "moves"] += hi - lo
            return take_first(windows)

        return lockstep(searches, cap, take, *args, **kwargs)

    blockmodel._lockstep = counted_lockstep
    wrap(harness, "mple_search", "fit")
    wrap(harness, "oracle_mple", "oracle")
    wrap(blockmodel, "_local_searches", "relabel")
    wrap(blockmodel, "_first_improvement", "swap")
    wrap(risk, "_first_improvement", "mse", "descent")  # outside any search


def count_lines(seeds, workloads=None):
    """One line per seed, workload and kind of scan."""
    from graphonfit import blockmodel, harness, risk
    from sweepbench import WORKLOADS

    counts = Counter()
    count_scans(blockmodel, risk, harness, counts)
    for seed in seeds:
        for name in workloads or WORKLOADS:
            counts.clear()
            for _ in replicate_lines([seed], [name]):
                pass
            for kind in KINDS:
                values = " ".join(f"{what}={counts[kind, what]}"
                                  for what in ("scans", "windows", "moves"))
                yield f"{name} root_seed={seed} {kind} {values}"


def main(argv=None) -> int:
    args = parse_checkout_args(__doc__, [1], argv)
    for line in count_lines(args.seeds, args.workloads):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
