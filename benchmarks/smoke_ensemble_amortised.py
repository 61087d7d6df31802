"""Smoke test: amortised ensembles answer exactly like the per-draw path.

Runs a seeded ``random_weights`` ensemble twice — once per draw with
``batch_draws=1`` (every draw priced through its own
:class:`~repro.analysis.weighted_store.WeightedStore` kernel call, the
PR-5 reference semantics) and once through the shared
:class:`~repro.analysis.delta_store.DeltaStore` + stacked-weight kernels
with a small streaming window buffer — and asserts the counts matrix and
count summaries are bit-identical.  Then exercises the artifact plumbing:
``--delta-cache`` writes a memory-mappable delta directory on the first
run and reuses it untouched on the second, and a ``--save-dir`` resume
reports its draws as resumed rather than recomputed.

``--digest`` instead checks the streaming regime: a 300-draw ``n = 6``
ensemble (well past the default 64-draw exact buffer, so the window
aggregates come from the running sums and P² sketches) must reproduce a
pinned sha256 over its counts and window ``mean``/``min``/``max``/
``quantiles``.

Run from the repository root (CI runs both)::

    PYTHONPATH=src python benchmarks/smoke_ensemble_amortised.py --n 5
    PYTHONPATH=src python benchmarks/smoke_ensemble_amortised.py --digest
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.analysis.delta_store import DeltaStore
from repro.analysis.ensembles import run_ensemble


#: sha256 of the streamed n = 6, 300-draw, seed 1, 6-point-grid ensemble.
PINNED_DIGEST = "51378de3682f9ee4a200bad1fffa0025a0d62c14764b0f4410a7decc5a9d75b1"


def ensemble_digest(result) -> str:
    """sha256 of counts + window mean/min/max/quantiles (std excluded)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.counts, dtype="<i8").tobytes())
    for stats in (result.t_min_stats, result.t_max_stats):
        rows = [stats["mean"], stats["min"], stats["max"]]
        rows += [stats["quantiles"][q] for q in sorted(stats["quantiles"])]
        for row in rows:
            values = np.asarray(row, dtype="<f8")
            digest.update(np.where(np.isnan(values), np.nan, values).tobytes())
    return digest.hexdigest()


def check_digest() -> int:
    result = run_ensemble("random_weights", n=6, draws=300, seed=1, grid=6, jobs=1)
    got = ensemble_digest(result)
    if got != PINNED_DIGEST:
        print(f"streamed ensemble digest {got} != pinned {PINNED_DIGEST}")
        return 1
    print(
        f"streamed ensemble digest OK: n = 6, {result.classes} classes, "
        f"300 draws past the 64-draw exact buffer"
    )
    return 0


def assert_same_stats(a, b, context):
    for key in ("mean", "std", "min", "max"):
        assert a[key] == b[key], (context, key)
    for q in a["quantiles"]:
        assert a["quantiles"][q] == b["quantiles"][q], (context, q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="players (default 5)")
    parser.add_argument("--draws", type=int, default=8, help="draws (default 8)")
    parser.add_argument("--grid", type=int, default=6, help="t-grid points")
    parser.add_argument(
        "--digest", action="store_true",
        help="check the pinned 300-draw n = 6 streaming-regime digest instead",
    )
    args = parser.parse_args(argv)
    if args.digest:
        return check_digest()

    per_draw = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=1,
    )
    stacked = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=4, window_exact_buffer=2,
    )
    assert np.array_equal(per_draw.counts, stacked.counts), (
        "stacked counts diverged from the per-draw path"
    )
    assert_same_stats(per_draw.count_stats, stacked.count_stats, "count_stats")
    for key in ("mean", "min", "max"):
        assert per_draw.t_min_stats[key] == stacked.t_min_stats[key], key
        assert per_draw.t_max_stats[key] == stacked.t_max_stats[key], key

    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "deltas")
        cached = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, delta_cache=cache,
        )
        assert os.path.isdir(cache), "delta cache directory was not written"
        stamp = os.path.getmtime(os.path.join(cache, "meta.json"))
        DeltaStore.load(cache, mmap=True)
        again = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, delta_cache=cache,
        )
        assert os.path.getmtime(os.path.join(cache, "meta.json")) == stamp, (
            "delta cache was rewritten instead of reused"
        )
        assert np.array_equal(cached.counts, again.counts)
        assert np.array_equal(per_draw.counts, cached.counts)

        save_dir = os.path.join(tmp, "draws")
        first = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, save_dir=save_dir,
        )
        resumed = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, save_dir=save_dir,
        )
        assert (first.resumed, first.recomputed) == (0, args.draws)
        assert (resumed.resumed, resumed.recomputed) == (args.draws, 0)
        assert np.array_equal(first.counts, resumed.counts)

    print(
        f"amortised ensemble smoke OK: n = {args.n}, {per_draw.classes} "
        f"classes, {args.draws} draws x {len(per_draw.ts)} scales — "
        f"stacked/per-draw counts identical, delta cache reused, "
        f"{resumed.resumed}/{args.draws} draws resumed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
