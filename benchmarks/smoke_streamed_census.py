"""CI smoke: the sharded streaming census build must match the record census.

Run as a script (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_streamed_census.py --n 7 --jobs 2

Checks, at size ``--n``:

* canonical augmentation generates exactly the classes of the retained
  augment-and-deduplicate generator, in the same order (one level, from
  the classes on ``n - 1`` vertices);
* :meth:`repro.analysis.store.CensusStore.build` (the generation tree
  sharded over ``--jobs`` workers, columns assembled as the graphs stream
  past) equals the per-record
  :meth:`repro.analysis.census.EquilibriumCensus.build` converted through
  :meth:`~repro.analysis.store.CensusStore.from_census`, column for column
  — same canonical class order, bit-identical values and dtypes, identical
  UCG interval columns when ``--ucg`` is given;
* the store's BCG ``grid_aggregates`` on a 24-point α-grid (counts,
  average and worst PoA, average links) equal the record census's
  per-α loop exactly.

Exits non-zero on the first mismatch.  At ``--n 8`` the two reference
paths (augment-and-deduplicate, the per-record loop) take about 1.5 min.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.analysis.census import EquilibriumCensus
from repro.analysis.store import CensusStore
from repro.analysis.sweeps import log_spaced_alphas
from repro.graphs import enumerate_graphs
from repro.graphs.enumeration import _augment_dedup_level, _canonical_augment_level


def same(a: float, b: float) -> bool:
    return (a != a and b != b) or a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7, help="census size (default 7)")
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes for the streamed build"
    )
    parser.add_argument(
        "--ucg",
        action="store_true",
        help="also compare the (slower) UCG interval columns",
    )
    args = parser.parse_args(argv)

    if args.n >= 1:
        parents = enumerate_graphs(args.n - 1)
        legacy = [g.edge_key() for g in _augment_dedup_level(parents)]
        if legacy != [g.edge_key() for g in _canonical_augment_level(parents)]:
            print(
                f"FAIL: canonical augmentation differs from augment-and-dedup "
                f"at n={args.n}",
                file=sys.stderr,
            )
            return 1
        print(f"n={args.n}: canonical augmentation ≡ augment-and-dedup "
              f"({len(legacy)} classes)")

    start = time.perf_counter()
    census = EquilibriumCensus.build(args.n, include_ucg=args.ucg)
    reference = CensusStore.from_census(census)
    record_s = time.perf_counter() - start

    start = time.perf_counter()
    streamed = CensusStore.build(args.n, include_ucg=args.ucg, jobs=args.jobs)
    streamed_s = time.perf_counter() - start

    if len(reference) != len(streamed):
        print(
            f"FAIL: {len(reference)} record-census classes vs "
            f"{len(streamed)} streamed",
            file=sys.stderr,
        )
        return 1
    for name in CensusStore.COLUMNS:
        a, b = getattr(reference, name), getattr(streamed, name)
        if a is None or b is None:
            if a is not None or b is not None:
                print(f"FAIL: column {name} present on one side only", file=sys.stderr)
                return 1
            continue
        if a.dtype != b.dtype or not np.array_equal(a, b):
            print(f"FAIL: column {name} differs", file=sys.stderr)
            return 1

    alphas = log_spaced_alphas(0.2, 128.0, 24)
    aggregates = streamed.grid_aggregates(alphas, "bcg")
    for column, alpha in enumerate(alphas):
        expected = (
            census.equilibrium_count(alpha, "bcg"),
            census.average_price_of_anarchy(alpha, "bcg"),
            census.worst_price_of_anarchy(alpha, "bcg"),
            census.average_num_links(alpha, "bcg"),
        )
        observed = tuple(
            aggregates[key][column]
            for key in ("counts", "average_poa", "worst_poa", "average_links")
        )
        if not all(same(a, b) for a, b in zip(expected, observed)):
            print(
                f"FAIL: grid aggregates differ at alpha={alpha!r}: "
                f"record {expected} vs store {observed}",
                file=sys.stderr,
            )
            return 1

    print(
        f"OK: n={args.n} streamed store and its grid aggregates identical "
        f"to the record census "
        f"({len(streamed)} classes; record census {record_s:.2f}s, "
        f"streamed {streamed_s:.2f}s, jobs={args.jobs})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
