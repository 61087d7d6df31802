"""Exact per-class stability intervals versus the per-α CSR scan.

:func:`repro.engine.columnar.bcg_stability_intervals` turns each class's
Definition 3 data into one float interval ``(A, R]``, and
:func:`~repro.engine.columnar.bcg_interval_mask` answers grids from it.  The
contract is bit-identity with :func:`~repro.engine.columnar.bcg_stable_mask`
(the oracle) on every float ``α``: dense grids, every threshold ±1 and ±2
ulp, ``±0``, ``±inf``, ``NaN`` and negative costs — and unchanged
``grid_aggregates`` output.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.store import CensusStore
from repro.core.efficiency import efficient_social_cost
from repro.engine import columnar
from repro.engine.columnar import (
    BCG_TOL,
    bcg_interval_mask,
    bcg_stability_intervals,
    bcg_stable_mask,
)

SPECIAL_ALPHAS = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1e-300, -1e-300, 5e-324, -5e-324, BCG_TOL, -BCG_TOL, 2 * BCG_TOL,
    -1.0, -7.5, -1e6, 1e308,
]


def grid_family(A, R, dense):
    """Every finite threshold, ±1 and ±2 ulp, a dense grid and the specials."""
    thresholds = np.concatenate([A, R])
    thresholds = thresholds[np.isfinite(thresholds)]
    points = [thresholds, dense]
    for direction in (math.inf, -math.inf):
        step = thresholds
        for _ in range(2):
            with np.errstate(over="ignore"):
                step = np.nextafter(step, direction)
            points.append(step)
    return np.unique(np.concatenate(points)).tolist() + SPECIAL_ALPHAS


def oracle_columns(store):
    return (store._rem_min_column(), store.add_lo, store.add_hi, store.add_indptr)


def reference_aggregates(store, alphas):
    """``grid_aggregates`` over the oracle mask, costing every class per α."""
    mask = bcg_stable_mask(*oracle_columns(store), alphas)
    edges = store.num_edges.astype(np.float64)
    result = {"counts": [], "average_poa": [], "worst_poa": [], "average_links": []}
    for column, alpha in enumerate(alphas):
        selected = mask[:, column]
        count = int(selected.sum())
        result["counts"].append(count)
        if count == 0:
            for key in ("average_poa", "worst_poa", "average_links"):
                result[key].append(float("nan"))
            continue
        optimum = efficient_social_cost(store.n, float(alpha), "bcg")
        cost = (2.0 * float(alpha)) * edges + store.dist_total
        poa = (np.ones_like(cost) if optimum == 0 else cost / optimum)[selected]
        total = 0
        for value in poa.tolist():
            total = total + value
        result["average_poa"].append(total / count)
        result["worst_poa"].append(float(poa.max()))
        links = int(store.num_edges[selected].sum(dtype=np.int64))
        result["average_links"].append(links / count)
    return result


@pytest.fixture(scope="module", params=(6, 7))
def store(request):
    return CensusStore.build(request.param, include_ucg=False)


@pytest.fixture(scope="module")
def grid(store):
    A, R = bcg_stability_intervals(*oracle_columns(store))
    return grid_family(A, R, np.linspace(-2.0, 2.0 * store.n ** 2 + 4, 600))


class TestCensusParity:
    def test_store_mask_is_the_oracle_mask(self, store, grid):
        expected = bcg_stable_mask(*oracle_columns(store), grid)
        got = store.stable_mask(grid, "bcg")
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_intervals_bound_the_lemma2_windows(self, store):
        A, R = bcg_stability_intervals(*oracle_columns(store))
        alpha_min, alpha_max = store.stability_windows()
        finite = np.isfinite(alpha_max)
        # R is the last float at which no removal pays: alpha_max + tol, rounded.
        assert np.all(R[finite] >= alpha_max[finite])
        assert np.all(R[finite] <= alpha_max[finite] + 4 * BCG_TOL)
        assert np.all(R[~finite] == math.inf)
        has_adds = ~np.isnan(A)
        assert np.all(A[has_adds] <= alpha_min[has_adds] + 4 * BCG_TOL)

    def test_complete_graph_is_stable_down_to_minus_infinity(self, store):
        A, _R = bcg_stability_intervals(*oracle_columns(store))
        complete = np.flatnonzero(np.diff(store.add_indptr) == 0)
        assert complete.size == 1 and math.isnan(A[complete[0]])
        assert store.stable_mask([-math.inf], "bcg")[complete[0], 0]

    def test_grid_aggregates_json_unchanged(self, store, grid):
        with np.errstate(invalid="ignore"):  # inf / inf costs at α = ±inf
            got = store.grid_aggregates(grid, "bcg")
            expected = reference_aggregates(store, grid)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    @pytest.mark.parametrize("chunk", (1, 7, 1000))
    def test_chunking_does_not_change_intervals(self, store, monkeypatch, chunk):
        whole = bcg_stability_intervals(*oracle_columns(store))
        monkeypatch.setattr(columnar, "_INTERVAL_CHUNK", chunk)
        chunked = bcg_stability_intervals(*oracle_columns(store))
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b, equal_nan=True)

    def test_intervals_are_cached_once_per_store(self, store):
        first = store._interval_columns()
        store.stable_mask([1.0, 2.0], "bcg")
        assert store._interval_columns() is first

    def test_concurrent_first_queries_agree(self, store, grid):
        """Pool threads racing to fill the cache all read a finished pair."""
        fresh = store.permute(np.arange(len(store)))
        expected = bcg_stable_mask(*oracle_columns(store), grid)
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def worker(k):
            barrier.wait(timeout=10)
            results[k] = fresh.stable_mask(grid, "bcg")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,))
                for k in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(got, expected) for got in results)
        assert len(fresh._interval_columns()) == 2


# --------------------------------------------------------------------------- #
# Synthetic CSR columns
# --------------------------------------------------------------------------- #

_BASES = [
    0.0, 1.0, 2.0, 3.0, 17.0, 1e6, BCG_TOL, 2 * BCG_TOL, -BCG_TOL, -3.0,
    1e-300, 5e-324, math.inf, -math.inf, math.nan,
]


@st.composite
def payoff(draw):
    """A payoff value: a base, maybe nudged within 1e-12, or any float."""
    if draw(st.booleans()):
        return draw(st.floats(allow_nan=True, allow_infinity=True))
    base = draw(st.sampled_from(_BASES))
    nudge = draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12]))
    return base + nudge


@st.composite
def csr_columns(draw):
    classes = draw(st.integers(min_value=0, max_value=6))
    rem_min, lo, hi, indptr = [], [], [], [0]
    for _ in range(classes):
        rem_min.append(draw(st.one_of(st.just(math.inf), payoff())))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            a = draw(payoff())
            b = a if draw(st.booleans()) else draw(payoff())
            lo.append(min(a, b) if draw(st.booleans()) else a)
            hi.append(max(a, b) if draw(st.booleans()) else b)
        indptr.append(len(lo))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    with np.errstate(over="ignore"):
        return (
            np.asarray(rem_min, dtype=np.float64),
            np.asarray(lo, dtype=dtype),
            np.asarray(hi, dtype=dtype),
            np.asarray(indptr, dtype=np.int64),
        )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    csr_columns(),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    st.sampled_from([1, 2, 1 << 15]),
)
def test_interval_mask_matches_oracle_on_synthetic_columns(columns, extra, chunk):
    saved = columnar._INTERVAL_CHUNK
    columnar._INTERVAL_CHUNK = chunk
    try:
        A, R = bcg_stability_intervals(*columns)
    finally:
        columnar._INTERVAL_CHUNK = saved
    rem_min, lo, hi, _indptr = columns
    values = np.concatenate(
        [rem_min, lo.astype(np.float64), hi.astype(np.float64)]
    )
    values = values[np.isfinite(values)]
    with np.errstate(over="ignore"):
        near = np.concatenate([values - BCG_TOL, values + BCG_TOL, values])
    grid = grid_family(A, R, near) + [float(x) for x in extra]
    expected = bcg_stable_mask(*columns, grid)
    assert np.array_equal(bcg_interval_mask(A, R, grid), expected)


@pytest.mark.parametrize(
    "value", [0.0, BCG_TOL, -BCG_TOL, 1.5 * BCG_TOL, 5e-324, -5e-324, 1e-300, 3.0]
)
@pytest.mark.parametrize("shift, strict", [(-BCG_TOL, False), (BCG_TOL, True)])
def test_largest_alpha_is_the_last_float_that_holds(value, shift, strict):
    """The bisection fallback near zero, where nextafter steps cannot reach."""

    def holds(alpha):
        moved = alpha + shift
        return moved < value if strict else moved <= value

    (alpha,) = columnar._largest_alpha(np.array([value]), shift, strict)
    assert holds(alpha)
    assert not holds(float(np.nextafter(alpha, math.inf)))
