"""StreamingEnsembleStats: the regime-split accuracy contract.

Within the exact buffer every statistic must be bit-identical to the dense
:func:`ensemble_stats` kernel; past it, moments and extrema stay exact,
std agrees with the dense two-pass std to ``rtol 1e-9`` (near-constant
positions included), and quantiles land within P² sketch tolerance — with
the inf/nan patterns of all-infinite positions preserved either way.

The block-folding lane sketch is also held, bit for bit, to the original
row-at-a-time fold (:class:`RowFoldOracle`, kept here verbatim), and a
small ``run_ensemble`` is pinned to a digest of its aggregates.
"""

import hashlib
from typing import Dict, List, Optional, Sequence

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.ensembles import run_ensemble
from repro.engine.columnar import ensemble_stats
from repro.engine.streaming import StreamingEnsembleStats


def dense_reference(stacked, quantiles=(0.25, 0.5, 0.75)):
    draws, length = stacked.shape
    indptr = np.arange(draws + 1, dtype=np.int64) * length
    return ensemble_stats(stacked.reshape(-1), indptr, quantiles=quantiles)


def feed(stacked, exact_buffer, block=7, quantiles=(0.25, 0.5, 0.75)):
    agg = StreamingEnsembleStats(
        stacked.shape[1], quantiles=quantiles, exact_buffer=exact_buffer
    )
    for start in range(0, stacked.shape[0], block):
        agg.update(stacked[start:start + block])
    return agg


def assert_same_list(a, b, context):
    a, b = np.asarray(a), np.asarray(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    assert same.all(), (context, a[~same][:5], b[~same][:5])


class TestExactRegime:
    def test_bit_identical_to_dense_kernel(self):
        rng = np.random.default_rng(0)
        stacked = rng.normal(size=(20, 30))
        got = feed(stacked, exact_buffer=64).finalize()
        ref = dense_reference(stacked)
        for key in ("mean", "std", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        for q in (0.25, 0.5, 0.75):
            assert_same_list(got["quantiles"][q], ref["quantiles"][q], q)

    def test_all_inf_positions_match_dense_kernel(self):
        """Window columns of tree classes are +inf in every draw."""
        rng = np.random.default_rng(1)
        stacked = np.abs(rng.normal(size=(12, 8)))
        stacked[:, 3] = np.inf
        got = feed(stacked, exact_buffer=64).finalize()
        ref = dense_reference(stacked)
        assert got["mean"][3] == np.inf
        assert np.isnan(got["std"][3])
        for key in ("mean", "std", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        for q in (0.25, 0.5, 0.75):
            assert_same_list(got["quantiles"][q], ref["quantiles"][q], q)


class TestStreamingRegime:
    def test_moments_and_extrema_exact_past_buffer(self):
        """mean/min/max stay bit-exact; std agrees to float noise."""
        rng = np.random.default_rng(2)
        stacked = np.exp(rng.normal(size=(400, 25)))
        got = feed(stacked, exact_buffer=16).finalize()
        ref = dense_reference(stacked)
        for key in ("mean", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        assert np.allclose(got["std"], ref["std"], rtol=1e-9, atol=1e-12)

    def test_quantiles_within_sketch_tolerance(self):
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.0, 10.0, size=(1000, 12))
        got = feed(stacked, exact_buffer=32).finalize()
        ref = dense_reference(stacked)
        for q in (0.25, 0.5, 0.75):
            err = np.abs(
                np.asarray(got["quantiles"][q]) - np.asarray(ref["quantiles"][q])
            )
            # P² on 1000 uniform draws: a few percent of the data range.
            assert err.max() < 0.5, (q, err.max())

    def test_all_inf_positions_past_buffer(self):
        rng = np.random.default_rng(4)
        stacked = np.abs(rng.normal(size=(300, 6)))
        stacked[:, 2] = np.inf
        got = feed(stacked, exact_buffer=16).finalize()
        ref = dense_reference(stacked)
        assert got["mean"][2] == np.inf
        assert np.isnan(got["std"][2])
        assert got["min"][2] == np.inf and got["max"][2] == np.inf
        for q in (0.25, 0.5, 0.75):
            # inf-inf interpolation is nan in the dense kernel too.
            assert np.isnan(got["quantiles"][q][2]) == np.isnan(
                ref["quantiles"][q][2]
            )

    def test_batching_invariance(self):
        """Identical results for any update block size (row order fixed)."""
        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(250, 15))
        results = [
            feed(stacked, exact_buffer=16, block=block).finalize()
            for block in (1, 9, 64, 250)
        ]
        for other in results[1:]:
            for key in ("mean", "std", "min", "max"):
                assert_same_list(results[0][key], other[key], key)
            for q in (0.25, 0.5, 0.75):
                assert_same_list(
                    results[0]["quantiles"][q], other["quantiles"][q], q
                )

    def test_state_size_independent_of_draws(self):
        rng = np.random.default_rng(6)
        small = feed(rng.normal(size=(100, 50)), exact_buffer=16)
        large = feed(rng.normal(size=(5000, 50)), exact_buffer=16)
        assert small.state_nbytes == large.state_nbytes

    def test_few_finite_values_fall_back_to_dense_quantile(self):
        """Positions with < 5 finite draws read the init buffer exactly."""
        stacked = np.full((40, 3), np.inf)
        stacked[:, 0] = np.arange(40.0)
        stacked[:3, 1] = [5.0, 1.0, 9.0]  # only 3 finite draws
        got = feed(stacked, exact_buffer=8).finalize()
        assert got["quantiles"][0.5][0] == pytest.approx(19.5, abs=1.5)
        assert np.isnan(got["quantiles"][0.5][2])


class TestValidation:
    def test_rejects_wrong_row_length(self):
        agg = StreamingEnsembleStats(4)
        with pytest.raises(ValueError):
            agg.update(np.zeros((2, 5)))

    def test_rejects_empty_finalize(self):
        with pytest.raises(ValueError):
            StreamingEnsembleStats(4).finalize()

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            StreamingEnsembleStats(4, exact_buffer=-1)

    def test_zero_length_positions(self):
        agg = StreamingEnsembleStats(0)
        agg.update(np.zeros((3, 0)))
        stats = agg.finalize()
        assert stats["mean"] == [] and stats["quantiles"][0.5] == []


class TestNearConstantStd:
    """Past the buffer, std must not cancel on near-constant positions."""

    def columns(self):
        rng = np.random.default_rng(7)
        stacked = np.empty((400, 3))
        stacked[:, 0] = 37.3
        stacked[:, 1] = 1e3 + 1e-5 * rng.uniform(-1.0, 1.0, size=400)
        stacked[:, 2] = rng.normal(size=400)
        return stacked

    @pytest.mark.parametrize("exact_buffer", [0, 16, 64])
    def test_std_matches_dense_two_pass(self, exact_buffer):
        stacked = self.columns()
        got = feed(stacked, exact_buffer=exact_buffer).finalize()
        ref = dense_reference(stacked)
        # atol covers the dense path's own rounding on the constant
        # column (~1e-13), far below the 5e-6 a raw E[x²] − E[x]² gives.
        np.testing.assert_allclose(got["std"], ref["std"], rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------------- #
# The original row-at-a-time fold, verbatim: the bit-exactness oracle.
# --------------------------------------------------------------------------- #


class _P2Sketch:
    """Vectorised P² quantile estimator: one 5-marker sketch per position.

    The classic Jain–Chlamtac algorithm, run column-parallel: ``heights``
    and ``npos`` are ``(5, L)`` arrays and every marker adjustment is a
    masked vector operation, so feeding one row costs O(L) regardless of
    how many positions move.  Only *finite* observations are fed here —
    the owner tracks ``±inf``/``nan`` tallies and recombines at finalize.
    """

    __slots__ = ("q", "heights", "npos", "_dn", "_rows")

    def __init__(self, q: float, length: int) -> None:
        self.q = float(q)
        self.heights = np.zeros((5, length), dtype=np.float64)
        self.npos = np.zeros((5, length), dtype=np.int64)
        self._dn = np.array(
            [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0]
        )
        self._rows = np.arange(5)[:, None]

    def init_columns(self, cols, sorted_block) -> None:
        """Seed columns ``cols`` from their first five finite values (sorted)."""
        self.heights[:, cols] = sorted_block
        self.npos[:, cols] = np.arange(1, 6, dtype=np.int64)[:, None]

    def add(self, values, mask, fin_counts) -> None:
        """Fold one row's finite values (at ``mask``) into the markers.

        ``fin_counts`` is the per-position finite count *including* this
        row, i.e. the P² observation count after the insertion.
        """
        idx = np.where(mask)[0]
        if idx.size == 0:
            return
        v = values[idx]
        h = self.heights[:, idx]
        npos = self.npos[:, idx]

        # Locate the cell: k in 0..3 with h[k] <= v < h[k+1]; clamp the
        # extremes into the end cells, moving the end marker onto v.
        count_le = (h <= v).sum(axis=0)
        below = count_le == 0
        above = count_le == 5
        k = np.clip(count_le - 1, 0, 3)
        h[0, below] = v[below]
        h[4, above] = v[above]
        npos += self._rows > k

        desired = 1.0 + (fin_counts[idx] - 1.0) * self._dn[:, None]
        for i in (1, 2, 3):
            d = desired[i] - npos[i]
            gap_up = npos[i + 1] - npos[i]
            gap_dn = npos[i - 1] - npos[i]
            move_up = (d >= 1.0) & (gap_up > 1)
            move_dn = (d <= -1.0) & (gap_dn < -1)
            move = move_up | move_dn
            if not move.any():
                continue
            s = np.where(move_up, 1.0, -1.0)
            ni = npos[i].astype(np.float64)
            nim = npos[i - 1].astype(np.float64)
            nip = npos[i + 1].astype(np.float64)
            hi = h[i]
            him = h[i - 1]
            hip = h[i + 1]
            # Divisors are only guaranteed nonzero where `move` holds; the
            # other lanes are masked out below, so silence their noise.
            with np.errstate(divide="ignore", invalid="ignore"):
                parab = hi + s / (nip - nim) * (
                    (ni - nim + s) * (hip - hi) / (nip - ni)
                    + (nip - ni - s) * (hi - him) / (ni - nim)
                )
                h_adj = np.where(s > 0.0, hip, him)
                n_adj = np.where(s > 0.0, nip, nim)
                linear = hi + s * (h_adj - hi) / (n_adj - ni)
            use_parab = (him < parab) & (parab < hip)
            moved = np.where(use_parab, parab, linear)
            h[i] = np.where(move, moved, hi)
            npos[i] += np.where(move, s, 0.0).astype(np.int64)

        self.heights[:, idx] = h
        self.npos[:, idx] = npos

    def estimate(self):
        """Current q-quantile estimate per position (the centre marker)."""
        return self.heights[2].copy()


class RowFoldOracle:
    """The original aggregator: one ``_stream_row`` per draw row."""

    def __init__(
        self,
        length: int,
        quantiles: Sequence[float] = (0.25, 0.5, 0.75),
        exact_buffer: int = 64,
    ) -> None:
        self.length = int(length)
        self.quantiles = tuple(float(q) for q in quantiles)
        self.exact_buffer = int(exact_buffer)
        self.count = 0
        self._buffer: Optional[List] = []
        self._sketches: List[_P2Sketch] = []

    def update(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        self.count += rows.shape[0]
        if self._buffer is not None:
            self._buffer.append(rows)
            if self.count > self.exact_buffer:
                self._flush_buffer()
            return
        for row in rows:
            self._stream_row(row)

    def _flush_buffer(self) -> None:
        L = self.length
        self._sum = np.zeros(L, dtype=np.float64)
        self._sumsq = np.zeros(L, dtype=np.float64)
        self._min = np.full(L, np.inf)
        self._max = np.full(L, -np.inf)
        self._neg = np.zeros(L, dtype=np.int64)
        self._pos = np.zeros(L, dtype=np.int64)
        self._nan = np.zeros(L, dtype=np.int64)
        self._fin = np.zeros(L, dtype=np.int64)
        self._init_buf = np.zeros((5, L), dtype=np.float64)
        self._sketches = [_P2Sketch(q, L) for q in self.quantiles]
        buffered, self._buffer = self._buffer, None
        for block in buffered:
            for row in block:
                self._stream_row(row)

    def _stream_row(self, row) -> None:
        # Row-sequential accumulation: identical, add for add, to NumPy's
        # axis-0 reduction of the dense stack — this is what keeps the
        # streamed mean bit-exact past the buffer.
        self._sum = self._sum + row
        self._sumsq = self._sumsq + row * row
        np.minimum(self._min, row, out=self._min)
        np.maximum(self._max, row, out=self._max)

        isnan = np.isnan(row)
        isneg = row == -np.inf
        ispos = row == np.inf
        finite = ~(isnan | isneg | ispos)
        self._nan += isnan
        self._neg += isneg
        self._pos += ispos
        pre = self._fin.copy()
        self._fin += finite

        filling = np.where(finite & (pre < 5))[0]
        if filling.size:
            self._init_buf[pre[filling], filling] = row[filling]
            full = filling[self._fin[filling] == 5]
            if full.size:
                block = np.sort(self._init_buf[:, full], axis=0)
                for sketch in self._sketches:
                    sketch.init_columns(full, block)
        streaming = finite & (pre >= 5)
        if streaming.any():
            for sketch in self._sketches:
                sketch.add(row, streaming, self._fin)

    def finalize(self) -> Dict[str, object]:
        if self._buffer is not None:
            stacked = np.concatenate(self._buffer, axis=0)
            with np.errstate(invalid="ignore"):
                return {
                    "mean": stacked.mean(axis=0).tolist(),
                    "min": stacked.min(axis=0).tolist(),
                    "max": stacked.max(axis=0).tolist(),
                    "quantiles": {
                        float(q): np.quantile(stacked, float(q), axis=0).tolist()
                        for q in self.quantiles
                    },
                }
        K = float(self.count)
        with np.errstate(invalid="ignore"):
            mean = self._sum / K
            quantile_rows = {
                q: self._finalize_quantile(q, sketch)
                for q, sketch in zip(self.quantiles, self._sketches)
            }
        return {
            "mean": mean.tolist(),
            "min": self._min.tolist(),
            "max": self._max.tolist(),
            "quantiles": {q: row.tolist() for q, row in quantile_rows.items()},
        }

    def _finalize_quantile(self, q: float, sketch: _P2Sketch):
        est = sketch.estimate()
        # Positions with fewer than 5 finite values never initialised their
        # markers — their finite part is still dense in the init buffer.
        partial = np.where((self._fin > 0) & (self._fin < 5))[0]
        for col in partial:
            vals = np.sort(self._init_buf[: self._fin[col], col])
            est[col] = np.quantile(vals, q)

        rank = q * (self.count - 1)
        lo = np.floor(rank)
        hi = np.ceil(rank)
        frac = rank - lo
        fin_end = self._neg + self._fin

        def rank_value(idx):
            return np.where(
                idx < self._neg,
                -np.inf,
                np.where(idx >= fin_end, np.inf, est),
            )

        a = rank_value(lo)
        b = rank_value(hi)
        with np.errstate(invalid="ignore"):
            diff = b - a
            out = np.where(
                frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac
            )
        out = np.where(self._nan > 0, np.nan, out)
        return out


def hard_columns(rows=250):
    """Columns covering every branch of the fold: inf/nan, ties, sparsity."""
    rng = np.random.default_rng(11)
    stacked = rng.normal(size=(rows, 14))
    stacked[rng.random(stacked.shape) < 0.05] = np.inf
    stacked[rng.random(stacked.shape) < 0.03] = -np.inf
    stacked[:, 1] = np.round(stacked[:, 1] * 2.0)  # heavy ties
    stacked[:, 2] = np.inf  # all-inf (a tree class's t_max window)
    stacked[:, 3] = -np.inf
    stacked[:, 4] = np.inf
    stacked[[5, 40, 100], 4] = [3.0, -1.0, 9.0]  # < 5 finite values
    stacked[:, 5] = np.inf
    stacked[:, 5][::2] = -np.inf  # ±inf only
    stacked[:, 6] = np.inf
    stacked[120:, 6] = rng.uniform(size=rows - 120)  # finite only late
    stacked[rng.random(rows) < 0.02, 7] = np.nan
    stacked[:, 8] = 37.3  # constant
    stacked[:, 9] = np.sort(rng.uniform(size=rows))  # increasing
    stacked[:, 10] = -np.sort(-rng.uniform(size=rows))  # decreasing
    stacked[:, 11] = np.exp(rng.normal(scale=3.0, size=rows))  # heavy tail
    stacked[:, 12] = rng.integers(0, 3, size=rows)  # three values
    return stacked


def fold(cls, stacked, exact_buffer, block):
    agg = cls(stacked.shape[1], exact_buffer=exact_buffer)
    for start in range(0, stacked.shape[0], block):
        agg.update(stacked[start:start + block])
    return agg.finalize()


def assert_matches_oracle(got, ref):
    for key in ("mean", "min", "max"):
        assert_same_list(got[key], ref[key], key)
    assert got["quantiles"].keys() == ref["quantiles"].keys()
    for q in ref["quantiles"]:
        assert_same_list(got["quantiles"][q], ref["quantiles"][q], q)


# The ±inf-only column makes the oracle's running sum inf + -inf.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestRowFoldOracle:
    """The lane sketch folds blocks exactly as the row fold did."""

    @pytest.mark.parametrize("exact_buffer", [0, 16, 64])
    @pytest.mark.parametrize("block", [1, 7, 64, 250])
    def test_bit_identical_to_row_fold(self, block, exact_buffer):
        stacked = hard_columns()
        got = fold(StreamingEnsembleStats, stacked, exact_buffer, block)
        ref = fold(RowFoldOracle, stacked, exact_buffer, block)
        assert_matches_oracle(got, ref)

    def test_block_straddling_the_flush(self):
        stacked = hard_columns(120)
        got = StreamingEnsembleStats(stacked.shape[1], exact_buffer=16)
        ref = RowFoldOracle(stacked.shape[1], exact_buffer=16)
        for agg in (got, ref):
            agg.update(stacked[:10])
            agg.update(stacked[10:50])  # the flush lands mid-block
            agg.update(stacked[50:])
        assert_matches_oracle(got.finalize(), ref.finalize())

    def test_zero_length_rows(self):
        stacked = np.zeros((100, 0))
        got = fold(StreamingEnsembleStats, stacked, 16, 7)
        ref = fold(RowFoldOracle, stacked, 16, 7)
        assert_matches_oracle(got, ref)
        assert got["mean"] == [] and got["quantiles"][0.25] == []


def ensemble_digest(result):
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


def test_streamed_ensemble_digest_is_pinned():
    """200 draws past a 16-draw buffer reproduce the row fold's aggregates."""
    result = run_ensemble(
        "random_weights", n=5, draws=200, seed=3, grid=6,
        window_exact_buffer=16, jobs=1,
    )
    assert ensemble_digest(result) == (
        "2bacb20e30ef7aa12556321fa5d0e0e07c45a192b183bc95179264110609a93d"
    )
