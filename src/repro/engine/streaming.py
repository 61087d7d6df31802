"""Streaming ensemble aggregation: bounded-memory per-position statistics.

:func:`~repro.engine.columnar.ensemble_stats` aggregates a stack of
per-draw rows (per-``t`` stable counts, per-class window endpoints) — but
it needs the whole ``(draws, L)`` stack resident, so ensemble size is
bounded by memory, not time.  At ``n = 8`` the window-endpoint stack alone
costs ``2 × draws × 11117 × 8`` bytes: ~178 MB for a 1000-draw run and
growing linearly from there.  :class:`StreamingEnsembleStats` replaces the
stack with O(``L``) state so the ensemble runner can aggregate draws as
they arrive and discard them.

The accuracy contract is regime-split and explicit:

* **exact regime** (``count <= exact_buffer``, default 64) — rows are
  buffered and :meth:`finalize` computes through the *same expressions* as
  :func:`ensemble_stats`, so every statistic (quantiles included) is
  bit-identical to the dense aggregation.  Small ensembles — including
  every pre-existing test — lose nothing;
* **streaming regime** (past the buffer) — the buffer is flushed into
  running state.  ``mean``/``min``/``max`` remain **bit-exact**: NumPy's
  axis-0 reduction of a C-order stack performs the same left-to-right
  per-position adds as our row-sequential accumulation, and min/max are
  order-insensitive.  ``std`` switches from the two-pass formula to
  ``sqrt(E[y²] − E[y]²)`` over values ``y = x − shift`` shifted by each
  position's first finite buffered value, which keeps near-constant
  positions free of cancellation (``rtol 1e-9`` against the dense two-pass
  ``std`` in the tests, ``nan`` wherever the dense path is ``nan``; a
  position with no finite buffered value keeps shift 0).  Quantiles come
  from one P² sketch per (quantile, position) — 5 markers each,
  initialised from the first five finite observations and nudged by
  parabolic-else-linear marker moves — combined at :meth:`finalize` with
  per-position ``±inf`` / ``nan`` tallies through NumPy's own
  linear-interpolation rank rule, so all-infinite positions (the ``t_max``
  window of a tree class) degrade to the same ``inf``/``nan`` pattern as
  :func:`ensemble_stats`.

The sketches of all quantiles share one contiguous ``(5, Q·L)`` lane
block (:class:`_P2Lanes`), so one :meth:`StreamingEnsembleStats.update`
folds a whole ``(batch, L)`` block: the ``±inf``/``nan`` tallies, extrema
and per-row finite prefix counts are taken once per block, then each row
is one masked in-place pass over the lanes — no gathers or scatters.  Its
per-lane arithmetic is the scalar histogram bank's
(:class:`repro.obs.metrics._ScalarP2Bank`) expression for expression, and
the tests hold the two to equal estimates.

State size is independent of the number of draws (``state_nbytes``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Quantiles reported by default (quartiles + median, as ensemble_stats).
DEFAULT_QUANTILES = (0.25, 0.5, 0.75)

#: Draw-count threshold below which aggregation stays dense and bit-exact.
DEFAULT_EXACT_BUFFER = 64

# Marker j in 1..3 shifts right when at most j markers are <= the new
# value; marker 4 always does (6 > any count).
_SHIFT_LEVELS = np.array([1, 2, 3, 6], dtype=np.int8)[:, None]


class _P2Lanes:
    """Column-parallel P² quantile markers: one lane per (quantile, position).

    The classic Jain–Chlamtac algorithm with the markers of every quantile
    in one contiguous block: ``heights`` and ``npos`` are ``(5, Q·L)``
    arrays (lane ``i·L + p`` is quantile ``i`` at position ``p``; marker
    positions are exact integers held in float64), and :meth:`add` applies
    one row to every lane under its mask in place, so feeding a row costs
    one fixed set of whole-block operations however many lanes move.  Only
    *finite* observations are fed here — the owner tracks ``±inf``/``nan``
    tallies and recombines at finalize.
    """

    __slots__ = ("quantiles", "length", "heights", "npos", "_dn", "_row")

    def __init__(self, quantiles: Sequence[float], length: int) -> None:
        self.quantiles = len(quantiles)
        self.length = int(length)
        width = self.quantiles * self.length
        self.heights = np.zeros((5, width))
        self.npos = np.zeros((5, width))
        # Desired-position increments of the three inner markers.
        q = np.array([float(x) for x in quantiles])[:, None]
        self._dn = (q / 2.0, q, (1.0 + q) / 2.0)
        # One row broadcast to every quantile's lanes: values, the active
        # mask, and the finite count less one.
        self._row = (
            np.zeros((self.quantiles, self.length)),
            np.zeros((self.quantiles, self.length), dtype=bool),
            np.zeros((self.quantiles, self.length)),
        )

    def seed(self, cols, sorted_block) -> None:
        """Start positions ``cols`` from their first five finite values (sorted)."""
        shape = (5, self.quantiles, self.length)
        self.heights.reshape(shape)[:, :, cols] = sorted_block[:, None, :]
        self.npos.reshape(shape)[:, :, cols] = np.arange(1.0, 6.0)[:, None, None]

    def add(self, row, active, fin_minus_one) -> None:
        """Fold one draw row into the lanes of the positions where ``active``.

        ``row``/``active``/``fin_minus_one`` have one entry per position;
        ``fin_minus_one`` is the position's finite count *including* this
        row, minus one (the P² observation count after the insertion).
        """
        values, mask, fin_grid = self._row
        values[...] = row
        mask[...] = active
        fin_grid[...] = fin_minus_one
        values, active = values.reshape(-1), mask.reshape(-1)
        h, n = self.heights, self.npos
        # Locate the cell: count the markers <= v; a value outside the
        # marker range replaces the end marker it passed.
        count = np.add.reduce(h <= values, axis=0, dtype=np.int8)
        np.putmask(h[0], active & (count == 0), values)
        np.putmask(h[4], active & (count == 5), values)
        n[1:] += (count <= _SHIFT_LEVELS) & active

        # Divisors are only guaranteed nonzero where `move` holds; the
        # other lanes are masked out below, so silence their noise.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in (1, 2, 3):
                hi, him, hip = h[i], h[i - 1], h[i + 1]
                ni = n[i]
                d = (1.0 + fin_grid * self._dn[i - 1]).reshape(-1) - ni
                gap_up = n[i + 1] - ni
                gap_dn = ni - n[i - 1]
                move_up = (d >= 1.0) & (gap_up > 1.0)
                move = (move_up | ((d <= -1.0) & (gap_dn > 1.0))) & active
                if not move.any():
                    continue
                # The marker step: ±1 (the sign of d) where `move`, ±0 elsewhere.
                s = np.copysign(move, d)
                parab = hi + s / (gap_up + gap_dn) * (
                    (gap_dn + s) * (hip - hi) / gap_up
                    + (gap_up - s) * (hi - him) / gap_dn
                )
                # s·(h_adj − hi) / (n_adj − ni) with the signs cancelled:
                # (−x)/(−g) is x/g exactly in IEEE arithmetic.
                linear = hi + (np.where(move_up, hip, him) - hi) / np.where(
                    move_up, gap_up, gap_dn
                )
                use_parab = (him < parab) & (parab < hip)
                np.putmask(hi, move, np.where(use_parab, parab, linear))
                ni += s

    def estimates(self):
        """Current estimate per (quantile, position): the centre marker."""
        return self.heights[2].reshape(self.quantiles, self.length).copy()

    @property
    def nbytes(self) -> int:
        arrays = (self.heights, self.npos) + self._row
        return sum(array.nbytes for array in arrays)


class StreamingEnsembleStats:
    """Running per-position mean/std/min/max/quantiles over equal rows.

    Feed ``(batch, length)`` blocks of draw rows with :meth:`update` (in
    draw order — the result is then independent of how the caller batches
    them) and collect an :func:`ensemble_stats`-shaped dict from
    :meth:`finalize`.  See the module docstring for the exact-vs-sketch
    accuracy contract.
    """

    def __init__(
        self,
        length: int,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_buffer: int = DEFAULT_EXACT_BUFFER,
    ) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if exact_buffer < 0:
            raise ValueError("exact_buffer must be non-negative")
        self.length = int(length)
        self.quantiles = tuple(float(q) for q in quantiles)
        self.exact_buffer = int(exact_buffer)
        self.count = 0
        self._buffer: Optional[List] = []
        # Streaming state (allocated at the buffer flush).
        self._sum = None
        self._shift = None
        self._shifted_sum = None
        self._shifted_sumsq = None
        self._min = None
        self._max = None
        self._neg = None
        self._pos = None
        self._nan = None
        self._fin = None
        self._init_buf = None
        self._lanes: Optional[_P2Lanes] = None

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def update(self, rows) -> None:
        """Fold a ``(batch, length)`` block of draw rows into the state."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.length:
            raise ValueError(
                f"expected rows of shape (batch, {self.length}), "
                f"got {rows.shape}"
            )
        self.count += rows.shape[0]
        if self._buffer is not None:
            self._buffer.append(rows)
            if self.count > self.exact_buffer:
                self._flush_buffer()
            return
        self._fold(rows)

    def _flush_buffer(self) -> None:
        L = self.length
        buffered, self._buffer = self._buffer, None
        # Each position's first finite buffered value (0 where none).
        self._shift = np.zeros(L)
        unset = np.ones(L, dtype=bool)
        for block in buffered:
            finite = np.isfinite(block) & unset
            hit = finite.any(axis=0)
            first = np.take_along_axis(block, finite.argmax(axis=0)[None], axis=0)
            np.copyto(self._shift, first[0], where=hit)
            unset &= ~hit
        self._sum = np.zeros(L)
        self._shifted_sum = np.zeros(L)
        self._shifted_sumsq = np.zeros(L)
        self._min = np.full(L, np.inf)
        self._max = np.full(L, -np.inf)
        self._neg = np.zeros(L, dtype=np.int64)
        self._pos = np.zeros(L, dtype=np.int64)
        self._nan = np.zeros(L, dtype=np.int64)
        self._fin = np.zeros(L, dtype=np.int64)
        self._init_buf = np.zeros((5, L))
        self._lanes = _P2Lanes(self.quantiles, L)
        while buffered:
            self._fold(buffered.pop(0))

    def _fold(self, block) -> None:
        if block.shape[0] == 0:
            return
        # Row-sequential accumulation: identical, add for add, to NumPy's
        # axis-0 reduction of the dense stack — this is what keeps the
        # streamed mean bit-exact past the buffer (and the shifted sums
        # independent of how rows are batched).
        with np.errstate(invalid="ignore"):
            for row in block:
                np.add(self._sum, row, out=self._sum)
                dev = row - self._shift
                np.add(self._shifted_sum, dev, out=self._shifted_sum)
                dev *= dev
                np.add(self._shifted_sumsq, dev, out=self._shifted_sumsq)
        np.minimum(self._min, block.min(axis=0), out=self._min)
        np.maximum(self._max, block.max(axis=0), out=self._max)

        self._nan += np.isnan(block).sum(axis=0)
        self._neg += (block == -np.inf).sum(axis=0)
        self._pos += (block == np.inf).sum(axis=0)
        finite = np.isfinite(block)
        fin_after = np.cumsum(finite, axis=0)
        fin_after += self._fin

        # The first five finite values of a position seed its markers; they
        # all arrive before the first row that streams into its lanes.
        for k in range(int(self._fin.min(initial=5)), 5):
            at = finite & (fin_after == k + 1)
            hit = at.any(axis=0)
            if hit.any():
                first = np.take_along_axis(block, at.argmax(axis=0)[None], axis=0)
                np.copyto(self._init_buf[k], first[0], where=hit)
        full = np.flatnonzero((self._fin < 5) & (fin_after[-1] >= 5))
        if full.size:
            self._lanes.seed(full, np.sort(self._init_buf[:, full], axis=0))
        self._fin = fin_after[-1].copy()

        streaming = finite & (fin_after > 5)
        for r in np.flatnonzero(streaming.any(axis=1)):
            self._lanes.add(block[r], streaming[r], fin_after[r] - 1.0)

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Dict[str, object]:
        """The :func:`ensemble_stats`-shaped aggregate of everything fed."""
        if self.count == 0:
            raise ValueError("ensemble aggregation needs at least one draw")
        if self._buffer is not None:
            # Exact regime: same expressions as ensemble_stats, bit for bit.
            stacked = np.concatenate(self._buffer, axis=0)
            with np.errstate(invalid="ignore"):
                return {
                    "mean": stacked.mean(axis=0).tolist(),
                    "std": stacked.std(axis=0).tolist(),
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
            shifted_mean = self._shifted_sum / K
            # np.maximum propagates nan, so inf - inf (and any nan ingested)
            # surfaces as nan, exactly as the dense two-pass std does.
            std = np.sqrt(np.maximum(
                self._shifted_sumsq / K - shifted_mean * shifted_mean, 0.0
            ))
            estimates = self._finite_estimates()
            quantile_rows = {
                q: self._finalize_quantile(q, estimates[i])
                for i, q in enumerate(self.quantiles)
            }
        return {
            "mean": mean.tolist(),
            "std": std.tolist(),
            "min": self._min.tolist(),
            "max": self._max.tolist(),
            "quantiles": {q: row.tolist() for q, row in quantile_rows.items()},
        }

    def _finite_estimates(self):
        """Per-(quantile, position) estimate of the finite part."""
        est = self._lanes.estimates()
        # Positions with fewer than 5 finite values never seeded their
        # markers — their finite part is still dense in the init buffer.
        for col in np.flatnonzero((self._fin > 0) & (self._fin < 5)):
            vals = np.sort(self._init_buf[: self._fin[col], col])
            for i, q in enumerate(self.quantiles):
                est[i, col] = np.quantile(vals, q)
        return est

    def _finalize_quantile(self, q: float, est):
        """Combine the finite-part estimate with the ±inf/nan tallies.

        Conceptually sorts the virtual per-position sample
        ``[-inf]*neg + finites + [+inf]*pos``, reads ranks ``q*(K-1)`` with
        NumPy's linear-interpolation formula, and substitutes the sketch
        estimate for any rank landing in the finite run.  Positions whose
        sample is entirely finite reduce to the plain sketch estimate;
        entirely-infinite positions reproduce ensemble_stats' inf/nan
        behaviour; mixed positions are approximate (the sketch stands in
        for every finite rank).
        """
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
        diff = b - a
        out = np.where(frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac)
        return np.where(self._nan > 0, np.nan, out)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def state_nbytes(self) -> int:
        """Resident bytes of aggregation state (the peak-memory proxy).

        In the exact regime this counts the buffered rows (bounded by
        ``exact_buffer``); in the streaming regime it is O(length) and
        independent of how many draws were fed.
        """
        if self._buffer is not None:
            return sum(block.nbytes for block in self._buffer)
        arrays = (
            self._sum, self._shift, self._shifted_sum, self._shifted_sumsq,
            self._min, self._max, self._neg, self._pos, self._nan, self._fin,
            self._init_buf,
        )
        return sum(array.nbytes for array in arrays) + self._lanes.nbytes
