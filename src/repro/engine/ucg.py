"""Vectorised, orbit-pruned UCG Nash-supportability engine.

:func:`repro.core.unilateral.ucg_nash_alpha_set` decides graph-level Nash
supportability of the unilateral game by backtracking over edge
orientations, recomputing a best-response α-interval per ``(player, owned
set)``.  That per-graph search is exact but it is the last per-graph
bottleneck in the library: at ``n = 7`` the full census costs minutes and at
``n = 8`` it was simply never run.  This module replaces it with a batched
pipeline that produces the *identical* :class:`AlphaIntervalSet` per graph
— float-for-float, interval-for-interval — at a fraction of the cost:

1. **Interval tables, not interval calls.**  For a player ``p`` the
   best-response interval of owning ``T ⊆ N(p)`` depends only on the
   *opponent-bought* neighbour mask ``A = N(p) \\ T``: the deviation
   candidates are ``C = V \\ ({p} ∪ A)`` and every purchase set ``S ⊆ C``
   contributes a constraint through ``D_p(A ∪ S)``, the distance sum from
   ``p`` when its neighbour set is ``A ∪ S``.  The ``2^(n-1)`` values of
   ``D_p(B)`` over ``B ∌ p`` come from one all-pairs distance pass in
   ``G - p`` (batched boolean matmuls, exactly the :mod:`repro.engine.batch`
   frontier idiom) followed by a subset-min DP.  Only the ``2^deg`` masks
   ``A ⊆ N(p)`` are ever read, so rows sharing ``(p, N(p))`` share one
   cached pair plan of every ``(A, B ⊇ A)``: each ``B`` yields the
   reference's quotient ``-Δ/(|B| - deg)`` once, and each ``A`` reduces its
   pairs with ``maximum``/``minimum.reduceat`` — the max/min of the very
   multiset the reference folds, hence bit-identical endpoints.

2. **Vertex-orbit pruning.**  ``D_p`` tables (and, in the scalar game, the
   final interval tables) of automorphic players are permuted copies of each
   other: ``table_{σp}[σ(A)] = table_p[A]``.  When a graph carries a
   memoised canonical record (the census generator always does), tables are
   computed for one representative per vertex orbit and expanded by a
   mask-permutation gather.

3. **Frontier-DP orientation search.**  Backtracking over orientations is
   replaced by a dynamic program over vertices: the state is, for every
   not-yet-processed vertex, the set of earlier neighbours whose shared edge
   was deferred to it (``n`` bits per vertex, packed into one int), and the
   value is the exact union of the running α-interval intersections over
   every orientation prefix reaching that state.  States are additionally
   quotiented by a per-vertex *future-equivalence*: two inherited masks that
   generate the same (interval, deferral) options under every possible
   further deferral are interchangeable (found by partition refinement),
   which collapses the state space of vertex-transitive dense graphs
   (``K_8`` drops from ~10^6 raw states to a few hundred).  Suffix hull
   pruning drops — never trims — intervals that cannot intersect the
   remaining players' feasible hulls.

The weighted game (:func:`weighted_ucg_t_sets`) shares the model-independent
``D_p`` tables (distances are unweighted hops) and replaces purchase counts
by exact link-cost sums: a high-bit DP replays
:meth:`CostModel.player_link_cost`'s ascending left fold bit-for-bit, with
:class:`UniformCost`'s ``α·|S|`` closed form special-cased, so the weighted
endpoints match the per-graph reference exactly as well.

Everything falls back to the backtracking reference when ``n`` is outside
the table-friendly range — the reference path is always available and is
what every test asserts against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..graphs.isomorphism import cached_canonical_record, canonical_record

INFINITY = float("inf")

#: Largest ``n`` the table pipeline handles (2^n-entry tables per player).
_MAX_TABLE_N = 12

#: Byte budget per internal batch of (graph, player) rows; see _row_budget.
_TABLE_BYTE_BUDGET = 96 << 20


# --------------------------------------------------------------------------- #
# Orbit plans: one representative player per vertex orbit + mask gathers
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _bit_columns(n: int):
    """``(2^n, n)`` 0/1 matrix: column ``b`` is bit ``b`` of every mask."""
    masks = np.arange(1 << n, dtype=np.int64)
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _mask_image(perm: Sequence[int], n: int):
    """``img[mask]`` = image of ``mask`` under the vertex permutation."""
    return _bit_columns(n) @ (1 << np.asarray(perm, dtype=np.int64))


def _orbit_plan(graph, use_orbits: Optional[bool], image_cache: Dict):
    """``(reps, per_player)`` for one graph.

    ``reps`` lists the players whose tables must actually be computed;
    ``per_player[p]`` is ``(rep, gather)`` where ``gather`` is the
    ``σ^{-1}`` mask-image array turning the representative's table into
    ``p``'s (``None`` for representatives).  ``use_orbits`` mirrors
    :func:`repro.engine.batch.batch_stability_deltas`: ``None`` prunes only
    when the canonical record is already memoised, ``True`` forces the
    canonical search, ``False`` disables pruning.
    """
    n = graph.n
    trivial = list(range(n)), [(p, None) for p in range(n)]
    if use_orbits is False or n <= 1:
        return trivial
    record = (
        canonical_record(graph) if use_orbits else cached_canonical_record(graph)
    )
    if record is None or not record.generators:
        return trivial
    gens = record.generators
    assign: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    reps: List[int] = []
    identity = tuple(range(n))
    for v in range(n):
        if v in assign:
            continue
        reps.append(v)
        assign[v] = (v, identity)
        queue = [v]
        while queue:
            x = queue.pop()
            sigma_x = assign[x][1]
            for g in gens:
                y = g[x]
                if y not in assign:
                    # (g ∘ σ_x)(v) = g(x) = y keeps the transversal property.
                    assign[y] = (v, tuple(g[sigma_x[i]] for i in range(n)))
                    queue.append(y)
    if len(reps) == n:
        return trivial
    per_player = []
    for p in range(n):
        rep, sigma = assign[p]
        if p == rep:
            per_player.append((rep, None))
            continue
        inverse = [0] * n
        for i, image in enumerate(sigma):
            inverse[image] = i
        key = (n, tuple(inverse))
        gather = image_cache.get(key)
        if gather is None:
            gather = _mask_image(inverse, n)
            image_cache[key] = gather
        per_player.append((rep, gather))
    return reps, per_player


# --------------------------------------------------------------------------- #
# Distance-sum tables: D_p(B) for every neighbour mask B ∌ p, batched
# --------------------------------------------------------------------------- #


def _popcounts(n: int):
    return _bit_columns(n).sum(axis=1)


@lru_cache(maxsize=None)
def _free_masks(n: int):
    """``(n, 2^(n-1))``: row ``p`` lists the masks without bit ``p``, ascending.

    Column ``c`` of row ``p`` is ``c`` with a zero inserted at bit ``p`` —
    the index layout of :func:`_free_distance_sums`.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    return np.stack([masks[((masks >> p) & 1) == 0] for p in range(n)])


@lru_cache(maxsize=None)
def _kept_vertices(n: int):
    """``(n, n-1)``: row ``p`` lists the vertices other than ``p``, ascending."""
    return np.array(
        [[v for v in range(n) if v != p] for p in range(n)], dtype=np.int64
    )


def _vertex_deleted_distances(graphs, rows_idx, n: int):
    """Hop distances within ``G - p`` for every requested ``(graph, p)`` row.

    Returns ``dist[r, k, j]`` over the ``n - 1`` vertices other than ``p``
    (relabelled ``0..n-2`` in order; ``inf`` when unreachable), computed by
    the lock-step frontier matmul of :func:`repro.engine.batch._batch_group`.
    """
    R = len(rows_idx)
    m = n - 1
    rows = np.array(
        [graphs[gi].adjacency_rows() for gi, _ in rows_idx], dtype=np.int64
    )
    p_arr = np.asarray([p for _, p in rows_idx], dtype=np.int64)
    kept = _kept_vertices(n)[p_arr]
    nbr_rows = np.take_along_axis(rows, kept, axis=1)
    A = ((nbr_rows[:, :, None] >> kept[:, None, :]) & 1).astype(np.uint8)
    eye = np.eye(m, dtype=bool)
    visited = np.broadcast_to(eye, (R, m, m)).copy()
    frontier = visited.astype(np.uint8)
    dist = np.full((R, m, m), np.inf)
    dist[:, eye] = 0.0
    for level in range(1, m):
        nxt = (np.matmul(frontier, A) > 0) & ~visited
        if not nxt.any():
            break
        dist[nxt] = float(level)
        visited |= nxt
        frontier = nxt.astype(np.uint8)
    return dist, p_arr


def _free_distance_sums(graphs, rows_idx, n: int):
    """``dfree[r, c]`` = ``D_p(B)`` for the ``c``-th mask ``B ∌ p``.

    ``D_p(B) = Σ_{j≠p} min_{k∈B} (1 + d_{G-p}(k, j))`` is the distance sum
    from ``p`` when its neighbour set is exactly ``B`` (shortest paths from
    ``p`` never revisit ``p``, so the remainder of each path lives in
    ``G - p``).  ``B`` is indexed as in :func:`_free_masks` — masks over
    ``G - p``'s relabelled vertices — so one ``2^(n-1)``-mask DP serves
    every row.  Values are integers (or ``inf``), exact in float32 and
    returned as float64.
    """
    dist, p_arr = _vertex_deleted_distances(graphs, rows_idx, n)
    R, m = dist.shape[0], n - 1
    # Mask-major layout: every DP step reads and writes contiguous blocks.
    rows16 = np.ascontiguousarray((1.0 + dist).transpose(1, 0, 2), np.float32)
    table = np.empty((1 << m, R, m), dtype=np.float32)
    table[0] = np.inf
    for mask in range(1, 1 << m):
        low = mask & -mask
        np.minimum(
            table[mask ^ low], rows16[low.bit_length() - 1], out=table[mask]
        )
    # Integer terms below 2^24 (or inf): the float32 sum is exact.
    dfree = table.sum(axis=2).T.astype(np.float64)
    return dfree, p_arr


# --------------------------------------------------------------------------- #
# Scalar interval tables: lo/hi/ok per (player row, opponent mask A ⊆ N(p))
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=1024)  # all 8·2^7 (p, N(p)) keys at n = 8; ≤ 3^(n-1) pairs each
def _pair_plan(n: int, p: int, nbr: int):
    """Pairs of opponent masks ``A ⊆ nbr`` and deviation sets ``B ⊇ A``.

    Deviation neighbour sets never contain ``p`` and are split by ``|B|``
    against ``deg = |nbr|``.  ``B`` is indexed by its position in
    ``_free_masks(n)[p]`` (the column layout of :func:`_free_distance_sums`).
    Returns ``(base, subs, denom, plans)``: ``base`` is the index of ``nbr``
    itself, ``subs`` the ``A`` masks, ``denom[b] = |B_b| - deg`` and
    ``plans`` one ``(sel, starts)`` pair per class (above, below, equal).
    ``sel`` indexes ``B`` with each ``A``'s pairs contiguous, starting at
    ``starts[a]``; an ``A`` without pairs gets one sentinel index
    ``2^(n-1)`` pointing at the caller's identity column, so every
    ``reduceat`` segment is nonempty.
    """
    free = _free_masks(n)[p]
    subs = np.asarray(_submasks(nbr), dtype=np.int64)
    pop = _popcounts(n)[free]
    deg = nbr.bit_count()
    incl = (free[None, :] & subs[:, None]) == subs[:, None]
    plans = []
    for category in (pop > deg, pop < deg, pop == deg):
        a_idx, b_idx = np.nonzero(incl & category[None, :])
        counts = np.bincount(a_idx, minlength=len(subs))
        sizes = np.maximum(counts, 1)
        starts = np.cumsum(sizes) - sizes
        sel = np.full(int(sizes.sum()), len(free), dtype=np.int64)
        first = np.cumsum(counts) - counts
        sel[starts[a_idx] + np.arange(len(a_idx)) - first[a_idx]] = b_idx
        plans.append((sel, starts))
    base = int(np.searchsorted(free, nbr))
    return base, subs, (pop - deg).astype(np.float64), plans


def _scalar_interval_tables(dfree, p_arr, nbr_arr, n: int):
    """Per-row ``(lo, hi, ok)`` tables over opponent masks ``A ⊆ N(p)``.

    Exactly :func:`repro.core.unilateral.ownership_best_response_interval`
    vectorised.  Rows sharing ``(p, N(p))`` share one :func:`_pair_plan`:
    every deviation set ``B`` yields the reference's quotient
    ``-Δ_B/(|B| - deg)`` (``(-x)/(-d) ≡ x/d``, so the ``|B| < deg`` bound is
    bit-identical too), and each ``A`` reduces its supersets' quotients with
    ``maximum``/``minimum.reduceat`` — max/min of the same multiset the
    reference folds.  Masks that are not subsets of ``N(p)`` stay
    ``ok = False``.
    """
    R, half = dfree.shape
    size = 1 << n
    lo = np.zeros((R, size))
    hi = np.zeros((R, size))
    ok = np.zeros((R, size), dtype=bool)
    keys = p_arr * size + nbr_arr
    order = np.argsort(keys, kind="stable")
    bounds = np.flatnonzero(np.diff(keys[order])) + 1
    for rows in np.split(order, bounds):
        p, nbr = int(p_arr[rows[0]]), int(nbr_arr[rows[0]])
        base, subs, denom, plans = _pair_plan(n, p, nbr)
        (a_sel, a_starts), (b_sel, b_starts), (e_sel, e_starts) = plans
        k = len(rows)
        delta = dfree[rows]
        with np.errstate(invalid="ignore"):
            delta -= delta[:, base][:, None]
        np.copyto(delta, 0.0, where=np.isnan(delta))  # ∞ - ∞: no change
        # Column ``half`` is the reduction identity (see _pair_plan).
        quot = np.empty((k, half + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.negative(delta), denom, out=quot[:, :half])
        quot[:, half] = -np.inf
        lo_sub = np.maximum(
            np.maximum.reduceat(quot[:, a_sel], a_starts, axis=1), 0.0
        )
        quot[:, half] = np.inf
        hi_sub = np.minimum.reduceat(quot[:, b_sel], b_starts, axis=1)
        ext = np.empty((k, half + 1))
        ext[:, :half] = delta
        ext[:, half] = np.inf
        empty = np.minimum.reduceat(ext[:, e_sel], e_starts, axis=1) < -1e-12
        cols = rows[:, None], subs[None, :]
        lo[cols] = lo_sub
        hi[cols] = hi_sub
        ok[cols] = ~empty & (lo_sub <= hi_sub)
    return lo, hi, ok


def _expand_rows(tables, plans, row_of, n: int):
    """Gather per-representative row tables into full ``(G·n, size)`` arrays."""
    size = tables[0].shape[1]
    G = len(plans)
    src = np.empty(G * n, dtype=np.int64)
    gather = np.empty((G * n, size), dtype=np.int64)
    identity = np.arange(size, dtype=np.int64)
    for gi, (reps, per_player) in enumerate(plans):
        for p in range(n):
            rep, image = per_player[p]
            row = gi * n + p
            src[row] = row_of[(gi, rep)]
            gather[row] = identity if image is None else image
    return [table[src[:, None], gather] for table in tables]


# --------------------------------------------------------------------------- #
# Exact interval-list algebra for the orientation DP
# --------------------------------------------------------------------------- #


def _union_interval_lists(a, b):
    """Exact union of two sorted, disjoint ``(lo, hi)`` lists.

    Only *touching or overlapping* intervals are glued (no tolerance):
    mid-search merging must preserve the union's point set exactly, and the
    final :class:`AlphaIntervalSet` construction applies the reference's
    ``1e-12`` gap merge — which depends only on that point set.
    """
    if not a:
        return b
    if not b:
        return a
    merged = []
    ia = ib = 0
    la, lb = len(a), len(b)
    cur_lo = cur_hi = None
    while ia < la or ib < lb:
        if ib >= lb or (ia < la and a[ia][0] <= b[ib][0]):
            nxt_lo, nxt_hi = a[ia]
            ia += 1
        else:
            nxt_lo, nxt_hi = b[ib]
            ib += 1
        if cur_lo is None:
            cur_lo, cur_hi = nxt_lo, nxt_hi
        elif nxt_lo <= cur_hi:
            if nxt_hi > cur_hi:
                cur_hi = nxt_hi
        else:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = nxt_lo, nxt_hi
    merged.append((cur_lo, cur_hi))
    return merged


# --------------------------------------------------------------------------- #
# Orientation search: class-quotiented frontier DP over vertices
# --------------------------------------------------------------------------- #


def _submasks(mask: int) -> List[int]:
    """Every submask of ``mask``, empty set first (deterministic order)."""
    subs = [0]
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        subs += [s | bit for s in subs]
    return subs


def _vertex_classes(v: int, nbr: int, lo_row, hi_row, ok_row):
    """Future-equivalence classes of ``v``'s inherited-ownership masks.

    Two inherited masks ``I, I'`` (earlier neighbours that deferred their
    shared edge to ``v``) are interchangeable for the rest of the search iff
    they generate the same set of ``(interval, deferred-mask)`` options
    under *every* further deferral ``D``, i.e. ``sig(I ∪ D) = sig(I' ∪ D)``
    for the option-set id ``sig``.  This is compositional
    (``I ≡ I' ⇒ I∪D ≡ I'∪D``), so transitions live on class ids.  Returns
    ``(options_by_class, transitions)`` where ``transitions[src][cls]`` is
    the class after earlier neighbour ``src`` defers its shared edge, and
    class 0 is always the empty inherited mask.
    """
    below = (1 << v) - 1
    earlier = nbr & below
    local = nbr & ~below & ~(1 << v)
    j_list = _submasks(earlier)
    # ``kept`` local edges stay owned, the rest are deferred; owned =
    # inherited | kept, so the opponent mask is nbr ^ inherited ^ kept.
    splits = [(kept, local ^ kept) for kept in _submasks(local)]
    sig_ids: Dict = {}
    sig_of: Dict[int, int] = {}
    opts_of: Dict[int, list] = {}
    for inherited in j_list:
        rest = nbr ^ inherited
        options = [
            (lo_row[opp], hi_row[opp], deferred)
            for kept, deferred in splits
            if ok_row[opp := rest ^ kept]
        ]
        # Options come in ``splits`` order and ``deferred`` fixes each
        # one's position, so equal tuples ⇔ equal option sets.
        sig_of[inherited] = sig_ids.setdefault(tuple(options), len(sig_ids))
        opts_of[inherited] = options
    # Partition refinement: after t rounds two masks share a class iff
    # their option sets agree under every deferral D with |D| <= t, so the
    # fixpoint is the quotient by agreement under every D.
    bits = []
    rest = earlier
    while rest:
        bits.append(rest & -rest)
        rest &= rest - 1
    cls_of, count = sig_of, len(sig_ids)
    while count < len(j_list):
        class_ids: Dict = {}
        refined = {}
        for inherited in j_list:
            key = (cls_of[inherited],) + tuple(
                cls_of[inherited | bit] for bit in bits
            )
            refined[inherited] = class_ids.setdefault(key, len(class_ids))
        if len(class_ids) == count:
            break
        cls_of, count = refined, len(class_ids)
    options_by_class = [None] * count
    transitions = {bit.bit_length() - 1: [None] * count for bit in bits}
    for inherited in j_list:
        cls = cls_of[inherited]
        if options_by_class[cls] is None:
            options_by_class[cls] = opts_of[inherited]
        for bit in bits:
            if not inherited & bit:
                transitions[bit.bit_length() - 1][cls] = cls_of[inherited | bit]
    return options_by_class, transitions


def _orientation_union(n, nbrs, lo_rows, hi_rows, ok_rows, hull_lo, hull_hi):
    """Union over edge orientations of per-player interval intersections.

    The exact DP replacement for
    :func:`repro.core.unilateral.orientation_interval_search`: identical
    player order, identical per-step ``(max lo, min hi)`` intersections,
    value lists kept as exact unions.  Returns the raw ``(lo, hi)`` list
    (sorted, disjoint) to be wrapped in an :class:`AlphaIntervalSet`.
    """
    suffix_lo = [-INFINITY] * (n + 1)
    suffix_hi = [INFINITY] * (n + 1)
    for u in range(n - 1, -1, -1):
        prev_lo, prev_hi = suffix_lo[u + 1], suffix_hi[u + 1]
        suffix_lo[u] = hull_lo[u] if hull_lo[u] > prev_lo else prev_lo
        suffix_hi[u] = hull_hi[u] if hull_hi[u] < prev_hi else prev_hi
    if suffix_lo[0] > suffix_hi[0]:
        return []
    classes = [
        _vertex_classes(v, nbrs[v], lo_rows[v], hi_rows[v], ok_rows[v])
        for v in range(n)
    ]
    slot = (1 << n) - 1
    states = {0: [(0.0, INFINITY)]}
    for u in range(n):
        options_by_class = classes[u][0]
        shl, shh = suffix_lo[u + 1], suffix_hi[u + 1]
        new_states: Dict[int, list] = {}
        for key, intervals in states.items():
            opts = options_by_class[key & slot]
            if not opts:
                continue
            rest = key >> n
            for ilo, ihi, deferred in opts:
                out = []
                for l, h in intervals:
                    if ilo > l:
                        l = ilo
                    if ihi < h:
                        h = ihi
                    if l > h or l > shh or h < shl:
                        continue
                    out.append((l, h))
                if not out:
                    continue
                nk = rest
                d = deferred
                while d:
                    bit = d & -d
                    d ^= bit
                    w = bit.bit_length() - 1
                    shift = (w - u - 1) * n
                    cls = (nk >> shift) & slot
                    nk ^= (cls ^ classes[w][1][u][cls]) << shift
                cur = new_states.get(nk)
                new_states[nk] = (
                    out if cur is None else _union_interval_lists(cur, out)
                )
        states = new_states
        if not states:
            return []
    final: list = []
    for intervals in states.values():
        final = _union_interval_lists(final, intervals)
    return final


# --------------------------------------------------------------------------- #
# Per-graph assembly: hull precheck + search over the expanded tables
# --------------------------------------------------------------------------- #


def _chunk_rows(graphs, use_orbits):
    """Orbit plans + representative row bookkeeping for one same-``n`` chunk."""
    image_cache: Dict = {}
    plans = [_orbit_plan(g, use_orbits, image_cache) for g in graphs]
    rows_idx: List[Tuple[int, int]] = []
    row_of: Dict[Tuple[int, int], int] = {}
    for gi, (reps, _) in enumerate(plans):
        for p in reps:
            row_of[(gi, p)] = len(rows_idx)
            rows_idx.append((gi, p))
    return plans, rows_idx, row_of


def _hulls(lo_full, hi_full, ok_full, n: int):
    """Per-player feasible hulls and the per-graph feasibility test."""
    G = lo_full.shape[0] // n
    player_ok = ok_full.any(axis=1).reshape(G, n)
    hull_lo = np.where(ok_full, lo_full, np.inf).min(axis=1).reshape(G, n)
    hull_hi = np.where(ok_full, hi_full, -np.inf).max(axis=1).reshape(G, n)
    graph_ok = player_ok.all(axis=1) & (
        hull_lo.max(axis=1) <= hull_hi.min(axis=1)
    )
    return hull_lo, hull_hi, graph_ok


def _search_graph(graph, gi, n, lo_full, hi_full, ok_full, hull_lo, hull_hi):
    rows = slice(gi * n, (gi + 1) * n)
    return _orientation_union(
        n,
        list(graph.adjacency_rows()),
        lo_full[rows].tolist(),
        hi_full[rows].tolist(),
        ok_full[rows].tolist(),
        hull_lo[gi].tolist(),
        hull_hi[gi].tolist(),
    )


def _interval_set(pairs):
    from ..core.stability_intervals import AlphaInterval, AlphaIntervalSet

    return AlphaIntervalSet([AlphaInterval(lo, hi) for lo, hi in pairs])


def _full_set():
    from ..core.stability_intervals import AlphaIntervalSet, FULL_ALPHA_RANGE

    return AlphaIntervalSet((FULL_ALPHA_RANGE,))


def _scalar_chunk_sets(graphs, use_orbits):
    """Engine-path Nash α-sets for one same-``n`` chunk (``2 <= n``)."""
    n = graphs[0].n
    plans, rows_idx, row_of = _chunk_rows(graphs, use_orbits)
    dfree, p_arr = _free_distance_sums(graphs, rows_idx, n)
    nbr_arr = np.asarray(
        [graphs[gi].adjacency_rows()[p] for gi, p in rows_idx], dtype=np.int64
    )
    tables = _scalar_interval_tables(dfree, p_arr, nbr_arr, n)
    lo_full, hi_full, ok_full = _expand_rows(tables, plans, row_of, n)
    hull_lo, hull_hi, graph_ok = _hulls(lo_full, hi_full, ok_full, n)
    results = []
    for gi, graph in enumerate(graphs):
        if not graph_ok[gi]:
            results.append(_interval_set([]))
            continue
        pairs = _search_graph(
            graph, gi, n, lo_full, hi_full, ok_full, hull_lo, hull_hi
        )
        results.append(_interval_set(pairs))
    return results


def _row_budget(n: int) -> int:
    # Bytes per row, counted per mask B ∌ p (2^(n-1) of them): the float32
    # min-DP slice (4(n-1)), its float32 sum and float64 D_p (12), lo/hi/ok
    # over 2^n masks at 17 B, per representative and expanded (68), the
    # int64 orbit gather (16) and the float64 delta/quot/ext group arrays
    # (24).  On top come the float64 pair-plan gathers quot[:, sel], one at a
    # time, each at most 2^(n-1-d)·3^d + 2^d <= 3^(n-1) + 2^(n-1) wide.
    per_row = (1 << (n - 1)) * (4 * n + 124) + 8 * 3 ** (n - 1)
    return max(n, min(4096, _TABLE_BYTE_BUDGET // per_row))


@obs.timed_kernel("ucg_alpha_sets")
def ucg_alpha_sets(
    graphs,
    oracle=None,
    use_orbits: Optional[bool] = None,
) -> List:
    """Nash-supportability α-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.core.unilateral.ucg_nash_alpha_set` (the per-graph
    backtracking reference, asserted in the test suite and the parity
    smoke); falls back to it per graph when ``n`` exceeds the table range.
    Results are memoised on each :class:`~repro.graphs.graph.Graph`
    instance (edge mutations return new instances, so memos can never go
    stale).
    """
    graphs = list(graphs)
    results: List = [None] * len(graphs)
    pending_by_n: Dict[int, List[int]] = {}
    for i, graph in enumerate(graphs):
        cached = getattr(graph, "_ucg_set", None)
        if cached is not None:
            results[i] = _interval_set(cached)
        elif graph.n <= 1:
            results[i] = _full_set()
            graph._ucg_set = tuple(
                (iv.lo, iv.hi) for iv in results[i].intervals
            )
        else:
            pending_by_n.setdefault(graph.n, []).append(i)
    fallback: List[int] = []
    for n, indices in sorted(pending_by_n.items()):
        if n > _MAX_TABLE_N:
            fallback.extend(indices)
            continue
        budget = max(1, _row_budget(n) // n)
        for start in range(0, len(indices), budget):
            batch = indices[start : start + budget]
            sets = _scalar_chunk_sets([graphs[i] for i in batch], use_orbits)
            for i, interval_set in zip(batch, sets):
                results[i] = interval_set
                graphs[i]._ucg_set = tuple(
                    (iv.lo, iv.hi) for iv in interval_set.intervals
                )
    if fallback:
        from ..core.unilateral import ucg_nash_alpha_set

        for i in fallback:
            results[i] = ucg_nash_alpha_set(graphs[i], oracle=oracle)
    return results


# --------------------------------------------------------------------------- #
# Weighted game: shared D_p tables + exact link-cost sums
# --------------------------------------------------------------------------- #


def _link_cost_table(model, n: int, player: int, pop):
    """``wsum[S]`` = ``model.player_link_cost(player, targets(S))``, exact.

    Three branches, each replaying the reference float-for-float: the
    uniform closed form ``α·|S|``, a high-bit DP that unrolls to the base
    class's ascending left fold, and a per-subset model call for custom
    overrides (always exact, never fast).
    """
    from ..costmodels.models import CostModel, UniformCost

    size = 1 << n
    if type(model) is UniformCost:
        return model.alpha * pop.astype(np.float64)
    if type(model).player_link_cost is CostModel.player_link_cost:
        weights = [
            model.weight(player, v) if v != player else 0.0 for v in range(n)
        ]
        table = [0.0] * size
        for mask in range(1, size):
            high = mask.bit_length() - 1
            table[mask] = table[mask ^ (1 << high)] + weights[high]
        return np.asarray(table, dtype=np.float64)
    table = [
        model.player_link_cost(
            player, tuple(v for v in range(n) if (mask >> v) & 1)
        )
        for mask in range(size)
    ]
    return np.asarray(table, dtype=np.float64)


def _weighted_player_rows(
    n, player, nbr, dsum_row, wsum, base, submask_cache
):
    """``(lo, hi, ok)`` rows over opponent masks for one weighted player.

    Vectorises :func:`repro.costmodels.stability.weighted_ownership_interval`
    per ownership set: candidates, deltas and weight differences are
    evaluated for every purchase set at once; max/min over the identical
    quotient multiset reproduce the reference's running fold exactly.
    """
    size = 1 << n
    full = size - 1
    lo_row = [0.0] * size
    hi_row = [0.0] * size
    ok_row = [False] * size
    hull_lo, hull_hi = INFINITY, -INFINITY
    base_inf = base == INFINITY
    owned = nbr
    while True:
        opponents = nbr ^ owned
        candidates = full & ~(opponents | (1 << player))
        subs = submask_cache.get(candidates)
        if subs is None:
            subs = np.asarray(_submasks(candidates), dtype=np.int64)
            submask_cache[candidates] = subs
        deltas = dsum_row[subs | opponents] - base
        if base_inf:
            deltas = np.where(np.isnan(deltas), 0.0, deltas)
        dw = wsum[subs] - wsum[owned]
        positive = dw > 0.0
        negative = dw < 0.0
        empty = bool(
            (deltas[~positive & ~negative] < -1e-12).any()
        )
        lo = 0.0
        if not empty and positive.any():
            grow = float((np.negative(deltas[positive]) / dw[positive]).max())
            if grow > lo:
                lo = grow
        hi = INFINITY
        if not empty and negative.any():
            shrink = float(
                (deltas[negative] / np.negative(dw[negative])).min()
            )
            if shrink < hi:
                hi = shrink
        if not empty and lo <= hi:
            lo_row[opponents] = lo
            hi_row[opponents] = hi
            ok_row[opponents] = True
            if lo < hull_lo:
                hull_lo = lo
            if hi > hull_hi:
                hull_hi = hi
        if owned == 0:
            break
        owned = (owned - 1) & nbr
    return lo_row, hi_row, ok_row, hull_lo, hull_hi


def _weighted_chunk_sets(graphs, model, use_orbits):
    """Engine-path weighted Nash t-sets for one same-``n`` chunk."""
    n = graphs[0].n
    pop = _popcounts(n)
    plans, rows_idx, row_of = _chunk_rows(graphs, use_orbits)
    dfree, p_arr = _free_distance_sums(graphs, rows_idx, n)
    # Full-mask rows for _weighted_player_rows; it never reads masks with p.
    dsum = np.full((len(rows_idx), 1 << n), np.inf)
    dsum[np.arange(len(rows_idx))[:, None], _free_masks(n)[p_arr]] = dfree
    (dsum_full,) = _expand_rows([dsum], plans, row_of, n)
    results = []
    submask_cache: Dict[int, object] = {}
    wsum_tables = [
        _link_cost_table(model, n, player, pop) for player in range(n)
    ]
    for gi, graph in enumerate(graphs):
        nbrs = list(graph.adjacency_rows())
        lo_rows, hi_rows, ok_rows = [], [], []
        hull_lo, hull_hi = [], []
        feasible = True
        for player in range(n):
            row = dsum_full[gi * n + player]
            base = float(row[nbrs[player]])
            with np.errstate(invalid="ignore"):
                lo_row, hi_row, ok_row, h_lo, h_hi = _weighted_player_rows(
                    n,
                    player,
                    nbrs[player],
                    row,
                    wsum_tables[player],
                    base,
                    submask_cache,
                )
            lo_rows.append(lo_row)
            hi_rows.append(hi_row)
            ok_rows.append(ok_row)
            hull_lo.append(h_lo)
            hull_hi.append(h_hi)
            if h_lo > h_hi:  # no feasible ownership at all
                feasible = False
                break
        if not feasible or max(hull_lo) > min(hull_hi):
            results.append(_interval_set([]))
            continue
        pairs = _orientation_union(
            n, nbrs, lo_rows, hi_rows, ok_rows, hull_lo, hull_hi
        )
        results.append(_interval_set(pairs))
    return results


@obs.timed_kernel("weighted_ucg_t_sets")
def weighted_ucg_t_sets(
    graphs,
    model,
    oracle=None,
    use_orbits: Optional[bool] = None,
) -> List:
    """Weighted Nash-supportability t-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.costmodels.stability.weighted_ucg_nash_t_set`; the
    model-independent distance tables are shared across players via the
    orbit gather (weights break symmetry, so only the distance layer is
    orbit-pruned).  Falls back to the per-graph reference when ``n``
    exceeds the table range.  No per-instance memo:
    results depend on the cost model, not just the graph.
    """
    graphs = list(graphs)
    results: List = [None] * len(graphs)
    pending_by_n: Dict[int, List[int]] = {}
    for i, graph in enumerate(graphs):
        if graph.n <= 1:
            results[i] = _full_set()
        else:
            pending_by_n.setdefault(graph.n, []).append(i)
    fallback: List[int] = []
    for n, indices in sorted(pending_by_n.items()):
        if n > _MAX_TABLE_N:
            fallback.extend(indices)
            continue
        budget = max(1, _row_budget(n) // n)
        for start in range(0, len(indices), budget):
            batch = indices[start : start + budget]
            sets = _weighted_chunk_sets(
                [graphs[i] for i in batch], model, use_orbits
            )
            for i, interval_set in zip(batch, sets):
                results[i] = interval_set
    if fallback:
        from ..costmodels.stability import weighted_ucg_nash_t_set

        for i in fallback:
            results[i] = weighted_ucg_nash_t_set(
                graphs[i], model, oracle=oracle
            )
    return results
