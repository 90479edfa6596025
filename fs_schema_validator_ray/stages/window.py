"""Per-key ordered window functions (LAG / running sum / rolling sum).

The SQL shape ``... OVER (PARTITION BY key ORDER BY order1, order2)``
expressed Ray-Data-first: ONE keyed bucket exchange
(``stages/exchange.py``) of the pruned columns, then one fully-vectorized pass per coarse bucket
(lexsort + cumsum segment arithmetic over ALL keys in the bucket — never
one Python call per key; most keys have few rows and per-group call
overhead would dominate at high key cardinality, cf. ``sessionize``).

Value arithmetic is int64 (callers convert currency to cents upstream)
so the distributed sums are order-insensitive and bit-exact against a
SQL oracle — float window sums would be evaluation-order-dependent.

Partitioning assumption: one key's rows fit in one bucket group (same
as any PARTITION BY — salt or range-split a pathologically hot key
upstream).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import bucketed, default_n_buckets, segments
from fs_schema_validator_ray.state.sketches import key_codes, stable_key_array


def per_key_window(
    ds,
    key_column: str,
    order_columns: list[str],
    value_column: str,
    id_columns: list[str] | None = None,
    rolling: int = 3,
    lag: int = 1,
    n_buckets: int | None = None,
):
    """Per-key ordered window functions over an int64 value column.

    Output: ``id_columns + [key_column, prev_<value>, running_<value>,
    rolling<k>_<value>]`` — one row per input row, where

    * ``prev_<value>``   = ``LAG(value, lag)`` (null for the first
      ``lag`` rows of each key),
    * ``running_<value>``= ``SUM(value) ROWS UNBOUNDED PRECEDING``,
    * ``rolling<k>_<value>`` = ``SUM(value) ROWS k-1 PRECEDING``.

    ``(key, *order_columns)`` should be a total order per key for a
    deterministic result (SQL has the same caveat). Null handling
    matches SQL defaults: order columns sort ASC NULLS LAST, null
    values are skipped by the sums (NULL result only when a frame has
    no valid value), and LAG of a null value is null.
    """

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(dict.fromkeys([key_column, *order_columns, value_column, *id_columns]))
    prev_col = f"prev_{value_column}"
    run_col = f"running_{value_column}"
    roll_col = f"rolling{rolling}_{value_column}"

    def cast_order(t: pa.Table) -> pa.Table:
        return pa.table(
            {c: pc.cast(t.column(c), pa.int64()) if c in order_columns else t.column(c)
             for c in cols}
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key_col = group.column(key_column).combine_chunks()
        # sortable key proxy (arbitrary key types incl. nulls — nulls form
        # their own deterministic segment, cf. stages/agg.sessionize)
        kcode = key_codes(key_col)
        # sort keys, most→least significant: key, then per order column a
        # (null-flag, value) pair — SQL default ASC NULLS LAST; a plain
        # int64 conversion of a null would silently become INT64_MIN and
        # sort FIRST (and poison sums below)
        sig = []
        for c in order_columns:
            oc = group.column(c).combine_chunks()
            sig.append(np.asarray(pc.is_null(oc)))
            sig.append(np.asarray(pc.fill_null(oc, 0), dtype=np.int64))
        order, _, _, row_start, _ = segments(kcode, *sig)
        val_col = group.column(value_column).combine_chunks()
        valid = np.asarray(pc.is_valid(val_col))[order]
        vals = np.asarray(pc.fill_null(val_col, 0), dtype=np.int64)[order]
        # SQL SUM ignores null addends but returns NULL when the frame
        # holds no valid value at all — track a parallel valid-count
        cs = np.cumsum(vals)
        cs_excl = np.concatenate([[0], cs[:-1]])
        cv = np.cumsum(valid.astype(np.int64))
        cv_excl = np.concatenate([[0], cv[:-1]])
        running = cs - cs_excl[row_start]
        run_n = cv - cv_excl[row_start]
        low = np.maximum(np.arange(n, dtype=np.int64) - (rolling - 1), row_start)
        roll = cs - cs_excl[low]
        roll_n = cv - cv_excl[low]
        # LAG: value lag rows back — null when it crosses the segment
        # start OR the lagged value itself is null
        pos = np.arange(n, dtype=np.int64) - lag
        has_prev = pos >= row_start
        safe_pos = np.maximum(pos, 0)
        prev = np.where(has_prev, vals[safe_pos], 0)
        prev_ok = has_prev & valid[safe_pos]
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        out[prev_col] = pa.array(prev, pa.int64(), mask=~prev_ok)
        out[run_col] = pa.array(running, pa.int64(), mask=run_n == 0)
        out[roll_col] = pa.array(roll, pa.int64(), mask=roll_n == 0)
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket, cast_order)


def _order_arrays(col) -> tuple[np.ndarray, np.ndarray]:
    """(null_flag, fill-nulled values) sort pair for one order column —
    ASC NULLS LAST when the flag sorts before the value. Strings stay
    object dtype (numpy codepoint order == SQL binary collation for
    ASCII), floats stay float64, everything else canonicalizes int64."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    isnull = np.asarray(pc.is_null(col))
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        vals = np.asarray(pc.fill_null(col, ""), dtype=object)
    elif pa.types.is_floating(t):
        vals = np.asarray(pc.fill_null(col, 0.0), dtype=np.float64)
    else:
        vals = np.asarray(pc.fill_null(pc.cast(col, pa.int64()), 0), dtype=np.int64)
    return isnull, vals


def per_key_rank(
    ds,
    key_column: str,
    rank_columns: list[str],
    tiebreak_columns: list[str],
    id_columns: list[str] | None = None,
    n_buckets: int | None = None,
    extended: bool = False,
):
    """``ROW_NUMBER() / RANK() / DENSE_RANK() OVER (PARTITION BY key
    ORDER BY rank_columns)`` — same coarse-bucket shuffle + one
    vectorized lexsort/segment scan per bucket as ``per_key_window``.

    ``row_number`` breaks ties by ``tiebreak_columns`` (the caller makes
    ``rank_columns + tiebreak_columns`` a total order per key for a
    deterministic result — SQL has the same caveat); ``rank`` and
    ``dense_rank`` are computed over ``rank_columns`` only, so tied rows
    share them. Order is ASC NULLS LAST (SQL default).

    Output: ``id_columns + [key_column, rn, rank, dense_rank]`` (int64),
    one row per input row. With ``extended=True`` two float64 columns are
    appended: ``percent_rank`` (``(rank−1)/(n−1)``, 0 for a singleton
    partition) and ``cume_dist`` (peers-inclusive ``#(value ≤ current)/n``)
    — SQL ``PERCENT_RANK()`` / ``CUME_DIST()``.
    """

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(
        dict.fromkeys([key_column, *rank_columns, *tiebreak_columns, *id_columns])
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key_col = group.column(key_column).combine_chunks()
        sig: list[np.ndarray] = []
        rank_pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for c in rank_columns:
            pair = _order_arrays(group.column(c))
            rank_pairs.append(pair)
            sig.extend(pair)
        for c in tiebreak_columns:
            sig.extend(_order_arrays(group.column(c)))
        order, _, _, row_start, row_end = segments(key_codes(key_col), *sig)
        idx = np.arange(n, dtype=np.int64)
        # a rank group starts where the key OR any rank column changes
        rchange = row_start == idx
        for isnull, vals in rank_pairs:
            nn, vv = isnull[order], vals[order]
            rchange[1:] |= (nn[1:] != nn[:-1]) | (vv[1:] != vv[:-1])
        grp_start = np.maximum.accumulate(np.where(rchange, idx, 0))
        dr = np.cumsum(rchange)
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        out["rn"] = pa.array(idx - row_start + 1, pa.int64())
        rank_v = grp_start - row_start + 1
        out["rank"] = pa.array(rank_v, pa.int64())
        out["dense_rank"] = pa.array(dr - dr[row_start] + 1, pa.int64())
        if extended:
            n_seg = (row_end - row_start).astype(np.float64)
            # end index of each row's rank-peer group (last tied row)
            group_ends = np.concatenate([np.flatnonzero(rchange[1:]), [n - 1]])
            gid = np.cumsum(rchange) - 1
            peer_end = group_ends[gid]
            with np.errstate(invalid="ignore"):
                prank = np.where(
                    n_seg > 1, (rank_v - 1) / np.maximum(n_seg - 1, 1), 0.0
                )
            out["percent_rank"] = pa.array(prank, pa.float64())
            out["cume_dist"] = pa.array(
                (peer_end + 1 - row_start) / n_seg, pa.float64()
            )
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket)


def per_key_shift(
    ds,
    key_column: str,
    order_columns: list[str],
    value_column: str,
    id_columns: list[str] | None = None,
    lead: int = 1,
    n_buckets: int | None = None,
):
    """``LEAD(value, k)`` / ``FIRST_VALUE`` / ``LAST_VALUE`` over
    ``(PARTITION BY key ORDER BY order_columns)`` with the whole-partition
    frame (``ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING``)
    for first/last — the navigation-function complement of
    ``per_key_window``'s LAG/sums.

    Same scale shape: ONE coarse-bucket shuffle of the pruned columns,
    one vectorized lexsort + segment scan per bucket. The value column
    keeps its native Arrow type (results are produced by ``take`` with
    null indices, not arithmetic), so strings/timestamps work unchanged.

    Output: ``id_columns + [key_column, lead_<v>, first_<v>, last_<v>]``,
    one row per input row. LEAD is null past the partition end (and when
    the led value itself is null); order is ASC NULLS LAST (SQL default).
    """

    if lead < 1:
        raise ValueError(
            "lead must be >= 1 (a negative lead would read across the "
            "partition start — use per_key_window's LAG instead)"
        )
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(dict.fromkeys([key_column, *order_columns, value_column, *id_columns]))
    lead_col = f"lead_{value_column}"
    first_col = f"first_{value_column}"
    last_col = f"last_{value_column}"

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key_col = group.column(key_column).combine_chunks()
        val_col = group.column(value_column).combine_chunks()
        sig: list[np.ndarray] = []
        for c in order_columns:
            sig.extend(_order_arrays(group.column(c)))
        order, _, _, row_start, row_end = segments(key_codes(key_col), *sig)
        idx = np.arange(n, dtype=np.int64)
        lead_idx = idx + int(lead)
        lead_ok = lead_idx < row_end
        take = pa.array(order, pa.int64())
        vals_sorted = val_col.take(take)
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        # Arrow take with a NULL index yields NULL — exactly LEAD-past-end
        out[lead_col] = vals_sorted.take(
            pa.array(np.where(lead_ok, lead_idx, 0), pa.int64(), mask=~lead_ok)
        )
        out[first_col] = vals_sorted.take(pa.array(row_start, pa.int64()))
        out[last_col] = vals_sorted.take(pa.array(row_end - 1, pa.int64()))
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket)


def per_key_range_window_sum(
    ds,
    key_column: str,
    ts_column: str,
    value_column: str,
    preceding: int,
    id_columns: list[str] | None = None,
    n_buckets: int | None = None,
):
    """``SUM(value) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    <preceding> PRECEDING AND CURRENT ROW)`` — the time-interval rolling
    window (``preceding`` in the ts column's native int units, e.g. µs
    for timestamp[us]).

    Same coarse-bucket shuffle as ``per_key_window``; inside a bucket the
    frame bounds are fully vectorized: the frame END comes from run-length
    ends over (key, ts) — RANGE includes CURRENT ROW's *peers* (equal ts),
    unlike ROWS — and the frame START from ONE ``np.searchsorted`` over a
    per-segment-banded composite (ts offset by segment × band width), no
    per-key Python. Null ts rows form their own peer run at the segment
    end (frame = all null-ts peers), matching SQL. Window sums are int64
    cumsum differences (order-insensitive, bit-exact vs a SQL oracle);
    a frame with no non-null value yields NULL (SQL SUM).

    Falls back to a per-segment loop only if the composite would overflow
    int64 (ts span + preceding ≈ 2^63 / segment count — never for
    realistic time ranges)."""

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(dict.fromkeys([key_column, ts_column, value_column, *id_columns]))
    out_col = f"win_{value_column}"

    def cast_ts(t: pa.Table) -> pa.Table:
        return pa.table(
            {c: pc.cast(t.column(c), pa.int64()) if c == ts_column else t.column(c)
             for c in cols}
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key_col = group.column(key_column).combine_chunks()
        ts_col = group.column(ts_column).combine_chunks()
        ts_null = np.asarray(pc.is_null(ts_col))
        ts = np.asarray(pc.fill_null(ts_col, 0), dtype=np.int64)
        order, seg_start_idx, seg_id, row_start, _ = segments(
            key_codes(key_col), ts_null, ts
        )
        nn, tt = ts_null[order], ts[order]
        val_col = group.column(value_column).combine_chunks()
        valid = np.asarray(pc.is_valid(val_col))[order]
        vals = np.asarray(pc.fill_null(val_col, 0), dtype=np.int64)[order]
        # frame END: end of the (key, null-flag, ts) peer run
        run_first = row_start == np.arange(n)
        run_first[1:] |= (nn[1:] != nn[:-1]) | (tt[1:] != tt[:-1])
        run_starts = np.flatnonzero(run_first)
        run_id = np.cumsum(run_first) - 1
        run_ends = np.concatenate([run_starts[1:], [n]])
        hi = run_ends[run_id]
        # frame START: first row of the segment with ts >= t - preceding
        # (null-ts rows: their peer run start)
        span = int(tt.max() - tt.min())
        band = span + int(preceding) + 2
        n_segs = len(seg_start_idx)
        lo = np.empty(n, np.int64)
        if band > 0 and n_segs * band < 2**62:
            base = tt - tt.min()
            comp = seg_id * band + base
            # valid rows only — null runs handled below
            q = comp - int(preceding)
            comp_valid = comp[~nn]
            # positions of valid rows in the bucket order
            vpos = np.flatnonzero(~nn)
            lo_v = vpos[
                np.clip(
                    np.searchsorted(comp_valid, q[~nn], side="left"),
                    0,
                    max(len(vpos) - 1, 0),
                )
            ] if len(vpos) else np.zeros(0, np.int64)
            lo[~nn] = lo_v
        else:  # pragma: no cover — astronomical ts span
            for s, e in zip(seg_start_idx, np.concatenate([seg_start_idx[1:], [n]])):
                m = slice(s, e)
                vmask = ~nn[m]
                sub = tt[m][vmask]
                res = s + np.searchsorted(sub, tt[m][vmask] - int(preceding), "left")
                lo[np.arange(s, e)[vmask]] = res
        lo[nn] = run_starts[run_id[nn]]
        cs = np.concatenate([[0], np.cumsum(vals)])
        cv = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        win = cs[hi] - cs[lo]
        win_n = cv[hi] - cv[lo]
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        out[out_col] = pa.array(win, pa.int64(), mask=win_n == 0)
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket, cast_ts)


def ewma_scan(
    x: np.ndarray,
    alpha: float,
    row_start: np.ndarray | None = None,
    chunk: int = 256,
) -> np.ndarray:
    """Zero-initialized EWMA ``y_i = α·x_i + (1−α)·y_{i−1}`` over a flat
    float64 array, vectorized via the chunked renormalized-cumsum trick.
    ``row_start[i]`` (optional) is the index where row i's segment
    begins — the recurrence resets there (``per_key_ewma``'s PARTITION
    BY); ``None`` means one unbroken segment (the audio envelope
    follower). The chunk is capped from the decay so ``decay^-(chunk−1)``
    stays far from float64 overflow — high α (small decay) would blow
    ``0.05^-255`` to inf within the default 256-row chunk. The SINGLE
    copy of these numerics (``audio_features._one_pole_envelope``
    delegates here)."""
    import math

    n = len(x)
    y = np.empty(n, np.float64)
    decay = 1.0 - alpha
    if n == 0:
        return y
    if decay == 0.0:  # alpha == 1: ewma is just x
        y[:] = x
        return y
    if row_start is None:
        row_start = np.zeros(n, np.int64)
    chunk = max(1, min(chunk, int(250.0 / max(-math.log10(decay), 1e-12))))
    j = np.arange(chunk, dtype=np.float64)
    wneg = decay ** (-j)  # bounded: decay^-(chunk-1) < 1e250
    wpos = decay ** j
    for c0 in range(0, n, chunk):
        c1 = min(c0 + chunk, n)
        L = c1 - c0
        xs = x[c0:c1] * alpha * wneg[:L]
        s = np.cumsum(xs)
        # each row subtracts the prefix before its segment start
        # (clipped to the chunk); rows whose segment started in a
        # previous chunk add the carried tail instead
        rs = row_start[c0:c1]
        local_start = np.maximum(rs - c0, 0)
        s_before = np.where(local_start > 0, s[local_start - 1], 0.0)
        y[c0:c1] = wpos[:L] * (s - s_before)
        cont = rs < c0  # segment continues from previous chunk
        if cont.any():
            carry = y[c0 - 1]  # last row's ewma (same segment)
            y[c0:c1][cont] += carry * wpos[:L][cont] * decay
    return y


def per_key_ewma(
    ds,
    key_column: str,
    order_columns: list[str],
    value_column: str,
    alpha: float = 0.3,
    id_columns: list[str] | None = None,
    n_buckets: int | None = None,
    _chunk: int = 256,
):
    """Per-key exponentially weighted moving average over an ordered
    value column — the streaming-window decay metric (feature
    engineering / drift smoothing). ``ewma_i = α·x_i + (1−α)·ewma_{i−1}``
    with a reset at each key's first row; null values contribute as 0
    (decay still advances) — documented, not SQL semantics (EWMA is not
    SQL-expressible; gated by ground-truth tests instead of an oracle).

    Same scale shape as every window op here: ONE coarse-bucket shuffle,
    then per bucket a lexsort + CHUNKED renormalized-cumsum scan — the
    naive ``a^{-j}`` prefix trick overflows float64 beyond ~1k rows, so
    the scan renormalizes every ``_chunk`` rows and carries each
    still-open segment's tail across the boundary. Python cost is
    ``rows/_chunk`` iterations per bucket of vectorized work, never
    per-row or per-key.
    """

    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(dict.fromkeys([key_column, *order_columns, value_column, *id_columns]))
    out_col = f"ewma_{value_column}"

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        sig: list[np.ndarray] = []
        for c in order_columns:
            sig.extend(_order_arrays(group.column(c)))
        order, _, _, row_start, _ = segments(key_codes(key_col), *sig)
        val_col = group.column(value_column).combine_chunks()
        x = np.asarray(
            pc.fill_null(pc.cast(val_col, pa.float64()), 0.0), dtype=np.float64
        )[order]
        y = ewma_scan(x, alpha, row_start=row_start, chunk=_chunk)
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        out[out_col] = pa.array(y, pa.float64())
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket)


def throttle_per_key(
    ds,
    key_column: str,
    ts_column: str,
    id_column: str,
    min_gap: int,
    keep_columns: list[str] | None = None,
):
    """Per-key rate limiting / burst dedup: keep a row iff its timestamp
    is more than ``min_gap`` after the PREVIOUS row of the same key in
    ``(ts, id)`` order (first row of a key always survives) — SQL
    ``LAG``-gap semantics, NOT the greedy chain (a dropped row still
    anchors the next gap; the greedy variant is order-recursive and not
    SQL-expressible). The training-data shape: collapse duplicate
    telemetry bursts / retry storms before aggregation.

    ONE bucketed key shuffle of the pruned columns, per-bucket lexsort +
    one ``diff`` for every key segment (no per-key Python). ``min_gap``
    is in the timestamp's native int64 unit. Null key/ts rows drop
    (their gap is undefined — SQL LAG over a null partition/order yields
    no comparison)."""

    n_buckets = default_n_buckets(ds)
    cols = list(dict.fromkeys([key_column, ts_column, id_column, *(keep_columns or [])]))

    def drop_null_keys(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        mask = pc.and_(pc.is_valid(t.column(key_column)), pc.is_valid(t.column(ts_column)))
        t = t.filter(mask)
        return t.set_column(
            t.schema.get_field_index(ts_column),
            ts_column,
            pc.cast(t.column(ts_column), pa.int64()),
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        ts = np.asarray(group.column(ts_column), dtype=np.int64)
        ids = stable_key_array(group.column(id_column).combine_chunks())
        order, _, _, row_start, _ = segments(
            key_codes(group.column(key_column).combine_chunks()), ts, ids
        )
        ts_s = ts[order]
        gap_ok = np.concatenate([[True], (ts_s[1:] - ts_s[:-1]) > min_gap])
        keep = (row_start == np.arange(len(order))) | gap_ok
        return group.take(pa.array(np.sort(order[keep]), pa.int64()))

    return bucketed(ds, [key_column], n_buckets, per_bucket, drop_null_keys)


def per_key_rolling_median(
    ds,
    key_column: str,
    order_columns: list[str],
    value_column: str,
    id_columns: list[str] | None = None,
    window: int = 5,
    n_buckets: int | None = None,
):
    """Per-key ROLLING MEDIAN — SQL ``median(v) OVER (PARTITION BY key
    ORDER BY ... ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``.

    Same single bucketed shuffle as :func:`per_key_window` (key-hash
    buckets, one vectorized ``map_groups`` per bucket). Inside a bucket
    the frame extraction is one ``sliding_window_view`` over the
    NaN-padded value array with a broadcast segment mask (rows never see
    a neighboring key's values), then one ``np.nanmedian`` over the
    (rows × window) matrix — no per-row Python. Null values are skipped
    (SQL aggregate semantics; an all-null frame yields NULL). Interpolated
    even-count medians match SQL ``median`` on integer inputs exactly
    (both compute the midpoint in float64). Memory is O(rows × window)
    per bucket — the right shape for the small windows rolling stats use;
    a streaming two-heap scan is the documented path for window ≫ 10³.

    Output: ``id_columns + [key_column, median{window}_<value>]`` with
    the median rounded to 6dp (the repo's float protocol).
    """

    if window < 1:
        raise ValueError("window must be >= 1")
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    id_columns = id_columns or []
    cols = list(dict.fromkeys([key_column, *order_columns, value_column, *id_columns]))
    med_col = f"median{window}_{value_column}"

    def cast_order(t: pa.Table) -> pa.Table:
        return pa.table(
            {c: pc.cast(t.column(c), pa.int64()) if c in order_columns else t.column(c)
             for c in cols}
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key_col = group.column(key_column).combine_chunks()
        sig = []
        for c in order_columns:
            oc = group.column(c).combine_chunks()
            sig.append(np.asarray(pc.is_null(oc)))
            sig.append(np.asarray(pc.fill_null(oc, 0), dtype=np.int64))
        order, _, _, row_start, _ = segments(key_codes(key_col), *sig)
        val_col = group.column(value_column).combine_chunks()
        valid = np.asarray(pc.is_valid(val_col))[order]
        vals = np.asarray(
            pc.cast(pc.fill_null(val_col, 0), pa.float64()), dtype=np.float64
        )[order]
        vals = np.where(valid, vals, np.nan)
        padded = np.concatenate([np.full(window - 1, np.nan), vals])
        frames = np.lib.stride_tricks.sliding_window_view(padded, window).copy()
        # frame column j of row i is global index i - window + 1 + j;
        # blank out positions before the row's own key segment starts
        j = np.arange(window)[None, :]
        lo = (row_start - (np.arange(n) - window + 1))[:, None]
        frames[j < lo] = np.nan
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN frames
            med = np.nanmedian(frames, axis=1)
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in id_columns}
        out[key_column] = key_col.take(take)
        out[med_col] = pa.array(np.round(med, 6), pa.float64(), mask=np.isnan(med))
        return pa.table(out)

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket, cast_order)
