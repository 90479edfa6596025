"""Join operators: broadcast hash join and distributed as-of join.

The reference has no joins (SURVEY.md §2: its existence check is a moral
left-anti join); a data-processing engine needs them. Two shapes:

* **Broadcast join** (small side): build ``{key: row}`` once on the
  driver, ``ray.put`` it, probe inside ``map_batches`` — no shuffle at
  all. The right pattern whenever one side fits in worker memory
  (dimension tables, manifests).
* **As-of join** (both sides big): tag + union the two key-pruned
  streams, hash-partition by key via ONE bucket exchange, and inside
  each group sort the right side and ``searchsorted`` the left — the
  classic co-partitioned merge. Only the join columns shuffle.
  Partitioning assumption: rows for one key fit in one group (true for
  per-entity event/order streams; salt the key upstream if an entity is
  pathologically hot).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    BUCKET,
    DEFAULT_TARGET_BUCKET_BYTES,
    bucket_ids,
    default_n_buckets,
    estimate_dataset_bytes,
    estimate_dataset_rows,
    key_hash,
    map_buckets,
    route,
    segments,
)
from fs_schema_validator_ray.state.sketches import stable_key_array


class BroadcastJoinStage:
    """map_batches callable: append ``value_columns`` from the broadcast
    lookup to every probe row (inner join: unmatched rows drop)."""

    def __init__(self, lookup_ref, key_column: str, value_columns: list[str]) -> None:
        self.lookup_ref = lookup_ref
        self.key_column = key_column
        self.value_columns = value_columns
        self._lookup = None

    def _resolve(self):
        if self._lookup is None:
            import ray

            obj = self.lookup_ref
            self._lookup = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._lookup

    def __call__(self, batch: pa.Table) -> pa.Table:
        # (sorted key array, {col: np.array}, {col: pa.DataType})
        keys_sorted, values, types = self._resolve()
        probe = np.asarray(batch.column(self.key_column))
        # side="right" - 1 → LAST occurrence among duplicate keys (stable
        # sort preserves dataset order, so last row wins as documented)
        idx = np.searchsorted(keys_sorted, probe, side="right") - 1
        idx = np.clip(idx, 0, max(0, len(keys_sorted) - 1))
        hit = keys_sorted[idx] == probe if len(keys_sorted) else np.zeros(len(probe), bool)
        out = batch.filter(pa.array(hit))
        take = idx[hit]
        for col in self.value_columns:
            # explicit type: an all-miss batch must NOT emit a null-typed
            # column (pa.array of empty object array infers type null,
            # producing mixed-schema blocks downstream)
            out = out.append_column(col, pa.array(values[col][take], type=types[col]))
        return out


def build_broadcast_side(ds, key_column: str, value_columns: list[str]):
    """Collect + sort the small side into (keys, {col: values}) for
    ``BroadcastJoinStage`` (duplicate keys: last wins)."""
    proj = ds.select_columns([key_column, *value_columns])
    batches = list(proj.iter_batches(batch_format="pyarrow"))
    if batches:
        tbl = pa.concat_tables(batches)
    else:
        schema = proj.schema()
        schema = schema.base_schema if hasattr(schema, "base_schema") else schema
        tbl = pa.schema(
            [(n, schema.field(n).type) for n in [key_column, *value_columns]]
        ).empty_table()
    keys = np.asarray(tbl.column(key_column))
    order = np.argsort(keys, kind="stable")
    return (
        keys[order],
        {
            col: np.asarray(tbl.column(col), dtype=object)[order]
            for col in value_columns
        },
        {col: tbl.schema.field(col).type for col in value_columns},
    )


def broadcast_join(ds, small_ds, key_column: str, value_columns: list[str]):
    """Inner hash join against a broadcast small side (no shuffle)."""
    import ray

    side = build_broadcast_side(small_ds, key_column, value_columns)
    ref = ray.put(side)
    return ds.map_batches(
        BroadcastJoinStage(ref, key_column, value_columns), batch_format="pyarrow"
    )


# --- as-of join ------------------------------------------------------------


def asof_join(
    left,
    right,
    key_column: str,
    left_ts: str,
    right_ts: str,
    left_value_columns: list[str],
    right_value_columns: list[str],
    direction: str = "backward",
    tolerance: int | None = None,
):
    """Distributed as-of join: for every left row, the right row with
    the same key and — ``direction="backward"`` (default) the greatest
    ``right_ts <= left_ts``; ``"forward"`` the smallest ``right_ts >=
    left_ts``; ``"nearest"`` whichever side is closer (tie → the
    backward match, deterministic). Inner semantics — left rows with no
    qualifying right row drop.

    ``tolerance`` (pandas ``merge_asof`` parity): when set, the matched
    row must additionally satisfy ``|left_ts − right_ts| ≤ tolerance``
    (int64 native timestamp units) — left rows whose best match is
    farther away drop like unmatched rows.

    ``tag → union → bucket exchange on the key → per-bucket
    key-segment scan + searchsorted``: one shuffle of only the pruned
    join columns, keyed by a small-int bucket (one vectorized
    ``map_groups`` call per bucket, not one Python call per key — most
    keys are singletons-per-side and the per-group call overhead
    dominates at high key cardinality).
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(
            f"direction must be backward|forward|nearest, got {direction!r}"
        )
    n_buckets = default_n_buckets(left, right)
    l_cols = list(dict.fromkeys([key_column, left_ts, *left_value_columns]))
    r_cols = list(dict.fromkeys([key_column, right_ts, *right_value_columns]))
    # resolve null-fill dtypes ONCE on the driver — referencing the
    # Datasets inside the closures would serialize them into every task
    l_types = {c: _target_type(left, c) for c in left_value_columns}
    r_types = {c: _target_type(right, c) for c in right_value_columns}

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(key_column)))  # inner: null keys drop
        out = pa.table(
            {
                "__key": t.column(key_column),
                "__ts": pc.cast(t.column(left_ts), pa.int64()),
                "__side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )
        for c in left_value_columns:
            out = out.append_column(f"l_{c}", t.column(c))
        for c in right_value_columns:
            out = out.append_column(f"r_{c}", pa.nulls(t.num_rows, r_types[c]))
        return out

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(key_column)))
        out = pa.table(
            {
                "__key": t.column(key_column),
                "__ts": pc.cast(t.column(right_ts), pa.int64()),
                "__side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )
        for c in left_value_columns:
            out = out.append_column(f"l_{c}", pa.nulls(t.num_rows, l_types[c]))
        for c in right_value_columns:
            out = out.append_column(f"r_{c}", t.column(c))
        return out

    tagged = route(left.select_columns(l_cols), ["__key"], n_buckets, tag_left).union(
        route(right.select_columns(r_cols), ["__key"], n_buckets, tag_right)
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        ts = np.asarray(group.column("__ts"))
        # one lexsort: rows grouped by key; within a key all lefts
        # (ts-sorted) then all rights (ts-sorted)
        order, starts, _, _, _ = segments(stable_key_array(group.column("__key")), side, ts)
        side_s, ts_s = side[order], ts[order]
        ends = np.append(starts[1:], len(order))
        keep_l, match_r = [], []
        for s, e in zip(starts, ends):
            split = s + int(np.searchsorted(side_s[s:e], 1))
            if split == s or split == e:
                continue  # one-sided key
            l_ts = ts_s[s:split]
            r_ts = ts_s[split:e]
            if direction == "backward":
                pos = np.searchsorted(r_ts, l_ts, side="right") - 1
                ok = pos >= 0
                if tolerance is not None:
                    ok &= (l_ts - r_ts[np.maximum(pos, 0)]) <= tolerance
            elif direction == "forward":
                pos = np.searchsorted(r_ts, l_ts, side="left")
                ok = pos < len(r_ts)
                if tolerance is not None:
                    ok &= (r_ts[np.minimum(pos, len(r_ts) - 1)] - l_ts) <= tolerance
            else:  # nearest: closer of the two, tie → backward
                pb = np.searchsorted(r_ts, l_ts, side="right") - 1
                pf = np.searchsorted(r_ts, l_ts, side="left")
                okb, okf = pb >= 0, pf < len(r_ts)
                db = np.where(okb, l_ts - r_ts[np.maximum(pb, 0)], np.iinfo(np.int64).max)
                df = np.where(
                    okf, r_ts[np.minimum(pf, len(r_ts) - 1)] - l_ts,
                    np.iinfo(np.int64).max,
                )
                pos = np.where(db <= df, pb, pf)
                ok = okb | okf
                if tolerance is not None:
                    ok &= np.minimum(db, df) <= tolerance
            keep_l.append(order[s:split][ok])
            match_r.append(order[split:e][pos[ok]])
        if not keep_l:
            return _empty_out(group, left_value_columns, right_value_columns)
        l_keep = pa.array(np.concatenate(keep_l), pa.int64())
        r_match = pa.array(np.concatenate(match_r), pa.int64())
        out_cols = {"__key": group.column("__key").take(l_keep)}
        out_cols["__ts"] = group.column("__ts").take(l_keep)
        for c in left_value_columns:
            out_cols[f"l_{c}"] = group.column(f"l_{c}").take(l_keep)
        for c in right_value_columns:
            out_cols[f"r_{c}"] = group.column(f"r_{c}").take(r_match)
        return pa.table(out_cols)

    return map_buckets(tagged, merge_bucket, n_buckets)


def interval_overlap_join(
    left,
    right,
    left_id: str,
    left_lo: str,
    left_hi: str,
    right_id: str,
    right_lo: str,
    right_hi: str,
    band_width: int,
    n_buckets: int | None = None,
):
    """Distributed interval×interval OVERLAP join over one global
    timeline (no equi-key): every (left, right) pair whose HALF-OPEN
    int64 intervals intersect — ``l_lo < r_hi AND r_lo < l_hi`` — emits
    one row ``(left_id, right_id, overlap_lo, overlap_hi)``. The
    alignment primitive for span data (VAD speech segments × transcript
    word spans, ad impressions × sessions, sensor outages × jobs).

    Plan — banded sweep with EXACT once-per-pair ownership, no pair
    dedup shuffle: each interval band-expands to the time bands it
    spans (``floor(lo/W) .. floor((hi-1)/W)``), ONE
    ``groupby(band-bucket)`` shuffle, and inside a band the rights are
    lo-sorted so every left's candidates come from one ``searchsorted``
    prefix, filtered by ``r_hi > l_lo``. A pair is emitted ONLY by the
    band containing ``max(l_lo, r_lo)`` — both intervals provably span
    that band (the overlap contains the max start), so the result is
    complete and duplicate-free by construction.

    Partitioning assumptions (documented): ``band_width`` should sit
    near the TYPICAL interval length — expansion factor is
    ``len/W + 1`` bands per row, while candidate count per left is the
    band's occupancy. Intervals with ``hi <= lo`` or null fields drop
    (no overlap is possible). Many intervals crossing one band (a hot
    time window) co-locate — shrink ``band_width`` or pre-split hot
    windows upstream, the usual hot-key caveat."""
    if band_width < 1:
        raise ValueError("band_width must be >= 1")
    if n_buckets is None:
        n_buckets = default_n_buckets(left, right)
    w = int(band_width)
    l_id_type = _target_type(left, left_id)
    r_id_type = _target_type(right, right_id)

    def tag(side: int, id_col: str, lo_col: str, hi_col: str):
        def fn(t: pa.Table) -> pa.Table:
            mask = pc.and_(
                pc.and_(pc.is_valid(t.column(id_col)), pc.is_valid(t.column(lo_col))),
                pc.is_valid(t.column(hi_col)),
            )
            t = t.filter(mask)
            lo = np.asarray(pc.cast(t.column(lo_col), pa.int64()))
            hi = np.asarray(pc.cast(t.column(hi_col), pa.int64()))
            keep = hi > lo  # empty intervals cannot overlap
            t, lo, hi = t.filter(pa.array(keep)), lo[keep], hi[keep]
            b_lo = lo // w
            b_hi = (hi - 1) // w
            reps = (b_hi - b_lo + 1).astype(np.int64)
            row = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
            # band id per expanded row: b_lo[row] + within-row offset
            offs = np.concatenate([[0], np.cumsum(reps)])
            band = b_lo[row] + (np.arange(int(offs[-1]), dtype=np.int64)
                                - np.repeat(offs[:-1], reps))
            take = pa.array(row, pa.int64())
            ids = t.column(id_col).combine_chunks().take(take)
            return pa.table(
                {
                    "__band": pa.array(band),
                    "__side": pa.array(np.full(len(band), side, np.int8)),
                    "__id_l": ids if side == 0 else pa.nulls(len(band), l_id_type),
                    "__id_r": ids if side == 1 else pa.nulls(len(band), r_id_type),
                    "__lo": pa.array(lo[row]),
                    "__hi": pa.array(hi[row]),
                }
            )

        return fn

    tagged = route(
        left.select_columns(list(dict.fromkeys([left_id, left_lo, left_hi]))),
        ["__band"], n_buckets, tag(0, left_id, left_lo, left_hi),
    ).union(
        route(
            right.select_columns(list(dict.fromkeys([right_id, right_lo, right_hi]))),
            ["__band"], n_buckets, tag(1, right_id, right_lo, right_hi),
        )
    )

    empty_schema = pa.schema(
        [
            (left_id, l_id_type),
            (right_id, r_id_type),
            ("overlap_lo", pa.int64()),
            ("overlap_hi", pa.int64()),
        ]
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        band = np.asarray(group.column("__band"))
        side = np.asarray(group.column("__side"))
        lo = np.asarray(group.column("__lo"))
        hi = np.asarray(group.column("__hi"))
        # several bands can share a coarse bucket: sort by (band, side,
        # lo) and sweep each band's segment independently
        order, starts, _, _, _ = segments(band, side, lo)
        band_s, side_s, lo_s, hi_s = band[order], side[order], lo[order], hi[order]
        out_l, out_r = [], []
        ends = np.append(starts[1:], len(order))
        for s, e in zip(starts, ends):
            b = band_s[s]
            mid = s + int(np.searchsorted(side_s[s:e], 1))
            ln = mid - s  # lefts [s, mid), rights [mid, e) — both lo-sorted
            rn = e - mid
            if not ln or not rn:
                continue
            l_lo, l_hi = lo_s[s:mid], hi_s[s:mid]
            r_lo, r_hi = lo_s[mid:e], hi_s[mid:e]
            ub = np.searchsorted(r_lo, l_hi, side="left")  # r_lo < l_hi
            total = int(ub.sum())
            if not total:
                continue
            li = np.repeat(np.arange(ln), ub)
            poffs = np.concatenate([[0], np.cumsum(ub)])
            ri = np.arange(total, dtype=np.int64) - np.repeat(poffs[:-1], ub)
            maxs = np.maximum(l_lo[li], r_lo[ri])
            ok = (r_hi[ri] > l_lo[li]) & (maxs // w == b)
            out_l.append(order[s + li[ok]])
            out_r.append(order[mid + ri[ok]])
        if not out_l:
            return empty_schema.empty_table()
        l_take = pa.array(np.concatenate(out_l), pa.int64())
        r_take = pa.array(np.concatenate(out_r), pa.int64())
        o_lo = np.maximum(lo[np.asarray(l_take)], lo[np.asarray(r_take)])
        o_hi = np.minimum(hi[np.asarray(l_take)], hi[np.asarray(r_take)])
        return pa.table(
            {
                left_id: group.column("__id_l").combine_chunks().take(l_take),
                right_id: group.column("__id_r").combine_chunks().take(r_take),
                "overlap_lo": pa.array(o_lo),
                "overlap_hi": pa.array(o_hi),
            }
        )

    return map_buckets(tagged, merge_bucket, n_buckets)


def range_join(
    left,
    right,
    key_column: str,
    left_ts: str,
    right_lo: str,
    right_hi: str,
    left_value_columns: list[str],
    right_value_columns: list[str],
    max_span: int | None = None,
):
    """Distributed range (interval) join: every (left, right) pair with
    equal keys and ``right_lo <= left_ts < right_hi``. Inner semantics —
    rows with null key/timestamp drop; a left row matching k right
    intervals emits k rows (SQL ``JOIN ON key AND ts BETWEEN`` shape).

    Same single-shuffle plan as ``asof_join``: tag → union → ONE
    bucket exchange on the key of only the pruned join columns →
    per-bucket vectorized merge (one lexsort; per key-segment the rights
    are lo-sorted, every left row's candidate window comes from two
    ``searchsorted`` calls, expanded with repeat/arange and filtered by
    ``hi > ts``).

    ``max_span``: optional upper bound on ``right_hi - right_lo`` (same
    units as the timestamps after int64 cast). With it, candidates for a
    left row shrink from "every right with lo <= ts in this key" to the
    ``(ts - max_span, ts]`` lo-window — essential when one key holds many
    long-lived intervals. Without it the candidate prefix is unbounded
    (correct, but O(rights-per-key) per left row in the worst case).
    Partitioning assumption: one key's rows fit in one group — salt
    upstream if a key is pathologically hot, as with any equi-join.
    """
    n_buckets = default_n_buckets(left, right)
    l_cols = list(dict.fromkeys([key_column, left_ts, *left_value_columns]))
    r_cols = list(dict.fromkeys([key_column, right_lo, right_hi, *right_value_columns]))
    l_types = {c: _target_type(left, c) for c in left_value_columns}
    r_types = {c: _target_type(right, c) for c in right_value_columns}

    def tag_left(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_valid(t.column(key_column)), pc.is_valid(t.column(left_ts))
        )
        t = t.filter(mask)
        out = pa.table(
            {
                "__key": t.column(key_column),
                "__ts": pc.cast(t.column(left_ts), pa.int64()),
                "__hi": pa.nulls(t.num_rows, pa.int64()),
                "__side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )
        for c in left_value_columns:
            out = out.append_column(f"l_{c}", t.column(c))
        for c in right_value_columns:
            out = out.append_column(f"r_{c}", pa.nulls(t.num_rows, r_types[c]))
        return out

    def tag_right(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.is_valid(t.column(key_column)), pc.is_valid(t.column(right_lo))
            ),
            pc.is_valid(t.column(right_hi)),
        )
        t = t.filter(mask)
        out = pa.table(
            {
                "__key": t.column(key_column),
                "__ts": pc.cast(t.column(right_lo), pa.int64()),
                "__hi": pc.cast(t.column(right_hi), pa.int64()),
                "__side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )
        for c in left_value_columns:
            out = out.append_column(f"l_{c}", pa.nulls(t.num_rows, l_types[c]))
        for c in right_value_columns:
            out = out.append_column(f"r_{c}", t.column(c))
        return out

    tagged = route(left.select_columns(l_cols), ["__key"], n_buckets, tag_left).union(
        route(right.select_columns(r_cols), ["__key"], n_buckets, tag_right)
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        ts = np.asarray(group.column("__ts"))
        # rows grouped by key; within a key: lefts ts-sorted, rights lo-sorted
        order, starts, _, _, _ = segments(stable_key_array(group.column("__key")), side, ts)
        side_s, ts_s = side[order], ts[order]
        hi_np = np.asarray(
            group.column("__hi").combine_chunks().fill_null(0), dtype=np.int64
        )
        hi_s = hi_np[order]
        ends = np.append(starts[1:], len(order))
        keep_l, match_r = [], []
        for s, e in zip(starts, ends):
            split = s + int(np.searchsorted(side_s[s:e], 1))
            if split == s or split == e:
                continue  # one-sided key
            l_ts = ts_s[s:split]
            r_lo = ts_s[split:e]
            r_hi = hi_s[split:e]
            hi_c = np.searchsorted(r_lo, l_ts, side="right")
            if max_span is not None:
                lo_c = np.searchsorted(r_lo, l_ts - max_span, side="left")
            else:
                lo_c = np.zeros(len(l_ts), np.int64)
            counts = hi_c - lo_c
            total = int(counts.sum())
            if total == 0:
                continue
            l_rep = np.repeat(np.arange(split - s, dtype=np.int64), counts)
            offs = np.concatenate([[0], np.cumsum(counts)])
            r_pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offs[:-1], counts)
                + np.repeat(lo_c, counts)
            )
            ok = r_hi[r_pos] > l_ts[l_rep]
            keep_l.append(order[s:split][l_rep[ok]])
            match_r.append(order[split:e][r_pos[ok]])
        if not keep_l:
            return _empty_out(group, left_value_columns, right_value_columns)
        l_keep = pa.array(np.concatenate(keep_l), pa.int64())
        r_match = pa.array(np.concatenate(match_r), pa.int64())
        out_cols = {
            "__key": group.column("__key").take(l_keep),
            "__ts": group.column("__ts").take(l_keep),
        }
        for c in left_value_columns:
            out_cols[f"l_{c}"] = group.column(f"l_{c}").take(l_keep)
        for c in right_value_columns:
            out_cols[f"r_{c}"] = group.column(f"r_{c}").take(r_match)
        return pa.table(out_cols)

    return map_buckets(tagged, merge_bucket, n_buckets)


def hash_join(
    left,
    right,
    left_on: str,
    right_on: str,
    left_value_columns: list[str],
    right_value_columns: list[str],
    n_buckets: int | None = None,
    how: str = "inner",
    salt: int = 1,
    prefilter: str | None = None,
    adaptive_skew: bool | None = None,
    skew_split_cap_rows: int = 50_000,
    _skew_report: dict | None = None,
):
    """Distributed equi-join (``how``: "inner", "left", "right" or
    "full_outer"), both sides large: ``tag → union → bucket exchange on
    the key → per-bucket vectorized merge``.

    ``how="right"`` delegates to the mirrored ``how="left"`` plan (the
    sides swap; a right join IS a left join read from the other side),
    so it inherits every left-join property. Its output key column is
    named ``right_on`` (the preserved side) and columns emit as
    ``[right_on, *right_value_columns, *left_value_columns]``.

    ``salt > 1`` is the EXPLICIT hot-key skew path (inner/left only):
    each left row lands in one of ``salt`` sub-buckets per key
    (round-robin within its batch) and every right row replicates to all
    ``salt`` sub-buckets, so a pathologically hot key's probe work
    spreads across ``salt`` reducers at the cost of ``salt×`` the (small,
    pruned) right shuffle volume. Results are identical to the unsalted
    join — each left row meets each matching right row in exactly one
    sub-bucket.

    Only the pruned join columns shuffle, keyed by a small-int bucket
    (one vectorized ``map_groups`` call per bucket, not one Python call
    per key). Inside a bucket the right side is sorted by key once and
    every left row's match range comes from two ``searchsorted`` calls;
    duplicate keys on both sides expand to the full per-key cross
    product, exactly like SQL. Null join keys drop from the match (for
    ``how="left"`` / ``"full_outer"`` they still emit with the other
    side's columns null, like SQL). The output key column is named
    ``left_on`` and carries SQL ``USING``-style coalesce semantics: for
    ``full_outer`` right-only rows it holds the RIGHT key (oracle:
    ``COALESCE(l.key, r.key)``). A right join is ``full_outer`` minus
    left-only rows — or just swap the sides and use "left". Column names
    pass through (caller guarantees no collision across sides).

    **Adaptive hot-bucket splitting** (``adaptive_skew``, inner/left
    with ``salt == 1``): one cheap pre-pass over the PRUNED left key
    column counts rows per bucket (vectorized bincount partials, driver
    holds one int array) at no fewer than ``SKEW_DETECT_BUCKETS``
    buckets, the layout the join then takes if any is hot; any bucket
    whose count exceeds ``max(skew_split_cap_rows, 4×median)`` is split
    into ``ceil(count / cap)`` sub-buckets (≤64) — its left rows round-robin
    across them and its right rows replicate into each, the same
    correctness argument as uniform ``salt`` but applied only where the
    data is actually hot, so no single merge task materializes a whole
    hot key. ``None`` (default) auto-enables when the left side's
    metadata row estimate is ≥1M rows (the pre-pass amortizes);
    ``True``/``False`` force. Split decisions are logged
    (no-silent-caps) and reported via ``_skew_report`` for tests.

    ``left_on`` / ``right_on`` may be LISTS for a composite
    (multi-column) join key: row equality requires every component equal
    and non-null (SQL AND-of-equalities); inside a bucket the composite
    collapses to within-group int64 codes via one lexsort + run-length
    scan, so the probe stays two ``searchsorted`` calls regardless of
    key arity.

    ``prefilter`` ("exact" or "bloom", inner only) cuts the LEFT shuffle
    for SELECTIVE joins: one pass over the right side builds a
    key-hash membership (sorted u64 set, 8 B/distinct key, or a Bloom at
    ~1.8 B/key) that's broadcast once and probed inside ``tag_left`` —
    left rows that cannot match never enter the exchange. False
    positives (hash collision / Bloom fpp) only ship a row that the
    merge then drops; false negatives are impossible (same hash both
    sides), so results are identical to the unfiltered join.
    """
    if how == "right":
        if prefilter:
            raise ValueError("prefilter supports how=inner only")
        return hash_join(
            right,
            left,
            right_on,
            left_on,
            right_value_columns,
            left_value_columns,
            n_buckets=n_buckets,
            how="left",
            salt=salt,
            adaptive_skew=adaptive_skew,
            skew_split_cap_rows=skew_split_cap_rows,
            _skew_report=_skew_report,
        )
    if how not in ("inner", "left", "full_outer"):
        raise ValueError(
            f"hash_join how must be inner|left|right|full_outer, got {how!r}"
        )
    if salt < 1:
        raise ValueError("salt must be >= 1")
    if salt > 1 and how == "full_outer":
        # a replicated right row would emit `salt` right-only copies
        raise ValueError("salt > 1 supports how=inner|left only")
    if n_buckets is None:
        n_buckets = default_n_buckets(left, right)
    l_keys = [left_on] if isinstance(left_on, str) else list(left_on)
    r_keys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(l_keys) != len(r_keys) or not l_keys:
        raise ValueError("left_on and right_on must have the same non-zero arity")
    m = len(l_keys)
    l_types = {c: _target_type(left, c) for c in left_value_columns}
    r_types = {c: _target_type(right, c) for c in right_value_columns}
    key_types = [_target_type(left, k) for k in l_keys]
    kcols = [f"__key{i}" for i in range(m)]

    if prefilter not in (None, "exact", "bloom"):
        raise ValueError(f"prefilter must be None|exact|bloom, got {prefilter!r}")
    if prefilter and how != "inner":
        # left/full_outer must emit unmatched left rows — nothing to prune
        raise ValueError("prefilter supports how=inner only")

    membership_ref = None
    if prefilter:
        import ray

        from fs_schema_validator_ray.state.sketches import BloomFilter

        def hash_partial(t: pa.Table) -> pa.Table:
            t = t.filter(_all_valid(t, r_keys))
            h1 = key_hash(t, r_keys)
            h2 = key_hash(t, r_keys, key=_ALT_HASH)
            u, ui = np.unique(h1, return_index=True)
            return pa.table(
                {
                    "h1": pa.array(u, pa.uint64()),
                    "h2": pa.array(h2[ui], pa.uint64()),
                }
            )

        parts = (
            right.select_columns(list(dict.fromkeys(r_keys)))
            .map_batches(hash_partial, batch_format="pyarrow")
            .to_pandas()  # per-block DISTINCT hashes only — 16 B each
        )
        h1 = parts["h1"].to_numpy(dtype=np.uint64)
        if prefilter == "exact":
            membership_ref = ray.put(np.unique(h1))
        else:
            bf = BloomFilter(max(len(h1), 1))
            bf.add_hashes(h1, parts["h2"].to_numpy(dtype=np.uint64))
            membership_ref = ray.put(bf)

    # --- per-bucket split factors: uniform explicit `salt`, widened per
    # bucket by adaptive skew detection. A bucket with split factor s
    # occupies s contiguous final-bucket slots; left rows round-robin
    # into them, right rows replicate into all s (identical correctness
    # argument to uniform salting, applied only where hot).
    n_buckets, splits = _split_factors(
        left, l_keys, n_buckets, salt,
        adaptive_skew if salt == 1 and how in ("inner", "left") else False,
        skew_split_cap_rows, "hash_join",
    )
    if _skew_report is not None:
        _skew_report["splits"] = splits.copy()
        _skew_report["n_hot"] = int((splits > salt).sum())

    def tag_left(t: pa.Table) -> pa.Table:
        if how == "inner":
            t = t.filter(_all_valid(t, l_keys))
        if membership_ref is not None:
            import ray

            memb = ray.get(membership_ref)  # zero-copy from local plasma
            h1 = key_hash(t, l_keys)
            if isinstance(memb, np.ndarray):
                if len(memb):
                    idx = np.clip(np.searchsorted(memb, h1), 0, len(memb) - 1)
                    keep = memb[idx] == h1
                else:
                    keep = np.zeros(len(h1), bool)
            else:
                keep = memb.contains_hashes(h1, key_hash(t, l_keys, key=_ALT_HASH))
            t = t.filter(pa.array(keep))
        out = {BUCKET: pa.array(_spread(bucket_ids(t, l_keys, n_buckets), splits))}
        for kc, k, kt in zip(kcols, l_keys, key_types):
            out[kc] = pc.cast(t.column(k), kt)
        out["__side"] = pa.array(np.zeros(t.num_rows, np.int8))
        out = pa.table(out)
        for c in left_value_columns:
            out = out.append_column(c, t.column(c))
        for c in right_value_columns:
            out = out.append_column(c, pa.nulls(t.num_rows, r_types[c]))
        return out

    def tag_right(t: pa.Table) -> pa.Table:
        if how != "full_outer":
            # a null right key can never match and (inner/left) never
            # emits; full_outer emits it as a right-only row
            t = t.filter(_all_valid(t, r_keys))
        rep, bucket = _replicate(bucket_ids(t, r_keys, n_buckets), splits)
        if rep is not None:
            t = t.take(pa.array(rep))
        out = {BUCKET: pa.array(bucket)}
        for kc, k, kt in zip(kcols, r_keys, key_types):
            out[kc] = pc.cast(t.column(k), kt)
        out["__side"] = pa.array(np.ones(t.num_rows, np.int8))
        out = pa.table(out)
        for c in left_value_columns:
            out = out.append_column(c, pa.nulls(t.num_rows, l_types[c]))
        for c in right_value_columns:
            out = out.append_column(c, t.column(c))
        return out

    l_cols = list(dict.fromkeys([*l_keys, *left_value_columns]))
    r_cols = list(dict.fromkeys([*r_keys, *right_value_columns]))
    tagged = left.select_columns(l_cols).map_batches(
        tag_left, batch_format="pyarrow"
    ).union(
        right.select_columns(r_cols).map_batches(tag_right, batch_format="pyarrow")
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        if group.nbytes > 2 * DEFAULT_TARGET_BUCKET_BYTES:
            import logging

            # no-silent-caps: one task is materializing far more than the
            # sizing target — the input-size estimate undershot (opaque
            # lineage) or one key is pathologically hot
            logging.getLogger(__name__).warning(
                "hash_join bucket group holds %.0f MiB (>2x the %.0f MiB "
                "target): raise n_buckets or enable adaptive_skew",
                group.nbytes / 2**20, DEFAULT_TARGET_BUCKET_BYTES / 2**20,
            )
        side = np.asarray(group.column("__side"))
        key_valid, keys = _match_keys(group, kcols)
        l_idx = np.flatnonzero(side == 0)
        r_idx = np.flatnonzero(side == 1)
        empty = {lk: group.column(kc).slice(0, 0) for lk, kc in zip(l_keys, kcols)}
        for c in left_value_columns:
            empty[c] = group.column(c).slice(0, 0)
        for c in right_value_columns:
            empty[c] = group.column(c).slice(0, 0)
        if (how != "full_outer" and not len(l_idx)) or (
            how == "inner" and not len(r_idx)
        ):
            return pa.table(empty)
        # full_outer: only valid-key right rows join the match structure —
        # null-key rows emit right-only below (an int null key fills to 0
        # in stable_key_array and would otherwise match a real key 0, and
        # a None in an object key array breaks argsort)
        r_match = r_idx[key_valid[r_idx]] if how == "full_outer" else r_idx
        rk = keys[:0]
        lk_valid = keys[:0]
        if len(r_match):
            r_sorted = r_match[np.argsort(keys[r_match], kind="stable")]
            rk = keys[r_sorted]
            valid_l = key_valid[l_idx]
            # a null key never matches (SQL semantics) — and for non-int
            # key types the null stays a Python None in the object array,
            # which np.searchsorted cannot even compare: search only the
            # valid left keys, scatter back
            lk_valid = keys[l_idx[valid_l]]
            lo = np.zeros(len(l_idx), np.int64)
            counts = np.zeros(len(l_idx), np.int64)
            lo_v = np.searchsorted(rk, lk_valid, side="left")
            hi_v = np.searchsorted(rk, lk_valid, side="right")
            lo[valid_l] = lo_v
            counts[valid_l] = hi_v - lo_v
        else:
            r_sorted = r_match
            lo = np.zeros(len(l_idx), np.int64)
            counts = np.zeros(len(l_idx), np.int64)
        if how == "inner":
            emit_counts = counts
        else:
            # unmatched left rows emit once with null right columns
            emit_counts = np.maximum(counts, 1)
        total = int(emit_counts.sum())
        if total == 0 and how != "full_outer":
            return pa.table(empty)
        l_take = pa.array(np.repeat(l_idx, emit_counts), pa.int64())
        offs = np.concatenate([[0], np.cumsum(emit_counts)])
        r_pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offs[:-1], emit_counts)
            + np.repeat(lo, emit_counts)
        )
        matched = np.repeat(counts > 0, emit_counts)
        # unmatched rows point r_pos at slot lo (may be out of range) —
        # clamp for the take, then null the right columns via the mask
        r_pos = np.clip(r_pos, 0, max(len(r_sorted) - 1, 0))
        r_take = pa.array(
            np.where(matched, r_sorted[r_pos] if len(r_sorted) else 0, 0),
            pa.int64(),
        )
        out = {lk: group.column(kc).take(l_take) for lk, kc in zip(l_keys, kcols)}
        for c in left_value_columns:
            out[c] = group.column(c).take(l_take)
        mmask = pa.array(matched)
        for c in right_value_columns:
            taken = group.column(c).take(r_take)
            out[c] = (
                taken
                if how == "inner"
                else pc.if_else(mmask, taken, pa.nulls(total, r_types[c]))
            )
        left_tbl = pa.table(out)
        if how != "full_outer":
            return left_tbl
        # right-only rows: valid-key rows matching no valid left key, plus
        # all null-key right rows; their left value columns are already
        # typed nulls from tag_right, and the key column carries the RIGHT
        # key (USING-style coalesce — oracle: COALESCE(l.key, r.key))
        if len(rk) and len(lk_valid):
            lk_sorted = np.sort(lk_valid, kind="stable")
            pos = np.searchsorted(lk_sorted, rk, side="left")
            pos_clip = np.minimum(pos, len(lk_sorted) - 1)
            hit = (pos < len(lk_sorted)) & (lk_sorted[pos_clip] == rk)
            unmatched_valid = r_sorted[~hit]
        elif len(rk):
            unmatched_valid = r_sorted
        else:
            unmatched_valid = np.zeros(0, np.int64)
        r_null = r_idx[~key_valid[r_idx]]
        ru = np.concatenate([unmatched_valid, r_null]).astype(np.int64)
        if not len(ru):
            return left_tbl
        rtake = pa.array(ru, pa.int64())
        right_only = {
            lk: group.column(kc).take(rtake) for lk, kc in zip(l_keys, kcols)
        }
        for c in [*left_value_columns, *right_value_columns]:
            right_only[c] = group.column(c).take(rtake)
        return pa.concat_tables([left_tbl, pa.table(right_only)])

    # count the sub-buckets: a replicated right row must never meet itself
    # in one merged group, so a salted join never takes the one-bucket path
    return map_buckets(tagged, merge_bucket, int(splits.sum()))


def semi_anti_join(
    left,
    right,
    left_on: str,
    right_on: str,
    left_value_columns: list[str],
    how: str = "semi",
    n_buckets: int | None = None,
    adaptive_skew: bool | None = None,
    skew_split_cap_rows: int = 50_000,
    _skew_report: dict | None = None,
):
    """Distributed SEMI / ANTI equi-join (SQL ``EXISTS`` / ``NOT
    EXISTS``), both sides large: the right side ships only its
    per-batch-DISTINCT keys (combiner — duplicate keys on the probe side
    never shuffle), union with the tagged left rows, ONE bucket
    exchange on the key, then a per-bucket
    vectorized membership test (sort right keys once, two-sided
    ``searchsorted`` equality probe for every left row).

    Semantics match SQL ``EXISTS``/``NOT EXISTS`` (not ``NOT IN``): a
    null left key matches nothing — it drops from a semi join and is
    KEPT by an anti join. ``left_on`` / ``right_on`` may be LISTS for a
    composite key (AND-of-equalities; a null in ANY component means no
    match, like ``hash_join``). Output columns: ``[*left_on,
    *left_value_columns]``.

    **Adaptive hot-bucket splitting** (``adaptive_skew``): the membership
    verdict is independent per left row, so a hot bucket splits even more
    cheaply than in ``hash_join`` — left rows round-robin across
    sub-buckets and only the bucket's DISTINCT right keys replicate into
    each. Same pre-pass (vectorized bincount partials over the pruned
    left key column, at ≥``SKEW_DETECT_BUCKETS`` buckets), same split
    policy (``ceil(count / cap)`` ≤64 sub-buckets, cap =
    ``max(skew_split_cap_rows, 4×median)``), logged
    (no-silent-caps). ``None`` auto-enables at ≥1M estimated left rows.
    """
    if how not in ("semi", "anti"):
        raise ValueError(f"semi_anti_join how must be semi|anti, got {how!r}")
    if n_buckets is None:
        n_buckets = default_n_buckets(left, right)
    l_keys = [left_on] if isinstance(left_on, str) else list(left_on)
    r_keys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(l_keys) != len(r_keys) or not l_keys:
        raise ValueError("left_on and right_on must have the same non-zero arity")
    m = len(l_keys)
    key_types = [_target_type(left, k) for k in l_keys]
    kcols = [f"__key{i}" for i in range(m)]

    # --- per-bucket split factors (adaptive skew, same policy as
    # hash_join): one cheap pre-pass counts left rows per bucket; hot
    # buckets widen into sub-buckets. Left rows round-robin, the right
    # side's distinct keys replicate into every sub-bucket.
    n_buckets, splits = _split_factors(
        left, l_keys, n_buckets, 1, adaptive_skew, skew_split_cap_rows, "semi_anti_join"
    )
    if _skew_report is not None:
        _skew_report["splits"] = splits.copy()
        _skew_report["n_hot"] = int((splits > 1).sum())

    def tag_left(t: pa.Table) -> pa.Table:
        if how == "semi":  # a null key component can never match — drop early
            t = t.filter(_all_valid(t, l_keys))
        out = {BUCKET: pa.array(_spread(bucket_ids(t, l_keys, n_buckets), splits))}
        for kc, k, kt in zip(kcols, l_keys, key_types):
            out[kc] = pc.cast(t.column(k), kt)
        out["__side"] = pa.array(np.zeros(t.num_rows, np.int8))
        tbl = pa.table(out)
        for c in left_value_columns:
            tbl = tbl.append_column(c, t.column(c))
        return tbl

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.filter(_all_valid(t, r_keys))
        g = pa.TableGroupBy(t.select(r_keys), r_keys).aggregate([])
        # distinct keys only replicate — cheap even when hot
        rep, bucket = _replicate(bucket_ids(g, r_keys, n_buckets), splits)
        if rep is not None:
            g = g.take(pa.array(rep))
        out = {BUCKET: pa.array(bucket)}
        for kc, k, kt in zip(kcols, r_keys, key_types):
            out[kc] = pc.cast(g.column(k), kt)
        out["__side"] = pa.array(np.ones(g.num_rows, np.int8))
        tbl = pa.table(out)
        for c in left_value_columns:
            tbl = tbl.append_column(c, pa.nulls(g.num_rows, _target_type(left, c)))
        return tbl

    tagged = left.select_columns(
        list(dict.fromkeys([*l_keys, *left_value_columns]))
    ).map_batches(tag_left, batch_format="pyarrow").union(
        right.select_columns(list(dict.fromkeys(r_keys))).map_batches(
            tag_right, batch_format="pyarrow"
        )
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        key_valid, keys = _match_keys(group, kcols)
        l_idx = np.flatnonzero(side == 0)
        r_idx = np.flatnonzero(side == 1)
        hit = np.zeros(len(l_idx), bool)
        if len(r_idx) and len(l_idx):
            rk = np.sort(keys[r_idx], kind="stable")
            valid_l = key_valid[l_idx]
            lk_valid = keys[l_idx[valid_l]]
            if len(lk_valid):
                pos = np.clip(np.searchsorted(rk, lk_valid), 0, len(rk) - 1)
                hit[valid_l] = rk[pos] == lk_valid
        keep = l_idx[hit] if how == "semi" else l_idx[~hit]
        take = pa.array(keep, pa.int64())
        out = {lk: group.column(kc).take(take) for lk, kc in zip(l_keys, kcols)}
        for c in left_value_columns:
            out[c] = group.column(c).take(take)
        return pa.table(out)

    return map_buckets(tagged, merge_bucket, int(splits.sum()))


_ALT_HASH = "fedcba9876543210"  # second hash family for the Bloom prefilter

#: Fewest buckets the adaptive-skew pre-pass counts at. A bucket is hot
#: against the median bucket, which one or two buckets cannot show (a lone
#: bucket IS the median), yet a data-sized exchange is often that small: a
#: hot key is found at this resolution, and the join then runs on it.
SKEW_DETECT_BUCKETS = 16


def _all_valid(t: pa.Table, names: list[str]):
    v = pc.is_valid(t.column(names[0]))
    for k in names[1:]:
        v = pc.and_(v, pc.is_valid(t.column(k)))
    return v


def _match_keys(group: pa.Table, kcols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(key_valid, keys)`` for a bucket of tagged join rows: a row is
    valid when every key component is non-null; ``keys`` is the single
    column's stable array, or for a composite key within-group int64
    codes (codes only need consistency within this group). Invalid rows
    code to −1 and callers exclude them from every match structure."""
    kv = pc.is_valid(group.column(kcols[0]).combine_chunks())
    for kc in kcols[1:]:
        kv = pc.and_(kv, pc.is_valid(group.column(kc).combine_chunks()))
    key_valid = np.asarray(kv)
    if len(kcols) == 1:
        return key_valid, stable_key_array(group.column(kcols[0]))
    keys = np.full(group.num_rows, -1, np.int64)
    vidx = np.flatnonzero(key_valid)
    s = segments(tuple(stable_key_array(group.column(kc))[vidx] for kc in kcols))
    keys[vidx[s.order]] = s.ids
    return key_valid, keys


def _split_factors(
    left, l_keys: list[str], n_buckets: int, base: int, adaptive_skew, cap_rows: int, op: str
) -> tuple[int, np.ndarray]:
    """``(n_buckets, per-bucket split factor)``: ``base`` everywhere,
    widened where the left side is hot. With ``adaptive_skew`` (``None`` =
    auto at ≥1M estimated left rows) one cheap pre-pass over the pruned
    left key columns counts rows per bucket (vectorized bincount partials,
    the driver holds one int array) at no fewer than
    :data:`SKEW_DETECT_BUCKETS` buckets; a bucket whose count exceeds
    ``max(cap_rows, 4×median)`` splits into ``ceil(count / cap)``
    sub-buckets (≤64), and the exchange then takes the counted layout. With
    no hot bucket ``n_buckets`` stays as given. Splits are logged
    (no-silent-caps)."""
    if adaptive_skew is None:
        est_rows = estimate_dataset_rows(left)
        adaptive_skew = est_rows is not None and est_rows >= 1_000_000
    if not adaptive_skew:
        return n_buckets, np.full(n_buckets, base, dtype=np.int64)
    n_count = max(n_buckets, SKEW_DETECT_BUCKETS)

    def count_partial(t: pa.Table) -> pa.Table:
        c = np.bincount(bucket_ids(t, l_keys, n_count), minlength=n_count)
        nz = np.flatnonzero(c)
        return pa.table(
            {
                "b": pa.array(nz.astype(np.int64)),
                "c": pa.array(c[nz].astype(np.int64)),
            }
        )

    parts = (
        left.select_columns(list(dict.fromkeys(l_keys)))
        .map_batches(count_partial, batch_format="pyarrow")
        .to_pandas()
    )
    counts = np.zeros(n_count, np.int64)
    if len(parts):
        np.add.at(
            counts,
            parts["b"].to_numpy(dtype=np.int64),
            parts["c"].to_numpy(dtype=np.int64),
        )
    nz = counts[counts > 0]
    if len(nz):
        med = max(1, int(np.median(nz)))
        cap = max(int(cap_rows), 4 * med)
        need = np.minimum(-(-counts // cap), 64)
        if (need > 1).any():
            import logging

            hot = np.flatnonzero(need > 1)
            logging.getLogger(__name__).warning(
                "%s adaptive skew: splitting %d hot bucket(s) of %d "
                "(max %d rows, median %d, cap %d) into up to %d "
                "sub-buckets",
                op, len(hot), n_count, int(counts.max()), med, cap, int(need.max()),
            )
            return n_count, np.maximum(base, need)
    return n_buckets, np.full(n_buckets, base, dtype=np.int64)


def _offsets(splits: np.ndarray) -> np.ndarray:
    # a bucket with split factor s occupies s contiguous final-bucket slots
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(splits)])[:-1]


def _spread(base: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Final bucket per probe-side row: rows of a split bucket round-robin
    across its sub-buckets."""
    if not (splits > 1).any():
        return base
    sp = splits[base]
    sub = np.arange(len(base), dtype=np.int64) % np.maximum(sp, 1)
    return (_offsets(splits)[base] + sub).astype(np.int32)


def _replicate(base: np.ndarray, splits: np.ndarray):
    """Build-side rows replicate into every sub-bucket of their base
    bucket: ``(row index per output row or None, final bucket)``."""
    if not (splits > 1).any():
        return None, base
    sp = splits[base]
    rep = np.repeat(np.arange(len(base), dtype=np.int64), sp)
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(sp)])
    sub = np.arange(len(rep), dtype=np.int64) - np.repeat(offs[:-1], sp)
    return rep, (_offsets(splits)[base[rep]] + sub).astype(np.int32)


def _target_type(ds, column: str) -> pa.DataType:
    schema = ds.schema()
    return schema.base_schema.field(column).type if hasattr(schema, "base_schema") else schema.field(column).type


def _empty_out(group: pa.Table, l_vals, r_vals) -> pa.Table:
    cols = {"__key": group.column("__key").slice(0, 0), "__ts": group.column("__ts").slice(0, 0)}
    for c in l_vals:
        cols[f"l_{c}"] = group.column(f"l_{c}").slice(0, 0)
    for c in r_vals:
        cols[f"r_{c}"] = group.column(f"r_{c}").slice(0, 0)
    return pa.table(cols)


def broadcast_cross_join(ds, small_ds, small_columns: list[str]):
    """``CROSS JOIN`` against a broadcast small side: every left row ×
    every small-side row, no shuffle — the small table ships once via
    ``ray.put`` and each batch expands with one ``np.repeat``/``take``
    pair. Output = left columns + ``small_columns``. The small side must
    be driver-sized (parameter grids, dimension tables); a big×big cross
    product has no scale-correct form and is intentionally unsupported.
    """
    import ray

    batches = list(
        small_ds.select_columns(small_columns).iter_batches(batch_format="pyarrow")
    )
    small = (
        pa.concat_tables(batches).combine_chunks()
        if batches
        else None
    )
    if small is None:
        schema = small_ds.schema()
        schema = schema.base_schema if hasattr(schema, "base_schema") else schema
        small = pa.schema(
            [(n, schema.field(n).type) for n in small_columns]
        ).empty_table()
    ref = ray.put(small)

    class CrossStage:
        def __init__(self) -> None:
            self._small = None

        def _resolve(self) -> pa.Table:
            if self._small is None:
                self._small = ray.get(ref) if hasattr(ref, "hex") else ref
            return self._small

        def __call__(self, batch: pa.Table) -> pa.Table:
            s = self._resolve()
            clash = set(small_columns) & set(batch.column_names)
            if clash:
                raise ValueError(
                    f"broadcast_cross_join: column name collision {sorted(clash)}"
                    " — rename one side before the join (SQL would require"
                    " disambiguation too)"
                )
            n, m = batch.num_rows, s.num_rows
            left_take = pa.array(np.repeat(np.arange(n, dtype=np.int64), m))
            right_take = pa.array(np.tile(np.arange(m, dtype=np.int64), n))
            out = {c: batch.column(c).take(left_take) for c in batch.column_names}
            for c in small_columns:
                out[c] = s.column(c).take(right_take)
            return pa.table(out)

    return ds.map_batches(CrossStage(), batch_format="pyarrow")


# --- duplicate-aware broadcast join + cost-based strategy pick ---------------


class BroadcastJoinMultiStage:
    """map_batches callable: duplicate-aware broadcast equi-join.

    Unlike :class:`BroadcastJoinStage` (lookup semantics: last build row
    per key wins), this stage emits the FULL per-key cross product like
    SQL — a probe row matching ``k`` build rows emits ``k`` output rows —
    so its results are identical to :func:`hash_join` and it can stand in
    for the shuffle plan whenever the build side fits in worker memory.
    ``how="left"`` emits unmatched probe rows once with null build
    columns. Null probe keys never match (SQL equality), and null build
    keys are dropped at build time.
    """

    def __init__(
        self,
        lookup_ref,
        left_on: str,
        left_value_columns: list[str],
        right_value_columns: list[str],
        how: str = "inner",
    ) -> None:
        if how not in ("inner", "left"):
            raise ValueError(f"broadcast multi-join supports inner|left, got {how!r}")
        self.lookup_ref = lookup_ref
        self.left_on = left_on
        self.left_value_columns = left_value_columns
        self.right_value_columns = right_value_columns
        self.how = how
        self._side = None

    def _resolve(self):
        if self._side is None:
            import ray

            obj = self.lookup_ref
            self._side = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._side

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys_sorted, values, types = self._resolve()
        out_cols = [self.left_on, *self.left_value_columns]
        probe_tbl = batch.select(out_cols)
        n = probe_tbl.num_rows
        col = batch.column(self.left_on).combine_chunks()
        valid = np.asarray(pc.is_valid(col))
        if len(keys_sorted) and n:
            # fill nulls with an existing build key so the numpy dtype is
            # comparable; those rows are masked to zero matches below
            fill = keys_sorted[0]
            probe = np.asarray(pc.fill_null(col, fill))
            lo = np.searchsorted(keys_sorted, probe, side="left")
            hi = np.searchsorted(keys_sorted, probe, side="right")
            cnt = (hi - lo).astype(np.int64)
            cnt[~valid] = 0
            lo[~valid] = 0
        else:
            cnt = np.zeros(n, dtype=np.int64)
            lo = np.zeros(n, dtype=np.int64)
        rep = cnt if self.how == "inner" else np.maximum(cnt, 1)
        total = int(rep.sum())
        row_idx = np.repeat(np.arange(n, dtype=np.int64), rep)
        out = probe_tbl.take(pa.array(row_idx, type=pa.int64()))
        # position within each probe row's match range, vectorized
        base = np.repeat(np.cumsum(rep) - rep, rep)
        seq = np.arange(total, dtype=np.int64) - base
        pos = np.repeat(lo, rep) + seq
        matched = seq < np.repeat(cnt, rep)  # False only for left-nulls
        safe_pos = np.clip(pos, 0, max(0, len(keys_sorted) - 1))
        for c in self.right_value_columns:
            if len(keys_sorted):
                v = values[c][safe_pos]
                if not matched.all():
                    v = np.where(matched, v, None)
            else:
                v = np.full(total, None, dtype=object)
            out = out.append_column(c, pa.array(v, type=types[c]))
        return out


def broadcast_join_multi(
    left,
    right,
    left_on: str,
    right_on: str,
    left_value_columns: list[str],
    right_value_columns: list[str],
    how: str = "inner",
):
    """Duplicate-aware broadcast equi-join: collect + sort the (pruned)
    right side once, ``ray.put`` it, probe inside ``map_batches`` — no
    shuffle. Output schema matches :func:`hash_join`:
    ``[left_on, *left_value_columns, *right_value_columns]``."""
    import ray

    proj = right.select_columns([right_on, *right_value_columns])
    batches = list(proj.iter_batches(batch_format="pyarrow"))
    if batches:
        tbl = pa.concat_tables(batches).combine_chunks()
    else:
        schema = proj.schema()
        schema = schema.base_schema if hasattr(schema, "base_schema") else schema
        tbl = pa.schema(
            [(c, schema.field(c).type) for c in [right_on, *right_value_columns]]
        ).empty_table()
    tbl = tbl.filter(pc.is_valid(tbl.column(right_on)))  # null keys never match
    keys = np.asarray(tbl.column(right_on).combine_chunks())
    order = np.argsort(keys, kind="stable")
    side = (
        keys[order],
        {
            c: np.asarray(tbl.column(c), dtype=object)[order]
            for c in right_value_columns
        },
        {c: tbl.schema.field(c).type for c in right_value_columns},
    )
    ref = ray.put(side)
    return left.map_batches(
        BroadcastJoinMultiStage(
            ref, left_on, list(left_value_columns), list(right_value_columns), how=how
        ),
        batch_format="pyarrow",
    )


# Build sides at or under this estimate broadcast by default: the side is
# collected ONCE on the driver and ray.put once (workers read it zero-copy
# from the local object store), so the bound is per-NODE memory, not
# per-task — 64 MiB of pruned join columns is a few million dimension rows.
DEFAULT_BROADCAST_MAX_BYTES = 64 * 2**20


def join_auto(
    left,
    right,
    left_on,
    right_on,
    left_value_columns: list[str],
    right_value_columns: list[str],
    how: str = "inner",
    broadcast_max_bytes: int = DEFAULT_BROADCAST_MAX_BYTES,
    _decision: dict | None = None,
    **hash_join_kwargs,
):
    """Cost-based equi-join strategy pick (the reference has no planner;
    a distributed engine must choose its exchange): BROADCAST the pruned
    right side when its metadata-only byte estimate
    (:func:`fs_schema_validator_ray.stages.exchange.estimate_dataset_bytes`,
    a lineage walk to the column-pruned read — never executes) fits under
    ``broadcast_max_bytes``; otherwise run the bucketed-shuffle
    :func:`hash_join`. Unknown size, composite keys, ``right``/
    ``full_outer``, and explicit salt/prefilter/skew options all fall to
    the shuffle plan (conservative: a wrong "broadcast" OOMs a node, a
    wrong "shuffle" only costs an exchange). The decision is logged
    (no-silent-caps) and surfaced via ``_decision`` for tests. Results
    are identical either way — parity is pytest-gated on duplicate keys,
    null keys, and unmatched left rows."""
    import logging

    log = logging.getLogger("fs_schema_validator_ray.joins")
    est = None
    eligible = (
        how in ("inner", "left")
        and isinstance(left_on, str)
        and isinstance(right_on, str)
        and not hash_join_kwargs.get("salt", 1) > 1
        and not hash_join_kwargs.get("prefilter")
    )
    if eligible:
        est = estimate_dataset_bytes(
            right.select_columns([right_on, *right_value_columns])
        )
    use_broadcast = eligible and est is not None and est <= broadcast_max_bytes
    if _decision is not None:
        _decision["strategy"] = "broadcast" if use_broadcast else "shuffle"
        _decision["right_bytes_estimate"] = est
    log.info(
        "join_auto: %s (right-side estimate %s bytes, threshold %d)",
        "broadcast" if use_broadcast else "shuffle",
        est,
        broadcast_max_bytes,
    )
    if use_broadcast:
        return broadcast_join_multi(
            left, right, left_on, right_on,
            list(left_value_columns), list(right_value_columns), how=how,
        )
    return hash_join(
        left, right, left_on, right_on,
        list(left_value_columns), list(right_value_columns),
        how=how, **hash_join_kwargs,
    )
