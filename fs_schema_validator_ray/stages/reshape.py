"""Unpivot (melt) — wide → long reshape, the inverse of
``stages/agg.py::pivot_wide``.

Purely stateless: each block maps to ``len(value_columns)`` stacked
slices, no shuffle, no driver state — embarrassingly parallel at any
scale. The variable-name column is built as a dictionary array (one
distinct string, O(1) heap per block) then cast, never a Python list of
n repeated strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def unpivot(
    ds,
    id_columns: list[str],
    value_columns: list[str],
    var_name: str = "variable",
    value_name: str = "value",
    value_type: pa.DataType | None = None,
):
    """SQL ``UNPIVOT`` / pandas ``melt``: one output row per (input row ×
    value column), with the source column name in ``var_name`` and its
    value cast to a common ``value_type`` (default float64) in
    ``value_name``. Output column order: ``id_columns + [var_name,
    value_name]``."""
    if value_type is None:
        value_type = pa.float64()
    if not value_columns:
        raise ValueError("unpivot needs at least one value column")
    if var_name == value_name:
        raise ValueError(f"var_name and value_name collide: {var_name!r}")
    overlap = (set(id_columns) | set(value_columns)) & {var_name, value_name}
    if set(id_columns) & set(value_columns):
        raise ValueError("id_columns and value_columns overlap")
    if overlap:
        raise ValueError(f"column names collide with outputs: {sorted(overlap)}")

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        parts = []
        for c in value_columns:
            var = pc.cast(
                pa.DictionaryArray.from_arrays(
                    pa.array(np.zeros(n, np.int32)), pa.array([c], pa.string())
                ),
                pa.string(),
            )
            parts.append(
                pa.table(
                    {
                        **{ic: t.column(ic) for ic in id_columns},
                        var_name: var,
                        value_name: pc.cast(t.column(c), value_type),
                    }
                )
            )
        return pa.concat_tables(parts)

    return ds.select_columns([*id_columns, *value_columns]).map_batches(
        fn, batch_format="pyarrow"
    )


def standardize_columns(ds, columns: list[str], id_columns: list[str]):
    """Z-score standardization (feature scaling): fit per-column mean /
    sample-std from ONE streaming moment pass (per-block ``(n, Σx, Σx²)``
    partials — three floats per column per block), then ONE transform
    pass emits ``z_<col> = (x − mean)/std`` per row. The fit/transform
    split mirrors ``similarity.pca_fit``/``pca_project``; the model is a
    dict of 2·len(columns) floats, broadcast by closure.

    Null inputs yield null z-scores and are excluded from the moments
    (SQL AVG/STDDEV_SAMP semantics); a constant column (std 0) yields
    null z-scores (SQL division by NULL-adjacent convention: we emit
    null rather than ±inf). Float caveat: the distributed Σx order
    differs from a serial oracle's — compare through a ROUND(·,6)
    protocol like ``group_moments``."""
    cols = list(dict.fromkeys([*id_columns, *columns]))

    def moments(t: pa.Table) -> pa.Table:
        # CENTERED per-block partials (n, mean, M2), not raw (Σx, Σx²):
        # the naive ss − n·mean² cancels catastrophically when
        # |mean| ≫ std (e.g. values ~1e8 ± 1), silently zeroing the std
        # while a numerically-stable SQL STDDEV_SAMP oracle does not
        out = {}
        for c in columns:
            col = t.column(c)
            arr = np.asarray(
                pc.fill_null(pc.cast(col, pa.float64()), 0.0), dtype=np.float64
            )
            valid = np.asarray(pc.is_valid(col))
            v = arr[valid]
            n = len(v)
            mean = float(v.mean()) if n else 0.0
            m2 = float(np.square(v - mean).sum()) if n else 0.0
            out[f"n_{c}"] = pa.array([n], pa.int64())
            out[f"mean_{c}"] = pa.array([mean], pa.float64())
            out[f"m2_{c}"] = pa.array([m2], pa.float64())
        return pa.table(out)

    parts = (
        ds.select_columns(columns)
        .map_batches(moments, batch_format="pyarrow")
        .to_pandas()
    )
    model = {}
    for c in columns:
        # Chan et al. pairwise merge of (n, mean, M2) partials
        n_tot, mean_tot, m2_tot = 0, 0.0, 0.0
        for nb, mb, m2b in zip(
            parts[f"n_{c}"], parts[f"mean_{c}"], parts[f"m2_{c}"]
        ):
            nb = int(nb)
            if nb == 0:
                continue
            if n_tot == 0:
                n_tot, mean_tot, m2_tot = nb, float(mb), float(m2b)
                continue
            delta = float(mb) - mean_tot
            tot = n_tot + nb
            m2_tot += float(m2b) + delta * delta * (n_tot * nb / tot)
            mean_tot += delta * nb / tot
            n_tot = tot
        if n_tot < 2:
            raise ValueError(f"standardize_columns: column {c!r} has <2 values")
        model[c] = (mean_tot, float(np.sqrt(m2_tot / (n_tot - 1))))

    def transform(t: pa.Table) -> pa.Table:
        out = {c: t.column(c) for c in id_columns}
        for c in columns:
            mean, std = model[c]
            col = t.column(c)
            valid = np.asarray(pc.is_valid(col))
            arr = np.asarray(
                pc.fill_null(pc.cast(col, pa.float64()), 0.0), dtype=np.float64
            )
            if std > 0.0:
                z = (arr - mean) / std
                mask = ~valid
            else:
                z = np.zeros(len(arr))
                mask = np.ones(len(arr), dtype=bool)
            out[f"z_{c}"] = pa.array(z, pa.float64(), mask=mask)
        return pa.table(out)

    return ds.select_columns(cols).map_batches(transform, batch_format="pyarrow")


def pack_next_fit(
    ds,
    id_column: str,
    cost_column: str,
    capacity: int,
    shard_size: int = 512,
    n_buckets: int | None = None,
):
    """Budgeted sequence packing (the pre-training batch-shaping step:
    fill each training example up to ``capacity`` tokens/chars from
    consecutive documents): NEXT-FIT over ``id_column`` order within
    deterministic shards of ``shard_size`` ids → ``(id, shard, bin,
    fill)`` where ``bin`` increments whenever adding the next item would
    overflow ``capacity`` and ``fill`` is the bin's running cost after
    the item. Oversize items (cost > capacity) occupy a bin alone.

    Packing is inherently sequential, so the 100-TB layout packs each
    shard independently (``shard = id // shard_size``, a deterministic
    key — NOT Ray block boundaries, which are execution-dependent): one
    pruned two-column shuffle co-locates a shard, the greedy scan runs
    per shard (bounded ≤ ``shard_size`` rows — irreducible, same verdict
    as ``group_string_agg``'s per-key tail), shards pack in parallel,
    and ``(shard, bin)`` is a globally deterministic training-example
    key. Exactly the recursive-CTE derivation the oracle runs."""
    from fs_schema_validator_ray.stages.exchange import bucketed, default_n_buckets, segments

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    cap = int(capacity)

    ds = ds.select_columns([id_column, cost_column])

    def tag(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_column), np.int64)
        shard = ids // shard_size
        return pa.table(
            {
                id_column: t.column(id_column),
                cost_column: t.column(cost_column),
                "__shard": pa.array(shard, pa.int64()),
            }
        )

    def pack(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_column), np.int64)
        cost = np.asarray(t.column(cost_column), np.int64)
        shard = np.asarray(t.column("__shard"), np.int64)
        order, _, _, row_start, _ = segments(shard, ids)
        ids, cost, shard = ids[order], cost[order], shard[order]
        new_shard = row_start == np.arange(len(ids))
        bins = np.empty(len(ids), np.int64)
        fills = np.empty(len(ids), np.int64)
        b = fill = 0
        for i in range(len(ids)):
            c = int(cost[i])
            if new_shard[i]:
                b, fill = 0, c
            elif fill + c > cap:
                b, fill = b + 1, c
            else:
                fill += c
            bins[i] = b
            fills[i] = fill
        return pa.table(
            {
                id_column: pa.array(ids, pa.int64()),
                "shard": pa.array(shard, pa.int64()),
                "bin": pa.array(bins, pa.int64()),
                "fill": pa.array(fills, pa.int64()),
            }
        )

    return bucketed(ds, ["__shard"], n_buckets, pack, tag)


def gapfill(
    ds,
    key_column: str,
    bucket_column: str,
    value_columns: list[str],
    lo: int | None = None,
    hi: int | None = None,
    fill: int = 0,
    n_buckets: int | None = None,
):
    """Densify a sparse per-key time series: one output row for EVERY
    integer bucket in ``[lo, hi]`` per key, filling absent buckets'
    values with ``fill`` (SQL ``calendar CROSS JOIN keys LEFT JOIN
    counts COALESCE`` — the gap-filling step before any
    rolling/forecast pass can trust its frame widths).

    Input is an already-aggregated Dataset ``(key, bucket, *values)``
    (one row per present (key, bucket)); output is its dense version,
    ``n_keys × span`` rows. ``lo``/``hi`` default to the global
    bucket min/max — two scalars from one metadata-light aggregate,
    broadcast in the closure, never a per-key pass. The fill itself is
    ONE coarse shuffle keyed by the key hash, then per bucket a
    lexsort + one flat scatter into the ``n_keys × span`` grid — no
    per-key Python.

    Partitioning assumption: ``span = hi - lo + 1`` dense rows per key
    must be a sane output size (a 10-year daily span is ~3.7k rows/key);
    the bucketed exchange carries only the PRESENT rows.
    """
    from fs_schema_validator_ray.stages.exchange import bucketed, default_n_buckets, segments
    from fs_schema_validator_ray.state.sketches import key_codes

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    if lo is None or hi is None:
        from ray.data.aggregate import Max, Min

        bounds = ds.aggregate(Min(bucket_column), Max(bucket_column))
        lo = int(bounds[f"min({bucket_column})"]) if lo is None else lo
        hi = int(bounds[f"max({bucket_column})"]) if hi is None else hi
    if hi < lo:
        raise ValueError(f"empty bucket range [{lo}, {hi}]")
    span = hi - lo + 1
    cols = [key_column, bucket_column, *value_columns]

    def prune(t: pa.Table) -> pa.Table:
        return t.select(cols)

    def dense(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        bk = np.asarray(
            pc.cast(group.column(bucket_column), pa.int64()), dtype=np.int64
        )
        order, seg_start, seg_id, _, _ = segments(key_codes(key_col), bk)
        bk_s = bk[order]
        if (bk_s < lo).any() or (bk_s > hi).any():
            raise ValueError("bucket value outside [lo, hi]")
        n_seg = len(seg_start)
        flat = seg_id * span + (bk_s - lo)  # scatter index into the dense grid
        key_rows = pa.array(order[seg_start], pa.int64())
        out = {
            key_column: key_col.take(key_rows).take(
                pa.array(np.repeat(np.arange(n_seg), span), pa.int64())
            ),
            bucket_column: pa.array(
                np.tile(np.arange(lo, hi + 1, dtype=np.int64), n_seg), pa.int64()
            ),
        }
        for c in value_columns:
            vals = np.asarray(
                pc.cast(group.column(c).combine_chunks(), pa.int64()),
                dtype=np.int64,
            )[order]
            grid = np.full(n_seg * span, fill, np.int64)
            grid[flat] = vals
            out[c] = pa.array(grid, pa.int64())
        return pa.table(out)

    return bucketed(ds, [key_column], n_buckets, dense, prune)
