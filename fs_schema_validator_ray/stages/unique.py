"""Key-uniqueness check (north_rule: HLL uniqueness / exact duplicates).

Exact path: the one genuinely global, shuffle-requiring rule. Kept cheap
by (a) projecting to the key column before anything moves, (b)
pre-aggregating counts per batch inside ``map_batches`` (classic
partial/combiner), so the ``groupby`` shuffles at most one row per
distinct key per block instead of one per input row, and (c) shuffling
only ``(key, n, partition_id)`` — never payload bytes.

Approximate path: per-batch HyperLogLog partials merged on the driver —
no shuffle at all; reports an estimated duplicate count (global metric),
used at 10^12-key scale where even the key shuffle is a budget item.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fs_schema_validator_ray.report import (
    PARTITION_COLUMN,
    partition_ids,
    violations_table,
)
from fs_schema_validator_ray.rules import UniqueRule
from fs_schema_validator_ray.stages.exchange import (
    bucketed,
    default_n_buckets,
    map_buckets,
    route,
    segments,
)
from fs_schema_validator_ray.state import HyperLogLog
from fs_schema_validator_ray.state.sketches import (
    canonical_tuple_strings,
    hash64,
    stable_key_array,
)


def _partial_counts(batch: pa.Table, column: str) -> pa.Table:
    """Per-batch combiner: one output row per distinct key in the batch
    (pure Arrow ``group_by`` — no pandas round-trip in the hot path).

    The global merge routes these rows on ``key`` to small-int buckets
    and merges each bucket VECTORIZED (``map_groups`` with an Arrow
    group_by inside) — Ray's built-in ``aggregate()`` combines grouped
    rows in per-row Python, which at ~1 row/key (nearly-unique key
    columns, the worst-case combiner shape) costs minutes of CPU per
    million rows."""
    import pyarrow.compute as pc

    tbl = pa.table({"key": batch.column(column), "part": partition_ids(batch)})
    # count on the (never-null) partition column so null keys count too
    g = pa.TableGroupBy(tbl, "key").aggregate([("part", "count"), ("part", "min")])
    # keys keep their NATIVE type through the shuffle — casting ints to
    # strings here would make the shuffle payload (and its sort
    # comparisons) the widest possible; violations stringify at emission.
    return pa.table(
        {
            "key": g.column("key"),
            "n": pc.cast(g.column("part_count"), pa.int64()),
            "part": g.column("part_min"),
        }
    )


def uniqueness_violations(
    ds, rule: UniqueRule, key_column: str | None = None, n_buckets: int | None = None
):
    """Exact duplicate detection → violations Dataset.

    ``read → project(key) → map_batches(partial counts + bucket) →
    groupby(bucket) → map_groups(vectorized Arrow merge) → violation
    rows``. The shuffle key is a small int bucket of the key;
    the per-bucket merge is one Arrow ``group_by`` call — no per-row
    Python anywhere.
    """
    composite = rule.columns
    column = key_column or rule.column
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    part_cols = [PARTITION_COLUMN] if PARTITION_COLUMN in ds.schema().names else []
    if composite:
        # composite-key mode: canonicalize the tuple to one string key
        # (the injective tuple encoding shared with referential rules) and
        # reuse the single-key machinery
        keys = ds.select_columns([*composite, *part_cols])

        def canonize(t: pa.Table) -> pa.Table:
            out = {"__ckey": pa.array(canonical_tuple_strings(t, composite), pa.string())}
            for c in part_cols:
                out[c] = t.column(c)
            return pa.table(out)

        keys = keys.map_batches(canonize, batch_format="pyarrow")
        column = "__ckey"
    else:
        keys = ds.select_columns([column, *part_cols])
    partials = route(keys, ["key"], n_buckets, lambda t: _partial_counts(t, column))
    # decouple SCAN parallelism from SHUFFLE fan-out: the sort-shuffle
    # moves blocks_in × blocks_out objects, and the partials are a small
    # fraction of the input (one narrow row per distinct key per block) —
    # coalesce them (metadata-level, no shuffle) so the groupby exchanges
    # a few consolidated blocks instead of scan-width² tiny ones
    partials = partials.repartition(max(4, n_buckets // 8))

    def merge_bucket(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group.select(["key", "n", "part"]), "key").aggregate(
            [("n", "sum"), ("part", "min")]
        )
        counts = np.asarray(g.column("n_sum"))
        dup = np.flatnonzero(counts > 1)
        # to_pylist, not np.asarray: a null elsewhere in the bucket would
        # promote the whole int column to float64 and render "5.0"
        keys_np = np.empty(g.num_rows, dtype=object)
        keys_np[:] = g.column("key").to_pylist()
        return violations_table(
            [str(k) for k in keys_np[dup]],
            rule.rule_id,
            [f"duplicate key (appears {int(c)} times)" for c in counts[dup]],
            np.asarray(g.column("part_min"))[dup],
        )

    return map_buckets(partials, merge_bucket)


def estimate_duplicates(ds, column: str) -> dict:
    """Shuffle-free duplicate estimate: HLL distinct vs exact row count."""
    def partial(batch: pa.Table) -> pa.Table:
        hll = HyperLogLog()
        # stable representation: int-with-null batches would otherwise
        # hash 5 as 5.0, inflating the distinct estimate
        hll.add(stable_key_array(batch.column(column).combine_chunks()))
        return pa.table(
            {"blob": pa.array([hll.to_bytes()], pa.binary()),
             "rows": pa.array([batch.num_rows], pa.int64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    merged = HyperLogLog()
    for blob in parts["blob"]:
        merged = merged.merge(HyperLogLog.from_bytes(blob))
    rows = int(parts["rows"].sum())
    distinct = merged.estimate()
    return {
        "rows": rows,
        "distinct_estimate": float(distinct),
        "duplicate_estimate": max(0.0, rows - distinct),
    }


def _null_safe_slots(col) -> tuple:
    """Dictionary-encode a key column into dense slots with a dedicated
    slot for null keys (SQL GROUP BY groups nulls together). Returns
    ``(keys_out, slot_per_row, n_slots)``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    idxs = np.asarray(enc.indices.fill_null(-1), dtype=np.int64)
    n_dict = len(enc.dictionary)
    has_null = bool((idxs == -1).any())
    slot = np.where(idxs == -1, n_dict, idxs)
    n_slots = n_dict + (1 if has_null else 0)
    keys_out = (
        pa.concat_arrays([enc.dictionary, pa.nulls(1, enc.dictionary.type)])
        if has_null
        else enc.dictionary
    )
    return keys_out, slot, n_slots


def _grouped_sketch_pipeline(
    ds, key_column: str, value_column: str, partial, merge_bucket, n_buckets: int = 64
):
    """Shared plan for grouped-sketch aggregates: per-batch blob partials
    → ONE coarse-bucket shuffle of the KB-sized partials → per-bucket
    merge across all of its keys. The bucket indirection (rather than
    ``groupby(key)``) exists because Ray's sort-based groupby cannot
    order null keys against non-null ones, and because it bounds the
    map_groups Python-call count at ``n_buckets``."""
    return bucketed(
        ds.select_columns([key_column, value_column]), [key_column], n_buckets,
        merge_bucket, partial,
    )


def grouped_hll_distinct(ds, key_column: str, value_column: str, p: int = 12):
    """Per-key approximate distinct counts (``COUNT(DISTINCT value) GROUP
    BY key`` at sketch cost): each batch emits one HLL register blob per
    distinct key — vectorized ACROSS keys with a single ``np.maximum.at``
    over a ``key_slot·m + bucket`` flat index, no per-key Python in the
    data pass — then a tiny ``groupby(key)`` max-merges the blobs and
    estimates. Shuffle payload is ``distinct keys per batch × 2^p`` bytes,
    independent of row count; null values are excluded (SQL COUNT
    semantics) and a null KEY groups like SQL GROUP BY. Use for LOW /
    moderate key cardinality (each key costs ``2^p`` bytes per batch —
    4 KiB at p=12); for near-unique keys use the exact combiner path.

    Output: ``(key, n_values, distinct_estimate)``."""
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # Ray can deliver empty blocks
            return pa.table(
                {
                    key_column: batch.column(key_column),
                    "n_values": pa.array([], pa.int64()),
                    "blob": pa.array([], pa.binary()),
                }
            )
        keys_out, slot, n_slots = _null_safe_slots(batch.column(key_column))

        val_col = batch.column(value_column)
        if isinstance(val_col, pa.ChunkedArray):
            val_col = val_col.combine_chunks()
        valid = np.asarray(val_col.is_valid())
        h = hash64(stable_key_array(val_col))[valid]
        vslot = slot[valid]

        regs = np.zeros(n_slots * m, dtype=np.uint8)
        if len(h):
            bucket = (h >> np.uint64(64 - p)).astype(np.int64)
            w = h & np.uint64((1 << (64 - p)) - 1)
            wf = w.astype(np.float64)
            _, exp = np.frexp(wf)
            rho = np.where(w == 0, 64 - p + 1, 64 - p - exp + 1).astype(np.uint8)
            np.maximum.at(regs, vslot * m + bucket, rho)
        n_vals = np.bincount(vslot, minlength=n_slots).astype(np.int64)
        blobs = [regs[i * m : (i + 1) * m].tobytes() for i in range(n_slots)]
        return pa.table(
            {
                key_column: keys_out,
                "n_values": pa.array(n_vals),
                "blob": pa.array(blobs, pa.binary()),
            }
        )

    def merge_bucket(group: pa.Table) -> pa.Table:
        # one group = one coarse bucket holding many keys (a direct
        # groupby(key) breaks on null keys: Ray's sort cannot order
        # None vs str); slot keys like the partial does
        keys_out, slot, n_slots = _null_safe_slots(group.column(key_column))
        n_in = np.asarray(group.column("n_values"), dtype=np.int64)
        blobs_in = group.column("blob").to_pylist()
        ests = np.zeros(n_slots, np.float64)
        n_vals = np.zeros(n_slots, np.int64)
        order, starts, _, _, row_end = segments(slot)
        for st, en in zip(starts, row_end[starts]):
            rows = order[st:en]
            s = int(slot[rows[0]])
            regs = np.stack(
                [np.frombuffer(blobs_in[i], dtype=np.uint8) for i in rows]
            ).max(axis=0)
            hll = HyperLogLog(p)
            hll.registers = regs
            ests[s] = float(hll.estimate())
            n_vals[s] = int(n_in[rows].sum())
        return pa.table(
            {
                key_column: keys_out,
                "n_values": pa.array(n_vals),
                "distinct_estimate": pa.array(ests, pa.float64()),
            }
        )

    return _grouped_sketch_pipeline(ds, key_column, value_column, partial, merge_bucket)


def grouped_tdigest_quantiles(
    ds,
    key_column: str,
    value_column: str,
    qs: tuple = (0.5, 0.95),
    delta: float = 200.0,
):
    """Per-key APPROXIMATE quantiles at sketch cost — the scale path the
    exact ``grouped_quantile_disc`` combiner can't take when the value
    cardinality is unbounded (its partial is distinct ``(key, value,
    count)`` rows; a continuous value column makes that ≈ raw rows).
    Here each batch emits ONE t-digest blob per distinct key (≤ ~2·delta
    centroids ≈ KBs, independent of row count), and a tiny
    ``groupby(key)`` merges blobs and reads the quantiles off the merged
    digest. Same cardinality contract as ``grouped_hll_distinct``: each
    key costs a blob per batch — for near-unique keys use the exact
    path. Values are grouped per key with one argsort + split per batch
    (one Python call per DISTINCT KEY per batch, not per row); null
    values are excluded (SQL semantics), a null key groups like SQL
    GROUP BY.

    Output: ``(key, n_values, q50, q95, ...)`` one float column per
    requested quantile, named ``q<100·q>``."""
    from fs_schema_validator_ray.state.sketches import TDigest

    q_cols = [f"q{int(round(100 * q))}" for q in qs]

    def empty(key_arr) -> pa.Table:
        out = {key_column: key_arr, "n_values": pa.array([], pa.int64())}
        out["blob"] = pa.array([], pa.binary())
        return pa.table(out)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty(batch.column(key_column))
        keys_out, slot, n_slots = _null_safe_slots(batch.column(key_column))
        val_col = batch.column(value_column)
        if isinstance(val_col, pa.ChunkedArray):
            val_col = val_col.combine_chunks()
        valid = np.asarray(val_col.is_valid())
        vals = np.asarray(val_col.cast(pa.float64()).fill_null(0.0), dtype=np.float64)
        order, bounds, _, _, row_end = segments(slot[valid])
        svals, sslot = vals[valid][order], slot[valid][order]
        ends = row_end[bounds]
        n_vals = np.zeros(n_slots, np.int64)
        blobs: list = [b""] * n_slots
        for s, e in zip(bounds, ends):
            td = TDigest(delta)
            td.add(svals[s:e])
            td.compress()
            blobs[int(sslot[s])] = td.to_bytes()
            n_vals[int(sslot[s])] = e - s
        return pa.table(
            {
                key_column: keys_out,
                "n_values": pa.array(n_vals),
                "blob": pa.array(blobs, pa.binary()),
            }
        )

    def merge_bucket(group: pa.Table) -> pa.Table:
        keys_out, slot, n_slots = _null_safe_slots(group.column(key_column))
        n_in = np.asarray(group.column("n_values"), dtype=np.int64)
        blobs_in = group.column("blob").to_pylist()
        n_vals = np.zeros(n_slots, np.int64)
        quants = np.full((n_slots, len(qs)), np.nan)
        order, starts, _, _, row_end = segments(slot)
        for st, en in zip(starts, row_end[starts]):
            rows = order[st:en]
            s = int(slot[rows[0]])
            td = None
            for i in rows:
                if not blobs_in[i]:
                    continue
                other = TDigest.from_bytes(blobs_in[i])
                td = other if td is None else td.merge(other)
            n_vals[s] = int(n_in[rows].sum())
            if td is not None:
                for j, q in enumerate(qs):
                    quants[s, j] = float(td.quantile(q))
        out = {key_column: keys_out, "n_values": pa.array(n_vals)}
        for j, c in enumerate(q_cols):
            out[c] = pa.array(quants[:, j], pa.float64(), mask=np.isnan(quants[:, j]))
        return pa.table(out)

    return _grouped_sketch_pipeline(ds, key_column, value_column, partial, merge_bucket)
