"""Key-uniqueness check (north_rule: HLL uniqueness / exact duplicates).

Validation run (``pipelines/validate.py``): a counting filter first.
The run's global pass (one keys-only scan shared with the drift rules)
maps every ``unique`` rule's key to one of ``2**filter_bits(rows)``
cells (``rows`` from the footers) by the top bits of its stable hash
(:func:`with_key_cells`; a composite key is hashed as its canonical
tuple string), and ``pipelines/stats.py::GlobalPartial`` counts the
cells. Equal keys share a cell, so only rows in a cell counted twice can
be duplicates. No such cell: the rule is done, with no further read.
Otherwise :func:`candidate_violations` scans the keys once more, keeps
just the candidate rows (:class:`CandidateRows`) and runs the exact
exchange below over them, one per rule. A saturated filter makes every
row a candidate: the exchange then sees what it would have seen without
the filter.

Exact path (:func:`uniqueness_violations`, also used by queries): kept
cheap by (a) projecting to the key column before anything moves, (b)
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
    DEFAULT_TARGET_BUCKET_BYTES,
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


#: log2 of the largest counting filter, in cells per ``unique`` rule: the
#: driver holds a byte a cell (16 MiB a rule), each candidate task a bit
#: a cell. With ``d`` distinct keys in ``m`` cells a unique key is a false
#: candidate with probability ``1 - exp(-d / m)`` (38% at 8M keys in
#: 2^24). Chosen by measurement (one CPU, one int64 unique rule, unique
#: phase wall): at 2M / 8M keys 2^24 cells take 1.3-2.3 s / 7.8-8.1 s
#: where the per-rule exchange alone takes 3.5 s / 13.3-13.8 s, and a
#: saturated filter (2^16 cells) 3.0-3.2 s / 11.8-13.7 s.
FILTER_BITS = 24


def filter_bits(rows: int | None) -> int:
    """log2 of the filter cells for a corpus of ``rows``: eight cells a
    row, so that a key seen once is a false candidate with probability
    under ``1 - exp(-1/8)`` (12%), up to ``FILTER_BITS`` (also taken
    when the row count is unknown)."""
    if rows is None:
        return FILTER_BITS
    return min(FILTER_BITS, (max(rows, 1) - 1).bit_length() + 3)


def _keys(batch: pa.Table, rule: UniqueRule):
    """The rule's key per row: the native column, or the canonical tuple
    string of a composite key."""
    if rule.columns:
        return pa.array(canonical_tuple_strings(batch, rule.columns), pa.string())
    return batch.column(rule.column)


def key_cells(batch: pa.Table, rule: UniqueRule, bits: int) -> np.ndarray:
    """Counting-filter cell of every row: the top ``bits`` of the key's
    stable hash. Equal keys always share a cell; so do a null int and
    ``0`` (``stable_key_array``), which only costs a candidate row."""
    h = hash64(stable_key_array(_keys(batch, rule)))
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def _with_cells(batch: pa.Table, rules: list, bits: int, keep: list) -> pa.Table:
    out = {c: batch.column(c) for c in keep if c in batch.column_names}
    for i, rule in enumerate(rules):
        out[f"__cell{i}"] = key_cells(batch, rule, bits).astype(np.int32)
    return pa.table(out)


def with_key_cells(ds, rules: list, bits: int, keep: list):
    """Map half of the validation run's global pass: every row's filter
    cell of each rule ``rules[i]`` as the int32 column ``__cell<i>``,
    beside the ``keep`` columns the batch has; the keys themselves go no
    further. ``pipelines.stats.GlobalPartial`` counts the cells per batch."""
    return ds.map_batches(lambda t: _with_cells(t, rules, bits, keep), batch_format="pyarrow")


class CandidateRows:
    """Map UDF: keeps the rows whose key lands in a candidate cell of at
    least one rule. ``masks[i]`` is rule ``i``'s filter of ``2**bits``
    cells as one bit a cell (``np.packbits(..., bitorder="little")``),
    set where the cell was counted twice or more."""

    def __init__(self, rules: list, masks: list, bits: int) -> None:
        self.rules, self.masks, self.bits = rules, masks, bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = np.zeros(batch.num_rows, bool)
        for rule, mask in zip(self.rules, self.masks):
            cells = key_cells(batch, rule, self.bits)
            keep |= (mask[cells >> 3] >> (cells & 7).astype(np.uint8)) & 1 == 1
        return batch.filter(pa.array(keep))


def candidate_violations(read, rules: list, filters: list):
    """Exact duplicates of every ``unique`` rule from its merged counting
    filter (``filters[i]``: a count per cell) → violations Dataset, or
    ``None`` when no cell of any rule was counted twice. ``read(columns)``
    returns a keys-only Dataset of the corpus; it is read once, the
    candidate rows of every rule are kept (``materialize``: the exchanges
    of several rules then share that one read), and each rule with
    candidates runs :func:`uniqueness_violations` over them, with one
    bucket per ``DEFAULT_TARGET_BUCKET_BYTES`` of candidates. A row kept
    for another rule cannot make a false duplicate: a key outside the
    rule's candidate cells occurs once in the corpus."""
    pending = [(r, f >= 2) for r, f in zip(rules, filters)]
    pending = [(r, np.packbits(m, bitorder="little")) for r, m in pending if m.any()]
    if not pending:
        return None
    columns = sorted({c for r, _ in pending for c in r.input_columns()})
    bits = len(filters[0]).bit_length() - 1
    cands = read(columns).map_batches(
        CandidateRows(*map(list, zip(*pending)), bits), batch_format="pyarrow"
    ).materialize()
    # the exchange's own per-bucket budget over the candidates' exact
    # size: below it, one bucket and no shuffle
    n_buckets = -(-cands.size_bytes() // DEFAULT_TARGET_BUCKET_BYTES) or 1
    parts = [uniqueness_violations(cands, r, n_buckets=n_buckets) for r, _ in pending]
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


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
            out = {"__ckey": _keys(t, rule)}
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
    partials = partials.repartition(1 if n_buckets == 1 else max(4, n_buckets // 8))

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

    if n_buckets == 1:
        # one bucket is one group: merge the one coalesced block where it
        # is instead of sort-shuffling it to itself
        return partials.map_batches(merge_bucket, batch_format="pyarrow", batch_size=None)
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
