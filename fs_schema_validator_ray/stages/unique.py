"""Key-uniqueness check (north_rule: HLL uniqueness / exact duplicates).

Validation run (``pipelines/validate.py``): the tasks that read a
``unique`` rule's columns anyway (the row pass; on resume, a keys-only
scan of the finished partitions) fold each rule's keys into one partial
per task (``pipelines/stats.py::GlobalPartial``). The driver picks one
of two partials per run from the footers, before any task starts:

* **Exact** (the footer bytes of the rules' key columns, summed over the
  rules, are at most ``exchange.MIN_BUCKET_BYTES``, 16 MiB): a task
  returns each rule's key counts, ``(key, n, first partition)`` per
  distinct key of its rows (:func:`_partial_counts`), and the driver
  counts their concatenation once per rule and writes the violations
  itself (:func:`counted_violations`). The driver then holds at most
  those key bytes plus a count and a partition per key and task, and
  the run needs no Ray execution beyond the one that read the keys.
* **Filter** (above that bound): a counting filter. A task maps every
  key to one of ``2**filter_bits(rows)`` cells (``rows`` from the
  footers) by the top bits of its stable hash (:func:`key_cells`; a
  composite key is hashed as its canonical tuple string) and counts the
  cells. Equal keys share a cell, so only rows in a cell counted twice
  can be duplicates. No such cell: the rule is done, with no further
  read. Otherwise :func:`candidate_violations` scans the keys once
  more, keeps each rule's candidate rows (:class:`CandidateRows`) and
  merges them all in ONE exchange; the merge task writes the violations
  itself. A saturated filter makes every row a candidate: the exchange
  then sees what it would have seen without the filter.

Both paths count keys with the same :func:`_duplicates`, each rule's rows
grouped on its native key, so their violation rows are the same.

Exact duplicates of a Dataset (:func:`uniqueness_violations`, used by
queries): kept cheap by (a) projecting to the key column before
anything moves, (b) pre-aggregating counts per batch inside
``map_batches`` (classic partial/combiner), so the ``groupby`` shuffles
at most one row per distinct key per block instead of one per input
row, and (c) shuffling only ``(key, n, partition_id)`` — never payload
bytes.

Approximate path: per-batch HyperLogLog partials merged on the driver —
no shuffle at all; reports an estimated duplicate count (global metric),
used at 10^12-key scale where even the key shuffle is a budget item.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fs_schema_validator_ray.report import (
    PARTITION_COLUMN,
    partition_ids,
    violations_table,
)
from fs_schema_validator_ray.rules import UniqueRule
from fs_schema_validator_ray.stages.exchange import (
    BUCKET,
    DEFAULT_TARGET_BUCKET_BYTES,
    bucketed,
    coalesce,
    default_n_buckets,
    map_buckets,
    route,
    segments,
)
from fs_schema_validator_ray.state import HyperLogLog
from fs_schema_validator_ray.state.sketches import (
    canonical_tuple_array,
    hash64,
    mix_to_buckets,
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
        return canonical_tuple_array(batch, rule.columns)
    return batch.column(rule.column)


def _key_hashes(batch: pa.Table, rule: UniqueRule) -> np.ndarray:
    """The stable uint64 hash of every row's key."""
    return hash64(stable_key_array(_keys(batch, rule)))


def key_cells(batch: pa.Table, rule: UniqueRule, bits: int) -> np.ndarray:
    """Counting-filter cell of every row: the top ``bits`` of the key's
    stable hash. Equal keys always share a cell; so do a null int and
    ``0`` (``stable_key_array``), which only costs a candidate row."""
    return (_key_hashes(batch, rule) >> np.uint64(64 - bits)).astype(np.int64)


#: the rule index and the key hash of a candidate row
RULE, HASH = "__rule", "__hash"


class CandidateRows:
    """Map UDF: each rule's candidate rows, the rows whose key lands in a
    candidate cell of the rule, tagged with the rule's index (``__rule``)
    and the key's hash mixed with it (``__hash``, what a bucketed exchange
    routes on). A row that is a candidate of two rules comes out twice.
    ``masks[i]`` is rule ``i``'s filter of ``2**bits`` cells as one bit a
    cell (``np.packbits(..., bitorder="little")``), set where the cell was
    counted twice or more."""

    def __init__(self, rules: list, masks: list, bits: int) -> None:
        self.rules, self.masks, self.bits = rules, masks, bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for i, (rule, mask) in enumerate(zip(self.rules, self.masks)):
            h = _key_hashes(batch, rule)
            cells = h >> np.uint64(64 - self.bits)
            keep = np.flatnonzero((mask[cells >> 3] >> (cells & 7)) & 1)
            out.append(batch.take(keep)
                       .append_column(RULE, pa.array(np.full(len(keep), i, np.int32)))
                       .append_column(HASH, pa.array(h[keep] ^ np.uint64(i))))
        return pa.concat_tables(out)


def _commit(violations: pa.Table, out_dir: str) -> None:
    """Write the violation rows of one merge task (or of the driver) into
    ``out_dir`` under a name its rows decide, so a retried task replaces
    its own file."""
    first = min(zip(violations.column("rule_id").to_pylist(),
                    violations.column("key").to_pylist()))
    name = hashlib.sha256(repr(first).encode()).hexdigest()[:16]
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f"{name}.tmp")
    pq.write_table(violations, tmp)
    os.replace(tmp, os.path.join(out_dir, f"{name}.parquet"))


def candidate_violations(read, rules: list, filters: list, out_dir: str, footer_bytes):
    """Exact duplicates of every ``unique`` rule from its counting filter
    (``filters[i]``: a count per cell, saturated at 255), written into
    ``out_dir`` by the merge tasks → ``(violations, receipts, Ray
    executions)``. ``read(columns)`` is a keys-only Dataset of the corpus,
    holding ``footer_bytes(columns)`` bytes. Every rule shares ONE
    execution, ``read → CandidateRows → exchange.map_buckets`` over one
    bucket, unless those bytes exceed ``DEFAULT_TARGET_BUCKET_BYTES``:
    then the candidates are materialized, sized into buckets of that many
    bytes and routed on ``(rule index, key hash)``. The candidate rows of a
    rule are exact while no cell saturates."""
    bits = len(filters[0]).bit_length() - 1
    marked = [f >= 2 for f in filters]
    metrics = {"filter_bits": bits, "buckets": 0, "shuffled": False,
               "candidate_cells": {r.rule_id: int(m.sum()) for r, m in zip(rules, marked)},
               "candidate_rows": {r.rule_id: int(f[m].sum(dtype=np.int64))
                                  for r, f, m in zip(rules, filters, marked)}}
    pending = [(r, np.packbits(m, bitorder="little")) for r, m in zip(rules, marked) if m.any()]
    if not pending:
        return 0, metrics, 0
    rules, masks = map(list, zip(*pending))

    def merge_bucket(group: pa.Table) -> pa.Table:
        # a key outside a rule's candidate cells occurs once in the corpus,
        # so each rule's rows here hold every copy of its repeated keys
        of_rule = np.asarray(group.column(RULE))
        out = []
        for i, rule in enumerate(rules):
            rows = group.filter(pa.array(of_rule == i))
            out.append(_duplicates(_keys(rows, rule), np.ones(rows.num_rows, np.int64),
                                   partition_ids(rows), rule.rule_id))
        violations = pa.concat_tables(out)
        if violations.num_rows:
            _commit(violations, out_dir)
        return violations

    columns = sorted({c for r in rules for c in r.input_columns()})
    cands = read(columns).map_batches(CandidateRows(rules, masks, bits), batch_format="pyarrow")
    executions, n_buckets = 1, 1
    if footer_bytes(columns) > DEFAULT_TARGET_BUCKET_BYTES:
        cands = cands.materialize()
        executions += 1
        n_buckets = -(-cands.size_bytes() // DEFAULT_TARGET_BUCKET_BYTES) or 1
    metrics.update(buckets=n_buckets, shuffled=n_buckets > 1)
    if n_buckets > 1:
        def add_bucket(t: pa.Table) -> pa.Table:
            return t.append_column(
                BUCKET, pa.array(mix_to_buckets(np.asarray(t.column(HASH)), n_buckets)))

        cands = coalesce(cands.map_batches(add_bucket, batch_format="pyarrow"), n_buckets)
    out = map_buckets(cands, merge_bucket, n_buckets)
    n = sum(b.num_rows for b in out.iter_batches(batch_format="pyarrow", batch_size=None))
    return n, metrics, executions


def counted_violations(rules: list, counts: list, out_dir: str) -> int:
    """Exact duplicates of every ``unique`` rule from its tasks' key
    counts (``counts[i]``: the :func:`_partial_counts` tables of rule
    ``i``), written into ``out_dir`` as one file → the violation count."""
    out = []
    for rule, tables in zip(rules, counts):
        if tables:
            t = pa.concat_tables(tables, promote_options="permissive")
            out.append(_duplicates(t.column("key"), t.column("n"), t.column("part"),
                                   rule.rule_id))
    violations = pa.concat_tables(out) if out else violations_table([], "", [])
    if violations.num_rows:
        _commit(violations, out_dir)
    return violations.num_rows


def _duplicates(keys, n, parts, rule_id: str) -> pa.Table:
    """Violation rows of every key counted more than once: ``n`` counts
    of each ``keys`` entry, seen first in partition ``parts``. The key
    keeps its native type until it is rendered: ``str`` of its Python
    value, the first partition it was seen in, its total count."""
    g = pa.TableGroupBy(pa.table({"key": keys, "n": n, "part": parts}), "key").aggregate(
        [("n", "sum"), ("part", "min")]
    )
    counts = np.asarray(g.column("n_sum"))
    dup = np.flatnonzero(counts > 1)
    # render only the duplicated keys; to_pylist, not np.asarray: a null
    # would promote an int column to float64 and render "5.0"
    return violations_table(
        [str(k) for k in g.column("key").take(dup).to_pylist()],
        rule_id,
        [f"duplicate key (appears {int(c)} times)" for c in counts[dup]],
        np.asarray(g.column("part_min"))[dup],
    )


def _partial_counts(batch: pa.Table, rule: UniqueRule) -> pa.Table:
    """Per-batch combiner: one output row per distinct key in the batch
    (pure Arrow ``group_by`` — no pandas round-trip in the hot path).
    On a validation run's exact path a task returns one per rule, over
    all of its rows, and the driver merges them
    (:func:`counted_violations`).

    For a Dataset, the global merge routes these rows on ``key`` to
    small-int buckets and merges each bucket VECTORIZED (``map_groups``
    with an Arrow group_by inside) — Ray's built-in ``aggregate()``
    combines grouped rows in per-row Python, which at ~1 row/key
    (nearly-unique key columns, the worst-case combiner shape) costs
    minutes of CPU per million rows."""
    import pyarrow.compute as pc

    tbl = pa.table({"key": _keys(batch, rule), "part": partition_ids(batch)})
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


def uniqueness_violations(ds, rule: UniqueRule, n_buckets: int | None = None):
    """Exact duplicate detection → violations Dataset.

    ``read → project(key) → map_batches(partial counts + bucket) →
    groupby(bucket) → map_groups(vectorized Arrow merge) → violation
    rows``. The shuffle key is a small int bucket of the key;
    the per-bucket merge is one Arrow ``group_by`` call — no per-row
    Python anywhere.
    """
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    part_cols = [PARTITION_COLUMN] if PARTITION_COLUMN in ds.schema().names else []
    keys = ds.select_columns([*rule.input_columns(), *part_cols])
    partials = route(keys, ["key"], n_buckets, lambda t: _partial_counts(t, rule))
    # decouple SCAN parallelism from SHUFFLE fan-out: the partials are a
    # small fraction of the input (one narrow row per distinct key per block)
    partials = coalesce(partials, n_buckets)

    def merge_bucket(group: pa.Table) -> pa.Table:
        return _duplicates(group.column("key"), group.column("n"), group.column("part"),
                           rule.rule_id)

    return map_buckets(partials, merge_bucket, n_buckets)


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
