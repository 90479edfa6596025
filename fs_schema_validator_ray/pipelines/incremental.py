"""Incremental exact dedup against a PERSISTENT fingerprint store — the
cross-run curation operator: "which of today's crawl is new against
everything we have already accepted?"

Store layout (``store_dir``): hive-partitioned parquet of 128-bit
content fingerprints, ``bucket=K/part-*.parquet`` with columns
``(h1, h2)`` — the bucket is the usual ``mix_to_buckets(h1)`` so an
ingest run and the store co-partition on the same key. An ingest run:

1. fingerprints the new batch (stateless map);
2. per bucket, ANTI-joins the batch's fingerprints against ONLY that
   bucket's store partition (partition-pruned read — the store is never
   scanned whole);
3. returns the new-unique rows (first occurrence per content within the
   batch also deduped, min id wins);
4. appends the accepted fingerprints to their store partitions
   (new part files — append-only, never rewrites) and bumps the store
   manifest atomically.

Deterministic; idempotence gate: re-ingesting the same batch accepts
zero rows. Crash safety: fingerprints land as part files BEFORE the
manifest bumps; an interrupted ingest leaves the store valid (rows may
be re-accepted on retry — at-least-once semantics, documented).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fs_schema_validator_ray.sinks import write_json_atomic


def _store_manifest(store_dir: str) -> dict:
    path = os.path.join(store_dir, "store_manifest.json")
    if not os.path.exists(path):
        return {"n_fingerprints": 0, "n_ingests": 0, "n_buckets": None}
    with open(path) as f:
        return json.load(f)


def _write_manifest(store_dir: str, doc: dict) -> None:
    write_json_atomic(os.path.join(store_dir, "store_manifest.json"), doc)


def _seen(store: pa.Table, batch: pa.Table) -> np.ndarray:
    """Per row of ``batch``: is its ``(h1, h2)`` fingerprint in ``store``?
    The store is lexsorted by ``(h1, h2)`` and each batch row's ``h1``
    run found by ``searchsorted``; the runs are then checked offset by
    offset, all rows at once, so a shared ``h1`` cannot match a
    different ``h2`` and the passes are as many as the longest run
    (one, but for 64-bit ``h1`` collisions)."""
    sh1 = np.asarray(store.column("h1"), np.int64)
    sh2 = np.asarray(store.column("h2"), np.int64)
    so = np.lexsort((sh2, sh1))
    sh1, sh2 = sh1[so], sh2[so]
    nh1 = np.asarray(batch.column("h1"), np.int64)
    nh2 = np.asarray(batch.column("h2"), np.int64)
    lo = np.searchsorted(sh1, nh1, "left")
    run = np.searchsorted(sh1, nh1, "right") - lo
    hit = np.zeros(len(nh1), bool)
    for k in range(int(run.max(initial=0))):
        rows = np.flatnonzero(run > k)
        hit[rows] |= sh2[lo[rows] + k] == nh2[rows]
    return hit


def dedup_ingest(
    new_ds,
    store_dir: str,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    n_buckets: int | None = None,
):
    """Ingest a batch against the store; returns ``(accepted_ds,
    stats_dict)`` where ``accepted_ds`` carries the new-unique rows
    (``id_column`` + ``text_column``)."""
    import ray
    import ray.data

    from fs_schema_validator_ray.stages.dedup import _fingerprint128
    from fs_schema_validator_ray.stages.exchange import (
        BUCKET,
        default_n_buckets,
        map_buckets,
        segments,
    )
    from fs_schema_validator_ray.state.sketches import mix_to_buckets

    man = _store_manifest(store_dir)
    if n_buckets is None:
        n_buckets = man["n_buckets"] or default_n_buckets(new_ds)
    if man["n_buckets"] is not None and man["n_buckets"] != n_buckets:
        raise ValueError(
            f"store was built with {man['n_buckets']} buckets, got {n_buckets}"
        )
    B = int(n_buckets)

    # the store is laid out on disk by mix_to_buckets(h1) — routing is
    # part of its persisted format, so it stays this exact function
    def tag(t: pa.Table) -> pa.Table:
        h1, h2 = _fingerprint128(t.column(text_column).combine_chunks())
        return pa.table(
            {
                BUCKET: pa.array(mix_to_buckets(h1, B)),
                "h1": pa.array(h1.view(np.int64)),
                "h2": pa.array(h2.view(np.int64)),
                id_column: t.column(id_column),
                text_column: t.column(text_column),
            }
        )

    tagged = new_ds.select_columns([id_column, text_column]).map_batches(
        tag, batch_format="pyarrow"
    )

    def probe(group: pa.Table) -> pa.Table:
        h1 = np.asarray(group.column("h1"), np.int64)
        h2 = np.asarray(group.column("h2"), np.int64)
        ids = np.asarray(group.column(id_column), np.int64)
        b = int(mix_to_buckets(h1[:1].view(np.uint64), B)[0])  # one per group
        files = glob.glob(
            os.path.join(store_dir, f"bucket={b}", "*.parquet")
        )
        seen = (
            pq.read_table(files[0]).select(["h1", "h2"])
            if len(files) == 1
            else (
                pa.concat_tables([pq.read_table(f, columns=["h1", "h2"]) for f in files])
                if files
                else None
            )
        )
        # in-batch dedup: min id per (h1, h2)
        order, starts, _, _, _ = segments((h1, h2), ids)
        keep_idx = order[starts]
        sub = group.take(pa.array(np.sort(keep_idx), pa.int64()))
        if seen is not None and seen.num_rows:
            hit = _seen(seen, sub)
            sub = sub.filter(pa.array(~hit))
        return sub.add_column(0, "bucket", pa.array(np.full(sub.num_rows, b, np.int32)))

    accepted = map_buckets(tagged, probe).materialize()
    n_accepted = accepted.count()

    # append accepted fingerprints to the store (workers write blocks)
    if n_accepted:
        accepted.select_columns(["bucket", "h1", "h2"]).write_parquet(
            store_dir, partition_cols=["bucket"]
        )
    _write_manifest(
        store_dir,
        {
            "n_fingerprints": man["n_fingerprints"] + n_accepted,
            "n_ingests": man["n_ingests"] + 1,
            "n_buckets": B,
        },
    )
    stats = {
        "n_batch": new_ds.count(),
        "n_accepted": n_accepted,
        "store_total": man["n_fingerprints"] + n_accepted,
    }
    return accepted.select_columns([id_column, text_column]), stats
