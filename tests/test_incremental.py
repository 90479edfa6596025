"""Incremental-dedup store gates: batch-1 accepts all distinct, batch-2
accepts only the genuinely new, re-ingesting is idempotent (zero
accepted), and in-batch duplicates resolve to min id."""

import os

import numpy as np
import pyarrow as pa
import ray.data

from fs_schema_validator_ray.pipelines.incremental import (
    _store_manifest,
    dedup_ingest,
)


def _batch(texts, start_id=0):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    range(start_id, start_id + len(texts)), pa.int64()
                ),
                "text": texts,
            }
        )
    ).repartition(3)


def test_incremental_dedup_store(ray_session, tmp_path):
    store = str(tmp_path / "store")
    os.makedirs(store)

    b1 = ["alpha doc", "beta doc", "gamma doc", "alpha doc", "delta doc"]
    acc1, s1 = dedup_ingest(_batch(b1), store, n_buckets=4)
    rows1 = sorted(r["doc_id"] for r in acc1.take_all())
    assert s1["n_accepted"] == 4  # in-batch dup of "alpha doc" collapsed
    assert rows1 == [0, 1, 2, 4]  # min id kept for the in-batch dup
    assert _store_manifest(store)["n_fingerprints"] == 4

    # batch 2: overlap with the store + one new + an in-batch dup pair
    b2 = ["beta doc", "epsilon doc", "epsilon doc", "delta doc"]
    acc2, s2 = dedup_ingest(_batch(b2, start_id=100), store)
    rows2 = sorted(r["text"] for r in acc2.take_all())
    assert s2["n_accepted"] == 1 and rows2 == ["epsilon doc"]
    assert _store_manifest(store)["n_fingerprints"] == 5

    # idempotence: same batch again accepts nothing
    acc3, s3 = dedup_ingest(_batch(b2, start_id=200), store)
    assert s3["n_accepted"] == 0 and acc3.count() == 0
    assert _store_manifest(store)["n_ingests"] == 3

    # bucket mismatch is refused loudly
    import pytest

    with pytest.raises(ValueError, match="buckets"):
        dedup_ingest(_batch(["x doc here"]), store, n_buckets=8)


def _seen_by_loop(store, batch):
    """The per-row scan of the ``h1`` run that ``_seen`` replaced."""
    sh1 = np.asarray(store.column("h1"), np.int64)
    sh2 = np.asarray(store.column("h2"), np.int64)
    so = np.lexsort((sh2, sh1))
    sh1, sh2 = sh1[so], sh2[so]
    nh1 = np.asarray(batch.column("h1"), np.int64)
    nh2 = np.asarray(batch.column("h2"), np.int64)
    pos = np.searchsorted(sh1, nh1)
    hit = np.zeros(len(nh1), bool)
    for i in range(len(nh1)):
        p = pos[i]
        while p < len(sh1) and sh1[p] == nh1[i]:
            if sh2[p] == nh2[i]:
                hit[i] = True
                break
            p += 1
    return hit


def test_seen_with_colliding_h1_matches_the_loop():
    from fs_schema_validator_ray.pipelines.incremental import _seen

    rng = np.random.default_rng(7)
    # few distinct h1 values: long runs of colliding h1 with different h2,
    # including the int64 extremes the pair order must handle
    h1 = rng.choice([-(2**63), -1, 0, 5, 2**63 - 1], 400)
    h2 = rng.integers(-(2**63), 2**63 - 1, 400, dtype=np.int64)
    store = pa.table({"h1": h1[:300], "h2": h2[:300]})
    # half the batch is stored pairs, half new pairs on the same h1 values
    batch = pa.table({
        "h1": np.concatenate([h1[:100], h1[300:]]),
        "h2": np.concatenate([h2[:100], h2[300:]]),
    })
    got = _seen(store, batch)
    assert np.array_equal(got, _seen_by_loop(store, batch))
    assert got[:100].all() and not got[100:].any()
    empty = pa.table({"h1": pa.array([], pa.int64()), "h2": pa.array([], pa.int64())})
    assert not _seen(empty, batch).any()
