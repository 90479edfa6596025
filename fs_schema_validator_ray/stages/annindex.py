"""Persisted IVF ANN index — build once, query many (the serving-side
complement of the in-memory ANN operators in ``similarity.py``).

Layout (``index_dir``):

* ``centroids.parquet`` — the unit-normalized (k × dim) coarse
  quantizer (KBs — the only thing a query loads up front);
* ``postings/list_id=K/part-*.parquet`` — hive-partitioned postings
  ``(id, embedding)``, co-located by nearest centroid;
* ``index_manifest.json`` — n_lists, dim, n_vectors, corpus signature.

A query probes ``nprobe`` lists per query vector and reads ONLY those
partitions (partition-pruned parquet read — at 10^12 vectors the
postings never scan whole); scoring is one batched matmul per touched
list. Exact-duplicate queries are GUARANTEED found at similarity 1.0
(identical vector ⇒ identical nearest centroid ⇒ same list), which is
what the corpus contract gates.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fs_schema_validator_ray.sinks import write_json_atomic


def ann_index_build(
    ds,
    index_dir: str,
    *,
    n_lists: int = 16,
    iters: int = 3,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    seed: int = 11,
) -> dict:
    """Fit the coarse quantizer and write the partitioned postings.
    Returns the manifest dict."""
    import ray

    from fs_schema_validator_ray.stages.similarity import (
        IvfAssignStage,
        kmeans_centroids,
    )

    cent = kmeans_centroids(
        ds, n_lists, iters=iters, vec_column=vec_column, seed=seed
    )
    os.makedirs(index_dir, exist_ok=True)
    k, dim = cent.shape
    pq.write_table(
        pa.table(
            {
                "list_id": pa.array(
                    np.repeat(np.arange(k, dtype=np.int32), dim)
                ),
                "pos": pa.array(np.tile(np.arange(dim, dtype=np.int32), k)),
                "value": pa.array(cent.reshape(-1), pa.float64()),
            }
        ),
        os.path.join(index_dir, "centroids.parquet"),
    )

    assigned = ds.select_columns([id_column, vec_column]).map_batches(
        IvfAssignStage(ray.put(cent), vec_column), batch_format="pyarrow"
    )
    post_dir = os.path.join(index_dir, "postings")
    assigned.write_parquet(post_dir, partition_cols=["list_id"])
    n_vectors = ds.count()
    manifest = {
        "n_lists": int(k),
        "dim": int(dim),
        "n_vectors": int(n_vectors),
        "vec_column": vec_column,
        "id_column": id_column,
    }
    write_json_atomic(os.path.join(index_dir, "index_manifest.json"), manifest)
    return manifest


def _load_centroids(index_dir: str) -> np.ndarray:
    t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    k = int(np.asarray(t.column("list_id")).max()) + 1
    return np.asarray(t.column("value"), np.float64).reshape(k, -1)


def ann_index_query(
    index_dir: str,
    query_ids: np.ndarray,
    queries: np.ndarray,
    *,
    k: int = 5,
    nprobe: int = 2,
) -> pa.Table:
    """Top-k cosine neighbours for a query matrix against the persisted
    index. Reads only the probed ``list_id`` partitions. Returns
    ``(query_id, rank, id, cos)`` with deterministic tie-break
    (higher cos first, then smaller id)."""
    from fs_schema_validator_ray.stages.similarity import (
        _normalize,
        list_column_to_matrix,
    )

    with open(os.path.join(index_dir, "index_manifest.json")) as f:
        man = json.load(f)
    cent = _load_centroids(index_dir)
    q = _normalize(np.asarray(queries, np.float64))
    probes = np.argsort(-(q @ cent.T), axis=1, kind="stable")[:, :nprobe]

    needed = sorted({int(x) for x in probes.ravel()})
    # partition-pruned read: only probed lists leave storage
    lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for lid in needed:
        files = glob.glob(
            os.path.join(index_dir, "postings", f"list_id={lid}", "*.parquet")
        )
        if not files:
            continue
        t = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
        ids = np.asarray(t.column(man["id_column"]), np.int64)
        mat = _normalize(list_column_to_matrix(t.column(man["vec_column"])))
        # canonical id order: part-file names are run-unique (UUIDs), and
        # BLAS reductions are layout-sensitive at the last ulp — sorting
        # makes query results bit-identical across rebuilds
        order = np.argsort(ids, kind="stable")
        lists[lid] = (ids[order], np.ascontiguousarray(mat[order]))

    out_q, out_r, out_id, out_cos = [], [], [], []
    for qi in range(len(q)):
        cand_ids = []
        cand_cos = []
        for lid in probes[qi]:
            entry = lists.get(int(lid))
            if entry is None:
                continue
            ids, mat = entry
            cos = mat @ q[qi]
            cand_ids.append(ids)
            cand_cos.append(cos)
        if not cand_ids:
            continue
        ids = np.concatenate(cand_ids)
        cos = np.concatenate(cand_cos)
        order = np.lexsort((ids, -cos))[:k]
        for r, j in enumerate(order):
            out_q.append(int(query_ids[qi]))
            out_r.append(r)
            out_id.append(int(ids[j]))
            out_cos.append(float(cos[j]))
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int32()),
            "id": pa.array(out_id, pa.int64()),
            "cos": pa.array(out_cos, pa.float64()),
        }
    )
