"""Persisted IVF index gates: exact-duplicate queries are found at cos
1.0 via their own list; recall vs brute force; queries only touch
probed partitions; a rebuilt index answers identically."""

import glob
import os

import numpy as np
import pyarrow as pa
import ray.data

from fs_schema_validator_ray.stages.annindex import (
    ann_index_build,
    ann_index_query,
)


def _corpus(n=300, dim=16, seed=9):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    return vecs, ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [list(v) for v in vecs], pa.list_(pa.float64())
                ),
            }
        )
    ).repartition(4)


def test_ann_index_build_query(ray_session, tmp_path):
    vecs, ds = _corpus()
    idx = str(tmp_path / "idx")
    man = ann_index_build(ds, idx, n_lists=8, iters=3)
    assert man["n_vectors"] == 300 and man["n_lists"] == 8
    assert os.path.exists(os.path.join(idx, "index_manifest.json"))
    assert glob.glob(os.path.join(idx, "postings", "list_id=*", "*.parquet"))

    # exact-duplicate queries: their own id MUST come back at rank 0 / cos 1
    qids = np.array([5, 42, 199])
    out = ann_index_query(idx, qids, vecs[qids], k=3, nprobe=1)
    top = {
        r["query_id"]: (r["id"], r["cos"])
        for r in out.to_pylist()
        if r["rank"] == 0
    }
    for q in qids:
        assert top[int(q)][0] == int(q)
        assert abs(top[int(q)][1] - 1.0) < 1e-12

    # recall@1 vs brute force over random queries
    rng = np.random.default_rng(17)
    queries = rng.normal(size=(40, 16))
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    brute = np.argmax(qn @ vn.T, axis=1)
    out = ann_index_query(idx, np.arange(40), queries, k=1, nprobe=4)
    got = {r["query_id"]: r["id"] for r in out.to_pylist() if r["rank"] == 0}
    recall = np.mean([got.get(i) == brute[i] for i in range(40)])
    assert recall >= 0.85, recall

    # determinism: rebuild + requery → identical table
    idx2 = str(tmp_path / "idx2")
    ann_index_build(ds, idx2, n_lists=8, iters=3)
    out2 = ann_index_query(idx2, np.arange(40), queries, k=1, nprobe=4)
    assert out.equals(out2)
