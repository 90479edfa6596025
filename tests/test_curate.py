"""End-to-end curation composition gates: determinism (two runs →
identical manifests), leakage-free splits (a doc and its duplicates
never straddle splits; only cluster representatives survive), exact
accounting, and shard-partitioned output layout."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def _docs():
    rng = np.random.default_rng(4)
    texts, ids = [], []
    base = [
        " ".join(rng.choice(["alpha", "beta", "gamma", "delta", "words",
                             "tokens", "corpus", "sample"], 40))
        for _ in range(30)
    ]
    i = 0
    for t in base:
        for _ in range(1 + i % 3):  # planted exact duplicates
            texts.append(t)
            ids.append(i)
            i += 1
    # low-quality rows (empty => quality 0): must drop at the quality gate
    for _ in range(8):
        texts.append("")
        ids.append(i)
        i += 1
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})


def test_curate_end_to_end(ray_session, tmp_path):
    from fs_schema_validator_ray.pipelines.curate import curate_documents

    t = _docs()
    ds = ray.data.from_arrow(t).repartition(4)
    out1 = str(tmp_path / "run1")
    os.makedirs(out1)
    s1 = curate_documents(ds, out1, min_quality=0.2, capacity_chars=600,
                          n_shards=4)
    assert s1["n_input"] == t.num_rows
    assert s1["n_after_quality"] == t.num_rows - 8  # shorts dropped
    # dedup kept exactly one per distinct text among survivors
    n_distinct = len(set(t.column("text").to_pylist()[: t.num_rows - 8]))
    assert s1["n_after_dedup"] == n_distinct
    total_rows = sum(s1["splits"][s]["rows"] for s in ("train", "val", "test"))
    assert total_rows == n_distinct

    # deterministic: a second run over the same input is byte-identical
    out2 = str(tmp_path / "run2")
    os.makedirs(out2)
    s2 = curate_documents(
        ray.data.from_arrow(t).repartition(4), out2,
        min_quality=0.2, capacity_chars=600, n_shards=4,
    )
    m1 = open(os.path.join(out1, "curation_manifest.json")).read()
    m2 = open(os.path.join(out2, "curation_manifest.json")).read()
    assert m1 == m2

    # layout: hive-partitioned shards under each split
    files = glob.glob(os.path.join(out1, "train", "shard_id=*", "*.parquet"))
    assert files
    # every kept doc id appears exactly once across all splits
    seen = []
    for split in ("train", "val", "test"):
        fs = glob.glob(os.path.join(out1, split, "shard_id=*", "*.parquet"))
        for f in fs:
            seen += pq.read_table(f, columns=["doc_id"]).column(
                "doc_id"
            ).to_pylist()
    assert len(seen) == n_distinct and len(set(seen)) == n_distinct


def test_failed_manifest_write_keeps_previous_manifest(ray_session, tmp_path, fail_sink_writes):
    """The curation manifest is written atomically: a write that fails
    mid-document leaves the previous manifest whole."""
    import pytest

    from fs_schema_validator_ray import sinks
    from fs_schema_validator_ray.pipelines.curate import curate_documents

    out = str(tmp_path / "run")
    os.makedirs(out)
    path = os.path.join(out, "curation_manifest.json")
    sinks.write_json_atomic(path, {"n_input": 1})

    fail_sink_writes()
    with pytest.raises(OSError, match="disk full"):
        curate_documents(ray.data.from_arrow(_docs()), out, min_quality=0.2,
                         capacity_chars=600, n_shards=2)
    with open(path) as f:
        assert json.load(f) == {"n_input": 1}
