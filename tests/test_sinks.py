"""Atomic JSON state writes (``sinks.write_json_atomic``)."""

import io
import json
import os

import pytest

from fs_schema_validator_ray import sinks


def test_write_json_atomic_keeps_previous_document_on_failed_write(tmp_path, monkeypatch,
                                                                   fail_sink_writes):
    path = str(tmp_path / "index_manifest.json")
    sinks.write_json_atomic(path, {"n_vectors": 10})

    fail_sink_writes()
    with pytest.raises(OSError, match="disk full"):
        sinks.write_json_atomic(path, {"n_vectors": 20})
    monkeypatch.undo()

    with open(path) as f:
        assert json.load(f) == {"n_vectors": 10}
    sinks.write_json_atomic(path, {"n_vectors": 20})
    with open(path) as f:
        assert json.load(f) == {"n_vectors": 20}
    assert os.listdir(tmp_path) == ["index_manifest.json"]


@pytest.mark.parametrize("doc", [
    # a part-N manifest
    {"id": "part-3", "key": "0f3a9c2be1d47a56", "partition_id": 3, "status": "done",
     "files": ["/data/in/f-03.parquet", "/data/in/ünïcødé 名前.parquet"], "rows": 64,
     "read_bytes": 4711, "violations_path": "/out/violations/parts/partition_id=3",
     "violations": 2, "violations_by_rule": {"dur_range": 1, "codec_enum": 1},
     "stats_sketches_hex": {"dur_ms": {"kind": "tdigest", "blob": "00ff"}},
     "wall_s": 0.0123456789},
    # a drift doc: per-partition float metrics and histogram blobs
    {"id": "drift-drift_dur", "status": "done", "violations": 1,
     "metrics": {str(p): {"ks": p / 7, "psi": 1e-17 * p, "n": p * 100,
                          "mean": -2.5e300, "flag": p % 2 == 0} for p in range(8)},
     "violations_by_pid": {"3": 1}, "sketches_hex": {"0": "abcdef"}, "wall_s": 3.0},
    # the global doc: nested metrics, NaN and infinities, escapes
    {"id": "global", "status": "done", "violations": 5,
     "metrics": {"wall_s": 0.1, "path": "exact", "key_bytes": 1 << 40,
                 "candidate_cells": {"unique_clip": 3, "ключ \"q\"\n\t": 0},
                 "odd": [float("nan"), float("inf"), -float("inf"), -0.0, None, True]}},
])
def test_write_json_atomic_writes_the_bytes_of_json_dump(tmp_path, doc):
    path = str(tmp_path / "doc.json")
    sinks.write_json_atomic(path, doc)
    want = io.StringIO()
    json.dump(doc, want, sort_keys=True)
    with open(path, "rb") as f:
        assert f.read() == want.getvalue().encode()


def test_write_partitioned_parquet_roundtrip(ray_session, tmp_path):
    """Hive-partitioned write → per-partition pruned read-back."""
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.sinks import write_partitioned_parquet

    t = pa.table(
        {
            "shard": pa.array(["a", "a", "b", "b", "b"]),
            "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out = str(tmp_path / "out")
    parts = write_partitioned_parquet(
        ray.data.from_arrow(t).repartition(2), out, ["shard"]
    )
    assert any("shard=a" in p for p in parts) and any("shard=b" in p for p in parts)
    back = ray.data.read_parquet(os.path.join(out, "shard=b")).take_all()
    assert sorted(r["v"] for r in back) == [3, 4, 5]
