"""Atomic JSON state writes (``sinks.write_json_atomic``)."""

import json
import os

import pytest

from fs_schema_validator_ray import sinks


def test_write_json_atomic_keeps_previous_document_on_failed_write(tmp_path, monkeypatch):
    path = str(tmp_path / "index_manifest.json")
    sinks.write_json_atomic(path, {"n_vectors": 10})

    def dump_half_then_fail(doc, f, **kwargs):
        f.write('{"n_vectors": 2')
        raise OSError("disk full")

    monkeypatch.setattr(sinks.json, "dump", dump_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        sinks.write_json_atomic(path, {"n_vectors": 20})
    monkeypatch.undo()

    with open(path) as f:
        assert json.load(f) == {"n_vectors": 10}
    sinks.write_json_atomic(path, {"n_vectors": 20})
    with open(path) as f:
        assert json.load(f) == {"n_vectors": 20}
    assert os.listdir(tmp_path) == ["index_manifest.json"]


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
