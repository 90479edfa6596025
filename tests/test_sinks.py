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
