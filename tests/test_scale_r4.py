"""Round-4 scale behaviors: adaptive hot-bucket splitting in the joins
and the deterministic shuffle / sharded export. (The data-aware
bucket-sizing tests live in ``test_exchange.py``.)"""

import pyarrow as pa
import ray.data


# --- adaptive hot-bucket splitting in hash_join (VERDICT r3 item 6) ---------


def test_hash_join_adaptive_skew_planted_hot_key(ray_session):
    """A planted 10⁶-row left side where one key owns 60% of the rows:
    the adaptive pre-pass must split that key's bucket so no single merge
    task holds the whole hot key, and the join output stays exactly equal
    to the pandas merge of the same input."""
    import numpy as np
    import pandas as pd

    from fs_schema_validator_ray.stages.joins import hash_join

    rng = np.random.default_rng(42)
    n = 1_000_000
    hot = 600_000
    keys = np.concatenate(
        [np.full(hot, 7, np.int64), rng.integers(0, 10_000, n - hot)]
    )
    lval = np.arange(n, dtype=np.int64)
    left = ray.data.from_arrow(
        pa.table({"k": keys, "lv": lval})
    )
    rkeys = np.arange(0, 10_000, dtype=np.int64)
    right = ray.data.from_arrow(
        pa.table({"rk": rkeys, "rv": rkeys * 10})
    )
    report: dict = {}
    out = hash_join(
        left, right, "k", "rk", ["lv"], ["rv"],
        how="inner", adaptive_skew=True, skew_split_cap_rows=50_000,
        _skew_report=report,
    ).to_pandas()

    assert report["n_hot"] >= 1
    splits = report["splits"]
    assert splits.max() > 1
    # the hot bucket was split enough that no sub-bucket holds the key
    assert hot / splits.max() < hot  # tautology guard
    assert splits.max() >= hot // 200_000  # ≥3-way split at cap 50k–4×med

    exp = pd.DataFrame({"k": keys, "lv": lval}).merge(
        pd.DataFrame({"k": rkeys, "rv": rkeys * 10}), on="k", how="inner"
    )
    assert len(out) == len(exp) == n  # right keys unique → 1 match per row
    got = out.sort_values(["lv"]).reset_index(drop=True)
    want = exp.sort_values(["lv"]).reset_index(drop=True)
    assert got["k"].tolist() == want["k"].tolist()
    assert got["rv"].tolist() == want["rv"].tolist()


def test_hash_join_adaptive_off_for_small_inputs(ray_session):
    """Auto mode must not pay the pre-pass for small inputs (metadata
    row estimate under the 1M threshold → uniform buckets)."""
    from fs_schema_validator_ray.stages.joins import hash_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "lv": [10, 20, 30]}))
    right = ray.data.from_arrow(pa.table({"rk": [2, 3], "rv": [200, 300]}))
    report: dict = {}
    out = hash_join(
        left, right, "k", "rk", ["lv"], ["rv"], _skew_report=report
    ).to_pandas()
    assert report["n_hot"] == 0
    assert sorted(out["lv"].tolist()) == [20, 30]


def test_hash_join_adaptive_keeps_one_bucket_when_nothing_is_hot(ray_session):
    """The pre-pass counts a one-bucket join at SKEW_DETECT_BUCKETS
    buckets; a uniform left side has no hot bucket there, so the join
    keeps its one bucket (no split, no shuffle) and stays exact."""
    import numpy as np

    from fs_schema_validator_ray.stages.joins import hash_join

    n = 200_000
    keys = np.arange(n, dtype=np.int64) % 10_000
    left = ray.data.from_arrow(pa.table({"k": keys, "lv": np.arange(n)}))
    rkeys = np.arange(0, 10_000, 2, dtype=np.int64)
    right = ray.data.from_arrow(pa.table({"rk": rkeys, "rv": rkeys * 10}))
    report: dict = {}
    out = hash_join(
        left, right, "k", "rk", ["lv"], ["rv"], n_buckets=1,
        adaptive_skew=True, skew_split_cap_rows=5_000, _skew_report=report,
    ).to_pandas()
    assert report["n_hot"] == 0
    assert report["splits"].tolist() == [1]
    assert len(out) == n // 2
    assert (out["rv"] == out["k"] * 10).all()


def test_hash_join_adaptive_left_join_with_nulls(ray_session):
    """Splitting must preserve left-join semantics: unmatched and
    null-key left rows emit exactly once with null right columns."""
    import numpy as np

    from fs_schema_validator_ray.stages.joins import hash_join

    n = 30_000
    keys = np.full(n, 5, np.int64)
    ktbl = pa.table(
        {
            "k": pa.array(list(keys) + [None, 99], pa.int64()),
            "lv": pa.array(list(range(n)) + [n, n + 1], pa.int64()),
        }
    )
    left = ray.data.from_arrow(ktbl)
    right = ray.data.from_arrow(pa.table({"rk": [5], "rv": [50]}))
    report: dict = {}
    out = hash_join(
        left, right, "k", "rk", ["lv"], ["rv"],
        how="left", adaptive_skew=True, skew_split_cap_rows=5_000,
        _skew_report=report,
    ).to_pandas()
    assert report["n_hot"] >= 1
    assert len(out) == n + 2
    matched = out[out["rv"].notna()]
    assert len(matched) == n and set(matched["k"]) == {5}
    unmatched = out[out["rv"].isna()]
    assert sorted(unmatched["lv"].tolist()) == [n, n + 1]


# --- adaptive hot-bucket splitting in semi_anti_join (r4 continuation) -------


def test_semi_anti_join_adaptive_skew_planted_hot_key(ray_session):
    """Same planted-hot-key shape as the hash_join test: one key owns 60%
    of a 1M-row left side. The semi/anti verdict is independent per left
    row, so the split only replicates the bucket's DISTINCT right keys —
    output must equal the set-membership ground truth exactly."""
    import numpy as np

    from fs_schema_validator_ray.stages.joins import semi_anti_join

    rng = np.random.default_rng(7)
    n = 1_000_000
    hot = 600_000
    keys = np.concatenate(
        [np.full(hot, 7, np.int64), rng.integers(0, 10_000, n - hot)]
    )
    lval = np.arange(n, dtype=np.int64)
    left = ray.data.from_arrow(pa.table({"k": keys, "lv": lval}))
    # right side: even keys only (so key 7 — the hot key — does NOT match)
    rkeys = np.arange(0, 10_000, 2, dtype=np.int64)
    right = ray.data.from_arrow(pa.table({"rk": rkeys}))

    member = np.isin(keys, rkeys)
    for how, want_mask in (("semi", member), ("anti", ~member)):
        report: dict = {}
        out = semi_anti_join(
            left, right, "k", "rk", ["lv"], how=how,
            adaptive_skew=True, skew_split_cap_rows=50_000,
            _skew_report=report,
        ).to_pandas()
        assert report["n_hot"] >= 1
        assert report["splits"].max() >= 3
        want = np.sort(lval[want_mask])
        got = np.sort(out["lv"].to_numpy())
        assert len(got) == len(want)
        assert (got == want).all()


def test_semi_anti_join_adaptive_null_keys_kept_by_anti(ray_session):
    """Splitting must preserve EXISTS/NOT EXISTS null semantics: a null
    left key drops from semi and is KEPT by anti, exactly once."""
    import numpy as np

    from fs_schema_validator_ray.stages.joins import semi_anti_join

    n = 30_000
    tbl = pa.table(
        {
            "k": pa.array([5] * n + [None, 99], pa.int64()),
            "lv": pa.array(list(range(n)) + [n, n + 1], pa.int64()),
        }
    )
    left = ray.data.from_arrow(tbl)
    right = ray.data.from_arrow(pa.table({"rk": pa.array([5], pa.int64())}))
    report: dict = {}
    semi = semi_anti_join(
        left, right, "k", "rk", ["lv"], how="semi",
        adaptive_skew=True, skew_split_cap_rows=5_000, _skew_report=report,
    ).to_pandas()
    assert report["n_hot"] >= 1
    assert len(semi) == n and set(semi["k"]) == {5}
    anti = semi_anti_join(
        left, right, "k", "rk", ["lv"], how="anti",
        adaptive_skew=True, skew_split_cap_rows=5_000,
    ).to_pandas()
    assert sorted(anti["lv"].tolist()) == [n, n + 1]


# --- deterministic shuffle + sharded export (r4 continuation #2) -------------


def test_shuffle_deterministic_across_parallelism(ray_session):
    """The shuffle key is a pure function of doc_id: re-running with a
    different block structure must give the IDENTICAL global order
    (the restart/cluster-resize reproducibility contract)."""
    import pandas as pd

    from fs_schema_validator_ray.pipelines.queries import (
        shuffle_deterministic_documents,
    )

    a = (
        shuffle_deterministic_documents("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        shuffle_deterministic_documents("/root/testdata/sf0.001")
        .repartition(7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # positions are a permutation of 1..n and NOT the identity order
    n = len(a)
    assert sorted(a["shuffle_pos"]) == list(range(1, n + 1))
    assert not (a.sort_values("shuffle_pos")["doc_id"].is_monotonic_increasing)


def test_shard_export_write_and_pruned_readback(ray_session, tmp_path):
    """The manifest query's shard assignment drives an actual
    hive-partitioned write; each shard directory reads back alone
    (resume contract) and re-unions to the full corpus."""
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.pipelines.queries import _shuffle_hash
    from fs_schema_validator_ray.sinks import write_partitioned_parquet

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def assign(t: pa.Table) -> pa.Table:
        shard = (_shuffle_hash(t.column("doc_id").to_numpy()) % 4).astype(
            np.int64
        )
        return t.append_column("shard", pa.array(shard, pa.int64()))

    out = str(tmp_path / "export")
    write_partitioned_parquet(
        ds.map_batches(assign, batch_format="pyarrow"), out, ["shard"]
    )
    total = 0
    seen = set()
    for s in range(4):
        part = ray.data.read_parquet(os.path.join(out, f"shard={s}")).to_pandas()
        assert (_shuffle_hash(part["doc_id"].to_numpy()) % 4 == s).all()
        seen.update(part["doc_id"])
        total += len(part)
    full = ds.to_pandas()
    assert total == len(full) and seen == set(full["doc_id"])
