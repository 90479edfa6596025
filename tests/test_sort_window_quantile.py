"""Global sort/rank/NTILE, per-key windows, semi/anti join, grouped
quantiles, chunking, spectrogram + VAD — ground-truth checks."""

import math

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray import audio


def tone(freq, sr=16000, dur_s=1.0, amp=0.5):
    t = np.arange(int(sr * dur_s)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


# --- global_sort_rank -------------------------------------------------------


def test_global_sort_rank_permutation_many_blocks(ray_session):
    """Ranks are exactly 1..n in value order even when the input arrives
    as MANY small blocks (regression: the partition-count pass must sum
    duplicate-pid partials with np.add.at, not fancy-index +=)."""
    import ray.data

    from fs_schema_validator_ray.stages.sort import global_sort_rank

    rng = np.random.default_rng(7)
    n = 2000
    vals = rng.permutation(n).astype(np.float64)
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)), "v": pa.array(vals)})
    # 40 tiny blocks so iter_batches coalesces several count partials
    ds = ray.data.from_arrow(t).repartition(40)
    out = global_sort_rank(ds, "v", ["id"], n_tiles=4, n_parts=8).to_pandas()
    assert len(out) == n
    assert sorted(out["rnk"]) == list(range(1, n + 1))
    by_rank = out.sort_values("rnk")
    assert np.all(np.diff(by_rank["v"].to_numpy()) > 0)
    # ANSI NTILE sizes: 2000/4 → four tiles of 500
    sizes = out.groupby("tile").size()
    assert sorted(sizes.index) == [1, 2, 3, 4] and set(sizes) == {500}
    # tile boundaries respect rank order
    assert np.all(np.diff(by_rank["tile"].to_numpy()) >= 0)


def test_global_sort_rank_ties_and_remainder_tiles(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.sort import global_sort_rank

    # heavy ties on the sort column: tiebreak column decides rank
    t = pa.table(
        {
            "v": pa.array([5.0, 1.0, 5.0, 1.0, 5.0, 3.0, 3.0, 2.0, 4.0, 0.0]),
            "id": pa.array(list(range(10)), pa.int64()),
        }
    )
    out = (
        global_sort_rank(ray.data.from_arrow(t).repartition(3), "v", ["id"], n_tiles=4)
        .to_pandas()
        .sort_values("rnk")
    )
    assert list(out["rnk"]) == list(range(1, 11))
    assert list(zip(out["v"], out["id"])) == sorted(zip(t["v"].to_pylist(), t["id"].to_pylist()))
    # 10 rows / 4 tiles → sizes 3,3,2,2 (remainder-first, DuckDB-verified)
    sizes = out.groupby("tile").size()
    assert list(sizes) == [3, 3, 2, 2]


def test_global_sort_rank_descending(ray_session):
    """DESC rank on a float column with ties + on a STRING column (the
    unique-code negation path — no numeric negate available)."""
    import ray.data

    from fs_schema_validator_ray.stages.sort import global_sort_rank

    t = pa.table(
        {
            "v": pa.array([5.0, 1.0, 5.0, 1.0, 5.0, 3.0, 3.0, 2.0, 4.0, 0.0]),
            "id": pa.array(list(range(10)), pa.int64()),
        }
    )
    out = (
        global_sort_rank(
            ray.data.from_arrow(t).repartition(3), "v", ["id"], descending=True
        )
        .to_pandas()
        .sort_values("rnk")
    )
    expect = sorted(zip(t["v"].to_pylist(), t["id"].to_pylist()), key=lambda p: (-p[0], p[1]))
    assert list(out["rnk"]) == list(range(1, 11))
    assert list(zip(out["v"], out["id"])) == expect

    s = pa.table(
        {
            "name": pa.array(["pear", "apple", "fig", "apple", "kiwi", "fig"]),
            "id": pa.array(list(range(6)), pa.int64()),
        }
    )
    out = (
        global_sort_rank(
            ray.data.from_arrow(s).repartition(2), "name", ["id"], descending=True, n_parts=3
        )
        .to_pandas()
        .sort_values("rnk")
    )
    # ORDER BY name DESC, id ASC: stable sort ascending on id, then
    # stable descending on name
    expect = sorted(zip(s["name"].to_pylist(), s["id"].to_pylist()), key=lambda p: p[1])
    expect.sort(key=lambda p: p[0], reverse=True)
    assert list(zip(out["name"], out["id"])) == expect


def test_global_sort_rank_not_materialized(ray_session):
    """The pruned projection must NOT be pinned by default: upstream is
    consumed lazily per pass (lineage re-execution). We assert the
    upstream map runs more than once — proof there is no materialize."""
    import ray
    import ray.data

    from fs_schema_validator_ray.stages.sort import global_sort_rank

    counter = ray.remote(
        type("C", (), {
            "__init__": lambda self: setattr(self, "n", 0),
            "bump": lambda self: setattr(self, "n", self.n + 1),
            "get": lambda self: self.n,
        })
    ).remote()

    t = pa.table(
        {"v": pa.array(np.arange(100, dtype=np.int64)), "id": pa.array(np.arange(100, dtype=np.int64))}
    )

    def bump(batch: pa.Table) -> pa.Table:
        ray.get(counter.bump.remote())
        return batch

    ds = ray.data.from_arrow(t).repartition(4).map_batches(bump, batch_format="pyarrow")
    out = global_sort_rank(ds, "v", ["id"], n_parts=4).to_pandas()
    assert sorted(out["rnk"]) == list(range(1, 101))
    # 3 passes × 4 blocks = 12 upstream executions when streaming; a
    # pinned projection would show exactly 4
    assert ray.get(counter.get.remote()) > 4


def test_global_running_sum_many_blocks(ray_session):
    """Exact global prefix sum over a range-partitioned order, with the
    input arriving as many small blocks (same duplicate-pid partial
    hazard as the rank count pass)."""
    import ray.data

    from fs_schema_validator_ray.stages.sort import global_running_sum

    rng = np.random.default_rng(5)
    n = 1500
    keys = rng.permutation(n).astype(np.int64)
    w = rng.integers(1, 100, n).astype(np.int64)
    t = pa.table({"k": pa.array(keys), "w": pa.array(w)})
    out = (
        global_running_sum(ray.data.from_arrow(t).repartition(30), "k", [], "w")
        .to_pandas()
        .sort_values("k")
    )
    expect = np.cumsum(w[np.argsort(keys)])
    assert np.array_equal(out["running_w"].to_numpy(), expect)


# --- per_key_window ---------------------------------------------------------


def test_per_key_window_ground_truth(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_window

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "a", "b", "b", "c"]),
            "ts": pa.array([3, 1, 2, 4, 10, 5, 1], pa.int64()),
            "rid": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
            "val": pa.array([30, 10, 20, 40, 7, 5, 9], pa.int64()),
        }
    )
    out = per_key_window(
        ray.data.from_arrow(t).repartition(3),
        key_column="k",
        order_columns=["ts", "rid"],
        value_column="val",
        id_columns=["rid"],
    ).to_pandas()
    by_rid = out.set_index("rid")
    # key a ordered by ts: vals 10,20,30,40 (rids 1,2,0,3)
    assert by_rid.loc[1, "running_val"] == 10 and math.isnan(by_rid.loc[1, "prev_val"])
    assert by_rid.loc[2, "prev_val"] == 10 and by_rid.loc[2, "running_val"] == 30
    assert by_rid.loc[0, "prev_val"] == 20 and by_rid.loc[0, "running_val"] == 60
    assert by_rid.loc[3, "rolling3_val"] == 20 + 30 + 40
    assert by_rid.loc[0, "rolling3_val"] == 10 + 20 + 30
    # key b ordered by ts: 5 (rid 5) then 7 (rid 4)
    assert math.isnan(by_rid.loc[5, "prev_val"]) and by_rid.loc[4, "prev_val"] == 5
    assert by_rid.loc[4, "running_val"] == 12
    # singleton key c
    assert by_rid.loc[6, "running_val"] == 9 and by_rid.loc[6, "rolling3_val"] == 9


def test_per_key_window_null_values_and_order(ray_session):
    """SQL null semantics: sums skip null addends (NULL only when the
    frame has no valid value), LAG of a null value is null, null order
    keys sort ASC NULLS LAST — regression for the silent INT64_MIN
    conversion of arrow nulls."""
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_window

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b"]),
            "ts": pa.array([1, 2, None, 1, 2], pa.int64()),
            "rid": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "val": pa.array([None, 10, 20, None, None], pa.int64()),
        }
    )
    out = per_key_window(
        ray.data.from_arrow(t),
        key_column="k",
        order_columns=["ts", "rid"],
        value_column="val",
        id_columns=["rid"],
    ).to_pandas().set_index("rid")
    # key a order: rid0 (val null), rid1 (10), rid2 (ts null → LAST, 20)
    assert math.isnan(out.loc[0, "running_val"])  # frame = {null}
    assert out.loc[1, "running_val"] == 10 and math.isnan(out.loc[1, "prev_val"])
    assert out.loc[2, "running_val"] == 30 and out.loc[2, "prev_val"] == 10
    assert out.loc[2, "rolling3_val"] == 30
    # key b: every value null → all sums null, LAG of null is null
    for rid in (3, 4):
        assert math.isnan(out.loc[rid, "running_val"])
        assert math.isnan(out.loc[rid, "rolling3_val"])
        assert math.isnan(out.loc[rid, "prev_val"])


# --- semi / anti join -------------------------------------------------------


def _join_sides(ray_data, left_keys, right_keys):
    left = ray_data.from_arrow(
        pa.table(
            {
                "lk": pa.array(left_keys, pa.int64()),
                "tag": pa.array([f"r{i}" for i in range(len(left_keys))]),
            }
        )
    ).repartition(2)
    right = ray_data.from_arrow(
        pa.table({"rk": pa.array(right_keys, pa.int64())})
    ).repartition(2)
    return left, right


def test_semi_anti_join_with_null_keys(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.joins import semi_anti_join

    left_keys = [1, 2, None, 3, 2]
    right_keys = [2, 2, 4, None]
    left, right = _join_sides(ray.data, left_keys, right_keys)
    semi = semi_anti_join(left, right, "lk", "rk", ["tag"], how="semi").take_all()
    # EXISTS: only lk=2 rows match; null left key matches nothing
    assert sorted(r["tag"] for r in semi) == ["r1", "r4"]
    anti = semi_anti_join(left, right, "lk", "rk", ["tag"], how="anti").take_all()
    # NOT EXISTS keeps the null-key row (null never matches)
    assert sorted(r["tag"] for r in anti) == ["r0", "r2", "r3"]


def test_semi_join_empty_right(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.joins import semi_anti_join

    left, right = _join_sides(ray.data, [1, 2], [7])
    import pyarrow.compute as pc

    right = right.map_batches(
        lambda t: t.filter(pc.greater(t.column("rk"), 100)), batch_format="pyarrow"
    )
    assert semi_anti_join(left, right, "lk", "rk", ["tag"], how="semi").count() == 0
    anti = semi_anti_join(left, right, "lk", "rk", ["tag"], how="anti")
    assert sorted(r["tag"] for r in anti.take_all()) == ["r0", "r1"]


def test_group_sum_matches_arrow_group_by(ray_session):
    """``group_sum`` over the bucketed exchange equals one single-process
    Arrow group-by of the same table, at one bucket and at eight: near-
    unique string keys with null keys and null values, a composite key,
    zero keys (the grand total) and an empty input."""
    import ray.data

    from fs_schema_validator_ray.stages.agg import group_sum

    rng = np.random.default_rng(13)
    n = 3000
    keys = [None if rng.random() < 0.01 else f"u{rng.integers(0, 2000)}" for _ in range(n)]
    vals = pa.array(
        [None if rng.random() < 0.05 else int(v) for v in rng.integers(-50, 50, n)],
        pa.int64(),
    )
    g = pa.array([None if rng.random() < 0.05 else int(v) for v in rng.integers(0, 4, n)],
                 pa.int64())
    t = pa.table({"k": pa.array(keys), "g": g, "v": vals})

    def reference(tbl, ks):
        out = pa.TableGroupBy(tbl, ks).aggregate([("v", "sum"), ([], "count_all")])
        return pa.table({**{k: out.column(k) for k in ks}, "v": out.column("v_sum"),
                         "n": out.column("count_all")})

    def rows(tbl, ks):
        cols = [*ks, "v", "n"]
        return sorted((tuple(r[c] for c in cols) for r in tbl),
                      key=lambda r: [(x is None, x or 0) for x in r])

    cases = {"near-unique key": (t, ["k"]), "composite key": (t, ["g", "k"]),
             "zero keys": (t, []), "empty input": (t.slice(0, 0), ["k"])}
    for n_buckets in (1, 8):
        for name, (tbl, ks) in cases.items():
            ds = ray.data.from_arrow(tbl).repartition(9)
            got = group_sum(ds, ks, ["v"], n_buckets=n_buckets).take_all()
            want = reference(tbl, ks).to_pylist()
            assert rows(got, ks) == rows(want, ks), (name, n_buckets)


# --- grouped_quantile_disc --------------------------------------------------


def test_grouped_quantile_disc_ground_truth(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.agg import grouped_quantile_disc

    rng = np.random.default_rng(11)
    keys = rng.choice(["x", "y", "z"], size=600).tolist()
    vals = rng.integers(0, 50, size=600).astype(np.int64)
    # plant some nulls: excluded from both quantile and n
    mask = rng.random(600) < 0.1
    varr = pa.array([None if m else int(v) for m, v in zip(mask, vals)], pa.int64())
    t = pa.table({"k": pa.array(keys), "v": varr})
    ds = ray.data.from_arrow(t).repartition(7)
    out = (
        grouped_quantile_disc(ds, "k", "v", [0.25, 0.5, 0.75])
        .to_pandas()
        .set_index("k")
    )
    for key in ["x", "y", "z"]:
        expect = sorted(
            int(v) for kk, v, m in zip(keys, vals, mask) if kk == key and not m
        )
        n = len(expect)
        assert out.loc[key, "n"] == n
        for q, col in [(0.25, "q_25"), (0.5, "q_50"), (0.75, "q_75")]:
            # DuckDB quantile_disc: element at 0-based ceil(q*n)-1
            assert out.loc[key, col] == expect[max(0, math.ceil(q * n) - 1)], (key, q)


def test_grouped_quantile_disc_all_null_group(ray_session):
    """A key whose values are ALL null still emits (key, n=0, NULL
    quantiles) — matches SQL GROUP BY + quantile_disc."""
    import ray.data

    from fs_schema_validator_ray.stages.agg import grouped_quantile_disc

    t = pa.table(
        {
            "k": pa.array(["a", "a", "allnull", "allnull", "b"]),
            "v": pa.array([4, 2, None, None, 7], pa.int64()),
        }
    )
    out = (
        grouped_quantile_disc(ray.data.from_arrow(t).repartition(2), "k", "v", [0.5])
        .to_pandas()
        .set_index("k")
    )
    assert sorted(out.index) == ["a", "allnull", "b"]
    assert out.loc["allnull", "n"] == 0 and math.isnan(out.loc["allnull", "q_50"])
    assert out.loc["a", "n"] == 2 and out.loc["a", "q_50"] == 2
    assert out.loc["b", "n"] == 1 and out.loc["b", "q_50"] == 7


# --- ChunkStage -------------------------------------------------------------


def test_chunk_stage_overlap_and_unicode():
    from fs_schema_validator_ray.stages.text import ChunkStage

    stage = ChunkStage(size=5, stride=3)
    batch = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c", "d", "e"]),
            "text": pa.array(["abcdefgh", "xyz", "", None, "éü漢字πβγδ"]),
        }
    )
    out = stage(batch).to_pylist()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for rows in by_doc.values():
        rows.sort(key=lambda r: r["chunk_idx"])
    # "abcdefgh" (8 chars, stride 3) → starts 0,3,6
    assert [r["chunk_text"] for r in by_doc["a"]] == ["abcde", "defgh", "gh"]
    assert [r["start"] for r in by_doc["a"]] == [0, 3, 6]
    assert [r["chunk_len"] for r in by_doc["a"]] == [5, 5, 2]
    # short doc → one chunk; empty/null docs → no chunks
    assert [r["chunk_text"] for r in by_doc["b"]] == ["xyz"]
    assert "c" not in by_doc and "d" not in by_doc
    # codepoint (not byte) slicing for multibyte text
    assert [r["chunk_text"] for r in by_doc["e"]] == ["éü漢字π", "字πβγδ", "γδ"]


def test_chunk_stage_empty_batch_schema_stability():
    """All-empty batches keep the INPUT string type for chunk_text so
    mixed blocks unify (regression: hardcoded pa.string() vs a
    large_string corpus)."""
    from fs_schema_validator_ray.stages.text import ChunkStage

    stage = ChunkStage()
    for ty in (pa.string(), pa.large_string()):
        empty = stage(
            pa.table({"doc_id": pa.array([], pa.string()), "text": pa.array([], ty)})
        )
        assert empty.num_rows == 0
        assert empty.schema.names == [
            "doc_id", "chunk_idx", "start", "chunk_text", "chunk_len",
        ]
        full = stage(
            pa.table({"doc_id": pa.array(["a"]), "text": pa.array(["hello"], ty)})
        )
        assert full.schema.field("chunk_text").type == empty.schema.field("chunk_text").type == ty


# --- spectrogram ------------------------------------------------------------


def test_spectrogram_bands_tone_location():
    from fs_schema_validator_ray.stages.audio_features import (
        _SPEC_FRAME,
        _SPEC_HOP,
        spectrogram_bands,
    )

    sr = 16000
    x = tone(3000, sr=sr, dur_s=0.5)
    n_frames, db = spectrogram_bands(x, sr)
    assert n_frames == 1 + (len(x) - _SPEC_FRAME) // _SPEC_HOP
    # log-spaced 50..8000 Hz over 8 bands: 3000 Hz falls in band 6
    edges = np.geomspace(50.0, sr / 2.0, 9)
    expect_band = int(np.searchsorted(edges, 3000.0, side="right") - 1)
    assert int(np.argmax(db)) == expect_band
    # silence → floor everywhere
    _, silent_db = spectrogram_bands(np.zeros(sr), sr)
    assert np.all(silent_db < -100)


def test_spectrogram_stage_batch():
    from fs_schema_validator_ray.stages.audio_features import SpectrogramStage

    sr = 16000
    payload = audio.encode(tone(1000, sr=sr, dur_s=0.25), sr, "pcm_s16le")
    batch = pa.table(
        {
            "clip_id": pa.array(["ok", "bad"]),
            "bytes": pa.array([payload, b"junk"], pa.binary()),
        }
    )
    out = {r["clip_id"]: r for r in SpectrogramStage()(batch).to_pylist()}
    assert out["ok"]["decode_ok"] and out["ok"]["sr_hz"] == sr
    assert out["ok"]["n_frames"] > 0
    assert not out["bad"]["decode_ok"]


def test_audio_chunk_stage_windows_roundtrip():
    from fs_schema_validator_ray.stages.audio_features import AudioChunkStage

    sr = 16000
    x = tone(440, sr=sr, dur_s=2.25)  # 2.25 s → windows at 0,.5,1,1.5 (+1.75 tail?)
    batch = pa.table(
        {
            "clip_id": pa.array(["c", "short", "bad"]),
            "bytes": pa.array(
                [
                    audio.encode(x, sr, "pcm_s16le"),
                    audio.encode(tone(440, sr=sr, dur_s=0.2), sr, "pcm_s16le"),
                    b"junk",
                ],
                pa.binary(),
            ),
        }
    )
    out = AudioChunkStage(window_ms=1000, stride_ms=500)(batch).to_pylist()
    segs = [r for r in out if r["clip_id"] == "c"]
    # starts 0/0.5/1.0/1.25(s): window at 1.5s has 0.75s ≥ min_fill, at
    # 2.0s only 0.25s < 0.5 fill → dropped
    assert [r["start_ms"] for r in segs] == [0.0, 500.0, 1000.0, 1500.0]
    assert [r["n_samples"] for r in segs] == [sr, sr, sr, int(0.75 * sr)]
    assert [r["seg_idx"] for r in segs] == [0, 1, 2, 3]
    # each payload is a standalone decodable WAV of exactly the window
    for r in segs:
        y, sr2, codec = audio.decode(r["bytes"])
        assert sr2 == sr and codec == "pcm_s16le" and len(y) == r["n_samples"]
        start = int(r["start_ms"] * sr / 1000)
        assert np.max(np.abs(y - x[start : start + len(y)])) < 1e-3
    # a 0.2 s clip has no window ≥ 0.5 s fill; junk decodes to nothing
    assert {r["clip_id"] for r in out} == {"c"}


# --- VAD --------------------------------------------------------------------


def test_vad_segments_tone_burst():
    from fs_schema_validator_ray.stages.audio_features import vad_segments

    sr = 16000
    x = np.concatenate(
        [np.zeros(sr // 2), tone(440, sr=sr, dur_s=0.5), np.zeros(sr // 2)]
    )
    segs = vad_segments(x, sr)
    assert len(segs) == 1
    s_ms, e_ms, seg_db = segs[0]
    # the burst spans [500, 1000) ms; frame granularity is 25/10 ms
    assert s_ms == pytest.approx(500.0, abs=30.0)
    assert e_ms == pytest.approx(1000.0, abs=30.0)
    assert seg_db == pytest.approx(-9.03, abs=1.0)
    assert vad_segments(np.zeros(sr), sr) == []


def test_vad_stage_batch():
    from fs_schema_validator_ray.stages.audio_features import VadStage

    sr = 16000
    burst = np.concatenate([np.zeros(sr // 4), tone(440, sr=sr, dur_s=0.25)])
    batch = pa.table(
        {
            "clip_id": pa.array(["v", "silent", "bad"]),
            "bytes": pa.array(
                [
                    audio.encode(burst, sr, "pcm_s16le"),
                    audio.encode(np.zeros(sr // 4), sr, "pcm_s16le"),
                    b"junk",
                ],
                pa.binary(),
            ),
        }
    )
    out = VadStage()(batch).to_pylist()
    assert {r["clip_id"] for r in out} == {"v"}
    assert out[0]["start_ms"] == pytest.approx(250.0, abs=30.0)


def test_per_key_rank_ties_and_nulls(ray_session):
    """RANK/DENSE_RANK share values on ties (gaps vs no gaps), null rank
    values sort last (SQL ASC NULLS LAST), null keys form one partition."""
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_rank

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "a", None, None], pa.string()),
            "v": pa.array([10, 10, 20, None, 5, 5], pa.int64()),
            "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    out = per_key_rank(
        ray.data.from_arrow(t), "k", ["v"], ["id"], id_columns=["id"], n_buckets=4
    ).take_all()
    by_id = {r["id"]: (r["rn"], r["rank"], r["dense_rank"]) for r in out}
    assert by_id == {
        1: (1, 1, 1),
        2: (2, 1, 1),   # tied on v=10: same rank/dense_rank, rn advances
        3: (3, 3, 2),   # rank has a gap after the 2-way tie, dense does not
        4: (4, 4, 3),   # null v sorts last
        5: (1, 1, 1),   # null-key partition
        6: (2, 1, 1),
    }


def test_range_window_peers_nulls(ray_session):
    """RANGE frame includes ts PEERS (equal ts later in row order), the
    window start is inclusive (ts == t-preceding in frame), null ts rows
    form their own peer group, null values skip with SQL NULL-sum rules."""
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_range_window_sum

    t = pa.table(
        {
            "k": pa.array(["a"] * 5 + ["b"] * 2, pa.string()),
            "ts": pa.array([0, 10, 10, 15, None, 3, None], pa.int64()),
            "v": pa.array([1, 2, 4, 8, 16, 32, None], pa.int64()),
            "id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        }
    )
    out = {r["id"]: r["win_v"] for r in per_key_range_window_sum(
        ray.data.from_arrow(t).repartition(3), "k", "ts", "v",
        preceding=10, id_columns=["id"], n_buckets=4,
    ).take_all()}
    assert out == {
        1: 1,        # ts=0: only itself
        2: 7,        # ts=10, preceding 10 → ts∈[0,10], peers incl. id3
        3: 7,
        4: 14,       # ts=15 → ts∈[5,15]: ids 2,3,4
        5: 16,       # null ts: its own peer group
        6: 32,       # other key
        7: None,     # null ts peer group, value null → SQL NULL sum
    }


# --- per_key_shift (LEAD / FIRST_VALUE / LAST_VALUE) -------------------------


def test_per_key_shift_ground_truth(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_shift

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", "c"]),
            "ts": pa.array([3, 1, 2, 10, 5, 1], pa.int64()),
            "rid": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "val": pa.array(["x3", "x1", "x2", "y10", "y5", "z"], pa.string()),
        }
    )
    out = (
        per_key_shift(
            ray.data.from_arrow(t).repartition(3),
            key_column="k",
            order_columns=["ts", "rid"],
            value_column="val",
            id_columns=["rid"],
            n_buckets=4,
        )
        .to_pandas()
        .set_index("rid")
    )
    # key a ordered by ts: x1, x2, x3 (rids 1, 2, 0)
    assert out.loc[1, "lead_val"] == "x2" and out.loc[2, "lead_val"] == "x3"
    assert out.loc[0, "lead_val"] is None  # last row of partition
    for rid in (0, 1, 2):
        assert out.loc[rid, "first_val"] == "x1"
        assert out.loc[rid, "last_val"] == "x3"
    # key b ordered by ts: y5 then y10
    assert out.loc[4, "lead_val"] == "y10" and out.loc[3, "lead_val"] is None
    assert out.loc[3, "first_val"] == "y5" and out.loc[4, "last_val"] == "y10"
    # singleton c
    assert out.loc[5, "lead_val"] is None
    assert out.loc[5, "first_val"] == "z" and out.loc[5, "last_val"] == "z"


def test_per_key_shift_null_values_and_lead2(ray_session):
    """LEAD(k=2), null led values stay null, null order keys sort last,
    native value dtype preserved (no int64 coercion)."""
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_shift

    t = pa.table(
        {
            "k": pa.array(["a"] * 4, pa.string()),
            "ts": pa.array([1, 2, None, 3], pa.int64()),
            "rid": pa.array([0, 1, 2, 3], pa.int64()),
            "val": pa.array([1.5, None, 4.5, 3.5], pa.float64()),
        }
    )
    ds = per_key_shift(
        ray.data.from_arrow(t),
        key_column="k",
        order_columns=["ts", "rid"],
        value_column="val",
        id_columns=["rid"],
        lead=2,
        n_buckets=2,
    )
    tbl = pa.concat_tables(
        [ray.get(ref) for ref in ds.to_arrow_refs()]
    ).combine_chunks()
    assert tbl.column("lead_val").type == pa.float64()
    rows = {r["rid"]: r for r in tbl.to_pylist()}
    # order: ts 1,2,3, then null-ts last → rids 0,1,3,2
    assert rows[0]["lead_val"] == 3.5       # two ahead of rid0 is rid3
    assert rows[1]["lead_val"] == 4.5       # two ahead of rid1 is rid2
    assert rows[3]["lead_val"] is None      # past partition end
    assert rows[2]["lead_val"] is None
    for rid in range(4):
        assert rows[rid]["first_val"] == 1.5
        assert rows[rid]["last_val"] == 4.5


def test_per_key_rank_extended_percent_cume(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_rank

    t = pa.table(
        {
            "k": pa.array(["a"] * 4 + ["b"], pa.string()),
            "v": pa.array([10, 10, 20, 30, 5], pa.int64()),
            "rid": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    out = (
        per_key_rank(
            ray.data.from_arrow(t).repartition(2),
            "k", ["v"], ["rid"], id_columns=["rid"], extended=True, n_buckets=4,
        )
        .to_pandas()
        .set_index("rid")
    )
    # key a: values 10,10,20,30 → ranks 1,1,3,4
    assert out.loc[0, "percent_rank"] == 0.0 and out.loc[1, "percent_rank"] == 0.0
    assert out.loc[2, "percent_rank"] == (3 - 1) / 3
    assert out.loc[3, "percent_rank"] == 1.0
    # cume_dist counts peers inclusively
    assert out.loc[0, "cume_dist"] == 0.5 and out.loc[1, "cume_dist"] == 0.5
    assert out.loc[2, "cume_dist"] == 0.75 and out.loc[3, "cume_dist"] == 1.0
    # singleton partition: percent_rank 0, cume_dist 1
    assert out.loc[4, "percent_rank"] == 0.0 and out.loc[4, "cume_dist"] == 1.0


def test_per_key_ewma_matches_reference_recurrence(ray_session):
    """Chunked renormalized scan == the plain per-row recurrence
    y_i = α·x_i + (1−α)·y_{i−1} with y reset to 0 at each key's start —
    _chunk=4 forces several cross-chunk carries within one segment."""
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_ewma

    rng = np.random.default_rng(9)
    n = 50
    keys = np.array(["a"] * 30 + ["b"] * 15 + ["c"] * 5)
    ts = np.concatenate([np.arange(30), np.arange(15), np.arange(5)])
    vals = np.round(rng.normal(0, 10, n), 3)
    vals[7] = np.nan  # null value contributes 0, decay advances
    va = pa.array([None if np.isnan(v) else float(v) for v in vals], pa.float64())
    t = pa.table(
        {
            "k": pa.array(keys),
            "ts": pa.array(ts, pa.int64()),
            "rid": pa.array(np.arange(n), pa.int64()),
            "v": va,
        }
    )
    alpha = 0.3
    out = (
        per_key_ewma(
            ray.data.from_arrow(t).repartition(4),
            "k", ["ts"], "v", alpha=alpha,
            id_columns=["rid"], n_buckets=4, _chunk=4,
        )
        .to_pandas()
        .set_index("rid")["ewma_v"]
    )
    # reference: plain loop per key in ts order
    for key in ("a", "b", "c"):
        mask = keys == key
        rids = np.arange(n)[mask][np.argsort(ts[mask], kind="stable")]
        y = 0.0
        for rid in rids:
            x = 0.0 if np.isnan(vals[rid]) else vals[rid]
            y = alpha * x + (1 - alpha) * y
            assert out.loc[rid] == pytest.approx(y, rel=1e-12, abs=1e-12), rid


def test_per_key_ewma_alpha_one_and_validation(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_ewma

    t = pa.table(
        {
            "k": pa.array(["a", "a"], pa.string()),
            "ts": pa.array([1, 2], pa.int64()),
            "rid": pa.array([0, 1], pa.int64()),
            "v": pa.array([5.0, 7.0], pa.float64()),
        }
    )
    out = (
        per_key_ewma(
            ray.data.from_arrow(t), "k", ["ts"], "v", alpha=1.0,
            id_columns=["rid"], n_buckets=2,
        )
        .to_pandas()
        .set_index("rid")["ewma_v"]
    )
    assert out.loc[0] == 5.0 and out.loc[1] == 7.0
    with pytest.raises(ValueError):
        per_key_ewma(ray.data.from_arrow(t), "k", ["ts"], "v", alpha=0.0)


def test_throttle_per_key_lag_semantics(ray_session):
    """LAG-gap (not greedy-chain) semantics: a dropped row still anchors
    the next row's gap; first row of each key survives; null key/ts drop."""
    import ray.data

    from fs_schema_validator_ray.stages.window import throttle_per_key

    t = pa.table(
        {
            "k": pa.array(["u", "u", "u", "u", "v", None, "w"]),
            "ts": pa.array([0, 50, 120, 300, 10, 5, None], pa.int64()),
            "id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        }
    )
    out = throttle_per_key(
        ray.data.from_arrow(t).repartition(3), "k", "ts", "id", min_gap=100
    ).take_all()
    got = sorted(r["id"] for r in out)
    # u: 0 keep; 50 drop (gap 50); 120 KEEP (gap from 50 is 70? no — LAG
    # anchors on the PREVIOUS ROW (kept or not): 120-50=70 ≤ 100 → drop;
    # 300-120=180 > 100 → keep. v: first keeps. null rows drop.
    assert got == [1, 4, 5]


def test_winsorize_ground_truth(ray_session):
    """Winsorize bounds/flags equal the numpy-sorted derivation, incl.
    the all-inside and empty edge cases."""
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.agg import winsorize

    rng = np.random.default_rng(4)
    v = rng.integers(-500, 5000, 4000).astype(np.int64)
    df = pd.DataFrame({"id": np.arange(4000), "v": v})
    out = (
        winsorize(ray.data.from_pandas(df).repartition(6), "v", ["id"])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    s = np.sort(v)
    lo = s[int(np.ceil(0.015625 * len(s))) - 1]
    hi = s[int(np.ceil(0.984375 * len(s))) - 1]
    assert (out["v_w"].values == np.clip(v, lo, hi)).all()
    assert (out["clipped"].values == ((v < lo) | (v > hi)).astype(int)).all()
    assert out["clipped"].sum() > 0

    empty = ray.data.from_pandas(pd.DataFrame({"id": pd.array([], dtype="int64"),
                                               "v": pd.array([], dtype="int64")}))
    assert winsorize(empty, "v", ["id"]).count() == 0


def test_per_key_rolling_median_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.window import per_key_rolling_median

    rng = np.random.default_rng(5)
    n = 800
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 12, n),
            "o": rng.permutation(n),
            "v": rng.integers(-50, 50, n).astype("float64"),
            "rid": np.arange(n),
        }
    )
    df.loc[rng.random(n) < 0.1, "v"] = np.nan  # null values skipped
    tbl = pa.table(
        {
            "k": pa.array(df.k, pa.int64()),
            "o": pa.array(df.o, pa.int64()),
            "v": pa.array(df.v, pa.float64()),
            "rid": pa.array(df.rid, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(6)
    out = per_key_rolling_median(
        ds, "k", ["o"], "v", id_columns=["rid"], window=5
    ).take_all()
    got = {r["rid"]: r["median5_v"] for r in out}
    exp = (
        df.sort_values(["k", "o"])
        .groupby("k")["v"]
        .rolling(5, min_periods=1)
        .median()
        .reset_index(level=0, drop=True)
    )
    assert len(got) == n
    for rid, e in zip(df.sort_values(["k", "o"]).rid, exp):
        g = got[int(rid)]
        if pd.isna(e):
            assert g is None, rid
        else:
            assert g is not None and abs(g - round(e, 6)) < 1e-12, (rid, g, e)


def test_per_key_rolling_median_all_null_key_and_window1(ray_session):
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.window import per_key_rolling_median

    tbl = pa.table(
        {
            "k": pa.array([None, None, "a"], pa.string()),
            "o": pa.array([1, 2, 1], pa.int64()),
            "v": pa.array([10, None, 7], pa.int64()),
            "rid": pa.array([0, 1, 2], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = per_key_rolling_median(ds, "k", ["o"], "v", id_columns=["rid"], window=2)
    by = {r["rid"]: r["median2_v"] for r in out.take_all()}
    # null keys form their own segment: rid1's frame = {10, NULL} → 10
    assert by[0] == 10.0 and by[1] == 10.0 and by[2] == 7.0
    out1 = per_key_rolling_median(ds, "k", ["o"], "v", id_columns=["rid"], window=1)
    by1 = {r["rid"]: r["median1_v"] for r in out1.take_all()}
    assert by1 == {0: 10.0, 1: None, 2: 7.0}
