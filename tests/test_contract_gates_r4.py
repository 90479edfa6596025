"""Round-4 quantitative gates promoting rows-only operators (VERDICT r3
item 7): grouped-HLL ε-bound vs exact distinct counts, resample SNR vs
the regenerated reference, and the two new corpus-contract queries."""

import numpy as np
import pyarrow as pa
import ray.data

SF = "/root/testdata/sf0.001"


def test_grouped_hll_epsilon_vs_exact(ray_session):
    """HLL(p=12) per-key estimates must sit within 5% of the exact
    per-key distinct counts (σ ≈ 1.04/√4096 ≈ 1.6%, so 5% ≈ 3σ)."""
    import duckdb

    from fs_schema_validator_ray.stages.unique import grouped_hll_distinct

    ds = ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["event_type", "user_id"]
    )
    got = grouped_hll_distinct(ds, "event_type", "user_id", p=12).to_pandas()
    exact = duckdb.sql(
        f"""SELECT event_type, COUNT(DISTINCT user_id) AS n
            FROM read_parquet('{SF}/events.parquet') GROUP BY event_type"""
    ).df()
    exact_by_key = dict(zip(exact["event_type"], exact["n"]))
    assert set(got["event_type"]) == set(exact_by_key)
    for _, row in got.iterrows():
        true_n = exact_by_key[row["event_type"]]
        err = abs(row["distinct_estimate"] - true_n) / max(true_n, 1)
        assert err <= 0.05, (row["event_type"], row["distinct_estimate"], true_n)


def test_resample_snr_vs_reference():
    """Linear-interp resampling of the corpus reference signal must
    reconstruct the 16 kHz reference to ≥18 dB when the source rate has
    full bandwidth (≥16 kHz source; exact at same-rate). Upsampling from
    8 kHz cannot recreate the missing band and is exempt by design."""
    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.audio_features import resample_linear

    for sr in (16_000, 22_050, 44_100, 48_000):
        for dur in (60, 240):
            cid = f"clip-0000-{sr % 997:06d}"
            x = audio.reference_signal(cid, sr, dur)
            y = resample_linear(x, sr, 16_000)
            ref = audio.reference_signal(cid, 16_000, dur)
            n = min(len(y), len(ref))
            err = y[:n] - ref[:n]
            p_err = float(np.mean(err**2))
            if p_err == 0:
                continue  # same-rate identity
            snr = 10 * np.log10(float(np.mean(ref[:n] ** 2)) / p_err)
            assert snr >= 18.0, (sr, dur, snr)
    # length law: n_out = max(1, round(n_in * ratio)); empty stays empty
    assert len(resample_linear(np.zeros(0), 8000, 16000)) == 0
    assert len(resample_linear(np.zeros(480), 8000, 16000)) == 960
    assert len(resample_linear(np.zeros(1323), 22050, 16000)) == 960


def test_resample_stage_emits_input_dims():
    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.audio_features import ResampleStage

    sig = audio.reference_signal("clip-0000-000001", 22_050, 100)
    payload = audio.encode(sig, 22_050, "pcm_s16le")
    batch = pa.table(
        {
            "clip_id": pa.array(["a", "b"]),
            "bytes": pa.array([payload, b""], pa.binary()),
        }
    )
    out = ResampleStage(target_sr=16_000)(batch).to_pylist()
    good = next(r for r in out if r["clip_id"] == "a")
    assert good["decode_ok"] and good["sr_in"] == 22_050
    assert good["n_samples_in"] == len(sig)
    assert good["n_samples"] == round(len(sig) * 16_000 / 22_050)
    bad = next(r for r in out if r["clip_id"] == "b")
    assert not bad["decode_ok"] and bad["sr_in"] is None


def test_contract_queries_gate_planted_classes(ray_session):
    """The two new driver-checkable contract queries flag exactly the
    planted classes: dur_mismatch → count_ok=0, undecodable → 0/NULL."""
    from fs_schema_validator_ray.pipelines.queries import (
        audio_chunk_contract,
        audio_resample_contract,
    )

    res = audio_resample_contract("unused", n_rows=600).to_pandas()
    assert len(res) == 600
    bad = res[~res["decode_ok"]]
    # classes 17 (truncated) and 101 (empty) within 600 rows: idx 17, 526, 101
    assert len(bad) == 3
    assert res[res["decode_ok"]]["len_ok"].eq(1).all()
    assert res[res["decode_ok"]]["sr_hz"].eq(16_000).all()

    chunk = audio_chunk_contract("unused", n_rows=600).to_pandas()
    # 600 rows minus the dup pair (460, 461)
    assert len(chunk) == 598
    fails = chunk[chunk["count_ok"].eq(0)]["clip_id"].tolist()
    # 17, 526 (truncated), 101 (empty), 281 (dur_mismatch) — and idx 191
    # (sr_null) is NULL, not a failure
    assert sorted(fails) == [
        "clip-0000-000017",
        "clip-0000-000101",
        "clip-0001-000131",
        "clip-0003-000076",
    ]
    assert chunk["count_ok"].isna().sum() == 1


def test_grouped_skew_kurtosis_ground_truth(ray_session):
    """Power-sum skewness/kurtosis must match the direct numpy central-
    moment computation per group (incl. a symmetric group with skew≈0
    and a constant group → NaN)."""
    from fs_schema_validator_ray.stages.agg import grouped_skew_kurtosis

    rng = np.random.default_rng(8)
    groups = {
        "sym": np.concatenate([np.arange(1, 51), 102 - np.arange(1, 51)]),
        "skewed": np.concatenate([np.ones(90, np.int64), np.full(10, 40)]),
        "const": np.full(25, 7, np.int64),
    }
    keys = np.concatenate([[k] * len(v) for k, v in groups.items()])
    vals = np.concatenate(list(groups.values())).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys, "x": vals})).repartition(4)
    got = {
        r["k"]: r
        for r in grouped_skew_kurtosis(ds, ["k"], "x").to_pandas().to_dict("records")
    }
    for name, v in groups.items():
        m = v - v.mean()
        m2 = np.mean(m**2)
        if m2 == 0:
            assert np.isnan(got[name]["skew6"]) and np.isnan(got[name]["kurt6"])
            continue
        skew = np.mean(m**3) / m2**1.5
        kurt = np.mean(m**4) / m2**2 - 3.0
        assert abs(got[name]["skew6"] - skew) < 1e-5, name
        assert abs(got[name]["kurt6"] - kurt) < 1e-5, name
    assert abs(got["sym"]["skew6"]) < 1e-9  # symmetric → exactly 0 after round


def test_transcode_stage_adpcm_target(ray_session):
    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.audio_features import TranscodeStage

    x = audio.reference_signal("clip-0000-000004", 16000, 120)
    batch = pa.table(
        {
            "clip_id": pa.array(["a", "bad"]),
            "bytes": pa.array(
                [audio.encode(x, 16000, "ulaw"), b"junk"], pa.binary()
            ),
        }
    )
    out = TranscodeStage(codec_out="adpcm_ima")(batch).to_pylist()
    good = next(r for r in out if r["clip_id"] == "a")
    assert good["decode_ok"] and good["codec_in"] == "ulaw"
    y, sr, codec = audio.decode(good["bytes"])
    assert codec == "adpcm_ima" and sr == 16000 and len(y) == len(x)
    bad = next(r for r in out if r["clip_id"] == "bad")
    assert not bad["decode_ok"]


# --- product-quantization ANN (round 4) ---------------------------------------


def test_pq_ann_recall_gate(ray_session):
    """PQ-ADC + exact rerank must hold recall@10 ≥ 0.9 vs brute force on
    the sf0.1 embeddings (5,000 × 64f); codes are 8 B/vector (m=8)."""
    import pyarrow.parquet as pq_

    from fs_schema_validator_ray.stages.similarity import (
        pq_encode,
        pq_fit,
        topk_cosine,
        topk_cosine_pq,
    )

    t = pq_.read_table("/root/testdata/sf0.1/embeddings.parquet")
    q_ids = np.asarray(t.column("vec_id")[:16])
    q_mat = np.stack([np.asarray(v.as_py()) for v in t.column("embedding")[:16]])
    ds = ray.data.read_parquet("/root/testdata/sf0.1/embeddings.parquet")
    exact = topk_cosine(ds, q_ids, q_mat, k=10, exclude_self=True).to_pandas()
    apx = topk_cosine_pq(ds, q_ids, q_mat, k=10, exclude_self=True).to_pandas()
    rec = []
    for q in q_ids:
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(apx[apx.query_id == q].neighbor_id)
        rec.append(len(e & a) / max(len(e), 1))
    assert float(np.mean(rec)) >= 0.9, rec

    # codebook shape + code width invariants
    sample = np.stack([np.asarray(v.as_py()) for v in t.column("embedding")[:500]])
    books = pq_fit(sample, n_subspaces=8, n_centroids=64)
    assert books.shape == (8, 64, 8)
    codes = pq_encode(sample / np.linalg.norm(sample, axis=1, keepdims=True), books)
    assert codes.shape == (500, 8) and codes.dtype == np.uint8
    assert codes.max() < 64


def test_ivfpq_ann_recall_gate(ray_session):
    """The IVF-PQ composition (list pruning × code compression) must
    hold recall@10 ≥ 0.85 vs brute force on the sf0.1 embeddings."""
    import pyarrow.parquet as pq_

    from fs_schema_validator_ray.stages.similarity import (
        topk_cosine,
        topk_cosine_ivfpq,
    )

    t = pq_.read_table("/root/testdata/sf0.1/embeddings.parquet")
    q_ids = np.asarray(t.column("vec_id")[:16])
    q_mat = np.stack([np.asarray(v.as_py()) for v in t.column("embedding")[:16]])
    ds = ray.data.read_parquet("/root/testdata/sf0.1/embeddings.parquet")
    exact = topk_cosine(ds, q_ids, q_mat, k=10, exclude_self=True).to_pandas()
    apx = topk_cosine_ivfpq(ds, q_ids, q_mat, k=10, exclude_self=True).to_pandas()
    rec = []
    for q in q_ids:
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(apx[apx.query_id == q].neighbor_id)
        rec.append(len(e & a) / max(len(e), 1))
    assert float(np.mean(rec)) >= 0.85, rec


def test_levels_stage_pure_tone_and_verdicts():
    """LevelsStage ground truth on a synthetic tone: peak/RMS of a 0.5
    sine, gain-4 forces clipping, +0.3 DC trips the dc bar, undecodable
    payloads emit decode_ok=false with null verdicts."""
    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.audio_features import LevelsStage

    t = np.arange(16_000) / 16_000.0
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    b = audio.encode(x, 16_000, "pcm_s16le")
    batch = pa.table(
        {
            "clip_id": ["tone", "gained", "biased", "junk"],
            "bytes": [b, b, b, b"\x00junk"],
            "gain": [1.0, 4.0, 1.0, 1.0],
            "dc": [0.0, 0.0, 0.3, 0.0],
        }
    )
    rows = LevelsStage(gain_column="gain", dc_column="dc")(batch).to_pylist()
    tone, gained, biased, junk = rows
    assert tone["decode_ok"] and not tone["clipped"] and tone["dc_ok"]
    assert abs(tone["peak"] - 0.5) < 0.01
    assert abs(tone["rms"] - 0.5 / np.sqrt(2)) < 0.01
    assert abs(tone["dc_offset"]) < 0.01
    assert gained["clipped"] and gained["clip_frac"] > 0.0
    assert gained["dc_ok"]  # symmetric clipping-free mean unaffected
    assert biased["decode_ok"] and not biased["dc_ok"]
    assert abs(biased["dc_offset"] - 0.3) < 0.01
    assert not biased["clipped"]  # 0.5 + 0.3 < 0.999
    assert not junk["decode_ok"]
    assert junk["clipped"] is None and junk["dc_ok"] is None


def test_levels_stage_empty_decode_vacuous():
    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.audio_features import LevelsStage

    b = audio.encode(np.zeros(0), 16_000, "pcm_s16le")
    rows = LevelsStage()(pa.table({"clip_id": ["e"], "bytes": [b]})).to_pylist()
    (e,) = rows
    assert e["decode_ok"] and e["n_samples"] == 0
    assert e["clipped"] is False and e["dc_ok"] is True
    assert e["peak"] is None


def test_audio_levels_contract_closed_form(ray_session):
    """audio_levels_contract verdicts equal the closed-form planted
    rules for EVERY row of a 600-clip corpus (the SQL oracle's
    derivation, recomputed in python)."""
    from fs_schema_validator_ray.pipelines.queries import audio_levels_contract
    from fs_schema_validator_ray.sources.clips import ClipsConfig

    cfg = ClipsConfig(n_rows=600, rows_per_partition=150)
    res = audio_levels_contract("unused", n_rows=600).to_pandas()
    assert len(res) == 600

    def expected(i: int):
        s = i - 1 if (i % 509 == 461 and i > 0) else i
        cid = f"CLIP_{s}" if s % 509 == 331 else cfg.clip_id(s)
        if s % 509 in (17, 101):
            return (cid, False, None, None)
        if s % 509 == 233:
            return (cid, True, 0, 1)
        return (cid, True, int(s % 7 == 3), int(s % 11 != 5))

    exp = sorted(expected(i) for i in range(600))
    got = sorted(
        (
            r.clip_id,
            bool(r.decode_ok),
            None if np.isnan(r.clipped) else int(r.clipped),
            None if np.isnan(r.dc_ok) else int(r.dc_ok),
        )
        for r in res.itertuples()
    )
    assert got == exp


def test_chi2_independence_ground_truth(ray_session):
    """chi2_independence equals the dense pandas-crosstab computation on
    a planted-dependence table, and is ~0 for an independent one."""
    import pandas as pd

    from fs_schema_validator_ray.stages.agg import chi2_independence

    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, 6000)
    # dependent: b correlates with a; independent: uniform
    b_dep = (a + rng.integers(0, 2, 6000)) % 4
    df = pd.DataFrame({"a": a.astype(str), "b": b_dep})
    ds = ray.data.from_pandas(df)
    cells = chi2_independence(ds, "a", "b").to_pandas()

    ct = pd.crosstab(df["a"], df["b"])
    exp = np.outer(ct.sum(1), ct.sum(0)) / ct.values.sum()
    chi2_ref = (((ct.values - exp) ** 2) / exp).sum()
    assert abs(cells["contrib6"].sum() - chi2_ref) < 1e-3
    assert len(cells) == ct.size  # dense grid incl. zero-observed cells
    assert (cells["observed"].sum()) == 6000
    assert chi2_ref > 100  # the dependence is real

    b_ind = rng.integers(0, 4, 6000)
    df2 = pd.DataFrame({"a": a.astype(str), "b": b_ind})
    cells2 = chi2_independence(ray.data.from_pandas(df2), "a", "b").to_pandas()
    # independent draw: statistic near dof=(3-1)(4-1)=6, far below 100
    assert cells2["contrib6"].sum() < 30


def test_validate_embeddings_edge_cases(ray_session):
    """dim/finite/norm verdicts on crafted vectors: wrong dim, NaN, Inf,
    empty list, exact norm."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.similarity import validate_embeddings

    vecs = [
        [3.0, 4.0],              # norm 5, dim ok
        [1.0],                   # wrong dim
        [float("nan"), 1.0],     # NaN
        [float("inf"), 0.0],     # Inf
        [],                      # empty: dim 0, finite (vacuous), norm 0
    ]
    t = pa.table(
        {
            "vec_id": pa.array(range(5), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    out = (
        validate_embeddings(ray.data.from_arrow(t), "embedding", "vec_id", 2)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert out["dim"].tolist() == [2, 1, 2, 2, 0]
    assert out["dim_ok"].tolist() == [True, False, True, True, False]
    assert out["finite_ok"].tolist() == [True, True, False, False, True]
    assert out["norm6"][0] == 5.0
    assert np.isnan(out["norm6"][2]) and np.isnan(out["norm6"][3])
    assert out["norm6"][4] == 0.0


def test_schema_drift_synthetic(ray_session):
    """added/removed/type_changed/common statuses and null counting on
    crafted snapshots."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.agg import schema_drift

    a = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([1.0, None, 3.0], pa.float64()),
            "gone": pa.array(["x", "y", "z"]),
        }
    )
    b = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "v": pa.array([1, 2], pa.int32()),  # re-typed
            "new": pa.array([None, "w"], pa.string()),
        }
    )
    out = (
        schema_drift(ray.data.from_arrow(a), ray.data.from_arrow(b))
        .to_pandas()
        .set_index("column")
    )
    assert out.loc["id", "status"] == "common"
    assert out.loc["v", "status"] == "type_changed"
    assert (out.loc["v", "dtype_a"], out.loc["v", "dtype_b"]) == ("double", "int32")
    assert out.loc["gone", "status"] == "removed"
    assert out.loc["new", "status"] == "added"
    assert out.loc["v", "nulls_a"] == 1 and out.loc["new", "nulls_b"] == 1
    assert out.loc["id", "n_a"] == 3 and out.loc["id", "n_b"] == 2
    assert pd.isna(out.loc["gone", "n_b"]) and pd.isna(out.loc["new", "n_a"])


def test_lsh_planted_recall_contracts(ray_session):
    """The LSH recall law (continuation #4): planted verbatim copies
    MUST come back from both MinHash and SimHash at similarity exactly
    1.0 — identical text means identical signatures, so banding cannot
    miss them regardless of bucket heat or star-link capping."""
    import duckdb

    from fs_schema_validator_ray.pipelines.queries import (
        minhash_planted_contract,
        simhash_planted_contract,
    )

    expect = set(
        duckdb.sql(
            f"""SELECT doc_id, doc_id + 10000000
                FROM read_parquet('{SF}/documents.parquet')
                WHERE doc_id % 10 = 0"""
        ).fetchall()
    )
    assert len(expect) > 0
    for q in (minhash_planted_contract, simhash_planted_contract):
        got = q(SF).to_pandas()
        assert set(zip(got["a"], got["b"])) == expect, q.__name__
        assert (got["similarity"] == 1.0).all(), q.__name__
