"""Regression tests for the round-1 adversarial review findings."""

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray.rules import RuleSet, RuleSetError


def test_empty_manifest_reports_all_missing(ray_session):
    import ray

    from fs_schema_validator_ray.rules import ReferentialRule
    from fs_schema_validator_ray.stages.referential import (
        ReferentialStage,
        build_membership,
    )

    membership = build_membership(np.empty(0, dtype=object))
    stage = ReferentialStage(
        ReferentialRule(rule_id="r", column="k", manifest="m"), ray.put(membership)
    )
    out = stage(pa.table({"k": pa.array(["a", "b"])}))
    assert out.num_rows == 2  # everything missing, no crash


def test_unbound_binding_is_compile_error():
    with pytest.raises(RuleSetError, match=r"unbound binding.*\$colums"):
        RuleSet.from_yaml(
            """
bindings:
  columns: [a, b]
rules:
  - rule: "x_{$colums}"
    type: int
    column: "{$colums}"
"""
        )


def test_broadcast_join_last_wins(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.joins import broadcast_join

    big = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    small = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 1], pa.int64()), "v": pa.array(["old", "new"])})
    )
    out = broadcast_join(big, small, "k", ["v"]).take_all()
    assert [r["v"] for r in out] == ["new"]


def test_simhash_large_cluster_not_dropped(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import simhash_near_dup_pairs

    texts = ["identical content repeated many times over"] * 300
    t = pa.table(
        {"doc_id": pa.array(range(300), pa.int64()), "text": pa.array(texts)}
    )
    pairs = simhash_near_dup_pairs(ray.data.from_arrow(t)).take_all()
    # capped, but NOT empty: the cluster stays connected
    assert len(pairs) > 0
    assert all(r["similarity"] == 1.0 for r in pairs)


def test_webp_simple_format_dims():
    from fs_schema_validator_ray.stages.multimodal import (
        parse_image_dims,
        sniff_image_format,
    )

    # minimal lossy VP8 container: RIFF/WEBP + 'VP8 ' chunk with the
    # 9D 01 2A start code then 14-bit dims
    w, h = 33, 17
    body = b"\x00\x00\x00" + b"\x9d\x01\x2a" + w.to_bytes(2, "little") + h.to_bytes(2, "little")
    payload = b"RIFF" + (4 + 8 + len(body)).to_bytes(4, "little") + b"WEBP" \
        + b"VP8 " + len(body).to_bytes(4, "little") + body
    assert sniff_image_format(payload) == "webp"
    assert parse_image_dims(payload, "webp") == (w, h)
    # lossless VP8L: sig 0x2F then 14+14 bits packed (w-1, h-1)
    bits = (w - 1) | ((h - 1) << 14)
    body_l = b"\x2f" + bits.to_bytes(4, "little")
    payload_l = b"RIFF" + (4 + 8 + len(body_l)).to_bytes(4, "little") + b"WEBP" \
        + b"VP8L" + len(body_l).to_bytes(4, "little") + body_l
    assert parse_image_dims(payload_l, "webp") == (w, h)


# --- round-2 continuation review findings ------------------------------------


def test_grouped_tdigest_all_null_value_batch(ray_session):
    """Review: a batch whose value column is ENTIRELY null crashed the
    t-digest partial with IndexError (empty sslot still produced one
    phantom segment)."""
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.unique import grouped_tdigest_quantiles

    t = pa.table(
        {
            "k": pa.array(["a", "b"], pa.string()),
            "v": pa.array([None, None], pa.float64()),
        }
    )
    rows = {
        r["k"]: r
        for r in grouped_tdigest_quantiles(
            ray.data.from_arrow(t), "k", "v", qs=(0.5,)
        ).take_all()
    }
    assert rows["a"]["n_values"] == 0 and rows["a"]["q50"] is None
    assert rows["b"]["n_values"] == 0 and rows["b"]["q50"] is None


def test_per_key_ewma_high_alpha_no_overflow(ray_session):
    """Review: alpha=0.95 (decay=0.05) overflowed decay**-255 to inf in
    the default 256-row chunk, emitting ±inf/NaN past local index ~237;
    the chunk is now capped from the decay."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_ewma

    n = 300
    vals = np.linspace(-5, 5, n)
    t = pa.table(
        {
            "k": pa.array(["a"] * n, pa.string()),
            "ts": pa.array(np.arange(n), pa.int64()),
            "rid": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(vals, pa.float64()),
        }
    )
    alpha = 0.95
    out = (
        per_key_ewma(
            ray.data.from_arrow(t), "k", ["ts"], "v", alpha=alpha,
            id_columns=["rid"], n_buckets=2,
        )
        .to_pandas()
        .set_index("rid")["ewma_v"]
    )
    assert np.isfinite(out.to_numpy()).all()
    y = 0.0
    for rid in range(n):
        y = alpha * vals[rid] + (1 - alpha) * y
        assert out.loc[rid] == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_per_key_shift_rejects_nonpositive_lead(ray_session):
    """Review: lead=-1 silently read the PREVIOUS partition's value."""
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.window import per_key_shift

    t = pa.table(
        {
            "k": pa.array(["a"], pa.string()),
            "ts": pa.array([1], pa.int64()),
            "v": pa.array([1.0], pa.float64()),
        }
    )
    with pytest.raises(ValueError):
        per_key_shift(ray.data.from_arrow(t), "k", ["ts"], "v", lead=0)
    with pytest.raises(ValueError):
        per_key_shift(ray.data.from_arrow(t), "k", ["ts"], "v", lead=-1)


def test_table_diff_null_keys_never_match(ray_session):
    """Review: NULL keys were paired as equal (key_codes -1 == -1),
    diverging from the SQL FULL OUTER JOIN the oracle encodes — null
    keys must always emit removed/added, never 'changed', and duplicates
    among them must not raise."""
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.setops import table_diff

    old = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([None, None, 1], pa.int64()),
                "v": pa.array([1, 2, 3], pa.int64()),
            }
        )
    )
    new = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([None, 1], pa.int64()),
                "v": pa.array([1, 3], pa.int64()),
            }
        )
    )
    rows = sorted(
        (r["k"] is None, r["change"])
        for r in table_diff(old, new, ["k"], ["v"]).take_all()
    )
    # k=1 unchanged → dropped; 2 old nulls removed, 1 new null added
    assert rows == [(True, "added"), (True, "removed"), (True, "removed")]


def test_pca_fit_rejects_too_many_components(ray_session):
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.similarity import pca_fit

    t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array(
                [[1.0, 2.0], [2.0, 1.0], [0.0, 1.0]], pa.list_(pa.float32())
            ),
        }
    )
    with pytest.raises(ValueError):
        pca_fit(ray.data.from_arrow(t), 3)


def test_standardize_large_offset_numerically_stable(ray_session):
    """Review: ss − n·mean² cancels catastrophically at |mean| ≫ std
    (values ~1e8 ± 1 → std clamped to 0, all-null z-scores); centered
    (n, mean, M2) partials with Chan merge must track the oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.reshape import standardize_columns

    rng = np.random.default_rng(11)
    x = 1.0e8 + rng.uniform(0.0, 1.0, 4000)
    t = pa.table(
        {"rid": pa.array(np.arange(4000), pa.int64()), "x": pa.array(x, pa.float64())}
    )
    out = (
        standardize_columns(ray.data.from_arrow(t).repartition(8), ["x"], ["rid"])
        .to_pandas()
        .sort_values("rid")["z_x"]
        .to_numpy()
    )
    ref = (x - x.mean()) / x.std(ddof=1)
    assert np.isfinite(out).all()
    assert np.allclose(out, ref, atol=1e-6)


def test_cross_join_rejects_column_collision(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from fs_schema_validator_ray.stages.joins import broadcast_cross_join

    left = ray.data.from_arrow(pa.table({"x": pa.array([1], pa.int64())}))
    small = ray.data.from_arrow(pa.table({"x": pa.array(["a"], pa.string())}))
    with pytest.raises(Exception):  # ray wraps the ValueError
        broadcast_cross_join(left, small, ["x"]).take_all()


def test_unigram_score_empty_model_and_oov():
    """Review: scoring tokens against an empty/foreign model crashed
    with IndexError (counts[pos] on a length-0 array); OOV must take the
    add-one fallback without RuntimeWarnings."""
    import warnings

    import numpy as np
    import pyarrow as pa

    from fs_schema_validator_ray.stages.textindex import UnigramScoreStage

    batch = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["hello world"], pa.string()),
        }
    )
    # empty model: total 0 → add-one mass log(1/1) = 0 per token
    stage = UnigramScoreStage((pa.array([], pa.string()), np.zeros(0), 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = stage(batch).to_pylist()
    assert rows[0]["logprob"] == 0.0
    # foreign model: "hello" known, "world" OOV → add-one fallback
    model = (pa.array(["hello"], pa.string()), np.array([3.0]), 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = UnigramScoreStage(model)(batch).to_pylist()
    want = (np.log(3.0 / 4.0) + np.log(1.0 / 5.0)) / 2.0
    assert rows[0]["logprob"] == pytest.approx(want)


def test_fingerprint_pairs_missing_ok_column_raises(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from fs_schema_validator_ray.stages.dedup import fingerprint64_near_dup_pairs

    fps = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array(["a"], pa.string()),
                "fp": pa.array([1], pa.int64()),
            }
        )
    )
    with pytest.raises(Exception):  # ray wraps the KeyError
        fingerprint64_near_dup_pairs(
            fps, key_column="key", fp_column="fp", ok_column="decode_OK"
        ).take_all()
