"""Regression tests for the round-1 advisor findings (ADVICE.md r1)."""

import numpy as np
import pyarrow as pa


def test_broadcast_join_all_miss_batch_keeps_type(ray_session):
    """ADVICE r1: a probe batch with ZERO matches must still emit the
    appended columns with their true Arrow type, not null type."""
    from fs_schema_validator_ray.stages.joins import (
        BroadcastJoinStage,
        build_broadcast_side,
    )
    import ray
    import ray.data

    small = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()), "seg": pa.array(["x"])})
    )
    side = build_broadcast_side(small, "k", ["seg"])
    stage = BroadcastJoinStage(ray.put(side), "k", ["seg"])
    all_miss = pa.table({"k": pa.array([5, 6], pa.int64())})
    out = stage(all_miss)
    assert out.num_rows == 0
    assert out.schema.field("seg").type == pa.string()
    # and a hit batch agrees on the schema
    hit = stage(pa.table({"k": pa.array([1], pa.int64())}))
    assert hit.schema == out.schema


def test_broadcast_join_empty_small_side(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.joins import broadcast_join

    big = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    small = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    )
    out = broadcast_join(big, small, "k", ["v"]).take_all()
    assert out == []


def test_minhash_bucket_overflow_star_linked(ray_session):
    """ADVICE r1: identical-content clusters larger than the 64-id bucket
    cap must keep every member in some candidate pair (star-link), not
    silently drop ids beyond the cap."""
    import ray.data

    from fs_schema_validator_ray.stages.dedup import minhash_near_dup_pairs

    n = 70
    texts = ["the same boilerplate text repeated across many documents"] * n
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts)})
    pairs = minhash_near_dup_pairs(
        ray.data.from_arrow(t), threshold=0.9
    ).take_all()
    seen = set()
    for r in pairs:
        seen.add(r["a"])
        seen.add(r["b"])
    assert seen == set(range(n))


def test_simhash_overflow_ids_survive(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import simhash_near_dup_pairs

    n = 300  # > 256 cap
    texts = ["identical content repeated many times over"] * n
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts)})
    pairs = simhash_near_dup_pairs(ray.data.from_arrow(t)).take_all()
    seen = set()
    for r in pairs:
        seen.add(r["a"])
        seen.add(r["b"])
    assert seen == set(range(n))


def test_popcount64_matches_python():
    from fs_schema_validator_ray.stages.dedup import popcount64

    rng = np.random.default_rng(3)
    x = rng.integers(0, 2**63, size=257, dtype=np.uint64)
    x[0] = 0
    x[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    expect = np.array([bin(int(v)).count("1") for v in x])
    assert (popcount64(x) == expect).all()


def test_exact_dedup_tolerates_empty_blocks(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import exact_dedup_keep_min

    full = pa.table(
        {"doc_id": pa.array([3, 1, 2], pa.int64()),
         "text": pa.array(["x", "x", "y"])}
    )
    empty = full.schema.empty_table()
    ds = ray.data.from_arrow([empty, full, empty])
    out = sorted(r["doc_id"] for r in exact_dedup_keep_min(ds).take_all())
    assert out == [1, 2]


def test_fingerprint_vectorized_matches_per_row_reference():
    """The flattened FingerprintStage must be byte-identical to the
    per-document rolling-hash + winnow reference path."""
    import pyarrow as pa

    from numpy.lib.stride_tricks import sliding_window_view

    from fs_schema_validator_ray.stages.text import FingerprintStage, rolling_kgram_hashes

    def winnow(hashes, window):
        # the distinct minima of every ``window``-wide span
        if len(hashes) <= window:
            return np.unique(hashes.min(keepdims=True)) if len(hashes) else hashes
        return np.unique(sliding_window_view(hashes, window).min(axis=1))

    rng = np.random.default_rng(5)
    texts = []
    for _ in range(200):
        n = int(rng.integers(0, 120))
        texts.append("".join(chr(int(c)) for c in rng.integers(32, 1000, n)))
    texts += ["", "a", "1234567", "12345678", "x" * 23, "hello world " * 50]
    t = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts)}
    )
    stage = FingerprintStage()
    out = stage(t)
    got = list(zip(out.column("fingerprint").to_pylist(),
                   out.column("n_grams").to_pylist()))
    for i, v in enumerate(texts):
        sel = winnow(rolling_kgram_hashes(v.encode("utf-8"), stage.k), stage.window)
        fp = int(np.bitwise_xor.reduce(sel)) if len(sel) else 0
        assert got[i] == (fp, len(sel)), f"mismatch for doc {i}: {v[:40]!r}"


def test_minhash_join_verify_matches_broadcast_path(ray_session):
    """VERDICT r1 item 2: the co-partitioned join verify (forced via
    max_broadcast_docs=0) must produce exactly the same verified pairs
    as the broadcast-lookup path."""
    import ray.data

    from fs_schema_validator_ray.stages.dedup import minhash_near_dup_pairs

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(50)]
    texts = []
    for i in range(40):
        base = " ".join(rng.choice(words, size=30))
        texts.append(base)
        if i % 3 == 0:  # plant a near-dup
            toks = base.split()
            toks[0] = "CHANGED"
            texts.append(" ".join(toks))
    t = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts)}
    )
    ds = ray.data.from_arrow(t)

    def norm(out):
        return sorted(
            (r["a"], r["b"], round(r["similarity"], 9)) for r in out.take_all()
        )

    broadcast = norm(minhash_near_dup_pairs(ds, threshold=0.5))
    joined = norm(
        minhash_near_dup_pairs(ds, threshold=0.5, max_broadcast_docs=0)
    )
    assert len(broadcast) > 0
    assert joined == broadcast


def test_svg_dims_ignores_stroke_width():
    """code-review r2: \\bwidth used to match inside stroke-width."""
    from fs_schema_validator_ray.stages.multimodal import parse_image_dims

    svg = b'<svg stroke-width="2" height="100" viewBox="0 0 300 200"><rect/></svg>'
    # width attr absent → viewBox fallback must win, not stroke-width
    assert parse_image_dims(svg, "svg") == (300, 200)
    svg2 = b'<svg stroke-width="2" width="40" height="100"><rect/></svg>'
    assert parse_image_dims(svg2, "svg") == (40, 100)


def test_hash_join_left_string_keys_with_nulls(ray_session):
    """code-review r2b: left join with NULL keys of a non-integer type
    crashed in np.searchsorted (None vs str comparison)."""
    import ray.data

    from fs_schema_validator_ray.stages.joins import hash_join

    left = pa.table(
        {"k": pa.array(["x", None, "y"]), "lv": pa.array([1, 2, 3], pa.int64())}
    )
    right = pa.table(
        {"k2": pa.array(["x", "x", "z"]), "rv": pa.array([10, 20, 30], pa.int64())}
    )
    out = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k", "k2", ["lv"], ["rv"], how="left", n_buckets=1,
    ).take_all()
    got = sorted(
        [(r["k"], r["lv"], r["rv"]) for r in out],
        key=lambda x: (x[0] is None, x[0] or "", x[1], x[2] is None, x[2] or 0),
    )
    assert got == [
        ("x", 1, 10), ("x", 1, 20),
        ("y", 3, None),
        (None, 2, None),
    ]


def test_mix_to_buckets_uses_high_bits():
    """code-review r2b: multiply-then-mod-2^8 kept only the low byte, so
    (band << 32) ^ key ignored the band entirely."""
    from fs_schema_validator_ray.state.sketches import mix_to_buckets

    key = np.uint64(5)
    buckets = {
        int(mix_to_buckets(np.array([(np.uint64(b) << np.uint64(32)) ^ key]), 256)[0])
        for b in range(8)
    }
    assert len(buckets) > 1, "all bands landed in one coarse bucket"


def test_embedding_lsh_duplicate_ids_no_self_pairs(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.similarity import embedding_near_dup_lsh

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((6, 8))
    mat[5] = mat[0] + 0.001  # a real near-dup pair (0, 5)
    rows = list(range(6)) + [0]  # vec_id 0 appears TWICE
    t = pa.table(
        {
            "vec_id": pa.array(rows, pa.int64()),
            "embedding": pa.array(
                [list(map(float, mat[i])) for i in rows], pa.list_(pa.float32())
            ),
        }
    )
    out = embedding_near_dup_lsh(ray.data.from_arrow(t), threshold=0.9).take_all()
    pairs = {(r["a"], r["b"]) for r in out}
    assert all(a != b for a, b in pairs), f"self-pair leaked: {pairs}"
    assert (0, 5) in pairs


def test_referential_probe_dtype_stable():
    """code-review r2c: a null in the PROBE batch promoted int keys to
    float objects, so valid manifest keys hashed differently and were
    falsely flagged missing (rendered '5.0')."""
    from fs_schema_validator_ray.rules import ReferentialRule
    from fs_schema_validator_ray.stages.referential import (
        ReferentialStage,
        build_membership,
    )

    membership = build_membership(pa.array([5, 7], pa.int64()))
    stage = ReferentialStage(
        ReferentialRule(rule_id="r", column="k", manifest="m"), membership
    )
    out = stage(pa.table({"k": pa.array([5, None, 9], pa.int64())})).to_pylist()
    got = sorted((r["key"] or "", r["reason"]) for r in out)
    # 5 is present (no violation); null and 9 are missing; 9 renders "9"
    assert got == [
        ("", "does not exist in manifest `m`"),
        ("9", "does not exist in manifest `m`"),
    ]

    # membership built from a null-carrying manifest batch likewise
    membership2 = build_membership(pa.array([5, None], pa.int64()))
    stage2 = ReferentialStage(
        ReferentialRule(rule_id="r", column="k", manifest="m"), membership2
    )
    out2 = stage2(pa.table({"k": pa.array([5], pa.int64())})).to_pylist()
    assert out2 == []
