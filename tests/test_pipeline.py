"""End-to-end validation run: golden violation classes, checkpoint/resume.

The Ray-scale analogue of the reference's whole-schema test
(`/root/reference/tests/test_schema.py`): build corpus → run → compare
the violation set (order-insensitive, exact reasons) → resume.
"""

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fs_schema_validator_ray.pipelines.validate import (
    ValidationRunConfig,
    plan_partitions,
    run_validation,
)
from fs_schema_validator_ray.rules import RuleSet
from fs_schema_validator_ray.sources.clips import (
    ClipsConfig,
    build_clips_table,
    build_manifest_table,
)

CFG = ClipsConfig(n_rows=2000, rows_per_partition=500)

RULES_YAML = """
bindings:
  codecs: [pcm_s16le, pcm_u8, ulaw, alaw]
rules:
  - rule: sr_hz_range
    type: int
    column: sr_hz
    min: 8000
    max: 48000
  - rule: dur_ms_range
    type: int
    column: dur_ms
    min: 20
    max: 30000
  - rule: clip_id_shape
    type: str
    column: clip_id
    regex: "^clip-[0-9]{{4}}-[0-9]{{6}}$"
  - rule: codec_enum
    type: str
    column: codec
    allowed: [pcm_s16le, pcm_u8, ulaw, alaw]
  - rule: payload_nonempty
    type: binary
    column: bytes
    allow_empty: false
  - rule: audio_decode
    type: audio
  - rule: unique_clip_id
    type: unique
    column: clip_id
  - rule: ref_transcripts
    type: referential
    column: clip_id
    manifest: transcripts
  - rule: drift_dur
    type: drift
    column: dur_ms
    lo: 0
    hi: 30000
    bins: 32
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    clips_dir = root / "clips"
    clips_dir.mkdir()
    for pid in range(CFG.num_partitions()):
        lo = pid * CFG.rows_per_partition
        hi = min(CFG.n_rows, lo + CFG.rows_per_partition)
        t = build_clips_table(CFG, np.arange(lo, hi)).drop_columns(["partition_id"])
        pq.write_table(t, clips_dir / f"part-{pid:04d}.parquet")
    manifest_path = root / "transcripts.parquet"
    pq.write_table(build_manifest_table(CFG), manifest_path)
    return {"clips": str(clips_dir), "manifest": str(manifest_path)}


def n_planted(cls):
    return len(CFG.planted_indices(cls))


def make_cfg(corpus, out_dir):
    return ValidationRunConfig(
        input_path=corpus["clips"],
        rules=RuleSet.from_yaml(RULES_YAML),
        output_dir=str(out_dir),
        manifest_path=corpus["manifest"],
        wave_size=2,
    )


def test_plan_partitions():
    files = [f"f{i}" for i in range(6)]
    plan = plan_partitions(files, 3)
    assert len(plan) == 3
    assert sorted(f for _, grp in plan for f in grp) == files
    assert plan_partitions(files, None) == [(i, [f"f{i}"]) for i in range(6)]


def test_full_run_and_resume(ray_session, corpus, tmp_path):
    out = tmp_path / "run"
    cfg = make_cfg(corpus, out)
    res = run_validation(cfg)

    assert res.total_rows == CFG.n_rows
    assert res.waves_run == 1  # one row-pass execution over the 4 partitions
    assert res.partitions_skipped == 0
    assert not res.okay() and res.exit_code() == 1

    v = res.violations_dataset().to_pandas()
    by_rule = collections.Counter(v["rule_id"])

    assert by_rule["sr_hz_range"] == n_planted("sr_out_of_range") + n_planted("sr_null")
    assert by_rule["dur_ms_range"] == n_planted("dur_zero")
    # bad ids fail the regex
    assert by_rule["clip_id_shape"] == n_planted("bad_clip_id")
    assert by_rule["codec_enum"] == n_planted("codec_invalid")
    assert by_rule["payload_nonempty"] == n_planted("empty_bytes")
    assert by_rule["unique_clip_id"] == n_planted("duplicate_clip_id")
    # malformed keys are, correctly, also absent from the manifest
    assert by_rule["ref_transcripts"] == n_planted("missing_in_manifest") + n_planted("bad_clip_id")
    decode_classes = (
        "truncated_bytes", "codec_mismatch", "empty_bytes", "dur_zero",
        "dur_mismatch", "codec_invalid", "transcript_garbled",
    )
    assert by_rule["audio_decode"] == sum(n_planted(c) for c in decode_classes)
    # self-baselined homogeneous partitions: no drift
    assert "drift_dur" not in by_rule

    # exact reason spot-checks (reference-style golden strings)
    reasons = set(zip(v["rule_id"], v["reason"]))
    assert ("payload_nonempty", "`bytes`: cannot be empty") in reasons
    assert ("ref_transcripts", "does not exist in manifest `transcripts`") in reasons
    some_dup = [r for rid, r in reasons if rid == "unique_clip_id"]
    assert all(r == "duplicate key (appears 2 times)" for r in some_dup)

    # per-partition manifest rows: lineage + metrics
    manifests = glob.glob(os.path.join(out, "manifest", "part-*.json"))
    assert len(manifests) == 4

    # drift manifest checkpoints the mergeable sketch state per partition
    import json as _json

    from fs_schema_validator_ray.state import Histogram

    with open(os.path.join(out, "manifest", "drift-drift_dur.json")) as f:
        drift_doc = _json.load(f)
    assert set(drift_doc["sketches_hex"]) == {"0", "1", "2", "3"}
    h = Histogram.from_bytes(bytes.fromhex(drift_doc["sketches_hex"]["0"]))
    assert h.total() == CFG.rows_per_partition
    for pm in res.partition_metrics.values():
        assert pm["rows"] == CFG.rows_per_partition
        assert pm["files"]
        assert "drift_dur" in pm["drift"]
        assert pm["drift"]["drift_dur"]["ks"] < 0.15

    # --- resume: everything already done -> no waves, same totals --------
    res2 = run_validation(cfg)
    assert res2.waves_run == 0
    assert res2.partitions_skipped == 4
    assert res2.total_violations == res.total_violations
    assert res2.total_rows == res.total_rows

    # --- partial resume: forget one partition, rerun -> one wave ---------
    os.remove(os.path.join(out, "manifest", "part-2.json"))
    res3 = run_validation(cfg)
    assert res3.waves_run == 1
    assert res3.partitions_skipped == 3
    assert res3.total_rows == CFG.n_rows


def test_drifted_partition_detected(drift_state, corpus, tmp_path):
    """A shifted dur_ms distribution in one partition must trip the KS rule
    when validated against the clean corpus baseline."""
    import pyarrow as pa

    from fs_schema_validator_ray.pipelines.stats import drift_verdicts
    from fs_schema_validator_ray.rules import DriftRule
    import ray.data

    rule = DriftRule(rule_id="drift_dur", column="dur_ms", lo=0, hi=500, bins=32,
                     max_ks=0.15, max_psi=0.25)
    rng = np.random.default_rng(5)
    clean = pa.table(
        {"dur_ms": rng.integers(60, 240, 20_000), "partition_id": np.zeros(20_000, np.int32)}
    )
    drifted = pa.table(
        {"dur_ms": rng.integers(260, 440, 20_000), "partition_id": np.ones(20_000, np.int32)}
    )
    clean_hists = drift_state(ray.data.from_arrow(clean), rule)
    baseline = clean_hists[0]
    ds = ray.data.from_arrow(pa.concat_tables([clean, drifted]))
    viol, metrics, _ = drift_verdicts(drift_state(ds, rule), rule, baseline)
    rows = viol.to_pylist()
    assert [r["partition_id"] for r in rows] == [1]
    assert "ks=" in rows[0]["reason"]
    assert metrics[0]["ks"] < 0.02 and metrics[1]["ks"] > 0.5


def test_stats_sketch_checkpoints(ray_session, corpus, tmp_path):
    """north_rule: per-partition checkpoints record SKETCH STATE. With
    stats_sketch_columns set, every partition manifest carries hex
    t-digest/HLL blobs, and merging the blobs reproduces corpus
    quantiles / distinct counts within sketch error — without any
    re-read of the data."""
    import json as _json
    import duckdb

    from fs_schema_validator_ray.pipelines.validate import (
        merged_stats_sketches,
    )

    out = tmp_path / "skrun"
    cfg = make_cfg(corpus, out)
    cfg.stats_sketch_columns = ["sr_hz", "clip_id"]
    run_validation(cfg)

    manifests = glob.glob(os.path.join(str(out), "manifest", "part-*.json"))
    assert len(manifests) == CFG.num_partitions()
    for m in manifests:
        doc = _json.load(open(m))
        sk = doc["stats_sketches_hex"]
        assert sk["sr_hz"]["kind"] == "tdigest"
        assert sk["clip_id"]["kind"] == "hll"

    merged = merged_stats_sketches(str(out))
    con = duckdb.connect()
    exact_med, n_distinct, n_rows = con.execute(
        "SELECT median(sr_hz), count(DISTINCT clip_id), count(*) FROM "
        f"read_parquet('{corpus['clips']}/*.parquet')"
    ).fetchone()
    got_med = merged["sr_hz"].quantile(0.5)
    assert abs(got_med - exact_med) / exact_med < 0.05
    est = merged["clip_id"].estimate()
    assert abs(est - n_distinct) / n_distinct < 0.05
    # t-digest count tracks non-null rows
    assert merged["sr_hz"].count() <= n_rows

    # a resumed run (nothing pending) must keep the sketch state intact
    res2 = run_validation(cfg)
    assert res2.partitions_skipped == CFG.num_partitions()
    merged2 = merged_stats_sketches(str(out))
    assert merged2["sr_hz"].quantile(0.5) == got_med


def _mini_corpus(root, file_specs):
    """Write clips files per (name, lo, hi) spec; returns clips dir."""
    clips = root / "clips"
    clips.mkdir(exist_ok=True)
    for name, lo, hi in file_specs:
        t = build_clips_table(CFG, np.arange(lo, hi)).drop_columns(
            ["partition_id"]
        )
        pq.write_table(t, clips / name)
    return str(clips)


def test_resume_extended_corpus_is_incremental_and_exact(
    ray_session, corpus, tmp_path
):
    """Appending a sorted-later file keeps existing partition manifests
    valid (true incremental run: only the new file validates); totals
    match a fresh run over the full corpus."""
    root = tmp_path
    specs3 = [(f"part-{i:04d}.parquet", i * 300, (i + 1) * 300) for i in range(3)]
    clips = _mini_corpus(root, specs3)
    cfg = ValidationRunConfig(
        input_path=clips,
        rules=RuleSet.from_yaml(RULES_YAML),
        output_dir=str(root / "run"),
        manifest_path=corpus["manifest"],
    )
    res1 = run_validation(cfg)
    assert res1.partitions_skipped == 0 and res1.total_rows == 900

    # extend: one new file that sorts AFTER the existing ones
    _mini_corpus(root, [("part-0003.parquet", 900, 1200)])
    res2 = run_validation(cfg)
    assert res2.partitions_skipped == 3  # old partitions stayed valid
    assert res2.total_rows == 1200

    fresh = run_validation(
        ValidationRunConfig(
            input_path=clips,
            rules=RuleSet.from_yaml(RULES_YAML),
            output_dir=str(root / "fresh"),
            manifest_path=corpus["manifest"],
        )
    )
    assert res2.total_violations == fresh.total_violations
    assert res2.total_rows == fresh.total_rows


def test_resume_shifted_corpus_never_skips_unvalidated_files(
    ray_session, corpus, tmp_path
):
    """A new file that sorts FIRST shifts every pid→file assignment; the
    lineage check must invalidate the stale manifests and recompute —
    never skip a file that was validated under a different pid."""
    root = tmp_path
    specs = [(f"m-{i:04d}.parquet", i * 300, (i + 1) * 300) for i in range(3)]
    clips = _mini_corpus(root, specs)
    cfg = ValidationRunConfig(
        input_path=clips,
        rules=RuleSet.from_yaml(RULES_YAML),
        output_dir=str(root / "run"),
        manifest_path=corpus["manifest"],
    )
    run_validation(cfg)

    # sorts before every existing file -> every assignment shifts
    _mini_corpus(root, [("a-0000.parquet", 900, 1200)])
    res2 = run_validation(cfg)
    assert res2.partitions_skipped == 0  # all lineage mismatched
    assert res2.total_rows == 1200

    fresh = run_validation(
        ValidationRunConfig(
            input_path=clips,
            rules=RuleSet.from_yaml(RULES_YAML),
            output_dir=str(root / "fresh"),
            manifest_path=corpus["manifest"],
        )
    )
    assert res2.total_violations == fresh.total_violations
    # per-partition violation rows identical to the fresh run
    a = res2.violations_dataset().to_pandas()
    b = fresh.violations_dataset().to_pandas()
    key = ["partition_id", "key", "rule_id", "reason"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )


def test_resume_shrunk_corpus_purges_stale_state(ray_session, corpus, tmp_path):
    """Removing a file must purge the removed partition's manifest,
    violations and sketch state — a resumed run's report equals a fresh
    run over the smaller corpus."""
    from fs_schema_validator_ray.pipelines.validate import merged_stats_sketches

    root = tmp_path
    specs = [(f"part-{i:04d}.parquet", i * 300, (i + 1) * 300) for i in range(4)]
    clips = _mini_corpus(root, specs)
    cfg = ValidationRunConfig(
        input_path=clips,
        rules=RuleSet.from_yaml(RULES_YAML),
        output_dir=str(root / "run"),
        manifest_path=corpus["manifest"],
        stats_sketch_columns=["sr_hz"],
    )
    res1 = run_validation(cfg)
    assert res1.total_rows == 1200
    n1 = merged_stats_sketches(str(root / "run"))["sr_hz"].count()

    os.remove(os.path.join(clips, "part-0003.parquet"))
    res2 = run_validation(cfg)
    assert res2.total_rows == 900
    # removed partition's sketch state is gone from the merge
    n2 = merged_stats_sketches(str(root / "run"))["sr_hz"].count()
    assert n2 < n1

    fresh = run_validation(
        ValidationRunConfig(
            input_path=clips,
            rules=RuleSet.from_yaml(RULES_YAML),
            output_dir=str(root / "fresh"),
            manifest_path=corpus["manifest"],
        )
    )
    assert res2.total_violations == fresh.total_violations
    a = res2.violations_dataset().to_pandas()
    b = fresh.violations_dataset().to_pandas()
    key = ["partition_id", "key", "rule_id", "reason"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )


# --- composite-key uniqueness (round 5) --------------------------------------


def test_composite_unique_rule(ray_session):
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.rules import RuleSet
    from fs_schema_validator_ray.stages.unique import uniqueness_violations

    rules = RuleSet.from_yaml(
        """
rules:
  - type: unique
    columns: [user_id, day]
"""
    )
    (rule,) = rules.unique_rules()
    assert rule.columns == ("user_id", "day")
    assert rule.rule_id == "unique_user_id_day"

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 2, 1, None], pa.int64()),
            "day": ["a", "a", "a", "b", "b", "a"],
        }
    )
    out = uniqueness_violations(
        ray.data.from_arrow(t).repartition(3), rule, n_buckets=4
    ).to_pandas()
    # only (1, 'a') duplicates; (None, 'a') is a distinct key
    assert len(out) == 1
    assert "appears 2 times" in out["reason"].iloc[0]
    assert out["key"].iloc[0] == "1\x1fa"
    # null-vs-string cannot collide: planted ("None", x) vs (None, x)
    t2 = pa.table(
        {
            "user_id": pa.array(["None", None], pa.string()),
            "day": ["x", "x"],
        }
    )
    out2 = uniqueness_violations(
        ray.data.from_arrow(t2).repartition(2), rule, n_buckets=4
    ).to_pandas()
    assert len(out2) == 0
    # separator / null-sentinel characters inside values cannot collide:
    # ("a\x1fb", "c") vs ("a", "b\x1fc") and a literal "\x00null" vs null
    t3 = pa.table(
        {
            "user_id": pa.array(["a\x1fb", "a", "\x00null", None], pa.string()),
            "day": ["c", "b\x1fc", "z", "z"],
        }
    )
    out3 = uniqueness_violations(
        ray.data.from_arrow(t3).repartition(2), rule, n_buckets=4
    ).to_pandas()
    assert len(out3) == 0


def test_categorical_drift_rule(drift_state):
    """Categorical drift: a partition whose codec mix flips must gate
    PSI; balanced partitions must not."""
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.pipelines.stats import drift_verdicts
    from fs_schema_validator_ray.rules import RuleSet
    from fs_schema_validator_ray.stages.scalar import PARTITION_COLUMN

    rules = RuleSet.from_yaml(
        """
rules:
  - type: drift
    column: codec
    categorical: true
    max_psi: 0.1
"""
    )
    (rule,) = rules.drift_rules()
    assert rule.categorical and rule.max_psi == 0.1

    rows = []
    for pid in range(4):
        for i in range(300):
            if pid == 3:
                # partition 3: 90% pcm (mix flipped) — all categories
                # still present (an ABSENT category inflates PSI through
                # the eps floor by design; skew is the subtler case)
                codec = "pcm" if i % 10 < 9 else ("ulaw", "alaw")[i % 2]
            else:
                codec = ("pcm", "ulaw", "alaw")[i % 3]
            rows.append((pid, codec))
    t = pa.table(
        {
            PARTITION_COLUMN: pa.array([r[0] for r in rows], pa.int32()),
            "codec": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    def categorical_drift_self_check(ds):
        return drift_verdicts(drift_state(ds, rule), rule)

    viol, metrics, sketches = categorical_drift_self_check(
        ray.data.from_arrow(t).repartition(4)
    )
    flagged = set(viol.column("partition_id").to_pylist())
    assert flagged == {3}
    assert metrics[0]["psi"] < 0.1 < metrics[3]["psi"]
    # sketch blobs round-trip as the manifest JSON
    import json

    assert json.loads(sketches[3].decode())["pcm"] == 270
    # deterministic
    viol2, metrics2, _ = categorical_drift_self_check(
        ray.data.from_arrow(t).repartition(4)
    )
    assert metrics2 == metrics


def test_composite_referential_rule(ray_session, tmp_path):
    """Composite-key referential: (clip_id, codec) tuples must exist in
    the manifest — a right key with the wrong codec is a violation."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from fs_schema_validator_ray.rules import RuleSet
    from fs_schema_validator_ray.stages.referential import (
        ReferentialStage,
        build_membership,
        canonical_tuple_strings,
    )

    rules = RuleSet.from_yaml(
        """
rules:
  - type: referential
    columns: [clip_id, codec]
"""
    )
    (rule,) = rules.referential_rules()
    assert rule.columns == ("clip_id", "codec")

    manifest = pa.table(
        {
            "clip_id": ["a", "b", "c"],
            "codec": ["pcm", "ulaw", None],
        }
    )
    membership = build_membership(
        canonical_tuple_strings(manifest, rule.columns)
    )
    stage = ReferentialStage(rule, ray.put(membership))
    batch = pa.table(
        {
            "clip_id": ["a", "a", "b", "c", "d"],
            "codec": ["pcm", "ulaw", "ulaw", None, "pcm"],
        }
    )
    out = stage(batch)
    keys = sorted(out.column("key").to_pylist())
    # ("a","ulaw") wrong codec; ("d","pcm") unknown clip; ("c", null)
    # matches the manifest's null-codec row literally
    assert keys == ["a\x1fulaw", "d\x1fpcm"]


def test_run_validation_with_composite_and_categorical(ray_session, tmp_path):
    """Full run_validation with a composite unique + categorical drift
    ruleset — covers the global-pass column pruning for multi-column
    keys (regression: the pruned read must carry ALL key columns)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fs_schema_validator_ray.pipelines.validate import (
        ValidationRunConfig,
        run_validation,
    )
    from fs_schema_validator_ray.rules import RuleSet

    clips_dir = tmp_path / "clips"
    clips_dir.mkdir()
    t = pa.table(
        {
            "clip_id": [f"c{i}" for i in range(40)] + ["c0"],  # dup (c0, pcm)
            "codec": ["pcm"] * 41,
        }
    )
    pq.write_table(t, str(clips_dir / "part-0.parquet"))
    rules = RuleSet.from_yaml(
        """
rules:
  - type: unique
    columns: [clip_id, codec]
  - type: drift
    column: codec
    categorical: true
    max_psi: 0.5
"""
    )
    res = run_validation(
        ValidationRunConfig(
            input_path=str(clips_dir),
            rules=rules,
            output_dir=str(tmp_path / "out"),
            key_column="clip_id",
        )
    )
    assert res.total_violations == 1  # the planted (c0, pcm) duplicate
    v = res.violations_dataset().to_pandas()
    assert v["key"].iloc[0] == "c0\x1fpcm"


def test_run_validation_composite_referential(ray_session, tmp_path):
    """A composite referential rule end to end: the wave read must carry
    every key column, and only tuples absent from the manifest fail."""
    import pyarrow as pa

    clips_dir = tmp_path / "clips"
    clips_dir.mkdir()
    for pid, (ids, codecs) in enumerate(
        [(["a", "b", "c"], ["pcm", "ulaw", "pcm"]), (["d", "e"], ["alaw", None])]
    ):
        pq.write_table(
            pa.table({"clip_id": ids, "codec": pa.array(codecs, pa.string())}),
            str(clips_dir / f"part-{pid}.parquet"),
        )
    manifest = tmp_path / "manifest.parquet"
    pq.write_table(
        pa.table(
            {
                "clip_id": ["a", "b", "c", "d", "e"],
                "codec": pa.array(["pcm", "pcm", "pcm", "alaw", None], pa.string()),
            }
        ),
        str(manifest),
    )
    res = run_validation(
        ValidationRunConfig(
            input_path=str(clips_dir),
            rules=RuleSet.from_yaml(
                "rules:\n  - rule: ref_pair\n    type: referential\n"
                "    columns: [clip_id, codec]\n"
            ),
            output_dir=str(tmp_path / "out"),
            manifest_path=str(manifest),
        )
    )
    v = res.violations_dataset().to_pandas()
    # ("b", "ulaw") has the wrong codec; ("e", null) matches literally
    assert res.total_violations == 1
    assert list(zip(v["partition_id"], v["key"], v["rule_id"], v["reason"])) == [
        (0, "b\x1fulaw", "ref_pair", "does not exist in manifest `manifest`")
    ]


def _referential_run(tmp_path, corpus_files, manifest, rule_yaml):
    clips_dir = tmp_path / "clips"
    clips_dir.mkdir()
    for pid, t in enumerate(corpus_files):
        pq.write_table(t, str(clips_dir / f"part-{pid}.parquet"))
    pq.write_table(manifest, str(tmp_path / "manifest.parquet"))
    res = run_validation(
        ValidationRunConfig(
            input_path=str(clips_dir),
            rules=RuleSet.from_yaml("rules:\n  - rule: ref\n    type: referential\n" + rule_yaml),
            output_dir=str(tmp_path / "out"),
            manifest_path=str(tmp_path / "manifest.parquet"),
        )
    )
    v = res.violations_dataset().to_pandas()
    return sorted(zip(v["partition_id"], v["key"]))


def test_run_validation_referential_numeric_keys_match_by_value(ray_session, tmp_path):
    """An int64 corpus key against a float64 manifest column (what pandas
    writes for an int column with nulls) matches by value; a manifest
    value no int equals (2.5) whitelists nothing."""
    got = _referential_run(
        tmp_path,
        [pa.table({"clip_id": pa.array([1, 2, 3], pa.int64())}),
         pa.table({"clip_id": pa.array([4, 5], pa.int64())})],
        pa.table({"clip_id": pa.array([1.0, 2.0, 4.0, 5.5, None], pa.float64())}),
        "    column: clip_id\n",
    )
    assert got == [(0, "3"), (1, "5")]


def test_run_validation_composite_referential_numeric_keys_match_by_value(
    ray_session, tmp_path
):
    """The same by-value match inside a composite key: the float64 ``1.0``
    component is the int64 ``1``, not the string ``"1.0"``."""
    got = _referential_run(
        tmp_path,
        [pa.table({"clip_id": pa.array([1, 2, 3], pa.int64()),
                   "codec": ["pcm", "ulaw", "pcm"]})],
        pa.table({"clip_id": pa.array([1.0, 2.0, 3.0, 2.5], pa.float64()),
                  "codec": ["pcm", "pcm", "pcm", "ulaw"]}),
        "    columns: [clip_id, codec]\n",
    )
    assert got == [(0, "2\x1fulaw")]


def test_run_validation_composite_unique_absent_column(ray_session, tmp_path):
    """A composite unique rule naming an absent column is ONE plan-time
    violation (and is dropped from the data plane), not a crashed read."""
    import pyarrow as pa

    clips_dir = tmp_path / "clips"
    clips_dir.mkdir()
    pq.write_table(
        pa.table({"clip_id": ["a", "a", "b"]}), str(clips_dir / "part-0.parquet")
    )
    res = run_validation(
        ValidationRunConfig(
            input_path=str(clips_dir),
            rules=RuleSet.from_yaml(
                "rules:\n  - type: unique\n    columns: [clip_id, lang]\n"
            ),
            output_dir=str(tmp_path / "out"),
        )
    )
    v = res.violations_dataset().to_pandas()
    assert res.total_violations == 1
    assert list(zip(v["key"], v["rule_id"], v["reason"])) == [
        (None, "unique_clip_id_lang", "column `lang` does not exist")
    ]


RULES = """
rules:
  - rule: v_range
    type: int
    column: v
    min: 0
    max: 100
  - rule: unique_k
    type: unique
    column: k
"""


def make_corpus(tmp_path, n_files=3, rows=50):
    d = tmp_path / "in"
    d.mkdir()
    for i in range(n_files):
        t = pa.table(
            {
                "k": pa.array([f"{i}-{j}" for j in range(rows)]),
                "v": pa.array(
                    [200 if j == 0 else j for j in range(rows)], pa.int64()
                ),
            }
        )
        pq.write_table(t, d / f"f{i}.parquet")
    return str(d)


def test_crash_resume_does_not_duplicate_violations(ray_session, tmp_path):
    """Crash between violations write and manifest write (simulated by
    deleting the manifests) must NOT double-count on rerun."""
    src = make_corpus(tmp_path)
    out = tmp_path / "run"
    cfg = ValidationRunConfig(
        input_path=src, rules=RuleSet.from_yaml(RULES),
        output_dir=str(out), key_column="k",
    )
    res1 = run_validation(cfg)
    n1 = res1.total_violations
    assert n1 == 3  # one v=200 per file
    assert res1.violations_dataset().count() == 3

    # simulate crash-after-write: output files exist, manifests don't
    for m in glob.glob(os.path.join(out, "manifest", "part-*.json")):
        os.remove(m)
    res2 = run_validation(cfg)
    assert res2.total_violations == n1
    assert res2.violations_dataset().count() == 3

    # partial resume: one partition redone → still no duplicates
    os.remove(os.path.join(out, "manifest", "part-1.json"))
    res3 = run_validation(cfg)
    assert res3.total_violations == n1
    assert res3.violations_dataset().count() == 3


def test_missing_column_rule_is_one_plan_violation(ray_session, tmp_path):
    src = make_corpus(tmp_path)
    rules = RuleSet.from_yaml(
        RULES + "  - rule: ghost\n    type: int\n    column: nope\n    min: 0\n"
    )
    out = tmp_path / "run"
    cfg = ValidationRunConfig(
        input_path=src, rules=rules, output_dir=str(out), key_column="k",
        partitions=3, wave_size=1,  # several waves: count must not scale
    )
    res = run_validation(cfg)
    v = res.violations_dataset().to_pandas()
    ghost = v[v["rule_id"] == "ghost"]
    assert len(ghost) == 1
    assert ghost.iloc[0]["reason"] == "column `nope` does not exist"
    # resume: still exactly one
    res2 = run_validation(cfg)
    v2 = res2.violations_dataset().to_pandas()
    assert len(v2[v2["rule_id"] == "ghost"]) == 1


def test_drift_rule_added_on_resume_counts(ray_session, tmp_path):
    """A drift rule added AFTER a completed run must contribute to
    total_violations even though every partition is skipped as done."""
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(1)
    # partition 0 clean, partition 1 drifted
    pq.write_table(
        pa.table({"k": [f"a{i}" for i in range(500)],
                  "v": rng.integers(10, 40, 500)}), src / "f0.parquet"
    )
    pq.write_table(
        pa.table({"k": [f"b{i}" for i in range(500)],
                  "v": rng.integers(60, 90, 500)}), src / "f1.parquet"
    )
    out = tmp_path / "run"
    base = "rules:\n  - rule: v_range\n    type: int\n    column: v\n    min: 0\n    max: 100\n"
    cfg = ValidationRunConfig(
        input_path=str(src), rules=RuleSet.from_yaml(base),
        output_dir=str(out), key_column="k",
    )
    res1 = run_validation(cfg)
    assert res1.total_violations == 0

    drifted = base + (
        "  - rule: v_drift\n    type: drift\n    column: v\n"
        "    lo: 0\n    hi: 100\n    bins: 20\n    max_ks: 0.3\n"
    )
    cfg2 = ValidationRunConfig(
        input_path=str(src), rules=RuleSet.from_yaml(drifted),
        output_dir=str(out), key_column="k",
    )
    res2 = run_validation(cfg2)
    assert res2.partitions_skipped == 2 and res2.waves_run == 0
    # both partitions drift hard against the pooled baseline
    assert res2.total_violations == 2
    v = res2.violations_dataset().to_pandas()
    assert (v["rule_id"] == "v_drift").sum() == 2


def test_drift_violations_survive_noop_rerun(ray_session, tmp_path):
    """ADVICE r1: a no-op rerun after a drift rule was added on resume must
    keep reporting the drift violations (exit 1), not silently flip to 0."""
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(1)
    pq.write_table(
        pa.table({"k": [f"a{i}" for i in range(500)],
                  "v": rng.integers(10, 40, 500)}), src / "f0.parquet"
    )
    pq.write_table(
        pa.table({"k": [f"b{i}" for i in range(500)],
                  "v": rng.integers(60, 90, 500)}), src / "f1.parquet"
    )
    out = tmp_path / "run"
    base = "rules:\n  - rule: v_range\n    type: int\n    column: v\n    min: 0\n    max: 100\n"
    cfg = ValidationRunConfig(
        input_path=str(src), rules=RuleSet.from_yaml(base),
        output_dir=str(out), key_column="k",
    )
    assert run_validation(cfg).total_violations == 0

    drifted = base + (
        "  - rule: v_drift\n    type: drift\n    column: v\n"
        "    lo: 0\n    hi: 100\n    bins: 20\n    max_ks: 0.3\n"
    )
    cfg2 = ValidationRunConfig(
        input_path=str(src), rules=RuleSet.from_yaml(drifted),
        output_dir=str(out), key_column="k",
    )
    res2 = run_validation(cfg2)
    assert res2.total_violations == 2 and res2.exit_code() == 1

    # run 3: everything (incl. the drift manifest) is done — the loaded
    # drift counts must still be included for partitions whose docs
    # predate the drift rule
    res3 = run_validation(cfg2)
    assert res3.waves_run == 0
    assert res3.total_violations == 2 and res3.exit_code() == 1
    v = res3.violations_dataset().to_pandas()
    assert (v["rule_id"] == "v_drift").sum() == 2


def test_plan_schema_check_scans_all_footers(ray_session, tmp_path):
    """ADVICE r1: a rule column that appears only after the 256th file must
    not be falsely dropped as 'does not exist'."""
    src = tmp_path / "in"
    src.mkdir()
    n_files = 260
    for i in range(n_files):
        cols = {"k": pa.array([f"{i}-{j}" for j in range(5)])}
        if i == n_files - 1:  # column v exists ONLY in the last file
            cols["v"] = pa.array([1, 2, 3, 4, 5], pa.int64())
        pq.write_table(pa.table(cols), src / f"f{i:04d}.parquet")
    rules = RuleSet.from_yaml(
        "rules:\n  - rule: v_rule\n    type: int\n    column: v\n"
        "    min: 0\n    max: 100\n    nullable: true\n"
    )
    cfg = ValidationRunConfig(
        input_path=str(src), rules=rules, output_dir=str(tmp_path / "run"),
        key_column="k", partitions=4,
    )
    res = run_validation(cfg)
    assert res.total_violations == 0
    v = res.violations_dataset().to_pandas()
    assert len(v) == 0


# --- resume under a changed ruleset ---------------------------------------------

PASSING = "  - rule: v_small\n    type: int\n    column: v\n    min: 0\n    max: 1000\n"
UNIQUE_A = "  - rule: unique_a\n    type: unique\n    column: a\n"
UNIQUE_B = "  - rule: unique_b\n    type: unique\n    column: b\n"
GHOST_1 = "  - rule: ghost_1\n    type: int\n    column: nope_1\n    min: 0\n"
GHOST_2 = "  - rule: ghost_2\n    type: int\n    column: nope_2\n    min: 0\n"
V_RANGE = "  - rule: v_range\n    type: int\n    column: v\n    min: 0\n    max: {max}\n"
V_DRIFT = ("  - rule: v_drift\n    type: drift\n    column: v\n    lo: 0\n    hi: 100\n"
           "    bins: 20\n    max_ks: {max}\n    max_psi: {max}\n")


def _resumed_and_fresh(tmp_path, before, after, change=None, skipped=2):
    """Runs ``before`` to completion, calls ``change(input_dir)`` if given,
    resumes the same output directory with ``after``, and runs ``after``
    fresh. Columns ``a`` and ``b`` each hold one duplicate key across the
    two files; ``v`` is low in ``f0`` and high in ``f1``, so each drifts
    from their pooled distribution."""
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"k": ["x0", "x1"], "a": [1, 2], "b": ["p", "q"],
                             "v": [10, 20]}), src / "f0.parquet")
    pq.write_table(pa.table({"k": ["y0", "y1"], "a": [2, 3], "b": ["q", "r"],
                             "v": [70, 80]}), src / "f1.parquet")

    def run(rules, out):
        return run_validation(ValidationRunConfig(
            input_path=str(src), rules=RuleSet.from_yaml("rules:\n" + rules),
            output_dir=str(tmp_path / out), key_column="k",
        ))

    run(before, "resumed")
    if change is not None:
        change(src)
    resumed, fresh = run(after, "resumed"), run(after, "fresh")
    assert resumed.partitions_skipped == skipped
    for res in (resumed, fresh):
        assert res.violations_dataset().count() == res.total_violations
    return resumed, fresh


def test_resume_checks_a_unique_rule_added_on_resume(ray_session, tmp_path):
    resumed, fresh = _resumed_and_fresh(tmp_path, UNIQUE_A, UNIQUE_A + UNIQUE_B)
    assert resumed.total_violations == fresh.total_violations == 2


def test_resume_drops_a_unique_rule_removed_on_resume(ray_session, tmp_path):
    resumed, fresh = _resumed_and_fresh(tmp_path, PASSING + UNIQUE_A, PASSING)
    assert resumed.total_violations == fresh.total_violations == 0


def test_resume_reports_a_missing_column_rule_added_on_resume(ray_session, tmp_path):
    resumed, fresh = _resumed_and_fresh(tmp_path, PASSING + GHOST_1, PASSING + GHOST_1 + GHOST_2)
    assert resumed.total_violations == fresh.total_violations == 2


def test_resume_drops_a_missing_column_rule_removed_on_resume(ray_session, tmp_path):
    resumed, fresh = _resumed_and_fresh(tmp_path, PASSING + GHOST_1, PASSING)
    assert resumed.total_violations == fresh.total_violations == 0
    assert resumed.exit_code() == 0


def test_resume_drops_a_drift_rule_removed_on_resume(ray_session, tmp_path):
    v_range = V_RANGE.format(max=100)
    resumed, fresh = _resumed_and_fresh(tmp_path, v_range + V_DRIFT.format(max=0.3), v_range)
    assert resumed.total_violations == fresh.total_violations == 0
    assert not os.path.exists(tmp_path / "resumed" / "manifest" / "drift-v_drift.json")
    assert not os.path.exists(tmp_path / "resumed" / "violations" / "drift-v_drift")


def test_resume_recomputes_drift_over_an_appended_file(ray_session, tmp_path):
    rules = V_RANGE.format(max=100) + V_DRIFT.format(max=0.3)

    def append(src):
        pq.write_table(pa.table({"k": ["z0", "z1"], "a": [7, 8], "b": ["s", "t"],
                                 "v": [15, 75]}), src / "f2.parquet")

    resumed, fresh = _resumed_and_fresh(tmp_path, rules, rules, change=append)
    # each file's values fill bins the others leave empty: all three drift
    assert resumed.total_violations == fresh.total_violations == 3


def test_resume_rechecks_drift_thresholds_changed_under_the_same_id(ray_session, tmp_path):
    v_range = V_RANGE.format(max=100)
    resumed, fresh = _resumed_and_fresh(
        tmp_path, v_range + V_DRIFT.format(max=0.3), v_range + V_DRIFT.format(max=50)
    )
    assert resumed.total_violations == fresh.total_violations == 0


def test_resume_rechecks_partitions_when_a_row_rule_changes_under_the_same_id(
    ray_session, tmp_path
):
    resumed, fresh = _resumed_and_fresh(
        tmp_path, V_RANGE.format(max=100), V_RANGE.format(max=50), skipped=0
    )
    # both `v` of f1 exceed the new maximum
    assert resumed.total_violations == fresh.total_violations == 2


def test_resume_rechecks_partitions_when_an_allowed_list_changes(ray_session, tmp_path):
    allowed = "  - rule: b_enum\n    type: str\n    column: b\n    allowed: [{}]\n"
    resumed, fresh = _resumed_and_fresh(
        tmp_path, allowed.format("p, q, r"), allowed.format("p, q"), skipped=0
    )
    assert resumed.total_violations == fresh.total_violations == 1
