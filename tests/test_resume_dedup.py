"""Kill-and-resume coverage for the long dedup pipeline (VERDICT r3
item 9): the manifest-checkpointed exact Jaccard join must survive a
crash mid-verify and resume to byte-identical output without redoing
finished parts."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from fs_schema_validator_ray.pipelines.resume import (
    ngram_jaccard_pairs_resumable,
)


def _corpus(tmp_path) -> str:
    """Small corpus with planted near-duplicate groups."""
    base = [
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "how vexingly quick daft zebras jump",
        "sphinx of black quartz judge my vow",
    ]
    texts, ids = [], []
    for i in range(120):
        t = base[i % 4]
        if i % 3 == 0:
            t = t + f" extra{i % 7}"
        texts.append(t)
        ids.append(i)  # the pipeline's pair schema carries int64 doc ids
    path = os.path.join(tmp_path, "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}), path
    )
    return path


def _pairs_set(ds) -> set:
    return {
        (r["a"], r["b"], round(r["similarity"], 9)) for r in ds.take_all()
    }


def test_kill_and_resume_identical_output(ray_session, tmp_path):
    path = _corpus(tmp_path)
    factory = lambda: ray.data.read_parquet(path)  # noqa: E731

    # reference: uninterrupted run
    ref_dir = str(tmp_path / "ref")
    ref = _pairs_set(
        ngram_jaccard_pairs_resumable(
            factory, ref_dir, threshold=0.6, shingle_n=2, n_parts=4
        )
    )
    assert ref  # planted dup groups must yield pairs
    # and it matches the non-resumable pipeline exactly
    from fs_schema_validator_ray.stages.dedup import ngram_jaccard_pairs

    direct = _pairs_set(
        ngram_jaccard_pairs(factory(), threshold=0.6, shingle_n=2)
    )
    assert ref == direct

    # crash after candidates + 2 of 4 verify parts
    crash_dir = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected crash"):
        ngram_jaccard_pairs_resumable(
            factory, crash_dir, threshold=0.6, shingle_n=2, n_parts=4,
            _fail_after_parts=2,
        )
    manifests = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(crash_dir, "manifest", "*.json"))
    )
    assert "candidates.json" in manifests
    assert sum(m.startswith("verify-") for m in manifests) == 2

    # record mtimes of completed part outputs — resume must not rewrite
    done_files = {
        p: os.path.getmtime(p)
        for p in glob.glob(os.path.join(crash_dir, "pairs", "part=*", "*.parquet"))
    }

    resumed = _pairs_set(
        ngram_jaccard_pairs_resumable(
            factory, crash_dir, threshold=0.6, shingle_n=2, n_parts=4
        )
    )
    assert resumed == ref
    for p, mtime in done_files.items():
        assert os.path.getmtime(p) == mtime, f"finished part rewritten: {p}"
    # all four parts now have manifest rows
    n_verify = len(glob.glob(os.path.join(crash_dir, "manifest", "verify-*.json")))
    assert n_verify == 4


def test_crash_between_output_and_manifest_is_safe(ray_session, tmp_path):
    """Stale part output WITHOUT a manifest row (crash mid-write) must be
    cleared and redone, never double-counted."""
    path = _corpus(tmp_path)
    factory = lambda: ray.data.read_parquet(path)  # noqa: E731
    out = str(tmp_path / "out")
    ref = _pairs_set(
        ngram_jaccard_pairs_resumable(
            factory, out, threshold=0.6, shingle_n=2, n_parts=2
        )
    )
    # simulate: part 1's manifest lost after its (complete) output wrote —
    # the resume must clear and rebuild that part only
    os.remove(os.path.join(out, "manifest", "verify-1.json"))
    again = _pairs_set(
        ngram_jaccard_pairs_resumable(
            factory, out, threshold=0.6, shingle_n=2, n_parts=2
        )
    )
    assert again == ref


# --- SemDeDup resumable (round 5) --------------------------------------------


def _emb_corpus(tmp_path) -> str:
    import numpy as np

    rng = np.random.default_rng(7)
    vecs, ids = [], []
    # planted families of 3 identical vectors + noise rows
    for fam in range(6):
        v = rng.normal(size=12)
        for c in range(3):
            ids.append(fam * 10 + c)
            vecs.append(list(v))
    for i in range(60):
        ids.append(1000 + i)
        vecs.append(list(rng.normal(size=12)))
    path = os.path.join(tmp_path, "emb.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float64())),
            }
        ),
        path,
    )
    return path


def _keep_map(ds) -> dict:
    return {
        r["vec_id"]: (r["cluster_id"], r["keep"], round(r["max_sim_kept"], 9))
        for r in ds.take_all()
    }


def test_semdedup_kill_and_resume_identical(ray_session, tmp_path):
    from fs_schema_validator_ray.pipelines.resume import semdedup_resumable
    from fs_schema_validator_ray.stages.similarity import semdedup

    path = _emb_corpus(tmp_path)
    factory = lambda: ray.data.read_parquet(path)  # noqa: E731

    ref_dir = str(tmp_path / "sd_ref")
    ref = _keep_map(
        semdedup_resumable(
            factory, ref_dir, eps=0.05, n_clusters=4, iters=3, n_parts=4
        )
    )
    assert ref and len(ref) == 78
    # matches the non-resumable pipeline exactly
    direct = _keep_map(semdedup(factory(), eps=0.05, n_clusters=4, iters=3))
    assert ref == direct
    # planted identical triples: later two ids never kept
    for fam in range(6):
        assert ref[fam * 10 + 1][1] is False
        assert ref[fam * 10 + 2][1] is False

    # crash mid-fit (after 2 centroid passes), resume, then crash
    # mid-prune, resume again — final output byte-identical
    crash_dir = str(tmp_path / "sd_crash")
    with pytest.raises(RuntimeError, match="injected crash"):
        semdedup_resumable(
            factory, crash_dir, eps=0.05, n_clusters=4, iters=3, n_parts=4,
            _fail_after_units=2,
        )
    manifests = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(crash_dir, "manifest", "*.json"))
    )
    assert manifests == ["centroids-0.json", "centroids-1.json"]
    with pytest.raises(RuntimeError, match="injected crash"):
        semdedup_resumable(
            factory, crash_dir, eps=0.05, n_clusters=4, iters=3, n_parts=4,
            _fail_after_units=4,  # 2 remaining centroid passes + 2 prunes... counts resume-local
        )
    resumed = _keep_map(
        semdedup_resumable(
            factory, crash_dir, eps=0.05, n_clusters=4, iters=3, n_parts=4
        )
    )
    assert resumed == ref
    # finished units were not redone: all 4+4 manifests now present
    manifests = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(crash_dir, "manifest", "*.json"))
    )
    assert sum(m.startswith("centroids-") for m in manifests) == 4
    assert sum(m.startswith("prune-") for m in manifests) == 4


# --- BPE train resumable (round 5) -------------------------------------------


def _text_corpus(tmp_path) -> str:
    texts = [
        "the cat sat on the mat and the cat ate",
        "a dog and a cat and a dog sat",
        "mats and dogs and cats sat on mats",
        "the dog sat on the cat mat",
    ] * 15
    path = os.path.join(tmp_path, "texts.parquet")
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}
        ),
        path,
    )
    return path


def test_bpe_kill_and_resume_identical(ray_session, tmp_path):
    from fs_schema_validator_ray.pipelines.resume import bpe_train_resumable
    from fs_schema_validator_ray.stages.bpe import bpe_train

    path = _text_corpus(tmp_path)
    factory = lambda: ray.data.read_parquet(path)  # noqa: E731

    ref_dir = str(tmp_path / "bpe_ref")
    ref = bpe_train_resumable(
        factory, ref_dir, n_merges=12, checkpoint_every=4
    ).to_pydict()
    assert len(ref["rank"]) == 12
    # matches the non-resumable DISTRIBUTED path exactly
    direct = bpe_train(factory(), n_merges=12, pin=False).to_pydict()
    assert ref == direct
    # ... and the driver fast path (path parity is already its own test)
    serial = bpe_train(factory(), n_merges=12, pin=True).to_pydict()
    assert ref == serial

    # crash after the word table + first checkpoint, resume to identical
    crash_dir = str(tmp_path / "bpe_crash")
    with pytest.raises(RuntimeError, match="injected crash"):
        bpe_train_resumable(
            factory, crash_dir, n_merges=12, checkpoint_every=4,
            _fail_after_units=2,
        )
    manifests = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(crash_dir, "manifest", "*.json"))
    )
    assert manifests == ["ckpt-4.json", "words.json"]
    resumed = bpe_train_resumable(
        factory, crash_dir, n_merges=12, checkpoint_every=4
    ).to_pydict()
    assert resumed == ref
    manifests = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(crash_dir, "manifest", "*.json"))
    )
    assert "final.json" in manifests and "ckpt-8.json" in manifests
