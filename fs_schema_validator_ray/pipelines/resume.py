"""Partition-resumable wrappers for long dedup pipelines.

``run_validation`` (``pipelines/validate.py``) is resumable per
partition; the long dedup/join pipelines were not (VERDICT r3 item 9).
This module applies the same manifest pattern — atomic JSON manifest
rows written only AFTER a unit's parquet output is complete, resume =
skip units with manifest rows, clear stale files for incomplete units —
to the exact n-gram Jaccard join, as the template for the other
pipelines.

Unit layout for ``ngram_jaccard_pairs_resumable(output_dir)``:

* ``candidates/`` + manifest ``candidates.json`` — the prefix-filter /
  bucket-groupby candidate phase, checkpointed once (it is one global
  exchange; its output is tiny relative to the corpus: distinct
  candidate id pairs).
* ``pairs/part=K/`` + manifest ``verify-K.json`` for K in
  ``range(n_parts)`` — the expensive true-Jaccard verify, split by
  ``hash(a) % n_parts``: each part re-derives its own doc-shingle lookup
  from the corpus for only ITS candidate ids, so a killed run loses at
  most one part's work and a resumed run never recomputes a finished
  part. Part outputs are deterministic, so resume yields byte-identical
  results.

Reference parity note: the reference is one-shot (no checkpointing —
SURVEY §4.1); this implements the north_rule's "resumable from
checkpoint with per-partition lineage" for the query surface.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.sinks import write_json_atomic


def _manifest_path(output_dir: str, unit: str) -> str:
    return os.path.join(output_dir, "manifest", f"{unit}.json")


def _unit_done(output_dir: str, unit: str) -> bool:
    return os.path.exists(_manifest_path(output_dir, unit))


def _write_unit_manifest(output_dir: str, unit: str, doc: dict) -> None:
    """Atomic: the manifest row exists only when the unit's output is
    fully written (crash between output write and manifest leaves no
    row, so the resume clears and redoes the unit)."""
    os.makedirs(os.path.join(output_dir, "manifest"), exist_ok=True)
    write_json_atomic(_manifest_path(output_dir, unit), {"id": unit, **doc})


def _clear_unit_output(path: str) -> None:
    if os.path.exists(path):
        shutil.rmtree(path)


def ngram_jaccard_pairs_resumable(
    ds_factory,
    output_dir: str,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    shingle_n: int = 1,
    n_parts: int = 8,
    max_broadcast_docs: int = 500_000,
    n_docs: int | None = None,
    _fail_after_parts: int | None = None,
):
    """Crash-safe exact n-gram Jaccard self-join. ``ds_factory()`` must
    return a fresh Dataset over the corpus each call (a read, not a
    consumed pipeline). Returns the pairs Dataset read back from
    ``output_dir/pairs``. ``_fail_after_parts`` injects a crash after
    that many verify parts complete (kill-and-resume tests)."""
    import ray.data

    from fs_schema_validator_ray.stages.dedup import (
        _distinct_shingle_hashes,
        _ngram_candidates,
        verify_candidate_pairs,
    )
    from fs_schema_validator_ray.state.sketches import hash64, stable_key_array

    cand_dir = os.path.join(output_dir, "candidates")
    pairs_dir = os.path.join(output_dir, "pairs")

    # --- unit 1: candidate pairs -------------------------------------------
    if not _unit_done(output_dir, "candidates"):
        _clear_unit_output(cand_dir)  # stale output from a crashed attempt
        ds, cands = _ngram_candidates(
            ds_factory(), text_column, id_column, threshold, shingle_n,
            None, n_docs,
        )
        n_cands = cands.count()
        if n_cands:
            cands.write_parquet(cand_dir)
        else:
            os.makedirs(cand_dir, exist_ok=True)
        _write_unit_manifest(
            output_dir, "candidates", {"n_candidates": n_cands}
        )

    # --- unit 2..: per-part verify -----------------------------------------
    hash_fn = lambda col: _distinct_shingle_hashes(col, shingle_n)  # noqa: E731
    done_parts = 0
    cand_files = glob.glob(os.path.join(cand_dir, "*.parquet"))
    for k in range(n_parts):
        unit = f"verify-{k}"
        part_dir = os.path.join(pairs_dir, f"part={k}")
        if _unit_done(output_dir, unit):
            continue
        _clear_unit_output(part_dir)
        if cand_files:
            cands_k = ray.data.read_parquet(cand_files)

            def in_part(t: pa.Table, part: int = k) -> pa.Table:
                h = hash64(stable_key_array(t.column("a").combine_chunks()))
                return t.filter(pa.array((h % np.uint64(n_parts)) == part))

            cands_k = cands_k.map_batches(in_part, batch_format="pyarrow")
            cands_k = cands_k.materialize()
            if cands_k.count():
                verified = verify_candidate_pairs(
                    ds_factory(), cands_k, text_column, id_column,
                    threshold, hash_fn, max_broadcast_docs,
                )
                n_rows = verified.count()
                if n_rows:
                    verified.write_parquet(part_dir)
                rows = n_rows
            else:
                rows = 0
        else:
            rows = 0
        _write_unit_manifest(output_dir, unit, {"rows": rows, "part": k})
        done_parts += 1
        if _fail_after_parts is not None and done_parts >= _fail_after_parts:
            raise RuntimeError(f"injected crash after {done_parts} verify parts")

    out_files = glob.glob(os.path.join(pairs_dir, "part=*", "*.parquet"))
    if not out_files:
        from fs_schema_validator_ray.stages.dedup import _PAIR_SCHEMA

        return ray.data.from_arrow(_PAIR_SCHEMA.empty_table())
    return ray.data.read_parquet(out_files)


def semdedup_resumable(
    ds_factory,
    output_dir: str,
    *,
    eps: float = 0.05,
    n_clusters: int = 8,
    iters: int = 3,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    seed: int = 11,
    n_parts: int = 4,
    _fail_after_units: int | None = None,
):
    """Crash-safe SemDeDup (VERDICT r4 item 7 — the manifest pattern
    applied to the centroid-FIT + per-cluster-PRUNE pipeline class).

    Unit layout:

    * ``centroids/iter=I/`` + manifest ``centroids-I.json`` for I in
      ``0..iters`` — the k-means state AFTER pass I (I=0 is the sample
      init), so a killed fit resumes from its last completed streaming
      pass via ``kmeans_centroids(init_centroids=...)`` — this is the
      "sketch state in the manifest" lineage story applied to model
      state.
    * ``keep/part=K/`` + manifest ``prune-K.json`` for K in
      ``range(n_parts)`` — the assignment + greedy prune split by
      ``cluster_id % n_parts``; each part re-runs the (stateless,
      broadcast-centroid) assignment for only ITS clusters, so at most
      one part's prune work is lost on a crash.

    Everything downstream of the checkpointed centroids is
    deterministic, so a resumed run is byte-identical to an
    uninterrupted one (pytest kill-and-resume gate).
    ``_fail_after_units`` injects a crash after that many units
    complete (centroid passes count as units)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from fs_schema_validator_ray.stages.similarity import (
        IvfAssignStage,
        _semdedup_group,
        collect_matrix,
        kmeans_centroids,
        kmeans_fit,
    )

    units_done = 0

    def maybe_crash():
        nonlocal units_done
        units_done += 1
        if _fail_after_units is not None and units_done >= _fail_after_units:
            raise RuntimeError(f"injected crash after {units_done} units")

    def cent_path(i: int) -> str:
        return os.path.join(output_dir, "centroids", f"iter={i}", "cent.parquet")

    def save_cent(i: int, cent: np.ndarray) -> None:
        os.makedirs(os.path.dirname(cent_path(i)), exist_ok=True)
        k, dim = cent.shape
        pq.write_table(
            pa.table(
                {
                    "cluster_id": pa.array(
                        np.repeat(np.arange(k, dtype=np.int64), dim)
                    ),
                    "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), k)),
                    "value": pa.array(cent.reshape(-1), pa.float64()),
                }
            ),
            cent_path(i),
        )

    def load_cent(i: int) -> np.ndarray:
        t = pq.read_table(cent_path(i))
        k = int(np.asarray(t.column("cluster_id")).max()) + 1
        return (
            np.asarray(t.column("value"), np.float64).reshape(k, -1)
        )

    # --- units 0..iters: centroid passes -----------------------------------
    last_done = -1
    for i in range(iters + 1):
        if _unit_done(output_dir, f"centroids-{i}"):
            last_done = i
        else:
            break
    cent = load_cent(last_done) if last_done >= 0 else None
    for i in range(last_done + 1, iters + 1):
        _clear_unit_output(os.path.dirname(cent_path(i)))
        if i == 0:
            sample = ds_factory().limit(sample_size)
            cent = kmeans_fit(
                collect_matrix(sample, vec_column), n_clusters, seed=seed
            )
        else:
            cent = kmeans_centroids(
                ds_factory(), n_clusters, iters=1, vec_column=vec_column,
                seed=seed, init_centroids=cent,
            )
        save_cent(i, cent)
        _write_unit_manifest(
            output_dir, f"centroids-{i}", {"iter": i, "k": int(cent.shape[0])}
        )
        maybe_crash()

    # --- units: per-part assignment + prune --------------------------------
    keep_dir = os.path.join(output_dir, "keep")
    for k in range(n_parts):
        unit = f"prune-{k}"
        part_dir = os.path.join(keep_dir, f"part={k}")
        if _unit_done(output_dir, unit):
            continue
        _clear_unit_output(part_dir)
        assigned = (
            ds_factory()
            .select_columns([id_column, vec_column])
            .map_batches(
                IvfAssignStage(ray.put(cent), vec_column), batch_format="pyarrow"
            )
            .map_batches(
                lambda t: t.rename_columns([id_column, vec_column, "cluster_id"]),
                batch_format="pyarrow",
            )
            .map_batches(
                lambda t, part=k: t.filter(
                    pa.array(
                        np.asarray(t.column("cluster_id"), np.int64)
                        % n_parts
                        == part
                    )
                ),
                batch_format="pyarrow",
            )
        )
        pruned = assigned.groupby("cluster_id").map_groups(
            lambda g: _semdedup_group(g, vec_column, id_column, eps),
            batch_format="pyarrow",
        )
        n_rows = pruned.count()
        if n_rows:
            pruned.write_parquet(part_dir)
        _write_unit_manifest(output_dir, unit, {"rows": n_rows, "part": k})
        maybe_crash()

    out_files = glob.glob(os.path.join(keep_dir, "part=*", "*.parquet"))
    if not out_files:
        import ray.data as _rd

        return _rd.from_arrow(
            pa.schema(
                [
                    (id_column, pa.int64()),
                    ("cluster_id", pa.int64()),
                    ("keep", pa.bool_()),
                    ("max_sim_kept", pa.float64()),
                ]
            ).empty_table()
        )
    return ray.data.read_parquet(out_files)


def bpe_train_resumable(
    ds_factory,
    output_dir: str,
    *,
    text_column: str = "text",
    n_merges: int = 64,
    min_count: int = 1,
    checkpoint_every: int = 16,
    _fail_after_units: int | None = None,
):
    """Crash-safe distributed BPE training (VERDICT r4 item 7 — the
    manifest pattern applied to the iterative MERGE-LOOP pipeline
    class, complementing ``semdedup_resumable``'s fit+prune shape).

    Unit layout:

    * ``words/`` + manifest ``words.json`` — the word-frequency table
      (the one corpus-wide exchange), checkpointed once.
    * ``state/iter=K/`` + ``merges/iter=K/`` + manifest ``ckpt-K.json``
      for K at every ``checkpoint_every`` completed merges — the
      REWRITTEN symbol table and the merge list so far, so a killed run
      resumes the loop from its last checkpoint instead of replaying
      rewrites from scratch.
    * ``merges/final/`` + manifest ``final.json`` — the full ordered
      merge table.

    The loop is deterministic (tie-break ``(-count, left, right)``), so
    a resumed run is byte-identical to an uninterrupted one (pytest
    kill-and-resume gate). Returns the merge table (pyarrow)."""
    import pyarrow.parquet as pq
    import ray.data

    from fs_schema_validator_ray.stages.bpe import (
        _distributed_train,
        _word_table,
    )

    units_done = 0

    def maybe_crash():
        nonlocal units_done
        units_done += 1
        if _fail_after_units is not None and units_done >= _fail_after_units:
            raise RuntimeError(f"injected crash after {units_done} units")

    words_dir = os.path.join(output_dir, "words")
    if not _unit_done(output_dir, "words"):
        _clear_unit_output(words_dir)
        wc = _word_table(ds_factory(), text_column, min_count).materialize()
        n_words = wc.count()
        if n_words:
            wc.write_parquet(words_dir)
        else:
            os.makedirs(words_dir, exist_ok=True)
        _write_unit_manifest(output_dir, "words", {"n_words": n_words})
        maybe_crash()

    def merges_path(tag) -> str:
        return os.path.join(output_dir, "merges", f"iter={tag}", "merges.parquet")

    def save_merges(tag, merges: list) -> None:
        os.makedirs(os.path.dirname(merges_path(tag)), exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "rank": pa.array(range(len(merges)), pa.int32()),
                    "left": pa.array([m[0] for m in merges], pa.string()),
                    "right": pa.array([m[1] for m in merges], pa.string()),
                }
            ),
            merges_path(tag),
        )

    def load_merges(tag) -> list:
        t = pq.read_table(merges_path(tag))
        return list(zip(t.column("left").to_pylist(), t.column("right").to_pylist()))

    final_dir = os.path.join(output_dir, "merges", "iter=final")
    if not _unit_done(output_dir, "final"):
        # find the last complete checkpoint
        last_k = 0
        for k in range(checkpoint_every, n_merges, checkpoint_every):
            if _unit_done(output_dir, f"ckpt-{k}"):
                last_k = k
            else:
                break
        init_state = None
        init_merges = None
        if last_k:
            init_merges = load_merges(last_k)
            init_state = ray.data.read_parquet(
                glob.glob(os.path.join(output_dir, "state", f"iter={last_k}", "*.parquet"))
            )

        def on_ckpt(merges: list, cur_ds) -> None:
            k = len(merges)
            if _unit_done(output_dir, f"ckpt-{k}"):
                return
            sdir = os.path.join(output_dir, "state", f"iter={k}")
            _clear_unit_output(sdir)
            _clear_unit_output(os.path.dirname(merges_path(k)))
            cur_ds.write_parquet(sdir)
            save_merges(k, merges)
            _write_unit_manifest(output_dir, f"ckpt-{k}", {"merges": k})
            maybe_crash()

        words = ray.data.read_parquet(
            glob.glob(os.path.join(words_dir, "*.parquet"))
        ) if glob.glob(os.path.join(words_dir, "*.parquet")) else None
        if words is None:
            merges = []
        else:
            merges = _distributed_train(
                words,
                n_merges,
                init_state=init_state,
                init_merges=init_merges,
                checkpoint_cb=on_ckpt,
                checkpoint_every=checkpoint_every,
            )
        _clear_unit_output(final_dir)
        save_merges("final", merges)
        _write_unit_manifest(output_dir, "final", {"merges": len(merges)})

    t = pq.read_table(merges_path("final"))
    return pa.table(
        {
            "rank": t.column("rank"),
            "left": t.column("left"),
            "right": t.column("right"),
            "merged": pa.array(
                [
                    l + r
                    for l, r in zip(
                        t.column("left").to_pylist(), t.column("right").to_pylist()
                    )
                ],
                pa.string(),
            ),
        }
    )
