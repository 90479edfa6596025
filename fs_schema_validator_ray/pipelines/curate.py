"""End-to-end CURATION pipeline — the composition a training-data team
actually runs, chaining the repo's operators in their production order:

1. quality gate  — ``TextProfileStage`` score ≥ threshold (stateless
   vectorized map);
2. exact dedup   — fingerprint bucket shuffle, keep min id per content
   (``leakage_free_split`` resolves rep + split in the SAME exchange,
   so identical docs can never straddle train/val/test);
3. packing       — next-fit char-budget packing per split
   (``pack_next_fit``);
4. shard export  — deterministic hash shards of packed examples written
   as partitioned parquet with a per-shard manifest (resumable-read
   layout).

Deterministic end to end (no RNG): the pytest gate re-runs the pipeline
and asserts byte-identical manifests, zero cross-split leakage and
exact kept/dropped accounting. Scale shape: one fingerprint exchange
(step 2), one bucketed pack exchange per split (step 3), and a
hash-partitioned write (step 4) — no all-pairs, no driver materialize
of payloads.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.sinks import write_json_atomic


def curate_documents(
    ds,
    output_dir: str,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_quality: float = 0.25,
    capacity_chars: int = 2000,
    n_shards: int = 8,
    fractions: tuple[float, float] = (0.8, 0.1),
):
    """Run the full curation chain; returns the summary dict (also
    written to ``output_dir/curation_manifest.json``)."""
    import ray.data

    from fs_schema_validator_ray.stages.mixing import leakage_free_split
    from fs_schema_validator_ray.stages.reshape import pack_next_fit
    from fs_schema_validator_ray.stages.text import TextProfileStage
    from fs_schema_validator_ray.state.sketches import hash64

    ds = ds.select_columns([id_column, text_column]).materialize()
    n_input = ds.count()

    # 1. quality gate
    prof = ds.map_batches(
        TextProfileStage(text_column, id_column), batch_format="pyarrow"
    ).select_columns([id_column, "quality", "n_chars"])
    keep_ids_ds = prof.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t.column("quality"), pa.scalar(min_quality))
        ).select([id_column, "n_chars"]),
        batch_format="pyarrow",
    ).materialize()
    n_quality = keep_ids_ds.count()

    # 2. exact-dedup + leakage-free split over the SURVIVORS
    from fs_schema_validator_ray.stages.joins import hash_join

    survivors = hash_join(
        ds, keep_ids_ds, id_column, id_column, [text_column], ["n_chars"]
    ).materialize()
    split = leakage_free_split(
        survivors, fractions=fractions, text_column=text_column,
        id_column=id_column,
    )
    # keep one representative per duplicate cluster: id == rep
    kept = hash_join(
        split.map_batches(
            lambda t: t.filter(
                pc.equal(t.column(id_column), t.column("rep"))
            ).select([id_column, "split"]),
            batch_format="pyarrow",
        ),
        survivors.map_batches(
            lambda t: t.select([id_column, "n_chars"]).rename_columns(
                ["__rid", "n_chars"]
            ),
            batch_format="pyarrow",
        ),
        id_column,
        "__rid",
        ["split"],
        ["n_chars"],
    ).materialize()
    n_unique = kept.count()

    # 3. pack per split + 4. shard export
    summary_splits = {}
    for split_name in ("train", "val", "test"):
        part = kept.map_batches(
            lambda t, s=split_name: t.filter(
                pc.equal(t.column("split"), s)
            ).select([id_column, "n_chars"]),
            batch_format="pyarrow",
        )
        packed = pack_next_fit(
            part, id_column, "n_chars", capacity_chars
        )

        def shard_of(t: pa.Table, ns=n_shards) -> pa.Table:
            ids = np.asarray(t.column(id_column), np.int64)
            return t.append_column(
                "shard_id",
                pa.array((hash64(ids) % np.uint64(ns)).astype(np.int32)),
            )

        out = packed.map_batches(shard_of, batch_format="pyarrow").materialize()
        sdir = os.path.join(output_dir, split_name)
        os.makedirs(sdir, exist_ok=True)
        # distributed partitioned write — workers write their own blocks,
        # the driver never sees payload rows
        out.write_parquet(sdir, partition_cols=["shard_id"])
        from fs_schema_validator_ray.stages.agg import group_sum

        per_shard = {
            int(r["shard_id"]): int(r["n"])
            for b in group_sum(
                out.select_columns(["shard_id"]), ["shard_id"], []
            ).iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }
        summary_splits[split_name] = {
            "rows": int(sum(per_shard.values())),
            "per_shard": {str(k): per_shard[k] for k in sorted(per_shard)},
        }

    summary = {
        "n_input": n_input,
        "n_after_quality": n_quality,
        "n_after_dedup": n_unique,
        "splits": summary_splits,
        "params": {
            "min_quality": min_quality,
            "capacity_chars": capacity_chars,
            "n_shards": n_shards,
        },
    }
    write_json_atomic(os.path.join(output_dir, "curation_manifest.json"), summary)
    return summary
