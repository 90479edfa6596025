"""Dataset mixing — deterministic per-source re-weighting of a
multi-source corpus to target proportions (the train-mix composer step
of a large-scale training-data pipeline: up-sample scarce high-quality
sources, down-sample bulk crawl).

No RNG and no shuffle: each row's fate is a pure function of its key,
``h = ((key * 48271) % 2147483647) % 10000`` (Lehmer multiplier; stays
far inside int64 so numpy and SQL agree bit-for-bit), and its source's
weight ``w``:

    copies(row) = floor(w) + (1 if h < frac(w) * 10000 else 0)

A weight of 0.37 keeps a deterministic 37% slice of that source; 2.5
emits every row twice plus a 50% slice a third time. Output carries a
``copy`` index (0-based) so repeats are distinguishable and the result
is hash-exact against a SQL oracle (UNION ALL copy layers).

Scale notes (10¹² rows): one stateless vectorized ``map_batches`` pass
— the weights map is a tiny closure constant, selection is a numpy
compare, repeats are one ``Table.take(np.repeat(...))`` per batch. No
driver materialization, no exchange; composes with any downstream
shuffle-free pipeline. Epoch re-mixing = change the multiplier salt."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

_LEHMER = 48271
_MOD = 2147483647
_SCALE = 10_000


def leakage_free_split(
    ds,
    fractions: tuple[float, float] = (0.8, 0.1),
    text_column: str = "text",
    id_column: str = "doc_id",
    n_buckets: int | None = None,
):
    """Train/val/test split that cannot leak duplicates across splits:
    the assignment unit is the exact-duplicate CLUSTER, not the
    document. Every doc gets its cluster representative
    ``rep = min(id)`` over identical content, and the whole cluster
    lands in the split chosen by the deterministic keyed rule
    ``h = ((rep·48271) % 2147483647) % 100`` (< 80 train, < 90 val,
    else test for the default fractions) — so a document and its copies
    are always in the SAME split (the eval-contamination guard a
    training pipeline needs before splitting a crawl).

    One exchange: each row ships one narrow ``(fp128, id)`` tuple keyed
    by the fingerprint's bucket (never the payload), and
    each bucket group resolves rep + split in one vectorized lexsort +
    segment-min (the ``exact_dedup_keep_min`` shuffle shape, minus the
    combiner — every row must come back out). Output:
    ``(id_column, rep, split)``."""
    from fs_schema_validator_ray.stages.dedup import _fingerprint128
    from fs_schema_validator_ray.stages.exchange import bucketed, default_n_buckets, segments

    if not (0 < fractions[0] and 0 <= fractions[1] and sum(fractions) <= 1):
        raise ValueError("fractions must be positive and sum to <= 1")
    t_lo = int(round(fractions[0] * 100))
    v_lo = t_lo + int(round(fractions[1] * 100))
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    empty = pa.schema(
        [
            ("fp1", pa.int64()),
            ("fp2", pa.int64()),
            (id_column, pa.int64()),
        ]
    ).empty_table()

    def tag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        h1, h2 = _fingerprint128(batch.column(text_column).combine_chunks())
        return pa.table(
            {
                "fp1": pa.array(h1.view(np.int64), pa.int64()),
                "fp2": pa.array(h2.view(np.int64), pa.int64()),
                id_column: batch.column(id_column),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        h1 = np.asarray(group.column("fp1"), np.int64)
        h2 = np.asarray(group.column("fp2"), np.int64)
        ids = np.asarray(group.column(id_column), np.int64)
        order, starts, seg, _, _ = segments((h1, h2))
        ids_s = ids[order]
        mins = np.full(len(starts), np.iinfo(np.int64).max)
        np.minimum.at(mins, seg, ids_s)
        rep = mins[seg]
        h = ((rep * _LEHMER) % _MOD) % 100
        split = np.where(h < t_lo, "train", np.where(h < v_lo, "val", "test"))
        return pa.table(
            {
                id_column: pa.array(ids_s),
                "rep": pa.array(rep),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return bucketed(ds.select_columns([id_column, text_column]), ["fp1"], n_buckets, resolve, tag)


def _mix_hash(keys: np.ndarray) -> np.ndarray:
    return ((keys * _LEHMER) % _MOD) % _SCALE


def mix_sources(
    ds,
    weights: dict[str, float],
    key_column: str = "doc_id",
    source_column: str = "source",
    default_weight: float = 0.0,
):
    """Deterministically re-weight each source stratum of ``ds`` to its
    target ``weights[source]`` (missing sources get ``default_weight``).
    Output schema: ``(key_column, source_column, copy_ix:int32)``."""
    for s, w in weights.items():
        if w < 0 or not math.isfinite(w):
            raise ValueError(f"weight for {s!r} must be finite and >= 0")

    def apply(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column(key_column), dtype=np.int64)
        srcs = batch.column(source_column).to_pylist()
        w = np.fromiter(
            (weights.get(s, default_weight) for s in srcs),
            dtype=np.float64,
            count=len(srcs),
        )
        full = np.floor(w).astype(np.int64)
        frac = np.round((w - full) * _SCALE).astype(np.int64)
        copies = full + (_mix_hash(keys) < frac).astype(np.int64)
        idx = np.repeat(np.arange(len(keys)), copies)
        ends = np.cumsum(copies)
        copy_ix = np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(
            ends - copies, copies
        )
        picked = batch.select([key_column, source_column]).take(pa.array(idx))
        return picked.append_column("copy_ix", pa.array(copy_ix.astype(np.int32)))

    return ds.select_columns([key_column, source_column]).map_batches(
        apply, batch_format="pyarrow"
    )
