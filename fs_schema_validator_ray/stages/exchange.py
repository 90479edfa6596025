"""The keyed bucket exchange every wide operator is built on.

One shape serves all of them: route each row to a coarse bucket by a
stable hash of its key, ``groupby`` the bucket id, then run one
vectorized body per bucket over ALL of its keys (a segment scan after a
lexsort — never one Python call per key). This module owns each piece:

* sizing — :func:`default_n_buckets`: the inputs' known bytes over a
  per-bucket target, so a small input is ONE bucket; the metadata-only
  ``estimate_dataset_*`` lineage walk;
* routing — :func:`bucket_ids`;
* the shuffle — :func:`bucketed`, i.e. :func:`route` (``map_batches``:
  optional per-batch prepare/combiner, then append ``__bucket``)
  followed by :func:`map_buckets`: ``groupby("__bucket")`` →
  ``map_groups`` for several buckets, and for one bucket no shuffle at
  all, ``repartition(1)`` → ``map_batches(batch_size=None)``. The halves
  are callable on their own so a caller can coalesce between them
  (:func:`coalesce`), or route by bucket ids of its own (a caller that
  cannot bound how many ids its routing makes passes no count and
  always groups);
* the scan — :func:`segments`.

A body is never called with 0 rows: Ray's ``map_groups`` has no group
in a 0-row block, and the one-bucket path answers an empty block itself,
so bodies need no empty-group branch; ``map_batches`` functions do still
see empty blocks.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.state.sketches import hash64, mix_to_buckets, stable_key_array

BUCKET = "__bucket"

# Target input bytes per bucket group. Each bucket is one body call that
# materializes its whole group, so the bucket count scales with DATA size,
# not CPU count: on a fixed 64-core cluster at 100 TB, 2×CPUs buckets
# would make each group ~800 GB. 256 MiB per group keeps any single
# task's materialization comfortably inside a worker heap while still
# amortizing per-task overhead.
DEFAULT_TARGET_BUCKET_BYTES = 256 * 2**20

# Fewest input bytes each bucket must hold before the count is raised
# toward the CPU count for parallelism, so a few MB never pays for a sort
# shuffle (one CPU: ~4 MB through 16 ``groupby`` buckets took 0.36-0.38 s,
# through one ``repartition(1)`` block 0.16 s). The raise stops at one
# bucket per CPU: with no second CPU to run on, a second bucket is pure
# shuffle cost (one CPU, a keyed exchange of 48 / 128 / 224 MiB took
# 0.8 / 2.2 / 4.2 s at one bucket, 1.3 / 3.1 / 5.4 s at two). Where on
# N CPUs the spread starts to pay is not measured.
MIN_BUCKET_BYTES = 16 * 2**20

_MIX = np.uint64(0x9E3779B97F4A7C15)


def estimate_dataset_bytes(ds) -> int | None:
    """Metadata-only input-size estimate for a (lazy) Dataset (see
    :func:`_estimate`); transforms usually shrink data, so this is a
    conservative upper bound."""
    return _estimate(ds, "size_bytes")


def estimate_dataset_rows(ds) -> int | None:
    """Metadata-only row-count estimate (see :func:`_estimate`)."""
    return _estimate(ds, "num_rows")


def _estimate(ds, field: str) -> int | None:
    """The one lineage walk behind both estimates: walk the logical DAG
    upward until an operator's metadata knows ``field`` (the
    column-pruned parquet read does); a node with several inputs (union,
    zip) sums whatever its inputs know, so a zip's rows are overstated.
    Never triggers execution; ``None`` when nothing in the lineage
    knows."""

    def walk(node) -> int | None:
        while True:
            known = getattr(node.infer_metadata(), field)
            if known is not None:
                return known
            deps = node.input_dependencies
            if len(deps) != 1:
                parts = [p for p in map(walk, deps) if p is not None]
                return sum(parts) if parts else None
            node = deps[0]

    try:
        return walk(ds._logical_plan.dag)
    except Exception:  # noqa: BLE001 — sizing is best-effort, never fatal
        return None


def default_n_buckets(*datasets, target_bucket_bytes: int | None = None) -> int:
    """Bucket count for an exchange over ``datasets``, sized by their
    known input bytes: ``ceil(bytes / target)`` (default
    :data:`DEFAULT_TARGET_BUCKET_BYTES`), raised toward one bucket per
    CPU only while every bucket still holds :data:`MIN_BUCKET_BYTES`, and
    never below 1 — a few MB is one bucket, which :func:`map_buckets` runs
    without a shuffle. When no input's size is known the count falls
    back to ``max(16, 2×CPUs)``."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001
        cpus = 8
    sizes = [estimate_dataset_bytes(ds) for ds in datasets if ds is not None]
    known = [b for b in sizes if b is not None]
    if not known:
        return max(16, 2 * cpus)
    total = sum(known)
    target = target_bucket_bytes or DEFAULT_TARGET_BUCKET_BYTES
    return max(1, -(-total // target), min(cpus, total // MIN_BUCKET_BYTES))


def key_hash(table: pa.Table, key_columns: list[str], key: str = "0123456789abcdef") -> np.ndarray:
    """uint64 hash per row of ``table`` over ``key_columns``: a
    batch-independent hash of each column (``stable_key_array``, so the
    same key hashes the same whether or not its batch carries nulls),
    folded across columns. ``key`` selects an independent hash family."""
    h = np.zeros(table.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for c in key_columns:
            h = h * _MIX ^ hash64(stable_key_array(table.column(c)), key=key)
    return h


def bucket_ids(table: pa.Table, key_columns: list[str], n_buckets: int) -> np.ndarray:
    """int32 bucket id in ``[0, n_buckets)`` per row of ``table``:
    :func:`key_hash` mixed to a bucket (one bucket needs no hash)."""
    if n_buckets == 1:
        return np.zeros(table.num_rows, np.int32)
    return mix_to_buckets(key_hash(table, key_columns), n_buckets)


def route(ds, key_columns: list[str], n_buckets: int, prepare):
    """Map half of the exchange: ``map_batches`` that applies ``prepare``
    (projection, casts or a per-batch combiner; it must accept a 0-row
    batch) and appends the ``__bucket`` column of :func:`bucket_ids` over
    ``key_columns`` of the prepared table. The UDF carries ``prepare``'s
    name so operator names and traces stay the caller's."""
    return _route(ds, key_columns, n_buckets, prepare, prepare)


def _route(ds, key_columns, n_buckets, prepare, named_after):
    @functools.wraps(named_after)
    def add_bucket(t: pa.Table) -> pa.Table:
        if prepare is not None:
            t = prepare(t)
        return t.append_column(BUCKET, pa.array(bucket_ids(t, key_columns, n_buckets)))

    return ds.map_batches(add_bucket, batch_format="pyarrow")


def coalesce(ds, n_buckets: int):
    """Coalesce narrow map output before a sort shuffle over ``n_buckets``
    groups: the shuffle moves blocks_in × blocks_out objects, so a few
    consolidated blocks (metadata-level, no shuffle) beat scan-width² tiny
    ones. One bucket has no shuffle, and :func:`map_buckets` makes its one
    block itself."""
    return ds.repartition(max(4, n_buckets // 8)) if n_buckets > 1 else ds


def map_buckets(ds, body, n_buckets: int | None = None):
    """Group half of the exchange: ``body`` gets one whole bucket (never
    0 rows) with ``__bucket`` dropped; the UDF carries ``body``'s name.
    ``n_buckets`` is how many bucket ids the routing can produce (``None``
    when the caller does not know). Several go through Ray's sort shuffle,
    ``groupby("__bucket")`` → ``map_groups``; one needs no shuffle, nor a
    ``__bucket`` column: ``repartition(1)`` → ``map_batches(batch_size=None)``
    hands the body the whole dataset as one block."""

    @functools.wraps(body)
    def per_bucket(group: pa.Table) -> pa.Table:
        if not group.num_rows:  # an empty dataset's one block
            return pa.table({})
        if BUCKET in group.column_names:
            group = group.drop_columns([BUCKET])
        return body(group)

    if n_buckets == 1:
        return ds.repartition(1).map_batches(per_bucket, batch_format="pyarrow", batch_size=None)
    # native groupby: the exchange itself, Ray's sort shuffle on the bucket id
    return ds.groupby(BUCKET).map_groups(per_bucket, batch_format="pyarrow")


def bucketed(ds, key_columns: list[str], n_buckets: int, body, prepare=None):
    """The whole exchange: :func:`route` then :func:`map_buckets`. With no
    ``prepare`` the map UDF carries ``body``'s name."""
    routed = _route(ds, key_columns, n_buckets, prepare, prepare or body)
    return map_buckets(routed, body, n_buckets)


class Segments(NamedTuple):
    """Result of :func:`segments`; every per-row array is in sorted order."""

    order: np.ndarray  # permutation that sorts the rows
    starts: np.ndarray  # sorted position where each segment begins
    ids: np.ndarray  # segment id of each sorted row
    row_start: np.ndarray  # each sorted row's segment start
    row_end: np.ndarray  # each sorted row's segment end (exclusive)


def segments(codes, *minor) -> Segments:
    """Sort rows by ``codes`` — the major key: one array, or a tuple of
    arrays for a composite key — then by each ``minor`` array in turn,
    and cut the sorted rows into segments of equal major key."""
    major = codes if isinstance(codes, tuple) else (codes,)
    order = np.lexsort((*minor[::-1], *major[::-1]))
    n = len(order)
    first = np.zeros(n, bool)
    first[:1] = True
    for k in major:
        s = np.asarray(k)[order]
        first[1:] |= s[1:] != s[:-1]
    starts = np.flatnonzero(first)
    ids = np.cumsum(first) - 1
    ends = np.append(starts[1:], n)
    return Segments(order, starts, ids, starts[ids], ends[ids])

