"""The keyed bucket exchange every wide operator is built on.

One shape serves all of them: route each row to a coarse bucket by a
stable hash of its key, ``groupby`` the bucket id, then run one
vectorized body per bucket over ALL of its keys (a segment scan after a
lexsort — never one Python call per key). This module owns each piece:

* sizing — :func:`default_n_buckets` and the metadata-only
  ``estimate_dataset_*`` lineage walks;
* routing — :func:`bucket_ids`;
* the shuffle — :func:`bucketed`, i.e. :func:`route` (``map_batches``:
  optional per-batch prepare/combiner, then append ``__bucket``)
  followed by :func:`map_buckets` (``groupby("__bucket")`` →
  ``map_groups``). The halves are callable on their own so a caller can
  coalesce between them, or route by bucket ids of its own;
* the scan — :func:`segments`.

Ray never calls a ``map_groups`` body with a 0-row group (a 0-row block
has no group boundaries), so bodies need no empty-group branch; ``map_batches``
functions do still see empty blocks.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.state.sketches import hash64, mix_to_buckets, stable_key_array

BUCKET = "__bucket"

# Target input bytes per bucket group. Each bucket is one map_groups task
# that materializes its whole group, so the bucket count must scale with
# DATA size, not CPU count: on a fixed 64-core cluster at 100 TB, 2×CPUs
# buckets would make each group ~800 GB. 256 MiB per group keeps any
# single task's materialization comfortably inside a worker heap while
# still amortizing per-task overhead.
DEFAULT_TARGET_BUCKET_BYTES = 256 * 2**20

_MIX = np.uint64(0x9E3779B97F4A7C15)


def estimate_dataset_bytes(ds) -> int | None:
    """Metadata-only input-size estimate for a (lazy) Dataset: walk the
    logical DAG upward until an operator reports a known ``size_bytes``
    (the column-pruned parquet read does). Never triggers execution;
    returns ``None`` when nothing in the lineage knows. Transforms
    usually shrink data, so this is a conservative upper bound."""
    try:
        node = ds._logical_plan.dag
        while node is not None:
            md = node.infer_metadata()
            if md.size_bytes is not None:
                return md.size_bytes
            deps = node.input_dependencies
            if not deps:
                return None
            if len(deps) > 1:  # union / zip: sum whatever inputs know
                parts = []
                for dep in deps:
                    sub = _estimate_node_bytes(dep)
                    if sub is not None:
                        parts.append(sub)
                return sum(parts) if parts else None
            node = deps[0]
    except Exception:  # noqa: BLE001 — sizing is best-effort, never fatal
        return None
    return None


def estimate_dataset_rows(ds) -> int | None:
    """Metadata-only row-count estimate (same lineage walk as
    :func:`estimate_dataset_bytes`); ``None`` when unknown."""
    try:
        node = ds._logical_plan.dag
        while node is not None:
            md = node.infer_metadata()
            if md.num_rows is not None:
                return md.num_rows
            deps = node.input_dependencies
            if not deps:
                return None
            node = deps[0]
    except Exception:  # noqa: BLE001
        return None
    return None


def _estimate_node_bytes(node) -> int | None:
    while node is not None:
        md = node.infer_metadata()
        if md.size_bytes is not None:
            return md.size_bytes
        deps = node.input_dependencies
        if not deps:
            return None
        node = deps[0]
    return None


def default_n_buckets(*datasets, target_bucket_bytes: int | None = None) -> int:
    """Shuffle-bucket default, DATA-AWARE when the exchange's input
    dataset(s) are passed: ``max(2×CPUs, ceil(input_bytes / 256 MiB))``
    so per-bucket groups stay bounded as data grows (a CPU-derived count
    alone would make each group scale linearly with corpus size). Falls
    back to ``max(16, 2×CPUs)`` when no lineage size is known."""
    import ray

    try:
        floor = max(16, 2 * int(ray.cluster_resources().get("CPU", 8)))
    except Exception:  # noqa: BLE001
        floor = 16
    target = target_bucket_bytes or DEFAULT_TARGET_BUCKET_BYTES
    total = 0
    known = False
    for ds in datasets:
        if ds is None:
            continue
        est = estimate_dataset_bytes(ds)
        if est is not None:
            total += est
            known = True
    if known and total > 0:
        return max(floor, -(-total // target))
    return floor


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
    :func:`key_hash` mixed to a bucket."""
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


def map_buckets(ds, body):
    """Group half of the exchange: ``groupby("__bucket")`` →
    ``map_groups(body)``. ``body`` gets one whole bucket (never 0 rows)
    with ``__bucket`` dropped; the UDF carries ``body``'s name."""

    @functools.wraps(body)
    def per_bucket(group: pa.Table) -> pa.Table:
        return body(group.drop_columns([BUCKET]))

    return ds.groupby(BUCKET).map_groups(per_bucket, batch_format="pyarrow")


def bucketed(ds, key_columns: list[str], n_buckets: int, body, prepare=None):
    """The whole exchange: :func:`route` then :func:`map_buckets`. With no
    ``prepare`` the map UDF carries ``body``'s name."""
    routed = _route(ds, key_columns, n_buckets, prepare, prepare or body)
    return map_buckets(routed, body)


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

