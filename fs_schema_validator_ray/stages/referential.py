"""Referential check: broadcast semi/anti join against a small manifest.

The columnar analogue of the reference's existence check — expected key
not found ⇒ ``does not exist`` violation
(`/root/reference/fs_schema_validator/utils.py:6-11`,
``report.py:24-25``). The manifest key set is built once on the driver
(or distributed for big manifests), shipped to workers via ``ray.put``
**once**, and each ``map_batches`` task probes it vectorized — no shuffle
of the big side, ever.

Two membership structures:

* "exact": a sorted array of the keys' 64-bit hashes (8 B/key; fine into
  the hundreds of millions of keys). A missing key whose hash equals a
  manifest key's reads as present, with probability about
  (manifest keys) / 2^64 per probe,
* Bloom filter (north_star): ~1.2 GiB per 10^9 keys at fpp=1e-4, for
  manifests that outgrow the exact array. A Bloom false positive can only
  *suppress* a violation (rate ≤ fpp), never invent one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.report import partition_ids, violations_table
from fs_schema_validator_ray.rules import ReferentialRule
from fs_schema_validator_ray.state import BloomFilter, hash64
from fs_schema_validator_ray.state.sketches import (
    canonical_tuple_strings,
    stable_key_array,
)


def _numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def match_key_types(manifest: pa.Table, corpus_types: list) -> pa.Table:
    """``manifest``'s key columns in the types of the corpus key columns
    (``corpus_types[i]`` for column ``i``; ``None`` if unknown) where both
    are numeric, so that keys match by value: a float64 ``1.0`` probes as
    the int64 ``1``, alone or in a composite key. A row whose value the
    cast changes (``1.5``, ``NaN``, out of range) can equal no corpus key
    and is dropped; nulls are kept."""
    keep, cols = None, []
    for col, t in zip(manifest.columns, corpus_types):
        if t is not None and t != col.type and _numeric(t) and _numeric(col.type):
            cast = pc.cast(col, t, safe=False)
            same = pc.fill_null(pc.equal(pc.cast(cast, col.type, safe=False), col), True)
            keep = same if keep is None else pc.and_(keep, same)
            col = cast
        cols.append(col)
    out = pa.table(cols, names=manifest.column_names)
    return out if keep is None else out.filter(keep)


def build_membership(keys, use_bloom: bool = False, fpp: float = 1e-4):
    """Build the broadcastable membership structure from manifest keys:
    a Bloom filter, or the "exact" set, a sorted array of the keys' 64-bit
    hashes. A missing key whose hash collides with a manifest key's reads
    as present in that set, with probability about (manifest keys) / 2^64
    per probe.

    Keys canonicalize through ``stable_key_array`` so the hash matches the
    probe side regardless of null presence in either batch (to_numpy's
    int→float promotion would hash 5 as 5.0 — valid keys then read as
    missing). Null manifest entries whitelist nothing and are dropped."""
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        arr = stable_key_array(keys.drop_null())
    else:
        arr = np.asarray(keys)
        if arr.dtype == object or arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
    if use_bloom:
        bf = BloomFilter(len(arr), fpp=fpp)
        bf.add(arr)
        return bf
    return np.sort(hash64(arr))


def membership_from_dataset(ds, column: str, use_bloom: bool = False, fpp: float = 1e-4):
    """Distributed build: hash per batch on workers, merge tiny partials on
    the driver. Only the hashed key column ever reaches the driver."""
    def partial(t: pa.Table) -> pa.Table:
        vals = stable_key_array(t.column(column).combine_chunks().drop_null())
        h1, h2 = BloomFilter.hash_pair(vals)
        return pa.table({"h1": pa.array(h1, pa.uint64()), "h2": pa.array(h2, pa.uint64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    h1 = parts["h1"].to_numpy(dtype=np.uint64)
    if use_bloom:
        bf = BloomFilter(len(h1), fpp=fpp)
        bf.add_hashes(h1, parts["h2"].to_numpy(dtype=np.uint64))
        return bf
    return np.unique(h1)


def _probe(membership, values: np.ndarray) -> np.ndarray:
    """True where the value IS present."""
    if isinstance(membership, BloomFilter):
        return membership.contains(values)
    if len(membership) == 0:  # empty manifest → everything is missing
        return np.zeros(len(values), dtype=bool)
    h = hash64(values)
    idx = np.searchsorted(membership, h)
    idx = np.clip(idx, 0, len(membership) - 1)
    return membership[idx] == h


class ReferentialStage:
    """``map_batches`` callable. Construct with the ``ray.ObjectRef`` of the
    membership structure (``ray.put`` once on the driver); each worker
    resolves it on first use and caches it — broadcast, not per-batch
    shipping."""

    def __init__(self, rule: ReferentialRule, membership_ref) -> None:
        self.rule = rule
        self.membership_ref = membership_ref
        self._membership = None

    def _resolve(self):
        if self._membership is None:
            import ray

            obj = self.membership_ref
            self._membership = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._membership

    def __call__(self, batch: pa.Table) -> pa.Table:
        rule = self.rule
        membership = self._resolve()
        if rule.columns:
            values = canonical_tuple_strings(batch, rule.columns)
            nulls = np.zeros(len(values), bool)  # tuples probe literally
        else:
            col = batch.column(rule.column).combine_chunks()
            # canonical conversion (matches the membership build): a null
            # in THIS batch must not change how the non-null keys hash
            values = stable_key_array(col)
            nulls = (
                np.asarray(col.is_null())
                if col.null_count
                else np.zeros(len(col), bool)
            )
        present = np.zeros(len(values), dtype=bool)
        if (~nulls).any():
            present[~nulls] = _probe(membership, values[~nulls])
        missing = np.flatnonzero(~present)
        return violations_table(
            [None if nulls[i] else str(values[i]) for i in missing],
            rule.rule_id,
            [f"does not exist in manifest `{rule.manifest}`"] * len(missing),
            partition_ids(batch)[missing],
        )
