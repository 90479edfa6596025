"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — per batch, a numpy matmul of the
(normalized) batch against a *broadcast* query matrix (``ray.put`` once,
resolved once per worker), followed by a per-batch partial top-k and a
tiny ``groupby(query_id)`` final top-k. Only ``num_batches × q × k``
candidate rows ever shuffle — never the corpus.

Scale path: IVF — coarse k-means centroids (fit on a bounded sample on
the driver, broadcast), each vector assigned to its nearest centroid in
``map_batches``; queries probe only the ``n_probe`` nearest lists. And a
random-hyperplane LSH near-dup/bucketing path with no broadcast of the
corpus at all.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.dedup import _normalize, list_column_to_matrix
from fs_schema_validator_ray.stages.exchange import BUCKET, map_buckets, segments


class TopKPartialStage:
    """batch × queries matmul → local top-k rows per query
    ``(query_id, neighbor_id, score)``."""

    def __init__(
        self, query_ref, k: int, vec_column: str = "embedding", id_column: str = "vec_id"
    ) -> None:
        self.query_ref = query_ref
        self.k = k
        self.vec_column = vec_column
        self.id_column = id_column
        self._q = None

    def _resolve(self):
        if self._q is None:
            import ray

            obj = self.query_ref
            self._q = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._q

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_ids, q_mat = self._resolve()  # (q,), (q, d) normalized
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        scores = q_mat @ mat.T  # (q, n)
        k = min(self.k, scores.shape[1])
        if k == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]  # (q, k)
        rows = np.repeat(q_ids, k)
        cols = ids[part.ravel()]
        vals = np.take_along_axis(scores, part, axis=1).ravel()
        return pa.table(
            {
                "query_id": pa.array(rows),
                "neighbor_id": pa.array(cols),
                "score": pa.array(vals),
            }
        )


def _final_topk(k: int, exclude_self: bool):
    def fn(group: pa.Table) -> pa.Table:
        qid = group.column("query_id")[0].as_py()
        nid = np.asarray(group.column("neighbor_id"), dtype=np.int64)
        sc = np.asarray(group.column("score"), dtype=np.float64)
        if exclude_self:
            keep = nid != qid
            nid, sc = nid[keep], sc[keep]
        # deterministic: score desc, neighbor_id asc tie-break
        order = np.lexsort((nid, -sc))[:k]
        return pa.table(
            {
                "query_id": pa.array(np.full(len(order), qid, np.int64)),
                "neighbor_id": pa.array(nid[order]),
                "score": pa.array(sc[order]),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    return fn


def topk_cosine(
    ds,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    exclude_self: bool = False,
):
    """Brute-force cosine top-k of every query against the whole dataset.

    Returns a Dataset ``(query_id, neighbor_id, score, rank)``; exact.
    """
    import ray

    q_mat = _normalize(np.asarray(query_matrix))
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), q_mat))
    # fetch k+1 per batch when self-matches will be dropped later
    fetch = k + 1 if exclude_self else k
    partials = ds.map_batches(
        TopKPartialStage(ref, fetch, vec_column, id_column), batch_format="pyarrow"
    )
    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return partials.groupby("query_id").map_groups(
        _final_topk(k, exclude_self), batch_format="pyarrow"
    )


# --- IVF (inverted-file) variant ------------------------------------------


def kmeans_fit(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 11):
    """Plain Lloyd's k-means on a driver-side sample (sample is bounded;
    the corpus itself never leaves the workers)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample)
    idx = rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)
    cent = sample[idx].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


class IvfAssignStage:
    """Attach ``list_id`` = nearest-centroid index (broadcast centroids)."""

    def __init__(self, cent_ref, vec_column="embedding") -> None:
        self.cent_ref = cent_ref
        self.vec_column = vec_column
        self._cent = None

    def _resolve(self):
        if self._cent is None:
            import ray

            obj = self.cent_ref
            self._cent = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._cent

    def __call__(self, batch: pa.Table) -> pa.Table:
        cent = self._resolve()
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        assign = np.argmax(mat @ cent.T, axis=1).astype(np.int32)
        return batch.append_column("list_id", pa.array(assign))


def topk_cosine_ivf(
    ds,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_clusters: int | None = None,
    n_probe: int | None = None,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    exclude_self: bool = False,
):
    """IVF-pruned ANN: probe only the ``n_probe`` nearest inverted lists
    per query — the corpus fraction scanned is ~``n_probe/n_clusters``.
    Approximate (recall < 1 when a true neighbor lives outside the probed
    lists).

    Auto-scaling (defaults): ``n_clusters ≈ √n`` (the standard IVF
    sizing — list length ≈ √n balances centroid-scan vs list-scan work;
    at 10^12 vectors that is ~10^6 lists) clamped to the sample size,
    and ``n_probe = ceil(n_clusters / 4)`` (scan ~25% of the corpus —
    holds the pytest/bench recall gate ≥ 0.9 while quartering scan work;
    lower it explicitly for cheaper, lower-recall queries)."""
    import ray

    sample = ds.limit(sample_size)
    s_mat = collect_matrix(sample, vec_column)
    if n_clusters is None:
        n = ds.count()  # parquet metadata count; one cheap pass otherwise
        n_clusters = max(4, min(int(np.sqrt(max(n, 1))), len(s_mat) // 8 or 1))
    if n_probe is None:
        n_probe = max(1, -(-n_clusters // 4))
    cent = kmeans_fit(s_mat, n_clusters)
    cent_ref = ray.put(cent)

    q_mat = _normalize(np.asarray(query_matrix))
    q_ids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(q_mat @ cent.T), axis=1)[:, :n_probe]  # (q, n_probe)
    probed_lists = np.unique(probes)

    import pyarrow.compute as _pc

    probe_set = pa.array(probed_lists, pa.int32())
    pruned = ds.map_batches(
        IvfAssignStage(cent_ref, vec_column), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.filter(_pc.is_in(t.column("list_id"), value_set=probe_set)),
        batch_format="pyarrow",
    )

    fetch = k + 1 if exclude_self else k
    ref = ray.put((q_ids, q_mat))
    partials = pruned.map_batches(
        TopKPartialStage(ref, fetch, vec_column, id_column), batch_format="pyarrow"
    )
    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return partials.groupby("query_id").map_groups(
        _final_topk(k, exclude_self), batch_format="pyarrow"
    )


def collect_matrix(ds, vec_column="embedding") -> np.ndarray:
    rows = [
        list_column_to_matrix(b.column(vec_column))
        for b in ds.select_columns([vec_column]).iter_batches(batch_format="pyarrow")
    ]
    return np.concatenate(rows) if rows else np.empty((0, 0))


# --- random-hyperplane LSH bucketing (no corpus broadcast) -----------------


class HyperplaneSignStage:
    """Random-hyperplane cosine-LSH → **band-expanded** rows
    ``(id, embedding, band, band_key)``: ``n_bits`` sign bits split into
    ``n_bits//block_bits`` blocks, one output row per (vector, block).
    Two vectors with cosine ≥ τ agree on some block w.p.
    ``1-(1-p^block_bits)^n_blocks``, ``p = 1 - arccos(τ)/π`` — narrower
    blocks raise recall but grow buckets; 8 is a good corpus-scale
    default. Band expansion in the map stage → ONE downstream shuffle
    for all blocks (per-block groupbys would each re-run the read)."""

    def __init__(
        self, dim: int, n_bits: int = 64, block_bits: int = 8, seed: int = 13,
        vec_column="embedding", id_column="vec_id",
    ):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.n_bits = n_bits
        self.block_bits = block_bits
        self.vec_column = vec_column
        self.id_column = id_column

    @property
    def n_blocks(self) -> int:
        return self.n_bits // self.block_bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        bits = (mat @ self.planes) > 0  # (n, n_bits)
        n = len(mat)
        weights = (1 << np.arange(self.block_bits, dtype=np.int32))
        keys = np.empty(self.n_blocks * n, dtype=np.int32)
        for blk in range(self.n_blocks):
            sl = bits[:, blk * self.block_bits : (blk + 1) * self.block_bits]
            keys[blk * n : (blk + 1) * n] = sl.astype(np.int32) @ weights
        tile_idx = pa.array(np.tile(np.arange(n, dtype=np.int64), self.n_blocks))
        bands = np.repeat(np.arange(self.n_blocks, dtype=np.int32), n)
        # coarse 256-way shuffle key: one vectorized map_groups call per
        # bucket instead of one Python call per (band, band_key); high-bit
        # mix — multiply-then-mod-2^8 would keep only the low byte of
        # band_key and ignore the band entirely
        from fs_schema_validator_ray.state.sketches import mix_to_buckets

        with np.errstate(over="ignore"):
            bucket = mix_to_buckets(
                (bands.astype(np.uint64) << np.uint64(32))
                ^ keys.view(np.uint32).astype(np.uint64),
                256,
            )
        return pa.table(
            {
                self.id_column: batch.column(self.id_column).take(tile_idx),
                self.vec_column: batch.column(self.vec_column).take(tile_idx),
                BUCKET: pa.array(bucket),
                "band": pa.array(bands),
                "band_key": pa.array(keys),
            }
        )


def embedding_near_dup_lsh(
    ds,
    threshold: float = 0.5,
    n_bits: int = 64,
    block_bits: int = 8,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    max_bucket: int = 512,
):
    """Distributed embedding near-dup without broadcasting the corpus:
    hyperplane-sign blocks → ``groupby(block)`` → exact in-bucket cosine.
    Approximate (pairs disagreeing on every block are missed; recall is
    high for strong near-dups, e.g. ≈0.99 at cosine 0.9 with 8×8 bits)."""
    # probe dim from the first row
    first = ds.take(1)[0][vec_column]
    dim = len(first)
    stage = HyperplaneSignStage(
        dim, n_bits, block_bits, vec_column=vec_column, id_column=id_column
    )
    sig = ds.select_columns([id_column, vec_column]).map_batches(
        stage, batch_format="pyarrow"
    )

    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "similarity": pa.array([], pa.float64())}
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # one COARSE bucket of (band, band_key) blocks: sorted segment
        # scan, matmul only inside blocks with ≥2 ids
        if group.num_rows < 2:
            return empty
        band = np.asarray(group.column("band"), dtype=np.int64)
        bkey = np.asarray(group.column("band_key"), dtype=np.int64)
        ids = np.asarray(group.column(id_column), dtype=np.int64)
        order, starts, _, _, _ = segments((band, bkey), ids)
        ids = ids[order]
        mat_all = _normalize(list_column_to_matrix(group.column(vec_column)))[order]
        ends = np.append(starts[1:], len(ids))
        multi = ends - starts >= 2
        out_a, out_b, out_s = [], [], []
        for st, en in zip(starts[multi], ends[multi]):
            s_ids, mat = ids[st:en], mat_all[st:en]
            # duplicate input ids would otherwise emit (x, x, 1.0)
            # self-pairs: keep one row per id (ids sorted within segment)
            keepm = np.concatenate([[True], s_ids[1:] != s_ids[:-1]])
            s_ids, mat = s_ids[keepm], mat[keepm]
            if len(s_ids) < 2:
                continue
            # cap all-pairs fan-out at max_bucket; STAR-LINK overflow ids
            # to the min id (O(n) dot products) so giant near-dup
            # clusters — which hit the same bucket in every block — stay
            # connected instead of silently losing members beyond the cap
            h_ids, h_mat = s_ids[:max_bucket], mat[:max_bucket]
            sims = h_mat @ h_mat.T
            ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
            a, b, s = h_ids[ai], h_ids[bi], sims[ai, bi]
            if len(s_ids) > max_bucket:
                t_ids, t_mat = s_ids[max_bucket:], mat[max_bucket:]
                t_sims = t_mat @ mat[0]
                ok = t_sims >= threshold
                a = np.concatenate([a, np.full(int(ok.sum()), s_ids[0], np.int64)])
                b = np.concatenate([b, t_ids[ok]])
                s = np.concatenate([s, t_sims[ok]])
            out_a.append(a)
            out_b.append(b)
            out_s.append(s)
        if not out_a:
            return empty
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "similarity": pa.array(np.concatenate(out_s)),
            }
        )

    allp = map_buckets(sig, bucket_pairs)
    # a pair's cosine is the same in every block — max == distinct
    from fs_schema_validator_ray.stages.dedup import dedup_pairs_distinct

    import ray.data as rd

    out = dedup_pairs_distinct(allp, agg=[("similarity", "max")])
    # union a typed 0-row block: a no-pairs run otherwise yields a
    # schemaless Dataset (groupby over 0 rows produces no blocks)
    return out.union(rd.from_arrow(empty))


# --- distributed Lloyd's k-means -------------------------------------------


#: k-means partial sums are exact integers in units of ``2**-30``: unit
#: vectors' components are at most 1, so ``2**33`` rows fit in an int64 sum,
#: and a centroid does not depend on how the rows are blocked or on the
#: order the partials arrive in
_FIXED_ONE = 2.0**30


def _row_keys(mat: np.ndarray) -> np.ndarray:
    """A uint64 key per row from its float64 bytes alone (splitmix64's
    finalizer folded over the columns): the same row gets the same key
    however the rows are blocked. uint64 array arithmetic wraps without a
    warning."""
    bits = np.ascontiguousarray(mat, np.float64).view(np.uint64)
    key = np.zeros(len(bits), np.uint64)
    for j in range(bits.shape[1]):
        key ^= bits[:, j]
        key ^= key >> np.uint64(30)
        key *= np.uint64(0xBF58476D1CE4E5B9)
        key ^= key >> np.uint64(27)
        key *= np.uint64(0x94D049BB133111EB)
        key ^= key >> np.uint64(31)
    return key


def _smallest_keys(keys: np.ndarray, mat: np.ndarray, size: int) -> np.ndarray:
    """Indices of the ``size`` rows first in (key, row bytes) order, in
    that order: a total order, so ties between keys break the same way."""
    bits = np.ascontiguousarray(mat, np.float64).view(np.uint64)
    order = np.lexsort((*bits.T[::-1], keys))
    return order[:size]


class KmeansSampleStage:
    """map_batches callable: a block's ``size`` rows of smallest
    :func:`_row_keys` key, ``(key, vector)``. :func:`kmeans_sample` keeps
    the ``size`` smallest of all blocks': a sample that depends on the
    rows alone, not on their blocking or arrival order."""

    def __init__(self, size: int, vec_column: str = "embedding") -> None:
        self.size = size
        self.vec_column = vec_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch.column(self.vec_column)).astype(np.float64)
        keys = _row_keys(mat)
        keep = _smallest_keys(keys, mat, self.size)
        vec = pa.FixedSizeListArray.from_arrays(pa.array(mat[keep].reshape(-1)), mat.shape[1])
        return pa.table({"key": pa.array(keys[keep], pa.uint64()), "vec": vec})


def kmeans_sample(ds, size: int, vec_column: str = "embedding") -> np.ndarray:
    """The ``size`` rows of ``ds`` first in (key, row bytes) order, in
    that order (``KmeansSampleStage``), holding the sample and one
    incoming batch at a time."""
    keys = np.zeros(0, np.uint64)
    mat = None
    sampled = ds.select_columns([vec_column]).map_batches(
        KmeansSampleStage(size, vec_column), batch_format="pyarrow")
    for b in sampled.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        more = list_column_to_matrix(b.column("vec"))
        keys = np.concatenate((keys, np.asarray(b.column("key"))))
        mat = more if mat is None else np.concatenate((mat, more))
        keep = _smallest_keys(keys, mat, size)
        keys, mat = keys[keep], mat[keep]
    return np.empty((0, 0)) if mat is None else mat


class KmeansPartialStage:
    """map_batches callable: per-cluster (count, vector-sum) partials for
    one Lloyd iteration — k×dim integers per block (KBs), the corpus never
    leaves the workers. The sums are exact, in units of ``1/_FIXED_ONE``.
    Centroids resolve from the broadcast ref once per actor/task
    instance."""

    def __init__(self, cent_ref, vec_column: str = "embedding") -> None:
        self.cent_ref = cent_ref
        self.vec_column = vec_column
        self._cent = None

    def _resolve(self) -> np.ndarray:
        if self._cent is None:
            import ray

            obj = self.cent_ref
            self._cent = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._cent

    def __call__(self, batch: pa.Table) -> pa.Table:
        cent = self._resolve()
        k, dim = cent.shape
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        if not len(mat):
            return pa.table(
                {
                    "cluster_id": pa.array([], pa.int32()),
                    "n": pa.array([], pa.int64()),
                    "vec_sum": pa.array([], pa.list_(pa.int64())),
                }
            )
        assign = np.argmax(mat @ cent.T, axis=1)
        counts = np.bincount(assign, minlength=k).astype(np.int64)
        sums = np.zeros((k, dim), np.int64)
        np.add.at(sums, assign, np.round(mat * _FIXED_ONE).astype(np.int64))
        live = np.flatnonzero(counts)
        return pa.table(
            {
                "cluster_id": pa.array(live.astype(np.int32)),
                "n": pa.array(counts[live], pa.int64()),
                "vec_sum": pa.array(list(sums[live]), pa.list_(pa.int64())),
            }
        )


def kmeans_centroids(
    ds,
    n_clusters: int,
    iters: int = 5,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    seed: int = 11,
) -> np.ndarray:
    """The centroid-fit half of :func:`kmeans_cluster` (init from a
    bounded driver sample, then ``iters`` streaming partial-sum passes);
    returns the unit-normalized (k × dim) centroid matrix so callers can
    run their own assignment pass (``kmeans_cluster``, ``semdedup``).
    The same vectors give the same centroids however they are blocked:
    the sample is taken in key order (:func:`kmeans_sample`) and the
    partial sums are exact integers, so their fold needs no order."""
    import ray

    cent = kmeans_fit(kmeans_sample(ds, sample_size, vec_column), n_clusters, seed=seed)
    vecs = ds.select_columns([vec_column])  # iteration passes never need ids
    for _ in range(iters):
        cent_ref = ray.put(cent)
        partials = vecs.map_batches(
            KmeansPartialStage(cent_ref, vec_column), batch_format="pyarrow"
        ).to_arrow_refs()
        counts = np.zeros(len(cent), np.int64)
        sums = np.zeros(cent.shape, np.int64)
        for part in ray.get(partials):  # blocks × ≤k rows of (id, n, k-dim sum) — KBs
            for cid, n, vec_sum in zip(part.column("cluster_id").to_pylist(),
                                       part.column("n").to_pylist(),
                                       part.column("vec_sum").to_pylist()):
                counts[cid] += n
                sums[cid] += vec_sum
        if not counts.any():
            break
        new = cent.copy()
        live = np.flatnonzero(counts)
        new[live] = sums[live] / (counts[live, None] * _FIXED_ONE)
        cent = _normalize(new)
    return cent


def kmeans_cluster(
    ds,
    n_clusters: int = 16,
    iters: int = 5,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    seed: int = 11,
):
    """Distributed Lloyd's k-means over an embedding column (cosine
    geometry, unit-normalized): init from a bounded driver-side sample
    (``kmeans_fit``), then each iteration is ONE streaming pass emitting
    per-block per-cluster (count, vector-sum) partials that the driver
    merges (k×dim floats — KBs) into updated centroids. The final pass
    assigns each vector its cluster id. ``iters+1`` passes over the
    corpus total — the streaming re-read IS the scale-correct shape for
    an iterative algorithm (never materializes the corpus).

    Returns a Dataset ``(id_column, cluster_id)``, one row per vector.
    """
    import ray

    cent = kmeans_centroids(
        ds, n_clusters, iters=iters, sample_size=sample_size,
        vec_column=vec_column, seed=seed,
    )

    # final assignment = IvfAssignStage (the same broadcast
    # nearest-centroid kernel), relabeled list_id → cluster_id
    assigned = ds.select_columns([id_column, vec_column]).map_batches(
        IvfAssignStage(ray.put(cent), vec_column), batch_format="pyarrow"
    )
    return assigned.select_columns([id_column, "list_id"]).map_batches(
        lambda t: t.rename_columns([id_column, "cluster_id"]),
        batch_format="pyarrow",
    )


class PcaMomentStage:
    """map_batches callable: per-block second-moment partials for PCA —
    one row per block carrying ``(n, Σx (d), ΣxᵀX (d×d) flattened)``.
    KB–MB sized regardless of block row count, mergeable by plain sums,
    so the covariance reduce is driver-side arithmetic over tiny blobs
    (the corpus never leaves the workers). For very large d (≳4k) the
    d² partial is the bottleneck — switch to a randomized range sketch;
    documented, not implemented (embedding dims here are ≤ 1k)."""

    def __init__(self, vec_column: str = "embedding") -> None:
        self.vec_column = vec_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.stages.dedup import list_column_to_matrix

        mat = list_column_to_matrix(batch.column(self.vec_column)).astype(
            np.float64
        )
        if not len(mat):
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "vec_sum": pa.array([], pa.list_(pa.float64())),
                    "outer_sum": pa.array([], pa.list_(pa.float64())),
                }
            )
        return pa.table(
            {
                "n": pa.array([len(mat)], pa.int64()),
                "vec_sum": pa.array([mat.sum(axis=0)]),
                "outer_sum": pa.array([(mat.T @ mat).ravel()]),
            }
        )


def pca_fit(ds, n_components: int, vec_column: str = "embedding"):
    """Distributed PCA fit: ONE streaming pass of moment partials →
    driver-side covariance + ``eigh``. Returns ``(mean (d,), components
    (k, d), explained_variance (k,))``, deterministic: ``eigh`` on the
    exact covariance with a sign convention (each component's
    largest-|coefficient| entry made positive), so reruns and resumed
    partitions project identically."""
    parts = (
        ds.select_columns([vec_column])
        .map_batches(PcaMomentStage(vec_column), batch_format="pyarrow")
        .to_pandas()
    )
    if not len(parts):
        raise ValueError("pca_fit: empty dataset")
    n = int(parts["n"].sum())
    if n < 2:
        raise ValueError("pca_fit: need at least 2 vectors")
    vec_sum = np.sum(np.stack(parts["vec_sum"].to_numpy()), axis=0)
    d = len(vec_sum)
    outer = np.sum(np.stack(parts["outer_sum"].to_numpy()), axis=0).reshape(d, d)
    if n_components > d:
        raise ValueError(
            f"pca_fit: n_components={n_components} exceeds the embedding "
            f"dimension d={d}"
        )
    mean = vec_sum / n
    cov = (outer - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T  # (k, d)
    # deterministic sign: largest-|coeff| entry of each component > 0
    flip = comps[np.arange(len(comps)), np.abs(comps).argmax(axis=1)] < 0
    comps[flip] *= -1.0
    return mean, comps, np.maximum(evals[order], 0.0)


class PcaProjectStage:
    """map_batches callable: project each embedding onto the fitted
    components — ``(X − mean) @ compsᵀ`` (optionally whitened by
    ``1/√λ``). Broadcast ``(mean, comps, scale)`` resolves once per
    actor/task instance; per batch it is one matmul."""

    def __init__(self, model_ref, vec_column="embedding", id_column="vec_id") -> None:
        self.model_ref = model_ref
        self.vec_column = vec_column
        self.id_column = id_column
        self._model = None

    def _resolve(self):
        if self._model is None:
            import ray

            obj = self.model_ref
            self._model = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._model

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.stages.dedup import list_column_to_matrix

        mean, comps, scale = self._resolve()
        k = len(comps)
        out_cols = [f"pc{i}" for i in range(k)]
        if batch.num_rows == 0:
            empty = {self.id_column: batch.column(self.id_column).slice(0, 0)}
            for c in out_cols:
                empty[c] = pa.array([], pa.float64())
            return pa.table(empty)
        mat = list_column_to_matrix(batch.column(self.vec_column)).astype(np.float64)
        proj = (mat - mean) @ comps.T
        if scale is not None:
            proj = proj * scale
        out = {self.id_column: batch.column(self.id_column)}
        for i, c in enumerate(out_cols):
            out[c] = pa.array(proj[:, i], pa.float64())
        return pa.table(out)


def pca_project(
    ds,
    n_components: int = 3,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    whiten: bool = False,
):
    """Distributed PCA projection (dimensionality reduction / whitening
    for embedding pipelines): fit from one streaming moment pass
    (``pca_fit``), broadcast the tiny ``(mean, components, scale)`` model
    once, then ONE more streaming pass projects every vector. Two corpus
    reads total, nothing driver-side except the d×d moments.

    Returns a Dataset ``(id_column, pc0..pc{k-1})``; with ``whiten=True``
    each component is scaled to unit variance (``1/√λ``)."""
    import ray

    mean, comps, evals = pca_fit(ds, n_components, vec_column)
    scale = (1.0 / np.sqrt(np.maximum(evals, 1e-12))) if whiten else None
    model_ref = ray.put((mean, comps, scale))
    return ds.select_columns([id_column, vec_column]).map_batches(
        PcaProjectStage(model_ref, vec_column, id_column), batch_format="pyarrow"
    )


# --- product quantization (PQ) variant --------------------------------------
#
# The MEMORY-compressed ANN scale path: at 10^12 × 64-float vectors the
# corpus is ~256 TB of raw embeddings, but m=8 uint8 PQ codes are 8 B per
# vector (~8 TB) — codes fit where vectors cannot. Asymmetric distance
# computation (ADC) scores a query against codes with m table lookups per
# vector instead of d multiplies; here ADC PRUNES each batch to a small
# candidate set that is exactly reranked with the true vectors still in
# the batch, so recall loss is limited to candidates ADC ranks below the
# per-batch cutoff (pytest recall gate).


def pq_fit(
    sample: np.ndarray,
    n_subspaces: int = 8,
    n_centroids: int = 64,
    iters: int = 10,
    seed: int = 7,
) -> np.ndarray:
    """Per-subspace Lloyd's k-means codebooks ``(m, n_centroids, d/m)``
    fit on a bounded driver-side sample of L2-NORMALIZED vectors
    (normalization makes squared-L2 monotone in cosine)."""
    sample = _normalize(np.asarray(sample, dtype=np.float64))
    n, d = sample.shape
    if d % n_subspaces:
        raise ValueError(f"dim {d} not divisible by {n_subspaces} subspaces")
    sub_d = d // n_subspaces
    rng = np.random.default_rng(seed)
    nc = min(n_centroids, n)
    books = np.empty((n_subspaces, nc, sub_d), dtype=np.float64)
    for m in range(n_subspaces):
        block = sample[:, m * sub_d : (m + 1) * sub_d]
        cent = block[rng.choice(n, size=nc, replace=False)].copy()
        for _ in range(iters):
            d2 = ((block[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(nc):
                members = block[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[m] = cent
    return books


def pq_encode(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) normalized vectors → (n, m) uint8 codes."""
    n_sub, _nc, sub_d = books.shape
    codes = np.empty((len(mat), n_sub), dtype=np.uint8)
    for m in range(n_sub):
        block = mat[:, m * sub_d : (m + 1) * sub_d]
        d2 = ((block[:, None, :] - books[m][None, :, :]) ** 2).sum(axis=2)
        codes[:, m] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


class PqAdcTopKStage:
    """Per-batch PQ-ADC prune + EXACT rerank: encode the batch's vectors
    (at corpus scale the codes are precomputed once and stored — 8 B per
    vector), build each query's ``(m, n_centroids)`` distance table,
    score all rows with m uint8 lookups, keep the ``rerank`` smallest
    ADC distances per query, and rerank those exactly with the true
    vectors still in the batch. Emits the same partial-top-k rows as the
    brute-force stage, so the final merge is shared."""

    def __init__(
        self,
        query_ref,
        books_ref,
        k: int,
        rerank: int,
        vec_column: str = "embedding",
        id_column: str = "vec_id",
    ) -> None:
        self.query_ref = query_ref
        self.books_ref = books_ref
        self.k = k
        self.rerank = rerank
        self.vec_column = vec_column
        self.id_column = id_column
        self._state = None

    def _resolve(self):
        if self._state is None:
            import ray

            q = self.query_ref
            b = self.books_ref
            q_ids, q_mat = ray.get(q) if hasattr(q, "hex") else q
            books = ray.get(b) if hasattr(b, "hex") else b
            # per-query ADC tables: ||q_sub − c||² for every centroid
            n_sub, nc, sub_d = books.shape
            tables = np.empty((len(q_mat), n_sub, nc), dtype=np.float64)
            for m in range(n_sub):
                qb = q_mat[:, m * sub_d : (m + 1) * sub_d]
                tables[:, m, :] = (
                    (qb[:, None, :] - books[m][None, :, :]) ** 2
                ).sum(axis=2)
            self._state = (q_ids, q_mat, books, tables)
        return self._state

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_ids, q_mat, books, tables = self._resolve()
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        if not len(mat):
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        codes = pq_encode(mat, books)  # (n, m) uint8
        n_sub = codes.shape[1]
        # ADC: approx squared distance per (query, row) via table lookups
        adc = np.zeros((len(q_mat), len(mat)), dtype=np.float64)
        for m in range(n_sub):
            adc += tables[:, m, :][:, codes[:, m]]
        r = min(self.rerank, adc.shape[1])
        cand = np.argpartition(adc, r - 1, axis=1)[:, :r]  # smallest ADC
        out_q, out_n, out_s = [], [], []
        k = min(self.k, r)
        for qi in range(len(q_mat)):
            c = cand[qi]
            exact = q_mat[qi] @ mat[c].T  # exact rerank of the shortlist
            top = np.argpartition(-exact, k - 1)[:k] if k < len(c) else np.arange(len(c))
            out_q.append(np.full(len(top), q_ids[qi], np.int64))
            out_n.append(ids[c[top]])
            out_s.append(exact[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "neighbor_id": pa.array(np.concatenate(out_n)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )


def topk_cosine_pq(
    ds,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_subspaces: int = 8,
    n_centroids: int = 64,
    rerank: int | None = None,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    exclude_self: bool = False,
):
    """PQ-ADC approximate top-k with per-batch exact rerank. ``rerank``
    defaults to ``max(4k, 64)`` ADC candidates per (query, batch)."""
    import ray

    s_mat = collect_matrix(ds.limit(sample_size), vec_column)
    books = pq_fit(s_mat, n_subspaces=n_subspaces, n_centroids=n_centroids)
    q_mat = _normalize(np.asarray(query_matrix, dtype=np.float64))
    q_ids = np.asarray(query_ids, dtype=np.int64)
    fetch = k + 1 if exclude_self else k
    rr = rerank if rerank is not None else max(4 * fetch, 64)
    partials = ds.map_batches(
        PqAdcTopKStage(
            ray.put((q_ids, q_mat)), ray.put(books), fetch, rr,
            vec_column, id_column,
        ),
        batch_format="pyarrow",
    )
    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return partials.groupby("query_id").map_groups(
        _final_topk(k, exclude_self), batch_format="pyarrow"
    )


def topk_cosine_ivfpq(
    ds,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_clusters: int | None = None,
    n_probe: int | None = None,
    n_subspaces: int = 8,
    n_centroids: int = 64,
    rerank: int | None = None,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    exclude_self: bool = False,
):
    """IVF-PQ: the production ANN composition — coarse IVF lists prune
    WHICH vectors are scanned (~n_probe/n_clusters of the corpus) and PQ
    codes compress HOW they are scored (8 B ADC lookups instead of d
    multiplies), with the per-batch exact rerank bounding recall loss.
    Both codebooks fit on one bounded driver sample; the corpus streams
    through one assign filter + one ADC stage."""
    import pyarrow.compute as _pc
    import ray

    sample = ds.limit(sample_size)
    s_mat = collect_matrix(sample, vec_column)
    if n_clusters is None:
        n = ds.count()
        n_clusters = max(4, min(int(np.sqrt(max(n, 1))), len(s_mat) // 8 or 1))
    if n_probe is None:
        n_probe = max(1, -(-n_clusters // 4))
    cent = kmeans_fit(s_mat, n_clusters)
    books = pq_fit(s_mat, n_subspaces=n_subspaces, n_centroids=n_centroids)

    q_mat = _normalize(np.asarray(query_matrix, dtype=np.float64))
    q_ids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(q_mat @ cent.T), axis=1)[:, :n_probe]
    probe_set = pa.array(np.unique(probes), pa.int32())

    pruned = ds.map_batches(
        IvfAssignStage(ray.put(cent), vec_column), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.filter(_pc.is_in(t.column("list_id"), value_set=probe_set)),
        batch_format="pyarrow",
    )
    fetch = k + 1 if exclude_self else k
    rr = rerank if rerank is not None else max(4 * fetch, 64)
    partials = pruned.map_batches(
        PqAdcTopKStage(
            ray.put((q_ids, q_mat)), ray.put(books), fetch, rr,
            vec_column, id_column,
        ),
        batch_format="pyarrow",
    )
    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return partials.groupby("query_id").map_groups(
        _final_topk(k, exclude_self), batch_format="pyarrow"
    )


def validate_embeddings(ds, vec_column: str, id_column: str, expected_dim: int):
    """Embedding-column validation — the multimodal-typed analogue of the
    reference's per-field payload checks (dimension = the declared-shape
    rule, finiteness = the decode-sanity rule, norm = the value-range
    stat): per row ``(id, dim, dim_ok, finite_ok, norm6)``. ``norm6`` is
    NULL for non-finite rows; ROUND(·,6) float protocol. Stateless
    vectorized ``map_batches`` — list offsets + one ``add.reduceat``
    over the squared flat values per batch, no per-row Python."""

    def check(t: pa.Table) -> pa.Table:
        col = t.column(vec_column).combine_chunks()
        # ListArray.values is the FULL child buffer — offsets are
        # absolute into it, valid for sliced arrays too
        offsets = np.asarray(col.offsets, np.int64)
        vals = np.asarray(col.values, np.float64)
        lens = offsets[1:] - offsets[:-1]
        n = len(lens)
        finite_flat = np.isfinite(vals)
        cb = np.concatenate([[0], np.cumsum(~finite_flat)])
        finite = (cb[offsets[1:]] - cb[offsets[:-1]]) == 0
        sq = vals * vals
        # NaN-safe segment sums: zero the non-finite entries (those rows
        # report NULL anyway). reduceat = fresh sequential sum per
        # segment — the same op order as the oracle's list_sum, so the
        # ROUND(·,6) protocol has the full 1e-6 margin
        sq[~finite_flat] = 0.0
        sq = sq[: offsets[-1]]  # sliced arrays: child buffer may run past
        if len(sq) == 0:
            sumsq = np.zeros(n, np.float64)
        else:
            sumsq = np.add.reduceat(sq, np.minimum(offsets[:-1], len(sq) - 1))
            sumsq[lens == 0] = 0.0
        norm = np.round(np.sqrt(sumsq), 6)
        return pa.table(
            {
                id_column: t.column(id_column),
                "dim": pa.array(lens, pa.int64()),
                "dim_ok": pa.array(lens == expected_dim),
                "finite_ok": pa.array(finite),
                "norm6": pc.if_else(
                    pa.array(finite),
                    pa.array(norm, pa.float64()),
                    pa.nulls(n, pa.float64()),
                ),
            }
        )

    return ds.select_columns([id_column, vec_column]).map_batches(
        check, batch_format="pyarrow"
    )


# --- SemDeDup: semantic near-duplicate pruning -------------------------------


def _semdedup_group(group: pa.Table, vec_column: str, id_column: str, eps: float):
    """Greedy leader scan over ONE cluster, deterministic ascending-id
    order: a row is kept iff its max cosine to every already-KEPT row in
    the cluster stays below ``1 - eps``. Vectorized in chunks: each chunk
    does one matmul against the kept matrix (the expensive part) plus a
    triangular within-chunk pass, so the Python loop touches chunk rows,
    not kept rows."""
    from fs_schema_validator_ray.stages.dedup import _normalize, list_column_to_matrix

    ids = np.asarray(group.column(id_column))
    order = np.argsort(ids, kind="stable")
    mat = _normalize(list_column_to_matrix(group.column(vec_column)))[order]
    n = len(ids)
    keep = np.ones(n, dtype=bool)
    max_sim = np.full(n, -1.0)
    thresh = 1.0 - eps
    kept_rows: list[np.ndarray] = []
    CHUNK = 512
    for s0 in range(0, n, CHUNK):
        chunk = mat[s0 : s0 + CHUNK]
        m = len(chunk)
        if kept_rows:
            kept_mat = np.vstack(kept_rows)
            best = (chunk @ kept_mat.T).max(axis=1)
        else:
            best = np.full(m, -1.0)
        inner = chunk @ chunk.T
        ck = np.ones(m, dtype=bool)
        for i in range(m):  # ≤CHUNK rows; all heavy math is above
            prev = best[i]
            if i:
                kept_in_chunk = ck[:i]
                if kept_in_chunk.any():
                    prev = max(prev, inner[i, :i][kept_in_chunk].max())
            max_sim[s0 + i] = prev
            if prev >= thresh:
                ck[i] = False
        keep[s0 : s0 + m] = ck
        if ck.any():
            kept_rows.append(chunk[ck])
    cluster_id = group.column("cluster_id").chunk(0)[0].as_py() if group.num_rows else -1
    return pa.table(
        {
            id_column: pa.array(ids[order], type=group.schema.field(id_column).type),
            "cluster_id": pa.array(
                np.full(n, cluster_id, dtype=np.int32), pa.int32()
            ),
            "keep": pa.array(keep),
            "max_sim_kept": pa.array(np.round(max_sim, 6), pa.float64()),
        }
    )


def semdedup(
    ds,
    eps: float = 0.05,
    n_clusters: int = 16,
    iters: int = 5,
    sample_size: int = 10_000,
    vec_column: str = "embedding",
    id_column: str = "vec_id",
    seed: int = 11,
):
    """SemDeDup-style semantic dedup over an embedding column (Abbas et
    al. 2023, public arXiv:2303.09540 — pattern only): k-means partitions
    the corpus so near-duplicate candidates co-locate, then each cluster
    is pruned independently by a DETERMINISTIC greedy leader scan
    (ascending id; drop a row iff cosine ≥ ``1 - eps`` to a kept row).
    Identical/near-identical vectors always share a cluster (same nearest
    centroid), so exact semantic copies can never both survive.

    Scale shape: centroid fit is ``iters`` streaming KB-partial passes
    (:func:`kmeans_centroids`); assignment is one broadcast-centroid
    pass; the prune is one ``groupby(cluster_id)`` shuffle of the
    (id, vector) pairs and each cluster's greedy scan is chunked matmuls.
    Partitioning assumption (documented, logged upstream by the groupby
    sizing): one cluster's vectors fit in one task — size ``n_clusters ≈
    corpus / target_cluster_rows`` accordingly; the in-cluster work is
    O(rows × kept) but every flop is a blocked matmul.

    Returns one row per input: ``(id, cluster_id, keep, max_sim_kept)``
    (``max_sim_kept`` = cosine to the nearest earlier KEPT row, −1.0 for
    the first row of a cluster, rounded to 6dp).
    """
    import ray

    cent = kmeans_centroids(
        ds, n_clusters, iters=iters, sample_size=sample_size,
        vec_column=vec_column, seed=seed,
    )
    assigned = ds.select_columns([id_column, vec_column]).map_batches(
        IvfAssignStage(ray.put(cent), vec_column), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.rename_columns([id_column, vec_column, "cluster_id"]),
        batch_format="pyarrow",
    )
    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return assigned.groupby("cluster_id").map_groups(
        lambda g: _semdedup_group(g, vec_column, id_column, eps),
        batch_format="pyarrow",
    )
