"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

These generalize the reference's uniqueness semantics (duplicate keys →
violations, see ``stages/unique.py``) from *keys* to *content*, which a
training-data pipeline needs at corpus scale. Shuffle discipline:

* exact dedup shuffles only ``(fingerprint128, id)`` pairs — never text,
* MinHash/SimHash LSH shuffles only ``(band, band_hash, id)`` rows; the
  candidate-pair verify stage re-reads text for candidate ids only via a
  broadcast lookup (``ray.put`` once, resolved once per task) — at
  10^12-doc scale this lookup becomes a hash-partitioned join on doc id,
  with band buckets already co-locating the skewed keys,
* embedding near-dup has a brute-force path (broadcast normalized
  matrix; exact, for oracle checks and small sides) and a
  random-hyperplane LSH path (distributed, no full broadcast).

All signature computation is vectorized: one flattened token/shingle
stream per batch, per-permutation affine hashing, cumsum/ufunc segment
reductions — no per-row Python in the hot loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    BUCKET,
    bucket_ids,
    bucketed,
    coalesce,
    default_n_buckets,
    map_buckets,
    route,
    segments,
)
from fs_schema_validator_ray.state.sketches import (
    hash64,
    mix_to_buckets,
    stable_key_array,
)

_MERSENNE = np.uint64((1 << 61) - 1)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (bit-unpack on the uint8 view — no
    per-element Python)."""
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8), axis=1)
    return bits.sum(axis=1).astype(np.int64)
_PAIR_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("similarity", pa.float64())]
)


# --- exact dedup -----------------------------------------------------------


def _fingerprint128(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """128-bit content fingerprint as two independent 64-bit hash columns
    (collision odds ~n²/2¹²⁹)."""
    vals = np.asarray(pc.fill_null(col, ""), dtype=object)
    h1 = hash64(vals, key="0123456789abcdef")
    h2 = hash64(vals, key="fedcba9876543210")
    return h1, h2


def exact_dedup_keep_min(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    n_buckets: int | None = None,
):
    """Exact content dedup: canonical id = min(id) per distinct content.

    ``map_batches(fingerprint + per-batch combiner) → groupby(bucket) →
    map_groups(vectorized Arrow group-min)`` — the shuffle moves one
    16-byte fingerprint + one id per *distinct* content per batch keyed
    by a small int bucket of ``fp1``, never the payload, and
    the final merge is one Arrow ``group_by`` per bucket (Ray's builtin
    ``aggregate()`` combines groups in per-row Python — minutes of CPU
    per million distinct values). Returns a Dataset with one
    ``{id_column}`` per distinct content value.
    """
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    empty_partial = pa.schema(
        [
            ("fp1", pa.int64()),
            ("fp2", pa.int64()),
            (id_column, pa.int64()),
        ]
    ).empty_table()

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # Ray Data can deliver empty blocks (filters, over-partitioned
            # reads); the combiner below would crash on a 0-row lexsort
            return empty_partial
        h1, h2 = _fingerprint128(batch.column(text_column).combine_chunks())
        ids = np.asarray(batch.column(id_column), dtype=np.int64)
        # per-batch combiner: one row per distinct fingerprint in the batch
        order, starts, seg, _, _ = segments((h1, h2))
        mins = np.full(len(starts), np.iinfo(np.int64).max)
        np.minimum.at(mins, seg, ids[order])
        # signed REINTERPRETATION (bijective) of the hash bits: uint64
        # values above 2^63 can't ride Ray's shuffle natively (they fall
        # back to pickled-object extension arrays), int64 can
        return pa.table(
            {
                "fp1": pa.array(h1[order[starts]].view(np.int64), pa.int64()),
                "fp2": pa.array(h2[order[starts]].view(np.int64), pa.int64()),
                id_column: pa.array(mins),
            }
        )

    partials = route(
        ds.select_columns([id_column, text_column]), ["fp1"], n_buckets, partial
    )
    # decouple scan parallelism from shuffle fan-out: the partials are narrow
    partials = coalesce(partials, n_buckets)

    def merge_bucket(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, ["fp1", "fp2"]).aggregate([(id_column, "min")])
        return pa.table({id_column: g.column(f"{id_column}_min")})

    return map_buckets(partials, merge_bucket, n_buckets)


# --- paragraph-window dedup (C4 / CCNet-style sub-document dedup) ----------

#: lower+alnum tokenization shared with the LM/bigram oracles — the oracle
#: groups windows by their space-joined token text, so the engine's window
#: hash must be a function of exactly that token sequence
_PARA_SPLIT = r"[^a-z0-9]+"

# combined order key = (doc_id << 21) | para_idx. 2^42 docs × 2^21 windows
# per doc fits int64; both guards RAISE (no silent caps) — at 10^12 rows
# the id budget still holds (10^12 < 2^42).
_PARA_DOC_BITS = 42
_PARA_IDX_BITS = 21


def _paragraph_window_rows(
    col: pa.Array, ids: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row fixed-width token windows → ``(fp1, fp2, doc_id, para_idx,
    n_words)`` flat arrays, fully vectorized (one token split + two
    polynomial segment reductions per batch; no per-row Python).

    Window hash: Horner-style polynomial over per-token 64-bit hashes with
    position-dependent powers ``P^(window-1-r)`` (r = offset inside the
    window), two independent token-hash keys → a 128-bit window
    fingerprint. Equal token windows hash equal; distinct windows collide
    with odds ~n²/2¹²⁹ (same budget as exact dedup)."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(pc.fill_null(col, "")), pattern=_PARA_SPLIT
    )
    flat = np.asarray(toks.values, dtype=object)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    keep = np.asarray(pc.not_equal(toks.values, ""))
    # drop empty tokens (split artifacts at string edges) and re-derive
    # per-row token counts from the surviving mask
    counts = np.diff(offsets)
    row_of_tok = np.repeat(np.arange(len(counts)), counts)
    flat = flat[keep]
    row_of_tok = row_of_tok[keep]
    kept_counts = np.bincount(row_of_tok, minlength=len(counts)).astype(np.int64)

    if len(flat) == 0:
        e = np.empty(0, np.int64)
        return e.view(np.uint64), e.view(np.uint64), e, e, e

    th1 = hash64(flat, key="0123456789abcdef")
    th2 = hash64(flat, key="fedcba9876543210")

    # position of each token inside its row, then inside its window
    tok_offsets = np.concatenate([[0], np.cumsum(kept_counts)])
    pos_in_row = np.arange(len(flat), dtype=np.int64) - np.repeat(
        tok_offsets[:-1], kept_counts
    )
    pos_in_win = pos_in_row % window

    # windows per row and flat window index of each token
    n_win = -(-kept_counts // window)  # ceil; 0 for empty rows
    win_offsets = np.concatenate([[0], np.cumsum(n_win)])
    win_of_tok = np.repeat(win_offsets[:-1], kept_counts) + pos_in_row // window

    with np.errstate(over="ignore"):
        base = np.uint64(0x9E3779B97F4A7C15)
        powers = np.empty(window, dtype=np.uint64)
        powers[0] = 1
        for i in range(1, window):
            powers[i] = powers[i - 1] * base
        # exponent window-1-r: Horner form of the window polynomial
        w = powers[window - 1 - pos_in_win]
        fp1 = np.zeros(int(win_offsets[-1]), dtype=np.uint64)
        fp2 = np.zeros_like(fp1)
        np.add.at(fp1, win_of_tok, th1 * w)
        np.add.at(fp2, win_of_tok, th2 * w)

    n_words = np.bincount(win_of_tok, minlength=len(fp1)).astype(np.int64)
    doc_of_win = np.repeat(np.arange(len(counts)), n_win)
    para_idx = np.arange(len(fp1), dtype=np.int64) - np.repeat(
        win_offsets[:-1], n_win
    )
    return fp1, fp2, ids[doc_of_win], para_idx, n_words


def dedup_paragraphs_keep_first(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    window: int = 8,
    n_buckets: int | None = None,
):
    """C4/CCNet-style sub-document dedup: chunk every document into
    fixed-width token windows ("paragraphs" of ``window`` words under
    the shared lower+alnum tokenization) and keep, corpus-wide, only the
    FIRST occurrence of each distinct window — first = lexicographic min
    of ``(doc_id, para_idx)``.

    Same exchange discipline as :func:`exact_dedup_keep_min`: the batch
    pass emits one ``(fp1, fp2, combined, n_words)`` row per
    distinct window per batch (per-batch combiner keeps the min
    ``combined``), the shuffle moves ~28 bytes per distinct window keyed
    by a small int bucket, and each bucket merges with one vectorized
    lexsort — text never leaves the scan stage. Returns a Dataset of
    ``(doc_id, para_idx, n_words)`` for the kept windows.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window - 1 >= (1 << _PARA_IDX_BITS):
        raise ValueError("window too large for the para_idx bit budget")
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    empty_partial = pa.schema(
        [
            ("fp1", pa.int64()),
            ("fp2", pa.int64()),
            ("combined", pa.int64()),
            ("n_words", pa.int64()),
        ]
    ).empty_table()

    idx_bits = _PARA_IDX_BITS

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty_partial
        ids = np.asarray(batch.column(id_column), dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << _PARA_DOC_BITS)):
            raise ValueError(
                f"{id_column} outside [0, 2^{_PARA_DOC_BITS}) — the combined "
                "(doc_id, para_idx) order key would overflow int64"
            )
        fp1, fp2, doc, para, n_words = _paragraph_window_rows(
            batch.column(text_column).combine_chunks(), ids, window
        )
        if len(para) and para.max() >= (1 << idx_bits):
            raise ValueError(
                f"document has >= 2^{idx_bits} windows — raise window or "
                "split the document upstream"
            )
        combined = (doc << idx_bits) | para
        # per-batch combiner: keep the min-combined row per fingerprint
        order, starts, _, _, _ = segments((fp1, fp2), combined)
        first = order[starts]
        return pa.table(
            {
                "fp1": pa.array(fp1[first].view(np.int64), pa.int64()),
                "fp2": pa.array(fp2[first].view(np.int64), pa.int64()),
                "combined": pa.array(combined[first]),
                "n_words": pa.array(n_words[first]),
            }
        )

    partials = route(
        ds.select_columns([id_column, text_column]), ["fp1"], n_buckets, partial
    )
    partials = coalesce(partials, n_buckets)

    def merge_bucket(group: pa.Table) -> pa.Table:
        fp1 = np.asarray(group.column("fp1"), dtype=np.int64)
        fp2 = np.asarray(group.column("fp2"), dtype=np.int64)
        combined = np.asarray(group.column("combined"), dtype=np.int64)
        n_words = np.asarray(group.column("n_words"), dtype=np.int64)
        order, starts, _, _, _ = segments((fp1, fp2), combined)
        first = order[starts]
        cs = combined[first]
        return pa.table(
            {
                id_column: pa.array(cs >> idx_bits),
                "para_idx": pa.array(cs & ((1 << idx_bits) - 1)),
                "n_words": pa.array(n_words[first]),
            }
        )

    return map_buckets(partials, merge_bucket, n_buckets)


# --- shingles + minhash ----------------------------------------------------


def _word_shingle_hashes(col: pa.Array, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of word n-gram shingles for every row → (flat uint64 hashes,
    row offsets). One split pass; shingle hashing is rolling over the
    token-hash stream (loop over n, not over rows/positions)."""
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.fill_null(col, "")), pattern=r"\s+"
    )
    flat = np.asarray(toks.values, dtype=object)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    th = hash64(flat) if len(flat) else np.empty(0, np.uint64)
    counts = np.diff(offsets)

    # rows with fewer than n tokens contribute one shingle (their tokens)
    out_counts = np.maximum(counts - (n - 1), 1)
    out_counts[counts == 0] = 0
    out_offsets = np.concatenate([[0], np.cumsum(out_counts)])

    hashes = np.zeros(int(out_offsets[-1]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = np.uint64(1_000_003)
        for row_sh in range(n):
            # shingle j of row r takes token j+row_sh (clamped to the row)
            src = np.arange(len(hashes), dtype=np.int64)
            rel = src - np.repeat(out_offsets[:-1], out_counts)
            tok_idx = rel + row_sh
            row_of = np.repeat(np.arange(len(counts)), out_counts)
            tok_idx = np.minimum(tok_idx, np.maximum(counts[row_of] - 1, 0))
            absolute = offsets[:-1][row_of] + tok_idx
            hashes = (hashes * base + th[absolute]) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return hashes, out_offsets


def _segment_min(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    out = np.full(len(offsets) - 1, np.iinfo(np.uint64).max, dtype=np.uint64)
    seg = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    np.minimum.at(out, seg, values)
    return out


def minhash_signatures(
    hashes: np.ndarray, offsets: np.ndarray, num_perm: int = 128, seed: int = 7
) -> np.ndarray:
    """(rows, num_perm) MinHash signature matrix via affine permutations
    ``(a*h + b) mod p`` over the flat shingle-hash stream."""
    rng = np.random.default_rng(seed)
    n_rows = len(offsets) - 1
    sig = np.full((n_rows, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if not len(hashes):
        return sig
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    h = hashes % _MERSENNE
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            hp = (a[p] * h + b[p]) % _MERSENNE
            sig[:, p] = _segment_min(hp, offsets)
    return sig


class MinHashBandStage:
    """map_batches callable: text → LSH band rows
    ``(id, band, band_hash)`` — ``bands × rows_per_band = num_perm``.
    Stateful setup (permutation coefficients) happens once per actor."""

    def __init__(
        self,
        text_column: str = "text",
        id_column: str = "doc_id",
        shingle_n: int = 3,
        num_perm: int = 128,
        bands: int = 16,
        seed: int = 7,
    ) -> None:
        assert num_perm % bands == 0
        self.text_column = text_column
        self.id_column = id_column
        self.shingle_n = shingle_n
        self.num_perm = num_perm
        self.bands = bands
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_column).combine_chunks()
        hashes, offsets = _word_shingle_hashes(col, self.shingle_n)
        sig = minhash_signatures(hashes, offsets, self.num_perm, self.seed)
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        r = self.num_perm // self.bands
        band_ids = np.repeat(np.arange(self.bands, dtype=np.int32), len(ids))
        doc_ids = np.tile(ids, self.bands)
        band_hashes = np.empty(self.bands * len(ids), dtype=np.uint64)
        base = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):
            for bnd in range(self.bands):
                sl = sig[:, bnd * r : (bnd + 1) * r]
                h = np.full(len(ids), np.uint64(bnd + 1), dtype=np.uint64)
                for j in range(r):  # vectorized over rows; loop over r only
                    h = (h ^ sl[:, j]) * base
                band_hashes[bnd * len(ids) : (bnd + 1) * len(ids)] = h
        # int64 view (bijective) so the groupby shuffle key stays a native
        # Arrow type — uint64 > 2^63 degrades to pickled-object extension.
        # "bucket" coarsens the shuffle key: grouping by raw (band,
        # band_hash) would mean one Python map_groups call per LSH bucket
        # (~rows × bands groups, mostly singletons)
        bucket = mix_to_buckets(band_hashes, 256)
        return pa.table(
            {
                self.id_column: pa.array(doc_ids),
                BUCKET: pa.array(bucket),
                "band": pa.array(band_ids),
                "band_hash": pa.array(band_hashes.view(np.int64), pa.int64()),
            }
        )


def _block_pairs(block: tuple, ids: np.ndarray, cap: int):
    """Candidate pairs inside the LSH blocks of one COARSE bucket: sort
    by (block, id), loop only over blocks with ≥2 distinct ids.
    Per-block fan-out is bounded by capping all-pairs at ``cap`` ids and
    STAR-LINKING every overflow id to the block's min id — O(n) extra
    pairs keep the cluster connected (truncation would drop overflow
    members from every band, since identical content hits the same block
    in every band). Returns ``(order, a_pos, b_pos, n_truncated)`` with
    the pair members as positions into the sorted rows."""
    order, starts, _, _, _ = segments(block, ids)
    ids_s = ids[order]
    ends = np.append(starts[1:], len(order))
    multi = ends - starts >= 2
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    n_truncated = 0
    for s, e in zip(starts[multi], ends[multi]):
        keepm = np.concatenate([[True], ids_s[s + 1 : e] != ids_s[s : e - 1]])
        pos = np.flatnonzero(keepm) + s  # distinct ids, ascending
        if len(pos) < 2:
            continue
        h = pos[:cap]
        ai, bi = np.triu_indices(len(h), k=1)
        a_pos, b_pos = h[ai], h[bi]
        if len(pos) > cap:
            n_truncated += 1
            t = pos[cap:]
            a_pos = np.concatenate([a_pos, np.full(len(t), pos[0], np.int64)])
            b_pos = np.concatenate([b_pos, t])
        out_a.append(a_pos)
        out_b.append(b_pos)
    return order, np.concatenate(out_a), np.concatenate(out_b), n_truncated


def _bucket_pairs(group: pa.Table, id_column: str) -> pa.Table:
    """(a<b) MinHash candidate pairs over one coarse bucket of (band,
    band_hash) LSH buckets, all-pairs capped at 64 ids per LSH bucket
    (:func:`_block_pairs`); the Jaccard verify stage still filters false
    positives."""
    band = np.asarray(group.column("band"), dtype=np.int64)
    bh = np.asarray(group.column("band_hash"), dtype=np.int64)
    ids = np.asarray(group.column(id_column), dtype=np.int64)
    order, a_pos, b_pos, _ = _block_pairs((band, bh), ids, 64)
    ids = ids[order]
    return pa.table({"a": pa.array(ids[a_pos]), "b": pa.array(ids[b_pos])})


def candidate_pairs(band_rows, id_column: str = "doc_id"):
    """Coarse-bucket groupby → unique candidate (a,b) pairs."""
    pairs = map_buckets(band_rows, lambda g: _bucket_pairs(g, id_column))
    # dedup pairs produced by multiple bands (bucketed vectorized distinct
    # — the builtin aggregate() merges groups in per-row Python)
    return dedup_pairs_distinct(pairs)


def _pairwise_jaccard(
    sets_a: list, sets_b: list, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-pair Jaccard over lists of DISTINCT-element uint64
    sets: one concat + lexsort, duplicate counting per pair — no per-pair
    ``intersect1d`` (whose Python/alloc overhead dominates once candidate
    pairs reach the 10^5 range). Returns (keep_mask, similarity)."""
    n = len(sets_a)
    if n == 0:
        return np.zeros(0, bool), np.zeros(0, np.float64)
    la = np.fromiter((len(x) for x in sets_a), np.int64, n)
    lb = np.fromiter((len(x) for x in sets_b), np.int64, n)
    flat = [None] * (2 * n)
    flat[::2] = sets_a
    flat[1::2] = sets_b
    hh = np.concatenate(flat) if la.sum() + lb.sum() else np.empty(0, np.uint64)
    pair_of = np.repeat(np.arange(n, dtype=np.int64), la + lb)
    order = np.lexsort((hh, pair_of))
    po, hs = pair_of[order], hh[order]
    dup = (po[1:] == po[:-1]) & (hs[1:] == hs[:-1])
    inter = np.bincount(po[1:][dup], minlength=n)
    union = la + lb - inter
    sim = inter / np.maximum(union, 1)
    # union == 0 (both sets empty) is skipped, matching the historical
    # per-pair behavior and the SQL oracle (no shingle rows → no pair)
    return (sim >= threshold) & (union > 0), sim


class JaccardVerifyStage:
    """Verify candidate pairs by true n-gram Jaccard against a broadcast
    ``{id: shingle-hash set}`` lookup (``ray.put`` once; resolved once per
    worker). Emits pairs with ``similarity >= threshold``."""

    def __init__(self, lookup_ref, threshold: float = 0.5, shingle_n: int = 3) -> None:
        self.lookup_ref = lookup_ref
        self.threshold = threshold
        self.shingle_n = shingle_n
        self._lookup = None

    def _resolve(self):
        if self._lookup is None:
            import ray

            obj = self.lookup_ref
            self._lookup = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._lookup

    def __call__(self, batch: pa.Table) -> pa.Table:
        lookup = self._resolve()
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        sets_a, sets_b, idx = [], [], []
        for i in range(len(a)):
            sa, sb = lookup.get(int(a[i])), lookup.get(int(b[i]))
            if sa is None or sb is None:
                continue
            sets_a.append(sa)
            sets_b.append(sb)
            idx.append(i)
        keep, sim = _pairwise_jaccard(sets_a, sets_b, self.threshold)
        idx = np.asarray(idx, dtype=np.int64)[keep]
        return pa.table(
            {
                "a": pa.array(a[idx], pa.int64()),
                "b": pa.array(b[idx], pa.int64()),
                "similarity": pa.array(sim[keep], pa.float64()),
            }
        )


def build_shingle_lookup(
    ds, text_column="text", id_column="doc_id", shingle_n=3, only_ids=None,
    hash_fn=None,
):
    """Distributed build of ``{id: unique shingle hashes}`` (driver-merged).

    ``only_ids`` restricts the build to candidate ids — docs outside the
    candidate set are filtered per batch before any shingling, so the
    driver dict is bounded by the candidate count, not the corpus. When
    even the candidate set is too big (``max_broadcast_pairs``), the
    verify runs as the distributed ``minhash_verify_join`` instead.
    """
    id_filter = None
    if only_ids is not None:
        id_filter = pa.array(np.fromiter(only_ids, dtype=np.int64))
    if hash_fn is None:
        hash_fn = lambda col: _word_shingle_hashes(col, shingle_n)  # noqa: E731

    def partial(batch: pa.Table) -> pa.Table:
        if id_filter is not None:
            batch = batch.filter(pc.is_in(batch.column(id_column), value_set=id_filter))
        hashes, offsets = hash_fn(batch.column(text_column).combine_chunks())
        ids = np.asarray(batch.column(id_column), dtype=np.int64)
        blobs = [
            np.unique(hashes[offsets[i] : offsets[i + 1]]).tobytes()
            for i in range(len(ids))
        ]
        return pa.table({id_column: pa.array(ids), "blob": pa.array(blobs, pa.binary())})

    out = {}
    for part in ds.select_columns([id_column, text_column]).map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        ids = np.asarray(part.column(id_column), dtype=np.int64)
        for i, blob in enumerate(part.column("blob")):
            out[int(ids[i])] = np.frombuffer(blob.as_py(), dtype=np.uint64)
    return out


def _attach_payload(group: pa.Table, payload: str, n_buckets: int) -> pa.Table:
    """First-exchange body of the co-partitioned verify joins: corpus
    rows (null ``side``) carry each doc's ``payload``; a sorted
    ``searchsorted`` join attaches it to the doc's candidate role rows
    (Arrow ``take`` — no per-doc Python), which then route on ``(a, b)``
    so both sides of a pair meet in the second exchange. Docs outside the
    candidate set emit nothing."""
    is_doc = pc.is_null(group.column("side"))
    docs = group.filter(is_doc)
    ro = group.filter(pc.invert(is_doc))
    ddocs = np.asarray(docs.column("doc"), dtype=np.int64)
    dorder = np.argsort(ddocs, kind="stable")
    ddocs_s = ddocs[dorder]
    rdocs = np.asarray(ro.column("doc"), dtype=np.int64)
    pos = np.clip(np.searchsorted(ddocs_s, rdocs), 0, max(len(ddocs_s) - 1, 0))
    hit = ddocs_s[pos] == rdocs if len(ddocs_s) else np.zeros(len(rdocs), bool)
    ro = ro.filter(pa.array(hit)).drop_columns(["doc", payload])
    take = pa.array(dorder[pos[hit]], pa.int64())
    return ro.append_column(payload, docs.column(payload).take(take)).append_column(
        BUCKET, pa.array(bucket_ids(ro, ["a", "b"], n_buckets))
    )


def minhash_verify_join(
    ds,
    cand_pairs,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    shingle_n: int = 3,
    n_buckets: int | None = None,
    hash_fn=None,
):
    """Co-partitioned Jaccard verify for candidate sets too large to
    broadcast (the 10^12-doc path): no driver dict, no corpus broadcast.

    Two bucketed exchanges, both with VECTORIZED group bodies:

    1. bucket exchange on ``doc``: candidate-pair role rows
       ``(doc, a, b, side)`` meet the corpus' per-doc shingle-blob rows;
       inside each bucket a sorted ``searchsorted`` join attaches each
       doc's blob to its role rows (Arrow ``take`` — no per-doc Python).
       Docs outside the candidate set emit nothing.
    2. bucket exchange on ``(a, b)``: the two sides of each pair meet; the
       true-Jaccard check loops only over candidate PAIRS (set
       intersection is inherently per-pair, same as the broadcast path).
    """
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def roles(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("a"), dtype=np.int64)
        b = np.asarray(t.column("b"), dtype=np.int64)
        doc = np.concatenate([a, b])
        return pa.table(
            {
                "doc": pa.array(doc),
                "a": pa.array(np.concatenate([a, a])),
                "b": pa.array(np.concatenate([b, b])),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(a), np.int8), np.ones(len(b), np.int8)]
                    )
                ),
                "blob": pa.nulls(2 * len(a), pa.large_binary()),
            }
        )

    if hash_fn is None:
        hash_fn = lambda col: _word_shingle_hashes(col, shingle_n)  # noqa: E731

    def blobs(t: pa.Table) -> pa.Table:
        hashes, offsets = hash_fn(t.column(text_column).combine_chunks())
        ids = np.asarray(t.column(id_column), dtype=np.int64)
        bl = [
            np.unique(hashes[offsets[i] : offsets[i + 1]]).tobytes()
            for i in range(len(ids))
        ]
        return pa.table(
            {
                "doc": pa.array(ids),
                "a": pa.nulls(len(ids), pa.int64()),
                "b": pa.nulls(len(ids), pa.int64()),
                "side": pa.nulls(len(ids), pa.int8()),
                "blob": pa.array(bl, pa.large_binary()),
            }
        )

    role_rows = route(cand_pairs, ["doc"], n_buckets, roles)
    blob_rows = route(ds.select_columns([id_column, text_column]), ["doc"], n_buckets, blobs)
    tagged = role_rows.union(blob_rows)

    def attach(group: pa.Table) -> pa.Table:
        return _attach_payload(group, "blob", n_buckets)

    per_pair = map_buckets(tagged, attach, n_buckets)

    def verify(group: pa.Table) -> pa.Table:
        a = np.asarray(group.column("a"), dtype=np.int64)
        b = np.asarray(group.column("b"), dtype=np.int64)
        side = np.asarray(group.column("side"), dtype=np.int8)
        order, starts, _, _, _ = segments((a, b), side)
        a, b, side = a[order], b[order], side[order]
        blob_col = group.column("blob").take(pa.array(order, pa.int64()))
        ends = np.append(starts[1:], len(a))
        # complete pairs: both sides' docs present in the corpus
        ok = (ends - starts == 2) & (side[starts] != side[ends - 1])
        starts = starts[ok]
        sets_a = [
            np.frombuffer(blob_col[s].as_py(), dtype=np.uint64) for s in starts
        ]
        sets_b = [
            np.frombuffer(blob_col[s + 1].as_py(), dtype=np.uint64)
            for s in starts
        ]
        keep, sim = _pairwise_jaccard(sets_a, sets_b, threshold)
        sel = starts[keep]
        return pa.table(
            {
                "a": pa.array(a[sel], pa.int64()),
                "b": pa.array(b[sel], pa.int64()),
                "similarity": pa.array(sim[keep], pa.float64()),
            }
        )

    return map_buckets(per_pair, verify, n_buckets)


def minhash_near_dup_pairs(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    shingle_n: int = 3,
    num_perm: int = 128,
    bands: int = 16,
    max_broadcast_docs: int = 500_000,
):
    """Full MinHash+LSH near-dup pipeline → Dataset of
    ``(a, b, similarity)`` pairs with true Jaccard ≥ threshold.

    Verify-path switchover (see ``verify_candidate_pairs``): a bounded
    candidate-DOC set broadcasts a ``{id: shingle set}`` lookup built for
    candidate ids only; beyond ``max_broadcast_docs`` distinct candidate
    docs (where that dict would OOM a worker) the verify runs as the
    fully distributed co-partitioned join (``minhash_verify_join``)."""
    band_rows = ds.select_columns([id_column, text_column]).map_batches(
        MinHashBandStage(text_column, id_column, shingle_n, num_perm, bands),
        batch_format="pyarrow",
    )
    # materialize the candidate set ONCE (object store, not driver) —
    # counting and re-consuming a lazy Dataset would re-execute the whole
    # band+groupby pipeline per consumer
    from fs_schema_validator_ray.stages.agg import scrub_empty_blocks

    cands = scrub_empty_blocks(
        candidate_pairs(band_rows, id_column).materialize()
    )
    return verify_candidate_pairs(
        ds,
        cands,
        text_column,
        id_column,
        threshold,
        lambda col: _word_shingle_hashes(col, shingle_n),
        max_broadcast_docs,
    )


# --- simhash ---------------------------------------------------------------


# --- exact n-gram Jaccard similarity join (prefix filtering) ---------------


def _distinct_shingle_hashes(
    col: pa.Array, n: int = 1, distinct: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row word n-gram shingle hashes, sorted within each row →
    (flat uint64, row offsets); DISTINCT per row by default
    (``distinct=False`` keeps multiplicity — still row-sorted, so equal
    shingles form contiguous runs for run-length counting). Tokenization
    is deliberately oracle-replicable: lowercase, split on ``[^a-z0-9]+``,
    drop empties — exactly ``string_split_regex(lower(text),
    '[^a-z0-9]+')`` in SQL; rows with fewer than ``n`` tokens produce NO
    shingles (the SQL self-join semantics, unlike
    ``_word_shingle_hashes``'s clamping)."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(pc.fill_null(col, "")), pattern=r"[^a-z0-9]+"
    )
    flat = toks.values
    counts0 = np.diff(np.asarray(toks.offsets, dtype=np.int64))
    n_rows = len(counts0)
    rows_all = np.repeat(np.arange(n_rows, dtype=np.int64), counts0)
    nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    rows_all = rows_all[nonempty]
    th_tok = (
        hash64(np.asarray(flat, dtype=object)[nonempty])
        if nonempty.any()
        else np.empty(0, np.uint64)
    )
    # token counts per row after dropping empties (original order kept)
    counts = np.bincount(rows_all, minlength=n_rows)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    if n == 1:
        sh, rows = th_tok, rows_all
    else:
        out_counts = np.maximum(counts - (n - 1), 0)
        out_offsets = np.concatenate([[0], np.cumsum(out_counts)]).astype(np.int64)
        total = int(out_offsets[-1])
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), out_counts)
        starts = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_offsets[:-1], out_counts)
            + offsets[:-1][rows]
        )
        sh = np.zeros(total, dtype=np.uint64)
        base = np.uint64(1_000_003)
        with np.errstate(over="ignore"):
            for k in range(n):
                sh = sh * base + th_tok[starts + k]
    order, starts, _, _, _ = segments((rows, sh))
    keep = order[starts] if distinct else order
    rows, sh = rows[keep], sh[keep]
    out = np.bincount(rows, minlength=n_rows)
    return sh, np.concatenate([[0], np.cumsum(out)]).astype(np.int64)


def shingle_document_frequencies(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    shingle_n: int = 1,
    min_df: int = 2,
    max_entries: int = 1_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded global document-frequency table for the prefix-filter token
    order: ``(sorted shingle hashes, df)`` for shingles in ≥ ``min_df``
    docs, capped at the ``max_entries`` hottest (driver state stays
    bounded at any corpus size; shingles outside the table rank as df=1,
    which keeps the order total and the filter exact — only candidate
    PRECISION varies with the cap)."""
    P = 64

    def partial(batch: pa.Table) -> pa.Table:
        th, _ = _distinct_shingle_hashes(
            batch.column(text_column).combine_chunks(), shingle_n
        )
        u, c = np.unique(th, return_counts=True)  # distinct per doc already
        return pa.table(
            {
                "s": pa.array(u.view(np.int64), pa.int64()),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    # the driver cap must hold BEFORE collection: hash buckets see a
    # uniform shingle sample, so a per-bucket top-k (2× headroom) of the
    # global budget approximates the global hottest set and bounds what
    # ever reaches the driver at ≤ 2 × max_entries rows, any corpus size.
    # The cap trades candidate PRECISION only — dropped entries rank as
    # df=1, which is still a consistent total order (filter stays exact).
    per_bucket = max(1, (2 * max_entries) // P)

    def merge(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, "s").aggregate([("c", "sum")])
        keep = pc.greater_equal(g.column("c_sum"), min_df)
        g = g.filter(keep)
        s = np.asarray(g.column("s"), dtype=np.int64)
        df = np.asarray(g.column("c_sum"), dtype=np.int64)
        if len(s) > per_bucket:
            top = np.argpartition(-df, per_bucket)[:per_bucket]
            s, df = s[top], df[top]
        return pa.table({"s": pa.array(s), "df": pa.array(df)})

    merged = bucketed(ds.select_columns([id_column, text_column]), ["s"], P, merge, partial)
    keys, dfs = [], []
    for b in merged.iter_batches(batch_format="pyarrow"):
        keys.append(np.asarray(b.column("s"), dtype=np.int64).view(np.uint64))
        dfs.append(np.asarray(b.column("df"), dtype=np.int64))
    if not keys:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys = np.concatenate(keys)
    dfs = np.concatenate(dfs)
    if len(keys) > max_entries:
        top = np.argpartition(-dfs, max_entries)[:max_entries]
        keys, dfs = keys[top], dfs[top]
    order = np.argsort(keys)
    return keys[order], dfs[order]


class PrefixRowsStage:
    """map_batches callable emitting ``(__bucket, tok, id, size)`` for each
    doc's PREFIX shingles only.

    Prefix filtering (Bayardo et al. "Scaling Up All Pairs Similarity
    Search", Xiao et al. PPJoin): under any global token order, two sets
    with Jaccard ≥ t must share a token within each one's first
    ``|S| - ceil(t*|S|) + 1`` tokens. The order used is ascending global
    document frequency (broadcast bounded df table, resolved once per
    worker) with shingle hash as tiebreak — prefixes hold each doc's
    RAREST shingles, so template-shared shingles stop flooding the
    candidate buckets; any total order is correct, frequency order is the
    precision optimization."""

    def __init__(
        self,
        text_column: str,
        id_column: str,
        threshold: float,
        shingle_n: int,
        df_ref=None,
    ) -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.threshold = threshold
        self.shingle_n = shingle_n
        self.df_ref = df_ref
        self._df = None

    def _resolve(self):
        if self._df is None:
            if self.df_ref is None:
                self._df = (np.empty(0, np.uint64), np.empty(0, np.int64))
            else:
                import ray

                obj = self.df_ref
                self._df = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._df

    def __call__(self, batch: pa.Table) -> pa.Table:
        df_keys, df_vals = self._resolve()
        th, offs = _distinct_shingle_hashes(
            batch.column(self.text_column).combine_chunks(), self.shingle_n
        )
        sizes = np.diff(offs)
        rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        if len(df_keys):
            p = np.clip(np.searchsorted(df_keys, th), 0, max(len(df_keys) - 1, 0))
            hit = df_keys[p] == th if len(df_keys) else np.zeros(len(th), bool)
            df = np.where(hit, df_vals[p], 1)
        else:
            df = np.ones(len(th), np.int64)
        order = np.lexsort((th, df, rows))  # per-row ascending (df, hash)
        th = th[order]
        # ceil with a conservative epsilon: float64 can round t*s UP
        # (0.07*100 = 7.000000000000001 → ceil 8), which would SHORTEN the
        # prefix and silently drop boundary pairs from an exact join; the
        # epsilon can only lengthen prefixes (extra candidates, which the
        # exact verify filters)
        prefix = np.where(
            sizes > 0,
            sizes - np.ceil(self.threshold * sizes - 1e-9).astype(np.int64) + 1,
            0,
        )
        pos = np.arange(len(th), dtype=np.int64) - np.repeat(offs[:-1], sizes)
        keep = pos < np.repeat(prefix, sizes)
        tk = th[keep]
        bucket = mix_to_buckets(tk, 256)
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        return pa.table(
            {
                # small-int shuffle key — grouping by raw token would make
                # one Python map_groups call per shingle
                BUCKET: pa.array(bucket),
                # signed reinterpretation (bijective): uint64 above 2^63
                # falls back to pickled extension arrays in Ray's shuffle
                "tok": pa.array(tk.view(np.int64), pa.int64()),
                "id": pa.array(np.repeat(ids, sizes)[keep]),
                "size": pa.array(np.repeat(sizes, sizes)[keep]),
                # token's rank in the doc's ordered set — feeds the PPJoin
                # positional filter in the pair stage
                "pos": pa.array(pos[keep]),
            }
        )


def _token_bucket_pairs(group: pa.Table, threshold: float) -> pa.Table:
    """(a<b) pairs sharing a prefix token, size- AND position-filtered,
    over one BUCKET of tokens: sort by token, loop only over tokens with
    ≥2 docs (shared shingles — the rare case), numpy triu inside.

    Filters (both exactness-preserving — each is a valid upper bound on
    the true overlap, so a qualifying pair can never fail at ANY of its
    shared prefix tokens):

    * size: ``J ≥ t`` requires ``min(|A|,|B|) ≥ t·max(|A|,|B|)``;
    * positional (PPJoin, Xiao et al.): with the shared token at ranks
      ``(p_a, p_b)`` of the docs' globally-ordered sets, overlap ≤
      ``min(p_a, p_b) + 1 + min(|A|−p_a−1, |B|−p_b−1)``, which must
      reach ``α = t/(1+t)·(|A|+|B|)`` (the overlap form of ``J ≥ t``).
      On template corpora (many same-size docs sharing prefix tokens at
      different ranks) this prunes the candidate set the size filter
      cannot touch.

    UNCAPPED — the output feeds an exact join, so dropping candidates
    would drop true pairs; hot common tokens are kept out of prefixes by
    the global token order (frequency re-ranking at production scale)."""
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if group.num_rows < 2:
        return empty
    tok = np.asarray(group.column("tok"), dtype=np.int64)
    ids = np.asarray(group.column("id"), dtype=np.int64)
    sizes = np.asarray(group.column("size"), dtype=np.int64)
    poss = np.asarray(group.column("pos"), dtype=np.int64)
    order, starts, _, _, _ = segments(tok, ids)
    ids, sizes, poss = ids[order], sizes[order], poss[order]
    ends = np.append(starts[1:], len(order))
    multi = ends - starts >= 2
    out_a, out_b = [], []
    for s, e in zip(starts[multi], ends[multi]):
        g_ids, g_sz, g_pos = ids[s:e], sizes[s:e], poss[s:e]
        ai, bi = np.triu_indices(e - s, k=1)
        lo = np.minimum(g_sz[ai], g_sz[bi])
        hi = np.maximum(g_sz[ai], g_sz[bi])
        # epsilon keeps the filters conservative under float rounding
        # (t*hi can land one ulp above the exact rational) — the verify
        # stage applies the exact predicate
        keep = lo >= threshold * hi - 1e-9
        # positional upper bound vs required overlap α
        ubound = (
            np.minimum(g_pos[ai], g_pos[bi])
            + 1
            + np.minimum(g_sz[ai] - g_pos[ai] - 1, g_sz[bi] - g_pos[bi] - 1)
        )
        alpha = threshold / (1.0 + threshold) * (g_sz[ai] + g_sz[bi])
        keep &= ubound >= alpha - 1e-9
        out_a.append(g_ids[ai[keep]])
        out_b.append(g_ids[bi[keep]])
    if not out_a:
        return empty
    return pa.table(
        {
            "a": pa.array(np.concatenate(out_a)),
            "b": pa.array(np.concatenate(out_b)),
        }
    )


def dedup_pairs_distinct(pairs, n_buckets: int = 64, agg=None):
    """Distinct ``(a, b)`` rows via a bucketed shuffle + one Arrow
    ``group_by`` per bucket — Ray's builtin ``groupby(...).aggregate()``
    combines grouped rows in per-row Python, which dominates wall time
    once candidate pairs reach the millions. ``agg``: optional Arrow
    aggregate spec for value columns carried through, e.g.
    ``[("similarity", "max")]`` (output keeps the plain column name)."""
    val_cols = [c for c, _ in (agg or [])]

    def prune(t: pa.Table) -> pa.Table:
        return t.select(["a", "b", *val_cols])

    def uniq(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, ["a", "b"]).aggregate(agg or [])
        cols = {"a": g.column("a"), "b": g.column("b")}
        for c, fn in agg or []:
            cols[c] = g.column(f"{c}_{fn}")
        return pa.table(cols)

    return bucketed(pairs, ["a", "b"], n_buckets, uniq, prune)


def ngram_jaccard_pairs(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    shingle_n: int = 1,
    max_broadcast_docs: int = 500_000,
    freq_order: bool | None = None,
    n_docs: int | None = None,
):
    """EXACT token/shingle-set Jaccard similarity join → Dataset of
    ``(a, b, similarity)`` with true Jaccard ≥ threshold.

    Unlike MinHash (probabilistic recall), this is exact: prefix
    filtering guarantees every qualifying pair appears as a candidate,
    and the verify computes true Jaccard over the full distinct-token
    sets. Pipeline: ``df pass (bounded broadcast frequency order) →
    map_batches(prefix tokens) → groupby(bucket) → size-filtered pairs →
    bucketed distinct → verify``.

    Verify switchover keys on DISTINCT CANDIDATE DOCS, not pairs: the
    broadcast lookup costs O(candidate docs × set size) memory, while
    pairs can be quadratic in docs — a dense candidate graph over few
    docs (template corpora) wants the tiny broadcast dict, and the
    co-partitioned join (which re-ships each doc's shingle blob once per
    pair role) is reserved for genuinely huge candidate-doc sets."""
    import ray

    hash_fn = lambda col: _distinct_shingle_hashes(col, shingle_n)  # noqa: E731
    ds, cands = _ngram_candidates(
        ds, text_column, id_column, threshold, shingle_n, freq_order, n_docs
    )
    return verify_candidate_pairs(
        ds, cands, text_column, id_column, threshold, hash_fn, max_broadcast_docs
    )


def _ngram_candidates(
    ds,
    text_column: str,
    id_column: str,
    threshold: float,
    shingle_n: int,
    freq_order: bool | None,
    n_docs: int | None,
):
    """Candidate phase of the exact Jaccard join: prefix filter →
    bucket groupby → size-filtered pairs → bucketed distinct. Returns
    ``(corpus_ds, materialized_candidate_pairs)``."""
    import ray

    ds = ds.select_columns([id_column, text_column])
    if n_docs is None:
        # metadata-fast on a bare parquet read; on a dataset with lineage
        # count() EXECUTES the pipeline — callers with expensive upstream
        # transforms should pass n_docs to skip it
        n_docs = ds.count()
    small = n_docs < 200_000
    if small:
        # the pipeline consumes the corpus 2-3× (prefix pass, optional df
        # pass, verify lookup): pin the two pruned columns in the object
        # store instead of re-reading parquet per consumer. NEVER at
        # corpus scale — there the branches re-read, which streams.
        ds = ds.materialize()
    if freq_order is None:
        # the df pass (an extra corpus read + shuffle) buys candidate
        # PRECISION, never correctness — below ~200k docs the broadcast
        # verify absorbs the extra hash-order candidates for less than
        # the pass costs; at corpus scale it is essential
        freq_order = not small
    df_ref = (
        ray.put(shingle_document_frequencies(ds, text_column, id_column, shingle_n))
        if freq_order
        else None
    )
    prefix_rows = ds.select_columns([id_column, text_column]).map_batches(
        PrefixRowsStage(text_column, id_column, threshold, shingle_n, df_ref),
        batch_format="pyarrow",
    )
    pairs = map_buckets(prefix_rows, lambda g: _token_bucket_pairs(g, threshold))
    from fs_schema_validator_ray.stages.agg import scrub_empty_blocks

    return ds, scrub_empty_blocks(dedup_pairs_distinct(pairs).materialize())


def verify_candidate_pairs(
    ds,
    cands,
    text_column: str,
    id_column: str,
    threshold: float,
    hash_fn,
    max_broadcast_docs: int = 500_000,
):
    """Dispatch the true-Jaccard verify for a (materialized) candidate-pair
    Dataset. The switchover keys on DISTINCT CANDIDATE DOCS — the
    broadcast lookup costs O(candidate docs × set size), while pairs can
    be quadratic in docs, so a dense candidate graph over few docs
    (template corpora) wants the tiny broadcast dict and the
    co-partitioned join (which ships each doc's shingle blob once per
    pair role) is reserved for genuinely huge candidate-doc sets.
    Candidate PAIRS never land on the driver — only the distinct-id
    partials do."""
    import ray
    import ray.data as rd

    if cands.count() == 0:
        return rd.from_arrow(_PAIR_SCHEMA.empty_table())

    def distinct_ids(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    np.asarray(t.column("a"), dtype=np.int64),
                    np.asarray(t.column("b"), dtype=np.int64),
                ]
            )
        )
        return pa.table({"id": pa.array(u)})

    id_parts = [
        np.asarray(b.column("id"), dtype=np.int64)
        for b in cands.map_batches(distinct_ids, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    cand_ids = np.unique(np.concatenate(id_parts)) if id_parts else np.empty(0, np.int64)
    if len(cand_ids) > max_broadcast_docs:
        return minhash_verify_join(
            ds, cands, text_column, id_column, threshold, hash_fn=hash_fn
        )
    lookup = build_shingle_lookup(
        ds, text_column, id_column, only_ids=cand_ids, hash_fn=hash_fn
    )
    lookup_ref = ray.put(lookup)
    return cands.map_batches(
        JaccardVerifyStage(lookup_ref, threshold), batch_format="pyarrow"
    )


def simhash64(col: pa.Array) -> np.ndarray:
    """64-bit SimHash over whitespace tokens, fully vectorized: flat token
    hashes → 64-bit sign-vote per row via cumsum segment sums."""
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.fill_null(col, "")), pattern=r"\s+"
    )
    flat = np.asarray(toks.values, dtype=object)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    n = len(offsets) - 1
    if not len(flat):
        return np.zeros(n, dtype=np.uint64)
    th = hash64(flat)
    counts = np.diff(offsets).astype(np.int64)
    out = np.zeros(n, dtype=np.uint64)
    # one cumsum pass per bit (memory O(tokens), not O(tokens × 64))
    for b in range(64):
        bit = ((th >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(bit)])
        ones = cs[offsets[1:]] - cs[offsets[:-1]]
        vote = 2 * ones - counts  # (+1 per set bit, -1 per clear bit)
        out |= (vote > 0).astype(np.uint64) << np.uint64(b)
    return out


class SimHashStage:
    """map_batches callable → **band-expanded** LSH rows
    ``(id, simhash, band, band_key)`` — 4 rows per document, one per
    16-bit block (hamming ≤ 3 ⇒ at least one block equal, pigeonhole).
    Band expansion in the map stage means ONE read + ONE groupby shuffle
    downstream instead of one groupby per block (each of which would
    re-execute the whole upstream read)."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id") -> None:
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = simhash64(batch.column(self.text_column).combine_chunks())
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        n = len(ids)
        bands = np.repeat(np.arange(4, dtype=np.int32), n)
        keys = np.empty(4 * n, dtype=np.int32)
        for blk in range(4):
            keys[blk * n : (blk + 1) * n] = (
                (sh >> np.uint64(16 * blk)) & np.uint64(0xFFFF)
            ).astype(np.int32)
        # int64 view (bijective): native Arrow type across the shuffle;
        # coarse "bucket" keeps the downstream map_groups call count at
        # ~256 instead of one Python call per (band, band_key)
        with np.errstate(over="ignore"):
            bucket = mix_to_buckets(
                (bands.astype(np.uint64) << np.uint64(16))
                ^ keys.view(np.uint32).astype(np.uint64),
                256,
            )
        return pa.table(
            {
                self.id_column: pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(sh, 4).view(np.int64), pa.int64()),
                BUCKET: pa.array(bucket),
                "band": pa.array(bands),
                "band_key": pa.array(keys),
            }
        )


def simhash_near_dup_pairs(
    ds, text_column="text", id_column="doc_id", max_hamming: int = 3
):
    """SimHash near-dup: one band-row shuffle, exact in-bucket hamming
    verify (the signature rides along — no second lookup needed)."""
    rows = ds.select_columns([id_column, text_column]).map_batches(
        SimHashStage(text_column, id_column), batch_format="pyarrow"
    )

    def block_pairs(group: pa.Table) -> pa.Table:
        # one COARSE bucket of (band, band_key) blocks: sorted segment
        # scan, Python loop only over blocks with ≥2 distinct ids
        band = np.asarray(group.column("band"), dtype=np.int64)
        bkey = np.asarray(group.column("band_key"), dtype=np.int64)
        ids = np.asarray(group.column(id_column), dtype=np.int64)
        hashes = np.asarray(group.column("simhash"), dtype=np.int64).view(np.uint64)
        order, a_pos, b_pos, _ = _block_pairs((band, bkey), ids, 256)
        ids, hashes = ids[order], hashes[order]
        ham = popcount64(hashes[a_pos] ^ hashes[b_pos])
        ok = ham <= max_hamming
        return pa.table(
            {
                "a": pa.array(ids[a_pos[ok]]),
                "b": pa.array(ids[b_pos[ok]]),
                "similarity": pa.array(1.0 - ham[ok] / 64.0),
            }
        )

    allp = map_buckets(rows, block_pairs)
    # a pair's similarity is hash-derived, identical in every band — the
    # max aggregate is just a distinct
    return dedup_pairs_distinct(allp, agg=[("similarity", "max")])


# --- embedding near-dup ----------------------------------------------------


def _normalize(mat: np.ndarray) -> np.ndarray:
    mat = mat.astype(np.float64, copy=False)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def list_column_to_matrix(col) -> np.ndarray:
    """Zero-copy-ish Arrow list<float> → (n, dim) numpy (flat values buffer
    reshaped; requires uniform lengths, which embedding columns have)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.FixedSizeListArray):
        flat = np.asarray(col.values)
        return flat.reshape(len(col), -1)
    offsets = np.asarray(col.offsets, dtype=np.int64)
    lens = np.diff(offsets)
    flat = np.asarray(col.values)
    if len(lens) and (lens == lens[0]).all():
        return flat[offsets[0] : offsets[-1]].reshape(len(col), int(lens[0]))
    return np.stack(col.to_pylist())  # ragged fallback


def collect_embedding_matrix(ds, vec_column="embedding", id_column="vec_id"):
    """Materialize (ids, normalized matrix) — ONLY for small sides
    (broadcast); the LSH path below is the at-scale route."""
    ids, rows = [], []
    for batch in ds.select_columns([id_column, vec_column]).iter_batches(
        batch_format="pyarrow"
    ):
        ids.append(np.asarray(batch.column(id_column), dtype=np.int64))
        rows.append(list_column_to_matrix(batch.column(vec_column)))
    ids = np.concatenate(ids) if ids else np.empty(0, np.int64)
    mat = _normalize(np.concatenate(rows)) if rows else np.empty((0, 0))
    return ids, mat


class EmbeddingNearDupStage:
    """Brute-force batch × broadcast-matrix cosine; emits (a<b) pairs with
    cosine ≥ threshold. Exact — the oracle-checkable baseline."""

    def __init__(self, ref, threshold: float, vec_column="embedding", id_column="vec_id"):
        self.ref = ref
        self.threshold = threshold
        self.vec_column = vec_column
        self.id_column = id_column
        self._side = None

    def _resolve(self):
        if self._side is None:
            import ray

            obj = self.ref
            self._side = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._side

    def __call__(self, batch: pa.Table) -> pa.Table:
        all_ids, all_mat = self._resolve()
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(self.vec_column)))
        sims = mat @ all_mat.T
        bi, ai = np.nonzero(sims >= self.threshold)
        # keep a<b once (the batch side is the row id)
        left, right = ids[bi], all_ids[ai]
        keep = left < right
        return pa.table(
            {
                "a": pa.array(left[keep]),
                "b": pa.array(right[keep]),
                "similarity": pa.array(sims[bi, ai][keep]),
            }
        )


def embedding_near_dup_pairs(
    ds, threshold: float = 0.5, vec_column="embedding", id_column="vec_id"
):
    """Exact embedding near-dup via broadcast matrix (small-side path)."""
    import ray

    side = collect_embedding_matrix(ds, vec_column, id_column)
    ref = ray.put(side)
    return ds.map_batches(
        EmbeddingNearDupStage(ref, threshold, vec_column, id_column),
        batch_format="pyarrow",
    )


# --- edit-distance-1 fuzzy join (SymSpell deletion banding) ------------------

_ED_P = np.uint64(0x100000001B3)  # odd → invertible mod 2^64
_ED_P_INV = np.uint64(pow(0x100000001B3, -1, 1 << 64))
_ED_MIX = np.uint64(0x9E3779B97F4A7C15)


def _deletion_band_rows(
    batch: pa.Table, text_column: str, id_column: str, max_len: int
) -> pa.Table:
    """Vectorized SymSpell banding: every string emits one band key for
    itself and one per single-character deletion — two strings within
    edit distance 1 are guaranteed to share at least one band key
    (equal → full hashes match; substitution → the deletion at the
    mismatch position matches; indel → the shorter string's full hash
    matches one deletion of the longer). Deletion hashes come from ONE
    polynomial-hash identity, no per-variant string building:
    ``h_del(d) = prefix(d) + (total − prefix_incl(d)) · P⁻¹`` over
    uint64 (P odd ⇒ invertible mod 2^64) — O(rows × len) numpy, not
    Python."""
    col = batch.column(text_column).combine_chunks()
    ids = np.asarray(batch.column(id_column), dtype=np.int64)
    n = len(ids)
    lens = np.asarray(pc.fill_null(pc.utf8_length(col), 0), dtype=np.int64)
    if n and int(lens.max()) > max_len:
        raise ValueError(
            f"edit_distance_pairs: a string exceeds max_len={max_len} "
            "(deletion banding fans out per character — this operator "
            "targets short keys; raise max_len explicitly if intended)"
        )
    u = np.asarray(pc.fill_null(col, ""), dtype="U")
    lmax = u.dtype.itemsize // 4
    out_keys: list[np.ndarray] = []
    out_lens: list[np.ndarray] = []
    out_ids: list[np.ndarray] = []
    with np.errstate(over="ignore"):
        if lmax == 0:
            total = np.zeros(n, np.uint64)
        else:
            mat = u.view(np.uint32).reshape(n, lmax).astype(np.uint64)
            pw = np.empty(lmax, np.uint64)
            pw[0] = 1
            for j in range(1, lmax):
                pw[j] = pw[j - 1] * _ED_P
            terms = mat * pw[None, :]
            cs = np.cumsum(terms, axis=1, dtype=np.uint64)
            total = np.where(
                lens > 0, cs[np.arange(n), np.maximum(lens - 1, 0)], np.uint64(0)
            )
            pre_excl = cs - terms
            # deletion band rows, one vectorized column per position
            for d in range(lmax):
                live = lens > d
                if not live.any():
                    break
                h = pre_excl[live, d] + (total[live] - cs[live, d]) * _ED_P_INV
                out_keys.append(h)
                out_lens.append(lens[live] - 1)
                out_ids.append(ids[live])
        out_keys.append(total)  # full-string rows
        out_lens.append(lens)
        out_ids.append(ids)
        key = np.concatenate(out_keys)
        vlen = np.concatenate(out_lens)
        bid = np.concatenate(out_ids)
        band = key * _ED_MIX ^ vlen.view(np.uint64)
        # per-batch dedup of (band, id): repeated characters make several
        # deletion positions collapse to the same variant
        uniq = np.unique(np.stack([band, bid.view(np.uint64)], axis=1), axis=0)
        band, bid = uniq[:, 0], uniq[:, 1].view(np.int64)
    return pa.table(
        {
            "band": pa.array(band.view(np.int64), pa.int64()),
            "id": pa.array(bid, pa.int64()),
        }
    )


def _dist_le1(s1: str, s2: str):
    """Exact Levenshtein-≤1 check (None when distance > 1)."""
    if s1 == s2:
        return 0
    l1, l2 = len(s1), len(s2)
    if abs(l1 - l2) > 1:
        return None
    if l1 == l2:
        seen = False
        for x, y in zip(s1, s2):
            if x != y:
                if seen:
                    return None
                seen = True
        return 1
    if l1 > l2:
        s1, s2, l1, l2 = s2, s1, l2, l1
    i = 0
    while i < l1 and s1[i] == s2[i]:
        i += 1
    return 1 if s1[i:] == s2[i + 1 :] else None


class EditDistanceVerifyStage:
    """map_batches callable: exact Levenshtein-≤1 verify over candidate
    id pairs against a broadcast ``{id: string}`` lookup (resolved once
    per actor/task instance)."""

    def __init__(self, lookup_ref) -> None:
        self.lookup_ref = lookup_ref
        self._lookup = None

    def _resolve(self) -> dict:
        if self._lookup is None:
            import ray

            obj = self.lookup_ref
            self._lookup = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._lookup

    def __call__(self, batch: pa.Table) -> pa.Table:
        lookup = self._resolve()
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        keep_a, keep_b, dist = [], [], []
        for x, y in zip(a, b):
            d = _dist_le1(lookup.get(int(x), ""), lookup.get(int(y), ""))
            if d is not None:
                keep_a.append(int(x))
                keep_b.append(int(y))
                dist.append(d)
        return pa.table(
            {
                "a": pa.array(keep_a, pa.int64()),
                "b": pa.array(keep_b, pa.int64()),
                "dist": pa.array(dist, pa.int64()),
            }
        )


def build_string_lookup(ds, text_column, id_column, only_ids) -> dict:
    """``{id: string}`` for the candidate ids only — per-batch ``is_in``
    filter before anything reaches the driver (bounded by candidates,
    not corpus)."""
    import ray

    ids_arr = pa.array(np.asarray(only_ids, dtype=np.int64))
    ref = ray.put(ids_arr)

    def fltr(t: pa.Table) -> pa.Table:
        want = ray.get(ref) if hasattr(ref, "hex") else ref
        m = pc.is_in(pc.cast(t.column(id_column), pa.int64()), value_set=want)
        f = t.filter(m)
        return pa.table(
            {
                "id": pc.cast(f.column(id_column), pa.int64()),
                "s": pc.cast(f.column(text_column), pa.string()),
            }
        )

    lookup: dict = {}
    for blk in (
        ds.select_columns([id_column, text_column])
        .map_batches(fltr, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        for i, s in zip(blk.column("id").to_pylist(), blk.column("s").to_pylist()):
            lookup[int(i)] = "" if s is None else s
    return lookup


def edit_distance_pairs(
    ds,
    text_column: str = "s",
    id_column: str = "id",
    max_len: int = 64,
    n_buckets: int | None = None,
    max_band: int = 4096,
):
    """EXACT edit-distance-≤1 similarity self-join → Dataset of
    ``(a, b, dist)`` with ``a < b`` and true Levenshtein ≤ 1 — the
    SymSpell deletion-neighborhood method distributed: band rows =
    string + every single-deletion variant (hashes only, never variant
    strings), ONE bucket exchange on the band, within-band pair expansion,
    global pair dedup, broadcast exact verify. Banding guarantees NO
    false negatives; the verify removes hash collisions, so the result
    is exact. Targets SHORT keys (names / titles / codes): band fan-out
    is ``len+1`` rows per string (``max_len`` guard raises on long
    strings); a band with > ``max_band`` members raises rather than
    truncating (exact pair enumeration cannot silently cap — that shape
    means the corpus needs a stronger prefilter)."""
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def band_rows(t: pa.Table) -> pa.Table:
        return _deletion_band_rows(t, text_column, id_column, max_len)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        band = np.asarray(group.column("band"), dtype=np.int64)
        ids = np.asarray(group.column("id"), dtype=np.int64)
        order, starts, _, _, _ = segments(band, ids)
        ii = ids[order]
        ends = np.append(starts[1:], len(order))
        sizes = ends - starts
        if int(sizes.max()) > max_band:
            raise ValueError(
                f"edit_distance_pairs: a band holds {int(sizes.max())} > "
                f"max_band={max_band} strings — too many near-identical "
                "keys for exact pair enumeration"
            )
        a_out: list[np.ndarray] = []
        b_out: list[np.ndarray] = []
        for s, e in zip(starts, ends):  # bounded by max_band, segments
            if e - s < 2:               # with >1 member are rare
                continue
            seg = np.unique(ii[s:e])
            if len(seg) < 2:
                continue
            iu, ju = np.triu_indices(len(seg), k=1)
            a_out.append(seg[iu])
            b_out.append(seg[ju])
        if not a_out:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_out), pa.int64()),
                "b": pa.array(np.concatenate(b_out), pa.int64()),
            }
        )

    pairs = bucketed(
        ds.select_columns([id_column, text_column]), ["band"], n_buckets, bucket_pairs,
        band_rows,
    )
    from fs_schema_validator_ray.stages.agg import scrub_empty_blocks

    cands = scrub_empty_blocks(dedup_pairs_distinct(pairs).materialize())

    import ray
    import ray.data as rd

    if cands.count() == 0:
        return rd.from_arrow(
            pa.schema([("a", pa.int64()), ("b", pa.int64()), ("dist", pa.int64())])
            .empty_table()
        )

    def distinct_ids(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [np.asarray(t.column("a"), np.int64), np.asarray(t.column("b"), np.int64)]
            )
        )
        return pa.table({"id": pa.array(u)})

    id_parts = [
        np.asarray(b.column("id"), dtype=np.int64)
        for b in cands.map_batches(distinct_ids, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    cand_ids = np.unique(np.concatenate(id_parts)) if id_parts else np.empty(0, np.int64)
    lookup = build_string_lookup(ds, text_column, id_column, cand_ids)
    lookup_ref = ray.put(lookup)
    return cands.map_batches(EditDistanceVerifyStage(lookup_ref), batch_format="pyarrow")


def fingerprint64_near_dup_pairs(
    fps,
    key_column: str,
    fp_column: str = "fp",
    max_hamming: int = 3,
    ok_column: str | None = None,
    block_cap: int = 256,
):
    """Generic 64-bit-fingerprint near-dup pairs ``(a, b, hamming)``
    (``a < b``, distinct keys) for ANY modality that reduces an item to
    a 64-bit perceptual hash (audio fingerprints, image pHash, text
    SimHash): band-expand into 4×16-bit LSH blocks (hamming ≤ 3 ⇒ a
    shared block by pigeonhole), ONE coarse-bucketed groupby shuffle of
    ``(key, fp, band, band_key)`` rows, in-bucket sorted segment scan
    with capped+star-linked pair expansion, vectorized XOR popcount
    verify, global pair dedup. Extracted from the audio path
    (``stages/audio_features.py::audio_near_dup_pairs``) so image/audio/
    text fingerprints share one implementation.

    **Recall cap (documented, not silent)**: an LSH block with more than
    ``block_cap`` distinct keys does all-pairs on the first ``block_cap``
    members only and STAR-LINKS the overflow to the block minimum — a
    pair of two overflow members whose ONLY shared block is the capped
    one is missed unless it is transitively reachable (the downstream
    connected-components clustering recovers exactly the star-reachable
    ones). Oversized blocks mean a degenerate band value (e.g. constant
    fingerprint region across the corpus), where all-pairs would be
    O(block²) and is precisely what LSH banding exists to avoid; raise
    ``block_cap`` if full pair recall inside hot blocks matters more
    than bounded work. Truncated blocks are counted per bucket group and
    logged at WARNING level (no-silent-caps convention)."""

    def band_rows(batch: pa.Table) -> pa.Table:
        if ok_column is not None:
            if ok_column not in batch.column_names:
                raise KeyError(
                    f"fingerprint64_near_dup_pairs: ok_column {ok_column!r} "
                    f"not in batch columns {batch.column_names} — a typo "
                    "here would silently admit failed-decode fingerprints"
                )
            batch = batch.filter(batch.column(ok_column))
        fp = np.asarray(batch.column(fp_column), dtype=np.int64).view(np.uint64)
        ids = batch.column(key_column).combine_chunks()
        n = len(fp)
        bands = np.repeat(np.arange(4, dtype=np.int32), n)
        keys = np.empty(4 * n, dtype=np.int32)
        for blk in range(4):
            keys[blk * n : (blk + 1) * n] = (
                (fp >> np.uint64(16 * blk)) & np.uint64(0xFFFF)
            ).astype(np.int32)
        with np.errstate(over="ignore"):
            bucket = mix_to_buckets(
                (bands.astype(np.uint64) << np.uint64(16))
                ^ keys.view(np.uint32).astype(np.uint64),
                256,
            )
        return pa.table(
            {
                key_column: pa.concat_arrays([ids] * 4) if n else ids,
                "sid": pa.array(
                    np.tile(hash64(stable_key_array(ids)), 4).view(np.int64)
                ),
                "fp": pa.array(np.tile(fp, 4).view(np.int64)),
                BUCKET: pa.array(bucket),
                "band": pa.array(bands),
                "band_key": pa.array(keys),
            }
        )

    pair_schema = pa.schema(
        [("a", pa.string()), ("b", pa.string()), ("hamming", pa.int64())]
    )

    def block_pairs(group: pa.Table) -> pa.Table:
        band = np.asarray(group.column("band"), dtype=np.int64)
        bkey = np.asarray(group.column("band_key"), dtype=np.int64)
        sid = np.asarray(group.column("sid"), dtype=np.int64)
        fp = np.asarray(group.column("fp"), dtype=np.int64).view(np.uint64)
        order, a_pos, b_pos, n_truncated = _block_pairs((band, bkey), sid, block_cap)
        fp_s = fp[order]
        if n_truncated:
            import logging

            logging.getLogger(__name__).warning(
                "fingerprint64_near_dup_pairs: %d LSH block(s) exceeded "
                "block_cap=%d in this bucket; overflow members star-linked "
                "to the block min (pairs among overflow members may be "
                "missed — see docstring)",
                n_truncated,
                block_cap,
            )
        if not len(a_pos):
            return pair_schema.empty_table()
        ham = popcount64(fp_s[a_pos] ^ fp_s[b_pos])
        ok = ham <= max_hamming
        a_pos, b_pos, ham = a_pos[ok], b_pos[ok], ham[ok]
        ids_col = group.column(key_column).combine_chunks().take(pa.array(order))
        a_ids = ids_col.take(pa.array(a_pos, pa.int64()))
        b_ids = ids_col.take(pa.array(b_pos, pa.int64()))
        flip = pc.greater(a_ids, b_ids)
        lo = pc.if_else(flip, b_ids, a_ids)
        hi = pc.if_else(flip, a_ids, b_ids)
        return pa.table({"a": lo, "b": hi, "hamming": pa.array(ham)})

    allp = map_buckets(fps.map_batches(band_rows, batch_format="pyarrow"), block_pairs)
    return dedup_pairs_distinct(allp, agg=[("hamming", "min")])


# --- exact long-substring duplicate spans ------------------------------------
#
# The "dedup training data by exact substring" shape (Lee et al. 2022,
# public): near-identical documents often share long VERBATIM spans that
# token/shingle-set Jaccard underweights. Every document emits rolling
# Karp-Rabin hashes of its ``min_len``-char windows, SAMPLED content-
# keyed (keep windows whose mixed hash % stride == 0 — selection depends
# only on the window BYTES, so a span shared by two documents selects
# the same windows in both). One bucketed shuffle groups identical
# windows across documents; candidate pairs are verified and maximally
# EXTENDED against the real texts (broadcast lookup of candidate ids
# only). Recall: a shared span of length S ≥ min_len survives sampling
# with probability ≈ 1 − (1 − 1/stride)^(S − min_len + 1) — misses decay
# exponentially in the span's slack over min_len (documented bound; the
# planted tests use S ≥ min_len + 4·stride).


_KR_BASE = np.uint64(0x100000001B3)
_KR_BASE_INV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


def _mix64(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        return h ^ (h >> np.uint64(33))


def _window_hashes(data: np.ndarray, L: int) -> np.ndarray:
    """Vectorized Karp-Rabin over all length-L windows of a uint8 array:
    prefix sums of t[j]·B^j (mod 2^64 wraparound), window hash =
    (pref[i+L] − pref[i]) · B^{−i} — B odd ⇒ invertible mod 2^64."""
    n = len(data)
    if n < L:
        return np.zeros(0, np.uint64)
    with np.errstate(over="ignore"):
        powers = np.empty(n, np.uint64)
        powers[0] = 1
        inv_powers = np.empty(n, np.uint64)
        inv_powers[0] = 1
        if n > 1:
            np.multiply.accumulate(
                np.full(n - 1, _KR_BASE, np.uint64), out=powers[1:]
            )
            np.multiply.accumulate(
                np.full(n - 1, _KR_BASE_INV, np.uint64), out=inv_powers[1:]
            )
        terms = data.astype(np.uint64) * powers
        pref = np.concatenate([np.zeros(1, np.uint64), np.cumsum(terms)])
        raw = (pref[L:] - pref[: n - L + 1]) * inv_powers[: n - L + 1]
    return _mix64(raw)


class _SubstringWindowStage:
    """(doc_id, text) batch → (h, doc, pos) rows for the content-keyed
    sampled windows (hash/state vectorized per document)."""

    def __init__(self, text_column, id_column, min_len, stride, n_buckets):
        self.text_column = text_column
        self.id_column = id_column
        self.min_len = min_len
        self.stride = stride
        self.n_buckets = n_buckets

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(self.id_column), dtype=np.int64)
        texts = pc.fill_null(t.column(self.text_column), "").to_pylist()
        out_h, out_d, out_p = [], [], []
        for did, text in zip(ids, texts):
            raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
            h = _window_hashes(raw, self.min_len)
            if not len(h):
                continue
            keep = (h % np.uint64(self.stride)) == 0
            pos = np.flatnonzero(keep)
            if not len(pos):
                continue
            out_h.append(h[pos])
            out_d.append(np.full(len(pos), did, np.int64))
            out_p.append(pos.astype(np.int64))
        if not out_h:
            return pa.table(
                {
                    "__bucket": pa.array([], pa.int32()),
                    "h": pa.array([], pa.uint64()),
                    "doc": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                }
            )
        h = np.concatenate(out_h)
        return pa.table(
            {
                "__bucket": pa.array(mix_to_buckets(h, self.n_buckets)),
                "h": pa.array(h, pa.uint64()),
                "doc": pa.array(np.concatenate(out_d)),
                "pos": pa.array(np.concatenate(out_p)),
            }
        )


def _extend_span(sa: bytes, i0: int, sb: bytes, j0: int, min_len: int):
    """Verify a candidate window match and extend it maximally left and
    right. Returns ``(a_start, b_start, length)`` or ``None`` on a hash
    collision (window bytes differ). Shared by the broadcast and the
    co-partitioned verify paths so the two are byte-identical."""
    if sa[i0 : i0 + min_len] != sb[j0 : j0 + min_len]:
        return None
    i, j = i0, j0
    while i > 0 and j > 0 and sa[i - 1] == sb[j - 1]:
        i -= 1
        j -= 1
    ie, je = i0 + min_len, j0 + min_len
    while ie < len(sa) and je < len(sb) and sa[ie] == sb[je]:
        ie += 1
        je += 1
    return i, j, ie - i


def substring_verify_join(
    ds,
    cands,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_len: int = 64,
    n_buckets: int | None = None,
):
    """Co-partitioned exact-substring verify+extend for candidate sets
    too large to broadcast (the 10^12-doc path): no driver text dict, no
    corpus broadcast. Mirrors ``minhash_verify_join``'s two bucketed
    exchanges, both with vectorized group bodies:

    1. bucket exchange on ``doc``: candidate-pair role rows
       ``(doc, a, a_pos, b, b_pos, side)`` meet the corpus' ``(doc,
       text)`` rows; a sorted ``searchsorted`` join attaches each doc's
       text to its role rows (Arrow ``take``). Docs without candidates
       emit nothing.
    2. bucket exchange on ``(a, b)``: the two sides of each candidate meet;
       every candidate window of a pair lands in the SAME group, so the
       maximal verified span per ``(a, b)`` is final within the group —
       no third exchange. The extend loop is per-candidate (inherently
       sequential byte comparison, same as the broadcast path).

    Output schema and spans are byte-identical to the broadcast verify
    (pytest forced-switch parity gate)."""
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def roles(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("a"), dtype=np.int64)
        b = np.asarray(t.column("b"), dtype=np.int64)
        ap = np.asarray(t.column("a_pos"), dtype=np.int64)
        bp = np.asarray(t.column("b_pos"), dtype=np.int64)
        doc = np.concatenate([a, b])
        n = len(a)
        return pa.table(
            {
                "doc": pa.array(doc),
                "a": pa.array(np.concatenate([a, a])),
                "a_pos": pa.array(np.concatenate([ap, ap])),
                "b": pa.array(np.concatenate([b, b])),
                "b_pos": pa.array(np.concatenate([bp, bp])),
                "side": pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
                ),
                "text": pa.nulls(2 * n, pa.large_string()),
            }
        )

    def texts(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_column), dtype=np.int64)
        return pa.table(
            {
                "doc": pa.array(ids),
                "a": pa.nulls(len(ids), pa.int64()),
                "a_pos": pa.nulls(len(ids), pa.int64()),
                "b": pa.nulls(len(ids), pa.int64()),
                "b_pos": pa.nulls(len(ids), pa.int64()),
                "side": pa.nulls(len(ids), pa.int8()),
                "text": pc.cast(
                    pc.fill_null(t.column(text_column), ""), pa.large_string()
                ),
            }
        )

    role_rows = route(cands, ["doc"], n_buckets, roles)
    text_rows = route(ds.select_columns([id_column, text_column]), ["doc"], n_buckets, texts)

    def attach(group: pa.Table) -> pa.Table:
        return _attach_payload(group, "text", n_buckets)

    per_pair = map_buckets(role_rows.union(text_rows), attach, n_buckets)

    out_schema = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("a_start", pa.int64()),
            ("b_start", pa.int64()),
            ("length", pa.int64()),
        ]
    )

    def verify(group: pa.Table) -> pa.Table:
        a = np.asarray(group.column("a"), dtype=np.int64)
        b = np.asarray(group.column("b"), dtype=np.int64)
        ap = np.asarray(group.column("a_pos"), dtype=np.int64)
        bp = np.asarray(group.column("b_pos"), dtype=np.int64)
        side = np.asarray(group.column("side"), dtype=np.int8)
        order, starts, _, _, _ = segments((a, b, ap, bp), side)
        a, b, ap, bp, side = a[order], b[order], ap[order], bp[order], side[order]
        text_col = group.column("text").take(pa.array(order, pa.int64()))
        ends = np.append(starts[1:], len(a))
        # complete candidates: both sides' texts found in the corpus
        ok = (ends - starts == 2) & (side[starts] != side[ends - 1])
        starts = starts[ok]
        best: dict[tuple[int, int], tuple[int, int, int]] = {}
        enc_cache: dict[int, bytes] = {}

        def enc(doc: int, s) -> bytes:
            v = enc_cache.get(doc)
            if v is None:
                v = s.as_py().encode("utf-8", "surrogatepass")
                enc_cache[doc] = v
            return v

        for s in starts:
            sa = enc(int(a[s]), text_col[s])
            sb = enc(int(b[s]), text_col[s + 1])
            span = _extend_span(sa, int(ap[s]), sb, int(bp[s]), min_len)
            if span is None:
                continue
            key = (int(a[s]), int(b[s]))
            cur = best.get(key)
            if cur is None or (span[2], -span[0], -span[1]) > (
                cur[2], -cur[0], -cur[1]
            ):  # longest wins; ties -> smallest (a_start, b_start)
                best[key] = span
        return pa.table(
            {
                "a": pa.array([k[0] for k in best], pa.int64()),
                "b": pa.array([k[1] for k in best], pa.int64()),
                "a_start": pa.array([v[0] for v in best.values()], pa.int64()),
                "b_start": pa.array([v[1] for v in best.values()], pa.int64()),
                "length": pa.array([v[2] for v in best.values()], pa.int64()),
            },
            schema=out_schema,
        )

    return map_buckets(per_pair, verify, n_buckets)


def substring_dup_pairs(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_len: int = 64,
    stride: int = 8,
    max_docs_per_window: int = 8,
    n_buckets: int | None = None,
    max_broadcast_docs: int = 500_000,
):
    """Exact shared-substring spans ≥ ``min_len`` chars → Dataset of
    ``(a, b, a_start, b_start, length)`` — the maximal verified span per
    document pair (a < b). ``max_docs_per_window`` caps the per-window
    pair fan-out (a boilerplate window shared by thousands of docs pairs
    each doc with the ``cap`` smallest ids instead of quadratically —
    cluster transitivity recovers the rest, same convention as the
    fingerprint banding cap ★ dedup.py banding notes)."""
    import ray

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    ds = ds.select_columns([id_column, text_column])
    rows = ds.map_batches(
        _SubstringWindowStage(text_column, id_column, min_len, stride, n_buckets),
        batch_format="pyarrow",
    )

    def bucket_pairs(g: pa.Table) -> pa.Table:
        h = np.asarray(g.column("h"), dtype=np.uint64)
        doc = np.asarray(g.column("doc"), dtype=np.int64)
        pos = np.asarray(g.column("pos"), dtype=np.int64)
        order, starts, _, _, _ = segments(h, doc, pos)
        doc, pos = doc[order], pos[order]
        a_out, b_out, pa_out, pb_out = [], [], [], []
        ends = np.append(starts[1:], len(order))
        for s, e in zip(starts, ends):
            d = doc[s:e]
            p = pos[s:e]
            first = np.concatenate([[True], d[1:] != d[:-1]])
            docs = d[first]
            dpos = p[first]  # first (smallest) pos per doc for this window
            if len(docs) < 2:
                continue
            anchors = docs[: max_docs_per_window]
            apos = dpos[: max_docs_per_window]
            for i in range(len(anchors)):
                for j in range(i + 1, len(docs)):
                    if j >= len(anchors) and i > 0:
                        break  # capped: only the smallest id pairs beyond cap
                    a_out.append(anchors[i])
                    pa_out.append(apos[i])
                    b_out.append(docs[j])
                    pb_out.append(dpos[j])
        return pa.table(
            {
                "a": pa.array(np.asarray(a_out, np.int64)),
                "a_pos": pa.array(np.asarray(pa_out, np.int64)),
                "b": pa.array(np.asarray(b_out, np.int64)),
                "b_pos": pa.array(np.asarray(pb_out, np.int64)),
            }
        )

    cands = map_buckets(rows, bucket_pairs).materialize()
    if cands.count() == 0:
        import ray.data as _rd

        return _rd.from_arrow(
            pa.schema(
                [
                    ("a", pa.int64()), ("b", pa.int64()),
                    ("a_start", pa.int64()), ("b_start", pa.int64()),
                    ("length", pa.int64()),
                ]
            ).empty_table()
        )

    # Verify-path switchover (same convention as minhash_near_dup_pairs):
    # a bounded candidate-doc set broadcasts a {id: text} lookup; beyond
    # ``max_broadcast_docs`` distinct candidate docs the verify runs as
    # the fully distributed co-partitioned join (substring_verify_join).
    # The distinct COUNT is computed distributed (bucketed over int64
    # ids) so the driver never pulls an unbounded id list just to decide.
    def id_partial(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    np.asarray(t.column("a"), np.int64),
                    np.asarray(t.column("b"), np.int64),
                ]
            )
        ) if t.num_rows else np.zeros(0, np.int64)
        return pa.table({"doc": pa.array(u)})

    from fs_schema_validator_ray.stages.agg import group_sum

    ids_ds = cands.map_batches(id_partial, batch_format="pyarrow")
    n_cand = group_sum(ids_ds, ["doc"], [], n_buckets=n_buckets).count()
    if n_cand > max_broadcast_docs:
        return substring_verify_join(
            ds, cands, text_column, id_column, min_len, n_buckets
        )
    cand_ids = np.unique(np.asarray(ids_ds.to_pandas()["doc"]))

    def text_partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_column), dtype=np.int64)
        keep = np.isin(ids, cand_ids)
        return pa.table(
            {
                "doc": pa.array(ids[keep]),
                "text": pc.fill_null(t.column(text_column), "").filter(
                    pa.array(keep)
                ),
            }
        )

    texts_df = ds.map_batches(text_partial, batch_format="pyarrow").to_pandas()
    lookup_ref = ray.put(dict(zip(texts_df["doc"], texts_df["text"])))

    def verify(t: pa.Table) -> pa.Table:
        lookup = ray.get(lookup_ref)
        best: dict[tuple[int, int], tuple[int, int, int]] = {}
        for a, ap, b, bp in zip(
            np.asarray(t.column("a"), np.int64),
            np.asarray(t.column("a_pos"), np.int64),
            np.asarray(t.column("b"), np.int64),
            np.asarray(t.column("b_pos"), np.int64),
        ):
            ta = lookup.get(int(a))
            tb = lookup.get(int(b))
            if ta is None or tb is None:
                continue
            span = _extend_span(
                ta.encode("utf-8", "surrogatepass"),
                int(ap),
                tb.encode("utf-8", "surrogatepass"),
                int(bp),
                min_len,
            )
            if span is None:
                continue  # hash collision
            key = (int(a), int(b))
            cur = best.get(key)
            if cur is None or (span[2], -span[0], -span[1]) > (
                cur[2], -cur[0], -cur[1]
            ):  # longest wins; ties -> smallest (a_start, b_start)
                best[key] = span
        return pa.table(
            {
                "a": pa.array([k[0] for k in best], pa.int64()),
                "b": pa.array([k[1] for k in best], pa.int64()),
                "a_start": pa.array([v[0] for v in best.values()], pa.int64()),
                "b_start": pa.array([v[1] for v in best.values()], pa.int64()),
                "length": pa.array([v[2] for v in best.values()], pa.int64()),
            }
        )

    verified = cands.map_batches(verify, batch_format="pyarrow")

    # one best (longest) span per (a, b) across batches: bucketed shuffle
    # keyed on the pair, vectorized per-bucket argmax per pair
    def best_per_pair(g: pa.Table) -> pa.Table:
        a = np.asarray(g.column("a"), np.int64)
        b = np.asarray(g.column("b"), np.int64)
        ln = np.asarray(g.column("length"), np.int64)
        a_st = np.asarray(g.column("a_start"), np.int64)
        b_st = np.asarray(g.column("b_start"), np.int64)
        # longest first; ties -> smallest (a_start, b_start): deterministic
        order, starts, _, _, _ = segments((a, b), -ln, a_st, b_st)
        return g.take(pa.array(order[starts], pa.int64()))

    return bucketed(verified, ["a", "b"], n_buckets, best_per_pair)
