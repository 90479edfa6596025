"""Inverted index / document-frequency / TF-IDF operators over a text
corpus — the vocabulary-building stages of a training-data pipeline
(stopword discovery, df-based vocab pruning, per-doc salient terms).

The reference has no text indexing (it validates schemas); these extend
the engine along the training-data axis with the same shuffle
discipline as the dedup family: tokenization is the oracle-replicable
``lower → split [^a-z0-9]+ → drop ''`` used by the n-gram Jaccard join
(``stages/dedup.py::_distinct_shingle_hashes``), the only all-to-all
exchange carries distinct ``(token, doc_id)`` rows keyed by a 256-way
coarse bucket of the token hash, and every per-bucket/per-batch body is
one lexsort + segment scan (no per-token or per-doc Python).

Scale notes (10¹² docs): the (token, doc_id) exchange is bounded by
distinct tokens per doc, not raw tokens; posting strings for
stopword-grade tokens are unbounded — prune them with ``max_df`` (the
standard vocab-build move). ``tfidf_top_terms`` broadcasts the df table
(one ``ray.put``, vocab-sized — ~10⁷ entries for real corpora, the same
bounded-broadcast regime as the referential manifest); beyond that,
co-partition the flat tf rows with the df table on token buckets
instead (the ``minhash_verify_join`` pattern).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    bucketed,
    default_n_buckets,
    map_buckets,
    segments,
)
from fs_schema_validator_ray.state.sketches import hash64, mix_to_buckets

_TOKEN_SPLIT = r"[^a-z0-9]+"


def _flat_tokens(col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tokenization of a string column → (flat token object
    array, row index per token). Empty tokens dropped; equals DuckDB
    ``list_filter(string_split_regex(lower(text), '[^a-z0-9]+'), x -> x <> '')``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), pattern=_TOKEN_SPLIT)
    flat = toks.values
    counts = np.diff(np.asarray(toks.offsets, dtype=np.int64))
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    if not keep.any():
        return np.empty(0, object), np.empty(0, np.int64)
    return np.asarray(flat, dtype=object)[keep], rows[keep]


def _distinct_doc_tokens(batch: pa.Table, text_column: str, id_column: str):
    """Distinct (token, doc_id) pairs of one batch, vectorized."""
    tok, rows = _flat_tokens(batch.column(text_column))
    if len(tok) == 0:
        return np.empty(0, object), np.empty(0, np.int64)
    ids = np.asarray(batch.column(id_column), dtype=np.int64)[rows]
    uniq, codes = np.unique(tok, return_inverse=True)
    order, starts, _, _, _ = segments((codes, ids))
    first = order[starts]
    return uniq[codes[first]], ids[first]


def _doc_token_counts(batch: pa.Table, text_column: str, id_column: str) -> pa.Table:
    """Per-doc distinct ``(doc_id, token, k)`` token-count rows of one
    batch, vectorized (one sort + run-length count)."""
    flat, rows = _flat_tokens(batch.column(text_column))
    ids_col = batch.column(id_column).combine_chunks()
    if not len(flat):
        return pa.table(
            {
                id_column: ids_col.slice(0, 0),
                "token": pa.array([], pa.string()),
                "k": pa.array([], pa.int64()),
            }
        )
    uniq, codes = np.unique(flat, return_inverse=True)
    order, starts, _, _, row_end = segments((rows, codes))
    first = order[starts]
    return pa.table(
        {
            id_column: ids_col.take(pa.array(rows[first], pa.int64())),
            "token": pa.array(uniq[codes[first]], pa.string()),
            "k": pa.array(row_end[starts] - starts, pa.int64()),
        }
    )


_INDEX_SCHEMA = pa.schema(
    [("token", pa.string()), ("df", pa.int64()), ("postings", pa.string())]
)


def inverted_index(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_df: int = 1,
    max_df: int | None = None,
    n_buckets: int | None = None,
):
    """token → (document frequency, comma-joined ascending doc-id
    postings). ``min_df``/``max_df`` prune rare/stopword tokens — at
    corpus scale ``max_df`` is what keeps posting rows bounded."""
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def flat(batch: pa.Table) -> pa.Table:
        tok, ids = _distinct_doc_tokens(batch, text_column, id_column)
        return pa.table({"token": pa.array(tok, pa.string()), "doc_id": pa.array(ids, pa.int64())})

    def merge_bucket(group: pa.Table) -> pa.Table:
        tok = np.asarray(group.column("token"), dtype=object)
        ids = np.asarray(group.column("doc_id"), dtype=np.int64)
        uniq, codes = np.unique(tok, return_inverse=True)
        # re-dedup across batches (duplicate doc_id rows would double-count df)
        order, first, _, _, _ = segments((codes, ids))
        c_s, i_s = codes[order[first]], ids[order[first]]
        # c_s is sorted: this second scan only cuts the token runs
        _, seg_starts, _, _, seg_end = segments(c_s)
        df = (seg_end[seg_starts] - seg_starts).astype(np.int64)
        tokens_out = uniq[c_s[seg_starts]]
        keep = df >= min_df
        if max_df is not None:
            keep &= df <= max_df
        if not keep.all():
            # segments are contiguous runs → mask by repeating keep per run
            i_s = i_s[np.repeat(keep, df)]
            df, tokens_out = df[keep], tokens_out[keep]
        # int64 offsets + LargeList: a bucket's flat postings can pass
        # 2^31 entries at corpus scale — int32 offsets would wrap silently
        offsets = np.concatenate([[0], np.cumsum(df)]).astype(np.int64)
        postings = pc.binary_join(
            pa.LargeListArray.from_arrays(
                pa.array(offsets), pc.cast(pa.array(i_s), pa.string())
            ),
            ",",
        )
        if postings.type != pa.string():
            postings = pc.cast(postings, pa.string())
        return pa.table(
            {
                "token": pa.array(tokens_out, pa.string()),
                "df": pa.array(df),
                "postings": postings,
            }
        )

    return bucketed(
        ds.select_columns([id_column, text_column]), ["token"], n_buckets, merge_bucket, flat
    )


def token_document_frequencies(ds, text_column: str = "text", id_column: str = "doc_id"):
    """(token, df) Dataset — the vocab/df table. Same plan as
    ``inverted_index`` minus the posting strings (what you actually ship
    at corpus scale)."""
    from fs_schema_validator_ray.stages.agg import group_sum

    def flat(batch: pa.Table) -> pa.Table:
        tok, _ids = _distinct_doc_tokens(batch, text_column, id_column)
        return pa.table({"token": pa.array(tok, pa.string())})

    flat_ds = ds.select_columns([id_column, text_column]).map_batches(
        flat, batch_format="pyarrow"
    )
    # distinct (token, doc) per batch (docs never split across batches)
    # → per-token row count IS the document frequency
    out = group_sum(flat_ds, ["token"], [])
    return out.map_batches(
        lambda t: pa.table({"token": t.column("token"), "df": t.column("n")}),
        batch_format="pyarrow",
    )


_TFIDF_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("token", pa.string()),
        ("tf", pa.int64()),
        ("df", pa.int64()),
        ("score", pa.float64()),
        ("rank", pa.int64()),
    ]
)


class TfidfTopTermsStage:
    """``map_batches`` callable: per-doc top-k tokens by tf·idf with
    ``idf = n_docs / df`` (reciprocal document frequency — IEEE division
    is correctly rounded, so the score is bit-exact across engines and
    oracle-checkable; a log idf is a one-line swap that any two libms
    may disagree on in the last ulp). Ties break on token ascending.

    The df table arrives as ONE broadcast ``ray.put`` of (sorted token
    array, df array) — resolved once per worker, vectorized searchsorted
    probe per batch."""

    def __init__(self, df_ref, n_docs: int, k: int = 3,
                 text_column: str = "text", id_column: str = "doc_id",
                 on_missing: str = "error") -> None:
        if on_missing not in ("error", "drop"):
            raise ValueError("on_missing must be 'error' or 'drop'")
        self.df_ref = df_ref
        self.n_docs = int(n_docs)
        self.k = int(k)
        self.text_column = text_column
        self.id_column = id_column
        self.on_missing = on_missing
        self._lookup = None

    def _resolve(self):
        if self._lookup is None:
            import ray

            self._lookup = ray.get(self.df_ref)
        return self._lookup

    def __call__(self, batch: pa.Table) -> pa.Table:
        vocab, vocab_df = self._resolve()
        tok, rows = _flat_tokens(batch.column(self.text_column))
        if len(tok) == 0:
            return _TFIDF_SCHEMA.empty_table()
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        uniq, codes = np.unique(tok, return_inverse=True)
        order, starts, _, _, row_end = segments((rows, codes))
        tf = (row_end[starts] - starts).astype(np.int64)
        r_u, c_u = rows[order[starts]], codes[order[starts]]
        # vocab miss policy: the df table is built from the SAME corpus,
        # so a miss means a stale/pruned vocab. 'error' fails loudly;
        # 'drop' skips the token (the right semantics for a max_df-pruned
        # vocab — never score a pruned stopword at phantom max idf).
        if len(vocab):
            pos = np.minimum(np.searchsorted(vocab, uniq), len(vocab) - 1)
            found = vocab[pos] == uniq
            per_uniq_df = np.where(found, vocab_df[pos], 1).astype(np.int64)
        else:
            found = np.zeros(len(uniq), bool)
            per_uniq_df = np.ones(len(uniq), np.int64)
        if not found.all():
            if self.on_missing == "error":
                missing = uniq[~found][:5].tolist()
                raise KeyError(
                    f"tokens missing from the broadcast df table: {missing} "
                    "(stale vocab? pass on_missing='drop' for pruned vocabs)"
                )
            keep_pair = found[c_u]
            r_u, c_u, tf = r_u[keep_pair], c_u[keep_pair], tf[keep_pair]
            if len(r_u) == 0:
                return _TFIDF_SCHEMA.empty_table()
        df = per_uniq_df[c_u]
        score = (tf * self.n_docs).astype(np.float64) / df
        # top-k per doc: (doc asc, score desc, token asc) — np.unique
        # codes are lexicographic, so c_u ascending == token ascending
        o2, _, _, doc_start, _ = segments(r_u, -score, c_u)
        rank = (np.arange(len(o2)) - doc_start + 1).astype(np.int64)
        keep = rank <= self.k
        sel = o2[keep]
        return pa.table(
            {
                "doc_id": pa.array(ids[r_u[sel]], pa.int64()),
                "token": pa.array(uniq[c_u[sel]], pa.string()),
                "tf": pa.array(tf[sel]),
                "df": pa.array(df[sel]),
                "score": pa.array(score[sel], pa.float64()),
                "rank": pa.array(rank[keep]),
            }
        )


def tfidf_top_terms(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 3,
    n_docs: int | None = None,
):
    """Per-doc top-k salient tokens by tf·idf. One df pass + one scoring
    pass; the df table broadcasts once (vocab-sized, see module
    docstring for the beyond-vocab co-partitioned alternative)."""
    import ray

    if n_docs is None:
        n_docs = ds.count()
    df_parts = [
        b
        for b in token_document_frequencies(ds, text_column, id_column).iter_batches(
            batch_format="pyarrow"
        )
    ]
    if df_parts:
        df_tbl = pa.concat_tables(df_parts)
        vocab = np.asarray(df_tbl.column("token"), dtype=object)
        dfs = np.asarray(df_tbl.column("df"), dtype=np.int64)
        o = np.argsort(vocab)
        vocab, dfs = vocab[o], dfs[o]
    else:
        vocab, dfs = np.empty(0, object), np.empty(0, np.int64)
    df_ref = ray.put((vocab, dfs))
    return ds.select_columns([id_column, text_column]).map_batches(
        TfidfTopTermsStage(df_ref, n_docs, k, text_column, id_column),
        batch_format="pyarrow",
    )


# --- BM25 term contributions -------------------------------------------------

_BM25_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("token", pa.string()),
        ("tf", pa.int64()),
        ("dl", pa.int64()),
        ("df", pa.int64()),
        ("score6", pa.float64()),
    ]
)


def corpus_query_stats(
    ds, query_tokens: list[str], text_column: str = "text", id_column: str = "doc_id"
) -> tuple[int, int, dict[str, int]]:
    """One pruned pass → ``(n_docs, total_tokens, {query token: df})``.
    Per-batch partials are a handful of integers (len(query_tokens)+2);
    the driver folds them — no shuffle, no driver-side corpus."""
    qt = sorted(set(query_tokens))

    def partial(batch: pa.Table) -> pa.Table:
        tok, rows = _flat_tokens(batch.column(text_column))
        dfs = np.zeros(len(qt), dtype=np.int64)
        if len(tok):
            tok_pa = pa.array(tok, pa.string())
            for i, q in enumerate(qt):
                m = np.asarray(pc.equal(tok_pa, q).fill_null(False))
                dfs[i] = len(np.unique(rows[m]))
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "total_tokens": pa.array([len(tok)], pa.int64()),
                **{f"df_{i}": pa.array([int(dfs[i])]) for i in range(len(qt))},
            }
        )

    n_docs = total = 0
    dfs = np.zeros(len(qt), dtype=np.int64)
    proj = ds.select_columns([id_column, text_column]).map_batches(
        partial, batch_format="pyarrow"
    )
    for b in proj.iter_batches(batch_format="pyarrow"):
        n_docs += int(pc.sum(b.column("n_docs")).as_py() or 0)
        total += int(pc.sum(b.column("total_tokens")).as_py() or 0)
        for i in range(len(qt)):
            dfs[i] += int(pc.sum(b.column(f"df_{i}")).as_py() or 0)
    return n_docs, total, dict(zip(qt, (int(x) for x in dfs)))


class Bm25ContribStage:
    """``map_batches`` callable: one output row per (document, matched
    query token) with the exact integers ``tf`` (term count in doc),
    ``dl`` (doc token count), ``df``, plus the BM25 term contribution
    ``score6 = round(idf · tf·(k1+1)/(tf + k1·(1−b + b·dl·N/total)), 6)``.

    ``idf = ln(1 + (N − df + ½)/(df + ½))`` is computed ONCE PER TOKEN on
    the driver with ``math.log`` (libm — the same code path as the SQL
    oracle's ``LN``), so the only float ops per row are the same
    multiply/divide expression both engines evaluate over exact integers
    — hash-exact after round-6. Summing contributions per doc ranks
    documents; that sum is float-order-dependent, so the oracle-checked
    surface is the per-term table and ranking is tested engine-side."""

    def __init__(
        self,
        stats: tuple[int, int, dict[str, int]],
        k1: float = 1.2,
        b: float = 0.75,
        text_column: str = "text",
        id_column: str = "doc_id",
    ) -> None:
        import math

        n_docs, total_tokens, df_map = stats
        self.n_docs = int(n_docs)
        self.total_tokens = int(total_tokens)
        self.k1 = float(k1)
        self.b = float(b)
        self.tokens = sorted(df_map)
        self.dfs = {t: int(df_map[t]) for t in self.tokens}
        self.idf = {
            t: math.log(1.0 + (self.n_docs - d + 0.5) / (d + 0.5))
            for t, d in self.dfs.items()
        }
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        tok, rows = _flat_tokens(batch.column(self.text_column))
        n_rows = batch.num_rows
        dl = np.bincount(rows, minlength=n_rows).astype(np.int64) if len(tok) else np.zeros(n_rows, np.int64)
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)
        parts = []
        tok_pa = pa.array(tok, pa.string()) if len(tok) else None
        for q in self.tokens:
            if tok_pa is None:
                continue
            m = np.asarray(pc.equal(tok_pa, q).fill_null(False))
            tf = np.bincount(rows[m], minlength=n_rows).astype(np.int64)
            hit = np.flatnonzero(tf > 0)
            if not len(hit):
                continue
            tfs = tf[hit].astype(np.float64)
            dls = dl[hit].astype(np.float64)
            # identical association to the SQL oracle expression
            norm = (tfs * (self.k1 + 1.0)) / (
                tfs
                + self.k1
                * (
                    (1.0 - self.b)
                    + self.b * dls * float(self.n_docs) / float(self.total_tokens)
                )
            )
            score = np.round(self.idf[q] * norm, 6)
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(ids[hit]),
                        "token": pa.array([q] * len(hit), pa.string()),
                        "tf": pa.array(tf[hit]),
                        "dl": pa.array(dl[hit]),
                        "df": pa.array(
                            np.full(len(hit), self.dfs[q], dtype=np.int64)
                        ),
                        "score6": pa.array(score),
                    }
                )
            )
        if not parts:
            return _BM25_SCHEMA.empty_table()
        return pa.concat_tables(parts)


def bm25_contributions(
    ds,
    query_tokens: list[str],
    text_column: str = "text",
    id_column: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
):
    """Distributed BM25 scoring against a fixed query-token set: one
    stats pass (integers to the driver), one stateless contribution pass.
    Returns a Dataset of per-(doc, token) contributions; per-doc totals
    are one tiny ``group_sum`` away (float sum — rank engine-side)."""
    stats = corpus_query_stats(ds, query_tokens, text_column, id_column)
    return ds.select_columns([id_column, text_column]).map_batches(
        Bm25ContribStage(stats, k1, b, text_column, id_column),
        batch_format="pyarrow",
    )


def corpus_token_counts(ds, text_column: str = "text", id_column: str = "doc_id"):
    """Global term-frequency table ``(token, cnt)`` — per-batch Arrow
    ``value_counts`` partials, token-bucketed merge
    (``group_sum``). The unigram-LM fit pass."""
    from fs_schema_validator_ray.stages.agg import group_sum

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_tokens(batch.column(text_column))
        if not len(flat):
            return pa.table(
                {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        vc = pc.value_counts(pa.array(flat, pa.string()))
        return pa.table(
            {"token": vc.field("values"), "cnt": pc.cast(vc.field("counts"), pa.int64())}
        )

    return group_sum(
        ds.select_columns([text_column]).map_batches(partial, batch_format="pyarrow"),
        ["token"],
        ["cnt"],
    )


class UnigramScoreStage:
    """map_batches callable: mean token log-probability per document
    under the broadcast unigram model — ``pc.index_in`` against the
    vocab (one vectorized kernel, resolved once per actor), segment
    sums over the flat token stream. Docs with zero tokens emit no row
    (SQL inner-join semantics vs the token CTE)."""

    def __init__(self, model_ref, text_column="text", id_column="doc_id") -> None:
        self.model_ref = model_ref
        self.text_column = text_column
        self.id_column = id_column
        self._model = None

    def _resolve(self):
        if self._model is None:
            import ray

            obj = self.model_ref
            self._model = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._model

    def __call__(self, batch: pa.Table) -> pa.Table:
        vocab, counts, total = self._resolve()
        ids = batch.column(self.id_column).combine_chunks()
        flat, rows = _flat_tokens(batch.column(self.text_column))
        if not len(flat):
            return pa.table(
                {
                    self.id_column: ids.slice(0, 0),
                    "logprob": pa.array([], pa.float64()),
                }
            )
        pos = pc.index_in(pa.array(flat, pa.string()), value_set=vocab)
        # self-trained vocab: every corpus token is present; OOV (scoring
        # NEW text against a fitted model, or an empty model) falls back
        # to add-one mass
        pos_np = np.asarray(pos.fill_null(-1), dtype=np.int64)
        if len(counts):
            cnt = np.where(pos_np >= 0, counts[np.clip(pos_np, 0, None)], 0.0)
        else:
            cnt = np.zeros(len(pos_np))
        logp = np.full(len(cnt), np.log(1.0 / (total + 1.0)))
        hit = cnt > 0
        logp[hit] = np.log(cnt[hit] / total)
        n_docs = batch.num_rows
        sums = np.zeros(n_docs, np.float64)
        np.add.at(sums, rows, logp)
        ntok = np.bincount(rows, minlength=n_docs)
        keep = ntok > 0
        return pa.table(
            {
                self.id_column: ids.take(
                    pa.array(np.flatnonzero(keep), pa.int64())
                ),
                "logprob": pa.array(sums[keep] / ntok[keep], pa.float64()),
            }
        )


def unigram_logprob(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    max_broadcast_vocab: int | None = None,
):
    """Corpus-statistics language-model scoring (the cheap perplexity
    proxy a quality-filter pipeline runs): FIT a unigram model from one
    token-count pass over the corpus, broadcast the vocab once
    (``ray.put``; ~10⁷ entries at real-corpus scale, same budget as the
    TF-IDF vocab), then score every document's mean token
    log-probability in one more streaming pass. Two corpus reads total;
    nothing driver-side except the vocab table.

    ``max_broadcast_vocab``: when set and the fitted vocabulary exceeds
    it, the scorer SWITCHES to the fully distributed co-partitioned path
    (:func:`unigram_logprob_copartitioned`) — the count table stays in
    the object store and per-doc token counts hash-join it on token
    buckets; no vocab ever lands on the driver or in one broadcast blob.
    Parity between the two paths is pytest-gated."""
    import ray

    if max_broadcast_vocab is not None:
        counts_ds = corpus_token_counts(ds, text_column, id_column).materialize()
        if counts_ds.count() > max_broadcast_vocab:
            return unigram_logprob_copartitioned(
                ds, counts_ds, text_column, id_column
            )
        cnt_source = counts_ds
    else:
        cnt_source = corpus_token_counts(ds, text_column, id_column)
    cnt_blocks = [
        b
        for b in cnt_source.iter_batches(batch_format="pyarrow")
        if b.num_columns
    ]
    if cnt_blocks:
        tbl = pa.concat_tables(
            [b.select(["token", "cnt"]) for b in cnt_blocks]
        ).combine_chunks()
        vocab = tbl.column("token").combine_chunks()
        counts = np.asarray(tbl.column("cnt"), dtype=np.float64)
        total = float(counts.sum())
    else:
        vocab = pa.array([], pa.string())
        counts, total = np.zeros(0), 0.0
    model_ref = ray.put((vocab, counts, total))
    return ds.select_columns([id_column, text_column]).map_batches(
        UnigramScoreStage(model_ref, text_column, id_column),
        batch_format="pyarrow",
    )


def unigram_logprob_copartitioned(
    ds,
    counts_ds=None,
    text_column: str = "text",
    id_column: str = "doc_id",
):
    """Fully distributed unigram scoring — the documented at-scale
    switchover when the vocabulary is too large to broadcast (mirrors
    the MinHash verify join's broadcast→co-partition switch):

    1. the fitted ``(token, cnt)`` table stays a MATERIALIZED Dataset in
       the object store (vocab-sized — bounded, ≪ corpus; pass
       ``counts_ds`` to reuse an existing fit),
    2. corpus total = one tiny partial-sum pass over that table,
    3. per-doc distinct ``(doc_id, token, k)`` count rows hash-join the
       count table ON TOKEN (both sides large — ``hash_join``'s bucketed
       exchange), so each row picks up its corpus frequency without any
       driver or broadcast state,
    4. per-doc ``Σ k·ln(cnt/total) / Σ k`` via per-batch float partials
       + one bucketed doc-id merge.

    Same result as the broadcast path (pytest parity gate; float sums
    may differ in the last ulp — compare with tolerance, or through the
    ROUND(·,6) oracle protocol)."""
    from fs_schema_validator_ray.stages.joins import hash_join

    if counts_ds is None:
        counts_ds = corpus_token_counts(ds, text_column, id_column).materialize()

    def total_partial(t: pa.Table) -> pa.Table:
        s = pc.sum(t.column("cnt")).as_py() or 0
        return pa.table({"s": pa.array([int(s)], pa.int64())})

    total = float(
        sum(
            int(b.column("s")[i].as_py())
            for b in counts_ds.select_columns(["cnt"])
            .map_batches(total_partial, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
            for i in range(b.num_rows)
        )
    )

    def doc_token_counts(batch: pa.Table) -> pa.Table:
        return _doc_token_counts(batch, text_column, id_column)

    tok = ds.select_columns([id_column, text_column]).map_batches(
        doc_token_counts, batch_format="pyarrow"
    )
    joined = hash_join(
        tok, counts_ds.select_columns(["token", "cnt"]),
        "token", "token", [id_column, "k"], ["cnt"],
    )

    n_buckets = default_n_buckets(ds)

    def score_partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_column).combine_chunks()
        k = np.asarray(t.column("k"), dtype=np.float64)
        cnt = np.asarray(t.column("cnt"), dtype=np.float64)
        w = k * np.log(cnt / total)
        g = pa.table(
            {id_column: ids, "sw": pa.array(w), "sk": pa.array(k)}
        )
        agg = pa.TableGroupBy(g, [id_column]).aggregate([("sw", "sum"), ("sk", "sum")])
        return agg.rename_columns([id_column, "sw", "sk"])

    def merge_docs(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, [id_column]).aggregate(
            [("sw", "sum"), ("sk", "sum")]
        )
        sw = np.asarray(agg.column("sw_sum"), dtype=np.float64)
        sk = np.asarray(agg.column("sk_sum"), dtype=np.float64)
        return pa.table(
            {
                id_column: agg.column(id_column),
                "logprob": pa.array(sw / np.maximum(sk, 1.0)),
            }
        )

    return bucketed(joined, [id_column], n_buckets, merge_docs, score_partial)


# --- bigram language model ---------------------------------------------------

_BIGRAM_SEP = "\x1f"


def corpus_bigram_counts(ds, text_column: str = "text"):
    """Global bigram-frequency table ``(bigram, cnt)`` with the two
    tokens packed as ``w1\\x1fw2`` — per-batch ``value_counts`` partials
    over ADJACENT same-document token pairs, token-bucketed merge
    (the same combiner discipline as :func:`corpus_token_counts`)."""
    from fs_schema_validator_ray.stages.agg import group_sum

    def partial(batch: pa.Table) -> pa.Table:
        flat, rows = _flat_tokens(batch.column(text_column))
        if len(flat) >= 2:
            same = rows[1:] == rows[:-1]
        else:
            same = np.zeros(0, bool)
        if not same.any():
            return pa.table(
                {"bigram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        packed = pc.binary_join_element_wise(
            pa.array(flat[:-1][same], pa.string()),
            pa.array(flat[1:][same], pa.string()),
            _BIGRAM_SEP,
        )
        vc = pc.value_counts(packed)
        return pa.table(
            {"bigram": vc.field("values"), "cnt": pc.cast(vc.field("counts"), pa.int64())}
        )

    return group_sum(
        ds.select_columns([text_column]).map_batches(partial, batch_format="pyarrow"),
        ["bigram"],
        ["cnt"],
    )


class BigramScoreStage:
    """map_batches callable: mean conditional log-probability
    ``ln P(w_i | w_{i-1})`` per document under the broadcast bigram
    model — two ``pc.index_in`` kernels (bigram table + context table,
    resolved once per actor), segment sums over the flat bigram stream.
    Documents with fewer than two tokens emit no row (no bigram exists —
    SQL inner-join semantics vs the bigram CTE)."""

    def __init__(self, model_ref, text_column="text", id_column="doc_id") -> None:
        self.model_ref = model_ref
        self.text_column = text_column
        self.id_column = id_column
        self._model = None

    def _resolve(self):
        if self._model is None:
            import ray

            obj = self.model_ref
            self._model = ray.get(obj) if hasattr(obj, "hex") else obj
        return self._model

    def __call__(self, batch: pa.Table) -> pa.Table:
        bigrams, b_counts, ctx_vocab, ctx_counts = self._resolve()
        ids = batch.column(self.id_column).combine_chunks()
        flat, rows = _flat_tokens(batch.column(self.text_column))
        empty = pa.table(
            {self.id_column: ids.slice(0, 0), "logprob": pa.array([], pa.float64())}
        )
        if len(flat) < 2:
            return empty
        same = rows[1:] == rows[:-1]
        if not same.any():
            return empty
        w1 = pa.array(flat[:-1][same], pa.string())
        packed = pc.binary_join_element_wise(
            w1, pa.array(flat[1:][same], pa.string()), _BIGRAM_SEP
        )
        brows = rows[:-1][same]
        bpos = np.asarray(pc.index_in(packed, value_set=bigrams).fill_null(-1),
                          dtype=np.int64)
        cpos = np.asarray(pc.index_in(w1, value_set=ctx_vocab).fill_null(-1),
                          dtype=np.int64)
        c = np.where(bpos >= 0, b_counts[np.clip(bpos, 0, None)], 0.0)
        nctx = np.where(cpos >= 0, ctx_counts[np.clip(cpos, 0, None)], 0.0)
        # self-trained: every in-corpus bigram hits; OOV (scoring new
        # text) falls back to add-one mass over the context
        logp = np.log(np.where(c > 0, c, 1.0) / np.where(nctx > 0, nctx + (c <= 0), 1.0))
        n_docs = batch.num_rows
        sums = np.zeros(n_docs, np.float64)
        np.add.at(sums, brows, logp)
        nbig = np.bincount(brows, minlength=n_docs)
        keep = nbig > 0
        return pa.table(
            {
                self.id_column: ids.take(pa.array(np.flatnonzero(keep), pa.int64())),
                "logprob": pa.array(sums[keep] / nbig[keep], pa.float64()),
            }
        )


def bigram_logprob(ds, text_column: str = "text", id_column: str = "doc_id"):
    """Bigram language-model scoring: FIT conditional bigram frequencies
    ``P(w2 | w1) = c(w1,w2) / c(w1,·)`` in one combiner pass, broadcast
    the model once (``ray.put``; the context table derives from the
    bigram table on the driver — no extra corpus pass), score every
    document's mean conditional log-probability in one more streaming
    pass. Two corpus reads total, same shape/budget as
    :func:`unigram_logprob` (at ~10⁸-bigram corpora, co-partition the
    score pass with the count table on token buckets instead of
    broadcasting — the documented TF-IDF switchover)."""
    import ray

    blocks = [
        b
        for b in corpus_bigram_counts(ds, text_column).iter_batches(
            batch_format="pyarrow"
        )
        if b.num_columns
    ]
    if blocks:
        tbl = pa.concat_tables([b.select(["bigram", "cnt"]) for b in blocks])
        bigrams = tbl.column("bigram").combine_chunks()
        b_counts = np.asarray(tbl.column("cnt"), dtype=np.float64)
        # context counts c(w1,·): split the packed key once, driver-side
        w1 = pc.list_element(pc.split_pattern(bigrams, _BIGRAM_SEP), 0)
        ctx_vocab, codes = np.unique(np.asarray(w1, dtype=object), return_inverse=True)
        ctx_counts = np.zeros(len(ctx_vocab))
        np.add.at(ctx_counts, codes, b_counts)
        ctx_vocab = pa.array(ctx_vocab, pa.string())
    else:
        bigrams = pa.array([], pa.string())
        b_counts = np.zeros(0)
        ctx_vocab = pa.array([], pa.string())
        ctx_counts = np.zeros(0)
    model_ref = ray.put((bigrams, b_counts, ctx_vocab, ctx_counts))
    return ds.select_columns([id_column, text_column]).map_batches(
        BigramScoreStage(model_ref, text_column, id_column),
        batch_format="pyarrow",
    )


class _TfidfPostingStage:
    """``map_batches`` callable: per doc, L2-normalized tf·idf weights
    over the df-pruned vocabulary → posting rows ``(__bucket, token
    hash bucket, doc_id, wn)``. The df table rides ONE ``ray.put``
    (read zero-copy per actor/task, never re-shipped per batch)."""

    def __init__(self, df_ref, n_docs, min_df, max_df, text_column, id_column, n_buckets):
        import ray

        self.vocab, self.dfs = ray.get(df_ref)  # sorted vocab + df counts
        keep = (self.dfs >= min_df) & (self.dfs <= max_df)
        self.vocab, self.dfs = self.vocab[keep], self.dfs[keep]
        self.idf = np.log(float(n_docs) / self.dfs) if len(self.dfs) else np.empty(0)
        self.text_column, self.id_column = text_column, id_column
        self.n_buckets = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "__bucket": pa.array([], pa.int32()),
                "token": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "wn": pa.array([], pa.float64()),
            }
        )
        tok, rows = _flat_tokens(batch.column(self.text_column))
        if len(tok) == 0 or len(self.vocab) == 0:
            return empty
        vi = np.searchsorted(self.vocab, tok)
        vi_c = np.minimum(vi, len(self.vocab) - 1)
        ok = self.vocab[vi_c] == tok  # token in the pruned vocab
        vi, rows = vi_c[ok], rows[ok]
        if len(vi) == 0:
            return empty
        # tf per (doc row, vocab index): sort + run-length count
        order, starts, _, _, row_end = segments((rows, vi))
        tf = (row_end[starts] - starts).astype(np.int64)
        r_u, v_u = rows[order[starts]], vi[order[starts]]
        w = tf * self.idf[v_u]
        # L2 norm per doc row (r_u is sorted: its segment ids are the docs)
        _, _, doc_id_idx, _, _ = segments(r_u)
        norms_sq = np.zeros(doc_id_idx[-1] + 1)
        np.add.at(norms_sq, doc_id_idx, w * w)
        nrm = np.sqrt(norms_sq)[doc_id_idx]
        keep = nrm > 0
        if not keep.any():
            return empty
        wn = w[keep] / nrm[keep]
        tokens_out = self.vocab[v_u[keep]]
        ids = np.asarray(batch.column(self.id_column), dtype=np.int64)[r_u[keep]]
        return pa.table(
            {
                "__bucket": pa.array(mix_to_buckets(hash64(tokens_out), self.n_buckets)),
                "token": pa.array(tokens_out, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "wn": pa.array(wn, pa.float64()),
            }
        )


def tfidf_cosine_pairs(
    ds,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_df: int = 2,
    max_df: int = 50,
    threshold: float = 0.3,
    n_docs: int | None = None,
    n_buckets: int | None = None,
):
    """All document pairs with tf·idf cosine similarity ≥ ``threshold``
    — the sparse-vector similarity join (near-dup detection at the
    lexical level, between n-gram Jaccard's exactness and embedding
    cosine's recall). Weights: ``w = tf · ln(N/df)`` over the vocabulary
    pruned to ``min_df ≤ df ≤ max_df``, L2-normalized per doc, so the
    pair score is a plain dot product.

    Plan (document-at-a-time → term-at-a-time): one df pass (bounded
    vocab broadcast via ``ray.put``, same regime as ``tfidf_top_terms``);
    one posting pass emitting ``(token, doc, wn)`` with per-doc norms
    computed inside the row (a doc's tokens never split); ONE
    token-bucket shuffle where each token segment fans out its
    ``df·(df−1)/2`` pair partials VECTORIZED and combines them locally
    by (a, b) before the tiny final ``(doc_a, doc_b)`` sum.

    ``max_df`` is the scale lever: it caps the fan-out per token (a
    stopword-grade token would otherwise emit ~N² partials) — the same
    bound every AllPairs/PPJoin system imposes. Raising recall for
    high-df tokens means the prefix-filter join (``dedup.py``), not a
    bigger cap. Output: ``doc_a, doc_b, cos6`` (ROUND(·,6) protocol).
    """
    import ray

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    if n_docs is None:
        n_docs = ds.count()
    df_parts = list(
        token_document_frequencies(ds, text_column, id_column).iter_batches(
            batch_format="pyarrow"
        )
    )
    if df_parts:
        df_tbl = pa.concat_tables(df_parts)
        vocab = np.asarray(df_tbl.column("token"), dtype=object)
        dfs = np.asarray(df_tbl.column("df"), dtype=np.int64)
        o = np.argsort(vocab)
        vocab, dfs = vocab[o], dfs[o]
    else:
        vocab, dfs = np.empty(0, object), np.empty(0, np.int64)
    df_ref = ray.put((vocab, dfs))

    postings = ds.select_columns([id_column, text_column]).map_batches(
        _TfidfPostingStage(
            df_ref, n_docs, min_df, max_df, text_column, id_column, n_buckets
        ),
        batch_format="pyarrow",
    )

    def pair_partials(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
            }
        )
        n = group.num_rows
        tok = np.asarray(group.column("token"), dtype=object)
        doc = np.asarray(group.column("doc_id"), dtype=np.int64)
        wn = np.asarray(group.column("wn"), dtype=np.float64)
        _, tcode = np.unique(tok, return_inverse=True)
        order, _, _, row_start, _ = segments(tcode, doc)
        dc, w = doc[order], wn[order]
        pos = np.arange(n, dtype=np.int64) - row_start
        # row j pairs with the pos[j] earlier rows of its token segment
        # (docs ascend within a segment → a < b for free)
        cum = np.concatenate([[0], np.cumsum(pos)])
        if cum[-1] == 0:
            return empty
        j = np.repeat(np.arange(n, dtype=np.int64), pos)
        i = np.arange(cum[-1], dtype=np.int64) - cum[j] + row_start[j]
        a, b, s = dc[i], dc[j], w[i] * w[j]
        # local combine by (a, b) before the final exchange
        po, ps, _, _, _ = segments((a, b))
        a, b, s = a[po], b[po], s[po]
        sums = np.add.reduceat(s, ps)
        return pa.table(
            {
                "doc_a": pa.array(a[ps], pa.int64()),
                "doc_b": pa.array(b[ps], pa.int64()),
                "s": pa.array(sums, pa.float64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = map_buckets(postings, pair_partials)
    # native groupby: float sums (group_sum sums int64); partials are combined per bucket
    summed = partials.groupby(["doc_a", "doc_b"]).aggregate(Sum("s", alias_name="s"))

    def finish(t: pa.Table) -> pa.Table:
        cos = t.column("s")
        keep = pc.greater_equal(cos, threshold)
        t = t.filter(keep)
        return pa.table(
            {
                "doc_a": t.column("doc_a"),
                "doc_b": t.column("doc_b"),
                "cos6": pc.round(t.column("s"), ndigits=6),
            }
        )

    return summed.map_batches(finish, batch_format="pyarrow")
