"""Distributed multinomial Naive Bayes document classifier.

The fastText-style source/quality classifier a training-data pipeline
runs over every document (keep/drop by predicted source, wiki-vs-web
quality gates). Generalizes the reference's per-field pass/fail
semantics (a verdict per row) from static rules to a model fitted on
the corpus itself.

Shuffle discipline (same budget as the unigram LM, ``textindex.py``):

* TRAIN is one token-count pass — per-batch Arrow ``value_counts`` of
  ``label\\x1ftoken`` packed keys, merged through the token-bucketed
  group-sum (``agg.group_sum``); the exchange moves one
  ``(key, cnt)`` partial per distinct (label, token) per batch, never
  text. Label priors are an L-sized combiner count.
* CLASSIFY (broadcast path) ships the fitted ``V×L`` log-probability
  matrix once via ``ray.put`` (~10⁷-token vocab × single-digit labels —
  the TF-IDF vocab budget) and scores each batch with two vectorized
  kernels: ``pc.index_in`` against the vocab + one ``np.add.at``
  segment sum per label block. No per-row Python.
* CLASSIFY (co-partitioned path, the documented at-scale switchover
  mirroring ``unigram_logprob_copartitioned``): the count table stays a
  materialized Dataset; per-doc distinct ``(doc_id, token, k)`` rows
  hash-join it ON TOKEN, per-(doc,label) partial sums bucket-merge on
  doc id, and the Laplace-smoothing constant is applied algebraically
  (``Σ k·ln(c+1) − n_d·ln(tot_l+V)``) so absent (label, token) pairs
  cost nothing. Only L-sized label constants ride in the closure.
  ``nb_classify(..., max_broadcast_entries=...)`` auto-switches; parity
  between the paths is pytest-gated.

Scores are rounded to 6 decimals BEFORE the argmax in both the engine
and the SQL oracle, so a mathematically exact tie between two labels
cannot be broken differently by float summation order; remaining ties
break to the lexicographically smallest label in both.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.textindex import _doc_token_counts, _flat_tokens

#: packs (label, token) into one group-sum key; tokens are [a-z0-9]+ so
#: the separator can never occur inside either part
_LABEL_SEP = "\x1f"


def nb_token_label_counts(ds, text_column: str = "text", label_column: str = "label"):
    """Per-(label, token) term frequencies ``(label, token, cnt)`` — the
    sufficient statistics of a multinomial NB fit, as a Dataset."""
    from fs_schema_validator_ray.stages.agg import group_sum

    def partial(batch: pa.Table) -> pa.Table:
        flat, rows = _flat_tokens(batch.column(text_column))
        if not len(flat):
            return pa.table(
                {"key": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        labels = np.asarray(
            pc.fill_null(batch.column(label_column).combine_chunks(), ""),
            dtype=object,
        )[rows]
        packed = pa.array(labels + _LABEL_SEP + flat, pa.string())
        vc = pc.value_counts(packed)
        return pa.table(
            {"key": vc.field("values"), "cnt": pc.cast(vc.field("counts"), pa.int64())}
        )

    counts = group_sum(
        ds.select_columns([label_column, text_column]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["key"],
        ["cnt"],
    )

    def unpack(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("key"), pattern=_LABEL_SEP, max_splits=1)
        return pa.table(
            {
                label_column: pc.list_element(parts, 0),
                "token": pc.list_element(parts, 1),
                "cnt": t.column("cnt"),
            }
        )

    return counts.map_batches(unpack, batch_format="pyarrow")


def nb_label_doc_counts(ds, label_column: str = "label"):
    """L-sized ``(label, docs)`` prior table (combiner count — the
    exchange moves one row per label per batch)."""
    from fs_schema_validator_ray.stages.agg import group_sum

    out = group_sum(ds.select_columns([label_column]), [label_column], [])
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")]
        or [pa.table({label_column: pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
    )
    return t.select([label_column, "n"]).rename_columns([label_column, "docs"])


def _prior_arrays(priors: pa.Table, label_column: str):
    """Shared L-sized prior assembly: sorted labels, label→index map,
    per-label doc counts and log priors (used by both the broadcast and
    the co-partitioned scoring paths)."""
    labels = sorted(priors.column(label_column).to_pylist())
    lab_idx = {l: i for i, l in enumerate(labels)}
    docs = np.zeros(len(labels), np.float64)
    for l, d in zip(
        priors.column(label_column).to_pylist(), priors.column("docs").to_pylist()
    ):
        docs[lab_idx[l]] = d
    log_prior = np.log(docs / docs.sum()) if docs.sum() else docs
    return labels, lab_idx, docs, log_prior


def _collect_model(counts_ds, priors: pa.Table, label_column: str):
    """Driver-side assembly of the broadcastable model: sorted labels,
    log priors, vocab, and the dense ``V×L`` token log-prob matrix
    ``ln((c+1)/(tot_l+V))`` plus the L OOV constants ``ln(1/(tot_l+V))``."""
    labels, lab_idx, docs, log_prior = _prior_arrays(priors, label_column)

    blocks = [
        b
        for b in counts_ds.select_columns([label_column, "token", "cnt"]).iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if blocks:
        tbl = pa.concat_tables(blocks).combine_chunks()
        toks = np.asarray(tbl.column("token"), dtype=object)
        labs = np.asarray(tbl.column(label_column), dtype=object)
        cnts = np.asarray(tbl.column("cnt"), dtype=np.float64)
        vocab_np, tok_code = np.unique(toks, return_inverse=True)
        lab_code = np.array([lab_idx[l] for l in labs], np.int64)
        mat = np.zeros((len(vocab_np), len(labels)), np.float64)
        mat[tok_code, lab_code] = cnts
    else:
        vocab_np = np.empty(0, object)
        mat = np.zeros((0, len(labels)), np.float64)
    tot = mat.sum(axis=0)
    v = len(vocab_np)
    denom = np.log(tot + v) if v else np.zeros(len(labels))
    logp = np.log(mat + 1.0) - denom
    oov = -denom  # ln(1 / (tot_l + V)) == ln((0+1)/(tot_l+V))
    vocab = pa.array(vocab_np, pa.string())
    return labels, log_prior, vocab, logp, oov


class NbScoreStage:
    """map_batches callable: per-doc NB scores under the broadcast model
    (resolved once per actor), argmax after round-6, tie → min label.
    Zero-token docs emit no row (SQL inner-join-vs-tok semantics)."""

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
        labels, log_prior, vocab, logp, oov = self._resolve()
        ids = batch.column(self.id_column).combine_chunks()
        empty = pa.table(
            {
                self.id_column: ids.slice(0, 0),
                "pred": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            }
        )
        if not len(labels):
            return empty
        flat, rows = _flat_tokens(batch.column(self.text_column))
        if not len(flat):
            return empty
        pos = np.asarray(
            pc.index_in(pa.array(flat, pa.string()), value_set=vocab).fill_null(-1),
            dtype=np.int64,
        )
        tok_logp = np.where(
            (pos >= 0)[:, None], logp[np.clip(pos, 0, None)], oov[None, :]
        )
        n_docs = batch.num_rows
        scores = np.zeros((n_docs, len(labels)), np.float64)
        np.add.at(scores, rows, tok_logp)
        scores += log_prior[None, :]
        ntok = np.bincount(rows, minlength=n_docs)
        keep = ntok > 0
        rounded = np.round(scores[keep], 6)
        best = np.argmax(rounded, axis=1)  # first max → min label (sorted)
        return pa.table(
            {
                self.id_column: ids.take(pa.array(np.flatnonzero(keep), pa.int64())),
                "pred": pa.array(np.asarray(labels, object)[best], pa.string()),
                "score": pa.array(rounded[np.arange(len(best)), best], pa.float64()),
            }
        )


def nb_classify(
    ds,
    text_column: str = "text",
    label_column: str = "label",
    id_column: str = "doc_id",
    max_broadcast_entries: int | None = None,
):
    """Train-on-self NB classification: fit per-label token counts +
    priors in one pass, then score every document. Returns a Dataset of
    ``(id_column, pred, score)``.

    ``max_broadcast_entries``: when set and the fitted ``V×L`` matrix
    exceeds it, switch to :func:`nb_classify_copartitioned` — no vocab
    broadcast, counts hash-joined on token buckets."""
    import ray

    counts_ds = nb_token_label_counts(ds, text_column, label_column).materialize()
    priors = nb_label_doc_counts(ds, label_column)
    if (
        max_broadcast_entries is not None
        and counts_ds.count() > max_broadcast_entries
    ):
        return nb_classify_copartitioned(
            ds, counts_ds, priors, text_column, label_column, id_column
        )
    model_ref = ray.put(_collect_model(counts_ds, priors, label_column))
    return ds.select_columns([id_column, text_column]).map_batches(
        NbScoreStage(model_ref, text_column, id_column), batch_format="pyarrow"
    )


def nb_classify_copartitioned(
    ds,
    counts_ds=None,
    priors: pa.Table | None = None,
    text_column: str = "text",
    label_column: str = "label",
    id_column: str = "doc_id",
):
    """Fully distributed NB scoring — the at-scale switchover when the
    vocabulary is too large to broadcast.

    1. the fitted ``(label, token, cnt)`` table stays a materialized
       Dataset (vocab×L-sized, ≪ corpus),
    2. per-label totals, priors and V are tiny driver scalars (L rows +
       one bucketed distinct-token count),
    3. per-doc distinct ``(doc_id, token, k)`` rows hash-join the count
       table ON TOKEN; each joined row contributes ``k·ln(c+1)`` to its
       (doc, label) cell — absent (label, token) pairs contribute
       ``ln(0+1)=0``, so the join only needs EXISTING count rows and the
       smoothing denominator folds into the per-label constant
       ``−n_d·ln(tot_l+V)`` applied at the final merge,
    4. per-doc token totals ``n_d`` ride the same doc-id-bucketed merge
       as sentinel rows distinguished by a ``kind`` column (kind=1), so
       the doc universe and the smoothing constant arrive without a
       second exchange.

    Same verdicts as the broadcast path (pytest parity gate)."""
    from fs_schema_validator_ray.stages.agg import group_sum
    from fs_schema_validator_ray.stages.exchange import default_n_buckets, map_buckets, route
    from fs_schema_validator_ray.stages.joins import hash_join

    if counts_ds is None:
        counts_ds = nb_token_label_counts(ds, text_column, label_column).materialize()
    if priors is None:
        priors = nb_label_doc_counts(ds, label_column)

    labels, lab_idx, docs, log_prior = _prior_arrays(priors, label_column)

    # per-label token totals: L-sized combiner count over the count table
    from fs_schema_validator_ray.stages.agg import group_sum

    tot = np.zeros(len(labels), np.float64)
    for b in group_sum(
        counts_ds.select_columns([label_column, "cnt"]), [label_column], ["cnt"]
    ).iter_batches(batch_format="pyarrow"):
        for l, c in zip(
            b.column(label_column).to_pylist(), b.column("cnt").to_pylist()
        ):
            tot[lab_idx[l]] = c
    # V = distinct tokens across labels: one bucketed distinct pass over
    # the (vocab×L)-sized count table — never over the corpus
    v = group_sum(
        counts_ds.select_columns(["token"]), ["token"], []
    ).count()
    denom = np.log(tot + v) if v else np.zeros(len(labels))

    def doc_token_counts(batch: pa.Table) -> pa.Table:
        return _doc_token_counts(batch, text_column, id_column)

    tok = ds.select_columns([id_column, text_column]).map_batches(
        doc_token_counts, batch_format="pyarrow"
    )
    joined = hash_join(
        tok,
        counts_ds.select_columns(["token", label_column, "cnt"]),
        "token",
        "token",
        [id_column, "k"],
        [label_column, "cnt"],
    )

    n_buckets = default_n_buckets(ds)
    lab_idx_items = sorted(lab_idx.items())

    def score_partial(t: pa.Table) -> pa.Table:
        # (doc, label) partial Σ k·ln(c+1), kind=0
        k = np.asarray(t.column("k"), dtype=np.float64)
        c = np.asarray(t.column("cnt"), dtype=np.float64)
        w = k * np.log(c + 1.0)
        g = pa.table(
            {
                id_column: t.column(id_column),
                "lab": t.column(label_column),
                "val": pa.array(w),
            }
        )
        agg = pa.TableGroupBy(g, [id_column, "lab"]).aggregate([("val", "sum")])
        agg = agg.rename_columns([id_column, "lab", "val"])
        return agg.append_column("kind", pa.array(np.zeros(agg.num_rows, np.int8)))

    def ntok_partial(t: pa.Table) -> pa.Table:
        # (doc, n_d) sentinel rows, kind=1 — n_d = Σk per doc
        g = pa.TableGroupBy(
            pa.table({id_column: t.column(id_column), "val": pc.cast(t.column("k"), pa.float64())}),
            [id_column],
        ).aggregate([("val", "sum")])
        g = g.rename_columns([id_column, "val"])
        return pa.table(
            {
                id_column: g.column(id_column),
                "lab": pa.array([""] * g.num_rows, pa.string()),
                "val": g.column("val"),
                "kind": pa.array(np.ones(g.num_rows, np.int8)),
            }
        )

    parts = route(joined, [id_column], n_buckets, score_partial).union(
        route(tok, [id_column], n_buckets, ntok_partial)
    )

    labels_np = np.asarray(labels, object)
    lab_map = dict(lab_idx_items)

    def merge_docs(group: pa.Table) -> pa.Table:
        kind = np.asarray(group.column("kind"), dtype=np.int8)
        ids_all = np.asarray(group.column(id_column), dtype=np.int64)
        vals = np.asarray(group.column("val"), dtype=np.float64)
        # doc universe from sentinel rows (every non-empty doc has one)
        sent = kind == 1
        doc_ids, sent_inv = np.unique(ids_all[sent], return_inverse=True)
        n_d = np.zeros(len(doc_ids), np.float64)
        np.add.at(n_d, sent_inv, vals[sent])
        scores = np.tile(log_prior, (len(doc_ids), 1)) - n_d[:, None] * denom[None, :]
        if (~sent).any():
            labs = np.asarray(group.column("lab"), dtype=object)[~sent]
            lab_u, lab_inv = np.unique(labs, return_inverse=True)
            lcodes = np.array([lab_map[l] for l in lab_u], np.int64)[lab_inv]
            dcodes = np.searchsorted(doc_ids, ids_all[~sent])
            np.add.at(scores, (dcodes, lcodes), vals[~sent])
        rounded = np.round(scores, 6)
        best = np.argmax(rounded, axis=1)
        return pa.table(
            {
                id_column: pa.array(doc_ids, pa.int64()),
                "pred": pa.array(labels_np[best], pa.string()),
                "score": pa.array(rounded[np.arange(len(best)), best], pa.float64()),
            }
        )

    return map_buckets(parts, merge_docs, n_buckets)
