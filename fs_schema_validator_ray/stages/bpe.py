"""Distributed byte-pair-encoding (BPE) tokenizer training + encoding.

The reference has no tokenizer (it validates schemas); this extends the
engine along the training-data axis: every large-scale text pipeline
trains a subword vocabulary, and BPE's merge loop is the canonical
iterative distributed aggregation (pair counts → global argmax →
broadcast merge → rewrite).

Algorithm (classic word-frequency BPE, the HF-tokenizers formulation):
train on the DISTINCT-WORD frequency table, never the raw corpus — one
streaming token-count pass (``corpus_token_counts``: per-batch Arrow
``value_counts`` partials, token-bucketed merge) collapses the corpus
to ``(word, cnt)`` rows, after which every merge iteration touches only
that table. Words are split to character symbols (no end-of-word
marker: merges are word-internal; the pre-tokenizer is the engine's
oracle-replicable ``lower → split [^a-z0-9]+``). Each iteration picks
the globally most frequent adjacent symbol pair, tie-broken
deterministically by ``(-count, left, right)``, and rewrites it to one
symbol everywhere.

Two execution paths, same documented switchover shape as the unigram
LM (``textindex.py:540``):

* **driver fast path** (default when the word table fits
  ``max_driver_words``): collect ``(word, cnt)`` and run the serial
  merge loop — the word table is vocabulary-sized (≪ corpus; the same
  bounded-driver regime as the TF-IDF df table), and n_merges × a
  Ray job would dominate wall time at test scale.
* **distributed path** (forced or when the table is too large): the
  word table stays a Dataset of ``(syms: list<string>, cnt)`` rows;
  each iteration is one ``map_batches`` pair-count partial (per-block
  pre-aggregation — the combiner) → one ``group_sum`` on
  ``(left, right)`` → per-block local argmax → tiny driver merge of
  block winners, then a broadcast merge application ``map_batches``
  and a ``materialize()`` of the (small) word table so iteration k+1
  does not re-execute the k rewrites. Shuffle payload per iteration =
  distinct pairs per block, never raw occurrences.

Parity between the two paths is pytest-gated (forced-switch test), and
the whole trainer is gated against an independently written serial
reference implementation.

Scale notes (10¹² docs): the only corpus-sized pass is the token-count
fit; its exchange is pre-aggregated per block and bucketed. The word
table for a real web corpus is ~10⁷–10⁸ rows (tail-truncatable with
``min_count`` — the standard vocab-build move, logged when it drops
words); merge iterations never touch the corpus again. Encoding
(:func:`bpe_encode`) is one streaming pass with the merge ranks
broadcast once per actor (``ray.put``), applied per DISTINCT word per
batch with a per-actor LRU word cache — Zipf makes the cache hit rate
≈ the token mass of the head vocabulary.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)


# --- serial core -------------------------------------------------------------


def _pair_counts(words: list[tuple[list[str], int]]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for syms, cnt in words:
        for i in range(len(syms) - 1):
            p = (syms[i], syms[i + 1])
            counts[p] = counts.get(p, 0) + cnt
    return counts


def _best_pair(counts: dict[tuple[str, str], int]) -> tuple[str, str] | None:
    """Deterministic argmax: highest count, then lexicographically
    smallest (left, right) — the tie-break both execution paths and the
    test reference share."""
    best = None
    best_key = None
    for pair, cnt in counts.items():
        key = (-cnt, pair[0], pair[1])
        if best_key is None or key < best_key:
            best_key = key
            best = pair
    return best


def _apply_merge(syms: list[str], left: str, right: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _serial_train(
    words: list[tuple[list[str], int]], n_merges: int
) -> list[tuple[str, str]]:
    merges: list[tuple[str, str]] = []
    words = [(list(s), c) for s, c in words]
    for _ in range(n_merges):
        counts = _pair_counts(words)
        pair = _best_pair(counts)
        if pair is None:
            break
        merges.append(pair)
        words = [(_apply_merge(s, *pair), c) for s, c in words]
    return merges


# --- distributed path --------------------------------------------------------


def _word_table(ds, text_column: str, min_count: int):
    """(word, cnt) Dataset via the shared streaming token-count pass."""
    from fs_schema_validator_ray.stages.textindex import corpus_token_counts

    wc = corpus_token_counts(ds, text_column)
    if min_count > 1:
        wc = wc.filter(
            expr=f"cnt >= {int(min_count)}"
        )
    return wc


def _distributed_train(words_ds, n_merges: int) -> list[tuple[str, str]]:
    """Merge loop over a word-table Dataset that must not land on the
    driver. Per iteration: per-block pre-aggregated pair counts → one
    ``group_sum`` → per-block argmax → driver merge of block winners →
    broadcast rewrite + materialize of the (small) word table."""
    from fs_schema_validator_ray.stages.agg import group_sum

    def explode(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        return pa.table(
            {
                "syms": pa.array([list(w) for w in toks], pa.list_(pa.string())),
                "cnt": batch.column("cnt"),
            }
        )

    cur = words_ds.map_batches(explode, batch_format="pyarrow").materialize()
    merges: list[tuple[str, str]] = []

    def pair_partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        cnts = batch.column("cnt").to_pylist()
        for syms, c in zip(batch.column("syms").to_pylist(), cnts):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + c
        if not counts:
            return pa.table(
                {
                    "left": pa.array([], pa.string()),
                    "right": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        ls, rs, cs = zip(*((l, r, c) for (l, r), c in counts.items()))
        return pa.table(
            {
                "left": pa.array(ls, pa.string()),
                "right": pa.array(rs, pa.string()),
                "cnt": pa.array(cs, pa.int64()),
            }
        )

    _empty_pairs = pa.table(
        {
            "left": pa.array([], pa.string()),
            "right": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def local_best(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_pairs
        tb = batch.select(["left", "right", "cnt"]).sort_by(
            [("cnt", "descending"), ("left", "ascending"), ("right", "ascending")]
        )
        return tb.slice(0, 1)

    while len(merges) < n_merges:
        pair_ds = group_sum(
            cur.map_batches(pair_partial, batch_format="pyarrow"), ["left", "right"], ["cnt"]
        )
        winners = [
            r
            for b in pair_ds.map_batches(
                local_best, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        ]
        if not winners:
            break
        winners.sort(key=lambda r: (-r["cnt"], r["left"], r["right"]))
        left, right = winners[0]["left"], winners[0]["right"]
        merges.append((left, right))

        def rewrite(batch: pa.Table, left=left, right=right) -> pa.Table:
            syms = [
                _apply_merge(s, left, right)
                for s in batch.column("syms").to_pylist()
            ]
            return pa.table(
                {
                    "syms": pa.array(syms, pa.list_(pa.string())),
                    "cnt": batch.column("cnt"),
                }
            )

        cur = cur.map_batches(rewrite, batch_format="pyarrow").materialize()
    return merges


# --- public API --------------------------------------------------------------


def bpe_train(
    ds,
    text_column: str = "text",
    n_merges: int = 64,
    min_count: int = 1,
    max_driver_words: int = 500_000,
    pin: bool | None = None,
) -> pa.Table:
    """Learn ``n_merges`` BPE merges from a text corpus. Returns the
    ordered merge table ``(rank:int32, left, right, merged:string)`` —
    deterministic for a given corpus (tie-break ``(-count, left,
    right)``), identical across both execution paths.

    ``pin=True`` forces the driver fast path, ``pin=False`` forces the
    distributed path (the forced-switch test hook); default switches on
    the word-table size vs ``max_driver_words``.
    """
    wc = _word_table(ds, text_column, min_count).materialize()
    n_words = wc.count()
    use_driver = pin if pin is not None else n_words <= max_driver_words
    if use_driver:
        rows = [
            r
            for b in wc.iter_batches(batch_format="pyarrow")
            for r in zip(b.column("token").to_pylist(), b.column("cnt").to_pylist())
        ]
        rows.sort()  # block order is nondeterministic; the loop is not
        merges = _serial_train([(list(w), c) for w, c in rows], n_merges)
    else:
        logger.info(
            "bpe_train: %d distinct words > max_driver_words=%d — "
            "distributed merge loop",
            n_words,
            max_driver_words,
        )
        merges = _distributed_train(wc, n_merges)
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int32()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
            "merged": pa.array([m[0] + m[1] for m in merges], pa.string()),
        }
    )


def _encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply merges in rank order (always the lowest-rank applicable
    pair first — the standard BPE encode loop)."""
    syms = list(word)
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


class BpeEncodeStage:
    """map_batches callable: per-document BPE token count under a
    broadcast merge table. Merge ranks resolved from the object store
    once per actor; each batch encodes only its DISTINCT words (per-
    actor cache across batches — Zipf's law makes the head vocabulary
    carry most token mass)."""

    def __init__(self, ranks_ref, text_column: str, id_column: str):
        import ray

        merges = ray.get(ranks_ref)
        self.ranks = {
            (l, r): i
            for i, (l, r) in enumerate(
                zip(merges["left"].to_pylist(), merges["right"].to_pylist())
            )
        }
        self.text_column = text_column
        self.id_column = id_column
        self._cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.stages.textindex import _flat_tokens

        flat, row_idx = _flat_tokens(batch.column(self.text_column))
        n = batch.num_rows
        out = np.zeros(n, np.int64)
        if len(flat):
            uniq, inverse = np.unique(flat, return_inverse=True)
            per_word = np.empty(len(uniq), np.int64)
            for i, w in enumerate(uniq):
                hit = self._cache.get(w)
                if hit is None:
                    hit = len(_encode_word(w, self.ranks))
                    if len(self._cache) < 200_000:
                        self._cache[w] = hit
                per_word[i] = hit
            np.add.at(out, row_idx, per_word[inverse])
        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                "n_bpe_tokens": pa.array(out, pa.int64()),
            }
        )


def bpe_encode(
    ds,
    merges: pa.Table,
    text_column: str = "text",
    id_column: str = "doc_id",
):
    """Streaming encode pass: ``(id, n_bpe_tokens)`` per document with
    the merge table broadcast once (``ray.put``)."""
    import ray

    ranks_ref = ray.put(merges.select(["left", "right"]))
    return ds.select_columns([id_column, text_column]).map_batches(
        BpeEncodeStage(ranks_ref, text_column, id_column),
        batch_format="pyarrow",
    )
