"""Text-analysis stages for training-data pipelines.

Large-scale-corpus operators the reference does not have but a 100 TB
training-data pipeline needs (they generalize the reference's per-record
"inspect one payload, emit derived facts/violations" pattern,
``/root/reference/fs_schema_validator/schemas/json.py:240-265``):

* token counting — whitespace tokens + a BPE-ish regex token count,
  both via Arrow's RE2 ``count_substring_regex`` kernel (vectorized,
  zero Python in the per-row path),
* document profiling / quality scoring — char/token/unique-token
  counts, type-token ratio, punctuation/digit/alpha ratios, mean word
  length — Arrow + polars list kernels,
* language ID — stopword-hit scoring over a flattened token stream
  (``pc.is_in`` + ``np.add.reduceat`` per language; no per-row loop),
* document fingerprinting — 64-bit polynomial rolling-hash winnowing
  (k-gram min-hash selection, Schleimer et al. 2003 style).

All stages are plain callables for ``Dataset.map_batches(...,
batch_format="pyarrow")``; they are stateless (regexes live in RE2
kernels, stopword tables are tiny constants shipped in the closure).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: whitespace-delimited token
_WS_TOKEN = r"\S+"
#: BPE-ish pre-tokenizer: word pieces OR single non-space punctuation
_BPE_TOKEN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

# Tiny per-language stopword tables (public, standard closed-class words).
STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "a", "of", "and", "to", "in", "is", "it", "that", "for",
           "on", "with", "as", "was", "at", "by", "an", "be", "this", "are"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu",
           "mit", "auf", "für", "von", "im", "den", "des", "sich", "dem"),
    "es": ("el", "la", "de", "que", "y", "en", "un", "una", "es", "los",
           "las", "por", "con", "para", "del", "se", "no", "al"),
    "fr": ("le", "la", "les", "de", "des", "et", "est", "un", "une", "du",
           "que", "pour", "dans", "qui", "sur", "pas", "au", "ce"),
    "zh": ("的", "了", "是", "我", "在", "有", "他", "这", "不", "们",
           "就", "人", "都", "一个", "上", "也", "和", "要"),
}


def _split_tokens(col: pa.Array):
    """Whitespace tokens as an Arrow list array. Input is trimmed first so
    the only spurious token is the single ``""`` of an empty document
    (callers mask those rows via their token counts)."""
    col = pc.utf8_trim_whitespace(pc.fill_null(col, ""))
    return pc.split_pattern_regex(col, pattern=r"\s+")


def _segment_sums(flat_mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row sums of a flat per-token mask given list offsets — cumsum
    differencing (robust to empty segments, unlike ``reduceat``)."""
    cs = np.concatenate([[0.0], np.cumsum(flat_mask, dtype=np.float64)])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class TextProfileStage:
    """Per-document profile + quality score.

    Emits one row per input row:
    ``(id, n_chars, n_tokens, n_unique_tokens, n_bpe_tokens, ttr,
    punct_ratio, digit_ratio, alpha_ratio, mean_token_len, quality)``.

    Everything except unique-token counting runs in Arrow RE2 kernels;
    unique counting uses polars' vectorized ``list.n_unique``.
    """

    def __init__(self, text_column: str = "text", id_column: str = "doc_id") -> None:
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_column).combine_chunks()
        col = pc.fill_null(col, "")
        n = len(col)
        n_chars = np.asarray(pc.utf8_length(col), dtype=np.int64)
        n_tokens = np.asarray(
            pc.count_substring_regex(col, pattern=_WS_TOKEN), dtype=np.int64
        )
        n_bpe = np.asarray(
            pc.count_substring_regex(col, pattern=_BPE_TOKEN), dtype=np.int64
        )
        n_punct = np.asarray(
            pc.count_substring_regex(col, pattern=r"[^A-Za-z0-9\s]"), dtype=np.int64
        )
        n_digit = np.asarray(
            pc.count_substring_regex(col, pattern=r"[0-9]"), dtype=np.int64
        )
        n_alpha = np.asarray(
            pc.count_substring_regex(col, pattern=r"[A-Za-z]"), dtype=np.int64
        )

        # unique tokens: polars list.n_unique (vectorized; no Python loop)
        import polars as pl

        toks = _split_tokens(col)
        s = pl.from_arrow(toks)
        n_unique = s.list.n_unique().to_numpy().astype(np.int64)
        n_unique[n_tokens == 0] = 0

        safe_tok = np.maximum(n_tokens, 1)
        safe_chars = np.maximum(n_chars, 1)
        ttr = n_unique / safe_tok
        punct_ratio = n_punct / safe_chars
        digit_ratio = n_digit / safe_chars
        alpha_ratio = n_alpha / safe_chars
        # total token chars = chars minus single separating spaces
        mean_token_len = (n_chars - np.maximum(n_tokens - 1, 0)) / safe_tok

        # simple monotone quality heuristic in [0,1]: long enough, diverse,
        # mostly alphabetic, not punctuation/digit noise
        quality = (
            np.clip(n_tokens / 64.0, 0.0, 1.0) * 0.35
            + np.clip(ttr, 0.0, 1.0) * 0.25
            + alpha_ratio * 0.30
            + (1.0 - np.clip(punct_ratio * 4.0, 0.0, 1.0)) * 0.10
        )
        quality[n_tokens == 0] = 0.0

        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                "n_chars": pa.array(n_chars),
                "n_tokens": pa.array(n_tokens),
                "n_unique_tokens": pa.array(n_unique),
                "n_bpe_tokens": pa.array(n_bpe),
                "ttr": pa.array(ttr),
                "punct_ratio": pa.array(punct_ratio),
                "digit_ratio": pa.array(digit_ratio),
                "alpha_ratio": pa.array(alpha_ratio),
                "mean_token_len": pa.array(mean_token_len),
                "quality": pa.array(quality),
            }
        )


class LangIdStage:
    """n-gram/stopword-heuristic language ID.

    Scores each language as the fraction of a document's tokens found in
    that language's stopword table; emits ``(id, lang_pred, lang_score)``.
    ``und`` when no stopword hits at all. One ``pc.is_in`` pass per
    language over the *flattened* token stream + ``np.add.reduceat`` —
    vectorized regardless of document count.
    """

    def __init__(self, text_column: str = "text", id_column: str = "doc_id") -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.langs = sorted(STOPWORDS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(self.text_column).combine_chunks(), "")
        n_tokens = np.asarray(
            pc.count_substring_regex(col, pattern=_WS_TOKEN), dtype=np.int64
        )
        toks = _split_tokens(pc.utf8_lower(col))
        flat = toks.values
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        n = len(col)

        scores = np.zeros((len(self.langs), n), dtype=np.float64)
        if len(flat):
            for li, lang in enumerate(self.langs):
                hit = pc.is_in(flat, value_set=pa.array(list(STOPWORDS[lang])))
                hit_np = np.asarray(pc.fill_null(hit, False)).astype(np.float64)
                scores[li] = _segment_sums(hit_np, offsets)
        denom = np.maximum(n_tokens, 1).astype(np.float64)
        scores = scores / denom
        best = np.argmax(scores, axis=0)
        best_score = scores[best, np.arange(n)]
        pred = np.asarray(self.langs, dtype=object)[best]
        pred[best_score <= 0.0] = "und"
        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                "lang_pred": pa.array(pred, pa.string()),
                "lang_score": pa.array(best_score),
            }
        )


# --- fingerprinting --------------------------------------------------------

_HASH_BASE = np.uint64(1_000_003)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def rolling_kgram_hashes(data: bytes, k: int) -> np.ndarray:
    """64-bit polynomial rolling hashes of all byte k-grams (vectorized
    over the character dimension — the loop is over ``k``, not over
    positions, so cost is O(k) numpy passes per document)."""
    buf = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    if len(buf) < k:
        buf = np.pad(buf, (0, k - len(buf)), constant_values=0)
    h = np.zeros(len(buf) - k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(k):
            h = (h * _HASH_BASE + buf[i : len(buf) - k + 1 + i]) & _MASK
    return h


class FingerprintStage:
    """Winnowing fingerprint per document → ``(id, fingerprint, n_grams)``.

    ``fingerprint`` is the XOR-fold of the winnowed k-gram hash set — a
    single stable uint64 per document usable for fuzzy-dup bucketing;
    ``n_grams`` is the winnowed set size.
    """

    def __init__(
        self,
        text_column: str = "text",
        id_column: str = "doc_id",
        k: int = 8,
        window: int = 16,
    ) -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.k = k
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(self.text_column).combine_chunks(), "")
        n = len(col)
        if n == 0:
            return pa.table(
                {
                    self.id_column: batch.column(self.id_column),
                    "fingerprint": pa.array([], pa.uint64()),
                    "n_grams": pa.array([], pa.int64()),
                }
            )
        k, w = self.k, self.window

        # --- flatten: ONE byte buffer for the whole batch (the per-row
        # loop this replaces cost a Python call + numpy allocs per doc).
        # Docs shorter than k bytes are zero-padded to k (same semantics
        # as rolling_kgram_hashes' per-doc padding).
        arr = pc.cast(col, pa.large_binary())
        off_buf = np.frombuffer(arr.buffers()[1], dtype=np.int64)
        offsets = off_buf[arr.offset : arr.offset + n + 1]
        data_buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        lens = np.diff(offsets)
        new_lens = np.maximum(lens, k)
        dst_off = np.zeros(n + 1, np.int64)
        np.cumsum(new_lens, out=dst_off[1:])
        flat = np.zeros(int(dst_off[-1]), np.uint8)
        total_old = int(lens.sum())
        if total_old:
            rep = np.repeat(np.arange(n), lens)
            start_cum = np.concatenate([[0], np.cumsum(lens)])
            within = np.arange(total_old) - start_cum[rep]
            flat[dst_off[:-1][rep] + within] = data_buf[offsets[:-1][rep] + within]

        # --- ONE rolling-hash pass over the flat buffer (loop over k,
        # not over positions or docs); per-doc hash ranges never cross
        # doc boundaries because we slice them out below
        m_total = len(flat) - k + 1
        h = np.zeros(m_total, np.uint64)
        with np.errstate(over="ignore"):
            for i in range(k):
                h = (h * _HASH_BASE + flat[i : m_total + i]) & _MASK

        # --- gather per-doc hash segments into one packed array
        m = new_lens - k + 1  # hashes per doc (all >= 1 post-padding)
        hstart = np.zeros(n + 1, np.int64)
        np.cumsum(m, out=hstart[1:])
        tot_h = int(hstart[-1])
        rep2 = np.repeat(np.arange(n), m)
        within2 = np.arange(tot_h) - hstart[:-1][rep2]
        packed = h[dst_off[:-1][rep2] + within2]

        # --- winnowing: global sliding min over packed, per-doc slices
        # (windows crossing doc boundaries are simply never selected)
        long_mask = m > w
        cand_counts = np.where(long_mask, m - w + 1, 1)
        coff = np.zeros(n + 1, np.int64)
        np.cumsum(cand_counts, out=coff[1:])
        cands = np.empty(int(coff[-1]), np.uint64)
        seg_mins = np.minimum.reduceat(packed, hstart[:-1])
        short_ids = np.flatnonzero(~long_mask)
        cands[coff[:-1][short_ids]] = seg_mins[short_ids]
        long_ids = np.flatnonzero(long_mask)
        if len(long_ids):
            from numpy.lib.stride_tricks import sliding_window_view

            gmins = sliding_window_view(packed, w).min(axis=1)
            cc_long = cand_counts[long_ids]
            rep3 = np.repeat(long_ids, cc_long)
            run_start = np.concatenate([[0], np.cumsum(cc_long)])[:-1]
            within3 = np.arange(int(cc_long.sum())) - np.repeat(run_start, cc_long)
            cands[coff[:-1][rep3] + within3] = gmins[hstart[:-1][rep3] + within3]

        # --- per-doc unique + XOR-fold + count, all segment-wise
        seg = np.repeat(np.arange(n), cand_counts)
        order = np.lexsort((cands, seg))
        s2, v2 = seg[order], cands[order]
        firstu = np.concatenate([[True], (s2[1:] != s2[:-1]) | (v2[1:] != v2[:-1])])
        su, vu = s2[firstu], v2[firstu]
        starts = np.flatnonzero(np.concatenate([[True], su[1:] != su[:-1]]))
        fps = np.bitwise_xor.reduceat(vu, starts)
        sizes = np.diff(np.concatenate([starts, [len(vu)]]))
        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                "fingerprint": pa.array(fps, pa.uint64()),
                "n_grams": pa.array(sizes.astype(np.int64)),
            }
        )


class ChunkStage:
    """``map_batches`` callable: fixed-size character chunking with
    stride/overlap — the LLM context-window chunker (one training
    sample per window). Emits one row per chunk:
    ``(id, chunk_idx, start, chunk_text, chunk_len)`` where chunks start
    at ``0, stride, 2·stride, …`` while ``start < len(text)`` and each
    spans ``[start, start + size)`` codepoints (``stride < size`` ⇒
    overlapping windows). Empty/null documents emit no chunks.

    Vectorized BY CHUNK INDEX, not by row: all rows long enough to have
    a k-th chunk are sliced together with one scalar-arg
    ``utf8_slice_codeunits`` call (Arrow's per-row slice takes only
    scalar offsets) — the loop runs ``max_doc_len / stride`` times per
    batch, independent of row count. Flat-map shape: output rows ≫ input
    rows, so keep upstream batches modest when documents are huge."""

    def __init__(
        self,
        size: int = 200,
        stride: int = 150,
        text_column: str = "text",
        id_column: str = "doc_id",
    ) -> None:
        if size < 1 or stride < 1:
            raise ValueError("chunk size and stride must be >= 1")
        self.size = size
        self.stride = stride
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column(self.text_column).combine_chunks(), "")
        lens = np.asarray(pc.utf8_length(text), dtype=np.int64)
        n_chunks = np.where(lens > 0, (lens - 1) // self.stride + 1, 0)
        max_k = int(n_chunks.max()) if len(n_chunks) else 0
        ids = batch.column(self.id_column).combine_chunks()
        parts = []
        for k in range(max_k):
            mask = pa.array(n_chunks > k)
            sub_text = text.filter(mask)
            start = k * self.stride
            chunk = pc.utf8_slice_codeunits(sub_text, start, start + self.size)
            parts.append(
                pa.table(
                    {
                        self.id_column: ids.filter(mask),
                        "chunk_idx": pa.array(
                            np.full(len(sub_text), k, np.int64)
                        ),
                        "start": pa.array(
                            np.full(len(sub_text), start, np.int64)
                        ),
                        "chunk_text": chunk,
                        "chunk_len": pc.cast(pc.utf8_length(chunk), pa.int64()),
                    }
                )
            )
        if not parts:
            # chunk_text keeps the INPUT string type (string vs
            # large_string) so all-empty batches don't emit a block
            # schema different from sliced batches
            return pa.schema(
                [
                    (self.id_column, ids.type),
                    ("chunk_idx", pa.int64()),
                    ("start", pa.int64()),
                    ("chunk_text", text.type),
                    ("chunk_len", pa.int64()),
                ]
            ).empty_table()
        return pa.concat_tables(parts)


# --- cleanup / redaction (pretraining-corpus normalization) -----------------

_CTRL_RE = r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]"
_WS_RUN_RE = r"\s+"


class TextCleanStage:
    """``map_batches`` callable: canonical pretraining text cleanup —
    strip C0/DEL control chars → collapse whitespace runs to single
    spaces → trim edge spaces (all Arrow RE2 kernels), oracle-replicable
    as ``trim(regexp_replace(regexp_replace(t, ctrl, '', 'g'), '\\s+',
    ' ', 'g'), ' ')`` in DuckDB (trailing trim uses plain-space chars
    only — after the collapse all whitespace IS plain spaces,
    sidestepping the unicode-trim divergence).

    ``normalize='NFC'`` adds unicode normalization as the first step,
    OFF by default: this container's pyarrow 16.1 ``utf8_normalize``
    decomposes composed characters regardless of the requested form
    (verified: NFC of U+00E9 returns U+0065 U+0301; DuckDB
    ``nfc_normalize`` and Python ``unicodedata`` both compose), so
    enabling it here diverges from any NFC oracle — turn it on only on
    an Arrow build whose utf8proc behaves."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id",
                 out_column: str = "clean_text", normalize: str | None = None) -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.out_column = out_column
        self.normalize = normalize

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column(self.text_column), "")
        if self.normalize:
            t = pc.utf8_normalize(t, form=self.normalize)
        t = pc.replace_substring_regex(t, pattern=_CTRL_RE, replacement="")
        t = pc.replace_substring_regex(t, pattern=_WS_RUN_RE, replacement=" ")
        t = pc.utf8_trim(t, characters=" ")
        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                self.out_column: t,
                "n_chars_clean": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )


# ordered: URLs swallow embedded emails/digits first, then emails, then
# phone-shaped digit runs
REDACT_PATTERNS = (
    ("n_urls", r"https?://[^\s]+", "<URL>"),
    ("n_emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("n_phones", r"\+?[0-9][0-9()\-\s]{7,}[0-9]", "<PHONE>"),
)


class RedactStage:
    """``map_batches`` callable: PII-style redaction (URL → email →
    phone, in that order — each count is taken on the text state AFTER
    the previous replacements, so an email inside a URL counts once as
    a URL). All RE2 kernels; byte-identical to the same
    ``regexp_replace(..., 'g')`` chain in DuckDB."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id",
                 out_column: str = "redacted_text") -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.out_column = out_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column(self.text_column), "")
        out = {self.id_column: batch.column(self.id_column)}
        for count_name, pattern, repl in REDACT_PATTERNS:
            out[count_name] = pc.cast(
                pc.count_substring_regex(t, pattern=pattern), pa.int64()
            )
            t = pc.replace_substring_regex(t, pattern=pattern, replacement=repl)
        out[self.out_column] = t
        return pa.table(out)


# --- repetition quality signals (Gopher-style) -------------------------------


class RepetitionStage:
    """``map_batches`` callable: per-document n-gram repetition signals à la
    the Gopher quality-filter family (top 2-gram occupancy, duplicate
    5-gram occupancy) — template/boilerplate text scores high on both.

    Emits exact integers only (hash-exact vs a SQL oracle):
    ``n_bigrams`` / ``top_bigram_n`` (total bigram occurrences and the
    count of the most frequent bigram) and ``n_5grams`` / ``dup_5gram_n``
    (total 5-gram occurrences and how many of them belong to 5-grams seen
    more than once). Fully vectorized: one tokenize + shingle-hash pass
    per n (``dedup._distinct_shingle_hashes`` with multiplicity kept —
    row-sorted, so equal shingles form contiguous runs), then run-length
    segment math; no per-row Python."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id",
                 top_n: int = 2, dup_n: int = 5) -> None:
        self.text_column = text_column
        self.id_column = id_column
        self.top_n = top_n
        self.dup_n = dup_n

    @staticmethod
    def _run_lengths(sh: np.ndarray, rows: np.ndarray):
        """Run lengths of equal (row, shingle) pairs in row-sorted order →
        (run length per run, row of each run)."""
        if not len(sh):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        new = np.concatenate([[True], (rows[1:] != rows[:-1]) | (sh[1:] != sh[:-1])])
        starts = np.flatnonzero(new)
        lengths = np.diff(np.concatenate([starts, [len(sh)]]))
        return lengths.astype(np.int64), rows[starts]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.stages.dedup import _distinct_shingle_hashes

        col = batch.column(self.text_column).combine_chunks()
        n_rows = batch.num_rows
        out: dict[str, pa.Array] = {self.id_column: batch.column(self.id_column)}

        sh, offs = _distinct_shingle_hashes(col, self.top_n, distinct=False)
        counts = np.diff(offs).astype(np.int64)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        lens, lrows = self._run_lengths(sh, rows)
        top = np.zeros(n_rows, dtype=np.int64)
        if len(lens):
            np.maximum.at(top, lrows, lens)
        out["n_bigrams"] = pa.array(counts)
        out["top_bigram_n"] = pa.array(top)

        sh, offs = _distinct_shingle_hashes(col, self.dup_n, distinct=False)
        counts = np.diff(offs).astype(np.int64)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        lens, lrows = self._run_lengths(sh, rows)
        dup = np.zeros(n_rows, dtype=np.int64)
        if len(lens):
            rep = lens > 1
            np.add.at(dup, lrows[rep], lens[rep])
        out["n_5grams"] = pa.array(counts)
        out["dup_5gram_n"] = pa.array(dup)
        return pa.table(out)


class SentenceSplitStage:
    """map_batches callable: sentence segmentation flat-map — each doc
    explodes into one row per sentence with a per-doc 1-based index
    (corpus prep for sentence-level dedup / alignment / filtering).

    Split rule: ``[.!?]+\\s+`` (terminator run + whitespace, both
    consumed) — RE2-expressible, so a SQL oracle's
    ``string_split_regex`` tokenizes bit-identically. Fully vectorized:
    ONE ``pc.split_pattern_regex`` per batch, then numpy offset/segment
    arithmetic; empty fragments are dropped and surviving sentences
    renumbered per doc. Null/empty docs emit no rows.

    Output: ``(id_column, sent_idx, sentence, nchars)``.
    """

    _PATTERN = r"[.!?]+\s+"

    def __init__(self, text_column: str = "text", id_column: str = "doc_id") -> None:
        self.text_column = text_column
        self.id_column = id_column

    def _empty(self, ids) -> pa.Table:
        return pa.table(
            {
                self.id_column: ids.slice(0, 0),
                "sent_idx": pa.array([], pa.int64()),
                "sentence": pa.array([], pa.string()),
                "nchars": pa.array([], pa.int64()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column).combine_chunks()
        txt = pc.fill_null(batch.column(self.text_column).combine_chunks(), "")
        if batch.num_rows == 0:
            return self._empty(ids)
        parts = pc.split_pattern_regex(txt, pattern=self._PATTERN)
        flat = parts.combine_chunks() if isinstance(parts, pa.ChunkedArray) else parts
        offsets = np.asarray(flat.offsets, dtype=np.int64)
        values = flat.values  # string array of fragments
        n_frag = len(values)
        doc_of = np.repeat(
            np.arange(batch.num_rows, dtype=np.int64), np.diff(offsets)
        )
        keep = np.asarray(pc.not_equal(values, pa.scalar("")))
        if n_frag == 0 or not keep.any():
            return self._empty(ids)
        kept_doc = doc_of[keep]
        # renumber per doc AFTER dropping empties: position within the
        # doc's kept run (kept docs are contiguous in fragment order)
        first_of_run = np.concatenate([[True], kept_doc[1:] != kept_doc[:-1]])
        run_start = np.flatnonzero(first_of_run)
        idx_in_doc = np.arange(len(kept_doc)) - run_start[np.cumsum(first_of_run) - 1] + 1
        take = pa.array(np.flatnonzero(keep), pa.int64())
        sentences = values.take(take)
        return pa.table(
            {
                self.id_column: ids.take(pa.array(kept_doc, pa.int64())),
                "sent_idx": pa.array(idx_in_doc, pa.int64()),
                "sentence": sentences,
                "nchars": pc.cast(pc.utf8_length(sentences), pa.int64()),
            }
        )
