"""Content-defined chunking (CDC) dedup over binary payloads.

Storage-level dedup for a multimodal corpus: split each payload at
boundaries chosen by the CONTENT (a rolling hash hitting a target
residue), not by fixed offsets, so an insertion near the front of a
payload shifts only the chunks it touches — every later chunk re-aligns
and keeps its hash (the LBFS/rsync/FastCDC idea). Identical audio
segments embedded in different clips then share chunk hashes, which a
single bucketed groupby turns into corpus-level dedup statistics.

Mechanics (all vectorized, reusing the substring-dedup Karp-Rabin
kernel ``stages/dedup.py::_window_hashes``):

* candidate boundary after byte ``i`` when the 64-bit mixed rolling
  hash of the trailing ``window`` bytes ≡ ``divisor − 1 (mod divisor)``
  — expected chunk size ≈ ``divisor`` bytes;
* ``min_size``/``max_size`` enforced over the (sparse, ~n/divisor)
  candidate list — the only per-payload Python loop runs over
  candidates, not bytes;
* chunk hashes come from the SAME prefix-sum arrays: hash of bytes
  ``[s, e)`` = ``(pref[e] − pref[s]) · B^{−s}`` (position-independent,
  variable length), finalized with a 64-bit mixer — the same
  128→64-bit-fingerprint collision regime as the exact-dedup family.

Scale notes (10¹² clips): chunking is a stateless ``map_batches`` pass
(payload bytes never leave the task); the only exchange carries
``(chunk_hash, length)`` rows pre-aggregated per block
(``group_sum``), bounded by distinct chunks per block — never
raw bytes. Dedup ratio is a two-scalar reduce over that table."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.stages.dedup import (
    _KR_BASE,
    _KR_BASE_INV,
    _mix64,
    _window_hashes,
)


def _chunk_payload(
    data: np.ndarray,
    window: int,
    min_size: int,
    avg_size: int,
    max_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(cut_ends, chunk_hashes) for one uint8 payload. ``cut_ends`` are
    exclusive end offsets; chunk i spans [cut_ends[i-1], cut_ends[i])."""
    n = len(data)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    divisor = np.uint64(avg_size)
    h = _window_hashes(data, window)
    cand = np.nonzero(h % divisor == divisor - np.uint64(1))[0] + window
    cuts: list[int] = []
    start = 0
    for c in cand.tolist():
        while c - start > max_size:
            cuts.append(start + max_size)
            start += max_size
        if c - start < min_size:
            continue
        cuts.append(c)
        start = c
    while n - start > max_size:
        cuts.append(start + max_size)
        start += max_size
    if start < n:
        cuts.append(n)
    ends = np.asarray(cuts, np.int64)

    # variable-length chunk hashes from one prefix-sum pass
    with np.errstate(over="ignore"):
        powers = np.empty(n, np.uint64)
        powers[0] = 1
        inv_powers = np.empty(n, np.uint64)
        inv_powers[0] = 1
        if n > 1:
            np.multiply.accumulate(np.full(n - 1, _KR_BASE, np.uint64), out=powers[1:])
            np.multiply.accumulate(
                np.full(n - 1, _KR_BASE_INV, np.uint64), out=inv_powers[1:]
            )
        pref = np.concatenate(
            [np.zeros(1, np.uint64), np.cumsum(data.astype(np.uint64) * powers)]
        )
        starts = np.concatenate([np.zeros(1, np.int64), ends[:-1]])
        raw = (pref[ends] - pref[starts]) * inv_powers[starts]
        # fold the length in so equal-content-different-length prefixes
        # of the zero byte cannot alias
        hashes = _mix64(raw ^ (ends - starts).astype(np.uint64))
    return ends, hashes


class CdcChunkStage:
    """map_batches callable: ``(id, payload)`` batch → one row per
    chunk ``(id, chunk_ix, offset, length, chunk_hash)`` —
    the hash emitted as an int64 bit-cast (exchange keys are int64)."""

    def __init__(
        self,
        payload_column: str = "bytes",
        id_column: str = "clip_id",
        window: int = 48,
        min_size: int = 256,
        avg_size: int = 1024,
        max_size: int = 4096,
    ):
        if not (0 < window <= min_size <= avg_size <= max_size):
            raise ValueError("need 0 < window <= min_size <= avg_size <= max_size")
        self.payload_column = payload_column
        self.id_column = id_column
        self.window = window
        self.min_size = min_size
        self.avg_size = avg_size
        self.max_size = max_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column).to_pylist()
        payloads = batch.column(self.payload_column).to_pylist()
        out_id, out_ix, out_off, out_len, out_h = [], [], [], [], []
        for rid, p in zip(ids, payloads):
            buf = np.frombuffer(p or b"", np.uint8)
            ends, hashes = _chunk_payload(
                buf, self.window, self.min_size, self.avg_size, self.max_size
            )
            k = len(ends)
            if k == 0:
                continue
            starts = np.concatenate([np.zeros(1, np.int64), ends[:-1]])
            out_id.extend([rid] * k)
            out_ix.append(np.arange(k, dtype=np.int32))
            out_off.append(starts)
            out_len.append(ends - starts)
            out_h.append(hashes)
        cat = lambda parts, dt: (  # noqa: E731
            np.concatenate(parts) if parts else np.zeros(0, dt)
        )
        return pa.table(
            {
                self.id_column: pa.array(
                    out_id, type=batch.column(self.id_column).type
                ),
                "chunk_ix": pa.array(cat(out_ix, np.int32), pa.int32()),
                "offset": pa.array(cat(out_off, np.int64), pa.int64()),
                "length": pa.array(cat(out_len, np.int64), pa.int64()),
                "chunk_hash": pa.array(
                    cat(out_h, np.uint64).view(np.int64), pa.int64()
                ),
            }
        )


def cdc_chunks(ds, payload_column="bytes", id_column="clip_id", **kw):
    """Chunk every payload: one stateless streaming pass."""
    return ds.select_columns([id_column, payload_column]).map_batches(
        CdcChunkStage(payload_column, id_column, **kw), batch_format="pyarrow"
    )


def cdc_dedup_stats(ds, payload_column="bytes", id_column="clip_id", **kw):
    """Corpus-level CDC dedup table: per distinct chunk hash, its chunk
    length, how many copies exist and the stored-vs-logical byte ratio
    inputs. Exchange payload = pre-aggregated ``(chunk_hash, length,
    copies)`` rows (``group_sum``), never chunk bytes."""
    from fs_schema_validator_ray.stages.agg import group_sum

    chunks = cdc_chunks(ds, payload_column, id_column, **kw)

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = (
            t.select(["chunk_hash", "length"])
            .group_by("chunk_hash")
            .aggregate([("length", "max"), ("length", "count")])
        )
        return pa.table(
            {
                "chunk_hash": g.column("chunk_hash"),
                "length": g.column("length_max"),
                "copies": pc.cast(g.column("length_count"), pa.int64()),
            }
        )

    # max(length) per hash is constant across blocks (same hash ⇒ same
    # content ⇒ same length up to 64-bit collision), so summing copies
    # and keeping length via max-as-sum needs a per-hash single length:
    # emit length*copies as stored bytes numerator instead.
    def partial2(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        p = partial(t)
        return pa.table(
            {
                "chunk_hash": p.column("chunk_hash"),
                "copies": p.column("copies"),
                "logical_bytes": pc.cast(
                    pc.multiply(p.column("length"), p.column("copies")), pa.int64()
                ),
            }
        )

    merged = group_sum(
        chunks.map_batches(partial2, batch_format="pyarrow"),
        ["chunk_hash"],
        ["copies", "logical_bytes"],
    )
    # drop group_sum's per-key partial-row count ("n" = blocks
    # the hash appeared in) — not a dedup statistic
    return merged.map_batches(
        lambda t: t.drop_columns(["n"]), batch_format="pyarrow"
    )
