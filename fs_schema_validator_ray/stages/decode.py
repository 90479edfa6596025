"""Audio payload decode validation.

Ray Data re-expression of the reference's byte-wise payload validators:

* declared-vs-actual format mismatch — ``payload is not in X format (got Y)``
  (reference ``schemas/image.py:54-74``),
* decode failure — ``failed to deserialize: (Type) msg``
  (reference ``schemas/gltf.py:38-39``),
* semantic post-decode emptiness — ``decoded audio contains no samples``
  (reference's ``file does not contain nodes``, ``gltf.py:42-44``),
* full-payload integrity — SNR ≥ threshold vs the deterministic reference
  signal and declared-duration consistency (reference's zip CRC sweep,
  ``schemas/zip.py:19-32``, generalized per the north_star invariant:
  decoded-PCM allclose SNR ≥ 30 dB + transcript equality).

Runs inside the fused per-row stage (``stages/combined.py``), which a
validation run's row-pass tasks call on batches of at most
``decode_batch_size`` rows (payload-heavy rows: 256–1024 rows works well
for ~3–13 KB clips; shrink for longer audio).

``AudioValidateStage`` checks a batch in three passes. Per row, it
decodes the payload and runs the checks before the SNR. Then one
``audio.SnrCertificate`` takes every row that reaches the SNR check: each
row decodes straight into the certificate's reused buffer, and every
~64k samples the buffer is checked in a few array passes (the tones'
block products, one splitmix noise pass, segment sums). The certificate
gives a certified lower bound on each row's SNR and never clears a row
the exact check fails. Last, per row, only a row it cannot clear (below
the threshold, or within its margin above it) pays for the exact
reference signal (``audio.reference_signal``) and ``audio.snr_db``, which
also write the violation's text; then the transcript check.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray import audio
from fs_schema_validator_ray.report import reasons_table, unexpected_error
from fs_schema_validator_ray.rules import AudioRule


def binary_views(col: pa.Array) -> list:
    """Per-row zero-copy ``memoryview`` slices of a binary column (None
    for nulls) — avoids materializing every payload as a Python ``bytes``
    object (one memcpy + allocation per row otherwise; the decode path
    only needs buffer-protocol reads)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    bufs = col.buffers()
    if len(bufs) < 3 or bufs[2] is None:
        return [None if col[i].as_py() is None else memoryview(b"") for i in range(n)]
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + n + 1]
    # an Arrow buffer's view indexes as signed bytes ("b"); payload
    # parsers read unsigned ones, as from ``bytes``
    data = memoryview(bufs[2]).cast("B")
    nulls = (
        np.asarray(col.is_null()) if col.null_count else np.zeros(n, dtype=bool)
    )
    return [
        None if nulls[i] else data[offs[i] : offs[i + 1]] for i in range(n)
    ]


class AudioValidateStage:
    """Checks a batch in three passes: per row, the checks that come
    before the SNR (``_check_head``); one :class:`audio.SnrCertificate`
    over every row that reaches it; per row again, the exact SNR for the
    rows the certificate cannot clear and the transcript
    (``_check_tail``). A row's reasons keep the checks' order, and a row
    whose check raises gets only its ``unexpected validation error``."""

    def __init__(self, rule: AudioRule, key_column: str = "clip_id") -> None:
        self.rule = rule
        self.key_column = key_column

    def _check_head(
        self,
        cert: audio.SnrCertificate | None,
        clip_id: str,
        payload: bytes | None,
        declared: str | None,
        sr_hz: int | None,
        dur_ms: int | None,
    ) -> tuple[list[str], int | None]:
        """``(reasons, container sample rate)``: the rate is None when a
        reason ended the row's checks; otherwise its samples went to
        ``cert``, decoded straight into the certificate's buffer."""
        r = self.rule
        if payload is None:
            return ["payload is null"], None
        try:
            decoded, header_sr, actual_codec = audio.decode(
                payload, out=None if cert is None else cert.out)
        except audio.AudioDecodeError as ex:
            return [f"failed to deserialize: ({type(ex).__name__}) {ex}"], None

        if r.check_codec and declared is not None and declared != actual_codec:
            return [f"payload is not in {declared} format (got {actual_codec})"], None

        if len(decoded) == 0:
            return ["decoded audio contains no samples"], None

        if sr_hz is not None and header_sr != sr_hz:
            return [
                f"container sample rate {header_sr} does not match declared sr_hz={sr_hz}"
            ], None

        reasons: list[str] = []
        if r.check_duration and sr_hz is not None and dur_ms is not None:
            expected = round(dur_ms * sr_hz / 1000)
            tol = max(1, round(r.duration_tolerance_ms * sr_hz / 1000))
            if abs(len(decoded) - expected) > tol:
                reasons.append(
                    f"decoded length {len(decoded)} samples does not match "
                    f"declared dur_ms={dur_ms} at sr_hz={sr_hz}"
                )
        if cert is not None:
            cert.add(clip_id, header_sr, decoded)
        return reasons, header_sr

    def _check_tail(
        self,
        reasons: list[str],
        clip_id: str,
        header_sr: int,
        decoded: np.ndarray | None,
        transcript: str | None,
    ) -> None:
        """Append the exact SNR check's reason, for ``decoded`` samples the
        certificate did not clear, then the transcript's."""
        r = self.rule
        if decoded is not None:
            n = len(decoded)
            ref = audio.reference_signal(clip_id, header_sr, round(n * 1000 / header_sr))
            m = min(len(ref), n)
            if m:
                snr = audio.snr_db(ref[:m], decoded[:m])
                if snr < r.min_snr_db:
                    reasons.append(
                        f"decoded audio snr {snr:.1f} dB below threshold {r.min_snr_db:.1f} dB"
                    )

        if r.check_transcript and transcript is not None:
            if transcript != audio.reference_transcript(clip_id):
                reasons.append("transcript does not match reference")

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.rule
        names = batch.column_names
        n = batch.num_rows

        def col(name):
            if name in names:
                return batch.column(name).to_pylist()
            return [None] * n

        payloads = (
            binary_views(batch.column(r.bytes_column))
            if r.bytes_column in names
            else [None] * n
        )
        clip_ids = col(self.key_column)
        transcripts = col(r.transcript_column) if r.check_transcript else [None] * n
        cert = audio.SnrCertificate(r.min_snr_db) if r.check_snr else None
        found: list[list[str]] = []
        tails: list[tuple[int, int]] = []  # (row, container sample rate)
        for i, args in enumerate(zip(
            clip_ids, payloads, col(r.codec_column), col(r.sr_column), col(r.dur_column),
        )):
            try:
                reasons, header_sr = self._check_head(cert, *args)
            except Exception as ex:  # noqa: BLE001 - see report.unexpected_error
                reasons, header_sr = [unexpected_error(ex)], None
            found.append(reasons)
            if header_sr is not None:
                tails.append((i, header_sr))
        uncleared = cert.uncleared() if cert is not None else repeat(None)
        for (i, header_sr), decoded in zip(tails, uncleared):
            try:
                self._check_tail(found[i], clip_ids[i], header_sr, decoded, transcripts[i])
            except Exception as ex:  # noqa: BLE001 - see report.unexpected_error
                found[i] = [unexpected_error(ex)]
        return reasons_table(batch, self.key_column, r.rule_id, found)


WAV_HEADER_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("header_ok", pa.bool_()),
        ("declared_match", pa.int64()),  # 1/0/NULL (cross-engine hash)
        ("rate_ok", pa.int64()),
    ]
)

#: declared codec → (WAVE fmt tag, bits) the container must carry
_WAV_TAGS = {
    "pcm_s16le": (1, 16),
    "pcm_u8": (1, 8),
    "ulaw": (7, 8),
    "alaw": (6, 8),
    "adpcm_ima": (17, 4),
}


class WavHeaderStage:
    """WAV container-header conformance — the audio analogue of the
    reference's magic-bytes-vs-declared-extension rule
    (`/root/reference/fs_schema_validator/schemas/image.py`: sniffed
    format must equal the declared one): parse the REAL fmt chunk and
    check (a) the format tag + sample width match the row's DECLARED
    codec column and (b) the header's own rate fields are internally
    consistent (``byte_rate == sr·block_align`` for the constant-rate
    codecs, the IMA block law for ADPCM). Emits ``(clip_id, header_ok,
    declared_match, rate_ok)``; unparseable headers → header_ok=false
    with NULL verdicts. Stateless map_batches; parsing is a fixed-field
    struct read per row (irreducibly per-payload, like the reference)."""

    def __init__(
        self, bytes_column: str = "bytes", key_column: str = "clip_id",
        codec_column: str = "codec",
    ) -> None:
        self.bytes_column = bytes_column
        self.key_column = key_column
        self.codec_column = codec_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray import audio

        views = binary_views(batch.column(self.bytes_column))
        keys = batch.column(self.key_column).to_pylist()
        codecs = batch.column(self.codec_column).to_pylist()
        rows = []
        for key, view, declared in zip(keys, views, codecs):
            row = {
                "clip_id": None if key is None else str(key),
                "header_ok": False,
                "declared_match": None,
                "rate_ok": None,
            }
            if view is not None and len(view) > 0:
                try:
                    f = audio.wav_header_fields(bytes(view))
                except (audio.AudioDecodeError, ValueError):
                    pass
                else:
                    row["header_ok"] = True
                    want = _WAV_TAGS.get(declared)
                    row["declared_match"] = int(
                        want is not None
                        and (f["fmt_tag"], f["bits"]) == want
                    )
                    if f["fmt_tag"] == 17:
                        spb = 1 + (f["block_align"] - 4) * 2
                        ok = (
                            spb > 0
                            and f["byte_rate"]
                            == (f["sr_hz"] * f["block_align"]) // spb
                        )
                    else:
                        ok = (
                            f["block_align"] == f["channels"] * f["bits"] // 8
                            and f["byte_rate"] == f["sr_hz"] * f["block_align"]
                        )
                    row["rate_ok"] = int(ok)
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=WAV_HEADER_SCHEMA)
