"""Generator determinism + decode-stage golden violations.

Mirrors the reference's tri-state (ok / corrupted / mismatched) fixture
tests (`/root/reference/tests/test_image.py:33-48`,
`tests/test_gltf.py:25-47`) against the synthetic clips corpus.
"""

import struct

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray import audio
from fs_schema_validator_ray.rules import AudioRule
from fs_schema_validator_ray.sources.clips import (
    PLANTS,
    ClipsConfig,
    build_clips_table,
    build_manifest_table,
    _row_params,
    generate_row,
)
from fs_schema_validator_ray.stages.decode import AudioValidateStage

CFG = ClipsConfig(n_rows=1200, rows_per_partition=300)
RULE = AudioRule(rule_id="audio_decode")


def table_for(indices):
    return build_clips_table(CFG, np.asarray(indices))


def reasons_for(idx):
    stage = AudioValidateStage(RULE)
    out = stage(table_for([idx]))
    return [r["reason"] for r in out.to_pylist()]


def test_generation_is_deterministic():
    t1 = table_for(range(50))
    t2 = table_for(range(50))
    assert t1.equals(t2)


def test_clean_rows_pass():
    # rows with no planted class produce zero decode violations
    clean = [i for i in range(100) if CFG.plant_class(i) is None][:20]
    stage = AudioValidateStage(RULE)
    out = stage(table_for(clean))
    assert out.num_rows == 0


def test_truncated_bytes():
    idx = PLANTS["truncated_bytes"]
    assert reasons_for(idx) == [
        "failed to deserialize: (AudioDecodeError) payload too short for a wave header (37 bytes)"
    ]


def test_codec_mismatch():
    idx = PLANTS["codec_mismatch"]
    (reason,) = reasons_for(idx)
    assert reason.startswith("payload is not in ")
    assert "format (got " in reason


def test_empty_bytes_decode():
    idx = PLANTS["empty_bytes"]
    assert reasons_for(idx) == [
        "failed to deserialize: (AudioDecodeError) payload too short for a wave header (0 bytes)"
    ]


def test_dur_zero():
    idx = PLANTS["dur_zero"]
    assert reasons_for(idx) == ["decoded audio contains no samples"]


def test_dur_mismatch():
    idx = PLANTS["dur_mismatch"]
    (reason,) = reasons_for(idx)
    assert "does not match declared dur_ms=" in reason


def test_garbled_transcript():
    idx = PLANTS["transcript_garbled"]
    assert reasons_for(idx) == ["transcript does not match reference"]


def test_codec_invalid_is_mismatch():
    idx = PLANTS["codec_invalid"]
    (reason,) = reasons_for(idx)
    assert reason.startswith("payload is not in mp3 format (got ")


def test_sr_plants_have_no_decode_violation():
    # sr_out_of_range / sr_null rows stay internally consistent — only the
    # scalar rules flag them
    assert reasons_for(PLANTS["sr_out_of_range"]) == []
    assert reasons_for(PLANTS["sr_null"]) == []


def test_duplicate_rows_are_exact_copies():
    idx = PLANTS["duplicate_clip_id"]
    t = table_for([idx - 1, idx])
    rows = t.to_pylist()
    assert rows[0]["clip_id"] == rows[1]["clip_id"]
    assert rows[0]["bytes"] == rows[1]["bytes"]
    assert reasons_for(idx) == []


def test_manifest_coverage():
    manifest = build_manifest_table(CFG)
    ids = set(manifest.column("clip_id").to_pylist())
    missing = CFG.planted_indices("missing_in_manifest")
    assert missing, "fixture must plant manifest gaps at this size"
    for i in missing:
        assert CFG.clip_id(i) not in ids
    # orphans exist only in the manifest
    assert sum(1 for x in ids if x.startswith("orphan-")) == CFG.n_orphan_manifest_rows
    clean = [i for i in range(CFG.n_rows) if CFG.plant_class(i) is None][:10]
    for i in clean:
        assert CFG.clip_id(i) in ids


def test_partition_column():
    t = table_for([0, 299, 300, 899])
    assert t.column("partition_id").to_pylist() == [0, 0, 1, 2]


def test_snr_violation_detected():
    # hand-build a corrupted payload: right header, noise payload
    from fs_schema_validator_ray import audio

    rng = np.random.default_rng(7)
    noise = rng.uniform(-1, 1, 3200)
    payload = audio.encode(noise, 16000, "pcm_s16le")
    batch = pa.table(
        {
            "clip_id": ["clip-0000-000000"],
            "bytes": pa.array([payload], pa.binary()),
            "sr_hz": pa.array([16000], pa.int32()),
            "dur_ms": pa.array([200], pa.int32()),
            "codec": ["pcm_s16le"],
            "transcript": [audio.reference_transcript("clip-0000-000000")],
        }
    )
    out = AudioValidateStage(RULE)(batch)
    reasons = [r["reason"] for r in out.to_pylist()]
    assert len(reasons) == 1 and "snr" in reasons[0] and "below threshold 30.0 dB" in reasons[0]


def test_wav_header_stage_verdicts():
    """Header conformance ground truth: matching declared codec, a
    mismatched tag, a corrupted byte_rate, an unknown declared codec,
    and an unparseable payload."""
    import pyarrow as pa

    from fs_schema_validator_ray import audio
    from fs_schema_validator_ray.stages.decode import WavHeaderStage

    x = np.linspace(-0.5, 0.5, 800)
    good = audio.encode(x, 16_000, "pcm_s16le")
    as_ulaw = audio.encode(x, 16_000, "ulaw")
    # corrupt byte_rate in a valid header (offset 28 in the canonical
    # RIFF/fmt layout the encoder writes)
    bad_rate = bytearray(good)
    bad_rate[28:32] = (12345).to_bytes(4, "little")
    batch = pa.table(
        {
            "clip_id": ["ok", "mismatch", "badrate", "unknown", "junk"],
            "bytes": [good, as_ulaw, bytes(bad_rate), good, b"nope"],
            "codec": ["pcm_s16le", "pcm_s16le", "pcm_s16le", "mp3", "pcm_s16le"],
        }
    )
    out = {r["clip_id"]: r for r in WavHeaderStage()(batch).to_pylist()}
    assert out["ok"] == {"clip_id": "ok", "header_ok": True,
                         "declared_match": 1, "rate_ok": 1}
    assert out["mismatch"]["declared_match"] == 0
    assert out["mismatch"]["rate_ok"] == 1  # internally consistent
    assert out["badrate"]["declared_match"] == 1
    assert out["badrate"]["rate_ok"] == 0
    assert out["unknown"]["declared_match"] == 0
    assert out["junk"] == {"clip_id": "junk", "header_ok": False,
                           "declared_match": None, "rate_ok": None}


def _reference_signal_before_trim(clip_id, sr_hz, dur_ms):
    """``audio.reference_signal`` before its index prefixes were cached
    and splitmix ran in place, frozen: every signal must equal it bit for
    bit."""
    import hashlib

    n = max(0, round(dur_ms * sr_hz / 1000))
    if n == 0:
        return np.zeros(0)
    d = hashlib.blake2s(clip_id.encode(), digest_size=32).digest()
    u = [int.from_bytes(d[i : i + 8], "little") / 2**64 for i in (8, 16, 24)]
    f1 = 80.0 + u[0] * (800.0 - 80.0)
    f2 = 800.0 + u[1] * (min(3800.0, sr_hz / 2.2) - 800.0)
    p1 = u[2] * 2 * np.pi
    p2 = (u[2] * 7919.0) % 1.0 * 2 * np.pi
    t = np.arange(n, dtype=np.float64)
    t /= sr_hz
    x = t * (2 * np.pi * f1)
    x += p1
    np.sin(x, out=x)
    x *= 0.45
    t *= 2 * np.pi * f2
    t += p2
    np.sin(t, out=t)
    t *= 0.25
    x += t
    with np.errstate(over="ignore"):
        z = np.uint64(audio._seed_for(clip_id)) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    noise = z.astype(np.float64) / 18446744073709551616.0
    noise -= 0.5
    noise *= 0.08
    x += noise
    return np.clip(x, -1.0, 1.0, out=x)


def test_reference_signal_is_bit_identical_to_the_untrimmed_one():
    """Every corpus row's signal, plus the edges: no samples, one sample,
    and signals longer than the cached index prefixes."""
    cases = [(CFG.clip_id(i), *_row_params(CFG, i)[:2]) for i in range(CFG.n_rows)]
    cases += [("edge", sr, dur) for sr in (3000, 48000) for dur in (0, 1, 683, 684, 30000)]
    for case in cases:
        got, want = audio.reference_signal(*case), _reference_signal_before_trim(*case)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case


def _parse_header_before_unpack(payload):
    """``audio._parse_header`` before its chunk ids were unpacked with
    ``struct``, frozen."""
    import struct

    if len(payload) < 44:
        raise audio.AudioDecodeError(
            f"payload too short for a wave header ({len(payload)} bytes)")
    if payload[0:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise audio.AudioDecodeError("payload is not a RIFF/WAVE container")
    pos = 12
    fmt_tag = bits = channels = sr_hz = None
    block_align = 0
    fact_samples = None
    data = None
    n = len(payload)
    while pos + 8 <= n:
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        body_start = pos + 8
        if cid == b"fmt ":
            if size < 16 or body_start + 16 > n:
                raise audio.AudioDecodeError("truncated fmt chunk")
            fmt_tag, channels, sr_hz, _, block_align, bits = struct.unpack_from(
                "<HHIIHH", payload, body_start)
        elif cid == b"fact":
            if size >= 4 and body_start + 4 <= n:
                (fact_samples,) = struct.unpack_from("<I", payload, body_start)
        elif cid == b"data":
            if body_start + size > n:
                raise audio.AudioDecodeError("truncated data chunk")
            data = payload[body_start : body_start + size]
        pos = body_start + size + (size & 1)
    if fmt_tag is None:
        raise audio.AudioDecodeError("missing fmt chunk")
    if data is None:
        raise audio.AudioDecodeError("missing data chunk")
    if channels != 1:
        raise audio.AudioDecodeError(f"only mono supported, got {channels} channels")
    return sr_hz, fmt_tag, bits, channels, data, block_align, fact_samples


def _decode_before_tables(payload):
    """``audio.decode`` before the 8-bit codecs decoded through lookup
    tables, frozen (FLAC and IMA ADPCM decode unchanged)."""
    if payload[:4] == b"fLaC":
        from fs_schema_validator_ray.functions.flac import FlacError, decode_flac

        try:
            pcm, sr_hz = decode_flac(payload)
        except FlacError as exc:
            raise audio.AudioDecodeError(f"bad flac payload: {exc}") from exc
        if pcm.ndim != 1:
            raise audio.AudioDecodeError("only mono supported")
        return pcm.astype(np.float64) / 32767.0, sr_hz, "flac"
    sr_hz, fmt, bits, _, data, block_align, fact_samples = _parse_header_before_unpack(payload)
    codec = audio._codec_name(fmt, bits)
    if codec == "pcm_s16le":
        if len(data) % 2:
            raise audio.AudioDecodeError("pcm_s16le data length is odd")
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0
    elif codec == "pcm_u8":
        x = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 127.5 - 1.0
    elif codec == "ulaw":
        x = audio._ulaw_expand(np.frombuffer(data, dtype=np.uint8))
    elif codec == "adpcm_ima":
        x = audio._ima_decode(data, block_align, fact_samples) if data else np.zeros(0)
    else:
        x = audio._alaw_expand(np.frombuffer(data, dtype=np.uint8))
    return x, sr_hz, codec


def _malformed_payloads():
    """``(payload, error message or None)``: each error ``audio.decode``
    raises (all but a multi-channel FLAC stream, which the encoder cannot
    write), and two valid layouts (an odd-sized chunk's pad byte, an empty
    data chunk)."""
    import struct

    sig = audio.reference_signal("malformed", 8000, 40)
    s16 = audio.encode(sig, 8000, "pcm_s16le")
    ulaw = audio.encode(sig, 8000, "ulaw")
    adpcm = audio.encode(sig, 8000, "adpcm_ima")
    flac = audio.encode(sig, 8000, "flac")
    fmt = s16[12:36]

    def wave(*chunks):
        body = b"WAVE" + b"".join(chunks)
        return b"RIFF" + struct.pack("<I", len(body)) + body

    def chunk(cid, body, size=None):
        return cid + struct.pack("<I", len(body) if size is None else size) + body

    def fmt_chunk(tag, channels, bits, block_align=2):
        return chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, 8000, 16000,
                                          block_align, bits))

    pcm = chunk(b"data", s16[44:])
    adpcm_fmt = fmt_chunk(17, 1, 4, block_align=256)
    return [
        (b"", "payload too short for a wave header (0 bytes)"),
        (b"fLa", "payload too short for a wave header (3 bytes)"),
        (b"fLaC", "bad flac payload: truncated metadata block header"),
        (flac[:60], "bad flac payload: bitstream exhausted"),
        (b"fLaC" + b"\0" * 50, "bad flac payload: first metadata block is not STREAMINFO"),
        (s16[:43], "payload too short for a wave header (43 bytes)"),
        (b"RIFX" + s16[4:], "payload is not a RIFF/WAVE container"),
        (s16[:8] + b"WAVX" + s16[12:], "payload is not a RIFF/WAVE container"),
        (wave(chunk(b"fmt ", b"\0" * 8), pcm), "truncated fmt chunk"),
        (wave(fmt, chunk(b"data", s16[44:100], size=4000)), "truncated data chunk"),
        (s16[:-200], "truncated data chunk"),
        (wave(chunk(b"LIST", b"x" * 40), pcm), "missing fmt chunk"),
        (wave(fmt, chunk(b"LIST", b"x" * 40)), "missing data chunk"),
        (wave(fmt_chunk(1, 2, 16), pcm), "only mono supported, got 2 channels"),
        (wave(fmt_chunk(3, 1, 32), pcm), "unknown wave format tag 3 (32 bits)"),
        (wave(fmt_chunk(1, 1, 12), pcm), "unknown wave format tag 1 (12 bits)"),
        (wave(fmt, chunk(b"data", s16[44:101])), "pcm_s16le data length is odd"),
        (wave(fmt_chunk(17, 1, 4, block_align=4), chunk(b"data", adpcm[56:64])),
         "invalid adpcm block align 4"),
        (wave(adpcm_fmt, chunk(b"data", adpcm[56:59])), "truncated adpcm block"),
        (wave(adpcm_fmt, chunk(b"data", b"\0\0\xc8" + adpcm[59:312])),
         "invalid adpcm step index 200"),
        (wave(adpcm_fmt, chunk(b"fact", struct.pack("<I", 10 ** 6)),
              chunk(b"data", adpcm[56:312])), "fact chunk claims more samples than data"),
        # valid: an odd-sized chunk and its pad byte, an empty data chunk
        (wave(fmt, chunk(b"junk", b"abc") + b"\0", pcm), None),
        (wave(ulaw[12:36], chunk(b"data", b"")), None),
    ]


def _outcome(decode, payload):
    try:
        x, sr_hz, codec = decode(payload)
    except audio.AudioDecodeError as exc:
        return ("error", str(exc))
    return (x.dtype, x.view(np.uint64).tobytes(), sr_hz, codec)


def test_decode_is_bit_identical_to_the_untabled_one():
    """Every corpus row (each codec and planted class), every codec of
    :data:`audio.CODECS` including empty signals, and every error class:
    as bytes and as the memoryviews the decode stage hands over, the same
    samples bit for bit, or the same error message."""
    t = table_for(range(CFG.n_rows))
    payloads = [p for p in t.column("bytes").to_pylist() if p is not None]
    assert {audio.decode(p)[2] for p in payloads if _outcome(audio.decode, p)[0] != "error"} == {
        "pcm_s16le", "ulaw", "alaw", "pcm_u8"}
    sig = audio.reference_signal("every-codec", 16000, 300)
    payloads += [audio.encode(x, 16000, c) for c in audio.CODECS for x in (sig, sig[:1], sig[:0])]
    malformed = _malformed_payloads()
    for payload in payloads + [p for p, _ in malformed]:
        for p in (payload, memoryview(payload)):
            assert _outcome(audio.decode, p) == _outcome(_decode_before_tables, p), bytes(p[:64])
    for payload, message in malformed:
        got = _outcome(audio.decode, memoryview(payload))
        assert (got[1] if got[0] == "error" else None) == message


def test_code_tables_equal_their_formulas():
    """Each 8-bit codec's table holds its expansion formula's value for
    every one of the 256 codes, each computed on its own."""
    for table, expand in ((audio._ULAW_TABLE, audio._ulaw_expand),
                          (audio._ALAW_TABLE, audio._alaw_expand),
                          (audio._U8_TABLE, audio._u8_expand)):
        assert table.dtype == np.float64 and table.shape == (256,)
        assert not table.flags.writeable
        for code in range(256):
            want = expand(np.array([code], np.uint8))
            assert table[code].view(np.uint64) == want.view(np.uint64)[0], code


# --- IMA ADPCM codec ---------------------------------------------------------


def test_ima_adpcm_roundtrip_snr_and_size():
    """4-bit IMA ADPCM: ~4:1 compression with ≥20 dB round-trip SNR on
    the corpus reference signal; exact length recovery via fact chunk."""
    for sr, dur in [(8000, 240), (16000, 100), (48000, 60)]:
        x = audio.reference_signal(f"clip-0000-{sr % 937:06d}", sr, dur)
        payload = audio.encode(x, sr, "adpcm_ima")
        y, sr2, codec = audio.decode(payload)
        assert (codec, sr2, len(y)) == ("adpcm_ima", sr, len(x))
        assert audio.snr_db(x, y) >= 20.0
        pcm16 = audio.encode(x, sr, "pcm_s16le")
        assert len(payload) < 0.4 * len(pcm16)


def test_ima_adpcm_malformed():
    x = audio.reference_signal("clip-0000-000009", 16000, 80)
    payload = bytearray(audio.encode(x, 16000, "adpcm_ima"))
    # corrupt the step index of the first block beyond 88
    data_off = bytes(payload).index(b"data") + 8
    payload[data_off + 2] = 200
    with pytest.raises(audio.AudioDecodeError, match="step index"):
        audio.decode(bytes(payload))
    # fact chunk claiming more samples than blocks carry
    bad = bytearray(audio.encode(x, 16000, "adpcm_ima"))
    fact_off = bytes(bad).index(b"fact") + 8
    struct.pack_into("<I", bad, fact_off, 10_000_000)
    with pytest.raises(audio.AudioDecodeError, match="fact chunk"):
        audio.decode(bytes(bad))


# --- the noise kernel's cast and decode into a buffer ------------------------


def test_the_noise_cast_equals_astype():
    """``audio._exact_float`` is numpy's uint64 → float64 cast bit for bit,
    on random words and on the words around every rounding edge."""
    rng = np.random.default_rng(64)
    edges = [0, 1, 2**32 - 1, 2**32, 2**52, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3,
             2**63 - 1, 2**63, 2**63 + 1, 2**63 + 2**10, 2**63 + 2**10 + 1,
             2**64 - 2**11, 2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 1]
    batches = [np.array(edges, np.uint64)]
    batches += [rng.integers(0, 2**64 - 1, 98_304, dtype=np.uint64, endpoint=True)
                for _ in range(8)]
    # ties: exactly half an ulp above a representable value, at every scale
    scale = rng.integers(0, 11, 4096).astype(np.uint64)
    batches.append(((rng.integers(2**52, 2**53, 4096, dtype=np.uint64) << scale)
                    | (np.uint64(1) << scale) >> np.uint64(1)))
    for z in batches:
        want = z.astype(np.float64)
        got = audio._exact_float(z.copy(), np.empty_like(z))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _codec_payloads():
    x = audio.reference_signal("clip-0000-000123", 16000, 90)
    return {codec: audio.encode(x, 16000, codec) for codec in audio.CODECS}


def test_decoding_into_a_buffer_gives_the_same_samples():
    """``out=``: samples that fit are written to ``out[:n]`` and returned;
    samples that do not fit come back in a new array; the values are the
    plain decode's, bit for bit, for every codec."""
    for codec, payload in _codec_payloads().items():
        want, sr, got_codec = audio.decode(payload)
        out = np.full(len(want) + 5, 7.0)
        got, sr2, codec2 = audio.decode(payload, out=out)
        assert (sr2, codec2) == (sr, got_codec) == (16000, codec)
        assert got.base is out and len(got) == len(want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), codec
        assert (out[len(want):] == 7.0).all()
        small = np.zeros(len(want) - 1)
        got, _, _ = audio.decode(payload, out=small)
        assert got.base is not small and not small.any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), codec


def test_binary_views_read_unsigned_bytes():
    """A FLAC payload indexes its bytes as ints: a view of the Arrow
    column must read them as ``bytes`` does, or STREAMINFO misparses."""
    from fs_schema_validator_ray.stages.decode import binary_views

    payload = _codec_payloads()["flac"]
    (view,) = binary_views(pa.array([payload], pa.binary()))
    assert list(view) == list(payload)
    got, want = audio.decode(view)[0], audio.decode(payload)[0]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- the batched audio stage against its per-row form ------------------------


def _check_row_before_batching(r, clip_id, payload, declared, sr_hz, dur_ms, transcript):
    """``AudioValidateStage._check_row`` before the stage checked a batch
    in array passes, frozen (``self.rule`` is ``r``)."""
    reasons: list[str] = []
    if payload is None:
        return ["payload is null"]
    try:
        decoded, header_sr, actual_codec = audio.decode(payload)
    except audio.AudioDecodeError as ex:
        return [f"failed to deserialize: ({type(ex).__name__}) {ex}"]

    if r.check_codec and declared is not None and declared != actual_codec:
        reasons.append(f"payload is not in {declared} format (got {actual_codec})")
        return reasons

    if len(decoded) == 0:
        reasons.append("decoded audio contains no samples")
        return reasons

    if sr_hz is not None and header_sr != sr_hz:
        reasons.append(
            f"container sample rate {header_sr} does not match declared sr_hz={sr_hz}"
        )
        return reasons

    if r.check_duration and sr_hz is not None and dur_ms is not None:
        expected = round(dur_ms * sr_hz / 1000)
        tol = max(1, round(r.duration_tolerance_ms * sr_hz / 1000))
        if abs(len(decoded) - expected) > tol:
            reasons.append(
                f"decoded length {len(decoded)} samples does not match "
                f"declared dur_ms={dur_ms} at sr_hz={sr_hz}"
            )

    if r.check_snr and not audio.snr_at_least(clip_id, header_sr, decoded, r.min_snr_db):
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
    return reasons


def _violations_before_batching(rule, batch):
    """The stage's ``__call__`` before batching, frozen, over the exact
    check alone (the certificate never changes a verdict:
    tests/test_snr_certificate.py)."""
    from fs_schema_validator_ray.report import row_violations

    def col(name):
        if name in batch.column_names:
            return batch.column(name).to_pylist()
        return [None] * batch.num_rows

    payloads = [None if p is None else memoryview(p) for p in col(rule.bytes_column)]
    transcripts = col(rule.transcript_column) if rule.check_transcript else col("")
    rows = zip(col("clip_id"), payloads, col(rule.codec_column), col(rule.sr_column),
               col(rule.dur_column), transcripts)
    return row_violations(batch, "clip_id", rule.rule_id,
                          lambda *args: _check_row_before_batching(rule, *args), rows)


def _edge_rows():
    """Rows beyond the corpus's planted classes: ADPCM and FLAC, rows
    longer than the certificate's buffer, a null clip id, ``sr_hz`` 0,
    empty, odd-length and truncated payloads, and a row failing the
    duration, SNR and transcript checks at once."""
    ref = audio.reference_signal
    s16 = audio.encode(ref("clip-e-0", 16000, 100), 16000, "pcm_s16le")
    odd = bytearray(s16[:-1])
    struct.pack_into("<I", odd, 40, len(odd) - 44)
    bad_adpcm = bytearray(audio.encode(ref("clip-e-3", 8000, 200), 8000, "adpcm_ima"))
    bad_adpcm[bytes(bad_adpcm).index(b"data") + 10] = 200
    long_sr, long_ms = 48000, 3000  # 144,000 samples: three buffer chunks
    rows = [
        ("clip-e-1", audio.encode(ref("clip-e-1", 8000, 200), 8000, "adpcm_ima"),
         "adpcm_ima", 8000, 200),
        ("clip-e-2", audio.encode(ref("clip-e-2", 22050, 150), 22050, "flac"), "flac", 22050, 150),
        ("clip-e-3", bytes(bad_adpcm), "adpcm_ima", 8000, 200),
        ("clip-e-4", audio.encode(ref("clip-e-4", 16000, 100), 16000, "flac")[:-9],
         "flac", 16000, 100),
        ("clip-e-5", audio.encode(ref("clip-e-5", long_sr, long_ms), long_sr, "pcm_s16le"),
         "pcm_s16le", long_sr, long_ms),
        ("clip-e-6", audio.encode(ref("clip-e-0", long_sr, long_ms), long_sr, "pcm_s16le"),
         "pcm_s16le", long_sr, long_ms),
        ("clip-e-7", audio.encode(ref("clip-e-7", 44100, 1500), 44100, "ulaw"),
         "ulaw", 44100, 1500),
        (None, s16, "pcm_s16le", 16000, 100),
        ("clip-e-8", audio.encode(ref("clip-e-8", 100, 500), 0, "pcm_u8"), "pcm_u8", 0, 500),
        ("clip-e-9", audio.encode(ref("clip-e-9", 100, 500), 0, "pcm_u8"), "pcm_u8", None, None),
        ("clip-e-10", b"", "pcm_s16le", 16000, 100),
        ("clip-e-11", bytes(odd), "pcm_s16le", 16000, 100),
        ("clip-e-12", s16[:200], "pcm_s16le", 16000, 100),
        ("clip-e-13", None, "pcm_s16le", 16000, 100),
        ("clip-e-14", audio.encode(ref("clip-e-0", 16000, 100), 16000, "alaw"),
         "alaw", 16000, 140),
        ("clip-e-15", audio.encode(ref("clip-e-15", 16000, 100) * 0.5, 16000, "pcm_s16le"),
         "pcm_s16le", 16000, 100),
    ]
    return pa.table({
        "clip_id": pa.array([r[0] for r in rows], pa.string()),
        "bytes": pa.array([r[1] for r in rows], pa.binary()),
        "sr_hz": pa.array([r[3] for r in rows], pa.int32()),
        "dur_ms": pa.array([r[4] for r in rows], pa.int32()),
        "codec": pa.array([r[2] for r in rows], pa.string()),
        "transcript": pa.array(["a garbled transcript" if i % 3 == 0 else None
                                for i in range(len(rows))], pa.string()),
    })


@pytest.fixture(scope="module")
def parity_table():
    from fs_schema_validator_ray.report import PARTITION_COLUMN

    corpus = build_clips_table(ClipsConfig(n_rows=1100, rows_per_partition=300),
                               np.arange(1100))
    edge = _edge_rows()
    edge = edge.append_column(PARTITION_COLUMN, pa.array([9] * edge.num_rows, pa.int32()))
    return pa.concat_tables([corpus, edge.select(corpus.column_names).cast(corpus.schema)])


PARITY_RULES = [
    AudioRule(rule_id="audio_decode"),
    AudioRule(rule_id="strict", min_snr_db=35.0, duration_tolerance_ms=0),
    AudioRule(rule_id="no_snr", check_snr=False),
    AudioRule(rule_id="loose", check_codec=False, check_transcript=False, min_snr_db=1.0),
]


@pytest.mark.parametrize("batch_size", [1, 7, 64, 512])
@pytest.mark.parametrize("rule", PARITY_RULES, ids=lambda r: r.rule_id)
def test_the_batched_stage_writes_what_the_per_row_check_wrote(
        parity_table, rule, batch_size, monkeypatch):
    """Every codec, every planted class and the edge rows, in batches of
    1 to 512 rows: the violation tables are equal."""
    assert {"pcm_s16le", "pcm_u8", "ulaw", "alaw", "adpcm_ima", "flac"} <= set(
        parity_table.column("codec").to_pylist())
    stage = AudioValidateStage(rule)
    batches = [parity_table.slice(i, batch_size)
               for i in range(0, parity_table.num_rows, batch_size)]
    got = pa.concat_tables([stage(b) for b in batches])
    monkeypatch.setattr(audio, "snr_at_least", lambda *a: False)
    want = pa.concat_tables([_violations_before_batching(rule, b) for b in batches])
    assert got.equals(want)
    if rule.check_snr:
        assert any("snr" in r for r in want.column("reason").to_pylist())


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_non_string_clip_ids_are_checked_as_before(parity_table, batch_size, monkeypatch):
    """An integer key column: the exact path raises for the row, which
    reports one ``unexpected validation error``, as before."""
    t = parity_table.slice(1000).set_column(
        0, "clip_id", pa.array(range(parity_table.num_rows - 1000), pa.int64()))
    rule = AudioRule(rule_id="audio_decode")
    batches = [t.slice(i, batch_size) for i in range(0, t.num_rows, batch_size)]
    got = pa.concat_tables([AudioValidateStage(rule)(b) for b in batches])
    monkeypatch.setattr(audio, "snr_at_least", lambda *a: False)
    want = pa.concat_tables([_violations_before_batching(rule, b) for b in batches])
    assert got.equals(want)
    assert any("unexpected validation error" in r for r in got.column("reason").to_pylist())
