"""Generator determinism + decode-stage golden violations.

Mirrors the reference's tri-state (ok / corrupted / mismatched) fixture
tests (`/root/reference/tests/test_image.py:33-48`,
`tests/test_gltf.py:25-47`) against the synthetic clips corpus.
"""

import numpy as np
import pyarrow as pa

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
