"""Audio payload codecs + deterministic reference synthesis.

The data-plane analogue of the reference's byte-wise payload validators
(images `/root/reference/fs_schema_validator/schemas/image.py`, glTF
`schemas/gltf.py`, zip `schemas/zip.py`): a clip's ``bytes`` column holds a
RIFF/WAVE container whose fmt tag declares the actual codec — the header
plays the role of the image magic bytes (declared-vs-actual format
mismatch detection), decode failure the role of glTF deserialization
errors, and SNR-vs-reference the role of the zip CRC sweep.

Codecs are implemented with numpy only (no soundfile in the sandbox):

* ``pcm_s16le`` — 16-bit little-endian PCM (WAVE format tag 1)
* ``pcm_u8``   — 8-bit unsigned PCM (format tag 1, 8 bits)
* ``ulaw``     — ITU-T G.711 μ-law companding (format tag 7)
* ``alaw``     — ITU-T G.711 A-law companding (format tag 6)

The reference PCM for the SNR ≥ 30 dB invariant is re-synthesizable from
``clip_id`` alone (seeded sine + noise mixture), so workers never need a
second copy of the corpus.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


class AudioDecodeError(ValueError):
    """Payload cannot be parsed as a RIFF/WAVE container."""


CODECS = ("pcm_s16le", "pcm_u8", "ulaw", "alaw", "adpcm_ima", "flac")

_FMT_PCM = 1
_FMT_ALAW = 6
_FMT_ULAW = 7
_FMT_IMA_ADPCM = 17  # DVI/IMA ADPCM (WAVE format tag 0x0011)

# IMA ADPCM tables (public spec constants — IMA "Recommended Practices
# for Enhancing Digital Audio Compatibility", also Microsoft WAVE 0x11)
_IMA_STEPS = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
        34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
        143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
        494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411,
        1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026,
        4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442,
        11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
        27086, 29794, 32767,
    ],
    dtype=np.int32,
)
_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)
_IMA_BLOCK_ALIGN = 256  # 4-byte block header + 252 data bytes → 505 samples

_MU = 255.0
_A = 87.6
_LN_A = 1.0 + np.log(_A)


# --- G.711-style companding (continuous-law variants, numpy-vectorized) ----


def _ulaw_compress(x: np.ndarray) -> np.ndarray:
    """float [-1,1] → uint8 μ-law code."""
    y = np.sign(x) * np.log1p(_MU * np.abs(x)) / np.log1p(_MU)
    return np.clip(np.round((y + 1.0) * 127.5), 0, 255).astype(np.uint8)


def _ulaw_expand(code: np.ndarray) -> np.ndarray:
    y = code.astype(np.float64) / 127.5 - 1.0
    return np.sign(y) * np.expm1(np.abs(y) * np.log1p(_MU)) / _MU


def _alaw_compress(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    small = ax < (1.0 / _A)
    y = np.where(small, _A * ax / _LN_A, (1.0 + np.log(np.maximum(_A * ax, 1.0))) / _LN_A)
    y = np.sign(x) * y
    return np.clip(np.round((y + 1.0) * 127.5), 0, 255).astype(np.uint8)


def _alaw_expand(code: np.ndarray) -> np.ndarray:
    y = code.astype(np.float64) / 127.5 - 1.0
    ay = np.abs(y)
    small = ay < (1.0 / _LN_A)
    x = np.where(small, ay * _LN_A / _A, np.exp(ay * _LN_A - 1.0) / _A)
    return np.sign(y) * x


def _u8_expand(code: np.ndarray) -> np.ndarray:
    return code.astype(np.float64) / 127.5 - 1.0


def _code_table(expand) -> np.ndarray:
    """``expand`` over all 256 8-bit codes, read-only: decoding an 8-bit
    codec is one lookup a sample instead of the formula's passes."""
    table = expand(np.arange(256, dtype=np.uint8))
    table.setflags(write=False)
    return table


_ULAW_TABLE = _code_table(_ulaw_expand)
_ALAW_TABLE = _code_table(_alaw_expand)
_U8_TABLE = _code_table(_u8_expand)
_CODE_TABLES = {"pcm_u8": _U8_TABLE, "ulaw": _ULAW_TABLE, "alaw": _ALAW_TABLE}


# --- IMA ADPCM (4-bit adaptive differential PCM, sequential by nature) ------


def _ima_encode(pcm16: np.ndarray, block_align: int = _IMA_BLOCK_ALIGN) -> bytes:
    """int16 samples → IMA ADPCM block bytes (4-byte header: predictor
    int16, step index u8, reserved u8; then 2 samples per byte, low
    nibble first)."""
    spb = 1 + (block_align - 4) * 2
    n = len(pcm16)
    nb = -(-n // spb)
    blocks = np.zeros((nb, spb), dtype=np.int32)
    blocks.reshape(-1)[:n] = np.asarray(pcm16, dtype=np.int32)
    body, _recon = _ima_encode_blocks(blocks, block_align)
    return body.tobytes()


def _ima_encode_blocks(
    blocks: np.ndarray, block_align: int = _IMA_BLOCK_ALIGN
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized-across-blocks core: ``(nb, spb) int32`` samples →
    ``((nb, block_align) uint8 bodies, (nb, spb) int32 reconstruction)``.
    The quantizer is sequential WITHIN a block, but every block header
    restarts (predictor, index) — so the loop runs over the
    samples-per-block axis with numpy vectors ACROSS all blocks (~500
    small vector steps instead of one Python step per sample). The
    returned reconstruction equals the decoder's output exactly (the
    encoder tracks the decoder's predictor), so SNR audits need no
    second decode. Blocks from MANY clips can stack into one call — the
    batching the transcode stage uses."""
    nb, spb = blocks.shape
    steps = _IMA_STEPS.astype(np.int32)
    idx_tab = _IMA_INDEX
    pred = blocks[:, 0].copy()
    # per-block initial step index ≈ the block's mean |first difference|
    # (stored in the header; avoids the slow re-adaptation from step 7
    # that a zero start costs at every block boundary)
    if spb > 1:
        mean_delta = np.abs(np.diff(blocks, axis=1)).mean(axis=1)
        index = np.clip(
            np.searchsorted(_IMA_STEPS, mean_delta), 0, 88
        ).astype(np.int32)
    else:
        index = np.zeros(nb, dtype=np.int32)
    index0 = index.copy()
    recon = np.empty((nb, spb), dtype=np.int32)
    recon[:, 0] = pred
    nibbles = np.zeros((nb, spb - 1), dtype=np.uint8)
    for t in range(1, spb):
        step = steps[index]
        delta = blocks[:, t] - pred
        sign = delta < 0
        ad = np.abs(delta)
        c4 = ad >= step
        ad = ad - np.where(c4, step, 0)
        half = step >> 1
        c2 = ad >= half
        ad = ad - np.where(c2, half, 0)
        quarter = step >> 2
        c1 = ad >= quarter
        code = (
            sign.astype(np.uint8) * 8
            + c4.astype(np.uint8) * 4
            + c2.astype(np.uint8) * 2
            + c1.astype(np.uint8)
        )
        # reconstruct exactly like the decoder (predictor tracks it)
        diff = (step >> 3) + np.where(c1, quarter, 0) + np.where(c2, half, 0)
        diff = diff + np.where(c4, step, 0)
        pred = np.clip(np.where(sign, pred - diff, pred + diff), -32768, 32767)
        index = np.clip(index + idx_tab[code & 7], 0, 88)
        nibbles[:, t - 1] = code
        recon[:, t] = pred
    if nibbles.shape[1] & 1:
        nibbles = np.concatenate(
            [nibbles, np.zeros((nb, 1), np.uint8)], axis=1
        )
    packed = nibbles[:, 0::2] | (nibbles[:, 1::2] << 4)
    data_len = block_align - 4
    body = np.zeros((nb, block_align), dtype=np.uint8)
    body[:, 0] = (blocks[:, 0] & 0xFF).astype(np.uint8)
    body[:, 1] = ((blocks[:, 0] >> 8) & 0xFF).astype(np.uint8)
    body[:, 2] = index0.astype(np.uint8)  # per-block quantizer restart
    body[:, 4 : 4 + min(packed.shape[1], data_len)] = packed[:, :data_len]
    return body, recon


def encode_adpcm_many(
    signals: list, sr_list: list[int]
) -> tuple[list[bytes], list[np.ndarray]]:
    """Batch IMA-ADPCM transcode: stack EVERY clip's blocks into one
    ``_ima_encode_blocks`` call (the vectorization axis is total blocks
    across the batch, not the ~20 blocks of one clip). Returns
    ``(wav_payloads, reconstructed_float_signals)`` — the recon comes
    free from the encoder, so the SNR audit costs no second decode."""
    ba = _IMA_BLOCK_ALIGN
    spb = 1 + (ba - 4) * 2
    pcm = [
        np.round(np.clip(np.asarray(x, np.float64), -1.0, 1.0) * 32767.0).astype(
            np.int32
        )
        for x in signals
    ]
    counts = [(-(-len(p) // spb)) if len(p) else 0 for p in pcm]
    total = sum(counts)
    payloads: list[bytes] = []
    recons: list[np.ndarray] = []
    if total == 0:
        return (
            [encode(np.zeros(0), sr, "adpcm_ima") for sr in sr_list],
            [np.zeros(0) for _ in signals],
        )
    big = np.zeros((total, spb), dtype=np.int32)
    row = 0
    for p, c in zip(pcm, counts):
        if c:
            big[row : row + c].reshape(-1)[: len(p)] = p
        row += c
    bodies, recon = _ima_encode_blocks(big, ba)
    row = 0
    for p, c, sr in zip(pcm, counts, sr_list):
        n = len(p)
        data = bodies[row : row + c].tobytes()
        fact = b"fact" + struct.pack("<II", 4, n)
        byte_rate = (sr * ba) // spb
        header = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 36 + len(fact) + len(data)),
                b"WAVE",
                b"fmt ",
                struct.pack(
                    "<IHHIIHH", 16, _FMT_IMA_ADPCM, 1, sr, byte_rate, ba, 4
                ),
                fact,
                b"data",
                struct.pack("<I", len(data)),
            ]
        )
        payloads.append(header + data)
        recons.append(
            recon[row : row + c].reshape(-1)[:n].astype(np.float64) / 32767.0
        )
        row += c
    return payloads, recons


def _ima_decode(
    data: bytes, block_align: int, n_samples: int | None, dst: np.ndarray | None = None
) -> np.ndarray:
    if block_align < 5:
        raise AudioDecodeError(f"invalid adpcm block align {block_align}")
    if len(data) % block_align:
        # trailing partial block: decode what is whole, reject a fragment
        # that cannot even hold a header
        if len(data) % block_align < 5:
            raise AudioDecodeError("truncated adpcm block")
    raw = np.frombuffer(data, dtype=np.uint8)
    nb = len(raw) // block_align
    if nb == 0:
        raise AudioDecodeError("truncated adpcm block")
    body = raw[: nb * block_align].reshape(nb, block_align)
    pred = (
        body[:, 0].astype(np.int32) | (body[:, 1].astype(np.int32) << 8)
    )
    pred = np.where(pred >= 32768, pred - 65536, pred)
    index = body[:, 2].astype(np.int32)
    if (index > 88).any():
        raise AudioDecodeError(
            f"invalid adpcm step index {int(index.max())}"
        )
    nib_bytes = body[:, 4:]
    nibbles = np.empty((nb, nib_bytes.shape[1] * 2), dtype=np.uint8)
    nibbles[:, 0::2] = nib_bytes & 0x0F
    nibbles[:, 1::2] = nib_bytes >> 4
    spb = 1 + (block_align - 4) * 2
    steps = _IMA_STEPS.astype(np.int32)
    idx_tab = _IMA_INDEX
    out = np.empty((nb, spb), dtype=np.int32)
    out[:, 0] = pred
    for t in range(spb - 1):
        code = nibbles[:, t]
        step = steps[index]
        diff = (
            (step >> 3)
            + np.where(code & 1, step >> 2, 0)
            + np.where(code & 2, step >> 1, 0)
            + np.where(code & 4, step, 0)
        )
        pred = np.clip(
            np.where(code & 8, pred - diff, pred + diff), -32768, 32767
        )
        index = np.clip(index + idx_tab[code & 7], 0, 88)
        out[:, t + 1] = pred
    pcm = out.reshape(-1)
    if n_samples is not None:
        if n_samples > len(pcm):
            raise AudioDecodeError("fact chunk claims more samples than data")
        pcm = pcm[:n_samples]
    return np.divide(pcm, 32767.0, out=_samples(dst, len(pcm)))


# --- RIFF/WAVE container ---------------------------------------------------


def encode(samples: np.ndarray, sr_hz: int, codec: str) -> bytes:
    """Encode float samples in [-1, 1] into a mono WAVE payload."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    fact = b""
    if codec == "pcm_s16le":
        fmt, bits = _FMT_PCM, 16
        data = np.round(x * 32767.0).astype("<i2").tobytes()
        block_align = 2
    elif codec == "pcm_u8":
        fmt, bits = _FMT_PCM, 8
        data = (np.round((x + 1.0) * 127.5)).clip(0, 255).astype(np.uint8).tobytes()
        block_align = 1
    elif codec == "ulaw":
        fmt, bits = _FMT_ULAW, 8
        data = _ulaw_compress(x).tobytes()
        block_align = 1
    elif codec == "alaw":
        fmt, bits = _FMT_ALAW, 8
        data = _alaw_compress(x).tobytes()
        block_align = 1
    elif codec == "adpcm_ima":
        fmt, bits = _FMT_IMA_ADPCM, 4
        pcm16 = np.round(x * 32767.0).astype(np.int16)
        data = _ima_encode(pcm16) if len(pcm16) else b""
        block_align = _IMA_BLOCK_ALIGN
        # fact chunk carries the true sample count (last block may pad)
        fact = b"fact" + struct.pack("<II", 4, len(pcm16))
    elif codec == "flac":
        # native FLAC container (not RIFF) — the lossless member of the
        # codec family, from-scratch in functions/flac.py
        from fs_schema_validator_ray.functions.flac import encode_flac

        return encode_flac(np.round(x * 32767.0).astype(np.int16), sr_hz)
    else:
        raise ValueError(f"unknown codec `{codec}`")

    byte_rate = sr_hz * block_align if fmt != _FMT_IMA_ADPCM else (
        sr_hz * block_align
    ) // (1 + (block_align - 4) * 2)
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(fact) + len(data)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, fmt, 1, sr_hz, byte_rate, block_align, bits),
            fact,
            b"data",
            struct.pack("<I", len(data)),
        ]
    )
    return header + data


def _codec_name(fmt: int, bits: int) -> str:
    if fmt == _FMT_PCM and bits == 16:
        return "pcm_s16le"
    if fmt == _FMT_PCM and bits == 8:
        return "pcm_u8"
    if fmt == _FMT_ULAW:
        return "ulaw"
    if fmt == _FMT_ALAW:
        return "alaw"
    if fmt == _FMT_IMA_ADPCM:
        return "adpcm_ima"
    raise AudioDecodeError(f"unknown wave format tag {fmt} ({bits} bits)")


def _parse_header(payload: bytes) -> tuple[int, int, int, int, bytes, int, int | None]:
    """Returns (sr_hz, fmt_tag, bits, channels, data, block_align,
    fact_samples)."""
    if len(payload) < 44:
        raise AudioDecodeError(f"payload too short for a wave header ({len(payload)} bytes)")
    # chunk ids unpacked as bytes: a payload is often a memoryview, and
    # comparing its slices to bytes made this parse ~12x slower (1 vCPU,
    # clips corpus headers: 16 µs vs 1.3 µs)
    riff, _, wave = struct.unpack_from("<4sI4s", payload)
    if riff != b"RIFF" or wave != b"WAVE":
        raise AudioDecodeError("payload is not a RIFF/WAVE container")
    pos = 12
    fmt_tag = bits = channels = sr_hz = None
    block_align = 0
    fact_samples = None
    data = None
    n = len(payload)
    while pos + 8 <= n:
        cid, size = struct.unpack_from("<4sI", payload, pos)
        body_start = pos + 8
        if cid == b"fmt ":
            if size < 16 or body_start + 16 > n:
                raise AudioDecodeError("truncated fmt chunk")
            fmt_tag, channels, sr_hz, _, block_align, bits = struct.unpack_from(
                "<HHIIHH", payload, body_start
            )
        elif cid == b"fact":
            if size >= 4 and body_start + 4 <= n:
                (fact_samples,) = struct.unpack_from("<I", payload, body_start)
        elif cid == b"data":
            if body_start + size > n:
                raise AudioDecodeError("truncated data chunk")
            data = payload[body_start : body_start + size]
        pos = body_start + size + (size & 1)
    if fmt_tag is None:
        raise AudioDecodeError("missing fmt chunk")
    if data is None:
        raise AudioDecodeError("missing data chunk")
    if channels != 1:
        raise AudioDecodeError(f"only mono supported, got {channels} channels")
    return sr_hz, fmt_tag, bits, channels, data, block_align, fact_samples


def wav_header_fields(payload: bytes) -> dict:
    """Raw fmt-chunk fields for header-conformance validation (no
    decode): ``{fmt_tag, channels, sr_hz, byte_rate, block_align,
    bits}``. Raises :class:`AudioDecodeError` like :func:`decode`."""
    if len(payload) < 44:
        raise AudioDecodeError("payload too short for a wave header")
    if payload[0:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise AudioDecodeError("payload is not a RIFF/WAVE container")
    pos = 12
    n = len(payload)
    while pos + 8 <= n:
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        body = pos + 8
        if cid == b"fmt ":
            if size < 16 or body + 16 > n:
                raise AudioDecodeError("truncated fmt chunk")
            fmt_tag, channels, sr_hz, byte_rate, block_align, bits = (
                struct.unpack_from("<HHIIHH", payload, body)
            )
            return {
                "fmt_tag": fmt_tag,
                "channels": channels,
                "sr_hz": sr_hz,
                "byte_rate": byte_rate,
                "block_align": block_align,
                "bits": bits,
            }
        pos = body + size + (size & 1)
    raise AudioDecodeError("missing fmt chunk")


def _samples(out: np.ndarray | None, n: int) -> np.ndarray:
    """Where ``n`` decoded samples go: ``out[:n]`` when they fit in
    ``out``, else a new float64 array."""
    return out[:n] if out is not None and n <= len(out) else np.empty(n)


def decode(payload: bytes, out: np.ndarray | None = None) -> tuple[np.ndarray, int, str]:
    """Decode a WAVE (or native-FLAC) payload → (float64 samples in
    [-1,1], sr_hz, codec). With ``out`` (float64), samples that fit in it
    are written to ``out[:n]``, which is what is returned; the same
    values either way."""
    if len(payload) >= 4 and struct.unpack_from("4s", payload)[0] == b"fLaC":
        from fs_schema_validator_ray.functions.flac import FlacError, decode_flac

        try:
            pcm, sr_hz = decode_flac(payload)
        except FlacError as exc:
            raise AudioDecodeError(f"bad flac payload: {exc}") from exc
        if pcm.ndim != 1:
            raise AudioDecodeError("only mono supported")
        return np.divide(pcm, 32767.0, out=_samples(out, len(pcm))), sr_hz, "flac"
    sr_hz, fmt, bits, _, data, block_align, fact_samples = _parse_header(payload)
    codec = _codec_name(fmt, bits)
    if codec == "pcm_s16le":
        if len(data) % 2:
            raise AudioDecodeError("pcm_s16le data length is odd")
        x = np.divide(np.frombuffer(data, dtype="<i2"), 32767.0,
                      out=_samples(out, len(data) // 2))
    elif codec == "adpcm_ima":
        x = _ima_decode(data, block_align, fact_samples, out) if data else np.zeros(0)
    else:
        # 8-bit codecs: one table lookup a sample ("clip" never clips a
        # uint8 code, and unlike "raise" it writes ``out`` unbuffered)
        x = np.take(_CODE_TABLES[codec], np.frombuffer(data, dtype=np.uint8),
                    out=_samples(out, len(data)), mode="clip")
    return x, sr_hz, codec


# --- deterministic reference synthesis ------------------------------------


def _seed_for(clip_id: str) -> int:
    return int.from_bytes(hashlib.blake2s(clip_id.encode(), digest_size=8).digest(), "little")


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_SH30, _SH27, _SH31 = np.uint64(30), np.uint64(27), np.uint64(31)


#: reference signals of up to this many samples slice two cached index
#: prefixes, 256 KiB each (the clips corpus's longest signal is under 16k
#: samples): the sample positions ``0..n-1`` as float64, and splitmix64's
#: counter steps ``i * GAMMA`` for ``i = 1..n``
_PREFIX_SAMPLES = 1 << 15
_POSITIONS = np.arange(_PREFIX_SAMPLES, dtype=np.float64)
_STEPS = np.arange(1, _PREFIX_SAMPLES + 1, dtype=np.uint64) * _SM_GAMMA
_POSITIONS.setflags(write=False)
_STEPS.setflags(write=False)


#: the exact uint64 → float64 cast: each word's high and low 32 bits go
#: into the mantissas of 2**84 and 2**52
_SH32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_EXP84 = np.uint64(0x4530000000000000)
_EXP52 = np.uint64(0x4330000000000000)


def _exact_float(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``z.astype(np.float64)`` bit for bit, in ``out``'s memory (``z`` is
    clobbered): ``(2**84 + hi·2**32) − (2**84 + 2**52)`` is exact, and
    adding ``2**52 + lo`` rounds ``hi·2**32 + lo`` once. Unlike numpy's
    branchy unsigned-to-float cast, every step is a plain array pass (~2×
    faster on random words)."""
    np.right_shift(z, _SH32, out=out)
    out |= _EXP84
    z &= _LOW32
    z |= _EXP52
    x = out.view(np.float64)
    x -= 2.0**84 + 2.0**52
    x += z.view(np.float64)
    return x


def _uniforms(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over the counters ``z`` → uniforms in
    [0,1), returned in ``tmp``'s memory (``z`` is clobbered). The one
    noise kernel: every reference signal and the certificate go through
    it. uint64 array arithmetic wraps without a warning."""
    np.right_shift(z, _SH30, out=tmp)
    z ^= tmp
    z *= _SM_M1
    np.right_shift(z, _SH27, out=tmp)
    z ^= tmp
    z *= _SM_M2
    np.right_shift(z, _SH31, out=tmp)
    z ^= tmp
    u = _exact_float(z, tmp)
    u *= 2.0**-64  # exact: a power of two
    return u


def _splitmix_uniform(seed: int, n: int) -> np.ndarray:
    """n deterministic uniforms in [0,1): counter-based splitmix64,
    fully vectorized over positions (~ns/elem; no generator object to
    initialize — RNG-object setup was ~40% of the per-row decode cost)."""
    steps = (_STEPS[:n] if n <= _PREFIX_SAMPLES
             else np.arange(1, n + 1, dtype=np.uint64) * _SM_GAMMA)
    z = steps + np.uint64(seed)
    return _uniforms(z, np.empty_like(z))


def _reference_length(sr_hz: int, dur_ms: int) -> int:
    """Samples in the reference signal of ``dur_ms`` at ``sr_hz``."""
    return max(0, round(dur_ms * sr_hz / 1000))


def _tones(clip_id: str, sr_hz: int) -> tuple[float, float, float, float]:
    """The reference's two tones ``(f1, f2, p1, p2)``: frequencies in Hz
    and phases in radians, from ``clip_id``'s digest."""
    d = hashlib.blake2s(clip_id.encode(), digest_size=32).digest()
    u = [int.from_bytes(d[i : i + 8], "little") / 2**64 for i in (8, 16, 24)]
    f1 = 80.0 + u[0] * (800.0 - 80.0)
    f2 = 800.0 + u[1] * (min(3800.0, sr_hz / 2.2) - 800.0)
    p1 = u[2] * 2 * np.pi
    p2 = (u[2] * 7919.0) % 1.0 * 2 * np.pi
    return f1, f2, p1, p2


def _noise(clip_id: str, n: int) -> np.ndarray:
    """The reference's first ``n`` noise samples: uniform in ±0.04."""
    noise = _splitmix_uniform(_seed_for(clip_id), n)
    noise -= 0.5
    noise *= 0.08
    return noise


def reference_signal(clip_id: str, sr_hz: int, dur_ms: int) -> np.ndarray:
    """Deterministic sine+noise mixture parameterized by ``clip_id`` alone
    (FIXTURES.md §1) — the per-row invariant baseline for SNR ≥ 30 dB.

    All randomness is digest/counter-derived (no RNG object): in the hot
    decode path this function runs once per row, and allocator traffic +
    generator init were the scaling bottleneck at full-node parallelism.
    """
    n = _reference_length(sr_hz, dur_ms)
    if n == 0:
        return np.zeros(0)
    f1, f2, p1, p2 = _tones(clip_id, sr_hz)
    # in-place: 0.45*sin(2πf1·t+p1) + 0.25*sin(2πf2·t+p2) + 0.04*noise
    t = (_POSITIONS[:n] if n <= _PREFIX_SAMPLES else np.arange(n, dtype=np.float64)) / sr_hz
    x = t * (2 * np.pi * f1)
    x += p1
    np.sin(x, out=x)
    x *= 0.45
    t *= 2 * np.pi * f2
    t += p2
    np.sin(t, out=t)
    t *= 0.25
    x += t
    x += _noise(clip_id, n)
    return np.core.umath.clip(x, -1.0, 1.0, out=x)


#: the certificate synthesizes each tone in blocks of this many samples
_BLOCK = 64
_OFFSETS = np.arange(_BLOCK, dtype=np.float64)
_OFFSETS.setflags(write=False)
#: the tones' weights, one per row of the certificate's block product
_WEIGHTS = np.array([[0.45], [0.25], [0.45], [0.25]])
_WEIGHTS.setflags(write=False)
#: per-sample bound on |certificate signal − reference_signal| is
#: ``_SLACK · (1 + largest |angle|)``: argument rounding grows with the
#: angle, libm and the block product add a few ulps; 64 ε is generous
_SLACK = 64 * float(np.finfo(np.float64).eps)
#: dB the certified bound must clear the threshold by: it covers the
#: rounding of both sides' sums of squares, under 2e-7 dB for signals of
#: up to ``_CERT_MAX_SAMPLES`` samples (worst case, ``m·u`` per sum)
_MARGIN_DB = 1e-6
#: longer signals take the exact path, since the margin is sized up to here
_CERT_MAX_SAMPLES = 1 << 26
#: samples in the certificate's reused buffers: ~20 clips-corpus rows a
#: chunk, which stays in cache (bigger chunks measured slower)
_CHUNK = 1 << 16
#: splitmix64's counter step ``q · GAMMA`` at each buffer position ``q``
_BUFFER_STEPS = np.arange(_CHUNK, dtype=np.uint64) * _SM_GAMMA
_BUFFER_STEPS.setflags(write=False)
#: the buffer position of every block start, as float64
_BLOCK_STARTS = np.arange(0, _CHUNK, _BLOCK, dtype=np.float64)
_BLOCK_STARTS.setflags(write=False)
#: idle buffer sets: a certificate takes one and gives it back when done,
#: so batches reuse warm pages and two live certificates never share one
_IDLE_BUFFERS: list = []


def _certifiable_length(clip_id, sr_hz, n: int) -> int:
    """Samples the exact check compares for ``n`` decoded samples, or 0
    when the certificate cannot speak for the row."""
    if not isinstance(clip_id, str) or not 0 < sr_hz < math.inf:
        return 0
    m = min(n, _reference_length(sr_hz, round(n * 1000 / sr_hz)))
    return m if m <= _CERT_MAX_SAMPLES else 0


class SnrCertificate:
    """The certified SNR check of many rows at once: a row it clears
    certainly has ``snr_db(ref[:m], decoded[:m]) >= min_db`` for ``ref =
    reference_signal(clip_id, sr_hz, round(n * 1000 / sr_hz))``, ``n =
    len(decoded)`` and ``m = min(len(ref), n)``.

    A filter with no false dismissals (the lower-bounding lemma of
    Faloutsos et al., SIGMOD 1994): a row it does not clear is left to the
    exact check. Rows are ``add``-ed one by one; their first ``m`` samples
    stream through one reused buffer of :data:`_CHUNK` samples, and each
    full buffer is checked in a few array passes. A caller that decodes
    straight into :attr:`out` hands the samples over in place; any other
    array is copied in. A row longer than the buffer is carried across
    chunks with its sums accumulated.

    Per chunk, each tone is built by angle addition over blocks of
    :data:`_BLOCK` samples, ``sin(a + b) = sin a·cos b + cos a·sin b``,
    both tones in one ``(blocks × 4) @ (4 × 64)`` product per row: about
    ``4·(m/64 + 64)`` libm calls where the reference makes ``2·m``. The
    noise is the reference's own, one :func:`_uniforms` pass over every
    row's counters. The reference's clip to ±1 never binds (``|tones| ≤
    0.7``, ``|noise| ≤ 0.04``), here or there, so it is left out. Each
    sample then lies within ``δ = _SLACK·(1 + largest angle)`` of the
    reference's, so ``‖ref − r‖ ≤ δ√m``, and by the triangle inequality
    the exact SNR is at least ``20·log10((‖r‖ − δ√m) / (‖r − decoded‖ +
    δ√m))``. ``‖r‖²`` and ``‖r − decoded‖²`` are segment sums
    (``np.add.reduceat``, plus a carried row's chunks): any summation
    order errs by at most ``m·u`` relative, the bound
    :data:`_MARGIN_DB` covers, as does the exact side's ``np.dot``."""

    def __init__(self, min_db: float) -> None:
        try:
            self._bufs = _IDLE_BUFFERS.pop()
        except IndexError:
            # decoded samples, signal, then two uint64 scratch arrays; one
            # block of spare room lets a segment end at the last sample
            self._bufs = tuple(np.zeros(_CHUNK + _BLOCK, dt) for dt in
                               (np.float64, np.float64, np.uint64, np.uint64))
        self._dec = self._bufs[0]
        try:
            self._floor = min_db + _MARGIN_DB
        except TypeError:
            self._floor = math.nan  # clears nothing
        self._off = 0  # the chunk's first free sample, a block start
        #: the buffer's free tail: ``audio.decode``'s ``out`` for the next row
        self.out = self._dec[:_CHUNK]
        #: the chunk's (row, first sample, samples, offset); a row is
        #: (sr_hz, w1, w2, p1, p2, m, seed, n, its samples unless in place, index)
        self._pieces: list = []
        self._carry = None  # sums so far of a row carried into the next chunk
        self._uncleared: list = []

    def add(self, clip_id, sr_hz, decoded) -> None:
        """Queue one row; never raises for a real ``sr_hz``."""
        in_place = getattr(decoded, "base", None) is self._dec
        n = len(decoded)
        m = _certifiable_length(clip_id, sr_hz, n)
        try:
            tones = _tones(clip_id, sr_hz) if m else None
            seed = _seed_for(clip_id) if m else 0
        except UnicodeEncodeError:  # the exact path raises it for the row
            m = 0
        if not m:
            self._uncleared.append(decoded.copy() if in_place else decoded)
            return
        f1, f2, p1, p2 = tones
        row = (sr_hz, 2 * np.pi * f1, 2 * np.pi * f2, p1, p2, m, seed, n,
               None if in_place else decoded, len(self._uncleared))
        self._uncleared.append(None)
        if in_place:  # decoded into ``out``: at the chunk's free offset
            self._pieces.append((row, 0, m, self._off))
            self._off += -(-n // _BLOCK) * _BLOCK
        else:
            start = 0
            while start < m:
                size = min(m - start, _CHUNK)
                if size > _CHUNK - self._off:
                    self._flush()
                off = self._off
                self._dec[off : off + size] = decoded[start : start + size]
                self._pieces.append((row, start, size, off))
                self._off += -(-size // _BLOCK) * _BLOCK
                start += size
        self.out = self._dec[self._off : _CHUNK]

    def uncleared(self) -> list:
        """Per added row, in order: None when cleared, else its decoded
        samples, for the exact check. Ends the certificate."""
        self._flush()
        _IDLE_BUFFERS.append(self._bufs)
        self._bufs = self._dec = self.out = None
        return self._uncleared

    def _flush(self) -> None:
        """Check the rows in the buffer, then empty it."""
        pieces = self._pieces
        if not pieces:
            return
        dec, ref, counters, scratch = self._bufs
        total = self._off
        rows = [p[0] for p in pieces]
        prm = np.array([r[:6] for r in rows])  # sr_hz, w1, w2, p1, p2, m
        start, size, off = np.array([p[1:] for p in pieces], np.int64).T
        blocks = -(-size // _BLOCK)
        first = np.cumsum(blocks) - blocks
        with np.errstate(all="ignore"):  # stale gap values may be anything
            # the tones: each block start's time in its row, then its
            # angles; each row's in-block offsets' angles; then the product
            rep = np.repeat(prm, blocks, axis=0)
            t = _BLOCK_STARTS[: len(rep)] + np.repeat(start - _BLOCK * first, blocks)
            t /= rep[:, 0]
            angle = t[:, None] * rep[:, 1:3]
            angle += rep[:, 3:5]
            starts = np.empty((len(rep), 4))
            np.sin(angle, out=starts[:, :2])
            np.cos(angle, out=starts[:, 2:])
            angle = np.divide(_OFFSETS, prm[:, :1])[:, None, :] * prm[:, 1:3, None]
            offsets = np.empty((len(prm), 4, _BLOCK))
            np.cos(angle, out=offsets[:, :2])
            np.sin(angle, out=offsets[:, 2:])
            offsets *= _WEIGHTS
            for o, b0, nb, offs in zip(off.tolist(), first.tolist(), blocks.tolist(), offsets):
                np.matmul(starts[b0 : b0 + nb], offs,
                          out=ref[o : o + nb * _BLOCK].reshape(nb, _BLOCK))
            # the noise: position q of a row placed at ``off`` is its
            # sample ``q - off + start``, splitmix counter ``(that + 1)·GAMMA
            # + seed``; gaps between rows get noise nobody reads
            z = counters[:total]
            ends = off[1:].tolist() + [total]
            for row, s, o, e in zip(rows, start.tolist(), off.tolist(), ends):
                base = np.uint64((row[6] + (s - o + 1) * int(_SM_GAMMA)) % (1 << 64))
                np.add(_BUFFER_STEPS[o:e], base, out=z[o:e])
            noise = _uniforms(z, scratch[:total])
            noise -= 0.5
            noise *= 0.08
            r = ref[:total]
            r += noise
            # the sums of squares over each row's segment (the counters
            # are spent, so their memory is scratch)
            sq = counters.view(np.float64)
            sq[total] = 0.0
            edges = np.empty(2 * len(pieces), np.int64)
            edges[0::2] = off
            edges[1::2] = off + size
            np.multiply(r, r, out=sq[:total])
            sig2 = np.add.reduceat(sq[: total + 1], edges)[0::2]
            np.subtract(r, dec[:total], out=sq[:total])
            np.multiply(sq[:total], sq[:total], out=sq[:total])
            err2 = np.add.reduceat(sq[: total + 1], edges)[0::2]
            if self._carry is not None:  # the first piece ends a carried row
                sig2[0] += self._carry[0]
                err2[0] += self._carry[1]
                self._carry = None
            done = len(pieces)
            last_row, last_start, last_size, _ = pieces[-1]
            if last_start + last_size < last_row[5]:  # carried on
                done -= 1
                self._carry = (sig2[done], err2[done])
            m = prm[:done, 5]
            sr_hz = prm[:done, 0]
            slack = _SLACK * (1.0 + m / sr_hz * np.abs(prm[:done, 1:3]).max(axis=1)
                              + 2 * np.pi) * np.sqrt(m)
            sig, err = np.sqrt(sig2[:done]), np.sqrt(err2[:done])
            cleared = (np.isfinite(sig) & np.isfinite(err) & (sig > slack)
                       & (20.0 * np.log10((sig - slack) / (err + slack)) >= self._floor))
        for (row, _, _, o), ok in zip(pieces, cleared.tolist()):
            if not ok:
                samples = row[8]
                self._uncleared[row[9]] = dec[o : o + row[7]].copy() if samples is None else samples
        self._pieces = []
        self._off = 0
        self.out = dec[:_CHUNK]


def snr_at_least(clip_id: str, sr_hz: int, decoded: np.ndarray, min_db: float) -> bool:
    """:class:`SnrCertificate`'s verdict on one row: True only when the
    exact SNR is certainly at least ``min_db``; never raises."""
    cert = SnrCertificate(min_db)
    cert.add(clip_id, sr_hz, decoded)
    return cert.uncleared()[0] is None


_VOCAB = (
    "the quick brown fox jumps over a lazy dog while seven wizards "
    "brew strong coffee under pale moonlight near quiet rivers and old stone bridges"
).split()


def reference_transcript(clip_id: str) -> str:
    """Deterministic transcript derived from ``clip_id`` alone (digest
    bytes → word indices; no RNG object in the hot path)."""
    d = hashlib.blake2s(clip_id.encode() + b"#t", digest_size=16).digest()
    n_words = 3 + d[0] % 8
    nv = len(_VOCAB)
    return " ".join(_VOCAB[(d[1 + i // 2] >> (4 * (i % 2)) | d[15 - i]) % nv]
                    for i in range(n_words))


def snr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """Signal-to-noise ratio of ``decoded`` against ``reference`` in dB."""
    n = min(len(reference), len(decoded))
    if n == 0:
        return float("-inf")
    ref = reference[:n]
    err = ref - decoded[:n]
    p_sig = float(np.dot(ref, ref))
    p_err = float(np.dot(err, err))
    if p_err == 0.0:
        return float("inf")
    if p_sig == 0.0:
        return float("-inf")
    return 10.0 * np.log10(p_sig / p_err)
