"""Round-3 ADVICE regressions: codec totality (one malformed payload must
emit a violation row, never crash a map_batches task — reference parity:
any UnidentifiedImageError becomes a violation,
/root/reference/fs_schema_validator/schemas/image.py:70-74) and the TIFF
deep-decode gap."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray.functions.gif import GifError, decode_gif, encode_gif
from fs_schema_validator_ray.functions.jpeg import JpegError, decode_jpeg
from fs_schema_validator_ray.stages.multimodal import ImageValidateStage


# --- JPEG: truncated marker segments raise JpegError, never IndexError ------

TRUNCATED_JPEGS = [
    b"\xff\xd8\xff\xc0\x00\x02\xff\xd9",  # SOF0 with empty body (ADVICE repro)
    b"\xff\xd8\xff\xc0\x00\x05\x08\x00\x04\xff\xd9",  # SOF0 cut mid-dims
    b"\xff\xd8\xff\xc0\x00\x08\x08\x00\x04\x00\x04\x03\xff\xd9",  # no comp list
    b"\xff\xd8\xff\xdd\x00\x03\x01\xff\xd9",  # DRI with 1 payload byte
    b"\xff\xd8\xff\xc4\x00\x04\x00\x01\xff\xd9",  # DHT shorter than 17 bytes
    b"\xff\xd8\xff\xda\x00\x02\xff\xd9",  # SOS with empty body
    b"\xff\xd8\xff\xda\x00\x04\x01\x00\xff\xd9",  # SOS cut mid-component list
    b"\xff\xd8\xff\xdb\x00\x03\x00\xff\xd9",  # DQT cut before table
]


@pytest.mark.parametrize("payload", TRUNCATED_JPEGS)
def test_truncated_jpeg_segments_raise_typed_error(payload):
    with pytest.raises(JpegError):
        decode_jpeg(payload)


def test_truncated_jpeg_never_kills_validate_stage():
    batch = pa.table(
        {
            "key": pa.array([f"j{i}" for i in range(len(TRUNCATED_JPEGS))]),
            "bytes": pa.array(list(TRUNCATED_JPEGS), pa.binary()),
            "format": pa.array(["jpeg"] * len(TRUNCATED_JPEGS)),
        }
    )
    out = ImageValidateStage()(batch).to_pylist()  # must not raise
    assert {r["key"] for r in out} == {f"j{i}" for i in range(len(TRUNCATED_JPEGS))}


# --- GIF: spec-invalid LZW minimum code size (>8) is a typed error ----------


def _good_gif():
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 16, size=(6, 6), dtype=np.uint8)
    pal = rng.integers(0, 256, size=(16, 3), dtype=np.uint8)
    return encode_gif(idx, pal)


def test_gif_min_code_size_above_8_rejected():
    data = bytearray(_good_gif())
    img_off = data.index(0x2C, 13 + 3 * 16)
    assert data[img_off + 10] == 4  # min_code_size for a 16-color palette
    data[img_off + 10] = 9
    with pytest.raises(GifError, match="minimum code size"):
        decode_gif(bytes(data))
    # and through the stage: violation row, not a crashed batch
    batch = pa.table(
        {
            "key": pa.array(["g"]),
            "bytes": pa.array([bytes(data)], pa.binary()),
            "format": pa.array(["gif"]),
        }
    )
    out = ImageValidateStage()(batch).to_pylist()
    assert [(r["key"], r["reason"]) for r in out] == [
        ("g", "file does not contain a valid image")
    ]


# --- TIFF: deep_decode now gates corrupt strips like the other rasters ------


def _deflate_tiff_with_garbage_strip() -> bytes:
    """encode_tiff output with the compression tag patched 1 -> 8 so the
    raw pixel bytes are treated as (invalid) zlib data."""
    from fixture_encode import encode_tiff

    px = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    data = bytearray(encode_tiff(px))
    (ifd_off,) = struct.unpack("<I", data[4:8])
    (count,) = struct.unpack("<H", data[ifd_off : ifd_off + 2])
    for k in range(count):
        e = ifd_off + 2 + 12 * k
        (tag,) = struct.unpack("<H", data[e : e + 2])
        if tag == 259:  # compression
            struct.pack_into("<H", data, e + 8, 8)
            return bytes(data)
    raise AssertionError("compression tag not found")


def test_tiff_corrupt_strip_emits_violation():
    from fs_schema_validator_ray.functions.bmp import TiffError, decode_tiff

    bad = _deflate_tiff_with_garbage_strip()
    with pytest.raises(TiffError, match="deflate"):
        decode_tiff(bad)
    batch = pa.table(
        {
            "key": pa.array(["t"]),
            "bytes": pa.array([bad], pa.binary()),
            "format": pa.array(["tiff"]),
        }
    )
    out = ImageValidateStage()(batch).to_pylist()
    assert [(r["key"], r["reason"]) for r in out] == [
        ("t", "file does not contain a valid image")
    ]
    # header-only mode still passes it (dims parse fine)
    assert ImageValidateStage(deep_decode=False)(batch).to_pylist() == []
