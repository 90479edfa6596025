"""From-scratch PNG codec: encode→decode round-trips across every
(color type × bit depth × filter × interlace) combination, plus
malformed-payload rejection with stable reason strings (the reference
does real PIL raster decode — ``image.py:54-74``; this is our stdlib
equivalent)."""

import struct
import zlib

import numpy as np
import pytest

from fs_schema_validator_ray.functions.png import (
    PngError,
    decode_png,
    encode_png,
)


def rgb(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("interlace", [False, True])
def test_rgb8_roundtrip_all_filters(filter_type, interlace):
    px = rgb(13, 17, seed=filter_type)
    data = encode_png(px, filter_type=filter_type, interlace=interlace)
    out = decode_png(data)
    assert out.shape == (13, 17, 3)
    assert np.array_equal(out, px)


def test_gray8_and_rgba8_and_graya8_roundtrip():
    rng = np.random.default_rng(1)
    g = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
    out = decode_png(encode_png(g, color_type=0, filter_type=4))
    assert np.array_equal(out, np.repeat(g[..., None], 3, axis=2))

    rgba = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    out = decode_png(encode_png(rgba, color_type=6, filter_type=3))
    assert np.array_equal(out, rgba[..., :3])  # alpha dropped

    ga = rng.integers(0, 256, size=(6, 8, 2), dtype=np.uint8)
    out = decode_png(encode_png(ga, color_type=4, filter_type=1))
    assert np.array_equal(out, np.repeat(ga[..., :1], 3, axis=2))


def test_rgb16_high_byte():
    rng = np.random.default_rng(2)
    px16 = rng.integers(0, 1 << 16, size=(5, 6, 3), dtype=np.uint16)
    out = decode_png(encode_png(px16, color_type=2, bit_depth=16, filter_type=2))
    assert np.array_equal(out, (px16 >> 8).astype(np.uint8))


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_gray_subbyte_depths(depth):
    rng = np.random.default_rng(depth)
    vals = rng.integers(0, 1 << depth, size=(10, 13), dtype=np.uint8)
    out = decode_png(encode_png(vals, color_type=0, bit_depth=depth))
    scale = 255 // ((1 << depth) - 1)
    assert np.array_equal(out, np.repeat((vals * scale)[..., None], 3, axis=2))


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_palette_roundtrip(depth):
    rng = np.random.default_rng(depth)
    n_colors = 1 << depth
    palette = rng.integers(0, 256, size=(n_colors, 3), dtype=np.uint8)
    idx = rng.integers(0, n_colors, size=(8, 9), dtype=np.uint8)
    data = encode_png(idx, color_type=3, bit_depth=depth, palette=palette)
    assert np.array_equal(decode_png(data), palette[idx])


def test_adam7_tiny_images():
    # dims smaller than the 8x8 interlace tile exercise empty passes
    for h, w in [(1, 1), (2, 3), (5, 4), (8, 8), (9, 1)]:
        px = rgb(h, w, seed=h * 10 + w)
        assert np.array_equal(decode_png(encode_png(px, interlace=True)), px)


def test_multiple_idat_chunks():
    px = rgb(6, 6)
    data = encode_png(px)
    # split the single IDAT into two
    i = data.index(b"IDAT") - 4
    (ln,) = struct.unpack(">I", data[i : i + 4])
    payload = data[i + 8 : i + 8 + ln]
    rest = data[i + 8 + ln + 4 :]
    mid = ln // 2

    def chunk(p):
        return struct.pack(">I", len(p)) + b"IDAT" + p + struct.pack(
            ">I", zlib.crc32(b"IDAT" + p)
        )

    patched = data[:i] + chunk(payload[:mid]) + chunk(payload[mid:]) + rest
    assert np.array_equal(decode_png(patched), px)


# --- malformed payloads -----------------------------------------------------


def test_bad_signature():
    with pytest.raises(PngError, match="signature"):
        decode_png(b"NOPE" + encode_png(rgb(3, 3))[4:])


def test_crc_mismatch():
    data = bytearray(encode_png(rgb(4, 4)))
    i = data.index(b"IDAT") + 6
    data[i] ^= 0xFF
    with pytest.raises(PngError, match="crc mismatch|corrupt zlib"):
        decode_png(bytes(data))


def test_truncated_and_missing_chunks():
    data = encode_png(rgb(4, 4))
    with pytest.raises(PngError):
        decode_png(data[: len(data) // 2])
    # drop IDAT entirely: signature + IHDR + IEND
    i = data.index(b"IDAT") - 4
    iend = data.index(b"IEND") - 4
    with pytest.raises(PngError, match="missing IDAT"):
        decode_png(data[:i] + data[iend:])


def test_corrupt_zlib_stream():
    px = rgb(4, 4)
    data = encode_png(px)
    i = data.index(b"IDAT") - 4
    (ln,) = struct.unpack(">I", data[i : i + 4])
    bogus = b"\x00" * ln  # valid length+crc, garbage stream
    chunk = b"IDAT" + bogus
    patched = (
        data[:i]
        + struct.pack(">I", ln)
        + chunk
        + struct.pack(">I", zlib.crc32(chunk))
        + data[i + 8 + ln + 4 :]
    )
    with pytest.raises(PngError, match="corrupt zlib|pixel data length"):
        decode_png(patched)


def test_wrong_pixel_data_length():
    # declare 10x10 but encode 4x4 worth of pixels
    good = encode_png(rgb(4, 4))
    i = good.index(b"IHDR") + 4
    ihdr = struct.pack(">IIBBBBB", 10, 10, 8, 2, 0, 0, 0)
    chunk = b"IHDR" + ihdr
    patched = (
        good[: i - 8]
        + struct.pack(">I", 13)
        + chunk
        + struct.pack(">I", zlib.crc32(chunk))
        + good[i + 13 + 4 :]
    )
    with pytest.raises(PngError, match="pixel data length"):
        decode_png(patched)


def test_palette_missing_and_out_of_range():
    with pytest.raises(PngError, match="missing PLTE"):
        # hand-build a ct3 png without PLTE
        px = np.zeros((2, 2), np.uint8)
        data = encode_png(px, color_type=3, bit_depth=8, palette=np.zeros((1, 3), np.uint8))
        i = data.index(b"PLTE") - 4
        decode_png(data[:i] + data[i + 8 + 3 + 4 :])
    palette = np.zeros((2, 3), np.uint8)
    idx = np.full((2, 2), 7, np.uint8)  # index 7 > palette size 2
    with pytest.raises(PngError, match="palette index out of range"):
        decode_png(encode_png(idx, color_type=3, bit_depth=8, palette=palette))


def test_invalid_header_fields():
    base = encode_png(rgb(3, 3))

    def with_ihdr(*fields):
        ihdr = struct.pack(">IIBBBBB", *fields)
        chunk = b"IHDR" + ihdr
        i = base.index(b"IHDR") - 4
        return (
            base[:i]
            + struct.pack(">I", 13)
            + chunk
            + struct.pack(">I", zlib.crc32(chunk))
            + base[i + 8 + 13 + 4 :]
        )

    with pytest.raises(PngError, match="zero image dimension"):
        decode_png(with_ihdr(0, 3, 8, 2, 0, 0, 0))
    with pytest.raises(PngError, match="unknown color type"):
        decode_png(with_ihdr(3, 3, 8, 5, 0, 0, 0))
    with pytest.raises(PngError, match="invalid bit depth"):
        decode_png(with_ihdr(3, 3, 4, 2, 0, 0, 0))
    with pytest.raises(PngError, match="interlace"):
        decode_png(with_ihdr(3, 3, 8, 2, 0, 0, 7))


# --- BMP codec (shares the raster-trio test file) ----------------------------


def test_bmp_roundtrip_and_orders():
    from fixture_encode import encode_bmp
    from fs_schema_validator_ray.functions.bmp import decode_bmp

    rng = np.random.default_rng(8)
    for h, w in [(1, 1), (5, 7), (13, 16), (9, 3)]:  # odd widths hit padding
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_bmp(encode_bmp(px)), px)
        assert np.array_equal(decode_bmp(encode_bmp(px, top_down=True)), px)


def test_bmp_malformed():
    from fixture_encode import encode_bmp
    from fs_schema_validator_ray.functions.bmp import BmpError, decode_bmp

    px = np.zeros((4, 4, 3), np.uint8)
    good = encode_bmp(px)
    with pytest.raises(BmpError, match="signature"):
        decode_bmp(b"XX" + good[2:])
    with pytest.raises(BmpError):
        decode_bmp(good[: len(good) - 10])
    bad = bytearray(good)
    bad[30] = 1  # RLE8 compression flag
    with pytest.raises(BmpError, match="compression"):
        decode_bmp(bytes(bad))
    bad2 = bytearray(good)
    bad2[28] = 16  # 16 bpp
    with pytest.raises(BmpError, match="bit depth"):
        decode_bmp(bytes(bad2))


def test_tiff_roundtrip_and_real_fixture():
    import os

    from fixture_encode import encode_tiff
    from fs_schema_validator_ray.functions.bmp import TiffError, decode_tiff

    rng = np.random.default_rng(4)
    for h, w in [(1, 1), (6, 9), (13, 5)]:
        for be in (False, True):
            px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            assert np.array_equal(decode_tiff(encode_tiff(px, big_endian=be)), px)

    good = encode_tiff(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
    with pytest.raises(TiffError, match="signature"):
        decode_tiff(b"XX" + good[2:])
    with pytest.raises(TiffError):
        decode_tiff(good[:20])

    # real-world interop: the reference's deflate-compressed fixture
    ref = "/root/reference/tests/fixtures/image.tif"
    if os.path.exists(ref):
        out = decode_tiff(open(ref, "rb").read())
        assert out.shape == (10, 10, 3)


# --- tRNS transparency (round 5) ---------------------------------------------


def test_trns_palette_alpha_via_apng():
    """Palette tRNS: per-entry alpha rides into the RGBA core (observed
    through an APNG whose frames are palette images)."""
    import struct
    import zlib

    import numpy as np

    from fs_schema_validator_ray.functions.png import (
        _SIGNATURE,
        _chunk,
        decode_png,
        _decode_pixels,
    )

    # hand-build: 2x2 palette image, entry 0 transparent via tRNS
    idx = np.array([[0, 1], [1, 0]], np.uint8)
    plte = np.array([[255, 0, 0], [0, 255, 0]], np.uint8)
    raw = b"".join(b"\x00" + r.tobytes() for r in idx)
    rgba = _decode_pixels(
        zlib.compress(raw), 2, 2, 8, 3, 0, plte, trns=bytes([0])
    )
    assert tuple(rgba[0, 0]) == (255, 0, 0, 0)  # entry 0: alpha 0
    assert tuple(rgba[0, 1]) == (0, 255, 0, 255)  # entry 1: opaque

    # full-file path: decode_png still returns RGB (alpha dropped)
    data = (
        _SIGNATURE
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0))
        + _chunk(b"PLTE", plte.tobytes())
        + _chunk(b"tRNS", bytes([0]))
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(decode_png(data)[0, 0], [255, 0, 0])


def test_trns_rgb_color_key():
    import zlib

    import numpy as np

    from fs_schema_validator_ray.functions.png import _decode_pixels

    px = np.array(
        [[[10, 20, 30], [1, 2, 3]], [[1, 2, 3], [9, 9, 9]]], np.uint8
    )
    raw = b"".join(b"\x00" + r.tobytes() for r in px)
    rgba = _decode_pixels(
        zlib.compress(raw), 2, 2, 8, 2, 0, None,
        trns=(1).to_bytes(2, "big") + (2).to_bytes(2, "big") + (3).to_bytes(2, "big"),
    )
    assert rgba[0, 1, 3] == 0 and rgba[1, 0, 3] == 0
    assert rgba[0, 0, 3] == 255 and rgba[1, 1, 3] == 255
