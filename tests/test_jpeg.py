"""From-scratch baseline JPEG codec: lossy round-trip PSNR gates,
real-world-encoder interop (the reference's libjpeg-produced fixture),
and malformed-payload rejection."""

import os

import numpy as np
import pytest

from fs_schema_validator_ray.functions.jpeg import (
    JpegError,
    decode_jpeg,
    encode_jpeg,
)


def psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)


def gradient_img(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack(
        [xx * 255 / max(w - 1, 1), yy * 255 / max(h - 1, 1),
         (xx + yy) * 255 / max(h + w - 2, 1)],
        axis=2,
    ).astype(np.uint8)


@pytest.mark.parametrize("subsample", [False, True])
@pytest.mark.parametrize("quality", [95, 80])
def test_roundtrip_psnr(quality, subsample):
    img = gradient_img(40, 56)
    out = decode_jpeg(encode_jpeg(img, quality=quality, subsample=subsample))
    assert out.shape == img.shape
    floor = 30 if (quality == 80 and subsample) else 33
    assert psnr(img, out) > floor


def test_roundtrip_odd_dims_and_gray():
    # non-multiple-of-8 (and of 16 for 4:2:0) dims exercise edge padding
    for h, w in [(1, 1), (7, 9), (17, 23), (8, 8)]:
        img = gradient_img(h, w)
        out = decode_jpeg(encode_jpeg(img, quality=95))
        assert out.shape == (h, w, 3)
        out420 = decode_jpeg(encode_jpeg(img, quality=95, subsample=True))
        assert out420.shape == (h, w, 3)
    g = gradient_img(12, 20)[..., 0]
    out = decode_jpeg(encode_jpeg(g, quality=95))
    assert out.shape == (12, 20, 3)
    assert psnr(np.repeat(g[..., None], 3, axis=2), out) > 35


def test_flat_color_exact():
    img = np.full((16, 16, 3), (200, 30, 90), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=95))
    assert psnr(img, out) > 40  # DC-only blocks survive near-perfectly


REF_JPG = "/root/reference/tests/fixtures/image.jpg"
REF_PNG = "/root/reference/tests/fixtures/image.png"


@pytest.mark.skipif(
    not (os.path.exists(REF_JPG) and os.path.exists(REF_PNG)),
    reason="reference fixtures not present",
)
def test_decodes_real_world_libjpeg_stream():
    """Interop: the reference repo's fixture was produced by a REAL
    encoder (Annex-K tables, real chroma subsampling). Our JPEG decode
    must agree with our PNG decode of the same image."""
    from fs_schema_validator_ray.functions.png import decode_png

    jp = decode_jpeg(open(REF_JPG, "rb").read())
    pn = decode_png(open(REF_PNG, "rb").read())
    assert jp.shape == pn.shape == (400, 400, 3)
    assert psnr(jp, pn) > 40


def test_malformed_payloads():
    img = gradient_img(16, 16)
    good = encode_jpeg(img, quality=90)

    with pytest.raises(JpegError, match="signature"):
        decode_jpeg(b"NOPE" + good)
    with pytest.raises(JpegError):
        decode_jpeg(good[: len(good) // 3])  # truncated mid-segments
    with pytest.raises(JpegError, match="no scan data"):
        decode_jpeg(good[:2] + b"\xff\xd9")
    # flip SOF0 -> SOF3 (lossless): explicit unsupported rejection
    i = good.index(b"\xff\xc0")
    with pytest.raises(JpegError, match="baseline \\+ progressive only"):
        decode_jpeg(good[:i] + b"\xff\xc3" + good[i + 2 :])
    # SOF0 -> SOF2: now parsed as progressive, but a full-band interleaved
    # scan is invalid there (DC scans must have Se=0)
    with pytest.raises(JpegError, match="Se=0"):
        decode_jpeg(good[:i] + b"\xff\xc2" + good[i + 2 :])
    # corrupt the entropy stream after SOS
    sos = good.index(b"\xff\xda")
    data = bytearray(good)
    for j in range(sos + 20, min(sos + 40, len(data) - 2)):
        data[j] ^= 0x55
    try:
        out = decode_jpeg(bytes(data))
        # corruption may still decode structurally; pixels must differ
        assert psnr(img, out) < 35
    except JpegError:
        pass  # or it breaks the huffman stream — both acceptable


def test_zero_dim_rejected():
    img = gradient_img(8, 8)
    good = bytearray(encode_jpeg(img))
    i = good.index(b"\xff\xc0") + 5  # SOF payload: len(2) precision(1) h(2)
    good[i : i + 2] = b"\x00\x00"
    with pytest.raises(JpegError, match="zero image dimension"):
        decode_jpeg(bytes(good))


# --- progressive (SOF2) decoding ---------------------------------------------


@pytest.mark.parametrize("shape", [(8, 8), (17, 23), (40, 56), (3, 5)])
@pytest.mark.parametrize("quality", [70, 90])
def test_progressive_exact_parity_with_baseline(shape, quality):
    """Progressive scans reconstruct the SAME quantized coefficients as
    the baseline encoding, so the decoded pixels must match EXACTLY."""
    import numpy as np

    rng = np.random.default_rng(sum(shape) + quality)
    img = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
    base = decode_jpeg(encode_jpeg(img, quality=quality))
    prog = decode_jpeg(encode_jpeg(img, quality=quality, progressive=True))
    assert np.array_equal(base, prog)


def test_progressive_grayscale_and_gradient():
    import numpy as np

    rng = np.random.default_rng(9)
    g = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    assert np.array_equal(
        decode_jpeg(encode_jpeg(g, progressive=True)), decode_jpeg(encode_jpeg(g))
    )
    yy, xx = np.mgrid[0:30, 0:44]
    img = np.stack([xx * 5 % 256, yy * 3 % 256, (xx + yy) % 256], 2).astype(np.uint8)
    assert np.array_equal(
        decode_jpeg(encode_jpeg(img, progressive=True)),
        decode_jpeg(encode_jpeg(img)),
    )


def test_progressive_truncated_scan_raises():
    import numpy as np

    from fs_schema_validator_ray.sources.images import corrupt_jpeg_entropy

    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
    prog = encode_jpeg(img, quality=85, progressive=True)
    with pytest.raises(JpegError):
        decode_jpeg(corrupt_jpeg_entropy(prog))
    # mid-stream truncation anywhere inside scan data must also raise
    sos = prog.index(b"\xff\xda")
    with pytest.raises(JpegError):
        decode_jpeg(prog[: sos + 30])


def test_progressive_rejects_subsample_encode():
    import numpy as np

    img = np.zeros((16, 16, 3), np.uint8)
    with pytest.raises(ValueError, match="4:4:4"):
        encode_jpeg(img, progressive=True, subsample=True)


# --- EXIF (round 5) ----------------------------------------------------------


def test_exif_roundtrip_both_endians():
    import numpy as np

    from fs_schema_validator_ray.functions.jpeg import (
        build_exif_app1,
        encode_jpeg,
        insert_exif,
        jpeg_exif,
        decode_jpeg,
    )

    px = np.full((12, 16, 3), 90, np.uint8)
    j = encode_jpeg(px, quality=75)
    assert jpeg_exif(j) is None
    for be in (False, True):
        app1 = build_exif_app1(
            orientation=6, make="ACME Industrial Cameras", model="X1",
            datetime="2026:01:01 00:00:00", pixel_x=16, pixel_y=12,
            big_endian=be,
        )
        j2 = insert_exif(j, app1)
        assert jpeg_exif(j2) == {
            "make": "ACME Industrial Cameras", "model": "X1",
            "orientation": 6, "datetime": "2026:01:01 00:00:00",
            "pixel_x": 16, "pixel_y": 12,
        }
        # splicing APP1 must not disturb the pixel path
        np.testing.assert_array_equal(decode_jpeg(j2), decode_jpeg(j))


def test_exif_truncated_ifd_raises_typed():
    import struct

    import numpy as np
    import pytest

    from fs_schema_validator_ray.functions.jpeg import (
        JpegError,
        build_exif_app1,
        encode_jpeg,
        insert_exif,
        jpeg_exif,
    )

    j = encode_jpeg(np.zeros((8, 8, 3), np.uint8))
    body = build_exif_app1(orientation=3, make="Z")[4:][:14]
    bad = insert_exif(j, b"\xff\xe1" + struct.pack(">H", len(body) + 2) + body)
    with pytest.raises(JpegError, match="exif"):
        jpeg_exif(bad)


@pytest.mark.parametrize(
    "typ,cnt,value",
    [(2, 4, b"abc\x00"), (1, 1, b"\x05\x00\x00\x00"), (1, 2, b"\x01\x02\x00\x00")],
    ids=["ascii", "byte", "two-bytes"],
)
def test_exif_sub_ifd_pointer_of_wrong_type_raises_typed(typ, cnt, value):
    """The Exif sub-IFD pointer (tag 0x8769) is an offset; declared as
    ASCII or BYTE it must raise JpegError, not ValueError/TypeError."""
    import struct

    from fs_schema_validator_ray.functions.jpeg import insert_exif, jpeg_exif

    tiff = (
        b"II" + struct.pack("<HI", 42, 8)
        + struct.pack("<H", 1) + struct.pack("<HHI", 0x8769, typ, cnt) + value
        + struct.pack("<I", 0)
    )
    body = b"Exif\x00\x00" + tiff
    app1 = b"\xff\xe1" + struct.pack(">H", len(body) + 2) + body
    j = insert_exif(encode_jpeg(np.zeros((8, 8, 3), np.uint8)), app1)
    with pytest.raises(JpegError, match="sub-IFD pointer"):
        jpeg_exif(j)
