"""From-scratch BMP codec (stdlib + numpy).

Rounds out the raster set (png/gif/jpeg): uncompressed Windows BMP —
BITMAPINFOHEADER, 24-bit BGR and 8-bit paletted, bottom-up (positive
height) and top-down (negative height) row orders, 4-byte row padding.
RLE compression is rejected with a typed error (validation-grade scope;
RLE BMPs are vanishingly rare in ML corpora).
"""

from __future__ import annotations

import struct

import numpy as np


class BmpError(ValueError):
    """Malformed / unsupported BMP payload."""


def decode_bmp(data: bytes) -> np.ndarray:
    if len(data) < 54 or data[:2] != b"BM":
        raise BmpError("bad bmp signature or truncated header")
    (pix_off,) = struct.unpack("<I", data[10:14])
    (hdr_size,) = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise BmpError(f"unsupported DIB header size {hdr_size}")
    w, h_signed = struct.unpack("<ii", data[18:26])
    planes, bpp = struct.unpack("<HH", data[26:30])
    (compression,) = struct.unpack("<I", data[30:34])
    if w < 1 or h_signed == 0:
        raise BmpError("zero image dimension")
    if planes != 1:
        raise BmpError(f"invalid plane count {planes}")
    if compression != 0:
        raise BmpError(f"unsupported compression {compression}")
    if bpp not in (8, 24):
        raise BmpError(f"unsupported bit depth {bpp}")
    h = abs(h_signed)
    top_down = h_signed < 0

    palette = None
    if bpp == 8:
        (colors_used,) = struct.unpack("<I", data[46:50])
        n_colors = colors_used or 256
        pal_off = 14 + hdr_size
        pal_end = pal_off + 4 * n_colors
        if pal_end > len(data):
            raise BmpError("truncated palette")
        bgra = np.frombuffer(data[pal_off:pal_end], np.uint8).reshape(-1, 4)
        palette = bgra[:, [2, 1, 0]].copy()  # BGR(A) → RGB

    row_bytes = (w * bpp // 8 + 3) & ~3
    need = pix_off + row_bytes * h
    if pix_off < 54 or need > len(data):
        raise BmpError("truncated pixel data")
    raw = np.frombuffer(data[pix_off : pix_off + row_bytes * h], np.uint8).reshape(
        h, row_bytes
    )
    if not top_down:
        raw = raw[::-1]
    if bpp == 24:
        bgr = raw[:, : w * 3].reshape(h, w, 3)
        return bgr[..., ::-1].copy()  # BGR → RGB
    idx = raw[:, :w]
    if int(idx.max(initial=0)) >= len(palette):
        raise BmpError("palette index out of range")
    return palette[idx]


class TiffError(ValueError):
    """Malformed / unsupported TIFF payload."""


def decode_tiff(data: bytes) -> np.ndarray:
    """Baseline TIFF: first IFD, 8-bit grayscale or RGB(A), strip
    layout, both byte orders, uncompressed or zlib/deflate-compressed
    strips (compression 1 / 8 / 32946) with optional horizontal
    differencing (predictor 2). LZW/JPEG-in-TIFF, tiles and planar
    layout are rejected with a typed error (validation-grade scope)."""
    if len(data) < 8 or data[:2] not in (b"II", b"MM"):
        raise TiffError("bad tiff signature")
    endian = "<" if data[:2] == b"II" else ">"
    (magic,) = struct.unpack(endian + "H", data[2:4])
    if magic != 42:
        raise TiffError("bad tiff magic")
    (ifd_off,) = struct.unpack(endian + "I", data[4:8])
    if ifd_off + 2 > len(data):
        raise TiffError("truncated IFD")
    (count,) = struct.unpack(endian + "H", data[ifd_off : ifd_off + 2])
    tags: dict[int, tuple[int, int, bytes]] = {}
    for k in range(count):
        e = ifd_off + 2 + 12 * k
        if e + 12 > len(data):
            raise TiffError("truncated IFD entry")
        tag, typ = struct.unpack(endian + "HH", data[e : e + 4])
        (n,) = struct.unpack(endian + "I", data[e + 4 : e + 8])
        tags[tag] = (typ, n, data[e + 8 : e + 12])

    def values(tag: int, default=None):
        if tag not in tags:
            return default
        typ, n, raw = tags[tag]
        size = {1: 1, 3: 2, 4: 4}.get(typ)
        if size is None:
            raise TiffError(f"unsupported tag type {typ}")
        total = size * n
        if total <= 4:
            buf = raw[:total]
        else:
            (off,) = struct.unpack(endian + "I", raw)
            if off + total > len(data):
                raise TiffError("truncated tag data")
            buf = data[off : off + total]
        fmt = {1: "B", 3: "H", 4: "I"}[typ]
        return list(struct.unpack(endian + fmt * n, buf))

    w = (values(256) or [0])[0]
    h = (values(257) or [0])[0]
    if w < 1 or h < 1:
        raise TiffError("zero image dimension")
    compression = (values(259) or [1])[0]
    if compression not in (1, 8, 32946):
        raise TiffError(f"unsupported compression {compression}")
    predictor = (values(317) or [1])[0]
    if predictor not in (1, 2):
        raise TiffError(f"unsupported predictor {predictor}")
    spp = (values(277) or [1])[0]
    bps = values(258) or [1]
    if any(b != 8 for b in bps) or spp not in (1, 3, 4):
        raise TiffError(f"unsupported sample layout bits={bps} spp={spp}")
    if (values(284) or [1])[0] != 1:
        raise TiffError("planar configuration unsupported")
    offsets = values(273)
    counts = values(279)
    if not offsets:
        raise TiffError("missing strip offsets")
    if not counts:
        raise TiffError("missing strip byte counts")
    parts = []
    for off, cnt in zip(offsets, counts):
        if off + cnt > len(data):
            raise TiffError("truncated strip data")
        strip = data[off : off + cnt]
        if compression in (8, 32946):
            import zlib

            try:
                strip = zlib.decompress(strip)
            except zlib.error as exc:
                raise TiffError(f"corrupt deflate strip: {exc}") from None
        parts.append(strip)
    raw = b"".join(parts)
    if len(raw) < h * w * spp:
        raise TiffError("pixel data shorter than frame")
    px = (
        np.frombuffer(raw[: h * w * spp], np.uint8)
        .reshape(h, w, spp)
        .astype(np.int64)
    )
    if predictor == 2:  # horizontal differencing: cumsum across columns
        px = np.cumsum(px, axis=1, dtype=np.int64) & 0xFF
    px = px.astype(np.uint8)
    if spp == 1:
        return np.repeat(px, 3, axis=2)
    return px[..., :3].copy()  # drop alpha if present
