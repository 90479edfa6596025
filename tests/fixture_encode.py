"""Fixture encoders for the image and video decoder tests: BMP, TIFF and
Y4M writers whose output the package's decoders must read back."""

import struct

import numpy as np


def encode_bmp(rgb: np.ndarray, top_down: bool = False) -> bytes:
    """24-bit uncompressed BMP from an ``(h, w, 3)`` uint8 RGB array."""
    px = np.asarray(rgb, np.uint8)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("expected (h, w, 3) RGB")
    h, w = px.shape[:2]
    row_bytes = (w * 3 + 3) & ~3
    body = np.zeros((h, row_bytes), np.uint8)
    bgr = px[..., ::-1]
    rows = bgr if top_down else bgr[::-1]
    body[:, : w * 3] = rows.reshape(h, w * 3)
    pix = body.tobytes()
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, -h if top_down else h, 1, 24, 0, len(pix), 2835, 2835, 0, 0
    )
    hdr = b"BM" + struct.pack("<IHHI", 14 + 40 + len(pix), 0, 0, 14 + 40)
    return hdr + dib + pix


# --- baseline TIFF (kept with BMP: the two trivial uncompressed formats) -----


def encode_tiff(rgb: np.ndarray, big_endian: bool = False) -> bytes:
    """Single-strip uncompressed RGB TIFF."""
    px = np.asarray(rgb, np.uint8)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("expected (h, w, 3) RGB")
    h, w = px.shape[:2]
    endian = ">" if big_endian else "<"
    pix = px.tobytes()
    # layout: header(8) + pixel data + IFD
    pix_off = 8
    ifd_off = pix_off + len(pix)
    entries = [
        (256, 4, 1, w),          # width
        (257, 4, 1, h),          # height
        (258, 3, 3, None),       # bits per sample (offset value)
        (259, 3, 1, 1),          # compression: none
        (262, 3, 1, 2),          # photometric: RGB
        (273, 4, 1, pix_off),    # strip offset
        (277, 3, 1, 3),          # samples per pixel
        (278, 4, 1, h),          # rows per strip
        (279, 4, 1, len(pix)),   # strip byte count
    ]
    bps_off = ifd_off + 2 + 12 * len(entries) + 4
    out = bytearray()
    out += (b"II" if not big_endian else b"MM") + struct.pack(endian + "HI", 42, ifd_off)
    out += pix
    out += struct.pack(endian + "H", len(entries))
    for tag, typ, n, val in entries:
        if tag == 258:
            raw = struct.pack(endian + "I", bps_off)
        elif typ == 3:
            raw = struct.pack(endian + "HH", val, 0)
        else:
            raw = struct.pack(endian + "I", val)
        out += struct.pack(endian + "HHI", tag, typ, n) + raw
    out += struct.pack(endian + "I", 0)  # next IFD
    out += struct.pack(endian + "HHH", 8, 8, 8)
    return bytes(out)


def encode_y4m(frames, fps: int = 10, colorspace: str = "444") -> bytes:
    """Minimal Y4M writer (RGB → full-range BT.601;
    C444 round-trips pixel-near-exact, C420 subsamples 2×2 box)."""
    frames = [np.asarray(f, np.uint8) for f in frames]
    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape[:2]
    if colorspace not in ("444", "420", "mono"):
        raise ValueError("colorspace must be 444, 420 or mono")
    tag = {"444": "444", "420": "420jpeg", "mono": "mono"}[colorspace]
    out = bytearray(f"YUV4MPEG2 W{w} H{h} F{max(fps,1)}:1 Ip A1:1 C{tag}\n".encode())
    for f in frames:
        if f.shape != frames[0].shape:
            raise ValueError("all frames must share one shape")
        r, g, b = (f[..., i].astype(np.float64) for i in range(3))
        y = np.clip(np.round(0.299 * r + 0.587 * g + 0.114 * b), 0, 255)
        out += b"FRAME\n"
        out += y.astype(np.uint8).tobytes()
        if colorspace == "mono":
            continue
        u = np.clip(np.round(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0), 0, 255)
        v = np.clip(np.round(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0), 0, 255)
        if colorspace == "420":
            u = u.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            v = v.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            u, v = np.round(u), np.round(v)
        out += u.astype(np.uint8).tobytes()
        out += v.astype(np.uint8).tobytes()
    return bytes(out)
