"""From-scratch PNG codec (stdlib ``zlib`` + numpy — no imaging library).

The reference validates rasters by actually decoding them with PIL
(``/root/reference/fs_schema_validator/schemas/image.py:54-74``); this
sandbox has no imaging library, so this module implements the PNG spec
(RFC 2083 / W3C PNG) directly to give the image path a REAL pixel
decode:

* ``decode_png(data) -> (h, w, 3) uint8 RGB`` — chunk walk with CRC
  verification, concatenated-IDAT ``zlib`` inflate, per-row unfiltering
  (None/Sub/Up/Average/Paeth), color types 0 (gray), 2 (RGB),
  3 (palette), 4 (gray+alpha), 6 (RGBA), bit depths 1/2/4/8/16, and
  Adam7 interlace. Malformed input raises :class:`PngError` with a
  human-readable reason (the violation string the validate stage emits).
* ``encode_png(...)`` — the matching encoder (any filter type per call,
  optional Adam7) used by the deterministic synthetic corpus and the
  round-trip tests; every decoder path is exercised against it.

Performance notes (this runs inside ``map_batches`` actors): filters
None/Sub/Up unfilter fully vectorized (Sub is a per-byte-lane cumsum
mod 256); Average/Paeth fall back to a per-byte loop because their
recurrence needs the just-reconstructed left neighbor — encoders
overwhelmingly emit filters 0-2 for synthetic/screenshot content, and
the loop is still bounded by row bytes, not pixels².
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# color type → samples per pixel
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
# color type → allowed bit depths (PNG spec table 11.1)
_ALLOWED_DEPTHS = {
    0: (1, 2, 4, 8, 16),
    2: (8, 16),
    3: (1, 2, 4, 8),
    4: (8, 16),
    6: (8, 16),
}

# Adam7 pass layout: (x_start, y_start, x_stride, y_stride)
_ADAM7 = (
    (0, 0, 8, 8),
    (4, 0, 8, 8),
    (0, 4, 4, 8),
    (2, 0, 4, 4),
    (0, 2, 2, 4),
    (1, 0, 2, 2),
    (0, 1, 1, 2),
)


class PngError(ValueError):
    """Malformed / unsupported PNG payload (reason string is the
    violation message)."""


# --- decoding ---------------------------------------------------------------


def _iter_chunks(data: bytes):
    i = len(_SIGNATURE)
    n = len(data)
    while i + 8 <= n:
        (length,) = struct.unpack(">I", data[i : i + 4])
        ctype = data[i + 4 : i + 8]
        end = i + 8 + length
        if length > 0x7FFFFFFF or end + 4 > n:
            raise PngError("truncated chunk")
        payload = data[i + 8 : end]
        (crc,) = struct.unpack(">I", data[end : end + 4])
        if zlib.crc32(ctype + payload) & 0xFFFFFFFF != crc:
            raise PngError(f"crc mismatch in {ctype.decode('latin1')} chunk")
        yield ctype, payload
        i = end + 4
        if ctype == b"IEND":
            return
    raise PngError("missing IEND chunk")


def _unfilter(raw: np.ndarray, ph: int, row_bytes: int, bpp: int) -> np.ndarray:
    """Reconstruct ``ph`` rows of ``row_bytes`` bytes from filtered
    scanlines (each prefixed by its filter-type byte)."""
    rows = raw.reshape(ph, 1 + row_bytes)
    ftypes = rows[:, 0]
    if ftypes.max(initial=0) > 4:
        raise PngError(f"invalid filter type {int(ftypes.max())}")
    out = np.zeros((ph, row_bytes), dtype=np.int64)
    prev = np.zeros(row_bytes, dtype=np.int64)
    for y in range(ph):
        cur = rows[y, 1:].astype(np.int64)
        f = int(ftypes[y])
        if f == 0:
            rec = cur
        elif f == 1:  # Sub: per-byte-lane cumsum mod 256
            rec = cur.copy()
            for lane in range(bpp):
                rec[lane::bpp] = np.cumsum(cur[lane::bpp]) & 0xFF
        elif f == 2:  # Up
            rec = (cur + prev) & 0xFF
        elif f == 3:  # Average (sequential: needs reconstructed left)
            rec = cur.copy()
            for x in range(row_bytes):
                a = rec[x - bpp] if x >= bpp else 0
                rec[x] = (cur[x] + ((a + prev[x]) >> 1)) & 0xFF
        else:  # Paeth
            rec = cur.copy()
            for x in range(row_bytes):
                a = rec[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
                rec[x] = (cur[x] + pred) & 0xFF
        out[y] = rec
        prev = rec
    return out.astype(np.uint8)


def _unpack_samples(
    rows: np.ndarray, pw: int, channels: int, depth: int
) -> np.ndarray:
    """(ph, pw, channels) integer samples from reconstructed row bytes."""
    ph = rows.shape[0]
    if depth == 8:
        return rows[:, : pw * channels].reshape(ph, pw, channels)
    if depth == 16:
        wide = rows[:, : pw * channels * 2].reshape(ph, pw * channels, 2)
        vals = (wide[..., 0].astype(np.uint16) << 8) | wide[..., 1]
        return vals.reshape(ph, pw, channels)
    # sub-byte depths (1/2/4): bit-unpack each row MSB-first
    bits = np.unpackbits(rows, axis=1)[:, : pw * channels * depth]
    bits = bits.reshape(ph, pw * channels, depth)
    weights = 1 << np.arange(depth - 1, -1, -1, dtype=np.uint8)
    vals = (bits * weights).sum(axis=2)
    return vals.reshape(ph, pw, channels)


def _pass_dims(w: int, h: int, x0: int, y0: int, dx: int, dy: int) -> tuple[int, int]:
    return max(0, -(-(w - x0) // dx)), max(0, -(-(h - y0) // dy))


def decode_png(data: bytes) -> np.ndarray:
    """Decode a PNG payload to an ``(h, w, 3)`` uint8 RGB array.

    16-bit samples scale down to 8-bit (high byte); alpha channels are
    dropped (validation concerns pixel content, not compositing); gray
    replicates to RGB; palette indices map through PLTE. Raises
    :class:`PngError` on any spec violation (bad signature/CRC/zlib
    stream, inconsistent sizes, unknown color type/depth/filter,
    out-of-range palette index)."""
    if not data.startswith(_SIGNATURE):
        raise PngError("bad png signature")

    ihdr = None
    plte: np.ndarray | None = None
    trns: bytes | None = None
    idat_parts: list[bytes] = []
    for ctype, payload in _iter_chunks(data):
        if ihdr is None:
            if ctype != b"IHDR":
                raise PngError("first chunk is not IHDR")
            if len(payload) != 13:
                raise PngError("bad IHDR length")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"PLTE":
            if len(payload) % 3 or not payload:
                raise PngError("bad PLTE length")
            plte = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = payload
        elif ctype == b"IDAT":
            idat_parts.append(payload)
    if ihdr is None:
        raise PngError("missing IHDR chunk")

    w, h, depth, color_type, compression, filter_method, interlace = ihdr
    if w < 1 or h < 1:
        raise PngError("zero image dimension")
    if color_type not in _CHANNELS:
        raise PngError(f"unknown color type {color_type}")
    if depth not in _ALLOWED_DEPTHS[color_type]:
        raise PngError(f"invalid bit depth {depth} for color type {color_type}")
    if compression != 0 or filter_method != 0:
        raise PngError("unknown compression/filter method")
    if interlace not in (0, 1):
        raise PngError(f"unknown interlace method {interlace}")
    if color_type == 3 and plte is None:
        raise PngError("palette image missing PLTE chunk")
    if not idat_parts:
        raise PngError("missing IDAT chunk")

    return _decode_pixels(
        b"".join(idat_parts), w, h, depth, color_type, interlace, plte, trns
    )[..., :3]


def _decode_pixels(
    zdata: bytes,
    w: int,
    h: int,
    depth: int,
    color_type: int,
    interlace: int,
    plte: np.ndarray | None,
    trns: bytes | None = None,
) -> np.ndarray:
    """Shared IDAT/fdAT pixel core: inflate → unfilter → unpack →
    ``(h, w, 4)`` uint8 RGBA. ``trns`` (the tRNS chunk body) supplies
    per-palette-entry alpha for color type 3 and the transparent-color
    key for types 0/2 (spec §11.3.2). Used by the still decoder (which
    drops A) and the APNG frame decoder (which keeps it)."""
    try:
        decomp = zlib.decompress(zdata)
    except zlib.error as exc:
        raise PngError(f"corrupt zlib stream: {exc}") from None
    raw = np.frombuffer(decomp, dtype=np.uint8)

    channels = _CHANNELS[color_type]
    bpp = max(1, channels * depth // 8)
    passes = _ADAM7 if interlace else ((0, 0, 1, 1),)
    expected = sum(
        ph * (1 + -(-(pw * channels * depth) // 8))
        for x0, y0, dx, dy in passes
        for pw, ph in [_pass_dims(w, h, x0, y0, dx, dy)]
        if pw and ph
    )
    if len(raw) != expected:
        raise PngError(
            f"pixel data length {len(raw)} != expected {expected}"
        )

    img = np.zeros((h, w, channels), dtype=np.uint16)
    off = 0
    for x0, y0, dx, dy in passes:
        pw, ph = _pass_dims(w, h, x0, y0, dx, dy)
        if not pw or not ph:
            continue
        row_bytes = -(-(pw * channels * depth) // 8)
        chunk = raw[off : off + ph * (1 + row_bytes)]
        off += ph * (1 + row_bytes)
        rows = _unfilter(chunk, ph, row_bytes, bpp)
        samples = _unpack_samples(rows, pw, channels, depth)
        img[y0::dy, x0::dx] = samples

    # → 8-bit RGBA
    out = np.empty((h, w, 4), np.uint8)
    if color_type == 3:
        idx = img[..., 0]
        if int(idx.max(initial=0)) >= len(plte):
            raise PngError("palette index out of range")
        out[..., :3] = plte[idx]
        if trns is not None:
            pal_alpha = np.full(len(plte), 255, np.uint8)
            ta = np.frombuffer(trns, np.uint8)
            if len(ta) > len(plte):
                raise PngError("tRNS longer than palette")
            pal_alpha[: len(ta)] = ta
            out[..., 3] = pal_alpha[idx]
        else:
            out[..., 3] = 255
        return out
    # color-key transparency compares RAW (pre-scaling) sample values
    key_mask = None
    if trns is not None and color_type == 0:
        if len(trns) != 2:
            raise PngError("bad tRNS length for grayscale")
        key = struct.unpack(">H", trns)[0]
        key_mask = img[..., 0] == key
    elif trns is not None and color_type == 2:
        if len(trns) != 6:
            raise PngError("bad tRNS length for RGB")
        kr, kg, kb = struct.unpack(">HHH", trns)
        key_mask = (
            (img[..., 0] == kr) & (img[..., 1] == kg) & (img[..., 2] == kb)
        )
    if depth == 16:
        img = img >> 8
    elif depth < 8 and color_type == 0:
        img = img * (255 // ((1 << depth) - 1))
    img = img.astype(np.uint8)
    if color_type == 0:
        out[..., :3] = np.repeat(img, 3, axis=2)
        out[..., 3] = 255
    elif color_type == 2:
        out[..., :3] = img
        out[..., 3] = 255
    elif color_type == 4:
        out[..., :3] = np.repeat(img[..., :1], 3, axis=2)
        out[..., 3] = img[..., 1]
    else:  # color_type == 6
        out[:] = img
    if key_mask is not None:
        out[key_mask, 3] = 0
    return out


# --- encoding ---------------------------------------------------------------


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + ctype
        + payload
        + struct.pack(">I", zlib.crc32(ctype + payload))
    )


def _filter_rows(
    samples: np.ndarray, row_bytes: int, bpp: int, filter_type: int
) -> bytes:
    """Forward-filter rows (ph, row_bytes) → filtered scanline bytes.
    Forward filtering is fully vectorized: predictors use ORIGINAL
    neighbor bytes."""
    cur = samples.astype(np.int64)
    ph = cur.shape[0]
    prev = np.zeros_like(cur)
    prev[1:] = cur[:-1]
    left = np.zeros_like(cur)
    left[:, bpp:] = cur[:, :-bpp]
    ul = np.zeros_like(cur)
    ul[1:, bpp:] = cur[:-1, :-bpp]
    if filter_type == 0:
        filt = cur
    elif filter_type == 1:
        filt = (cur - left) & 0xFF
    elif filter_type == 2:
        filt = (cur - prev) & 0xFF
    elif filter_type == 3:
        filt = (cur - ((left + prev) >> 1)) & 0xFF
    elif filter_type == 4:
        p = left + prev - ul
        pa_, pb, pc_ = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
        pred = np.where(
            (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, prev, ul)
        )
        filt = (cur - pred) & 0xFF
    else:
        raise ValueError(f"filter type {filter_type} out of range")
    out = np.empty((ph, 1 + row_bytes), dtype=np.uint8)
    out[:, 0] = filter_type
    out[:, 1:] = filt.astype(np.uint8)
    return out.tobytes()


def _pack_samples(samples: np.ndarray, pw: int, channels: int, depth: int) -> np.ndarray:
    """(ph, pw, channels) integer samples → (ph, row_bytes) row bytes."""
    ph = samples.shape[0]
    flat = samples.reshape(ph, pw * channels)
    if depth == 8:
        return flat.astype(np.uint8)
    if depth == 16:
        vals = flat.astype(np.uint16)
        out = np.empty((ph, pw * channels * 2), dtype=np.uint8)
        out[:, 0::2] = vals >> 8
        out[:, 1::2] = vals & 0xFF
        return out
    bits = (
        (flat[..., None].astype(np.uint8) >> np.arange(depth - 1, -1, -1)) & 1
    ).reshape(ph, -1)
    return np.packbits(bits, axis=1)


def encode_png(
    pixels: np.ndarray,
    color_type: int = 2,
    bit_depth: int = 8,
    filter_type: int = 0,
    interlace: bool = False,
    palette: np.ndarray | None = None,
) -> bytes:
    """Encode samples to PNG bytes. ``pixels`` shape: ``(h, w)`` for
    color types 0/3, ``(h, w, channels)`` otherwise; values must already
    fit ``bit_depth``. Used by the synthetic corpus and the round-trip
    tests — supports every (color type × depth × filter × interlace)
    combination the decoder accepts."""
    if color_type not in _CHANNELS:
        raise ValueError(f"unknown color type {color_type}")
    if bit_depth not in _ALLOWED_DEPTHS[color_type]:
        raise ValueError(f"depth {bit_depth} invalid for color type {color_type}")
    channels = _CHANNELS[color_type]
    px = np.asarray(pixels)
    if channels == 1 and px.ndim == 2:
        px = px[..., None]
    if px.ndim != 3 or px.shape[2] != channels:
        raise ValueError(f"expected (h, w, {channels}) samples")
    h, w = px.shape[:2]
    bpp = max(1, channels * bit_depth // 8)

    parts = []
    passes = _ADAM7 if interlace else ((0, 0, 1, 1),)
    for x0, y0, dx, dy in passes:
        sub = px[y0::dy, x0::dx]
        ph, pw = sub.shape[:2]
        if not pw or not ph:
            continue
        row_bytes = -(-(pw * channels * bit_depth) // 8)
        rows = _pack_samples(sub, pw, channels, bit_depth)
        parts.append(_filter_rows(rows, row_bytes, bpp, filter_type))

    ihdr = struct.pack(
        ">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 1 if interlace else 0
    )
    out = [_SIGNATURE, _chunk(b"IHDR", ihdr)]
    if color_type == 3:
        if palette is None:
            raise ValueError("palette required for color type 3")
        out.append(_chunk(b"PLTE", np.asarray(palette, np.uint8).tobytes()))
    out.append(_chunk(b"IDAT", zlib.compress(b"".join(parts), 6)))
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)


# --- APNG (animated PNG, public spec) ----------------------------------------
#
# Same honesty model as functions/webp.py's animated path: frame PIXELS go
# through the gated still core (`_decode_pixels` — the exact code path the
# reference-fixture-gated still decoder uses); the code here is only the
# acTL/fcTL/fdAT demux, sequence validation and canvas composition
# (dispose none/background/previous, blend source/over). The OVER blend
# imports webp's integer formula so the repo has ONE deterministic
# alpha-blend definition.


def decode_apng(data: bytes) -> dict:
    """Decode an APNG to composited canvases.

    Returns ``{"canvas_w", "canvas_h", "num_plays", "frames": [{"rgba",
    "delay_num", "delay_den", "rect", "dispose_op", "blend_op"}]}`` —
    each ``rgba`` is the full canvas after that frame (what a renderer
    shows). Composition per the APNG spec: output buffer starts fully
    transparent black; ``blend_op`` 0 replaces the rect, 1 composites
    OVER; ``dispose_op`` 0 keeps, 1 clears the rect to transparent,
    2 reverts it to its pre-render content (first frame: treated as 1).
    Sequence numbers are validated strictly. Raises :class:`PngError`
    on malformed containers (totality convention)."""
    if not data.startswith(_SIGNATURE):
        raise PngError("bad png signature")
    ihdr = None
    plte: np.ndarray | None = None
    trns: bytes | None = None
    actl = None
    default_idat: list[bytes] = []
    frames_raw: list[dict] = []  # per fcTL: {"seq", "hdr", "data": [bytes]}
    seen_idat = False
    for ctype, payload in _iter_chunks(data):
        if ihdr is None:
            if ctype != b"IHDR":
                raise PngError("first chunk is not IHDR")
            if len(payload) != 13:
                raise PngError("bad IHDR length")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"PLTE":
            if len(payload) % 3 or not payload:
                raise PngError("bad PLTE length")
            plte = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = payload
        elif ctype == b"acTL":
            if len(payload) != 8:
                raise PngError("bad acTL length")
            if seen_idat:
                raise PngError("acTL after IDAT")
            actl = struct.unpack(">II", payload)
        elif ctype == b"fcTL":
            if len(payload) != 26:
                raise PngError("bad fcTL length")
            seq = struct.unpack(">I", payload[:4])[0]
            frames_raw.append(
                {"seq": seq, "hdr": struct.unpack(">IIIIHHBB", payload[4:]),
                 "data": [], "uses_idat": not seen_idat}
            )
        elif ctype == b"IDAT":
            seen_idat = True
            default_idat.append(payload)
            if frames_raw and frames_raw[0]["uses_idat"]:
                frames_raw[0]["data"].append(payload)
        elif ctype == b"fdAT":
            if len(payload) < 4:
                raise PngError("bad fdAT length")
            if not frames_raw:
                raise PngError("fdAT before any fcTL")
            frames_raw[-1]["seq_d"] = frames_raw[-1].get(
                "seq_d", []
            ) + [struct.unpack(">I", payload[:4])[0]]
            frames_raw[-1]["data"].append(payload[4:])
    if ihdr is None:
        raise PngError("missing IHDR chunk")
    if actl is None:
        raise PngError("not an APNG (no acTL chunk)")
    num_frames, num_plays = actl
    w, h, depth, color_type, compression, filter_method, interlace = ihdr
    if compression != 0 or filter_method != 0:
        raise PngError("unknown compression/filter method")
    if color_type not in _CHANNELS or depth not in _ALLOWED_DEPTHS.get(
        color_type, ()
    ):
        raise PngError("bad color type / depth")
    if num_frames != len(frames_raw):
        raise PngError(
            f"acTL num_frames {num_frames} != {len(frames_raw)} fcTL chunks"
        )
    # strict sequence validation: fcTL and fdAT share one 0-based counter
    expect = 0
    for fr in frames_raw:
        if fr["seq"] != expect:
            raise PngError(f"fcTL sequence {fr['seq']} != expected {expect}")
        expect += 1
        for s in fr.get("seq_d", []):
            if s != expect:
                raise PngError(f"fdAT sequence {s} != expected {expect}")
            expect += 1

    from fs_schema_validator_ray.functions.webp import _blend_px

    canvas = np.zeros((h, w, 4), np.uint8)
    out_frames = []
    for i, fr in enumerate(frames_raw):
        fw, fh, fx, fy, dnum, dden, dispose, blend = fr["hdr"]
        if fx + fw > w or fy + fh > h or not fw or not fh:
            raise PngError("fcTL frame rect outside canvas")
        if fr["uses_idat"] and (fw, fh, fx, fy) != (w, h, 0, 0):
            raise PngError("IDAT-backed first frame must cover the canvas")
        if not fr["data"]:
            raise PngError("frame without pixel data")
        if blend not in (0, 1) or dispose not in (0, 1, 2):
            raise PngError("bad fcTL blend/dispose op")
        rgba = _decode_pixels(
            b"".join(fr["data"]), fw, fh, depth, color_type, interlace, plte,
            trns,
        )
        if i == 0 and dispose == 2:
            dispose = 1  # spec: first-frame dispose PREVIOUS -> BACKGROUND
        rect = canvas[fy : fy + fh, fx : fx + fw]
        saved = rect.copy() if dispose == 2 else None
        if blend == 0:
            rect[:] = rgba
        else:
            rect[:] = _blend_px(rect, rgba)
        out_frames.append(
            {
                "rgba": canvas.copy(),
                "delay_num": dnum,
                "delay_den": dden,
                "rect": (fx, fy, fw, fh),
                "dispose_op": dispose,
                "blend_op": blend,
            }
        )
        if dispose == 1:
            rect[:] = 0
        elif dispose == 2:
            rect[:] = saved
    if not out_frames:
        raise PngError("APNG with zero frames")
    return {
        "canvas_w": w,
        "canvas_h": h,
        "num_plays": num_plays,
        "frames": out_frames,
    }


def png_is_animated(data: bytes) -> bool:
    """True when the payload is a PNG with an acTL chunk before IDAT."""
    if not data.startswith(_SIGNATURE):
        return False
    try:
        for ctype, _ in _iter_chunks(data):
            if ctype == b"acTL":
                return True
            if ctype == b"IDAT":
                return False
    except PngError:
        return False
    return False


def encode_apng(
    canvas_w: int,
    canvas_h: int,
    frames: list[dict],
    *,
    num_plays: int = 0,
) -> bytes:
    """Assemble an APNG (fixture/test support — inverse of
    :func:`decode_apng`). Each frame dict: ``rgba`` (fh, fw, 4) uint8,
    ``x``/``y``, ``delay_num``/``delay_den``, ``dispose_op``,
    ``blend_op``. The first frame must cover the canvas (it doubles as
    the still default image via IDAT); later frames ship as fdAT.
    Frames encode as color type 6 / depth 8 (RGBA), so a round trip
    through :func:`decode_apng` reproduces composited canvases
    exactly."""
    if not frames:
        raise ValueError("at least one frame required")
    f0 = np.asarray(frames[0]["rgba"], np.uint8)
    if f0.shape[:2] != (canvas_h, canvas_w) or frames[0].get("x", 0) or frames[0].get("y", 0):
        raise ValueError("first frame must cover the whole canvas at (0, 0)")

    def frame_zdata(rgba: np.ndarray) -> bytes:
        fh, fw = rgba.shape[:2]
        rows = _pack_samples(rgba, fw, 4, 8)
        row_bytes = fw * 4
        return zlib.compress(bytes(_filter_rows(rows, row_bytes, 4, 0)), 6)

    ihdr = struct.pack(">IIBBBBB", canvas_w, canvas_h, 8, 6, 0, 0, 0)
    out = [_SIGNATURE, _chunk(b"IHDR", ihdr)]
    out.append(_chunk(b"acTL", struct.pack(">II", len(frames), num_plays)))
    seq = 0
    for i, f in enumerate(frames):
        rgba = np.asarray(f["rgba"], np.uint8)
        fh, fw = rgba.shape[:2]
        fctl = struct.pack(
            ">IIIIIHHBB",
            seq, fw, fh, int(f.get("x", 0)), int(f.get("y", 0)),
            int(f.get("delay_num", 1)), int(f.get("delay_den", 10)),
            int(f.get("dispose_op", 0)), int(f.get("blend_op", 0)),
        )
        out.append(_chunk(b"fcTL", fctl))
        seq += 1
        z = frame_zdata(rgba)
        if i == 0:
            out.append(_chunk(b"IDAT", z))
        else:
            out.append(_chunk(b"fdAT", struct.pack(">I", seq) + z))
            seq += 1
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)
