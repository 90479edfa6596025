"""Multimodal binary-column stages: images / video as opaque bytes.

The reference validates image/glTF/zip payloads byte-wise
(``/root/reference/fs_schema_validator/schemas/image.py:38-74``,
``gltf.py:29-46``, ``zip.py:19-32``). Audio is this engine's fully-real
payload path (``stages/decode.py``); this module provides the same
Ray-side plumbing for image/video columns:

* **container sniffing + header parsing are real** (pure-Python magic
  numbers + dimension extraction for PNG/JPEG/GIF/BMP/WEBP — no
  imaging library needed), so declared-vs-actual format mismatch and
  corrupt-header violations work end-to-end,
* **PNG/GIF/JPEG/BMP/TIFF pixel decode is real**: from-scratch codecs
  ``functions/png.py`` (stdlib ``zlib`` inflate + vectorized scanline
  unfilter, all color types/depths/filters, Adam7), ``functions/gif.py``
  (variable-width LZW, palettes, 4-pass interlace), ``functions/jpeg.py``
  (baseline Huffman + batched IDCT, interop-proven vs libjpeg output),
  and ``functions/bmp.py`` (BMP 24-bit/paletted + TIFF uncompressed/
  deflate strips with predictor-2) — validate, resize and pHash run on
  actual pixels, like the reference's PIL raster path.
* **WebP is real too — both halves**: ``functions/webp.py`` decodes
  lossless VP8L (prefix codes, color cache, meta-prefix groups, LZ77,
  all four transforms) and ``functions/vp8.py`` decodes lossy VP8 key
  frames (RFC 6386 boolean decoder, intra prediction, IDCT/IWHT, both
  loop filters) from scratch — bit-exact YUV vs libwebp, including the
  reference's own 400×400 ``image.webp`` fixture (VP8X + ALPH + VP8,
  whose ALPH alpha plane also REAL-decodes: raw or headerless-VP8L,
  all four spatial filters).
* **avif decodes REAL when the system provides libavif** — the same
  runtime dependency the reference uses via pillow_avif
  (``functions/avif.py``: direct ctypes binding, AV1 decode by the
  library, plane extraction + BT.601 conversion ours). A from-scratch
  AV1 decoder is out of scope, so WITHOUT the library the default
  :class:`HybridPixelDecoder` falls back to the deterministic
  ``FakePixelDecoder`` (clearly marked; swap a
  real PIL/libvips-backed ``decoder_factory`` per worker in production —
  loaded once per actor in ``__init__``, the stateful-stage shape).

Violation reason strings mirror the reference:
``"payload is not in {fmt} format (got {actual})"`` (``image.py:64-69``)
and ``"file does not contain a valid image"`` (``image.py:70-74``).
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.report import row_violations

# --- container sniffing (real, stdlib-only) --------------------------------


def sniff_image_format(payload: bytes) -> Optional[str]:
    """Magic-number container detection (public file-format specs).

    Covers the reference's full 6-format set (png/webp/jpeg/svg/tiff/avif,
    ``/root/reference/fs_schema_validator/schemas/image.py:15-22``) plus
    gif/bmp.
    """
    if payload.startswith(b"\x89PNG\r\n\x1a\n"):
        return "png"
    if payload.startswith(b"\xff\xd8\xff"):
        return "jpeg"
    if payload.startswith((b"GIF87a", b"GIF89a")):
        return "gif"
    if payload.startswith(b"BM"):
        return "bmp"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        return "webp"
    if payload.startswith((b"II*\x00", b"MM\x00*")):
        return "tiff"
    if len(payload) >= 12 and payload[4:8] == b"ftyp":
        # ISO-BMFF: major brand, then compatible brands fill the ftyp box
        box_len = int.from_bytes(payload[0:4], "big")
        brands = {bytes(payload[8:12])}
        for off in range(16, min(box_len, len(payload), 256) - 3, 4):
            brands.add(bytes(payload[off : off + 4]))
        if brands & {b"avif", b"avis"}:
            return "avif"
        return None
    if _sniff_svg(payload):
        return "svg"
    return None


def _sniff_svg(payload: bytes) -> bool:
    """Text/XML sniff: an ``<svg`` root element after optional BOM, XML
    declaration, comments, whitespace and DOCTYPE (the stdlib analogue of
    the reference's svglib load, ``image.py:47-52``)."""
    head = payload[:4096]
    if head.startswith(b"\xef\xbb\xbf"):
        head = head[3:]
    try:
        text = head.decode("utf-8", errors="strict")
    except UnicodeDecodeError:
        return False
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if not text.startswith("<", i):
            return False
        if text.startswith("<?", i):  # <?xml ... ?>
            end = text.find("?>", i)
            if end < 0:
                return False
            i = end + 2
        elif text.startswith("<!--", i):
            end = text.find("-->", i)
            if end < 0:
                return False
            i = end + 3
        elif text.startswith("<!", i):  # <!DOCTYPE svg ...>
            end = text.find(">", i)
            if end < 0:
                return False
            i = end + 1
        else:
            return text.startswith("<svg", i) and (
                i + 4 >= n or text[i + 4].isspace() or text[i + 4] in ">/"
            )
    return False


def validate_svg(payload: bytes) -> bool:
    """REAL SVG validation: full XML parse (stdlib ElementTree) + root
    element check — the stdlib equivalent of the reference's svglib load
    (``image.py:47-52``). The structural sniff only looks at the first
    4 KB; this catches malformed XML (unclosed tags, bad entities)
    anywhere in the document."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(payload.decode("utf-8"))
    except (ET.ParseError, UnicodeDecodeError, ValueError):
        return False
    tag = root.tag
    return tag == "svg" or tag.endswith("}svg")


def parse_image_dims(payload: bytes, fmt: str) -> Optional[tuple[int, int]]:
    """(width, height) from the container header; None if unparseable."""
    try:
        if fmt == "png":
            if len(payload) < 24 or payload[12:16] != b"IHDR":
                return None
            w, h = struct.unpack(">II", payload[16:24])
            return int(w), int(h)
        if fmt == "gif":
            w, h = struct.unpack("<HH", payload[6:10])
            return int(w), int(h)
        if fmt == "bmp":
            w, h = struct.unpack("<ii", payload[18:26])
            return int(w), abs(int(h))
        if fmt == "jpeg":
            # walk JPEG segments to the SOF marker
            i = 2
            while i + 9 < len(payload):
                if payload[i] != 0xFF:
                    return None
                marker = payload[i + 1]
                if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                    h, w = struct.unpack(">HH", payload[i + 5 : i + 9])
                    return int(w), int(h)
                seg_len = struct.unpack(">H", payload[i + 2 : i + 4])[0]
                i += 2 + seg_len
            return None
        if fmt == "webp":
            tag = payload[12:16]
            if tag == b"VP8X" and len(payload) >= 30:
                w = int.from_bytes(payload[24:27], "little") + 1
                h = int.from_bytes(payload[27:30], "little") + 1
                return w, h
            if tag == b"VP8 " and len(payload) >= 30:
                # lossy simple format: frame header after the 3-byte frame
                # tag + start code 9D 01 2A, then 14-bit width/height
                if payload[23:26] != b"\x9d\x01\x2a":
                    return None
                w = int.from_bytes(payload[26:28], "little") & 0x3FFF
                h = int.from_bytes(payload[28:30], "little") & 0x3FFF
                return w, h
            if tag == b"VP8L" and len(payload) >= 25:
                # lossless: signature byte 0x2F then 14+14 bits packed LE
                if payload[20] != 0x2F:
                    return None
                bits = int.from_bytes(payload[21:25], "little")
                w = (bits & 0x3FFF) + 1
                h = ((bits >> 14) & 0x3FFF) + 1
                return w, h
            return None
        if fmt == "tiff":
            return _tiff_dims(payload)
        if fmt == "avif":
            return _avif_dims(payload)
        if fmt == "svg":
            return _svg_dims(payload)
    except (struct.error, IndexError):
        return None
    return None


def _tiff_dims(payload: bytes) -> Optional[tuple[int, int]]:
    """Walk the first IFD for tags 256/257 (ImageWidth/ImageLength)."""
    endian = "<" if payload[:2] == b"II" else ">"
    (ifd_off,) = struct.unpack(endian + "I", payload[4:8])
    if ifd_off + 2 > len(payload):
        return None
    (count,) = struct.unpack(endian + "H", payload[ifd_off : ifd_off + 2])
    w = h = None
    for k in range(count):
        e = ifd_off + 2 + 12 * k
        if e + 12 > len(payload):
            return None
        tag, typ = struct.unpack(endian + "HH", payload[e : e + 4])
        if tag not in (256, 257):
            continue
        if typ == 3:  # SHORT, value left-justified in the 4-byte field
            (val,) = struct.unpack(endian + "H", payload[e + 8 : e + 10])
        elif typ == 4:  # LONG
            (val,) = struct.unpack(endian + "I", payload[e + 8 : e + 12])
        else:
            return None
        if tag == 256:
            w = int(val)
        else:
            h = int(val)
    return (w, h) if w is not None and h is not None else None


def _avif_dims(payload: bytes) -> Optional[tuple[int, int]]:
    """ISO-BMFF box walk meta → iprp → ipco → ispe (width/height u32 BE).
    ``meta`` is a FullBox (4-byte version/flags after the header)."""

    def walk(lo: int, hi: int, path: tuple[bytes, ...]) -> Optional[tuple[int, int]]:
        i = lo
        while i + 8 <= hi:
            size = int.from_bytes(payload[i : i + 4], "big")
            box = payload[i + 4 : i + 8]
            if size == 1:  # 64-bit largesize
                size = int.from_bytes(payload[i + 8 : i + 16], "big")
                body = i + 16
            elif size == 0:
                size = hi - i
                body = i + 8
            else:
                body = i + 8
            if size < 8 or i + size > hi:
                return None
            if box == b"ispe":
                w = int.from_bytes(payload[body + 4 : body + 8], "big")
                h = int.from_bytes(payload[body + 8 : body + 12], "big")
                return (w, h)
            if path and box == path[0]:
                if box == b"meta":
                    body += 4  # FullBox version/flags
                found = walk(body, i + size, path[1:])
                if found is not None:
                    return found
            i += size
        return None

    return walk(0, len(payload), (b"meta", b"iprp", b"ipco"))


_SVG_DIM_RE = None


def _svg_dims(payload: bytes) -> Optional[tuple[int, int]]:
    """width/height attributes of the root ``<svg>`` tag (px only); falls
    back to the viewBox. Unitless/px numbers round to int."""
    global _SVG_DIM_RE
    import re

    if _SVG_DIM_RE is None:
        _SVG_DIM_RE = re.compile(rb"<svg[^>]*>", re.DOTALL)
    m = _SVG_DIM_RE.search(payload[:8192])
    if m is None:
        return None
    tag = m.group(0)

    def attr(name: bytes) -> Optional[float]:
        # (?<![-\w]): \b alone would match the `width` inside
        # `stroke-width` (hyphen is a word boundary)
        am = re.search(
            rb"(?<![-\w])" + name + rb"""\s*=\s*["']\s*([0-9.]+)\s*(px)?\s*["']""",
            tag,
        )
        return float(am.group(1)) if am else None

    w, h = attr(rb"width"), attr(rb"height")
    if w is not None and h is not None:
        return int(round(w)), int(round(h))
    vb = re.search(
        rb"""viewBox\s*=\s*["']\s*[0-9.eE+-]+[\s,]+[0-9.eE+-]+[\s,]+([0-9.eE+]+)[\s,]+([0-9.eE+]+)\s*["']""",
        tag,
    )
    if vb:
        return int(round(float(vb.group(1)))), int(round(float(vb.group(2))))
    return None


class ImageValidateStage:
    """Actor-pool/map_batches callable: declared-format vs sniffed-format
    + header parse + optional dimension bounds → violation rows
    (reference ``_validate_raster``, ``image.py:54-74``).

    ``deep_decode=True`` (default) additionally runs the REAL
    from-scratch PNG decoder (``functions/png.py``) on png payloads —
    the equivalent of the reference's ``PIL.Image.open`` raster
    validation: a payload with a valid header but corrupt pixel data
    (bad CRC, truncated/garbage zlib stream, wrong scanline count)
    emits ``"file does not contain a valid image"`` exactly like the
    reference's ``UnidentifiedImageError`` path (``image.py:70-74``).
    Non-PNG formats stay header-only (no codec in this sandbox)."""

    def __init__(
        self,
        rule_id: str = "image_decode",
        bytes_column: str = "bytes",
        format_column: str = "format",
        key_column: str = "key",
        min_width: int = 1,
        min_height: int = 1,
        max_width: int = 1 << 20,
        max_height: int = 1 << 20,
        deep_decode: bool = True,
    ) -> None:
        self.rule_id = rule_id
        self.bytes_column = bytes_column
        self.format_column = format_column
        self.key_column = key_column
        self.bounds = (min_width, min_height, max_width, max_height)
        self.deep_decode = deep_decode

    def _check_row(self, p, declared) -> list[str]:
        if p is None or len(p) == 0:
            return ["cannot be empty"]
        actual = sniff_image_format(p)
        if actual is None:
            # reference: svg gets its own reason string (image.py:47-52)
            if declared == "svg":
                return ["file does not contain a valid svg"]
            return ["file does not contain a valid image"]
        if declared is not None and actual != declared:
            return [f"payload is not in {declared} format (got {actual})"]
        if actual == "svg":
            # full XML parse (reference svglib parity, image.py:47-52);
            # intrinsic dims are optional for the vector format
            if self.deep_decode and not validate_svg(p):
                return ["file does not contain a valid svg"]
            dims = parse_image_dims(p, actual)
            if dims is None:
                return []
        else:
            dims = parse_image_dims(p, actual)
            if dims is None:
                return [f"failed to parse {actual} header"]
        w, h = dims
        min_w, min_h, max_w, max_h = self.bounds
        if not (min_w <= w <= max_w and min_h <= h <= max_h):
            return [f"image dimensions {w}x{h} outside bounds"]
        if self.deep_decode and actual == "png":
            from fs_schema_validator_ray.functions.png import (
                PngError,
                decode_apng,
                decode_png,
                png_is_animated,
            )

            # APNG validates through the frame-composition path
            # (every fcTL/fdAT frame must decode); stills as before
            try:
                if png_is_animated(p):
                    decode_apng(p)
                else:
                    decode_png(p)
            except PngError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "gif":
            from fs_schema_validator_ray.functions.gif import (
                GifError,
                decode_gif,
                decode_gif_anim,
                gif_is_animated,
            )

            if gif_is_animated(p):
                # every frame must decode + compose
                try:
                    decode_gif_anim(p)
                except GifError:
                    return ["file does not contain a valid image"]
                return []
            try:
                decode_gif(p)
            except GifError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "jpeg":
            from fs_schema_validator_ray.functions.jpeg import (
                JpegError,
                decode_jpeg,
            )

            try:
                decode_jpeg(p)
            except JpegError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "bmp":
            from fs_schema_validator_ray.functions.bmp import BmpError, decode_bmp

            try:
                decode_bmp(p)
            except BmpError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "tiff":
            from fs_schema_validator_ray.functions.bmp import (
                TiffError,
                decode_tiff,
            )

            try:
                decode_tiff(p)
            except TiffError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "webp":
            from fs_schema_validator_ray.functions.webp import (
                WebpError,
                decode_webp,
                decode_webp_alpha,
                decode_webp_anim,
                webp_is_animated,
            )

            # both halves decode for real (VP8L in webp.py, lossy
            # VP8 key frames in vp8.py), plus the ALPH alpha plane;
            # animated containers validate through the ANMF
            # composition path (every frame must decode)
            try:
                if webp_is_animated(p):
                    decode_webp_anim(p)
                else:
                    decode_webp(p)
                    decode_webp_alpha(p)
            except WebpError:
                return ["file does not contain a valid image"]
        elif self.deep_decode and actual == "avif":
            # REAL only when the system provides libavif (the
            # reference's own runtime dependency); without it the
            # check stays header-level so verdicts never depend on
            # host libraries the corpus oracle can't see
            from fs_schema_validator_ray.functions.avif import (
                AvifError,
                AvifUnavailableError,
                decode_avif,
            )

            try:
                decode_avif(p)
            except AvifUnavailableError:
                pass
            except AvifError:
                return ["file does not contain a valid image"]
        return []

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.bytes_column).to_pylist()
        declared = (
            batch.column(self.format_column).to_pylist()
            if self.format_column in batch.column_names
            else [None] * batch.num_rows
        )
        return row_violations(
            batch, self.key_column, self.rule_id, self._check_row,
            zip(payloads, declared),
        )


# --- pixel decode / features (stubbed behind a per-actor factory) ----------


class FakePixelDecoder:
    """Deterministic stand-in decoder: pixels derived from a hash of the
    payload — makes the full pipeline (schema, batch flow, feature
    extraction) testable without an imaging library.

    ``full_payload_hash=True`` seeds from a digest of the WHOLE payload
    (default keeps the original first-8-bytes seed for output
    stability): identical payloads decode to identical pixels while any
    byte difference yields independent content — the property the
    perceptual-hash dedup plumbing needs."""

    def __init__(self, full_payload_hash: bool = False) -> None:
        self.full_payload_hash = full_payload_hash

    def __call__(self, payload: bytes, fmt: str, dims: tuple[int, int]) -> np.ndarray:
        w, h = dims
        w, h = min(w, 64), min(h, 64)  # bounded fake raster
        if self.full_payload_hash:
            import hashlib

            seed = int.from_bytes(
                hashlib.blake2b(payload, digest_size=8).digest(), "little"
            )
        else:
            seed = int.from_bytes(payload[:8].ljust(8, b"\0"), "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class HybridPixelDecoder:
    """Default per-actor decoder: REAL from-scratch decode for
    png/gif/jpeg/bmp/tiff/webp — both lossless VP8L and lossy VP8 key
    frames (``functions/png.py``, ``gif.py``, ``jpeg.py``, ``bmp.py``,
    ``webp.py``, ``vp8.py``); avif decodes REAL through the system's
    libavif when present (``functions/avif.py``, ctypes — the
    reference's own runtime dependency) and falls back to the
    deterministic :class:`FakePixelDecoder` only when the library is
    absent (CLEARLY-MARKED STUB — a from-scratch AV1 decoder is out of
    scope). Decode failures raise the codec's typed error, which
    the stages turn into a skipped row / ``decode_ok=false``."""

    def __init__(self) -> None:
        self._fake = FakePixelDecoder(full_payload_hash=True)

    def __call__(self, payload: bytes, fmt: str, dims: tuple[int, int]) -> np.ndarray:
        if fmt == "png":
            from fs_schema_validator_ray.functions.png import decode_png

            return decode_png(payload)
        if fmt == "gif":
            from fs_schema_validator_ray.functions.gif import decode_gif

            return decode_gif(payload)
        if fmt == "jpeg":
            from fs_schema_validator_ray.functions.jpeg import decode_jpeg

            return decode_jpeg(payload)
        if fmt == "bmp":
            from fs_schema_validator_ray.functions.bmp import decode_bmp

            return decode_bmp(payload)
        if fmt == "tiff":
            from fs_schema_validator_ray.functions.bmp import decode_tiff

            return decode_tiff(payload)
        if fmt == "webp":
            from fs_schema_validator_ray.functions.webp import decode_webp

            return decode_webp(payload)
        if fmt == "avif":
            from fs_schema_validator_ray.functions.avif import (
                AvifUnavailableError,
                decode_avif,
            )

            try:
                return decode_avif(payload)
            except AvifUnavailableError:
                return self._fake(payload, fmt, dims)
        return self._fake(payload, fmt, dims)


def default_decoder_factory() -> HybridPixelDecoder:
    return HybridPixelDecoder()


def _decode_or_none(decoder, payload, fmt, dims):
    """Per-row decode guard: a malformed payload must yield a skipped
    row / violation, never a failed batch (reference catches decode
    exceptions per file the same way, ``image.py:70-74``)."""
    from fs_schema_validator_ray.functions.avif import AvifError
    from fs_schema_validator_ray.functions.bmp import BmpError, TiffError
    from fs_schema_validator_ray.functions.gif import GifError
    from fs_schema_validator_ray.functions.jpeg import JpegError
    from fs_schema_validator_ray.functions.png import PngError
    from fs_schema_validator_ray.functions.webp import WebpError

    try:
        return decoder(payload, fmt, dims)
    except (
        PngError, GifError, JpegError, BmpError, TiffError, WebpError,
        AvifError, NotImplementedError,
    ):
        return None


class FrameSampleStage:
    """Video frame-sampling stage. For MJPEG-in-AVI payloads this is
    REAL end-to-end (``functions/video.py``): the RIFF container is
    parsed, every ``stride``-th video frame is emitted as its actual
    JPEG bytes, and with ``decode=True`` each sampled frame is pixel-
    decoded (``decode_ok`` + ``mean_luma`` per frame — undecodable
    frames emit ``decode_ok=false``, never a crashed batch). Non-AVI
    containers fall back to the byte-offset STUB rows (clearly marked;
    an mp4/h264 decoder is out of from-scratch scope — swap an
    ffmpeg-backed stage per worker in production)."""

    def __init__(
        self,
        stride: int = 2,
        max_frames: int = 8,
        decode: bool = False,
        every_n_bytes: int = 1 << 16,
        bytes_column: str = "bytes",
        key_column: str = "key",
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.max_frames = max_frames
        self.decode = decode
        self.every = every_n_bytes
        self.bytes_column = bytes_column
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.functions.video import (
            VideoError,
            decode_avi_frame,
            parse_avi,
        )

        keys, idxs, offs, frames, oks, lumas = [], [], [], [], [], []
        payloads = batch.column(self.bytes_column).to_pylist()
        for i, p in enumerate(payloads):
            if not p:
                continue
            k = batch.column(self.key_column)[i].as_py()

            def emit(j, off, fb, decoder=decode_avi_frame):
                keys.append(k)
                idxs.append(j)
                offs.append(off)
                frames.append(fb)
                if self.decode:
                    try:
                        px = decoder(fb)
                    except (VideoError, ValueError):
                        oks.append(False)
                        lumas.append(None)
                    else:
                        oks.append(True)
                        lumas.append(
                            float(
                                np.mean(
                                    0.299 * px[..., 0]
                                    + 0.587 * px[..., 1]
                                    + 0.114 * px[..., 2]
                                )
                            )
                        )

            if p[:4] == b"RIFF" and p[8:12] == b"AVI ":
                try:
                    info = parse_avi(p)
                except VideoError:
                    continue  # corrupt container: no frames (audit pass
                    # is the validate query's contract gate)
                sampled = info.frame_ranges[:: self.stride][: self.max_frames]
                for j, (off, ln) in enumerate(sampled):
                    emit(j, off, p[off : off + ln])
            elif p[:9] == b"YUV4MPEG2":
                # REAL too: uncompressed Y4M (functions/video.py)
                from fs_schema_validator_ray.functions.video import (
                    decode_y4m_frame,
                    parse_y4m,
                )

                try:
                    info = parse_y4m(p)
                except VideoError:
                    continue
                sampled = list(enumerate(info.frame_offsets))[:: self.stride][
                    : self.max_frames
                ]
                for j, (fi, off) in enumerate(sampled):
                    emit(
                        j,
                        off,
                        b"",  # planes stay in the payload; no per-frame copy
                        decoder=lambda _fb, _i=fi: decode_y4m_frame(p, info, _i),
                    )
            elif p[:6] in (b"GIF87a", b"GIF89a"):
                # REAL: animated GIF — composited canvases via the
                # GCE/Netscape path (functions/gif.py)
                from fs_schema_validator_ray.functions.gif import (
                    GifError,
                    decode_gif_anim,
                    gif_is_animated,
                )

                if not gif_is_animated(p):
                    continue
                try:
                    anim = decode_gif_anim(p)
                except GifError:
                    continue
                sampled = list(enumerate(anim["frames"]))[:: self.stride][
                    : self.max_frames
                ]
                for j, (fi, fr) in enumerate(sampled):
                    emit(
                        j,
                        fi,  # frame ordinal
                        b"",
                        decoder=lambda _fb, _f=fr: _f["rgba"],
                    )
            elif p[:8] == b"\x89PNG\r\n\x1a\n":
                # REAL: APNG — composited canvases via the acTL/fcTL/fdAT
                # path (functions/png.py); still PNGs emit no frames here
                from fs_schema_validator_ray.functions.png import (
                    PngError,
                    decode_apng,
                    png_is_animated,
                )

                if not png_is_animated(p):
                    continue
                try:
                    anim = decode_apng(p)
                except PngError:
                    continue  # corrupt container: no frames (audit =
                    # ImageValidateStage's animated branch)
                sampled = list(enumerate(anim["frames"]))[:: self.stride][
                    : self.max_frames
                ]
                for j, (fi, fr) in enumerate(sampled):
                    emit(
                        j,
                        fi,  # frame ordinal (chunk offsets are per-fdAT)
                        b"",
                        decoder=lambda _fb, _f=fr: _f["rgba"],
                    )
            elif p[:4] == b"RIFF" and p[8:12] == b"WEBP":
                # REAL: animated WebP — composited canvases via the
                # ANIM/ANMF path (functions/webp.py); frame pixels go
                # through the libwebp-gated still decoders
                from fs_schema_validator_ray.functions.webp import (
                    WebpError,
                    decode_webp_anim,
                    webp_is_animated,
                )

                if not webp_is_animated(p):
                    continue
                try:
                    anim = decode_webp_anim(p)
                except WebpError:
                    continue  # corrupt container: no frames (audit =
                    # ImageValidateStage's animated branch)
                # ANMF chunk byte offsets for per-frame lineage
                anmf_offs = []
                pos = 12
                while pos + 8 <= len(p):
                    ln = int.from_bytes(p[pos + 4 : pos + 8], "little")
                    if p[pos : pos + 4] == b"ANMF":
                        anmf_offs.append(pos)
                    pos += 8 + ln + (ln & 1)
                sampled = list(enumerate(anim["frames"]))[:: self.stride][
                    : self.max_frames
                ]
                for j, (fi, fr) in enumerate(sampled):
                    emit(
                        j,
                        anmf_offs[fi] if fi < len(anmf_offs) else -1,
                        b"",  # canvases are derived; no per-frame copy
                        decoder=lambda _fb, _f=fr: _f["rgba"],
                    )
            else:
                # STUB fallback for containers without a from-scratch
                # decoder: byte-offset slices keep the pipeline shape
                for j in range(min(self.max_frames, 1 + len(p) // self.every)):
                    off = j * self.every
                    emit(j, off, p[off : off + 256])
        cols = {
            "key": pa.array(keys, pa.string()),
            "frame_index": pa.array(idxs, pa.int32()),
            "byte_offset": pa.array(offs, pa.int64()),
            "frame_bytes": pa.array(frames, pa.binary()),
        }
        if self.decode:
            cols["decode_ok"] = pa.array(oks, pa.bool_())
            cols["mean_luma"] = pa.array(lumas, pa.float64())
        return pa.table(cols)


class ImageResizeStage:
    """Actor-pool stage: decode → nearest-neighbor resize to
    ``(target_w, target_h)`` → emit the raw RGB payload + dims — the
    image-normalization pass of a vision-training pipeline. The RESIZE is
    real numpy (gather on precomputed source index grids, built once per
    actor in ``__init__``); the container DECODE goes through the
    per-actor ``decoder_factory`` (default :class:`HybridPixelDecoder` —
    real PNG, deterministic fake for other containers; plug PIL/libvips
    in production). Undecodable / unsniffable payloads drop (the audit
    pass is ``ImageValidateStage``)."""

    def __init__(
        self,
        target_w: int = 32,
        target_h: int = 32,
        decoder_factory: Optional[Callable[[], Callable]] = None,
        bytes_column: str = "bytes",
        key_column: str = "key",
    ) -> None:
        if target_w < 1 or target_h < 1:
            raise ValueError("target dims must be >= 1")
        self.decoder = (decoder_factory or default_decoder_factory)()  # once per actor
        self.target_w = target_w
        self.target_h = target_h
        self.bytes_column = bytes_column
        self.key_column = key_column

    def _resize(self, px: np.ndarray) -> np.ndarray:
        h, w = px.shape[:2]
        # nearest-neighbor source indices (half-pixel centers)
        ys = np.minimum(
            ((np.arange(self.target_h) + 0.5) * h / self.target_h).astype(np.int64),
            h - 1,
        )
        xs = np.minimum(
            ((np.arange(self.target_w) + 0.5) * w / self.target_w).astype(np.int64),
            w - 1,
        )
        return px[ys[:, None], xs[None, :]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.bytes_column).to_pylist()
        keys, blobs, ws, hs = [], [], [], []
        for i, p in enumerate(payloads):
            fmt = sniff_image_format(p or b"")
            dims = parse_image_dims(p, fmt) if fmt else None
            if not fmt or not dims:
                continue
            px = _decode_or_none(self.decoder, p, fmt, dims)
            if px is None:
                continue
            out = np.ascontiguousarray(self._resize(px), dtype=np.uint8)
            keys.append(batch.column(self.key_column)[i].as_py())
            blobs.append(out.tobytes())
            ws.append(self.target_w)
            hs.append(self.target_h)
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "rgb": pa.array(blobs, pa.binary()),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
            }
        )


PHASH_SCHEMA = pa.schema(
    [("key", pa.string()), ("fp", pa.int64()), ("decode_ok", pa.bool_())]
)


class PHashStage:
    """Actor-pool stage: 64-bit perceptual hash (pHash) per image —
    decode → luma → 32×32 resample → 2-D DCT-II → sign bits of the 8×8
    low-frequency block vs their median. Small geometric/quality edits
    move few bits, so near-dup detection is a hamming-≤k pair search —
    feed the output to ``stages/dedup.py::fingerprint64_near_dup_pairs``
    (the same banding the audio fingerprints use).

    Actor state: the decoder AND the 32×32 DCT basis matrix are built
    once per actor in ``__init__``, not per batch. Decode is per-image
    (variable payloads); the hash math is one ``D @ A @ Dᵀ`` per image.
    Default decoder is :class:`HybridPixelDecoder` (real PNG pixels,
    deterministic fake for other containers). Undecodable/unsniffable
    payloads emit ``decode_ok=false`` with a null hash."""

    _N = 32

    def __init__(
        self,
        decoder_factory: Optional[Callable[[], Callable]] = None,
        bytes_column: str = "bytes",
        key_column: str = "key",
    ) -> None:
        self.decoder = (decoder_factory or default_decoder_factory)()  # once per actor
        self.bytes_column = bytes_column
        self.key_column = key_column
        n = self._N
        k = np.arange(n)
        # orthonormal DCT-II basis (scipy.fft.dct(norm="ortho") parity)
        self._dct = np.sqrt(2.0 / n) * np.cos(
            np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n)
        )
        self._dct[0] /= np.sqrt(2.0)

    def phash64(self, px: np.ndarray) -> int:
        gray = (
            0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
        ).astype(np.float64)
        h, w = gray.shape
        n = self._N
        ri = np.minimum((np.arange(n) * h) // n, h - 1)
        ci = np.minimum((np.arange(n) * w) // n, w - 1)
        small = gray[ri][:, ci]
        coeffs = self._dct @ small @ self._dct.T
        block = coeffs[:8, :8].ravel()[1:]  # drop the DC term
        bits = block > np.median(block)
        return int(
            np.bitwise_or.reduce(
                bits.astype(np.uint64) << np.arange(63, dtype=np.uint64)
            )
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.bytes_column).to_pylist()
        keys = batch.column(self.key_column).to_pylist()
        out_k, out_fp, out_ok = [], [], []
        for key, p in zip(keys, payloads):
            out_k.append(None if key is None else str(key))
            fmt = sniff_image_format(p or b"")
            dims = parse_image_dims(p, fmt) if fmt else None
            if not fmt or not dims or dims[0] < 1 or dims[1] < 1:
                out_fp.append(None)
                out_ok.append(False)
                continue
            px = _decode_or_none(self.decoder, p, fmt, dims)
            if px is None:
                out_fp.append(None)
                out_ok.append(False)
                continue
            out_fp.append(np.int64(np.uint64(self.phash64(px))))
            out_ok.append(True)
        return pa.table(
            {
                "key": pa.array(out_k, pa.string()),
                "fp": pa.array(out_fp, pa.int64()),
                "decode_ok": pa.array(out_ok, pa.bool_()),
            }
        )
