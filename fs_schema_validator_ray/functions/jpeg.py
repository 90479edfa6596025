"""From-scratch JPEG codec, baseline + progressive (stdlib + numpy).

Completes the raster trio (``png.py``, ``gif.py``): SOF0/1 baseline
sequential AND SOF2 progressive JPEG — the reference validates both
transparently via PIL (``/root/reference/tests/fixtures/image.jpg``;
real corpora are ~10% progressive).

* ``decode_jpeg(data) -> (h, w, 3) uint8 RGB`` — multi-scan marker
  parse (DQT / SOF / DHT / DRI / one-or-many SOS, APPn+COM skipped),
  byte-unstuffed entropy per scan, canonical-Huffman block decode (DC
  predict + extend, AC run-length, EOB/ZRL), progressive spectral
  selection + successive approximation (DC first/refine, AC first with
  EOB runs, AC refinement with interleaved correction bits — ITU T.81
  §G semantics), then one batched dequantize → dezigzag → 8×8 IDCT
  (orthonormal basis matmul over all blocks per component), chroma
  upsampling for any h×v sampling factors, BT.601 YCbCr→RGB. Grayscale
  decodes replicated to RGB. Malformed input raises :class:`JpegError`.
* ``encode_jpeg(rgb, quality=90, subsample=False, progressive=False)``
  — the matching encoder for tests/corpus: forward DCT + quantization
  (quality-scaled tables), 4:4:4 or 4:2:0, SELF-BUILT canonical Huffman
  tables from actual symbol frequencies, and a progressive (SOF2)
  multi-scan mode whose AC-refinement bit stream is generated by
  simulating the decoder's walk — decode(progressive) must equal
  decode(baseline) EXACTLY (same quantized coefficients).

Performance shape: per-block Huffman decoding is a Python loop
(inherently sequential bit stream — the format's nature); dequantize /
IDCT / color convert are batched numpy over all blocks. Validation-scale
images decode in milliseconds; the hot corpus path remains PNG.
"""

from __future__ import annotations

import struct

import numpy as np


class JpegError(ValueError):
    """Malformed / unsupported JPEG payload."""


# zigzag scan order: index z -> (row, col) flat position
_ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

# base luminance/chrominance quant tables (ITU T.81 Annex K examples —
# published reference tables; any table is legal, the stream carries it)
_Q_LUM = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.float64,
)
_Q_CHROM = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.float64,
)


def _dct_basis() -> np.ndarray:
    k = np.arange(8)
    c = np.sqrt(2.0 / 8) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / 16.0)
    c[0] /= np.sqrt(2.0)
    return c  # orthonormal: X = C @ x @ C.T, x = C.T @ X @ C


_C = _dct_basis()


# --- bit I/O -----------------------------------------------------------------


class _BitReader:
    """MSB-first reader over the UNSTUFFED entropy bytes."""

    __slots__ = ("data", "pos", "acc", "bits")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.acc = 0
        self.bits = 0

    def read(self, n: int) -> int:
        while self.bits < n:
            if self.pos >= len(self.data):
                raise JpegError("entropy stream exhausted")
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.bits += 8
        self.bits -= n
        out = (self.acc >> self.bits) & ((1 << n) - 1)
        self.acc &= (1 << self.bits) - 1
        return out

    def reset(self) -> None:
        self.acc = 0
        self.bits = 0


class _HuffTable:
    """Canonical Huffman: decode via (length, code) dict walk."""

    def __init__(self, bits: list[int], values: bytes) -> None:
        if len(bits) != 16 or sum(bits) != len(values):
            raise JpegError("inconsistent huffman table")
        self.lookup: dict[tuple[int, int], int] = {}
        code = 0
        vi = 0
        for length in range(1, 17):
            for _ in range(bits[length - 1]):
                self.lookup[(length, code)] = values[vi]
                vi += 1
                code += 1
            code <<= 1

    def decode(self, br: _BitReader) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | br.read(1)
            sym = self.lookup.get((length, code))
            if sym is not None:
                return sym
        raise JpegError("invalid huffman code")


def _extend(v: int, t: int) -> int:
    """JPEG EXTEND: map t-bit magnitude to signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


# --- decoding ---------------------------------------------------------------


def decode_jpeg(data: bytes) -> np.ndarray:
    """Totality guarantee: any malformed payload raises JpegError, never a
    bare IndexError/ValueError/struct.error — validation stages catch
    JpegError only, and one bad row must not kill a map_batches task."""
    try:
        return _decode_jpeg_impl(data)
    except JpegError:
        raise
    except (IndexError, ValueError, struct.error) as exc:
        raise JpegError(f"malformed jpeg ({type(exc).__name__}): {exc}") from exc


def _unstuff_scan(data: bytes, pos: int) -> tuple[bytes, list[int], int]:
    """Collect the entropy bytes of one scan (0xFF00 unstuffed, RSTn
    boundaries recorded) up to the next true marker; returns
    (entropy, restart_offsets, position_of_next_marker)."""
    n = len(data)
    entropy = bytearray()
    restarts = []
    i = pos
    while i < n:
        b = data[i]
        if b == 0xFF:
            if i + 1 >= n:
                raise JpegError("truncated entropy stream")
            m = data[i + 1]
            if m == 0x00:
                entropy.append(0xFF)
                i += 2
                continue
            if 0xD0 <= m <= 0xD7:
                restarts.append(len(entropy))
                i += 2
                continue
            return bytes(entropy), restarts, i
        entropy.append(b)
        i += 1
    raise JpegError("missing EOI marker")


def _decode_jpeg_impl(data: bytes) -> np.ndarray:
    if len(data) < 4 or data[0:2] != b"\xff\xd8":
        raise JpegError("bad jpeg signature (no SOI)")
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffTable] = {}  # (class, id)
    frame = None  # (h, w, components, progressive)
    comp_info: list[dict] = []
    restart_interval = 0
    any_scan = False
    pos = 2
    n = len(data)

    while True:
        if pos + 2 > n:
            raise JpegError("truncated marker stream")
        if data[pos] != 0xFF:
            raise JpegError(f"expected marker at {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            if not any_scan:
                raise JpegError("no scan data in jpeg")
            break
        if pos + 2 > n:
            raise JpegError("truncated marker stream")
        (seg_len,) = struct.unpack(">H", data[pos : pos + 2])
        if seg_len < 2 or pos + seg_len > n:
            raise JpegError("truncated segment")
        seg = data[pos + 2 : pos + seg_len]
        pos += seg_len

        if marker == 0xDB:  # DQT
            i = 0
            while i < len(seg):
                prec, tid = seg[i] >> 4, seg[i] & 0x0F
                i += 1
                if prec == 0:
                    if i + 64 > len(seg):
                        raise JpegError("truncated DQT")
                    tbl = np.frombuffer(seg[i : i + 64], np.uint8).astype(np.float64)
                    i += 64
                else:
                    if i + 128 > len(seg):
                        raise JpegError("truncated DQT")
                    tbl = (
                        np.frombuffer(seg[i : i + 128], ">u2").astype(np.float64)
                    )
                    i += 128
                qt[tid] = tbl
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 baseline, SOF2 progressive
            if frame is not None:
                raise JpegError("multiple SOF frames")
            if len(seg) < 6:
                raise JpegError("truncated SOF header")
            prec, h, w, nc = seg[0], *struct.unpack(">HH", seg[1:5]), seg[5]
            if prec != 8:
                raise JpegError(f"unsupported sample precision {prec}")
            if h < 1 or w < 1:
                raise JpegError("zero image dimension")
            if len(seg) < 6 + 3 * nc:
                raise JpegError("truncated SOF component list")
            comps = []
            for c in range(nc):
                cid, hv, tq = seg[6 + 3 * c : 9 + 3 * c]
                comps.append((cid, hv >> 4, hv & 0x0F, tq))
            frame = (h, w, comps, marker == 0xC2)
            hmax = max(c[1] for c in comps)
            vmax = max(c[2] for c in comps)
            mcus_x = -(-w // (8 * hmax))
            mcus_y = -(-h // (8 * vmax))
            for cid, ch, cv, tq in comps:
                if ch < 1 or cv < 1 or ch > 4 or cv > 4:
                    raise JpegError("invalid sampling factors")
                bw, bh = mcus_x * ch, mcus_y * cv
                # non-interleaved scans use the component's OWN
                # ceil(samples/8) grid, not the MCU-padded one
                samples_w = -(-(w * ch) // hmax)
                samples_h = -(-(h * cv) // vmax)
                comp_info.append(
                    {
                        "id": cid, "h": ch, "v": cv, "tq": tq,
                        "coeff": np.zeros((bh * bw, 64), dtype=np.int32),
                        "bw": bw,
                        "nbw": -(-samples_w // 8),
                        "nbh": -(-samples_h // 8),
                    }
                )
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise JpegError(
                f"unsupported SOF marker 0xff{marker:02x} "
                "(baseline + progressive only)"
            )
        elif marker == 0xC4:  # DHT
            i = 0
            while i < len(seg):
                if i + 17 > len(seg):
                    raise JpegError("truncated DHT header")
                tc, th = seg[i] >> 4, seg[i] & 0x0F
                bits = list(seg[i + 1 : i + 17])
                nv = sum(bits)
                vals = seg[i + 17 : i + 17 + nv]
                if len(vals) != nv:
                    raise JpegError("truncated DHT")
                huff[(tc, th)] = _HuffTable(bits, vals)
                i += 17 + nv
        elif marker == 0xDD:  # DRI
            if len(seg) < 2:
                raise JpegError("truncated DRI")
            (restart_interval,) = struct.unpack(">H", seg[:2])
        elif marker == 0xDA:  # SOS — decode one scan, keep looping
            if frame is None:
                raise JpegError("SOS before SOF frame header")
            entropy, restarts, pos = _unstuff_scan(data, pos)
            _decode_scan(
                seg, frame, comp_info, huff, entropy, restarts,
                restart_interval,
            )
            any_scan = True
        # APPn / COM / others: skipped

    if frame is None:
        raise JpegError("missing SOF frame header")
    h, w, comps, _progressive = frame
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcu_w, mcu_h = 8 * hmax, 8 * vmax
    mcus_x = -(-w // mcu_w)
    mcus_y = -(-h // mcu_h)

    # dequantize + IDCT, batched per component
    planes = []
    for info in comp_info:
        if info["tq"] not in qt:
            raise JpegError(f"missing quant table {info['tq']}")
        q = qt[info["tq"]][_np_argsort_zigzag()]
        coeffs = info["coeff"].astype(np.float64) * q[None, :]
        blocks = coeffs.reshape(-1, 8, 8)
        spatial = np.einsum("ij,njk,kl->nil", _C.T, blocks, _C) + 128.0
        bw = info["bw"]
        bh = blocks.shape[0] // bw
        plane = (
            spatial.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
        )
        # upsample to full MCU grid resolution
        ry, rx = vmax // info["v"], hmax // info["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[: mcus_y * mcu_h, : mcus_x * mcu_w])

    if len(planes) == 1:
        y = np.clip(planes[0][:h, :w], 0, 255).astype(np.uint8)
        return np.repeat(y[..., None], 3, axis=2)
    if len(planes) != 3:
        raise JpegError(f"unsupported component count {len(planes)}")
    y, cb, cr = (p[:h, :w] for p in planes)
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.stack([r, g, b], axis=2), 0, 255).astype(np.uint8)


def _decode_scan(
    seg: bytes,
    frame,
    comp_info: list[dict],
    huff: dict,
    entropy: bytes,
    restarts: list[int],
    restart_interval: int,
) -> None:
    """Decode one SOS scan into the components' coefficient grids.
    Baseline = the single (Ss=0, Se=63, Ah=Al=0) interleaved scan;
    progressive = DC/AC spectral-selection scans with successive
    approximation, accumulated across scans (ITU T.81 §G)."""
    h, w, comps, progressive = frame
    if len(seg) < 1:
        raise JpegError("truncated SOS header")
    ns = seg[0]
    if ns < 1 or len(seg) < 1 + 2 * ns + 3:
        raise JpegError("truncated SOS component list")
    by_id = {info["id"]: idx for idx, info in enumerate(comp_info)}
    scan_comps = []  # (comp_index, dc_table_id, ac_table_id)
    for c in range(ns):
        cs, tt = seg[1 + 2 * c], seg[2 + 2 * c]
        if cs not in by_id:
            raise JpegError("scan references unknown component")
        scan_comps.append((by_id[cs], tt >> 4, tt & 0x0F))
    ss, se, a = seg[1 + 2 * ns : 4 + 2 * ns]
    ah, al = a >> 4, a & 0x0F
    if progressive:
        if ss > se or se > 63 or al > 13 or ah > 14:
            raise JpegError("invalid progressive scan parameters")
        if ss == 0 and se != 0:
            raise JpegError("progressive DC scan must have Se=0")
        if ss > 0 and ns != 1:
            raise JpegError("progressive AC scan must be single-component")
    else:
        if ns != len(comps):
            raise JpegError("baseline scan must cover all components")
        if (ss, se, ah, al) != (0, 63, 0, 0):
            raise JpegError("invalid baseline scan parameters")

    br = _BitReader(entropy)
    preds = [0] * len(comp_info)
    eobrun = 0
    next_restart = iter(restarts)
    pending_restart = next(next_restart, None)
    unit_count = 0

    def maybe_restart():
        nonlocal preds, eobrun, pending_restart
        if restart_interval and unit_count and unit_count % restart_interval == 0:
            if pending_restart is None:
                raise JpegError("missing restart marker")
            br.reset()
            br.pos = pending_restart
            pending_restart = next(next_restart, None)
            preds = [0] * len(comp_info)
            eobrun = 0

    if ns > 1 or (not progressive):
        # interleaved MCU order (baseline full scan or progressive DC)
        hmax = max(c[1] for c in comps)
        vmax = max(c[2] for c in comps)
        mcus_x = -(-w // (8 * hmax))
        mcus_y = -(-h // (8 * vmax))
        plan = []  # hoist per-component table lookups out of the MCU loop
        for ci, td, ta in scan_comps:
            dc = huff.get((0, td))
            ac = huff.get((1, ta)) if not progressive else None
            if dc is None and (not progressive or ah == 0):
                raise JpegError("missing huffman table")
            if not progressive and ac is None:
                raise JpegError("missing huffman table")
            plan.append((ci, comp_info[ci], dc, ac))
        for my in range(mcus_y):
            for mx in range(mcus_x):
                maybe_restart()
                for ci, info, dc, ac in plan:
                    for by in range(info["v"]):
                        for bx in range(info["h"]):
                            gx = mx * info["h"] + bx
                            gy = my * info["v"] + by
                            coef = info["coeff"][gy * info["bw"] + gx]
                            if not progressive:
                                _block_baseline(br, dc, ac, coef, preds, ci)
                            elif ah == 0:
                                _dc_first(br, dc, coef, preds, ci, al)
                            else:
                                _dc_refine(br, coef, al)
                unit_count += 1
    else:
        # single-component scan: the component's own block raster
        ci, td, ta = scan_comps[0]
        info = comp_info[ci]
        nbw, nbh = info["nbw"], info["nbh"]
        for by in range(nbh):
            for bx in range(nbw):
                maybe_restart()
                coef = info["coeff"][by * info["bw"] + bx]
                if ss == 0:
                    if ah == 0:
                        dc = huff.get((0, td))
                        if dc is None:
                            raise JpegError("missing huffman table")
                        _dc_first(br, dc, coef, preds, ci, al)
                    else:
                        _dc_refine(br, coef, al)
                else:
                    ac = huff.get((1, ta))
                    if ac is None:
                        raise JpegError("missing huffman table")
                    if ah == 0:
                        eobrun = _ac_first(br, ac, coef, ss, se, al, eobrun)
                    else:
                        eobrun = _ac_refine(br, ac, coef, ss, se, al, eobrun)
                unit_count += 1


def _block_baseline(br, dc_tbl, ac_tbl, coef, preds, ci) -> None:
    t = dc_tbl.decode(br)
    if t > 11:
        raise JpegError("invalid DC category")
    diff = _extend(br.read(t), t) if t else 0
    preds[ci] += diff
    coef[0] = preds[ci]
    k = 1
    while k < 64:
        rs = ac_tbl.decode(br)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 0:  # EOB
                break
            if r == 15:  # ZRL
                k += 16
                continue
            raise JpegError("invalid AC run/size symbol")
        k += r
        if k >= 64:
            raise JpegError("AC index overruns block")
        coef[_ZIGZAG[k]] = _extend(br.read(s), s)
        k += 1


def _dc_first(br, dc_tbl, coef, preds, ci, al) -> None:
    t = dc_tbl.decode(br)
    if t > 11:
        raise JpegError("invalid DC category")
    diff = _extend(br.read(t), t) if t else 0
    preds[ci] += diff
    coef[0] = preds[ci] << al

def _dc_refine(br, coef, al) -> None:
    if br.read(1):
        coef[0] = int(coef[0]) | (1 << al)


def _ac_first(br, ac_tbl, coef, ss, se, al, eobrun) -> int:
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = ac_tbl.decode(br)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r < 15:  # EOBn
                eobrun = (1 << r) - 1
                if r:
                    eobrun += br.read(r)
                return eobrun
            k += 16  # ZRL
            continue
        k += r
        if k > se:
            raise JpegError("AC index overruns spectral band")
        coef[_ZIGZAG[k]] = _extend(br.read(s), s) << al
        k += 1
    return 0


def _ac_refine(br, ac_tbl, coef, ss, se, al, eobrun) -> int:
    """AC successive-approximation refinement (libjpeg
    decode_mcu_AC_refine semantics): correction bits for already-nonzero
    coefficients, ±1<<Al for newly significant ones."""
    p1 = 1 << al
    m1 = -1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = ac_tbl.decode(br)
            r, s = rs >> 4, rs & 0x0F
            if s == 0:
                if r < 15:
                    # NOT (1<<r)-1: the post-loop correction pass must
                    # still run for THIS block, then decrement
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read(r)
                    break
                # r == 15 (ZRL): skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise JpegError("invalid AC refinement symbol")
                s = p1 if br.read(1) else m1
            while k <= se:
                z = _ZIGZAG[k]
                cv = int(coef[z])
                if cv != 0:
                    if br.read(1) and (cv & p1) == 0:
                        coef[z] = cv + (p1 if cv >= 0 else m1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if s and k <= se:
                coef[_ZIGZAG[k]] = s
            k += 1
    if eobrun > 0:
        while k <= se:
            z = _ZIGZAG[k]
            cv = int(coef[z])
            if cv != 0:
                if br.read(1) and (cv & p1) == 0:
                    coef[z] = cv + (p1 if cv >= 0 else m1)
            k += 1
        eobrun -= 1
    return eobrun


_ZIGZAG_TO_FLAT = None


def _np_argsort_zigzag() -> np.ndarray:
    """Quant tables arrive zigzag-ordered; reorder to flat block order."""
    global _ZIGZAG_TO_FLAT
    if _ZIGZAG_TO_FLAT is None:
        inv = np.empty(64, dtype=np.int64)
        inv[_ZIGZAG] = np.arange(64)
        _ZIGZAG_TO_FLAT = inv
    return _ZIGZAG_TO_FLAT


# --- encoding ---------------------------------------------------------------


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.bits = 0

    def write(self, code: int, n: int) -> None:
        self.acc = (self.acc << n) | (code & ((1 << n) - 1))
        self.bits += n
        while self.bits >= 8:
            self.bits -= 8
            b = (self.acc >> self.bits) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing
        self.acc &= (1 << self.bits) - 1

    def flush(self) -> None:
        if self.bits:
            pad = 8 - self.bits
            self.write((1 << pad) - 1, pad)  # pad with 1s per spec


def _category(v: int) -> int:
    return int(abs(v)).bit_length()


def _canonical_from_freq(freq: dict[int, int]) -> tuple[list[int], bytes, dict[int, tuple[int, int]]]:
    """Fixed-length canonical Huffman over the USED symbols: every
    symbol gets length L = ceil(log2(n+1)) (n ≤ 2^L − 1 keeps the
    all-ones code unused, as the spec requires). Simple, valid, and the
    stream carries the table — no Annex K dependency."""
    syms = sorted(freq)
    if not syms:
        syms = [0]
    length = max(1, (len(syms) + 1 - 1).bit_length())
    while (1 << length) - 1 < len(syms):
        length += 1
    bits = [0] * 16
    bits[length - 1] = len(syms)
    codes = {}
    code = 0 << 1
    # canonical: first code at this length is 0 shifted through shorter
    # (all-zero-count) lengths — i.e. just 0, incrementing per symbol
    code = 0
    for s in syms:
        codes[s] = (code, length)
        code += 1
    return bits, bytes(syms), codes


def _encode_plane_blocks(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n_blocks, 64) zigzag-ordered quantized coefficients."""
    h, w = plane.shape
    bh, bw = h // 8, w // 8
    blocks = (
        plane.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8) - 128.0
    )
    coeffs = np.einsum("ij,njk,kl->nil", _C, blocks, _C.T).reshape(-1, 64)
    qflat = q[_np_argsort_zigzag()]
    quant = np.round(coeffs / qflat[None, :])
    return quant[:, _ZIGZAG].astype(np.int64)  # zigzag order


def _scale_q(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    return np.clip(np.floor((base * scale + 50) / 100), 1, 255)


def encode_jpeg(
    rgb: np.ndarray,
    quality: int = 90,
    subsample: bool = False,
    progressive: bool = False,
) -> bytes:
    """Baseline JPEG bytes for an ``(h, w, 3)`` uint8 RGB array (or
    ``(h, w)`` grayscale). ``subsample=True`` emits 4:2:0 chroma (2×2 Y
    blocks per MCU); otherwise 4:4:4. ``progressive=True`` (4:4:4 /
    grayscale only) emits a SOF2 multi-scan stream — interleaved DC
    first+refine (Al 1→0) then per-component AC spectral scans with one
    successive-approximation level — so every progressive decode path
    has an encoder-driven exact round-trip (the reconstructed
    coefficients equal the baseline encoding's)."""
    px = np.asarray(rgb)
    gray = px.ndim == 2
    h, w = px.shape[:2]
    if h < 1 or w < 1:
        raise ValueError("empty image")

    if gray:
        planes = [px.astype(np.float64)]
        samps = [(1, 1)]
        qids = [0]
    else:
        x = px.astype(np.float64)
        y = 0.299 * x[..., 0] + 0.587 * x[..., 1] + 0.114 * x[..., 2]
        cb = 128.0 + (x[..., 2] - y) / 1.772
        cr = 128.0 + (x[..., 0] - y) / 1.402
        if subsample:
            # pad to even dims, then 2x2 mean
            cbp = _pad_to(cb, 2)
            crp = _pad_to(cr, 2)
            cb = cbp.reshape(cbp.shape[0] // 2, 2, cbp.shape[1] // 2, 2).mean((1, 3))
            cr = crp.reshape(crp.shape[0] // 2, 2, crp.shape[1] // 2, 2).mean((1, 3))
            samps = [(2, 2), (1, 1), (1, 1)]
        else:
            samps = [(1, 1), (1, 1), (1, 1)]
        planes = [y, cb, cr]
        qids = [0, 1, 1]

    q0 = _scale_q(_Q_LUM, quality)
    q1 = _scale_q(_Q_CHROM, quality)
    qtabs = [q0, q1]

    hmax = max(s[0] for s in samps)
    vmax = max(s[1] for s in samps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))

    comp_blocks = []
    for plane, (sh, sv), qid in zip(planes, samps, qids):
        tw, th = mcus_x * sh * 8, mcus_y * sv * 8
        padded = _pad_edge(plane, th, tw)
        comp_blocks.append(_encode_plane_blocks(padded, qtabs[qid]))

    if progressive:
        if subsample:
            raise ValueError("progressive encoder supports 4:4:4 / gray only")
        return _encode_progressive(
            comp_blocks, qtabs, qids, samps, h, w, gray, mcus_x, mcus_y
        )

    # interleave block order per MCU; build symbol streams
    sym_stream = []  # (comp_kind 0=lum 1=chrom, is_dc, symbol, extra_bits_value, n_extra)
    preds = [0] * len(planes)
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, ((sh, sv), blocks) in enumerate(zip(samps, comp_blocks)):
                bw = mcus_x * sh
                for by in range(sv):
                    for bx in range(sh):
                        gx = mx * sh + bx
                        gy = my * sv + by
                        blk = blocks[gy * bw + gx]
                        kind = 0 if ci == 0 else 1
                        dc = int(blk[0])
                        diff = dc - preds[ci]
                        preds[ci] = dc
                        t = _category(diff)
                        extra = diff if diff >= 0 else diff + (1 << t) - 1
                        sym_stream.append((kind, 1, t, extra, t))
                        nz = np.flatnonzero(blk[1:])
                        ac = blk[1:]
                        kpos = 0
                        for idx in nz:
                            run = int(idx) - kpos
                            while run > 15:
                                sym_stream.append((kind, 0, 0xF0, 0, 0))
                                run -= 16
                            v = int(ac[idx])
                            s = _category(v)
                            extra = v if v >= 0 else v + (1 << s) - 1
                            sym_stream.append((kind, 0, (run << 4) | s, extra, s))
                            kpos = int(idx) + 1
                        if kpos < 63:
                            sym_stream.append((kind, 0, 0x00, 0, 0))  # EOB

    # build per-(kind, dc/ac) canonical tables from the actual symbols
    freqs = {(k, d): {} for k in (0, 1) for d in (0, 1)}
    for kind, is_dc, sym, _e, _n in sym_stream:
        f = freqs[(kind, is_dc)]
        f[sym] = f.get(sym, 0) + 1
    tables = {}
    for key, f in freqs.items():
        tables[key] = _canonical_from_freq(f)

    bwtr = _BitWriter()
    for kind, is_dc, sym, extra, n_extra in sym_stream:
        code, length = tables[(kind, is_dc)][2][sym]
        bwtr.write(code, length)
        if n_extra:
            bwtr.write(extra, n_extra)
    bwtr.flush()

    out = bytearray(b"\xff\xd8")

    def seg(marker: int, payload: bytes):
        out.extend(b"\xff" + bytes([marker]))
        out.extend(struct.pack(">H", len(payload) + 2))
        out.extend(payload)

    zz = _ZIGZAG  # quant tables are emitted in zigzag order
    for tid, q in enumerate(qtabs[: 1 if gray else 2]):
        seg(0xDB, bytes([tid]) + bytes(int(v) for v in q[zz]))
    nc = 1 if gray else 3
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([nc])
    for ci in range(nc):
        sh, sv = samps[ci]
        sof += bytes([ci + 1, (sh << 4) | sv, qids[ci]])
    seg(0xC0, sof)
    for (kind, is_dc), (bits, vals, _codes) in sorted(tables.items()):
        if gray and kind == 1:
            continue
        tc = 0 if is_dc else 1
        seg(0xC4, bytes([(tc << 4) | kind]) + bytes(bits) + vals)
    sos = bytes([nc])
    for ci in range(nc):
        kind = 0 if ci == 0 else 1
        sos += bytes([ci + 1, (kind << 4) | kind])
    sos += bytes([0, 63, 0])
    seg(0xDA, sos)
    out.extend(bwtr.out)
    out.extend(b"\xff\xd9")
    return bytes(out)


def _pad_to(plane: np.ndarray, mult: int) -> np.ndarray:
    h, w = plane.shape
    th, tw = -(-h // mult) * mult, -(-w // mult) * mult
    return _pad_edge(plane, th, tw)


def _pad_edge(plane: np.ndarray, th: int, tw: int) -> np.ndarray:
    h, w = plane.shape
    if th == h and tw == w:
        return plane
    return np.pad(plane, ((0, th - h), (0, tw - w)), mode="edge")


# --- progressive encoding (4:4:4 / grayscale) --------------------------------


def _encode_progressive(
    comp_blocks, qtabs, qids, samps, h, w, gray, mcus_x, mcus_y
) -> bytes:
    """SOF2 multi-scan writer. Scans: interleaved DC first (Al=1), DC
    refine (Al 1→0), then per component AC first (Ss=1..63, Al=1) and AC
    refine (Ah=1→Al=0). The AC-refinement bit stream is produced by
    SIMULATING the decoder's walk (correction bits interleaved at
    nonzero-history positions), so agreement is bit-level by
    construction."""
    nc = len(comp_blocks)
    al = 1
    n_blocks = mcus_x * mcus_y  # 4:4:4 → one block per component per MCU

    out = bytearray(b"\xff\xd8")

    def seg(marker: int, payload: bytes) -> None:
        out.extend(b"\xff" + bytes([marker]))
        out.extend(struct.pack(">H", len(payload) + 2))
        out.extend(payload)

    zz = _ZIGZAG
    for tid, q in enumerate(qtabs[: 1 if gray else 2]):
        seg(0xDB, bytes([tid]) + bytes(int(v) for v in q[zz]))
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([nc])
    for ci in range(nc):
        sh, sv = samps[ci]
        sof += bytes([ci + 1, (sh << 4) | sv, qids[ci]])
    seg(0xC2, sof)

    def emit_scan(items, scan_comps, ss, se, ah, al_s) -> None:
        """items: ('s', tclass, tid, sym) | ('b', value, nbits)."""
        freqs: dict[tuple[int, int], dict[int, int]] = {}
        for it in items:
            if it[0] == "s":
                _k, tc, tid, sym = it
                freqs.setdefault((tc, tid), {}).setdefault(sym, 0)
                freqs[(tc, tid)][sym] += 1
        tables = {}
        for key, f in sorted(freqs.items()):
            bits, vals, codes = _canonical_from_freq(f)
            tables[key] = codes
            tc, tid = key
            seg(0xC4, bytes([(tc << 4) | tid]) + bytes(bits) + vals)
        sos = bytes([len(scan_comps)])
        for cid, td, ta in scan_comps:
            sos += bytes([cid, (td << 4) | ta])
        sos += bytes([ss, se, (ah << 4) | al_s])
        seg(0xDA, sos)
        bw = _BitWriter()
        for it in items:
            if it[0] == "s":
                _k, tc, tid, sym = it
                code, length = tables[(tc, tid)][sym]
                bw.write(code, length)
            else:
                _k, value, nbits = it
                if nbits:
                    bw.write(value, nbits)
        bw.flush()
        out.extend(bw.out)

    kinds = [0 if ci == 0 else 1 for ci in range(nc)]

    # scan 1: interleaved DC first, Al=1
    items = []
    preds = [0] * nc
    for b in range(n_blocks):
        for ci in range(nc):
            dc = int(comp_blocks[ci][b][0])
            hi = dc >> al
            diff = hi - preds[ci]
            preds[ci] = hi
            t = _category(diff)
            extra = diff if diff >= 0 else diff + (1 << t) - 1
            items.append(("s", 0, kinds[ci], t))
            items.append(("b", extra, t))
    emit_scan(
        items,
        [(ci + 1, kinds[ci], 0) for ci in range(nc)],
        0, 0, 0, al,
    )

    # scan 2: DC refine to Al=0 (raw bits, no tables)
    items = []
    for b in range(n_blocks):
        for ci in range(nc):
            items.append(("b", int(comp_blocks[ci][b][0]) & 1, 1))
    emit_scan(items, [(ci + 1, 0, 0) for ci in range(nc)], 0, 0, al, 0)

    def fix_div2(v: int) -> int:
        return v // 2 if v >= 0 else -((-v) // 2)  # truncate toward zero

    # per-component AC scans
    for ci in range(nc):
        kind = kinds[ci]
        blocks = comp_blocks[ci]

        # AC first at Al=1
        items = []
        for b in range(n_blocks):
            blk = blocks[b]
            k = 1
            while k <= 63:
                j = k
                hi = 0
                while j <= 63:
                    hi = fix_div2(int(blk[j]))
                    if hi:
                        break
                    j += 1
                if j > 63:
                    items.append(("s", 1, kind, 0x00))  # EOB0
                    break
                r = j - k
                while r > 15:
                    items.append(("s", 1, kind, 0xF0))
                    r -= 16
                s = _category(hi)
                extra = hi if hi >= 0 else hi + (1 << s) - 1
                items.append(("s", 1, kind, (r << 4) | s))
                items.append(("b", extra, s))
                k = j + 1
        emit_scan(items, [(ci + 1, 0, kind)], 1, 63, 0, al)

        # AC refine to Al=0 (decoder-walk simulation)
        items = []
        for b in range(n_blocks):
            blk = [int(v) for v in blocks[b]]
            hi = [fix_div2(v) for v in blk]
            k = 1
            while k <= 63:
                r = 0
                found = None
                for j in range(k, 64):
                    if hi[j] == 0:
                        if blk[j] != 0:
                            found = j
                            break
                        r += 1
                if found is None:
                    items.append(("s", 1, kind, 0x00))  # EOB + corrections
                    for t in range(k, 64):
                        if hi[t] != 0:
                            items.append(("b", abs(blk[t]) & 1, 1))
                    break
                while r > 15:
                    items.append(("s", 1, kind, 0xF0))
                    skipped = 0
                    while skipped < 16:
                        if hi[k] != 0:
                            items.append(("b", abs(blk[k]) & 1, 1))
                        else:
                            skipped += 1
                        k += 1
                    r -= 16
                items.append(("s", 1, kind, (r << 4) | 1))
                items.append(("b", 1 if blk[found] > 0 else 0, 1))
                while k < found:
                    if hi[k] != 0:
                        items.append(("b", abs(blk[k]) & 1, 1))
                    k += 1
                k = found + 1
        emit_scan(items, [(ci + 1, 0, kind)], 1, 63, 1, 0)

    out.extend(b"\xff\xd9")
    return bytes(out)


# --- EXIF (APP1 TIFF-IFD metadata, public EXIF/TIFF 6.0 spec) ----------------
#
# Orientation and camera metadata QA for JPEG payloads: a compact APP1
# parser (both byte orders, IFD0 + the Exif sub-IFD) and the matching
# builder used by the deterministic corpus. Pixel decoding is untouched —
# decode_jpeg already skips APPn segments.

_EXIF_TAGS_IFD0 = {
    0x010F: "make",
    0x0110: "model",
    0x0112: "orientation",
    0x0132: "datetime",
}
_EXIF_TAGS_SUB = {0xA002: "pixel_x", 0xA003: "pixel_y"}


def _ifd_entries(data: bytes, base: int, off: int, endian: str):
    if base + off + 2 > len(data):
        raise JpegError("exif: truncated IFD")
    (count,) = struct.unpack_from(endian + "H", data, base + off)
    for k in range(count):
        e = base + off + 2 + 12 * k
        if e + 12 > len(data):
            raise JpegError("exif: truncated IFD entry")
        tag, typ, n = struct.unpack_from(endian + "HHI", data, e)
        yield tag, typ, n, e + 8


def _ifd_value(data: bytes, base: int, typ: int, n: int, voff: int, endian: str):
    sizes = {1: 1, 2: 1, 3: 2, 4: 4}
    if typ not in sizes:
        return None
    total = sizes[typ] * n
    if total <= 4:
        pos = voff
    else:
        (rel,) = struct.unpack_from(endian + "I", data, voff)
        pos = base + rel
    if pos + total > len(data):
        raise JpegError("exif: value offset out of range")
    if typ == 2:  # ASCII, NUL-terminated
        raw = data[pos : pos + n]
        return raw.split(b"\x00", 1)[0].decode("ascii", "replace")
    if typ == 3:
        return struct.unpack_from(endian + "H", data, pos)[0]
    if typ == 4:
        return struct.unpack_from(endian + "I", data, pos)[0]
    return data[pos : pos + total]


def jpeg_exif(data: bytes) -> dict | None:
    """Parse EXIF metadata from a JPEG's APP1 segment → dict with any of
    ``make, model, orientation, datetime, pixel_x, pixel_y`` — ``None``
    when the payload carries no EXIF APP1. Malformed EXIF raises
    :class:`JpegError` (totality convention); both byte orders
    supported."""
    if len(data) < 4 or data[:2] != b"\xff\xd8":
        return None
    i = 2
    n = len(data)
    while i + 4 <= n:
        if data[i] != 0xFF:
            return None
        marker = data[i + 1]
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            i += 2
            continue
        if marker == 0xDA:  # start of scan: no APP1 found
            return None
        (seglen,) = struct.unpack_from(">H", data, i + 2)
        if seglen < 2 or i + 2 + seglen > n:
            return None
        if marker == 0xE1 and data[i + 4 : i + 10] == b"Exif\x00\x00":
            seg = data[i + 10 : i + 2 + seglen]
            return _parse_exif_tiff(seg)
        i += 2 + seglen
    return None


def _parse_exif_tiff(seg: bytes) -> dict:
    if len(seg) < 8:
        raise JpegError("exif: truncated TIFF header")
    if seg[:2] == b"II":
        endian = "<"
    elif seg[:2] == b"MM":
        endian = ">"
    else:
        raise JpegError("exif: bad TIFF byte order")
    (magic,) = struct.unpack_from(endian + "H", seg, 2)
    if magic != 42:
        raise JpegError("exif: bad TIFF magic")
    (ifd0,) = struct.unpack_from(endian + "I", seg, 4)
    out: dict = {}
    sub_off = None
    for tag, typ, cnt, voff in _ifd_entries(seg, 0, ifd0, endian):
        if tag in _EXIF_TAGS_IFD0:
            out[_EXIF_TAGS_IFD0[tag]] = _ifd_value(seg, 0, typ, cnt, voff, endian)
        elif tag == 0x8769:
            # the sub-IFD pointer is an offset: only SHORT/LONG are one
            if typ not in (3, 4):
                raise JpegError("exif: sub-IFD pointer is not SHORT or LONG")
            sub_off = _ifd_value(seg, 0, typ, cnt, voff, endian)
    if sub_off is not None:
        for tag, typ, cnt, voff in _ifd_entries(seg, 0, int(sub_off), endian):
            if tag in _EXIF_TAGS_SUB:
                out[_EXIF_TAGS_SUB[tag]] = _ifd_value(
                    seg, 0, typ, cnt, voff, endian
                )
    return out


def build_exif_app1(
    *,
    orientation: int = 1,
    make: str | None = None,
    model: str | None = None,
    datetime: str | None = None,
    pixel_x: int | None = None,
    pixel_y: int | None = None,
    big_endian: bool = False,
) -> bytes:
    """Build a complete APP1 EXIF segment (marker + length + payload)
    for the given fields — corpus/fixture support, spec-conformant
    (entries ascending by tag, ASCII values NUL-terminated, >4-byte
    values in the data area, Exif sub-IFD for the pixel dims)."""
    endian = ">" if big_endian else "<"

    ifd0: list[tuple[int, int, int, bytes | int]] = []
    data_area = bytearray()

    def ascii_entry(tag: int, s: str):
        raw = s.encode("ascii") + b"\x00"
        ifd0.append((tag, 2, len(raw), bytes(raw)))

    if make is not None:
        ascii_entry(0x010F, make)
    if model is not None:
        ascii_entry(0x0110, model)
    ifd0.append((0x0112, 3, 1, orientation))
    if datetime is not None:
        ascii_entry(0x0132, datetime)

    sub: list[tuple[int, int, int, bytes | int]] = []
    if pixel_x is not None:
        sub.append((0xA002, 4, 1, pixel_x))
    if pixel_y is not None:
        sub.append((0xA003, 4, 1, pixel_y))

    n0 = len(ifd0) + (1 if sub else 0)
    ifd0_off = 8
    ifd0_size = 2 + 12 * n0 + 4
    sub_ifd_off = ifd0_off + ifd0_size if sub else 0
    sub_size = (2 + 12 * len(sub) + 4) if sub else 0
    data_off = ifd0_off + ifd0_size + sub_size

    def pack_entries(entries, next_data_off):
        blob = bytearray(struct.pack(endian + "H", len(entries)))
        overflow = bytearray()
        for tag, typ, cnt, val in sorted(entries, key=lambda x: x[0]):
            blob += struct.pack(endian + "HHI", tag, typ, cnt)
            if typ == 2:
                raw = val
                if len(raw) <= 4:
                    blob += raw.ljust(4, b"\x00")
                else:
                    blob += struct.pack(endian + "I", next_data_off + len(overflow))
                    overflow += raw
            elif typ == 3:
                blob += struct.pack(endian + "H", val) + b"\x00\x00"
            else:
                blob += struct.pack(endian + "I", val)
        blob += b"\x00\x00\x00\x00"  # next-IFD pointer
        return bytes(blob), bytes(overflow)

    entries0 = list(ifd0)
    if sub:
        entries0.append((0x8769, 4, 1, sub_ifd_off))
    # two-pass: compute overflow after sub-IFD
    b0, ov0 = pack_entries(entries0, data_off)
    if sub:
        bsub, ovsub = pack_entries(sub, data_off + len(ov0))
    else:
        bsub, ovsub = b"", b""
    tiff = (
        (b"MM" if big_endian else b"II")
        + struct.pack(endian + "H", 42)
        + struct.pack(endian + "I", 8)
        + b0
        + bsub
        + ov0
        + ovsub
    )
    payload = b"Exif\x00\x00" + tiff
    return b"\xff\xe1" + struct.pack(">H", len(payload) + 2) + payload


def insert_exif(jpeg: bytes, app1: bytes) -> bytes:
    """Splice an APP1 EXIF segment into a JPEG right after SOI."""
    if jpeg[:2] != b"\xff\xd8":
        raise JpegError("not a JPEG (no SOI)")
    return jpeg[:2] + app1 + jpeg[2:]
