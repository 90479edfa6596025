"""From-scratch FLAC codec (stdlib + numpy only).

The lossless-compression member of the audio codec family
(``audio.py``: PCM16/U8, G.711 µ-law/A-law, IMA ADPCM) — the audio
analogue of the raster codecs in this package, and the audio analogue
of the reference's zip CRC sweep (``/root/reference/
fs_schema_validator/schemas/zip.py``): a FLAC stream carries THREE
nested integrity layers (frame-header CRC-8, frame CRC-16, stream-wide
MD5 of the raw samples), all verified on decode.

Implemented from the public format specification (RFC 9639 / the
xiph.org FLAC format document):

* ``encode_flac(samples, sr_hz)`` — 16-bit streams, fixed 4096-sample
  blocks, per-block best FIXED predictor (orders 0-4 by residual-L2
  proxy), Rice residuals (vectorized bit packing, per-block parameter
  from the mean residual magnitude, raw-escape when Rice would expand),
  correct CRC-8 / CRC-16 and a real STREAMINFO MD5.
* ``decode_flac(data)`` — the full frame grammar: CONSTANT / VERBATIM /
  FIXED 0-4 / LPC 1-32 subframes, wasted bits, 4- and 5-bit Rice
  partitions with raw escapes, UTF-8-coded frame numbers, all
  block-size / sample-rate / sample-size header codes, mono + stereo
  including the left-side / right-side / mid-side decorrelations,
  8/16/24-bit depths — with CRC-8, CRC-16 and MD5 verification
  (``verify_md5=False`` to skip for speed).

Losslessness is the gate: ``decode(encode(x)) == x`` bit-exactly, for
every corpus signal and adversarial inputs (tests/test_flac.py).
Malformed input raises :class:`FlacError`, never an untyped exception
(codec-totality convention, see ``jpeg.py``).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["FlacError", "encode_flac", "decode_flac", "flac_streaminfo"]


class FlacError(ValueError):
    """Malformed / unsupported FLAC payload."""


# --- CRCs (FLAC frame polynomials) --------------------------------------------


def _crc_table(poly: int, width: int) -> np.ndarray:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    tbl = np.zeros(256, np.uint32)
    for b in range(256):
        r = b << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) if r & top else (r << 1)
        tbl[b] = r & mask
    return tbl


_CRC8_T = _crc_table(0x07, 8)
_CRC16_T = _crc_table(0x8005, 16)


def _crc8(data: bytes | bytearray) -> int:
    t = _CRC8_T
    r = 0
    for b in data:
        r = int(t[r ^ b])
    return r


def _crc16(data: bytes | bytearray) -> int:
    t = _CRC16_T
    r = 0
    for b in data:
        r = int(t[((r >> 8) ^ b) & 0xFF]) ^ ((r << 8) & 0xFFFF)
    return r


# --- MSB-first bit I/O ---------------------------------------------------------


class _BitWriter:
    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def write_bit_array(self, bits: np.ndarray) -> None:
        """Bulk-append a uint8 0/1 array (vectorized via packbits once
        the stream is byte-aligned; bitwise otherwise for the head)."""
        i = 0
        n = len(bits)
        while self.nbits and i < n:  # align
            self.write(int(bits[i]), 1)
            i += 1
        tail = (n - i) & 7
        body = bits[i : n - tail]
        if len(body):
            self.buf.extend(np.packbits(body).tobytes())
        for j in range(n - tail, n):
            self.write(int(bits[j]), 1)

    def align(self) -> None:
        if self.nbits:
            self.write(0, 8 - self.nbits)

    def getvalue(self) -> bytes:
        assert self.nbits == 0
        return bytes(self.buf)


class _BitReader:
    __slots__ = ("bits", "pos", "ones")

    def __init__(self, data: bytes) -> None:
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0
        # one-bit index, built once: read_unary is a binary search, and
        # the Rice partition decoder walks it vectorized — the naive
        # flatnonzero(bits[p:]) per unary code was O(stream) each,
        # O(stream²) per subframe (measured 52 s / 30 clips)
        self.ones = np.flatnonzero(self.bits)

    def read(self, n: int) -> int:
        p = self.pos
        if p + n > len(self.bits):
            raise FlacError("bitstream exhausted")
        v = 0
        for b in self.bits[p : p + n]:
            v = (v << 1) | int(b)
        self.pos = p + n
        return v

    def read_unary(self) -> int:
        j = int(np.searchsorted(self.ones, self.pos))
        if j >= len(self.ones):
            raise FlacError("bitstream exhausted in unary run")
        q = int(self.ones[j]) - self.pos
        self.pos = int(self.ones[j]) + 1
        return q

    def gather_fixed(self, start: int, n: int, width: int) -> np.ndarray:
        """Vectorized read of ``n`` consecutive ``width``-bit fields
        starting at bit ``start`` → int64 array (advances ``pos``)."""
        end = start + n * width
        if end > len(self.bits):
            raise FlacError("bitstream exhausted")
        self.pos = end
        if n == 0 or width == 0:
            return np.zeros(n, np.int64)
        f = self.bits[start:end].astype(np.int64).reshape(n, width)
        return f @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))

    def rice_partition(self, n: int, k: int) -> np.ndarray:
        """Vectorized decode of ``n`` Rice(k) codes at ``pos`` → the
        (q << k) | payload values as int64. Terminator one-bits are
        found by walking a searchsorted jump table over the ones index
        (each step lands past the k payload bits), so the only per-code
        Python is a list-index hop; quotients and payloads are then
        gathered in bulk."""
        ones = self.ones
        m0 = int(np.searchsorted(ones, self.pos))
        if m0 >= len(ones):
            raise FlacError("bitstream exhausted in unary run")
        tail = ones[m0:]
        # jump[m] = index (into tail) of the first one ≥ tail[m]+1+k
        jump = np.searchsorted(tail, tail + (k + 1)).tolist()
        tl = tail.tolist()
        cur = 0
        term = [0] * n
        try:
            for i in range(n):
                term[i] = tl[cur]
                cur = jump[cur]
        except IndexError:
            raise FlacError("bitstream exhausted in unary run") from None
        t = np.asarray(term, np.int64)
        if int(t[-1]) + 1 + k > len(self.bits):
            raise FlacError("bitstream exhausted")
        starts = np.empty(n, np.int64)
        starts[0] = self.pos
        if n > 1:
            starts[1:] = t[:-1] + 1 + k
        q = t - starts
        if k:
            f = self.bits
            payload = np.zeros(n, np.int64)
            for j in range(k):
                payload = (payload << 1) | f[t + 1 + j]
            self.pos = int(t[-1]) + 1 + k
            return (q << k) | payload
        self.pos = int(t[-1]) + 1
        return q

    def byte_pos(self) -> int:
        return (self.pos + 7) >> 3

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7


def _zigzag(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.int64)
    return np.where(x >= 0, x << 1, ((-x) << 1) - 1)


# --- encoder -------------------------------------------------------------------

_BLOCK = 4096

# fixed-predictor residual, order 0..4 (np.diff n times)


def _fixed_residual(x: np.ndarray, order: int) -> np.ndarray:
    r = x.astype(np.int64)
    for _ in range(order):
        r = np.diff(r)
    return r


def _rice_k(res: np.ndarray) -> int:
    if not len(res):
        return 0
    mean = float(np.abs(res).mean())
    k = 0
    while (1 << (k + 1)) < mean + 1 and k < 14:
        k += 1
    return k


def _rice_bit_array(res: np.ndarray, k: int) -> np.ndarray:
    """Vectorized Rice pack of a residual partition → uint8 0/1 array."""
    z = _zigzag(res)
    q = (z >> k).astype(np.int64)
    n = len(z)
    total = int(q.sum()) + n * (1 + k)
    bits = np.zeros(total, np.uint8)
    ends = np.cumsum(q + 1 + k)
    term = ends - 1 - k
    bits[term] = 1
    if k:
        rem = ((z[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
        bits[(term[:, None] + 1 + np.arange(k)[None, :]).ravel()] = rem.ravel()
    return bits


def _utf8_coded(n: int) -> bytes:
    """FLAC's UTF-8-style coded number (frame index).  An n-byte code
    carries 5n+1 payload bits (n ≥ 2): 11, 16, 21, …"""
    if n < 0x80:
        return bytes([n])
    bl = n.bit_length()
    nbytes = 2
    while 5 * nbytes + 1 < bl:
        nbytes += 1
    out = [((0xFF << (8 - nbytes)) & 0xFF) | (n >> (6 * (nbytes - 1)))]
    for i in range(nbytes - 2, -1, -1):
        out.append(0x80 | ((n >> (6 * i)) & 0x3F))
    return bytes(out)


def encode_flac(samples: np.ndarray, sr_hz: int) -> bytes:
    """Encode a mono int16 stream losslessly. Fixed 4096 blocks, best
    fixed predictor per block, single Rice partition (raw escape when
    Rice would expand)."""
    x = np.asarray(samples)
    if x.dtype != np.int16:
        raise FlacError("encode_flac expects int16 samples")
    if not (0 < sr_hz < (1 << 20)):
        raise FlacError(f"unsupported sample rate {sr_hz}")
    x = x.astype(np.int64)
    n_total = len(x)
    md5 = hashlib.md5(np.asarray(samples, "<i2").tobytes()).digest()

    out = bytearray(b"fLaC")
    si = _BitWriter()
    si.write(1, 1)  # last metadata block
    si.write(0, 7)  # STREAMINFO
    si.write(34, 24)
    si.write(min(_BLOCK, max(16, n_total or 16)), 16)  # min block
    si.write(_BLOCK if n_total > _BLOCK else max(16, n_total or 16), 16)
    si.write(0, 24)  # min frame size unknown
    si.write(0, 24)
    si.write(sr_hz, 20)
    si.write(0, 3)  # channels - 1 (mono)
    si.write(15, 5)  # bits per sample - 1
    si.write(n_total, 36)
    out.extend(si.getvalue())
    out.extend(md5)

    # an empty stream is header-only: total_samples == 0 with no frames
    # (decode returns 0 samples; MD5 over b"" matches)
    for fi in range((n_total + _BLOCK - 1) // _BLOCK):
        blk = x[fi * _BLOCK : (fi + 1) * _BLOCK]
        bs = len(blk)
        w = _BitWriter()
        w.write(0b11111111111110, 14)
        w.write(0, 1)  # reserved
        w.write(0, 1)  # fixed blocksize strategy
        if bs == _BLOCK:
            bs_code, bs_tail = 12, None  # 256 << (12 - 8) = 4096
        else:
            bs_code, bs_tail = 7, bs - 1  # 16-bit at end
        w.write(bs_code, 4)
        sr_code, sr_tail = (13, sr_hz) if sr_hz <= 0xFFFF else (0, None)
        w.write(sr_code, 4)
        w.write(0, 4)  # mono
        w.write(0b100, 3)  # 16-bit
        w.write(0, 1)
        for b in _utf8_coded(fi):
            w.write(b, 8)
        if bs_tail is not None:
            w.write(bs_tail, 16)
        if sr_tail is not None:
            w.write(sr_tail, 16)
        w.align()
        hdr = bytearray(w.getvalue())
        hdr.append(_crc8(hdr))

        # best fixed order by total zigzag magnitude
        best_order, best_cost, best_res = 0, None, None
        for order in range(min(4, bs - 1) + 1):
            res = _fixed_residual(blk, order)
            if len(res) and np.abs(res).max() > (1 << 40):
                continue  # pathological growth
            cost = int(_zigzag(res).sum()) if len(res) else 0
            if best_cost is None or cost < best_cost:
                best_order, best_cost, best_res = order, cost, res
        res = best_res

        body = _BitWriter()
        body.write(0, 1)
        body.write(0b001000 | best_order, 6)  # FIXED subframe
        body.write(0, 1)  # no wasted bits
        for s in blk[:best_order]:  # warm-up, 16-bit two's complement
            body.write(int(s) & 0xFFFF, 16)
        body.write(0, 2)  # residual method: 4-bit Rice
        body.write(0, 4)  # partition order 0
        k = _rice_k(res)
        rice_bits = int(_zigzag(res).sum() >> k) + len(res) * (1 + k) if len(res) else 0
        raw_bits_per = int(max(np.abs(res).max() if len(res) else 0, 1)).bit_length() + 1
        if len(res) and rice_bits > raw_bits_per * len(res):
            body.write(0b1111, 4)  # escape: raw residuals
            body.write(raw_bits_per, 5)
            mask = (1 << raw_bits_per) - 1
            for v in res:
                body.write(int(v) & mask, raw_bits_per)
        else:
            body.write(k, 4)
            if len(res):
                body.write_bit_array(_rice_bit_array(res, k))
        body.align()
        frame = hdr + body.getvalue()
        c16 = _crc16(frame)
        out.extend(frame)
        out.append(c16 >> 8)
        out.append(c16 & 0xFF)
    return bytes(out)


# --- decoder -------------------------------------------------------------------

_BS_TABLE = {1: 192, 2: 576, 3: 1152, 4: 2304, 5: 4608,
             8: 256, 9: 512, 10: 1024, 11: 2048, 12: 4096,
             13: 8192, 14: 16384, 15: 32768}
_SR_TABLE = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000, 6: 22050,
             7: 24000, 8: 32000, 9: 44100, 10: 48000, 11: 96000}


def flac_streaminfo(data: bytes) -> dict:
    """Parse STREAMINFO only: sr_hz, channels, bits, total_samples, md5."""
    if data[:4] != b"fLaC":
        raise FlacError("bad fLaC stream marker")
    pos = 4
    first = True
    while True:
        if pos + 4 > len(data):
            raise FlacError("truncated metadata block header")
        last = data[pos] >> 7
        btype = data[pos] & 0x7F
        blen = int.from_bytes(data[pos + 1 : pos + 4], "big")
        pos += 4
        if pos + blen > len(data):
            raise FlacError("truncated metadata block")
        if first:
            if btype != 0 or blen != 34:
                raise FlacError("first metadata block is not STREAMINFO")
            b = data[pos : pos + 34]
            sr = (b[10] << 12) | (b[11] << 4) | (b[12] >> 4)
            ch = ((b[12] >> 1) & 7) + 1
            bps = (((b[12] & 1) << 4) | (b[13] >> 4)) + 1
            total = ((b[13] & 0x0F) << 32) | int.from_bytes(b[14:18], "big")
            info = {
                "sr_hz": sr, "channels": ch, "bits": bps,
                "total_samples": total, "md5": b[18:34],
            }
            first = False
        pos += blen
        if last:
            info["frames_at"] = pos
            return info


def _decode_residual(br: _BitReader, bs: int, pred_order: int) -> np.ndarray:
    method = br.read(2)
    if method > 1:
        raise FlacError(f"reserved residual method {method}")
    plen = 4 if method == 0 else 5
    po = br.read(4)
    n_part = 1 << po
    if bs % n_part or (bs >> po) <= pred_order:
        raise FlacError("invalid rice partition order")
    out = np.empty(bs - pred_order, np.int64)
    at = 0
    for p in range(n_part):
        n = (bs >> po) - (pred_order if p == 0 else 0)
        k = br.read(plen)
        if n == 0:
            continue
        if k == (1 << plen) - 1:  # raw escape: n fixed-width fields
            nbits = br.read(5)
            v = br.gather_fixed(br.pos, n, nbits)
            v -= (v >= (1 << (nbits - 1))).astype(np.int64) << nbits  # sign
            out[at : at + n] = v
        else:
            u = br.rice_partition(n, k)
            out[at : at + n] = (u >> 1) ^ -(u & 1)  # vector unzigzag
        at += n
    return out


def _refix(warm: np.ndarray, res: np.ndarray, order: int) -> np.ndarray:
    """Exact fixed-predictor reconstruction: ``order`` successive
    cumulative sums, each seeded by the last value of the corresponding
    difference level of the warm-up samples (vectorized — no per-sample
    loop)."""
    x = res.astype(np.int64)
    w = warm.astype(np.int64)
    for o in range(order, 0, -1):
        prev = _fixed_residual(w, o - 1)[-1]
        x = np.cumsum(np.concatenate([[prev], x]))[1:]
    return np.concatenate([w, x])


def _decode_subframe(br: _BitReader, bs: int, bps: int) -> np.ndarray:
    if br.read(1):
        raise FlacError("subframe padding bit set")
    t = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = 1 + br.read_unary()
    eff = bps - wasted
    if eff <= 0:
        raise FlacError("wasted bits exceed sample size")

    def s(v: int) -> int:
        return v - (1 << eff) if v >= 1 << (eff - 1) else v

    if t == 0:  # CONSTANT
        out = np.full(bs, s(br.read(eff)), np.int64)
    elif t == 1:  # VERBATIM
        out = np.array([s(br.read(eff)) for _ in range(bs)], np.int64)
    elif 8 <= t <= 12:  # FIXED order 0-4
        order = t - 8
        if order > bs:
            raise FlacError("fixed order exceeds block size")
        warm = np.array([s(br.read(eff)) for _ in range(order)], np.int64)
        res = _decode_residual(br, bs, order)
        out = _refix(warm, res, order) if order else res
    elif t >= 32:  # LPC, order 1-32
        order = t - 31
        if order > bs:
            raise FlacError("lpc order exceeds block size")
        warm = np.array([s(br.read(eff)) for _ in range(order)], np.int64)
        prec = br.read(4) + 1
        if prec == 16:
            raise FlacError("invalid lpc precision escape")
        shift = br.read(5)
        if shift >= 16:
            shift -= 32
        if shift < 0:
            raise FlacError("negative lpc shift")
        coefs = np.empty(order, np.int64)
        for i in range(order):
            c = br.read(prec)
            coefs[i] = c - (1 << prec) if c >= 1 << (prec - 1) else c
        res = _decode_residual(br, bs, order)
        out = np.empty(bs, np.int64)
        out[:order] = warm
        for i in range(order, bs):
            pred = int(np.dot(coefs, out[i - order : i][::-1]))
            out[i] = res[i - order] + (pred >> shift)
    else:
        raise FlacError(f"reserved subframe type {t}")
    return out << wasted


def decode_flac(data: bytes, verify_md5: bool = True):
    """Decode a FLAC stream → (samples int32 (n,) mono or (n, ch), sr_hz).
    Verifies frame CRC-8/CRC-16 and (optionally) the STREAMINFO MD5 —
    the audio analogue of the reference's zip CRC sweep."""
    try:
        return _decode_flac_impl(data, verify_md5)
    except FlacError:
        raise
    except (IndexError, ValueError, OverflowError) as exc:
        raise FlacError(f"malformed flac ({type(exc).__name__}): {exc}") from exc


def _decode_flac_impl(data: bytes, verify_md5: bool):
    info = flac_streaminfo(data)
    sr, ch, bps, total = (
        info["sr_hz"], info["channels"], info["bits"], info["total_samples"],
    )
    if bps not in (8, 16, 24):
        raise FlacError(f"unsupported bits-per-sample {bps}")
    br = _BitReader(data[info["frames_at"] :])
    chans: list[list[np.ndarray]] = [[] for _ in range(ch)]
    got = 0
    while (total == 0 and br.byte_pos() + 2 < len(br.bits) // 8) or got < total:
        if br.pos >= len(br.bits) - 15:
            break
        frame_start_byte = br.byte_pos()
        if br.read(14) != 0b11111111111110:
            raise FlacError("lost frame sync")
        br.read(1)
        br.read(1)  # blocking strategy
        bs_code = br.read(4)
        sr_code = br.read(4)
        ch_code = br.read(4)
        ss_code = br.read(3)
        br.read(1)
        # UTF-8 coded number
        lead = br.read(8)
        extra = 0
        if lead >= 0x80:
            n = 0
            probe = lead
            while probe & 0x40:
                n += 1
                probe <<= 1
            extra = n
            for _ in range(extra):
                if br.read(8) & 0xC0 != 0x80:
                    raise FlacError("bad coded frame number")
        if bs_code == 0:
            raise FlacError("reserved block size code")
        if bs_code == 6:
            bs = br.read(8) + 1
        elif bs_code == 7:
            bs = br.read(16) + 1
        else:
            bs = _BS_TABLE[bs_code]
        if sr_code == 12:
            br.read(8)
        elif sr_code in (13, 14):
            br.read(16)
        elif sr_code == 15:
            raise FlacError("invalid sample rate code")
        # CRC-8 over the header bytes
        hdr_end = br.byte_pos()
        if br.pos & 7:
            raise FlacError("frame header not byte-aligned")
        crc = br.read(8)
        hdr_bytes = np.packbits(
            br.bits[frame_start_byte * 8 : hdr_end * 8]
        ).tobytes()
        if _crc8(hdr_bytes) != crc:
            raise FlacError("frame header crc8 mismatch")

        ss_map = {0: bps, 1: 8, 2: 12, 4: 16, 5: 20, 6: 24}
        if ss_code not in ss_map:
            raise FlacError("reserved sample size code")
        fbps = ss_map[ss_code]
        if ch_code < 8:
            nch = ch_code + 1
            if nch != ch:
                raise FlacError("frame/stream channel mismatch")
            subs = [_decode_subframe(br, bs, fbps) for _ in range(nch)]
        elif ch_code in (8, 9, 10):
            if ch != 2:
                raise FlacError("side coding in non-stereo stream")
            b0 = fbps + (1 if ch_code == 9 else 0)
            b1 = fbps + (0 if ch_code == 9 else 1)
            c0 = _decode_subframe(br, bs, b0)
            c1 = _decode_subframe(br, bs, b1)
            if ch_code == 8:  # left-side
                subs = [c0, c0 - c1]
            elif ch_code == 9:  # right-side
                subs = [c0 + c1, c1]
            else:  # mid-side
                side = c1
                mid = (c0 << 1) | (side & 1)
                subs = [(mid + side) >> 1, (mid - side) >> 1]
        else:
            raise FlacError("reserved channel assignment")
        br.align()
        crc_end = br.byte_pos()
        c16 = br.read(16)
        frame_bytes = np.packbits(
            br.bits[frame_start_byte * 8 : crc_end * 8]
        ).tobytes()
        if _crc16(frame_bytes) != c16:
            raise FlacError("frame crc16 mismatch")
        for c in range(ch):
            chans[c].append(subs[c])
        got += bs
        if total and got >= total:
            break

    cols = [np.concatenate(c) if c else np.zeros(0, np.int64) for c in chans]
    n = total if total else len(cols[0])
    cols = [c[:n] for c in cols]
    out = cols[0] if ch == 1 else np.stack(cols, axis=1)
    if verify_md5 and info["md5"] != b"\x00" * 16:
        if bps == 8:
            raw = (out.astype(np.int64) & 0xFF).astype(np.uint8).tobytes()
        elif bps == 16:
            raw = out.astype("<i2").tobytes()
        else:
            a = out.astype(np.int64) & 0xFFFFFF
            b8 = np.empty((a.size, 3), np.uint8)
            flat = a.reshape(-1)
            b8[:, 0] = flat & 0xFF
            b8[:, 1] = (flat >> 8) & 0xFF
            b8[:, 2] = (flat >> 16) & 0xFF
            raw = b8.tobytes()
        if hashlib.md5(raw).digest() != info["md5"]:
            raise FlacError("stream md5 mismatch (decoded samples corrupt)")
    return out.astype(np.int32), sr
