"""Numpy-backed mergeable sketches: HyperLogLog, Bloom, t-digest, histogram.

All algorithms are standard published designs: HyperLogLog (Flajolet et
al. 2007) with linear-counting small-range correction, Bloom filters
(Bloom 1970) with double hashing (Kirsch & Mitzenmacher 2006), the merging
t-digest (Dunning & Ertl, "Computing extremely accurate quantiles using
t-digests") with the k1 scale function, fixed-bin histograms with the
two-sample Kolmogorov–Smirnov statistic and Population Stability Index.

Hashes come from ``pandas.util.hash_array`` — vectorized, 64-bit and
stable across processes (unlike Python's seeded ``hash``), so sketches
built on different Ray workers merge coherently.
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd


def hash64(values, key: str = "0123456789abcdef") -> np.ndarray:
    """Stable vectorized 64-bit hash of an array-like of scalars."""
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in ("U", "S"):
        arr = arr.astype(object)
    return pd.util.hash_array(arr, hash_key=key, categorize=False)


def stable_key_array(col) -> np.ndarray:
    """Batch-independent numpy representation of an Arrow key column for
    hashing: ``to_numpy`` silently promotes int-with-null to float64 and
    bool-with-null to object, so the SAME key value hashes differently
    depending on whether its batch happened to carry a null — splitting
    one key's partial rows across shuffle buckets (silent wrong answers
    in uniqueness/joins). Integers/bools canonicalize to null-filled
    int64 (null keys route like key 0 — harmless, callers that care mask
    nulls separately); every other Arrow type's to_numpy representation
    is already null-presence-independent (float64+NaN, datetime64+NaT,
    object str/None/Decimal)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy(
            zero_copy_only=False
        )
    return col.to_numpy(zero_copy_only=False)


def _tuple_component(v) -> str:
    if v is None:
        return "\x00null"
    return str(v).replace("\x00", "\x00\x00").replace("\x1f", "\x00\x1f")


def _tuple_components(col):
    """:func:`_tuple_component` of every value of an Arrow column, as an
    Arrow string array: with Arrow kernels for string and integer columns
    (their cast to string is ``str(v)``), per row for every other type
    (``str(1.0)`` is not Arrow's float cast)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_integer(t)):
        return pa.array([_tuple_component(v) for v in col.to_pylist()], pa.string())
    s = pc.cast(col, pa.string())
    s = pc.replace_substring(s, "\x00", "\x00\x00")
    s = pc.replace_substring(s, "\x1f", "\x00\x1f")
    return pc.fill_null(s, "\x00null")


def canonical_tuple_array(batch, columns):
    """:func:`canonical_tuple_strings` as an Arrow string array."""
    import pyarrow.compute as pc

    parts = [_tuple_components(batch.column(c)) for c in columns]
    return pc.binary_join_element_wise(*parts, "\x1f")


def canonical_tuple_strings(batch, columns) -> np.ndarray:
    """One canonical string per row for the composite key ``columns`` —
    the single encoding composite ``unique`` and ``referential`` rules
    (both the probe and the manifest membership build) agree on.

    Components are formatted with ``str(v)`` and joined with ``\\x1f``.
    A null component is spelled ``\\x00null``: nulls participate
    LITERALLY, so ``(x, null)`` equals ``(x, null)`` — a duplicate under
    ``unique``, a match under ``referential``. The encoding is injective:
    inside a component value ``\\x00`` becomes ``\\x00\\x00`` and ``\\x1f``
    becomes ``\\x00\\x1f``, so ``('a\\x1fb', 'c')`` and ``('a', 'b\\x1fc')``,
    or a literal ``'\\x00null'`` and a real null, never collide. Values
    containing neither character encode exactly as the plain join."""
    return canonical_tuple_array(batch, columns).to_numpy(zero_copy_only=False)


def key_codes(col) -> np.ndarray:
    """Dictionary-encoded int64 codes for an Arrow key column — the
    sortable, groupable key proxy used by the vectorized per-bucket
    segment scans (sessionize / windows / grouped quantiles). Codes are
    equal iff key values are equal (within one call); null keys code to
    -1 and form their own deterministic segment — the explicit fill
    avoids the platform-dependent NaN→int cast of null dictionary
    indices (INT64_MIN on x86, 0 on aarch64, colliding with code 0)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    return np.asarray(pc.fill_null(enc.indices, -1), dtype=np.int64)


_BUCKET_MIX = np.uint64(0xD1B54A32D192ED03)


def mix_to_buckets(x: np.ndarray, n_buckets: int) -> np.ndarray:
    """Map uint64 values (hashes OR structured keys like band ids) to
    int32 bucket ids. Takes HIGH bits of the multiply: ``(x * C) % P``
    with a power-of-two P keeps only the low byte(s) of ``x`` — a
    structured key (band << 32 ^ band_key) would ignore the band entirely
    and amplify hot-key skew n_bands-fold."""
    with np.errstate(over="ignore"):
        return (
            ((np.asarray(x, dtype=np.uint64) * _BUCKET_MIX) >> np.uint64(33))
            % np.uint64(n_buckets)
        ).astype(np.int32)


class HyperLogLog:
    """Distinct-count sketch; ~0.8% relative error at p=14 (16 KiB)."""

    def __init__(self, p: int = 14) -> None:
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h & np.uint64((1 << (64 - self.p)) - 1)
        # rho = position of the leftmost 1-bit in the (64-p)-bit suffix.
        # 64-p <= 50 bits => exact in float64.
        wf = w.astype(np.float64)
        _, exp = np.frexp(wf)
        rho = np.where(w == 0, 64 - self.p + 1, 64 - self.p - exp + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)

    def add(self, values) -> None:
        self.add_hashes(hash64(values))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / float(np.sum(np.exp2(-self.registers.astype(np.float64))))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * np.log(m / zeros)
        return est

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def to_bytes(self) -> bytes:
        return struct.pack("<B", self.p) + self.registers.tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "HyperLogLog":
        p = struct.unpack_from("<B", blob)[0]
        out = HyperLogLog(p)
        out.registers = np.frombuffer(blob[1:], dtype=np.uint8).copy()
        return out


class BloomFilter:
    """Membership sketch for broadcast semi/anti joins (referential check).

    ``contains`` can report a missing key as present with probability
    ``fpp`` — for a referential *violation* check that means violations can
    be *under*-reported by fpp, never over-reported."""

    def __init__(self, n_items: int, fpp: float = 1e-4) -> None:
        n_items = max(1, n_items)
        m = int(np.ceil(-n_items * np.log(fpp) / (np.log(2) ** 2)))
        self.n_bits = 1 << max(6, int(np.ceil(np.log2(m))))
        self.k = max(1, int(round(self.n_bits / n_items * np.log(2))))
        self.bits = np.zeros(self.n_bits // 8, dtype=np.uint8)

    @staticmethod
    def hash_pair(values) -> tuple[np.ndarray, np.ndarray]:
        """The two hash streams double hashing combines — exposed so a
        distributed build can hash on workers and add on the driver."""
        return hash64(values), hash64(values, key="fedcba9876543210")

    def _positions_from(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        # force the step odd: an even step cycles through a strict
        # subgroup of Z/2^n (degenerate probes that all land in the same
        # bit lanes → massive false-positive inflation)
        h2 = h2 | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        mask = np.uint64(self.n_bits - 1)
        with np.errstate(over="ignore"):
            return ((h1[None, :] + ks * h2[None, :]) & mask).ravel()

    def _positions(self, values) -> np.ndarray:
        return self._positions_from(*self.hash_pair(values))

    def add_hashes(self, h1: np.ndarray, h2: np.ndarray) -> None:
        pos = self._positions_from(np.asarray(h1, np.uint64), np.asarray(h2, np.uint64))
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                         (1 << (pos & np.uint64(7))).astype(np.uint8))

    def add(self, values) -> None:
        pos = self._positions(values)
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                         (1 << (pos & np.uint64(7))).astype(np.uint8))

    def contains(self, values) -> np.ndarray:
        pos = self._positions(values)
        got = (self.bits[(pos >> np.uint64(3)).astype(np.int64)]
               >> (pos & np.uint64(7)).astype(np.uint8)) & 1
        return got.reshape(self.k, -1).all(axis=0)

    def contains_hashes(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Probe with precomputed hash pairs (the worker-side mirror of
        ``add_hashes`` — e.g. composite join keys hashed per component
        and mixed before they reach the filter)."""
        pos = self._positions_from(np.asarray(h1, np.uint64), np.asarray(h2, np.uint64))
        got = (self.bits[(pos >> np.uint64(3)).astype(np.int64)]
               >> (pos & np.uint64(7)).astype(np.uint8)) & 1
        return got.reshape(self.k, -1).all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.n_bits == other.n_bits and self.k == other.k
        out = BloomFilter.__new__(BloomFilter)
        out.n_bits, out.k = self.n_bits, self.k
        out.bits = self.bits | other.bits
        return out

    def to_bytes(self) -> bytes:
        return struct.pack("<QI", self.n_bits, self.k) + self.bits.tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "BloomFilter":
        n_bits, k = struct.unpack_from("<QI", blob)
        out = BloomFilter.__new__(BloomFilter)
        out.n_bits, out.k = n_bits, k
        out.bits = np.frombuffer(blob[12:], dtype=np.uint8).copy()
        return out


class TDigest:
    """Merging t-digest (Dunning & Ertl) with the k1 scale function."""

    def __init__(self, delta: float = 200.0) -> None:
        self.delta = delta
        self.means = np.zeros(0)
        self.weights = np.zeros(0)
        self._buf_means: list[np.ndarray] = []
        self._buf_weights: list[np.ndarray] = []
        self._buffered = 0

    def add(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        self._buf_means.append(v)
        self._buf_weights.append(np.ones(len(v)))
        self._buffered += len(v)
        if self._buffered > 32 * self.delta:
            self.compress()

    def _k(self, q: np.ndarray) -> np.ndarray:
        return self.delta / (2 * np.pi) * np.arcsin(np.clip(2 * q - 1, -1, 1))

    def compress(self) -> None:
        if not self._buf_means and len(self.means) <= self.delta:
            return
        means = np.concatenate([self.means] + self._buf_means) if self._buf_means else self.means
        weights = (
            np.concatenate([self.weights] + self._buf_weights)
            if self._buf_weights
            else self.weights
        )
        self._buf_means, self._buf_weights, self._buffered = [], [], 0
        if not len(means):
            return
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()

        # VECTORIZED k-bin clustering (no Python loop over points): each
        # sorted point's mid-quantile maps through the k1 scale function;
        # points sharing a half-width k-bin merge into one centroid. The
        # k-size of every cluster is ≤ 0.5 — tighter than the sequential
        # greedy merge's ≤ 1 bound, with the same ≤ delta cluster count —
        # and the arcsin scale makes edge bins tiny, preserving tail
        # resolution. O(n log n) sort + O(n) bincounts vs the old O(n)
        # PYTHON loop (the former stats-pass hot spot at millions of rows
        # per block).
        cumw = np.cumsum(weights)
        q_mid = (cumw - weights / 2.0) / total
        kq = self._k(q_mid)
        k0 = self._k(np.array([0.0]))[0]
        ids = np.floor(2.0 * (kq - k0)).astype(np.int64)
        ids = np.maximum.accumulate(ids)  # guard fp non-monotonicity
        nb = int(ids[-1]) + 1
        w_c = np.bincount(ids, weights=weights, minlength=nb)
        mw_c = np.bincount(ids, weights=weights * means, minlength=nb)
        nz = w_c > 0
        self.weights = w_c[nz]
        self.means = mw_c[nz] / self.weights

    def quantile(self, q: float) -> float:
        self.compress()
        if not len(self.means):
            return float("nan")
        cum = np.cumsum(self.weights) - self.weights / 2.0
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def count(self) -> float:
        self.compress()
        return float(self.weights.sum())

    def merge(self, other: "TDigest") -> "TDigest":
        self.compress()
        other.compress()
        out = TDigest(self.delta)
        out.means = np.concatenate([self.means, other.means])
        out.weights = np.concatenate([self.weights, other.weights])
        out.compress()
        return out

    def to_bytes(self) -> bytes:
        self.compress()
        n = len(self.means)
        return (
            struct.pack("<dI", self.delta, n)
            + self.means.tobytes()
            + self.weights.tobytes()
        )

    @staticmethod
    def from_bytes(blob: bytes) -> "TDigest":
        delta, n = struct.unpack_from("<dI", blob)
        out = TDigest(delta)
        off = 12
        out.means = np.frombuffer(blob[off : off + 8 * n]).copy()
        out.weights = np.frombuffer(blob[off + 8 * n : off + 16 * n]).copy()
        return out


class Histogram:
    """Fixed-bin histogram over a declared [lo, hi) range, with overflow
    bins — the drift-detection state (KS / PSI vs a baseline)."""

    def __init__(self, lo: float, hi: float, bins: int = 64) -> None:
        assert hi > lo and bins >= 2
        self.lo, self.hi, self.bins = float(lo), float(hi), int(bins)
        # bins + 2: underflow [0] and overflow [-1]
        self.counts = np.zeros(self.bins + 2, dtype=np.int64)

    def add(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        idx = np.floor((v - self.lo) / (self.hi - self.lo) * self.bins).astype(np.int64)
        idx = np.clip(idx + 1, 0, self.bins + 1)
        np.add.at(self.counts, idx, 1)

    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "Histogram") -> "Histogram":
        assert (self.lo, self.hi, self.bins) == (other.lo, other.hi, other.bins)
        out = Histogram(self.lo, self.hi, self.bins)
        out.counts = self.counts + other.counts
        return out

    def cdf(self) -> np.ndarray:
        t = self.total()
        if t == 0:
            return np.zeros(len(self.counts))
        return np.cumsum(self.counts) / t

    def to_bytes(self) -> bytes:
        return struct.pack("<ddI", self.lo, self.hi, self.bins) + self.counts.tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "Histogram":
        lo, hi, bins = struct.unpack_from("<ddI", blob)
        out = Histogram(lo, hi, bins)
        out.counts = np.frombuffer(blob[20:], dtype=np.int64).copy()
        return out


def ks_statistic(a: Histogram, b: Histogram) -> float:
    """Two-sample KS statistic approximated on the shared binning."""
    return float(np.max(np.abs(a.cdf() - b.cdf())))


def psi(actual: Histogram, expected: Histogram, eps: float = 1e-6) -> float:
    """Population Stability Index between two histograms."""
    ta, te = max(actual.total(), 1), max(expected.total(), 1)
    p = np.maximum(actual.counts / ta, eps)
    q = np.maximum(expected.counts / te, eps)
    return float(np.sum((p - q) * np.log(p / q)))


class CountMinSketch:
    """Frequency sketch (Cormode–Muthukrishnan): ``estimate(x) ≥
    true(x)`` always (one-sided), ``≤ true(x) + ε·N`` with probability
    ``1 − δ`` — the mergeable companion to the EXACT Misra-Gries heavy
    hitters in ``stages/agg.py`` for when per-key truth is too wide to
    carry. Mergeable by elementwise add (same monoid contract as
    :class:`HyperLogLog`/:class:`TDigest`); vectorized batch ``add`` via
    the same double-hashing streams as :class:`BloomFilter`."""

    def __init__(self, eps: float = 1e-3, delta: float = 1e-3) -> None:
        self.width = int(np.ceil(np.e / eps))
        self.depth = int(np.ceil(np.log(1.0 / delta)))
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.n = 0

    def _positions(self, values) -> np.ndarray:
        h1, h2 = BloomFilter.hash_pair(values)
        rows = np.arange(self.depth, dtype=np.uint64)[:, None]
        return ((h1[None, :] + rows * h2[None, :]) % np.uint64(self.width)).astype(
            np.int64
        )

    def add(self, values, counts=None) -> None:
        pos = self._positions(values)
        w = (
            np.ones(pos.shape[1], np.int64)
            if counts is None
            else np.asarray(counts, np.int64)
        )
        for d in range(self.depth):
            np.add.at(self.table[d], pos[d], w)
        self.n += int(w.sum())

    def estimate(self, values) -> np.ndarray:
        pos = self._positions(values)
        ests = np.stack([self.table[d][pos[d]] for d in range(self.depth)])
        return ests.min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if self.table.shape != other.table.shape:
            raise ValueError("cannot merge CMS of different shapes")
        self.table += other.table
        self.n += other.n
        return self

    def to_bytes(self) -> bytes:
        import struct as _struct

        return _struct.pack("<qqq", self.depth, self.width, self.n) + self.table.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountMinSketch":
        import struct as _struct

        depth, width, n = _struct.unpack_from("<qqq", blob)
        out = cls.__new__(cls)
        out.depth, out.width, out.n = int(depth), int(width), int(n)
        out.table = (
            np.frombuffer(blob, np.int64, depth * width, 24)
            .reshape(depth, width)
            .copy()
        )
        return out
