"""Property-based tests (hypothesis): algebraic laws the engine relies on.

The reference has no property tests; these pin the invariants the
distributed design depends on — mergeable-sketch monoid laws (partial
aggregation correctness), DSL expansion cardinality, and parser
total-ness (a malformed payload must map to a typed decode error, never
an arbitrary exception)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fs_schema_validator_ray import audio, dsl
from fs_schema_validator_ray.state.sketches import (
    BloomFilter,
    Histogram,
    HyperLogLog,
    TDigest,
)

ints = st.lists(st.integers(0, 10**9), min_size=0, max_size=300)


@settings(max_examples=30, deadline=None)
@given(ints, ints)
def test_hll_merge_is_union(a, b):
    """merge(A, B) estimates |A ∪ B|: same registers as adding both."""
    h1, h2, both = HyperLogLog(), HyperLogLog(), HyperLogLog()
    if a:
        h1.add(np.asarray(a, dtype=object))
        both.add(np.asarray(a, dtype=object))
    if b:
        h2.add(np.asarray(b, dtype=object))
        both.add(np.asarray(b, dtype=object))
    merged = h1.merge(h2)
    assert np.array_equal(merged.registers, both.registers)
    # serialization round-trip preserves state
    assert np.array_equal(
        HyperLogLog.from_bytes(merged.to_bytes()).registers, merged.registers
    )


@settings(max_examples=30, deadline=None)
@given(ints, ints)
def test_bloom_merge_no_false_negatives(a, b):
    bf1 = BloomFilter(max(1, len(a) + len(b)))
    bf2 = BloomFilter(max(1, len(a) + len(b)))
    if a:
        bf1.add(np.asarray(a, dtype=object))
    if b:
        bf2.add(np.asarray(b, dtype=object))
    m = bf1.merge(bf2)
    items = np.asarray(a + b, dtype=object)
    if len(items):
        assert m.contains(items).all()  # no false negatives, ever


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=400),
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=400),
)
def test_histogram_merge_is_concat(a, b):
    h1, h2, both = Histogram(0, 1000, 16), Histogram(0, 1000, 16), Histogram(0, 1000, 16)
    h1.add(np.asarray(a))
    h2.add(np.asarray(b))
    both.add(np.asarray(a + b))
    assert np.array_equal(h1.merge(h2).counts, both.counts)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=10, max_size=500))
def test_tdigest_quantiles_bounded(vals):
    td = TDigest()
    td.add(np.asarray(vals))
    lo, hi = min(vals), max(vals)
    for q in (0.1, 0.5, 0.9):
        x = td.quantile(q)
        assert lo - 1e-9 <= x <= hi + 1e-9
    # merge of halves covers the same range
    t1, t2 = TDigest(), TDigest()
    t1.add(np.asarray(vals[: len(vals) // 2]) if vals[: len(vals) // 2] else np.asarray([vals[0]]))
    t2.add(np.asarray(vals[len(vals) // 2 :]))
    m = t1.merge(t2)
    assert lo - 1e-9 <= m.quantile(0.5) <= hi + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_wav_parser_total(payload):
    """Arbitrary bytes either decode or raise the typed decode error —
    never an arbitrary exception (robustness contract of the backstop)."""
    try:
        audio.decode(payload)
    except audio.AudioDecodeError:
        pass


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_wav_parser_total_with_riff_prefix(payload):
    try:
        audio.decode(b"RIFF" + payload[:4] + b"WAVE" + payload)
    except audio.AudioDecodeError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(1, 5),
    st.sets(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=4),
)
def test_dsl_expansion_cardinality(lo, width, variants):
    """|expand| = span × choice product (cartesian, reference semantics)."""
    bindings = {
        "sp": dsl.Span(lo, lo + width - 1),
        "ch": dsl.Choice(variants),
    }
    out = list(dsl.expand("x-{$sp}-{$ch}", bindings))
    assert len(out) == width * len(variants)
    assert len(set(out)) == len(out)  # all distinct


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcdefgh-_.", min_size=0, max_size=30))
def test_dsl_plain_string_identity(s):
    """Templates without holes expand to themselves."""
    assert list(dsl.expand(s, {})) == [s]


# --- dedup primitives (round 2) --------------------------------------------

texts_strategy = st.lists(
    st.text(
        alphabet=st.sampled_from("ab c1-"), min_size=0, max_size=40
    ),
    min_size=0,
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(texts_strategy, st.integers(1, 4))
def test_distinct_shingle_hashes_matches_reference(texts, n):
    """Vectorized per-row distinct shingle hashing == a per-row Python
    reference (count + within-row sortedness + distinctness)."""
    import pyarrow as pa
    import re

    from fs_schema_validator_ray.stages.dedup import _distinct_shingle_hashes

    col = pa.array(texts, pa.string())
    hashes, offsets = _distinct_shingle_hashes(col, n)
    assert len(offsets) == len(texts) + 1
    for i, text in enumerate(texts):
        toks = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
        expected = {" ".join(toks[j:j + n]) for j in range(len(toks) - n + 1)}
        row = hashes[offsets[i]:offsets[i + 1]]
        assert len(row) == len(expected)
        # sorted + distinct within the row
        assert np.all(np.diff(row.astype(np.uint64)) > 0) or len(row) <= 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), max_size=20, unique=True),
            st.lists(st.integers(0, 30), max_size=20, unique=True),
        ),
        max_size=10,
    ),
    st.floats(0.0, 1.0),
)
def test_pairwise_jaccard_matches_setops(pairs, threshold):
    """Batched lexsort Jaccard == per-pair Python set arithmetic."""
    from fs_schema_validator_ray.stages.dedup import _pairwise_jaccard

    sets_a = [np.array(sorted(a), dtype=np.uint64) for a, _ in pairs]
    sets_b = [np.array(sorted(b), dtype=np.uint64) for _, b in pairs]
    keep, sim = _pairwise_jaccard(sets_a, sets_b, threshold)
    for i, (a, b) in enumerate(pairs):
        sa, sb = set(a), set(b)
        union = len(sa | sb)
        if union == 0:
            assert not keep[i]
            continue
        j = len(sa & sb) / union
        assert sim[i] == j
        assert keep[i] == (j >= threshold)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_png_decoder_total(payload):
    """Arbitrary bytes either decode or raise the typed PngError — never
    an arbitrary exception (the validate stage turns PngError into a
    violation row; anything else would kill the batch)."""
    from fs_schema_validator_ray.functions.png import PngError, decode_png

    try:
        decode_png(payload)
    except PngError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_png_decoder_total_with_signature(payload):
    from fs_schema_validator_ray.functions.png import PngError, decode_png

    try:
        decode_png(b"\x89PNG\r\n\x1a\n" + payload)
    except PngError:
        pass


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=2000))
def test_tdigest_compress_invariants(vals):
    """Vectorized k-bin compression: total weight is conserved exactly,
    cluster count stays <= delta+1, and centroids remain sorted and
    inside the data range."""
    td = TDigest()
    td.add(np.asarray(vals))
    td.compress()
    assert td.count() == float(len(vals))
    assert len(td.means) <= td.delta + 1
    assert np.all(np.diff(td.means) >= 0)
    assert min(vals) - 1e-9 <= td.means[0] and td.means[-1] <= max(vals) + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_gif_decoder_total(payload):
    from fs_schema_validator_ray.functions.gif import GifError, decode_gif

    try:
        decode_gif(payload)
    except GifError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_gif_decoder_total_with_signature(payload):
    from fs_schema_validator_ray.functions.gif import GifError, decode_gif

    try:
        decode_gif(b"GIF89a" + payload)
    except GifError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_jpeg_decoder_total(payload):
    from fs_schema_validator_ray.functions.jpeg import JpegError, decode_jpeg

    try:
        decode_jpeg(payload)
    except JpegError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_jpeg_decoder_total_with_signature(payload):
    from fs_schema_validator_ray.functions.jpeg import JpegError, decode_jpeg

    try:
        decode_jpeg(b"\xff\xd8" + payload)
    except JpegError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_bmp_decoder_total(payload):
    from fs_schema_validator_ray.functions.bmp import BmpError, decode_bmp

    try:
        decode_bmp(b"BM" + payload)
    except BmpError:
        pass


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_webp_alpha_roundtrip_property(h, w, filter_method, compress, seed):
    """Any alpha plane survives encode→decode bit-exactly under every
    spatial filter × compression combination."""
    import numpy as np

    from fs_schema_validator_ray.functions.webp import (
        decode_webp_alpha,
        encode_webp_alpha,
    )

    a = np.random.default_rng(seed).integers(0, 256, (h, w), np.uint8)
    out = decode_webp_alpha(
        encode_webp_alpha(a, filter_method=filter_method, compress=compress)
    )
    assert out is not None and np.array_equal(out, a)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 4.0, allow_nan=False),
    st.integers(1, 3000),
)
def test_mix_copies_rule_property(weight, n):
    """copies(row) = floor(w) + [h < frac·10000] — totals always land in
    [n·floor(w), n·ceil(w)] and are deterministic."""
    import math

    import numpy as np

    from fs_schema_validator_ray.stages.mixing import _MOD, _SCALE, _mix_hash

    keys = np.arange(n, dtype=np.int64)
    full = math.floor(weight)
    frac = round((weight - full) * _SCALE)
    copies = full + (_mix_hash(keys) < frac).astype(np.int64)
    total = int(copies.sum())
    assert n * full <= total <= n * (full + 1)
    copies2 = full + (_mix_hash(keys) < frac).astype(np.int64)
    assert np.array_equal(copies, copies2)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=30_000), st.integers(0, 2**31 - 1))
def test_cdc_total_coverage_property(payload, seed):
    """Chunk ends always tile the payload exactly; every chunk obeys the
    max bound and all but the final remainder obey the min bound."""
    import numpy as np

    from fs_schema_validator_ray.stages.cdc import _chunk_payload

    data = np.frombuffer(payload, np.uint8)
    ends, hashes = _chunk_payload(data, 16, 64, 256, 1024)
    if len(data) == 0:
        assert len(ends) == 0
        return
    assert ends[-1] == len(data)
    lens = np.diff(np.concatenate([[0], ends]))
    assert lens.max() <= 1024
    assert len(lens) == 1 or np.all(lens[:-1] >= 64)


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=200, deadline=None)
def test_y4m_parse_totality_random(data):
    """parse_y4m on arbitrary bytes: Y4mInfo or VideoError, never an
    untyped exception (codec-totality convention)."""
    from fs_schema_validator_ray.functions.video import VideoError, parse_y4m

    try:
        parse_y4m(data)
    except VideoError:
        pass


@given(st.integers(0, 2000), st.binary(min_size=0, max_size=8))
@settings(max_examples=150, deadline=None)
def test_y4m_parse_totality_mutated(cut, junk):
    """Truncations and splices of a VALID stream stay typed too."""
    from fixture_encode import encode_y4m
    from fs_schema_validator_ray.functions.video import VideoError, parse_y4m

    base = encode_y4m([np.zeros((8, 8, 3), np.uint8)] * 2, colorspace="420")
    mutated = base[: cut % (len(base) + 1)] + junk
    try:
        parse_y4m(mutated)
    except VideoError:
        pass


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_flac_decode_totality_random(data):
    """decode_flac on arbitrary bytes: typed FlacError only (the
    vectorized Rice/jump-table path must not leak numpy errors)."""
    from fs_schema_validator_ray.functions.flac import FlacError, decode_flac

    try:
        decode_flac(b"fLaC" + data)
    except FlacError:
        pass
