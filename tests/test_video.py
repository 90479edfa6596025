"""From-scratch MJPEG-in-AVI codec + real frame-sample stage: container
round-trips, per-frame decode parity with the JPEG codec, malformed
rejection, planted-corpus contract counts."""

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray.functions.jpeg import decode_jpeg, encode_jpeg
from fs_schema_validator_ray.functions.video import (
    VideoError,
    avi_frames,
    decode_avi_frame,
    encode_avi,
    parse_avi,
)


def _frames(n=4, h=20, w=28):
    yy, xx = np.mgrid[0:h, 0:w]
    return [
        np.stack(
            [(xx * k + 3) % 256, (yy + 11 * k) % 256, (xx + yy + k) % 256], 2
        ).astype(np.uint8)
        for k in range(n)
    ]


def test_roundtrip_container_and_frames():
    frames = _frames(5)
    data = encode_avi(frames, fps=12, quality=90)
    info = parse_avi(data)
    assert (info.width, info.height) == (28, 20)
    assert info.total_frames == 5 and info.handler == "MJPG"
    assert info.us_per_frame == 1_000_000 // 12
    got = avi_frames(data)
    assert len(got) == 5
    for k, fb in enumerate(got):
        # the frame chunk IS the baseline jpeg: decode parity is exact
        assert np.array_equal(
            decode_avi_frame(fb), decode_jpeg(encode_jpeg(frames[k], quality=90))
        )


def test_single_frame_and_odd_sizes():
    f = _frames(1, 7, 9)
    data = encode_avi(f, fps=1)
    assert len(avi_frames(data)) == 1
    assert decode_avi_frame(avi_frames(data)[0]).shape == (7, 9, 3)


def test_malformed_containers():
    data = encode_avi(_frames(3))
    with pytest.raises(VideoError, match="signature"):
        parse_avi(b"RIFF\x04\x00\x00\x00WAVE")
    with pytest.raises(VideoError):
        parse_avi(data[:40])
    with pytest.raises(VideoError, match="no video frames"):
        # strip the movi list: keep RIFF + hdrl only
        movi = data.index(b"movi") - 8
        cut = bytearray(data[:movi])
        import struct

        struct.pack_into("<I", cut, 4, len(cut) - 8)
        parse_avi(bytes(cut))
    with pytest.raises(VideoError, match="Huffman"):
        decode_avi_frame(b"\xff\xd8\xff\xd9")  # DHT-less (Annex-K quirk)


def test_fuzz_totality():
    rng = np.random.default_rng(3)
    good = encode_avi(_frames(3))
    for _ in range(50):
        n = int(rng.integers(0, len(good)))
        try:
            parse_avi(good[:n])
        except VideoError:
            pass
    for _ in range(50):
        data = bytearray(good)
        for _ in range(4):
            data[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
        try:
            frames = avi_frames(bytes(data))
            for fb in frames:
                try:
                    decode_avi_frame(fb)
                except VideoError:
                    pass
        except VideoError:
            pass


def test_frame_sample_stage_real_and_stub():
    from fs_schema_validator_ray.stages.multimodal import FrameSampleStage

    avi = encode_avi(_frames(6), fps=10)
    batch = pa.table(
        {
            "key": pa.array(["real", "stub"]),
            "bytes": pa.array([avi, b"\x00" * 70000], pa.binary()),
        }
    )
    out = FrameSampleStage(stride=2, max_frames=8, decode=True)(batch).to_pandas()
    real = out[out.key == "real"]
    assert list(real.frame_index) == [0, 1, 2]  # frames 0, 2, 4 sampled
    assert real.decode_ok.all()
    assert real.mean_luma.notna().all()
    stub = out[out.key == "stub"]
    assert len(stub) == 2 and not stub.decode_ok.any()  # stub slices can't decode


def test_corpus_contract_counts():
    from fs_schema_validator_ray.sources.videos import (
        build_videos_table,
        n_frames_of,
    )
    from fs_schema_validator_ray.stages.multimodal import FrameSampleStage

    n = 120
    t = build_videos_table(n)
    out = FrameSampleStage(stride=1, max_frames=8, decode=True)(t).to_pandas()
    expected_rows = sum(n_frames_of(i) for i in range(n) if i % 23 != 0)
    assert len(out) == expected_rows
    bad = {(r.key, r.frame_index) for r in out[~out.decode_ok].itertuples()}
    exp_bad = {
        (f"vid-{i:05d}", i % n_frames_of(i))
        for i in range(n)
        if i % 23 != 0 and i % 11 == 0
    }
    assert bad == exp_bad


def test_y4m_roundtrip_and_totality():
    """C444 round-trips pixel-near-exact; 420/mono decode; malformed
    headers/truncation raise VideoError."""
    import pytest

    from fixture_encode import encode_y4m
    from fs_schema_validator_ray.functions.video import VideoError, decode_y4m_frame, parse_y4m

    rng = np.random.default_rng(5)
    frames = [rng.integers(0, 256, (24, 32, 3), dtype=np.uint8) for _ in range(3)]
    data = encode_y4m(frames, fps=25, colorspace="444")
    info = parse_y4m(data)
    assert (info.width, info.height, info.fps_num) == (32, 24, 25)
    assert info.colorspace == "444" and len(info.frame_offsets) == 3
    for i, f in enumerate(frames):
        got = decode_y4m_frame(data, info, i)
        # full-range BT.601 forward+inverse rounding: off-by-one max
        assert np.abs(got.astype(int) - f.astype(int)).max() <= 1

    d420 = encode_y4m(frames, colorspace="420")
    i420 = parse_y4m(d420)
    assert i420.colorspace == "420"
    got = decode_y4m_frame(d420, i420, 0)
    assert got.shape == (24, 32, 3)
    # chroma box-subsampled: luma must still track closely
    luma = lambda a: 0.299 * a[..., 0] + 0.587 * a[..., 1] + 0.114 * a[..., 2]
    assert np.abs(luma(got) - luma(frames[0].astype(float))).mean() < 3.0

    mono = encode_y4m(frames, colorspace="mono")
    imono = parse_y4m(mono)
    g = decode_y4m_frame(mono, imono, 1)
    assert (g[..., 0] == g[..., 1]).all() and (g[..., 1] == g[..., 2]).all()

    with pytest.raises(VideoError):
        parse_y4m(b"NOTY4M anything")
    with pytest.raises(VideoError):
        parse_y4m(b"YUV4MPEG2 W0 H24 C444\nFRAME\n")
    with pytest.raises(VideoError):
        parse_y4m(data[: len(data) - 10])  # truncated last frame
    with pytest.raises(VideoError):
        parse_y4m(b"YUV4MPEG2 W4 H4 C999\n")
    with pytest.raises(VideoError):
        parse_y4m(b"YUV4MPEG2 W3 H3 C420jpeg\n")  # odd dims with 420


def test_frame_sample_stage_y4m(ray_session):
    import pyarrow as pa

    from fixture_encode import encode_y4m
    from fs_schema_validator_ray.stages.multimodal import FrameSampleStage

    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8) for _ in range(6)]
    payload = encode_y4m(frames, colorspace="444")
    batch = pa.table({"key": ["v1"], "bytes": [payload]})
    out = FrameSampleStage(stride=2, max_frames=2, decode=True)(batch)
    d = out.to_pydict()
    assert d["key"] == ["v1", "v1"]
    assert d["decode_ok"] == [True, True]
    # sampled frames 0 and 2: mean luma within rounding of the source
    for row, fi in enumerate([0, 2]):
        f = frames[fi].astype(float)
        want = float(np.mean(0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]))
        assert abs(d["mean_luma"][row] - want) < 1.5
