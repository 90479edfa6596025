"""AVIF decode path (``functions/avif.py``): ctypes libavif binding —
the same runtime dependency the reference uses via pillow_avif
(``/root/reference/fs_schema_validator/schemas/image.py:5``) — with our
own plane extraction + BT.601 conversion, typed errors, and the
deterministic-fake fallback when the library is absent."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from fs_schema_validator_ray.functions.avif import (
    AvifError,
    AvifUnavailableError,
    avif_available,
    decode_avif,
)

needs_libavif = pytest.mark.skipif(
    not avif_available(), reason="libavif shared library unavailable"
)

_FIXTURE = Path("/root/reference/tests/fixtures/image.avif")


@needs_libavif
def test_reference_fixture_decodes():
    if not _FIXTURE.exists():
        pytest.skip("reference fixture unavailable")
    data = _FIXTURE.read_bytes()
    rgb = decode_avif(data)
    assert rgb.shape == (400, 400, 3) and rgb.dtype == np.uint8
    # determinism
    assert np.array_equal(rgb, decode_avif(data))
    # same logo as the png fixture: opaque content must agree closely
    png_path = Path("/root/reference/tests/fixtures/image.png")
    if png_path.exists():
        from fs_schema_validator_ray.functions.png import decode_png

        png = decode_png(png_path.read_bytes())[..., :3]
        mse = float(((rgb.astype(float) - png.astype(float)) ** 2).mean())
        psnr = 10 * np.log10(255.0**2 / max(mse, 1e-9))
        assert psnr >= 45.0


@needs_libavif
def test_malformed_payloads_raise_typed():
    for blob in (b"", b"garbage" * 10, b"\x00" * 64):
        with pytest.raises(AvifError):
            decode_avif(blob)
    if _FIXTURE.exists():
        data = _FIXTURE.read_bytes()
        with pytest.raises(AvifError):
            decode_avif(data[:50])
        # bit corruption inside the AV1 payload: typed error or a decode
        corrupt = bytearray(data)
        corrupt[len(data) // 2] ^= 0xFF
        try:
            decode_avif(bytes(corrupt))
        except AvifError:
            pass


@needs_libavif
def test_validate_stage_flags_corrupt_avif(ray_session):
    """Deep decode gates avif pass/fail when the library is present: a
    declared-avif payload with a valid ftyp but a truncated payload
    must emit the invalid-image violation."""
    import pyarrow as pa

    from fs_schema_validator_ray.stages.multimodal import ImageValidateStage

    if not _FIXTURE.exists():
        pytest.skip("reference fixture unavailable")
    good = _FIXTURE.read_bytes()
    bad = good[:200]  # ftyp sniffs, AV1 payload gone
    stage = ImageValidateStage(rule_id="img")
    batch = pa.table(
        {
            "key": pa.array(["ok.avif", "bad.avif"]),
            "format": pa.array(["avif", "avif"]),
            "bytes": pa.array([good, bad], pa.binary()),
        }
    )
    out = stage(batch).to_pandas()
    assert "bad.avif" in set(out["key"])
    assert "ok.avif" not in set(out["key"])


def test_hybrid_decoder_fallback_when_library_absent(monkeypatch):
    """Without libavif the HybridPixelDecoder must fall back to the
    deterministic fake — never crash, never change verdicts."""
    import fs_schema_validator_ray.functions.avif as avif_mod
    from fs_schema_validator_ray.stages.multimodal import HybridPixelDecoder

    monkeypatch.setattr(avif_mod, "_lib", False)
    assert not avif_mod.avif_available()
    with pytest.raises(AvifUnavailableError):
        avif_mod.decode_avif(b"anything")
    dec = HybridPixelDecoder()
    px = dec(b"payload-bytes", "avif", (8, 6))
    assert px.shape[2] == 3 and px.dtype == np.uint8
    assert np.array_equal(px, dec(b"payload-bytes", "avif", (8, 6)))


@needs_libavif
def test_hybrid_decoder_real_avif_pixels():
    if not _FIXTURE.exists():
        pytest.skip("reference fixture unavailable")
    from fs_schema_validator_ray.stages.multimodal import HybridPixelDecoder

    dec = HybridPixelDecoder()
    px = dec(_FIXTURE.read_bytes(), "avif", (400, 400))
    assert px.shape == (400, 400, 3)
    assert np.array_equal(px, decode_avif(_FIXTURE.read_bytes()))


@needs_libavif
def test_encoded_payload_round_trips():
    """A payload built by libavif's own encoder decodes to its image."""
    from avif_encode import encode_avif

    rgb = np.zeros((12, 16, 3), np.uint8)
    rgb[:, 8:] = (200, 40, 90)
    data = encode_avif(rgb)
    if data is None:
        pytest.skip("libavif has no AV1 encoder")
    out = decode_avif(data)
    assert out.shape == rgb.shape
    assert np.abs(out.astype(int) - rgb.astype(int)).max() <= 12
