"""Build real AVIF payloads in tests through the system's libavif (ctypes).

``encode_avif(rgb)`` encodes an (h, w, 3) uint8 image as 8-bit 4:4:4
YUV with libavif's default AV1 encoder and returns the file bytes, or
None when libavif or an AV1 encoder is missing. It fills the planes
through the same ``avifImage`` head ``functions/avif.py`` decodes from.
"""

from __future__ import annotations

import ctypes

import numpy as np

from fs_schema_validator_ray.functions.avif import _AvifImageHead, _load

_AVIF_PIXEL_FORMAT_YUV444 = 1
_AVIF_PLANES_YUV = 1


class _RWData(ctypes.Structure):
    _fields_ = [("data", ctypes.c_void_p), ("size", ctypes.c_size_t)]


def _yuv444(rgb: np.ndarray) -> list[np.ndarray]:
    """Full-range BT.601 RGB → Y, U, V planes."""
    r, g, b = (rgb[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    u = 128 + (b - y) * 0.564
    v = 128 + (r - y) * 0.713
    return [np.clip(np.rint(p), 0, 255).astype(np.uint8) for p in (y, u, v)]


def encode_avif(rgb: np.ndarray) -> bytes | None:
    lib = _load()
    if lib is None:
        return None
    h, w, _ = rgb.shape
    rw = ctypes.POINTER(_RWData)
    for name, args, res in (
        ("avifImageCreate", [ctypes.c_int] * 4, ctypes.c_void_p),
        ("avifImageAllocatePlanes", [ctypes.c_void_p, ctypes.c_int], None),
        ("avifEncoderCreate", [], ctypes.c_void_p),
        ("avifEncoderWrite", [ctypes.c_void_p, ctypes.c_void_p, rw], ctypes.c_int),
        ("avifRWDataFree", [rw], None),
        ("avifEncoderDestroy", [ctypes.c_void_p], None),
        ("avifImageDestroy", [ctypes.c_void_p], None),
    ):
        getattr(lib, name).argtypes, getattr(lib, name).restype = args, res
    img = lib.avifImageCreate(w, h, 8, _AVIF_PIXEL_FORMAT_YUV444)
    enc = lib.avifEncoderCreate()
    out = _RWData()
    try:
        lib.avifImageAllocatePlanes(img, _AVIF_PLANES_YUV)
        head = ctypes.cast(img, ctypes.POINTER(_AvifImageHead)).contents
        head.yuvRange = 1  # full range
        for i, plane in enumerate(_yuv444(rgb)):
            buf = np.ctypeslib.as_array(
                ctypes.cast(head.yuvPlanes[i], ctypes.POINTER(ctypes.c_uint8)),
                shape=(h, int(head.yuvRowBytes[i])),
            )
            buf[:, :w] = plane
        if lib.avifEncoderWrite(enc, img, ctypes.byref(out)):
            return None  # no AV1 encoder in this libavif build
        return ctypes.string_at(out.data, out.size)
    finally:
        lib.avifRWDataFree(ctypes.byref(out))
        lib.avifEncoderDestroy(enc)
        lib.avifImageDestroy(img)
