"""Asset-validation stage: the reference's glTF/GLB and ZIP validators
(F4/F5) as a stateless ``map_batches`` pass emitting violation rows.

Reference parity: `/root/reference/fs_schema_validator/schemas/gltf.py:29-46`
(deserialize + ``nodes`` non-emptiness) and `schemas/zip.py:19-32`
(``testzip()`` CRC sweep); reason strings are byte-identical, including
the corrupted-fixture deserialize messages (see
``functions/assets.py``). Per-row loop is the work itself (variable-
size binary decode, same shape as ``ImageValidateStage``)."""

from __future__ import annotations

import pyarrow as pa

from fs_schema_validator_ray.functions.assets import validate_gltf, validate_zip
from fs_schema_validator_ray.report import row_violations


class AssetValidateStage:
    """``(key, bytes, format)`` batches → violation rows; ``format`` in
    {gltf, glb, zip}."""

    def __init__(
        self,
        rule_id: str = "asset_decode",
        bytes_column: str = "bytes",
        format_column: str | None = "format",
        key_column: str = "key",
        fixed_format: str | None = None,
    ) -> None:
        if format_column is None and fixed_format is None:
            raise ValueError("need format_column or fixed_format")
        self.rule_id = rule_id
        self.bytes_column = bytes_column
        self.format_column = format_column
        self.key_column = key_column
        self.fixed_format = fixed_format

    @classmethod
    def from_rule(cls, rule, key_column: str = "clip_id") -> "AssetValidateStage":
        """Build from a declarative :class:`rules.AssetRule`."""
        return cls(
            rule_id=rule.rule_id,
            bytes_column=rule.bytes_column,
            format_column=rule.format_column,
            key_column=key_column,
            fixed_format=rule.format,
        )

    @staticmethod
    def _check_row(payload, fmt) -> list[str]:
        if payload is None or len(payload) == 0:
            return ["cannot be empty"]
        if fmt in ("gltf", "glb"):
            return validate_gltf(payload, fmt)
        if fmt == "zip":
            return validate_zip(payload)
        return [f"unknown asset format {fmt!r}"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.bytes_column).to_pylist()
        fmts = (
            [self.fixed_format] * batch.num_rows
            if self.format_column is None
            else batch.column(self.format_column).to_pylist()
        )
        return row_violations(
            batch, self.key_column, self.rule_id, self._check_row, zip(payloads, fmts)
        )
