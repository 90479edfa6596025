"""Single-pass per-row validation: scalar + audio + referential fused.

One callable evaluating every per-row rule of the plan against each
Arrow batch. Fusing matters at scale: running scalar / decode /
referential as three streams over the same input would read the payload
bytes three times; fused, each partition is read once, validated once,
and only (sparse) violation rows leave the task.

A validation run's row-pass tasks (plain Ray tasks) call it on each
batch of at most ``decode_batch_size`` rows
(``pipelines/validate.py::CommitPartitions.validate``).
"""

from __future__ import annotations

import pyarrow as pa

from fs_schema_validator_ray.functions.json_payload import JsonPayloadStage
from fs_schema_validator_ray.report import empty_violations
from fs_schema_validator_ray.rules import (
    AudioRule,
    ColumnRule,
    JsonRule,
    ReferentialRule,
)
from fs_schema_validator_ray.stages.assets import AssetValidateStage
from fs_schema_validator_ray.stages.decode import AudioValidateStage
from fs_schema_validator_ray.stages.referential import ReferentialStage
from fs_schema_validator_ray.stages.scalar import ScalarRuleStage


class CombinedValidateStage:
    """Fused scalar + audio + json-payload + referential validation."""

    def __init__(
        self,
        column_rules: list[ColumnRule],
        audio_rules: list[AudioRule],
        referential_rules: list[tuple[ReferentialRule, object]],
        key_column: str = "clip_id",
        json_rules: list[JsonRule] = (),
        asset_rules: list = (),
    ) -> None:
        self.stages = (
            ([ScalarRuleStage(column_rules, key_column)] if column_rules else [])
            + [AudioValidateStage(r, key_column) for r in audio_rules]
            + [JsonPayloadStage(r, key_column) for r in json_rules]
            + [AssetValidateStage.from_rule(r, key_column) for r in asset_rules]
            + [ReferentialStage(rule, ref) for rule, ref in referential_rules]
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = [p for p in (stage(batch) for stage in self.stages) if p.num_rows]
        if not parts:
            return empty_violations()
        return pa.concat_tables(parts)
