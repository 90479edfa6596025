"""Stateless vectorized constraint stage.

One ``map_batches(fn, batch_format="pyarrow")`` function evaluating *all*
scalar column rules of a plan against each Arrow batch — zero-copy in,
a (sparse) violations table out. This is the Ray-Data re-expression of
the reference's per-file scalar constraint checks
(``/root/reference/fs_schema_validator/schemas/json.py:240-265``), with
the compiled plan shipped once in the task closure instead of being
rebuilt per record (the reference rebuilds its pydantic model per call,
``json.py:244``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fs_schema_validator_ray.report import (  # noqa: F401 - PARTITION_COLUMN re-exported
    PARTITION_COLUMN,
    empty_violations,
    partition_ids,
    violations_table,
)
from fs_schema_validator_ray.rules import ColumnRule


class ScalarRuleStage:
    """Stateless batch callable: a validation run's row-pass tasks call it
    through ``CombinedValidateStage``, and the scalar-rule query runs it
    under ``Dataset.map_batches`` (no actor needed, there is no state to
    amortize — regexes are compiled inside Arrow's RE2 kernels)."""

    def __init__(self, rules: list[ColumnRule], key_column: str = "clip_id") -> None:
        self.rules = list(rules)
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_arr = (
            batch.column(self.key_column).combine_chunks()
            if self.key_column in batch.column_names
            else None
        )
        parts = partition_ids(batch)

        out_keys: list[pa.Array] = []
        out_parts: list[np.ndarray] = []
        rule_ids: list[str] = []
        reasons: list[str] = []
        sizes: list[int] = []

        for rule in self.rules:
            if rule.column not in batch.column_names:
                # rule-level violation: the column itself is missing
                # (parity with the reference's "does not exist", report.py:24-25)
                out_keys.append(pa.array([None], pa.string()))
                out_parts.append(np.array([-1], dtype=np.int32))
                rule_ids.append(rule.rule_id)
                reasons.append(f"column `{rule.column}` does not exist")
                sizes.append(1)
                continue
            col = batch.column(rule.column).combine_chunks()
            for idx, msg in rule.spec.findings(col):
                if not len(idx):
                    continue
                idx_arr = pa.array(idx)
                out_keys.append(
                    key_arr.take(idx_arr)
                    if key_arr is not None
                    else pa.array([None] * len(idx), pa.string())
                )
                out_parts.append(parts[idx])
                rule_ids.append(rule.rule_id)
                reasons.append(f"`{rule.column}`: {msg}")
                sizes.append(len(idx))

        if not sizes:
            return empty_violations()
        # one Arrow take per (rule, finding) and one np.repeat per column:
        # the findings are index arrays, so no per-row Python here
        return violations_table(
            pa.concat_arrays([a.cast(pa.string()) for a in out_keys]),
            np.repeat(np.asarray(rule_ids, dtype=object), sizes),
            np.repeat(np.asarray(reasons, dtype=object), sizes),
            np.concatenate(out_parts),
        )
