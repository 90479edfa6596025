"""JSON payload validation: parse a JSON-string column and check each
decoded document against a constraint spec.

The columnar analogue of the reference's core operator — compile a spec,
``validate_json(bytes)``, emit one violation per error with a dotted
json-path (the reference's ``schemas/json.py:240-265``).
The checking itself is ``Spec.check`` in ``functions/constraints.py``: the
same nodes, bounds and messages that check Arrow columns, with strict
JSON typing; that module's docstring lists where the two evaluators
intentionally differ.

The check runs per row inside ``map_batches`` — this IS the payload
decode operator (like audio decode), so per-row Python is the work
itself; the spec is compiled once on the driver and ``re`` caches the
compiled patterns, not per record (the reference rebuilt its validator
per call, ``json.py:244``).
"""

from __future__ import annotations

import json

import pyarrow as pa

from fs_schema_validator_ray.report import row_violations


class JsonPayloadStage:
    """map_batches callable: decode a JSON-string (or binary) column and
    validate each document against the compiled spec. Parse failures emit
    the reference-style decode reason ``failed to deserialize: ({type})
    {msg}`` (``gltf.py:39``)."""

    def __init__(self, rule, key_column: str = "clip_id") -> None:
        self.rule = rule
        self.key_column = key_column

    def _check_row(self, raw) -> list[str]:
        rule = self.rule
        value = None
        if raw is not None:
            try:
                value = json.loads(raw)
            except (ValueError, TypeError) as ex:
                return [f"`{rule.column}`: failed to deserialize: ({type(ex).__name__}) {ex}"]
        return [f"`{rule.column}`: {msg}" for msg in rule.spec.check(value)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = zip(batch.column(self.rule.column).to_pylist())
        return row_violations(
            batch, self.key_column, self.rule.rule_id, self._check_row, rows
        )
