"""Violation model + report rendering.

The reference accumulates ``ValidationError(path, reason)`` rows in a
single mutable, mergeable ``ValidationReport``
(``/root/reference/fs_schema_validator/report.py``). In the Ray engine
violations are **data**: every stage emits an Arrow table with the
violation schema and the streaming executor concatenates them; the
driver-side ``ViolationReport`` below exists only for small results —
tests, CLI rendering, exit codes — mirroring the reference's grouped
rendering (``report.py:27-33``, ``__main__.py:82-94``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Iterator

import numpy as np
import pyarrow as pa

#: name of the partition-id column the pipeline reader attaches to every
#: batch (the checkpoint unit; ``-1`` where a batch carries none)
PARTITION_COLUMN = "partition_id"

#: Arrow schema of the violations stream. ``partition_id`` keys resumable
#: checkpoints; ``key`` is the record key (``clip_id`` for the clips table —
#: the analogue of the reference's ``path``); ``rule_id`` names the rule;
#: ``reason`` is a stable human-readable string.
VIOLATION_SCHEMA = pa.schema(
    [
        pa.field(PARTITION_COLUMN, pa.int32()),
        pa.field("key", pa.string()),
        pa.field("rule_id", pa.string()),
        pa.field("reason", pa.string()),
    ]
)


def empty_violations() -> pa.Table:
    return VIOLATION_SCHEMA.empty_table()


def violations_table(
    keys: list,
    rule_ids: list | str,
    reasons: list,
    partition_ids: list | np.ndarray | None = None,
) -> pa.Table:
    """Build a violations Arrow table from parallel columns. A single
    ``rule_ids`` string applies to every row; ``partition_ids`` defaults
    to ``-1`` (a violation of no partition, e.g. a plan-time one)."""
    n = len(keys)
    if isinstance(rule_ids, str):
        rule_ids = [rule_ids] * n
    if partition_ids is None:
        partition_ids = np.full(n, -1, np.int32)
    return pa.Table.from_arrays(
        [
            pa.array(partition_ids, pa.int32()),
            pa.array(keys, pa.string()),
            pa.array(rule_ids, pa.string()),
            pa.array(reasons, pa.string()),
        ],
        schema=VIOLATION_SCHEMA,
    )


def partition_ids(batch: pa.Table) -> np.ndarray:
    """The int32 partition id of every row of ``batch`` — ``-1`` for rows
    (or whole batches) the reader attached no partition to."""
    if PARTITION_COLUMN not in batch.column_names:
        return np.full(batch.num_rows, -1, np.int32)
    col = batch.column(PARTITION_COLUMN).combine_chunks().cast(pa.int32())
    return np.asarray(col.fill_null(-1))


def unexpected_error(ex: Exception) -> str:
    """The one reason of a row whose check raised: one poisoned row must
    not kill a 100 TB run (anticipated decode errors are typed by the
    checks themselves; this is the backstop for genuinely malformed
    payloads)."""
    return f"unexpected validation error: ({type(ex).__name__}) {ex}"


def reasons_table(batch: pa.Table, key_column: str, rule_id: str, found: list) -> pa.Table:
    """Violation rows from ``found``, one list of reasons per batch row in
    batch order. Each reason becomes one row carrying the row's key
    (stringified; null when the batch has no ``key_column``) and
    partition id."""
    idx = [i for i, reasons in enumerate(found) for _ in reasons]
    reasons = [x for row in found for x in row]
    keys = [None] * len(idx)
    if key_column in batch.column_names:
        taken = batch.column(key_column).take(pa.array(idx, pa.int64()))
        keys = [None if k is None else str(k) for k in taken.to_pylist()]
    return violations_table(keys, rule_id, reasons, partition_ids(batch)[idx])


def row_violations(batch: pa.Table, key_column: str, rule_id: str, check, rows) -> pa.Table:
    """Run a per-row check over ``batch`` → violation rows.

    ``rows`` yields one argument tuple per batch row, in batch order;
    ``check(*args)`` returns that row's reasons (empty when it passes). A
    check that raises yields its row's :func:`unexpected_error`."""
    found = []
    for args in rows:
        try:
            found.append(check(*args))
        except Exception as ex:  # noqa: BLE001 - see unexpected_error
            found.append([unexpected_error(ex)])
    return reasons_table(batch, key_column, rule_id, found)


@dataclass(frozen=True)
class Violation:
    """One violation row (reference ``ValidationError``, ``report.py:10-14``),
    extended with the rule id and the checkpoint partition."""

    key: str
    rule_id: str
    reason: str
    partition_id: int = -1


@dataclass
class ViolationReport:
    """Small driver-side accumulator over materialized violation tables.

    Only used on small results; at scale violations stay a Dataset.
    """

    violations: list[Violation] = field(default_factory=list)
    ok_keys: list[str] = field(default_factory=list)

    @staticmethod
    def from_arrow(table: pa.Table, ok_keys: list[str] | None = None) -> "ViolationReport":
        rows = table.to_pylist()
        return ViolationReport(
            violations=[
                Violation(
                    key=r["key"],
                    rule_id=r["rule_id"],
                    reason=r["reason"],
                    partition_id=r.get("partition_id", -1),
                )
                for r in rows
            ],
            ok_keys=list(ok_keys or []),
        )

    def okay(self) -> bool:
        return not self.violations

    def count(self) -> int:
        return len(self.violations) + len(self.ok_keys)

    def reasons_for(self, key: str) -> set[str]:
        return {v.reason for v in self.violations if v.key == key}

    def grouped_by_key(self) -> Iterator[tuple[str, list[str]]]:
        """Deterministic (sorted) grouping for rendering, independent of
        execution order — the engine-level analogue of the reference's
        sort-then-group (``report.py:27-33``)."""
        ordered = sorted(self.violations, key=lambda v: (v.key, v.rule_id, v.reason))
        for key, vs in itertools.groupby(ordered, key=lambda v: v.key):
            yield key, [v.reason for v in vs]

    def merge(self, other: "ViolationReport") -> "ViolationReport":
        return ViolationReport(
            violations=self.violations + other.violations,
            ok_keys=self.ok_keys + other.ok_keys,
        )

    def render(self) -> str:
        """Human-readable summary (reference ``__main__.py:82-94``)."""
        lines = [f"ok {k}" for k in sorted(self.ok_keys)]
        for key, reasons in self.grouped_by_key():
            lines.append(f"FAIL {key}")
            lines.extend(f"     - {r}" for r in reasons)
        return "\n".join(lines)
