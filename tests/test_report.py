"""ViolationReport semantics — the reference's mergeable report monoid
(``/root/reference/fs_schema_validator/report.py``) in columnar form."""

import pyarrow as pa

from fs_schema_validator_ray.report import (
    Violation,
    ViolationReport,
    empty_violations,
    violations_table,
)


def sample_report():
    t = violations_table(
        keys=["b", "a", "a"],
        rule_ids=["r2", "r1", "r2"],
        reasons=["too big", "missing", "too big"],
    )
    return ViolationReport.from_arrow(t, ok_keys=["c"])


def test_counts_and_okay():
    r = sample_report()
    # count = inspected records (violations + ok), reference report.py:38-42
    assert r.count() == 4
    assert len(r.violations) == 3
    assert not r.okay()
    assert ViolationReport.from_arrow(empty_violations(), ok_keys=["x"]).okay()


def test_grouped_sorted_deterministic():
    r = sample_report()
    groups = list(r.grouped_by_key())
    # sorted by key, reasons sorted within key — execution-order-insensitive
    assert groups == [("a", ["missing", "too big"]), ("b", ["too big"])]


def test_merge_monoid():
    a = sample_report()
    b = ViolationReport.from_arrow(
        violations_table(keys=["d"], rule_ids=["r3"], reasons=["bad"]),
        ok_keys=["e"],
    )
    m = a.merge(b)
    assert len(m.violations) == 4
    assert m.count() == 6  # 4 violations + 2 ok keys
    assert set(m.ok_keys) == {"c", "e"}
    # merge with empty is identity
    empty = ViolationReport.from_arrow(empty_violations())
    assert a.merge(empty).count() == a.count()


def test_render_golden():
    r = sample_report()
    out = r.render().splitlines()
    assert out[0] == "ok c"
    assert out[1] == "FAIL a"
    assert out[2].strip() == "- missing"
    assert out[3].strip() == "- too big"
    assert out[4] == "FAIL b"


def test_reasons_for():
    r = sample_report()
    assert r.reasons_for("a") == {"missing", "too big"}
    assert r.reasons_for("zzz") == set()


def test_violation_frozen():
    v = Violation(key="k", rule_id="r", reason="x")
    assert (v.key, v.rule_id, v.reason) == ("k", "r", "x")


def test_row_violations_turns_a_raising_check_into_a_row():
    from fs_schema_validator_ray.report import VIOLATION_SCHEMA, row_violations

    batch = pa.table(
        {
            "clip_id": ["a", "b", "c"],
            "partition_id": pa.array([7, None, 9], pa.int32()),
            "x": [1, 0, 2],
        }
    )

    def check(x):
        return ["two reasons", "for 2"] if x == 2 else [str(1 // x)] * (x != 1)

    out = row_violations(batch, "clip_id", "r", check, zip(batch.column("x").to_pylist()))
    assert out.schema == VIOLATION_SCHEMA
    assert out.to_pylist() == [
        {"partition_id": -1, "key": "b", "rule_id": "r",
         "reason": "unexpected validation error: (ZeroDivisionError) integer division or modulo by zero"},
        {"partition_id": 9, "key": "c", "rule_id": "r", "reason": "two reasons"},
        {"partition_id": 9, "key": "c", "rule_id": "r", "reason": "for 2"},
    ]
    # no key column → null keys; no partition column → -1
    out = row_violations(batch.select(["x"]), "clip_id", "r", check, [(2,)])
    assert out.column("key").to_pylist() == [None, None]
    assert out.column("partition_id").to_pylist() == [-1, -1]
