"""JSON payload validation — ``Spec.check`` parity with the reference's strict
pydantic semantics (``/root/reference/tests/test_json.py:155-206``
golden-message pattern over decoded values)."""

import pyarrow as pa
import pytest

from fs_schema_validator_ray.functions.constraints import parse_spec
from fs_schema_validator_ray.functions.json_payload import JsonPayloadStage
from fs_schema_validator_ray.rules import JsonRule, RuleSet


def V(value, spec):
    return spec.check(value)


GOLDEN = [
    ({"type": "int"}, 1, []),
    ({"type": "int"}, "1", ["Input should be a valid integer"]),  # strict
    ({"type": "int"}, True, ["Input should be a valid integer"]),
    ({"type": "int", "min": 2}, 1, ["Input should be greater than or equal to 2"]),
    ({"type": "int", "multiple_of": 3}, 7, ["Input should be a multiple of 3"]),
    ({"type": "float"}, 1.5, []),
    ({"type": "float"}, 1, ["Input should be a valid number"]),  # strict
    ({"type": "bool"}, True, []),
    ({"type": "bool"}, 1, ["Input should be a valid boolean"]),
    ({"type": "str", "regex": "^a+$"}, "aaa", []),
    ({"type": "str", "regex": "^a+$"}, "b", ["String should match pattern '^a+$'"]),
    ({"type": "str", "min_length": 2}, "x", ["String should have at least 2 characters"]),
    ({"type": "str"}, None, ["Input should not be null"]),
    ({"type": "str", "nullable": True}, None, []),
    ({"type": "literal", "value": 5}, 5, []),
    ({"type": "literal", "value": 5}, 6, ["Input should be 5"]),
    ({"type": "str", "allowed": ["a", "b"]}, "c", ["Input should be 'a' or 'b'"]),
    ({"type": "array", "items": {"type": "int"}, "min_items": 2}, [1],
     ["List should have at least 2 items"]),
    ({"type": "array", "items": {"type": "int"}}, [1, "x"],
     ["1: Input should be a valid integer"]),
    ({"type": "array"}, {"a": 1}, ["Input should be a valid list"]),
    ({"type": "tuple", "items": [{"type": "int"}, {"type": "str"}]}, [1, "a"], []),
    ({"type": "tuple", "items": [{"type": "int"}, {"type": "str"}]}, [1],
     ["Tuple should have exactly 2 items"]),
    ({"type": "object", "attrs": {"k": {"type": "int"}}}, {"k": 1}, []),
    ({"type": "object", "attrs": {"k": {"type": "int"}}}, {},
     ["k: Field required"]),
    ({"type": "object", "attrs": {"k": {"type": "int", "nullable": True}}}, {}, []),
    ({"type": "object", "attrs": {"k": {"type": "int"}}}, [1],
     ["Input should be a valid object"]),
    ({"type": "object", "attrs": {"a": {"type": "object", "attrs": {"b": {"type": "int"}}}}},
     {"a": {"b": "x"}}, ["a: b: Input should be a valid integer"]),
    ({"type": "dict", "values": {"type": "int", "max": 3}}, {"x": 9},
     ["values: Input should be less than or equal to 3"]),
    ({"type": "enum", "variants": [{"type": "int"}, {"type": "str"}]}, 1.5,
     ["Input does not match any of 2 allowed variants"]),
    ({"type": "enum", "variants": [{"type": "int"}, {"type": "str"}]}, "ok", []),
]


@pytest.mark.parametrize("spec,value,expected", GOLDEN)
def test_walker_golden(spec, value, expected):
    assert V(value, parse_spec(spec)) == expected


@pytest.mark.parametrize(
    "spec,value,expected",
    [case for case in GOLDEN if not isinstance(case[1], (list, dict))]
    + [
        # `allowed` is reported alongside the node's other value messages
        ({"type": "str", "min_length": 2, "allowed": ["ab", "cd"]}, "x",
         ["String should have at least 2 characters", "Input should be 'ab' or 'cd'"]),
        ({"type": "int", "max": 3, "allowed": [1, 2]}, 5,
         ["Input should be less than or equal to 3", "Input should be 1 or 2"]),
        # a float multiple_of is tested on the quotient, in both evaluators
        ({"type": "float", "multiple_of": 1e-12}, 1.5e-12,
         ["Input should be a multiple of 1e-12"]),
        ({"type": "float", "multiple_of": 0.1}, 0.3, []),
        # an int or float literal is compared by value, a bool one is not
        ({"type": "literal", "value": 5}, 5.0, []),
        ({"type": "literal", "value": 5.0}, 5, []),
        ({"type": "literal", "value": 5}, True, ["Input should be 5"]),
        ({"type": "literal", "value": 5}, 5.5, ["Input should be 5"]),
    ],
)
def test_json_value_and_column_report_the_same(spec, value, expected):
    spec = parse_spec(spec)
    assert spec.check(value) == expected
    assert [msg for _, msg in spec.findings(pa.array([value]))] == expected


def test_json_payload_stage():
    rule = JsonRule(
        rule_id="props_spec",
        column="props",
        spec=parse_spec(
            {"type": "object", "attrs": {"k": {"type": "int", "min": 0, "max": 80}}}
        ),
    )
    batch = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "props": pa.array(
                ['{"k": 10}', '{"k": 99}', "not json", '{"j": 1}', None]
            ),
        }
    )
    out = JsonPayloadStage(rule, key_column="event_id")(batch).to_pylist()
    got = {(r["key"], r["reason"]) for r in out}
    assert ("2", "`props`: k: Input should be less than or equal to 80") in got
    assert ("4", "`props`: k: Field required") in got
    assert ("5", "`props`: Input should not be null") in got
    bad = [r for r in out if r["key"] == "3"]
    assert len(bad) == 1 and bad[0]["reason"].startswith(
        "`props`: failed to deserialize: ("
    )


def test_json_rule_from_yaml():
    rs = RuleSet.from_yaml(
        """
rules:
  - rule: props_spec
    type: json
    column: props
    spec:
      type: object
      attrs:
        k: {type: int, min: 0, max: 80}
"""
    )
    (rule,) = rs.json_rules()
    assert rule.column == "props"
    assert "props" in rs.required_columns("event_id")
