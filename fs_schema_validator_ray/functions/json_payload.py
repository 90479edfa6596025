"""JSON payload validation: parse a JSON-string column, walk the same
constraint-spec tree over the decoded Python values.

The columnar analogue of the reference's core operator — compile a spec,
``validate_json(bytes)``, emit one violation per error with a dotted
json-path (``/root/reference/fs_schema_validator/schemas/json.py:240-265``).
Strict typing matches the reference's ``StrictInt``/``StrictStr`` etc.
(``json.py:11-14``; ``{"int": "1"}`` → "Input should be a valid integer",
``tests/test_json.py:168``). Message catalog and ``name: msg`` nesting
mirror ``functions/constraints.py`` so flat-column and payload validation
report identically.

The walker runs per row inside ``map_batches`` — this IS the payload
decode operator (like audio decode), so per-row Python is the work
itself; the compiled spec and compiled regexes are built once per task
closure, not per record (the reference rebuilt its validator per call,
``json.py:244``).
"""

from __future__ import annotations

import json
import re

import pyarrow as pa

from fs_schema_validator_ray.functions.constraints import (
    ArraySpec,
    BinarySpec,
    BoolSpec,
    DictSpec,
    EnumSpec,
    FixedArraySpec,
    FloatSpec,
    IntSpec,
    LiteralSpec,
    ObjectSpec,
    Spec,
    StrSpec,
    ValueEnumSpec,
    _AllowedWrapper,
)
from fs_schema_validator_ray.report import row_violations

_REGEX_CACHE: dict[str, re.Pattern] = {}


def _regex(pattern: str) -> re.Pattern:
    pat = _REGEX_CACHE.get(pattern)
    if pat is None:
        pat = _REGEX_CACHE[pattern] = re.compile(pattern)
    return pat


def validate_json_value(value, spec: Spec) -> list[str]:
    """All violation messages for one decoded JSON value against a spec.
    Nested paths chain as ``name: message`` (constraints.py ObjectSpec)."""
    out: list[str] = []
    if value is None:
        if not spec.nullable:
            out.append("Input should not be null")
        return out

    if isinstance(spec, _AllowedWrapper):
        out.extend(validate_json_value(value, spec.base))
        if not out:
            out.extend(validate_json_value(value, spec.enum))
        return out

    if isinstance(spec, ValueEnumSpec):
        if value not in spec.allowed:
            shown = " or ".join(repr(v) for v in spec.allowed)
            out.append(f"Input should be {shown}")
        return out

    if isinstance(spec, LiteralSpec):
        expected = spec.value
        strict_ok = (
            isinstance(value, bool) == isinstance(expected, bool)
            and value == expected
        )
        if not strict_ok:
            out.append(f"Input should be {expected!r}")
        return out

    if isinstance(spec, EnumSpec):
        if not any(not validate_json_value(value, v) for v in spec.variants):
            out.append(
                f"Input does not match any of {len(spec.variants)} allowed variants"
            )
        return out

    if isinstance(spec, IntSpec):
        if not isinstance(value, int) or isinstance(value, bool):
            return ["Input should be a valid integer"]
        return _numeric_checks(value, spec)

    if isinstance(spec, FloatSpec):
        if not isinstance(value, float) or isinstance(value, bool):
            return ["Input should be a valid number"]
        return _numeric_checks(value, spec)

    if isinstance(spec, BoolSpec):
        if not isinstance(value, bool):
            out.append("Input should be a valid boolean")
        return out

    if isinstance(spec, StrSpec):
        if not isinstance(value, str):
            return ["Input should be a valid string"]
        n = len(value)
        if spec.min_length is not None and n < spec.min_length:
            out.append(f"String should have at least {spec.min_length} characters")
        if spec.max_length is not None and n > spec.max_length:
            out.append(f"String should have at most {spec.max_length} characters")
        if spec.regex is not None and _regex(spec.regex).search(value) is None:
            out.append(f"String should match pattern '{spec.regex}'")
        return out

    if isinstance(spec, BinarySpec):
        if not isinstance(value, (bytes, bytearray)):
            return ["Input should be a valid binary payload"]
        return out

    if isinstance(spec, ArraySpec):
        if not isinstance(value, list):
            return ["Input should be a valid list"]
        n = len(value)
        if spec.min_items is not None and n < spec.min_items:
            out.append(f"List should have at least {spec.min_items} items")
        if spec.max_items is not None and n > spec.max_items:
            out.append(f"List should have at most {spec.max_items} items")
        if spec.items is not None:
            for i, item in enumerate(value):
                out.extend(f"{i}: {m}" for m in validate_json_value(item, spec.items))
        return out

    if isinstance(spec, FixedArraySpec):
        if not isinstance(value, list):
            return ["Input should be a valid list"]
        n = len(spec.items)
        if len(value) != n:
            return [f"Tuple should have exactly {n} items"]
        for i, (item, sub) in enumerate(zip(value, spec.items)):
            out.extend(f"{i}: {m}" for m in validate_json_value(item, sub))
        return out

    if isinstance(spec, ObjectSpec):
        if not isinstance(value, dict):
            return ["Input should be a valid object"]
        for name, sub in spec.attrs.items():
            if name not in value:
                if not sub.nullable:
                    out.append(f"{name}: Field required")
                continue
            out.extend(f"{name}: {m}" for m in validate_json_value(value[name], sub))
        return out

    if isinstance(spec, DictSpec):
        if not isinstance(value, dict):
            return ["Input should be a valid mapping"]
        for k, v in value.items():
            if spec.keys is not None:
                out.extend(f"keys: {m}" for m in validate_json_value(k, spec.keys))
            if spec.values is not None:
                out.extend(f"values: {m}" for m in validate_json_value(v, spec.values))
        return out

    raise TypeError(f"unsupported spec node {type(spec).__name__}")


def _numeric_checks(value, spec) -> list[str]:
    out: list[str] = []
    if spec.min is not None and value < spec.min:
        out.append(f"Input should be greater than or equal to {spec.min}")
    if spec.exclusive_min is not None and value <= spec.exclusive_min:
        out.append(f"Input should be greater than {spec.exclusive_min}")
    if spec.max is not None and value > spec.max:
        out.append(f"Input should be less than or equal to {spec.max}")
    if spec.exclusive_max is not None and value >= spec.exclusive_max:
        out.append(f"Input should be less than {spec.exclusive_max}")
    if spec.multiple_of is not None:
        m = spec.multiple_of
        rem = value % m
        if not (abs(rem) < 1e-9 or abs(rem - m) < 1e-9):
            out.append(f"Input should be a multiple of {m}")
    return out


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
        if raw is None:
            msgs = [] if rule.spec.nullable else ["Input should not be null"]
        else:
            try:
                value = json.loads(raw)
            except (ValueError, TypeError) as ex:
                msgs = [f"failed to deserialize: ({type(ex).__name__}) {ex}"]
            else:
                msgs = validate_json_value(value, rule.spec)
        return [f"`{rule.column}`: {msg}" for msg in msgs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = zip(batch.column(self.rule.column).to_pylist())
        return row_violations(
            batch, self.key_column, self.rule.rule_id, self._check_row, rows
        )
