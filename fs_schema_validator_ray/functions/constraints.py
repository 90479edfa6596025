"""The constraint language: one spec model, two evaluators per node.

Re-expression of the reference's recursive JSON constraint language
(``schemas/json.py:22-229``): the same 10 node kinds — float, bool, int,
str, array, fixed_array/tuple, object, dict, enum, literal — each
carrying ``nullable``, with the same per-node
constraints (min/max/exclusive/multiple_of, min/max_length/regex,
min/max_items, recursive attrs/keys/values/variants, exact literal), plus
``binary`` (payload bytes) and ``allowed:`` (a flat value enum on any
scalar node).

Each node declares its constraint once — fields, bound tables, messages —
and evaluates it two ways, both driven by the template on :class:`Spec`
(null, then type, then the node's value constraints, then ``allowed``):

* ``findings(arr)`` checks a whole Arrow column with ``pyarrow.compute`` /
  numpy kernels (``ScalarRuleStage``). Where the reference compiles a spec
  to a pydantic model and validates one payload at a time (rebuilt per
  call, ``json.py:244-247``), we compile once on the driver. Violation
  masks are vectorized; reason strings are constant per check, so string
  assembly only touches the (sparse) violating rows.
* ``check(value)`` checks one decoded JSON value (``JsonPayloadStage``)
  with the reference's strict typing (``StrictInt``/``StrictStr`` …,
  ``json.py:11-14``: ``{"int": "1"}`` → "Input should be a valid integer").

Both emit one message catalog, pydantic-like and pinned by our tests,
rendered by the stages as `` `column`: path: message `` (``json.py:248-263``).
The differences between the two are intended and pinned by tests:

* a list item's path is ``@i:`` in a column and ``i:`` in JSON;
* ``regex`` (search semantics, like pydantic ``pattern=``) runs on RE2
  (``pc.match_substring_regex``) in a column and on Python ``re`` in JSON;
* a dict column reports a row once per message, a JSON dict once per
  offending key or value;
* byte-size bounds (``binary``) apply to columns only.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class SpecError(ValueError):
    """The rule spec itself is invalid (analogue of the reference's
    invalid-schema exit 127, ``__main__.py:70-74``)."""


# One violation finding: row indices into the evaluated array + one reason
# string shared by all of them (keeps the hot path allocation-free).
Finding = tuple[np.ndarray, str]

NULL_MESSAGE = "Input should not be null"


def _as_array(arr: Union[pa.Array, pa.ChunkedArray]) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    return arr


def _null_mask(arr: pa.Array) -> np.ndarray:
    if arr.null_count == 0:
        return np.zeros(len(arr), dtype=bool)
    return np.asarray(arr.is_null())


def _bool_np(mask: pa.Array) -> np.ndarray:
    """Arrow boolean array -> numpy bool, nulls treated as False."""
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    return np.asarray(pc.fill_null(mask, False))


def _rows(mask: np.ndarray, msg: str) -> list[Finding]:
    idx = np.flatnonzero(mask)
    return [(idx, msg)] if len(idx) else []


def _not_multiple(x, m):
    """True where ``x`` is not a multiple of ``m``: exact modulo when both
    are integers (Python ints beyond int64 too), else the quotient must lie
    within 1e-9 of an integer. ``x`` is a numpy array or one value."""
    integral = (
        np.issubdtype(x.dtype, np.integer) if isinstance(x, np.ndarray)
        else isinstance(x, int)
    )
    if integral and float(m).is_integer():
        return x % int(m) != 0
    q = x / m
    return np.abs(q - np.round(q)) > 1e-9


# A bound is (field, violated(measure, limit), message): the measure is a
# number, a string length, a list length or a payload size.
_NUMERIC_BOUNDS = (
    ("min", operator.lt, "Input should be greater than or equal to {}"),
    ("exclusive_min", operator.le, "Input should be greater than {}"),
    ("max", operator.gt, "Input should be less than or equal to {}"),
    ("exclusive_max", operator.ge, "Input should be less than {}"),
    ("multiple_of", _not_multiple, "Input should be a multiple of {}"),
)
_LENGTH_BOUNDS = (
    ("min_length", operator.lt, "String should have at least {} characters"),
    ("max_length", operator.gt, "String should have at most {} characters"),
)
_ITEM_BOUNDS = (
    ("min_items", operator.lt, "List should have at least {} items"),
    ("max_items", operator.gt, "List should have at most {} items"),
)
_BYTE_BOUNDS = (
    ("min_bytes", operator.lt, "Payload should have at least {} bytes"),
    ("max_bytes", operator.gt, "Payload should have at most {} bytes"),
)


def _bounds(spec: Spec, table: tuple, measure):
    """``(violated, message)`` for each bound in ``table`` that ``spec``
    sets. ``measure`` is a numpy array of per-row measures (``violated`` is
    a row mask) or one value's measure (``violated`` is a bool)."""
    for name, violated, msg in table:
        limit = getattr(spec, name)
        if limit is not None:
            yield violated(measure, limit), msg.format(limit)


def _bound_findings(
    spec: Spec, table: tuple, measure: np.ndarray, valid: np.ndarray
) -> list[Finding]:
    out: list[Finding] = []
    for mask, msg in _bounds(spec, table, measure):
        out += _rows(mask & valid, msg)
    return out


def _bound_errors(spec: Spec, table: tuple, measure) -> list[str]:
    return [msg for bad, msg in _bounds(spec, table, measure) if bad]


def _nested(path: Any, msgs: list[str]) -> list[str]:
    return [f"{path}: {m}" for m in msgs]


@dataclass
class Spec:
    """Base constraint node. ``findings`` yields a column's violations,
    ``check`` one JSON value's messages, ``passes`` a per-row ok-mask (used
    by enum variant composition). Subclasses declare their typing
    (``type_ok`` for an Arrow type, ``value_ok`` for a decoded value) and
    their value constraints (``value_findings``, ``value_errors``)."""

    nullable: bool = False
    #: flat value enum (YAML ``allowed:``), checked on non-null rows of the
    #: right type; ``parse_spec`` sets it on scalar nodes only
    allowed: Optional[tuple] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return True

    def value_ok(self, value: Any) -> bool:
        return True

    def type_message(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        """Violations among rows where ``valid`` (non-null) is True."""
        return []

    def value_errors(self, value: Any) -> list[str]:
        """Messages for one non-null value of the right type."""
        return []

    def allowed_message(self) -> str:
        return "Input should be " + " or ".join(repr(v) for v in self.allowed)

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        valid = ~_null_mask(arr)
        out = [] if self.nullable else _rows(~valid, NULL_MESSAGE)
        if not self.type_ok(arr.type):
            return out + _rows(valid, self.type_message())
        out += self.value_findings(arr, valid)
        if self.allowed is not None:
            try:
                hit = _bool_np(pc.is_in(arr, value_set=pa.array(list(self.allowed))))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                hit = np.zeros(len(arr), dtype=bool)
            out += _rows(~hit & valid, self.allowed_message())
        return out

    def check(self, value: Any) -> list[str]:
        if value is None:
            return [] if self.nullable else [NULL_MESSAGE]
        if not self.value_ok(value):
            return [self.type_message()]
        out = self.value_errors(value)
        if self.allowed is not None and value not in self.allowed:
            out.append(self.allowed_message())
        return out

    def passes(self, arr: Union[pa.Array, pa.ChunkedArray]) -> np.ndarray:
        arr = _as_array(arr)
        ok = np.ones(len(arr), dtype=bool)
        for idx, _ in self.findings(arr):
            ok[idx] = False
        return ok


@dataclass
class NumericSpec(Spec):
    """Shared min/max/exclusive/multiple_of logic
    (reference ``json.py:39-66`` float, ``json.py:77-102`` int)."""

    min: Optional[float] = None
    exclusive_min: Optional[float] = None
    max: Optional[float] = None
    exclusive_max: Optional[float] = None
    multiple_of: Optional[float] = None

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        vals = np.asarray(pc.fill_null(arr, 0))  # only valid rows are looked at
        return _bound_findings(self, _NUMERIC_BOUNDS, vals, valid)

    def value_errors(self, value: Any) -> list[str]:
        return _bound_errors(self, _NUMERIC_BOUNDS, value)


@dataclass
class IntSpec(NumericSpec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_integer(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def type_message(self) -> str:
        return "Input should be a valid integer"


@dataclass
class FloatSpec(NumericSpec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_floating(dtype) or pa.types.is_decimal(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, float)

    def type_message(self) -> str:
        return "Input should be a valid number"


@dataclass
class BoolSpec(Spec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_boolean(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, bool)

    def type_message(self) -> str:
        return "Input should be a valid boolean"


@dataclass
class StrSpec(Spec):
    """String constraints (reference ``json.py:105-126``). ``regex`` uses
    *search* semantics (pydantic ``pattern=``); anchor with ``^...$`` for
    a full match."""

    min_length: Optional[int] = None
    max_length: Optional[int] = None
    regex: Optional[str] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_string(dtype) or pa.types.is_large_string(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, str)

    def type_message(self) -> str:
        return "Input should be a valid string"

    def regex_message(self) -> str:
        return f"String should match pattern '{self.regex}'"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        out: list[Finding] = []
        if self.min_length is not None or self.max_length is not None:
            lengths = np.asarray(pc.fill_null(pc.utf8_length(arr), 0))
            out += _bound_findings(self, _LENGTH_BOUNDS, lengths, valid)
        if self.regex is not None:
            hit = _bool_np(pc.match_substring_regex(arr, self.regex))
            out += _rows(~hit & valid, self.regex_message())
        return out

    def value_errors(self, value: Any) -> list[str]:
        out = _bound_errors(self, _LENGTH_BOUNDS, len(value))
        if self.regex is not None and re.search(self.regex, value) is None:
            out.append(self.regex_message())
        return out


@dataclass
class BinarySpec(Spec):
    """Binary-payload byte constraints — the columnar analogue of the
    reference's ``FileSchema`` empty-file check (``schemas/file.py:19-29``).
    ``allow_empty=False`` emits the reference's "cannot be empty" reason.
    JSON has no bytes, so a decoded value is only type-checked."""

    min_bytes: Optional[int] = None
    max_bytes: Optional[int] = None
    allow_empty: bool = True

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_binary(dtype) or pa.types.is_large_binary(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, (bytes, bytearray))

    def type_message(self) -> str:
        return "Input should be a valid binary payload"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        sizes = np.asarray(pc.fill_null(pc.binary_length(arr), 0))
        out = [] if self.allow_empty else _rows((sizes == 0) & valid, "cannot be empty")
        return out + _bound_findings(self, _BYTE_BOUNDS, sizes, valid)


@dataclass
class LiteralSpec(Spec):
    """Exact scalar value (reference ``json.py:209-215``). A value must
    equal it with the same bool-ness (``True`` is not ``1``); an int or
    float literal is compared by value, so ``5`` accepts ``5.0`` and an
    integer column meets ``5.0``, as pydantic's ``Literal`` does."""

    value: Any = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        if isinstance(self.value, bool):
            return pa.types.is_boolean(dtype)
        if isinstance(self.value, (int, float)):
            return pa.types.is_integer(dtype) or pa.types.is_floating(dtype)
        if isinstance(self.value, str):
            return pa.types.is_string(dtype) or pa.types.is_large_string(dtype)
        return False

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, bool) == isinstance(self.value, bool) and value == self.value

    def type_message(self) -> str:
        return f"Input should be {self.value!r}"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        eq = _bool_np(pc.equal(arr, pa.scalar(self.value)))
        return _rows(~eq & valid, self.type_message())


@dataclass
class EnumSpec(Spec):
    """Union of alternative specs (reference ``json.py:197-206``): a value
    passes if **any** variant accepts it."""

    variants: tuple = ()  # tuple[Spec, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise SpecError("enum spec requires at least one variant")

    def no_match_message(self) -> str:
        return f"Input does not match any of {len(self.variants)} allowed variants"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        ok = np.zeros(len(arr), dtype=bool)
        for variant in self.variants:
            ok |= variant.passes(arr)
        return _rows(~ok & valid, self.no_match_message())

    def value_errors(self, value: Any) -> list[str]:
        if any(not variant.check(value) for variant in self.variants):
            return []
        return [self.no_match_message()]


@dataclass
class _ListSpec(Spec):
    """Typing shared by the two list nodes."""

    def type_ok(self, dtype: pa.DataType) -> bool:
        return (
            pa.types.is_list(dtype)
            or pa.types.is_large_list(dtype)
            or pa.types.is_fixed_size_list(dtype)
        )

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, list)

    def type_message(self) -> str:
        return "Input should be a valid list"


@dataclass
class ArraySpec(_ListSpec):
    """Homogeneous list (reference ``json.py:129-149``): recursive ``items``
    spec + min/max_items. In a column, child violations are mapped back to
    the parent row with an ``@i`` path, built only for the violating
    children."""

    items: Optional[Spec] = None
    min_items: Optional[int] = None
    max_items: Optional[int] = None

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        lengths = np.asarray(pc.fill_null(pc.list_value_length(arr), 0))
        out = _bound_findings(self, _ITEM_BOUNDS, lengths, valid)
        if self.items is not None and len(arr):
            flat = pc.list_flatten(arr)
            if len(flat):
                # parent row index of each child + position within the list
                parent = np.repeat(np.arange(len(arr), dtype=np.int64), lengths)
                starts = np.zeros(len(arr), dtype=np.int64)
                np.cumsum(lengths[:-1], out=starts[1:] if len(arr) > 1 else starts[:0])
                for child_idx, msg in self.items.findings(flat):
                    rows = parent[child_idx]
                    pos = child_idx - starts[rows]
                    # per-child json-path — loop only over violations
                    for r, p in zip(rows.tolist(), pos.tolist()):
                        out.append((np.array([r], dtype=np.int64), f"@{p}: {msg}"))
        return out

    def value_errors(self, value: Any) -> list[str]:
        out = _bound_errors(self, _ITEM_BOUNDS, len(value))
        if self.items is not None:
            for i, item in enumerate(value):
                out += _nested(i, self.items.check(item))
        return out


@dataclass
class FixedArraySpec(_ListSpec):
    """Heterogeneous positional tuple (reference ``json.py:152-161``):
    exact length + one spec per position."""

    items: tuple = ()  # tuple[Spec, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise SpecError("fixed_array spec requires at least one item")

    def length_message(self) -> str:
        return f"Tuple should have exactly {len(self.items)} items"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        n = len(self.items)
        lengths = np.asarray(pc.fill_null(pc.list_value_length(arr), 0))
        out = _rows((lengths != n) & valid, self.length_message())
        ok_rows = np.flatnonzero((lengths == n) & valid)
        if len(ok_rows):
            if pa.types.is_fixed_size_list(arr.type):
                starts = np.arange(len(arr), dtype=np.int64) * arr.type.list_size
            else:
                starts = np.asarray(arr.offsets)[:-1].astype(np.int64)
            values = arr.values
            for pos, spec in enumerate(self.items):
                elem = values.take(pa.array(starts[ok_rows] + pos))
                for idx, msg in spec.findings(elem):
                    out.append((ok_rows[idx], f"@{pos}: {msg}"))
        return out

    def value_errors(self, value: Any) -> list[str]:
        if len(value) != len(self.items):
            return [self.length_message()]
        out: list[str] = []
        for i, (item, spec) in enumerate(zip(value, self.items)):
            out += _nested(i, spec.check(item))
        return out


@dataclass
class ObjectSpec(Spec):
    """Object with fixed attributes (reference ``json.py:164-177``): a
    struct column, whose attr specs recurse via ``pc.struct_field``, or a
    JSON object. Reasons carry the ``name:`` path (``json.py:250-254``)."""

    attrs: dict = field(default_factory=dict)  # dict[str, Spec]

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_struct(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, dict)

    def type_message(self) -> str:
        return "Input should be a valid object"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        out: list[Finding] = []
        present = {f.name for f in arr.type}
        for name, spec in self.attrs.items():
            if name not in present:
                if not spec.nullable:
                    out += _rows(valid, f"{name}: Field required")
                continue
            for idx, msg in spec.findings(pc.struct_field(arr, name)):
                keep = idx[valid[idx]]
                if len(keep):
                    out.append((keep, f"{name}: {msg}"))
        return out

    def value_errors(self, value: Any) -> list[str]:
        out: list[str] = []
        for name, spec in self.attrs.items():
            if name in value:
                out += _nested(name, spec.check(value[name]))
            elif not spec.nullable:
                out.append(f"{name}: Field required")
        return out


@dataclass
class DictSpec(Spec):
    """Uniform key/value map (reference ``json.py:180-194``)."""

    keys: Optional[Spec] = None
    values: Optional[Spec] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_map(dtype)

    def value_ok(self, value: Any) -> bool:
        return isinstance(value, dict)

    def type_message(self) -> str:
        return "Input should be a valid mapping"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        out: list[Finding] = []
        offsets = np.asarray(arr.offsets).astype(np.int64)
        base, end = int(offsets[0]), int(offsets[-1])
        parent = np.repeat(np.arange(len(arr), dtype=np.int64), np.diff(offsets))
        for sub, label in ((self.keys, "keys"), (self.values, "values")):
            if sub is None:
                continue
            flat = (arr.keys if label == "keys" else arr.items).slice(base, end - base)
            for child_idx, msg in sub.findings(flat):
                rows = np.unique(parent[child_idx])
                keep = rows[valid[rows]]
                if len(keep):
                    out.append((keep, f"{label}: {msg}"))
        return out

    def value_errors(self, value: Any) -> list[str]:
        out: list[str] = []
        for k, v in value.items():
            if self.keys is not None:
                out += _nested("keys", self.keys.check(k))
            if self.values is not None:
                out += _nested("values", self.values.check(v))
        return out


# ---------------------------------------------------------------------------
# spec parsing from YAML dicts
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = {
    "int": ("min", "exclusive_min", "max", "exclusive_max", "multiple_of", "nullable"),
    "float": ("min", "exclusive_min", "max", "exclusive_max", "multiple_of", "nullable"),
    "str": ("min_length", "max_length", "regex", "nullable"),
    "bool": ("nullable",),
    "binary": ("min_bytes", "max_bytes", "allow_empty", "nullable"),
}


def parse_spec(d: Any) -> Spec:
    """Parse one constraint node from its YAML dict form.

    Accepted ``type`` values mirror the reference's aliases
    (``json.py:42,70,78,106,130,153``): int/integer, float, bool/boolean,
    str/string, array/list, fixed_array/tuple, object, dict, enum, literal —
    plus ``binary`` (payload bytes) and the ``allowed:`` shorthand on any
    scalar node for flat value enums.
    """
    if not isinstance(d, dict):
        raise SpecError(f"constraint spec must be a mapping, got {type(d).__name__}")
    d = dict(d)
    t = d.pop("type", None)
    if t is None:
        raise SpecError(f"constraint spec missing `type`: {d!r}")
    t = {"integer": "int", "boolean": "bool", "string": "str", "list": "array", "tuple": "fixed_array"}.get(t, t)

    nullable = bool(d.pop("nullable", False))
    allowed = d.pop("allowed", None)

    if t in _SCALAR_FIELDS:
        cls = {"int": IntSpec, "float": FloatSpec, "str": StrSpec, "bool": BoolSpec, "binary": BinarySpec}[t]
        known = set(_SCALAR_FIELDS[t])
        extra = set(d) - known
        if extra:
            raise SpecError(f"unknown fields {sorted(extra)} for `{t}` spec")
        return cls(nullable=nullable, allowed=None if allowed is None else tuple(allowed), **d)
    if allowed is not None:
        raise SpecError(f"`allowed` is only supported on scalar specs, not `{t}`")
    if t == "literal":
        if "value" not in d:
            raise SpecError("literal spec requires `value`")
        return LiteralSpec(nullable=nullable, value=d["value"])
    if t == "enum":
        variants = d.get("variants")
        if not variants:
            raise SpecError("enum spec requires non-empty `variants`")
        return EnumSpec(nullable=nullable, variants=tuple(parse_spec(v) for v in variants))
    if t == "array":
        items = d.get("items")
        return ArraySpec(
            nullable=nullable,
            items=parse_spec(items) if items is not None else None,
            min_items=d.get("min_items"),
            max_items=d.get("max_items"),
        )
    if t == "fixed_array":
        items = d.get("items")
        if not items:
            raise SpecError("fixed_array spec requires non-empty `items`")
        return FixedArraySpec(nullable=nullable, items=tuple(parse_spec(v) for v in items))
    if t == "object":
        attrs = d.get("attrs")
        if not isinstance(attrs, dict):
            raise SpecError("object spec requires `attrs` mapping")
        return ObjectSpec(nullable=nullable, attrs={k: parse_spec(v) for k, v in attrs.items()})
    if t == "dict":
        return DictSpec(
            nullable=nullable,
            keys=parse_spec(d["keys"]) if "keys" in d else None,
            values=parse_spec(d["values"]) if "values" in d else None,
        )
    raise SpecError(f"unknown constraint type `{t}`")
