"""Constraint-spec model + vectorized evaluation over Arrow arrays.

Columnar re-expression of the reference's recursive JSON constraint
language (`/root/reference/fs_schema_validator/schemas/json.py:22-229`):
the same 10 node kinds — float, bool, int, str, array, fixed_array/tuple,
object, dict, enum, literal — each carrying ``nullable``, with the same
per-node constraints (min/max/exclusive/multiple_of, min/max_length/regex,
min/max_items, recursive attrs/keys/values/variants, exact literal).

Where the reference compiles a spec to a pydantic model and validates one
JSON payload at a time (``json.py:244-247``, rebuilt per call), we compile
a spec once on the driver and evaluate it against a whole Arrow column per
batch with ``pyarrow.compute`` / numpy kernels. Violation *masks* are fully
vectorized; reason strings are constant per check, so string assembly only
ever touches the (sparse) violating rows.

Reason strings follow the reference's rendering shape
`` `column.path`: message `` (``json.py:248-263``) with a stable,
pydantic-like message catalog pinned by our tests.
"""

from __future__ import annotations

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


@dataclass
class Spec:
    """Base constraint node. ``findings`` yields violations; ``passes``
    yields a per-row ok-mask (used by enum variant composition)."""

    nullable: bool = False

    #: Arrow types this node accepts; None = any
    def type_ok(self, dtype: pa.DataType) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def type_message(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        """Violations among rows where ``valid`` (non-null) is True."""
        return []

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        if not self.type_ok(arr.type):
            idx = np.flatnonzero(valid)
            if len(idx):
                out.append((idx, self.type_message()))
            return out
        out.extend(self.value_findings(arr, valid))
        return out

    def passes(self, arr: Union[pa.Array, pa.ChunkedArray]) -> np.ndarray:
        arr = _as_array(arr)
        ok = np.ones(len(arr), dtype=bool)
        for idx, _ in self.findings(arr):
            ok[idx] = False
        return ok


def _numeric_np(arr: pa.Array) -> np.ndarray:
    """Extract values as float64/int64 numpy with nulls filled (callers
    only look at valid positions)."""
    return np.asarray(pc.fill_null(arr, 0))


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
        vals = _numeric_np(arr)
        out: list[Finding] = []

        def bad(mask: np.ndarray, msg: str) -> None:
            idx = np.flatnonzero(mask & valid)
            if len(idx):
                out.append((idx, msg))

        if self.min is not None:
            bad(vals < self.min, f"Input should be greater than or equal to {self.min}")
        if self.exclusive_min is not None:
            bad(vals <= self.exclusive_min, f"Input should be greater than {self.exclusive_min}")
        if self.max is not None:
            bad(vals > self.max, f"Input should be less than or equal to {self.max}")
        if self.exclusive_max is not None:
            bad(vals >= self.exclusive_max, f"Input should be less than {self.exclusive_max}")
        if self.multiple_of is not None:
            m = self.multiple_of
            if np.issubdtype(vals.dtype, np.integer) and float(m).is_integer():
                rem_bad = (vals % int(m)) != 0
            else:
                q = vals / m
                rem_bad = np.abs(q - np.round(q)) > 1e-9
            bad(rem_bad, f"Input should be a multiple of {m}")
        return out


@dataclass
class IntSpec(NumericSpec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_integer(dtype)

    def type_message(self) -> str:
        return "Input should be a valid integer"


@dataclass
class FloatSpec(NumericSpec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_floating(dtype) or pa.types.is_decimal(dtype)

    def type_message(self) -> str:
        return "Input should be a valid number"


@dataclass
class BoolSpec(Spec):
    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_boolean(dtype)

    def type_message(self) -> str:
        return "Input should be a valid boolean"


@dataclass
class StrSpec(Spec):
    """String constraints (reference ``json.py:105-126``). ``regex`` uses
    *search* semantics (pydantic ``pattern=``) via RE2
    ``pc.match_substring_regex``; anchor with ``^...$`` for full match."""

    min_length: Optional[int] = None
    max_length: Optional[int] = None
    regex: Optional[str] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_string(dtype) or pa.types.is_large_string(dtype)

    def type_message(self) -> str:
        return "Input should be a valid string"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        out: list[Finding] = []
        lengths = None
        if self.min_length is not None or self.max_length is not None:
            lengths = np.asarray(pc.fill_null(pc.utf8_length(arr), 0))
        if self.min_length is not None:
            idx = np.flatnonzero((lengths < self.min_length) & valid)
            if len(idx):
                out.append((idx, f"String should have at least {self.min_length} characters"))
        if self.max_length is not None:
            idx = np.flatnonzero((lengths > self.max_length) & valid)
            if len(idx):
                out.append((idx, f"String should have at most {self.max_length} characters"))
        if self.regex is not None:
            hit = _bool_np(pc.match_substring_regex(arr, self.regex))
            idx = np.flatnonzero(~hit & valid)
            if len(idx):
                out.append((idx, f"String should match pattern '{self.regex}'"))
        return out


@dataclass
class BinarySpec(Spec):
    """Binary-payload byte constraints — the columnar analogue of the
    reference's ``FileSchema`` empty-file check (``schemas/file.py:19-29``).
    ``allow_empty=False`` emits the reference's "cannot be empty" reason."""

    min_bytes: Optional[int] = None
    max_bytes: Optional[int] = None
    allow_empty: bool = True

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_binary(dtype) or pa.types.is_large_binary(dtype)

    def type_message(self) -> str:
        return "Input should be a valid binary payload"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        out: list[Finding] = []
        sizes = np.asarray(pc.fill_null(pc.binary_length(arr), 0))
        if not self.allow_empty:
            idx = np.flatnonzero((sizes == 0) & valid)
            if len(idx):
                out.append((idx, "cannot be empty"))
        if self.min_bytes is not None:
            idx = np.flatnonzero((sizes < self.min_bytes) & valid)
            if len(idx):
                out.append((idx, f"Payload should have at least {self.min_bytes} bytes"))
        if self.max_bytes is not None:
            idx = np.flatnonzero((sizes > self.max_bytes) & valid)
            if len(idx):
                out.append((idx, f"Payload should have at most {self.max_bytes} bytes"))
        return out


@dataclass
class LiteralSpec(Spec):
    """Exact scalar value (reference ``json.py:209-215``)."""

    value: Any = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        if isinstance(self.value, bool):
            return pa.types.is_boolean(dtype)
        if isinstance(self.value, int):
            return pa.types.is_integer(dtype)
        if isinstance(self.value, float):
            return pa.types.is_floating(dtype)
        if isinstance(self.value, str):
            return pa.types.is_string(dtype) or pa.types.is_large_string(dtype)
        return False

    def type_message(self) -> str:
        return f"Input should be {self.value!r}"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        eq = _bool_np(pc.equal(arr, pa.scalar(self.value)))
        idx = np.flatnonzero(~eq & valid)
        if len(idx):
            return [(idx, f"Input should be {self.value!r}")]
        return []


@dataclass
class ValueEnumSpec(Spec):
    """Set membership over scalar values — the flat, vectorizable fast path
    for the common "enum of literals" pattern (YAML ``allowed: [..]``).
    Evaluated with one ``pc.is_in`` instead of N variant passes."""

    allowed: tuple = ()

    def type_ok(self, dtype: pa.DataType) -> bool:
        return True

    def type_message(self) -> str:  # pragma: no cover - type_ok always True
        return "unreachable"

    def value_findings(self, arr: pa.Array, valid: np.ndarray) -> list[Finding]:
        try:
            hit = _bool_np(pc.is_in(arr, value_set=pa.array(list(self.allowed))))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            hit = np.zeros(len(arr), dtype=bool)
        idx = np.flatnonzero(~hit & valid)
        if len(idx):
            shown = " or ".join(repr(v) for v in self.allowed)
            return [(idx, f"Input should be {shown}")]
        return []


@dataclass
class EnumSpec(Spec):
    """Union of alternative specs (reference ``json.py:197-206``): a value
    passes if **any** variant accepts it."""

    variants: tuple = ()  # tuple[Spec, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise SpecError("enum spec requires at least one variant")

    def type_ok(self, dtype: pa.DataType) -> bool:
        return True

    def type_message(self) -> str:  # pragma: no cover
        return "unreachable"

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        ok = np.zeros(len(arr), dtype=bool)
        for variant in self.variants:
            v = variant
            ok |= v.passes(arr)
        bad = ~ok & ~nulls
        idx = np.flatnonzero(bad)
        if len(idx):
            out.append((idx, f"Input does not match any of {len(self.variants)} allowed variants"))
        return out


@dataclass
class ArraySpec(Spec):
    """Homogeneous list column (reference ``json.py:129-149``): recursive
    ``items`` spec + min/max_items. Child violations are mapped back to the
    parent row with an ``column.i`` json-path, built only for the violating
    children."""

    items: Optional[Spec] = None
    min_items: Optional[int] = None
    max_items: Optional[int] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return (
            pa.types.is_list(dtype)
            or pa.types.is_large_list(dtype)
            or pa.types.is_fixed_size_list(dtype)
        )

    def type_message(self) -> str:
        return "Input should be a valid list"

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        if not self.type_ok(arr.type):
            idx = np.flatnonzero(valid)
            if len(idx):
                out.append((idx, self.type_message()))
            return out

        lengths = np.asarray(pc.fill_null(pc.list_value_length(arr), 0))
        if self.min_items is not None:
            idx = np.flatnonzero((lengths < self.min_items) & valid)
            if len(idx):
                out.append((idx, f"List should have at least {self.min_items} items"))
        if self.max_items is not None:
            idx = np.flatnonzero((lengths > self.max_items) & valid)
            if len(idx):
                out.append((idx, f"List should have at most {self.max_items} items"))

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


@dataclass
class FixedArraySpec(Spec):
    """Heterogeneous positional tuple (reference ``json.py:152-161``):
    exact length + one spec per position."""

    items: tuple = ()  # tuple[Spec, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise SpecError("fixed_array spec requires at least one item")

    def type_ok(self, dtype: pa.DataType) -> bool:
        return (
            pa.types.is_list(dtype)
            or pa.types.is_large_list(dtype)
            or pa.types.is_fixed_size_list(dtype)
        )

    def type_message(self) -> str:
        return "Input should be a valid list"

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        if not self.type_ok(arr.type):
            idx = np.flatnonzero(valid)
            if len(idx):
                out.append((idx, self.type_message()))
            return out
        n = len(self.items)
        lengths = np.asarray(pc.fill_null(pc.list_value_length(arr), 0))
        wrong = np.flatnonzero((lengths != n) & valid)
        if len(wrong):
            out.append((wrong, f"Tuple should have exactly {n} items"))
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
                    if len(idx):
                        out.append((ok_rows[idx], f"@{pos}: {msg}"))
        return out


@dataclass
class ObjectSpec(Spec):
    """Struct column with fixed attributes (reference ``json.py:164-177``).
    Attr specs recurse via ``pc.struct_field``; reasons carry the dotted
    json-path (``json.py:250-254``)."""

    attrs: dict = field(default_factory=dict)  # dict[str, Spec]

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_struct(dtype)

    def type_message(self) -> str:
        return "Input should be a valid object"

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        if not self.type_ok(arr.type):
            idx = np.flatnonzero(valid)
            if len(idx):
                out.append((idx, self.type_message()))
            return out
        present = {f.name for f in arr.type}
        for name, spec in self.attrs.items():
            if name not in present:
                if not spec.nullable:
                    idx = np.flatnonzero(valid)
                    if len(idx):
                        out.append((idx, f"{name}: Field required"))
                continue
            child = pc.struct_field(arr, name)
            for idx, msg in spec.findings(child):
                keep = idx[valid[idx]]
                if len(keep):
                    out.append((keep, f"{name}: {msg}"))
        return out


@dataclass
class DictSpec(Spec):
    """Uniform key/value map column (reference ``json.py:180-194``)."""

    keys: Optional[Spec] = None
    values: Optional[Spec] = None

    def type_ok(self, dtype: pa.DataType) -> bool:
        return pa.types.is_map(dtype)

    def type_message(self) -> str:
        return "Input should be a valid mapping"

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out: list[Finding] = []
        if not self.nullable and nulls.any():
            out.append((np.flatnonzero(nulls), "Input should not be null"))
        if not self.type_ok(arr.type):
            idx = np.flatnonzero(valid)
            if len(idx):
                out.append((idx, self.type_message()))
            return out
        offsets = np.asarray(arr.offsets).astype(np.int64)
        base, end = int(offsets[0]), int(offsets[-1])
        lengths = np.diff(offsets)
        parent = np.repeat(np.arange(len(arr), dtype=np.int64), lengths)
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
        spec = cls(nullable=nullable, **d)
        if allowed is not None:
            return _with_allowed(spec, allowed, nullable)
        return spec
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


class _AllowedWrapper(Spec):
    """Scalar spec + flat value-enum membership, evaluated together."""

    def __init__(self, base: Spec, allowed: tuple, nullable: bool) -> None:
        super().__init__(nullable=nullable)
        self.base = base
        self.enum = ValueEnumSpec(nullable=True, allowed=allowed)

    def type_ok(self, dtype: pa.DataType) -> bool:
        return self.base.type_ok(dtype)

    def type_message(self) -> str:
        return self.base.type_message()

    def findings(self, arr: Union[pa.Array, pa.ChunkedArray]) -> list[Finding]:
        arr = _as_array(arr)
        out = self.base.findings(arr)
        nulls = _null_mask(arr)
        valid = ~nulls
        out.extend(
            (idx[valid[idx]], msg)
            for idx, msg in self.enum.value_findings(arr, valid)
            if len(idx[valid[idx]])
        )
        return out

    def __repr__(self) -> str:
        # every field: a resumed run keys its manifests on the rule's repr
        return f"_AllowedWrapper({self.base!r}, {self.enum.allowed!r}, nullable={self.nullable!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _AllowedWrapper)
            and self.base == other.base
            and self.enum == other.enum
        )


def _with_allowed(spec: Spec, allowed: Any, nullable: bool) -> Spec:
    spec.nullable = nullable
    return _AllowedWrapper(spec, tuple(allowed), nullable)
