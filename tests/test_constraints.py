"""Golden tests for vectorized constraint evaluation.

Mirrors the reference's parametrized bad-JSON → exact-message table
(`/root/reference/tests/test_json.py:155-206`) against Arrow columns,
pinning OUR stable reason strings (same `` `path`: message `` shape).
"""

import numpy as np
import pyarrow as pa
import pytest

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
    SpecError,
    StrSpec,
    parse_spec,
)


def findings_as_set(spec, arr):
    out = set()
    for idx, msg in spec.findings(arr):
        for i in idx.tolist():
            out.add((i, msg))
    return out


# --- int / float (reference json.py:39-102, tests/test_json.py:169-178) ----


def test_int_bounds():
    spec = IntSpec(min=10, max=20)
    arr = pa.array([9, 10, 20, 21, None], pa.int32())
    assert findings_as_set(spec, arr) == {
        (0, "Input should be greater than or equal to 10"),
        (3, "Input should be less than or equal to 20"),
        (4, "Input should not be null"),
    }


def test_int_exclusive_and_multiple():
    spec = IntSpec(exclusive_min=0, exclusive_max=100, multiple_of=5, nullable=True)
    arr = pa.array([0, 5, 7, 100, None], pa.int64())
    assert findings_as_set(spec, arr) == {
        (0, "Input should be greater than 0"),
        (2, "Input should be a multiple of 5"),
        (3, "Input should be less than 100"),
    }


def test_int_type_mismatch():
    spec = IntSpec()
    arr = pa.array(["1", "2", None])
    assert findings_as_set(spec, arr) == {
        (0, "Input should be a valid integer"),
        (1, "Input should be a valid integer"),
        (2, "Input should not be null"),
    }


def test_float_bounds_and_multiple():
    spec = FloatSpec(min=0.5, multiple_of=0.25)
    arr = pa.array([0.25, 0.5, 0.6, 1.75])
    assert findings_as_set(spec, arr) == {
        (0, "Input should be greater than or equal to 0.5"),
        (2, "Input should be a multiple of 0.25"),
    }


def test_float_rejects_int_column():
    # strict semantics: an int column is not a float column (StrictFloat)
    assert findings_as_set(FloatSpec(), pa.array([1, 2])) == {
        (0, "Input should be a valid number"),
        (1, "Input should be a valid number"),
    }


# --- bool / str (reference json.py:69-74, 105-126) -------------------------


def test_bool():
    assert findings_as_set(BoolSpec(), pa.array([True, False])) == set()
    assert findings_as_set(BoolSpec(), pa.array([1])) == {(0, "Input should be a valid boolean")}


def test_str_lengths_and_regex():
    spec = StrSpec(min_length=3, max_length=5, regex="^ab")
    arr = pa.array(["ab", "abc", "abcdef", "xyz", None])
    assert findings_as_set(spec, arr) == {
        (0, "String should have at least 3 characters"),
        (2, "String should have at most 5 characters"),
        (3, "String should match pattern '^ab'"),
        (4, "Input should not be null"),
    }


def test_str_regex_is_search_semantics():
    # pydantic pattern= uses re.search; unanchored pattern matches inside
    spec = StrSpec(regex="bc")
    assert findings_as_set(spec, pa.array(["abcd", "xyz"])) == {
        (1, "String should match pattern 'bc'"),
    }


# --- binary (reference schemas/file.py:19-29) ------------------------------


def test_binary_empty():
    spec = BinarySpec(allow_empty=False)
    arr = pa.array([b"", b"xx", None], pa.binary())
    assert findings_as_set(spec, arr) == {
        (0, "cannot be empty"),
        (2, "Input should not be null"),
    }


# --- literal / enum (reference json.py:197-215) ----------------------------


def test_literal():
    spec = LiteralSpec(value="prod")
    assert findings_as_set(spec, pa.array(["prod", "dev"])) == {(1, "Input should be 'prod'")}
    spec_i = LiteralSpec(value=7)
    assert findings_as_set(spec_i, pa.array([7, 8])) == {(1, "Input should be 7")}


def test_allowed_value_enum():
    spec = parse_spec({"type": "str", "allowed": ["pcm_s16le", "ulaw"]})
    arr = pa.array(["ulaw", "mp3", None])
    assert findings_as_set(spec, arr) == {
        (1, "Input should be 'pcm_s16le' or 'ulaw'"),
        (2, "Input should not be null"),
    }


def test_allowed_on_a_wrong_typed_column_reports_only_the_type():
    # `allowed` is checked on rows of the right type only: an int column
    # under a str rule gets one reason per row, not the type and the enum
    spec = parse_spec({"type": "str", "allowed": ["a", "b"]})
    got = [(idx.tolist(), msg) for idx, msg in spec.findings(pa.array([1, 2, None]))]
    assert got == [
        ([2], "Input should not be null"),
        ([0, 1], "Input should be a valid string"),
    ]


def test_enum_of_variant_specs():
    spec = EnumSpec(variants=(LiteralSpec(value="a"), LiteralSpec(value="b")))
    assert findings_as_set(spec, pa.array(["a", "b", "c"])) == {
        (2, "Input does not match any of 2 allowed variants"),
    }
    with pytest.raises(SpecError):
        EnumSpec(variants=())


# --- array / fixed_array (reference json.py:129-161) -----------------------


def test_array_items_and_bounds():
    spec = ArraySpec(items=IntSpec(min=0), min_items=1, max_items=3)
    arr = pa.array([[1, 2], [], [1, 2, 3, 4], [5, -1]], pa.list_(pa.int64()))
    assert findings_as_set(spec, arr) == {
        (1, "List should have at least 1 items"),
        (2, "List should have at most 3 items"),
        (3, "@1: Input should be greater than or equal to 0"),
    }


def test_fixed_array_length():
    spec = FixedArraySpec(items=(IntSpec(), IntSpec()))
    arr = pa.array([[1, 2], [1, 2, 3], [1]], pa.list_(pa.int64()))
    assert findings_as_set(spec, arr) == {
        (1, "Tuple should have exactly 2 items"),
        (2, "Tuple should have exactly 2 items"),
    }


def test_fixed_array_positional():
    spec = FixedArraySpec(items=(IntSpec(min=5), IntSpec(max=1)))
    arr = pa.array([[5, 1], [4, 2]], pa.list_(pa.int64()))
    assert findings_as_set(spec, arr) == {
        (1, "@0: Input should be greater than or equal to 5"),
        (1, "@1: Input should be less than or equal to 1"),
    }


# --- object / dict (reference json.py:164-194) -----------------------------


def test_object_attrs():
    spec = ObjectSpec(attrs={"name": StrSpec(min_length=2), "age": IntSpec(min=0)})
    arr = pa.array(
        [{"name": "ab", "age": 3}, {"name": "x", "age": -1}],
        pa.struct([("name", pa.string()), ("age", pa.int64())]),
    )
    assert findings_as_set(spec, arr) == {
        (1, "name: String should have at least 2 characters"),
        (1, "age: Input should be greater than or equal to 0"),
    }


def test_object_missing_attr():
    spec = ObjectSpec(attrs={"missing": IntSpec()})
    arr = pa.array([{"name": "ab"}], pa.struct([("name", pa.string())]))
    assert findings_as_set(spec, arr) == {(0, "missing: Field required")}


def test_dict_keys_values():
    spec = DictSpec(keys=StrSpec(min_length=2), values=IntSpec(min=0))
    arr = pa.array(
        [[("ab", 1), ("c", 2)], [("xy", -5)]],
        pa.map_(pa.string(), pa.int64()),
    )
    assert findings_as_set(spec, arr) == {
        (0, "keys: String should have at least 2 characters"),
        (1, "values: Input should be greater than or equal to 0"),
    }


# --- parse_spec ------------------------------------------------------------


def test_parse_spec_aliases_and_errors():
    assert isinstance(parse_spec({"type": "integer"}), IntSpec)
    assert isinstance(parse_spec({"type": "string"}), StrSpec)
    assert isinstance(parse_spec({"type": "list", "items": {"type": "int"}}), ArraySpec)
    with pytest.raises(SpecError):
        parse_spec({"type": "nope"})
    with pytest.raises(SpecError):
        parse_spec({"type": "int", "bogus_field": 1})
    with pytest.raises(SpecError):
        parse_spec({"type": "literal"})


def test_passes_mask():
    spec = IntSpec(min=0, nullable=True)
    arr = pa.array([1, -1, None], pa.int64())
    assert spec.passes(arr).tolist() == [True, False, True]
