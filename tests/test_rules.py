"""RuleSet compilation: bindings, if-guards, cartesian expansion, typing.

Parity targets: the reference's schema-compile tests
(`/root/reference/tests/test_schema.py`) — conditional validators,
binding expansion products, invalid-schema errors.
"""

import pyarrow as pa
import pytest

from fs_schema_validator_ray import dsl
from fs_schema_validator_ray.rules import (
    AudioRule,
    ColumnRule,
    DriftRule,
    ReferentialRule,
    RuleSet,
    RuleSetError,
    UniqueRule,
)
from fs_schema_validator_ray.stages.scalar import ScalarRuleStage

CLIPS_RULES = """
bindings:
  env: prod
  codecs: [pcm_s16le, pcm_u8, ulaw, alaw]
rules:
  - rule: sr_hz_range
    type: int
    column: sr_hz
    min: 8000
    max: 48000
  - rule: clip_id_shape
    type: str
    column: clip_id
    regex: "^clip-[0-9]{{4}}-[0-9]{{6}}$"
    min_length: 16
  - rule: codec_enum
    type: str
    column: codec
    allowed: [pcm_s16le, pcm_u8, ulaw, alaw]
  - rule: payload_nonempty
    type: binary
    column: bytes
    allow_empty: false
  - rule: audio_decode
    type: audio
    min_snr_db: 30.0
  - rule: unique_clip_id
    type: unique
    column: clip_id
  - rule: ref_transcripts
    type: referential
    column: clip_id
    manifest: transcripts
  - rule: drift_dur
    type: drift
    column: dur_ms
    lo: 0
    hi: 30000
    bins: 32
"""


def test_full_ruleset_parses():
    rs = RuleSet.from_yaml(CLIPS_RULES)
    ids = [r.rule_id for r in rs.rules]
    assert ids == [
        "sr_hz_range",
        "clip_id_shape",
        "codec_enum",
        "payload_nonempty",
        "audio_decode",
        "unique_clip_id",
        "ref_transcripts",
        "drift_dur",
    ]
    assert len(rs.column_rules()) == 4
    assert isinstance(rs.audio_rules()[0], AudioRule)
    assert isinstance(rs.unique_rules()[0], UniqueRule)
    assert rs.referential_rules()[0].manifest == "transcripts"
    assert isinstance(rs.drift_rules()[0], DriftRule)
    assert rs.required_columns() == [
        "bytes",
        "clip_id",
        "codec",
        "dur_ms",
        "sr_hz",
        "transcript",
    ]


def test_escaped_braces_in_regex():
    rs = RuleSet.from_yaml(CLIPS_RULES)
    rule = next(r for r in rs.column_rules() if r.rule_id == "clip_id_shape")
    assert rule.spec.regex == "^clip-[0-9]{4}-[0-9]{6}$"


def test_if_guard_filters(tmp_path):
    doc = """
bindings:
  env: dev
rules:
  - rule: only_prod
    if: "$env == prod"
    type: int
    column: x
  - rule: always
    type: int
    column: x
"""
    rs = RuleSet.from_yaml(doc)
    assert [r.rule_id for r in rs.rules] == ["always"]
    rs2 = RuleSet.from_yaml(doc, extra_bindings={"env": dsl.Lit("prod")})
    assert [r.rule_id for r in rs2.rules] == ["only_prod", "always"]


def test_cartesian_expansion():
    doc = """
bindings:
  cols: [aa, bb]
rules:
  - rule: "range_{$cols}_{1..2}"
    type: int
    column: "{$cols}"
    min: 0
"""
    rs = RuleSet.from_yaml(doc)
    assert sorted(r.rule_id for r in rs.rules) == [
        "range_aa_1",
        "range_aa_2",
        "range_bb_1",
        "range_bb_2",
    ]
    # binding variables stay consistent across fields of one rule:
    # range_aa_* target column aa, range_bb_* target column bb
    by_id = {r.rule_id: r.column for r in rs.column_rules()}
    assert by_id == {
        "range_aa_1": "aa",
        "range_aa_2": "aa",
        "range_bb_1": "bb",
        "range_bb_2": "bb",
    }


def test_schema_alias_key():
    rs = RuleSet.from_yaml({"schema": [{"type": "int", "column": "x"}], "bindings": {}})
    assert rs.rules[0].rule_id == "int_x"


def test_binding_typing():
    rs = RuleSet.from_yaml(
        {
            "bindings": {
                "s": "plain",
                "span": [0, 3],
                "choice": ["a", "b"],
                "flowset": {"x": None, "y": None},
            },
            "rules": [],
        }
    )
    assert rs.bindings["s"] == dsl.Lit("plain")
    assert rs.bindings["span"] == dsl.Span(0, 3)
    assert rs.bindings["choice"] == dsl.Choice(("a", "b"))
    assert rs.bindings["flowset"] == dsl.Choice(("x", "y"))


def test_invalid_rulesets():
    with pytest.raises(RuleSetError):
        RuleSet.from_yaml("just a string")
    with pytest.raises(RuleSetError):
        RuleSet.from_yaml({"rules": [{"type": "nope"}]})
    with pytest.raises(RuleSetError):
        RuleSet.from_yaml({"rules": [{"type": "int"}]})  # missing column
    with pytest.raises(RuleSetError):
        RuleSet.from_yaml(
            {"rules": [{"rule": "dup", "type": "int", "column": "a"},
                        {"rule": "dup", "type": "int", "column": "b"}]}
        )


@pytest.mark.parametrize(
    "rule,unknown",
    [
        ({"type": "unique", "column": "v", "colums": ["a", "b"]}, "colums"),
        ({"type": "unique", "column": "v", "exact": True}, "exact"),
        ({"type": "referential", "use_blom": True}, "use_blom"),
        ({"type": "drift", "max_kss": 0.01}, "max_kss"),
    ],
)
def test_global_rules_reject_unknown_fields(rule, unknown):
    # a misspelt key must not leave the rule on its defaults
    with pytest.raises(RuleSetError, match=rf"unknown fields \['{unknown}'\]"):
        RuleSet.from_yaml({"rules": [rule]})


# --- scalar stage over an Arrow batch -------------------------------------


def make_batch():
    return pa.table(
        {
            "partition_id": pa.array([0, 0, 1, 1], pa.int32()),
            "clip_id": ["clip-0000-000001", "bad id", "clip-0000-000003", "clip-0000-000004"],
            "sr_hz": pa.array([16000, 7000, 48000, None], pa.int32()),
            "codec": ["ulaw", "mp3", "alaw", "pcm_u8"],
            "bytes": pa.array([b"x", b"", b"y", b"z"], pa.binary()),
        }
    )


def test_scalar_stage_violations():
    rs = RuleSet.from_yaml(CLIPS_RULES)
    stage = ScalarRuleStage(rs.column_rules(), key_column="clip_id")
    out = stage(make_batch())
    got = {(r["key"], r["rule_id"], r["reason"], r["partition_id"]) for r in out.to_pylist()}
    assert got == {
        ("bad id", "sr_hz_range", "`sr_hz`: Input should be greater than or equal to 8000", 0),
        ("clip-0000-000004", "sr_hz_range", "`sr_hz`: Input should not be null", 1),
        ("bad id", "clip_id_shape", "`clip_id`: String should have at least 16 characters", 0),
        ("bad id", "clip_id_shape", "`clip_id`: String should match pattern '^clip-[0-9]{4}-[0-9]{6}$'", 0),
        ("bad id", "codec_enum", "`codec`: Input should be 'pcm_s16le' or 'pcm_u8' or 'ulaw' or 'alaw'", 0),
        ("bad id", "payload_nonempty", "`bytes`: cannot be empty", 0),
    }


def test_scalar_stage_missing_column():
    stage = ScalarRuleStage(
        RuleSet.from_yaml({"rules": [{"type": "int", "column": "zzz"}]}).column_rules()
    )
    out = stage(make_batch())
    rows = out.to_pylist()
    assert rows == [
        {"partition_id": -1, "key": None, "rule_id": "int_zzz",
         "reason": "column `zzz` does not exist"}
    ]


def test_scalar_stage_clean_batch_is_empty():
    rs = RuleSet.from_yaml(CLIPS_RULES)
    stage = ScalarRuleStage(rs.column_rules())
    clean = pa.table(
        {
            "clip_id": ["clip-0000-000001"],
            "sr_hz": pa.array([16000], pa.int32()),
            "codec": ["ulaw"],
            "bytes": pa.array([b"x"], pa.binary()),
        }
    )
    out = stage(clean)
    assert out.num_rows == 0
    assert out.schema.names == ["partition_id", "key", "rule_id", "reason"]


def test_binding_expansion_modes():
    """`binding_expansion: independent` restores the reference's per-field
    cartesian product (`__init__.py:120-130`); the default keeps binding
    values consistent across fields of one rule (documented deviation)."""
    from fs_schema_validator_ray.rules import RuleSet, RuleSetError

    doc = """
bindings:
  sf: [a, b]
rules:
  - rule: "r_{$sf}"
    type: int
    column: "col_{$sf}"
"""
    consistent = RuleSet.from_yaml(doc)
    assert sorted((r.rule_id, r.column) for r in consistent.column_rules()) == [
        ("r_a", "col_a"),
        ("r_b", "col_b"),
    ]

    independent = RuleSet.from_yaml("binding_expansion: independent\n" + doc)
    # colliding ids get a deterministic #k suffix (the reference keys by
    # field combo, not rule id, so collisions are legal in this mode)
    assert sorted((r.rule_id, r.column) for r in independent.column_rules()) == [
        ("r_a", "col_a"),
        ("r_a#2", "col_b"),
        ("r_b", "col_a"),
        ("r_b#2", "col_b"),
    ]

    import pytest as _pytest

    with _pytest.raises(RuleSetError):
        RuleSet.from_yaml("binding_expansion: nonsense\n" + doc)
