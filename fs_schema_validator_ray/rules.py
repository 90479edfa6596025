"""Rule-spec model: YAML → typed, expanded rule plan.

Driver-side compilation phase mirroring the reference's two-phase schema
compile (``/root/reference/fs_schema_validator/__init__.py:46-69``):

1. ``yaml.safe_load`` → untyped rule dicts + untyped bindings,
2. binding typing (str → Lit, 2-int list → Span, str list/set → Choice —
   reference ``__init__.py:106-117`` + the pydantic coercions of
   ``UntypedBindings``),
3. ``if:`` guard filtering (``__init__.py:144-155``),
4. per-field template expansion and the cartesian product of variants
   (``__init__.py:120-141``), nested objects restricted to exactly one
   variant (same contract as the reference's nested-object hack),
5. typed construction, dispatched on ``type`` (``__init__.py:25-28``
   discriminated union).

The output is a :class:`RuleSet` — a concrete list of rules the pipeline
builder turns into Ray Data stages. Everything here is tiny, driver-side
Python; no data-plane cost.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Optional

import yaml

from fs_schema_validator_ray import dsl
from fs_schema_validator_ray.functions.constraints import Spec, SpecError, parse_spec


class RuleSetError(ValueError):
    """The ruleset document is invalid (reference exit-127 analogue,
    ``__main__.py:70-74``)."""


# --- typed rules -----------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    rule_id: str

    def input_columns(self) -> tuple[str, ...]:
        """Every input column the rule reads — the one answer the pruned
        parquet reads and the plan-time missing-column check share. Rules
        over one ``column`` read just that; the others override."""
        return (self.column,)


@dataclass(frozen=True)
class ColumnRule(Rule):
    """Vectorized per-row constraint on one column — the data-plane
    analogue of the reference's ``JsonSchema`` scalar constraints."""

    column: str
    spec: Spec


@dataclass(frozen=True)
class AudioRule(Rule):
    """Payload decode validation (per-row decode stage) — analogue of the
    reference's image/gltf/zip byte-wise validators."""

    bytes_column: str = "bytes"
    codec_column: str = "codec"
    sr_column: str = "sr_hz"
    dur_column: str = "dur_ms"
    transcript_column: str = "transcript"
    check_codec: bool = True
    check_duration: bool = True
    check_snr: bool = True
    min_snr_db: float = 30.0
    check_transcript: bool = True
    duration_tolerance_ms: int = 2

    def input_columns(self) -> tuple[str, ...]:
        cols = (self.bytes_column, self.codec_column, self.sr_column, self.dur_column)
        return cols + ((self.transcript_column,) if self.check_transcript else ())


@dataclass(frozen=True)
class AssetRule(Rule):
    """Binary 3-D-asset / archive payload validation — the reference's
    LITERAL ``GltfSchema`` / ``ZipSchema`` validators
    (``schemas/gltf.py:29-46``, ``schemas/zip.py:19-32``) over a binary
    column. YAML spellings: ``type: gltf`` (``format: gltf|glb``),
    ``type: zip``, or generic ``type: asset`` with a per-row
    ``format_column``."""

    bytes_column: str = "bytes"
    format_column: str | None = None  # per-row format (gltf/glb/zip)
    format: str | None = None  # fixed format when the column is uniform

    def input_columns(self) -> tuple[str, ...]:
        return (self.bytes_column,) + ((self.format_column,) if self.format_column else ())


@dataclass(frozen=True)
class JsonRule(Rule):
    """Validate a JSON-string payload column against a nested constraint
    spec — the reference's core ``JsonSchema`` operator
    (``schemas/json.py:232-265``) over a column instead of a file."""

    column: str = "props"
    spec: Spec = None  # type: ignore[assignment]


@dataclass(frozen=True)
class UniqueRule(Rule):
    """Key-uniqueness check (north_rule): exact duplicate detection over
    one hash-partitioned exchange of pre-aggregated key counts."""

    column: str = "clip_id"
    #: composite-key mode: when set, uniqueness is over the TUPLE of
    #: these columns (YAML ``columns: [a, b]``); ``column`` is ignored
    columns: tuple[str, ...] | None = None

    def input_columns(self) -> tuple[str, ...]:
        return self.columns or (self.column,)


@dataclass(frozen=True)
class ReferentialRule(Rule):
    """Key must exist in a (small) manifest table — broadcast anti-join
    semantics; the columnar analogue of the reference's ``does not exist``
    existence check (``utils.py:6-11``, ``report.py:24-25``)."""

    column: str = "clip_id"
    manifest: str = "manifest"  # logical name resolved by the pipeline config
    use_bloom: bool = False
    bloom_fpp: float = 1e-4
    #: composite-key mode (YAML ``columns: [a, b]``): the TUPLE must
    #: exist in the manifest (same canonical join as composite unique);
    #: null components participate literally on both sides
    columns: tuple[str, ...] | None = None

    def input_columns(self) -> tuple[str, ...]:
        return self.columns or (self.column,)


@dataclass(frozen=True)
class DriftRule(Rule):
    """Distribution drift of a numeric column vs a baseline histogram:
    per-partition KS statistic + PSI (north_rule)."""

    column: str = "dur_ms"
    lo: float = 0.0
    hi: float = 1.0
    bins: int = 64
    max_ks: float = 0.15
    max_psi: float = 0.25
    #: categorical mode (YAML ``categorical: true``): the column is a
    #: discrete label (codec, lang, source) — per-partition CATEGORY
    #: frequencies vs the baseline, PSI-only gate (KS is meaningless
    #: without an ordering); ``lo/hi/bins`` are ignored, ``top_k`` caps
    #: the tracked categories (rest lump into __other — bounded state)
    categorical: bool = False
    top_k: int = 64


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)
    bindings: dsl.Bindings = field(default_factory=dict)

    @staticmethod
    def from_yaml(
        text_or_dict: Any, extra_bindings: Optional[dsl.Bindings] = None
    ) -> "RuleSet":
        if isinstance(text_or_dict, dict):
            doc = text_or_dict
        else:
            doc = yaml.safe_load(text_or_dict)
        if not isinstance(doc, dict):
            raise RuleSetError("ruleset document must be a mapping")
        raw_rules = doc.get("rules", doc.get("schema"))
        if not isinstance(raw_rules, list):
            raise RuleSetError("ruleset requires a `rules:` (or `schema:`) list")

        bindings = _type_bindings(doc.get("bindings") or {})
        bindings.update(extra_bindings or {})

        expansion = doc.get("binding_expansion", "consistent")
        if expansion not in ("consistent", "independent"):
            raise RuleSetError(
                "binding_expansion must be `consistent` (default) or "
                f"`independent` (reference-compat), got {expansion!r}"
            )

        expanded: list[dict] = []
        for raw in raw_rules:
            if not isinstance(raw, dict):
                raise RuleSetError(f"each rule must be a mapping, got {raw!r}")
            raw = dict(raw)
            guard = raw.pop("if", None)
            if guard is not None and dsl.evaluate(guard, bindings) is not True:
                continue
            expanded.extend(_expand_rule(raw, bindings, expansion))

        rules = [_build_rule(d, i) for i, d in enumerate(expanded)]
        seen: set[str] = set()
        for i, r in enumerate(rules):
            if r.rule_id in seen:
                if expansion == "independent":
                    # reference-compat mode keys violations by field combo,
                    # not rule id — disambiguate colliding ids determin-
                    # istically instead of rejecting the document
                    k = 2
                    while f"{r.rule_id}#{k}" in seen:
                        k += 1
                    rules[i] = r = replace(r, rule_id=f"{r.rule_id}#{k}")
                else:
                    raise RuleSetError(
                        f"duplicate rule_id `{r.rule_id}` after expansion"
                    )
            seen.add(r.rule_id)
        return RuleSet(rules=rules, bindings=bindings)

    def column_rules(self) -> list[ColumnRule]:
        return [r for r in self.rules if isinstance(r, ColumnRule)]

    def audio_rules(self) -> list[AudioRule]:
        return [r for r in self.rules if isinstance(r, AudioRule)]

    def json_rules(self) -> list[JsonRule]:
        return [r for r in self.rules if isinstance(r, JsonRule)]

    def unique_rules(self) -> list[UniqueRule]:
        return [r for r in self.rules if isinstance(r, UniqueRule)]

    def referential_rules(self) -> list[ReferentialRule]:
        return [r for r in self.rules if isinstance(r, ReferentialRule)]

    def drift_rules(self) -> list[DriftRule]:
        return [r for r in self.rules if isinstance(r, DriftRule)]

    def asset_rules(self) -> list[AssetRule]:
        return [r for r in self.rules if isinstance(r, AssetRule)]

    def required_columns(self, key_column: str = "clip_id") -> list[str]:
        """Every input column the rule plan touches — used to prune the
        parquet read to exactly these columns."""
        return sorted({key_column}.union(*(r.input_columns() for r in self.rules)))


# --- untyped → typed helpers ----------------------------------------------


def _type_bindings(raw: dict) -> dsl.Bindings:
    out: dsl.Bindings = {}
    for k, v in raw.items():
        if isinstance(v, str):
            out[k] = dsl.Lit(v)
        elif isinstance(v, (set, frozenset)):
            out[k] = dsl.Choice(str(x) for x in v)
        elif isinstance(v, (list, tuple)):
            if len(v) == 2 and all(isinstance(x, int) and not isinstance(x, bool) for x in v):
                out[k] = dsl.Span(v[0], v[1])
            else:
                out[k] = dsl.Choice(str(x) for x in v)
        elif isinstance(v, dict) and all(x is None for x in v.values()):
            # yaml flow-set syntax `{a, b}` loads as {a: None, b: None}
            out[k] = dsl.Choice(str(x) for x in v)
        else:
            raise RuleSetError(f"cannot type binding `{k}`: {v!r}")
    return out


def _expand_value(value: Any, bindings: dsl.Bindings) -> Iterator[Any]:
    """Expand one rule field. Strings expand through the template DSL
    (leaving unbound vars in for a later inner-binding pass); nested
    structures round-trip through YAML and must stay single-variant
    (reference ``__init__.py:133-141``)."""
    if isinstance(value, str):
        return dsl.expand(value, bindings, leave_unbound_vars_in=True)
    if isinstance(value, (dict, list)):
        dumped = yaml.safe_dump(value)
        variants = list(dsl.expand(dumped, bindings, leave_unbound_vars_in=True))
        if len(variants) != 1:
            raise RuleSetError(
                "nested rule values cannot expand to more than one variant"
            )
        return iter([yaml.safe_load(io.StringIO(variants[0]))])
    return iter([value])


@dataclass(frozen=True)
class _Fixed:
    """A binding pinned to one atomic variant for the duration of a combo
    (duck-typed to the :mod:`dsl` binding-value protocol). Keeps the raw
    (possibly int) value so hole format specs still apply correctly."""

    value: Any

    def expand(self, bindings: Any, leave_unbound: bool = False, fmt: str | None = None):
        yield dsl._apply_format(self.value, fmt)

    def coerce_to_string(self) -> dsl.Lit:
        return dsl.Lit(str(self.value))


def _atomic_variants(bv: Any) -> list:
    if isinstance(bv, dsl.Lit):
        return [bv.text]
    if isinstance(bv, dsl.Choice):
        return list(bv.variants)
    if isinstance(bv, dsl.Span):
        return list(range(bv.lo, bv.hi + 1))
    return [str(bv)]


def _collect_vars(value: Any) -> set[str]:
    if isinstance(value, str):
        return {
            el.value.name
            for el in dsl.parse_template(value)
            if isinstance(el, dsl.Hole) and isinstance(el.value, dsl.Var)
        }
    if isinstance(value, dict):
        return set().union(set(), *(_collect_vars(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(set(), *(_collect_vars(v) for v in value))
    return set()


def _expand_rule(
    rule: dict, bindings: dsl.Bindings, mode: str = "consistent"
) -> Iterator[dict]:
    """Expand one rule dict into its concrete variants.

    Default (``consistent`` — documented deviation from the reference):
    ``$binding`` variables take **consistent** values across all fields of
    one rule — one output rule per combination of binding variants —
    where the reference products every field independently
    (``__init__.py:120-130``), which cannot express a rule id correlated
    with its target column. Inline enum/range holes (``{a|b}``,
    ``{0..3}``) still expand per-field with a cartesian product, exactly
    like the reference.

    ``independent`` (document-level ``binding_expansion: independent``)
    restores the reference's exact semantics: every field expands all of
    its binding variants on its own and the rule is the cartesian product
    across fields, so ``{$x}`` in two fields of one rule can take
    different values (``_expand_untyped_validator``,
    ``__init__.py:120-130``).
    """
    all_vars = set().union(set(), *(_collect_vars(v) for v in rule.values()))
    missing = all_vars - set(bindings)
    if missing:
        # no rule type has inner bindings (unlike the reference's image/
        # gltf validators), so an unbound var can never resolve later —
        # fail at compile time (reference UnboundSymbolError / exit 127)
        raise RuleSetError(
            f"unbound binding(s) {sorted('$' + m for m in missing)} in rule "
            f"{rule.get('rule', rule.get('type', '?'))!r}"
        )
    if mode == "independent":
        expanded = {k: list(_expand_value(v, bindings)) for k, v in rule.items()}
        for field_combo in product(*([(k, v) for v in vs] for k, vs in expanded.items())):
            yield dict(field_combo)
        return
    used = sorted(all_vars)
    var_combos = product(*(_atomic_variants(bindings[name]) for name in used))
    for combo in var_combos:
        pinned = dict(bindings)
        pinned.update({name: _Fixed(val) for name, val in zip(used, combo)})
        expanded = {k: list(_expand_value(v, pinned)) for k, v in rule.items()}
        for field_combo in product(*([(k, v) for v in vs] for k, vs in expanded.items())):
            yield dict(field_combo)


_SCALAR_TYPES = {
    "int", "integer", "float", "bool", "boolean", "str", "string",
    "binary", "literal", "enum", "array", "list", "fixed_array", "tuple",
    "object", "dict",
}


def _reject_unknown(rid: str, left) -> None:
    """``left``: the keys of a rule mapping that its type did not consume."""
    if left:
        raise RuleSetError(f"rule `{rid}`: unknown fields {sorted(left)}")


def _build_rule(d: dict, index: int) -> Rule:
    d = dict(d)
    t = d.pop("type", None)
    if t is None:
        raise RuleSetError(f"rule #{index} missing `type`: {d!r}")
    rule_id = d.pop("rule", None)

    if t in _SCALAR_TYPES:
        column = d.pop("column", None)
        if not column:
            raise RuleSetError(f"rule #{index} of type `{t}` requires `column`")
        rid = rule_id or f"{t}_{column}"
        try:
            spec = parse_spec({"type": t, **d})
        except SpecError as ex:
            raise RuleSetError(f"rule `{rid}`: {ex}") from ex
        return ColumnRule(rule_id=rid, column=column, spec=spec)

    if t == "json":
        column = d.pop("column", None)
        if not column:
            raise RuleSetError(f"rule #{index} of type `json` requires `column`")
        rid = rule_id or f"json_{column}"
        payload = d.pop("spec", None)
        if payload is None:
            raise RuleSetError(f"rule `{rid}`: json rule requires `spec`")
        try:
            spec = parse_spec(payload)
        except SpecError as ex:
            raise RuleSetError(f"rule `{rid}`: {ex}") from ex
        _reject_unknown(rid, d)
        return JsonRule(rule_id=rid, column=column, spec=spec)

    if t == "audio":
        rid = rule_id or "audio"
        known = {
            "bytes_column", "codec_column", "sr_column", "dur_column",
            "transcript_column", "check_codec", "check_duration", "check_snr",
            "min_snr_db", "check_transcript", "duration_tolerance_ms",
        }
        _reject_unknown(rid, set(d) - known)
        return AudioRule(rule_id=rid, **d)

    if t in ("asset", "gltf", "zip"):
        bytes_column = d.pop("bytes_column", "bytes")
        fmt_col = d.pop("format_column", None)
        fmt = d.pop("format", None)
        if t == "zip":
            if fmt not in (None, "zip"):
                raise RuleSetError(f"rule #{index}: zip rule cannot set format `{fmt}`")
            fmt, fmt_col = "zip", None
        elif t == "gltf" and fmt is None and fmt_col is None:
            fmt = "gltf"
        if fmt is not None and fmt not in ("gltf", "glb", "zip"):
            raise RuleSetError(
                f"rule #{index}: unknown asset format `{fmt}` (gltf/glb/zip)"
            )
        if fmt is None and fmt_col is None:
            raise RuleSetError(
                f"rule #{index} of type `asset` requires `format` or `format_column`"
            )
        rid = rule_id or f"{t}_{bytes_column}"
        _reject_unknown(rid, d)
        return AssetRule(
            rule_id=rid,
            bytes_column=bytes_column,
            format_column=fmt_col,
            format=fmt,
        )

    if t in ("unique", "referential"):
        columns = d.pop("columns", None)
        column = d.pop("column", "clip_id")
        if columns is not None:
            columns = tuple(str(c) for c in columns)
            column = columns[0]
        rid = rule_id or f"{t}_" + "_".join(columns or (column,))
        if t == "unique":
            rule = UniqueRule(rule_id=rid, column=column, columns=columns)
        else:
            rule = ReferentialRule(
                rule_id=rid,
                column=column,
                manifest=d.pop("manifest", "manifest"),
                use_bloom=bool(d.pop("use_bloom", False)),
                bloom_fpp=float(d.pop("bloom_fpp", 1e-4)),
                columns=columns,
            )
        _reject_unknown(rid, d)
        return rule

    if t == "drift":
        column = d.pop("column", "dur_ms")
        rid = rule_id or f"drift_{column}"
        rule = DriftRule(
            rule_id=rid,
            column=column,
            lo=float(d.pop("lo", 0.0)),
            hi=float(d.pop("hi", 1.0)),
            bins=int(d.pop("bins", 64)),
            max_ks=float(d.pop("max_ks", 0.15)),
            max_psi=float(d.pop("max_psi", 0.25)),
            categorical=bool(d.pop("categorical", False)),
            top_k=int(d.pop("top_k", 64)),
        )
        _reject_unknown(rid, d)
        return rule

    raise RuleSetError(f"rule #{index}: unknown rule type `{t}`")
