"""Column statistics + distribution drift over a Dataset.

Partial/final sketch aggregation (the scale-safe pattern): every batch
contributes one tiny partial row per column — exact moments (count, nulls,
min, max, sum, sum-of-squares) plus serialized HLL and t-digest blobs —
and partials are merged per column. The input dataset streams once; only
kilobyte-sized partials ever move. This generalizes the reference's
mergeable ``ValidationReport`` (``report.py:44-48``) to numeric state.

Drift: per-batch, per-partition partials (fixed-bin histogram counts, or
category counts for a categorical rule), folded on the driver by
:func:`merge_drift_partial` and judged by :func:`drift_verdicts` against
a baseline with KS / PSI (north_rule) — partitions whose statistic
exceeds the rule threshold produce partition-level violation rows.

The validation run's global rules use the same partial/final pattern
over every pending ``unique`` and ``drift`` rule at once, inside the
tasks that already read their columns (the row pass, and a keys-only
scan of partitions a resumed run skips): :class:`GlobalPartial` folds
each batch into one partial per rule per task — a drift rule's
per-partition counts, a ``unique`` rule's exact key counts or the
sparse cell counts of its counting filter (both from
``stages/unique.py``, which says when each is used) — and
:func:`fold_partials` merges them on the driver as the tasks finish.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.report import (
    PARTITION_COLUMN,
    partition_ids,
    violations_table,
)
from fs_schema_validator_ray.rules import DriftRule
from fs_schema_validator_ray.stages import unique as unique_stage
from fs_schema_validator_ray.state import Histogram, HyperLogLog, TDigest, ks_statistic, psi


class _StatsPartial:
    """map_batches callable emitting one partial row per column per batch."""

    def __init__(self, columns: list[str]) -> None:
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for name in self.columns:
            if name not in batch.column_names:
                continue
            col = batch.column(name).combine_chunks()
            n = len(col)
            nulls = col.null_count
            dtype = col.type
            is_num = pa.types.is_integer(dtype) or pa.types.is_floating(dtype)
            is_str = pa.types.is_string(dtype) or pa.types.is_large_string(dtype)

            hll = HyperLogLog(p=12)
            vmin = vmax = None
            s = ss = 0.0
            td_blob = b""
            if is_num:
                vals = np.asarray(pc.drop_null(col), dtype=np.float64)
                if len(vals):
                    vmin, vmax = float(vals.min()), float(vals.max())
                    s = float(vals.sum())
                    ss = float(np.dot(vals, vals))
                    td = TDigest()
                    td.add(vals)
                    td_blob = td.to_bytes()
                    hll.add(vals)
            elif is_str:
                vals = pc.drop_null(col)
                if len(vals):
                    vmin = str(pc.min(vals).as_py())
                    vmax = str(pc.max(vals).as_py())
                    hll.add(np.asarray(vals, dtype=object))
            elif pa.types.is_binary(dtype) or pa.types.is_large_binary(dtype):
                sizes = pc.binary_length(pc.drop_null(col))
                if len(sizes):
                    vmin = float(pc.min(sizes).as_py())
                    vmax = float(pc.max(sizes).as_py())
                    s = float(pc.sum(sizes).as_py())

            rows.append(
                {
                    "column": name,
                    "n": n,
                    "nulls": nulls,
                    "min_num": vmin if not isinstance(vmin, str) else None,
                    "max_num": vmax if not isinstance(vmax, str) else None,
                    "min_str": vmin if isinstance(vmin, str) else None,
                    "max_str": vmax if isinstance(vmax, str) else None,
                    "sum": s,
                    "sumsq": ss,
                    "hll": hll.to_bytes(),
                    "tdigest": td_blob,
                }
            )
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)


_PARTIAL_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("n", pa.int64()),
        ("nulls", pa.int64()),
        ("min_num", pa.float64()),
        ("max_num", pa.float64()),
        ("min_str", pa.string()),
        ("max_str", pa.string()),
        ("sum", pa.float64()),
        ("sumsq", pa.float64()),
        ("hll", pa.binary()),
        ("tdigest", pa.binary()),
    ]
)


def _merge_partials(df) -> dict:
    hll = HyperLogLog(p=12)
    td: Optional[TDigest] = None
    for blob in df["hll"]:
        if blob:
            hll = hll.merge(HyperLogLog.from_bytes(blob))
    for blob in df["tdigest"]:
        if blob:
            t = TDigest.from_bytes(blob)
            td = t if td is None else td.merge(t)
    n = int(df["n"].sum())
    nulls = int(df["nulls"].sum())
    valid = n - nulls
    mean = float(df["sum"].sum()) / valid if valid else None
    var = None
    numeric = df["min_num"].notna().any()
    if valid and numeric:  # all-zeros columns still get std=0.0
        var = max(0.0, float(df["sumsq"].sum()) / valid - mean * mean)
    out = {
        "count": n,
        "nulls": nulls,
        "null_ratio": nulls / n if n else 0.0,
        "distinct_estimate": float(hll.estimate()) if valid else 0.0,
        "min": _coalesce(
            _first_non_null(df, "min_num", min), _first_non_null(df, "min_str", min)
        ),
        "max": _coalesce(
            _first_non_null(df, "max_num", max), _first_non_null(df, "max_str", max)
        ),
        "mean": mean,
        "std": float(np.sqrt(var)) if var is not None else None,
    }
    if td is not None:
        out.update(
            {
                "p50": td.quantile(0.5),
                "p95": td.quantile(0.95),
                "p99": td.quantile(0.99),
            }
        )
    return out


def _coalesce(a, b):
    """First non-None (unlike ``or``, keeps falsy-but-valid 0.0 / "")."""
    return a if a is not None else b


def _first_non_null(df, col, reducer):
    vals = [v for v in df[col] if v is not None and not (isinstance(v, float) and np.isnan(v))]
    return reducer(vals) if vals else None


def column_stats(ds, columns: Optional[list[str]] = None) -> dict:
    """Full-dataset column statistics. One streaming pass; result is a
    small dict per column (driver-sized by construction)."""
    columns = columns or [n for n in ds.schema().names if n != PARTITION_COLUMN]
    parts = ds.map_batches(
        _StatsPartial(columns), batch_format="pyarrow"
    ).to_pandas()
    return {
        name: _merge_partials(parts[parts["column"] == name])
        for name in columns
        if (parts["column"] == name).any()
    }


# --- drift -----------------------------------------------------------------


class _DriftPartial:
    """Per-batch, per-partition histogram partials for one drift rule."""

    def __init__(self, rule: DriftRule) -> None:
        self.rule = rule

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.rule
        if r.column not in batch.column_names:
            return pa.table(
                {"partition_id": pa.array([], pa.int32()),
                 "counts": pa.array([], pa.list_(pa.int64()))}
            )
        vals = np.asarray(
            pc.fill_null(pc.cast(batch.column(r.column), pa.float64()), np.nan)
        )
        parts = partition_ids(batch)
        out_pid, out_counts = [], []
        for pid in np.unique(parts):
            hist = Histogram(r.lo, r.hi, r.bins)
            hist.add(vals[parts == pid])
            out_pid.append(int(pid))
            out_counts.append(hist.counts.tolist())
        return pa.table(
            {"partition_id": pa.array(out_pid, pa.int32()),
             "counts": pa.array(out_counts, pa.list_(pa.int64()))}
        )


def drift_partial(rule: DriftRule):
    """The per-batch partial of one drift rule: per-partition histogram
    counts (numeric) or category counts (``categorical``)."""
    return _CatDriftPartial(rule) if rule.categorical else _DriftPartial(rule)


def merge_drift_partial(merged: dict, rule: DriftRule, partial: pa.Table) -> None:
    """Fold one :func:`drift_partial` output into ``merged`` in place:
    ``{pid: Histogram}`` for a numeric rule, ``{pid: {category: n}}`` for
    a categorical one. The state is partitions × bins (categories),
    never rows."""
    pids = partial.column("partition_id").to_pylist()
    if rule.categorical:
        for pid, cat, n in zip(
            pids, partial.column("category").to_pylist(), partial.column("n").to_pylist()
        ):
            d = merged.setdefault(pid, {})
            d[cat] = d.get(cat, 0) + n
        return
    for pid, counts in zip(pids, partial.column("counts").to_pylist()):
        h = Histogram(rule.lo, rule.hi, rule.bins)
        h.counts = np.asarray(counts, dtype=np.int64)
        merged[pid] = merged[pid].merge(h) if pid in merged else h


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _drift_table(rule: DriftRule, merged: dict) -> pa.Table:
    """A :func:`merge_drift_partial` state as one :func:`drift_partial`
    table (a row per partition, or per partition and category)."""
    if rule.categorical:
        rows = [(pid, c, n) for pid, d in merged.items() for c, n in d.items()]
        pids, cats, ns = zip(*rows) if rows else ((), (), ())
        return pa.table({"partition_id": pa.array(pids, pa.int32()),
                         "category": pa.array(cats, pa.string()),
                         "n": pa.array(ns, pa.int64())})
    return pa.table(
        {"partition_id": pa.array(list(merged), pa.int32()),
         "counts": pa.array([h.counts.tolist() for h in merged.values()],
                            pa.list_(pa.int64()))}
    )


class GlobalPartial:
    """The partial of every pending ``unique`` and ``drift`` rule over the
    batches of a task: :meth:`add` folds a batch (with ``partition_id``)
    in; :meth:`blobs` gives one row per rule, its index (unique rules
    first) and an Arrow IPC blob: a unique rule's key counts
    (``stages.unique._partial_counts``; null when the task read no rows)
    if ``bits`` is ``None``, else the sparse ``(cell, min(n, 255))`` pairs
    of its filter of ``2**bits`` cells (``stages.unique.key_cells``); a
    drift rule's :func:`drift_partial` table."""

    def __init__(self, unique_rules: list, drift_rules: list, bits: Optional[int]) -> None:
        self.unique_rules, self.drift_rules, self.bits = unique_rules, drift_rules, bits
        # per unique rule: its key batches (exact) or its cells (filter)
        self.keys: list = [[] for _ in unique_rules]
        self.drift: list = [{} for _ in drift_rules]

    def add(self, batch: pa.Table) -> None:
        for keys, rule in zip(self.keys, self.unique_rules):
            if self.bits is None:
                keys.append(batch.select([*rule.input_columns(), PARTITION_COLUMN]))
            else:
                keys.append(unique_stage.key_cells(batch, rule, self.bits).astype(np.int32))
        for merged, rule in zip(self.drift, self.drift_rules):
            merge_drift_partial(merged, rule, drift_partial(rule)(batch))

    def blobs(self) -> pa.Table:
        blobs = []
        for keys, rule in zip(self.keys, self.unique_rules):
            if self.bits is None and not keys:
                blobs.append(None)  # the task read no rows
            elif self.bits is None:
                t = pa.concat_tables(keys, promote_options="permissive")
                blobs.append(_ipc(unique_stage._partial_counts(t, rule)))
            else:
                cells, n = np.unique(np.concatenate(keys or [np.empty(0, np.int32)]),
                                     return_counts=True)
                # a byte a count: five bytes a pair
                blobs.append(_ipc(pa.table({"cell": cells,
                                            "n": np.minimum(n, 255).astype(np.uint8)})))
        for merged, rule in zip(self.drift, self.drift_rules):
            blobs.append(_ipc(_drift_table(rule, merged)))
        return pa.table(
            {"rule": pa.array(range(len(blobs)), pa.int32()),
             "blob": pa.array(blobs, pa.binary())}
        )


def fold_partials(unique_states: list, drift_states: list, drift_rules: list,
                  blobs: pa.Table) -> None:
    """Fold :class:`GlobalPartial` rows (``rule``, ``blob``; a null blob is
    skipped) in place into ``unique_states[i]``, the state of the ``i``-th
    unique rule, and ``drift_states[j]``, the :func:`merge_drift_partial`
    state of ``drift_rules[j]``. A unique rule's state is a list of its
    tasks' key-count tables (exact), or its filter: a byte a cell,
    saturated at 255."""
    for i, blob in zip(blobs.column("rule").to_pylist(), blobs.column("blob").to_pylist()):
        if blob is None:
            continue
        part = pa.ipc.open_stream(blob).read_all()
        if i >= len(unique_states):
            j = i - len(unique_states)
            merge_drift_partial(drift_states[j], drift_rules[j], part)
        elif isinstance(unique_states[i], list):
            unique_states[i].append(part)
        else:
            # cells are distinct within one partial
            cells = np.asarray(part.column("cell"))
            unique_states[i][cells] = np.minimum(
                unique_states[i][cells] + np.asarray(part.column("n"), np.uint16), 255)


def drift_verdicts(merged: dict, rule: DriftRule, baseline=None):
    """Per-partition drift verdicts over the merged partials of one rule
    → ``(violations_table, {pid: metrics}, {pid: sketch bytes})``.

    ``baseline`` (a ``Histogram``, or a category-count dict for a
    categorical rule) defaults to the merge of every partition: each
    partition is compared against the global distribution. The sketch
    bytes are what the run manifest checkpoints per partition (histogram
    blobs, or sorted-key JSON category counts)."""
    if rule.categorical:
        return _categorical_verdicts(merged, rule, baseline)
    if baseline is None:
        baseline = Histogram(rule.lo, rule.hi, rule.bins)
        for h in merged.values():
            baseline = baseline.merge(h)
    v_parts, v_reasons = [], []
    metrics = {}
    for pid, hist in sorted(merged.items()):
        ks = ks_statistic(hist, baseline)
        p = psi(hist, baseline)
        metrics[int(pid)] = {"ks": ks, "psi": p, "rows": hist.total()}
        if ks > rule.max_ks:
            v_parts.append(pid)
            v_reasons.append(
                f"distribution drift: ks={ks:.4f} exceeds max_ks={rule.max_ks}"
            )
        elif p > rule.max_psi:
            v_parts.append(pid)
            v_reasons.append(f"distribution drift: psi={p:.4f} exceeds max_psi={rule.max_psi}")

    violations = violations_table([None] * len(v_parts), rule.rule_id, v_reasons, v_parts)
    return violations, metrics, {pid: h.to_bytes() for pid, h in merged.items()}


# --- categorical drift (round 5) ---------------------------------------------


class _CatDriftPartial:
    """Per-batch per-partition CATEGORY counts for one categorical drift
    rule: one Arrow ``value_counts`` per partition in the batch (a
    validation run's batches hold one) — no per-row Python."""

    def __init__(self, rule: DriftRule) -> None:
        self.rule = rule

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.rule
        empty = pa.table({"partition_id": pa.array([], pa.int32()),
                          "category": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if r.column not in batch.column_names:
            return empty
        cats = pc.cast(batch.column(r.column).combine_chunks(), pa.string())
        cats = pc.fill_null(cats, "__null")
        parts = partition_ids(batch)
        pids, out = np.unique(parts), [empty]
        for pid in pids:
            vc = pc.value_counts(cats if len(pids) == 1 else cats.filter(pa.array(parts == pid)))
            out.append(pa.table({"partition_id": pa.array(np.full(len(vc), pid, np.int32)),
                                 "category": vc.field("values"),
                                 "n": vc.field("counts")}))
        return pa.concat_tables(out)


def _categorical_verdicts(per_pid: dict, rule: DriftRule, baseline=None):
    """Per-partition categorical PSI vs the baseline (default: the merge
    of all partitions). Categories beyond ``rule.top_k`` by GLOBAL
    frequency lump into ``__other`` on BOTH sides (bounded state at any
    cardinality); PSI uses the repo's eps=1e-6 floor. Metrics are
    ``{pid: {"psi", "n"}}``."""
    if baseline is None:
        base: dict[str, int] = {}
        for d in per_pid.values():
            for c, n in d.items():
                base[c] = base.get(c, 0) + n
    else:
        base = dict(baseline)

    # global top-k category space, everything else lumps into __other
    keep = set(
        sorted(base, key=lambda c: (-base[c], c))[: max(1, rule.top_k)]
    )

    def lump(d: dict[str, int]) -> np.ndarray:
        cats = sorted(keep) + ["__other"]
        out = np.zeros(len(cats), np.float64)
        idx = {c: i for i, c in enumerate(cats)}
        for c, n in d.items():
            out[idx.get(c, len(cats) - 1)] += n
        return out

    base_v = lump(base)
    base_p = np.maximum(base_v / max(base_v.sum(), 1.0), 1e-6)

    v_parts, v_reasons = [], []
    metrics: dict[int, dict] = {}
    for pid, d in sorted(per_pid.items()):
        v = lump(d)
        p = np.maximum(v / max(v.sum(), 1.0), 1e-6)
        psi_val = float(np.sum((p - base_p) * np.log(p / base_p)))
        metrics[pid] = {"psi": round(psi_val, 6), "n": int(v.sum())}
        if psi_val > rule.max_psi:
            v_parts.append(pid)
            v_reasons.append(
                f"categorical drift: psi={psi_val:.4f} exceeds "
                f"max_psi={rule.max_psi}"
            )
    viol = violations_table([None] * len(v_parts), rule.rule_id, v_reasons, v_parts)
    sketches = {pid: json.dumps(d, sort_keys=True).encode() for pid, d in per_pid.items()}
    return viol, metrics, sketches
