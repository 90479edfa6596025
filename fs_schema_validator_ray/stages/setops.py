"""Distributed set operations: INTERSECT / EXCEPT (SQL distinct set
semantics, including NULL = NULL row equality).

The reference has no set ops (its existence check is a membership probe,
``/root/reference/fs_schema_validator/__init__.py``); an engine needs
them for manifest reconciliation (ids present in corpus A but not B).

Plan — the same single-shuffle discipline as the joins: per-batch
DISTINCT combiner on each side (an Arrow ``group_by`` — duplicate rows
never shuffle), tag with a side flag, union, ONE bucket exchange
(``stages/exchange.py``) on the row of the distinct survivors, then a
fully vectorized per-bucket segment scan (``key_codes`` per column →
lexsort → per-segment side-presence via bincount). No per-row or
per-group Python in any hot path; the shuffle carries only the pruned
key columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    default_n_buckets,
    map_buckets,
    route,
    segments,
)
from fs_schema_validator_ray.state.sketches import key_codes


def _tagged(left, right, columns: list[str], n_buckets: int, tag):
    """Both sides through their per-batch ``tag(side)`` combiner, routed
    on the row ``columns``, unioned — the map half of every set op."""
    return route(left.select_columns(columns), columns, n_buckets, tag(0)).union(
        route(right.select_columns(columns), columns, n_buckets, tag(1))
    )


def _row_segments(group: pa.Table, columns: list[str]):
    """Segments of equal rows (NULL = NULL) in a bucket."""
    return segments(tuple(key_codes(group.column(c)) for c in columns))


def set_op_distinct(left, right, columns: list[str], op: str, n_buckets: int | None = None):
    """``left INTERSECT right`` / ``left EXCEPT right`` / ``left UNION
    right`` over the given row columns, SQL semantics: output rows are
    DISTINCT, and two rows are equal when every column matches with NULL
    equal to NULL."""
    if op not in ("intersect", "except", "union"):
        raise ValueError(
            f"set_op_distinct op must be intersect|except|union, got {op!r}"
        )
    if n_buckets is None:
        n_buckets = default_n_buckets(left, right)

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            g = pa.TableGroupBy(t.select(columns), columns).aggregate([])
            return g.append_column("__side", pa.array(np.full(g.num_rows, side, np.int8)))

        return fn

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        order, starts, seg_id, _, _ = _row_segments(group, columns)
        n_seg = len(starts)
        side_s = side[order]
        has_l = np.bincount(seg_id, weights=(side_s == 0), minlength=n_seg) > 0
        has_r = np.bincount(seg_id, weights=(side_s == 1), minlength=n_seg) > 0
        if op == "intersect":
            keep = has_l & has_r
        elif op == "except":
            keep = has_l & ~has_r
        else:  # union: every distinct row from either side
            keep = has_l | has_r
        take = pa.array(order[starts[keep]], pa.int64())
        return group.select(columns).take(take)

    return map_buckets(_tagged(left, right, columns, n_buckets, tag), merge_bucket, n_buckets)


def set_op_bag(left, right, columns: list[str], op: str, n_buckets: int | None = None):
    """BAG (multiset) set operations — ``INTERSECT ALL`` / ``EXCEPT
    ALL`` / ``UNION ALL`` over the given row columns, ANSI semantics:
    with a row appearing ``l`` times on the left and ``r`` on the right,
    it emits ``min(l, r)`` / ``max(0, l − r)`` / ``l + r`` times. NULL
    equals NULL for row equality (same as the DISTINCT variants and
    DuckDB).

    Same single-shuffle discipline as :func:`set_op_distinct`, with the
    per-batch combiner reduced to ``(row, count)`` partials (an Arrow
    ``group_by`` count — duplicate rows ship one int64, not N copies),
    ONE hash-bucket shuffle of the partials, then a vectorized
    per-bucket segment scan summing per-side counts and ``np.repeat``-ing
    each row its output multiplicity. ``union_all`` needs no shuffle at
    all and short-circuits to ``Dataset.union``."""
    if op not in ("intersect_all", "except_all", "union_all"):
        raise ValueError(
            f"set_op_bag op must be intersect_all|except_all|union_all, got {op!r}"
        )
    if op == "union_all":
        return left.select_columns(columns).union(right.select_columns(columns))
    if n_buckets is None:
        n_buckets = default_n_buckets(left, right)

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            g = pa.TableGroupBy(t.select(columns), columns).aggregate(
                [([], "count_all")]
            )
            g = g.rename_columns([*columns, "__cnt"])
            return g.append_column("__side", pa.array(np.full(g.num_rows, side, np.int8)))

        return fn

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        cnt = np.asarray(group.column("__cnt"), dtype=np.int64)
        order, starts, seg_id, _, _ = _row_segments(group, columns)
        n_seg = len(starts)
        side_s, cnt_s = side[order], cnt[order]
        l_cnt = np.bincount(
            seg_id, weights=cnt_s * (side_s == 0), minlength=n_seg
        ).astype(np.int64)
        r_cnt = np.bincount(
            seg_id, weights=cnt_s * (side_s == 1), minlength=n_seg
        ).astype(np.int64)
        if op == "intersect_all":
            k = np.minimum(l_cnt, r_cnt)
        else:  # except_all
            k = np.maximum(l_cnt - r_cnt, 0)
        take = pa.array(np.repeat(order[starts], k), pa.int64())
        return group.select(columns).take(take)

    return map_buckets(_tagged(left, right, columns, n_buckets, tag), merge_bucket, n_buckets)


def table_diff(
    old,
    new,
    key_columns: list[str],
    value_columns: list[str],
    n_buckets: int | None = None,
):
    """Snapshot diff (CDC shape): classify every key as ``added`` (only
    in ``new``), ``removed`` (only in ``old``) or ``changed`` (present in
    both with any value column differing, NULL-safely); unchanged keys
    are dropped. The reconciliation primitive for incremental runs —
    which partitions actually need revalidation between two manifest
    snapshots.

    Plan: tag each side, union, prune to key+value columns, ONE
    coarse-bucket exchange on the key, then a
    fully vectorized per-bucket pass (lexsort by key then side; segment
    length + side classify; per-value-column NULL-safe equality on the
    paired rows via two ``take``s — no per-key Python).

    Requires each non-null key to be UNIQUE within each snapshot (raises
    otherwise — a duplicated key has no well-defined row diff). Rows
    with a NULL in any key column follow SQL FULL OUTER JOIN semantics:
    NULL keys never match, so every old-side null-key row reports
    ``removed`` and every new-side one ``added`` (and they are exempt
    from the uniqueness requirement).

    Output: ``key_columns + [change]``, one row per differing key
    (``changed`` rows carry the NEW side's key values)."""
    if n_buckets is None:
        n_buckets = default_n_buckets(old, new)
    cols = list(dict.fromkeys([*key_columns, *value_columns]))

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select(cols)
            return t.append_column("__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    unioned = route(old, key_columns, n_buckets, tag(0)).union(
        route(new, key_columns, n_buckets, tag(1))
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        kcodes = [key_codes(group.column(c).combine_chunks()) for c in key_columns]
        side = np.asarray(group.column("__side"), dtype=np.int8)
        # SQL FULL OUTER JOIN never matches NULL keys: split them off —
        # old-side null-key rows are 'removed', new-side 'added' — and
        # run the pairing only over fully-non-null keys
        null_any = np.zeros(n, dtype=bool)
        for c in key_columns:
            null_any |= np.asarray(pc.is_null(group.column(c).combine_chunks()))
        null_idx = np.flatnonzero(null_any)
        valid_idx = np.flatnonzero(~null_any)
        sub, seg_start, _, _, _ = segments(
            tuple(k[valid_idx] for k in kcodes), side[valid_idx]
        )
        order = valid_idx[sub]
        ss = side[order]
        seg_len = np.diff(np.append(seg_start, len(order)))
        if seg_len.max(initial=0) > 2:
            raise ValueError(
                "table_diff: a key appears more than once within one "
                "snapshot — diff is undefined for duplicated keys"
            )
        pair_start = seg_start[seg_len == 2]
        if len(pair_start) and not (
            (ss[pair_start] == 0).all() and (ss[pair_start + 1] == 1).all()
        ):
            raise ValueError(
                "table_diff: a key appears twice on the same side — diff "
                "is undefined for duplicated keys"
            )
        single = seg_start[seg_len == 1]
        added = single[ss[single] == 1]
        removed = single[ss[single] == 0]
        # changed: NULL-safe inequality on any value column
        if len(pair_start):
            take_old = pa.array(order[pair_start], pa.int64())
            take_new = pa.array(order[pair_start + 1], pa.int64())
            unchanged = np.ones(len(pair_start), dtype=bool)
            for c in value_columns:
                col = group.column(c).combine_chunks()
                l, r = col.take(take_old), col.take(take_new)
                eq = np.asarray(pc.fill_null(pc.equal(l, r), False))
                both_null = np.asarray(pc.is_null(l)) & np.asarray(pc.is_null(r))
                unchanged &= eq | both_null
            changed = pair_start[~unchanged] + 1  # NEW side row
        else:
            changed = np.empty(0, np.int64)
        idx = np.concatenate([added, removed, changed]).astype(np.int64)
        labels = (
            ["added"] * len(added)
            + ["removed"] * len(removed)
            + ["changed"] * len(changed)
            + np.where(side[null_idx] == 1, "added", "removed").tolist()
        )
        take = pa.array(np.concatenate([order[idx], null_idx]), pa.int64())
        out = {c: group.column(c).combine_chunks().take(take) for c in key_columns}
        out["change"] = pa.array(labels, pa.string())
        return pa.table(out)

    return map_buckets(unioned, per_bucket, n_buckets)
