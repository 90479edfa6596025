"""Event-funnel and cohort-retention analytics over an event stream.

The reference has no event analytics (it validates schemas); these
extend the engine along the training/product-data axis with the same
shuffle discipline as the window family (``stages/window.py``): the
only all-to-all exchange is ONE coarse-bucket exchange on the key
(``stages/exchange.py``) of the pruned columns, and every per-bucket body
is one lexsort + vectorized segment scan — never one Python call per
key. Both outputs are per-key / per-cohort aggregates (≪ input rows),
so nothing here materializes the event stream.

Scale notes (10¹² events): ``funnel_steps`` prunes to the step types at
the read-side map (rows of other types never enter the shuffle) and
emits exactly one row per key; ``cohort_retention`` pre-aggregates to
distinct ``(key, week)`` pairs inside each batch before its key shuffle
and the final ``(cohort, offset)`` grid is tiny by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import bucketed, default_n_buckets, segments
from fs_schema_validator_ray.state.sketches import key_codes

_SENTINEL = np.iinfo(np.int64).max


def funnel_steps(
    ds,
    key_column: str,
    ts_column: str,
    type_column: str,
    steps: list[str],
    n_buckets: int | None = None,
):
    """Ordered conversion funnel: for each key with at least one
    ``steps[0]`` event, the earliest strictly-increasing completion
    chain — ``t1 = min ts where type = steps[0]``, ``t_k = min ts where
    type = steps[k-1] and ts > t_{k-1}`` (SQL's nested-MIN funnel
    definition; a step event at exactly the previous step's timestamp
    does NOT count).

    Output: one row per qualifying key —
    ``key, steps_completed:int64, t1..tk:int64`` (epoch µs, null from
    the first incomplete step on).
    """
    if len(steps) < 2:
        raise ValueError("a funnel needs at least two steps")
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    step_code = {s: i for i, s in enumerate(steps)}
    t_cols = [f"t{i + 1}" for i in range(len(steps))]

    def prune(t: pa.Table) -> pa.Table:
        # rows of non-step types never enter the shuffle
        keep = pc.is_in(t.column(type_column), value_set=pa.array(steps))
        t = t.filter(keep)
        codes = np.asarray(
            pc.index_in(t.column(type_column), value_set=pa.array(steps))
        ).astype(np.int64)
        return pa.table(
            {
                key_column: t.column(key_column),
                "__ts": pc.cast(t.column(ts_column), pa.int64()),
                "__step": pa.array(codes, pa.int64()),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        sc = np.asarray(group.column("__step"), dtype=np.int64)
        order, seg_start, seg_id, _, _ = segments(key_codes(key_col), ts)
        ts_s, sc_s = ts[order], sc[order]
        n_seg = len(seg_start)
        # per segment, per step: masked running min via minimum.reduceat
        t_prev = np.full(n_seg, -1, np.int64)  # step 1: any ts qualifies
        t_step = np.empty((len(steps), n_seg), np.int64)
        for k in range(len(steps)):
            mask = (sc_s == step_code[steps[k]]) & (ts_s > t_prev[seg_id])
            cand = np.where(mask, ts_s, _SENTINEL)
            tmin = np.minimum.reduceat(cand, seg_start)
            t_step[k] = tmin
            t_prev = np.where(tmin == _SENTINEL, _SENTINEL, tmin)
            # once a step is missing, ts > SENTINEL is never true → later
            # steps come out SENTINEL too (nulls cascade), as SQL's
            # join-on-previous-step chain does
        done = (t_step != _SENTINEL).sum(axis=0).astype(np.int64)
        qual = t_step[0] != _SENTINEL  # had at least one first-step event
        first_rows = pa.array(seg_start[qual], pa.int64())
        out = {key_column: key_col.take(pa.array(order, pa.int64())).take(first_rows)}
        out["steps_completed"] = pa.array(done[qual], pa.int64())
        for k, c in enumerate(t_cols):
            col = t_step[k][qual]
            out[c] = pa.array(col, pa.int64(), mask=col == _SENTINEL)
        return pa.table(out)

    return bucketed(
        ds.select_columns(list(dict.fromkeys([key_column, ts_column, type_column]))),
        [key_column], n_buckets, per_bucket, prune,
    )


def cohort_retention(
    ds,
    key_column: str,
    ts_column: str,
    period_us: int = 7 * 86_400_000_000,
    n_buckets: int | None = None,
):
    """Cohort retention grid: cohort = each key's first active period
    (``epoch_us // period_us``), one output row per ``(cohort, offset)``
    with the count of distinct keys from that cohort active
    ``offset`` periods later.

    Two pre-aggregated exchanges: batches combine to distinct
    ``(key, period)`` pairs before the key-bucket shuffle; each bucket
    re-dedups, takes the per-key min period, emits distinct
    ``(cohort, offset)`` pairs per key, and a tiny final ``group_sum``
    over the (cohort, offset) grid counts keys. Output:
    ``cohort:int64, week_offset:int64, n_users:int64``.
    """
    from fs_schema_validator_ray.stages.agg import group_sum

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def pairs(t: pa.Table) -> pa.Table:
        keys = t.column(key_column).combine_chunks()
        period = (
            np.asarray(pc.cast(t.column(ts_column), pa.int64()), dtype=np.int64)
            // period_us
        )
        order, starts, _, _, _ = segments((key_codes(keys), period))
        first = order[starts]
        return pa.table(
            {
                key_column: keys.take(pa.array(first, pa.int64())),
                "__period": pa.array(period[first], pa.int64()),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        kcode = key_codes(group.column(key_column).combine_chunks())
        period = np.asarray(group.column("__period"), dtype=np.int64)
        # re-dedup across source batches
        order, starts, _, _, _ = segments((kcode, period))
        kc, pd = kcode[order[starts]], period[order[starts]]
        # kc is sorted: its segments are the keys, period-sorted within
        _, _, _, row_start, _ = segments(kc)
        cohort = pd[row_start]
        return pa.table(
            {
                "cohort": pa.array(cohort, pa.int64()),
                "week_offset": pa.array(pd - cohort, pa.int64()),
            }
        )

    pair_ds = bucketed(
        ds.select_columns(list(dict.fromkeys([key_column, ts_column]))),
        [key_column], n_buckets, per_bucket, pairs,
    )
    out = group_sum(pair_ds, ["cohort", "week_offset"], [])

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["n_users" if c == "n" else c for c in t.column_names]
        )

    return out.map_batches(rename, batch_format="pyarrow")
