"""Grouped aggregation over the keyed bucket exchange, plus windowing.

:func:`group_sum` is the package's one grouped integer sum. Each
``map_batches`` task first combines its batch with one Arrow group-by
(one row per key per batch), so with few hot keys (5 event types over
10^12 rows) the exchange moves ``distinct_keys × num_blocks`` rows, not
raw rows; the partials then go through ``exchange.bucketed`` on the keys
(data-sized bucket count; one bucket skips the shuffle), and each bucket
is summed by ONE Arrow group-by over all of its keys. Counts, rollups,
grouping sets, moments and distinct counts are all this one call. (This
generalizes the reference's mergeable-report monoid,
``/root/reference/fs_schema_validator/report.py:44-48``.)

``tumbling_window`` derives a window key from a timestamp column, turning
the same machinery into a windowed aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    bucketed,
    default_n_buckets,
    segments,
)
from fs_schema_validator_ray.state.sketches import key_codes, stable_key_array


def _summed(keys: list[str], cols: list[str]):
    """One Arrow group-by sum of ``cols`` per ``keys``, cast to int64.
    ``n`` is the row count per key, unless ``cols`` already holds an
    ``n`` (an earlier count), which is then summed like the rest."""
    count = "n" not in cols

    def group_sums(batch: pa.Table) -> pa.Table:
        # fail fast on a genuinely missing column (clear error at select)
        tbl = batch.select([*keys, *cols])
        # count_all (not a column count): groups whose KEY is null must
        # still report their row count (cf. stages/unique.py)
        aggs = [(c, "sum") for c in cols] + ([([], "count_all")] if count else [])
        g = pa.TableGroupBy(tbl, keys).aggregate(aggs)
        out = {k: g.column(k) for k in keys}
        for c in cols:
            out[c] = pc.cast(g.column(f"{c}_sum"), pa.int64())
        if count:
            out["n"] = pc.cast(g.column("count_all"), pa.int64())
        return pa.table(out)

    return group_sums


def group_sum(ds, keys: list[str], sum_cols: list[str], n_buckets: int | None = None):
    """Grouped count + integer sums: a Dataset of ``keys + sum_cols +
    ['n']``, one row per distinct key (null keys are a group).

    Each batch is combined first (:func:`_summed`), the partials go
    through ``exchange.bucketed`` on ``keys`` (``n_buckets``, default
    sized by the data), and each bucket is summed by the same one Arrow
    group-by over all of its keys — no per-key Python, no global sort.
    ``keys`` may be composite; ``[]`` is the grand total, one bucket.
    An ``n`` among ``sum_cols`` is re-summed, so a ``group_sum`` output
    re-aggregates to coarser keys (rollups, grouping sets)."""
    if not keys:
        n_buckets = 1
    elif n_buckets is None:
        n_buckets = default_n_buckets(ds)
    merge = _summed(keys, sum_cols if "n" in sum_cols else [*sum_cols, "n"])
    return bucketed(ds, keys, n_buckets, merge, _summed(keys, sum_cols))


def heavy_hitters(
    ds,
    key_column: str,
    phi_num: int = 1,
    phi_den: int = 125,
    k_per_batch: int = 4096,
):
    """EXACT frequent items above a relative threshold without a full
    groupby — the two-pass sketch + verify pattern for skewed keys at
    scale (Misra-Gries / SpaceSaving bound).

    Finds every key whose count ≥ ``ceil(n · phi_num / phi_den)`` where
    ``n`` is the number of non-null key rows (null keys are excluded —
    SQL ``COUNT(col)`` semantics). Returns ``[key_column, cnt]`` with
    EXACT counts.

    Shape (why this beats one :func:`group_sum` over every key of a
    near-unique column):

    1. **Candidate pass** — per batch, exact Arrow ``value_counts``
       truncated to the ``k_per_batch`` most frequent keys; a sentinel
       row carries the batch's row total and the largest DROPPED count
       (``dmax ≤ batch_n/(k+1)``, the (k+1)-th largest count bound).
       Partials are materialized: ≤ ``k+1`` narrow rows per batch, so
       the input is never re-read for the bookkeeping below; one
       ``group_sum`` of the truncated counts gives ``cnt_lower``.
    2. **Bound** — global ``err = Σ dmax ≤ n/(k+1)``. A key's true count
       is within ``[cnt_lower, cnt_lower + err]``, so keys with
       ``cnt_lower ≥ threshold − err`` form a guaranteed SUPERSET of the
       true heavy hitters (no false negatives). The superset is small —
       ≤ ``n/(threshold − err)`` keys — because the threshold is
       relative; requires ``phi > 1/(k_per_batch+1)`` (asserted).
    3. **Verify pass** — broadcast the candidate keys once (``ray.put``),
       count ONLY them per batch (vectorized ``pc.is_in``), a
       ``group_sum`` of those counts, filter ``cnt ≥ threshold``. Exact.

    The input dataset is consumed twice (candidate + verify) — at scale
    that is two pruned single-column scans, vs. one all-to-all shuffle
    of every row for a plain ``group_sum``. Integer threshold arithmetic
    (``(n·num + den−1) // den``) keeps the cutoff bit-exact vs a SQL
    oracle (float ``0.008·n`` would be rounding-dependent at the edge).

    **Deterministic-input requirement**: because the two scans re-execute
    upstream lineage, the input pipeline must yield the same rows on
    every execution (any order). A non-deterministic upstream stage
    (random sampling, an unstable UDF) can make the passes disagree and
    silently void the exactness guarantee — ``.materialize()`` such an
    input first (or restructure it to be deterministic, e.g. hash-based
    sampling) before calling this."""
    import ray

    if not (0 < phi_num < phi_den):
        raise ValueError("phi must be a fraction in (0, 1)")
    if phi_num * (k_per_batch + 1) <= phi_den:
        raise ValueError(
            "phi must exceed 1/(k_per_batch+1) for the candidate bound "
            "to hold (raise k_per_batch or the threshold)"
        )

    def candidate_partial(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks().drop_null()
        key_type = keys.type
        n = len(keys)
        if n == 0:
            return pa.table(
                {
                    key_column: pa.array([], key_type),
                    "cnt": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "dropped": pa.array([], pa.int64()),
                }
            )
        vc = pc.value_counts(keys)
        vals, counts = vc.field("values"), np.asarray(vc.field("counts"))
        dmax = 0
        if len(counts) > k_per_batch:
            top = np.argpartition(counts, -k_per_batch)[-k_per_batch:]
            dropped_mask = np.ones(len(counts), dtype=bool)
            dropped_mask[top] = False
            dmax = int(counts[dropped_mask].max())
            take = pa.array(np.sort(top), pa.int64())
            vals, counts = vals.take(take), counts[top[np.argsort(top)]]
        k = len(counts)
        return pa.table(
            {
                key_column: pa.concat_arrays(
                    [vals, pa.array([None], key_type)]
                ),
                "cnt": pa.array(
                    np.concatenate([counts.astype(np.int64), [0]]), pa.int64()
                ),
                "total": pa.array([0] * k + [n], pa.int64()),
                "dropped": pa.array([0] * k + [dmax], pa.int64()),
            }
        )

    partials = ds.map_batches(
        candidate_partial, batch_format="pyarrow"
    ).materialize()

    # global scalars from the sentinel rows (KB-sized per-block partials)
    def scalar_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "total": pa.array([int(pc.sum(t.column("total")).as_py() or 0)]),
                "dropped": pa.array(
                    [int(pc.sum(t.column("dropped")).as_py() or 0)]
                ),
            }
        )

    sums = partials.map_batches(scalar_partial, batch_format="pyarrow").to_pandas()
    n_total = int(sums["total"].sum())
    err = int(sums["dropped"].sum())
    threshold = (n_total * phi_num + phi_den - 1) // phi_den
    lower_cut = threshold - err

    merged = group_sum(
        partials.map_batches(
            lambda t: t.filter(pc.is_valid(t.column(key_column))).select(
                [key_column, "cnt"]
            ),
            batch_format="pyarrow",
        ),
        [key_column],
        ["cnt"],
    )
    # Ray can emit schemaless zero-column empty blocks — drop them before
    # the concat; the key type is free from the materialized partials.
    key_type = partials.schema().base_schema.field(key_column).type
    cand_blocks = [
        t
        for t in (
            ray.get(ref)
            for ref in merged.map_batches(
                lambda t: t.filter(
                    pc.greater_equal(
                        t.column("cnt"), pa.scalar(lower_cut, pa.int64())
                    )
                ).select([key_column]),
                batch_format="pyarrow",
            ).to_arrow_refs()
        )
        if t.num_columns > 0
    ]
    if cand_blocks:
        cands = (
            pa.concat_tables(cand_blocks).column(key_column).combine_chunks()
        )
    else:
        cands = pa.array([], key_type)
    cand_ref = ray.put(cands)

    empty_out = pa.table(
        {key_column: pa.array([], key_type), "cnt": pa.array([], pa.int64())}
    )

    def verify_partial(batch: pa.Table) -> pa.Table:
        if key_column not in batch.column_names:
            return empty_out
        cands = ray.get(cand_ref)
        keys = batch.column(key_column).combine_chunks().drop_null()
        hits = keys.filter(pc.is_in(keys, value_set=cands))
        if len(hits) == 0:
            return empty_out
        vc = pc.value_counts(hits)
        return pa.table(
            {
                key_column: vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def above_threshold(t: pa.Table) -> pa.Table:
        if "cnt" not in t.column_names:
            return empty_out
        return t.filter(
            pc.greater_equal(t.column("cnt"), pa.scalar(threshold, pa.int64()))
        ).select([key_column, "cnt"])

    exact = group_sum(
        ds.map_batches(verify_partial, batch_format="pyarrow"), [key_column], ["cnt"]
    )
    return exact.map_batches(above_threshold, batch_format="pyarrow")


def pivot_wide(
    ds,
    key_column: str,
    pivot_column: str,
    value_column: str,
    pivot_values: list,
    names: list[str] | None = None,
    n_buckets: int | None = None,
):
    """Crosstab / pivot: one row per key, one int64 sum column per listed
    pivot value (SQL ``SUM(CASE WHEN pivot = v THEN value ELSE 0 END)``
    shape), plus total row count ``n``.

    Semantics match the SQL form exactly: EVERY key appears (a key whose
    rows all have unlisted / null pivot values still emits, with zeros),
    unlisted pivot values contribute only to ``n``, null values sum as 0.
    ``value_column`` must already be int64 (e.g. cents) so the
    distributed sum is order-insensitive.

    Plan: per-batch narrow Arrow ``group_by(key, pivot)`` combiner →
    vectorized widen (np.unique inverse + masked scatter-add; no Python
    per key or per value-row) → ONE 256-way bucketed shuffle of the wide
    partials (≤ distinct-keys-per-batch rows, ``2 + len(pivot_values)``
    int64 columns) → one Arrow group_by per bucket. Never shuffles raw
    rows, never sorts raw keys — same discipline as
    ``group_sum``, with the wide schema fixed at plan time.
    """

    if names is None:
        names = [str(v) for v in pivot_values]
    if len(names) != len(pivot_values):
        raise ValueError("names must parallel pivot_values")
    reserved = {key_column, "n", "__bucket"}
    if reserved & set(names) or len(set(names)) != len(names):
        raise ValueError(f"pivot column names collide: {names}")
    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        tbl = batch.select([key_column, pivot_column, value_column])
        g = pa.TableGroupBy(tbl, [key_column, pivot_column]).aggregate(
            [(value_column, "sum"), ([], "count_all")]
        )
        k_arr = g.column(key_column).combine_chunks()
        kk = stable_key_array(k_arr)
        uniq, first_idx, inv = np.unique(kk, return_index=True, return_inverse=True)
        n_keys = len(uniq)
        sums = np.asarray(
            pc.cast(pc.fill_null(g.column(f"{value_column}_sum"), 0), pa.int64())
        )
        cnts = np.asarray(pc.cast(g.column("count_all"), pa.int64()))
        piv = g.column(pivot_column).combine_chunks()
        out = {key_column: k_arr.take(pa.array(first_idx, pa.int64()))}
        for v, nm in zip(pivot_values, names):
            mask = np.asarray(pc.fill_null(pc.equal(piv, v), False))
            col = np.zeros(n_keys, np.int64)
            np.add.at(col, inv[mask], sums[mask])
            out[nm] = pa.array(col)
        n_col = np.zeros(n_keys, np.int64)
        np.add.at(n_col, inv, cnts)
        out["n"] = pa.array(n_col)
        return pa.table(out)

    sum_cols = [*names, "n"]

    def merge_bucket(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, [key_column]).aggregate(
            [(c, "sum") for c in sum_cols]
        )
        out = {key_column: g.column(key_column)}
        for c in sum_cols:
            out[c] = pc.cast(g.column(f"{c}_sum"), pa.int64())
        return pa.table(out)

    return bucketed(ds, [key_column], n_buckets, merge_bucket, partial)


def salted_topk_per_key(
    ds,
    key_column: str,
    value_column: str,
    k: int,
    tiebreak_column: str,
    salt: int = 16,
):
    """Per-key top-k with **salted keys** for hot-key skew (north_star):
    phase 1 shuffles on ``hash(key, salt) % n_buckets`` — a key with
    10^9 rows lands in ``salt`` buckets of manageable size — and each
    bucket reduces EVERY (key, salt) group it holds to its local top-k
    in ONE vectorized segment scan (lexsort + per-segment cumcount; one
    Python call per bucket, not per (key, salt) group — the same
    bucketed-merge pattern as ``unique.py``). Phase 2 shuffles the
    ≤ ``salt × k`` survivors per key on ``hash(key)`` and repeats the
    scan for the final top-k. Order: ``value desc, tiebreak asc``
    (deterministic). Scale-safe at high key cardinality: work per
    Python call is bucket-sized, never group-count-sized.
    """
    n_buckets = default_n_buckets(ds)

    def add_salt(batch: pa.Table) -> pa.Table:
        sv = np.asarray(batch.column(tiebreak_column)) % salt
        return batch.append_column("__salt", pa.array(sv.astype(np.int32)))

    def bucket_topk(group: pa.Table) -> pa.Table:
        """One vectorized pass: top-k rows per (key, salt) — or per key
        once the salt is gone — segment inside the bucket group."""
        vals = np.asarray(group.column(value_column))
        tb = np.asarray(group.column(tiebreak_column))
        seg = key_codes(group.column(key_column)).astype(np.int64)
        if "__salt" in group.column_names:
            seg = seg * salt + np.asarray(group.column("__salt"), dtype=np.int64)
            group = group.drop_columns(["__salt"])
        order, _, _, row_start, _ = segments(seg, -vals, tb)
        keep = order[np.arange(len(order)) - row_start < k]
        return group.take(pa.array(np.sort(keep), pa.int64()))

    phase1 = bucketed(ds, [key_column, "__salt"], n_buckets, bucket_topk, add_salt)
    return bucketed(phase1, [key_column], n_buckets, bucket_topk)


def sessionize(
    ds,
    key_column: str,
    ts_column: str,
    gap,
):
    """Gap-based sessionization: events of one key whose timestamps are
    within ``gap`` of the previous event share a session. The stateful
    streaming-window op expressed batch-first: ONE keyed bucket exchange
    of the pruned columns, then per-bucket sort + vectorized gap
    diff. Emits one row per session:
    ``(key, session_start, session_end, n_events)``.

    ``gap`` and the emitted bounds are in the timestamp's native int64
    unit (cast upstream). The shuffle key is a coarse bucket of the key
    (one FULLY-vectorized ``map_groups`` call per bucket — session
    boundaries for every key in the bucket come from one lexsort + one
    diff; grouping by the raw key would cost one Python call per key).
    Partitioning assumption: one key's events fit one bucket group —
    salt pathologically hot keys upstream.
    """
    n_buckets = default_n_buckets(ds)
    cols = [key_column, ts_column]

    def cast_ts(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_column: t.column(key_column),
                ts_column: pc.cast(t.column(ts_column), pa.int64()),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        ts = np.asarray(group.column(ts_column), dtype=np.int64)
        # sortable key proxy: encoded indices keep arbitrary key types
        # (strings, nulls) groupable without dtype games
        order, _, _, row_start, _ = segments(key_codes(key_col), ts)
        ts_s = ts[order]
        starts = row_start == np.arange(len(ts_s))
        starts[1:] |= np.diff(ts_s) > int(gap)
        first = np.flatnonzero(starts)
        last = np.concatenate([first[1:] - 1, [len(ts_s) - 1]])
        take = pa.array(order[first], pa.int64())
        return pa.table(
            {
                key_column: key_col.take(take),
                "session_start": pa.array(ts_s[first], pa.int64()),
                "session_end": pa.array(ts_s[last], pa.int64()),
                "n_events": pa.array(
                    np.diff(np.concatenate([first, [len(ts_s)]])), pa.int64()
                ),
            }
        )

    return bucketed(ds.select_columns(cols), [key_column], n_buckets, per_bucket, cast_ts)


def stratified_sample(ds, group_column: str, order_column: str, k: int):
    """Deterministic stratified sampling: every k-th row per group under
    a total per-group order (rows 1, k+1, 2k+1, … — equal sampling
    pressure per stratum regardless of stratum size), exactly SQL's
    ``row_number() OVER (PARTITION BY g ORDER BY o) % k = 1 % k``
    (the ``1 % k`` spelling keeps k=1 meaning "all rows" on both sides).

    ONE ``groupby(group)`` shuffle of the pruned two columns, per-group
    vectorized argsort + stride slice. Partitioning assumption: one
    stratum's (group, order) rows fit one group — for few huge strata at
    corpus scale, pre-split each stratum by an order-key range and merge
    counts, or fall back to hash-mod sampling (``sample_mod``) when
    row-number semantics aren't required.
    """

    if k < 1:
        raise ValueError(f"stratified_sample requires k >= 1, got {k}")

    def per_group(group: pa.Table) -> pa.Table:
        order_vals = group.column(order_column)
        order = np.argsort(
            np.asarray(pc.cast(order_vals, pa.int64()), dtype=np.int64),
            kind="stable",
        )
        take = pa.array(order[::k], pa.int64())  # rows 1, k+1, 2k+1, ...
        return group.select([group_column, order_column]).take(take)

    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return (
        ds.select_columns([group_column, order_column])
        .groupby(group_column)
        .map_groups(per_group, batch_format="pyarrow")
    )


def grouped_quantile_disc(
    ds, key_column: str, value_column: str, qs: list[float], interpolate: bool = False
):
    """EXACT per-key discrete quantiles (SQL ``quantile_disc``) with a
    (key, value)-count combiner: each batch pre-aggregates to distinct
    ``(key, value, count)`` rows (a huge reduction when the value column
    has bounded cardinality — e.g. quantities, durations, scores), ONE
    bucketed shuffle of those partials, then one fully-vectorized
    weighted-quantile pass per bucket (lexsort + cumsum + ONE
    ``searchsorted`` across all keys in the bucket — no per-key Python).

    Semantics match DuckDB ``quantile_disc(v, q)`` exactly: the element
    at 0-based index ``ceil(q*n) - 1`` of the sorted non-null values
    (verified empirically). Nulls are excluded from both the quantile
    and the returned ``n`` (= ``COUNT(value)``); a key whose values are
    ALL null still emits its group row with ``n = 0`` and NULL
    quantiles, matching SQL GROUP BY. Use dyadic ``q``
    (0.25/0.5/0.75) for bit-exact oracle parity — ``ceil`` of an
    inexact float product can differ by one element either side.

    Output: ``(key, n, q_<pct> …)`` e.g. ``q_50`` for 0.5. For the
    shuffle-free approximate path over unbounded-cardinality values, use
    the t-digest sketches in ``pipelines/stats.py``.

    ``interpolate=True`` switches to SQL ``PERCENTILE_CONT`` semantics:
    linear interpolation at 0-based position ``q·(n−1)`` —
    ``lo + (hi−lo)·frac`` in float64, emitted as ``p_<pct>`` columns
    ROUNDed to 6 decimals (dyadic ``q`` keeps ``frac`` exact on both
    engines, the same oracle protocol as ``corr6``).
    """
    n_buckets = default_n_buckets(ds)
    prefix = "p" if interpolate else "q"
    qcols = [f"{prefix}_{int(round(q * 100))}" for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        # null values group too: a key whose values are ALL null must
        # still reach per_bucket (SQL GROUP BY emits it with n=0 and
        # NULL quantiles); the null-value partial rows carry only key
        # presence — per_bucket excludes them from n and the quantiles
        t = t.select([key_column, value_column])
        g = pa.TableGroupBy(t, [key_column, value_column]).aggregate([([], "count_all")])
        return pa.table(
            {
                key_column: g.column(key_column),
                value_column: g.column(value_column),
                "c": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        val_col = group.column(value_column).combine_chunks()
        kcode = key_codes(key_col)
        vmask = np.asarray(pc.is_valid(val_col))
        # keys seen ONLY with null values → (key, n=0, NULL quantiles)
        missing = np.setdiff1d(kcode[~vmask], kcode[vmask])
        valid_idx = np.flatnonzero(vmask)
        kcode_v = kcode[valid_idx]
        vals = np.asarray(val_col.take(pa.array(valid_idx, pa.int64())))
        c = np.asarray(group.column("c"), dtype=np.int64)[valid_idx]
        order, starts, _, _, _ = segments(kcode_v, vals)
        gc = np.cumsum(c[order])  # global inclusive cumulative count
        excl = np.concatenate([[0], gc])[starts]  # count before each key
        ends = np.append(starts[1:], len(order))
        n_k = gc[ends - 1] - excl if len(starts) else np.zeros(0, np.int64)
        rep = pa.array(valid_idx[order[starts]], pa.int64())
        out = {key_column: key_col.take(rep), "n": pa.array(n_k, pa.int64())}
        for q, qc in zip(qs, qcols):
            if interpolate:
                # PERCENTILE_CONT: position q·(n−1), lo + (hi−lo)·frac
                pos = q * (n_k - 1).astype(np.float64)
                t_lo = np.floor(pos).astype(np.int64)
                t_hi = np.ceil(pos).astype(np.int64)
                frac = pos - t_lo
                j_lo = np.searchsorted(gc, excl + t_lo + 1, side="left")
                j_hi = np.searchsorted(gc, excl + t_hi + 1, side="left")
                v_lo = np.asarray(
                    val_col.take(pa.array(valid_idx[order[j_lo]], pa.int64())),
                    dtype=np.float64,
                )
                v_hi = np.asarray(
                    val_col.take(pa.array(valid_idx[order[j_hi]], pa.int64())),
                    dtype=np.float64,
                )
                out[qc] = pa.array(
                    np.round(v_lo + (v_hi - v_lo) * frac, 6), pa.float64()
                )
            else:
                # DuckDB quantile_disc index: ceil(q*n) - 1 (0-based)
                tgt = np.ceil(q * n_k).astype(np.int64) - 1
                tgt = np.maximum(tgt, 0)
                # first sorted slot whose cumulative count exceeds the target
                j = np.searchsorted(gc, excl + tgt + 1, side="left")
                out[qc] = val_col.take(pa.array(valid_idx[order[j]], pa.int64()))
        if len(missing):
            # first group-row index of each all-null key (stable argsort)
            sidx = np.argsort(kcode, kind="stable")
            first_idx = sidx[np.searchsorted(kcode[sidx], missing)]
            tables = [
                pa.table(out),
                pa.table(
                    {
                        key_column: key_col.take(pa.array(first_idx, pa.int64())),
                        "n": pa.array(np.zeros(len(missing), np.int64)),
                        **{
                            qc: pa.nulls(
                                len(missing),
                                pa.float64() if interpolate else val_col.type,
                            )
                            for qc in qcols
                        },
                    }
                ),
            ]
            return pa.concat_tables(tables)
        return pa.table(out)

    return bucketed(
        ds.select_columns([key_column, value_column]), [key_column], n_buckets,
        per_bucket, partial,
    )


def iqr_outlier_filter(
    ds,
    key_column: str,
    value_column: str,
    passthrough: list[str] | None = None,
    k_num: int = 3,
    k_den: int = 2,
):
    """Per-key Tukey-fence outlier detection: rows whose value falls
    outside ``[q1 − k·IQR, q3 + k·IQR]`` with ``k = k_num/k_den`` (default
    3/2 = the classic 1.5). Composition of existing machinery: the exact
    grouped quantiles run as ONE combiner shuffle of distinct
    ``(key, value, count)`` partials (``grouped_quantile_disc``), the
    per-key bounds (few groups by contract — this is the low-cardinality
    grouping shape) come back to the driver as a KB-sized table, and the
    outlier test is a stateless broadcast-filter pass.

    Integer-exact (hash-exact vs SQL): the fence test multiplies through
    by ``k_den`` — ``k_den·v < k_den·q1 − k_num·(q3−q1)`` — so no float
    ever appears. Null values and keys with no non-null values are never
    outliers (SQL WHERE semantics). Emits the outlier rows with
    ``passthrough`` columns plus ``key, value, q_25, q_75``.

    Scale: the bounds table (one row per key) is shipped ONCE via
    ``ray.put`` and each worker process builds a vectorized hash index
    from it once (cached per ObjectRef) — no driver-side Python dict
    probed per row, no per-batch re-ship. Works at millions of keys:
    the per-batch lookup is one ``pd.Index.get_indexer`` C call.

    Deterministic-input requirement (same as ``heavy_hitters``): the
    input is consumed twice (quantile pass + filter pass) via lineage
    re-execution — a non-deterministic upstream stage would let the
    passes disagree; ``.materialize()`` such an input first."""
    import ray

    import pandas as pd

    cols = [key_column, value_column, *(passthrough or [])]
    parts = list(
        grouped_quantile_disc(
            ds.select_columns([key_column, value_column]), key_column,
            value_column, [0.25, 0.75],
        ).iter_batches(batch_format="pyarrow")  # one row per key: KB-MB sized
    )
    if parts:
        bounds_tbl = pa.concat_tables(parts)
        ok = pc.and_(
            pc.is_valid(bounds_tbl.column("q_25")),
            pc.is_valid(bounds_tbl.column("q_75")),
        )
        bounds_tbl = bounds_tbl.filter(ok)
        keys_pd = bounds_tbl.column(key_column).to_pandas()
        q1 = np.asarray(bounds_tbl.column("q_25"), dtype=np.int64)
        q3 = np.asarray(bounds_tbl.column("q_75"), dtype=np.int64)
    else:
        keys_pd = pd.Series([], dtype=object)
        q1 = q3 = np.empty(0, dtype=np.int64)
    iqr = q3 - q1
    bounds_ref = ray.put(
        {
            "keys": keys_pd,
            "lo": k_den * q1 - k_num * iqr,
            "hi": k_den * q3 + k_num * iqr,
            "q1": q1,
            "q3": q3,
        }
    )

    def flag_with_q(t: pa.Table) -> pa.Table:
        state = _iqr_bounds_index(bounds_ref)  # built once per worker process
        t = t.select(cols)
        idx = state["index"].get_indexer(t.column(key_column).to_pandas())
        v = t.column(value_column)
        valid = np.asarray(pc.is_valid(v)) & (idx >= 0)
        vv = np.asarray(pc.fill_null(pc.cast(v, pa.int64()), 0), dtype=np.int64)
        ok_idx = np.maximum(idx, 0)
        scaled = k_den * vv
        out = valid & (
            (scaled < state["lo"][ok_idx]) | (scaled > state["hi"][ok_idx])
        )
        kept = t.filter(pa.array(out))
        kidx = idx[out]
        return kept.append_column(
            "q_25", pa.array(state["q1"][kidx], pa.int64())
        ).append_column("q_75", pa.array(state["q3"][kidx], pa.int64()))

    return ds.map_batches(flag_with_q, batch_format="pyarrow")


_IQR_INDEX_CACHE: dict = {}


def _iqr_bounds_index(bounds_ref):
    """Per-worker-process cache: ObjectRef → vectorized lookup state
    (pandas hash Index over the bounds keys + numpy bound arrays). The
    ``ray.put`` payload is fetched zero-copy from the local object store
    once per process, not per batch."""
    import pandas as pd
    import ray

    key = bounds_ref.hex()
    state = _IQR_INDEX_CACHE.get(key)
    if state is None:
        raw = ray.get(bounds_ref)
        state = {
            "index": pd.Index(raw["keys"]),
            "lo": raw["lo"],
            "hi": raw["hi"],
            "q1": raw["q1"],
            "q3": raw["q3"],
        }
        if len(_IQR_INDEX_CACHE) >= 4:  # bound memory; keep concurrent filters warm
            _IQR_INDEX_CACHE.pop(next(iter(_IQR_INDEX_CACHE)))
        _IQR_INDEX_CACHE[key] = state
    return state


def rollup_sum(ds, keys: list[str], sum_cols: list[str]):
    """``GROUP BY ROLLUP(keys)``: subtotals at every key prefix plus the
    grand total, rolled-up key columns emitted as typed nulls.

    Single pass over the raw data: the finest level is one
    ``group_sum``; every coarser level CASCADES from the one-step-finer
    AGGREGATE (distinct-combos-sized, materialized once) by a
    ``group_sum`` that re-sums ``n`` — int64 sums re-aggregate exactly,
    so no level re-reads the corpus.
    Assumes no null data keys (SQL ROLLUP's GROUPING() disambiguation
    between data null and rollup null is not modeled — document or
    pre-filter if your keys are nullable)."""
    if not keys:
        raise ValueError("rollup_sum needs at least one key")
    meas = [*sum_cols, "n"]
    levels = [list(keys[:i]) for i in range(len(keys), -1, -1)]
    parts = [group_sum(ds, keys, sum_cols).materialize()]
    for level_keys in levels[1:]:
        parts.append(group_sum(parts[-1], level_keys, meas))
    return _union_levels(ds, keys, meas, parts, levels)


def grouping_sets_sum(ds, keys: list[str], sets: list[list[str]], sum_cols: list[str]):
    """``GROUP BY GROUPING SETS(sets)`` generalization of ``rollup_sum``:
    one ``group_sum`` over the raw data at the FINEST grouping (the union
    of all requested keys), materialized once; every requested set then
    re-aggregates from that distinct-combos-sized table by a
    ``group_sum`` that re-sums ``n`` — int64 sums re-aggregate exactly,
    so no set re-reads the corpus. Same null-key caveat as
    ``rollup_sum`` (set-null vs data-null not disambiguated)."""
    if not sets:
        raise ValueError("grouping_sets_sum needs at least one set")
    for s in sets:
        unknown = [k for k in s if k not in keys]
        if unknown:
            raise ValueError(f"set keys {unknown} not in keys {keys}")
    meas = [*sum_cols, "n"]
    finest = group_sum(ds, keys, sum_cols).materialize()
    parts = [
        finest if sorted(s) == sorted(keys) else group_sum(finest, list(s), meas)
        for s in sets
    ]
    return _union_levels(ds, keys, meas, parts, sets)


def _union_levels(ds, keys, meas, parts, level_keys):
    """Union of the grouping levels ``parts``, each widened to the full
    ``keys`` schema: its keys not in its ``level_keys`` become typed
    nulls."""
    types = {k: ds.schema().base_schema.field(k).type for k in keys}

    def widen(lk: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            cols = {k: t.column(k) if k in lk else pa.nulls(t.num_rows, types[k]) for k in keys}
            return pa.table({**cols, **{c: t.column(c) for c in meas}})

        return fn

    out = None
    for part, lk in zip(parts, level_keys):
        lvl = part.map_batches(widen(list(lk)), batch_format="pyarrow")
        out = lvl if out is None else out.union(lvl)
    return out


def group_moments(ds, keys: list[str], x_col: str, y_col: str, include_slope=False):
    """Grouped second-moment statistics via the exact-integer combiner:
    one ``group_sum`` of ``x, y, x², (y²,) x·y`` per row (inputs must
    already be int64, e.g. cents), then the finals computed from the
    exact sums with the identical expression a SQL oracle spells out
    (hash-exact).

    ``include_slope=False`` (default — covariance/correlation): output
    ``keys + [n, sum_x, sum_y, sum_xy, cov_num, corr6]`` where
    ``cov_num = n·Σxy − Σx·Σy`` is EXACT int64 and Pearson ``corr6`` is
    the float64 expression over the exact sums rounded to 6.

    ``include_slope=True`` (OLS slope of y on x, SQL ``REGR_SLOPE``):
    output ``keys + [n, sum_x, sum_y, sum_xy, slope6]``. This mode skips
    ``y²`` entirely (no per-row multiply, no extra shuffle column) and
    computes the numerator in FLOAT64 — ``n·Σxy`` routinely exceeds
    int64 when y is cents at scale, which is also why cov_num/corr6 are
    NOT emitted in this mode (they would silently wrap; both engines run
    the identical IEEE expression over identical exact int64 sums, so
    slope6 stays hash-exact).

    Caller owns overflow headroom for the SUMS themselves: |x|,|y| small
    enough that per-group Σx², Σxy (and Σy², n·Σxy in corr mode) fit
    int64 — document per use."""

    def products(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.int64())
        y = pc.cast(batch.column(y_col), pa.int64())
        data = {
            **{k: batch.column(k) for k in keys},
            "sum_x": x,
            "sum_y": y,
            "sxx": pc.multiply_checked(x, x),
            "sum_xy": pc.multiply_checked(x, y),
        }
        if not include_slope:
            data["syy"] = pc.multiply_checked(y, y)
        return pa.table(data)

    sums = ["sum_x", "sum_y", "sxx", "sum_xy", *([] if include_slope else ["syy"])]
    merged = group_sum(ds.map_batches(products, batch_format="pyarrow"), keys, sums)

    def finish(t: pa.Table) -> pa.Table:
        n = np.asarray(t.column("n"), dtype=np.int64)
        sx = np.asarray(t.column("sum_x"), dtype=np.int64)
        sy = np.asarray(t.column("sum_y"), dtype=np.int64)
        sxx = np.asarray(t.column("sxx"), dtype=np.int64)
        sxy = np.asarray(t.column("sum_xy"), dtype=np.int64)
        # identical float64 expression to the SQL oracle: every operand is
        # an exactly-converted int64 → deterministic IEEE result
        vx = n.astype(np.float64) * sxx - sx.astype(np.float64) * sx
        out = {
            **{k: t.column(k) for k in keys},
            "n": pa.array(n),
            "sum_x": pa.array(sx),
            "sum_y": pa.array(sy),
            "sum_xy": pa.array(sxy),
        }
        if include_slope:
            num = (
                n.astype(np.float64) * sxy.astype(np.float64)
                - sx.astype(np.float64) * sy.astype(np.float64)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.where(vx > 0, num / vx, np.nan)
            out["slope6"] = pa.array(np.round(slope, 6))
        else:
            syy = np.asarray(t.column("syy"), dtype=np.int64)
            cov_num = n * sxy - sx * sy  # exact int64 (caller headroom)
            vy = n.astype(np.float64) * syy - sy.astype(np.float64) * sy
            denom = np.sqrt(vx * vy)
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(denom > 0, cov_num / denom, np.nan)
            out["cov_num"] = pa.array(cov_num)
            out["corr6"] = pa.array(np.round(corr, 6))
        return pa.table(out)

    return merged.map_batches(finish, batch_format="pyarrow")


def grouped_skew_kurtosis(ds, keys: list[str], x_col: str):
    """Grouped POPULATION skewness + excess kurtosis via the exact
    integer power sums (one ``group_sum`` of x..x⁴ per row), finals
    computed from the exact sums with the identical float64 expression
    a SQL oracle spells out (``ROUND(·,6)`` protocol — the same move as
    ``corr6``/``slope6``).

    Caller owns overflow headroom: |x| small enough that per-group Σx⁴
    fits int64 (e.g. TPC-H ``l_quantity`` ≤ 50 → x⁴ ≤ 6.25e6; exact up
    to ~1.5e12 rows per group). Output:
    ``keys + [n, skew6, kurt6]`` (NaN for degenerate groups)."""

    def powers(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.int64())
        x2 = pc.multiply_checked(x, x)
        return pa.table(
            {
                **{k: batch.column(k) for k in keys},
                "sx": x,
                "sxx": x2,
                "sxxx": pc.multiply_checked(x2, x),
                "sxxxx": pc.multiply_checked(x2, x2),
            }
        )

    merged = group_sum(
        ds.map_batches(powers, batch_format="pyarrow"), keys, ["sx", "sxx", "sxxx", "sxxxx"]
    )

    def finish(t: pa.Table) -> pa.Table:
        n = np.asarray(t.column("n"), dtype=np.int64).astype(np.float64)
        s1 = np.asarray(t.column("sx"), dtype=np.int64).astype(np.float64)
        s2 = np.asarray(t.column("sxx"), dtype=np.int64).astype(np.float64)
        s3 = np.asarray(t.column("sxxx"), dtype=np.int64).astype(np.float64)
        s4 = np.asarray(t.column("sxxxx"), dtype=np.int64).astype(np.float64)
        # population central moments from raw power sums — keep this
        # expression STRUCTURALLY IDENTICAL to the SQL oracle
        m1 = s1 / n
        m2 = s2 / n - m1 * m1
        m3 = s3 / n - 3 * m1 * (s2 / n) + 2 * m1 * m1 * m1
        m4 = (
            s4 / n
            - 4 * m1 * (s3 / n)
            + 6 * m1 * m1 * (s2 / n)
            - 3 * m1 * m1 * m1 * m1
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            skew = np.where(m2 > 0, m3 / np.power(m2, 1.5), np.nan)
            kurt = np.where(m2 > 0, m4 / (m2 * m2) - 3.0, np.nan)
        return pa.table(
            {
                **{k: t.column(k) for k in keys},
                "n": pa.array(n.astype(np.int64)),
                "skew6": pa.array(np.round(skew, 6)),
                "kurt6": pa.array(np.round(kurt, 6)),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def cube_sum(ds, keys: list[str], sum_cols: list[str]):
    """``GROUP BY CUBE(keys)``: every subset of the keys (2^k grouping
    sets) from one combiner pass — the powerset fed to
    ``grouping_sets_sum``. Keys must be few (CUBE is exponential by
    definition); the raw data is still read exactly once."""
    sets: list[list[str]] = [[]]
    for k in keys:
        sets = sets + [s + [k] for s in sets]
    # emit finest-first for readability; order is irrelevant to the result
    sets.sort(key=len, reverse=True)
    return grouping_sets_sum(ds, keys, sets, sum_cols)


def hopping_window(
    ds,
    ts_column: str,
    size_us: int,
    hop_us: int,
    out_column: str = "window_start_us",
):
    """Attach OVERLAPPING hopping-window keys: each row expands to
    ``size/hop`` rows, one per window ``[w, w+size)`` containing its
    timestamp (window starts aligned to multiples of ``hop``). Stateless
    vectorized flat-map (np.repeat row fan-out); feed the result to
    ``group_sum`` for a sliding-window aggregate. Fan-out is the
    size/hop ratio — keep it small (2-8) or pre-aggregate per hop and
    roll up windows from hop partials downstream."""
    if size_us % hop_us != 0:
        raise ValueError("hopping_window: size_us must be a multiple of hop_us")
    k = size_us // hop_us

    def attach(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_column)
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        ts_i64 = pc.cast(ts, pa.int64())
        # null-safe: fill for the arithmetic, re-mask after (a null ts
        # must yield null window keys like epoch_us(NULL) in SQL — a
        # bare to_numpy would round-trip nulls through float64 garbage)
        null_mask = np.asarray(pc.is_null(ts_i64))
        ts_us = np.asarray(pc.fill_null(ts_i64, 0), dtype=np.int64)
        n = len(ts_us)
        base = (ts_us // hop_us) * hop_us  # numpy floor division: negatives ok
        starts = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * hop_us, n
        )
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        win = pa.array(starts, pa.int64(), mask=np.repeat(null_mask, k))
        return batch.take(idx).append_column(out_column, win)

    return ds.map_batches(attach, batch_format="pyarrow")


def tumbling_window(ds, ts_column: str, every: str = "day", out_column: str = "window"):
    """Attach a tumbling-window key derived from a timestamp column
    (vectorized ``floor_temporal`` + ``strftime`` → stable string key)."""
    fmt = {
        "day": "%Y-%m-%d",
        "hour": "%Y-%m-%d %H:00",
        "week": "%Y-%m-%d",  # week-start (Monday) date, date_trunc parity
        "month": "%Y-%m",
    }[every]
    unit = {"day": "day", "hour": "hour", "week": "week", "month": "month"}[every]

    def attach(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_column)
        win = pc.strftime(pc.floor_temporal(ts, unit=unit), format=fmt)
        return batch.append_column(out_column, win)

    return ds.map_batches(attach, batch_format="pyarrow")


def group_argmax(ds, key_column: str, order_columns: list[str], n_buckets=None):
    """Per-key ARG-MAX with counts: for each key, the row maximal under
    lexicographic ``order_columns`` plus the key's total row count —
    "latest order per customer" in one pass. SQL shape::

        SELECT ... QUALIFY ROW_NUMBER() OVER (PARTITION BY key
                   ORDER BY o1 DESC, o2 DESC) = 1   (+ COUNT(*) OVER key)

    Combiner discipline: each batch reduces to ONE row per distinct key
    (argmax + count via a single lexsort/segment scan), partials shuffle
    keyed by the 256-way bucket of the key hash, each bucket merges with
    the same scan (counts summed with ``np.add.reduceat``). Null order
    values lose to any non-null (a key whose rows are ALL null emits its
    null row — SQL MAX-ignores-nulls analogue); make ``order_columns``
    total per key (append a unique id) for a deterministic winner.
    """
    from fs_schema_validator_ray.stages.window import _order_arrays

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)
    cols = list(dict.fromkeys([key_column, *order_columns]))

    def argmax_scan(t: pa.Table, counts: np.ndarray) -> pa.Table:
        n = t.num_rows
        if n == 0:
            out = {c: t.column(c).slice(0, 0) for c in cols}
            out["n"] = pa.array([], pa.int64())
            return pa.table(out)
        sig: list[np.ndarray] = []
        for c in order_columns:
            isnull, vals = _order_arrays(t.column(c))
            sig.append(~isnull)  # valid sorts AFTER null → null loses
            sig.append(vals)
        order, starts, _, _, _ = segments(
            key_codes(t.column(key_column).combine_chunks()), *sig
        )
        last = np.append(starts[1:], n) - 1
        take = pa.array(order[last], pa.int64())
        out = {c: t.column(c).take(take) for c in cols}
        out["n"] = pa.array(np.add.reduceat(counts[order], starts), pa.int64())
        return pa.table(out)

    def partial(t: pa.Table) -> pa.Table:
        return argmax_scan(t.select(cols), np.ones(t.num_rows, np.int64))

    def merge_bucket(group: pa.Table) -> pa.Table:
        return argmax_scan(group, np.asarray(group.column("n"), dtype=np.int64))

    return bucketed(ds, [key_column], n_buckets, merge_bucket, partial)


def histogram_fixed_width(ds, value_column: str, width: int):
    """Equi-width histogram over an int64 column: ``bin = value // width``
    (floor), exact per-bin count / min / max. Per-batch ``TableGroupBy``
    combiner reduces each block to one row per bin, so the final builtin
    groupby only shuffles the LOW-cardinality bin partials (value-range /
    width rows per block, not data rows). Null values drop (SQL GROUP BY
    over an expression of a null row would keep a null bin — callers that
    want that can fill upstream)."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(value_column)
        v = np.asarray(
            pa.table({"v": col}).filter(pc.is_valid(col)).column("v"),
            dtype=np.int64,
        )
        tbl = pa.table(
            {
                "bin": pa.array(np.floor_divide(v, width), pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )
        g = pa.TableGroupBy(tbl, ["bin"]).aggregate(
            [("v", "min"), ("v", "max"), ([], "count_all")]
        )
        return pa.table(
            {
                "bin": g.column("bin"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
                "min_v": g.column("v_min"),
                "max_v": g.column("v_max"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # native groupby: Min/Max, which group_sum does not merge
    out = partials.groupby("bin").aggregate(
        Sum("n", alias_name="n"),
        Min("min_v", alias_name="min_v"),
        Max("max_v", alias_name="max_v"),
    )
    # union a typed 0-row block: an all-null/empty column otherwise yields
    # a schemaless Dataset (groupby over 0 rows produces no blocks)
    import ray.data as rd

    empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "min_v": pa.array([], pa.int64()),
            "max_v": pa.array([], pa.int64()),
        }
    )
    return out.union(rd.from_arrow(empty))


def group_entropy(ds, group_column: str, category_column: str):
    """Shannon entropy (nats) of the category distribution within each
    group: ``H = ln(n) − Σ c·ln(c) / n`` over exact distributed counts.

    The only float math happens once, on the tiny (groups × categories)
    counts table — everything upstream is the integer ``group_sum``
    combiner. Rounded to 6 decimals (``entropy6``) so the result is
    insensitive to float summation order and can gate against a SQL
    oracle, same protocol as ``group_moments``'s ``corr6``."""
    counts = group_sum(
        ds.select_columns([group_column, category_column]),
        [group_column, category_column],
        [],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    group_column: t.column(group_column).slice(0, 0),
                    "n": pa.array([], pa.int64()),
                    "entropy6": pa.array([], pa.float64()),
                }
            )
        order, starts, _, _, _ = segments(key_codes(t.column(group_column).combine_chunks()))
        c = np.asarray(t.column("n"), dtype=np.int64)[order].astype(np.float64)
        n_per = np.add.reduceat(c, starts)
        clnc = np.add.reduceat(c * np.log(c), starts)
        ent = np.round(np.log(n_per) - clnc / n_per, 6)
        take = pa.array(order[starts], pa.int64())
        return pa.table(
            {
                group_column: t.column(group_column).take(take),
                "n": pa.array(n_per.astype(np.int64), pa.int64()),
                "entropy6": pa.array(ent, pa.float64()),
            }
        )

    # the counts table is groups × categories rows (KBs) — one partition
    # holds it all and keeps the per-group segment sums single-pass
    return counts.repartition(1).map_batches(finish, batch_format="pyarrow")


def winsorize(
    ds,
    value_column: str,
    id_columns: list[str],
    lo_q: float = 1.0 / 64,
    hi_q: float = 63.0 / 64,
):
    """Winsorization — the outlier-capping cleaning step (clip values at
    EXACT low/high quantiles instead of dropping rows): two
    ``quantile_disc`` bounds from the (value, count) combiner pass
    (``grouped_quantile_disc`` with a constant group — KB shuffle for
    bounded-cardinality values), broadcast as plain ints into a
    stateless clip ``map_batches``. Dyadic quantiles (default 1/64,
    63/64) keep ``ceil(q·n)`` bit-exact on both engines (the helper's
    documented oracle protocol). Output: ``(*id_columns, value,
    value_w, clipped)``."""
    bounds_ds = grouped_quantile_disc(
        ds.map_batches(
            lambda t: t.append_column(
                "__g", pa.array(np.zeros(t.num_rows, np.int8))
            ),
            batch_format="pyarrow",
        ),
        "__g",
        value_column,
        [lo_q, hi_q],
    )
    row = bounds_ds.take_all()
    if not row or row[0]["n"] == 0:
        lo = hi = None
    else:
        vals = [v for k, v in sorted(row[0].items()) if k.startswith("q_")]
        lo, hi = int(min(vals)), int(max(vals))

    def clip(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(value_column), np.int64)
        if lo is None:
            w = v
            flag = np.zeros(len(v), np.int64)
        else:
            w = np.clip(v, lo, hi)
            flag = ((v < lo) | (v > hi)).astype(np.int64)
        cols = {c: t.column(c) for c in id_columns}
        cols[value_column] = t.column(value_column)
        cols[f"{value_column}_w"] = pa.array(w, pa.int64())
        cols["clipped"] = pa.array(flag, pa.int64())
        return pa.table(cols)

    return ds.map_batches(clip, batch_format="pyarrow")


def chi2_independence(ds, col_a: str, col_b: str):
    """Pearson chi-square test of independence between two categorical
    columns — the distribution-drift companion to the KS/PSI gates
    (``pipelines/stats.py``): does the category mix of ``col_b`` differ
    across ``col_a`` strata?

    Per-cell output ``(col_a, col_b, observed, expected6, contrib6)``
    where ``expected = row_total·col_total/n`` and ``contrib =
    (observed−expected)²/expected`` — the statistic is ``SUM(contrib)``
    with ``dof = (R−1)(C−1)``. All heavy work is the integer
    ``group_sum`` combiner (one pruned shuffle of partial counts); the
    float math runs once on the tiny cells×1 table, ROUND(·,6) protocol
    so both engines hash identically (same as ``group_entropy``).
    Cardinality assumption: cells = |A|×|B| rows fit in one partition —
    categorical by definition, KBs."""
    counts = group_sum(ds.select_columns([col_a, col_b]), [col_a, col_b], [])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    col_a: t.column(col_a).slice(0, 0),
                    col_b: t.column(col_b).slice(0, 0),
                    "observed": pa.array([], pa.int64()),
                    "expected6": pa.array([], pa.float64()),
                    "contrib6": pa.array([], pa.float64()),
                }
            )
        obs_in = np.asarray(t.column("n"), dtype=np.int64)
        acode = key_codes(t.column(col_a).combine_chunks())
        bcode = key_codes(t.column(col_b).combine_chunks())
        ua, ai = np.unique(acode, return_inverse=True)
        ub, bi = np.unique(bcode, return_inverse=True)
        nr, nc = len(ua), len(ub)
        # DENSE R×C grid — zero-observed cells contribute (0−e)²/e = e
        # to the statistic and must be emitted (and are, by the oracle's
        # distinct-grid LEFT JOIN)
        dense = np.zeros((nr, nc), np.int64)
        dense[ai, bi] = obs_in
        row_tot = dense.sum(axis=1).astype(np.float64)
        col_tot = dense.sum(axis=0).astype(np.float64)
        n = float(dense.sum())
        expected = row_tot[:, None] * col_tot[None, :] / n
        obs = dense.ravel()
        d = obs - expected.ravel()
        contrib = d * d / expected.ravel()
        # representative input row per category code (any occurrence)
        a_first = np.zeros(nr, np.int64)
        a_first[ai] = np.arange(len(ai))
        b_first = np.zeros(nc, np.int64)
        b_first[bi] = np.arange(len(bi))
        a_idx = np.repeat(a_first, nc)
        b_idx = np.tile(b_first, nr)
        return pa.table(
            {
                col_a: t.column(col_a).take(pa.array(a_idx, pa.int64())),
                col_b: t.column(col_b).take(pa.array(b_idx, pa.int64())),
                "observed": pa.array(obs, pa.int64()),
                "expected6": pa.array(
                    np.round(expected.ravel(), 6), pa.float64()
                ),
                "contrib6": pa.array(np.round(contrib, 6), pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(finish, batch_format="pyarrow")


def group_string_agg(
    ds, key_column: str, value_column: str, sep: str = ",", n_buckets=None
):
    """``STRING_AGG(value, sep ORDER BY value)`` per key: bucketed
    shuffle of the two pruned columns, ONE lexsort per bucket, then a
    per-SEGMENT join loop — per-key Python here is irreducible (the
    output is one Python string per key) and bounded by output size,
    not input rows. Values order by their NATIVE type (int 9 < 10, not
    "10" < "9") and cast to string after the sort, matching SQL
    ``ORDER BY value`` + CAST in the aggregate. Null values are skipped
    (SQL aggregate semantics): a key with no non-null value emits a null
    string and ``n = 0`` (``n`` counts non-null values, SQL
    ``COUNT(value)``)."""
    from fs_schema_validator_ray.stages.window import _order_arrays

    if n_buckets is None:
        n_buckets = default_n_buckets(ds)

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        isnull, vals = _order_arrays(group.column(value_column))
        # nulls last per key
        order, starts, _, _, _ = segments(key_codes(key_col), isnull, vals)
        ends = np.append(starts[1:], len(order))
        valid = ~isnull[order]
        strs = np.asarray(
            pc.cast(group.column(value_column).combine_chunks(), pa.string()),
            dtype=object,
        )[order]
        n_valid = np.concatenate([[0], np.cumsum(valid)])
        out_strs, out_n = [], []
        for s, e in zip(starts, ends):
            k = int(n_valid[e] - n_valid[s])
            out_n.append(k)
            out_strs.append(sep.join(strs[s : s + k]) if k else None)
        take = pa.array(order[starts], pa.int64())
        return pa.table(
            {
                key_column: key_col.take(take),
                "vals": pa.array(out_strs, pa.string()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    return bucketed(
        ds.select_columns([key_column, value_column]), [key_column], n_buckets, per_bucket
    )


def weighted_sample(ds, id_column: str, weight_column: str, k: int):
    """Deterministic weighted sample without replacement (Efraimidis–
    Spirakis A-Res): each row's priority is ``u^(1/w)`` with ``u ∈ (0,1]``
    derived from a STABLE hash of its id — no RNG state, so reruns,
    resumed partitions and any repartitioning pick the identical sample.
    Distributed as per-batch partial top-k by priority (≤ k rows leave
    each block) and one tiny final merge — the same two-phase shape as
    ``salted_topk_per_key``. Rows with null/non-positive weight or null
    id are excluded (they have no sampling mass).

    Ties (including DUPLICATE ids, which hash to identical priorities)
    break on ascending id at every stage, so the selected multiset is
    independent of block arrival order / repartitioning. Duplicate ids
    therefore enter or leave the sample together as adjacent ranks —
    each duplicate row carries its own priority (same u, its own
    weight); dedup ids upstream if the sample must be id-unique."""
    from fs_schema_validator_ray.state.sketches import hash64

    if k < 1:
        raise ValueError("k must be >= 1")

    def _id_order(pr: np.ndarray, ids_np: np.ndarray) -> np.ndarray:
        # (-priority, id asc): dtype-agnostic id tiebreak via unique codes
        codes = np.unique(ids_np, return_inverse=True)[1]
        return np.lexsort((codes, -pr))

    def priority(t: pa.Table) -> pa.Table:
        ids = t.column(id_column).combine_chunks()
        w_col = t.column(weight_column).combine_chunks()
        ok = np.asarray(pc.is_valid(ids)) & np.asarray(pc.is_valid(w_col))
        w = np.asarray(pc.fill_null(w_col, 0), dtype=np.float64)
        ok &= w > 0
        h = hash64(stable_key_array(ids))
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0  # (0,1]
        pr = np.where(ok, u ** (1.0 / np.maximum(w, 1e-300)), -1.0)
        keep = np.flatnonzero(ok)
        if len(keep) > k:
            ids_np = np.asarray(ids, dtype=object)[keep]
            keep = keep[_id_order(pr[keep], ids_np)[:k]]
        take = pa.array(keep.astype(np.int64), pa.int64())
        return pa.table(
            {
                id_column: ids.take(take),
                weight_column: w_col.take(take),
                "priority": pa.array(pr[keep], pa.float64()),
            }
        )

    def final(t: pa.Table) -> pa.Table:
        pr = np.asarray(t.column("priority"), dtype=np.float64)
        ids_np = np.asarray(t.column(id_column).combine_chunks(), dtype=object)
        top = _id_order(pr, ids_np)[:k]
        return t.take(pa.array(top.astype(np.int64), pa.int64()))

    partials = ds.select_columns([id_column, weight_column]).map_batches(
        priority, batch_format="pyarrow"
    )
    # ≤ k rows per block reach the merge — KBs
    return partials.repartition(1).map_batches(
        final, batch_format="pyarrow", batch_size=None
    )


def grouped_mad(ds, key_column: str, value_column: str):
    """EXACT grouped median absolute deviation —
    ``median(|v − median(v)|)`` per key (SQL ``mad()``) — as two
    (key, value)-count quantile combiner shuffles plus one broadcast:

    1. per-key interpolated median (``grouped_quantile_disc`` with
       PERCENTILE_CONT semantics),
    2. medians ship once via ``ray.put`` (KB — one row per key) with a
       per-worker vectorized hash index (the ``iqr_outlier_filter``
       pattern),
    3. absolute deviations re-quantile through the same combiner.

    Integer-exact protocol: the interpolated median of ints is always a
    multiple of 0.5, so deviations are computed as the INTEGER
    ``dev2 = |2·v − 2·median|`` and the final ``mad = median(dev2)/2``
    (ROUND(·,6)) — no float ever enters a shuffle. Output:
    ``(key, n, mad)`` with ``n`` = non-null deviation count. Keys whose
    values are ALL null drop (their median is undefined; re-union
    upstream if SQL GROUP BY presence for such keys matters).
    Deterministic-input requirement: the input is consumed twice
    (median pass + deviation pass) via lineage re-execution —
    ``.materialize()`` non-deterministic upstreams first."""
    import pandas as pd
    import ray

    med_parts = list(
        grouped_quantile_disc(
            ds.select_columns([key_column, value_column]),
            key_column, value_column, [0.5], interpolate=True,
        ).iter_batches(batch_format="pyarrow")
    )
    if med_parts:
        med_tbl = pa.concat_tables(med_parts)
        med_tbl = med_tbl.filter(pc.is_valid(med_tbl.column("p_50")))
        keys_pd = med_tbl.column(key_column).to_pandas()
        med2 = np.rint(2.0 * np.asarray(med_tbl.column("p_50"))).astype(np.int64)
    else:
        keys_pd = pd.Series([], dtype=object)
        med2 = np.zeros(0, dtype=np.int64)
    ref = ray.put({"keys": keys_pd, "lo": med2, "hi": med2, "q1": med2, "q3": med2})

    def deviations(t: pa.Table) -> pa.Table:
        state = _iqr_bounds_index(ref)  # same per-process cached index
        t = t.select([key_column, value_column])
        idx = state["index"].get_indexer(t.column(key_column).to_pandas())
        v = t.column(value_column)
        valid = np.asarray(pc.is_valid(v)) & (idx >= 0)
        vv = np.asarray(pc.fill_null(pc.cast(v, pa.int64()), 0), dtype=np.int64)
        dev2 = np.abs(2 * vv - state["lo"][np.maximum(idx, 0)])
        out = pa.table(
            {
                key_column: t.column(key_column),
                "dev2": pa.array(dev2, pa.int64()),
            }
        )
        return out.filter(pa.array(valid))

    devs = ds.select_columns([key_column, value_column]).map_batches(
        deviations, batch_format="pyarrow"
    )
    out = grouped_quantile_disc(devs, key_column, "dev2", [0.5], interpolate=True)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_column: t.column(key_column),
                "n": t.column("n"),
                "mad": pc.round(
                    pc.divide(t.column("p_50"), 2.0), ndigits=6
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def grouped_spearman(ds, key_column: str, x_column: str, y_column: str):
    """Per-key Spearman rank correlation — Pearson correlation of
    AVERAGE ranks (ties share the mean of their positions, the standard
    fractional ranking) — in ONE bucketed key shuffle: both columns are
    rank-transformed per key with vectorized tie-run means inside each
    bucket, then the correlation comes from exact rank-moment sums.

    Float-exactness argument (oracle protocol): average ranks are
    multiples of 0.5, so every product is a multiple of 0.25 and all
    moment sums stay below 2^53·0.25 at any realistic group size —
    the sums are EXACT doubles regardless of summation order, and only
    the final closed-form division needs the ROUND(·,6) protocol.

    SQL semantics: rows with a null in either column are excluded
    (``corr`` pair semantics); keys with fewer than 2 pairs or zero
    variance in either rank emit NULL. Output ``(key, n, spearman)``."""
    n_buckets = default_n_buckets(ds)

    def drop_null_pairs(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(x_column)), pc.is_valid(t.column(y_column)))
        return t.select([key_column, x_column, y_column]).filter(mask)

    def avg_ranks(seg: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """1-based fractional ranks of ``vals`` within each ``seg``
        segment id (vectorized: one lexsort + tie-run mean positions)."""
        n = len(vals)
        order, _, _, row_start, _ = segments(seg, vals)
        val_s = vals[order]
        pos = np.arange(n) - row_start  # 0-based in segment
        run_first = pos == 0
        run_first[1:] |= val_s[1:] != val_s[:-1]
        run_start = np.flatnonzero(run_first)
        run_lens = np.diff(np.concatenate([run_start, [n]]))
        # average 0-based position of each tie run + 1 → fractional rank
        avg = pos[run_start] + (run_lens - 1) / 2.0 + 1.0
        ranks = np.empty(n)
        ranks[order] = np.repeat(avg, run_lens)
        return ranks

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        seg = key_codes(key_col)
        x = np.asarray(pc.cast(group.column(x_column), pa.float64()))
        y = np.asarray(pc.cast(group.column(y_column), pa.float64()))
        rx = avg_ranks(seg, x)
        ry = avg_ranks(seg, y)
        # one representative row index per segment, deterministic
        order, first, ids, _, _ = segments(seg)
        rep = order[first]
        k = len(rep)
        comp = np.empty(len(seg), np.int64)  # dense 0..k-1 per row
        comp[order] = ids
        n_arr = np.bincount(comp, minlength=k).astype(np.float64)
        sx = np.bincount(comp, weights=rx, minlength=k)
        sy = np.bincount(comp, weights=ry, minlength=k)
        sxx = np.bincount(comp, weights=rx * rx, minlength=k)
        syy = np.bincount(comp, weights=ry * ry, minlength=k)
        sxy = np.bincount(comp, weights=rx * ry, minlength=k)
        num = n_arr * sxy - sx * sy
        vx = n_arr * sxx - sx * sx
        vy = n_arr * syy - sy * sy
        ok = (n_arr >= 2) & (vx > 0) & (vy > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = np.where(ok, num / np.sqrt(vx * vy), np.nan)
        rho = np.round(rho, 6)
        return pa.table(
            {
                key_column: key_col.take(pa.array(rep, pa.int64())),
                "n": pa.array(n_arr.astype(np.int64)),
                "spearman": pa.array(
                    [None if not o else float(v) for o, v in zip(ok, rho)],
                    pa.float64(),
                ),
            }
        )

    return bucketed(
        ds.select_columns([key_column, x_column, y_column]), [key_column], n_buckets,
        per_bucket, drop_null_pairs,
    )


def grouped_mannwhitney(
    ds,
    key_column: str,
    value_column: str,
    sample_column: str,
    sample_a_value,
):
    """Per-key Mann-Whitney U (Wilcoxon rank-sum) between sample A
    (``sample_column == sample_a_value``) and sample B (everything
    else) — INTEGER-exact, no ROUND protocol needed.

    The whole statistic reduces to value counts: with per-(key, value)
    counts ``cnt`` (combined) and ``cnt_a`` (sample A), the tie-averaged
    rank of value v is ``(r_min + r_max) / 2`` with
    ``r_min = 1 + lt(v)``, ``r_max = le(v)`` (lt/le = exclusive /
    inclusive cumulative counts in value order), so

        2·R_A = Σ_v cnt_a(v) · (1 + lt(v) + le(v))
        2·U_A = 2·R_A − n_a·(n_a + 1),   2·U_B = 2·n_a·n_b − 2·U_A

    — every term an integer. Only the pre-aggregated
    ``(key, value, cnt_a, n)`` rows shuffle (one composite-key
    ``group_sum``), never raw rows; the per-key finisher is a
    vectorized cumsum over the key's distinct values.

    SQL semantics: null values drop (rank pairs); a null sample tag
    counts as sample B. Output
    ``(key, n_a, n_b, u2_a, u2_b)`` with ``u2_* = 2·U_*`` (kept doubled
    so ties never force a float)."""

    def tagged(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(value_column)))
        is_a = pc.fill_null(pc.equal(t.column(sample_column), sample_a_value), False)
        return pa.table(
            {
                key_column: t.column(key_column),
                value_column: t.column(value_column),
                "cnt_a": pc.cast(is_a, pa.int64()),
            }
        )

    counts = group_sum(
        ds.map_batches(tagged, batch_format="pyarrow"), [key_column, value_column], ["cnt_a"]
    )

    def finish(group: pa.Table) -> pa.Table:
        v = group.column(value_column).to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        cnt = np.asarray(group.column("n"), np.int64)[order]
        cnt_a = np.asarray(group.column("cnt_a"), np.int64)[order]
        le = np.cumsum(cnt)
        lt = le - cnt
        n = int(le[-1]) if len(le) else 0
        n_a = int(cnt_a.sum())
        n_b = n - n_a
        two_r_a = int((cnt_a * (1 + lt + le)).sum())
        u2_a = two_r_a - n_a * (n_a + 1)
        u2_b = 2 * n_a * n_b - u2_a
        return pa.table(
            {
                key_column: group.column(key_column)[:1],
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "u2_a": pa.array([u2_a], pa.int64()),
                "u2_b": pa.array([u2_b], pa.int64()),
            }
        )

    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return counts.groupby(key_column).map_groups(finish, batch_format="pyarrow")


def mutual_information(ds, col_a: str, col_b: str):
    """Mutual information (in nats) between two categorical columns —
    the information-theoretic companion to ``chi2_independence``: how
    many nats knowing ``col_a`` gives about ``col_b``. Per-OBSERVED-cell
    output ``(col_a, col_b, observed, pmi6, mi_contrib6)`` where
    ``pmi = ln(n·cnt / (row_tot·col_tot))`` and ``mi_contrib =
    (cnt/n)·pmi`` — MI is ``SUM(mi_contrib)``; zero-observed cells
    contribute exactly 0 and are not emitted (unlike chi-square, where
    they carry weight). Heavy work is the one integer ``group_sum``
    combiner shuffle; the float pass runs once on the tiny cell table
    (ROUND(·,6) protocol, same ln-parity argument as
    ``group_entropy``)."""
    counts = group_sum(ds.select_columns([col_a, col_b]), [col_a, col_b], [])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    col_a: t.column(col_a).slice(0, 0),
                    col_b: t.column(col_b).slice(0, 0),
                    "observed": pa.array([], pa.int64()),
                    "pmi6": pa.array([], pa.float64()),
                    "mi_contrib6": pa.array([], pa.float64()),
                }
            )
        cnt = np.asarray(t.column("n"), dtype=np.int64)
        ai = np.unique(key_codes(t.column(col_a).combine_chunks()), return_inverse=True)[1]
        bi = np.unique(key_codes(t.column(col_b).combine_chunks()), return_inverse=True)[1]
        row_tot = np.bincount(ai, weights=cnt)[ai]  # marginal of col_a per cell
        col_tot = np.bincount(bi, weights=cnt)[bi]
        n = float(cnt.sum())
        pmi = np.log(cnt.astype(np.float64) * n / (row_tot * col_tot))
        mi = cnt / n * pmi
        return pa.table(
            {
                col_a: t.column(col_a),
                col_b: t.column(col_b),
                "observed": pa.array(cnt, pa.int64()),
                "pmi6": pa.array(np.round(pmi, 6), pa.float64()),
                "mi_contrib6": pa.array(np.round(mi, 6), pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(finish, batch_format="pyarrow")


def grouped_geo_harmonic_mean(ds, key_column: str, value_column: str):
    """Per-key GEOMETRIC and HARMONIC means derived from exact
    ``(key, value)`` counts — the shuffle carries only the pre-aggregated
    distinct-value count table (the same counts-reduction trick as
    ``grouped_mannwhitney``), and the float pass runs once per key over
    its distinct values in ASCENDING value order:

        geomean  = exp( Σ cnt·ln(v) / n )
        harmonic = n / Σ (cnt / v)

    Null values drop (SQL aggregate semantics); ``v ≤ 0`` raises
    (ln/branch domain — not silently wrong). ROUND(·,6) protocol: both
    engines sum the identical ~|distinct| terms, disagreement is at the
    last ulp. Output ``(key, n, geomean6, harmonic6)``."""
    counts = group_sum(
        ds.map_batches(
            lambda t: t.filter(pc.is_valid(t.column(value_column))), batch_format="pyarrow"
        ),
        [key_column, value_column],
        [],
    )

    def finish(group: pa.Table) -> pa.Table:
        v = group.column(value_column).to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = np.asarray(group.column("n"), np.int64)
        if np.any(v <= 0):
            raise ValueError(
                f"grouped_geo_harmonic_mean: non-positive {value_column} value"
            )
        order = np.argsort(v, kind="stable")
        v, cnt = v[order], cnt[order]
        n = int(cnt.sum())
        geo = float(np.exp((cnt * np.log(v)).sum() / n))
        harm = float(n / (cnt / v).sum())
        return pa.table(
            {
                key_column: group.column(key_column)[:1],
                "n": pa.array([n], pa.int64()),
                "geomean6": pa.array([round(geo, 6)], pa.float64()),
                "harmonic6": pa.array([round(harm, 6)], pa.float64()),
            }
        )

    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return counts.groupby(key_column).map_groups(finish, batch_format="pyarrow")


def _padded_inversions(comp: np.ndarray, y_sorted: np.ndarray, k: int) -> np.ndarray:
    """Exact strict-inversion counts of each group's ``y`` sequence,
    vectorized ACROSS groups: pack the (already (group, x, y)-ordered)
    values into a (groups × padded-len) +inf matrix and run iterative
    merge passes — each pass is one stable ``argsort`` over 2w-wide
    blocks plus a suffix-count, so the whole thing is O(n log² n) numpy
    with no per-pair work. Stability makes equal values non-inversions
    (left occurrences sort before right); +inf padding is excluded by a
    finiteness mask, so trailing pad inside a merged left half can never
    count against real right-half values."""
    n = len(y_sorted)
    counts = np.bincount(comp, minlength=k)
    lmax = int(counts.max()) if k else 0
    if lmax <= 1:
        return np.zeros(k, dtype=np.int64)
    L = 1 << (lmax - 1).bit_length()
    if k * L > max(4 * n, 1 << 20):  # no-silent-caps: skewed padding blowup
        import logging

        logging.getLogger("fs_schema_validator_ray.agg").info(
            "grouped_kendall_tau: padded matrix %d×%d ≫ %d rows "
            "(skewed group sizes inflate the merge passes)", k, L, n
        )
    mat = np.full((k, L), np.inf)
    pos = np.arange(n) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    mat[comp, pos] = y_sorted
    inv = np.zeros(k, dtype=np.int64)
    w = 1
    while w < L:
        blocks = mat.reshape(k, L // (2 * w), 2 * w)
        idx = np.argsort(blocks, axis=2, kind="stable")
        vals = np.take_along_axis(blocks, idx, axis=2)
        from_left = idx < w
        finite = np.isfinite(vals)
        left_real = from_left & finite
        right_real = (~from_left) & finite
        suf = (
            np.cumsum(left_real[:, :, ::-1], axis=2)[:, :, ::-1]
            - left_real.astype(np.int64)
        )
        inv += (suf * right_real).sum(axis=(1, 2))
        mat = vals.reshape(k, L)
        w *= 2
    return inv


def grouped_kendall_tau(ds, key_column: str, x_column: str, y_column: str):
    """Per-key Kendall τ-b rank correlation, EXACT with full tie
    correction (Knight's algorithm) in ONE bucketed key shuffle: per
    bucket, tie terms come from vectorized run-length scans over two
    lexsorts and the discordant-pair count from
    :func:`_padded_inversions` (O(n log² n) merge passes vectorized
    across every group in the bucket — never an all-pairs loop).

    Exactness: ``con_minus_dis = n0 − n1 − n2 + n3 − 2·swaps`` is pure
    int64 arithmetic (emitted as its own column — a hash-stable integer
    anchor for the oracle's pair-counting derivation); only the final
    ``τ_b = (C−D)/√((n0−n1)(n0−n2))`` division is float, under the
    ROUND(·,6) protocol. SQL semantics: null-in-either rows excluded;
    keys where either factor of the denominator is zero emit NULL τ.

    Output ``(key, n, con_minus_dis, tau_b)``."""
    n_buckets = default_n_buckets(ds)

    def drop_null_pairs(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(x_column)), pc.is_valid(t.column(y_column)))
        return t.select([key_column, x_column, y_column]).filter(mask)

    def tie_pairs(comp: np.ndarray, run_first: np.ndarray, k: int) -> np.ndarray:
        run_start = np.flatnonzero(run_first)
        run_lens = np.diff(np.concatenate([run_start, [len(comp)]]))
        pairs = run_lens * (run_lens - 1) // 2
        return np.bincount(comp[run_start], weights=pairs, minlength=k).astype(
            np.int64
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        seg = key_codes(key_col)
        x = np.asarray(pc.cast(group.column(x_column), pa.float64()))
        y = np.asarray(pc.cast(group.column(y_column), pa.float64()))
        # dense segment ids 0..k-1 + deterministic representative rows
        order0, first, ids, _, _ = segments(seg)
        rep = order0[first]
        k = len(rep)
        comp_all = np.empty(len(seg), np.int64)
        comp_all[order0] = ids
        idx = np.arange(len(seg))

        ordx, _, _, x_start, _ = segments(comp_all, x, y)
        c_x, x_s, y_s = comp_all[ordx], x[ordx], y[ordx]
        xt_first = x_start == idx
        xt_first[1:] |= x_s[1:] != x_s[:-1]
        xyt_first = xt_first.copy()
        xyt_first[1:] |= y_s[1:] != y_s[:-1]
        n_arr = np.bincount(c_x, minlength=k).astype(np.int64)
        n0 = n_arr * (n_arr - 1) // 2
        n1 = tie_pairs(c_x, xt_first, k)
        n3 = tie_pairs(c_x, xyt_first, k)
        ordy, _, _, y_start, _ = segments(comp_all, y)
        c_y, y_s2 = comp_all[ordy], y[ordy]
        yt_first = y_start == idx
        yt_first[1:] |= y_s2[1:] != y_s2[:-1]
        n2 = tie_pairs(c_y, yt_first, k)
        swaps = _padded_inversions(c_x, y_s, k)
        cmd = n0 - n1 - n2 + n3 - 2 * swaps
        den = np.sqrt((n0 - n1).astype(np.float64) * (n0 - n2).astype(np.float64))
        ok = den > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = np.round(cmd / den, 6)
        return pa.table(
            {
                key_column: key_col.take(pa.array(rep, pa.int64())),
                "n": pa.array(n_arr),
                "con_minus_dis": pa.array(cmd),
                "tau_b": pa.array(
                    [float(t) if o else None for o, t in zip(ok, tau)], pa.float64()
                ),
            }
        )

    return bucketed(ds, [key_column], n_buckets, per_bucket, drop_null_pairs)


def sequence_islands(ds, key_column: str, value_column: str):
    """Per-key ISLANDS of consecutive integers (the SQL gaps-and-islands
    problem): for each key, the maximal runs of consecutive distinct
    ``value_column`` ints — activity-streak analysis when the value is
    an epoch-day. ONE bucketed key shuffle; inside a bucket a single
    lexsort gives (a) per-segment distinct values (consecutive-duplicate
    drop) and (b) island boundaries (``diff != 1``) — two vectorized
    masks, no per-key Python. Nulls are excluded (SQL DISTINCT + WHERE
    NOT NULL semantics). Output ``(key, island_start, island_end,
    island_len)``; oracle parity with the classic
    ``value − row_number()`` grouping trick."""
    n_buckets = default_n_buckets(ds)

    def drop_null_values(t: pa.Table) -> pa.Table:
        return t.select([key_column, value_column]).filter(
            pc.is_valid(t.column(value_column))
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        key_col = group.column(key_column).combine_chunks()
        seg = key_codes(key_col)
        vals = np.asarray(pc.cast(group.column(value_column), pa.int64()))
        order, _, _, row_start, _ = segments(seg, vals)
        seg_s, val_s = seg[order], vals[order]
        # distinct (key, value) rows only
        keep = row_start == np.arange(len(order))
        keep[1:] |= val_s[1:] != val_s[:-1]
        seg_d, val_d, rows_d = seg_s[keep], val_s[keep], order[keep]
        # island starts: new key OR value gap > 1
        start = np.concatenate(
            [[True], (seg_d[1:] != seg_d[:-1]) | (val_d[1:] != val_d[:-1] + 1)]
        )
        start_idx = np.flatnonzero(start)
        lens = np.diff(np.concatenate([start_idx, [len(val_d)]]))
        ends = val_d[start_idx + lens - 1]
        return pa.table(
            {
                key_column: key_col.take(pa.array(rows_d[start_idx], pa.int64())),
                "island_start": pa.array(val_d[start_idx]),
                "island_end": pa.array(ends),
                "island_len": pa.array(lens.astype(np.int64)),
            }
        )

    return bucketed(ds, [key_column], n_buckets, per_bucket, drop_null_values)


def group_bitagg(ds, keys: list[str], col: str):
    """Grouped BIT_AND / BIT_OR / BIT_XOR of an int64 column.

    Per-batch vectorized fold: lexsort rows by key code, one
    ``np.bitwise_*.reduceat`` per op over the key segments — a single
    partial row per (batch, key). Bit ops are associative and
    commutative and each input row is folded exactly once, so partials
    merge exactly in the tiny final grouped fold (``map_groups``).
    Output: ``keys + [band, bor, bxor, n]``."""

    def partial(t: pa.Table) -> pa.Table:
        tbl = t.select([*keys, col])
        v = np.asarray(tbl.column(col), np.int64)
        if not len(v):
            return pa.table(
                {
                    **{k: tbl.column(k) for k in keys},
                    "band": pa.array([], pa.int64()),
                    "bor": pa.array([], pa.int64()),
                    "bxor": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        import pandas as pd

        codes, _ = pd.factorize(
            pd.MultiIndex.from_arrays(
                [np.asarray(tbl.column(k), dtype=object) for k in keys]
            )
            if len(keys) > 1
            else pd.Index(np.asarray(tbl.column(keys[0]), dtype=object))
        )
        order, starts, _, _, _ = segments(codes)
        v_s = v[order]
        take = pa.array(order[starts], pa.int64())
        ends = np.append(starts[1:], len(v_s))
        return pa.table(
            {
                **{k: tbl.column(k).take(take) for k in keys},
                "band": pa.array(np.bitwise_and.reduceat(v_s, starts), pa.int64()),
                "bor": pa.array(np.bitwise_or.reduceat(v_s, starts), pa.int64()),
                "bxor": pa.array(np.bitwise_xor.reduceat(v_s, starts), pa.int64()),
                "n": pa.array(ends - starts, pa.int64()),
            }
        )

    def final(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                **{k: g.column(k).slice(0, 1) for k in keys},
                "band": pa.array(
                    [int(np.bitwise_and.reduce(np.asarray(g.column("band"), np.int64)))],
                    pa.int64(),
                ),
                "bor": pa.array(
                    [int(np.bitwise_or.reduce(np.asarray(g.column("bor"), np.int64)))],
                    pa.int64(),
                ),
                "bxor": pa.array(
                    [int(np.bitwise_xor.reduce(np.asarray(g.column("bxor"), np.int64)))],
                    pa.int64(),
                ),
                "n": pa.array(
                    [int(np.asarray(g.column("n"), np.int64).sum())], pa.int64()
                ),
            }
        )

    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .map_groups(final, batch_format="pyarrow")
    )


def scrub_empty_blocks(ds):
    """Drop Ray-internal schema-less EMPTY blocks from a MATERIALIZED
    dataset, zero-copy (block refs are re-listed, data never moves).

    Ray 2.49's sort-based groupby/aggregate emits schema-less empty
    blocks for empty reduce partitions (reproduced with a bare
    aggregate — see tools/check_oracles.py docstring); map operators
    SKIP empty blocks, so those blocks survive any number of map stages
    and intermittently break a DOWNSTREAM ``groupby`` with
    ``KeyError: Field "..." does not exist in schema``. Call this at
    every grouped-output → grouped-input boundary that materializes.
    Returns a dataset over the non-empty blocks only (or the input
    unchanged when nothing to scrub)."""
    import ray
    import ray.data

    @ray.remote
    def _nrows(tab: pa.Table) -> int:
        return tab.num_rows

    refs = list(ds.to_arrow_refs())
    if not refs:
        return ds
    lens = ray.get([_nrows.remote(r) for r in refs])
    keep = [r for r, n in zip(refs, lens) if n]
    if len(keep) == len(refs):
        return ds
    if not keep:
        keep = [refs[0]]  # keep one (possibly empty) block: never zero blocks
    return ray.data.from_arrow_refs(keep)


def schema_drift(ds_a, ds_b):
    """Schema + null-profile drift between two dataset snapshots — the
    table-level companion to the per-value drift gates
    (``pipelines/stats.py``, KS/PSI) and the reference's declared-schema
    check (a column that vanished or changed type is a schema violation
    BEFORE any row rule runs).

    Per column of either schema, one row: ``(column, status, dtype_a,
    dtype_b, n_a, n_b, nulls_a, nulls_b)`` with status ∈ ``added``
    (B only) / ``removed`` (A only) / ``type_changed`` / ``common``.
    Schemas are driver metadata (no data pass); counts come from ONE
    pre-aggregated pass per side: each block emits a tiny (column, n,
    nulls) partial via Arrow's O(1) ``null_count``, summed by one
    KB-size ``group_sum`` — never a full-column shuffle. The final join
    runs on the driver over ≤|schema| rows."""
    import ray.data

    def side_counts(ds):
        schema = ds.schema()
        names = list(schema.names)
        types = {n: str(t) for n, t in zip(schema.names, schema.types)}

        def partial(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "column": pa.array(names, pa.string()),
                    "n": pa.array([t.num_rows] * len(names), pa.int64()),
                    "nulls": pa.array(
                        [t.column(c).null_count for c in names], pa.int64()
                    ),
                }
            )

        summed = group_sum(
            ds.map_batches(partial, batch_format="pyarrow"), ["column"], ["n", "nulls"]
        )
        out = {r["column"]: (r["n"], r["nulls"]) for r in summed.take_all()}
        # empty dataset: no blocks → no partials; report 0s
        return types, {n: out.get(n, (0, 0)) for n in names}

    types_a, counts_a = side_counts(ds_a)
    types_b, counts_b = side_counts(ds_b)

    rows = []
    for col in sorted(set(types_a) | set(types_b)):
        in_a, in_b = col in types_a, col in types_b
        if in_a and in_b:
            status = "common" if types_a[col] == types_b[col] else "type_changed"
        else:
            status = "removed" if in_a else "added"
        na, za = counts_a.get(col, (None, None))
        nb, zb = counts_b.get(col, (None, None))
        rows.append(
            {
                "column": col,
                "status": status,
                "dtype_a": types_a.get(col),
                "dtype_b": types_b.get(col),
                "n_a": na,
                "n_b": nb,
                "nulls_a": za,
                "nulls_b": zb,
            }
        )
    schema = pa.schema(
        [
            ("column", pa.string()),
            ("status", pa.string()),
            ("dtype_a", pa.string()),
            ("dtype_b", pa.string()),
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("nulls_a", pa.int64()),
            ("nulls_b", pa.int64()),
        ]
    )
    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))


def psi_by_group(
    ds,
    group_column: str,
    value_column: str,
    width: int,
    n_bins: int,
    eps: float = 1e-6,
):
    """Population Stability Index of each group's value distribution vs
    the GLOBAL distribution, over fixed-width integer bins
    ``bin = min(value // width, n_bins - 1)`` — the oracle-checkable
    closed form of the validation run's per-partition drift gate
    (``pipelines/stats.py::drift_verdicts`` / ``state.sketches.psi``;
    same ``eps`` floor on both ratios so empty bins contribute
    finitely).

    Plan: one ``group_sum`` to the tiny ``(group, bin)`` count grid, the
    global n_bins distribution folded on the driver (KBs) and broadcast
    in the closure, then per-group PSI vectorized inside one
    ``map_groups`` over the grid. Output: ``group, psi6`` (ROUND(·,6)).
    """

    def binned(t: pa.Table) -> pa.Table:
        b = pc.min_element_wise(
            pc.divide(pc.cast(t.column(value_column), pa.int64()), width),
            n_bins - 1,
        )
        return pa.table({group_column: t.column(group_column), "bin": b})

    counts = group_sum(
        ds.select_columns([group_column, value_column]).map_batches(
            binned, batch_format="pyarrow"
        ),
        [group_column, "bin"],
        [],
    )

    # fold the global per-bin distribution on the driver (n_bins ints)
    g = np.zeros(n_bins, np.int64)
    for b in counts.iter_batches(batch_format="pyarrow"):
        np.add.at(
            g,
            np.asarray(b.column("bin"), dtype=np.int64),
            np.asarray(b.column("n"), dtype=np.int64),
        )
    q = np.maximum(g / max(int(g.sum()), 1), eps)

    def per_group(grp: pa.Table) -> pa.Table:
        cnt = np.zeros(n_bins, np.int64)
        cnt[np.asarray(grp.column("bin"), dtype=np.int64)] = np.asarray(
            grp.column("n"), dtype=np.int64
        )
        p = np.maximum(cnt / max(int(cnt.sum()), 1), eps)
        val = float(np.sum((p - q) * np.log(p / q)))
        return pa.table(
            {
                group_column: grp.column(group_column).slice(0, 1),
                "psi6": pa.array([round(val, 6)], pa.float64()),
            }
        )

    # native groupby: a per-key map_groups body, not yet on bucketed + segments
    return counts.groupby(group_column).map_groups(per_group, batch_format="pyarrow")
