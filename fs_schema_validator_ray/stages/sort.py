"""Distributed range-partitioned sort, global rank and NTILE.

Ray Data's built-in ``Dataset.sort`` range-partitions but exposes no row
numbers; global rank / NTILE (the SQL ``ROW_NUMBER() / NTILE(k) OVER
(ORDER BY ...)``) needs each partition to know how many rows precede it.
Classic two-phase distributed rank:

1. **Sample** the sort column (bounded stride-sample per block, KB-sized
   driver collect) → ``n_parts - 1`` range split points.
2. **Count** rows per range partition in one cheap pass over the pruned
   projection (per-batch ``searchsorted`` + ``bincount`` partials; the
   driver sums a ``n_parts``-long vector) → exclusive rank offsets.
3. **Emit**: assign each row its partition id, ONE ``groupby(pid)``
   shuffle of the pruned columns, per-partition lexsort, rank =
   ``offset[pid] + local_index + 1``; NTILE derives from the global rank
   and total count (DuckDB/ANSI semantics: the first ``n % k`` tiles get
   the extra row).

The pruned projection is consumed three times (sample, count, emit) but
is **never materialized**: Ray Data lineage re-executes the pruned scan
per pass, so nothing larger than the ``n_parts``-long count vector ever
sits in the object store between passes — at 100 TB the alternative
(pinning every sort key) is spill pressure on every node. The cost is
re-reading the (column-pruned, predicate-pushed) source three times,
which is the same trade the near-dup verify path makes and the cheaper
side of it whenever the sort key is a narrow column. **The input must be
deterministic across re-executions** (same rows, any order): a pipeline
containing non-deterministic sampling or an unstable UDF upstream would
let the passes disagree — pass ``pin=True`` there to pin the projection
in the object store (the old behavior) instead.

Partitioning assumptions (documented, standard for any range sort):
rows with EQUAL sort-column values land in one partition (assignment
depends only on the sort column), so a pathologically large run of one
value inflates its partition — pre-aggregate or add a secondary range
key upstream if one value dominates. The sort column must be non-null
(SQL ORDER BY null placement is dialect configuration; callers filter
or fill first).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sample_split_points(
    ds, column: str, n_parts: int, samples_per_block: int = 128
) -> np.ndarray:
    """``n_parts - 1`` range split points from a bounded per-block stride
    sample of the (pruned) sort column. Deterministic — no RNG."""
    if n_parts <= 1:
        return np.empty(0, dtype=object)

    def sample(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.select([column])
        stride = max(1, n // samples_per_block)
        idx = pa.array(np.arange(0, n, stride, dtype=np.int64))
        return t.select([column]).take(idx)

    parts = [
        np.asarray(b.column(column))
        for b in ds.select_columns([column])
        .map_batches(sample, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ]
    vals = np.concatenate(parts) if parts else np.empty(0)
    if len(vals) == 0:
        return vals[:0]
    vals = np.sort(vals, kind="stable")
    # evenly spaced sample quantiles as split points (dedup keeps
    # searchsorted well-defined; fewer effective partitions on a
    # low-cardinality column is correct, just less parallel)
    pos = (np.arange(1, n_parts) * len(vals)) // n_parts
    return np.unique(vals[pos])


def _pid_of(splits: np.ndarray, keys: np.ndarray, descending: bool) -> np.ndarray:
    """Range-partition id per key. Ascending: pid grows with the key.
    Descending: pid shrinks with the key (partition 0 holds the largest
    keys) so rank offsets accumulate in output order either way. Equal
    keys always share one pid (side= choice keeps ties together)."""
    if not len(splits):
        return np.zeros(len(keys), np.int64)
    if descending:
        return (len(splits) - np.searchsorted(splits, keys, side="left")).astype(
            np.int64
        )
    return np.searchsorted(splits, keys, side="right").astype(np.int64)


def _assign_pid(splits: np.ndarray, column: str, descending: bool = False):
    def fn(t: pa.Table) -> pa.Table:
        pid = _pid_of(splits, np.asarray(t.column(column)), descending)
        return t.append_column("__pid", pa.array(pid))

    return fn


def _partition_counts(
    proj, splits: np.ndarray, column: str, n_parts: int, descending: bool = False
):
    """Row count per range partition (per-batch bincount partials, driver
    sums one small vector)."""

    def partial(t: pa.Table) -> pa.Table:
        pid = _pid_of(splits, np.asarray(t.column(column)), descending)
        c = np.bincount(pid, minlength=n_parts).astype(np.int64)
        return pa.table(
            {"pid": pa.array(np.arange(n_parts, dtype=np.int64)), "c": pa.array(c)}
        )

    counts = np.zeros(n_parts, dtype=np.int64)
    for b in (
        proj.select_columns([column])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        # iter_batches coalesces several per-block partials into one batch,
        # so pid values repeat — fancy-index += would drop duplicates
        np.add.at(counts, np.asarray(b.column("pid")), np.asarray(b.column("c")))
    return counts


def _lexsort_order(
    group: pa.Table,
    sort_column: str,
    tiebreak_columns: list[str],
    descending: bool,
) -> np.ndarray:
    """Stable order indices for ``ORDER BY sort [DESC], *tiebreaks ASC``.
    Descending on an arbitrary dtype (strings included) via per-partition
    unique-code negation — no numeric negate needed."""
    primary = np.asarray(group.column(sort_column))
    if descending:
        # np.unique returns sorted uniques; inverse codes are ascending
        # ranks, so negating them is a dtype-agnostic descending key.
        primary = -np.unique(primary, return_inverse=True)[1]
    keys = [primary, *[np.asarray(group.column(c)) for c in tiebreak_columns]]
    return np.lexsort(keys[::-1])  # lexsort: LAST key is primary


def global_sort_rank(
    ds,
    sort_column: str,
    tiebreak_columns: list[str],
    n_tiles: int | None = None,
    n_parts: int | None = None,
    descending: bool = False,
    pin: bool = False,
):
    """Globally ranked Dataset: input columns + ``rnk`` (1-based
    ``ROW_NUMBER() OVER (ORDER BY sort [DESC], *tiebreaks)``) and, when
    ``n_tiles`` is set, ``tile`` (``NTILE(n_tiles)``, DuckDB/ANSI
    remainder-first sizing). ``(sort, *tiebreaks)`` must be a total order
    for a deterministic result (SQL has the same caveat). ``descending``
    applies to the sort column only; tiebreaks stay ascending.

    ``pin=True`` materializes the pruned projection before the three
    passes — only needed when upstream is non-deterministic or expensive
    to re-execute (see module docstring)."""
    if n_parts is None:
        try:
            import ray

            n_parts = max(2, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:  # noqa: BLE001
            n_parts = 8

    cols = list(dict.fromkeys([sort_column, *tiebreak_columns]))
    proj = ds.select_columns(cols)
    if pin:
        proj = proj.materialize()
    splits = sample_split_points(proj, sort_column, n_parts)
    counts = _partition_counts(proj, splits, sort_column, n_parts, descending)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())

    def rank_partition(group: pa.Table) -> pa.Table:
        pid = int(group.column("__pid")[0].as_py())
        order = _lexsort_order(group, sort_column, tiebreak_columns, descending)
        out = group.drop_columns(["__pid"]).take(pa.array(order, pa.int64()))
        rnk = offsets[pid] + np.arange(1, group.num_rows + 1, dtype=np.int64)
        out = out.append_column("rnk", pa.array(rnk))
        if n_tiles:
            out = out.append_column("tile", pa.array(_ntile(rnk, total, n_tiles)))
        return out

    # native groupby: one map_groups body per range partition (per-key, not yet on bucketed)
    return (
        proj.map_batches(_assign_pid(splits, sort_column, descending), batch_format="pyarrow")
        .groupby("__pid")
        .map_groups(rank_partition, batch_format="pyarrow")
    )


def global_running_sum(
    ds,
    sort_column: str,
    tiebreak_columns: list[str],
    weight_column: str,
    n_parts: int | None = None,
    pin: bool = False,
):
    """Distributed global prefix sum: input columns + ``running_<w>`` =
    ``SUM(w) OVER (ORDER BY sort, *tiebreaks ROWS UNBOUNDED PRECEDING)``
    (int64 weights). Same two-phase shape as :func:`global_sort_rank` —
    the count pass sums WEIGHT per range partition instead of rows, so
    each partition starts its local cumsum from an exact global offset.
    This is the training-data packing primitive: with ``running`` in
    hand, ``(running - w) // budget`` assigns every row its
    concat-and-slice sequence id with zero extra passes. Streaming like
    :func:`global_sort_rank`: the pruned projection is re-executed per
    pass (deterministic-input requirement; ``pin=True`` to materialize)."""
    if n_parts is None:
        try:
            import ray

            n_parts = max(2, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:  # noqa: BLE001
            n_parts = 8

    cols = list(dict.fromkeys([sort_column, *tiebreak_columns, weight_column]))
    proj = ds.select_columns(cols)
    if pin:
        proj = proj.materialize()
    splits = sample_split_points(proj, sort_column, n_parts)

    def weight_partial(t: pa.Table) -> pa.Table:
        pid = _pid_of(splits, np.asarray(t.column(sort_column)), False)
        w = np.asarray(pc.cast(t.column(weight_column), pa.int64()))
        sums = np.zeros(n_parts, dtype=np.int64)
        np.add.at(sums, pid, w)
        return pa.table(
            {"pid": pa.array(np.arange(n_parts, dtype=np.int64)), "c": pa.array(sums)}
        )

    sums = np.zeros(n_parts, dtype=np.int64)
    for b in (
        proj.select_columns([sort_column, weight_column])
        .map_batches(weight_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        np.add.at(sums, np.asarray(b.column("pid")), np.asarray(b.column("c")))
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]])
    run_col = f"running_{weight_column}"

    def sum_partition(group: pa.Table) -> pa.Table:
        pid = int(group.column("__pid")[0].as_py())
        order = _lexsort_order(group, sort_column, tiebreak_columns, False)
        out = group.drop_columns(["__pid"]).take(pa.array(order, pa.int64()))
        w = np.asarray(pc.cast(out.column(weight_column), pa.int64()))
        running = offsets[pid] + np.cumsum(w)
        return out.append_column(run_col, pa.array(running, pa.int64()))

    # native groupby: one map_groups body per range partition (per-key, not yet on bucketed)
    return (
        proj.map_batches(_assign_pid(splits, sort_column), batch_format="pyarrow")
        .groupby("__pid")
        .map_groups(sum_partition, batch_format="pyarrow")
    )


def _ntile(rnk: np.ndarray, total: int, k: int) -> np.ndarray:
    """ANSI NTILE from the 1-based global rank: with ``q, r = divmod(n,
    k)`` the first ``r`` tiles have ``q + 1`` rows (verified against
    DuckDB: 10 rows / 4 tiles → sizes 3,3,2,2)."""
    q, r = divmod(total, k)
    i = rnk - 1  # 0-based
    big = r * (q + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        in_big = i < big
        tile = np.where(
            in_big,
            i // max(q + 1, 1) + 1,
            (r + (i - big) // max(q, 1) + 1) if q > 0 else r,
        )
    return tile.astype(np.int64)
