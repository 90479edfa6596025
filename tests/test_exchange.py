"""The keyed bucket exchange (``stages/exchange.py``): routing, the
segment scan, the bucket-sizing policy and the Ray guarantee the
per-bucket bodies rely on."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fs_schema_validator_ray.stages import exchange
from fs_schema_validator_ray.stages.exchange import (
    DEFAULT_TARGET_BUCKET_BYTES,
    MIN_BUCKET_BYTES,
    bucket_ids,
    bucketed,
    default_n_buckets,
    estimate_dataset_bytes,
    estimate_dataset_rows,
    segments,
)
from fs_schema_validator_ray.state.sketches import hash64, mix_to_buckets, stable_key_array

SF = "/root/testdata/sf0.01"
N_BUCKETS = 64

KEYS = {
    "int": (
        pa.array([5, 7, 5, 11], pa.int64()),
        pa.array([5, None, 7, 11, None, 5], pa.int64()),
    ),
    "string": (
        pa.array(["a", "b", "a", "ccc"]),
        pa.array(["ccc", None, "a", "b", None]),
    ),
}


def _routes(table: pa.Table, keys: list[str]) -> dict:
    """key tuple → bucket for every row with no null key component."""
    b = bucket_ids(table, keys, N_BUCKETS)
    rows = zip(*[table.column(k).to_pylist() for k in keys])
    return {r: int(x) for r, x in zip(rows, b) if None not in r}


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_bucket_ids_same_key_same_bucket_across_batches(kind):
    without_nulls, with_nulls = KEYS[kind]
    a = _routes(pa.table({"k": without_nulls}), ["k"])
    b = _routes(pa.table({"k": with_nulls}), ["k"])
    shared = a.keys() & b.keys()
    assert shared
    assert {k: a[k] for k in shared} == {k: b[k] for k in shared}


def test_bucket_ids_composite_key_same_across_batches():
    a = pa.table({"k": [1, 2, 1], "s": ["x", "y", "y"]})
    b = pa.table(
        {"k": pa.array([None, 1, 2, 1], pa.int64()), "s": ["x", "y", "y", None]}
    )
    ra, rb = _routes(a, ["k", "s"]), _routes(b, ["k", "s"])
    assert ra.keys() & rb.keys() == {(1, "y"), (2, "y")}
    assert all(ra[k] == rb[k] for k in ra.keys() & rb.keys())
    # the composite is not a function of its first column alone
    many = pa.table({"k": [1] * 64, "s": [str(i) for i in range(64)]})
    assert len(set(bucket_ids(many, ["k", "s"], N_BUCKETS))) > 1


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_bucket_ids_equals_legacy_single_column_routing(kind):
    for col in KEYS[kind]:
        legacy = mix_to_buckets(hash64(stable_key_array(col)), N_BUCKETS)
        got = bucket_ids(pa.table({"k": col}), ["k"], N_BUCKETS)
        assert got.dtype == np.int32
        assert (got == legacy).all()
        assert ((got >= 0) & (got < N_BUCKETS)).all()


def _brute_segments(codes, minors):
    """Reference scan: one Python loop per key."""
    rows = sorted(range(len(codes)), key=lambda i: (codes[i], *[m[i] for m in minors]))
    out = []
    for key in sorted(set(codes)):
        members = [i for i in rows if codes[i] == key]
        out.append(members)
    return out


def test_segments_matches_brute_force_with_null_keys_and_minor_keys():
    from fs_schema_validator_ray.state.sketches import key_codes

    rng = np.random.default_rng(3)
    n = 300
    raw = [None if x == 0 else f"k{x}" for x in rng.integers(0, 12, n)]
    codes = key_codes(pa.array(raw))  # null keys code to -1: one segment
    m1 = rng.integers(0, 3, n)
    m2 = rng.permutation(n)  # makes (codes, m1, m2) a total order
    s = segments(codes, m1, m2)

    want = _brute_segments(codes.tolist(), [m1.tolist(), m2.tolist()])
    assert s.order.tolist() == [i for seg in want for i in seg]
    assert len(s.starts) == len(want)
    pos = 0
    for sid, seg in enumerate(want):
        assert s.starts[sid] == pos
        span = range(pos, pos + len(seg))
        assert all(s.ids[j] == sid for j in span)
        assert all(s.row_start[j] == pos for j in span)
        assert all(s.row_end[j] == pos + len(seg) for j in span)
        pos += len(seg)
    # the null-key rows form exactly one segment
    null_rows = {i for i, v in enumerate(raw) if v is None}
    assert any(set(seg) == null_rows for seg in want)


def test_segments_composite_major_key_and_empty_input():
    a = np.array([2, 1, 2, 1, 2])
    b = np.array(["y", "x", "x", "x", "y"], dtype=object)
    s = segments((a, b), np.array([5, 4, 3, 2, 1]))
    assert s.order.tolist() == [3, 1, 2, 4, 0]
    assert s.starts.tolist() == [0, 2, 3]
    assert s.row_end.tolist() == [2, 2, 3, 5, 5]
    e = segments(np.empty(0, np.int64))
    assert len(e.order) == len(e.starts) == len(e.ids) == len(e.row_end) == 0


def test_map_groups_never_sees_an_empty_group(ray_session):
    """The bucket bodies carry no 0-row branch: Ray's ``map_groups``
    must never call a body with an empty group, even when the grouped
    dataset carries empty blocks."""
    blocks = [
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}),
        pa.table({"k": [1, 2, 3], "v": [10, 20, 30]}),
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}),
        pa.table({"k": [3, 4], "v": [40, 50]}),
    ]
    ds = ray.data.from_arrow(blocks)
    # the filter empties whole blocks on the map side as well
    ds = ds.filter(lambda r: r["k"] != 2)

    def body(group: pa.Table) -> pa.Table:
        return pa.table({"rows": pa.array([group.num_rows], pa.int64())})

    plain = ds.groupby("k").map_groups(body, batch_format="pyarrow").to_pandas()
    assert (plain["rows"] > 0).all()
    assert plain["rows"].sum() == 4
    routed = bucketed(ds, ["k"], 8, body).to_pandas()
    assert (routed["rows"] > 0).all()
    assert routed["rows"].sum() == 4


def test_bucketed_drops_bucket_column_and_keeps_udf_names(ray_session):
    def prune(t: pa.Table) -> pa.Table:
        return t.select(["k"])

    def per_bucket(group: pa.Table) -> pa.Table:
        assert group.column_names == ["k"]
        return group

    ds = ray.data.from_arrow(pa.table({"k": [1, 2, 3, 4], "v": [0, 0, 0, 0]}))
    out = bucketed(ds, ["k"], 4, per_bucket, prune)
    assert sorted(out.to_pandas()["k"]) == [1, 2, 3, 4]
    names, stack = [], [out._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(op.name)
        stack.extend(op.input_dependencies)
    assert "MapBatches(prune)" in names
    assert "MapBatches(per_bucket)" in names


# --- bucket sizing ----------------------------------------------------------


def test_estimate_from_pruned_read(ray_session):
    full = ray.data.read_parquet(f"{SF}/lineitem.parquet")
    pruned = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    fb, pb = estimate_dataset_bytes(full), estimate_dataset_bytes(pruned)
    assert fb is not None and pb is not None
    assert pb < fb  # column pruning is visible to the sizing


def test_estimate_walks_lineage_through_transforms(ray_session):
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet").map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    est = estimate_dataset_bytes(ds)
    base = estimate_dataset_bytes(ray.data.read_parquet(f"{SF}/lineitem.parquet"))
    assert est == base  # falls back to the upstream read's metadata


def _four_cpus(monkeypatch):
    """Pin the CPU count the sizing reads, so 2×CPUs is 8."""
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 4})


def test_bucket_count_scales_with_data(ray_session, monkeypatch):
    _four_cpus(monkeypatch)
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    est = estimate_dataset_bytes(ds)
    assert 0 < est < MIN_BUCKET_BYTES
    # a small read is one bucket: no CPU-derived floor once its size is known
    assert default_n_buckets(ds) == 1
    # a 64 KiB target emulates a corpus thousands of times larger
    target = 64 * 1024
    assert default_n_buckets(ds, target_bucket_bytes=target) == -(-est // target) > 1


@pytest.mark.parametrize(
    "cpus, mib, want",
    [
        (4, 20, 1),  # two buckets would hold under 16 MiB each: no raise
        (4, 48, 3),  # ceil(48/256) = 1, raised to 48 // 16 = 3
        (4, 100, 4),  # raised to 100 // 16 = 6, stopped at one per CPU
        (1, 200, 1),  # one CPU: nothing to spread over, one bucket
        (1, 300, 2),  # past the 256 MiB target: ceil(300/256) = 2
        (4, 10 * 1024, 40),  # ceil(10240/256) = 40 is past the CPU count
    ],
)
def test_min_bucket_bytes_raises_toward_the_cpus(monkeypatch, cpus, mib, want):
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    monkeypatch.setattr(exchange, "estimate_dataset_bytes", lambda ds: mib * 2**20)
    assert MIN_BUCKET_BYTES == 16 * 2**20
    assert default_n_buckets(object()) == want


def test_bucket_count_sums_multiple_inputs(ray_session):
    a = ray.data.read_parquet(f"{SF}/lineitem.parquet")
    b = ray.data.read_parquet(f"{SF}/orders.parquet")
    target = 64 * 1024
    n_join = default_n_buckets(a, b, target_bucket_bytes=target)
    n_a = default_n_buckets(a, target_bucket_bytes=target)
    assert n_join > n_a  # both sides of an exchange count


def test_unknown_lineage_falls_back_to_floor(monkeypatch):
    _four_cpus(monkeypatch)
    assert default_n_buckets() == default_n_buckets(None) == 16
    monkeypatch.setattr(exchange, "estimate_dataset_bytes", lambda ds: None)
    assert default_n_buckets(object(), object()) == 16
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 32})
    assert default_n_buckets(object()) == 64
    # one known input sizes the exchange; the unknown one adds nothing
    sizes = iter([None, 3 * 2**20])
    monkeypatch.setattr(exchange, "estimate_dataset_bytes", lambda ds: next(sizes))
    assert default_n_buckets(object(), object()) == 1


def test_row_estimate_sums_over_a_union(ray_session):
    import pyarrow.parquet as pq

    a = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    b = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"]).map_batches(
        lambda t: t.rename_columns(["l_orderkey"]), batch_format="pyarrow"
    )
    rows = [pq.read_metadata(f"{SF}/{t}.parquet").num_rows for t in ("lineitem", "orders")]
    assert estimate_dataset_rows(a) == rows[0]
    assert estimate_dataset_rows(b) == rows[1]
    both = a.union(b).map_batches(lambda t: t, batch_format="pyarrow")
    assert estimate_dataset_rows(both) == sum(rows)
    assert estimate_dataset_bytes(both) == estimate_dataset_bytes(a) + estimate_dataset_bytes(b)


def test_default_target_is_256mib():
    assert DEFAULT_TARGET_BUCKET_BYTES == 256 * 2**20


# --- the one-bucket path ----------------------------------------------------


def _plan_ops(ds) -> list[str]:
    names, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(op.name)
        stack.extend(op.input_dependencies)
    return names


def _rows(ds) -> list[tuple]:
    """Canonical (sorted, stringified) rows of a Dataset."""
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    return sorted(zip(*[map(repr, t.column(c).to_pylist()) for c in sorted(t.column_names)]))


def _blocks(*tables):
    return ray.data.from_arrow(list(tables))


def _keys_and_values(seed: int, n: int = 400, null_every: int = 7):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 60, n)
    keys = pa.array([None if i % null_every == 0 else int(x) for i, x in enumerate(k)], pa.int64())
    t = pa.table({"k": keys, "v": pa.array(rng.integers(0, 5, n), pa.int64())})
    return _blocks(t.slice(0, n // 3), t.slice(n // 3, 0), t.slice(n // 3))


def test_bucketed_one_bucket_matches_eight_and_skips_the_shuffle(ray_session):
    def _group_sums(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, "k").aggregate([("v", "sum"), ("v", "count")])
        return g.select(["k", "v_sum", "v_count"])

    ds = _keys_and_values(1)
    one, eight = bucketed(ds, ["k"], 1, _group_sums), bucketed(ds, ["k"], 8, _group_sums)
    assert _rows(one) == _rows(eight)
    assert len(_rows(one)) == 61  # 60 keys and the null key
    assert "Repartition" in _plan_ops(one) and "Sort" not in _plan_ops(one)
    assert "Sort" in _plan_ops(eight)


def test_hash_join_one_bucket_matches_eight(ray_session):
    from fs_schema_validator_ray.stages.joins import hash_join

    left = _keys_and_values(2)
    right = _keys_and_values(3, n=90).map_batches(
        lambda t: t.rename_columns(["rk", "w"]), batch_format="pyarrow")
    for how in ("inner", "left", "full_outer"):
        one = hash_join(left, right, "k", "rk", ["v"], ["w"], n_buckets=1, how=how)
        eight = hash_join(left, right, "k", "rk", ["v"], ["w"], n_buckets=8, how=how)
        assert _rows(one) == _rows(eight), how
        assert "Sort" not in _plan_ops(one)


def test_salted_hash_join_at_one_bucket_stays_grouped(ray_session):
    """``salt`` replicates every right row into each sub-bucket of its
    bucket: merged into one group, each match would come out twice."""
    from fs_schema_validator_ray.stages.joins import hash_join

    left = _blocks(pa.table({"k": [1, 1, 2, 3], "v": [10, 11, 20, 30]}))
    right = _blocks(pa.table({"rk": [1, 2, 2], "w": [100, 200, 201]}))
    salted = hash_join(left, right, "k", "rk", ["v"], ["w"], n_buckets=1, salt=2)
    plain = hash_join(left, right, "k", "rk", ["v"], ["w"], n_buckets=1)
    assert "Sort" in _plan_ops(salted)
    rows = _rows(salted)
    assert rows == _rows(plain) and len(rows) == len(set(rows)) == 4


def test_set_op_bag_one_bucket_matches_eight(ray_session):
    from fs_schema_validator_ray.stages.setops import set_op_bag

    left, right = _keys_and_values(4), _keys_and_values(5, n=200)
    for op in ("except_all", "intersect_all"):
        one = set_op_bag(left, right, ["k", "v"], op, n_buckets=1)
        eight = set_op_bag(left, right, ["k", "v"], op, n_buckets=8)
        assert _rows(one) == _rows(eight), op


def test_exact_dedup_one_bucket_matches_eight(ray_session):
    from fs_schema_validator_ray.stages.dedup import exact_dedup_keep_min

    rng = np.random.default_rng(6)
    texts = [None if i % 11 == 0 else f"doc {x}" for i, x in enumerate(rng.integers(0, 40, 300))]
    ds = _blocks(pa.table({"doc_id": pa.array(rng.permutation(300), pa.int64()),
                           "text": pa.array(texts, pa.string())}))
    one = exact_dedup_keep_min(ds, n_buckets=1)
    assert _rows(one) == _rows(exact_dedup_keep_min(ds, n_buckets=8))
    # no coalesce ahead of a one-bucket exchange: its repartition(1) is the only one
    assert _plan_ops(one).count("Repartition") == 1


@pytest.mark.parametrize("n_buckets", [1, 8])
def test_empty_input_gives_empty_result_and_no_empty_body_call(ray_session, n_buckets):
    def body(group: pa.Table) -> pa.Table:
        assert group.num_rows > 0, "body called with an empty group"
        return group

    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    assert bucketed(_blocks(empty), ["k"], n_buckets, body).count() == 0
    # blocks that a filter empties on the map side
    ds = _blocks(pa.table({"k": [1, 2], "v": [0, 0]}), empty).filter(lambda r: r["k"] > 5)
    assert bucketed(ds, ["k"], n_buckets, body).count() == 0


def test_exchange_queries_take_the_data_sized_path(ray_session, monkeypatch):
    """The exchange inputs of the shuffle queries the benchmark times have
    a size the lineage knows, so they are sized by data (one bucket at
    this scale), not by the CPU floor."""
    from fs_schema_validator_ray.pipelines import queries

    seen = []
    estimate = exchange.estimate_dataset_bytes

    def spy(ds):
        seen.append(estimate(ds))
        return seen[-1]

    monkeypatch.setattr(exchange, "estimate_dataset_bytes", spy)
    for name in ("shift_orders_per_customer", "hash_join_lineitem_orders",
                 "setop_except_all_custkeys", "dedup_exact_documents"):
        seen.clear()
        ds = getattr(queries, name)(SF)
        assert seen and None not in seen, name
        assert "Sort" not in _plan_ops(ds), name
