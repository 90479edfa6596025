"""Sketch correctness: accuracy bounds + merge/serialize round-trips.

The merge laws here are the distributed generalization of the reference's
``ValidationReport.merge`` monoid test surface (`report.py:44-48`).
"""

import numpy as np
import pyarrow as pa
import pytest

from fs_schema_validator_ray.state import (
    BloomFilter,
    Histogram,
    HyperLogLog,
    TDigest,
    hash64,
    ks_statistic,
    psi,
)


def test_hash64_stable_and_vectorized():
    a = hash64(np.array(["x", "y", "x"], dtype=object))
    assert a.dtype == np.uint64
    assert a[0] == a[2] != a[1]
    assert hash64(["x"])[0] == a[0]


def test_hll_accuracy():
    hll = HyperLogLog()
    ids = np.array([f"clip-{i:08d}" for i in range(100_000)], dtype=object)
    hll.add(ids)
    hll.add(ids[:50_000])  # re-adding must not change the estimate much
    est = hll.estimate()
    assert abs(est - 100_000) / 100_000 < 0.02


def test_hll_small_range():
    hll = HyperLogLog()
    hll.add(np.array(["a", "b", "c"], dtype=object))
    assert abs(hll.estimate() - 3) < 0.5


def test_hll_merge_and_serde():
    h1, h2 = HyperLogLog(), HyperLogLog()
    h1.add(np.array([f"a{i}" for i in range(20_000)], dtype=object))
    h2.add(np.array([f"a{i}" for i in range(10_000, 30_000)], dtype=object))
    merged = h1.merge(h2)
    est = merged.estimate()
    assert abs(est - 30_000) / 30_000 < 0.03
    rt = HyperLogLog.from_bytes(merged.to_bytes())
    assert rt.estimate() == merged.estimate()


def test_bloom():
    keys = np.array([f"clip-{i}" for i in range(50_000)], dtype=object)
    bf = BloomFilter(len(keys), fpp=1e-4)
    bf.add(keys)
    assert bf.contains(keys).all()
    probe = np.array([f"missing-{i}" for i in range(20_000)], dtype=object)
    fp_rate = bf.contains(probe).mean()
    assert fp_rate < 1e-3


def test_bloom_merge_and_serde():
    a, b = BloomFilter(1000), BloomFilter(1000)
    a.add(np.array(["x"], dtype=object))
    b.add(np.array(["y"], dtype=object))
    m = a.merge(b)
    assert m.contains(np.array(["x", "y"], dtype=object)).all()
    rt = BloomFilter.from_bytes(m.to_bytes())
    assert rt.contains(np.array(["x", "y"], dtype=object)).all()
    assert not rt.contains(np.array(["z"], dtype=object)).all()


def test_tdigest_quantiles():
    rng = np.random.default_rng(42)
    data = rng.normal(100.0, 15.0, 200_000)
    td = TDigest()
    for chunk in np.array_split(data, 40):
        td.add(chunk)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        exact = np.quantile(data, q)
        approx = td.quantile(q)
        assert abs(approx - exact) < 1.0, (q, exact, approx)
    assert td.count() == len(data)


def test_tdigest_merge_matches_single():
    rng = np.random.default_rng(7)
    data = rng.exponential(10.0, 100_000)
    parts = np.array_split(data, 8)
    digests = []
    for p in parts:
        td = TDigest()
        td.add(p)
        digests.append(td)
    merged = digests[0]
    for d in digests[1:]:
        merged = merged.merge(d)
    for q in (0.1, 0.5, 0.9):
        assert abs(merged.quantile(q) - np.quantile(data, q)) < np.quantile(data, q) * 0.05
    rt = TDigest.from_bytes(merged.to_bytes())
    assert rt.quantile(0.5) == pytest.approx(merged.quantile(0.5))


def test_histogram_ks_psi():
    rng = np.random.default_rng(3)
    base = Histogram(0, 1000, bins=64)
    base.add(rng.normal(500, 100, 100_000))
    same = Histogram(0, 1000, bins=64)
    same.add(rng.normal(500, 100, 100_000))
    shifted = Histogram(0, 1000, bins=64)
    shifted.add(rng.normal(650, 100, 100_000))

    assert ks_statistic(base, same) < 0.01
    assert ks_statistic(base, shifted) > 0.4
    assert psi(same, base) < 0.02
    assert psi(shifted, base) > 1.0

    merged = base.merge(same)
    assert merged.total() == 200_000
    rt = Histogram.from_bytes(shifted.to_bytes())
    assert ks_statistic(rt, shifted) == 0.0


def test_ks_psi_closed_form_distributed(drift_state):
    """CLOSED-FORM drift fixtures through the DISTRIBUTED histogram path
    (VERDICT r2 item 8): deterministic uniform samples aligned to bin
    edges make binned KS exact (0.5) and PSI analytically derivable from
    the documented eps floor — no statistical tolerance, exact equality.
    """
    import pyarrow as pa
    import pytest
    import ray.data

    from fs_schema_validator_ray.rules import DriftRule

    def compute_histogram(ds, column, lo, hi, bins):
        # the validation run's drift partials; no partition column → pid -1
        rule = DriftRule(rule_id="baseline", column=column, lo=lo, hi=hi, bins=bins)
        return drift_state(ds, rule)[-1]

    n = 1000
    a_vals = (np.arange(n) + 0.5) / n          # uniform [0, 1)
    b_vals = a_vals + 0.5                      # uniform [0.5, 1.5)
    ds_a = ray.data.from_arrow(pa.table({"v": pa.array(a_vals)})).repartition(7)
    ds_b = ray.data.from_arrow(pa.table({"v": pa.array(b_vals)})).repartition(3)
    # lo=0 hi=2 bins=4 → A fills bins 1,2 with 500/500; B fills bins 2,3
    ha = compute_histogram(ds_a, "v", lo=0.0, hi=2.0, bins=4)
    hb = compute_histogram(ds_b, "v", lo=0.0, hi=2.0, bins=4)
    assert ha.total() == hb.total() == n
    assert list(ha.counts) == [0, 500, 500, 0, 0, 0]  # under, 4 bins, over
    assert list(hb.counts) == [0, 0, 500, 500, 0, 0]

    # closed-form KS on the shared binning: |CDF_A - CDF_B| peaks at 0.5
    assert ks_statistic(ha, hb) == 0.5
    # closed-form PSI with the documented eps=1e-6 floor: two bins differ,
    # each contributing (0.5 - eps) * ln(0.5 / eps)
    eps = 1e-6
    expect_psi = 2 * (0.5 - eps) * np.log(0.5 / eps)
    assert psi(ha, hb) == pytest.approx(expect_psi, rel=1e-12)
    # identity: a distribution drifts zero from itself
    assert ks_statistic(ha, ha) == 0.0
    assert psi(ha, ha) == 0.0

    # disjoint supports: KS hits its maximum 1.0 exactly
    hc = compute_histogram(ds_a, "v", lo=0.0, hi=2.0, bins=2)
    hd = compute_histogram(
        ray.data.from_arrow(pa.table({"v": pa.array(b_vals + 0.5)})), "v",
        lo=0.0, hi=2.0, bins=2,
    )
    assert ks_statistic(hc, hd) == 1.0


def test_drift_self_check_planted_partition(drift_state):
    """End-to-end drift gate: identical partitions drift 0 from the
    merged baseline; one planted shifted partition is the ONLY
    violation, with exact KS vs the closed-form mixture value."""
    import pyarrow as pa
    import pytest
    import ray.data

    from fs_schema_validator_ray.pipelines.stats import DriftRule, drift_verdicts

    n = 1200  # per partition
    base = (np.arange(n) + 0.5) / n            # uniform [0, 1)
    parts = []
    for pid in range(4):
        vals = base + (1.0 if pid == 3 else 0.0)   # partition 3 shifted to [1, 2)
        parts.append(
            pa.table(
                {
                    "partition_id": pa.array(np.full(n, pid, np.int32)),
                    "v": pa.array(vals),
                }
            )
        )
    ds = ray.data.from_arrow(pa.concat_tables(parts)).repartition(8)
    rule = DriftRule(
        rule_id="drift_v", column="v", lo=0.0, hi=2.0, bins=4,
        max_ks=0.5, max_psi=10.0,
    )
    violations, metrics, _ = drift_verdicts(drift_state(ds, rule), rule)
    # baseline = merge = 3 parts uniform[0,1) + 1 part uniform[1,2):
    # CDF gap for an unshifted partition peaks at x=1: 1 - 3/4 = 0.25;
    # for the shifted one: 3/4 - 0 = 0.75
    for pid in range(3):
        assert metrics[pid]["ks"] == pytest.approx(0.25, abs=1e-12)
    assert metrics[3]["ks"] == pytest.approx(0.75, abs=1e-12)
    flagged = violations.column("partition_id").to_pylist()
    assert flagged == [3]


# --- grouped_hll_distinct -----------------------------------------------------


def test_grouped_hll_distinct_accuracy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.unique import grouped_hll_distinct

    rng = np.random.default_rng(9)
    n = 20000
    keys = rng.choice(["a", "b", "c"], size=n)
    # different true cardinalities per key
    vals = np.where(
        keys == "a",
        rng.integers(0, 5000, size=n),
        np.where(keys == "b", rng.integers(0, 200, size=n), 7),
    )
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "v": pa.array(vals, pa.int64())})
    )
    out = {r["k"]: r for r in grouped_hll_distinct(ds, "k", "v", p=12).take_all()}
    import pandas as pd

    truth = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique()
    for k in ["a", "b", "c"]:
        est = out[k]["distinct_estimate"]
        assert abs(est - truth[k]) <= max(3, 0.05 * truth[k]), (k, est, truth[k])
        assert out[k]["n_values"] == int((keys == k).sum())


def test_grouped_hll_distinct_null_values_excluded(ray_session):
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.unique import grouped_hll_distinct

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(["x", "x", "x", "y"]),
                "v": pa.array([1, None, None, None], pa.int64()),
            }
        )
    )
    out = {r["k"]: r for r in grouped_hll_distinct(ds, "k", "v").take_all()}
    assert out["x"]["n_values"] == 1
    assert out["x"]["distinct_estimate"] == pytest.approx(1.0, abs=0.1)
    # a key with ONLY null values still emits its group row, estimate 0
    assert out["y"]["n_values"] == 0
    assert out["y"]["distinct_estimate"] == pytest.approx(0.0, abs=1e-9)


# --- grouped t-digest quantiles ----------------------------------------------


def test_grouped_tdigest_accuracy_vs_exact(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.unique import grouped_tdigest_quantiles

    rng = np.random.default_rng(5)
    n = 6000
    keys = np.repeat(["a", "b", "c"], n)
    vals = np.concatenate(
        [
            rng.normal(100.0, 10.0, n),        # a: gaussian
            rng.exponential(50.0, n),          # b: skewed
            rng.uniform(-1.0, 1.0, n),         # c: uniform
        ]
    )
    t = pa.table(
        {"k": pa.array(keys, pa.string()), "v": pa.array(vals, pa.float64())}
    )
    out = (
        grouped_tdigest_quantiles(
            ray.data.from_arrow(t).repartition(8), "k", "v", qs=(0.5, 0.95)
        )
        .to_pandas()
        .set_index("k")
    )
    for key in ("a", "b", "c"):
        sub = vals[keys == key]
        spread = np.quantile(sub, 0.99) - np.quantile(sub, 0.01)
        assert out.loc[key, "n_values"] == n
        for q, col in ((0.5, "q50"), (0.95, "q95")):
            exact = np.quantile(sub, q)
            assert abs(out.loc[key, col] - exact) < 0.02 * spread, (key, col)


def test_grouped_tdigest_nulls_and_all_null_key(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.unique import grouped_tdigest_quantiles

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", None], pa.string()),
            "v": pa.array([1.0, None, 3.0, None, None, 7.0], pa.float64()),
        }
    )
    out = grouped_tdigest_quantiles(
        ray.data.from_arrow(t).repartition(2), "k", "v", qs=(0.5,)
    ).take_all()
    rows = {r["k"]: r for r in out}
    assert rows["a"]["n_values"] == 2 and 1.0 <= rows["a"]["q50"] <= 3.0
    # all-null value group → SQL-like NULL quantile, zero count
    assert rows["b"]["n_values"] == 0 and rows["b"]["q50"] is None
    # null KEY groups like SQL GROUP BY
    assert rows[None]["n_values"] == 1 and rows[None]["q50"] == 7.0


def test_cms_one_sided_and_epsilon_bound():
    """CMS guarantees: estimate >= true always; <= true + eps*N for the
    overwhelming majority of keys; merge == single-pass build."""
    from fs_schema_validator_ray.state.sketches import CountMinSketch

    rng = np.random.default_rng(7)
    # zipf-ish: few heavy keys, long tail
    keys = rng.zipf(1.3, 50_000) % 2000
    eps = 1e-3
    cms = CountMinSketch(eps=eps, delta=1e-3)
    cms.add(keys)

    uniq, true = np.unique(keys, return_counts=True)
    est = cms.estimate(uniq)
    assert (est >= true).all()  # one-sided, always
    over = est - true
    assert (over <= eps * len(keys)).mean() > 0.99

    half = len(keys) // 2
    a = CountMinSketch(eps=eps, delta=1e-3)
    b = CountMinSketch(eps=eps, delta=1e-3)
    a.add(keys[:half]); b.add(keys[half:])
    merged = a.merge(b)
    assert (merged.estimate(uniq) == est).all()
    assert merged.n == cms.n == len(keys)

    rt = CountMinSketch.from_bytes(cms.to_bytes())
    assert (rt.estimate(uniq) == est).all() and rt.n == cms.n


def test_cms_query_matches_exact_at_small_scale(ray_session):
    from fs_schema_validator_ray.pipelines.queries import QUERIES
    import duckdb

    t = QUERIES["cms_user_counts_events"]("/root/testdata/sf0.001")
    df = t.to_pandas()
    exact = duckdb.connect().execute(
        "SELECT user_id, COUNT(*) c FROM read_parquet('/root/testdata/sf0.001/events.parquet') GROUP BY 1"
    ).df().set_index("user_id")["c"]
    true = exact.loc[df["user_id"]].values
    assert (df["est"].values >= true).all()
    n = int(true.sum())
    assert ((df["est"].values - true) <= 1e-4 * n + 1).mean() > 0.99


def test_psi_by_group_planted_drift(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.agg import psi_by_group

    rng = np.random.default_rng(5)
    # group "base" matches the global shape; group "hot" is shifted hard
    base = rng.integers(0, 320, 4000)
    hot = rng.integers(320, 640, 500)
    t = pa.table(
        {
            "g": pa.array(["base"] * len(base) + ["hot"] * len(hot)),
            "v": pa.array(np.concatenate([base, hot]), pa.int64()),
        }
    )
    out = psi_by_group(
        ray.data.from_arrow(t), "g", "v", width=64, n_bins=10
    ).take_all()
    got = {r["g"]: r["psi6"] for r in out}

    # numpy ground truth with the same eps floor
    def dist(vals):
        cnt = np.zeros(10, np.int64)
        np.add.at(cnt, np.minimum(vals // 64, 9), 1)
        return np.maximum(cnt / cnt.sum(), 1e-6)

    q = dist(np.concatenate([base, hot]))
    for name, vals in (("base", base), ("hot", hot)):
        p = dist(vals)
        want = round(float(np.sum((p - q) * np.log(p / q))), 6)
        assert got[name] == want
    # the shifted group drifts harder than the majority group (whose
    # PSI is nonzero too: the eps floor punishes its empty upper bins)
    assert got["hot"] > got["base"] > 0.0


def test_canonical_tuple_strings_injective_and_stable():
    """Composite keys: separator / null-sentinel characters inside values
    never collide, and values without them encode as the plain join."""
    from fs_schema_validator_ray.state.sketches import canonical_tuple_strings

    t = pa.table(
        {
            "a": pa.array(["a\x1fb", "a", "\x00null", None, "x", None], pa.string()),
            "b": pa.array(["c", "b\x1fc", "z", "z", "y", None], pa.string()),
            "n": pa.array([1, 2, 3, 4, None, 6], pa.int64()),
        }
    )
    keys = list(canonical_tuple_strings(t, ["a", "b"]))
    assert keys[0] != keys[1]  # ('a\x1fb', 'c') vs ('a', 'b\x1fc')
    assert keys[2] != keys[3]  # literal '\x00null' vs a real null
    assert keys[4:] == ["x\x1fy", "\x00null\x1f\x00null"]
    assert list(canonical_tuple_strings(t, ["n", "b"]))[4:] == ["\x00null\x1fy", "6\x1f\x00null"]


def _per_row_tuple_strings(batch, columns):
    """The per-row composite-key encoder ``canonical_tuple_strings`` had
    before it used Arrow kernels: the reference it must equal."""
    from fs_schema_validator_ray.state.sketches import _tuple_component

    cols = [batch.column(c).to_pylist() for c in columns]
    return ["\x1f".join(map(_tuple_component, row)) for row in zip(*cols)]


_TUPLE_TABLE = pa.table({
    "s": pa.array(["a", None, "\x00", "\x1f", "\x00null", "", "a\x1fb", "\x00\x1f"]),
    "ls": pa.array(["q", "\x1f\x00", None, "", "null", "y", "x", "w"], pa.large_string()),
    "i": pa.array([1, None, -5, 2**62, 0, -(2**63), 7, None], pa.int64()),
    "u8": pa.array([255, 0, None, 3, 4, 5, 6, 7], pa.uint8()),
    "u64": pa.array([2**64 - 1, 0, None, 3, 4, 5, 6, 7], pa.uint64()),
    "f": pa.array([1.0, None, 2.5, float("nan"), -0.0, 1e20, 3.0, 4.0]),
    "b": pa.array([True, False, None, True, True, False, False, True]),
})


@pytest.mark.parametrize("columns", [
    ["s", "i"], ["i", "s", "u64"], ["ls", "u8"], ["s"], ["s", "f"], ["f", "b"], ["b", "i"],
])
def test_canonical_tuple_strings_equal_the_per_row_encoder(columns):
    """String and integer columns are encoded with Arrow kernels, every
    other type per row; either way the keys, and so both sides of a
    composite referential membership, are the per-row encoder's."""
    from fs_schema_validator_ray.stages.referential import _probe, build_membership
    from fs_schema_validator_ray.state.sketches import canonical_tuple_strings

    for t in (_TUPLE_TABLE, _TUPLE_TABLE.slice(0, 0),
              pa.Table.from_batches(_TUPLE_TABLE.to_batches(max_chunksize=3))):
        got = canonical_tuple_strings(t, columns)
        want = _per_row_tuple_strings(t, columns)
        assert got.dtype == object and list(got) == want
        if t.num_rows:
            old = np.array(want, dtype=object)
            assert np.array_equal(build_membership(got), build_membership(old))
            probe = _per_row_tuple_strings(_TUPLE_TABLE.slice(2), columns) + ["absent"]
            assert list(_probe(build_membership(got), np.array(probe, dtype=object))) == (
                [True] * (len(probe) - 1) + [False])


def test_std_zero_for_constant_column(ray_session):
    import ray.data

    from fs_schema_validator_ray.pipelines.stats import column_stats

    t = pa.table({"z": pa.array([0.0] * 100)})
    stats = column_stats(ray.data.from_arrow(t), ["z"])
    assert stats["z"]["std"] == 0.0
    assert stats["z"]["mean"] == 0.0
