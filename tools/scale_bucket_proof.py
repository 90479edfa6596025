"""Scale proof: data-aware bucketing engages above the 2xCPU count.

The sf0.1 suite sizes every exchange to one or a few buckets, so the
``ceil(bytes/256MiB)`` branch of ``exchange.default_n_buckets`` past 2xCPUs
only has a shrunk-target unit test. This script generates a multi-GiB synthetic
high-cardinality grouped-sum input (64-char STRING keys — the wide-key
shape where a raw-key shuffle hurts most; ~76 B/row in memory, so the
exchange input is ~9 GiB at the default 120M rows regardless of on-disk
compression), runs the REAL ``group_sum`` exchange, and reports:

* the engaged bucket count vs the 2xCPU floor,
* per-bucket input-row balance (max/mean),
* wall time,
* a value-level gate vs DuckDB over the same parquet: n_groups, sum(v),
  and an order-independent checksum  sum(hash64(k) XOR-folded * sum_v)
  mod 2^61-1 computed from the ENGINE's grouped output distributed vs
  DuckDB's own grouping — any lost/duplicated/mis-bucketed row flips it.

Usage:  python tools/scale_bucket_proof.py [--rows N] [--cpus C] [--dir D]
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MOD = (1 << 61) - 1


def generate(dirpath: str, rows: int, n_files: int, n_keys: int) -> None:
    """64-char STRING keys — the wide-key high-cardinality shape where
    shuffling raw keys hurts most (in-memory ~76 B/row, so 120M rows is
    a ~9 GiB exchange input regardless of on-disk compression)."""
    import pyarrow.compute as pc

    os.makedirs(dirpath, exist_ok=True)
    per = rows // n_files
    for i in range(n_files):
        path = os.path.join(dirpath, f"part-{i:04d}.parquet")
        if os.path.exists(path):
            continue
        rng = np.random.default_rng(1000 + i)
        kint = rng.integers(0, n_keys, per, dtype=np.int64)
        k = pc.utf8_lpad(pc.cast(pa.array(kint), pa.string()), 64, "x")
        v = rng.integers(0, 1_000_000, per, dtype=np.int64)
        pq.write_table(
            pa.table({"k": k, "v": v}), path, compression="zstd"
        )
        print(f"wrote {path} ({per} rows)", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=120_000_000)
    ap.add_argument("--files", type=int, default=48)
    ap.add_argument("--keys", type=int, default=30_000_000)
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", 32)))
    ap.add_argument("--dir", default="/tmp/scale_bucket_input")
    args = ap.parse_args()

    generate(args.dir, args.rows, args.files, args.keys)

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    from fs_schema_validator_ray.stages.agg import group_sum
    from fs_schema_validator_ray.stages.exchange import bucket_ids, default_n_buckets
    from fs_schema_validator_ray.state.sketches import hash64

    files = sorted(glob.glob(os.path.join(args.dir, "*.parquet")))
    ds = ray.data.read_parquet(files, columns=["k", "v"])
    floor = max(16, 2 * args.cpus)
    n_buckets = default_n_buckets(ds)

    # per-bucket input balance (cheap key-only pass with the same routing)
    def bucket_counts(t: pa.Table) -> pa.Table:
        cnt = np.bincount(bucket_ids(t, ["k"], n_buckets), minlength=n_buckets)
        return pa.table(
            {
                "bucket": pa.array(np.arange(n_buckets, dtype=np.int32)),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    # one n_buckets-long partial per block: the driver sums the vectors
    sizes = np.zeros(n_buckets, np.int64)
    for b in ds.select_columns(["k"]).map_batches(
        bucket_counts, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        np.add.at(sizes, np.asarray(b.column("bucket")), np.asarray(b.column("n")))
    balance = float(sizes.max() / max(sizes.mean(), 1))

    t0 = time.time()
    grouped = group_sum(ds, ["k"], ["v"], n_buckets=n_buckets)

    def check_partial(t: pa.Table) -> pa.Table:
        from fs_schema_validator_ray.state.sketches import stable_key_array

        sv = np.asarray(t.column("v"), np.int64)
        h = (hash64(stable_key_array(t.column("k"))) % np.uint64(MOD)).astype(
            np.int64
        )
        chk = int(np.sum((h.astype(object) * sv.astype(object)) % MOD) % MOD)
        return pa.table(
            {
                "groups": pa.array([t.num_rows], pa.int64()),
                "sum_v": pa.array([int(sv.sum())], pa.int64()),
                "chk": pa.array([chk], pa.int64()),
            }
        )

    parts = grouped.map_batches(check_partial, batch_format="pyarrow").to_pandas()
    wall = time.time() - t0
    n_groups = int(parts["groups"].sum())
    sum_v = int(parts["sum_v"].sum())
    chk = int(parts["chk"].astype(object).sum()) % MOD
    ray.shutdown()

    # DuckDB oracle over the same parquet (identical hash via the engine's
    # own hash64 on the distinct keys — pulled in bounded chunks)
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT k, v FROM '{args.dir}/*.parquet'")
    dn, dsum = con.execute(
        "SELECT COUNT(*), SUM(s) FROM (SELECT k, SUM(v) AS s FROM t GROUP BY k)"
    ).fetchone()
    # checksum: stream duckdb's grouped result through the same hash fold
    dchk = 0
    cur = con.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k")
    while True:
        batch = cur.fetch_df_chunk(8)
        if batch is None or not len(batch):
            break
        hk = (hash64(batch["k"].to_numpy()) % np.uint64(MOD)).astype(np.int64)
        sv = batch["s"].to_numpy().astype(np.int64)
        dchk = (dchk + int(np.sum((hk.astype(object) * sv.astype(object)) % MOD))) % MOD

    result = {
        "rows": args.rows,
        "files": len(files),
        "num_cpus": args.cpus,
        "floor_buckets": floor,
        "engaged_buckets": int(n_buckets),
        "data_aware_engaged": bool(n_buckets > floor),
        "bucket_balance_max_over_mean": round(balance, 4),
        "exchange_wall_sec": round(wall, 2),
        "n_groups": n_groups,
        "sum_v": sum_v,
        "checksum": chk,
        "duckdb_n_groups": int(dn),
        "duckdb_sum_v": int(dsum),
        "duckdb_checksum": int(dchk),
        "hash_exact": bool(n_groups == dn and sum_v == dsum and chk == dchk),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
