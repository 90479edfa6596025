"""Connected components: ground-truth topologies, string ids, convergence."""

import numpy as np
import pyarrow as pa
import pytest


def _cc(ray_data, edges_table, **kw):
    from fs_schema_validator_ray.stages.graph import connected_components

    ds = ray_data.from_arrow(edges_table).repartition(3)
    out = connected_components(ds, "a", "b", **kw).to_pandas()
    return dict(zip(out["node"], out["cluster_id"]))


def test_cc_chain_star_and_separate_components(ray_session):
    import ray.data

    # chain 1-2-3-4-5 (diameter 4), star 10-{11,12,13}, pair 20-21
    t = pa.table(
        {
            "a": pa.array([1, 2, 3, 4, 10, 10, 10, 20], pa.int64()),
            "b": pa.array([2, 3, 4, 5, 11, 12, 13, 21], pa.int64()),
        }
    )
    got = _cc(ray.data, t)
    assert got == {
        1: 1, 2: 1, 3: 1, 4: 1, 5: 1,
        10: 10, 11: 10, 12: 10, 13: 10,
        20: 20, 21: 20,
    }


def test_cc_string_ids_and_duplicate_edges(ray_session):
    import ray.data

    t = pa.table(
        {
            "a": pa.array(["doc_b", "doc_a", "doc_b", "zz", "doc_c"]),
            "b": pa.array(["doc_a", "doc_b", "doc_c", "zz", "doc_b"]),
        }
    )
    got = _cc(ray.data, t)
    # self-loops and duplicate/reversed edges are harmless
    assert got == {"doc_a": "doc_a", "doc_b": "doc_a", "doc_c": "doc_a", "zz": "zz"}


def test_cc_convergence_guard(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.graph import connected_components

    # a 12-node chain cannot converge in 2 rounds of 1-hop propagation
    n = 12
    t = pa.table(
        {
            "a": pa.array(list(range(n - 1)), pa.int64()),
            "b": pa.array(list(range(1, n)), pa.int64()),
        }
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(ray.data.from_arrow(t), "a", "b", max_rounds=2).to_pandas()


def test_cc_large_random_graph_matches_reference(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.graph import connected_components

    rng = np.random.default_rng(3)
    n_nodes, n_edges = 400, 500
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    t = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    out = (
        connected_components(ray.data.from_arrow(t).repartition(5), "a", "b")
        .to_pandas()
    )
    # reference: union-find on the driver
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(a, b):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    seen = set(a) | set(b)
    expect = {}
    for node in seen:
        root = find(int(node))
        expect.setdefault(root, []).append(int(node))
    # cluster_id must be the min member of each component
    want = {int(n): min(members) for root, members in expect.items() for n in members}
    got = dict(zip(out["node"].astype(int), out["cluster_id"].astype(int)))
    assert got == want


def test_pagerank_vs_dense_power_iteration(ray_session):
    """pagerank matches the dense numpy fixed point on a graph with a
    hub, a cycle, a dangling node and a multi-edge."""
    import ray.data

    from fs_schema_validator_ray.stages.graph import pagerank

    edges = [
        (0, 1), (0, 2), (0, 3),          # hub out
        (1, 0), (2, 0), (3, 0),          # back-links
        (1, 2), (2, 3),                  # cycle-ish
        (4, 0), (4, 0),                  # multi-edge into the hub
        (3, 5),                          # 5 is dangling (no out-edges)
    ]
    import pandas as pd

    ds = ray.data.from_pandas(
        pd.DataFrame(edges, columns=["src", "dst"])
    ).repartition(3)
    got = (
        pagerank(ds, "src", "dst", damping=0.85)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )

    n = 6
    M = np.zeros((n, n))
    for s, d in edges:
        M[d, s] += 1.0
    out = M.sum(axis=0)
    dangling = out == 0
    P = M / np.maximum(out, 1.0)  # dangling columns are all-zero already
    r = np.full(n, 1.0 / n)
    for _ in range(500):
        r_new = 0.15 / n + 0.85 * (P @ r + r[dangling].sum() / n)
        if np.abs(r_new - r).sum() < 1e-14:
            break
        r = r_new

    assert got["node"].tolist() == list(range(n))
    np.testing.assert_allclose(got["rank"].values, r, atol=1e-8)
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    # the hub (0) dominates; multi-edge weight counted twice for node 4
    assert got["rank"].idxmax() == 0


def test_pagerank_string_nodes_and_empty(ray_session):
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import pagerank

    ds = ray.data.from_pandas(
        pd.DataFrame({"src": ["a", "b"], "dst": ["b", "a"]})
    )
    got = pagerank(ds).to_pandas().sort_values("node")
    np.testing.assert_allclose(got["rank"].values, [0.5, 0.5], atol=1e-10)

    empty = ray.data.from_pandas(
        pd.DataFrame({"src": pd.array([], dtype="int64"), "dst": pd.array([], dtype="int64")})
    )
    assert pagerank(empty).count() == 0


def test_pagerank_distributed_path_matches_pinned(ray_session):
    """Forcing the raw-task wave (driver_pin_max=0) gives the same fixed
    point as the driver-pinned path — the switchover parity gate."""
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import pagerank

    rng = np.random.default_rng(3)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 40, 600), "dst": rng.integers(0, 40, 600)}
    )
    ds = ray.data.from_pandas(edges).repartition(5)
    pinned = (
        pagerank(ds, "src", "dst").to_pandas().sort_values("node").reset_index(drop=True)
    )
    waved = (
        pagerank(ds, "src", "dst", driver_pin_max=0)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert pinned["node"].tolist() == waved["node"].tolist()
    np.testing.assert_allclose(pinned["rank"].values, waved["rank"].values, atol=1e-12)


def _triangles_brute(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Per-node triangle membership counts by brute force."""
    import itertools

    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    nodes = sorted({n for e in und for n in e})
    counts = {n: 0 for n in nodes}
    for x, y, z in itertools.combinations(nodes, 3):
        if ((x, y) in und) and ((y, z) in und) and ((x, z) in und):
            counts[x] += 1
            counts[y] += 1
            counts[z] += 1
    return {n: c for n, c in counts.items() if c}


def test_triangle_counts_vs_brute_force(ray_session):
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(11)
    raw = list(zip(rng.integers(0, 30, 400).tolist(), rng.integers(0, 30, 400).tolist()))
    expect = _triangles_brute(raw)
    assert expect  # dense enough to actually contain triangles
    ds = ray.data.from_pandas(
        pd.DataFrame({"src": [a for a, _ in raw], "dst": [b for _, b in raw]})
    ).repartition(4)
    got = triangle_counts(ds, "src", "dst").to_pandas()
    assert dict(zip(got["node"], got["triangles"])) == expect


def test_triangle_counts_join_path_parity(ray_session):
    """Forcing the two-hash-join orientation (max_broadcast_nodes=0)
    matches the broadcast-degree path — the switchover parity gate."""
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(12)
    df = pd.DataFrame(
        {"src": rng.integers(0, 25, 300), "dst": rng.integers(0, 25, 300)}
    )
    ds = ray.data.from_pandas(df).repartition(3)
    bc = triangle_counts(ds, "src", "dst").to_pandas()
    jn = triangle_counts(ds, "src", "dst", max_broadcast_nodes=0).to_pandas()
    assert dict(zip(bc["node"], bc["triangles"])) == dict(
        zip(jn["node"], jn["triangles"])
    )
    assert _triangles_brute(list(zip(df["src"], df["dst"]))) == dict(
        zip(bc["node"], bc["triangles"])
    )


# --- k-core ------------------------------------------------------------------


def _brute_kcore(pairs, nodes):
    """Serial reference peeling (simple graph: dedup + no self loops)."""
    import collections

    adj = collections.defaultdict(set)
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    core = {v: 0 for v in nodes}
    alive = set(nodes)
    k = 1
    while alive:
        while True:
            drop = {v for v in alive if sum(1 for w in adj[v] if w in alive) < k}
            if not drop:
                break
            for v in drop:
                core[v] = k - 1
            alive -= drop
        k += 1
    return core


def test_k_core_matches_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.graph import k_core

    rng = np.random.default_rng(23)
    for force in (False, True):
        n, m = 60, 300
        a = rng.integers(0, n, m)
        b = rng.integers(0, n, m)
        # string ids, parallel edges and self loops included on purpose
        tbl = pa.table(
            {
                "src": pa.array([f"n{x}" for x in a], pa.string()),
                "dst": pa.array([f"n{x}" for x in b], pa.string()),
            }
        )
        out = k_core(
            ray.data.from_arrow(tbl).repartition(4), _force_distributed=force
        ).take_all()
        got = {r["node"]: r["core"] for r in out}
        nodes = {f"n{x}" for x in np.concatenate([a, b])}
        exp = _brute_kcore(
            [(f"n{x}", f"n{y}") for x, y in zip(a, b)], nodes
        )
        assert got == exp, f"force={force}"


def test_k_core_planted_clique(ray_session):
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.graph import k_core

    # a 5-clique (core 4) hanging off a chain (core 1)
    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    chain = [(4, 10), (10, 11), (11, 12)]
    edges = clique + chain
    tbl = pa.table(
        {
            "src": pa.array([a for a, _ in edges], pa.int64()),
            "dst": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    out = {r["node"]: r["core"] for r in k_core(ray.data.from_arrow(tbl)).take_all()}
    assert all(out[i] == 4 for i in range(5))
    assert out[10] == 1 and out[11] == 1 and out[12] == 1


# --- co-partitioned node-state paths (round 5) -------------------------------


def test_pagerank_copartitioned_parity(ray_session):
    """Forcing the sharded-node-state path (_force_copartitioned=True)
    matches the broadcast fixed point: identical node set, ranks
    allclose to float round-off (shard summation order differs)."""
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import pagerank

    rng = np.random.default_rng(11)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 80, 900), "dst": rng.integers(0, 80, 900)}
    )
    # leave some dangling nodes: remove out-edges of a few ids
    edges = edges[~edges["src"].isin([3, 17, 42])].reset_index(drop=True)
    ds = ray.data.from_pandas(edges).repartition(5)
    broad = (
        pagerank(ds, "src", "dst").to_pandas().sort_values("node").reset_index(drop=True)
    )
    copart = (
        pagerank(ds, "src", "dst", _force_copartitioned=True)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert broad["node"].tolist() == copart["node"].tolist()
    np.testing.assert_allclose(
        broad["rank"].values, copart["rank"].values, atol=1e-12
    )
    assert abs(copart["rank"].sum() - 1.0) < 1e-9


def test_pagerank_copartitioned_string_nodes(ray_session):
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import pagerank

    ds = ray.data.from_pandas(
        pd.DataFrame({"src": ["a", "b", "c"], "dst": ["b", "a", "a"]})
    )
    broad = pagerank(ds).to_pandas().sort_values("node").reset_index(drop=True)
    copart = (
        pagerank(ds, _force_copartitioned=True)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert broad["node"].tolist() == copart["node"].tolist()
    np.testing.assert_allclose(broad["rank"].values, copart["rank"].values, atol=1e-12)


def test_k_core_copartitioned_parity(ray_session):
    """Sharded-node-state k-core is byte-identical to the broadcast
    peel (integer-exact) — string ids, parallel edges and self-loops
    included."""
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.graph import k_core

    rng = np.random.default_rng(29)
    n, m = 70, 400
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    tbl = pa.table(
        {
            "src": pa.array([f"n{x}" for x in a], pa.string()),
            "dst": pa.array([f"n{x}" for x in b], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    broad = {r["node"]: r["core"] for r in k_core(ds).take_all()}
    copart = {
        r["node"]: r["core"]
        for r in k_core(ds, _force_copartitioned=True).take_all()
    }
    assert broad == copart


def test_k_core_copartitioned_planted_clique(ray_session):
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.graph import k_core

    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    chain = [(4, 10), (10, 11), (11, 12)]
    edges = clique + chain
    tbl = pa.table(
        {
            "src": pa.array([a for a, _ in edges], pa.int64()),
            "dst": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    out = {
        r["node"]: r["core"]
        for r in k_core(
            ray.data.from_arrow(tbl), _force_copartitioned=True
        ).take_all()
    }
    assert all(out[i] == 4 for i in range(5))
    assert out[10] == 1 and out[11] == 1 and out[12] == 1


def test_connected_components_doubling_parity_and_chain(ray_session):
    """doubling=True: identical labels on random graphs, and a long
    chain converges within O(log n) rounds where the plain propagation
    would exceed the same small round budget."""
    import pandas as pd
    import ray.data

    from fs_schema_validator_ray.stages.graph import connected_components

    rng = np.random.default_rng(3)
    a = rng.integers(0, 60, 150)
    b = rng.integers(0, 60, 150)
    ds = ray.data.from_pandas(pd.DataFrame({"a": a, "b": b}))
    plain = {
        r["node"]: r["cluster_id"]
        for r in connected_components(ds).take_all()
    }
    doubled = {
        r["node"]: r["cluster_id"]
        for r in connected_components(ds, doubling=True).take_all()
    }
    assert plain == doubled

    # chain of 64 nodes: diameter 63 — far beyond a 4-round budget for
    # the plain propagation, within reach of O(log d) doubling rounds
    chain = ray.data.from_pandas(
        pd.DataFrame({"a": list(range(63)), "b": list(range(1, 64))})
    )
    import pytest

    with pytest.raises(RuntimeError, match="doubling"):
        connected_components(chain, max_rounds=4)
    got = {
        r["node"]: r["cluster_id"]
        for r in connected_components(chain, max_rounds=10, doubling=True).take_all()
    }
    assert set(got.values()) == {0} and len(got) == 64


def _shard_batches(*runs):
    return [
        pa.table(
            {
                "bucket": pa.array([b for b, _ in run], pa.int32()),
                "node": pa.array([n for _, n in run], pa.int64()),
            }
        )
        for run in runs
    ]


def test_shard_runs_joins_a_bucket_split_across_batches():
    from fs_schema_validator_ray.stages.graph import _shard_runs

    batches = _shard_batches(
        [(1, 10), (1, 11), (2, 20)],
        [],
        [(2, 21), (3, 30)],
    )
    got = [
        (b, pa.concat_arrays(parts).to_pylist()) for b, parts in _shard_runs(batches)
    ]
    assert got == [(1, [10, 11]), (2, [20, 21]), (3, [30])]


def test_shard_runs_raises_when_a_flushed_bucket_reappears():
    from fs_schema_validator_ray.stages.graph import _shard_runs

    batches = _shard_batches([(1, 10), (2, 20)], [(1, 11)])
    with pytest.raises(RuntimeError, match="reappeared"):
        list(_shard_runs(batches))
