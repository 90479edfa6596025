"""Distributed connected components (duplicate-cluster resolution).

Near-dup operators (`stages/dedup.py`) emit PAIRS; curation needs
CLUSTERS — "keep one representative per component of the similarity
graph". This stage closes that gap with iterative min-label propagation
expressed purely as Ray Data shuffles:

* state: one ``(node, label)`` row per node, label = smallest node id
  reached so far (init: itself);
* round: co-locate each edge's source with its current label (ONE
  bucket exchange on the node, ``stages/exchange.py``, of the tagged
  union), emit ``(dst, label(src))`` messages for both edge
  orientations, then min-reduce messages per node (second exchange) —
  every per-bucket body is one vectorized sort + segment scan, no
  per-node Python;
* converged when no label changed (labels only ever decrease, and the
  reduce counts changes as it goes — no extra comparison pass).

Rounds needed = graph diameter. Duplicate clusters are near-cliques or
stars (the LSH bucket overflow star-links members — `dedup.py`), so 2-4
rounds is typical; `max_rounds` guards pathological chain graphs, and
``doubling=True`` IS the hash-to-min upgrade path (O(log diameter)
rounds via dynamic v ↔ label(v) star edges — forced-parity pytest).

Scale notes: the edge set (near-dup pairs) is assumed ≪ corpus — it is
``materialize()``-d once and re-tagged per round instead of re-running
the pair pipeline (Ray Data branches re-execute their input). Per-round
state is O(nodes-in-edges) rows of (node, label), spread across buckets;
the driver holds only the per-round changed-count scalar.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_schema_validator_ray.stages.exchange import (
    BUCKET,
    bucket_ids,
    bucketed,
    default_n_buckets,
    map_buckets,
    route,
    segments,
)


def connected_components(
    edges,
    a_column: str = "a",
    b_column: str = "b",
    node_column: str = "node",
    cluster_column: str = "cluster_id",
    max_rounds: int = 25,
    n_buckets: int | None = None,
    doubling: bool = False,
):
    """Connected components of the undirected graph given by an edge
    Dataset → Dataset of ``(node_column, cluster_column)`` with one row
    per node that appears in an edge; ``cluster_column`` is the smallest
    node id in the component (a deterministic representative). Node ids
    may be any orderable Arrow type (ints, strings). Raises
    ``RuntimeError`` if not converged within ``max_rounds`` (diameter
    exceeded — not silently wrong).

    ``doubling=True`` switches to the hash-to-min scheme (the upgrade
    path the module docstring names for pathological chain graphs):
    each round also propagates along dynamic (v ↔ label(v)) star edges,
    converging in O(log diameter) rounds — same labels, same
    determinism, forced-parity pytest."""
    if n_buckets is None:
        n_buckets = default_n_buckets(edges)

    # pairs ≪ corpus (they are the near-duplicates): pin once, re-tag per
    # round rather than re-running the pair pipeline every round
    edges = edges.select_columns([a_column, b_column]).materialize()

    def tag_init(t: pa.Table) -> pa.Table:
        # distinct endpoints per batch, label = self
        nodes = pc.unique(
            pa.chunked_array(
                [t.column(a_column).combine_chunks(), t.column(b_column).combine_chunks()]
            ).combine_chunks()
        )
        nodes = nodes.filter(pc.is_valid(nodes))
        return pa.table(
            {
                "__node": nodes,
                "__lbl": nodes,
                "__old": pa.array(np.ones(len(nodes), bool)),
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        node = t.column(node_column).combine_chunks()
        return pa.table(
            {
                "__node": node,
                "__lbl": t.column(cluster_column).combine_chunks(),
                "__side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def tag_edges(t: pa.Table) -> pa.Table:
        a = t.column(a_column).combine_chunks()
        b = t.column(b_column).combine_chunks()
        src = pa.chunked_array([a, b]).combine_chunks()
        dst = pa.chunked_array([b, a]).combine_chunks()
        valid = pc.and_(pc.is_valid(src), pc.is_valid(dst))
        src, dst = src.filter(valid), dst.filter(valid)
        return pa.table(
            {
                "__node": src,  # keyed by source: co-locates with its label row
                "__lbl": dst,  # payload column reused (same type) for the dst id
                "__side": pa.array(np.ones(len(src), np.int8)),
            }
        )

    def propagate(group: pa.Table) -> pa.Table:
        """Per source-bucket: resolve label(src) for each edge, emit
        (dst, label(src)) messages + the label rows themselves."""
        side = np.asarray(group.column("__side"))
        node = group.column("__node").combine_chunks()
        lbl = group.column("__lbl").combine_chunks()
        node_np = node.to_numpy(zero_copy_only=False)
        lbl_np = lbl.to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == 0)
        e_idx = np.flatnonzero(side == 1)
        out_node = [node.take(pa.array(l_idx, pa.int64()))]
        out_lbl = [lbl.take(pa.array(l_idx, pa.int64()))]
        out_old = [np.ones(len(l_idx), bool)]
        if len(e_idx) and len(l_idx):
            ln = node_np[l_idx]
            ll = lbl_np[l_idx]
            o = np.argsort(ln, kind="stable")
            ln_s, ll_s = ln[o], ll[o]
            pos = np.clip(np.searchsorted(ln_s, node_np[e_idx]), 0, len(ln_s) - 1)
            # every edge endpoint has a label row by construction
            out_node.append(lbl.take(pa.array(e_idx, pa.int64())))  # dst ids
            out_lbl.append(pa.array(ll_s[pos], type=lbl.type))
            out_old.append(np.zeros(len(e_idx), bool))
        out = pa.table(
            {
                "__node": pa.chunked_array(out_node).combine_chunks(),
                "__lbl": pa.chunked_array(out_lbl).combine_chunks(),
                "__old": pa.array(np.concatenate(out_old)),
            }
        )
        # the second exchange's routing: messages meet at their dst node
        return out.append_column(BUCKET, pa.array(bucket_ids(out, ["__node"], n_buckets)))

    def min_reduce(group: pa.Table) -> pa.Table:
        """Per destination-bucket: new label = min over messages per
        node; count changes against the passthrough old label."""
        node = group.column("__node").combine_chunks()
        lbl = group.column("__lbl").combine_chunks()
        node_np = node.to_numpy(zero_copy_only=False)
        lbl_np = lbl.to_numpy(zero_copy_only=False)
        old = np.asarray(group.column("__old"))
        order, starts, seg_id, _, _ = segments(node_np, lbl_np)
        l_s, old_s = lbl_np[order], old[order]
        new_lbl = l_s[starts]  # min per node (sorted secondary)
        old_rows = np.flatnonzero(old_s)
        old_lbl = new_lbl.copy()
        old_lbl[seg_id[old_rows]] = l_s[old_rows]
        chg = (new_lbl != old_lbl).astype(np.int8)
        take = pa.array(order[starts], pa.int64())
        return pa.table(
            {
                node_column: node.take(take),
                cluster_column: pa.array(new_lbl, type=lbl.type),
                "__chg": pa.array(chg),
            }
        )

    # initial labels: per-batch distinct endpoints, reduced to one row
    # per node through the same min_reduce machinery (labels = self)
    labels = (
        bucketed(edges, ["__node"], n_buckets, min_reduce, tag_init)
        .drop_columns(["__chg"])
        .materialize()
    )

    def tag_label_edges(t: pa.Table) -> pa.Table:
        """Hash-to-min DOUBLING edges: each round also propagates along
        the DYNAMIC star edges (v ↔ label(v)), so label information
        jumps to the current representative and back — path lengths
        halve per round and chains converge in O(log diameter) rounds
        instead of O(diameter) (Rastogi et al., public algorithm)."""
        v = t.column(node_column).combine_chunks()
        lb = t.column(cluster_column).combine_chunks()
        src = pa.chunked_array([v, lb]).combine_chunks()
        dst = pa.chunked_array([lb, v]).combine_chunks()
        return pa.table(
            {
                "__node": src,
                "__lbl": dst,
                "__side": pa.array(np.ones(len(src), np.int8)),
            }
        )

    for _ in range(max_rounds):
        tagged = route(labels, ["__node"], n_buckets, tag_labels).union(
            route(edges, ["__node"], n_buckets, tag_edges)
        )
        if doubling:
            tagged = tagged.union(route(labels, ["__node"], n_buckets, tag_label_edges))
        new_labels = map_buckets(map_buckets(tagged, propagate), min_reduce).materialize()
        changed = new_labels.sum("__chg") or 0
        labels = new_labels.drop_columns(["__chg"]).materialize()
        if changed == 0:
            return labels
    raise RuntimeError(
        f"connected_components did not converge in {max_rounds} rounds "
        "(component diameter too large — "
        + ("raise max_rounds" if doubling else "use doubling=True")
        + ")"
    )


def _distinct_node_count(edges, endpoints_fn) -> int:
    """Distributed distinct-endpoint count (bucketed over the node hash)
    — O(1) driver memory, used only to pick broadcast vs co-partitioned
    node state before anything touches the driver."""
    from fs_schema_validator_ray.stages.agg import group_sum

    return int(
        group_sum(
            edges.map_batches(endpoints_fn, batch_format="pyarrow"), ["node"], []
        ).count()
    )


def pagerank(
    edges,
    src_column: str = "src",
    dst_column: str = "dst",
    damping: float = 0.85,
    max_iter: int = 200,
    tol: float = 1e-9,
    driver_pin_max: int = 5_000_000,
    max_broadcast_nodes: int = 50_000_000,
    _force_copartitioned: bool = False,
):
    """Distributed PageRank over an edge Dataset (broadcast-rank power
    iteration) → Dataset of ``(node, rank)``, ranks summing to 1.

    Layout: node ids are coded once (driver holds the unique-node table —
    the rank VECTOR must fit one machine, the standing assumption of
    broadcast PageRank up to ``max_broadcast_nodes``; beyond it the node
    state is SHARDED and the run switches to
    :func:`pagerank_copartitioned` — same auto-switchover convention as
    ``textindex.py::unigram_logprob_copartitioned``. The distinct-node
    count that decides is computed distributed, so the driver never
    pulls an unbounded node list just to discover it should not have).
    Coded edges are
    pinned in the object store ONCE; each of the ~``log(tol)/log(d)``
    rounds broadcasts the per-node outgoing mass via ``ray.put`` (read
    zero-copy in every task, never re-shipped per batch) and runs one
    raw-``@ray.remote`` wave over the pinned blocks emitting SPARSE
    per-block partial sums (block-local dense ``bincount`` → nonzero),
    merged on the driver with teleport + dangling mass closed-form —
    iterative fixed-point loops are the documented escape hatch from the
    Dataset API (per-round Dataset scheduling would dominate the wall).
    Edge sets ≤ ``driver_pin_max`` rows skip the task wave entirely
    (same small-side pin convention as ``dedup.py``'s verify path).
    Multi-edges count with multiplicity; self-loops are legal. Stops at
    L1 change < ``tol`` (a fixed-point gate, not an iteration-count
    guess); raises if not converged within ``max_iter``."""
    import ray
    import ray.data

    edges = edges.select_columns([src_column, dst_column]).materialize()

    # --- switchover: distributed distinct-node count decides the path ---
    def endpoints(t: pa.Table) -> pa.Table:
        both = pa.chunked_array(
            [
                t.column(src_column).combine_chunks(),
                t.column(dst_column).combine_chunks(),
            ]
        ).combine_chunks()
        both = pc.unique(both.filter(pc.is_valid(both)))
        return pa.table({"node": both})

    if _force_copartitioned or _distinct_node_count(
        edges, endpoints
    ) > max_broadcast_nodes:
        return pagerank_copartitioned(
            edges, src_column, dst_column, damping, max_iter, tol
        )

    # Dataset.unique() collects the distinct values to the driver — the
    # node table is exactly what broadcast PageRank must hold anyway
    uniq = edges.map_batches(endpoints, batch_format="pyarrow").unique("node")
    node_col = pa.array(sorted(uniq or []))
    n_nodes = len(node_col)
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table({"node": node_col, "rank": pa.array([], pa.float64())})
        )
    lookup_ref = ray.put(node_col)

    def code(t: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        s = pc.index_in(t.column(src_column).combine_chunks(), value_set=lk)
        d = pc.index_in(t.column(dst_column).combine_chunks(), value_set=lk)
        ok = pc.and_(pc.is_valid(s), pc.is_valid(d))
        return pa.table(
            {
                "scode": pc.cast(s, pa.int64()).filter(ok),
                "dcode": pc.cast(d, pa.int64()).filter(ok),
            }
        )

    # Pin the coded edge blocks ONCE as object-store refs. ~100 rounds of
    # per-iteration Dataset scheduling would dominate wall time; iterating
    # over pinned blocks with raw @ray.remote tasks is the documented
    # escape hatch for fixed-point loops the Dataset API can't express.
    @ray.remote
    def _table_len(tab: pa.Table) -> int:
        return len(tab)

    coded_refs = edges.map_batches(code, batch_format="pyarrow").to_arrow_refs()
    blocks = None
    n_edges = int(
        sum(ray.get([_table_len.remote(r) for r in coded_refs])) if coded_refs else 0
    )
    if n_edges <= driver_pin_max:
        # small-edge pin (like dedup.py's <200k-doc materialize pin): the
        # whole per-iteration pass is two bincounts — local beats 32 RPCs
        tabs = [t for t in ray.get(list(coded_refs)) if len(t)]
        if tabs:
            t = pa.concat_tables(tabs).combine_chunks()
            blocks = (
                np.asarray(t.column("scode"), np.int64),
                np.asarray(t.column("dcode"), np.int64),
            )
        else:
            blocks = (np.zeros(0, np.int64), np.zeros(0, np.int64))

    @ray.remote
    def _block_partial(tab: pa.Table, mass: np.ndarray, n: int):
        s = np.asarray(tab.column("scode"), np.int64)
        d = np.asarray(tab.column("dcode"), np.int64)
        dense = np.bincount(d, weights=mass[s], minlength=n)
        nz = np.flatnonzero(dense)
        return nz, dense[nz]

    @ray.remote
    def _block_outdeg(tab: pa.Table, n: int):
        s = np.asarray(tab.column("scode"), np.int64)
        return np.bincount(s, minlength=n)

    if blocks is not None:
        scode, dcode = blocks
        outdeg = np.bincount(scode, minlength=n_nodes).astype(np.float64)
    else:
        outdeg = sum(
            ray.get([_block_outdeg.remote(r, n_nodes) for r in coded_refs])
        ).astype(np.float64)
    dangling = outdeg == 0

    rank = np.full(n_nodes, 1.0 / n_nodes)
    for _ in range(max_iter):
        # per-node outgoing mass, pre-divided so tasks only gather+sum
        mass = np.where(dangling, 0.0, rank / np.maximum(outdeg, 1.0))
        if blocks is not None:
            inflow = np.bincount(
                dcode, weights=mass[scode], minlength=n_nodes
            ).astype(np.float64)
        else:
            mass_ref = ray.put(mass)  # zero-copy read in every task
            inflow = np.zeros(n_nodes, np.float64)
            for nz, w in ray.get(
                [_block_partial.remote(r, mass_ref, n_nodes) for r in coded_refs]
            ):
                inflow[nz] += w

        dangling_mass = float(rank[dangling].sum())
        new_rank = (1.0 - damping) / n_nodes + damping * (
            inflow + dangling_mass / n_nodes
        )
        delta = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        if delta < tol:
            return ray.data.from_arrow(
                pa.table({"node": node_col, "rank": pa.array(rank, pa.float64())})
            )
    raise RuntimeError(
        f"pagerank did not converge in {max_iter} iterations (last L1 delta "
        f"{delta:.3e} ≥ tol {tol:.1e})"
    )


def triangle_counts(
    edges,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int | None = None,
    max_broadcast_nodes: int = 2_000_000,
):
    """Exact per-node triangle counts via DEGREE-ORDERED edge
    orientation (the classic compact-forward / Schank-Wagner scheme —
    public algorithm): orient every undirected edge from the endpoint
    with the smaller ``(degree, id)`` to the larger, enumerate wedges
    only among each node's OUT-neighbours (out-degree is bounded by
    O(sqrt(m)) under this orientation, so wedge fan-out never explodes
    on hubs), and keep the wedges that close into an edge. Each triangle
    is found exactly once — it has exactly one node whose two oriented
    edges point at the other two.

    Plan: dedup to distinct undirected ``(a < b)`` edges (bucketed
    shuffle), one count pass for degrees, orientation via a broadcast
    ``ray.put`` degree index when the node count is ≤
    ``max_broadcast_nodes`` (two sorted-array ``searchsorted`` lookups
    per batch) — beyond that two pruned ``hash_join`` passes against the
    degree table (columns: three int64s; documented switchover, same
    convention as the unigram-LM scorer) — then one bucketed wedge
    expansion keyed by the wedge centre and one composite-key SEMI join
    of wedges against the edge set. Returns ``(node, triangles)``;
    nodes in no triangle are absent (SQL-consistent).

    Partitioning assumption: int64 node ids; the wedge exchange is keyed
    by ``hash(centre)`` so a hot centre's wedges land in one task — the
    orientation bound caps that at O(m) wedges per centre worst case.
    """
    import ray

    from fs_schema_validator_ray.stages.agg import group_sum
    from fs_schema_validator_ray.stages.dedup import dedup_pairs_distinct
    from fs_schema_validator_ray.stages.joins import hash_join, semi_anti_join

    if n_buckets is None:
        n_buckets = default_n_buckets(edges)

    def normalize(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column(src), np.int64)
        v = np.asarray(t.column(dst), np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return pa.table(
            {"a": pa.array(np.minimum(u, v)), "b": pa.array(np.maximum(u, v))}
        )

    und = dedup_pairs_distinct(
        edges.map_batches(normalize, batch_format="pyarrow"), n_buckets
    ).materialize()  # consumed three times (degrees, orientation, closure)
    from fs_schema_validator_ray.stages.agg import scrub_empty_blocks

    und = scrub_empty_blocks(und)

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                )
            }
        )

    deg = group_sum(
        und.map_batches(endpoints, batch_format="pyarrow"), ["node"], [], n_buckets
    )

    deg = scrub_empty_blocks(deg.materialize())  # consumed once or twice below
    n_nodes = deg.count()
    if n_nodes <= max_broadcast_nodes:
        # broadcast path: one sorted (node, deg) index in the object
        # store, resolved once per worker
        parts = [ray.get(r) for r in deg.to_arrow_refs()]
        nodes = np.concatenate(
            [np.asarray(t.column("node"), np.int64) for t in parts]
        )
        degs = np.concatenate([np.asarray(t.column("n"), np.int64) for t in parts])
        order = np.argsort(nodes)
        index_ref = ray.put((nodes[order], degs[order]))

        def orient_broadcast(t: pa.Table) -> pa.Table:
            idx_nodes, idx_degs = ray.get(index_ref)
            a = np.asarray(t.column("a"), np.int64)
            b = np.asarray(t.column("b"), np.int64)
            da = idx_degs[np.searchsorted(idx_nodes, a)]
            db = idx_degs[np.searchsorted(idx_nodes, b)]
            # orient from smaller (deg, id) to larger; ties break by
            # id and a < b already holds
            a_first = da <= db
            u = np.where(a_first, a, b)
            v = np.where(a_first, b, a)
            return pa.table({"u": pa.array(u), "v": pa.array(v)})

        oriented = und.map_batches(orient_broadcast, batch_format="pyarrow")
    else:
        e1 = hash_join(
            und,
            deg.map_batches(
                lambda t: t.rename_columns(["node", "deg_a"]),
                batch_format="pyarrow",
            ),
            left_on="a",
            right_on="node",
            left_value_columns=["b"],
            right_value_columns=["deg_a"],
            n_buckets=n_buckets,
        )
        e2 = hash_join(
            e1,
            deg.map_batches(
                lambda t: t.rename_columns(["node", "deg_b"]),
                batch_format="pyarrow",
            ),
            left_on="b",
            right_on="node",
            left_value_columns=["a", "deg_a"],
            right_value_columns=["deg_b"],
            n_buckets=n_buckets,
        )

        def orient_joined(t: pa.Table) -> pa.Table:
            a = np.asarray(t.column("a"), np.int64)
            b = np.asarray(t.column("b"), np.int64)
            da = np.asarray(t.column("deg_a"), np.int64)
            db = np.asarray(t.column("deg_b"), np.int64)
            a_first = da <= db  # (deg, id) order; a < b already holds
            u = np.where(a_first, a, b)
            v = np.where(a_first, b, a)
            return pa.table({"u": pa.array(u), "v": pa.array(v)})

        oriented = e2.map_batches(orient_joined, batch_format="pyarrow")

    def wedges(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), np.int64)
        v = np.asarray(group.column("v"), np.int64)
        order, starts, _, _, _ = segments(u)
        u, v = u[order], v[order]
        lens = np.diff(np.append(starts, len(u)))
        sq = lens * lens
        total = int(sq.sum())
        empty = pa.array([], pa.int64())
        if total == 0:
            return pa.table({"wa": empty, "wb": empty, "centre": empty})
        # ragged all-pairs per centre segment (same vectorized shape as
        # the co-order edge expansion), keep i < j once via id order
        off = np.repeat(starts, sq)
        lrep = np.repeat(lens, sq)
        p = np.arange(total) - np.repeat(np.cumsum(sq) - sq, sq)
        x = v[off + p // lrep]
        y = v[off + p % lrep]
        keep = x < y
        return pa.table(
            {
                "wa": pa.array(x[keep]),
                "wb": pa.array(y[keep]),
                "centre": pa.array(u[off[keep]]),
            }
        )

    wedge_ds = bucketed(oriented, ["u"], n_buckets, wedges)
    closed = semi_anti_join(
        wedge_ds,
        und,
        left_on=["wa", "wb"],
        right_on=["a", "b"],
        left_value_columns=["centre"],
        how="semi",
        n_buckets=n_buckets,
    )

    def triangle_nodes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t.column("wa").combine_chunks(),
                        t.column("wb").combine_chunks(),
                        t.column("centre").combine_chunks(),
                    ]
                )
            }
        )

    counts = group_sum(
        closed.map_batches(triangle_nodes, batch_format="pyarrow"),
        ["node"],
        [],
        n_buckets,
    )
    return counts.map_batches(
        lambda t: t.rename_columns(["node", "triangles"]), batch_format="pyarrow"
    )


def k_core(
    edges,
    src_column: str = "src",
    dst_column: str = "dst",
    driver_pin_max: int = 5_000_000,
    _force_distributed: bool = False,
    max_broadcast_nodes: int = 50_000_000,
    _force_copartitioned: bool = False,
):
    """Exact k-core DECOMPOSITION (core number per node) of the simple
    undirected graph induced by an edge Dataset: self-loops dropped,
    parallel edges deduped (one ``unique`` shuffle on the canonical
    packed pair), then iterative peeling — remove nodes of degree < k
    until stable, assign the removed nodes core ``k−1``, increment k.

    Same layout as :func:`pagerank`: node ids coded once (the per-node
    alive/core arrays are the broadcast-state assumption up to
    ``max_broadcast_nodes`` — beyond it the run switches to the sharded
    :func:`kcore_copartitioned`, decided by a distributed distinct-node
    count exactly like ``pagerank``), coded simple
    edges pinned once; each peel wave recomputes degrees among alive
    nodes as per-block ``bincount`` partials with the alive mask
    broadcast via ``ray.put`` (≤ ``driver_pin_max`` edges skip the task
    wave and peel on compressed driver arrays). Wave count is the peel
    depth of the graph (≤ max-degree worst case, tiny in practice) and
    each wave is one pass over the pinned blocks — the fixed-point
    escape hatch documented at ``pagerank``.

    Returns a Dataset ``(node, core)``; isolated / self-loop-only nodes
    get core 0. Brute-force parity is pytest-gated."""
    import ray
    import ray.data

    edges = edges.select_columns([src_column, dst_column]).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        both = pa.chunked_array(
            [
                t.column(src_column).combine_chunks(),
                t.column(dst_column).combine_chunks(),
            ]
        ).combine_chunks()
        both = pc.unique(both.filter(pc.is_valid(both)))
        return pa.table({"node": both})

    if _force_copartitioned or _distinct_node_count(
        edges, endpoints
    ) > max_broadcast_nodes:
        return kcore_copartitioned(edges, src_column, dst_column)

    uniq = edges.map_batches(endpoints, batch_format="pyarrow").unique("node")
    node_col = pa.array(sorted(uniq or []))
    n_nodes = len(node_col)
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table({"node": node_col, "core": pa.array([], pa.int64())})
        )
    lookup_ref = ray.put(node_col)

    def code_pack(t: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        s = pc.index_in(t.column(src_column).combine_chunks(), value_set=lk)
        d = pc.index_in(t.column(dst_column).combine_chunks(), value_set=lk)
        ok = pc.and_(pc.is_valid(s), pc.is_valid(d))
        sa = np.asarray(pc.cast(s, pa.int64()).filter(ok))
        da = np.asarray(pc.cast(d, pa.int64()).filter(ok))
        u = np.minimum(sa, da)
        v = np.maximum(sa, da)
        keep = u != v  # self-loops never count toward coreness
        # canonical packed pair (fits int64 while n_nodes < 3×10⁹)
        packed = u[keep] * np.int64(n_nodes) + v[keep]
        return pa.table({"packed": pa.array(np.unique(packed), pa.int64())})

    simple = (
        edges.map_batches(code_pack, batch_format="pyarrow").unique("packed")
    )  # global parallel-edge dedup
    packed = np.asarray(sorted(simple or []), dtype=np.int64)
    n_edges = len(packed)

    core = np.zeros(n_nodes, dtype=np.int64)
    alive = np.ones(n_nodes, dtype=bool)

    if n_edges <= driver_pin_max and not _force_distributed:
        u = packed // n_nodes
        v = packed % n_nodes
        k = 1
        while alive.any():
            while True:
                keep = alive[u] & alive[v]
                u, v = u[keep], v[keep]  # dead edges never resurrect
                deg = np.bincount(u, minlength=n_nodes) + np.bincount(
                    v, minlength=n_nodes
                )
                drop = alive & (deg < k)
                if not drop.any():
                    break
                core[drop] = k - 1
                alive &= ~drop
            k += 1
    else:
        # distributed peel: pinned coded edge blocks + broadcast alive mask
        n_blocks = max(1, n_edges // 2_000_000)
        refs = [
            ray.put(packed[i::n_blocks].copy()) for i in range(n_blocks)
        ]
        del packed

        @ray.remote
        def _deg_partial(block: np.ndarray, alive_mask: np.ndarray, n: int):
            u = block // n
            v = block % n
            keep = alive_mask[u] & alive_mask[v]
            dense = np.bincount(u[keep], minlength=n) + np.bincount(
                v[keep], minlength=n
            )
            nz = np.flatnonzero(dense)
            return nz, dense[nz]

        k = 1
        while alive.any():
            while True:
                alive_ref = ray.put(alive)
                deg = np.zeros(n_nodes, dtype=np.int64)
                for nz, w in ray.get(
                    [_deg_partial.remote(r, alive_ref, n_nodes) for r in refs]
                ):
                    deg[nz] += w
                drop = alive & (deg < k)
                if not drop.any():
                    break
                core[drop] = k - 1
                alive &= ~drop
            k += 1

    return ray.data.from_arrow(
        pa.table({"node": node_col, "core": pa.array(core, pa.int64())})
    )


# --- co-partitioned node-state graph engine (round 5) ------------------------
#
# The broadcast pagerank / k_core paths above hold per-node arrays on the
# driver (rank, outdeg, alive, core) — the standing assumption is "the node
# vector fits one machine", fine to ~5×10^7 nodes. Beyond that the node
# state must itself be sharded. The layout here:
#
# * nodes are hash-bucketed (`exchange.bucket_ids` over the node); each
#   bucket's sorted unique node array is pinned ONCE in the object store
#   and defines that bucket's local code space (`pc.index_in`);
# * edges are coded to (sb, db, scode, dcode) via two grouped exchanges
#   (one per endpoint — each group task reads exactly ONE node shard),
#   then pinned as Arrow block refs for the whole iteration;
# * every iteration is a scatter/gather wave of raw @ray.remote tasks —
#   the documented fixed-point escape hatch (see `pagerank`): scatter
#   tasks run per pinned edge block and return ONE output slot per
#   destination bucket (`options(num_returns=B)`), so each gather task
#   fetches only its own slot — a real shuffle, not an all-gather;
# * the driver touches only O(B) scalars per wave (deltas, drop counts,
#   dangling mass); per-node state lives in the object store as B shard
#   arrays handed task-to-task by reference.
#
# Per-task memory: one edge block + O(n/B) shard arrays. Per-wave traffic:
# pagerank moves the sparse inflow partials (≤ touched dst nodes);
# k-core moves only the per-wave DROP sets (Σ over the whole run = n
# rows), never the alive mask. At 10^9+ nodes the one remaining
# driver-streamed step (the shard build flushes one bucket at a time)
# would write per-bucket parquet instead — noted inline.


def _node_buckets(col, n_buckets: int) -> np.ndarray:
    return bucket_ids(pa.table({"node": col}), ["node"], n_buckets)


def _shard_runs(batches):
    """Split the grouped ``(bucket, node)`` output, streamed in order,
    into ``(bucket, [node slices])`` — one item per bucket. Raises when a
    bucket shows up again after another bucket's rows: its shard was
    already handed out, so the late rows would be lost."""
    done: set[int] = set()
    cur_b, parts = None, []
    for t in batches:
        if not t.num_rows:
            continue
        b_arr = np.asarray(t.column("bucket"), np.int64)
        node_col = t.column("node").combine_chunks()
        starts = np.flatnonzero(np.concatenate([[True], b_arr[1:] != b_arr[:-1]]))
        ends = np.append(starts[1:], len(b_arr))
        for s, e in zip(starts, ends):
            b = int(b_arr[s])
            if b != cur_b:
                if cur_b is not None:
                    yield cur_b, parts
                    done.add(cur_b)
                if b in done:
                    raise RuntimeError(
                        f"node shard {b} reappeared after it was flushed: the "
                        "grouped output is not contiguous per bucket"
                    )
                cur_b, parts = b, []
            parts.append(node_col.slice(s, e - s))
    if cur_b is not None:
        yield cur_b, parts


def _code_counts_by_bucket(buckets: np.ndarray, codes: np.ndarray):
    """``(bucket, (distinct codes, counts))`` for each bucket id present."""
    order, starts, _, _, row_end = segments(buckets)
    b_s, c_s = buckets[order], codes[order]
    for s, e in zip(starts, row_end[starts]):
        u, cnt = np.unique(c_s[s:e], return_counts=True)
        yield int(b_s[s]), (u, cnt.astype(np.int64))


def _slots(out: list):
    """Return value of a ``num_returns=len(out)`` task: one object per
    slot; with one slot Ray stores the return value itself, so it is the
    slot, not a 1-tuple."""
    return out[0] if len(out) == 1 else tuple(out)


def _deg_scatter(tab: pa.Table, nb: int):
    """Source-degree partials of one pinned coded edge block, one output
    slot per source bucket (:func:`_slots`)."""
    out = [None] * nb
    if not tab.num_rows:  # a grouped exchange's empty block has no columns
        return _slots(out)
    sb = np.asarray(tab.column("sb"), np.int64)
    sc = np.asarray(tab.column("scode"), np.int64)
    for b, counts in _code_counts_by_bucket(sb, sc):
        out[b] = counts
    return _slots(out)


def _build_node_shards(edges, src_column, dst_column, n_buckets):
    """Per-bucket sorted unique node arrays, pinned in the object store.

    Returns ``(shard_refs: dict[bucket, ObjectRef[pa.Array]], sizes)``.
    The driver streams the grouped output ONE bucket at a time (peak
    driver memory = one shard); at 10^9+ nodes this flush would
    ``write_parquet`` per bucket instead and tasks would read their
    shard from storage.
    """
    import ray

    def endpoints(t: pa.Table) -> pa.Table:
        both = pa.chunked_array(
            [
                t.column(src_column).combine_chunks(),
                t.column(dst_column).combine_chunks(),
            ]
        ).combine_chunks()
        both = pc.unique(both.filter(pc.is_valid(both)))
        return pa.table({"node": both})

    def per_bucket(g: pa.Table) -> pa.Table:
        nodes = pc.unique(g.column("node").combine_chunks())
        nodes = nodes.take(pc.sort_indices(nodes))
        # every node of the group routed here: its bucket is the group's
        b = bucket_ids(g.slice(0, 1), ["node"], n_buckets)[0]
        return pa.table({"bucket": pa.array(np.full(len(nodes), b, np.int32)), "node": nodes})

    merged = bucketed(edges, ["node"], n_buckets, per_bucket, endpoints)

    shard_refs: dict[int, object] = {}
    sizes: dict[int, int] = {}
    for b, parts in _shard_runs(merged.iter_batches(batch_format="pyarrow")):
        arr = pa.concat_arrays(parts)
        arr = pc.unique(arr)  # idempotent if Ray sliced a group's block
        arr = arr.take(pc.sort_indices(arr))
        shard_refs[b] = ray.put(arr)
        sizes[b] = len(arr)
    return shard_refs, sizes


def _code_edge_blocks(edge_rows, shard_refs, n_buckets):
    """Code raw ``(sb, src, db, dst)`` rows to pinned ``(sb, db, scode,
    dcode)`` Arrow block refs via two grouped exchanges — each group
    task reads exactly one node shard (its bucket's)."""
    import ray

    def code_dst(g: pa.Table) -> pa.Table:
        db = int(g.column("db")[0].as_py())
        shard = ray.get(shard_refs[db])
        dcode = pc.cast(
            pc.index_in(g.column("dst").combine_chunks(), value_set=shard),
            pa.int64(),
        )
        return pa.table(
            {
                "sb": g.column("sb"),
                "src": g.column("src"),
                "db": g.column("db"),
                "dcode": dcode,
            }
        )

    def code_src(g: pa.Table) -> pa.Table:
        sb = int(g.column("sb")[0].as_py())
        shard = ray.get(shard_refs[sb])
        scode = pc.cast(
            pc.index_in(g.column("src").combine_chunks(), value_set=shard),
            pa.int64(),
        )
        return pa.table(
            {
                "sb": g.column("sb"),
                "db": g.column("db"),
                "scode": scode,
                "dcode": g.column("dcode"),
            }
        )

    # native groupby (both): per-key map_groups bodies, not yet on bucketed + segments
    coded = (
        edge_rows.groupby("db")
        .map_groups(code_dst, batch_format="pyarrow")
        .groupby("sb")
        .map_groups(code_src, batch_format="pyarrow")
        .materialize()
    )
    return [r for r in coded.to_arrow_refs()]


def pagerank_copartitioned(
    edges,
    src_column: str = "src",
    dst_column: str = "dst",
    damping: float = 0.85,
    max_iter: int = 200,
    tol: float = 1e-9,
    n_buckets: int | None = None,
):
    """PageRank with SHARDED node state (see module-tail design note):
    no driver-held node arrays, no per-wave broadcast of the rank
    vector. Ranks match the broadcast :func:`pagerank` to float
    round-off (summation order differs across shards); the forced-switch
    pytest gates allclose(1e-12) + identical node sets."""
    import ray
    import ray.data

    edges = edges.select_columns([src_column, dst_column]).materialize()
    if n_buckets is None:
        n_buckets = default_n_buckets(edges)
    B = int(n_buckets)

    shard_refs, sizes = _build_node_shards(edges, src_column, dst_column, B)
    n_nodes = int(sum(sizes.values()))
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()), "rank": pa.array([], pa.float64())}
            )
        )
    buckets = sorted(shard_refs)

    def tag(t: pa.Table) -> pa.Table:
        src = t.column(src_column).combine_chunks()
        dst = t.column(dst_column).combine_chunks()
        ok = pc.and_(pc.is_valid(src), pc.is_valid(dst))
        src, dst = src.filter(ok), dst.filter(ok)
        return pa.table(
            {
                "sb": pa.array(_node_buckets(src, B)),
                "src": src,
                "db": pa.array(_node_buckets(dst, B)),
                "dst": dst,
            }
        )

    block_refs = _code_edge_blocks(
        edges.map_batches(tag, batch_format="pyarrow"), shard_refs, B
    )

    @ray.remote
    def _deg_gather(size: int, *partials):
        deg = np.zeros(size, np.int64)
        for p in partials:
            if p is not None:
                deg[p[0]] += p[1]
        return deg

    deg_scatter = ray.remote(_deg_scatter).options(num_returns=B)
    deg_parts = [deg_scatter.remote(r, B) for r in block_refs]
    if B == 1:  # num_returns=1 returns the bare ref, not a list
        deg_parts = [[p] for p in deg_parts]
    outdeg_refs = {
        b: _deg_gather.remote(sizes[b], *[dp[b] for dp in deg_parts])
        for b in buckets
    }

    @ray.remote(num_returns=2)
    def _init(size: int, n: int, outdeg: np.ndarray):
        rank = np.full(size, 1.0 / n)
        mass = np.where(outdeg > 0, rank / np.maximum(outdeg, 1), 0.0)
        dangling = float(rank[outdeg == 0].sum())
        return (mass, rank), (0.0, dangling)

    @ray.remote
    def _scatter(tab: pa.Table, nb: int, state_refs: list):
        out: list = [None] * nb
        if not tab.num_rows:
            return _slots(out)
        sb = np.asarray(tab.column("sb"), np.int64)
        db = np.asarray(tab.column("db"), np.int64)
        sc = np.asarray(tab.column("scode"), np.int64)
        dc = np.asarray(tab.column("dcode"), np.int64)
        order, s_starts, _, _, s_end = segments(sb, db, dc)
        sb, db, sc, dc = sb[order], db[order], sc[order], dc[order]
        acc: list = [[] for _ in range(nb)]
        for ss, se in zip(s_starts, s_end[s_starts]):
            import ray as _ray

            mass = _ray.get(state_refs[int(sb[ss])])[0]
            w = mass[sc[ss:se]]
            db_seg, dc_seg = db[ss:se], dc[ss:se]
            d_starts = np.flatnonzero(
                np.concatenate([[True], db_seg[1:] != db_seg[:-1]])
            )
            d_ends = np.concatenate([d_starts[1:], [len(db_seg)]])
            for ds_, de in zip(d_starts, d_ends):
                codes = dc_seg[ds_:de]
                uniq, inv = np.unique(codes, return_inverse=True)
                sums = np.bincount(inv, weights=w[ds_:de])
                acc[int(db_seg[ds_])].append((uniq, sums))
        for i in range(nb):
            if acc[i]:
                out[i] = acc[i]
        return _slots(out)

    @ray.remote(num_returns=2)
    def _gather(
        size: int,
        n: int,
        d: float,
        dangling_prev: float,
        state,
        outdeg: np.ndarray,
        *partials,
    ):
        inflow = np.zeros(size, np.float64)
        for plist in partials:
            if plist is not None:
                for codes, w in plist:
                    inflow[codes] += w
        prev_rank = state[1]
        new_rank = (1.0 - d) / n + d * (inflow + dangling_prev / n)
        delta = float(np.abs(new_rank - prev_rank).sum())
        mass = np.where(outdeg > 0, new_rank / np.maximum(outdeg, 1), 0.0)
        dangling = float(new_rank[outdeg == 0].sum())
        return (mass, new_rank), (delta, dangling)

    init_out = {b: _init.remote(sizes[b], n_nodes, outdeg_refs[b]) for b in buckets}
    state_by_bucket = {b: init_out[b][0] for b in buckets}
    dangling = sum(s[1] for s in ray.get([init_out[b][1] for b in buckets]))

    # state_refs list indexed by bucket id for scatter tasks
    def state_list():
        return [state_by_bucket.get(b) for b in range(B)]

    for _ in range(max_iter):
        sc_out = [
            _scatter.options(num_returns=B).remote(r, B, state_list())
            for r in block_refs
        ]
        if B == 1:
            sc_out = [[p] for p in sc_out]
        gout = {
            b: _gather.remote(
                sizes[b],
                n_nodes,
                damping,
                dangling,
                state_by_bucket[b],
                outdeg_refs[b],
                *[so[b] for so in sc_out],
            )
            for b in buckets
        }
        state_by_bucket = {b: gout[b][0] for b in buckets}
        scalars = ray.get([gout[b][1] for b in buckets])
        delta = sum(s[0] for s in scalars)
        dangling = sum(s[1] for s in scalars)
        if delta < tol:
            break
    else:
        raise RuntimeError(
            f"pagerank_copartitioned did not converge in {max_iter} iterations "
            f"(last L1 delta {delta:.3e} ≥ tol {tol:.1e})"
        )

    @ray.remote
    def _emit(nodes: pa.Array, state):
        return pa.table({"node": nodes, "rank": pa.array(state[1], pa.float64())})

    return ray.data.from_arrow_refs(
        [_emit.remote(shard_refs[b], state_by_bucket[b]) for b in buckets]
    )


def kcore_copartitioned(
    edges,
    src_column: str = "src",
    dst_column: str = "dst",
    n_buckets: int | None = None,
):
    """k-core decomposition with SHARDED node state (see module-tail
    design note). Per-wave traffic is only the DROP sets (Σ = n over the
    whole run) — the alive mask never leaves its shard. Integer-exact:
    byte-identical cores to the broadcast :func:`k_core` (forced-switch
    pytest gate)."""
    import ray
    import ray.data

    edges = edges.select_columns([src_column, dst_column]).materialize()
    if n_buckets is None:
        n_buckets = default_n_buckets(edges)
    B = int(n_buckets)

    shard_refs, sizes = _build_node_shards(edges, src_column, dst_column, B)
    n_nodes = int(sum(sizes.values()))
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()), "core": pa.array([], pa.int64())}
            )
        )
    buckets = sorted(shard_refs)

    # simple-graph canonical dedup (distributed: pair-hash buckets), then
    # both orientations so scode-degree == node degree
    from fs_schema_validator_ray.state.sketches import stable_key_array

    def canon(t: pa.Table) -> pa.Table:
        src = t.column(src_column).combine_chunks()
        dst = t.column(dst_column).combine_chunks()
        ok = pc.and_(pc.is_valid(src), pc.is_valid(dst))
        src, dst = src.filter(ok), dst.filter(ok)
        sa = np.asarray(stable_key_array(src))
        da = np.asarray(stable_key_array(dst))
        lt = sa <= da
        keep = sa != da  # drop self-loops
        u = pa.chunked_array(
            [src.filter(pa.array(lt & keep)), dst.filter(pa.array(~lt & keep))]
        ).combine_chunks()
        v = pa.chunked_array(
            [dst.filter(pa.array(lt & keep)), src.filter(pa.array(~lt & keep))]
        ).combine_chunks()
        return pa.table({"u": u, "v": v})

    def distinct_pairs(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("u"), dtype=object)
        v = np.asarray(g.column("v"), dtype=object)
        order, starts, _, _, _ = segments((u, v))
        return g.take(pa.array(order[starts], pa.int64()))

    simple = bucketed(edges, ["u", "v"], B, distinct_pairs, canon)

    def orient_both(t: pa.Table) -> pa.Table:
        u = t.column("u").combine_chunks()
        v = t.column("v").combine_chunks()
        src = pa.chunked_array([u, v]).combine_chunks()
        dst = pa.chunked_array([v, u]).combine_chunks()
        return pa.table(
            {
                "sb": pa.array(_node_buckets(src, B)),
                "src": src,
                "db": pa.array(_node_buckets(dst, B)),
                "dst": dst,
            }
        )

    block_refs = _code_edge_blocks(
        simple.map_batches(orient_both, batch_format="pyarrow"), shard_refs, B
    )

    @ray.remote
    def _state_init(size: int, *partials):
        deg = np.zeros(size, np.int64)
        for p in partials:
            if p is not None:
                deg[p[0]] += p[1]
        return deg, np.ones(size, bool), np.zeros(size, np.int64)

    deg_scatter = ray.remote(_deg_scatter).options(num_returns=B)
    deg_parts = [deg_scatter.remote(r, B) for r in block_refs]
    if B == 1:
        deg_parts = [[p] for p in deg_parts]
    state_by_bucket = {
        b: _state_init.remote(sizes[b], *[dp[b] for dp in deg_parts])
        for b in buckets
    }

    @ray.remote(num_returns=2)
    def _drop(state, k: int):
        deg, alive, core = state
        drop = alive & (deg < k)
        if drop.any():
            core = core.copy()
            alive = alive.copy()
            core[drop] = k - 1
            alive[drop] = False
        return (deg, alive, core), (
            np.flatnonzero(drop),
            int(drop.sum()),
            int(alive.sum()),
        )

    @ray.remote
    def _kc_scatter(tab: pa.Table, nb: int, drop_refs: list):
        out: list = [None] * nb
        if not tab.num_rows:
            return _slots(out)
        import ray as _ray

        sb = np.asarray(tab.column("sb"), np.int64)
        db = np.asarray(tab.column("db"), np.int64)
        sc = np.asarray(tab.column("scode"), np.int64)
        dc = np.asarray(tab.column("dcode"), np.int64)
        acc: list = [[] for _ in range(nb)]
        order, starts, _, _, row_end = segments(db)
        db_s = db[order]
        for s, e in zip(starts, row_end[starts]):
            b = int(db_s[s])
            dropped = drop_refs[b]
            if dropped is None:
                continue
            dropped = _ray.get(dropped)
            if not len(dropped):
                continue
            idx = order[s:e]
            hit = np.isin(dc[idx], dropped)
            if not hit.any():
                continue
            idx = idx[hit]
            # decrement scode's degree in its own bucket
            for b2, counts in _code_counts_by_bucket(sb[idx], sc[idx]):
                acc[b2].append(counts)
        for i in range(nb):
            if acc[i]:
                out[i] = acc[i]
        return _slots(out)

    @ray.remote
    def _kc_apply(state, *partials):
        deg, alive, core = state
        dec = np.zeros(len(deg), np.int64)
        any_dec = False
        for plist in partials:
            if plist is not None:
                for codes, cnts in plist:
                    dec[codes] += cnts
                    any_dec = True
        if not any_dec:
            return state
        return deg - dec, alive, core

    @ray.remote
    def _drop_codes(drop_out):
        return drop_out[0]

    k = 1
    n_alive = n_nodes
    while n_alive > 0:
        while True:
            d_out = {
                b: _drop.remote(state_by_bucket[b], k) for b in buckets
            }
            info = ray.get([d_out[b][1] for b in buckets])
            n_drop = sum(i[1] for i in info)
            n_alive = sum(i[2] for i in info)
            state_by_bucket = {b: d_out[b][0] for b in buckets}
            if n_drop == 0:
                break
            drop_list: list = [None] * B
            for b, i in zip(buckets, info):
                if i[1]:
                    drop_list[b] = _drop_codes.remote(d_out[b][1])
            sc_out = [
                _kc_scatter.options(num_returns=B).remote(r, B, drop_list)
                for r in block_refs
            ]
            if B == 1:
                sc_out = [[p] for p in sc_out]
            state_by_bucket = {
                b: _kc_apply.remote(state_by_bucket[b], *[so[b] for so in sc_out])
                for b in buckets
            }
        k += 1

    @ray.remote
    def _emit(nodes: pa.Array, state):
        return pa.table({"node": nodes, "core": pa.array(state[2], pa.int64())})

    return ray.data.from_arrow_refs(
        [_emit.remote(shard_refs[b], state_by_bucket[b]) for b in buckets]
    )
