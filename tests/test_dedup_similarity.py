"""Dedup + similarity-search operators: golden expectations on planted
corpora (the reference's golden-violation test pattern, SURVEY.md §5,
applied to the training-data operators)."""

import os

import numpy as np
import pyarrow as pa
import pytest


def docs_table():
    """12 docs: 0/1 exact dups; 2/3 near-dups (one word changed);
    4..9 unrelated; 10 empty; 11 dup of 4."""
    base = (
        "the quick brown fox jumps over the lazy dog while seven wizards "
        "brew strong coffee under pale moonlight near quiet rivers"
    )
    near = base.replace("coffee", "tea")
    texts = [
        base,
        base,
        base + " and old stone bridges",
        near + " and old stone bridges",
        "completely different content about distributed stream processing engines",
        "arrow columnar memory format enables zero copy data interchange",
        "ray data pipelines schedule tasks with backpressure and spilling",
        "validation rules emit violation rows keyed by clip and rule",
        "sketches merge associatively hyperloglog tdigest bloom histogram",
        "audio clips decode to pcm and compare against reference signals",
        "",
        "completely different content about distributed stream processing engines",
    ]
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )


def embeddings_table(n=40, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, dim))
    # plant: 35 ≈ 0 (tiny perturbation), 36 ≈ -0 (anti-correlated)
    mat[35] = mat[0] + rng.standard_normal(dim) * 0.01
    mat[36] = -mat[0]
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32())),
        }
    )


def test_exact_dedup(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import exact_dedup_keep_min

    ds = ray.data.from_arrow(docs_table())
    kept = sorted(r["doc_id"] for r in exact_dedup_keep_min(ds).take_all())
    # dup groups {0,1} -> 0 and {4,11} -> 4; everything else unique
    assert kept == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_minhash_near_dup(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import minhash_near_dup_pairs

    ds = ray.data.from_arrow(docs_table())
    # bands=32 (r=4): catch probability ≈ 1 at J ≥ 0.7 — deterministic test
    pairs = {
        (r["a"], r["b"]): r["similarity"]
        for r in minhash_near_dup_pairs(ds, threshold=0.5, bands=32).take_all()
    }
    assert (0, 1) in pairs and pairs[(0, 1)] == 1.0  # exact dup
    assert (4, 11) in pairs and pairs[(4, 11)] == 1.0
    assert (2, 3) in pairs and 0.5 <= pairs[(2, 3)] < 1.0  # near dup
    # unrelated docs must not pair
    assert all(a in (0, 1, 2, 3, 4, 11) and b in (0, 1, 2, 3, 4, 11) for a, b in pairs)


def test_simhash_near_dup(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import simhash_near_dup_pairs

    ds = ray.data.from_arrow(docs_table())
    pairs = {(r["a"], r["b"]) for r in simhash_near_dup_pairs(ds, max_hamming=3).take_all()}
    assert (0, 1) in pairs and (4, 11) in pairs  # exact dups: hamming 0
    assert (5, 6) not in pairs


def test_simhash_vectorized_matches_rowwise():
    from fs_schema_validator_ray.stages.dedup import simhash64
    from fs_schema_validator_ray.state.sketches import hash64

    t = docs_table()
    got = simhash64(t.column("text").combine_chunks())
    for i, text in enumerate(t.column("text").to_pylist()):
        # regex split of an empty doc yields one empty token (all empty
        # docs share a signature and pair as exact dups — intended)
        toks = text.split() or [""]
        votes = np.zeros(64)
        for h in hash64(np.asarray(toks, dtype=object)):
            for b in range(64):
                votes[b] += 1 if (int(h) >> b) & 1 else -1
        expect = sum(1 << b for b in range(64) if votes[b] > 0)
        assert int(got[i]) == expect


def test_embedding_near_dup_bruteforce_and_lsh(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import embedding_near_dup_pairs
    from fs_schema_validator_ray.stages.similarity import embedding_near_dup_lsh

    ds = ray.data.from_arrow(embeddings_table())
    exact = {(r["a"], r["b"]) for r in embedding_near_dup_pairs(ds, threshold=0.9).take_all()}
    assert exact == {(0, 35)}  # the planted near-identical pair; not the negated one
    lsh = {(r["a"], r["b"]) for r in embedding_near_dup_lsh(ds, threshold=0.9).take_all()}
    assert lsh == {(0, 35)}  # strong near-dups survive block LSH


def test_topk_cosine_matches_numpy(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.dedup import list_column_to_matrix
    from fs_schema_validator_ray.stages.similarity import topk_cosine, topk_cosine_ivf

    t = embeddings_table()
    mat = list_column_to_matrix(t.column("embedding")).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q_ids = np.array([0, 7], dtype=np.int64)
    q = mat[q_ids]
    sims = q @ mat.T

    ds = ray.data.from_arrow(t)
    out = topk_cosine(ds, q_ids, mat[q_ids] * 3.0, k=5, exclude_self=True).take_all()
    for qi, qid in enumerate(q_ids):
        order = [
            j for j in np.lexsort((np.arange(len(mat)), -sims[qi])) if j != qid
        ][:5]
        got = sorted(
            (r["rank"], r["neighbor_id"]) for r in out if r["query_id"] == qid
        )
        assert [n for _, n in got] == order

    # IVF with all lists probed == exact
    ivf = topk_cosine_ivf(
        ds, q_ids, q, k=5, n_clusters=4, n_probe=4, exclude_self=True
    ).take_all()
    assert {(r["query_id"], r["neighbor_id"]) for r in ivf} == {
        (r["query_id"], r["neighbor_id"]) for r in out
    }


def test_jaccard_verify_threshold():
    import numpy as np

    from fs_schema_validator_ray.stages.dedup import JaccardVerifyStage

    lookup = {
        1: np.array([1, 2, 3, 4], dtype=np.uint64),
        2: np.array([3, 4, 5, 6], dtype=np.uint64),
        3: np.array([1, 2, 3, 4], dtype=np.uint64),
    }
    stage = JaccardVerifyStage(lookup, threshold=0.5)
    batch = pa.table({"a": pa.array([1, 1], pa.int64()), "b": pa.array([2, 3], pa.int64())})
    out = stage(batch).to_pylist()
    assert [(r["a"], r["b"], r["similarity"]) for r in out] == [(1, 3, 1.0)]


@pytest.mark.skipif(
    not os.path.isdir("/root/testdata/sf0.001"), reason="driver testdata absent"
)
def test_ivf_recall_gate(ray_session):
    """VERDICT r1 item 8: quantitative gate for the approximate ANN path —
    IVF top-k (n_probe < n_clusters) must reach recall ≥ 0.9 against the
    exact brute-force top-k on the same deterministic testdata."""
    from fs_schema_validator_ray.pipelines.queries import ann_ivf_recall

    recall = ann_ivf_recall("/root/testdata/sf0.001")
    assert recall >= 0.9, f"IVF recall {recall:.3f} < 0.9"


def test_ngram_jaccard_exact_vs_bruteforce(ray_session):
    """Prefix-filter set-similarity join is EXACT: both verify paths must
    equal the all-pairs brute force (token-set Jaccard, threshold 0.5)."""
    import itertools
    import re

    import ray.data

    from fs_schema_validator_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(5)
    words = [f"tok{i}" for i in range(80)]
    texts = []
    for i in range(60):
        base = " ".join(rng.choice(words, size=rng.integers(5, 25)))
        texts.append(base)
        if i % 4 == 0:  # plant a near-dup
            toks = base.split()
            toks[0] = "zzz"
            texts.append(" ".join(toks))
    t = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts)}
    )

    def tokset(s):
        return {x for x in re.split(r"[^a-z0-9]+", s.lower()) if x}

    thr = 0.5
    expect = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        A, B = tokset(texts[a]), tokset(texts[b])
        if not A and not B:
            continue
        i = len(A & B)
        u = len(A | B)
        j = i / u if u else 1.0
        if j >= thr:
            expect.append((a, b, round(j, 9)))
    expect.sort()
    assert expect, "fixture must plant qualifying pairs"

    def norm(out):
        return sorted(
            (r["a"], r["b"], round(r["similarity"], 9)) for r in out.take_all()
        )

    ds = ray.data.from_arrow(t)
    assert norm(ngram_jaccard_pairs(ds, threshold=thr)) == expect
    assert (
        norm(ngram_jaccard_pairs(ds, threshold=thr, max_broadcast_docs=0))
        == expect
    )
    # frequency-ordered prefix path (auto-skipped on small corpora)
    assert norm(ngram_jaccard_pairs(ds, threshold=thr, freq_order=True)) == expect

    # trigram shingles: docs with <3 tokens emit no shingles (SQL parity)
    def trigram_set(s_):
        toks = [x for x in re.split(r"[^a-z0-9]+", s_.lower()) if x]
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    expect3 = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        A, B = trigram_set(texts[a]), trigram_set(texts[b])
        if not A or not B:
            continue
        i = len(A & B)
        j = i / (len(A) + len(B) - i)
        if j >= thr:
            expect3.append((a, b, round(j, 9)))
    expect3.sort()
    assert expect3, "fixture must plant qualifying trigram pairs"
    assert norm(ngram_jaccard_pairs(ds, threshold=thr, shingle_n=3)) == expect3


def test_kmeans_cluster_separates_blobs(ray_session):
    """Two well-separated direction blobs → k-means with k=2 puts each
    blob in one cluster (purity 1.0), one assignment row per vector."""
    import ray.data

    from fs_schema_validator_ray.stages.similarity import kmeans_cluster

    rng = np.random.default_rng(3)
    a = rng.normal(0, 0.05, (60, 8)) + np.array([1.0] + [0.0] * 7)
    b = rng.normal(0, 0.05, (60, 8)) + np.array([0.0] * 7 + [1.0])
    mat = np.concatenate([a, b]).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(120, dtype=np.int64)),
            "embedding": pa.array(list(mat)),
        }
    )
    out = kmeans_cluster(
        ray.data.from_arrow(t).repartition(5),
        n_clusters=2, iters=4, sample_size=50,
    ).take_all()
    assert len(out) == 120
    cl = {r["vec_id"]: r["cluster_id"] for r in out}
    first = {cl[i] for i in range(60)}
    second = {cl[i] for i in range(60, 120)}
    assert len(first) == 1 and len(second) == 1 and first != second


def test_kmeans_centroids_do_not_depend_on_the_blocking(ray_session):
    """The same vectors in another order and another number of blocks:
    the sample is the same rows in the same order and the partial sums
    are exact, so the centroids are equal bit for bit."""
    import ray.data

    from fs_schema_validator_ray.stages.similarity import kmeans_centroids

    rng = np.random.default_rng(21)
    mat = rng.normal(size=(400, 12))

    def blocked(order, blocks):
        t = pa.table({"embedding": pa.array(list(mat[order]), pa.list_(pa.float64()))})
        return ray.data.from_arrow(t).repartition(blocks)

    a = kmeans_centroids(blocked(np.arange(400), 3), 6, iters=3, sample_size=64)
    b = kmeans_centroids(blocked(rng.permutation(400), 7), 6, iters=3, sample_size=64)
    assert a.shape == (6, 12)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# --- distributed PCA ---------------------------------------------------------


def test_pca_project_matches_numpy(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.similarity import pca_fit, pca_project

    rng = np.random.default_rng(42)
    # anisotropic cloud: dominant axis along a fixed direction
    base = rng.normal(size=(200, 5))
    base[:, 0] *= 8.0
    base[:, 1] *= 3.0
    rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    x = base @ rot.T + np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(200), pa.int64()),
            "embedding": pa.array(list(x.astype(np.float32))),
        }
    )
    ds = ray.data.from_arrow(t).repartition(5)
    mean, comps, evals = pca_fit(ds, 2)
    xf = x.astype(np.float32).astype(np.float64)  # engine sees float32 input
    # reference: exact covariance eigh with the same sign convention
    c = np.cov(xf, rowvar=False, ddof=1)
    ev, evec = np.linalg.eigh(c)
    order = np.argsort(ev)[::-1][:2]
    ref = evec[:, order].T
    flip = ref[np.arange(2), np.abs(ref).argmax(axis=1)] < 0
    ref[flip] *= -1.0
    assert np.allclose(mean, xf.mean(axis=0), atol=1e-9)
    assert np.allclose(comps, ref, atol=1e-9)
    assert np.allclose(evals, ev[order], atol=1e-9)
    assert evals[0] > 4 * evals[1]  # dominant axis found
    # distributed projection matches the direct one, row-aligned by id
    out = pca_project(ds, n_components=2).to_pandas().sort_values("vec_id")
    proj_ref = (xf - xf.mean(axis=0)) @ ref.T
    got = out[["pc0", "pc1"]].to_numpy()
    assert np.allclose(got, proj_ref, atol=1e-9)


def test_pca_whiten_unit_variance(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.similarity import pca_project

    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 4)) * np.array([10.0, 5.0, 2.0, 1.0])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(300), pa.int64()),
            "embedding": pa.array(list(x.astype(np.float32))),
        }
    )
    out = (
        pca_project(ray.data.from_arrow(t).repartition(3), 3, whiten=True)
        .to_pandas()
    )
    for c in ("pc0", "pc1", "pc2"):
        assert out[c].std(ddof=1) == pytest.approx(1.0, rel=1e-6)


def test_pca_fit_rejects_degenerate_inputs(ray_session):
    import ray.data

    from fs_schema_validator_ray.stages.similarity import pca_fit

    one = pa.table(
        {
            "vec_id": pa.array([0], pa.int64()),
            "embedding": pa.array([[1.0, 2.0]], pa.list_(pa.float32())),
        }
    )
    with pytest.raises(ValueError):
        pca_fit(ray.data.from_arrow(one), 1)


# --- edit-distance-1 fuzzy join ----------------------------------------------


def _lev(a: str, b: str) -> int:
    d = np.arange(len(b) + 1)
    for i, ca in enumerate(a, 1):
        prev = d.copy()
        d[0] = i
        for j, cb in enumerate(b, 1):
            d[j] = min(prev[j] + 1, d[j - 1] + 1, prev[j - 1] + (ca != cb))
    return int(d[len(b)])


def test_edit_distance_pairs_matches_bruteforce(ray_session):
    """Randomized property check: banding + verify == brute-force
    Levenshtein ≤ 1 over a corpus dense with near-misses (short alphabet
    → lots of true pairs AND hash-band collisions to filter)."""
    import itertools

    import ray.data

    from fs_schema_validator_ray.stages.dedup import edit_distance_pairs

    rng = np.random.default_rng(17)
    strings = [
        "".join(rng.choice(list("abc"), size=rng.integers(0, 6)))
        for _ in range(120)
    ]
    strings += ["müller", "muller", "mülle", "日本語", "日本", ""]
    t = pa.table(
        {
            "id": pa.array(range(len(strings)), pa.int64()),
            "s": pa.array(strings, pa.string()),
        }
    )
    out = edit_distance_pairs(
        ray.data.from_arrow(t).repartition(5), "s", "id"
    )
    got = sorted((r["a"], r["b"], r["dist"]) for r in out.take_all())
    want = sorted(
        (i, j, _lev(strings[i], strings[j]))
        for i, j in itertools.combinations(range(len(strings)), 2)
        if _lev(strings[i], strings[j]) <= 1
    )
    assert got == want


def test_edit_distance_pairs_max_len_guard(ray_session):
    import pytest
    import ray.data

    from fs_schema_validator_ray.stages.dedup import edit_distance_pairs

    t = pa.table(
        {
            "id": pa.array([0], pa.int64()),
            "s": pa.array(["x" * 100], pa.string()),
        }
    )
    with pytest.raises(Exception):  # ray wraps the ValueError
        edit_distance_pairs(ray.data.from_arrow(t), "s", "id", max_len=64).take_all()


# --- exact long-substring duplicate spans (round 4) ---------------------------


def test_substring_dup_pairs_planted(ray_session):
    """Planted verbatim spans are found with exact maximal extents; all
    reported spans are verified against the real texts."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.dedup import substring_dup_pairs

    rng = np.random.default_rng(0)
    base = "".join(rng.choice(list("abcdefgh "), 400))
    shared = "THE-QUICK-BROWN-FOX-JUMPS-OVER-THE-LAZY-DOG-" * 4  # 176 chars
    docs = {
        0: base[:150] + shared + base[150:300],
        1: "zzz " + shared + base[300:],
        2: base[:390],
        3: shared + " tail",
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(docs), "text": list(docs.values())})
    ).repartition(2)
    out = substring_dup_pairs(ds, min_len=64, stride=8).to_pandas()
    got = {(r.a, r.b): r for r in out.itertuples()}
    # every emitted span must be literally present in both docs
    for (a, b), r in got.items():
        sa = docs[a].encode()[r.a_start : r.a_start + r.length]
        sb = docs[b].encode()[r.b_start : r.b_start + r.length]
        assert sa == sb and r.length >= 64
    # the planted share is found at its exact maximal length everywhere
    for pair in [(0, 1), (0, 3), (1, 3)]:
        assert got[pair].length == len(shared), pair
    # prefix overlap between 0 and 2 (both start with base[:150]) found too
    assert got[(0, 2)].length == 150
    # doc 2 shares no span >= 64 with doc 3
    assert (2, 3) not in got


def test_substring_dup_forced_copartitioned_parity(ray_session):
    """max_broadcast_docs=0 forces the co-partitioned verify
    (substring_verify_join); spans must be byte-identical to the
    broadcast path on the same corpus."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.dedup import substring_dup_pairs

    rng = np.random.default_rng(0)
    base = "".join(rng.choice(list("abcdefgh "), 400))
    shared = "THE-QUICK-BROWN-FOX-JUMPS-OVER-THE-LAZY-DOG-" * 4
    docs = {
        0: base[:150] + shared + base[150:300],
        1: "zzz " + shared + base[300:],
        2: base[:390],
        3: shared + " tail",
        4: base[40:120] + "unique middle " + shared[:80] + base[200:280],
    }

    def run(**kw):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": list(docs), "text": list(docs.values())})
        ).repartition(2)
        return (
            substring_dup_pairs(ds, min_len=64, stride=8, **kw)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )

    broadcast = run()
    copart = run(max_broadcast_docs=0)
    assert len(broadcast) > 0
    assert broadcast.equals(copart)


def test_substring_dup_no_false_pairs(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fs_schema_validator_ray.stages.dedup import substring_dup_pairs

    rng = np.random.default_rng(5)
    texts = ["".join(rng.choice(list("abcdefghijkl "), 300)) for _ in range(20)]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(range(20)), "text": texts})
    )
    out = substring_dup_pairs(ds, min_len=64, stride=4).to_pandas()
    assert len(out) == 0  # independent random docs share no 64-char span


# --- SemDeDup ---------------------------------------------------------------


def _semdedup_corpus(n_extra=60, dim=16, seed=3):
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    # three planted near-identical families of 4 copies each (ids 0..11):
    # the copies differ by a tiny jitter, far under any sane eps
    for fam in range(3):
        base = rng.normal(size=dim)
        base /= np.linalg.norm(base)
        for c in range(4):
            v = base + 1e-4 * rng.normal(size=dim)
            rows.append((fam * 4 + c, (v / np.linalg.norm(v)).astype("float32")))
    # well-separated singletons (random high-dim ⇒ near-orthogonal)
    for i in range(n_extra):
        v = rng.normal(size=dim)
        rows.append((100 + i, (v / np.linalg.norm(v)).astype("float32")))
    return rows


def test_semdedup_planted_copies(ray_session):
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.similarity import semdedup

    rows = _semdedup_corpus()
    tbl = pa.table(
        {
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "embedding": pa.array([list(map(float, r[1])) for r in rows],
                                  pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = semdedup(ds, eps=0.1, n_clusters=4, iters=3).take_all()
    assert len(out) == len(rows)
    by_id = {r["vec_id"]: r for r in out}
    # each planted family keeps EXACTLY its lowest id
    for fam in range(3):
        ids = [fam * 4 + c for c in range(4)]
        kept = [i for i in ids if by_id[i]["keep"]]
        assert kept == [ids[0]], (fam, kept)
        # family members share a cluster (identical vectors, same centroid)
        assert len({by_id[i]["cluster_id"] for i in ids}) == 1
    # near-orthogonal singletons all survive
    for i in range(60):
        assert by_id[100 + i]["keep"], i


def test_semdedup_deterministic_across_partitionings(ray_session):
    import pyarrow as pa
    import ray

    from fs_schema_validator_ray.stages.similarity import semdedup

    rows = _semdedup_corpus(n_extra=40, seed=9)
    tbl = pa.table(
        {
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "embedding": pa.array([list(map(float, r[1])) for r in rows],
                                  pa.list_(pa.float32())),
        }
    )

    def run(nparts):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        out = semdedup(ds, eps=0.08, n_clusters=3, iters=2).take_all()
        return sorted((r["vec_id"], r["cluster_id"], r["keep"]) for r in out)

    assert run(2) == run(7)
