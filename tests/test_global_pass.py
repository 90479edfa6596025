"""The global rules of a validation run: every pending ``unique`` and
``drift`` rule folded from partials of the row pass's own read. The
duplicates come from exact key counts while the keys fit under
``MIN_BUCKET_BYTES`` (the default on these corpora), otherwise from a
counting filter verified exactly by one exchange over the candidate rows
of every rule; each filter test forces that path (``filter_path``)
and each path must give the per-rule exchange's rows
(``pipelines/stats.py``, ``stages/unique.py``, ``pipelines/validate.py``)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fs_schema_validator_ray.pipelines import validate
from fs_schema_validator_ray.pipelines.validate import (
    ValidationRunConfig,
    plan_partitions,
    run_validation,
)
from fs_schema_validator_ray.report import PARTITION_COLUMN, partition_ids, violations_table
from fs_schema_validator_ray.rules import RuleSet
from fs_schema_validator_ray.stages import unique

RULES_YAML = """
rules:
  - rule: unique_id
    type: unique
    column: id
  - rule: unique_name
    type: unique
    column: name
  - rule: unique_id_name
    type: unique
    columns: [id, name]
  - rule: unique_n
    type: unique
    column: n
  - rule: drift_v
    type: drift
    column: v
    lo: 0
    hi: 10
    bins: 5
"""

DRIFT_CAT_YAML = """
  - rule: drift_name
    type: drift
    column: name
    categorical: true
"""


def _write_corpus(root, columns_per_file):
    os.makedirs(root)
    for i, cols in enumerate(columns_per_file):
        pq.write_table(pa.table(cols), os.path.join(root, f"part-{i:02d}.parquet"))
    return str(root)


@pytest.fixture
def clean_corpus(tmp_path):
    """Every key column is duplicate-free across three files, and no two
    keys of a rule share a filter cell: ids are taken in order, skipping
    any whose key would land in a cell its rule already uses."""
    rules = RuleSet.from_yaml(RULES_YAML).unique_rules()
    bits = unique.filter_bits(150)
    used = [set() for _ in rules]
    ids, i = [], 0
    while len(ids) < 150:
        row = pa.table({"id": [i], "name": [f"c{i}"], "n": [i + 1000]})
        cells = [int(unique.key_cells(row, r, bits)[0]) for r in rules]
        if all(c not in u for c, u in zip(cells, used)):
            ids.append(i)
            for c, u in zip(cells, used):
                u.add(c)
        i += 1
    files = []
    for f in range(3):
        ids_f = np.array(ids[f * 50:(f + 1) * 50])
        files.append({
            "id": pa.array(ids_f, pa.int64()),
            "name": pa.array([f"c{i}" for i in ids_f]),
            "n": pa.array(ids_f + 1000, pa.int64()),
            "v": pa.array(ids_f % 10, pa.float64()),
        })
    return _write_corpus(tmp_path / "clean", files)


@pytest.fixture
def dup_corpus(tmp_path):
    """Planted duplicates within and across files: int, string and
    composite keys, null keys of each, and an int column where null and
    ``0`` share a filter cell but are different keys."""
    files = [
        {
            "id": pa.array([1, 2, 3, None, 5, 6], pa.int64()),
            "name": pa.array(["a", "b", None, "d", "e", "f"]),
            "n": pa.array([0, None, 7, 8, 9, 10], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, None, 5.0, 6.0]),
        },
        {
            "id": pa.array([2, 7, 8, None, 3, 9], pa.int64()),
            "name": pa.array(["b", "x", None, "d", "y", "z"]),
            "n": pa.array([11, 12, 13, 14, 7, 15], pa.int64()),
            "v": pa.array([2.0, 2.0, 9.0, 9.0, 9.0, 9.0]),
        },
        {
            "id": pa.array([3, 10, 11, 12, 2, 13], pa.int64()),
            "name": pa.array(["q", "x", "s", "t", "b", "u"]),
            "n": pa.array([16, 17, 18, 19, 20, 21], pa.int64()),
            "v": pa.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5]),
        },
    ]
    return _write_corpus(tmp_path / "dups", files)


def _cfg(corpus, out, yaml=RULES_YAML):
    return ValidationRunConfig(
        input_path=corpus, rules=RuleSet.from_yaml(yaml), output_dir=str(out)
    )


@pytest.fixture
def filter_path(monkeypatch):
    """The counting filter and the candidate exchange: no key bytes fit
    the exact path's bound."""
    monkeypatch.setattr(validate, "MIN_BUCKET_BYTES", 0)


@pytest.fixture
def counted(monkeypatch):
    """Counts keys-only scans (``ScanPartitions`` built on the driver),
    groupby calls and exchange runs."""
    import ray.data

    calls = {"scans": 0, "groupby": 0, "uniqueness_violations": 0}

    def counting(target, attr, key):
        inner = getattr(target, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(target, attr, wrapper)

    counting(validate, "ScanPartitions", "scans")
    counting(ray.data.Dataset, "groupby", "groupby")
    counting(unique, "uniqueness_violations", "uniqueness_violations")
    return calls


def _global_rows(out):
    path = os.path.join(out, "violations", "global")
    if not os.path.isdir(path):
        return []
    t = pq.read_table(path).select(["key", "rule_id", "reason", "partition_id"])
    return sorted(t.to_pylist(), key=lambda r: (r["rule_id"], str(r["key"])))


def _exchange_rows(corpus):
    """The per-rule exchange the global pass replaces, over the full
    corpus with the run's partition ids."""
    import ray.data

    def read(pid, files, columns):
        t = pq.read_table(files, columns=columns)
        return t.append_column("partition_id", pa.array([pid] * t.num_rows, pa.int32()))

    groups = plan_partitions(validate._input_files(corpus), None)
    rows = []
    for rule in RuleSet.from_yaml(RULES_YAML).unique_rules():
        columns = list(rule.input_columns())
        ds = ray.data.from_arrow([read(pid, files, columns) for pid, files in groups])
        for r in unique.uniqueness_violations(ds, rule).take_all():
            rows.append({c: r[c] for c in ("key", "rule_id", "reason", "partition_id")})
    return sorted(rows, key=lambda r: (r["rule_id"], str(r["key"])))


def test_null_int_and_zero_share_a_cell():
    rule = RuleSet.from_yaml(RULES_YAML).unique_rules()[3]
    cells = unique.key_cells(pa.table({"n": pa.array([None, 0, 1], pa.int64())}), rule, 20)
    assert cells[0] == cells[1]


def test_filter_size_follows_the_row_count():
    assert unique.filter_bits(4096) == 15 and unique.filter_bits(4097) == 16
    assert unique.filter_bits(10**9) == unique.filter_bits(None) == unique.FILTER_BITS


def _global_doc(out):
    with open(os.path.join(out, "manifest", "global.json")) as f:
        return json.load(f)


def test_duplicate_free_corpus_is_one_read_and_no_shuffle(
    ray_session, clean_corpus, tmp_path, counted, filter_path
):
    res = run_validation(_cfg(clean_corpus, tmp_path / "out", RULES_YAML + DRIFT_CAT_YAML))
    # the row pass's read is the only one
    assert counted == {"scans": 0, "groupby": 0, "uniqueness_violations": 0}
    assert res.global_metrics["ray_executions"] == 1
    assert res.global_metrics["candidate_cells"] == {r: 0 for r in (
        "unique_id", "unique_name", "unique_id_name", "unique_n")}
    assert res.global_metrics["buckets"] == 0
    assert _global_rows(str(tmp_path / "out")) == []
    with open(tmp_path / "out" / "manifest" / "global.json") as f:
        assert json.load(f)["violations"] == 0
    # both drift rules came out of the same read
    for rid in ("drift_v", "drift_name"):
        with open(tmp_path / "out" / "manifest" / f"drift-{rid}.json") as f:
            assert set(json.load(f)["sketches_hex"]) == {"0", "1", "2"}
    assert res.total_rows == 150


def _duplicates_before_filter(keys, n, parts, rule_id):
    """``unique._duplicates`` before it rendered only the duplicated
    keys, frozen: it rendered every distinct key."""
    g = pa.TableGroupBy(pa.table({"key": keys, "n": n, "part": parts}), "key").aggregate(
        [("n", "sum"), ("part", "min")])
    counts = np.asarray(g.column("n_sum"))
    dup = np.flatnonzero(counts > 1)
    keys_np = np.empty(g.num_rows, dtype=object)
    keys_np[:] = g.column("key").to_pylist()
    return violations_table(
        [str(k) for k in keys_np[dup]], rule_id,
        [f"duplicate key (appears {int(c)} times)" for c in counts[dup]],
        np.asarray(g.column("part_min"))[dup])


def test_duplicates_render_as_before(dup_corpus):
    """Int, string, composite and null keys give the rows of the frozen
    rendering, from the inputs of either path: the exact path's task key
    counts, and the rows of a filter-path ``merge_bucket``."""
    files = validate._input_files(dup_corpus)
    batches = [pq.read_table(f).append_column(
        PARTITION_COLUMN, pa.array([pid] * pq.read_metadata(f).num_rows, pa.int32()))
        for pid, f in enumerate(files)]
    rows = pa.concat_tables(batches)
    rendered = set()
    for rule in RuleSet.from_yaml(RULES_YAML).unique_rules():
        counts = pa.concat_tables([unique._partial_counts(b, rule) for b in batches])
        exact_path = (counts.column("key"), counts.column("n"), counts.column("part"))
        filter_path = (unique._keys(rows, rule), np.ones(rows.num_rows, np.int64),
                       partition_ids(rows))
        for args in (exact_path, filter_path):
            got = unique._duplicates(*args, rule.rule_id)
            assert got.num_rows and got.equals(_duplicates_before_filter(*args, rule.rule_id))
            rendered.update(got.column("key").to_pylist())
    # a null id, an int, a string, and a composite key (id, name)
    assert {"None", "2", "b", "2\x1fb"} <= rendered


def test_planted_duplicates_match_the_exchange(
    ray_session, dup_corpus, tmp_path, counted, filter_path
):
    out = str(tmp_path / "out")
    res = run_validation(_cfg(dup_corpus, out))
    # the row pass folds the filters, then one keys-only read of the
    # candidates of all four rules merges them in one bucket: no shuffle
    assert counted == {"scans": 1, "groupby": 0, "uniqueness_violations": 0}
    assert res.global_metrics["ray_executions"] == 2
    m = res.global_metrics
    assert m["path"] == "filter"
    assert m["filter_bits"] == unique.filter_bits(18) and m["buckets"] == 1
    assert not m["shuffled"]
    # a candidate cell holds at least the two copies of a repeated key
    assert all(m["candidate_rows"][r] >= 2 * m["candidate_cells"][r] > 0
               for r in m["candidate_cells"])
    got = _global_rows(out)
    assert got == _exchange_rows(dup_corpus)
    by_rule = {}
    for r in got:
        by_rule.setdefault(r["rule_id"], set()).add((r["key"], r["reason"], r["partition_id"]))
    twice, thrice = "duplicate key (appears 2 times)", "duplicate key (appears 3 times)"
    assert by_rule["unique_id"] == {
        ("2", thrice, 0), ("3", thrice, 0), ("None", twice, 0),
    }
    assert by_rule["unique_name"] == {
        ("b", thrice, 0), ("d", twice, 0), ("None", twice, 0), ("x", twice, 1),
    }
    assert by_rule["unique_id_name"] == {("2\x1fb", thrice, 0), ("\x00null\x1fd", twice, 0)}
    # the one null `n` and the one `0` share a cell but are two keys
    assert by_rule["unique_n"] == {("7", twice, 0)}
    assert res.global_metrics["violations"] == len(got) == 10


def test_bucketed_exchange_gives_the_same_rows(
    ray_session, dup_corpus, tmp_path, counted, monkeypatch, filter_path
):
    # a byte of candidates per bucket: the one exchange of all four rules
    # is sized on the materialized candidates and shuffles
    monkeypatch.setattr(unique, "DEFAULT_TARGET_BUCKET_BYTES", 1)
    out = str(tmp_path / "out")
    res = run_validation(_cfg(dup_corpus, out))
    assert counted["uniqueness_violations"] == 0 and counted["groupby"] == 1
    assert res.global_metrics["shuffled"] and res.global_metrics["ray_executions"] == 3
    assert _global_rows(out) == _exchange_rows(dup_corpus)


def test_saturated_filter_gives_the_same_rows(
    ray_session, dup_corpus, tmp_path, monkeypatch, filter_path
):
    # two cells per rule: every key shares a cell, every row is a candidate
    monkeypatch.setattr(unique, "FILTER_BITS", 1)
    out = str(tmp_path / "out")
    run_validation(_cfg(dup_corpus, out))
    assert _global_rows(out) == _exchange_rows(dup_corpus)


@pytest.mark.parametrize("corpus, knob", [
    ("dup_corpus", None),
    # the filter path's knobs leave the exact path as it is
    ("dup_corpus", "FILTER_BITS"),
    ("dup_corpus", "DEFAULT_TARGET_BUCKET_BYTES"),
    ("clean_corpus", None),
])
def test_exact_counts_match_the_exchange_in_one_execution(
    ray_session, request, tmp_path, counted, monkeypatch, corpus, knob
):
    if knob:
        monkeypatch.setattr(unique, knob, 1)
    corpus = request.getfixturevalue(corpus)
    out = str(tmp_path / "out")
    res = run_validation(_cfg(corpus, out))
    # the row pass returns each task's key counts: no second read
    assert counted == {"scans": 0, "groupby": 0, "uniqueness_violations": 0}
    assert res.global_metrics["ray_executions"] == 1
    assert res.global_metrics["path"] == _global_doc(out)["metrics"]["path"] == "exact"
    assert 0 < res.global_metrics["key_bytes"] <= validate.MIN_BUCKET_BYTES
    got = _global_rows(out)
    assert got == _exchange_rows(corpus)
    assert res.global_metrics["violations"] == len(got) == _global_doc(out)["violations"]


def test_categorical_drift_partial_counts_like_a_group_by():
    """``value_counts`` per partition gives the counts of one Arrow
    group-by on ``(partition_id, category)``, nulls as ``__null``, on a
    batch of several partitions and on a batch of one."""
    import pyarrow.compute as pc

    from fs_schema_validator_ray.pipelines.stats import drift_partial

    def group_by(batch):
        cats = pc.fill_null(pc.cast(batch.column("name"), pa.string()), "__null")
        g = pa.TableGroupBy(
            pa.table({"partition_id": batch.column("partition_id"), "category": cats}),
            ["partition_id", "category"],
        ).aggregate([([], "count_all")])
        return sorted(zip(*(g.column(c).to_pylist()
                            for c in ("partition_id", "category", "count_all"))))

    rule = RuleSet.from_yaml("rules:" + DRIFT_CAT_YAML).drift_rules()[0]
    mixed = pa.table({
        "name": pa.array(["a", None, "b", "a", None, "c", "a", "b"]),
        "partition_id": pa.array([1, 1, 0, 0, 1, 2, 1, 0], pa.int32()),
    })
    one = mixed.filter(pa.array([p == 1 for p in mixed.column("partition_id").to_pylist()]))
    for batch in (mixed, one):
        got = drift_partial(rule)(batch)
        assert got.schema == pa.schema([("partition_id", pa.int32()),
                                        ("category", pa.string()), ("n", pa.int64())])
        assert sorted(zip(*(got.column(c).to_pylist()
                            for c in ("partition_id", "category", "n")))) == group_by(batch)
    assert group_by(one) == [(1, "__null", 2), (1, "a", 2)]


def test_candidate_rows_keep_exactly_the_marked_cells():
    rule = RuleSet.from_yaml(RULES_YAML).unique_rules()[0]
    t = pa.table({"id": pa.array(range(1000), pa.int64())})
    cells = unique.key_cells(t, rule, 4)
    mask = np.zeros(16, bool)
    mask[[3, 9]] = True
    kept = unique.CandidateRows([rule], [np.packbits(mask, bitorder="little")], 4)(t)
    assert kept.column("id").to_pylist() == [i for i, c in enumerate(cells) if c in (3, 9)]


def _resume_with_a_new_drift_rule(dup_corpus, tmp_path, counted, monkeypatch):
    out = str(tmp_path / "out")
    run_validation(_cfg(dup_corpus, out))
    written = []
    write = validate._write_manifest
    monkeypatch.setattr(
        validate, "_write_manifest", lambda d, doc: (written.append(doc["id"]), write(d, doc))
    )
    counted["scans"] = 0
    res = run_validation(_cfg(dup_corpus, out, RULES_YAML + DRIFT_CAT_YAML))
    assert counted["scans"] == 1
    assert written == ["drift-drift_name"]
    assert res.partitions_skipped == 3 and res.waves_run == 0
    assert res.global_metrics["violations"] == 10
    assert res.global_metrics["ray_executions"] == 1


def test_resume_with_a_new_drift_rule_reads_once(
    ray_session, dup_corpus, tmp_path, counted, monkeypatch, filter_path
):
    _resume_with_a_new_drift_rule(dup_corpus, tmp_path, counted, monkeypatch)


def test_exact_resume_with_a_new_drift_rule_reads_once(
    ray_session, dup_corpus, tmp_path, counted, monkeypatch
):
    _resume_with_a_new_drift_rule(dup_corpus, tmp_path, counted, monkeypatch)


def _resume_with_a_new_unique_rule(dup_corpus, tmp_path, monkeypatch):
    """Run without ``unique_n``, then resume with it → ``(result, the
    columns of each keys-only scan)``."""
    out = str(tmp_path / "out")
    without_n = RULES_YAML.replace("""  - rule: unique_n
    type: unique
    column: n
""", "")
    run_validation(_cfg(dup_corpus, out, without_n))
    written, scanned = [], []
    write = validate._write_manifest
    monkeypatch.setattr(
        validate, "_write_manifest", lambda d, doc: (written.append(doc["id"]), write(d, doc))
    )
    scan = validate.ScanPartitions
    monkeypatch.setattr(validate, "ScanPartitions",
                        lambda columns, schema: (scanned.append(sorted(columns)),
                                                 scan(columns, schema))[1])
    res = run_validation(_cfg(dup_corpus, out))
    # every partition is kept: only the global doc is written
    assert written == ["global"]
    assert res.partitions_skipped == 3 and res.waves_run == 0
    assert _global_rows(out) == _exchange_rows(dup_corpus)
    return res, scanned


def test_resume_with_a_new_unique_rule_reads_only_keys(
    ray_session, dup_corpus, tmp_path, monkeypatch, filter_path
):
    """A unique rule added on resume keeps every partition: the finished
    partitions' keys are read once for the filters and once more for
    the candidates."""
    res, scanned = _resume_with_a_new_unique_rule(dup_corpus, tmp_path, monkeypatch)
    # the filters of every unique rule, then the candidates' keys: never `v`
    assert scanned == [["id", "n", "name"], ["id", "n", "name"]]
    assert res.global_metrics["ray_executions"] == 2


def test_exact_resume_with_a_new_unique_rule_reads_keys_once(
    ray_session, dup_corpus, tmp_path, monkeypatch
):
    res, scanned = _resume_with_a_new_unique_rule(dup_corpus, tmp_path, monkeypatch)
    # the key counts of every unique rule, and no candidate read after them
    assert scanned == [["id", "n", "name"]]
    assert res.global_metrics["ray_executions"] == 1
    assert res.global_metrics["path"] == "exact"


def test_uniqueness_bucket_hash_dtype_stable(ray_session):
    """code-review r2: an int key duplicated ACROSS batches, where one
    batch also contains a null, must still be flagged — to_numpy()'s
    silent int64→float64 promotion used to split the key's partials
    across buckets (silent false negative)."""
    import ray.data

    from fs_schema_validator_ray.rules import UniqueRule
    from fs_schema_validator_ray.stages.unique import uniqueness_violations

    t1 = pa.table({"k": pa.array([5, None], pa.int64())})
    t2 = pa.table({"k": pa.array([5, 7], pa.int64())})
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    rule = UniqueRule(rule_id="uk", column="k")
    out = uniqueness_violations(ds, rule).take_all()
    assert [(r["key"], r["reason"]) for r in out] == [
        ("5", "duplicate key (appears 2 times)")
    ]
