"""The row pass of a validation run: one Ray execution whose tasks own
whole partitions and commit each one (violations file, then manifest) as
soon as its last row is checked (``pipelines/validate.py``)."""

import glob
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fs_schema_validator_ray.pipelines import validate
from fs_schema_validator_ray.pipelines.validate import (
    ValidationRunConfig,
    plan_tasks,
    run_validation,
)
from fs_schema_validator_ray.rules import RuleSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = """
rules:
  - rule: v_range
    type: int
    column: v
    min: 0
    max: 100
  - rule: k_shape
    type: str
    column: k
    regex: "^[a-h]-[0-9]+$"
  - rule: unique_k
    type: unique
    column: k
  - rule: v_drift
    type: drift
    column: v
    lo: 0
    hi: 40
    bins: 4
    max_ks: 0.017
"""

N_PARTS = 8
ROWS = 40


def _corpus(root):
    """``N_PARTS`` files; every partition has a few row-rule violations,
    partitions 0 and 5 share one key (a unique violation), and
    partitions 0 and 1 drift (``v_drift``)."""
    d = os.path.join(root, "in")
    os.makedirs(d)
    for i in range(N_PARTS):
        keys = [f"{'abcdefgh'[i]}-{j}" for j in range(ROWS)]
        if i == 5:
            keys[7] = "a-7"
        keys[3 + i] = f"bad key {i}"
        v = [200 if j % 9 == i % 9 else j for j in range(ROWS)]
        pq.write_table(pa.table({"k": keys, "v": pa.array(v, pa.int64())}),
                       os.path.join(d, f"part-{i:02d}.parquet"))
    return d


def _cfg(src, out, **kw):
    return ValidationRunConfig(input_path=src, rules=RuleSet.from_yaml(RULES),
                               output_dir=str(out), key_column="k", **kw)


def _digest(output_dir):
    """Order-insensitive digest of every committed violation row, reasons
    included; rows under ``parts/partition_id=N`` get ``N`` from the path."""
    rows = []
    for f in glob.glob(os.path.join(output_dir, "violations", "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(f)
        hive = [p for p in f.split(os.sep) if p.startswith("partition_id=")]
        pids = ([int(hive[-1].split("=")[1])] * t.num_rows if hive
                else t.column("partition_id").to_pylist())
        rows += zip(pids, *(t.column(c).to_pylist() for c in ("key", "rule_id", "reason")))
    return hashlib.sha256(repr(sorted(rows, key=repr)).encode()).hexdigest(), len(rows)


# --- the task planner ----------------------------------------------------------


def _n_tasks(sizes, cpus, target):
    return min(len(sizes), max(cpus, math.ceil(sum(b for _, b in sizes) / target)))


@pytest.mark.parametrize("seed", range(20))
def test_plan_covers_every_partition_once_in_order(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 60))
    pids = sorted(rng.choice(1000, p, replace=False).tolist())
    sizes = [(pid, int(b)) for pid, b in zip(pids, rng.integers(0, 5 << 20, p))]
    cpus, target = int(rng.integers(1, 9)), int(rng.integers(1, 8) << 20)
    runs = plan_tasks(sizes, cpus, target)
    assert [pid for run in runs for pid in run] == pids
    assert len(runs) == _n_tasks(sizes, cpus, target)
    assert all(run for run in runs)


def test_plan_balances_bytes():
    sizes = [(i, 1000) for i in range(12)]
    assert plan_tasks(sizes, 4, 1 << 20) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    # one big partition gets a task of its own
    sizes = [(0, 9000)] + [(i, 1000) for i in range(1, 10)]
    assert plan_tasks(sizes, 2, 1 << 20) == [[0], list(range(1, 10))]
    # no bytes at all (nothing to read): runs of near-equal counts
    assert plan_tasks([(i, 0) for i in range(8)], 4, 1 << 20) == [
        [0, 1], [2, 3], [4, 5], [6, 7]]
    assert plan_tasks([], 4, 1 << 20) == []


def test_plan_of_the_benchmark_shapes_at_one_cpu():
    """Each benchmark shape is one task at one CPU and one task per CPU
    at four; a large corpus still splits into tasks of about the target."""
    target = validate.TASK_MAX_BYTES
    shapes = [
        [(i, 2_000) for i in range(32)],           # metadata-only rules, 32 small files
        [(i, 363_000) for i in range(16, 32)],     # a resumed half of 32 payload partitions
        [(i, 4_800_000) for i in range(4)],        # 4 large payload partitions
    ]
    for sizes in shapes:
        assert plan_tasks(sizes, 1, target) == [[pid for pid, _ in sizes]]
        assert len(plan_tasks(sizes, 4, target)) == 4
    runs = plan_tasks([(i, 1 << 20) for i in range(1000)], 1, target)
    assert len(runs) == 8 and all(len(run) << 20 <= target for run in runs)


def test_pack_partitions_bounds():
    """Groups are runs of whole partitions within the row and the byte
    bound; a partition past either bound, or sharing a file with the
    group, starts a group of its own."""
    def doc(pid, rows, nbytes=100, files=None):
        return {"partition_id": pid, "rows": rows, "read_bytes": nbytes,
                "files": files or [f"f{pid}"]}

    def groups(docs, max_rows=64):
        return [[d["partition_id"] for d in g] for g in validate.pack_partitions(
            docs, max_rows, validate.PACK_MAX_BYTES)]

    assert groups([doc(0, 30), doc(1, 34), doc(2, 1), doc(3, 100), doc(4, 0), doc(5, 64)]) == [
        [0, 1], [2], [3], [4, 5]]
    big = validate.PACK_MAX_BYTES // 2 + 1
    assert groups([doc(0, 1, big), doc(1, 1, big), doc(2, 1), doc(3, 1, 2 * big)]) == [
        [0], [1, 2], [3]]
    assert groups([doc(0, 1, files=["a", "b"]), doc(1, 1, files=["b"]), doc(2, 1)]) == [
        [0], [1, 2]]
    # without one schema for the corpus, nothing packs
    assert groups([doc(0, 0), doc(1, 1)], -1) == [[0], [1]]
    assert groups([]) == []


# --- committed output ----------------------------------------------------------


def test_violations_dataset_ignores_uncommitted_files(ray_session, tmp_path):
    """A task killed mid-write leaves its tmp file in ``partition_id=N/``;
    only committed ``*.parquet`` files are violations."""
    src = _corpus(str(tmp_path))
    res = run_validation(_cfg(src, tmp_path / "out"))
    n = res.violations_dataset().count()
    assert n == res.total_violations > 0
    part = os.path.join(str(tmp_path / "out"), "violations", "parts", "partition_id=3")
    with open(os.path.join(part, "violations.tmp"), "wb") as f:
        f.write(b"PAR1\x15\x04half a parquet file")
    assert res.violations_dataset().count() == n


EVOLVED_RULES = RULES + """
  - rule: unique_v
    type: unique
    column: v
  - rule: drift_v
    type: drift
    column: v
    lo: 0
    hi: 1000
    bins: 4
"""


def test_task_reads_schema_evolved_files_and_commits_sketches(ray_session, tmp_path):
    """A partition of an old file (no ``v``) and a new one: the old rows
    read as nulls, and the sketch is folded from the same read. The
    global pass reads them the same way: its unique and drift verdicts on
    ``v`` equal those of the same rows written as one file."""
    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(pa.table({"k": ["a-1", "a-2"]}), d / "f0.parquet")
    pq.write_table(pa.table({"k": ["b-1", "b-2", "b-3"],
                             "v": pa.array([5, 500, 5], pa.int64())}), d / "f1.parquet")
    one = tmp_path / "one"
    one.mkdir()
    rows = [pq.read_table(d / f) for f in ("f0.parquet", "f1.parquet")]
    pq.write_table(pa.concat_tables(rows, promote_options="default"), one / "f.parquet")

    def run(src, out):
        return run_validation(ValidationRunConfig(
            input_path=str(src), rules=RuleSet.from_yaml(EVOLVED_RULES), output_dir=str(out),
            key_column="k", partitions=1, stats_sketch_columns=["v"]))

    def verdicts(out):
        t = pq.read_table(out / "violations" / "global")
        with open(out / "manifest" / "drift-drift_v.json") as f:
            drift = json.load(f)
        return (sorted(zip(*(t.column(c).to_pylist() for c in ("key", "rule_id", "reason")))),
                drift["metrics"], drift["violations_by_pid"])

    out = tmp_path / "out"
    res = run(d, out)
    assert res.total_rows == 5
    v = res.violations_dataset().to_pandas()
    # the two null `v` rows and the 500 fail the non-nullable range rule
    assert sorted(v[v["rule_id"] == "v_range"]["key"]) == ["a-1", "a-2", "b-2"]
    with open(out / "manifest" / "part-0.json") as f:
        doc = json.load(f)
    assert doc["rows"] == 5 and doc["stats_sketches_hex"]["v"]["kind"] == "tdigest"
    got = verdicts(out)
    assert got[0] == [("5", "unique_v", "duplicate key (appears 2 times)"),
                      ("None", "unique_v", "duplicate key (appears 2 times)")]
    run(one, tmp_path / "one-out")
    assert got == verdicts(tmp_path / "one-out")


def _receipts_add_up(output_dir, res):
    """Each ``part-N`` doc's ``violations_by_rule`` sums to its
    ``violations``; over the docs, the per-rule counts equal the committed
    rows of each rule, and every doc's count sums to the run's total."""
    docs = []
    for path in glob.glob(os.path.join(output_dir, "manifest", "*.json")):
        with open(path) as f:
            docs.append(json.load(f))
    by_rule = {}
    for doc in docs:
        if doc["id"].startswith("part-"):
            assert sum(doc["violations_by_rule"].values()) == doc["violations"]
            for rule, n in doc["violations_by_rule"].items():
                by_rule[rule] = by_rule.get(rule, 0) + n
    assert sum(doc["violations"] for doc in docs) == res.total_violations
    rows = {}
    for f in glob.glob(os.path.join(output_dir, "violations", "parts", "*", "*.parquet")):
        for rule in pq.read_table(f).column("rule_id").to_pylist():
            rows[rule] = rows.get(rule, 0) + 1
    assert by_rule == rows


def _counting_stage(monkeypatch, log):
    """Swap the run's fused stage for one that appends each call's rows
    and partition ids to the file ``log`` (a line a call, any process)."""

    class Counting(validate.CombinedValidateStage):
        def __call__(self, batch):
            pids = sorted(set(batch.column("partition_id").to_pylist()))
            with open(log, "a") as f:
                f.write(json.dumps([batch.num_rows, pids]) + "\n")
            return super().__call__(batch)

    monkeypatch.setattr(validate, "CombinedValidateStage", Counting)

    def calls():
        with open(log) as f:
            return [json.loads(line) for line in f]
    return calls


#: rows per file of the packing corpus, at ``decode_batch_size`` 64: a
#: 100-row partition among small ones, partitions adding up to exactly 64
#: rows, and a zero-row file
PACK_ROWS = [10, 20, 100, 30, 34, 0, 5, 64, 7, 50, 13, 40, 24, 3]


def _packing_corpus(root):
    d = os.path.join(root, "in")
    os.makedirs(d)
    for i, n in enumerate(PACK_ROWS):
        # both row rules fire, interleaved, in every partition of 3+ rows
        keys = [f"{'abcdefgh'[i % 8]}-{i}{j}" if j % 3 else f"bad {i} {j}" for j in range(n)]
        v = [200 if j % 4 == 1 else j for j in range(n)]
        pq.write_table(pa.table({"k": pa.array(keys, pa.string()),
                                 "v": pa.array(v, pa.int64())}),
                       os.path.join(d, f"f-{i:02d}.parquet"))
    return d


def _partition_outputs(output_dir):
    """Each partition's violation rows in file order, and its doc without
    ``wall_s`` and ``violations_path`` (the output directories differ)."""
    out = {}
    for path in glob.glob(os.path.join(output_dir, "manifest", "part-*.json")):
        with open(path) as f:
            doc = json.load(f)
        doc.pop("wall_s")
        doc.pop("violations_path")
        vfile = os.path.join(output_dir, "violations", "parts",
                             f"partition_id={doc['partition_id']}", "violations.parquet")
        rows = pq.read_table(vfile).to_pylist() if os.path.exists(vfile) else None
        out[doc["id"]] = (doc, rows)
    return out


@pytest.mark.parametrize("partitions", [None, 7])
def test_packed_partitions_commit_what_unpacked_ones_do(ray_session, tmp_path, monkeypatch,
                                                        partitions):
    """A task packs consecutive small partitions into one batch of at most
    ``decode_batch_size`` rows; each partition's violations file, rows
    and order, and its doc (sketch blobs and receipts included) are those
    of a run that never packs (``PACK_MAX_BYTES`` 0: a group of one
    partition)."""
    src = _packing_corpus(str(tmp_path))
    runs = {}
    for name, pack_max_bytes in (("alone", 0), ("packed", validate.PACK_MAX_BYTES)):
        monkeypatch.setattr(validate, "PACK_MAX_BYTES", pack_max_bytes)
        calls = _counting_stage(monkeypatch, str(tmp_path / f"{name}.log"))
        out = tmp_path / name
        res = run_validation(_cfg(src, out, partitions=partitions, decode_batch_size=64,
                                  stats_sketch_columns=["v", "k"]))
        _receipts_add_up(str(out), res)
        runs[name] = (_partition_outputs(str(out)), calls(), res)
    (alone, alone_calls, res), (packed, packed_calls, _) = runs["alone"], runs["packed"]
    n_parts = len(PACK_ROWS) if partitions is None else partitions
    assert len(alone) == n_parts and sorted(packed) == sorted(alone)
    assert res.total_rows == sum(PACK_ROWS)
    for doc_id, (doc, rows) in alone.items():
        assert packed[doc_id] == (doc, rows), doc_id
        assert rows is None or (doc["violations"] == len(rows) and
                                {r["rule_id"] for r in rows} == {"v_range", "k_shape"})
        if doc["rows"]:
            assert set(doc["stats_sketches_hex"]) == {"v", "k"}
    # no batch over 64 rows; the 100-row partition streams on its own
    assert max(n for n, _ in packed_calls) <= 64
    assert [c for c in alone_calls if len(c[1]) > 1] == []
    assert len(packed_calls) < len(alone_calls)
    if partitions is None:
        assert [64, [2]] in packed_calls and [36, [2]] in packed_calls
        # a packed group that fits exactly: 30 + 34 rows
        assert [64, [3, 4]] in packed_calls
    else:
        # two-file partitions, one of them with the zero-row file
        assert [32, [5, 6]] in packed_calls


def test_stage_calls_per_packed_batch(ray_session, tmp_path, monkeypatch):
    """32 partitions of 64 rows at batch 512: one stage call per group of
    eight partitions, not one per partition."""
    d = tmp_path / "in"
    d.mkdir()
    for i in range(32):
        pq.write_table(pa.table({"k": [f"{'abcdefgh'[i % 8]}-{i}{j}" for j in range(64)],
                                 "v": pa.array(range(64), pa.int64())}),
                       d / f"f-{i:02d}.parquet")
    calls = _counting_stage(monkeypatch, str(tmp_path / "calls.log"))
    res = run_validation(_cfg(str(d), tmp_path / "out", decode_batch_size=512))
    assert res.total_rows == 32 * 64
    assert [n for n, _ in calls()] == [512] * 4


def _run_outputs(output_dir):
    """Every manifest doc without its timings and output paths, and every
    committed violations file's rows in file order, by relative path."""
    docs, files = {}, {}
    for path in glob.glob(os.path.join(output_dir, "manifest", "*.json")):
        with open(path) as f:
            doc = json.load(f)
        doc.pop("wall_s", None)
        doc.pop("violations_path", None)
        doc.get("metrics", {}).pop("wall_s", None)
        docs[doc["id"]] = doc
    for path in glob.glob(os.path.join(output_dir, "violations", "**", "*.parquet"),
                          recursive=True):
        files[os.path.relpath(path, output_dir)] = pq.read_table(path).to_pylist()
    return docs, files


@pytest.mark.parametrize("cpus", [1, 4])
def test_outputs_do_not_depend_on_the_task_plan(ray_session, tmp_path, monkeypatch, cpus):
    """A fresh run, and a run resumed with half its partitions and its
    whole-run docs gone (so it also scans the finished partitions' keys),
    commit the same docs and violation files with one task a pass as
    with four."""
    src = _corpus(str(tmp_path))
    monkeypatch.setattr(validate, "_cluster_cpus", lambda: {1: 4, 4: 1}[cpus])
    want = run_validation(_cfg(src, tmp_path / "want", stats_sketch_columns=["v"]))
    monkeypatch.setattr(validate, "_cluster_cpus", lambda: cpus)
    out = tmp_path / "out"
    res = run_validation(_cfg(src, out, stats_sketch_columns=["v"]))
    assert res.global_metrics["row_pass_tasks"] == cpus
    assert _run_outputs(str(out)) == _run_outputs(str(tmp_path / "want"))
    for doc_id in ["global", "drift-v_drift"] + [f"part-{i}" for i in range(N_PARTS // 2, N_PARTS)]:
        os.remove(out / "manifest" / f"{doc_id}.json")
    res = run_validation(_cfg(src, out, stats_sketch_columns=["v"]))
    assert res.partitions_skipped == N_PARTS // 2
    assert res.global_metrics["row_pass_tasks"] == min(cpus, N_PARTS // 2)
    assert res.global_metrics["ray_executions"] == 2
    assert res.total_violations == want.total_violations
    assert _run_outputs(str(out)) == _run_outputs(str(tmp_path / "want"))


# --- the task launcher ----------------------------------------------------------


def _task_log(monkeypatch):
    """Log each task submission (``submit``) and each task result the
    driver gets (``done``, or ``error`` when it raises)."""
    import ray

    log = []
    remote, ray_get = validate._remote_call(), ray.get

    class Logged:
        def remote(self, *args):
            log.append("submit")
            return remote.remote(*args)

    def get(*args, **kwargs):
        try:
            out = ray_get(*args, **kwargs)
        except Exception:
            log.append("error")
            raise
        log.append("done")
        return out

    monkeypatch.setattr(validate, "_remote_call", Logged)
    monkeypatch.setattr(ray, "get", get)
    return log


def _most_in_flight(log):
    in_flight, most = 0, 0
    for event in log:
        in_flight += 1 if event == "submit" else -1
        most = max(most, in_flight)
    return most


def test_tasks_in_flight_are_bounded_by_cpus(ray_session, tmp_path, monkeypatch):
    """At one CPU, a plan of a task per partition keeps at most two tasks
    submitted and not yet folded, in the row pass and in the resume scan,
    and commits what a one-task plan does."""
    src = _corpus(str(tmp_path))
    monkeypatch.setattr(validate, "_cluster_cpus", lambda: 1)
    want = run_validation(_cfg(src, tmp_path / "want", stats_sketch_columns=["v"]))
    assert want.global_metrics["row_pass_tasks"] == 1
    monkeypatch.setattr(validate, "TASK_MAX_BYTES", 1)
    log = _task_log(monkeypatch)
    out = tmp_path / "out"
    res = run_validation(_cfg(src, out, stats_sketch_columns=["v"]))
    assert res.global_metrics["row_pass_tasks"] == N_PARTS
    assert log.count("submit") == log.count("done") == N_PARTS
    assert _most_in_flight(log) == 2
    assert _run_outputs(str(out)) == _run_outputs(str(tmp_path / "want"))
    for doc_id in ["global", "drift-v_drift"] + [f"part-{i}" for i in range(N_PARTS // 2)]:
        os.remove(out / "manifest" / f"{doc_id}.json")
    log.clear()
    res = run_validation(_cfg(src, out, stats_sketch_columns=["v"]))
    assert res.partitions_skipped == N_PARTS // 2
    # a row-pass task and a scan task per partition
    assert log.count("submit") == log.count("done") == N_PARTS
    assert _most_in_flight(log) == 2
    assert _run_outputs(str(out)) == _run_outputs(str(tmp_path / "want"))


def test_a_task_error_reaches_the_caller_and_stops_the_pass(ray_session, tmp_path,
                                                             monkeypatch):
    """A file rewritten with fewer rows after its footer was read fails
    its task's row check; the run raises that ``ValueError`` with its
    message and submits no task after it."""
    src = _corpus(str(tmp_path))
    path = os.path.join(src, "part-00.parquet")
    plan = validate.plan_tasks

    def plan_then_truncate(*args):
        pq.write_table(pq.read_table(path).slice(0, 30), path)
        return plan(*args)

    monkeypatch.setattr(validate, "plan_tasks", plan_then_truncate)
    monkeypatch.setattr(validate, "_cluster_cpus", lambda: 1)
    monkeypatch.setattr(validate, "TASK_MAX_BYTES", 1)
    log = _task_log(monkeypatch)
    with pytest.raises(ValueError, match=f"partition 0: read 30 rows, its footers say {ROWS}"):
        run_validation(_cfg(src, tmp_path / "out"))
    assert log[-1] == "error" and log.count("error") == 1
    assert _most_in_flight(log) <= 2 and log.count("submit") < N_PARTS


def test_the_exact_path_starts_no_ray_data_execution(ray_session, tmp_path, monkeypatch):
    """A fresh run and a resumed run that scans the keys of its finished
    partitions run their passes as Ray tasks: with Ray Data's
    ``from_arrow`` and ``iter_batches`` failing, both still succeed."""
    import ray.data

    src = _corpus(str(tmp_path))
    want = run_validation(_cfg(src, tmp_path / "want"))

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a Ray Data execution started")

    monkeypatch.setattr(ray.data, "from_arrow", no_ray_data)
    monkeypatch.setattr(ray.data.Dataset, "iter_batches", no_ray_data)
    out = tmp_path / "out"
    res = run_validation(_cfg(src, out))
    assert res.global_metrics["path"] == "exact"
    for doc_id in ["global", "drift-v_drift"] + [f"part-{i}" for i in range(N_PARTS // 2)]:
        os.remove(out / "manifest" / f"{doc_id}.json")
    res = run_validation(_cfg(src, out))
    assert res.partitions_skipped == N_PARTS // 2
    assert res.global_metrics["ray_executions"] == 2
    assert res.total_violations == want.total_violations
    assert _run_outputs(str(out)) == _run_outputs(str(tmp_path / "want"))


# --- kill and resume -----------------------------------------------------------

KILLED_RUN = """
import sys, time
import ray
from fs_schema_validator_ray.pipelines import validate
from fs_schema_validator_ray.rules import RuleSet


class SlowStage(validate.CombinedValidateStage):
    # slow enough that the run is killed with partitions still pending
    def __call__(self, batch):
        time.sleep(0.25)
        return super().__call__(batch)


validate.CombinedValidateStage = SlowStage
src, out, rules, temp_dir = sys.argv[1:]
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", _temp_dir=temp_dir)
validate.run_validation(validate.ValidationRunConfig(
    input_path=src, rules=RuleSet.from_yaml(rules), output_dir=out,
    key_column="k", wave_size=1, decode_batch_size=16))
"""


def _manifests(out):
    return sorted(glob.glob(os.path.join(out, "manifest", "part-*.json")))


def _session_processes(sid):
    found = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    stat = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(stat[3]) == sid:
                found.append(int(d))
    return found


def _kill_after(src, out, k):
    """Run the validation in its own process session and SIGKILL the whole
    session (driver, Ray and its workers) once ``k`` manifests landed."""
    temp_dir = tempfile.mkdtemp(prefix="rk")  # Ray's socket paths must be short
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.Popen([sys.executable, "-c", KILLED_RUN, src, out, RULES, temp_dir],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.time() + 240
        while len(_manifests(out)) < k:
            assert proc.poll() is None, proc.stderr.read().decode()[-3000:]
            assert time.time() < deadline, "no partition committed in time"
            time.sleep(0.02)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()
        for _ in range(100):
            left = _session_processes(proc.pid)
            if not left:
                break
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.1)
        shutil.rmtree(temp_dir, ignore_errors=True)
    assert not _session_processes(proc.pid)


def test_killed_run_resumes_to_the_uninterrupted_violations(ray_session, tmp_path):
    src = _corpus(str(tmp_path))
    full = run_validation(_cfg(src, tmp_path / "full"))
    want = _digest(str(tmp_path / "full"))
    assert want[1] == full.total_violations > N_PARTS

    with open(os.path.join(str(tmp_path / "full"), "manifest", "drift-v_drift.json")) as f:
        assert json.load(f)["violations_by_pid"] == {"0": 1, "1": 1}

    out = str(tmp_path / "killed")
    _kill_after(src, out, 3)
    landed = _manifests(out)
    assert 3 <= len(landed) < N_PARTS
    # the global rules' docs land after the row pass
    assert not glob.glob(os.path.join(out, "manifest", "[dg]*.json"))

    # a partition killed between its violations file and its manifest:
    # the file is committed, the manifest is not
    with open(landed[0]) as f:
        replaced = json.load(f)
    os.remove(landed[0])
    old_file = os.path.join(replaced["violations_path"], "violations.parquet")
    assert os.path.exists(old_file)
    os.utime(old_file, (0, 0))

    res = run_validation(_cfg(src, out))
    assert res.partitions_skipped == len(landed) - 1
    assert res.waves_run == 1
    assert _digest(out) == want
    assert res.total_violations == full.total_violations
    assert res.total_rows == full.total_rows == N_PARTS * ROWS
    assert res.violations_dataset().count() == full.total_violations
    _receipts_add_up(out, res)
    # rewritten, not kept: the resumed run committed the file again
    assert os.path.getmtime(old_file) > 0
    assert len(_manifests(out)) == N_PARTS
