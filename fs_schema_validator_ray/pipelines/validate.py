"""The flagship pipeline: resumable, partitioned validation run.

Ray-Data-first rebuild of the reference's one-shot serial run
(``/root/reference/fs_schema_validator/__init__.py:71-80`` +
``__main__.py:76-96``) for a 10^12-row corpus:

* the input file list is grouped into **partitions** (the checkpoint
  unit: one file group each),
* every pass plans its tasks the same way (:func:`_task_items`): the
  partitions it needs, in contiguous runs of near-equal bytes of its
  pruned columns (from the footers), one task per run
  (:func:`plan_tasks`): one task per CPU, and more only where a task
  would read over :data:`TASK_MAX_BYTES` (128 MiB); each task reads its
  partitions' files itself (:func:`scan_partition`, the run's one
  reader),
* the row pass and the resume keys-only scan run their plans as plain
  Ray tasks (:func:`_run_tasks`): a task per plan table, at most two
  per CPU submitted and not yet folded, each result folded on the driver
  as it lands. Their input is a plan, not data, so a Ray Data execution
  would fuse and stream nothing, and it costs far more to start: at one
  Ray CPU on a 4-vCPU host, a one-block ``from_arrow → map_batches →
  iter_batches`` took 39 ms wall and 29 ms driver CPU, a ``ray.remote``
  task and its ``ray.wait`` 3.5 ms of each (medians of 30). Ray Data
  still runs the filter path's candidate exchange (a real shuffle),
  the queries and :meth:`RunResult.violations_dataset`,
* the row pass covers every pending partition: a
  task packs consecutive partitions into groups of whole partitions
  whose footer rows add up to at most ``decode_batch_size`` and footer
  bytes to at most ``PACK_MAX_BYTES`` (:func:`pack_partitions`; a larger
  partition is a group of its own),
  reads each group in one scan, runs every per-row rule (scalar + audio
  decode + JSON + assets + referential broadcast probe) as one fused
  stage call per group, or per ``decode_batch_size`` batch of a large
  partition — so it never holds more than ``decode_batch_size`` rows —
  and **commits** the group's partitions, in plan order, the moment its
  last row is checked: each one's violations file, then its manifest
  ``part-N.json`` (lineage, row/violation counts, footer bytes read,
  violations per rule, wall time),
* globally-scoped rules — every pending ``unique`` and ``drift`` rule —
  come out of the same read: the row pass reads their columns too, and
  each task returns one mergeable partial per rule beside its docs
  (``pipelines/stats.py::GlobalPartial``): each drift rule's
  per-partition histograms, and each unique rule's exact key counts
  while the footers put the rules' key bytes at or below
  ``exchange.MIN_BUCKET_BYTES``, its counting-filter cells above that.
  The driver folds them as the tasks finish (``fold_partials``), then
  writes the drift verdicts and, from exact counts, the duplicates.
  From a filter, keys can repeat only in cells counted twice: with none
  there is no second read and no shuffle; otherwise ONE keys-only scan
  keeps just those rows of every rule and merges them in one exchange
  (``stages/unique.py::candidate_violations``) — never payloads. A
  fresh run is thus one pass when the keys fit, and at most two
  otherwise (``global_metrics["ray_executions"]`` counts passes, a
  pass of Ray tasks as one). A finished partition keeps no partials: a
  resumed run that still owes a global verdict scans the keys of the
  partitions it skips (:class:`ScanPartitions`, :func:`scan_partial`).

Every manifest doc (``part-N``, ``plan``, ``global``, ``drift-<id>``)
records ``key``, a digest of the inputs it was computed from (:func:`_key`).
A rerun reuses a doc only when its key equals the key the rerun computes
for it, and deletes every other doc with its violations before any pass
runs (north_rule: resumable from per-partition checkpoints with lineage +
metrics). Each violation is counted in exactly one doc, so the run's
total is the sum over its docs.

Violation output is one hive directory per PARTITION (plus one each
for the global/drift/plan passes): a resumed run deletes and rewrites
exactly the partitions it reprocesses — rerun-safe, never one giant
file.
"""

from __future__ import annotations

import collections
import functools
import glob
import hashlib
import itertools
import json
import shutil
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fs_schema_validator_ray.pipelines.stats import GlobalPartial, drift_verdicts, fold_partials
from fs_schema_validator_ray.report import (
    PARTITION_COLUMN,
    VIOLATION_SCHEMA,
    violations_table,
)
from fs_schema_validator_ray.rules import RuleSet
from fs_schema_validator_ray.sinks import write_json_atomic
from fs_schema_validator_ray.stages.combined import CombinedValidateStage
from fs_schema_validator_ray.stages.exchange import MIN_BUCKET_BYTES
from fs_schema_validator_ray.stages.referential import build_membership, match_key_types
from fs_schema_validator_ray.stages import unique
from fs_schema_validator_ray.state.sketches import Histogram, canonical_tuple_strings

#: a partition's violations file: the hive path restores ``partition_id``
PART_FILE_SCHEMA = pa.schema([f for f in VIOLATION_SCHEMA if f.name != PARTITION_COLUMN])


@dataclass
class ValidationRunConfig:
    input_path: Any                      # dir, glob, file, or list of files
    rules: RuleSet
    output_dir: str
    key_column: str = "clip_id"
    manifest_path: Optional[str] = None  # parquet for referential rules
    manifest_key_column: Optional[str] = None
    baselines: dict = field(default_factory=dict)  # rule_id -> Histogram
    partitions: Optional[int] = None     # group files into this many partitions
    #: ignored: the task planner (:func:`plan_tasks`) sizes tasks by CPUs
    #: and bytes. Kept because ``perfbench/workloads.py`` still passes it.
    wave_size: int = 16
    #: rows of one row-pass batch: a task packs consecutive small
    #: partitions whose footer rows add up to at most this into one batch,
    #: and reads a larger partition in batches of this many rows (see
    #: :class:`CommitPartitions`)
    decode_batch_size: int = 512
    #: columns to snapshot per-partition mergeable sketch state for in
    #: the checkpoint manifest (north_rule: checkpoints record sketch
    #: state): numeric columns get a t-digest, everything else an HLL.
    #: A resumed/extended run re-derives corpus quantiles / distinct
    #: estimates by merging manifest blobs — no re-read of finished
    #: partitions (see :func:`merged_stats_sketches`).
    stats_sketch_columns: Optional[list[str]] = None


@dataclass
class RunResult:
    output_dir: str
    partition_metrics: dict
    global_metrics: dict
    total_violations: int
    total_rows: int
    #: row passes: 1 if any partition was pending, else 0
    waves_run: int
    partitions_skipped: int

    def okay(self) -> bool:
        return self.total_violations == 0

    def exit_code(self) -> int:
        return 0 if self.okay() else 1

    def violations_dataset(self):
        import ray.data

        def normalize(t: pa.Table) -> pa.Table:
            cols = []
            for f in VIOLATION_SCHEMA:
                c = t.column(f.name) if f.name in t.column_names else pa.nulls(
                    t.num_rows, f.type
                )
                cols.append(c.cast(f.type))
            return pa.Table.from_arrays(cols, schema=VIOLATION_SCHEMA)

        sources = []
        # per-partition (hive-partitioned) row-rule violations: read the
        # directory so partition_id is restored from the path; only
        # committed files (a killed task leaves a tmp name behind)
        parts_root = os.path.join(self.output_dir, "violations", "parts")
        if glob.glob(os.path.join(parts_root, "**", "*.parquet"), recursive=True):
            sources.append(ray.data.read_parquet(parts_root, file_extensions=["parquet"]))
        # global/drift violations carry partition_id as a normal column
        flat = sorted(
            p
            for p in glob.glob(
                os.path.join(self.output_dir, "violations", "**", "*.parquet"),
                recursive=True,
            )
            if not p.startswith(parts_root + os.sep)
        )
        if flat:
            sources.append(ray.data.read_parquet(flat))
        if not sources:
            return ray.data.from_arrow(VIOLATION_SCHEMA.empty_table())
        out = sources[0]
        if len(sources) > 1:
            out = out.map_batches(normalize, batch_format="pyarrow").union(
                *(s.map_batches(normalize, batch_format="pyarrow") for s in sources[1:])
            )
            return out
        return out.map_batches(normalize, batch_format="pyarrow")


def _input_files(input_path: Any) -> list[str]:
    if isinstance(input_path, (list, tuple)):
        return sorted(str(p) for p in input_path)
    p = str(input_path)
    if os.path.isdir(p):
        return sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True))
    if any(ch in p for ch in "*?["):
        return sorted(glob.glob(p))
    return [p]


def plan_partitions(files: list[str], partitions: Optional[int]) -> list[tuple[int, list[str]]]:
    """Group input files into checkpoint partitions (default: one per
    file — the fragment-granularity analogue)."""
    if not files:
        raise ValueError("no input files found")
    k = partitions or len(files)
    k = min(k, len(files))
    groups: list[list[str]] = [[] for _ in range(k)]
    for i, f in enumerate(files):
        groups[i % k].append(f)
    return [(pid, grp) for pid, grp in enumerate(groups) if grp]


def _manifest_dir(output_dir: str) -> str:
    return os.path.join(output_dir, "manifest")


def _manifest_path(output_dir: str, doc_id: str) -> str:
    return os.path.join(_manifest_dir(output_dir), f"{doc_id}.json")


def _violations_dir(output_dir: str, doc_id: str) -> str:
    """Where the violations a doc counts live: ``violations/parts/
    partition_id=N`` for ``part-N`` (the hive path restores the id),
    ``violations/<id>`` for the whole-run docs."""
    if doc_id.startswith("part-"):
        pid = doc_id[len("part-"):]
        return os.path.join(output_dir, "violations", "parts", f"partition_id={pid}")
    return os.path.join(output_dir, "violations", doc_id)


def _load_done(output_dir: str) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for path in glob.glob(os.path.join(_manifest_dir(output_dir), "*.json")):
        with open(path) as f:
            doc = json.load(f)
        out[doc["id"]] = doc
    return out


def _write_manifest(output_dir: str, doc: dict) -> None:
    os.makedirs(_manifest_dir(output_dir), exist_ok=True)
    # atomic: a manifest row exists only when complete
    write_json_atomic(_manifest_path(output_dir, doc["id"]), doc)


def _key(*inputs) -> str:
    """A manifest doc's validity key: a digest of the inputs it was
    computed from. Rules are frozen dataclasses of plain values, so their
    ``repr`` is the same in every process."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def _baseline_input(baseline) -> Any:
    """A drift rule's baseline as a key input: a histogram's bytes, or a
    categorical baseline's sorted counts."""
    if baseline is None:
        return None
    if isinstance(baseline, Histogram):
        return baseline.to_bytes()
    return sorted(dict(baseline).items(), key=repr)


def _cluster_cpus() -> int:
    import ray

    try:
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:  # noqa: BLE001 - conservative fallback pre-init
        return 8


def plan_tasks(sizes: list[tuple[int, int]], cpus: int, target_bytes: int) -> list[list[int]]:
    """Split partitions ``[(pid, bytes), ...]`` into the tasks of a pass:
    ``min(P, max(cpus, ceil(bytes / target_bytes)))`` contiguous runs of
    near-equal bytes. Every CPU gets work, and a task reads about
    ``target_bytes`` or less; past that, a run is as long as the bytes
    allow, because each task has a fixed cost: its submission, its
    partitions' commit set-up and one :class:`GlobalPartial` to fold
    (a ``ray.remote`` task and its ``ray.wait`` alone took 3.5 ms of
    driver CPU at one Ray CPU).

    Tasks are balanced on bytes, not on work: a μ-law, A-law or u8 row
    carries twice the samples per byte of a ``pcm_s16le`` row, so under
    codec skew the tasks of a pass on N CPUs can differ about 2× in decode
    work (unmeasured: only 1-CPU runs were timed)."""
    p = len(sizes)
    if not p:
        return []
    total = sum(b for _, b in sizes)
    n = min(p, max(cpus, -(-total // max(target_bytes, 1))))
    # cut i goes where the byte prefix is closest to i/n of the total,
    # clamped so that every run is non-empty
    weights = [b for _, b in sizes] if total else [1] * p
    cum = np.concatenate([[0], np.cumsum(weights, dtype=np.float64)])
    cuts = [0]
    for i in range(1, n):
        goal = cum[-1] * i / n
        j = int(np.searchsorted(cum, goal))
        if j > 0 and goal - cum[j - 1] <= cum[j] - goal:
            j -= 1
        cuts.append(min(max(j, cuts[-1] + 1), p - (n - i)))
    cuts.append(p)
    return [[pid for pid, _ in sizes[a:b]] for a, b in zip(cuts, cuts[1:])]


#: the most footer bytes of its columns that one task of a pass reads,
#: past one task per CPU (:func:`plan_tasks`); Ray Data's default block
#: bound
TASK_MAX_BYTES = 128 << 20


def _task_items(groups, columns: list[str], footers: dict, item) -> list[pa.Table]:
    """The task plan every pass of a run shares: the partitions ``groups``
    (``[(pid, files)]``) cut by :func:`plan_tasks` on the footer bytes of
    ``columns`` at :data:`TASK_MAX_BYTES`, as one table per task; a
    partition's row is ``item(pid, files, nbytes)``, ``nbytes`` its footer
    bytes of ``columns``."""
    files_of = dict(groups)
    sizes = [(pid, sum(footers[f][1].get(c, 0) for f in files for c in columns))
             for pid, files in groups]
    size_of = dict(sizes)
    return [pa.Table.from_pylist([item(pid, files_of[pid], size_of[pid]) for pid in run])
            for run in plan_tasks(sizes, _cluster_cpus(), TASK_MAX_BYTES)]


def _call(udf, items: pa.Table) -> pa.Table:
    return udf(items)


@functools.cache
def _remote_call():
    import ray

    # SPREAD is Ray Data's default placement for its tasks
    return ray.remote(num_cpus=1, scheduling_strategy="SPREAD")(_call)


def _run_tasks(udf, tables: list[pa.Table], fold) -> None:
    """Run ``udf`` on each plan table (:func:`_task_items`) as one Ray
    task, and ``fold`` each task's output table on the driver as it lands.
    At most ``2 × _cluster_cpus()`` tasks are submitted and not yet
    folded, so driver state is bounded by CPUs, not by the plan. The first
    error of a task is raised here as its own type (Ray's ``RayTaskError``
    subclasses it), no further task is submitted, and the running ones
    are cancelled."""
    import ray

    remote, ref = _remote_call(), ray.put(udf)
    limit = 2 * _cluster_cpus()
    todo, running = iter(tables), []
    try:
        while True:
            running += [remote.remote(ref, t)
                        for t in itertools.islice(todo, limit - len(running))]
            if not running:
                return
            done, running = ray.wait(running, num_returns=1)
            fold(ray.get(done[0]))
    except BaseException:
        for r in running:
            ray.cancel(r)
        raise


def scan_partition(files: list[str], columns: list[str], file_schema: Optional[pa.Schema],
                   batch_size: Optional[int] = None):
    """The run's one reader: a ``pyarrow.dataset`` scanner over one
    partition's ``files``, pruned to ``columns``, in ``batch_size`` rows
    (pyarrow's default if ``None``). With the footer-unified ``file_schema``
    a file missing a column reads it as nulls; without it, conflicting
    types surface as the read's own error."""
    import pyarrow.dataset as pads

    schema = pa.schema([file_schema.field(c) for c in columns]) if file_schema else None
    kw = {"batch_size": batch_size} if batch_size else {}
    return pads.dataset(files, schema=schema, format="parquet").scanner(columns=columns, **kw)


def _with_partition(batch, pid: int) -> pa.Table:
    """``batch`` as a table with the plan's ``partition_id`` column."""
    return pa.Table.from_batches([batch]).append_column(
        PARTITION_COLUMN, pa.array(np.full(batch.num_rows, pid, np.int32))
    )


class ScanPartitions:
    """Map UDF of the keys-only passes: input rows are ``(partition_id,
    files)`` plan items; yields each partition's ``columns`` batches with
    its ``partition_id`` attached."""

    def __init__(self, columns: list[str], file_schema: Optional[pa.Schema]) -> None:
        # the partition id comes from the plan, never from the files
        self.columns = [c for c in columns if c != PARTITION_COLUMN]
        self.file_schema = file_schema

    def __call__(self, items: pa.Table):
        for pid, files in zip(
            items.column("partition_id").to_pylist(), items.column("files").to_pylist()
        ):
            for rb in scan_partition(files, self.columns, self.file_schema).to_batches():
                if rb.num_rows:
                    yield _with_partition(rb, pid)


#: the most footer bytes of the columns the row pass reads that a packed
#: group holds. Packing saves a fixed cost of about 4 ms CPU a partition
#: (1 vCPU: 64 key-only rows, ~5 KB, took 6.7 ms unpacked and 2.6 ms
#: packed), while 64 rows with audio payloads, ~360 KB, take ~40 ms: past
#: this many bytes the rows' own work dwarfs what packing saves, and
#: packing would only delay the group's checkpoints.
PACK_MAX_BYTES = 64 << 10


def pack_partitions(docs: list[dict], max_rows: int, max_bytes: int) -> list[list[dict]]:
    """Cut a task's planned partition docs (plan order) into the groups it
    validates as one batch: consecutive whole partitions while their footer
    row counts (``doc["rows"]``) add up to at most ``max_rows``, their
    footer bytes (``doc["read_bytes"]``) to at most ``max_bytes``
    (:data:`PACK_MAX_BYTES`), and no file is in two of them. A partition
    past either bound is a group of its own."""
    groups: list[list[dict]] = []
    rows, nbytes, files = 0, 0, set()
    for doc in docs:
        if (groups and rows + doc["rows"] <= max_rows
                and nbytes + doc["read_bytes"] <= max_bytes
                and files.isdisjoint(doc["files"])):
            groups[-1].append(doc)
            rows, nbytes = rows + doc["rows"], nbytes + doc["read_bytes"]
        else:
            groups.append([doc])
            rows, nbytes, files = doc["rows"], doc["read_bytes"], set()
        files.update(doc["files"])
    return groups


def split_by_partition(v: pa.Table, pids: list[int]) -> list[pa.Table]:
    """The rows of ``v`` of each partition of ``pids``, in ``v``'s order;
    a row of any other partition is an error."""
    col = np.asarray(v.column(PARTITION_COLUMN))
    order = np.argsort(col, kind="stable")
    keys = col[order]
    lo, hi = np.searchsorted(keys, pids, "left"), np.searchsorted(keys, pids, "right")
    if int((hi - lo).sum()) != v.num_rows:
        raise ValueError(f"{v.num_rows - int((hi - lo).sum())} violation rows "
                         f"name no partition of {pids}")
    v = v.take(order)
    return [v.slice(a, b - a) for a, b in zip(lo, hi)]


class CommitPartitions:
    """The row-pass task: validates whole partitions and commits each one
    as soon as its last row is checked.

    Input: one row per partition holding its manifest doc as planned
    (key, lineage, footer row count). The task packs consecutive
    partitions into groups (:func:`pack_partitions`): whole partitions
    whose footer rows add up to at most ``batch_size``, so a group holds
    no more rows than one batch, and whose footer bytes add up to at most
    :data:`PACK_MAX_BYTES`; a larger partition is a group of its own.
    Per group: clear each partition's violations directory, read the
    group's files in one scan, fold each scanned batch into its
    partition's sketches; then a packed group goes through the fused stage
    and into the task's :class:`GlobalPartial` as ONE batch, while a large
    partition streams through them in ``batch_size`` batches. Every stage
    emits its rows in input order and a group never splits a small
    partition, so a partition's violations are the same whatever it was
    packed with. Then, per partition in plan order: check that the rows
    read equal the footer count, ``os.replace`` the violations file into
    place, then write ``part-N.json`` with its ``violations_by_rule``.
    Output: the written docs, one ``doc`` row per partition (the receipts),
    then the task's partials, one ``rule`` / ``blob`` row per pending
    global rule (``global_rules``: the unique rules, the drift rules and
    the filter bits, ``None`` for exact key counts). The partials are not
    checkpointed: a resumed run reads the keys of finished partitions
    again."""

    def __init__(
        self,
        stage: Optional[CombinedValidateStage],
        stage_columns: list[str],
        sketch_columns: list[str],
        global_rules: tuple,
        file_schema: Optional[pa.Schema],
        batch_size: int,
        output_dir: str,
    ) -> None:
        self.stage = stage
        self.stage_columns = stage_columns
        self.sketch_columns = sketch_columns
        self.global_rules = global_rules
        self.columns = sorted(
            set(sketch_columns) | (set(stage_columns) if stage is not None else set())
            | {c for r in [*global_rules[0], *global_rules[1]] for c in r.input_columns()}
        )
        self.file_schema = file_schema
        self.batch_size = batch_size
        # read where the run is planned, not in the worker
        self.pack_max_bytes = PACK_MAX_BYTES
        self.output_dir = output_dir

    def __call__(self, items: pa.Table) -> pa.Table:
        partial = GlobalPartial(*self.global_rules)
        planned = [json.loads(d) for d in items.column("doc").to_pylist()]
        # without one schema for every file, each partition reads its own
        max_rows = self.batch_size if self.file_schema is not None else -1
        groups = pack_partitions(planned, max_rows, self.pack_max_bytes)
        docs = [json.dumps(doc) for group in groups for doc in self.commit(group, partial)]
        return pa.concat_tables([pa.table({"doc": pa.array(docs, pa.string())}),
                                 partial.blobs()], promote_options="default")

    def commit(self, docs: list[dict], partial: GlobalPartial) -> list[dict]:
        """Validate and commit one group; a doc's ``wall_s`` is the time
        from the group's start to that partition's commit."""
        t0 = time.perf_counter()
        for doc in docs:
            shutil.rmtree(doc["violations_path"], ignore_errors=True)
        found = {doc["partition_id"]: collections.Counter() for doc in docs}
        rows, sketches = {doc["partition_id"]: doc["rows"] for doc in docs}, {}
        if self.columns:
            rows, sketches = self.check(docs, partial, found)
        for doc in docs:
            pid = doc["partition_id"]
            if rows[pid] != doc["rows"]:
                raise ValueError(
                    f"partition {pid}: read {rows[pid]} rows, its footers say {doc['rows']}"
                )
            if found[pid]:
                os.replace(_tmp_file(doc), os.path.join(doc["violations_path"],
                                                        "violations.parquet"))
            doc["violations"] = sum(found[pid].values())
            doc["violations_by_rule"] = dict(sorted(found[pid].items()))
            if rows[pid] and sketches.get(pid):
                doc["stats_sketches_hex"] = {
                    c: {"kind": kind, "blob": sk.to_bytes().hex()}
                    for c, (kind, sk) in sketches[pid].items()
                }
            doc["wall_s"] = time.perf_counter() - t0
            _write_manifest(self.output_dir, doc)
        return docs

    def check(self, docs: list[dict], partial: GlobalPartial, found: dict):
        """Read one group's files in one scan through the sketches, the
        stage and ``partial``; each partition's violation rows go to its
        tmp file (not named ``*.parquet`` until committed) and are counted
        per rule into ``found[pid]``. Returns ``({pid: rows read},
        {pid: sketches})``."""
        from fs_schema_validator_ray.state.sketches import HyperLogLog, TDigest

        owner = {f: doc["partition_id"] for doc in docs for f in doc["files"]}
        scan = scan_partition([f for doc in docs for f in doc["files"]], self.columns,
                              self.file_schema, self.batch_size)
        # a t-digest for numeric columns, an HLL for everything else
        types = {c: scan.projected_schema.field(c).type for c in self.sketch_columns}
        sketches = {pid: {c: ("tdigest", TDigest())
                          if pa.types.is_integer(t) or pa.types.is_floating(t)
                          else ("hll", HyperLogLog()) for c, t in types.items()}
                    for pid in found}
        rows = dict.fromkeys(found, 0)
        # one batch for a packed group; a large partition streams
        packed = sum(doc["rows"] for doc in docs) <= self.batch_size
        held: list[tuple[int, pa.Table]] = []  # (pid, batch)
        writers: dict = {}
        by_pid = {doc["partition_id"]: doc for doc in docs}
        try:
            for tagged in scan.scan_batches():
                rb, pid = tagged.record_batch, owner[tagged.fragment.path]
                rows[pid] += rb.num_rows
                for c, (_, sk) in sketches[pid].items():
                    values = rb.column(c).drop_null()
                    if len(values):
                        sk.add(values.to_numpy(zero_copy_only=False))
                if rb.num_rows:
                    held.append((pid, _with_partition(rb, pid)))
                if held and not packed:
                    self.validate(held, partial, found, by_pid, writers)
                    held = []
            if held:
                self.validate(held, partial, found, by_pid, writers)
        finally:
            for w in writers.values():
                w.close()
        return rows, sketches

    def validate(self, held: list, partial: GlobalPartial, found: dict,
                 by_pid: dict, writers: dict) -> None:
        """One batch (the ``(pid, batch)`` pairs ``held``, concatenated)
        through ``partial`` and the stage; its violation rows are split by
        partition into each one's tmp file (``writers``) and ``found``."""
        batch = held[0][1] if len(held) == 1 else pa.concat_tables([t for _, t in held])
        partial.add(batch)
        if self.stage is None:
            return
        v = self.stage(batch.select([*self.stage_columns, PARTITION_COLUMN]))
        if not v.num_rows:
            return
        pids = list(dict.fromkeys(pid for pid, _ in held))
        last = pids[-1]
        for pid, part in zip(pids, split_by_partition(v, pids)):
            if part.num_rows:
                if pid not in writers:
                    os.makedirs(by_pid[pid]["violations_path"], exist_ok=True)
                    writers[pid] = pq.ParquetWriter(_tmp_file(by_pid[pid]), PART_FILE_SCHEMA)
                writers[pid].write_table(part.select(PART_FILE_SCHEMA.names)
                                         .cast(PART_FILE_SCHEMA))
                counts = pc.value_counts(part.column("rule_id"))
                found[pid].update(dict(zip(counts.field("values").to_pylist(),
                                           counts.field("counts").to_pylist())))
            # only the last partition of a batch can have rows still to come
            if pid != last and pid in writers:
                writers.pop(pid).close()


def _tmp_file(doc: dict) -> str:
    return os.path.join(doc["violations_path"], "violations.tmp")


def scan_partial(scan: ScanPartitions, global_rules: tuple, items: pa.Table) -> pa.Table:
    """The resume keys-only scan task: ``scan``'s batches of the plan
    items folded into one :class:`GlobalPartial` of ``global_rules``."""
    partial = GlobalPartial(*global_rules)
    for batch in scan(items):
        partial.add(batch)
    return partial.blobs()


def merged_stats_sketches(output_dir: str) -> dict[str, Any]:
    """Merge every partition manifest's sketch blobs into one global
    sketch per column — corpus quantiles / distinct estimates WITHOUT
    re-reading any finished partition (the resume-friendly read path
    for the checkpointed sketch state)."""
    from fs_schema_validator_ray.state.sketches import HyperLogLog, TDigest

    out: dict[str, Any] = {}
    for path in glob.glob(os.path.join(_manifest_dir(output_dir), "part-*.json")):
        with open(path) as f:
            doc = json.load(f)
        for col, entry in doc.get("stats_sketches_hex", {}).items():
            blob = bytes.fromhex(entry["blob"])
            sk = (
                TDigest.from_bytes(blob)
                if entry["kind"] == "tdigest"
                else HyperLogLog.from_bytes(blob)
            )
            out[col] = sk if col not in out else out[col].merge(sk)
    return out


def _column_bytes(md: pq.FileMetaData) -> dict[str, int]:
    """Uncompressed bytes per top-level column, from a parquet footer."""
    out: dict[str, int] = {}
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            c = rg.column(j)
            name = c.path_in_schema.split(".", 1)[0]
            out[name] = out.get(name, 0) + c.total_uncompressed_size
    return out


def run_validation(cfg: ValidationRunConfig) -> RunResult:
    """Execute (or resume) a validation run. Ray must already be
    initialized by the caller (driver contract)."""
    import ray

    rules = cfg.rules
    os.makedirs(cfg.output_dir, exist_ok=True)
    files = _input_files(cfg.input_path)
    groups = plan_partitions(files, cfg.partitions)

    # --- plan-time schema check: a rule targeting an absent column emits
    # ONE violation (reference's compile-level "does not exist") and is
    # dropped from the data plane — otherwise every batch of every block
    # would re-emit it (or crash the read) and counts would depend on
    # partitioning. Schema = union over ALL file footers (footer-only
    # reads are cheap, and the same footers give the row pass its row
    # counts and byte sizes) so a schema-evolved corpus whose rule column
    # appears only in later files is never falsely reported as missing.
    input_columns: set[str] = set()
    file_schemas = []
    seen_schema_ids: set[tuple] = set()
    footers: dict[str, tuple[int, dict[str, int]]] = {}
    for f in files:
        pf = pq.ParquetFile(f)
        s = pf.schema_arrow
        footers[f] = (pf.metadata.num_rows, _column_bytes(pf.metadata))
        key = tuple((n, str(s.field(n).type)) for n in s.names)
        if key not in seen_schema_ids:
            seen_schema_ids.add(key)
            file_schemas.append(s)
        input_columns |= set(s.names)
    try:
        unified_schema = pa.unify_schemas(file_schemas)
    except pa.ArrowException:  # conflicting types across files: let reads
        unified_schema = None  # use plain columns= and surface the error there

    missing_col_rules = [
        r
        for r in rules.rules
        if any(c not in input_columns for c in r.input_columns())
    ]
    missing_ids = {r.rule_id for r in missing_col_rules}
    if missing_ids:
        # drop EVERY rule family member that targets an absent column —
        # they were reported once at plan time
        rules = RuleSet(
            rules=[r for r in rules.rules if r.rule_id not in missing_ids],
            bindings=rules.bindings,
        )

    # --- resume: a doc holds only for the inputs it was computed from ----
    # Each doc records `key`, a digest of those inputs, and is reused only
    # when it equals the key computed here. A partition's key leaves out
    # the unique and drift rules: their verdicts live in whole-run docs,
    # so adding one keeps the finished partitions.
    row_rules = (rules.column_rules(), rules.audio_rules(), rules.json_rules(),
                 rules.asset_rules(), rules.referential_rules())
    sketch_columns = [c for c in cfg.stats_sketch_columns or () if c in input_columns]
    doc_keys = {
        f"part-{pid}": _key(grp, row_rules, cfg.key_column, cfg.manifest_path,
                            cfg.manifest_key_column, sketch_columns)
        for pid, grp in groups
    }
    doc_keys["plan"] = _key(files, missing_col_rules)
    doc_keys["global"] = _key(groups, rules.unique_rules())
    for r in rules.drift_rules():
        baseline = _baseline_input(cfg.baselines.get(r.rule_id))
        doc_keys[f"drift-{r.rule_id}"] = _key(groups, r, baseline)
    done = {
        doc_id: doc
        for doc_id, doc in _load_done(cfg.output_dir).items()
        if doc_id in doc_keys and doc.get("key") == doc_keys[doc_id]
    }
    # the one purge: after it the output directory holds exactly the kept
    # docs and their violations (a killed write's leftovers go too)
    keep = {os.path.join(cfg.output_dir, "violations", "parts")}
    keep.update(p for doc_id in done for p in (
        _manifest_path(cfg.output_dir, doc_id), _violations_dir(cfg.output_dir, doc_id)
    ))
    for path in (
        glob.glob(os.path.join(_manifest_dir(cfg.output_dir), "*"))
        + glob.glob(os.path.join(cfg.output_dir, "violations", "*"))
        + glob.glob(os.path.join(cfg.output_dir, "violations", "parts", "*"))
    ):
        if path in keep:
            continue
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    docs = dict(done)  # every doc of this run: the kept ones and the new

    def write(doc: dict) -> None:
        doc["key"] = doc_keys[doc["id"]]
        _write_manifest(cfg.output_dir, doc)
        docs[doc["id"]] = doc

    if missing_col_rules and "plan" not in done:
        plan_dir = _violations_dir(cfg.output_dir, "plan")
        os.makedirs(plan_dir)
        tbl = violations_table(
            [None] * len(missing_col_rules),
            [r.rule_id for r in missing_col_rules],
            [
                "column `"
                + next(c for c in r.input_columns() if c not in input_columns)
                + "` does not exist"
                for r in missing_col_rules
            ],
        )
        pq.write_table(tbl, os.path.join(plan_dir, "plan-violations.parquet"))
        write({"id": "plan", "status": "done", "violations": len(missing_col_rules)})

    phase_wall: dict[str, float] = {}
    _t = time.perf_counter()

    def _mark(name: str) -> None:
        nonlocal _t
        now = time.perf_counter()
        phase_wall[name] = round(phase_wall.get(name, 0.0) + now - _t, 3)
        _t = now

    # absent columns were already reported as plan violations; asking
    # the parquet reader for them would fail the whole read
    row_columns = sorted(
        (set(rules.required_columns(cfg.key_column)) & input_columns) - {PARTITION_COLUMN}
    )

    def footer_bytes(columns) -> int:
        return sum(footers[f][1].get(c, 0) for f in files for c in columns)

    # --- global rules: partials from the tasks that read their columns ---
    # (the row pass; a keys-only scan of the partitions it skips)
    unique_rules = [] if "global" in done else rules.unique_rules()
    drift_rules = [r for r in rules.drift_rules() if f"drift-{r.rule_id}" not in done]
    # exact key counts while every rule's keys fit on the driver together
    key_bytes = sum(footer_bytes(r.input_columns()) for r in unique_rules)
    exact = key_bytes <= MIN_BUCKET_BYTES
    global_rules = (unique_rules, drift_rules, None if exact else
                    unique.filter_bits(sum(rows for rows, _ in footers.values())))
    global_columns = {c for r in [*unique_rules, *drift_rules] for c in r.input_columns()}
    unique_states = [[] if exact else np.zeros(1 << global_rules[2], np.uint8)
                     for _ in unique_rules]
    drift_states: list = [{} for _ in drift_rules]
    pending = [(pid, grp) for pid, grp in groups if f"part-{pid}" not in done]
    executions = 0  # passes this run ran: of Ray tasks, or Ray Data executions
    row_pass_tasks = 0  # the receipt of the row pass's plan

    def key_tasks(columns, parts):
        # keys only: pyarrow's default batch size
        columns = sorted(columns)
        return ScanPartitions(columns, unified_schema), _task_items(
            parts, columns, footers, lambda pid, files, _: {"partition_id": pid, "files": files})

    def read_keys(columns):
        # the candidate exchange's input: a Dataset over the same plan
        import ray.data

        scan, tables = key_tasks(columns, groups)
        return ray.data.from_arrow(tables).map_batches(
            scan, batch_format="pyarrow", batch_size=None)

    def fold(blobs: pa.Table) -> None:
        fold_partials(unique_states, drift_states, drift_rules, blobs)

    # --- referential membership (built once, broadcast via ray.put) ------
    membership_refs = {}
    if pending and rules.referential_rules():
        if cfg.manifest_path is None:
            raise ValueError("ruleset has referential rules but no manifest_path configured")

        for rule in rules.referential_rules():
            columns = list(rule.columns or [rule.column])
            manifest_columns = columns if rule.columns else [cfg.manifest_key_column or rule.column]
            # numeric keys match by value, not by type (int64 1 is float64 1.0)
            mt = match_key_types(
                pq.read_table(cfg.manifest_path, columns=manifest_columns),
                [unified_schema.field(c).type if unified_schema else None for c in columns],
            )
            if rule.columns:
                keys = canonical_tuple_strings(mt, rule.columns)
            else:
                keys = mt.column(0)
            # pass the Arrow column: build_membership canonicalizes it the
            # same way the probe side does (dtype-stable under nulls)
            membership = build_membership(
                keys, use_bloom=rule.use_bloom, fpp=rule.bloom_fpp
            )
            membership_refs[rule.rule_id] = ray.put(membership)

    _mark("membership")
    # --- row pass: ONE pass of Ray tasks over every pending partition -----
    # Every per-row rule (scalar + audio decode + JSON + assets +
    # referential probe) runs as one fused stage inside a task that owns
    # whole partitions and commits each as soon as its last row is checked.
    if pending:
        ref_pairs = [
            (rule, membership_refs[rule.rule_id]) for rule in rules.referential_rules()
        ]
        commit = CommitPartitions(
            CombinedValidateStage(
                rules.column_rules(), rules.audio_rules(), ref_pairs,
                cfg.key_column, rules.json_rules(), rules.asset_rules(),
            ) if any(row_rules) else None,
            row_columns, sketch_columns, global_rules, unified_schema,
            cfg.decode_batch_size, cfg.output_dir,
        )
        # violations are laid out ONE DIRECTORY PER PARTITION (the
        # checkpoint unit): a resumed run clears and rewrites exactly the
        # partitions it reprocesses, so `violations_dataset()` never sees
        # a stale or duplicated copy
        tables = _task_items(
            pending, commit.columns, footers,
            lambda pid, files, nbytes: {"doc": json.dumps({
                "id": f"part-{pid}",
                "key": doc_keys[f"part-{pid}"],
                "partition_id": pid,
                "status": "done",
                "files": files,
                "rows": sum(footers[f][0] for f in files),
                "read_bytes": nbytes,
                "violations_path": _violations_dir(cfg.output_dir, f"part-{pid}"),
            })},
        )
        executions += 1
        row_pass_tasks = len(tables)

        def receive(b: pa.Table) -> None:
            for d in b.column("doc").to_pylist():
                if d is not None:
                    doc = json.loads(d)
                    docs[doc["id"]] = doc
            fold(b)

        _run_tasks(commit, tables, receive)

    _mark("waves")
    t0 = time.perf_counter()
    # a finished partition kept no partials: read its keys again
    skipped = [(pid, grp) for pid, grp in groups if f"part-{pid}" in done]
    if global_columns and skipped:
        executions += 1
        scan, tables = key_tasks(global_columns, skipped)
        _run_tasks(functools.partial(scan_partial, scan, global_rules), tables, fold)
        _mark("unique")

    # --- drift: verdicts over the folded partials -------------------------
    for rule, state in zip(drift_rules, drift_states):
        doc_id = f"drift-{rule.rule_id}"
        dviol, dmetrics, dsketches = drift_verdicts(
            state, rule, cfg.baselines.get(rule.rule_id)
        )
        if dviol.num_rows:
            drift_out = _violations_dir(cfg.output_dir, doc_id)
            os.makedirs(drift_out)
            pq.write_table(dviol, os.path.join(drift_out, "drift-violations.parquet"))
        vb = collections.Counter(str(pid) for pid in dviol.column("partition_id").to_pylist())
        write(
            {"id": doc_id, "status": "done", "violations": dviol.num_rows,
             "metrics": {str(k): v for k, v in dmetrics.items()},
             "violations_by_pid": vb,
             # mergeable sketch state per partition (hex histogram blobs):
             # a resumed/extended run can re-derive the global baseline by
             # merging these without re-reading finished partitions
             "sketches_hex": {str(k): v.hex() for k, v in dsketches.items()},
             "wall_s": time.perf_counter() - t0},
        )

    _mark("drift")
    # --- unique: the exact counts, or one candidate exchange for every rule
    if unique_rules:
        global_dir = _violations_dir(cfg.output_dir, "global")
        if exact:
            n, metrics = unique.counted_violations(unique_rules, unique_states, global_dir), {}
        else:
            n, metrics, ran = unique.candidate_violations(
                read_keys, unique_rules, unique_states, global_dir, footer_bytes)
            executions += ran
        write({"id": "global", "status": "done", "violations": n,
               "metrics": {"wall_s": time.perf_counter() - t0, "violations": n,
                           "path": "exact" if exact else "filter", "key_bytes": key_bytes,
                           **metrics}})

    _mark("unique")
    global_metrics: dict[str, Any] = dict(docs.get("global", {}).get("metrics", {}))
    global_metrics["ray_executions"] = executions
    global_metrics["row_pass_tasks"] = row_pass_tasks
    global_metrics["phase_wall"] = phase_wall
    # a partition's drift metrics come from the run's current drift docs
    partition_metrics = {d["partition_id"]: d for d in docs.values() if "partition_id" in d}
    for pid, doc in partition_metrics.items():
        doc["drift"] = {
            r.rule_id: docs[f"drift-{r.rule_id}"]["metrics"][str(pid)]
            for r in rules.drift_rules()
            if str(pid) in docs[f"drift-{r.rule_id}"]["metrics"]
        }
    return RunResult(
        output_dir=cfg.output_dir,
        partition_metrics=partition_metrics,
        global_metrics=global_metrics,
        total_violations=sum(doc.get("violations", 0) for doc in docs.values()),
        total_rows=sum(doc["rows"] for doc in partition_metrics.values()),
        waves_run=int(bool(pending)),
        partitions_skipped=len(groups) - len(pending),
    )
