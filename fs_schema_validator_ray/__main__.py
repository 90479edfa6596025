"""CLI entrypoint — the ``ray job submit`` analogue of the reference CLI
(``/root/reference/fs_schema_validator/__main__.py:25-96``).

Same surface, columnar semantics:

* positional ruleset YAML (or ``$VALIDATION_RULES_PATH``),
* ``--input/-i`` parquet dir/glob (or ``$VALIDATION_INPUT_PATH``) — the
  analogue of the reference's ``--root-dir``,
* repeatable ``-b key=value`` binding overrides (reference
  ``__main__.py:15-22,40``; values parsed through the same assignment
  grammar, so ``-b "codecs={ulaw|alaw}"`` binds a choice),
* ``--manifest`` parquet for referential rules,
* ``--output/-o`` run directory (violations + per-partition manifests;
  rerunning with the same directory resumes),
* exit codes: 0 all pass / 1 violations / 127 invalid ruleset
  (reference ``__main__.py:74,85,96``).

The CLI owns the Ray session (library code never calls ``ray.init``).
"""

from __future__ import annotations

import argparse
import os
import sys


def _parse_binding(text: str):
    from fs_schema_validator_ray import dsl

    name, value = dsl.parse_assignment(text)
    return name, value


_RENDER_SORT = [("key", "ascending"), ("rule_id", "ascending"), ("reason", "ascending")]


def _violations_head(ds, cap: int):
    """Globally-first ``cap`` violation rows by (key, rule_id, reason)
    WITHOUT an all-to-all sort: per-block vectorized local head (each
    block ships ≤ cap narrow rows) + one tiny driver merge. Output is
    identical to ``sort(...).limit(cap)`` — the global head must be a
    subset of the union of local heads."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fs_schema_validator_ray.report import VIOLATION_SCHEMA

    def local_head(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=_RENDER_SORT)
        return t.take(idx.slice(0, cap))

    parts = list(
        ds.map_batches(local_head, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    if not parts:
        return VIOLATION_SCHEMA.empty_table()
    merged = pa.concat_tables(parts)
    idx = pc.sort_indices(merged, sort_keys=_RENDER_SORT)
    return merged.take(idx.slice(0, cap)).cast(VIOLATION_SCHEMA)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m fs_schema_validator_ray",
        description="Ray-Data-native schema + constraint validation engine",
    )
    p.add_argument(
        "rules",
        nargs="?",
        default=os.environ.get("VALIDATION_RULES_PATH"),
        help="ruleset YAML path (env VALIDATION_RULES_PATH)",
    )
    p.add_argument(
        "-i", "--input",
        default=os.environ.get("VALIDATION_INPUT_PATH"),
        help="input parquet file/dir/glob (env VALIDATION_INPUT_PATH)",
    )
    p.add_argument("-o", "--output", default=None, help="run/output directory")
    p.add_argument("--manifest", default=None, help="manifest parquet for referential rules")
    p.add_argument("--key-column", default="clip_id")
    p.add_argument("--partitions", type=int, default=None)
    p.add_argument("--wave-size", type=int, default=16,
                   help="ignored: the task planner sizes tasks by CPUs and bytes")
    p.add_argument("--sketch-columns", default=None, metavar="COL[,COL...]",
                   help="checkpoint per-partition mergeable sketch state for "
                        "these columns (t-digest for numeric, HLL otherwise)")
    p.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (default: all)")
    p.add_argument("-b", "--binding", action="append", default=[],
                   metavar="KEY=VALUE", help="binding override (repeatable)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="render per-key report (violations grouped by key)")
    p.add_argument("--max-render", type=int, default=10_000, metavar="N",
                   help="cap on violation rows rendered by --verbose; the "
                        "rest stay in the output parquet (default 10000)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.rules or not args.input:
        print("error: ruleset YAML and --input are required", file=sys.stderr)
        return 2

    from fs_schema_validator_ray.rules import RuleSet, RuleSetError

    extra = {}
    try:
        for b in args.binding:
            name, value = _parse_binding(b)
            extra[name] = value
        with open(args.rules) as f:
            rules = RuleSet.from_yaml(f.read(), extra_bindings=extra)
    except (RuleSetError, OSError, ValueError) as ex:
        # invalid ruleset → 127, reference __main__.py:70-74
        print(f"invalid ruleset: {ex}", file=sys.stderr)
        return 127

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            logging_level="ERROR",
            **({"num_cpus": args.num_cpus} if args.num_cpus else {}),
        )

    from fs_schema_validator_ray.pipelines.validate import (
        ValidationRunConfig,
        run_validation,
    )

    # a fresh directory per invocation unless the user opted into one —
    # resume-from-checkpoint only ever happens with an explicit -o
    if args.output:
        out_dir = args.output
    else:
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="fsvr_cli_run_")
    cfg = ValidationRunConfig(
        input_path=args.input,
        rules=rules,
        output_dir=out_dir,
        key_column=args.key_column,
        manifest_path=args.manifest,
        partitions=args.partitions,
        wave_size=args.wave_size,
        stats_sketch_columns=(
            [c.strip() for c in args.sketch_columns.split(",") if c.strip()]
            if args.sketch_columns
            else None
        ),
    )
    try:
        res = run_validation(cfg)
        if args.verbose:
            from fs_schema_validator_ray.report import ViolationReport

            # bounded render without an all-to-all sort: each block keeps
            # its LOCAL first --max-render rows (vectorized sort_indices),
            # the driver merges the ≤ cap-per-block heads and slices the
            # global head — a run with 10^9 violations ships KBs per
            # block instead of shuffling every violation row to rank 100
            cap = max(args.max_render, 0)
            vt = _violations_head(res.violations_dataset(), cap)
            print(ViolationReport.from_arrow(vt).render())
            if res.total_violations > cap:
                print(
                    f"... {res.total_violations - cap} more violation(s) not "
                    f"rendered (--max-render {cap}); full set in {res.output_dir}"
                )
        print(
            f"rows={res.total_rows} violations={res.total_violations} "
            f"waves={res.waves_run} skipped={res.partitions_skipped} "
            f"output={res.output_dir}"
        )
        return res.exit_code()
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
