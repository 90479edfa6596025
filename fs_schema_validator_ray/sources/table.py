"""Table source abstraction: Lance when available, Parquet otherwise.

The north_star input is a **Lance table** of clip + transcript pairs; this
sandbox has no ``lance``/``pylance`` package, so the engine reads Parquet
through the same interface and switches to ``ray.data.read_lance`` when
the dependency exists (import-gated, per the environment constraints).

Partitioning contract: the checkpoint partition is a file group
(``pipelines/validate.py:plan_partitions``).
"""

from __future__ import annotations

from typing import Optional


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def read_table(
    path: str,
    columns: Optional[list[str]] = None,
    override_num_blocks: Optional[int] = None,
):
    """Read a dataset from ``path``: ``.lance`` directories via
    ``ray.data.read_lance`` (when the package exists), ``.csv`` via
    ``ray.data.read_csv``, ``.json``/``.jsonl`` via ``ray.data.read_json``
    (column pruning applied right after the read — these formats have no
    column projection at the storage layer), anything else as Parquet
    with column pruning pushed INTO the read."""
    import ray.data

    kwargs = {}
    if override_num_blocks:
        kwargs["override_num_blocks"] = override_num_blocks
    p = path.rstrip("/")
    if p.endswith(".lance"):
        if not lance_available():
            raise ImportError(
                "input looks like a Lance table but the `lance` package is "
                "not installed in this environment; install pylance or "
                "convert to parquet"
            )
        return ray.data.read_lance(path, columns=columns, **kwargs)
    if p.endswith(".csv"):
        ds = ray.data.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if p.endswith((".json", ".jsonl")):
        ds = ray.data.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    return ray.data.read_parquet(path, columns=columns, **kwargs)
