"""Checkpoint/resume + per-partition lineage for pipeline stages.

The reference has no resumability (its embedding writer "resumes" by
counting files and silently mis-appends — rnn_networks.py:902-904;
SURVEY §4). Our contract, per the north rule:

- Every stage writes **partitioned Parquet**: the input is hash-bucketed
  into ``n_partitions`` by a key column, each bucket lands in its own
  ``part=<i>/`` directory (never one giant file).
- A JSON **manifest row per partition** records lineage + metrics:
  ``(stage, partition_id, input_fingerprint, rows_in, rows_out,
  wall_ms)``. Written atomically (tmp + rename) AFTER the partition's
  data file is complete, so a crash between the two leaves a re-runnable
  partition, never a corrupt "done" marker.
- On resume, ``run_stage`` lists completed manifest rows whose
  ``input_fingerprint`` still matches and filters those buckets OUT of
  the input before executing — only unfinished/invalidated partitions
  re-run. A finished run is a no-op.

The fingerprint is an order-independent hash of the partition's **row
content** (key column + every primitive column by default), so both a
membership change and an in-place edit invalidate exactly the
partitions they touch. All fingerprints are computed in ONE distributed
pass (per-batch partial sums bucketed by partition id — no per-partition
re-scan), and pending partitions execute CONCURRENTLY (each partition is
an independent Ray Data sub-pipeline; driver threads just launch and
await them, so the cluster sees max_concurrent × per-partition
parallelism instead of one partition's at a time).
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import ray.data

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BIAS = np.uint64(1) << np.uint64(63)


def _is_hashable_primitive(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t) or pa.types.is_floating(t)
        or pa.types.is_boolean(t) or pa.types.is_string(t)
        or pa.types.is_large_string(t) or pa.types.is_temporal(t)
    )


def default_content_columns(schema: pa.Schema, key_col: str) -> list[str]:
    """Key column + every primitive column, in schema order (list/binary
    payloads are excluded — edits there need an explicit content col,
    e.g. a precomputed digest)."""
    cols = [
        f.name for f in schema
        if f.name != "__part" and (f.name == key_col or _is_hashable_primitive(f.type))
    ]
    if key_col not in cols:
        cols.insert(0, key_col)
    return cols


def _hash_columns(batch: pa.Table, cols: list[str]) -> np.ndarray:
    """Vectorized per-row uint64 content hash over ``cols`` (pandas
    siphash per column — fixed key, deterministic across processes —
    FNV-combined across columns in fixed order)."""
    import pandas as pd

    acc = np.full(batch.num_rows, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in cols:
            s = batch.column(c).to_pandas()
            h = pd.util.hash_pandas_object(s, index=False).to_numpy().astype(
                np.uint64, copy=False
            )
            acc = (acc ^ h) * _FNV_PRIME
    return acc


def _bucket_of(col: pa.ChunkedArray | pa.Array, n_partitions: int) -> np.ndarray:
    """Stable hash-bucket per row (siphash-based — never Python hash())."""
    import pandas as pd

    if isinstance(col, pa.Array):
        col = pa.chunked_array([col])
    h = pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy().astype(
        np.uint64, copy=False
    )
    return (h % np.uint64(n_partitions)).astype(np.int64)


def add_partition_column(
    ds: ray.data.Dataset, key_col: str, n_partitions: int
) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__part", pa.array(_bucket_of(batch[key_col], n_partitions))
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _manifest_path(out_dir: str, partition_id: int) -> str:
    return os.path.join(out_dir, "_manifest", f"part-{partition_id:05d}.json")


def load_manifest(out_dir: str) -> dict[int, dict]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                row = json.load(fh)
            out[row["partition_id"]] = row
    return out


def _write_manifest_row(out_dir: str, row: dict) -> None:
    path = _manifest_path(out_dir, row["partition_id"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(row, fh)
    os.replace(tmp, path)  # atomic: done-marker appears all-or-nothing


def _partition_stats(
    keyed: ray.data.Dataset, cols: list[str], n_partitions: int
) -> dict[int, tuple[str, int]]:
    """{pid: (fingerprint, rows)} for every partition in ONE pass:
    per-batch partial (sum-of-row-hashes, count) per pid, combined on the
    driver (n_partitions tiny rows per batch — no payload shuffle)."""

    def fn(batch: pa.Table) -> pa.Table:
        part = np.asarray(batch["__part"].to_pandas(), dtype=np.int64)
        h = _hash_columns(batch, cols)
        sums = np.zeros(n_partitions, dtype=np.uint64)
        counts = np.zeros(n_partitions, dtype=np.int64)
        with np.errstate(over="ignore"):
            np.add.at(sums, part, h)
        np.add.at(counts, part, 1)
        return pa.table({
            "pid": pa.array(np.arange(n_partitions, dtype=np.int64)),
            "h": pa.array(sums.view(np.int64)),  # bit-reinterpret for arrow
            "n": pa.array(counts),
        })

    sums = np.zeros(n_partitions, dtype=np.uint64)
    rows = np.zeros(n_partitions, dtype=np.int64)
    with np.errstate(over="ignore"):
        for r in keyed.map_batches(fn, batch_format="pyarrow").take_all():
            sums[r["pid"]] += np.int64(r["h"]).view(np.uint64)
            rows[r["pid"]] += r["n"]
    return {
        pid: ((f"{int(sums[pid]):016x}-{int(rows[pid])}", int(rows[pid]))
              if rows[pid] else ("empty", 0))
        for pid in range(n_partitions)
    }


def partition_fingerprint(
    ds: ray.data.Dataset, key_col: str, content_cols: list[str] | None = None
) -> tuple[str, int]:
    """(fingerprint, rows): order-independent commutative sum of per-row
    content hashes, computed distributed (one tiny aggregate — no rows
    reach the driver)."""
    schema = ds.schema()
    cols = content_cols or default_content_columns(
        pa.schema([pa.field(n, t) for n, t in zip(schema.names, schema.types)]),
        key_col,
    )

    def fn(batch: pa.Table) -> pa.Table:
        h = _hash_columns(batch, cols)
        with np.errstate(over="ignore"):
            s = np.uint64(h.sum(dtype=np.uint64))
        return pa.table({
            "h": pa.array([int(s.view(np.int64))], type=pa.int64()),
            "n": pa.array([len(h)], type=pa.int64()),
        })

    parts = ds.map_batches(fn, batch_format="pyarrow").take_all()
    rows = sum(r["n"] for r in parts)
    if rows == 0:
        return "empty", 0
    with np.errstate(over="ignore"):
        total = np.uint64(0)
        for p in parts:
            total = total + np.int64(p["h"]).view(np.uint64)
    return f"{int(total):016x}-{rows}", int(rows)


def run_stage(
    ds: ray.data.Dataset,
    stage_fn: Callable[[ray.data.Dataset], ray.data.Dataset],
    out_dir: str,
    stage_name: str,
    key_col: str,
    n_partitions: int = 16,
    content_cols: list[str] | None = None,
    max_concurrent: int = 4,
) -> list[int]:
    """Run ``stage_fn`` per hash-partition of ``ds`` with skip-if-done.

    Returns the sorted list of partition ids executed this call
    (completed partitions with matching content fingerprints are
    skipped). Output lands in ``out_dir/part=<i>/`` + ``out_dir/
    _manifest/``.

    Partition granularity is the resume/lineage unit; up to
    ``max_concurrent`` pending partitions execute at once (each is a
    full distributed Ray Data sub-pipeline — the driver threads only
    launch/await). Effective concurrency is additionally capped at
    CPUs//2: the library's own stages run as tasks, but a caller's
    ``stage_fn`` may hold an actor pool, which pins ≥1 CPU per pipeline
    on its actor, and N concurrent pipelines each need ≥1 more CPU for
    their upstream tasks or the whole stage deadlocks (observed with 4
    pipelines × 1 actor on a 4-CPU cluster). For a 100 TB run,
    ``n_partitions`` is sized so one partition ≈ one retryable slice of
    work (minutes, not hours).
    """
    import shutil
    from concurrent.futures import ThreadPoolExecutor

    import ray as _ray

    # cluster size, not instantaneous free CPUs: a momentarily busy
    # cluster must not throttle the whole run to max_concurrent=1
    cpus = int(_ray.cluster_resources().get("CPU", 2) or 2)
    max_concurrent = max(1, min(max_concurrent, cpus // 2))

    os.makedirs(out_dir, exist_ok=True)
    keyed = add_partition_column(ds, key_col, n_partitions).materialize()
    schema = keyed.schema()
    cols = content_cols or default_content_columns(
        pa.schema([pa.field(n, t) for n, t in zip(schema.names, schema.types)]),
        key_col,
    )
    stats = _partition_stats(keyed, cols, n_partitions)
    manifest = load_manifest(out_dir)
    pending = [
        pid for pid in range(n_partitions)
        if (manifest.get(pid) or {}).get("input_fingerprint") != stats[pid][0]
    ]
    if not pending:
        return []

    def run_one(pid: int) -> int:
        fp, rows_in = stats[pid]
        t0 = time.time()
        part_in = keyed.filter(expr=f"__part == {pid}").drop_columns(["__part"])
        out_m = stage_fn(part_in).materialize()
        rows_out = out_m.count()
        pdir = os.path.join(out_dir, f"part={pid}")
        if os.path.isdir(pdir):
            shutil.rmtree(pdir)  # write_parquet appends — never re-append
        if rows_out:
            for attempt in range(3):
                try:
                    if os.path.isdir(pdir):
                        # an ImportError surfacing AFTER a partial write
                        # would otherwise leave part files that the next
                        # attempt appends to → duplicated rows
                        shutil.rmtree(pdir)
                    out_m.write_parquet(pdir)
                    break
                except ImportError:
                    # concurrent first-imports of ray's optional fsspec
                    # HTTP filesystem probe can race into a transient
                    # "cannot import name" state; retry resolves it
                    if attempt == 2:
                        raise
                    time.sleep(0.1 * (attempt + 1))
        _write_manifest_row(out_dir, {
            "stage": stage_name,
            "partition_id": pid,
            "input_fingerprint": fp,
            "rows_in": rows_in,
            "rows_out": rows_out,
            "wall_ms": int((time.time() - t0) * 1000),
        })
        return pid

    with ThreadPoolExecutor(max_workers=min(max_concurrent, len(pending))) as ex:
        ran = list(ex.map(run_one, pending))
    return sorted(ran)


def read_stage_output(out_dir: str) -> ray.data.Dataset:
    """Read every completed partition's parquet back as one Dataset."""
    paths = [
        os.path.join(out_dir, name, f)
        for name in sorted(os.listdir(out_dir))
        if name.startswith("part=")
        for f in sorted(os.listdir(os.path.join(out_dir, name)))
        if f.endswith(".parquet")
    ]
    if not paths:
        return ray.data.from_items([])
    return ray.data.read_parquet(paths)
