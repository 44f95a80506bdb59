"""Partitioned file-exchange for keyed whole-partition processing.

The generalization of the index build's phase-1/phase-2 idiom
(`rayse/pipelines/build_index.py`: write runs partitioned by doc-part,
then one vectorized merge per partition): instead of
``groupby(key).map_groups(fn)`` — which pays Ray's per-group Python-call
overhead (~0.2 ms/group, ruinous at 1e6+ distinct keys) — the Dataset is

1. stamped with ``_part = mix(key) % n_parts`` (vectorized per batch),
2. spilled to Parquet hive-partitioned by ``_part`` (the all-to-all
   exchange happens on DISK, streaming with backpressure, exactly like
   the index build's run files), then
3. each partition is processed WHOLE by one Ray task running a
   caller-supplied vectorized ``proc(table) -> table``.

All rows of a key land in one partition, so ``proc`` sees every group it
owns in a single table and can handle all of them with numpy segment
operations (lexsort + reduceat) — per-KEY cost is nanoseconds, not a Ray
dispatch. The partition count is the shard-size lever: pick it so one
partition's rows fit a worker heap (same sizing rule as ``part_bits``).
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _mix(k: np.ndarray) -> np.ndarray:
    """64-bit multiplicative mix (splitmix-style finalizer step): decouples
    the partition id from any structure in the key's low bits (doc_ids pack
    turn_idx low; shingle hashes are already uniform but mixing is free)."""
    k = k.astype(np.uint64, copy=False)
    k = (k ^ (k >> np.uint64(30))) * _GOLD
    return k ^ (k >> np.uint64(31))


def partition_of(cols: list[np.ndarray], n_parts: int) -> np.ndarray:
    """Combined partition id of one or more int64/uint64 key columns."""
    acc = _mix(cols[0])
    for c in cols[1:]:
        acc = _mix(acc ^ _mix(c))
    return (acc % np.uint64(n_parts)).astype(np.int64)


def default_parts() -> int:
    import ray

    return max(32, 2 * int(ray.cluster_resources().get("CPU", 4)))


def exchange_by_key(ds, key_cols, proc, *, n_parts: int | None = None,
                    tmp_root: str = "/tmp", proc_kwargs: dict | None = None):
    """Exchange ``ds`` by ``key_cols`` (str or list of str; int-typed) and
    apply ``proc(table, **proc_kwargs)`` to each whole partition.

    Returns a Dataset of the per-partition outputs. The spill directory is
    removed once every partition task has finished (outputs live in the
    object store). ``proc`` must be a plain importable/pickleable function
    operating on a ``pa.Table`` holding ALL rows of its partition's keys
    (sorted order NOT guaranteed — proc sorts if it needs grouping).
    """
    import ray
    import ray.data as rd

    if isinstance(key_cols, str):
        key_cols = [key_cols]
    if n_parts is None:
        n_parts = default_parts()
    kw = proc_kwargs or {}

    tmp = os.path.join(
        tmp_root, f"rayse_xchg_{os.getpid()}_{uuid.uuid4().hex[:8]}")

    def stamp(batch: pa.Table) -> pa.Table:
        cols = [batch[c].to_numpy(zero_copy_only=False) for c in key_cols]
        return batch.append_column(
            "_part", pa.array(partition_of(cols, n_parts), pa.int64()))

    schema = ds.schema()
    ds.map_batches(stamp, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        tmp, partition_cols=["_part"])

    names = list(schema.names)
    try:
        arrow_schema = pa.schema(list(zip(schema.names, schema.types)))
    except Exception:        # non-arrow-typed schema: let proc see raw reads
        arrow_schema = None

    part_dirs = sorted(glob.glob(os.path.join(tmp, "_part=*")))
    if not part_dirs:
        shutil.rmtree(tmp, ignore_errors=True)
        empty = (pa.table({n: [] for n in names}, schema=arrow_schema)
                 if arrow_schema is not None else pa.table({}))
        return rd.from_arrow(proc(empty, **kw))

    @ray.remote
    def run_part(d: str) -> pa.Table:
        import pyarrow.dataset as pads

        t = pads.dataset(d).to_table(columns=names, use_threads=False)
        return proc(t, **kw)

    refs = [run_part.remote(d) for d in part_dirs]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    out = rd.from_arrow_refs(refs)
    shutil.rmtree(tmp, ignore_errors=True)
    return out


def _spill_by_key(ds, key_cols: list, n_parts: int, tmp: str) -> None:
    """Stamp ``_part = mix(key) % n_parts`` and spill hive-partitioned —
    the write half of every exchange here."""
    def stamp(batch: pa.Table) -> pa.Table:
        cols = [batch[c].to_numpy(zero_copy_only=False) for c in key_cols]
        return batch.append_column(
            "_part", pa.array(partition_of(cols, n_parts), pa.int64()))

    ds.map_batches(stamp, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        tmp, partition_cols=["_part"])


def hash_join(left_ds, right_ds, left_on, right_on, *,
              join_type: str = "inner", n_parts: int | None = None,
              tmp_root: str = "/tmp"):
    """Distributed equi-join of two Datasets, co-partitioned through the
    file exchange: BOTH sides spill hive-partitioned by the SAME
    ``mix(key) % n_parts`` function, then one Ray task per partition id
    joins its two shards with Arrow's vectorized hash join
    (``pa.Table.join`` — no Python row loop). This is the big⋈big route;
    when one side fits a broadcast, prefer the ray.put + lookup pattern
    — it skips both spills.

    Keys must be integer-typed (same contract as ``exchange_by_key``).
    Non-key column names must not collide across sides (select/rename
    first). Partition count is the memory lever: a partition's two
    shards plus their join output must fit one worker heap.
    """
    import ray
    import ray.data as rd

    left_on = [left_on] if isinstance(left_on, str) else list(left_on)
    right_on = [right_on] if isinstance(right_on, str) else list(right_on)
    if n_parts is None:
        n_parts = default_parts()

    base = os.path.join(
        tmp_root, f"rayse_join_{os.getpid()}_{uuid.uuid4().hex[:8]}")
    ltmp, rtmp = os.path.join(base, "l"), os.path.join(base, "r")
    lschema = pa.schema(list(zip(left_ds.schema().names,
                                 left_ds.schema().types)))
    rschema = pa.schema(list(zip(right_ds.schema().names,
                                 right_ds.schema().types)))
    _spill_by_key(left_ds, left_on, n_parts, ltmp)
    _spill_by_key(right_ds, right_on, n_parts, rtmp)

    def part_ids(tmp: str) -> set:
        return {int(os.path.basename(d).split("=")[1])
                for d in glob.glob(os.path.join(tmp, "_part=*"))}

    lparts, rparts = part_ids(ltmp), part_ids(rtmp)
    # inner join: only co-present partitions can produce rows; outer
    # variants need the single-sided partitions too
    ids = sorted(lparts & rparts if join_type == "inner"
                 else lparts | rparts)

    @ray.remote
    def run_part(pid: int) -> pa.Table:
        import pyarrow.dataset as pads

        def read(tmp: str, schema: pa.Schema, present: bool) -> pa.Table:
            if not present:
                return schema.empty_table()
            return pads.dataset(
                os.path.join(tmp, f"_part={pid}")).to_table(
                columns=schema.names, use_threads=False)

        lt = read(ltmp, lschema, pid in lparts)
        rt = read(rtmp, rschema, pid in rparts)
        return lt.join(rt, keys=left_on, right_keys=right_on,
                       join_type=join_type)

    if not ids:
        shutil.rmtree(base, ignore_errors=True)
        probe = lschema.empty_table().join(
            rschema.empty_table(), keys=left_on, right_keys=right_on,
            join_type=join_type)
        return rd.from_arrow(probe)

    refs = [run_part.remote(pid) for pid in ids]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    out = rd.from_arrow_refs(refs)
    shutil.rmtree(base, ignore_errors=True)
    return out
