"""Doc hydration (J4) — top-k doc_ids -> original turn rows.

The reference hydrates results with per-doc SQL lookups batched in chunks of
50 (`QueryService.java:739-746`, `RankerService.java:95-105`). Ray-side:
doc_id encodes (conv_hash, turn_idx), so hydration is a broadcast-small-side
semi-join: resolve conv_hash -> conv_id through the conv_map built at index
time, then a predicate-pushdown parquet read of just the matching
conversations.

conv_map layout: ``{out_dir}/conv_map/shard={s}/*.parquet`` with columns
``conv_hash: uint64, conv_id: string`` (duplicates across batches allowed —
hydration dedups; one row per conversation per batch it appears in).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..stages.doc_ids import TURN_BITS, conv_hash


def conv_map_batch(batch: pa.Table) -> pa.Table:
    """Distinct (conv_hash, conv_id, n_turns) of one batch (vector-cached
    hash). ``n_turns`` is the PARTIAL turn count within this batch — a
    conversation split across batches contributes several rows whose
    counts sum to its exact total, so per-conv turn counts are a plain
    SUM over matching rows (no distinct needed). Compaction and merge
    use this for exact n_docs recombination: zero-posting turns (every
    token analyzer-filtered) are invisible to posting-derived counts but
    still counted by the build's corpus stats."""
    convs = batch["conv_id"].to_pylist()
    seen: dict[str, int] = {}
    counts: dict[str, int] = {}
    for c in convs:
        counts[c] = counts.get(c, 0) + 1
        if c not in seen:
            seen[c] = conv_hash(c)
    return pa.table({
        "conv_hash": pa.array(np.fromiter(seen.values(), dtype=np.uint64,
                                          count=len(seen)), pa.uint64()),
        "conv_id": pa.array(list(seen.keys()), pa.string()),
        "n_turns": pa.array([counts[c] for c in seen], pa.int64()),
    })


def build_conv_map(files: list[str], out_dir: str, shard_id: int) -> str:
    """Single-column scan of one shard's conv_id -> conv_map parquet."""
    import ray.data as rd

    dest = os.path.join(out_dir, "conv_map", f"shard={shard_id}")
    if os.path.exists(dest):
        return dest
    tmp = dest + ".tmp"
    ds = rd.read_parquet(files, columns=["conv_id"])
    ds.map_batches(conv_map_batch, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(tmp)
    os.replace(tmp, dest)
    return dest


def _load_remap(index_dir: str) -> dict[str, int]:
    """Collision exception map written by the build (conv_id -> hash);
    empty when no collisions exist (the overwhelmingly common case)."""
    import json

    p = os.path.join(index_dir, "_manifest", "conv_remap.json")
    if not os.path.exists(p):
        return {}
    with open(p) as f:
        return json.load(f)


def resolve_conv_ids(index_dir: str, doc_ids: np.ndarray) -> dict[int, str]:
    """conv_hash -> conv_id for the given docs (tiny filtered read).

    Collision-remapped conversations resolve through the exception map
    (their conv_map rows still carry the ORIGINAL hash, which belongs to
    the collision group's first conv — those rows are dropped here so the
    kept conv wins its own hash)."""
    hashes = set((np.asarray(doc_ids, dtype=np.uint64)
                  >> np.uint64(TURN_BITS)).tolist())
    remap = _load_remap(index_dir)
    out: dict[int, str] = {}
    if remap:
        for conv, nh in remap.items():
            if nh in hashes:
                out[nh] = conv
                hashes.discard(nh)
    if not hashes:
        return out
    files = glob.glob(os.path.join(index_dir, "conv_map", "shard=*",
                                   "*.parquet"))
    if not files:
        raise FileNotFoundError(
            f"no conv_map under {index_dir}")
    tbl = pads.dataset(files).to_table(
        filter=pc.field("conv_hash").isin(list(hashes)))
    for h, c in zip(tbl["conv_hash"].to_pylist(),
                    tbl["conv_id"].to_pylist()):
        if c not in remap:          # drop vacated-original rows
            out[h] = c
    return out


def hydrate(index_dir: str, transcripts_path: str | list[str],
            doc_ids: np.ndarray) -> pa.Table:
    """doc_ids -> (doc_id, conv_id, turn_idx, role, text, tool, ts) rows,
    in the order of ``doc_ids`` (result order preserved for ranked output).

    Predicate-pushdown read: only row groups containing the top-k
    conversations leave storage (no full-table scan)."""
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    cmap = resolve_conv_ids(index_dir, doc_ids)
    conv_of_doc = [cmap[int(d) >> TURN_BITS] for d in doc_ids.tolist()]
    wanted = {(c, int(d) & ((1 << TURN_BITS) - 1))
              for c, d in zip(conv_of_doc, doc_ids.tolist())}
    files = (sorted(transcripts_path) if isinstance(transcripts_path, list)
             else sorted(glob.glob(os.path.join(transcripts_path, "**",
                                                "*.parquet"), recursive=True))
             or [transcripts_path])
    tbl = pads.dataset(files).to_table(
        filter=pc.field("conv_id").isin(sorted({c for c, _ in wanted})))
    rows = {(c, t): i for i, (c, t) in enumerate(
        zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist()))}
    take = [rows[(c, int(d) & ((1 << TURN_BITS) - 1))]
            for c, d in zip(conv_of_doc, doc_ids.tolist())]
    out = tbl.take(pa.array(take, pa.int64()))
    return out.add_column(0, "doc_id", pa.array(doc_ids, pa.uint64()))
