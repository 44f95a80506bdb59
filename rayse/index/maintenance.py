"""Index maintenance: logical deletes (tombstones) + physical compaction.

The reference mutates its corpus through the DB (`Document` rows deleted /
re-crawled; the PG index follows implicitly). A distributed immutable
segment index needs the Lucene two-phase realization instead:

1. ``delete_convs`` — LOGICAL delete: the conversation hashes land in
   ``tombstones.json`` and every query-time posting traversal masks them
   out (``IndexReader._mask_tombstoned``). Corpus statistics (df, n_docs,
   avgdl) keep their pre-delete values until compaction — documented
   Lucene semantics (deleted docs count toward stats until segments
   merge), pinned by tests: surviving docs' scores are UNCHANGED by a
   logical delete.
2. ``compact_index`` — PHYSICAL rewrite: corpus stats are recomputed
   exactly (turns from the conv_map's per-conversation turn counts,
   tokens from the dropped postings' (doc, dl) pairs), then every part's
   segment goes through the build's own merge
   (``segments.merge_segment_rows``) without the tombstoned postings and
   with block-max against the new avgdl. The result holds the same
   segment tables as a fresh build over the filtered corpus (pinned by
   tests, also with hot terms split into several rows). A part that
   loses every posting gets no segment and no manifest, like an empty
   part at build; when ``out_dir`` held an earlier index, that part's
   old files go.

Both write an index of the current format version, and read only that
version (``stats.load_index_meta``).

Contract notes:
- Turns whose every token was filtered by the analyzer carry no postings
  but count toward n_docs; compaction takes deleted turn counts from the
  conv_map, so it drops them too, as a rebuild would.
- Parts are docID-range partitions, so a conversation's postings live in
  exactly one part: per-part distinct-(doc, dl) sums combine exactly.
- Deleting a conversation that was collision-remapped at build time
  resolves through the same exception map the build wrote
  (``_manifest/conv_remap.json``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..stages.doc_ids import conv_hash
from .encoding import decode_varints_concat, segmented_cumsum_abs
from .reader import present_parts
from .segments import (
    SEGMENT_FILE,
    merge_input,
    merge_segment_rows,
    segment_info,
    tombstoned,
    write_segment,
)
from .stats import (
    load_corpus_stats,
    load_index_meta,
    write_corpus_stats,
    write_index_meta,
)


def _tombstone_path(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones.json")


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted uint64 conv-hash tombstone array (empty when none)."""
    p = _tombstone_path(index_dir)
    if not os.path.exists(p):
        return np.empty(0, dtype=np.uint64)
    with open(p) as f:
        return np.asarray(sorted(json.load(f)["conv_hashes"]),
                          dtype=np.uint64)


def delete_convs(index_dir: str, conv_ids: list[str]) -> dict:
    """Logically delete conversations: merge their (remap-aware) hashes
    into ``tombstones.json``. Returns a small summary. Readers opened
    AFTER this call mask the postings; open readers are unaffected."""
    remap_p = os.path.join(index_dir, "_manifest", "conv_remap.json")
    remap: dict[str, int] = {}
    if os.path.exists(remap_p):
        with open(remap_p) as f:
            remap = json.load(f)
    hashes = {int(remap.get(c, conv_hash(c))) for c in conv_ids}
    p = _tombstone_path(index_dir)
    prev_h: set[int] = set()
    prev_c: list[str] = []
    if os.path.exists(p):
        with open(p) as f:
            prev = json.load(f)
        prev_h = set(prev["conv_hashes"])
        prev_c = prev.get("conv_ids", [])
    merged_h = sorted(prev_h | hashes)
    merged_c = sorted(set(prev_c) | set(conv_ids))
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"conv_hashes": merged_h, "conv_ids": merged_c}, f)
    os.replace(tmp, p)
    return {"n_tombstoned_convs": len(merged_h),
            "n_new": len(merged_h) - len(prev_h)}


def _compact_part_stats(seg_path: str, tombs: np.ndarray) -> int:
    """The deleted tokens of one part: the dl sum over distinct
    tombstoned docs. Exact because a doc's postings never span parts."""
    tbl = pq.read_table(seg_path, columns=["df", "doc_ids", "dls"])
    df_row = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    row_starts = np.concatenate(([0], np.cumsum(df_row)[:-1]))
    docs = segmented_cumsum_abs(
        decode_varints_concat(tbl["doc_ids"].to_pylist()), row_starts)
    hit = tombstoned(docs, tombs)
    dls = decode_varints_concat(tbl["dls"].to_pylist())[hit]
    _, first = np.unique(docs[hit], return_index=True)
    return int(dls[first].sum())


def _rewrite_part(seg_paths: list[str], out_part_dir: str, avgdl: float,
                  cfg: IndexConfig, tombs: np.ndarray | None,
                  shards) -> dict:
    """Write one part of a compacted or merged index: the segment rows of
    ``seg_paths`` through the build's merge, without the ``tombs``
    conversations and with block-max against ``avgdl``. A part left
    without postings gets no segment."""
    import pyarrow.dataset as pads

    tbl = pa.concat_tables([merge_input(pads.dataset(p))
                            for p in seg_paths]).sort_by("term")
    seg, n_terms, n_post = merge_segment_rows(tbl, avgdl, cfg, tombs)
    if n_post:
        write_segment(seg, out_part_dir, avgdl, shards)
    return {"n_terms": n_terms, "n_postings": n_post}


def _drop_stale_parts(out_dir: str, written) -> None:
    """Remove the part segments and manifests of ``out_dir`` that this
    write did not produce: when ``out_dir`` held an earlier index, a part
    that is now without postings must not keep serving its old segment."""
    keep = {str(p) for p in written}
    for d in glob.glob(os.path.join(out_dir, "segments", "part=*")):
        if d.rsplit("=", 1)[1] not in keep:
            shutil.rmtree(d)
    for m in glob.glob(os.path.join(out_dir, "_manifest", "part-*.json")):
        if os.path.basename(m)[len("part-"):-len(".json")] not in keep:
            os.remove(m)


# ---------------------------------------------------------------------------
# Segment merge: combine two independently built indexes into one
# (Lucene's segment-merge analog for the reference's full-reindex path,
# `ReindexController.java` — instead of rebuilding from scratch, two
# shard-built indexes merge part-wise into a single index that ranks
# IDENTICALLY to a fresh build over the union corpus).
#
# Preconditions (checked): the same IndexConfig (bm25/
# block_size/part_bits/positions), disjoint conversation sets (any shared
# conv hash raises — the caller owns corpus partitioning). The role flag
# may differ: the merged index has real roles only when both inputs do,
# as with an append. Parts are docID-range partitions in BOTH indexes, so
# part=N of A and part=N of B merge independently through the build's
# merge — one Ray task per part, no shuffle; only corpus stats (three
# integers per side) meet at the driver.
# ---------------------------------------------------------------------------


def merge_indexes(dir_a: str, dir_b: str, out_dir: str) -> dict:
    """Merge two indexes built over DISJOINT corpora into one standalone
    index (segments + recomputed corpus stats + conv_map union +
    manifests with lineage). The merged index ranks identically to a
    fresh build over the union corpus: tf/dl/df recombine exactly
    (doc-range parts keep each doc's postings in one part on one side),
    and avgdl = (total_tokens_a + total_tokens_b) / (n_docs_a +
    n_docs_b) is the same integer-ratio float the union build computes.

    One Ray task per part; the only driver-side state is the conv-hash
    collision check over the two conv_maps (single-column reads — the
    same bound as the build's own collision detection)."""
    import ray

    meta_a, meta_b = load_index_meta(dir_a), load_index_meta(dir_b)
    cfg = IndexConfig.from_meta(meta_a)
    if cfg != IndexConfig.from_meta(meta_b):
        raise ValueError("index config mismatch; refusing to merge "
                         f"{meta_a} vs {meta_b}")
    stats_a, stats_b = load_corpus_stats(dir_a), load_corpus_stats(dir_b)
    for d in (dir_a, dir_b):
        if load_tombstones(d).size:
            raise ValueError(f"{d} has pending tombstones; compact first")

    # conv-hash disjointness (remap-aware): shared hash => shared or
    # colliding conversation — either way the merged postings would hold
    # duplicate doc ids.
    import pyarrow.dataset as pads

    hashes = []
    for d in (dir_a, dir_b):
        t = pads.dataset(os.path.join(d, "conv_map")).to_table(
            columns=["conv_hash"])
        hashes.append(np.unique(
            t["conv_hash"].to_numpy(zero_copy_only=False)))
    shared = np.intersect1d(hashes[0], hashes[1])
    if shared.size:
        raise ValueError(
            f"{shared.size} conversation hash(es) present in both inputs "
            "(first: %d); merge requires disjoint corpora" % int(shared[0]))

    n_docs = stats_a["n_docs"] + stats_b["n_docs"]
    total_tokens = stats_a["total_tokens"] + stats_b["total_tokens"]
    avgdl = (total_tokens / n_docs) if n_docs else 0.0

    pa_map, pb_map = present_parts(dir_a), present_parts(dir_b)
    os.makedirs(out_dir, exist_ok=True)
    task = ray.remote(_rewrite_part)
    pids = sorted(set(pa_map) | set(pb_map))
    # the merged index holds no runs: its segments hold no shards
    part_stats = ray.get([task.remote(
        [os.path.join(m[pid], SEGMENT_FILE)
         for m in (pa_map, pb_map) if pid in m],
        os.path.join(out_dir, "segments", f"part={pid}"),
        avgdl, cfg, None, []) for pid in pids])

    write_index_meta(out_dir, {
        **cfg.to_meta(),
        "roles_real": meta_a["roles_real"] and meta_b["roles_real"]})
    man_dir = os.path.join(out_dir, "_manifest")
    os.makedirs(man_dir, exist_ok=True)
    _drop_stale_parts(out_dir, [pid for pid, ps in zip(pids, part_stats)
                                if ps["n_postings"]])
    for pid, ps in zip(pids, part_stats):
        if not ps["n_postings"]:
            continue
        with open(os.path.join(man_dir, f"part-{pid}.json"), "w") as f:
            json.dump({"part": pid, "avgdl": avgdl,
                       "merged_from": [os.path.abspath(dir_a),
                                       os.path.abspath(dir_b)], **ps}, f)
    # conv_map union (shard dirs renumbered to avoid collisions) + remap
    # union (consistency-checked). The renumbered ids are the shards the
    # merged stats count: an append continues after them.
    shard = 0
    cm_out = os.path.join(out_dir, "conv_map")
    for d in (dir_a, dir_b):
        for src in sorted(glob.glob(os.path.join(d, "conv_map", "shard=*"))):
            shutil.copytree(src, os.path.join(cm_out, f"shard={shard}"),
                            dirs_exist_ok=True)
            shard += 1
    write_corpus_stats(out_dir, n_docs, total_tokens, range(shard))
    remap: dict[str, int] = {}
    for d in (dir_a, dir_b):
        p = os.path.join(d, "_manifest", "conv_remap.json")
        if os.path.exists(p):
            with open(p) as f:
                r = json.load(f)
            for c, h in r.items():
                if remap.get(c, h) != h:
                    raise ValueError(f"conflicting collision remap for {c}")
                remap[c] = h
    if remap:
        with open(os.path.join(man_dir, "conv_remap.json"), "w") as f:
            json.dump(remap, f)
    return {"n_docs": n_docs, "avgdl": avgdl,
            "n_postings": sum(p["n_postings"] for p in part_stats),
            "n_parts": sum(1 for p in part_stats if p["n_postings"])}


def _deleted_turn_count(index_dir: str, tombs: np.ndarray) -> int:
    """Exact turn count of the tombstoned conversations from the
    conv_map's partial ``n_turns`` column (sum over matching rows,
    remap-aware)."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "conv_map")).to_table(
        columns=["conv_hash", "conv_id", "n_turns"])
    hs = t["conv_hash"].to_numpy(zero_copy_only=False).copy()
    remap_p = os.path.join(index_dir, "_manifest", "conv_remap.json")
    if os.path.exists(remap_p):
        with open(remap_p) as f:
            remap = json.load(f)
        if remap:
            cids = t["conv_id"].to_pylist()
            for i, c in enumerate(cids):
                if c in remap:
                    hs[i] = np.uint64(remap[c])
    mask = np.isin(hs, tombs)
    return int(t["n_turns"].to_numpy(zero_copy_only=False)[mask].sum())


def compact_index(index_dir: str, out_dir: str,
                  extra_conv_ids: list[str] | None = None) -> dict:
    """Physically rewrite ``index_dir`` without its tombstoned
    conversations -> ``out_dir`` (a complete standalone index: segments,
    corpus stats, meta, conv_map, manifests with lineage). Two passes of
    one Ray task per part: stats (distinct deleted (doc, dl) sums), then
    rewrite against the recomputed avgdl. ``extra_conv_ids`` compact
    out additional conversations without mutating ``index_dir`` (no
    tombstone write — a one-shot filtered rewrite)."""
    import ray

    tombs = load_tombstones(index_dir)
    if extra_conv_ids:
        remap_p = os.path.join(index_dir, "_manifest", "conv_remap.json")
        remap: dict[str, int] = {}
        if os.path.exists(remap_p):
            with open(remap_p) as f:
                remap = json.load(f)
        extra = {int(remap.get(c, conv_hash(c))) for c in extra_conv_ids}
        tombs = np.asarray(sorted(set(tombs.tolist()) | extra),
                           dtype=np.uint64)
    meta = load_index_meta(index_dir)
    stats = load_corpus_stats(index_dir)
    seg_paths = {pid: os.path.join(d, SEGMENT_FILE)
                 for pid, d in present_parts(index_dir).items()}

    if tombs.size:
        stats_task = ray.remote(_compact_part_stats)
        tok_del = sum(ray.get([stats_task.remote(p, tombs)
                               for p in seg_paths.values()]))
        # turns from the conv_map: a turn whose every token the analyzer
        # filtered has no postings but counts toward n_docs (and adds 0
        # tokens, so the token sum may come from the postings)
        n_del = _deleted_turn_count(index_dir, tombs)
    else:
        n_del, tok_del = 0, 0

    n_docs = stats["n_docs"] - n_del
    total_tokens = stats["total_tokens"] - tok_del
    avgdl = (total_tokens / n_docs) if n_docs else 0.0

    os.makedirs(out_dir, exist_ok=True)
    task = ray.remote(_rewrite_part)
    cfg = IndexConfig.from_meta(meta)
    part_stats = ray.get([task.remote(
        [p], os.path.join(out_dir, "segments", f"part={pid}"), avgdl, cfg,
        tombs, segment_info(p)["shards"])
        for pid, p in seg_paths.items()])

    write_corpus_stats(out_dir, n_docs, total_tokens, stats["shards"])
    write_index_meta(out_dir, meta)
    man_dir = os.path.join(out_dir, "_manifest")
    os.makedirs(man_dir, exist_ok=True)
    _drop_stale_parts(out_dir, [pid for pid, ps
                                in zip(seg_paths, part_stats)
                                if ps["n_postings"]])
    for pid, ps in zip(seg_paths, part_stats):
        if not ps["n_postings"]:
            continue
        with open(os.path.join(man_dir, f"part-{pid}.json"), "w") as f:
            json.dump({"part": pid, "avgdl": avgdl,
                       "compacted_from": os.path.abspath(index_dir),
                       "n_tombstoned_convs": int(tombs.size), **ps}, f)
    remap_p = os.path.join(index_dir, "_manifest", "conv_remap.json")
    remap: dict[str, int] = {}
    if os.path.exists(remap_p):
        shutil.copy(remap_p, os.path.join(man_dir, "conv_remap.json"))
        with open(remap_p) as f:
            remap = json.load(f)
    cm = os.path.join(index_dir, "conv_map")
    if tombs.size:
        # drop the compacted-out conversations from the conv_map
        # (hydration must not resolve deleted convs; merge relies on
        # conv_map reflecting the live corpus). Remapped convs store
        # their PRE-remap hash in conv_map — resolve via the
        # exception map before matching against the tombstones.
        tomb_set = set(tombs.tolist())
        for src in sorted(glob.glob(os.path.join(cm, "shard=*"))):
            shard = os.path.basename(src)
            tbl = pq.read_table(src)
            hs = tbl["conv_hash"].to_numpy(zero_copy_only=False)
            keep = ~np.isin(hs, tombs)
            if remap:
                cids = tbl["conv_id"].to_pylist()
                for i, c in enumerate(cids):
                    if keep[i] and remap.get(c) in tomb_set:
                        keep[i] = False
            dest = os.path.join(out_dir, "conv_map", shard)
            os.makedirs(dest, exist_ok=True)
            pq.write_table(tbl.filter(pa.array(keep)),
                           os.path.join(dest, "part-0.parquet"))
    elif os.path.isdir(cm):
        shutil.copytree(cm, os.path.join(out_dir, "conv_map"),
                        dirs_exist_ok=True)
    return {"n_docs": n_docs, "n_deleted_docs": n_del,
            "avgdl": avgdl,
            "n_postings": sum(p["n_postings"] for p in part_stats)}
