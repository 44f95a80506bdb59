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
2. ``compact_index`` — PHYSICAL rewrite: every part's segment file is
   filtered (postings of tombstoned conversations dropped, positions
   relocated by byte-span gather — never decoded), corpus stats are
   recomputed exactly from the dropped postings' (doc, dl) pairs, and
   block-max metadata is rebuilt against the new avgdl. The result ranks
   IDENTICALLY to a fresh build over the filtered corpus (pinned by
   tests across bm25/phrase/boolean/role modes). A part that loses every
   posting gets no segment and no manifest, like an empty part at build;
   when ``out_dir`` held an earlier index, that part's old files go.

Contract notes:
- Turns whose every token was filtered by the analyzer carry no postings
  and are invisible to compaction's stats recomputation; a corpus with
  such turns would compact to a slightly different avgdl than a rebuild
  (they never match any query either way). The synthetic corpora have
  none (every turn keeps >= 1 token; the parity test would fail loudly
  otherwise).
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

from ..config import BM25Params
from ..stages.doc_ids import TURN_BITS, conv_hash
from .encoding import delta_encode, encode_varints
from .reader import present_parts
from .segments import (
    SEGMENT_FILE,
    SEGMENT_SCHEMA,
    bm25_tf,
    filter_positions_blob,
    segment_info,
    write_segment,
)
from .stats import load_corpus_stats, write_corpus_stats


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


def _compact_part_stats(seg_path: str, tombs: np.ndarray) -> tuple:
    """(n_deleted_docs, deleted_token_sum) of one part — distinct
    (doc, dl) pairs over the part's tombstoned postings. Exact because a
    doc's postings never span parts."""
    tbl = pq.read_table(seg_path, columns=["df", "doc_ids", "dls"])
    if tbl.num_rows == 0:
        return 0, 0
    from .encoding import decode_varints

    del_docs: list[np.ndarray] = []
    del_dls: list[np.ndarray] = []
    for i in range(tbl.num_rows):
        d = np.cumsum(decode_varints(tbl["doc_ids"][i].as_py()),
                      dtype=np.uint64)
        convs = d >> np.uint64(TURN_BITS)
        pos = np.searchsorted(tombs, convs)
        pos_c = np.minimum(pos, tombs.size - 1)
        hit = tombs[pos_c] == convs
        if hit.any():
            del_docs.append(d[hit])
            del_dls.append(decode_varints(tbl["dls"][i].as_py())[hit])
    if not del_docs:
        return 0, 0
    docs = np.concatenate(del_docs)
    dls = np.concatenate(del_dls)
    uniq, first = np.unique(docs, return_index=True)
    return int(uniq.size), int(dls[first].sum())


def _compact_part_rewrite(part_dir: str, out_part_dir: str,
                          tombs: np.ndarray, avgdl: float,
                          params: BM25Params, block_size: int) -> dict:
    """Rewrite one part's segment file without the tombstoned postings.
    Terms keep their (term, salt) row split; rows that lose every posting
    are dropped, and so is the part when no row is left. Positions move
    by byte-span gather (never decoded)."""
    seg_path = os.path.join(part_dir, SEGMENT_FILE)
    tbl = pq.read_table(seg_path)
    rows = {n: [] for n in SEGMENT_SCHEMA.names}
    n_terms = 0
    n_post = 0
    prev_term = None
    has_roles = "roles" in tbl.column_names
    from .encoding import decode_varints

    for i in range(tbl.num_rows):
        d = np.cumsum(decode_varints(tbl["doc_ids"][i].as_py()),
                      dtype=np.uint64)
        if tombs.size:
            convs = d >> np.uint64(TURN_BITS)
            pos = np.searchsorted(tombs, convs)
            pos_c = np.minimum(pos, tombs.size - 1)
            keep = tombs[pos_c] != convs
        else:
            keep = np.ones(d.size, dtype=bool)
        if not keep.any():
            continue
        tfs = decode_varints(tbl["tfs"][i].as_py())
        dls = decode_varints(tbl["dls"][i].as_py())
        pos_blob = tbl["positions"][i].as_py()
        if keep.all():
            kd, kt, kl = d, tfs, dls
            kp = pos_blob
            kr = tbl["roles"][i].as_py() if has_roles else b""
        else:
            kd, kt, kl = d[keep], tfs[keep], dls[keep]
            kp = filter_positions_blob(pos_blob, tfs, keep)
            if has_roles:
                rb = np.frombuffer(tbl["roles"][i].as_py(), dtype=np.uint8)
                kr = rb[keep].tobytes()
            else:
                kr = b""
        term = tbl["term"][i].as_py()
        n = kd.size
        comp = bm25_tf(kt, kl, avgdl, params)
        nblocks = (n + block_size - 1) // block_size
        starts = np.arange(nblocks, dtype=np.int64) * block_size
        rows["term"].append(term)
        rows["salt"].append(tbl["salt"][i].as_py())
        rows["df"].append(n)
        rows["cf"].append(int(kt.sum()))
        rows["doc_ids"].append(encode_varints(delta_encode(kd)))
        rows["tfs"].append(encode_varints(kt.astype(np.uint64)))
        rows["dls"].append(encode_varints(kl.astype(np.uint64)))
        rows["roles"].append(kr)
        rows["positions"].append(kp)
        rows["block_max"].append(
            np.maximum.reduceat(comp, starts).tolist())
        rows["block_last"].append(
            kd[np.minimum(starts + block_size - 1, n - 1)].tolist())
        n_post += n
        if term != prev_term:
            n_terms += 1
            prev_term = term

    if n_post:
        info = segment_info(seg_path) or {}
        write_segment(pa.table(rows, schema=SEGMENT_SCHEMA), out_part_dir,
                      avgdl, info.get("shards", []))
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
# Preconditions (checked): same index_meta (analyzer/bm25/block_size/
# part_bits), disjoint conversation sets (any shared conv hash raises —
# the caller owns corpus partitioning), consistent positions/roles
# availability. Parts are docID-range partitions in BOTH indexes, so
# part=N of A and part=N of B merge independently — one Ray task per
# part, no shuffle; only corpus stats (three integers per side) meet at
# the driver.
# ---------------------------------------------------------------------------


def _rows_by_term(seg_path: str) -> dict[str, list[dict]]:
    """term -> its segment rows in ascending-salt order (file order —
    segments are written sorted by (term, salt))."""
    tbl = pq.read_table(seg_path)
    out: dict[str, list[dict]] = {}
    cols = tbl.column_names
    for i in range(tbl.num_rows):
        r = {c: tbl[c][i].as_py() for c in cols}
        out.setdefault(r["term"], []).append(r)
    return out


def _merge_positions(blob_a: bytes, tfs_a: np.ndarray,
                     blob_b: bytes, tfs_b: np.ndarray,
                     order: np.ndarray) -> bytes:
    """Positions blob of the merged posting list: each posting's
    self-delimited [count][deltas] byte span gathered from either source
    in merged doc order — pure byte gather, never decoded."""
    if not blob_a and not blob_b:
        return b""
    from .segments import posting_byte_spans

    sa, ea = (posting_byte_spans(blob_a, tfs_a) if tfs_a.size
              else (np.empty(0, np.int64), np.empty(0, np.int64)))
    sb, eb = (posting_byte_spans(blob_b, tfs_b) if tfs_b.size
              else (np.empty(0, np.int64), np.empty(0, np.int64)))
    starts = np.concatenate((sa, sb + len(blob_a)))
    ends = np.concatenate((ea, eb + len(blob_a)))
    buf = np.frombuffer(blob_a + blob_b, dtype=np.uint8)
    ks, ke = starts[order], ends[order]
    ln = ke - ks
    total = int(ln.sum())
    if total == 0:
        return b""
    out_cum = np.cumsum(ln)
    out_begin = np.concatenate(([0], out_cum[:-1]))
    idx = np.repeat(ks - out_begin, ln) + np.arange(total, dtype=np.int64)
    return buf[idx].tobytes()


def _merge_part(part_a: str | None, part_b: str | None, out_part_dir: str,
                avgdl: float, params: BM25Params, block_size: int,
                max_run: int = 1 << 17) -> dict:
    """Merge one docID-range partition from both indexes. Each term's two
    posting lists (doc-ascending, disjoint doc sets) interleave by doc_id;
    rows re-run in ``max_run``-posting chunks with ascending salt;
    block-max metadata is recomputed against the MERGED corpus avgdl."""
    from .encoding import decode_varints, delta_decode
    from .segments import encode_segment_row

    def load(p):
        return _rows_by_term(os.path.join(p, SEGMENT_FILE)) if p else {}

    terms_a, terms_b = load(part_a), load(part_b)
    rows = {n: [] for n in SEGMENT_SCHEMA.names}
    n_terms = 0
    n_post = 0

    def decode_side(rlist):
        d = np.concatenate([
            np.cumsum(decode_varints(r["doc_ids"]), dtype=np.uint64)
            for r in rlist])
        tf = np.concatenate([decode_varints(r["tfs"]) for r in rlist])
        dl = np.concatenate([decode_varints(r["dls"]) for r in rlist])
        pos = b"".join(r["positions"] for r in rlist)
        rb = b"".join(r["roles"] or b"" for r in rlist)
        return d, tf, dl, pos, rb

    for term in sorted(set(terms_a) | set(terms_b)):
        ra, rb_rows = terms_a.get(term), terms_b.get(term)
        if ra and rb_rows:
            da, ta, la, pa_, roa = decode_side(ra)
            db, tb, lb, pb_, rob = decode_side(rb_rows)
            docs = np.concatenate((da, db))
            order = np.argsort(docs, kind="stable")
            d = docs[order]
            if d.size > 1 and (d[1:] == d[:-1]).any():
                raise ValueError(
                    f"doc_id collision across indexes for term {term!r}; "
                    "the inputs do not hold disjoint conversation sets")
            t = np.concatenate((ta, tb))[order]
            dl = np.concatenate((la, lb))[order]
            pos = _merge_positions(pa_, ta, pb_, tb, order)
            roles = (np.frombuffer(roa + rob, dtype=np.uint8)[order]
                     .tobytes() if roa and rob else b"")
        else:
            d, t, dl, pos, roles = decode_side(ra or rb_rows)
        # positions byte spans per posting, for run slicing
        if pos:
            from .segments import posting_byte_spans

            ps, pe = posting_byte_spans(pos, t)
        for s in range(0, d.size, max_run):
            e = min(s + max_run, d.size)
            run_pos = pos[ps[s]:pe[e - 1]] if pos else b""
            row = encode_segment_row(term, s // max_run, d[s:e], t[s:e],
                                     dl[s:e], run_pos, avgdl, params,
                                     block_size)
            row["roles"] = roles[s:e] if roles else b""
            for k2, v in row.items():
                rows[k2].append(v)
        n_terms += 1
        n_post += int(d.size)

    if n_post:      # the merged index holds no runs: it holds no shards
        write_segment(pa.table(rows, schema=SEGMENT_SCHEMA), out_part_dir,
                      avgdl, [])
    return {"n_terms": n_terms, "n_postings": n_post}


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

    def jload(d, name):
        with open(os.path.join(d, name)) as f:
            return json.load(f)

    meta_a, meta_b = jload(dir_a, "index_meta.json"), jload(
        dir_b, "index_meta.json")
    if meta_a != meta_b:
        raise ValueError("index_meta mismatch; refusing to merge "
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
    params = BM25Params(**meta_a.get("bm25", {}))
    block_size = meta_a.get("block_size", 128)

    pa_map, pb_map = present_parts(dir_a), present_parts(dir_b)
    os.makedirs(out_dir, exist_ok=True)
    task = ray.remote(_merge_part)
    refs = []
    pids = sorted(set(pa_map) | set(pb_map))
    for pid in pids:
        refs.append(task.remote(
            pa_map.get(pid), pb_map.get(pid),
            os.path.join(out_dir, "segments", f"part={pid}"),
            avgdl, params, block_size))
    part_stats = ray.get(refs)

    with open(os.path.join(out_dir, "index_meta.json"), "w") as f:
        json.dump(meta_a, f, indent=1)
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


def _deleted_turn_count(index_dir: str, tombs: np.ndarray) -> int | None:
    """Exact turn count of the tombstoned conversations from the
    conv_map's partial ``n_turns`` column (sum over matching rows,
    remap-aware). None when the index predates the column (fall back to
    the posting-derived count)."""
    cm = os.path.join(index_dir, "conv_map")
    if not os.path.isdir(cm):
        return None
    import pyarrow.dataset as pads

    ds = pads.dataset(cm)
    if "n_turns" not in ds.schema.names:
        return None
    t = ds.to_table(columns=["conv_hash", "conv_id", "n_turns"])
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
    stats = load_corpus_stats(index_dir)
    with open(os.path.join(index_dir, "index_meta.json")) as f:
        meta = json.load(f)
    part_dirs = list(present_parts(index_dir).values())

    if tombs.size:
        stats_task = ray.remote(_compact_part_stats)
        refs = [stats_task.remote(os.path.join(d, SEGMENT_FILE), tombs)
                for d in part_dirs]
        partials = ray.get(refs)
        n_del = sum(p[0] for p in partials)
        tok_del = sum(p[1] for p in partials)
        # Exact doc-count adjustment from the conv_map's per-conv turn
        # counts when available: the posting-derived n_del above misses
        # turns whose every token the analyzer filtered (they carry no
        # postings but DO count toward the build's n_docs). Token sums
        # stay posting-derived (such turns contribute 0 tokens).
        n_del_exact = _deleted_turn_count(index_dir, tombs)
        if n_del_exact is not None:
            n_del = n_del_exact
    else:
        n_del, tok_del = 0, 0

    n_docs = stats["n_docs"] - n_del
    total_tokens = stats["total_tokens"] - tok_del
    avgdl = (total_tokens / n_docs) if n_docs else 0.0
    params = BM25Params(**meta.get("bm25", {}))
    block_size = meta.get("block_size", 128)

    os.makedirs(out_dir, exist_ok=True)
    rewrite_task = ray.remote(_compact_part_rewrite)
    refs = []
    for d in part_dirs:
        pid = d.rsplit("=", 1)[1]
        refs.append(rewrite_task.remote(
            d, os.path.join(out_dir, "segments", f"part={pid}"),
            tombs, avgdl, params, block_size))
    part_stats = ray.get(refs)

    write_corpus_stats(out_dir, n_docs, total_tokens, stats["shards"])
    with open(os.path.join(out_dir, "index_meta.json"), "w") as f:
        json.dump(meta, f, indent=1)
    man_dir = os.path.join(out_dir, "_manifest")
    os.makedirs(man_dir, exist_ok=True)
    _drop_stale_parts(out_dir, [d.rsplit("=", 1)[1] for d, ps
                                in zip(part_dirs, part_stats)
                                if ps["n_postings"]])
    for d, ps in zip(part_dirs, part_stats):
        if not ps["n_postings"]:
            continue
        pid = d.rsplit("=", 1)[1]
        with open(os.path.join(man_dir, f"part-{pid}.json"), "w") as f:
            json.dump({"part": int(pid), "avgdl": avgdl,
                       "compacted_from": os.path.abspath(index_dir),
                       "n_tombstoned_convs": int(tombs.size), **ps}, f)
    remap_p = os.path.join(index_dir, "_manifest", "conv_remap.json")
    remap: dict[str, int] = {}
    if os.path.exists(remap_p):
        shutil.copy(remap_p, os.path.join(man_dir, "conv_remap.json"))
        with open(remap_p) as f:
            remap = json.load(f)
    cm = os.path.join(index_dir, "conv_map")
    if os.path.isdir(cm):
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
        else:
            shutil.copytree(cm, os.path.join(out_dir, "conv_map"),
                            dirs_exist_ok=True)
    return {"n_docs": n_docs, "n_deleted_docs": n_del,
            "avgdl": avgdl,
            "n_postings": sum(p["n_postings"] for p in part_stats)}
