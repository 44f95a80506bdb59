"""Tokenize stage: transcript turns -> compressed posting runs (map_batches).

One zero-copy Arrow batch of turns in, one Arrow table of *batch runs* out.
A batch run is one term's postings within one input batch, already
delta-gap + varint compressed — i.e. the map-side **combiner** of the
two-phase (salted) aggregation: phase 1 here (per-batch partial posting
lists, ~10-40x smaller than raw (term, doc) rows), phase 2 in the per-part
merge (`rayse.pipelines.build_index.MergeWorker`).

    part: int32          # doc partition = top part_bits of doc_id
    term: string
    salt: int32          # always 0 (the merge splits hot terms)
    df: int64            # postings in this run
    cf: int64            # sum of tf in this run
    min_doc: uint64      # first (lowest) doc_id of the run
    doc_ids: binary      # delta-gap + varint, ascending doc_id
    tfs: binary          # varint term frequencies (`IndexerService.java:205-211`)
    dls: binary          # varint per-posting doc lengths (`IndexerService.java:249-254`)
    positions: binary    # [varint count][delta varint offsets]* per doc
                         # (`IndexerService.java:192-198` position semantics)

This replaces the reference's per-page ``indexPage`` + JDBC upserts
(`Indexer/Service/IndexerService.java:236-365`): instead of upserting
(word, doc) rows into PostgreSQL, each batch emits mergeable compressed
partial posting lists that the merge phase combines per (part, term).

Deployed as stateless Ray tasks over the warm worker pool (the analyzer's
stem/stop/intern caches are module state shared per worker process, so the
actor-pool benefit — state amortized across batches — comes for free while
scheduling stays elastic); the class is also directly usable as a
``map_batches(TokenizeStage, concurrency=N)`` actor pool.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..analyzer import analyze_ids, term_strings
from ..index.encoding import encode_varints_segmented
from ..index.segments import ROLE_CODES
from .doc_ids import assign_doc_ids


def _role_codes_of(batch: pa.Table) -> np.ndarray:
    """Per-turn role codes (0 when the input has no role column)."""
    if "role" not in batch.column_names:
        return np.zeros(len(batch), dtype=np.uint8)
    return np.fromiter((ROLE_CODES.get(r, 0)
                        for r in batch["role"].to_pylist()),
                       dtype=np.uint8, count=len(batch))

RUNS_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("min_doc", pa.uint64()),
    ("doc_ids", pa.binary()),
    ("tfs", pa.binary()),
    ("dls", pa.binary()),
    ("roles", pa.binary()),     # one role code byte per posting (M6)
    ("positions", pa.binary()),
])


def _positions_within_doc(docord: np.ndarray) -> np.ndarray:
    """Token offset within its doc, given non-decreasing doc ranks."""
    n = docord.size
    starts = np.flatnonzero(
        np.concatenate(([True], docord[1:] != docord[:-1])))
    idx = np.arange(n, dtype=np.int64)
    lens = np.diff(np.concatenate((starts, [n])))
    return idx - np.repeat(idx[starts], lens)


class TokenizeStage:
    """Callable class for ``map_batches(..., concurrency=N)`` actor pools:
    one batch of turns in, RUNS_SCHEMA combiner output out."""

    def __init__(self, part_bits: int = 5, with_positions: bool = True,
                 remap: dict | None = None):
        self.part_bits = part_bits
        self.with_positions = with_positions
        # conv-hash memo, pre-seeded with the collision exception map
        # (conv_id -> overridden hash) so remapped convs cost nothing extra
        self.conv_cache: dict = dict(remap) if remap else {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Hot path: one Python pass over tokens (intern to int ids), then
        pure-numpy grouping + ONE segmented varint encode per output column.
        Per-posting Python loops eliminated (SURVEY.md §2 'stay vectorized')."""
        doc_ids = assign_doc_ids(batch["conv_id"], batch["turn_idx"].to_numpy(),
                                 self.conv_cache)
        texts = batch["text"].to_pylist()
        doc_order = np.argsort(doc_ids, kind="stable")
        sorted_docs = doc_ids[doc_order]
        doc_roles = _role_codes_of(batch)[doc_order]   # by doc_order rank

        tok_tid: list = []              # per token: worker-interned term id
        tok_docord: list = []           # per token: position in doc_order
        dls = np.zeros(len(texts), dtype=np.int64)   # by doc_order rank
        n_tok = 0
        analyze_fn = analyze_ids
        for rank, i in enumerate(doc_order.tolist()):
            text = texts[i]
            ids = analyze_fn(text if text is not None else "")
            dls[rank] = len(ids)
            n_tok += len(ids)
            tok_tid.extend(ids)
            tok_docord.extend([rank] * len(ids))
        if n_tok == 0:
            return pa.table({n: [] for n in RUNS_SCHEMA.names},
                            schema=RUNS_SCHEMA)

        tid = np.asarray(tok_tid, dtype=np.int64)
        docord = np.asarray(tok_docord, dtype=np.int64)
        pos = _positions_within_doc(docord)

        # group tokens into postings: sort by (tid, docord); stable keeps
        # ascending position order within a posting
        order = np.lexsort((docord, tid))
        g_tid = tid[order]
        g_doc = docord[order]
        g_pos = pos[order]
        new_post = np.ones(n_tok, dtype=bool)
        new_post[1:] = (g_tid[1:] != g_tid[:-1]) | (g_doc[1:] != g_doc[:-1])
        post_starts = np.flatnonzero(new_post)
        n_post = post_starts.size
        post_tf = np.diff(np.concatenate((post_starts, [n_tok]))).astype(np.int64)
        p_tid = g_tid[post_starts]
        p_docord = g_doc[post_starts]
        p_doc = sorted_docs[p_docord]
        p_dl = dls[p_docord].astype(np.uint64)
        p_role = doc_roles[p_docord]                  # uint8 per posting

        # runs = maximal (term, part) groups of postings (doc ascending within
        # a term because docord ascends; part ascends with doc_id)
        shift = np.uint64(64 - self.part_bits)
        p_part = (p_doc >> shift).astype(np.int64)
        new_run = np.ones(n_post, dtype=bool)
        new_run[1:] = (p_tid[1:] != p_tid[:-1]) | (p_part[1:] != p_part[:-1])
        run_starts = np.flatnonzero(new_run)
        run_ends = np.concatenate((run_starts[1:], [n_post]))

        # encode postings columns (one segmented pass each)
        gaps = p_doc.copy()
        gaps[1:] -= p_doc[:-1]
        gaps[run_starts] = p_doc[run_starts]
        b_docs = encode_varints_segmented(gaps, run_starts)
        b_tfs = encode_varints_segmented(post_tf.astype(np.uint64), run_starts)
        b_dls = encode_varints_segmented(p_dl, run_starts)

        if self.with_positions:
            # positions value stream: per posting [tf][delta positions...]
            # built by scatter into a preallocated array
            val_len = post_tf + 1
            val_starts = np.zeros(n_post, dtype=np.int64)
            np.cumsum(val_len[:-1], out=val_starts[1:])
            total = int(val_len.sum())
            vals = np.empty(total, dtype=np.uint64)
            vals[val_starts] = post_tf.astype(np.uint64)
            # token value slots: within-posting rank + posting offset + 1
            tok_rank = np.arange(n_tok, dtype=np.int64) - np.repeat(
                post_starts, post_tf)
            slot = np.repeat(val_starts, post_tf) + 1 + tok_rank
            # delta-encode positions within posting (first absolute)
            pdelta = g_pos.copy()
            pdelta[1:] -= g_pos[:-1]
            pdelta[post_starts] = g_pos[post_starts]
            vals[slot] = pdelta.astype(np.uint64)
            b_pos = encode_varints_segmented(vals, val_starts[run_starts])
        else:
            b_pos = [b""] * run_starts.size

        run_df = (run_ends - run_starts).astype(np.int64)
        run_cf = np.add.reduceat(post_tf, run_starts)
        run_min = p_doc[run_starts]
        run_terms = term_strings(p_tid[run_starts].tolist())
        role_bytes = p_role.tobytes()   # 1 byte/posting, slice per run
        b_roles = [role_bytes[s:e] for s, e in
                   zip(run_starts.tolist(), run_ends.tolist())]
        return pa.table(
            {
                "part": pa.array(p_part[run_starts].astype(np.int32),
                                 pa.int32()),
                "term": pa.array(run_terms, pa.string()),
                "salt": pa.array(np.zeros(run_starts.size, np.int32),
                                 pa.int32()),
                "df": pa.array(run_df, pa.int64()),
                "cf": pa.array(run_cf, pa.int64()),
                "min_doc": pa.array(run_min, pa.uint64()),
                "doc_ids": pa.array(b_docs, pa.binary()),
                "tfs": pa.array(b_tfs, pa.binary()),
                "dls": pa.array(b_dls, pa.binary()),
                "roles": pa.array(b_roles, pa.binary()),
                "positions": pa.array(b_pos, pa.binary()),
            },
            schema=RUNS_SCHEMA,
        )
