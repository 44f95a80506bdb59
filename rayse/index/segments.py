"""Segment row codec: posting lists <-> Arrow rows.

A *segment row* is one doc_id-contiguous run of one term's posting list
inside one document partition:

    term: string, salt: int32, df: int64, cf: int64,
    doc_ids: binary   (delta-gap + varint, ascending doc_id)
    tfs: binary       (varint)
    dls: binary       (varint doc lengths, aligned with doc_ids — makes BM25
                       scoring self-contained per row; the reference joins
                       doc lengths from a RAM map instead,
                       `IndexerService.java:827-879`)
    positions: binary ([varint count][delta varint offsets]* per doc; empty
                       when positions are disabled)
    block_max: list<float64>  (per block of `block_size` postings: max BM25
                       TF component, computed with the corpus avgdl — upper
                       bound source for block-max WAND skipping)
    block_last: list<uint64>  (last doc_id of each block)

Most terms have exactly one row (salt 0); a term with more than
``compact_max_postings`` postings in a part is split into doc_id-contiguous
rows of equal size, ordered by ascending salt == ascending doc_id range.
Decoders concatenate rows in salt order. ``merge_segment_rows`` is the one
function that writes segment rows: the build, append, compaction and index
merge all call it.

Replaces `inverted_index` + `word_position` PostgreSQL rows
(`Indexer/Entities/InvertedIndex.java:9-37`, `WordPosition.java:8-34`).

Each part's segment file carries, in its Parquet key-value metadata, the
corpus avgdl its block_max was computed with and the build shards whose
posting runs it holds (``write_segment`` / ``segment_info``). Both are
written in the same file as the postings, so no crash can separate them.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import BM25Params, IndexConfig
from ..stages.doc_ids import TURN_BITS
from .encoding import (
    binary_array_from_offsets,
    decode_varints,
    decode_varints_concat,
    delta_decode,
    encode_varints_offsets,
    segmented_cumsum_abs,
)

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("doc_ids", pa.binary()),
    ("tfs", pa.binary()),
    ("dls", pa.binary()),
    ("roles", pa.binary()),      # one role code byte per posting (M6: the
    #                              reference's per-tag posting stats,
    #                              `Indexer/Entities/WordDocumentTag.java:8-43`;
    #                              a transcript turn has exactly ONE role, so
    #                              the per-posting role IS the field scope)
    ("positions", pa.binary()),
    ("block_max", pa.list_(pa.float64())),
    ("block_last", pa.list_(pa.uint64())),
])

SEGMENT_FILE = "segment.parquet"
_INFO_KEY = b"rayse.segment"


def write_segment(tbl: pa.Table, part_dir: str, avgdl: float,
                  shards) -> None:
    """Write one part's segment file under ``part_dir`` with its
    provenance (avgdl of its block_max, ids of the shards it holds)."""
    os.makedirs(part_dir, exist_ok=True)
    info = json.dumps({"avgdl": avgdl, "shards": sorted(shards)})
    pq.write_table(tbl.replace_schema_metadata({_INFO_KEY: info.encode()}),
                   os.path.join(part_dir, SEGMENT_FILE))


def segment_info(path: str) -> dict:
    """The provenance ``write_segment`` recorded."""
    return json.loads(pq.read_schema(path).metadata[_INFO_KEY])


# role -> stable code (0 = unknown/other). Deterministic module constant —
# NOT data-derived — so segments from different shards/builds agree.
ROLE_CODES = {"system": 1, "user": 2, "assistant": 3, "tool": 4}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


def bm25_tf(tf: np.ndarray, dl: np.ndarray, avgdl: float, p: BM25Params) -> np.ndarray:
    """BM25 TF component, float64 (`IndexerService.java:1060-1070`):
    tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))."""
    f = tf.astype(np.float64)
    return f * (p.k1 + 1.0) / (f + p.k1 * (1.0 - p.b + p.b * (dl.astype(np.float64) / avgdl)))


class DecodedPostings:
    """Posting list of one term within one partition (runs concatenated).

    ``block_starts[b]`` = posting offset of block b in the concatenated
    arrays (strictly increasing; block size = next start - start, blocks of
    consecutive runs are contiguous), enabling exact block skipping.

    ``doc_ids`` is uint64; ``tfs`` and ``dls`` are uint32, so a posting's
    tf and its document's length must each be at most 2^32 - 1 (a turn of
    over four billion tokens). ``bm25_tf`` casts both to float64, which
    holds every uint32 exactly, so scores do not depend on the width.
    ``roles`` is a per-posting uint8 role-code array."""

    __slots__ = ("doc_ids", "tfs", "dls", "positions_blob", "block_max",
                 "block_last", "block_starts", "roles")

    def __init__(self, doc_ids, tfs, dls, positions_blob, block_max,
                 block_last, block_starts, roles):
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.dls = dls
        self.positions_blob = positions_blob
        self.block_max = block_max
        self.block_last = block_last
        self.block_starts = block_starts
        self.roles = roles

    def positions_at(self, take) -> tuple[np.ndarray, np.ndarray]:
        """Absolute positions of the postings ``take`` (indices), in that
        order: (flat uint64 positions, count of each posting). Only the
        taken postings' byte slices are gathered and decoded, in one
        varint pass; nothing is kept. A slice's leading count equals the
        posting's tf, so it is dropped, not read."""
        counts = self.tfs[take].astype(np.int64)
        if not counts.size:
            return np.empty(0, np.uint64), counts
        raw, _ = gather_positions(self.positions_blob, self.tfs, take)
        vals = decode_varints(raw)
        seg = np.cumsum(counts) - counts        # each posting's first value
        gaps = np.delete(vals, seg + np.arange(counts.size))
        return segmented_cumsum_abs(gaps, seg), counts

    def positions(self) -> list[np.ndarray]:
        """Per-posting position arrays of the whole list (views over one
        ``positions_at`` decode)."""
        if not self.doc_ids.size:
            return []
        flat, counts = self.positions_at(np.arange(self.doc_ids.size))
        return np.split(flat, np.cumsum(counts)[:-1])


def decode_rows(rows: list[dict], block_size: int = 128) -> DecodedPostings:
    """Concatenate one term's segment rows (pre-sorted by ascending salt)."""
    doc_parts, tf_parts, dl_parts = [], [], []
    pos = bytearray()
    role_blobs: list[bytes] = []
    bm, bl, bs_parts = [], [], []
    off = 0
    for r in rows:
        d = delta_decode(decode_varints(r["doc_ids"]))
        doc_parts.append(d)
        tf_parts.append(decode_varints(r["tfs"]))
        dl_parts.append(decode_varints(r["dls"]))
        pos.extend(r["positions"])
        role_blobs.append(r["roles"])
        bm.extend(r["block_max"])
        bl.extend(r["block_last"])
        nb = len(r["block_max"])
        bs_parts.append(off + np.arange(nb, dtype=np.int64) * block_size)
        off += d.size
    return DecodedPostings(
        np.concatenate(doc_parts),
        np.concatenate(tf_parts, dtype=np.uint32, casting="same_kind"),
        np.concatenate(dl_parts, dtype=np.uint32, casting="same_kind"),
        bytes(pos),
        np.asarray(bm, dtype=np.float64),
        np.asarray(bl, dtype=np.uint64),
        np.concatenate(bs_parts) if bs_parts else np.empty(0, np.int64),
        np.frombuffer(b"".join(role_blobs), dtype=np.uint8),
    )


def concat_postings(pls: list[DecodedPostings]) -> DecodedPostings:
    """One list from doc-ascending lists over ascending, disjoint doc
    ranges (a term's lists in ascending part order). Positions and block
    arrays concatenate alignment-safely: the positions byte stream is
    per-posting self-delimited."""
    if len(pls) == 1:
        return pls[0]
    sizes = np.asarray([p.doc_ids.size for p in pls], dtype=np.int64)
    offs = np.cumsum(sizes) - sizes       # each list's first posting
    return DecodedPostings(
        np.concatenate([p.doc_ids for p in pls]),
        np.concatenate([p.tfs for p in pls]),
        np.concatenate([p.dls for p in pls]),
        b"".join(p.positions_blob for p in pls),
        np.concatenate([p.block_max for p in pls]),
        np.concatenate([p.block_last for p in pls]),
        np.concatenate([p.block_starts + o
                        for p, o in zip(pls, offs.tolist())]),
        np.concatenate([p.roles for p in pls]),
    )


# ---------------------------------------------------------------------------
# Posting-list filtering (tombstone deletes + compaction). Positions are
# never decoded: each posting's varint byte slice is self-delimited
# ([count][deltas restarting at 0]) and relocatable, so filtering is a
# byte-span gather — the same trick the merge uses to permute raw bytes.
# ---------------------------------------------------------------------------

def posting_byte_spans(blob: bytes, tfs: np.ndarray):
    """(starts, ends) byte spans of each posting's positions slice."""
    b = np.frombuffer(blob, dtype=np.uint8)
    v_ends = np.flatnonzero((b & 0x80) == 0)          # varint end bytes
    vcum = np.cumsum(tfs.astype(np.int64) + 1)        # count + tf deltas
    ends = v_ends[vcum - 1] + 1
    starts = np.concatenate(([0], ends[:-1]))
    return starts, ends


def gather_positions(blob: bytes, tfs: np.ndarray, take: np.ndarray):
    """The position slices of the postings ``take`` (indices or a mask),
    in that order: (uint8 array, start of each slice in it). A byte
    gather: no varint is decoded."""
    starts, ends = posting_byte_spans(blob, tfs)
    ks = starts[take]
    ln = ends[take] - ks
    out_cum = np.cumsum(ln)
    out_begin = out_cum - ln
    idx = (np.repeat(ks - out_begin, ln)
           + np.arange(int(out_cum[-1]) if ln.size else 0, dtype=np.int64))
    return np.frombuffer(blob, dtype=np.uint8)[idx], out_begin


def filter_positions_blob(blob: bytes, tfs: np.ndarray,
                          keep: np.ndarray) -> bytes:
    """The kept postings' position slices, re-concatenated (byte gather —
    no varint decode). Empty blob (positions disabled) passes through."""
    if not blob:
        return b""
    return gather_positions(blob, tfs, keep)[0].tobytes()


def tombstoned(doc_ids: np.ndarray, tombstones: np.ndarray) -> np.ndarray:
    """Mask of the postings whose conversation hash (the doc_id's high
    bits) is in the sorted, non-empty ``tombstones`` array."""
    convs = doc_ids >> np.uint64(TURN_BITS)
    pos = np.minimum(np.searchsorted(tombstones, convs), tombstones.size - 1)
    return tombstones[pos] == convs


def build_block_arrays(doc_ids: np.ndarray, comp: np.ndarray,
                       block_size: int):
    """(block_max, block_last, block_starts) for one doc-ascending
    posting list scored ``comp`` (exact bounds, scale 1.0)."""
    n = doc_ids.size
    if n == 0:
        return (np.empty(0, np.float64), np.empty(0, np.uint64),
                np.empty(0, np.int64))
    nblocks = (n + block_size - 1) // block_size
    starts = np.arange(nblocks, dtype=np.int64) * block_size
    block_max = np.maximum.reduceat(comp, starts)
    block_last = doc_ids[np.minimum(starts + block_size - 1, n - 1)]
    return block_max, block_last.astype(np.uint64), starts


def filter_postings(pl: "DecodedPostings", keep: np.ndarray,
                    avgdl: float, params: BM25Params,
                    block_size: int) -> "DecodedPostings | None":
    """A new DecodedPostings holding only the kept postings, with exact
    block-max metadata rebuilt against the CURRENT avgdl (scale 1.0).
    Returns None when nothing survives."""
    if not keep.any():
        return None
    d = pl.doc_ids[keep]
    t = pl.tfs[keep]
    dl = pl.dls[keep]
    pos = filter_positions_blob(pl.positions_blob, pl.tfs, keep)
    comp = bm25_tf(t, dl, avgdl, params)
    bm, bl, bs = build_block_arrays(d, comp, block_size)
    return DecodedPostings(d, t, dl, pos, bm, bl, bs, pl.roles[keep])


# ---------------------------------------------------------------------------
# Segment writer: the one path from posting rows to segment rows. Build and
# append feed it a part's runs (plus its segment when it has one),
# compaction a part's segment plus the tombstones, and the index merge
# part=N of both inputs.
# ---------------------------------------------------------------------------

MERGE_SCHEMA = pa.schema([
    SEGMENT_SCHEMA.field(n)
    for n in ("term", "df", "cf", "doc_ids", "tfs", "dls", "roles",
              "positions")])


def merge_input(dset) -> pa.Table:
    """Runs or a segment (a ``pyarrow.dataset``) as merge input: the
    columns both share."""
    return dset.to_table(columns=MERGE_SCHEMA.names, use_threads=False)


def merge_segment_rows(tbl: pa.Table, avgdl: float, cfg: IndexConfig,
                       tombstones: np.ndarray | None = None):
    """Vectorized whole-part merge: decode every row blob in ONE varint
    pass, lexsort all postings by (term, doc_id), re-encode with ONE
    segmented varint pass. Rows (``MERGE_SCHEMA``, runs or segment rows:
    both are gap-coded with an absolute first doc id) must be grouped by
    term; their order within a term does not change the output. Postings
    of conversations in the sorted ``tombstones`` array are dropped. A
    ``(term, doc_id)`` seen twice raises ``ValueError``.

    Returns (segment_table, n_terms, n_postings)."""
    cap = cfg.compact_max_postings
    bs = cfg.block_size

    df_row = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    # dictionary-encode terms: int codes for grouping, strings only
    # materialized once for the output column (no object arrays)
    tdict = tbl["term"].combine_chunks().dictionary_encode()
    tcodes = tdict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    tvalues = tdict.dictionary
    n_rows = df_row.size
    empty = (SEGMENT_SCHEMA.empty_table(), 0, 0)
    if n_rows == 0:
        return empty

    row_starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(df_row[:-1], out=row_starts[1:])
    doc_abs = segmented_cumsum_abs(
        decode_varints_concat(tbl["doc_ids"].to_pylist()), row_starts)
    tfs = decode_varints_concat(tbl["tfs"].to_pylist())
    dls = decode_varints_concat(tbl["dls"].to_pylist())

    new_term = np.ones(n_rows, dtype=bool)
    new_term[1:] = tcodes[1:] != tcodes[:-1]
    term_id_row = np.cumsum(new_term) - 1
    term_id = np.repeat(term_id_row, df_row)
    uniq_codes = tcodes[new_term]   # term_id -> dictionary code

    roles_all = np.frombuffer(b"".join(tbl["roles"].to_pylist()),
                              dtype=np.uint8)

    order = np.lexsort((doc_abs, term_id))
    if tombstones is not None and tombstones.size:
        order = order[~tombstoned(doc_abs[order], tombstones)]
    n_post = order.size
    if n_post == 0:
        return empty
    sd = doc_abs[order]
    st = tfs[order]
    sl = dls[order]
    sr = roles_all[order]
    stid = term_id[order]

    twice = np.flatnonzero((stid[1:] == stid[:-1]) & (sd[1:] == sd[:-1]))
    if twice.size:
        i = int(twice[0])
        term = tvalues[int(uniq_codes[stid[i]])].as_py()
        raise ValueError(
            f"doc_id {int(sd[i])} appears twice in the postings of term "
            f"{term!r}; the inputs do not hold disjoint conversation sets")

    # output rows: per term, split into <=cap chunks (deterministic)
    t_starts = np.concatenate(
        ([0], np.flatnonzero(stid[1:] != stid[:-1]) + 1))
    t_ends = np.concatenate((t_starts[1:], [n_post]))
    out_term_idx: list[int] = []
    out_salt: list[int] = []
    out_start: list[int] = []
    out_end: list[int] = []
    for s, e in zip(t_starts.tolist(), t_ends.tolist()):
        n = e - s
        if n <= cap:
            out_term_idx.append(int(stid[s]))
            out_salt.append(0)
            out_start.append(s)
            out_end.append(e)
        else:
            n_chunks = (n + cap - 1) // cap
            size = (n + n_chunks - 1) // n_chunks
            for ci in range(n_chunks):
                out_term_idx.append(int(stid[s]))
                out_salt.append(ci)
                out_start.append(s + ci * size)
                out_end.append(min(s + (ci + 1) * size, e))
    ostart = np.asarray(out_start, dtype=np.int64)
    oend = np.asarray(out_end, dtype=np.int64)

    # delta-gap re-encode: diffs within rows, absolute at row starts;
    # each column encoded ONCE into a contiguous buffer + offsets ->
    # zero-copy arrow binary columns (no per-row bytes objects)
    gaps = sd.copy()
    gaps[1:] -= sd[:-1]          # uint64 wrap at boundaries is overwritten
    gaps[ostart] = sd[ostart]
    doc_out = binary_array_from_offsets(
        *encode_varints_offsets(gaps, ostart))
    tf_out = binary_array_from_offsets(
        *encode_varints_offsets(st, ostart))
    dl_out = binary_array_from_offsets(
        *encode_varints_offsets(sl, ostart))
    role_offsets = np.empty(len(ostart) + 1, dtype=np.int64)
    role_offsets[:-1] = ostart
    role_offsets[-1] = n_post
    role_out = binary_array_from_offsets(sr.tobytes(), role_offsets)
    df_out = (oend - ostart).astype(np.int64)
    cf_out = np.add.reduceat(st.astype(np.int64), ostart)

    # block-max metadata: ONE reduceat over all output rows' blocks
    comp = bm25_tf(st, sl, avgdl, cfg.bm25)
    n_blocks_row = (df_out + bs - 1) // bs
    blk_row_off = np.zeros(len(ostart) + 1, dtype=np.int64)
    np.cumsum(n_blocks_row, out=blk_row_off[1:])
    total_blocks = int(blk_row_off[-1])
    within = (np.arange(total_blocks, dtype=np.int64)
              - np.repeat(blk_row_off[:-1], n_blocks_row))
    blk_starts = np.repeat(ostart, n_blocks_row) + within * bs
    blk_last_idx = np.minimum(blk_starts + bs - 1,
                              np.repeat(oend - 1, n_blocks_row))
    bm_flat = np.maximum.reduceat(comp, blk_starts)
    bl_flat = sd[blk_last_idx]
    block_max = pa.ListArray.from_arrays(
        pa.array(blk_row_off, pa.int32()),
        pa.array(bm_flat, pa.float64()))
    block_last = pa.ListArray.from_arrays(
        pa.array(blk_row_off, pa.int32()),
        pa.array(bl_flat, pa.uint64()))

    if cfg.with_positions:
        # Positions are NEVER decoded: per-posting varint byte slices are
        # self-delimited ([count][deltas restarting at 0]) and thus
        # relocatable — permute RAW BYTES (uint8 gather, ~1-2 B/value)
        # instead of uint64 value streams (8 B/value): the merge's memory
        # traffic is what bounds multi-worker scaling.
        out_bytes, out_begin = gather_positions(
            b"".join(tbl["positions"].to_pylist()), tfs, order)
        row_offsets = np.empty(len(ostart) + 1, dtype=np.int64)
        row_offsets[:-1] = out_begin[ostart]
        row_offsets[-1] = out_bytes.size
        pos_out = binary_array_from_offsets(out_bytes.tobytes(),
                                            row_offsets)
    else:
        pos_out = binary_array_from_offsets(
            b"", np.zeros(len(ostart) + 1, dtype=np.int64))

    out_codes = uniq_codes[np.asarray(out_term_idx, dtype=np.int64)]
    term_col = pa.compute.take(tvalues, pa.array(out_codes, pa.int64()))
    seg_tbl = pa.table(
        {
            "term": pa.compute.cast(term_col, pa.string()),
            "salt": pa.array(out_salt, pa.int32()),
            "df": pa.array(df_out, pa.int64()),
            "cf": pa.array(cf_out, pa.int64()),
            "doc_ids": doc_out,
            "tfs": tf_out,
            "dls": dl_out,
            "roles": role_out,
            "positions": pos_out,
            "block_max": pa.compute.cast(block_max,
                                         pa.list_(pa.float64())),
            "block_last": pa.compute.cast(block_last,
                                          pa.list_(pa.uint64())),
        },
        schema=SEGMENT_SCHEMA,
    )
    return seg_tbl, int(t_starts.size), n_post
