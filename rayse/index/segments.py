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

Most terms have exactly one row (salt 0 after compaction); hot terms keep
multiple runs ordered by ascending salt == ascending doc_id range (north
rule: salted two-phase aggregation). Decoders concatenate runs in salt order.

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

from ..config import BM25Params
from .encoding import (
    decode_varints,
    delta_decode,
    delta_encode,
    encode_varints,
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


def segment_info(path: str) -> dict | None:
    """The provenance ``write_segment`` recorded; None for segment files
    written before it existed."""
    raw = (pq.read_schema(path).metadata or {}).get(_INFO_KEY)
    return json.loads(raw) if raw else None


# role -> stable code (0 = unknown/other). Deterministic module constant —
# NOT data-derived — so segments from different shards/builds agree.
ROLE_CODES = {"system": 1, "user": 2, "assistant": 3, "tool": 4}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


def bm25_tf(tf: np.ndarray, dl: np.ndarray, avgdl: float, p: BM25Params) -> np.ndarray:
    """BM25 TF component, float64 (`IndexerService.java:1060-1070`):
    tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))."""
    f = tf.astype(np.float64)
    return f * (p.k1 + 1.0) / (f + p.k1 * (1.0 - p.b + p.b * (dl.astype(np.float64) / avgdl)))


def assemble_positions(tfs: np.ndarray, pos_blobs: list[bytes]) -> bytes:
    """Per-posting offset blobs (no count prefix, from the tokenize stage)
    -> one [varint count][deltas]* stream aligned with doc_ids. Streams of
    doc-disjoint runs concatenate directly (each doc block self-delimits)."""
    chunks = bytearray()
    append = chunks.append
    for tf, blob in zip(tfs.tolist(), pos_blobs):
        g = int(tf)
        while g >= 0x80:
            append((g & 0x7F) | 0x80)
            g >>= 7
        append(g)
        chunks.extend(blob)
    return bytes(chunks)


def encode_segment_row(term: str, salt: int, doc_ids: np.ndarray,
                       tfs: np.ndarray, dls: np.ndarray,
                       positions: bytes,
                       avgdl: float, params: BM25Params,
                       block_size: int) -> dict:
    """Build one segment row dict from doc_id-ascending posting arrays."""
    n = doc_ids.size
    comp = bm25_tf(tfs, dls, avgdl, params)
    nblocks = (n + block_size - 1) // block_size
    pad = nblocks * block_size - n
    comp_p = np.pad(comp, (0, pad), constant_values=-np.inf)
    block_max = comp_p.reshape(nblocks, block_size).max(axis=1)
    block_last = doc_ids[np.minimum(np.arange(1, nblocks + 1) * block_size - 1, n - 1)]
    return {
        "term": term,
        "salt": salt,
        "df": int(n),
        "cf": int(tfs.sum()),
        "doc_ids": encode_varints(delta_encode(doc_ids)),
        "tfs": encode_varints(tfs.astype(np.uint64)),
        "dls": encode_varints(dls.astype(np.uint64)),
        "positions": positions,
        "block_max": block_max.tolist(),
        "block_last": block_last.tolist(),
    }


class DecodedPostings:
    """Posting list of one term within one partition (runs concatenated).

    ``block_starts[b]`` = posting offset of block b in the concatenated
    arrays (strictly increasing; block size = next start - start, blocks of
    consecutive runs are contiguous), enabling exact block skipping.

    ``roles`` is a per-posting uint8 role-code array (None on indexes built
    without roles)."""

    __slots__ = ("doc_ids", "tfs", "dls", "positions_blob", "block_max",
                 "block_last", "block_starts", "roles")

    def __init__(self, doc_ids, tfs, dls, positions_blob, block_max,
                 block_last, block_starts=None, roles=None):
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.dls = dls
        self.positions_blob = positions_blob
        self.block_max = block_max
        self.block_last = block_last
        self.block_starts = block_starts
        self.roles = roles

    def positions(self) -> list[np.ndarray]:
        """Decode per-doc position lists (lazy — phrase queries only)."""
        vals = decode_varints(self.positions_blob)
        out = []
        i = 0
        for _ in range(self.doc_ids.size):
            c = int(vals[i])
            i += 1
            out.append(np.cumsum(vals[i:i + c], dtype=np.uint64))
            i += c
        return out


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
        rb = r.get("roles")
        if rb is not None:
            role_blobs.append(rb)
        bm.extend(r["block_max"])
        bl.extend(r["block_last"])
        nb = len(r["block_max"])
        bs_parts.append(off + np.arange(nb, dtype=np.int64) * block_size)
        off += d.size
    roles = (np.frombuffer(b"".join(role_blobs), dtype=np.uint8)
             if len(role_blobs) == len(rows) and rows else None)
    return DecodedPostings(
        np.concatenate(doc_parts),
        np.concatenate(tf_parts),
        np.concatenate(dl_parts),
        bytes(pos),
        np.asarray(bm, dtype=np.float64),
        np.asarray(bl, dtype=np.uint64),
        np.concatenate(bs_parts) if bs_parts else np.empty(0, np.int64),
        roles,
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


def filter_positions_blob(blob: bytes, tfs: np.ndarray,
                          keep: np.ndarray) -> bytes:
    """The kept postings' position slices, re-concatenated (byte gather —
    no varint decode). Empty blob (positions disabled) passes through."""
    if not blob:
        return b""
    starts, ends = posting_byte_spans(blob, tfs)
    ks, ke = starts[keep], ends[keep]
    ln = ke - ks
    if ln.size == 0 or int(ln.sum()) == 0:
        return b""
    out_cum = np.cumsum(ln)
    out_begin = np.concatenate(([0], out_cum[:-1]))
    idx = (np.repeat(ks - out_begin, ln)
           + np.arange(int(out_cum[-1]), dtype=np.int64))
    return np.frombuffer(blob, dtype=np.uint8)[idx].tobytes()


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
    roles = pl.roles[keep] if pl.roles is not None else None
    pos = filter_positions_blob(pl.positions_blob, pl.tfs, keep)
    comp = bm25_tf(t, dl, avgdl, params)
    bm, bl, bs = build_block_arrays(d, comp, block_size)
    return DecodedPostings(d, t, dl, pos, bm, bl, bs, roles)
