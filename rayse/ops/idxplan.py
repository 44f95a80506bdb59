"""Index storage planner — per-term compressed-size accounting for the
north-rule segment layout (delta-gap + LEB128 varint posting lists).

``postings_size_plan`` answers the maintenance question "what will each
term's posting data cost after a full optimize (merge to one logical
segment)?" — the number an index-maintenance scheduler ranks terms /
shards by before deciding what to merge, tier, or impact-prune. Per
term it reports the exact byte/bit cost of the optimized single-stream
layout:

- ``doc_varint_bytes``: LEB128 bytes of ``[head_absolute, gaps...]``
  over the globally doc_id-ascending merged posting list — exactly what
  ``encode_varints(delta_encode(doc_ids))`` (`rayse/index/encoding.py`)
  would store.
- ``doc_gamma_bits``: the Elias-gamma alternative (64-bit absolute head
  + ``2*bit_length(gap) - 1`` bits per gap) — the classic IR codebook
  baseline the varint choice is judged against.
- ``tf_varint_bytes`` / ``dl_varint_bytes``: LEB128 bytes of the
  aligned tf / doc-length streams.
- ``pos_varint_bytes``: bytes of the positions stream
  (``[tf][delta positions]*`` per posting) — self-delimited and
  relocatable, so the planned size equals the stored size byte-for-byte
  and is read straight off the blob lengths (no decode).

Scale shape: the segment parquet files are read DIRECTLY with
``read_parquet`` (columns pruned to the posting blobs + counters; one
row = one (term, salt) chunk). A vectorized per-batch pass decodes the
varint streams once (`decode_varints_concat`) and reduces them to one
partial row per chunk — O(vocab x parts) rows total, independent of
corpus size; posting text never moves. Chunks of a term own disjoint
ascending doc_id ranges (part = top doc_id bits, salt chunks are
contiguous sub-ranges — `rayse/pipelines/build_index.py:440-462`), so
the per-term finish orders chunks by head doc_id and adds only the
cross-chunk boundary gaps. The finish runs on the term-hash exchange
(`rayse.ops.exchange.exchange_by_key`), the repo's standard
vocabulary-sized shuffle.

Tombstone semantics: the planner measures the index AS STORED
(tombstoned postings included) — the honest pre-compaction number a
maintenance scheduler needs ("size now; compact to shrink"). The
DuckDB oracle mirrors a tombstone-free index.

Reference relationship: the reference keeps postings as PostgreSQL
rows and its only size lever is VACUUM (`DatabaseMaintenanceService`);
a segment index plans merges/tiering from exactly these per-term
numbers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.encoding import decode_varints_concat, varint_byte_lengths
from .sketch import _bit_length_u64

_PARTIAL_SCHEMA = pa.schema([
    ("term", pa.string()), ("thash", pa.uint64()),
    ("head", pa.uint64()), ("tail", pa.uint64()),
    ("df", pa.int64()), ("cf", pa.int64()),
    ("inner_vb", pa.int64()), ("inner_gb", pa.int64()),
    ("tvb", pa.int64()), ("dvb", pa.int64()), ("pb", pa.int64()),
])

_OUT_COLS = ("term", "df", "cf", "doc_varint_bytes", "doc_gamma_bits",
             "tf_varint_bytes", "dl_varint_bytes", "pos_varint_bytes")


def _chunk_partials_batch(batch: pa.Table) -> pa.Table:
    """One partial row per (term, salt) segment chunk: head/tail doc_id
    plus the within-chunk byte/bit sums, all in one segmented pass."""
    from .textstats import _word_arr_slices, fnv64_slices

    n = batch.num_rows
    if n == 0:
        return pa.table({c: [] for c in _PARTIAL_SCHEMA.names},
                        schema=_PARTIAL_SCHEMA)
    counts = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])

    # doc_ids: gap stream with the chunk head absolute at each start
    gaps = decode_varints_concat(batch["doc_ids"].to_pylist())
    vb = varint_byte_lengths(gaps)
    row_vb = np.add.reduceat(vb, starts)
    gb = 2 * _bit_length_u64(gaps) - 1
    row_gb = np.add.reduceat(gb, starts)
    heads = gaps[starts]
    tails = np.add.reduceat(gaps, starts)        # telescopes to last doc_id

    tfs = decode_varints_concat(batch["tfs"].to_pylist())
    tvb = np.add.reduceat(varint_byte_lengths(tfs), starts)
    dls = decode_varints_concat(batch["dls"].to_pylist())
    dvb = np.add.reduceat(varint_byte_lengths(dls), starts)
    pb = pc.binary_length(batch["positions"]).to_numpy(
        zero_copy_only=False).astype(np.int64)

    w = np.asarray(batch["term"].to_pylist(), dtype=object)
    return pa.table({
        "term": batch["term"],
        "thash": pa.array(fnv64_slices(*_word_arr_slices(w)), pa.uint64()),
        "head": pa.array(heads, pa.uint64()),
        "tail": pa.array(tails, pa.uint64()),
        "df": pa.array(counts, pa.int64()),
        "cf": pa.array(pc.cast(batch["cf"], pa.int64())),
        "inner_vb": pa.array(row_vb - vb[starts], pa.int64()),
        "inner_gb": pa.array(row_gb - gb[starts], pa.int64()),
        "tvb": pa.array(tvb, pa.int64()),
        "dvb": pa.array(dvb, pa.int64()),
        "pb": pa.array(pb, pa.int64()),
    })


def _plan_fold(tbl: pa.Table) -> pa.Table:
    """Per-term merge of chunk partials: order chunks by head doc_id
    (chunks own disjoint ascending ranges), replace each non-first
    chunk's absolute head cost with its boundary-gap cost, sum."""
    empty = pa.table({c: [] for c in _OUT_COLS},
                     schema=pa.schema([(c, pa.string() if c == "term"
                                        else pa.int64())
                                       for c in _OUT_COLS]))
    if tbl.num_rows == 0:
        return empty
    terms = np.asarray(tbl["term"].to_pylist(), dtype=object)
    uniq, code = np.unique(terms, return_inverse=True)
    head = tbl["head"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.lexsort((head, code))
    c_s, h_s = code[order], head[order]
    t_s = tbl["tail"].to_numpy(zero_copy_only=False).astype(
        np.uint64)[order]
    new = np.empty(c_s.size, dtype=bool)
    new[0] = True
    new[1:] = c_s[1:] != c_s[:-1]
    g_starts = np.flatnonzero(new)
    # boundary gap for each non-first chunk of its term (>=1: disjoint
    # ascending ranges); heads for first chunks
    bgap = np.empty(c_s.size, dtype=np.uint64)
    bgap[new] = h_s[new]
    nf = np.flatnonzero(~new)
    bgap[nf] = h_s[nf] - t_s[nf - 1]
    head_vb = varint_byte_lengths(bgap)
    head_gb = np.where(new, 64, 2 * _bit_length_u64(bgap) - 1)

    def col(name):
        return tbl[name].to_numpy(zero_copy_only=False)[order]

    def tot(arr):
        return np.add.reduceat(arr, g_starts)

    return pa.table({
        "term": pa.array(uniq[c_s[new]].tolist(), pa.string()),
        "df": pa.array(tot(col("df")), pa.int64()),
        "cf": pa.array(tot(col("cf")), pa.int64()),
        "doc_varint_bytes": pa.array(
            tot(col("inner_vb") + head_vb), pa.int64()),
        "doc_gamma_bits": pa.array(
            tot(col("inner_gb") + head_gb), pa.int64()),
        "tf_varint_bytes": pa.array(tot(col("tvb")), pa.int64()),
        "dl_varint_bytes": pa.array(tot(col("dvb")), pa.int64()),
        "pos_varint_bytes": pa.array(tot(col("pb")), pa.int64()),
    })


def postings_size_plan(index_dir: str) -> pa.Table:
    """Per-term optimized-layout size plan, term-sorted
    (vocabulary-sized output)."""
    import ray
    import ray.data as rd

    from ..index.reader import segment_files
    from .exchange import exchange_by_key

    ds = rd.read_parquet(segment_files(index_dir), columns=["term", "df", "cf", "doc_ids",
                                         "tfs", "dls", "positions"])
    partials = ds.map_batches(_chunk_partials_batch,
                              batch_format="pyarrow")
    out = exchange_by_key(partials, "thash", _plan_fold)
    parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    if not parts:
        return _plan_fold(pa.table(
            {c: [] for c in _PARTIAL_SCHEMA.names},
            schema=_PARTIAL_SCHEMA))
    tbl = pa.concat_tables(parts).combine_chunks()
    return tbl.take(pc.sort_indices(tbl, sort_keys=[("term",
                                                     "ascending")]))


# ---------------------------------------------------------------------------
# Doc-id reassignment planning (Silvestri 2007): re-cost each term's
# doc-gap stream under DENSE renumbering — doc_id -> its rank in the
# global doc_id order. The engine's ids are sparse 64-bit FNV values, so
# gaps carry hash entropy; dense ranks shrink every gap to its
# information content, the classic reassignment win an index-layout
# scheduler weighs against the remap cost. Ranks are computed WITHOUT a
# global sort materialization: parts own disjoint ascending doc ranges,
# so rank = per-part offset (cumsum of per-part distinct counts, a
# parts-sized driver array) + local rank within the part (one
# searchsorted against the part's distinct ids). One task per segment
# file (the on-disk hive layout IS the part exchange), then the same
# term-hash fold as ``postings_size_plan`` over chunk boundaries.
# ---------------------------------------------------------------------------

_REMAP_COLS = ("term", "df", "remap_docvb", "remap_gamma")


def _remap_file_partials(path: str) -> tuple[pa.Table, int]:
    """(per-chunk partials with LOCAL ranks, part's distinct doc count)
    for one segment file — within-part gap costs are offset-invariant,
    so only head/tail need globalizing later."""
    import pyarrow.parquet as pq

    from .textstats import _word_arr_slices, fnv64_slices

    t = pq.read_table(path, columns=["term", "df", "doc_ids"])
    if t.num_rows == 0:
        return (pa.table({c: [] for c in _PARTIAL_SCHEMA.names},
                         schema=_PARTIAL_SCHEMA), 0)
    counts = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    gaps = decode_varints_concat(t["doc_ids"].to_pylist())
    cs = np.cumsum(gaps, dtype=np.uint64)
    prefix = cs[starts] - gaps[starts]
    docs = cs - np.repeat(prefix, counts)
    uni = np.unique(docs)
    rank = np.searchsorted(uni, docs).astype(np.uint64)

    rgaps = np.empty(rank.size, dtype=np.uint64)
    rgaps[:] = rank
    rgaps[1:] -= rank[:-1]
    rgaps[starts] = rank[starts]          # row heads are absolute (local)
    vb = varint_byte_lengths(rgaps)
    gb = 2 * _bit_length_u64(rgaps) - 1
    row_vb = np.add.reduceat(vb, starts)
    row_gb = np.add.reduceat(gb, starts)

    w = np.asarray(t["term"].to_pylist(), dtype=object)
    zeros = np.zeros(counts.size, dtype=np.int64)
    return (pa.table({
        "term": t["term"],
        "thash": pa.array(fnv64_slices(*_word_arr_slices(w)), pa.uint64()),
        "head": pa.array(rank[starts], pa.uint64()),
        "tail": pa.array(rank[starts + counts - 1], pa.uint64()),
        "df": pa.array(counts, pa.int64()),
        "cf": pa.array(zeros, pa.int64()),
        "inner_vb": pa.array(row_vb - vb[starts], pa.int64()),
        "inner_gb": pa.array(row_gb - gb[starts], pa.int64()),
        "tvb": pa.array(zeros, pa.int64()),
        "dvb": pa.array(zeros, pa.int64()),
        "pb": pa.array(zeros, pa.int64()),
    }), int(uni.size))


def _remap_globalize(tbl: pa.Table, off: int) -> pa.Table:
    """Local -> global head/tail ranks (within-part gap sums are
    offset-invariant, so only these two columns shift)."""
    if tbl.num_rows == 0:
        return tbl
    for col in ("head", "tail"):
        tbl = tbl.set_column(
            tbl.schema.get_field_index(col), col,
            pa.array(tbl[col].to_numpy(zero_copy_only=False)
                     + np.uint64(off), pa.uint64()))
    return tbl


def postings_remap_plan(index_dir: str) -> pa.Table:
    """(term, df, remap_docvb, remap_gamma): per-term doc-gap cost under
    dense doc-id reassignment, term-sorted."""
    import ray
    import ray.data as rd

    from ..index.reader import segment_files
    from .exchange import exchange_by_key

    # NUMERIC part order: offsets must follow ascending doc ranges
    files = segment_files(index_dir)

    # partial tables stay in the object store: only the parts-sized
    # distinct-count vector reaches the driver for the offset cumsum
    part_task = ray.remote(num_returns=2)(_remap_file_partials)
    refs = [part_task.remote(f) for f in files]
    ns = ray.get([n for _, n in refs])
    offsets = np.zeros(len(ns), dtype=np.uint64)
    offsets[1:] = np.cumsum(ns[:-1]).astype(np.uint64)

    adjust = ray.remote(_remap_globalize)
    adj = [adjust.remote(t, int(off))
           for (t, _), off in zip(refs, offsets)]
    partials = rd.from_arrow_refs(adj)
    out = exchange_by_key(partials, "thash", _plan_fold)
    parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables(parts).combine_chunks()
    tbl = pa.table({
        "term": tbl["term"], "df": tbl["df"],
        "remap_docvb": tbl["doc_varint_bytes"],
        "remap_gamma": tbl["doc_gamma_bits"],
    })
    return tbl.take(pc.sort_indices(tbl, sort_keys=[("term",
                                                     "ascending")]))


def postings_remap_plan_sql() -> str:
    """Oracle: dense rank over the exact FNV doc_id order of the
    analyzed corpus's posting-bearing docs, then the same varint/gamma
    re-costing per term."""
    from .porter_oracle import _analysis_ctes, porter_doc_id_sql

    did = porter_doc_id_sql("tf.conv_id", "tf.turn_idx")
    return f"""{_analysis_ctes()},
did AS (SELECT tf.term, tf.conv_id, tf.turn_idx, {did} AS doc_id
        FROM tf),
docs AS (SELECT DISTINCT conv_id, turn_idx, doc_id FROM did),
dr AS (SELECT conv_id, turn_idx,
              CAST(row_number() OVER (ORDER BY doc_id) - 1 AS UBIGINT)
                AS rnk
       FROM docs),
seq AS (
  SELECT d.term, r.rnk,
         lag(r.rnk) OVER (PARTITION BY d.term ORDER BY r.rnk) AS prev
  FROM did d JOIN dr r USING (conv_id, turn_idx)),
per AS (
  SELECT term,
         CASE WHEN prev IS NULL THEN {_vb_sql('rnk')}
              ELSE {_vb_sql('rnk - prev')} END AS dvb,
         CASE WHEN prev IS NULL THEN 64
              ELSE 2 * length(bin(rnk - prev)) - 1 END AS gb
  FROM seq)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(dvb) AS BIGINT) AS remap_docvb,
       CAST(sum(gb) AS BIGINT) AS remap_gamma
FROM per GROUP BY term"""


def _vb_sql(expr: str) -> str:
    """LEB128 byte count of a non-negative integer expression (matches
    `varint_byte_lengths`: ceil(bit_length/7), 0 -> 1 byte)."""
    return (f"greatest(1, (length(bin(CAST(({expr}) AS UBIGINT))) + 6)"
            f" // 7)")


def postings_size_plan_sql() -> str:
    """Oracle for ``postings_size_plan`` over the porter analyzed
    stream: doc gaps via lag over the exact FNV doc_id order, analyzed
    positions as the kept-token rank within each turn, all streams
    re-costed with the same integer byte formulas."""
    from .porter_oracle import _analysis_ctes, porter_doc_id_sql

    did = porter_doc_id_sql("tf.conv_id", "tf.turn_idx")
    return f"""{_analysis_ctes()},
apos AS (
  SELECT term, conv_id, turn_idx,
         row_number() OVER (PARTITION BY conv_id, turn_idx
                            ORDER BY rawpos) - 1 AS apos
  FROM ptok),
pseq AS (
  SELECT term, conv_id, turn_idx, apos,
         lag(apos) OVER (PARTITION BY term, conv_id, turn_idx
                         ORDER BY apos) AS pprev
  FROM apos),
ppost AS (
  SELECT term, conv_id, turn_idx,
         sum(CASE WHEN pprev IS NULL THEN {_vb_sql('apos')}
                  ELSE {_vb_sql('apos - pprev')} END)
           + {_vb_sql('count(*)')} AS pos_b
  FROM pseq GROUP BY 1, 2, 3),
did AS (
  SELECT tf.term, tf.conv_id, tf.turn_idx, tf.tf, dl.dl,
         {did} AS doc_id
  FROM tf JOIN dl ON tf.conv_id = dl.conv_id
                 AND tf.turn_idx = dl.turn_idx),
seq AS (
  SELECT term, conv_id, turn_idx, tf, dl, doc_id,
         lag(doc_id) OVER (PARTITION BY term ORDER BY doc_id) AS prev
  FROM did),
per AS (
  SELECT s.term, s.tf,
         CASE WHEN s.prev IS NULL THEN {_vb_sql('s.doc_id')}
              ELSE {_vb_sql('s.doc_id - s.prev')} END AS dvb,
         CASE WHEN s.prev IS NULL THEN 64
              ELSE 2 * length(bin(s.doc_id - s.prev)) - 1 END AS gb,
         {_vb_sql('s.tf')} AS tvb,
         {_vb_sql('s.dl')} AS dlvb,
         p.pos_b
  FROM seq s JOIN ppost p ON s.term = p.term
                         AND s.conv_id = p.conv_id
                         AND s.turn_idx = p.turn_idx)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf) AS BIGINT) AS cf,
       CAST(sum(dvb) AS BIGINT) AS doc_varint_bytes,
       CAST(sum(gb) AS BIGINT) AS doc_gamma_bits,
       CAST(sum(tvb) AS BIGINT) AS tf_varint_bytes,
       CAST(sum(dlvb) AS BIGINT) AS dl_varint_bytes,
       CAST(sum(pos_b) AS BIGINT) AS pos_varint_bytes
FROM per GROUP BY term"""
