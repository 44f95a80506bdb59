"""Conversation-level analytics over the transcripts table (the
BASELINE.json ``input_hint`` schema): per-conversation summary stats
straight off the turn stream, and per-conversation TF-IDF keyword
extraction straight off the INDEX's posting lists.

Two operators, two scale shapes:

``conv_stats`` — (conv_id, n_turns, n_user, n_words, max_turn_words,
duration_us, awq): one stateless map_batches pass reduces each batch to
per-conversation partials (counts / sums / min-max over ts), ONE
exchange keyed by the conversation hash co-locates a conversation's
partials, and the partition fold finishes the sums — the standard
partial-then-exchange shape; nothing corpus-sized reaches the driver.

``conv_keywords`` — top-k distinctive terms per conversation, scored
``tf_conv * idf`` with the engine's idf v2 (``ln((1+N)/(1+df)) + 1``,
`IndexerService.java:966`) and floor(x*1e7) quantization: computed FROM
the built index, not by re-tokenizing — the segment scan decodes each
posting run vectorized (varint-concat + segmented cumsum), folds
(term, conv) partial tfs per batch, and routes the global-df attachment
by dictionary size: broadcast dict below ``broadcast_max`` distinct
terms, the partitioned-file hash join (``exchange.hash_join`` on the
term hash, equality-verified) above it. Conversation ids resolve
through the conv_map sidecar via a second hash join — never a
driver-side vocabulary or corpus materialization.

The tf*idf*1e7 product is evaluated in float64 with one fixed
association order on both sides, so the DuckDB oracle (built on the
same ``_analysis_ctes`` stem-map re-derivation every porter_* oracle
uses) hash-matches exactly.

Reference relationship: the closest reference surface is the per-doc
metrics dump (`IndexerService.java` metrics tables) and the trending /
suggested-queries family (`QueryService.java`); per-conversation
keyword profiles are what its "related searches" panel computes per
URL. The stats operator has no direct analog — it is the transcript
shape of a crawl-log summary.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.doc_ids import TURN_BITS

IDF_QUANT = 10_000_000       # floor(tf * idf * 1e7), the porter family scale
BROADCAST_MAX = 2_000_000    # dictionary rows above which df attaches by join


# ---------------------------------------------------------------------------
# conv_stats
# ---------------------------------------------------------------------------

_STATS_PARTIAL_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("chash", pa.uint64()),
    ("n_turns", pa.int64()), ("n_user", pa.int64()),
    ("n_words", pa.int64()), ("max_tw", pa.int64()),
    ("min_ts", pa.int64()), ("max_ts", pa.int64()),
])


def _stats_partial_batch(batch: pa.Table) -> pa.Table:
    """One transcripts batch -> per-conversation partial aggregates."""
    from .textstats import _word_arr_slices, fnv64_slices

    if batch.num_rows == 0:
        return pa.table({n: [] for n in _STATS_PARTIAL_SCHEMA.names},
                        schema=_STATS_PARTIAL_SCHEMA)
    conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
    ch = fnv64_slices(*_word_arr_slices(conv))
    # words per turn == len(string_split(text, ' ')) == 1 + #spaces
    words = pc.add(pc.count_substring(batch["text"], " "),
                   1).to_numpy(zero_copy_only=False).astype(np.int64)
    is_user = pc.equal(batch["role"], "user").to_numpy(
        zero_copy_only=False).astype(np.int64)
    ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
    ts = ts.view(np.int64)
    order = np.argsort(ch, kind="stable")
    ch_s = ch[order]
    new = np.empty(ch_s.size, dtype=bool)
    new[0] = True
    new[1:] = ch_s[1:] != ch_s[:-1]
    starts = np.flatnonzero(new)
    return pa.table({
        "conv_id": pa.array(conv[order][new].tolist(), pa.string()),
        "chash": pa.array(ch_s[new], pa.uint64()),
        "n_turns": pa.array(np.diff(np.append(starts, ch_s.size))
                            .astype(np.int64), pa.int64()),
        "n_user": pa.array(np.add.reduceat(is_user[order], starts),
                           pa.int64()),
        "n_words": pa.array(np.add.reduceat(words[order], starts),
                            pa.int64()),
        "max_tw": pa.array(np.maximum.reduceat(words[order], starts),
                           pa.int64()),
        "min_ts": pa.array(np.minimum.reduceat(ts[order], starts),
                           pa.int64()),
        "max_ts": pa.array(np.maximum.reduceat(ts[order], starts),
                           pa.int64()),
    })


def _stats_fold(tbl: pa.Table) -> pa.Table:
    """Partition fold: merge one conversation's partials, emit finals.
    awq = (n_words * 1000) // n_turns — non-negative, so numpy floor
    division and DuckDB's truncating ``//`` agree."""
    empty = pa.table({
        "conv_id": pa.array([], pa.string()),
        "n_turns": pa.array([], pa.int64()),
        "n_user": pa.array([], pa.int64()),
        "n_words": pa.array([], pa.int64()),
        "max_turn_words": pa.array([], pa.int64()),
        "duration_us": pa.array([], pa.int64()),
        "awq": pa.array([], pa.int64()),
    })
    if tbl.num_rows == 0:
        return empty
    conv = np.asarray(tbl["conv_id"].to_pylist(), dtype=object)
    order = np.argsort(conv, kind="stable")
    c_s = conv[order]
    new = np.empty(c_s.size, dtype=bool)
    new[0] = True
    new[1:] = c_s[1:] != c_s[:-1]
    starts = np.flatnonzero(new)

    def col(name):
        return tbl[name].to_numpy(zero_copy_only=False)[order]

    n_turns = np.add.reduceat(col("n_turns"), starts)
    n_words = np.add.reduceat(col("n_words"), starts)
    return pa.table({
        "conv_id": pa.array(c_s[new].tolist(), pa.string()),
        "n_turns": pa.array(n_turns, pa.int64()),
        "n_user": pa.array(np.add.reduceat(col("n_user"), starts),
                           pa.int64()),
        "n_words": pa.array(n_words, pa.int64()),
        "max_turn_words": pa.array(
            np.maximum.reduceat(col("max_tw"), starts), pa.int64()),
        "duration_us": pa.array(
            np.maximum.reduceat(col("max_ts"), starts)
            - np.minimum.reduceat(col("min_ts"), starts), pa.int64()),
        "awq": pa.array(n_words * 1000 // n_turns, pa.int64()),
    })


def conv_stats(sf_dir: str) -> pa.Table:
    """Per-conversation summary over the derived transcripts."""
    import ray

    from ..pipelines.transcripts import transcripts_dataset_from_documents
    from .exchange import exchange_by_key

    ds = transcripts_dataset_from_documents(sf_dir)
    partials = ds.map_batches(_stats_partial_batch, batch_format="pyarrow",
                              zero_copy_batch=True)
    out = exchange_by_key(partials, "chash", _stats_fold)
    parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    if not parts:
        return _stats_fold(pa.table(
            {n: [] for n in _STATS_PARTIAL_SCHEMA.names},
            schema=_STATS_PARTIAL_SCHEMA))
    tbl = pa.concat_tables(parts).combine_chunks()
    return tbl.take(pc.sort_indices(tbl, sort_keys=[("conv_id",
                                                     "ascending")]))


CONV_STATS_SQL = """
WITH words AS (SELECT doc_id, string_split(text, ' ') AS w
               FROM documents),
turns AS (
  SELECT doc_id,
         'conv-' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS conv_id,
         CAST(u.t AS BIGINT) AS turn_idx,
         CAST(len(list_slice(w, u.t*40 + 1, u.t*40 + 40)) AS BIGINT)
           AS n_words,
         1700000000000000 + doc_id * 1000000 + u.t * 1000 AS ts
  FROM words,
       UNNEST(range(CAST(greatest(1, ceil(len(w) / 40.0)) AS BIGINT)))
         AS u(t))
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(CASE WHEN turn_idx % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_user,
       CAST(sum(n_words) AS BIGINT) AS n_words,
       CAST(max(n_words) AS BIGINT) AS max_turn_words,
       CAST(max(ts) - min(ts) AS BIGINT) AS duration_us,
       (CAST(sum(n_words) AS BIGINT) * 1000) // count(*) AS awq
FROM turns
GROUP BY conv_id
ORDER BY conv_id"""
# note: len(list_slice(w, a, b)) == the turn's word count; the final
# (possibly short) slice is exactly the tail — and a 1-word empty doc
# still yields one turn of one empty-string word, matching the
# derivation in pipelines/transcripts.py. The role parity and the ts
# formula mirror documents_to_transcripts_batch verbatim.


# ---------------------------------------------------------------------------
# conv_keywords
# ---------------------------------------------------------------------------

_KW_PARTIAL_SCHEMA = pa.schema([
    ("conv", pa.uint64()), ("term", pa.string()), ("tf", pa.int64()),
])


def _kw_explode_batch(batch: pa.Table) -> pa.Table:
    """Segment rows -> (conv, term, tf) partials: vectorized posting
    decode (varint concat + segmented cumsum), then a run-length fold
    over (row, conv) — doc_ids are ascending within a row, so one
    conversation's turns are one contiguous run."""
    from ..index.encoding import decode_varints_concat, segmented_cumsum_abs

    if batch.num_rows == 0:
        return pa.table({n: [] for n in _KW_PARTIAL_SCHEMA.names},
                        schema=_KW_PARTIAL_SCHEMA)
    dfs = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    blobs = batch["doc_ids"].to_pylist()
    seg_starts = np.concatenate(([0], np.cumsum(dfs)[:-1]))
    docs = segmented_cumsum_abs(decode_varints_concat(blobs), seg_starts)
    tfs = decode_varints_concat(batch["tfs"].to_pylist()).astype(np.int64)
    conv = (docs >> np.uint64(TURN_BITS)).astype(np.uint64)
    rowidx = np.repeat(np.arange(dfs.size, dtype=np.int64), dfs)
    new = np.empty(conv.size, dtype=bool)
    new[0] = True
    new[1:] = (rowidx[1:] != rowidx[:-1]) | (conv[1:] != conv[:-1])
    starts = np.flatnonzero(new)
    terms = np.asarray(batch["term"].to_pylist(), dtype=object)
    return pa.table({
        "conv": pa.array(conv[new], pa.uint64()),
        "term": pa.array(terms[rowidx[new]].tolist(), pa.string()),
        "tf": pa.array(np.add.reduceat(tfs, starts), pa.int64()),
    })


def _kw_fold(n_docs: int, k: int, df_map: dict | None):
    """Partition fold: merge (conv, term) partial tfs, attach df
    (broadcast map, or the joined ``df`` column when routed through the
    hash join), score, and keep each conversation's top-k by
    (score_q desc, term asc)."""

    def fold(tbl: pa.Table) -> pa.Table:
        empty = pa.table({
            "conv": pa.array([], pa.uint64()),
            "rank": pa.array([], pa.int32()),
            "term": pa.array([], pa.string()),
            "score_q": pa.array([], pa.int64()),
        })
        if tbl.num_rows == 0:
            return empty
        terms = np.asarray(tbl["term"].to_pylist(), dtype=object)
        uniq, tcode = np.unique(terms, return_inverse=True)
        conv = tbl["conv"].to_numpy(zero_copy_only=False)
        tf = tbl["tf"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tcode, conv))
        c_s, t_s, f_s = conv[order], tcode[order], tf[order]
        new = np.empty(c_s.size, dtype=bool)
        new[0] = True
        new[1:] = (c_s[1:] != c_s[:-1]) | (t_s[1:] != t_s[:-1])
        starts = np.flatnonzero(new)
        g_conv, g_tcode = c_s[new], t_s[new]
        g_tf = np.add.reduceat(f_s, starts)
        if df_map is not None:
            u_df = np.fromiter((df_map[t] for t in uniq.tolist()),
                               dtype=np.int64, count=uniq.size)
            g_df = u_df[g_tcode]
        else:
            dfc = tbl["df"].to_numpy(zero_copy_only=False)
            g_df = dfc[order][new]      # identical within a group
        idf = np.log((1.0 + n_docs) / (1.0 + g_df.astype(np.float64))) + 1.0
        score = np.floor(g_tf.astype(np.float64) * idf
                         * float(IDF_QUANT)).astype(np.int64)
        sel = np.lexsort((g_tcode, -score, g_conv))
        cs = g_conv[sel]
        first = np.empty(cs.size, dtype=bool)
        first[0] = True
        first[1:] = cs[1:] != cs[:-1]
        rank = np.arange(cs.size, dtype=np.int64) \
            - np.repeat(np.flatnonzero(first),
                        np.diff(np.append(np.flatnonzero(first), cs.size)))
        keep = rank < k
        return pa.table({
            "conv": pa.array(cs[keep], pa.uint64()),
            "rank": pa.array((rank[keep] + 1).astype(np.int32), pa.int32()),
            "term": pa.array(uniq[g_tcode[sel][keep]].tolist(), pa.string()),
            "score_q": pa.array(score[sel][keep], pa.int64()),
        })

    return fold


def _dedup_conv_map(index_dir: str):
    """conv_map sidecar -> distinct (conv, conv_id) Dataset (the sidecar
    holds one row per conversation PER BATCH it appeared in)."""
    import glob as _glob

    import ray.data as rd

    from .exchange import exchange_by_key

    files = sorted(_glob.glob(os.path.join(
        index_dir, "conv_map", "shard=*", "*.parquet")))
    ds = rd.read_parquet(files, columns=["conv_hash", "conv_id"])

    def distinct(tbl: pa.Table) -> pa.Table:
        ch = tbl["conv_hash"].to_numpy(zero_copy_only=False)
        order = np.argsort(ch, kind="stable")
        ch_s = ch[order]
        new = np.empty(ch_s.size, dtype=bool)
        if ch_s.size:
            new[0] = True
            new[1:] = ch_s[1:] != ch_s[:-1]
        cid = np.asarray(tbl["conv_id"].to_pylist(), dtype=object)[order]
        return pa.table({
            "conv": pa.array(ch_s[new] if ch_s.size else [], pa.uint64()),
            "conv_id": pa.array(cid[new].tolist() if ch_s.size else [],
                                pa.string()),
        })

    return exchange_by_key(ds, "conv_hash", distinct)


def conv_keywords(index_dir: str, k: int = 3,
                  broadcast_max: int = BROADCAST_MAX) -> pa.Table:
    """Top-k TF-IDF keywords per conversation, from the index itself."""
    import ray
    import ray.data as rd

    from ..index.reader import segment_files
    from ..index.stats import term_stats_ds
    from .exchange import exchange_by_key, hash_join
    from .textstats import _word_arr_slices, fnv64_slices

    with open(os.path.join(index_dir, "corpus_stats.json")) as f:
        n_docs = int(json.load(f)["n_docs"])
    seg = rd.read_parquet(segment_files(index_dir), columns=["term", "df", "doc_ids", "tfs"])
    partials = seg.map_batches(_kw_explode_batch, batch_format="pyarrow",
                               zero_copy_batch=True)

    n_vocab = term_stats_ds(index_dir).count()
    if n_vocab <= broadcast_max:
        stats = pa.concat_tables(
            [t for t in ray.get(term_stats_ds(index_dir).to_arrow_refs())
             if t.num_rows])
        df_map = dict(zip(stats["term"].to_pylist(),
                          stats["df"].to_pylist()))
        scored = exchange_by_key(partials, "conv",
                                 _kw_fold(n_docs, k, df_map))
    else:
        # big-dictionary route: attach df through the partitioned-file
        # hash join on the term hash (equality-verified), THEN exchange
        # by conversation for the top-k fold
        def add_thash(tbl: pa.Table, col: str) -> pa.Table:
            w = np.asarray(tbl[col].to_pylist(), dtype=object)
            return tbl.append_column(
                "thash", pa.array(fnv64_slices(*_word_arr_slices(w)),
                                  pa.uint64()))

        left = partials.map_batches(lambda b: add_thash(b, "term"),
                                    batch_format="pyarrow")
        right = term_stats_ds(index_dir).map_batches(
            lambda b: add_thash(
                b.rename_columns(["term_r", "df", "cf"]), "term_r"),
            batch_format="pyarrow").drop_columns(["cf"])
        joined = hash_join(left, right, "thash", "thash")

        def verify(tbl: pa.Table) -> pa.Table:
            tbl = tbl.filter(pc.equal(tbl["term"], tbl["term_r"]))
            return tbl.select(["conv", "term", "tf", "df"])

        joined = joined.map_batches(verify, batch_format="pyarrow")
        scored = exchange_by_key(joined, "conv", _kw_fold(n_docs, k, None))

    resolved = hash_join(scored, _dedup_conv_map(index_dir),
                         "conv", "conv")
    parts = [t.select(["conv_id", "rank", "term", "score_q"])
             for t in ray.get(resolved.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "rank": pa.array([], pa.int32()),
                         "term": pa.array([], pa.string()),
                         "score_q": pa.array([], pa.int64())})
    tbl = pa.concat_tables(parts).combine_chunks()
    return tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("conv_id", "ascending"), ("rank", "ascending")]))


def conv_keywords_sql(k: int = 3) -> str:
    """Oracle: the porter stem-map re-derivation (`_analysis_ctes`) ->
    per-conversation tf -> engine idf v2 -> floor(tf*idf*1e7) ->
    row_number top-k with (score desc, term asc) ties."""
    from .porter_oracle import _analysis_ctes

    return f"""{_analysis_ctes()},
ctf AS (SELECT conv_id, term, CAST(sum(tf) AS BIGINT) AS tf
        FROM tf GROUP BY 1, 2),
scored AS (
  SELECT c.conv_id, c.term,
         CAST(floor(CAST(c.tf AS DOUBLE)
                    * (ln((1.0 + s.n) / (1.0 + d.df)) + 1.0)
                    * {float(IDF_QUANT)}) AS BIGINT) AS score_q
  FROM ctf c JOIN df d USING (term) CROSS JOIN stats s),
ranked AS (
  SELECT conv_id, term, score_q,
         CAST(row_number() OVER (PARTITION BY conv_id
                                 ORDER BY score_q DESC, term)
              AS INTEGER) AS rank
  FROM scored)
SELECT conv_id, rank, term, score_q
FROM ranked WHERE rank <= {k}
ORDER BY conv_id, rank"""
