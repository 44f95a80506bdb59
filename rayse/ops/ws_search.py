"""DuckDB-green ranked retrieval through the REAL index engine.

The Porter analyzer chain is not SQL-expressible, so the flagship BM25
pipeline only gets rows-only driver checks. This module closes that gap
(VERDICT r1 §missing #3): the SAME build pipeline (tokenize combiner →
partitioned runs → per-part merge → segment read) with the WHITESPACE
analyzer (``IndexConfig(analyzer="whitespace")``) is exactly expressible in
SQL — tokens are ``string_split(text, ' ')``, dl/tf/df/avgdl are plain
aggregates — so ranked BM25 top-k, positional phrase match, and
role-filtered retrieval all become hash-matched DuckDB oracles.

Score quantization: both sides rank by ``floor(score * 1e7)`` (int64) with
(conv_id, turn_idx) tie-breaks, so float summation-order noise (~1e-14)
cannot flip ranks except exactly on a quantization boundary.

The transcripts table is derived from ``documents`` by
`rayse.pipelines.transcripts` (40-word turns, ``conv-%09d`` ids,
user/assistant alternating) and the derivation is replicated byte-exactly
by the ``turns`` CTE below (pinned in tests/test_ws_search.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import BM25Params
from ..index.reader import IndexReader
from ..index.segments import ROLE_CODES, bm25_tf
from ..pipelines.hydrate import resolve_conv_ids
from ..stages.doc_ids import TURN_BITS

# Fixed whitespace-retrieval query sets (distinct words, document-table
# vocabulary). Baked into both the Ray functions and the SQL strings.
WS_QUERIES = ["table scan", "hash join merge", "window agg",
              "customer query plan"]
WS_PHRASES = ["table scan", "hash join", "query plan"]
# (op, left phrase, right phrase) — SE1-SE3 set algebra exercised through
# the positional index under the same SQL oracle machinery
WS_BOOLEANS = [("AND", "table scan", "merge sort"),
               ("OR", "hash join", "window agg"),
               ("NOT", "sort merge", "table scan")]
# A8 retrieval-ladder queries: the word-soup corpus co-locates every vocab
# word, so the lower tiers are forced with out-of-vocabulary terms
# (mx < ceil(n/2) can only happen when some query terms have df = 0)
WS_FALLBACKS = ["table scan",               # 'all': both words co-occur
                "scan merge qqoovhalf",     # 'half': 2 of 3 present
                "scan qqoova qqoovb"]       # 'any': 1 of 3 present

def turns_cte(doc_filter: str = "") -> str:
    """The transcripts derivation as a CTE chunk; ``doc_filter`` is an
    optional SQL boolean over ``doc_id`` (corpus-subset oracles, e.g.
    the delete+compact arm)."""
    where = f" WHERE {doc_filter}" if doc_filter else ""
    return f"""
words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents{where}),
turns AS (
  SELECT 'conv-' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS conv_id,
         CAST(u.t AS INTEGER) AS turn_idx,
         array_to_string(list_slice(w, u.t*40 + 1, u.t*40 + 40), ' ') AS text
  FROM words,
       UNNEST(range(CAST(greatest(1, ceil(len(w) / 40.0)) AS BIGINT)))
         AS u(t))"""


_TURNS_CTE = turns_cte()


def _scoring_ctes(queries: list[str]) -> str:
    vals = ", ".join(
        f"('{q}', '{t}')" for q in queries for t in dict.fromkeys(q.split()))
    return f"""
WITH {_TURNS_CTE},
dl AS (SELECT conv_id, turn_idx, len(string_split(text, ' ')) AS dl
       FROM turns),
tok AS (SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS term
        FROM turns),
tf AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY 1, 2, 3),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3)"""


def ws_bm25_sql(queries: list[str] | None = None, k: int = 10,
                assistant_only: bool = False) -> str:
    """DuckDB oracle for ``ws_bm25_topk`` (same quantized ranking)."""
    queries = queries if queries is not None else WS_QUERIES
    where = "WHERE turn_idx % 2 = 1" if assistant_only else ""
    return f"""{_scoring_ctes(queries)},
quant AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q
  FROM scored {where}),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


def ws_phrase_sql(phrases: list[str] | None = None) -> str:
    """DuckDB oracle for ``ws_phrase_matches``: token adjacency on
    single-space-joined text == padded substring match (split/join are
    inverses, so the bytes between adjacent tokens are exactly one
    space)."""
    phrases = phrases if phrases is not None else WS_PHRASES
    vals = ", ".join(f"('{p}')" for p in phrases)
    return f"""
WITH {_TURNS_CTE},
ph(phrase) AS (VALUES {vals})
SELECT ph.phrase, t.conv_id, t.turn_idx
FROM turns t JOIN ph
  ON contains(' ' || t.text || ' ', ' ' || ph.phrase || ' ')"""


def _ws_reader(index_dir: str) -> tuple[IndexReader, BM25Params]:
    reader = IndexReader(index_dir)
    if reader.meta["analyzer"] != "whitespace":
        raise ValueError(f"{index_dir} is not a whitespace-analyzer index")
    return reader, BM25Params(**reader.meta["bm25"])


def ws_bm25_topk(index_dir: str, queries: list[str] | None = None,
                 k: int = 10, role: str | None = None) -> pa.Table:
    """Exhaustive disjunctive BM25 over the whitespace index, ranked by
    quantized score with (conv_id, turn_idx) tie-breaks — the
    SQL-comparable flagship. ``role`` filters postings by role code
    (exercises the M6 role-scoped index path under a DuckDB oracle)."""
    queries = queries if queries is not None else WS_QUERIES
    reader, params = _ws_reader(index_dir)
    role_code = ROLE_CODES[role] if role is not None else None
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        terms = list(dict.fromkeys(q.split(" ")))
        doc_arrs, contrib_arrs = [], []
        for t in terms:
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size)) + 1.0)
            contrib = idf * bm25_tf(pl.tfs, pl.dls, avgdl, params)
            d = pl.doc_ids
            if role_code is not None:
                m = pl.roles == role_code
                d, contrib = d[m], contrib[m]
            doc_arrs.append(d)
            contrib_arrs.append(contrib)
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs), return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)
        if uniq.size > k:
            kth = -np.partition(-score_q, k - 1)[k - 1]
            keep = score_q >= kth     # keep boundary ties for the tie-break
            uniq, score_q = uniq[keep], score_q[keep]
        cmap = resolve_conv_ids(reader.index_dir, uniq)
        rows = sorted(
            ((-int(sq), cmap[int(d) >> TURN_BITS],
              int(d) & ((1 << TURN_BITS) - 1))
             for d, sq in zip(uniq.tolist(), score_q.tolist())))[:k]
        for r, (nsq, conv, turn) in enumerate(rows, 1):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(-nsq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def ws_boolean_topk(index_dir: str,
                    exprs: list[tuple] | None = None,
                    k: int = 10) -> pa.Table:
    """SE1-SE3 boolean set algebra over POSITIONAL phrase matches, BM25
    scored (the engine's `boolean()` semantics: AND/OR score the union of
    both phrases' terms, NOT scores only the kept side's terms), ranked by
    quantized score with (conv_id, turn_idx) tie-breaks — the boolean
    retrieval path (`ComplexPhraseSearching.java:84-103` set algebra)
    under a DuckDB oracle."""
    from ..query.engine import SearchEngine, score_docs

    exprs = exprs if exprs is not None else WS_BOOLEANS
    _ws_reader(index_dir)
    eng = SearchEngine(index_dir)
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for op, left, right in exprs:
        lt, rt = left.split(" "), right.split(" ")
        ldocs = eng.phrase_docs(lt)
        rdocs = eng.phrase_docs(rt)
        if op == "AND":
            docs = np.intersect1d(ldocs, rdocs, assume_unique=True)
            terms = list(dict.fromkeys(lt + rt))
        elif op == "OR":
            docs = np.union1d(ldocs, rdocs)
            terms = list(dict.fromkeys(lt + rt))
        elif op == "NOT":
            docs = np.setdiff1d(ldocs, rdocs, assume_unique=True)
            terms = list(dict.fromkeys(lt))
        else:
            raise ValueError(op)
        if docs.size == 0:
            continue
        scores = score_docs(eng.reader, docs, terms, eng._idfs(terms),
                            eng.reader.avgdl, eng.params)
        score_q = np.floor(scores * 1e7).astype(np.int64)
        if docs.size > k:
            kth = -np.partition(-score_q, k - 1)[k - 1]
            keep = score_q >= kth     # keep boundary ties for the tie-break
            docs, score_q = docs[keep], score_q[keep]
        cmap = resolve_conv_ids(eng.reader.index_dir, docs)
        label = f"{left} {op} {right}"
        rows = sorted(
            ((-int(sq), cmap[int(d) >> TURN_BITS],
              int(d) & ((1 << TURN_BITS) - 1))
             for d, sq in zip(docs.tolist(), score_q.tolist())))[:k]
        for r, (nsq, conv, turn) in enumerate(rows, 1):
            out_q.append(label)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(-nsq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def ws_boolean_sql(exprs: list[tuple] | None = None, k: int = 10) -> str:
    """DuckDB oracle for ``ws_boolean_topk``: per-expression phrase-match
    sets via the padded-substring equivalence, INTERSECT / UNION / EXCEPT
    set algebra, BM25 scoring restricted to the eligible set (every
    eligible turn contains at least one score term by construction, so
    the scoring join drops nothing), quantized ranking."""
    exprs = exprs if exprs is not None else WS_BOOLEANS
    setop = {"AND": "INTERSECT", "OR": "UNION", "NOT": "EXCEPT"}
    parts = []
    for op, left, right in exprs:
        terms = (left.split(" ") if op == "NOT"
                 else left.split(" ") + right.split(" "))
        vals = ", ".join(f"('{t}')" for t in dict.fromkeys(terms))
        parts.append(f"""
  SELECT '{left} {op} {right}' AS query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM (VALUES {vals}) qt(term)
  JOIN tf USING (term) JOIN df USING (term)
  JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
  JOIN (SELECT conv_id, turn_idx FROM turns
        WHERE contains(' ' || text || ' ', ' {left} ')
        {setop[op]}
        SELECT conv_id, turn_idx FROM turns
        WHERE contains(' ' || text || ' ', ' {right} ')) e
    ON tf.conv_id = e.conv_id AND tf.turn_idx = e.turn_idx
  CROSS JOIN stats s
  GROUP BY 1, 2, 3""")
    union = "\n  UNION ALL\n".join(parts)
    return f"""
WITH {_TURNS_CTE},
dl AS (SELECT conv_id, turn_idx, len(string_split(text, ' ')) AS dl
       FROM turns),
tok AS (SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS term
        FROM turns),
tf AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY 1, 2, 3),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
scored AS ({union}),
quant AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q
  FROM scored),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


def ws_fallback_topk(index_dir: str, queries: list[str] | None = None,
                     k: int = 10) -> pa.Table:
    """A8 retrieval ladder (all terms -> >=ceil(n/2) -> any,
    `QueryService.java:595-670` semantics via `postprocess.
    search_with_fallback`) through the whitespace index: one
    union-accumulate pass yields (docs, scores, nmatch); the highest
    non-empty tier is selected and BM25-ranked with quantized scores —
    tier choice AND ranking both under the SQL oracle."""
    from ..query.engine import SearchEngine, accumulate

    queries = queries if queries is not None else WS_FALLBACKS
    _ws_reader(index_dir)
    eng = SearchEngine(index_dir)
    out = {c: [] for c in
           ("query", "tier", "rank", "conv_id", "turn_idx", "score_q")}
    for q in queries:
        terms = list(dict.fromkeys(q.split(" ")))
        n = len(terms)
        d, s, m = accumulate(eng.reader, terms, eng._idfs(terms),
                             eng.reader.avgdl, eng.params)
        mx = int(m.max()) if d.size else 0
        half = (n + 1) // 2
        if mx == n and d.size:
            tier, thr = "all", n
        elif n > 1 and mx >= half:
            tier, thr = "half", half
        else:
            tier, thr = "any", 1
        keep = m >= thr
        docs, score_q = d[keep], np.floor(s[keep] * 1e7).astype(np.int64)
        if docs.size == 0:
            continue
        if docs.size > k:
            kth = -np.partition(-score_q, k - 1)[k - 1]
            sel = score_q >= kth      # keep boundary ties for the tie-break
            docs, score_q = docs[sel], score_q[sel]
        cmap = resolve_conv_ids(eng.reader.index_dir, docs)
        rows = sorted(
            ((-int(sq), cmap[int(dd) >> TURN_BITS],
              int(dd) & ((1 << TURN_BITS) - 1))
             for dd, sq in zip(docs.tolist(), score_q.tolist())))[:k]
        for r, (nsq, conv, turn) in enumerate(rows, 1):
            out["query"].append(q)
            out["tier"].append(tier)
            out["rank"].append(r)
            out["conv_id"].append(conv)
            out["turn_idx"].append(turn)
            out["score_q"].append(-nsq)
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "tier": pa.array(out["tier"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "score_q": pa.array(out["score_q"], pa.int64()),
    })


def ws_fallback_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """DuckDB oracle for ``ws_fallback_topk``: per-turn nmatch from the
    scoring join, per-query tier via max(nmatch) against the baked-in
    term count (OOV terms count toward n but never match), threshold
    filter, quantized ranking."""
    queries = queries if queries is not None else WS_FALLBACKS
    vals = ", ".join(
        f"('{q}', '{t}')" for q in queries for t in dict.fromkeys(q.split()))
    qn = ", ".join(f"('{q}', {len(dict.fromkeys(q.split()))})"
                   for q in queries)
    return f"""
WITH {_TURNS_CTE},
dl AS (SELECT conv_id, turn_idx, len(string_split(text, ' ')) AS dl
       FROM turns),
tok AS (SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS term
        FROM turns),
tf AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY 1, 2, 3),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
qt(query, term) AS (VALUES {vals}),
qn(query, n_terms) AS (VALUES {qn}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score,
         count(*) AS nmatch
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
sel AS (
  SELECT q.query,
         CASE WHEN m.mx = q.n_terms THEN 'all'
              WHEN q.n_terms > 1 AND m.mx >= (q.n_terms + 1) // 2
                THEN 'half'
              ELSE 'any' END AS tier,
         CASE WHEN m.mx = q.n_terms THEN q.n_terms
              WHEN q.n_terms > 1 AND m.mx >= (q.n_terms + 1) // 2
                THEN (q.n_terms + 1) // 2
              ELSE 1 END AS thr
  FROM qn q JOIN (SELECT query, max(nmatch) AS mx FROM scored
                  GROUP BY query) m USING (query)),
quant AS (
  SELECT s.query, sel.tier, s.conv_id, s.turn_idx,
         CAST(floor(s.score * 10000000) AS BIGINT) AS score_q
  FROM scored s JOIN sel USING (query)
  WHERE s.nmatch >= sel.thr),
ranked AS (
  SELECT query, tier, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, tier, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


def ws_term_stats(index_dir: str) -> pa.Table:
    """Global term dictionary (term, df, cf) from the whitespace index's
    per-part segment stats — the A1-A3 words/word_idf analog under a SQL
    oracle (per-part partial sums -> one distributed groupby-sum)."""
    from rayse.index.stats import term_stats_table

    _ws_reader(index_dir)  # ensure the index exists / is cached
    return term_stats_table(index_dir)


def ws_term_stats_sql() -> str:
    return f"""
WITH {_TURNS_CTE},
tok AS (SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS term
        FROM turns),
tf AS (SELECT conv_id, turn_idx, term, count(*) AS tf
       FROM tok GROUP BY 1, 2, 3)
SELECT term, CAST(count(*) AS BIGINT) AS df, CAST(sum(tf) AS BIGINT) AS cf
FROM tf GROUP BY term"""


def ws_phrase_matches(index_dir: str,
                      phrases: list[str] | None = None) -> pa.Table:
    """ALL turns containing each phrase as adjacent tokens — the positional
    phrase machinery (J6) under a DuckDB substring oracle."""
    from ..query.engine import phrase_match

    phrases = phrases if phrases is not None else WS_PHRASES
    reader, _ = _ws_reader(index_dir)
    out_p, out_c, out_t = [], [], []
    for p in phrases:
        docs = phrase_match(reader, p.split(" "))
        if docs.size == 0:
            continue
        cmap = resolve_conv_ids(reader.index_dir, docs)
        for d in docs.tolist():
            out_p.append(p)
            out_c.append(cmap[int(d) >> TURN_BITS])
            out_t.append(int(d) & ((1 << TURN_BITS) - 1))
    return pa.table({
        "phrase": pa.array(out_p, pa.string()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
    })


def ws_proximity_topk(index_dir: str, queries: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """A11 proximity-boosted ranking through the real positional index:
    BM25 union score + the production tiered proximity bonus
    (``postprocess.proximity_bonus`` — min pairwise token distance between
    DIFFERENT query terms: <=3 -> +2.0, <=10 -> +1.0, <=50 -> +0.5),
    ranked by quantized total with (conv_id, turn_idx) tie-breaks. Flips
    the A11 scorer from pytest-only to a hash-matched DuckDB oracle."""
    from ..index.segments import bm25_tf as _bm25_tf
    from ..query.postprocess import proximity_bonus

    queries = queries if queries is not None else WS_QUERIES
    reader, params = _ws_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        terms = list(dict.fromkeys(q.split(" ")))
        present = []                     # (doc_ids, contrib, per-doc pos)
        for t in terms:
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size)) + 1.0)
            contrib = idf * _bm25_tf(pl.tfs, pl.dls, avgdl, params)
            present.append((pl.doc_ids, contrib, pl.positions()))
        if not present:
            continue
        uniq, inv = np.unique(np.concatenate([p[0] for p in present]),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate([p[1] for p in present]))
        # per-doc per-term position lists -> the production A11 scorer
        pos_by_doc: list[list] = [[None] * len(present)
                                  for _ in range(uniq.size)]
        for ti, (d, _, plist) in enumerate(present):
            rows = np.searchsorted(uniq, d)
            for r, parr in zip(rows.tolist(), plist):
                pos_by_doc[r][ti] = parr
        bonus = np.fromiter((proximity_bonus(p) for p in pos_by_doc),
                            dtype=np.float64, count=uniq.size)
        score_q = np.floor((scores + bonus) * 1e7).astype(np.int64)
        if uniq.size > k:
            kth = -np.partition(-score_q, k - 1)[k - 1]
            keep = score_q >= kth     # keep boundary ties for the tie-break
            uniq, score_q = uniq[keep], score_q[keep]
        cmap = resolve_conv_ids(reader.index_dir, uniq)
        rows = sorted(
            ((-int(sq), cmap[int(d) >> TURN_BITS],
              int(d) & ((1 << TURN_BITS) - 1))
             for d, sq in zip(uniq.tolist(), score_q.tolist())))[:k]
        for r, (nsq, conv, turn) in enumerate(rows, 1):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(-nsq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def ws_proximity_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """DuckDB oracle for ``ws_proximity_topk``: token positions via
    list indexing over the split text, min pairwise distance per
    (query, turn) over all distinct term pairs, tier CASE, and the same
    quantized ranking. Docs matching only one query term get no bonus row
    (LEFT JOIN -> coalesce 0), mirroring proximity_bonus's <2-terms
    short-circuit."""
    queries = queries if queries is not None else WS_QUERIES
    pair_vals = []
    for q in queries:
        ts = list(dict.fromkeys(q.split(" ")))
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                pair_vals.append(f"('{q}', '{ts[i]}', '{ts[j]}')")
    pairs = ", ".join(pair_vals)
    return f"""{_scoring_ctes(queries)},
tokp AS (
  SELECT w.conv_id, w.turn_idx, CAST(u.i AS BIGINT) AS pos,
         w.wl[CAST(u.i AS INTEGER) + 1] AS term
  FROM (SELECT conv_id, turn_idx, string_split(text, ' ') AS wl
        FROM turns) w,
       UNNEST(range(len(w.wl))) u(i)),
qp(query, t1, t2) AS (VALUES {pairs}),
mind AS (
  SELECT qp.query, a.conv_id, a.turn_idx, min(abs(a.pos - b.pos)) AS d
  FROM qp
  JOIN tokp a ON a.term = qp.t1
  JOIN tokp b ON b.term = qp.t2
   AND a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
  GROUP BY 1, 2, 3),
bon AS (
  SELECT query, conv_id, turn_idx,
         CASE WHEN min(d) <= 3 THEN 2.0
              WHEN min(d) <= 10 THEN 1.0
              WHEN min(d) <= 50 THEN 0.5
              ELSE 0.0 END AS b
  FROM mind GROUP BY 1, 2, 3),
quant AS (
  SELECT s.query, s.conv_id, s.turn_idx,
         CAST(floor((s.score + coalesce(bon.b, 0.0)) * 10000000) AS BIGINT)
           AS score_q
  FROM scored s LEFT JOIN bon
    ON s.query = bon.query AND s.conv_id = bon.conv_id
   AND s.turn_idx = bon.turn_idx),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# The ws rank matrix: every ranked whitespace-index retrieval variant
# above, unioned under one driver entry (mirror of
# ``porter_oracle.porter_rank_matrix`` — the driver's correctness gate
# checks only the first 50 queries() entries, and the five ranked ws
# variants share one output shape (query, rank, conv_id, turn_idx,
# score_q [, tier]), so a single tagged UNION keeps each variant
# hash-checked while spending one window slot). The individual entries
# remain in queries() after the window; tests pin each at sf0.001.
# ---------------------------------------------------------------------------

def _ws_matrix_arms(index_dir: str | None, k: int = 10):
    """(variant, ray_thunk, sql) per ranked ws retrieval mode."""
    d = index_dir
    return [
        ("bm25", lambda: ws_bm25_topk(d, k=k), ws_bm25_sql(k=k)),
        ("role", lambda: ws_bm25_topk(d, k=k, role="assistant"),
         ws_bm25_sql(k=k, assistant_only=True)),
        ("boolean", lambda: ws_boolean_topk(d, k=k), ws_boolean_sql(k=k)),
        ("fallback", lambda: ws_fallback_topk(d, k=k), ws_fallback_sql(k=k)),
        ("proximity", lambda: ws_proximity_topk(d, k=k),
         ws_proximity_sql(k=k)),
    ]


def ws_rank_matrix(index_dir: str, k: int = 10,
                   porter_dir: str | None = None) -> pa.Table:
    """Every ranked retrieval mode of the whitespace-index pipeline —
    exhaustive BM25, role-scoped BM25, boolean set algebra, the A8
    fallback ladder, and A11 proximity boosting — as one tagged table,
    each variant DuckDB hash-matched. With ``porter_dir`` the hybrid
    reciprocal-rank-fusion retriever (``rayse.ops.fusion``) rides as a
    sixth arm, fusing this index's BM25 list with the Porter engine's."""
    _ws_reader(index_dir)
    arms = list(_ws_matrix_arms(index_dir, k))
    if porter_dir is not None:
        from .fusion import rrf_fusion

        arms.append(("rrf",
                     lambda: rrf_fusion(porter_dir, index_dir, k=k), ""))
    parts = []
    for variant, thunk, _ in arms:
        t = thunk()
        n = t.num_rows
        tier = (t["tier"] if "tier" in t.column_names
                else pa.array([""] * n, pa.string()))
        parts.append(pa.table({
            "variant": pa.array([variant] * n, pa.string()),
            "query": t["query"],
            "rank": t["rank"],
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "score_q": t["score_q"],
            "tier": tier,
        }))
    return pa.concat_tables(parts)


def ws_rank_matrix_sql(k: int = 10, include_rrf: bool = False) -> str:
    """Oracle for ``ws_rank_matrix``: each variant's full oracle as a
    tagged UNION ALL arm (plus the composed RRF oracle when the fusion
    arm is enabled)."""
    pairs = [(variant, sql) for variant, _, sql in _ws_matrix_arms(None, k)]
    if include_rrf:
        from .fusion import rrf_fusion_sql

        pairs.append(("rrf", rrf_fusion_sql(k=k)))
    arms = []
    for variant, sql in pairs:
        tier = "tier" if variant == "fallback" else "'' AS tier"
        arms.append(
            f"SELECT '{variant}' AS variant, query, rank, conv_id, "
            f"turn_idx, score_q, {tier}\nFROM (\n{sql}\n)")
    return "\nUNION ALL\n".join(arms)
