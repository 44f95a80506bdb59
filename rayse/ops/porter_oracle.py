"""Full Porter-analyzer retrieval under DuckDB oracles — the flagship path.

The synthetic corpus draws from a CLOSED 31-word vocabulary (identical
at sf0.001/0.01/0.1), so the Porter analyzer chain — regex tokenize
(`PreIndexer.java:93-163` semantics) -> length/stopword filter
(`PreIndexer.java:41-46`) -> Porter stem (`PreIndexer.java:165-178`) —
is fully enumerable as a (word -> stem) mapping computed by the
PRODUCTION analyzer and embedded as a VALUES CTE.
On this corpus ``tokenize(text) == text.split(' ')`` (plain lowercase
words, single spaces — pinned by test), so ``string_split`` + the mapping
join reproduces the analyzed token stream exactly, and ranked BM25,
positional phrase matching, and the term dictionary over the REAL Porter
index become hash-matched DuckDB oracles.

Failure mode is loud, never silent: an out-of-vocabulary word in the data
is indexed by the engine but dropped by the oracle's inner join, so the
driver records a hash mismatch instead of a false pass.

Score quantization: both sides rank by ``floor(score * 1e7)`` (int64)
with (conv_id, turn_idx) tie-breaks, so float summation-order noise
(~1e-14) cannot flip ranks except exactly on a quantization boundary.

The transcripts table is derived from ``documents`` by
`rayse.pipelines.transcripts` (40-word turns, ``conv-%09d`` ids,
user/assistant alternating) and the derivation is replicated byte-exactly
by the ``turns`` CTE below.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.reader import IndexReader
from ..index.segments import bm25_tf
from ..config import BM25Params
from ..pipelines.hydrate import resolve_conv_ids
from ..stages.doc_ids import TURN_BITS, conv_hash

# The generator's closed word list (every sf dir; pinned by
# tests/test_porter_oracle.py::test_vocab_closure).
CORPUS_VOCAB = [
    "a", "agg", "batch", "big", "column", "customer", "data", "dup",
    "fast", "filter", "group", "hash", "join", "key", "line", "merge",
    "order", "part", "query", "row", "scan", "slow", "small", "sort",
    "spark", "stream", "table", "the", "value", "vector", "window",
]

# Flagship query sets (mirrors __ray_entry__ SEARCH/PHRASE_QUERIES).
PORTER_QUERIES = ["table scan", "hash join merge", "window agg", "spark",
                  "customer query plan", "slow", "vector group filter"]
PORTER_PHRASES = ["table scan", "hash join", "window agg batch"]
# SE1-SE3 boolean set algebra (the flagship BOOLEAN_QUERIES operands).
PORTER_BOOLEANS = [("AND", "table scan", "hash join"),
                   ("OR", "table scan", "hash join"),
                   ("NOT", "table scan", "hash join")]
# A8 ladder: lower tiers forced with out-of-vocabulary (df = 0) words that
# SURVIVE the analyzer (length > 1, not stopwords).
PORTER_FALLBACKS = ["table scan",
                    "scan merge qqoovhalf",
                    "scan qqoova qqoovb"]


def _analyzed(q: str) -> list[str]:
    """Deduped analyzed term set (bm25 scoring)."""
    from ..analyzer import analyze

    return list(dict.fromkeys(analyze(q)))


def _analyzed_seq(p: str) -> list[str]:
    """Analyzed term SEQUENCE (phrases: order and duplicates preserved)."""
    from ..analyzer import analyze

    return analyze(p)


def _stem_map() -> list[tuple[str, str]]:
    """(word, stem) pairs from the production analyzer; filtered words
    (stopword / length <= 1) are omitted -> the SQL inner join drops them,
    mirroring the analyzer's None decision."""
    from ..analyzer import analyze

    out = []
    for w in CORPUS_VOCAB:
        s = analyze(w)
        if s:
            out.append((w, s[0]))
    return out


def _porter_reader(index_dir: str) -> tuple[IndexReader, BM25Params]:
    reader = IndexReader(index_dir)
    return reader, BM25Params(**reader.meta["bm25"])


def _ranked_rows(index_dir: str, docs, score_q, k: int):
    """THE quantized ranking tail shared by every ranked entry: cut to the
    k-th quantized score keeping boundary ties (the (conv_id, turn_idx)
    tie-break below decides among them, matching the SQL row_number
    order), resolve conv ids, and emit [(rank, conv_id, turn_idx,
    score_q)] sorted by (score_q desc, conv_id, turn_idx)."""
    if docs.size > k:
        kth = -np.partition(-score_q, k - 1)[k - 1]
        keep = score_q >= kth     # keep boundary ties for the tie-break
        docs, score_q = docs[keep], score_q[keep]
    cmap = resolve_conv_ids(index_dir, docs)
    rows = sorted(
        ((-int(sq), cmap[int(d) >> TURN_BITS],
          int(d) & ((1 << TURN_BITS) - 1))
         for d, sq in zip(docs.tolist(), score_q.tolist())))[:k]
    return [(r, conv, turn, -nsq)
            for r, (nsq, conv, turn) in enumerate(rows, 1)]

# ---------------------------------------------------------------------------
# SQL building blocks
# ---------------------------------------------------------------------------

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


def _analysis_ctes(doc_filter: str = "") -> str:
    """turns -> raw word positions -> analyzer map join -> tf/df/dl/stats.

    ``n`` counts ALL turns (compute_corpus_stats uses the full turn count)
    and ``avgdl = sum(kept tokens) / n`` — exactly the build's
    ``total_tokens / n_docs`` float division. ``doc_filter`` restricts
    the corpus (SQL boolean over doc_id) — corpus-subset oracles such as
    the delete+compact arm."""
    vals = ", ".join(f"('{w}', '{s}')" for w, s in _stem_map())
    return f"""WITH {turns_cte(doc_filter)},
stemmap(word, stem) AS (VALUES {vals}),
raw AS (
  SELECT t.conv_id, t.turn_idx, CAST(u.i AS BIGINT) AS rawpos,
         t.wl[CAST(u.i AS INTEGER) + 1] AS word
  FROM (SELECT conv_id, turn_idx, string_split(text, ' ') AS wl
        FROM turns) t,
       UNNEST(range(len(t.wl))) u(i)),
ptok AS (
  SELECT r.conv_id, r.turn_idx, r.rawpos, sm.stem AS term
  FROM raw r JOIN stemmap sm ON r.word = sm.word),
dl AS (SELECT conv_id, turn_idx, CAST(count(*) AS BIGINT) AS dl
       FROM ptok GROUP BY 1, 2),
tf AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf
       FROM ptok GROUP BY 1, 2, 3),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
stats AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM turns) AS n,
                 (SELECT CAST(sum(dl) AS DOUBLE) FROM dl)
                   / (SELECT count(*) FROM turns) AS avgdl)"""


def porter_bm25_sql(queries: list[str] | None = None, k: int = 10,
                    assistant_only: bool = False,
                    role_weights: dict | None = None,
                    doc_filter: str = "") -> str:
    """DuckDB oracle for ``porter_bm25_topk``: BM25 over the analyzed
    stream, quantized ranking (identical formula/op order to the engine:
    idf v2 ``ln((1+N)/(1+df)) + 1``, tf part ``tf*(k1+1)/(tf + k1*(1-b
    + b*(dl/avgdl)))`` with k1=1.2, b=0.75). ``assistant_only`` mirrors
    the role filter (assistant turns are odd turn_idx by derivation);
    ``role_weights`` mirrors the A7 per-posting boost LUT — each term
    contribution multiplied by the turn's role weight, the engine's
    (idf*tf)*w order."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    where = "WHERE turn_idx % 2 = 1" if assistant_only else ""
    boost = ""
    if role_weights is not None:
        wu = float(role_weights.get("user", 1.0))
        wa = float(role_weights.get("assistant", 1.0))
        boost = (f" * (CASE WHEN tf.turn_idx % 2 = 1 "
                 f"THEN {wa!r}::DOUBLE ELSE {wu!r}::DOUBLE END)")
    return f"""{_analysis_ctes(doc_filter)},
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum(((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
             {boost})
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


def porter_phrase_sql(phrases: list[str] | None = None) -> str:
    """DuckDB oracle for ``porter_phrase_matches``. Positions are indices
    in the FILTERED+STEMMED stream (`rayse.analyzer` docstring), so
    adjacency there == adjacency in the single-space re-join of the kept
    stems: a padded-substring match over that re-join is the phrase
    test."""
    phrases = phrases if phrases is not None else PORTER_PHRASES
    vals = ", ".join(f"('{p}', '{' '.join(_analyzed_seq(p))}')"
                     for p in phrases)
    return f"""{_analysis_ctes()},
ftext AS (
  SELECT conv_id, turn_idx,
         string_agg(term, ' ' ORDER BY rawpos) AS ft
  FROM ptok GROUP BY 1, 2),
ph(phrase, stemmed) AS (VALUES {vals})
SELECT ph.phrase, f.conv_id, f.turn_idx
FROM ftext f JOIN ph
  ON contains(' ' || f.ft || ' ', ' ' || ph.stemmed || ' ')"""


def porter_term_stats_sql() -> str:
    return f"""{_analysis_ctes()}
SELECT term, df, CAST(sum(tf) AS BIGINT) AS cf
FROM tf JOIN df USING (term) GROUP BY term, df"""


# ---------------------------------------------------------------------------
# Ray-side queries over the real Porter index
# ---------------------------------------------------------------------------

def porter_bm25_topk(index_dir: str, queries: list[str] | None = None,
                     k: int = 10, role: str | None = None) -> pa.Table:
    """Exhaustive disjunctive BM25 through the Porter index (per-term
    postings union-accumulated; terms from the production analyzer),
    quantized ranking with (conv_id, turn_idx) tie-breaks.
    ``role`` filters postings by the M6 per-posting role code."""
    from ..index.segments import ROLE_CODES

    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    role_code = ROLE_CODES[role] if role is not None else None
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
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
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_phrase_matches(index_dir: str,
                          phrases: list[str] | None = None) -> pa.Table:
    """ALL turns containing each analyzed phrase as adjacent positions in
    the Porter index — J6 positional verification on the flagship path."""
    from ..query.engine import phrase_match

    phrases = phrases if phrases is not None else PORTER_PHRASES
    reader, _ = _porter_reader(index_dir)
    out_p, out_c, out_t = [], [], []
    for p in phrases:
        docs = phrase_match(reader, _analyzed_seq(p))
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


def porter_term_stats(index_dir: str) -> pa.Table:
    """Stemmed term dictionary (term, df, cf) from the Porter index's
    segment stats — A1-A3 on the flagship path, as a Ray aggregate."""
    from ..index.stats import term_stats_table

    _porter_reader(index_dir)
    return term_stats_table(index_dir)


def porter_boolean_topk(index_dir: str, exprs: list[tuple] | None = None,
                        k: int = 10) -> pa.Table:
    """SE1-SE3 boolean set algebra over POSITIONAL phrase matches through
    the Porter engine (AND/OR/NOT on analyzed phrases; scoring semantics
    of ``SearchEngine.boolean``), quantized ranking — the flagship
    boolean path under a DuckDB oracle."""
    from ..query.engine import SearchEngine, score_docs

    exprs = exprs if exprs is not None else PORTER_BOOLEANS
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for op, left, right in exprs:
        lt, rt = _analyzed_seq(left), _analyzed_seq(right)
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
        label = f"{left} {op} {right}"
        for r, conv, turn, sq in _ranked_rows(eng.reader.index_dir, docs,
                                              score_q, k):
            out_q.append(label)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_boolean_sql(exprs: list[tuple] | None = None,
                       k: int = 10) -> str:
    """DuckDB oracle for ``porter_boolean_topk``: phrase-match sets via
    the filtered-stream padded-substring equivalence, INTERSECT / UNION /
    EXCEPT, BM25 scoring restricted to the eligible set, quantized
    ranking."""
    exprs = exprs if exprs is not None else PORTER_BOOLEANS
    setop = {"AND": "INTERSECT", "OR": "UNION", "NOT": "EXCEPT"}
    parts = []
    for op, left, right in exprs:
        lt, rt = _analyzed_seq(left), _analyzed_seq(right)
        terms = lt if op == "NOT" else lt + rt
        vals = ", ".join(f"('{t}')" for t in dict.fromkeys(terms))
        lp, rp = " ".join(lt), " ".join(rt)
        parts.append(f"""
  SELECT '{left} {op} {right}' AS query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM (VALUES {vals}) qt(term)
  JOIN tf USING (term) JOIN df USING (term)
  JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
  JOIN (SELECT conv_id, turn_idx FROM ftext
        WHERE contains(' ' || ft || ' ', ' {lp} ')
        {setop[op]}
        SELECT conv_id, turn_idx FROM ftext
        WHERE contains(' ' || ft || ' ', ' {rp} ')) e
    ON tf.conv_id = e.conv_id AND tf.turn_idx = e.turn_idx
  CROSS JOIN stats s
  GROUP BY 1, 2, 3""")
    union = "\n  UNION ALL\n".join(parts)
    return f"""{_analysis_ctes()},
ftext AS (
  SELECT conv_id, turn_idx,
         string_agg(term, ' ' ORDER BY rawpos) AS ft
  FROM ptok GROUP BY 1, 2),
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


def porter_fallback_topk(index_dir: str, queries: list[str] | None = None,
                         k: int = 10) -> pa.Table:
    """A8 retrieval ladder (all -> >=ceil(n/2) -> any) through the Porter
    engine's union-accumulate pass; tier selection AND quantized ranking
    under the SQL oracle. ``n`` counts ANALYZED query terms (OOV words
    that survive the analyzer count toward n but never match)."""
    from ..query.engine import SearchEngine, accumulate
    from ..query.postprocess import fallback_tier

    queries = queries if queries is not None else PORTER_FALLBACKS
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    out = {c: [] for c in
           ("query", "tier", "rank", "conv_id", "turn_idx", "score_q")}
    for q in queries:
        terms = _analyzed(q)
        n = len(terms)
        d, s, m = accumulate(eng.reader, terms, eng._idfs(terms),
                             eng.reader.avgdl, eng.params)
        mx = int(m.max()) if d.size else 0
        tier, thr = fallback_tier(n, mx)
        keep = m >= thr
        docs, score_q = d[keep], np.floor(s[keep] * 1e7).astype(np.int64)
        if docs.size == 0:
            continue
        for r, conv, turn, sq in _ranked_rows(eng.reader.index_dir, docs,
                                              score_q, k):
            out["query"].append(q)
            out["tier"].append(tier)
            out["rank"].append(r)
            out["conv_id"].append(conv)
            out["turn_idx"].append(turn)
            out["score_q"].append(sq)
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "tier": pa.array(out["tier"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "score_q": pa.array(out["score_q"], pa.int64()),
    })


def porter_fallback_sql(queries: list[str] | None = None,
                        k: int = 10) -> str:
    """DuckDB oracle for ``porter_fallback_topk`` over the analyzed
    stream, with Python-analyzed term counts."""
    queries = queries if queries is not None else PORTER_FALLBACKS
    vals = ", ".join(
        f"('{q}', '{t}')" for q in queries for t in _analyzed(q))
    qn = ", ".join(f"('{q}', {len(_analyzed(q))})" for q in queries)
    return f"""{_analysis_ctes()},
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


def porter_hydrated_topk(index_dir: str, transcripts_path: str,
                         queries: list[str] | None = None,
                         k: int = 10) -> pa.Table:
    """J4 hydration on the flagship path under a DuckDB oracle: quantized
    BM25 top-k joined back to the source turns (role, text) via the
    predicate-pushdown ``hydrate`` read — no full-table scan."""
    from ..pipelines.hydrate import hydrate
    from ..stages.doc_ids import doc_id_of

    ranked = porter_bm25_topk(index_dir, queries, k)
    docs = np.array([doc_id_of(c, int(t)) for c, t in
                     zip(ranked["conv_id"].to_pylist(),
                         ranked["turn_idx"].to_pylist())], dtype=np.uint64)
    if docs.size == 0:
        return pa.table({
            "query": pa.array([], pa.string()),
            "rank": pa.array([], pa.int32()),
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "score_q": pa.array([], pa.int64()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
        })
    h = hydrate(index_dir, transcripts_path, docs)
    return pa.table({
        "query": ranked["query"],
        "rank": ranked["rank"],
        "conv_id": ranked["conv_id"],
        "turn_idx": ranked["turn_idx"],
        "score_q": ranked["score_q"],
        "role": h["role"],
        "text": h["text"],
    })


def porter_hydrated_sql(queries: list[str] | None = None,
                        k: int = 10) -> str:
    """Oracle for ``porter_hydrated_topk``: the bm25 ranking joined with
    the turns CTE; role reconstructed from the derivation rule (user on
    even turn_idx, assistant on odd)."""
    inner = porter_bm25_sql(queries, k)
    return f"""
WITH ranked_out AS ({inner})
SELECT r.query, r.rank, r.conv_id, r.turn_idx, r.score_q,
       CASE WHEN r.turn_idx % 2 = 1 THEN 'assistant' ELSE 'user' END
         AS role,
       t.text
FROM ranked_out r
JOIN (SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, text
      FROM ({porter_turns_standalone()})) t
  ON r.conv_id = t.conv_id AND r.turn_idx = t.turn_idx"""


def porter_turns_standalone() -> str:
    """The transcripts-derivation CTE as a standalone SELECT (for reuse
    inside a second WITH scope)."""
    return f"WITH {_TURNS_CTE} SELECT conv_id, turn_idx, text FROM turns"


# ---------------------------------------------------------------------------
# The REAL serving paths under the same oracle: block-max pruned top-k,
# the distributed actor-pool cluster, and J5 conjunctive retrieval.
# ---------------------------------------------------------------------------

def _quantized_search_rows(search_fn, index_dir: str, queries: list[str],
                           k: int) -> pa.Table:
    """Exact quantized top-k through any raw-float exact-top-k search
    callable.

    The engine ranks by raw float score with docID-asc tie-breaks; the SQL
    oracle ranks by ``floor(score*1e7)`` with (conv_id, turn_idx)
    tie-breaks, so the k-boundary SELECTION can differ when raw scores
    quantize equal. Resolution: grow the requested k' until the k'-th raw
    score quantizes STRICTLY below the quantized k-th boundary (or all
    matches are returned) — floor is monotone, so every unreturned doc
    then quantizes below the boundary and the boundary-tie set is provably
    complete — then re-rank by the oracle order and cut to k."""
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        kk = max(4 * k, 16)
        while True:
            docs, scores = search_fn(q, kk)
            if docs.size < kk:
                break
            qv = np.floor(scores * 1e7).astype(np.int64)
            boundary = -np.partition(-qv, k - 1)[k - 1]
            if qv.min() < boundary:
                break
            kk *= 2
        if docs.size == 0:
            continue
        qv = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(index_dir, docs, qv, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_wand_topk(index_dir: str, queries: list[str] | None = None,
                     k: int = 10) -> pa.Table:
    """The DEFAULT serving path — block-max pruned scoring
    (``engine.search`` mode "or" -> ``wand.regular_blockmax``, the
    MaxScore/WAND-style skip over low-upper-bound postings) — under the
    exhaustive BM25 SQL oracle. Pruning is exactness-preserving, so the
    oracle is ``porter_bm25_sql`` unchanged."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(lambda q, kk: eng.search(q, kk),
                                  index_dir, queries, k)


def porter_cluster_topk(index_dir: str, queries: list[str] | None = None,
                        k: int = 10, pool_size: int = 4) -> pa.Table:
    """ST1-ST3/J2 distributed serving under the SQL oracle: per-part
    ``QueryActor`` pool (index loaded once per actor), two-phase global-df
    broadcast, driver k-way merge, ST4-analog result cache. Every query
    runs once cold and once through the cache; both must agree (cached
    results are part of the hashed output)."""
    from ..query.serve import SearchCluster

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    cluster = SearchCluster(index_dir, pool_size=pool_size)
    try:
        def _search(q: str, kk: int):
            cold = cluster.search(q, kk)
            cached = cluster.search(q, kk)
            if not (np.array_equal(cold[0], cached[0])
                    and np.array_equal(cold[1], cached[1])):
                raise AssertionError(f"ST4 cache returned different "
                                     f"results for {q!r}")
            return cached

        return _quantized_search_rows(_search, index_dir, queries, k)
    finally:
        cluster.shutdown()


def porter_conjunctive_topk(index_dir: str,
                            queries: list[str] | None = None,
                            k: int = 10) -> pa.Table:
    """J5 docs-with-all-words (rarest-first sorted-list intersection,
    ``engine.conjunctive``) under a HAVING-count SQL oracle."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda q, kk: eng.search(q, kk, mode="and"), index_dir, queries, k)


def porter_conjunctive_sql(queries: list[str] | None = None,
                           k: int = 10) -> str:
    """DuckDB oracle for ``porter_conjunctive_topk``: BM25 scoring
    restricted to docs matching ALL analyzed query terms (a term with
    df = 0 can never be matched, so any OOV query term empties the result
    — the engine's early-exit on a missing posting list)."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(
        f"('{q}', '{t}')" for q in queries for t in _analyzed(q))
    qn = ", ".join(f"('{q}', {len(_analyzed(q))})" for q in queries)
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
qn(query, n_terms) AS (VALUES {qn}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       JOIN qn ON qn.query = qt.query
       CROSS JOIN stats s
  GROUP BY qt.query, tf.conv_id, tf.turn_idx, qn.n_terms
  HAVING count(*) = qn.n_terms),
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


def porter_complex_topk(index_dir: str, exprs: list[tuple] | None = None,
                        k: int = 10) -> pa.Table:
    """The ComplexPhraseSearching scoring path (A9/A10 analog,
    ``engine.boolean_complex`` — per-word (tf/dl)*log10(N/df) with the
    order-dependent phrase-match doubling quirk) under a DuckDB oracle."""
    from ..query.engine import SearchEngine

    exprs = exprs if exprs is not None else PORTER_BOOLEANS
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    parts = []
    for op, left, right in exprs:
        lt, rt = _analyzed_seq(left), _analyzed_seq(right)
        label = f"{left} {op} {right}"
        parts.append(_quantized_search_rows(
            lambda q, kk, op=op, lt=lt, rt=rt:
                eng.boolean_complex(op, lt, rt, kk),
            index_dir, [label], k))
    return pa.concat_tables(parts)


def porter_complex_sql(exprs: list[tuple] | None = None,
                       k: int = 10) -> str:
    """DuckDB oracle for ``porter_complex_topk``.

    Exact float parity requires mirroring the engine's accumulation ORDER:
    scores fold left-to-right over phrase-A terms, double on an A match,
    then fold phrase-B terms, double on a B match — so the SQL builds the
    per-term values by pivot and writes the fold as an explicit
    left-associative scalar expression ``(ta1 + ta2 [+ ...]) * ma + tb1 +
    tb2 [...]) * mb`` (python float addition is commutative pairwise, and
    each phrase here contributes term-by-term in query order). NOT-result
    docs still score phrase-B words present individually — the
    reference's quirk, reproduced by the engine and this oracle alike."""
    exprs = exprs if exprs is not None else PORTER_BOOLEANS
    setop = {"AND": "INTERSECT", "OR": "UNION", "NOT": "EXCEPT"}
    parts = []
    for op, left, right in exprs:
        lt, rt = _analyzed_seq(left), _analyzed_seq(right)
        lp, rp = " ".join(lt), " ".join(rt)
        terms = list(dict.fromkeys(lt + rt))
        vals = ", ".join(f"('{t}')" for t in terms)
        piv = ", ".join(
            f"coalesce(max(CASE WHEN tv.term = '{t}' THEN tv.v END), 0.0)"
            f" AS t_{i}" for i, t in enumerate(terms))
        idx = {t: i for i, t in enumerate(terms)}
        sa = " + ".join(f"t_{idx[t]}" for t in lt)
        sb = " + ".join(f"t_{idx[t]}" for t in rt)
        expr = (f"(({sa}) * (CASE WHEN ma THEN 2.0 ELSE 1.0 END)"
                f" + {sb}) * (CASE WHEN mb THEN 2.0 ELSE 1.0 END)")
        parts.append(f"""
  SELECT '{left} {op} {right}' AS query, p.conv_id, p.turn_idx,
         {expr} AS score
  FROM (
    SELECT e.conv_id, e.turn_idx, {piv},
           any_value(e.ma) AS ma, any_value(e.mb) AS mb
    FROM (
      SELECT f.conv_id, f.turn_idx,
             contains(' ' || f.ft || ' ', ' {lp} ') AS ma,
             contains(' ' || f.ft || ' ', ' {rp} ') AS mb
      FROM ftext f
      WHERE f.conv_id || '|' || f.turn_idx IN (
        SELECT conv_id || '|' || turn_idx FROM ftext
        WHERE contains(' ' || ft || ' ', ' {lp} ')
        {setop[op]}
        SELECT conv_id || '|' || turn_idx FROM ftext
        WHERE contains(' ' || ft || ' ', ' {rp} '))) e
    LEFT JOIN (
      SELECT tf.conv_id, tf.turn_idx, tf.term,
             (tf.tf / dl.dl) * log10(s.n / df.df) AS v
      FROM (VALUES {vals}) q(term)
      JOIN tf USING (term) JOIN df USING (term)
      JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
      CROSS JOIN stats s) tv
      ON e.conv_id = tv.conv_id AND e.turn_idx = tv.turn_idx
    GROUP BY e.conv_id, e.turn_idx) p""")
    union = "\n  UNION ALL\n".join(parts)
    return f"""{_analysis_ctes()},
ftext AS (
  SELECT conv_id, turn_idx,
         string_agg(term, ' ' ORDER BY rawpos) AS ft
  FROM ptok GROUP BY 1, 2),
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


def porter_snippet_topk(index_dir: str, transcripts_path: str,
                        queries: list[str] | None = None,
                        k: int = 10) -> pa.Table:
    """M9 result snippets on the flagship path under a DuckDB oracle: the
    hash-matched BM25 top-k hydrated and run through the PRODUCTION
    ``make_snippet`` (first-match +-100-char window, word-boundary
    expansion, in-window matched tokens wrapped in <strong>, ellipses)."""
    from ..query.postprocess import make_snippet

    queries = queries if queries is not None else PORTER_QUERIES
    ranked = porter_hydrated_topk(index_dir, transcripts_path, queries, k)
    terms_of = {q: set(_analyzed(q)) for q in queries}
    snippets = [make_snippet(t or "", terms_of[q])
                for q, t in zip(ranked["query"].to_pylist(),
                                ranked["text"].to_pylist())]
    return pa.table({
        "query": ranked["query"],
        "rank": ranked["rank"],
        "conv_id": ranked["conv_id"],
        "turn_idx": ranked["turn_idx"],
        "score_q": ranked["score_q"],
        "snippet": pa.array(snippets, pa.string()),
    })


def porter_snippet_sql(queries: list[str] | None = None,
                       k: int = 10) -> str:
    """Oracle for ``porter_snippet_topk``: the snippet window computed in
    SQL from per-word char offsets — first matched word's span, +-100
    chars clamped to the text, expanded to word boundaries (the word
    containing each clamp point), reconstruction as a space-joined agg
    with matched words <strong>-wrapped, ellipses when either boundary is
    interior. Valid because the corpus tokenizer degenerates to a
    single-space split (pinned by test_vocab_closure), so char offset of
    word j = sum of earlier word lengths + j."""
    queries = queries if queries is not None else PORTER_QUERIES
    inner = porter_bm25_sql(queries, k)
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    return f"""
WITH ranked_out AS ({inner}),
qterms(query, term) AS (VALUES {vals}),
words AS (
  SELECT r.query, r.rank, r.conv_id, r.turn_idx, r.score_q,
         w.rawpos, w.word,
         CAST(length(w.word) AS BIGINT) AS wlen,
         coalesce(sum(length(w.word)) OVER (
             PARTITION BY r.query, r.conv_id, r.turn_idx
             ORDER BY w.rawpos
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           + w.rawpos AS off,
         (qt.term IS NOT NULL) AS matched
  FROM ranked_out r
  JOIN ({porter_raw_standalone()}) w
    ON r.conv_id = w.conv_id AND r.turn_idx = w.turn_idx
  LEFT JOIN ({porter_stemmap_values()}) sm ON w.word = sm.word
  LEFT JOIN qterms qt ON qt.query = r.query AND qt.term = sm.stem),
firsts AS (
  SELECT query, conv_id, turn_idx,
         min(off) FILTER (WHERE matched) AS fs,
         arg_min(off + wlen, off) FILTER (WHERE matched) AS fe,
         max(off + wlen) AS tlen
  FROM words GROUP BY 1, 2, 3),
bounds AS (
  SELECT w.query, w.conv_id, w.turn_idx,
         max(w.off) FILTER (WHERE w.off <= greatest(f.fs - 100, 0)) AS lo_char,
         max(w.off) FILTER (WHERE w.off <= least(f.fe + 100, f.tlen))
           AS hi_start,
         arg_max(w.off + w.wlen, w.off)
           FILTER (WHERE w.off <= least(f.fe + 100, f.tlen)) AS hi_end,
         any_value(f.tlen) AS tlen
  FROM words w JOIN firsts f
    ON w.query = f.query AND w.conv_id = f.conv_id
   AND w.turn_idx = f.turn_idx
  GROUP BY 1, 2, 3),
snip AS (
  SELECT w.query, any_value(w.rank) AS rank, w.conv_id, w.turn_idx,
         any_value(w.score_q) AS score_q,
         (CASE WHEN any_value(b.lo_char) > 0 THEN '...' ELSE '' END)
         || string_agg(
              CASE WHEN w.matched
                   THEN '<strong>' || w.word || '</strong>'
                   ELSE w.word END, ' ' ORDER BY w.rawpos)
            FILTER (WHERE w.off BETWEEN b.lo_char AND b.hi_start)
         || (CASE WHEN any_value(b.hi_end) < any_value(b.tlen)
                  THEN '...' ELSE '' END) AS snippet
  FROM words w JOIN bounds b
    ON w.query = b.query AND w.conv_id = b.conv_id
   AND w.turn_idx = b.turn_idx
  GROUP BY w.query, w.conv_id, w.turn_idx)
SELECT query, rank, conv_id, turn_idx, score_q, snippet FROM snip"""


def porter_raw_standalone() -> str:
    """The raw word-position CTE as a standalone SELECT (conv_id,
    turn_idx, rawpos, word) for reuse inside a second WITH scope."""
    return f"""WITH {_TURNS_CTE},
raw AS (
  SELECT t.conv_id, t.turn_idx, CAST(u.i AS BIGINT) AS rawpos,
         t.wl[CAST(u.i AS INTEGER) + 1] AS word
  FROM (SELECT conv_id, turn_idx, string_split(text, ' ') AS wl
        FROM turns) t,
       UNNEST(range(len(t.wl))) u(i))
SELECT conv_id, turn_idx, rawpos, word FROM raw"""


def porter_stemmap_values() -> str:
    """The analyzer (word -> stem) map as a standalone SELECT."""
    vals = ", ".join(f"('{w}', '{s}')" for w, s in _stem_map())
    return f"SELECT * FROM (VALUES {vals}) sm(word, stem)"


def porter_suggest_queries(index_dir: str, transcripts_path: str,
                           queries: list[str] | None = None,
                           k: int = 10) -> pa.Table:
    """M13 suggested queries on the flagship path under a DuckDB oracle:
    the PRODUCTION ``suggest_queries`` (frequent long non-stop raw tokens
    of the top-5 hydrated rows, most_common tie-broken by first-seen scan
    order, candidates capped at 3*n before the not-in-query filter) over
    the hash-matched BM25 top-k."""
    from ..query.postprocess import suggest_queries

    queries = queries if queries is not None else PORTER_QUERIES
    ranked = porter_hydrated_topk(index_dir, transcripts_path, queries, k)
    rows_by_q: dict[str, list] = {q: [] for q in queries}
    for q, t in zip(ranked["query"].to_pylist(),
                    ranked["text"].to_pylist()):
        rows_by_q[q].append({"text": t})      # already in rank order
    out_q, out_r, out_s = [], [], []
    for q in queries:
        for r, sugg in enumerate(suggest_queries(q, rows_by_q[q]), 1):
            out_q.append(q)
            out_r.append(r)
            out_s.append(sugg)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "sugg_rank": pa.array(out_r, pa.int32()),
        "suggestion": pa.array(out_s, pa.string()),
    })


def porter_suggest_sql(queries: list[str] | None = None, k: int = 10,
                       n_terms: int = 5, n_rows: int = 5) -> str:
    """Oracle for ``porter_suggest_queries``: token counts over the top
    ``n_rows`` ranked rows' raw words, eligibility = length > 3 AND not a
    stopword (the eligible closed-vocab subset is computed from the
    PRODUCTION stopword list and embedded — an eligibility drift fails
    loudly via a count mismatch), ordered by (count DESC, first-seen ASC)
    where first-seen is the scan position (rank-major, word-minor) —
    exactly Counter.most_common's heapq stability — capped at 3*n
    candidates BEFORE the not-substring-of-query filter, then the first
    ``n_terms`` survivors."""
    from ..analyzer.stopwords import STOPWORDS

    queries = queries if queries is not None else PORTER_QUERIES
    eligible = [w for w in CORPUS_VOCAB
                if len(w) > 3 and w not in STOPWORDS]
    ev = ", ".join(f"('{w}')" for w in eligible)
    inner = porter_bm25_sql(queries, k)
    return f"""
WITH ranked_out AS ({inner}),
toks AS (
  SELECT r.query, w.word,
         CAST(count(*) AS BIGINT) AS cnt,
         min((r.rank - 1) * 1000000 + w.rawpos) AS first_seen
  FROM ranked_out r
  JOIN ({porter_raw_standalone()}) w
    ON r.conv_id = w.conv_id AND r.turn_idx = w.turn_idx
  JOIN (VALUES {ev}) e(word) ON w.word = e.word
  WHERE r.rank <= {n_rows}
  GROUP BY 1, 2),
cand AS (
  SELECT query, word,
         row_number() OVER (PARTITION BY query
                            ORDER BY cnt DESC, first_seen) AS cpos
  FROM toks),
kept AS (
  SELECT query, word,
         row_number() OVER (PARTITION BY query ORDER BY cpos) AS rn
  FROM cand
  WHERE cpos <= {3 * n_terms} AND NOT contains(query, word))
SELECT query, CAST(rn AS INTEGER) AS sugg_rank,
       query || ' ' || word AS suggestion
FROM kept WHERE rn <= {n_terms}"""


def porter_paged_topk(index_dir: str,
                      queries: list[str] | None = None, page: int = 2,
                      page_size: int = 10) -> pa.Table:
    """O2 pagination under the SQL oracle: the PRODUCTION ``paginate``
    (1-based slicing, `QueryService.java:1674-1692`) applied to the
    quantized ranking — page 2 of the flagship queries."""
    from ..query.postprocess import paginate

    queries = queries if queries is not None else PORTER_QUERIES
    full = porter_bm25_topk(index_dir, queries, page * page_size)
    cols = full.column_names
    out_rows = []
    for q in queries:
        mask = [i for i, v in enumerate(full["query"].to_pylist())
                if v == q]
        rows = [
            {c: full[c][i].as_py() for c in cols} for i in mask]
        out_rows.extend(paginate(rows, page, page_size))
    if not out_rows:
        return full.slice(0, 0)
    return pa.table({c: pa.array([r[c] for r in out_rows],
                                 full.schema.field(c).type)
                     for c in cols})


def porter_paged_sql(queries: list[str] | None = None, page: int = 2,
                     page_size: int = 10) -> str:
    """Oracle for ``porter_paged_topk``: the bm25 ranking windowed to
    ranks (page-1)*size+1 .. page*size."""
    lo = (page - 1) * page_size + 1
    hi = page * page_size
    inner = porter_bm25_sql(queries, hi)
    return f"""
WITH ranked_out AS ({inner})
SELECT * FROM ranked_out WHERE rank BETWEEN {lo} AND {hi}"""


def porter_mmr_topk(index_dir: str, transcripts_path: str,
                    queries: list[str] | None = None,
                    k: int = 10) -> pa.Table:
    """A14/SE5 MMR diversity rerank under a DuckDB oracle: the PRODUCTION
    ``mmr_rerank`` (greedy; adjusted = score * (1 - 0.7*maxJaccard(sel))
    * (1 - 0.15*same-conv count), near-dups J > 0.7 further * (1-0.9);
    doc_id-asc ties) over the hash-matched BM25 top-k, with QUANTIZED
    scores as the input so both sides start from bit-identical doubles.
    The oracle replays the greedy loop as a recursive CTE."""
    import math

    from ..query.postprocess import mmr_rerank
    from ..stages.doc_ids import doc_id_of

    queries = queries if queries is not None else PORTER_QUERIES
    ranked = porter_hydrated_topk(index_dir, transcripts_path, queries, k)
    rows_by_q: dict[str, list] = {q: [] for q in queries}
    for i in range(ranked.num_rows):
        q = ranked["query"][i].as_py()
        conv = ranked["conv_id"][i].as_py()
        turn = int(ranked["turn_idx"][i].as_py())
        rows_by_q[q].append({
            "doc_id": doc_id_of(conv, turn), "conv_id": conv,
            "turn_idx": turn, "text": ranked["text"][i].as_py() or "",
            "score": float(ranked["score_q"][i].as_py())})
    out = {c: [] for c in
           ("query", "mmr_rank", "conv_id", "turn_idx", "mmr_q")}
    for q in queries:
        for r, row in enumerate(mmr_rerank(rows_by_q[q]), 1):
            out["query"].append(q)
            out["mmr_rank"].append(r)
            out["conv_id"].append(row["conv_id"])
            out["turn_idx"].append(row["turn_idx"])
            out["mmr_q"].append(math.floor(row["mmr_score"] * 1e7))
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "mmr_rank": pa.array(out["mmr_rank"], pa.int32()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "mmr_q": pa.array(out["mmr_q"], pa.int64()),
    })


def porter_doc_id_sql(conv_expr: str, turn_expr: str) -> str:
    """The doc_id derivation (fnv1a64(conv_id) & (2^43-1)) << 21 | turn
    as exact HUGEINT SQL (`rayse/stages/doc_ids.py`)."""
    return f"""CAST((list_reduce(
        list_prepend(14695981039346656037::HUGEINT,
                     [ascii(c)::HUGEINT FOR c IN string_split({conv_expr}, '')]),
        (h, b) -> (xor(h, b) * 1099511628211::HUGEINT)
                  % 18446744073709551616::HUGEINT)
      % 8796093022208::HUGEINT) * 2097152::HUGEINT
      + {turn_expr} AS UBIGINT)"""


def porter_mmr_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_mmr_topk``: greedy MMR as a recursive CTE.
    Each step joins the remaining candidates (NOT list_contains the
    selected list), computes the adjusted score with the engine's exact
    float-op order — ((score * (1 - 0.7*maxJ)) * greatest(0, 1 -
    0.15*conv_count)) * CASE maxJ > 0.7 THEN (1.0 - 0.9) — and QUALIFYs
    the (adj DESC, doc_id ASC) winner. Jaccard uses per-doc distinct-stem
    lists; doc_id ties use the exact FNV doc_id in SQL."""
    queries = queries if queries is not None else PORTER_QUERIES
    inner = porter_bm25_sql(queries, k)
    did = porter_doc_id_sql("r.conv_id", "r.turn_idx")
    return f"""
WITH RECURSIVE
ranked_out AS (SELECT * FROM ({inner})),
docids AS (
  SELECT r.query, r.conv_id, r.turn_idx,
         CAST(r.score_q AS DOUBLE) AS score,
         {did} AS doc_id
  FROM ranked_out r),
tsets AS (
  SELECT w.conv_id, w.turn_idx, list(DISTINCT sm.stem) AS ts
  FROM ({porter_raw_standalone()}) w
  JOIN ({porter_stemmap_values()}) sm ON w.word = sm.word
  WHERE (w.conv_id, w.turn_idx) IN
        (SELECT (conv_id, turn_idx) FROM ranked_out)
  GROUP BY 1, 2),
pairs AS (
  SELECT a.query, a.doc_id AS da, b.doc_id AS db,
         CAST(len(list_intersect(ta.ts, tb.ts)) AS DOUBLE)
           / greatest(len(ta.ts) + len(tb.ts)
                      - len(list_intersect(ta.ts, tb.ts)), 1) AS j
  FROM docids a
  JOIN docids b ON a.query = b.query AND a.doc_id != b.doc_id
  JOIN tsets ta ON a.conv_id = ta.conv_id AND a.turn_idx = ta.turn_idx
  JOIN tsets tb ON b.conv_id = tb.conv_id AND b.turn_idx = tb.turn_idx),
rec AS (
  SELECT query, 0 AS step, []::UBIGINT[] AS sel, []::VARCHAR[] AS selconv,
         CAST(NULL AS UBIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS mmr
  FROM (SELECT DISTINCT query FROM docids)
  UNION ALL
  SELECT query, step + 1, list_append(sel, pick_doc),
         list_append(selconv, pick_conv), pick_doc, pick_adj
  FROM (
    SELECT r.query, r.step, r.sel, r.selconv,
           d.doc_id AS pick_doc, d.conv_id AS pick_conv,
           ((d.score * (1.0::DOUBLE - 0.7::DOUBLE * coalesce(
               (SELECT max(p.j) FROM pairs p
                WHERE p.query = d.query AND p.da = d.doc_id
                  AND list_contains(r.sel, p.db)), 0.0::DOUBLE)))
            * greatest(0.0::DOUBLE, 1.0::DOUBLE - 0.15::DOUBLE *
                len(list_filter(r.selconv, x -> x = d.conv_id))))
            * (CASE WHEN coalesce(
                 (SELECT max(p.j) FROM pairs p
                  WHERE p.query = d.query AND p.da = d.doc_id
                    AND list_contains(r.sel, p.db)), 0.0::DOUBLE)
                 > 0.7::DOUBLE
               THEN (1.0::DOUBLE - 0.9::DOUBLE)
               ELSE 1.0::DOUBLE END) AS pick_adj
    FROM rec r JOIN docids d
      ON d.query = r.query AND NOT list_contains(r.sel, d.doc_id)
    WHERE r.step < {k}
    QUALIFY row_number() OVER (PARTITION BY r.query
                               ORDER BY pick_adj DESC, d.doc_id) = 1))
SELECT r.query, CAST(r.step AS INTEGER) AS mmr_rank, d.conv_id,
       d.turn_idx, CAST(floor(r.mmr * 10000000) AS BIGINT) AS mmr_q
FROM rec r JOIN docids d ON r.query = d.query AND r.doc_id = d.doc_id
WHERE r.step > 0"""


ROLE_BOOST_WEIGHTS = {"user": 2.0, "assistant": 0.5}


def porter_roleboost_topk(index_dir: str,
                          queries: list[str] | None = None,
                          k: int = 10) -> pa.Table:
    """A7 per-role score boost (the reference tag-importance analog,
    `IndexerService.java:263-331`) through the REAL role-scoped engine
    path (``engine.search(role_weights=...)`` -> regular_role -> the
    256-entry LUT applied per posting) under the SQL oracle."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda q, kk: eng.search(q, kk,
                                 role_weights=ROLE_BOOST_WEIGHTS),
        index_dir, queries, k)


SLOPPY_SLOP = 4


def porter_sloppy_topk(index_dir: str, phrases: list[str] | None = None,
                       k: int = 10, slop: int = SLOPPY_SLOP) -> pa.Table:
    """Proximity-window retrieval (`engine.sloppy` — the sloppy
    PhraseQuery analog, beyond reference): docs where every pair of the
    analyzed phrase's distinct terms co-occurs within ``slop`` tokens,
    BM25-scored, under a DuckDB oracle (per-pair min-distance joins on
    the reconstructed filtered-stream positions)."""
    from ..query.engine import SearchEngine

    phrases = phrases if phrases is not None else PORTER_PHRASES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda p, kk: eng.sloppy(_analyzed_seq(p), kk, slop=slop),
        index_dir, phrases, k)


def porter_sloppy_sql(phrases: list[str] | None = None, k: int = 10,
                      slop: int = SLOPPY_SLOP) -> str:
    """Oracle for ``porter_sloppy_topk``: filtered-stream positions =
    row_number over rawpos within the turn; a doc qualifies iff for
    EVERY unordered pair of the phrase's distinct terms the min
    |Δposition| ≤ slop (single-term phrases qualify on containment);
    BM25 over the distinct terms, quantized ranking."""
    phrases = phrases if phrases is not None else PORTER_PHRASES
    parts = []
    for p in phrases:
        terms = list(dict.fromkeys(_analyzed_seq(p)))
        vals = ", ".join(f"('{t}')" for t in terms)
        pair_sqls = [
            f"""SELECT x.conv_id, x.turn_idx
  FROM fpos x JOIN fpos y
    ON x.conv_id = y.conv_id AND x.turn_idx = y.turn_idx
  WHERE x.term = '{terms[a]}' AND y.term = '{terms[b]}'
  GROUP BY 1, 2
  HAVING min(abs(x.p - y.p)) <= {slop}"""
            for a in range(len(terms)) for b in range(a + 1, len(terms))]
        qualify = ("\nINTERSECT\n".join(pair_sqls) if pair_sqls else
                   f"SELECT DISTINCT conv_id, turn_idx FROM fpos "
                   f"WHERE term = '{terms[0]}'")
        parts.append(f"""
  SELECT '{p}' AS query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM (VALUES {vals}) q(term)
  JOIN tf USING (term) JOIN df USING (term)
  JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
  JOIN (\n{qualify}\n) ok
    ON tf.conv_id = ok.conv_id AND tf.turn_idx = ok.turn_idx
  CROSS JOIN stats s
  GROUP BY 1, 2, 3""")
    union = "\n  UNION ALL\n".join(parts)
    return f"""{_analysis_ctes()},
fpos AS (
  SELECT conv_id, turn_idx, term,
         row_number() OVER (PARTITION BY conv_id, turn_idx
                            ORDER BY rawpos) - 1 AS p
  FROM ptok),
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


def porter_phrase_role_topk(index_dir: str,
                            phrases: list[str] | None = None,
                            k: int = 10,
                            role: str = "assistant") -> pa.Table:
    """Phrase search restricted to a role (``engine.phrase_role``:
    positional match -> per-doc role post-filter from the posting role
    codes -> BM25 over the phrase terms) under a DuckDB oracle — the last
    retrieval mode without one."""
    from ..query.engine import SearchEngine

    phrases = phrases if phrases is not None else PORTER_PHRASES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda p, kk: eng.search(f'"{p}"', kk, role=role),
        index_dir, phrases, k)


def porter_phrase_role_sql(phrases: list[str] | None = None, k: int = 10,
                           role: str = "assistant") -> str:
    """Oracle for ``porter_phrase_role_topk``: padded-substring phrase
    match on the analyzed stream, role filter by turn parity (assistant =
    odd turn_idx by derivation), BM25 over the phrase's deduped terms."""
    phrases = phrases if phrases is not None else PORTER_PHRASES
    parity = 1 if role == "assistant" else 0
    parts = []
    for p in phrases:
        seq = _analyzed_seq(p)
        terms = list(dict.fromkeys(seq))
        vals = ", ".join(f"('{t}')" for t in terms)
        pp = " ".join(seq)
        parts.append(f"""
  SELECT '{p}' AS query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM (VALUES {vals}) q(term)
  JOIN tf USING (term) JOIN df USING (term)
  JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
  JOIN ftext f ON tf.conv_id = f.conv_id AND tf.turn_idx = f.turn_idx
  CROSS JOIN stats s
  WHERE contains(' ' || f.ft || ' ', ' {pp} ')
    AND tf.turn_idx % 2 = {parity}
  GROUP BY 1, 2, 3""")
    union = "\n  UNION ALL\n".join(parts)
    return f"""{_analysis_ctes()},
ftext AS (
  SELECT conv_id, turn_idx,
         string_agg(term, ' ' ORDER BY rawpos) AS ft
  FROM ptok GROUP BY 1, 2),
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


def porter_conjunctive_role_topk(index_dir: str,
                                 queries: list[str] | None = None,
                                 k: int = 10,
                                 role: str = "assistant") -> pa.Table:
    """J5 ∘ M6: docs-with-all-words restricted to a role
    (``engine.conjunctive_role``: rarest-first intersection, role
    post-filter from posting role codes, BM25) under a DuckDB oracle —
    completes the role x mode matrix (or/and/phrase, filter/boost)."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda q, kk: eng.search(q, kk, mode="and", role=role),
        index_dir, queries, k)


def porter_conjunctive_role_sql(queries: list[str] | None = None,
                                k: int = 10,
                                role: str = "assistant") -> str:
    """Oracle: the conjunctive HAVING-count SQL with the turn-parity role
    filter applied to the eligible docs."""
    queries = queries if queries is not None else PORTER_QUERIES
    parity = 1 if role == "assistant" else 0
    vals = ", ".join(
        f"('{q}', '{t}')" for q in queries for t in _analyzed(q))
    qn = ", ".join(f"('{q}', {len(_analyzed(q))})" for q in queries)
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
qn(query, n_terms) AS (VALUES {qn}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       JOIN qn ON qn.query = qt.query
       CROSS JOIN stats s
  WHERE tf.turn_idx % 2 = {parity}
  GROUP BY qt.query, tf.conv_id, tf.turn_idx, qn.n_terms
  HAVING count(*) = qn.n_terms),
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


def porter_capped_topk(index_dir: str, queries: list[str] | None = None,
                       k: int = 10, cap: int = 50) -> pa.Table:
    """O3 reference-parity capped retrieval (`QueryService.java:448-450`:
    each term contributes only its first ``cap`` postings in docID order)
    under a DuckDB oracle — doc_id order is SQL-expressible via the exact
    FNV doc_id. ``cap`` defaults low so the cap actually binds at test
    scale (the reference's 1000 never would on 500 docs)."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    return _quantized_search_rows(
        lambda q, kk: eng.regular_capped(_analyzed(q), kk, cap=cap),
        index_dir, queries, k)


# ---------------------------------------------------------------------------
# The rank matrix: every ranked retrieval variant above, unioned under one
# driver entry. The driver's correctness gate checks only the first 50
# queries() entries; the 22 ranked Porter variants share one output shape
# (query, rank, conv_id, turn_idx, score_q [, tier]), so a single tagged
# UNION keeps each variant hash-checked while spending one window slot.
# The individual entries remain in queries() (after the window) for direct
# use; tests pin each one separately at sf0.001.
# ---------------------------------------------------------------------------

def _matrix_arms(index_dir: str | None, k: int = 10):
    """(variant, ray_thunk, sql) per ranked retrieval mode. ``index_dir``
    None builds only the SQL side (for ``porter_rank_matrix_sql``)."""
    d = index_dir
    return [
        ("bm25", lambda: porter_bm25_topk(d, k=k), porter_bm25_sql(k=k)),
        ("wand", lambda: porter_wand_topk(d, k=k), porter_bm25_sql(k=k)),
        ("cluster", lambda: porter_cluster_topk(d, k=k),
         porter_bm25_sql(k=k)),
        ("role", lambda: porter_bm25_topk(d, k=k, role="assistant"),
         porter_bm25_sql(k=k, assistant_only=True)),
        ("roleboost", lambda: porter_roleboost_topk(d, k=k),
         porter_bm25_sql(k=k, role_weights=ROLE_BOOST_WEIGHTS)),
        ("bm25f", lambda: porter_bm25f_topk(d, k=k),
         porter_bm25f_sql(k=k)),
        ("boolean", lambda: porter_boolean_topk(d, k=k),
         porter_boolean_sql(k=k)),
        ("conjunctive", lambda: porter_conjunctive_topk(d, k=k),
         porter_conjunctive_sql(k=k)),
        ("conjunctive_role", lambda: porter_conjunctive_role_topk(d, k=k),
         porter_conjunctive_role_sql(k=k)),
        ("phrase_role", lambda: porter_phrase_role_topk(d, k=k),
         porter_phrase_role_sql(k=k)),
        ("sloppy", lambda: porter_sloppy_topk(d, k=k),
         porter_sloppy_sql(k=k)),
        ("capped", lambda: porter_capped_topk(d, k=k),
         porter_capped_sql(k=k)),
        ("pruned", lambda: porter_pruned_topk(d, k=k),
         porter_pruned_sql(k=k)),
        ("paged", lambda: porter_paged_topk(d), porter_paged_sql()),
        ("complex", lambda: porter_complex_topk(d, k=k),
         porter_complex_sql(k=k)),
        ("fallback", lambda: porter_fallback_topk(d, k=k),
         porter_fallback_sql(k=k)),
        ("prefix", lambda: porter_prefix_topk(d, k=k),
         porter_prefix_sql(k=k)),
        ("suffix", lambda: porter_suffix_topk(d, k=k),
         porter_suffix_sql(k=k)),
        ("msm", lambda: porter_msm_topk(d, k=k), porter_msm_sql(k=k)),
        ("synonym", lambda: porter_synonym_topk(d, k=k),
         porter_synonym_sql(k=k)),
        ("fuzzy", lambda: porter_fuzzy_topk(d, k=k),
         porter_fuzzy_sql(k=k)),
        ("deleted", lambda: porter_deleted_topk(d, k=k),
         porter_bm25_sql(k=k, doc_filter=DELETED_DOC_FILTER)),
        ("merged", lambda: porter_merged_topk(d, k=k),
         porter_bm25_sql(k=k)),
        ("mlt", lambda: porter_mlt_topk(d, k=k), porter_mlt_sql(k=k)),
        ("prf", lambda: porter_prf_topk(d, k=k), porter_prf_sql(k=k)),
        ("collapse", lambda: porter_collapse_topk(d, k=k),
         porter_collapse_sql(k=k)),
        ("tfidf", lambda: porter_tfidf_topk(d, k=k),
         porter_tfidf_sql(k=k)),
        ("lmdir", lambda: porter_lmdir_topk(d, k=k),
         porter_lmdir_sql(k=k)),
        ("lmjm", lambda: porter_lmjm_topk(d, k=k),
         porter_lmjm_sql(k=k)),
        ("dfr", lambda: porter_dfr_topk(d, k=k), porter_dfr_sql(k=k)),
        ("dph", lambda: porter_dph_topk(d, k=k), porter_dph_sql(k=k)),
        ("bm25plus", lambda: porter_bm25plus_topk(d, k=k),
         porter_bm25plus_sql(k=k)),
        ("bm25l", lambda: porter_bm25l_topk(d, k=k),
         porter_bm25l_sql(k=k)),
        ("ranker1", lambda: porter_ranker1_topk(d, k=k),
         porter_ranker1_sql(k=k)),
        ("rerank", lambda: porter_rerank_topk(d, k=k),
         porter_rerank_sql(k=k)),
        ("cori", lambda: _cori_matrix_arm(d, k=k), _cori_matrix_sql(k=k)),
        ("searchafter", lambda: porter_searchafter_topk(d),
         porter_searchafter_sql()),
        ("convscope", lambda: _convscope_matrix_arm(d, k=k),
         _convscope_matrix_sql(k=k)),
        ("synquery", lambda: porter_synquery_topk(d, k=k),
         porter_synquery_sql(k=k)),
        ("lossynorm", lambda: porter_lossynorm_topk(d, k=k),
         porter_lossynorm_sql(k=k)),
    ]


def _convscope_matrix_arm(index_dir: str, k: int = 10) -> pa.Table:
    """Conversation-scope retrieval reshaped to the matrix row contract
    (the pair label rides the query column)."""
    t = porter_convscope_topk(index_dir, k=k)
    return pa.table({
        "query": t["pair"],
        "rank": t["rank"],
        "conv_id": t["conv_id"],
        "turn_idx": t["turn_idx"],
        "score_q": t["score_q"],
    })


def _convscope_matrix_sql(k: int = 10) -> str:
    return (f"SELECT pair AS query, rank, conv_id, turn_idx, score_q\n"
            f"FROM (\n{porter_convscope_sql(k=k)}\n)")


def _cori_matrix_arm(index_dir: str, k: int = 10) -> pa.Table:
    """CORI shard selection reshaped to the matrix row contract: the
    ranked "documents" are index partitions (conv_id = '', turn_idx =
    part id) — the broker-side routing table next to the doc-ranking
    modes."""
    from .shardsel import cori_shard_topk

    t = cori_shard_topk(index_dir, k=k)
    return pa.table({
        "query": t["query"],
        "rank": t["rank"],
        "conv_id": pa.array([""] * t.num_rows, pa.string()),
        "turn_idx": pa.array(pc.cast(t["part"], pa.int32())),
        "score_q": t["score_q"],
    })


def _cori_matrix_sql(k: int = 10) -> str:
    from .shardsel import cori_shard_sql

    return (f"SELECT query, rank, '' AS conv_id, "
            f"CAST(part AS INTEGER) AS turn_idx, score_q\n"
            f"FROM (\n{cori_shard_sql(k=k)}\n)")


def porter_rank_matrix(index_dir: str, k: int = 10) -> pa.Table:
    """Every ranked retrieval mode of the REAL Porter engine — exhaustive
    BM25, block-max WAND, the distributed actor-pool cluster, role filter/
    boost, boolean, conjunctive (plain + role), phrase+role, capped,
    paged, complex parity, and the A8 fallback ladder — as one tagged
    table, each variant DuckDB hash-matched."""
    _porter_reader(index_dir)
    parts = []
    for variant, thunk, _ in _matrix_arms(index_dir, k):
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


def porter_rank_matrix_sql(k: int = 10) -> str:
    """Oracle for ``porter_rank_matrix``: each variant's full oracle as a
    tagged UNION ALL arm (DuckDB evaluates per-arm WITH scopes in
    subqueries)."""
    arms = []
    for variant, _, sql in _matrix_arms(None, k):
        tier = "tier" if variant == "fallback" else "'' AS tier"
        arms.append(
            f"SELECT '{variant}' AS variant, query, rank, conv_id, "
            f"turn_idx, score_q, {tier}\nFROM (\n{sql}\n)")
    return "\nUNION ALL\n".join(arms)


def porter_capped_sql(queries: list[str] | None = None, k: int = 10,
                      cap: int = 50) -> str:
    """Oracle for ``porter_capped_topk``: per-(query, term) eligibility =
    row_number over ascending FNV doc_id <= cap, then the standard BM25
    sum + quantized ranking."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    did = porter_doc_id_sql("tf.conv_id", "tf.turn_idx")
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
eligible AS (
  SELECT qt.query, tf.term, tf.conv_id, tf.turn_idx, tf.tf,
         row_number() OVER (PARTITION BY qt.query, tf.term
                            ORDER BY {did}) AS pord
  FROM qt JOIN tf USING (term)),
scored AS (
  SELECT e.query, e.conv_id, e.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (e.tf * 2.2
                / (e.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM eligible e
  JOIN df ON df.term = e.term
  JOIN dl ON e.conv_id = dl.conv_id AND e.turn_idx = dl.turn_idx
  CROSS JOIN stats s
  WHERE e.pord <= {cap}
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Static index pruning (Carmel et al. 2001 / champion lists): each term's
# posting list is cut to its top-f postings by IMPACT (tf DESC, doc_id ASC
# tie-break) ahead of scoring — the lossy small-index regime web engines
# serve their first tier from. Global stats (df, avgdl) stay UNPRUNED
# (champion lists keep exact idf; only candidates shrink), so each
# surviving (term, doc) pair contributes its exact BM25 term; a doc's
# pruned score is <= its exhaustive score, equal when every query term
# kept the doc. f defaults low so the cut binds at test scale.
# SQL-expressible because the engine's posting order (ascending
# FNV doc_id) is reproducible via porter_doc_id_sql.
# ---------------------------------------------------------------------------

def porter_pruned_topk(index_dir: str, queries: list[str] | None = None,
                       k: int = 10, f: int = 25) -> pa.Table:
    """BM25 over the impact-pruned index: per term only the top-``f``
    postings by (tf DESC, doc_id ASC) participate; idf/avgdl from the
    full index."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    pruned_cache: dict = {}
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
            hit = pruned_cache.get(t)
            if hit is None:
                pl = reader.merged(t)
                if pl is None:
                    pruned_cache[t] = ()
                    continue
                idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size))
                            + 1.0)
                d, tfs, dls = pl.doc_ids, pl.tfs, pl.dls
                if d.size > f:
                    # impact order: tf DESC, doc_id ASC — take the top f
                    top = np.lexsort((d, -tfs.astype(np.int64)))[:f]
                    d, tfs, dls = d[top], tfs[top], dls[top]
                hit = pruned_cache[t] = (
                    d, idf * bm25_tf(tfs, dls, avgdl, params))
            if hit == ():
                continue
            doc_arrs.append(hit[0])
            contrib_arrs.append(hit[1])
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_pruned_sql(queries: list[str] | None = None, k: int = 10,
                      f: int = 25) -> str:
    """Oracle for ``porter_pruned_topk``: per-TERM eligibility =
    row_number over (tf DESC, FNV doc_id ASC) <= f, then standard BM25
    + quantized ranking. Eligibility partitions by term alone (the
    champion list is a property of the index, not of the query)."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    did = porter_doc_id_sql("tf.conv_id", "tf.turn_idx")
    return f"""{_analysis_ctes()},
champ AS (
  SELECT term, conv_id, turn_idx, tf,
         row_number() OVER (PARTITION BY term
                            ORDER BY tf DESC, {did}) AS iord
  FROM tf),
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, e.conv_id, e.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (e.tf * 2.2
                / (e.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN champ e USING (term)
  JOIN df ON df.term = e.term
  JOIN dl ON e.conv_id = dl.conv_id AND e.turn_idx = dl.turn_idx
  CROSS JOIN stats s
  WHERE e.iord <= {f}
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Prefix (wildcard) retrieval: `pre*` expands against the index's sorted
# term dictionary (binary range scan per part — IndexReader.
# terms_with_prefix) and the expansion set is scored as a standard BM25
# union. The reference has no wildcard operator; this is engine breadth
# for the dictionary machinery, SQL-expressible as a LIKE 'pre%' join
# against the distinct-term CTE.
# ---------------------------------------------------------------------------

# 'ta' -> {tabl}; 's' -> {scan, slow, small, sort, spark, stream, ...}
# (a wide expansion); 'val' -> {valu}; 'gro' -> {group}; 'zz' -> {} (an
# empty expansion must yield zero rows on both sides).
PORTER_PREFIXES = ["ta", "s", "val", "gro", "zz"]


def porter_prefix_topk(index_dir: str, prefixes: list[str] | None = None,
                       k: int = 10) -> pa.Table:
    """Ranked wildcard retrieval: each prefix expands to its dictionary
    range and the expansion is scored as one disjunctive BM25 query,
    quantized ranking with (conv_id, turn_idx) tie-breaks."""
    from ..query.engine import SearchEngine

    prefixes = prefixes if prefixes is not None else PORTER_PREFIXES
    reader, _ = _porter_reader(index_dir)
    eng = SearchEngine(index_dir)

    def _search(q: str, kk: int):
        terms = eng.reader.terms_with_prefix(q)
        if not terms:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        return eng.regular(terms, kk)

    return _quantized_search_rows(_search, index_dir, prefixes, k)


def porter_prefix_sql(prefixes: list[str] | None = None,
                      k: int = 10) -> str:
    """Oracle for ``porter_prefix_topk``: (prefix, term) eligibility via
    LIKE 'prefix%' against the distinct stemmed terms, then the standard
    BM25 sum + quantized ranking."""
    prefixes = prefixes if prefixes is not None else PORTER_PREFIXES
    vals = ", ".join(f"('{p}')" for p in prefixes)
    return f"""{_analysis_ctes()},
pfx(query) AS (VALUES {vals}),
qt AS (
  SELECT p.query, d.term FROM pfx p
  JOIN (SELECT DISTINCT term FROM df) d
    ON d.term LIKE p.query || '%'),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Suffix (leading-wildcard) retrieval: `*xyz` expands against a REVERSED
# sorted term dictionary (IndexReader.terms_with_suffix — the Lucene
# reversed-wildcard-field analog, binary range scan per part) and the
# expansion set scores as one disjunctive BM25 query. Oracle = LIKE
# '%xyz' against the distinct stemmed terms.
# ---------------------------------------------------------------------------

# 'ow' -> {row, slow, window}; 'er' -> {filter, order}; 'n' -> {column,
# join, scan}; 'rt' -> {sort}; 'zz' -> {} (an empty expansion must yield
# zero rows on both sides).
PORTER_SUFFIXES = ["ow", "er", "n", "rt", "zz"]


def porter_suffix_topk(index_dir: str, suffixes: list[str] | None = None,
                       k: int = 10) -> pa.Table:
    """Ranked leading-wildcard retrieval: each suffix expands through the
    reversed dictionary range scan and the expansion is scored as one
    disjunctive BM25 query, quantized ranking with (conv_id, turn_idx)
    tie-breaks."""
    from ..query.engine import SearchEngine

    suffixes = suffixes if suffixes is not None else PORTER_SUFFIXES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)

    def _search(q: str, kk: int):
        terms = eng.reader.terms_with_suffix(q)
        if not terms:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        return eng.regular(terms, kk)

    return _quantized_search_rows(_search, index_dir, suffixes, k)


def porter_suffix_sql(suffixes: list[str] | None = None,
                      k: int = 10) -> str:
    """Oracle for ``porter_suffix_topk``: (suffix, term) eligibility via
    LIKE '%suffix' against the distinct stemmed terms, then the standard
    BM25 sum + quantized ranking."""
    suffixes = suffixes if suffixes is not None else PORTER_SUFFIXES
    vals = ", ".join(f"('{s}')" for s in suffixes)
    return f"""{_analysis_ctes()},
sfx(query) AS (VALUES {vals}),
qt AS (
  SELECT p.query, d.term FROM sfx p
  JOIN (SELECT DISTINCT term FROM df) d
    ON d.term LIKE '%' || p.query),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Query-time synonym expansion (the SynonymGraphFilter-at-query-time
# analog): each analyzed query term expands through a configured
# stem-level synonym map and the deduped expansion scores as one
# disjunctive BM25 query. The oracle performs the SAME expansion
# relationally — the map embedded as a VALUES relation joined against
# the analyzed pairs — so the map itself is exercised in SQL, not just
# the scoring.
# ---------------------------------------------------------------------------

# stem -> synonym stems (one-directional, applied after analysis)
PORTER_SYNONYMS = {"tabl": ["row"], "scan": ["filter"],
                   "merg": ["sort"], "agg": ["group"]}


def porter_synonym_topk(index_dir: str, queries: list[str] | None = None,
                        synonyms: dict[str, list[str]] | None = None,
                        k: int = 10) -> pa.Table:
    """Ranked retrieval with query-time synonym expansion, quantized
    ranking with (conv_id, turn_idx) tie-breaks."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    synonyms = synonyms if synonyms is not None else PORTER_SYNONYMS
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)

    def _search(q: str, kk: int):
        out: list[str] = []
        for t in _analyzed(q):
            out.append(t)
            out.extend(synonyms.get(t, []))
        return eng.regular(list(dict.fromkeys(out)), kk)

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_synonym_sql(queries: list[str] | None = None,
                       synonyms: dict[str, list[str]] | None = None,
                       k: int = 10) -> str:
    """Oracle for ``porter_synonym_topk``: the synonym map as a VALUES
    relation, expansion = base pairs UNION ALL map join, DISTINCT, then
    the standard BM25 sum + quantized ranking."""
    queries = queries if queries is not None else PORTER_QUERIES
    synonyms = synonyms if synonyms is not None else PORTER_SYNONYMS
    base = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    syn = ", ".join(f"('{t}', '{s}')"
                    for t, ss in synonyms.items() for s in ss)
    return f"""{_analysis_ctes()},
qbase(query, term) AS (VALUES {base}),
synmap(term, syn_term) AS (VALUES {syn}),
qt AS (
  SELECT DISTINCT query, term FROM (
    SELECT query, term FROM qbase
    UNION ALL
    SELECT q.query, s.syn_term AS term
    FROM qbase q JOIN synmap s USING (term))),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Minimum-should-match retrieval: disjunctive BM25 keeping only docs
# that contain at least m DISTINCT query terms (Lucene's
# minimum_should_match — the continuum between OR and AND). The engine
# answers it from the union accumulate's nmatch vector; the oracle adds
# HAVING count(DISTINCT term) >= m to the standard BM25 sum.
# ---------------------------------------------------------------------------

MSM_MIN_MATCH = 2


def porter_msm_topk(index_dir: str, queries: list[str] | None = None,
                    m: int = MSM_MIN_MATCH, k: int = 10) -> pa.Table:
    """Ranked minimum-should-match retrieval (>= ``m`` distinct terms),
    quantized ranking with (conv_id, turn_idx) tie-breaks. Single-term
    queries return no rows at m=2 on both sides by construction."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)

    def _search(q: str, kk: int):
        return eng.min_should_match(list(dict.fromkeys(_analyzed(q))),
                                    m, kk)

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_msm_sql(queries: list[str] | None = None,
                   m: int = MSM_MIN_MATCH, k: int = 10) -> str:
    """Oracle for ``porter_msm_topk``: the standard BM25 sum with
    HAVING count(DISTINCT term) >= m (distinct (query, term) pairs)."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')" for q in queries
                     for t in dict.fromkeys(_analyzed(q)))
    return f"""{_analysis_ctes()},
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
  GROUP BY 1, 2, 3
  HAVING count(DISTINCT tf.term) >= {m}),
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


# ---------------------------------------------------------------------------
# Fuzzy (edit-distance-1) retrieval: each query word expands to the
# dictionary terms within Levenshtein distance 1 (IndexReader.
# terms_within_edit1 — length-prefiltered scan; SymSpell neighborhood is
# the documented scale path) and the expansion scores as one disjunctive
# BM25 query. Oracle = levenshtein() join against the distinct stemmed
# terms. Query words are matched RAW against the stem dictionary (a typo
# is not analyzable), lowercased by contract.
# ---------------------------------------------------------------------------

# 'tabe' -> {tabl} (1 sub); 'scann' -> {scan} (1 del); 'windoe' ->
# {window} (1 sub); 'merg' -> {merg, merge-less stems at distance 1};
# 'qqq' -> {} (empty expansion must yield zero rows on both sides).
PORTER_FUZZY = ["tabe", "scann", "windoe", "merg", "qqq"]


def porter_fuzzy_topk(index_dir: str, words: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """Ranked fuzzy retrieval: distance-<=1 dictionary expansion scored
    as one BM25 union, quantized ranking with (conv_id, turn_idx)
    tie-breaks."""
    from ..query.engine import SearchEngine

    words = words if words is not None else PORTER_FUZZY
    reader, _ = _porter_reader(index_dir)
    eng = SearchEngine(index_dir)

    def _search(q: str, kk: int):
        terms = eng.reader.terms_within_edit1(q)
        if not terms:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        return eng.regular(terms, kk)

    return _quantized_search_rows(_search, index_dir, words, k)


def porter_fuzzy_sql(words: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_fuzzy_topk``: (word, term) eligibility via
    levenshtein(word, term) <= 1 against the distinct stemmed terms,
    then the standard BM25 sum + quantized ranking."""
    words = words if words is not None else PORTER_FUZZY
    vals = ", ".join(f"('{w}')" for w in words)
    return f"""{_analysis_ctes()},
fz(query) AS (VALUES {vals}),
qt AS (
  SELECT f.query, d.term FROM fz f
  JOIN (SELECT DISTINCT term FROM df) d
    ON levenshtein(f.query, d.term) <= 1),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Delete + compact under the driver hash gate: a deterministic subset of
# conversations (source doc_id % 7 == 3 — conv names encode the doc_id)
# is compacted OUT of the cached Porter index, and ranked BM25 over the
# compacted index must hash-match the oracle computed over the FILTERED
# corpus (stats and all). This puts the whole maintenance pipeline —
# tombstone mask, positions byte-gather, stats recomputation, block-max
# rebuild — behind one rank-identity check.
# ---------------------------------------------------------------------------

DELETED_DOC_MOD, DELETED_DOC_REM = 7, 3
DELETED_DOC_FILTER = f"doc_id % {DELETED_DOC_MOD} != {DELETED_DOC_REM}"


def _deleted_convs_of_index(index_dir: str) -> list[str]:
    """The to-delete conversation ids, read from the index's own
    conv_map (conv names are 'conv-%09d' of the source doc_id)."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "conv_map")).to_table(
        columns=["conv_id"])
    return sorted({c for c in set(t["conv_id"].to_pylist())
                   if int(c.rsplit("-", 1)[1]) % DELETED_DOC_MOD
                   == DELETED_DOC_REM})


def _compacted_index_for(index_dir: str) -> str:
    """Build (once, cached beside the source index) the compacted
    variant with the deterministic subset deleted."""
    out = index_dir.rstrip("/") + "_cdel"
    if os.path.exists(os.path.join(out, "corpus_stats.json")):
        return out
    from ..index.maintenance import compact_index

    tmp = out + ".tmp"
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp)
    compact_index(index_dir, tmp,
                  extra_conv_ids=_deleted_convs_of_index(index_dir))
    os.replace(tmp, out)
    return out


def porter_deleted_topk(index_dir: str, queries: list[str] | None = None,
                        k: int = 10) -> pa.Table:
    """Ranked BM25 over the delete-compacted index — must equal the
    filtered-corpus oracle (``porter_bm25_sql(doc_filter=...)``)."""
    _porter_reader(index_dir)
    return porter_bm25_topk(_compacted_index_for(index_dir),
                            queries=queries, k=k)


def _half_conv_ids(index_dir: str) -> tuple[list[str], list[str]]:
    """Deterministic two-way corpus split by the conv id's numeric
    suffix parity (remap-independent)."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "conv_map")).to_table(
        columns=["conv_id"])
    evens, odds = [], []
    for c in set(t["conv_id"].to_pylist()):
        (evens if int(c.rsplit("-", 1)[1]) % 2 == 0 else odds).append(c)
    return sorted(evens), sorted(odds)


def _merged_index_for(index_dir: str) -> str:
    """Build (once, cached beside the source index) the segment-merge
    parity fixture: the corpus is split into two half-indexes (each a
    one-shot compaction of the full index) and ``merge_indexes`` welds
    them back together. Ranks over the result must be bit-identical to
    the original full build — the merge-correctness theorem that puts
    segment merging under the driver's hash gate with the UNCHANGED
    ``porter_bm25_sql`` oracle."""
    out = index_dir.rstrip("/") + "_merged"
    if os.path.exists(os.path.join(out, "corpus_stats.json")):
        return out
    import shutil

    from ..index.maintenance import compact_index, merge_indexes

    evens, odds = _half_conv_ids(index_dir)
    tmp = out + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    half_a = os.path.join(tmp, "half_a")
    half_b = os.path.join(tmp, "half_b")
    merged = os.path.join(tmp, "merged")
    compact_index(index_dir, half_a, extra_conv_ids=odds)   # keeps evens
    compact_index(index_dir, half_b, extra_conv_ids=evens)  # keeps odds
    merge_indexes(half_a, half_b, merged)
    os.replace(merged, out)
    shutil.rmtree(tmp)
    return out


def porter_facets(index_dir: str,
                  queries: list[str] | None = None) -> pa.Table:
    """Facet counts over each query's FULL disjunctive match set —
    (query, role, n_docs, n_convs) — computed from the index's stored
    per-posting role codes (M6), no score cut. The oracle derives role
    from turn parity, so a hash match pins every posting's role byte
    against the derivation corpus-wide."""
    from ..index.segments import ROLE_NAMES

    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    out_q, out_role, out_nd, out_nc = [], [], [], []
    for q in queries:
        doc_arrs, role_arrs = [], []
        for t in _analyzed(q):
            pl = reader.merged(t)
            if pl is None:
                continue
            doc_arrs.append(pl.doc_ids)
            role_arrs.append(pl.roles)
        if not doc_arrs:
            continue
        docs = np.concatenate(doc_arrs)
        roles = np.concatenate(role_arrs)
        uniq, first = np.unique(docs, return_index=True)
        u_roles = roles[first]
        convs = uniq >> np.uint64(TURN_BITS)
        for code in np.unique(u_roles).tolist():
            m = u_roles == code
            out_q.append(q)
            out_role.append(ROLE_NAMES.get(int(code), "other"))
            out_nd.append(int(m.sum()))
            out_nc.append(int(np.unique(convs[m]).size))
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "role": pa.array(out_role, pa.string()),
        "n_docs": pa.array(out_nd, pa.int64()),
        "n_convs": pa.array(out_nc, pa.int64()),
    })


def porter_facets_sql(queries: list[str] | None = None) -> str:
    """Oracle for ``porter_facets``: distinct match set per query from
    the analyzed stream, role = turn-parity derivation, two counts."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
matches AS (
  SELECT DISTINCT qt.query, tf.conv_id, tf.turn_idx
  FROM qt JOIN tf USING (term))
SELECT query,
       CASE WHEN turn_idx % 2 = 1 THEN 'assistant' ELSE 'user' END AS role,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs
FROM matches GROUP BY 1, 2"""


# ---------------------------------------------------------------------------
# Model-rerank seam: the two-stage retrieve-then-rerank serving pattern
# (BM25 recall set -> batched cross-encoder scoring -> final order). The
# scoring stage is a REAL actor-pool map_batches (model "loads" once per
# actor in __init__, scores batches in __call__); the container has no
# model libraries, so the scorer is a deterministic FNV surrogate —
# exactly mirrorable in SQL, which puts the whole rerank PLUMBING
# (candidate cut, actor-pool stage, rerank order) under the driver hash
# gate. Swap `_score` for a real cross-encoder at production.
# ---------------------------------------------------------------------------

CE_CANDIDATES = 40
CE_MOD = 1_000_000


class CrossEncoderStage:
    """Callable class for ``map_batches(..., concurrency=N)``: per-actor
    setup in ``__init__`` (a real model load; here the FNV constants),
    vectorized batch scoring in ``__call__``."""

    def __init__(self):
        from .textstats import fnv64_slices

        self._fnv = fnv64_slices

    def __call__(self, batch: pa.Table) -> pa.Table:
        qs = batch["query"].to_pylist()
        cs = batch["conv_id"].to_pylist()
        ts = batch["turn_idx"].to_pylist()
        enc = [f"{q}|{c}|{t}".encode() for q, c, t in zip(qs, cs, ts)]
        lens = np.fromiter((len(e) for e in enc), np.int64, len(enc))
        starts = np.zeros(len(enc) + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
        h = self._fnv(buf, starts[:-1], lens) if len(enc) else \
            np.asarray([], dtype=np.uint64)
        ce = (h % np.uint64(CE_MOD)).astype(np.int64)
        return batch.append_column("ce_q", pa.array(ce, pa.int64()))


def porter_rerank_topk(index_dir: str, queries: list[str] | None = None,
                       k: int = 10,
                       n_candidates: int = CE_CANDIDATES) -> pa.Table:
    """Two-stage serving: BM25 top-``n_candidates`` recall set (standard
    quantized cut + tie-breaks), actor-pool cross-encoder rescore, final
    top-k by (ce score DESC, conv_id, turn_idx) — DuckDB hash-matched
    end-to-end."""
    import ray.data as rd

    queries = queries if queries is not None else PORTER_QUERIES
    cands = porter_bm25_topk(index_dir, queries=queries, k=n_candidates)
    scored = (rd.from_arrow(cands)
              .map_batches(CrossEncoderStage, concurrency=2,
                           batch_size=64, batch_format="pyarrow")
              .to_arrow_refs())
    import ray

    parts = [t for t in ray.get(scored) if t.num_rows]
    tbl = pa.concat_tables(parts) if parts else cands.append_column(
        "ce_q", pa.array([], pa.int64()))
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    df = tbl.to_pandas()
    for q in queries:
        sub = df[df["query"] == q]
        sub = sub.sort_values(["ce_q", "conv_id", "turn_idx"],
                              ascending=[False, True, True]).head(k)
        for r, row in enumerate(sub.itertuples(), 1):
            out_q.append(q)
            out_r.append(r)
            out_c.append(row.conv_id)
            out_t.append(int(row.turn_idx))
            out_s.append(int(row.ce_q))
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_rerank_sql(queries: list[str] | None = None, k: int = 10,
                      n_candidates: int = CE_CANDIDATES) -> str:
    """Oracle for ``porter_rerank_topk``: the BM25 candidate CTE (same
    quantized cut), the FNV surrogate scorer as HUGEINT list_reduce over
    the composed 'query|conv|turn' string, rerank row_number."""
    inner = porter_bm25_sql(queries=queries, k=n_candidates)
    return f"""WITH cand AS (\n{inner}\n),
ce AS (
  SELECT query, conv_id, turn_idx,
         CAST(list_reduce(
            list_prepend(14695981039346656037::HUGEINT,
                         [ascii(c)::HUGEINT FOR c IN string_split(
                            query || '|' || conv_id || '|'
                                  || CAST(turn_idx AS VARCHAR), '')]),
            (h, b) -> (xor(h, b) * 1099511628211::HUGEINT)
                      % 18446744073709551616::HUGEINT)
              % {CE_MOD} AS BIGINT) AS ce_q
  FROM cand),
rr AS (
  SELECT query, conv_id, turn_idx, ce_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY ce_q DESC, conv_id, turn_idx) AS rn
  FROM ce)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx,
       ce_q AS score_q
FROM rr WHERE rn <= {k}"""


MLT_SEED_QUERIES = ["table scan", "spark", "vector group filter"]


def porter_mlt_topk(index_dir: str, queries: list[str] | None = None,
                    k: int = 10, n_terms: int = 5) -> pa.Table:
    """More-like-this (Lucene MLT analog; the reference's M13 'related
    results' sibling): the top-1 BM25 hit of each seed query becomes a
    document seed, its ``n_terms`` most characteristic terms (tf DESC,
    df ASC, term ASC — an integer-exact distinctiveness order standing
    in for Lucene's float tf-idf cut) are read from the index via the
    part-local term vector, and a disjunctive BM25 search over those
    terms ranks the corpus with the seed itself excluded — DuckDB
    hash-matched end-to-end (seed selection, term cut, and rescore all
    mirrored in SQL)."""
    queries = queries if queries is not None else MLT_SEED_QUERIES
    reader, params = _porter_reader(index_dir)
    from ..pipelines.hydrate import _load_remap

    remap = _load_remap(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        seed = porter_bm25_topk(index_dir, queries=[q], k=1)
        if seed.num_rows == 0:
            continue
        conv = seed["conv_id"][0].as_py()
        turn = int(seed["turn_idx"][0].as_py())
        h = int(remap.get(conv, conv_hash(conv)))
        seed_doc = np.uint64((h << TURN_BITS) | turn)
        tv = reader.doc_term_vector(int(seed_doc))
        sel = sorted(((-tf, reader.df(t), t) for t, tf in tv))[:n_terms]
        doc_arrs, contrib_arrs = [], []
        for _, _, t in sel:
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size)) + 1.0)
            doc_arrs.append(pl.doc_ids)
            contrib_arrs.append(idf * bm25_tf(pl.tfs, pl.dls, avgdl,
                                              params))
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs), return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        keep = uniq != seed_doc
        uniq, scores = uniq[keep], scores[keep]
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, cv, tn, sq in _ranked_rows(reader.index_dir, uniq,
                                          score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(cv)
            out_t.append(tn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_mlt_sql(queries: list[str] | None = None, k: int = 10,
                   n_terms: int = 5) -> str:
    """Oracle for ``porter_mlt_topk``: quantized-BM25 seed top-1, the
    integer (tf DESC, df ASC, term) term cut, a rescore over the cut
    terms, ANTI JOIN out the seed, standard quantized ranking."""
    queries = queries if queries is not None else MLT_SEED_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    bm25 = ("sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)"
            " * (tf.tf * 2.2"
            " / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))")
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
scored0 AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx, {bm25} AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
seed AS (
  SELECT query, conv_id, turn_idx FROM (
    SELECT query, conv_id, turn_idx,
           row_number() OVER (
             PARTITION BY query
             ORDER BY CAST(floor(score * 10000000) AS BIGINT) DESC,
                      conv_id, turn_idx) AS rn
    FROM scored0) WHERE rn = 1),
mlt_terms AS (
  SELECT query, term FROM (
    SELECT s.query, tf.term,
           row_number() OVER (PARTITION BY s.query
                              ORDER BY tf.tf DESC, df.df ASC, tf.term)
             AS rn
    FROM seed s
         JOIN tf ON tf.conv_id = s.conv_id AND tf.turn_idx = s.turn_idx
         JOIN df USING (term)) WHERE rn <= {n_terms}),
scored AS (
  SELECT mt.query, tf.conv_id, tf.turn_idx, {bm25} AS score
  FROM mlt_terms mt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
quant AS (
  SELECT sc.query, sc.conv_id, sc.turn_idx,
         CAST(floor(sc.score * 10000000) AS BIGINT) AS score_q
  FROM scored sc ANTI JOIN seed se
    ON sc.query = se.query AND sc.conv_id = se.conv_id
   AND sc.turn_idx = se.turn_idx),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


PRF_FEEDBACK_DOCS = 3            # F: pseudo-relevant seed docs
PRF_EXPANSION_TERMS = 3          # E: expansion terms added
PRF_BETA_NUM, PRF_BETA_DEN = 1, 2   # Rocchio beta = 0.5 (exact binary)


def porter_prf_topk(index_dir: str, queries: list[str] | None = None,
                    k: int = 10, n_feedback: int = PRF_FEEDBACK_DOCS,
                    n_terms: int = PRF_EXPANSION_TERMS) -> pa.Table:
    """Pseudo-relevance-feedback query expansion (Rocchio 1971 / RM-style
    two-pass retrieval; the classical IR sibling of the reference's M13
    suggestions): pass 1 takes the BM25 top-``n_feedback`` docs as
    pseudo-relevant, their term vectors (read from the index) vote the
    ``n_terms`` most characteristic terms NOT already in the query
    (sum-tf DESC, df ASC, term ASC — the integer-exact cut the MLT arm
    uses), and pass 2 rescores the corpus with
    ``score = bm25(original) + 0.5 * bm25(expansion)`` (beta exact in
    binary; docs matching only expansion terms are reachable) — DuckDB
    hash-matched end-to-end."""
    queries = queries if queries is not None else MLT_SEED_QUERIES
    reader, params = _porter_reader(index_dir)
    from ..pipelines.hydrate import _load_remap

    remap = _load_remap(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    beta = PRF_BETA_NUM / PRF_BETA_DEN
    for q in queries:
        orig_terms = _analyzed(q)
        seeds = porter_bm25_topk(index_dir, queries=[q], k=n_feedback)
        if seeds.num_rows == 0:
            continue
        tf_sum: dict[str, int] = {}
        for i in range(seeds.num_rows):
            conv = seeds["conv_id"][i].as_py()
            turn = int(seeds["turn_idx"][i].as_py())
            h = int(remap.get(conv, conv_hash(conv)))
            doc = np.uint64((h << TURN_BITS) | turn)
            for t, tfv in reader.doc_term_vector(int(doc)):
                tf_sum[t] = tf_sum.get(t, 0) + int(tfv)
        orig_set = set(orig_terms)
        sel = sorted(((-s, reader.df(t), t)
                      for t, s in tf_sum.items()
                      if t not in orig_set))[:n_terms]
        exp_terms = [t for _, _, t in sel]

        def _disjunctive(terms: list[str]) -> tuple:
            docs_arrs, contrib_arrs = [], []
            for t in terms:
                pl = reader.merged(t)
                if pl is None:
                    continue
                idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size))
                            + 1.0)
                docs_arrs.append(pl.doc_ids)
                contrib_arrs.append(idf * bm25_tf(pl.tfs, pl.dls, avgdl,
                                                  params))
            if not docs_arrs:
                return (np.asarray([], np.uint64),
                        np.asarray([], np.float64))
            uniq, inv = np.unique(np.concatenate(docs_arrs),
                                  return_inverse=True)
            sc = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(sc, inv, np.concatenate(contrib_arrs))
            return uniq, sc

        od, osc = _disjunctive(orig_terms)
        ed, esc = _disjunctive(exp_terms)
        # total = orig + beta * exp over the UNION of doc sets (the SQL
        # FULL JOIN + coalesce; each side's own sum already fixed above)
        uniq = np.union1d(od, ed)
        total = np.zeros(uniq.size, dtype=np.float64)
        total[np.searchsorted(uniq, od)] += osc
        total[np.searchsorted(uniq, ed)] += beta * esc
        score_q = np.floor(total * 1e7).astype(np.int64)
        for r, cv, tn, sq in _ranked_rows(reader.index_dir, uniq,
                                          score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(cv)
            out_t.append(tn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_prf_sql(queries: list[str] | None = None, k: int = 10,
                   n_feedback: int = PRF_FEEDBACK_DOCS,
                   n_terms: int = PRF_EXPANSION_TERMS) -> str:
    """Oracle for ``porter_prf_topk``: quantized-BM25 seed top-F, the
    integer (sum-tf DESC, df ASC, term) expansion cut minus the original
    query terms, and the two-sided rescore combined with FULL JOIN +
    ``orig + 0.5 * exp``."""
    queries = queries if queries is not None else MLT_SEED_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    bm25 = ("sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)"
            " * (tf.tf * 2.2"
            " / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))")
    beta = PRF_BETA_NUM / PRF_BETA_DEN
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
scored0 AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx, {bm25} AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
seed AS (
  SELECT query, conv_id, turn_idx FROM (
    SELECT query, conv_id, turn_idx,
           row_number() OVER (
             PARTITION BY query
             ORDER BY CAST(floor(score * 10000000) AS BIGINT) DESC,
                      conv_id, turn_idx) AS rn
    FROM scored0) WHERE rn <= {n_feedback}),
prf_base AS (
  SELECT s.query, tf.term, CAST(sum(tf.tf) AS BIGINT) AS tfs,
         min(df.df) AS dfv
  FROM seed s
       JOIN tf ON tf.conv_id = s.conv_id AND tf.turn_idx = s.turn_idx
       JOIN df USING (term)
  GROUP BY 1, 2),
prf_excl AS (
  SELECT b.query, b.term, b.tfs, b.dfv
  FROM prf_base b ANTI JOIN qt q
    ON b.query = q.query AND b.term = q.term),
prf_terms AS (
  SELECT query, term FROM (
    SELECT query, term,
           row_number() OVER (PARTITION BY query
                              ORDER BY tfs DESC, dfv ASC, term) AS rn
    FROM prf_excl) WHERE rn <= {n_terms}),
exp_scored AS (
  SELECT pt.query, tf.conv_id, tf.turn_idx, {bm25} AS score
  FROM prf_terms pt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
prf_comb AS (
  SELECT coalesce(a.query, b.query) AS query,
         coalesce(a.conv_id, b.conv_id) AS conv_id,
         coalesce(a.turn_idx, b.turn_idx) AS turn_idx,
         coalesce(a.score, 0.0) + {beta!r} * coalesce(b.score, 0.0)
           AS score
  FROM scored0 a FULL JOIN exp_scored b
    ON a.query = b.query AND a.conv_id = b.conv_id
   AND a.turn_idx = b.turn_idx),
prf_ranked AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q,
         row_number() OVER (
           PARTITION BY query
           ORDER BY CAST(floor(score * 10000000) AS BIGINT) DESC,
                    conv_id, turn_idx) AS rn
  FROM prf_comb)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM prf_ranked WHERE rn <= {k}"""


def porter_merged_topk(index_dir: str, queries: list[str] | None = None,
                       k: int = 10) -> pa.Table:
    """Ranked BM25 over the split-then-merged index — must hash-match the
    full-corpus oracle (``porter_bm25_sql``), pinning segment merge
    end-to-end: posting interleave, positions byte-gather, roles
    reorder, exact stats recombination, block-max rebuild."""
    _porter_reader(index_dir)
    return porter_bm25_topk(_merged_index_for(index_dir),
                            queries=queries, k=k)


# ---------------------------------------------------------------------------
# Dictionary autocomplete: top-k completions of a prefix ranked by
# collection frequency (cf desc, term asc) — the type-ahead counterpart
# of M13's suggested queries, served straight from the term dictionary
# (per-part sorted range scan + the segment rows' precomputed cf; no
# posting decode).
# ---------------------------------------------------------------------------

AUTOCOMPLETE_PREFIXES = ["s", "ta", "w", "gro", "zz"]


def porter_autocomplete(index_dir: str,
                        prefixes: list[str] | None = None,
                        k: int = 5) -> pa.Table:
    """(prefix, rank, term, cf): the k most frequent dictionary terms
    per prefix."""
    prefixes = prefixes if prefixes is not None else AUTOCOMPLETE_PREFIXES
    reader, _ = _porter_reader(index_dir)
    out = {c: [] for c in ("prefix", "rank", "term", "cf")}
    for p in prefixes:
        terms = reader.terms_with_prefix(p)
        scored = sorted(((-reader.cf(t), t) for t in terms))[:k]
        for r, (ncf, t) in enumerate(scored, 1):
            out["prefix"].append(p)
            out["rank"].append(r)
            out["term"].append(t)
            out["cf"].append(-ncf)
    return pa.table({
        "prefix": pa.array(out["prefix"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "term": pa.array(out["term"], pa.string()),
        "cf": pa.array(out["cf"], pa.int64()),
    })


def porter_autocomplete_sql(prefixes: list[str] | None = None,
                            k: int = 5) -> str:
    """Oracle: per-term cf over the analyzed stream, LIKE prefix join,
    row_number by (cf desc, term)."""
    prefixes = prefixes if prefixes is not None else AUTOCOMPLETE_PREFIXES
    vals = ", ".join(f"('{p}')" for p in prefixes)
    return f"""{_analysis_ctes()},
cf AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term),
pfx(prefix) AS (VALUES {vals}),
ranked AS (
  SELECT p.prefix, c.term, c.cf,
         row_number() OVER (PARTITION BY p.prefix
                            ORDER BY c.cf DESC, c.term) AS rn
  FROM pfx p JOIN cf c ON c.term LIKE p.prefix || '%')
SELECT prefix, CAST(rn AS INTEGER) AS rank, term, cf
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Did-you-mean spelling correction: for each (misspelled) query word,
# the top-k dictionary terms within Levenshtein distance 1, ranked by
# collection frequency — the dictionary-backed spell-correction layer
# next to the reference's query-suggestion surface (QueryService.java:
# 1496 generateSuggestedQueries pulls popular related terms; this is
# the same cf-popularity ranking applied to edit-distance candidates,
# sharing porter_autocomplete's cf ladder and porter_fuzzy_topk's
# edit-1 expansion). The input word itself is never suggested.
# ---------------------------------------------------------------------------

# 'tabe' (sub), 'scann' (del), 'windoe' (sub), 'merg' (an exact index
# term — suggestions must still EXCLUDE it), 'qqq' (no candidates).
DIDYOUMEAN_WORDS = ["tabe", "scann", "windoe", "merg", "qqq"]


def porter_didyoumean(index_dir: str, words: list[str] | None = None,
                      k: int = 5) -> pa.Table:
    """(word, rank, term, cf): cf-ranked edit-1 dictionary corrections,
    the queried word itself excluded."""
    words = words if words is not None else DIDYOUMEAN_WORDS
    reader, _ = _porter_reader(index_dir)
    out = {c: [] for c in ("word", "rank", "term", "cf")}
    for w in words:
        terms = [t for t in reader.terms_within_edit1(w) if t != w]
        scored = sorted(((-reader.cf(t), t) for t in terms))[:k]
        for r, (ncf, t) in enumerate(scored, 1):
            out["word"].append(w)
            out["rank"].append(r)
            out["term"].append(t)
            out["cf"].append(-ncf)
    return pa.table({
        "word": pa.array(out["word"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "term": pa.array(out["term"], pa.string()),
        "cf": pa.array(out["cf"], pa.int64()),
    })


def porter_didyoumean_sql(words: list[str] | None = None,
                          k: int = 5) -> str:
    """Oracle: per-term cf over the analyzed stream, levenshtein <= 1
    join excluding the word itself, row_number by (cf desc, term)."""
    words = words if words is not None else DIDYOUMEAN_WORDS
    vals = ", ".join(f"('{w}')" for w in words)
    return f"""{_analysis_ctes()},
cf AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term),
w(word) AS (VALUES {vals}),
ranked AS (
  SELECT w.word, c.term, c.cf,
         row_number() OVER (PARTITION BY w.word
                            ORDER BY c.cf DESC, c.term) AS rn
  FROM w JOIN cf c
    ON levenshtein(w.word, c.term) <= 1 AND c.term <> w.word)
SELECT word, CAST(rn AS INTEGER) AS rank, term, cf
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Field-collapsed retrieval (Lucene CollapsingTopDocsCollector / result
# grouping analog): the ranking keeps only each CONVERSATION's best
# turn, so the page shows k distinct conversations instead of k turns
# of one hot conversation — the diversity guarantee the reference's
# per-URL result list gets for free (QueryService.java groups hits per
# page/url before ranking the page list). Rep turn per conv = highest
# quantized score, lowest turn_idx on ties; convs then rank by the
# standard (score_q desc, conv_id, turn_idx) order.
# ---------------------------------------------------------------------------

def porter_collapse_topk(index_dir: str, queries: list[str] | None = None,
                         k: int = 10) -> pa.Table:
    """Top-k conversations under best-turn collapsing; exact under
    quantization via the same grow-until-boundary-strict loop as
    ``_quantized_search_rows``, with the boundary computed over
    COLLAPSED (per-conv max) quantized scores."""
    from ..query.engine import SearchEngine

    queries = queries if queries is not None else PORTER_QUERIES
    _porter_reader(index_dir)
    eng = SearchEngine(index_dir)
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        terms = _analyzed(q)
        kk = max(4 * k, 16)
        while True:
            docs, scores = eng.regular(terms, kk)
            if docs.size < kk:
                break
            qv = np.floor(scores * 1e7).astype(np.int64)
            conv = docs >> np.uint64(TURN_BITS)
            u, inv = np.unique(conv, return_inverse=True)
            best = np.full(u.size, np.iinfo(np.int64).min, np.int64)
            np.maximum.at(best, inv, qv)
            if u.size >= k:
                boundary = -np.partition(-best, k - 1)[k - 1]
                # strict: an unreturned turn can neither seed a top-k
                # conv nor tie a top-k conv's rep
                if qv.min() < boundary:
                    break
            kk *= 2
        if docs.size == 0:
            continue
        qv = np.floor(scores * 1e7).astype(np.int64)
        conv = docs >> np.uint64(TURN_BITS)
        turn = (docs & np.uint64((1 << TURN_BITS) - 1)).astype(np.int64)
        order = np.lexsort((turn, -qv, conv))
        cs = conv[order]
        first = np.concatenate(([True], cs[1:] != cs[:-1]))
        rep_docs = docs[order][first]
        rep_qv = qv[order][first]
        for r, cnv, t, sq in _ranked_rows(index_dir, rep_docs, rep_qv, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(cnv)
            out_t.append(t)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_collapse_sql(queries: list[str] | None = None,
                        k: int = 10) -> str:
    """Oracle for ``porter_collapse_topk``: standard quantized BM25,
    rep turn via row_number over (query, conv_id), then the standard
    ranking over reps only."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    return f"""{_analysis_ctes()},
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
  GROUP BY 1, 2, 3),
quant AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q
  FROM scored),
rep AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query, conv_id
                            ORDER BY score_q DESC, turn_idx) AS rturn
  FROM quant),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM rep WHERE rturn = 1)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Classic TF-IDF vector-space ranking (SMART lnc.ltc: doc side 1+ln tf
# with cosine norm over ALL the doc's terms, query side (1+ln qtf) *
# ln(N/df)) — the pre-BM25 ranking family, kept alongside the A9/A10
# ComplexPhraseSearching parity arm (reference scoring lineage:
# Ranker.java's tf/dl * log10 variant is the same VSM idea). Doc norms
# are an index-wide per-doc aggregate — at build scale they are one
# more per-doc statistic next to dl (computed here with a single
# vectorized pass over the posting lists).
# ---------------------------------------------------------------------------

def _tfidf_doc_norms(reader) -> tuple[np.ndarray, np.ndarray]:
    """(sorted doc_ids, sqrt(sum (1+ln tf)^2)) over every posting."""
    docs_all, w2_all = [], []
    for t in sorted(reader.vocabulary()):
        pl = reader.merged(t)
        if pl is None or pl.doc_ids.size == 0:
            continue
        w = 1.0 + np.log(pl.tfs.astype(np.float64))
        docs_all.append(pl.doc_ids)
        w2_all.append(w * w)
    docs = np.concatenate(docs_all)
    w2 = np.concatenate(w2_all)
    uniq, inv = np.unique(docs, return_inverse=True)
    nsq = np.zeros(uniq.size, np.float64)
    np.add.at(nsq, inv, w2)
    return uniq, np.sqrt(nsq)


def porter_tfidf_topk(index_dir: str, queries: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """lnc.ltc cosine top-k with quantized ranking and (conv_id,
    turn_idx) tie-breaks."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    norm_docs, norms = _tfidf_doc_norms(reader)
    n = float(reader.n_docs)

    def _search(q: str, kk: int):
        terms = _analyzed(q)
        acc: dict = {}
        uniq_t, qtf = np.unique(np.asarray(terms, dtype=object),
                                return_counts=True)
        docs_l, dot_l = [], []
        for t, qc in zip(uniq_t.tolist(), qtf.tolist()):
            pl = reader.merged(t)
            if pl is None or pl.doc_ids.size == 0:
                continue
            df = float(reader.df(t))
            wq = (1.0 + np.log(float(qc))) * np.log(n / df)
            docs_l.append(pl.doc_ids)
            dot_l.append((1.0 + np.log(pl.tfs.astype(np.float64))) * wq)
        if not docs_l:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        docs = np.concatenate(docs_l)
        dots = np.concatenate(dot_l)
        uniq, inv = np.unique(docs, return_inverse=True)
        dot = np.zeros(uniq.size, np.float64)
        np.add.at(dot, inv, dots)
        j = np.searchsorted(norm_docs, uniq)
        score = dot / norms[j]
        if uniq.size > kk:
            cut = np.argpartition(-score, kk - 1)[:kk]
            uniq, score = uniq[cut], score[cut]
        return uniq, score

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_tfidf_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_tfidf_topk``: per-doc norm CTE over the full
    analyzed stream, lnc.ltc dot product, quantized ranking."""
    queries = queries if queries is not None else PORTER_QUERIES
    rows = []
    for q in queries:
        terms = _analyzed(q)
        uniq = sorted(set(terms))
        for t in uniq:
            rows.append(f"('{q}', '{t}', {terms.count(t)})")
    vals = ", ".join(rows)
    return f"""{_analysis_ctes()},
qt(query, term, qtf) AS (VALUES {vals}),
norm AS (
  SELECT conv_id, turn_idx,
         sqrt(sum(pow(1.0 + ln(CAST(tf AS DOUBLE)), 2.0))) AS nrm
  FROM tf GROUP BY 1, 2),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((1.0 + ln(CAST(tf.tf AS DOUBLE)))
             * ((1.0 + ln(CAST(qt.qtf AS DOUBLE)))
                * ln(CAST(s.n AS DOUBLE) / df.df)))
           AS dot
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
quant AS (
  SELECT sc.query, sc.conv_id, sc.turn_idx,
         CAST(floor(sc.dot / nm.nrm * 10000000) AS BIGINT) AS score_q
  FROM scored sc
  JOIN norm nm ON sc.conv_id = nm.conv_id AND sc.turn_idx = nm.turn_idx),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Language-model ranking (query likelihood): Dirichlet-prior smoothing
# (Zhai & Lafferty 2001) and Jelinek-Mercer interpolation — the third
# classic ranking family next to BM25 and the lnc.ltc VSM arm, over the
# SAME candidate generation (union of postings) and quantized-ranking
# tail. Candidate docs match >= 1 query term; unmatched terms
# contribute their background (collection) mass, so the scores are the
# full query log-likelihoods, not matched-term fragments. Collection
# size T = sum of dl over all docs, read exactly as the integer sum of
# per-term collection frequencies.
# ---------------------------------------------------------------------------

QL_MU = 2000.0          # Dirichlet pseudo-count
QL_LAMBDA = 0.1         # JM background weight


def _collection_tokens(reader) -> int:
    """Exact total kept-token count == SQL ``sum(dl)`` (index-wide cf
    sum; at build scale this is one stored stat next to avgdl)."""
    return sum(reader.cf(t) for t in reader.vocabulary())


def _ql_topk(index_dir: str, mode: str, queries: list[str] | None,
             k: int) -> pa.Table:
    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    T = float(_collection_tokens(reader))

    def _search(q: str, kk: int):
        per_term = []
        for t in sorted(set(_analyzed(q))):
            pl = reader.merged(t)
            cf = reader.cf(t)
            if pl is None or pl.doc_ids.size == 0 or cf == 0:
                continue
            per_term.append((float(cf), pl))
        if not per_term:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        docs = np.unique(np.concatenate([pl.doc_ids
                                         for _, pl in per_term]))
        dlv = np.zeros(docs.size, np.float64)
        for _, pl in per_term:
            dlv[np.searchsorted(docs, pl.doc_ids)] = \
                pl.dls.astype(np.float64)
        score = np.zeros(docs.size, np.float64)
        for cf, pl in per_term:
            tf = np.zeros(docs.size, np.float64)
            tf[np.searchsorted(docs, pl.doc_ids)] = \
                pl.tfs.astype(np.float64)
            if mode == "dirichlet":
                score += np.log((tf + QL_MU * cf / T) / (dlv + QL_MU))
            else:                                    # jelinek-mercer
                score += np.log((1.0 - QL_LAMBDA) * tf / dlv
                                + QL_LAMBDA * cf / T)
        if docs.size > kk:
            cut = np.argpartition(-score, kk - 1)[:kk]
            docs, score = docs[cut], score[cut]
        return docs, score

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_lmdir_topk(index_dir: str, queries: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """Dirichlet query-likelihood top-k, quantized ranking."""
    return _ql_topk(index_dir, "dirichlet", queries, k)


def porter_lmjm_topk(index_dir: str, queries: list[str] | None = None,
                     k: int = 10) -> pa.Table:
    """Jelinek-Mercer query-likelihood top-k, quantized ranking."""
    return _ql_topk(index_dir, "jm", queries, k)


def _ql_sql(mode: str, queries: list[str] | None, k: int) -> str:
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in sorted(set(_analyzed(q))))
    if mode == "dirichlet":
        expr = (f"ln((COALESCE(tf.tf, 0) + {QL_MU!r}::DOUBLE * cf.cf"
                f" / tot.t) / (dl.dl + {QL_MU!r}::DOUBLE))")
    else:
        expr = (f"ln({1.0 - QL_LAMBDA!r}::DOUBLE * COALESCE(tf.tf, 0)"
                f" / dl.dl + {QL_LAMBDA!r}::DOUBLE * cf.cf / tot.t)")
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
cf AS (SELECT term, CAST(count(*) AS BIGINT) AS cf FROM ptok
       GROUP BY term),
tot AS (SELECT CAST(sum(dl) AS BIGINT) AS t FROM dl),
cand AS (SELECT DISTINCT qt.query, tf.conv_id, tf.turn_idx
         FROM qt JOIN tf USING (term)),
scored AS (
  SELECT c.query, c.conv_id, c.turn_idx, sum({expr}) AS score
  FROM cand c
  JOIN qt ON qt.query = c.query
  JOIN cf ON cf.term = qt.term
  CROSS JOIN tot
  JOIN dl ON dl.conv_id = c.conv_id AND dl.turn_idx = c.turn_idx
  LEFT JOIN tf ON tf.term = qt.term AND tf.conv_id = c.conv_id
              AND tf.turn_idx = c.turn_idx
  GROUP BY 1, 2, 3),
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


def porter_lmdir_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_lmdir_topk``: candidate cross-join with
    COALESCE'd tf, background mass from the cf/total CTEs."""
    return _ql_sql("dirichlet", queries, k)


def porter_lmjm_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_lmjm_topk``."""
    return _ql_sql("jm", queries, k)


# ---------------------------------------------------------------------------
# Divergence-from-randomness ranking (Amati & van Rijsbergen 2002, the
# Terrier formulations): InL2 — inverse-document-frequency randomness
# model with Laplace after-effect and logarithmic (H2) length
# normalization — and DPH, the parameter-free hypergeometric model with
# Popper normalization. Both consume only (tf, dl, df/cf, N, avgdl) —
# exactly the statistics the BM25 CTEs already expose — so the oracles
# reuse ``_analysis_ctes`` verbatim. Unlike the query-likelihood pair,
# only MATCHING terms contribute (no background mass), so candidates are
# the plain tf join. Every float op is written in the identical
# left-to-right order on both sides; ranking is floor-quantized at 1e7
# like every other ranked mode.
# ---------------------------------------------------------------------------

DFR_C = 1.0                    # InL2 H2 length-normalization constant
DPH_F_CLAMP = 0.999999999      # keeps log2(1-f) finite when tf == dl
DPH_TWO_PI = 6.283185307179586


def _dfr_topk(index_dir: str, mode: str, queries: list[str] | None,
              k: int) -> pa.Table:
    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    n_docs = float(reader.n_docs)
    avgdl = float(reader.avgdl)

    def _search(q: str, kk: int):
        per_term = []
        for t in sorted(set(_analyzed(q))):
            pl = reader.merged(t)
            if pl is None or pl.doc_ids.size == 0:
                continue
            per_term.append((float(reader.cf(t)), pl))
        if not per_term:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        docs = np.unique(np.concatenate([pl.doc_ids
                                         for _, pl in per_term]))
        score = np.zeros(docs.size, np.float64)
        for cf, pl in per_term:
            idx = np.searchsorted(docs, pl.doc_ids)
            tf = pl.tfs.astype(np.float64)
            dlv = pl.dls.astype(np.float64)
            df = float(pl.doc_ids.size)
            if mode == "inl2":
                tfn = tf * np.log2(1.0 + DFR_C * avgdl / dlv)
                contrib = (tfn / (tfn + 1.0)
                           * np.log2((n_docs + 1.0) / (df + 0.5)))
            else:                                        # dph
                f = np.minimum(tf / dlv, DPH_F_CLAMP)
                norm = (1.0 - f) * (1.0 - f) / (tf + 1.0)
                contrib = norm * (
                    tf * np.log2(tf * avgdl / dlv * (n_docs / cf))
                    + 0.5 * np.log2(DPH_TWO_PI * tf * (1.0 - f)))
            score[idx] += contrib
        if docs.size > kk:
            cut = np.argpartition(-score, kk - 1)[:kk]
            docs, score = docs[cut], score[cut]
        return docs, score

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_dfr_topk(index_dir: str, queries: list[str] | None = None,
                    k: int = 10) -> pa.Table:
    """DFR InL2 top-k, quantized ranking."""
    return _dfr_topk(index_dir, "inl2", queries, k)


def porter_dph_topk(index_dir: str, queries: list[str] | None = None,
                    k: int = 10) -> pa.Table:
    """DFR DPH (parameter-free) top-k, quantized ranking."""
    return _dfr_topk(index_dir, "dph", queries, k)


def _dfr_sql(mode: str, queries: list[str] | None, k: int) -> str:
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in sorted(set(_analyzed(q))))
    if mode == "inl2":
        tfn = f"(tf.tf * log2(1.0 + {DFR_C!r} * s.avgdl / dl.dl))"
        expr = (f"{tfn} / ({tfn} + 1.0)"
                f" * log2((CAST(s.n AS DOUBLE) + 1.0) / (df.df + 0.5))")
        cf_join = ""
    else:
        f = (f"least(CAST(tf.tf AS DOUBLE) / dl.dl, "
             f"{DPH_F_CLAMP!r}::DOUBLE)")
        expr = (f"((1.0 - {f}) * (1.0 - {f}) / (tf.tf + 1.0))"
                f" * (tf.tf * log2(tf.tf * s.avgdl / dl.dl"
                f" * (CAST(s.n AS DOUBLE) / cf.cf))"
                f" + 0.5 * log2({DPH_TWO_PI!r}::DOUBLE * tf.tf"
                f" * (1.0 - {f})))")
        cf_join = " JOIN cf ON cf.term = qt.term"
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
cf AS (SELECT term, CAST(count(*) AS BIGINT) AS cf FROM ptok
       GROUP BY term),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx, sum({expr}) AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term){cf_join}
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


def porter_dfr_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_dfr_topk`` (InL2): tf-join candidates, H2
    length normalization and Laplace after-effect inline."""
    return _dfr_sql("inl2", queries, k)


# ---------------------------------------------------------------------------
# Lower-bounded BM25 variants (Lv & Zhai, CIKM 2011): BM25+ adds a
# floor δ to the tf part so long documents cannot be penalized below a
# single-occurrence bound; BM25L shifts the length-normalized count
# c = tf/(1-b+b·dl/avgdl) by δ before the saturation. Both keep the
# engine's stats and idf v2 (same k1=1.2, b=0.75 as the BM25 oracle) —
# the point is the tf-normalization change in isolation.
# ---------------------------------------------------------------------------

BM25PLUS_DELTA = 1.0
BM25L_DELTA = 0.5


def _bm25lb_topk(index_dir: str, mode: str, queries: list[str] | None,
                 k: int) -> pa.Table:
    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    n_docs = float(reader.n_docs)
    avgdl = float(reader.avgdl)

    def _search(q: str, kk: int):
        per_term = []
        for t in sorted(set(_analyzed(q))):
            pl = reader.merged(t)
            if pl is None or pl.doc_ids.size == 0:
                continue
            per_term.append(pl)
        if not per_term:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        docs = np.unique(np.concatenate([pl.doc_ids for pl in per_term]))
        score = np.zeros(docs.size, np.float64)
        for pl in per_term:
            idx = np.searchsorted(docs, pl.doc_ids)
            tf = pl.tfs.astype(np.float64)
            dlv = pl.dls.astype(np.float64)
            df = float(pl.doc_ids.size)
            idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
            norm = 0.25 + 0.75 * (dlv / avgdl)
            if mode == "plus":
                tfpart = tf * 2.2 / (tf + 1.2 * norm)
                contrib = idf * (tfpart + BM25PLUS_DELTA)
            else:                                    # bm25l
                c = tf / norm
                contrib = idf * (2.2 * (c + BM25L_DELTA)
                                 / (1.2 + (c + BM25L_DELTA)))
            score[idx] += contrib
        if docs.size > kk:
            cut = np.argpartition(-score, kk - 1)[:kk]
            docs, score = docs[cut], score[cut]
        return docs, score

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_bm25plus_topk(index_dir: str,
                         queries: list[str] | None = None,
                         k: int = 10) -> pa.Table:
    """BM25+ (δ-floored tf part) top-k, quantized ranking."""
    return _bm25lb_topk(index_dir, "plus", queries, k)


def porter_bm25l_topk(index_dir: str, queries: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """BM25L (shifted length-normalized count) top-k, quantized."""
    return _bm25lb_topk(index_dir, "bm25l", queries, k)


def _bm25lb_sql(mode: str, queries: list[str] | None, k: int) -> str:
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in sorted(set(_analyzed(q))))
    idf = "(ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)"
    norm = "(0.25 + 0.75 * (dl.dl / s.avgdl))"
    if mode == "plus":
        expr = (f"{idf} * (tf.tf * 2.2 / (tf.tf + 1.2 * {norm})"
                f" + {BM25PLUS_DELTA!r}::DOUBLE)")
    else:
        c = f"(tf.tf / {norm})"
        expr = (f"{idf} * (2.2 * ({c} + {BM25L_DELTA!r}::DOUBLE)"
                f" / (1.2 + ({c} + {BM25L_DELTA!r}::DOUBLE)))")
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx, sum({expr}) AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


def porter_bm25plus_sql(queries: list[str] | None = None,
                        k: int = 10) -> str:
    """Oracle for ``porter_bm25plus_topk``."""
    return _bm25lb_sql("plus", queries, k)


def porter_bm25l_sql(queries: list[str] | None = None,
                     k: int = 10) -> str:
    """Oracle for ``porter_bm25l_topk``."""
    return _bm25lb_sql("bm25l", queries, k)


def porter_dph_sql(queries: list[str] | None = None, k: int = 10) -> str:
    """Oracle for ``porter_dph_topk``: hypergeometric estimate with
    Popper normalization, f clamped below 1 exactly as the Ray side."""
    return _dfr_sql("dph", queries, k)


# ---------------------------------------------------------------------------
# Regex term matching over the dictionary (Lucene RegexpQuery /
# WildcardQuery generalization, next to the prefix and fuzzy scans):
# for each pattern, every index term fully matching it, ranked by
# collection frequency like the other dictionary surfaces. The
# patterns stay in the RE2-compatible subset (classes, alternation,
# ., *, +) where Python fullmatch and DuckDB regexp_full_match agree.
# ---------------------------------------------------------------------------

REGEX_PATTERNS = ["s.*n", "[tw].*", "gro.+", "(hash|join)", "zz.*"]


def porter_regex_terms(index_dir: str,
                       patterns: list[str] | None = None,
                       k: int = 5) -> pa.Table:
    """(pattern, rank, term, cf): the k most frequent dictionary terms
    fully matching each pattern."""
    patterns = patterns if patterns is not None else REGEX_PATTERNS
    reader, _ = _porter_reader(index_dir)
    out = {c: [] for c in ("pattern", "rank", "term", "cf")}
    for p in patterns:
        scored = sorted(((-reader.cf(t), t)
                         for t in reader.terms_matching(p)))[:k]
        for r, (ncf, t) in enumerate(scored, 1):
            out["pattern"].append(p)
            out["rank"].append(r)
            out["term"].append(t)
            out["cf"].append(-ncf)
    return pa.table({
        "pattern": pa.array(out["pattern"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "term": pa.array(out["term"], pa.string()),
        "cf": pa.array(out["cf"], pa.int64()),
    })


def porter_regex_terms_sql(patterns: list[str] | None = None,
                           k: int = 5) -> str:
    """Oracle: cf over the analyzed stream, regexp_full_match join,
    row_number by (cf desc, term)."""
    patterns = patterns if patterns is not None else REGEX_PATTERNS
    vals = ", ".join(f"('{p}')" for p in patterns)
    return f"""{_analysis_ctes()},
cf AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term),
pat(pattern) AS (VALUES {vals}),
ranked AS (
  SELECT p.pattern, c.term, c.cf,
         row_number() OVER (PARTITION BY p.pattern
                            ORDER BY c.cf DESC, c.term) AS rn
  FROM pat p JOIN cf c ON regexp_full_match(c.term, p.pattern))
SELECT pattern, CAST(rn AS INTEGER) AS rank, term, cf
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Ranker1 combined ranking — the reference's "ranker core"
# (`Ranker1.java:770-829` calculateFinalRank): per-signal
# max-normalization, then the weighted blend 0.70·relevance +
# 0.20·pagerank + 0.10·density, with the programming-query shift
# (relevance+0.05, density+0.05, pagerank−0.10,
# `Ranker1.java:806-821`).  Relevance is the A9 per-term
# (tf/dl)·log10(N/df) sum; density is `calculateTermDensityScore`
# (`Ranker1.java:666-697`): (Σtf_searchterms / dl)·100 with the 1.2×
# bonus above 5% density.  Transcripts carry no link graph, so
# PageRank is the UNIFORM vector a linkless corpus produces
# (`Ranker1.java:699-748` on an empty adjacency) — max-normalized it
# contributes the constant weight, faithfully.  Divergence note: the
# shifted weights are taken as exact decimal literals (0.75/0.1/0.15)
# rather than re-deriving 0.10+0.05 in binary floating point.
# ---------------------------------------------------------------------------

RANKER1_PROG_STEMS = {"spark", "vector", "stream"}   # getTermRelevance>1.5
RANKER1_WEIGHTS = ("0.7", "0.2", "0.1")
RANKER1_PROG_WEIGHTS = ("0.75", "0.1", "0.15")
_R1_EPS = "0.000001"                                  # max guard


def _ranker1_weights(terms) -> tuple[str, str, str]:
    prog = any(t in RANKER1_PROG_STEMS for t in terms)
    return RANKER1_PROG_WEIGHTS if prog else RANKER1_WEIGHTS


def porter_ranker1_topk(index_dir: str, queries: list[str] | None = None,
                        k: int = 10) -> pa.Table:
    """Max-normalized weighted blend of relevance/pagerank/density,
    quantized ranking with (conv_id, turn_idx) tie-breaks."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, _ = _porter_reader(index_dir)
    n = float(reader.n_docs)

    def _search(q: str, kk: int):
        terms = sorted(set(_analyzed(q)))
        per = []
        for t in terms:
            pl = reader.merged(t)
            if pl is None or pl.doc_ids.size == 0:
                continue
            per.append((float(reader.df(t)), pl))
        if not per:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        docs = np.unique(np.concatenate([pl.doc_ids for _, pl in per]))
        dlv = np.zeros(docs.size, np.float64)
        dli = np.zeros(docs.size, np.int64)
        for _, pl in per:
            j = np.searchsorted(docs, pl.doc_ids)
            dlv[j] = pl.dls.astype(np.float64)
            dli[j] = pl.dls.astype(np.int64)
        rel = np.zeros(docs.size, np.float64)
        tfsum = np.zeros(docs.size, np.int64)
        for df_, pl in per:
            tf = np.zeros(docs.size, np.float64)
            j = np.searchsorted(docs, pl.doc_ids)
            tf[j] = pl.tfs.astype(np.float64)
            rel += (tf / dlv) * np.log10(n / df_)
            tfsum[j] += pl.tfs.astype(np.int64)
        dens = tfsum.astype(np.float64) / dlv * 100.0
        dens = np.where(20 * tfsum > dli, dens * 1.2, dens)
        wr_s, wp_s, wd_s = _ranker1_weights(terms)
        wr, wp, wd = float(wr_s), float(wp_s), float(wd_s)
        mr = max(float(rel.max()), float(_R1_EPS))
        md = max(float(dens.max()), float(_R1_EPS))
        score = wr * (rel / mr) + wp * 1.0 + wd * (dens / md)
        if docs.size > kk:
            cut = np.argpartition(-score, kk - 1)[:kk]
            docs, score = docs[cut], score[cut]
        return docs, score

    return _quantized_search_rows(_search, index_dir, queries, k)


def porter_ranker1_sql(queries: list[str] | None = None,
                       k: int = 10) -> str:
    """Oracle for ``porter_ranker1_topk``: A9 relevance + density CTEs,
    per-query max-normalization windows, literal per-query weights."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in sorted(set(_analyzed(q))))
    wvals = ", ".join(
        "('{}', {}::DOUBLE, {}::DOUBLE, {}::DOUBLE)".format(
            q, *_ranker1_weights(sorted(set(_analyzed(q)))))
        for q in queries)
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
qw(query, wr, wp, wd) AS (VALUES {wvals}),
base AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((tf.tf / dl.dl) * log10(s.n / df.df)) AS rel,
         CAST(sum(tf.tf) AS BIGINT) AS tfsum,
         CAST(min(dl.dl) AS BIGINT) AS dl
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
dens AS (
  SELECT *, (CAST(tfsum AS DOUBLE) / dl) * 100.0
            * (CASE WHEN 20 * tfsum > dl
                    THEN 1.2::DOUBLE ELSE 1.0::DOUBLE END) AS dns
  FROM base),
mx AS (
  SELECT query, greatest(max(rel), {_R1_EPS}::DOUBLE) AS mr,
         greatest(max(dns), {_R1_EPS}::DOUBLE) AS md
  FROM dens GROUP BY query),
blended AS (
  SELECT d.query, d.conv_id, d.turn_idx,
         qw.wr * (d.rel / mx.mr) + qw.wp * 1.0
           + qw.wd * (d.dns / mx.md) AS score
  FROM dens d JOIN mx USING (query) JOIN qw USING (query)),
quant AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q
  FROM blended),
ranked AS (
  SELECT query, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY query
                            ORDER BY score_q DESC, conv_id, turn_idx) AS rn
  FROM quant)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Query-analysis endpoint analog (`QueryController.java:171-187`
# /api/query-analysis, and /api/voice-search which delegates to it):
# expose the M7/M8 parse — kind / operator / analyzed phrase sides /
# stemmed deduped terms — as a table. The oracle RE-DERIVES the parse
# in SQL from the raw query strings (regex op detection, quoted-phrase
# extraction, per-token map built from the production per-token
# decision), so the parser's routing rules are themselves
# hash-checked, not just echoed.
# ---------------------------------------------------------------------------

QA_QUERIES = [
    "table scan",                           # regular
    '"table scan"',                         # full phrase
    '"table scan" AND "hash join"',         # boolean
    '"window agg" or "merge sort"',         # lower-case op normalization
    "the us war table scan",                # whitelist + stopword drop
    'scan "hash" table scan',               # stray quotes + dedup
]


def _qa_token_map() -> list[tuple[str, str]]:
    """(token, stem) rows for every token QA_QUERIES can produce that
    the parser KEEPS — computed from the production per-token rule."""
    from ..analyzer import tokenize
    from ..query.parser import IMPORTANT_TERMS, STOPWORDS, porter_stem

    toks: set[str] = set()
    for q in QA_QUERIES:
        toks.update(tokenize(q.replace('"', ' ').replace(" AND ", " ")
                             .replace(" or ", " ")))
    out = []
    for t in sorted(toks):
        if t in IMPORTANT_TERMS:
            out.append((t, porter_stem(t)))
        elif len(t) <= 1 or t in STOPWORDS:
            continue
        else:
            out.append((t, porter_stem(t)))
    return out


def query_analysis(queries: list[str] | None = None) -> pa.Table:
    """(query, kind, op, phrases, stemmed) — the /api/query-analysis
    response shape; phrases = analyzed left|right (boolean) or the
    analyzed phrase, stemmed = deduped analyzed terms (regular)."""
    from ..query.parser import parse_query

    queries = queries if queries is not None else QA_QUERIES
    rows = {c: [] for c in ("query", "kind", "op", "phrases", "stemmed")}
    for q in queries:
        p = parse_query(q)
        rows["query"].append(q)
        rows["kind"].append(p.kind)
        rows["op"].append(p.op)
        if p.kind == "boolean":
            rows["phrases"].append(
                " ".join(p.left) + "|" + " ".join(p.right))
            rows["stemmed"].append("")
        elif p.kind == "phrase":
            rows["phrases"].append(" ".join(p.phrase))
            rows["stemmed"].append("")
        else:
            rows["phrases"].append("")
            rows["stemmed"].append(" ".join(p.terms))
    return pa.table({c: pa.array(v, pa.string())
                     for c, v in rows.items()})


def query_analysis_sql(queries: list[str] | None = None) -> str:
    """Oracle: regex parse + token-map joins re-deriving the analysis
    entirely in SQL."""
    queries = queries if queries is not None else QA_QUERIES
    qvals = ", ".join("('{}')".format(q.replace("'", "''"))
                      for q in queries)
    mvals = ", ".join(f"('{w}', '{s}')" for w, s in _qa_token_map())
    return f"""
WITH qa(query) AS (VALUES {qvals}),
qmap(word, stem) AS (VALUES {mvals}),
parsed AS (
  SELECT query, trim(query) AS tq,
         upper(regexp_extract(trim(query),
               '\\s+(?i)(and|or|not)\\s+', 1)) AS op,
         regexp_extract_all(trim(query), '"([^"]*)"', 1) AS ph
  FROM qa),
kinds AS (
  SELECT *, CASE WHEN op <> '' AND len(ph) >= 2 THEN 'boolean'
                 WHEN len(ph) = 1 AND tq LIKE '"%' AND tq LIKE '%"'
                   THEN 'phrase'
                 ELSE 'regular' END AS kind
  FROM parsed),
srcs AS (
  SELECT k.query, k.kind, k.op, s.si,
         CASE WHEN k.kind = 'regular'
                THEN string_split_regex(
                  trim(replace(k.tq, '"', ' ')), '\\s+')
              WHEN k.kind = 'boolean' AND s.si = 2
                THEN string_split_regex(k.ph[2], '\\s+')
              ELSE string_split_regex(k.ph[1], '\\s+') END AS lst
  FROM kinds k
  JOIN (VALUES (1), (2)) s(si)
    ON s.si <= CASE WHEN k.kind = 'boolean' THEN 2 ELSE 1 END),
flat AS (
  SELECT q.query, q.kind, q.op, q.si, CAST(u.i AS BIGINT) AS j,
         q.lst[CAST(u.i AS INTEGER) + 1] AS tok
  FROM srcs q, UNNEST(range(len(q.lst))) u(i)),
mapped AS (
  SELECT f.*, m.stem FROM flat f JOIN qmap m ON m.word = f.tok),
dedup AS (
  SELECT *, row_number() OVER (PARTITION BY query, si, stem
                               ORDER BY j) AS rn
  FROM mapped),
kept AS (SELECT * FROM dedup WHERE kind <> 'regular' OR rn = 1),
aggd AS (
  SELECT query, kind, si, string_agg(stem, ' ' ORDER BY j) AS s
  FROM kept GROUP BY 1, 2, 3)
SELECT k.query, k.kind,
       CASE WHEN k.kind = 'boolean' THEN k.op ELSE '' END AS op,
       CASE WHEN k.kind = 'boolean'
              THEN COALESCE(a1.s, '') || '|' || COALESCE(a2.s, '')
            WHEN k.kind = 'phrase' THEN COALESCE(a1.s, '')
            ELSE '' END AS phrases,
       CASE WHEN k.kind = 'regular' THEN COALESCE(a1.s, '')
            ELSE '' END AS stemmed
FROM kinds k
LEFT JOIN aggd a1 ON a1.query = k.query AND a1.si = 1
LEFT JOIN aggd a2 ON a2.query = k.query AND a2.si = 2"""


# ---------------------------------------------------------------------------
# Score explanation (Lucene IndexSearcher.explain analog): for each
# query's top-EXPLAIN_TOP BM25 documents, the per-term contribution
# breakdown — idf and saturated-tf factors multiplied in the engine's
# exact literal order, each term's contribution quantized
# independently. The transparency surface every search team debugs
# ranking with; rows (query, rank, conv_id, turn_idx, term, tf, dl,
# contrib_q).
# ---------------------------------------------------------------------------

EXPLAIN_TOP = 3


def porter_explain(index_dir: str, queries: list[str] | None = None,
                   top: int = EXPLAIN_TOP) -> pa.Table:
    """Per-term BM25 contributions of each query's top ``top`` docs."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    n = float(reader.n_docs)
    avgdl = float(reader.avgdl)
    ranked = porter_bm25_topk(index_dir, queries=queries, k=top)
    # conv_id -> doc_id resolution: recompute doc ids from the ranked
    # conv/turn pairs via the same pure-function id assignment
    from ..stages.doc_ids import TURN_BITS, conv_hash

    out = {c: [] for c in ("query", "rank", "conv_id", "turn_idx",
                           "term", "tf", "dl", "contrib_q")}
    rd = ranked.to_pandas()
    for _, row in rd.iterrows():
        q, r = row["query"], int(row["rank"])
        conv, turn = row["conv_id"], int(row["turn_idx"])
        doc = np.uint64((conv_hash(conv) << TURN_BITS) | turn)
        for t in sorted(set(_analyzed(q))):
            pl = reader.merged(t)
            if pl is None or pl.doc_ids.size == 0:
                continue
            j = int(np.searchsorted(pl.doc_ids, doc))
            if j >= pl.doc_ids.size or pl.doc_ids[j] != doc:
                continue
            tf = float(pl.tfs[j])
            dl = float(pl.dls[j])
            df = float(reader.df(t))
            idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
            contrib = idf * (tf * (params.k1 + 1.0)
                             / (tf + params.k1
                                * (1.0 - params.b
                                   + params.b * (dl / avgdl))))
            out["query"].append(q)
            out["rank"].append(r)
            out["conv_id"].append(conv)
            out["turn_idx"].append(turn)
            out["term"].append(t)
            out["tf"].append(int(pl.tfs[j]))
            out["dl"].append(int(pl.dls[j]))
            out["contrib_q"].append(int(np.floor(contrib * 1e7)))
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "rank": pa.array(out["rank"], pa.int32()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "term": pa.array(out["term"], pa.string()),
        "tf": pa.array(out["tf"], pa.int64()),
        "dl": pa.array(out["dl"], pa.int64()),
        "contrib_q": pa.array(out["contrib_q"], pa.int64()),
    })


def porter_explain_sql(queries: list[str] | None = None,
                       top: int = EXPLAIN_TOP) -> str:
    """Oracle for ``porter_explain``: the bm25 oracle's top rows joined
    back to the per-term factors with the identical expression."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in sorted(set(_analyzed(q))))
    return f"""{_analysis_ctes()},
qt(query, term) AS (VALUES {vals}),
topd AS (
  SELECT query, rank, conv_id, turn_idx
  FROM (
{porter_bm25_sql(queries=queries, k=top)}
  ))
SELECT t.query, t.rank, t.conv_id, t.turn_idx, qt.term,
       CAST(tf.tf AS BIGINT) AS tf, CAST(dl.dl AS BIGINT) AS dl,
       CAST(floor((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
                  * (tf.tf * 2.2
                     / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl))))
                  * 10000000) AS BIGINT) AS contrib_q
FROM topd t
JOIN qt ON qt.query = t.query
JOIN tf ON tf.term = qt.term AND tf.conv_id = t.conv_id
       AND tf.turn_idx = t.turn_idx
JOIN df ON df.term = qt.term
JOIN dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
CROSS JOIN stats s"""


# ---------------------------------------------------------------------------
# BM25F: field-weighted TF with PER-FIELD length normalization (Robertson,
# Zaragoza & Taylor, CIKM 2004). In the transcript data model a document
# (turn) belongs to exactly one field (its role), so BM25F's per-field
# weighted-TF sum collapses to tf' = w_role * tf — the residual vs the A7
# roleboost arm is that (a) the weight multiplies tf BEFORE saturation
# (roleboost multiplies the saturated contribution) and (b) length
# normalization divides by the ROLE's average dl, not the corpus avgdl.
# Per-role (sum dl, n docs) come from one cached index scan (a production
# build would record them next to corpus_stats.json; read-only here).
# ---------------------------------------------------------------------------

BM25F_ROLE_WEIGHTS = {"user": 1.0, "assistant": 1.5}

_ROLE_AVGDL_CACHE: dict[str, np.ndarray] = {}


def _role_avgdl_lut(index_dir: str) -> np.ndarray:
    """256-entry role-code -> average doc length (float division
    sum/count, exactly the oracle's CAST(sum(dl) AS DOUBLE)/count(*));
    roles with no docs fall back to 1.0."""
    if index_dir in _ROLE_AVGDL_CACHE:
        return _ROLE_AVGDL_CACHE[index_dir]
    reader, _ = _porter_reader(index_dir)
    ids_l, dls_l, ros_l = [], [], []
    for t in sorted(reader.vocabulary()):
        pl = reader.merged(t)
        if pl is None:
            continue
        ids_l.append(pl.doc_ids)
        dls_l.append(pl.dls)
        ros_l.append(pl.roles)
    lut = np.ones(256, np.float64)
    if ids_l:
        ids = np.concatenate(ids_l)
        dls = np.concatenate(dls_l)
        ros = np.concatenate(ros_l)
        uniq, first = np.unique(ids, return_index=True)
        dl_u = dls[first].astype(np.int64)
        ro_u = ros[first].astype(np.int64)
        sums = np.zeros(256, np.int64)
        cnts = np.zeros(256, np.int64)
        np.add.at(sums, ro_u, dl_u)
        np.add.at(cnts, ro_u, 1)
        nz = cnts > 0
        lut[nz] = sums[nz].astype(np.float64) / cnts[nz]
    _ROLE_AVGDL_CACHE[index_dir] = lut
    return lut


def porter_bm25f_topk(index_dir: str, queries: list[str] | None = None,
                      k: int = 10) -> pa.Table:
    """BM25F ranked retrieval through the Porter index — field weight
    inside the saturation, per-role avgdl normalization — under the SQL
    oracle (same quantized ranking tail as every ranked entry)."""
    from ..index.segments import ROLE_CODES

    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    avg_lut = _role_avgdl_lut(index_dir)
    w_lut = np.ones(256, np.float64)
    for name, w in BM25F_ROLE_WEIGHTS.items():
        w_lut[ROLE_CODES[name]] = float(w)
    n = reader.n_docs
    k1, b = params.k1, params.b
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size)) + 1.0)
            f = pl.tfs.astype(np.float64) * w_lut[pl.roles]
            avg = avg_lut[pl.roles]
            contrib = idf * (f * (k1 + 1.0)
                             / (f + k1 * (1.0 - b + b * (
                                 pl.dls.astype(np.float64) / avg))))
            doc_arrs.append(pl.doc_ids)
            contrib_arrs.append(contrib)
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_bm25f_sql(queries: list[str] | None = None,
                     k: int = 10) -> str:
    """Oracle: identical formula/op order — role = turn parity,
    per-role avgdl CTE, weight inside the saturation."""
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    wu = float(BM25F_ROLE_WEIGHTS["user"])
    wa = float(BM25F_ROLE_WEIGHTS["assistant"])
    w = (f"(CASE WHEN tf.turn_idx % 2 = 1 THEN {wa!r}::DOUBLE "
         f"ELSE {wu!r}::DOUBLE END)")
    return f"""{_analysis_ctes()},
rs AS (SELECT turn_idx % 2 AS par,
              CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl
       FROM dl GROUP BY 1),
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * ((tf.tf * {w}) * 2.2
                / ((tf.tf * {w})
                   + 1.2 * (0.25 + 0.75 * (dl.dl / rs.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       JOIN rs ON rs.par = tf.turn_idx % 2
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
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


# ---------------------------------------------------------------------------
# Phrase selectivity estimation (planner statistics for positional queries)
# ---------------------------------------------------------------------------

def porter_phrase_selectivity(index_dir: str,
                              phrases: list[str] | None = None
                              ) -> pa.Table:
    """(phrase, n_docs, est_docs, actual_docs): the optimizer cell for
    positional queries — the term-independence estimate of how many
    turns contain all of a phrase's terms,

        est = (prod df_i) // N^(m-1)      (exact integer floor),

    next to the TRUE positional match count from the J6 phrase engine.
    The gap between them is what makes phrase planning hard (terms
    co-occur far above independence inside technical phrases); a cost
    model that trusts ``est`` under-budgets the position verification.
    Everything reads the index's own term statistics (df from the
    merged dictionary — no corpus pass) except the actual, which is the
    production ``phrase_match`` path. DuckDB hash-matched."""
    from ..query.engine import phrase_match

    phrases = phrases if phrases is not None else PORTER_PHRASES
    reader, _ = _porter_reader(index_dir)
    n = int(reader.n_docs)
    out = []
    for p in sorted(phrases):
        terms = _analyzed_seq(p)
        dfs = []
        for t in terms:
            pl = reader.merged(t)
            dfs.append(int(pl.doc_ids.size) if pl is not None else 0)
        est = 1
        for d in dfs:
            est *= d
        est //= n ** (len(terms) - 1) if len(terms) > 1 else 1
        actual = int(phrase_match(reader, terms).size)
        out.append((p, n, est, actual))
    return pa.table({
        "phrase": pa.array([r[0] for r in out], pa.string()),
        "n_docs": pa.array([r[1] for r in out], pa.int64()),
        "est_docs": pa.array([r[2] for r in out], pa.int64()),
        "actual_docs": pa.array([r[3] for r in out], pa.int64()),
    })


def porter_phrase_selectivity_sql(phrases: list[str] | None = None) -> str:
    """Oracle: df from the analysis CTEs, HUGEINT product estimate,
    actual from the padded-substring phrase test."""
    phrases = phrases if phrases is not None else PORTER_PHRASES
    arms = []
    for p in sorted(phrases):
        terms = _analyzed_seq(p)
        prod = " * ".join(
            f"(SELECT CAST(coalesce(max(df), 0) AS HUGEINT) FROM df "
            f"WHERE term = '{t}')" for t in terms)
        # repeated multiplication, not ** (DuckDB's ** returns DOUBLE)
        denom = (" * ".join(
            ["(SELECT CAST(count(*) AS HUGEINT) FROM turns)"]
            * (len(terms) - 1)) if len(terms) > 1 else "1")
        stemmed = " ".join(terms)
        arms.append(f"""
SELECT '{p}' AS phrase,
       (SELECT CAST(count(*) AS BIGINT) FROM turns) AS n_docs,
       CAST(({prod}) // ({denom}) AS BIGINT) AS est_docs,
       (SELECT CAST(count(*) AS BIGINT) FROM ftext
        WHERE contains(' ' || ft || ' ', ' {stemmed} ')) AS actual_docs""")
    return f"""{_analysis_ctes()},
ftext AS (
  SELECT conv_id, turn_idx,
         string_agg(term, ' ' ORDER BY rawpos) AS ft
  FROM ptok GROUP BY 1, 2)
SELECT * FROM ({" UNION ALL ".join(arms)}) ORDER BY phrase"""


# ---------------------------------------------------------------------------
# search_after cursor pagination (ES search_after / Lucene searchAfter —
# the scale-correct deep-paging mechanism O2's offset slice is not): page
# 2 is retrieved by FILTERING on the page-1 boundary tuple
# (score_q, conv_id, turn_idx) and taking a fresh top-page_size, never by
# ranking 2×page_size rows and slicing. On a sharded engine every shard
# applies the cursor filter locally and returns page_size rows — offset
# paging ships page×size rows per shard and grows without bound with
# depth. The pin is the equivalence theorem: cursor-filtered retrieval
# must hash-match the rank-window oracle exactly.
# ---------------------------------------------------------------------------

def porter_searchafter_topk(index_dir: str,
                            queries: list[str] | None = None,
                            page_size: int = 10) -> pa.Table:
    """Page 2 by search_after cursor: global rank continues
    (page_size+1 ..) — DuckDB hash-matched against the rank-window
    oracle, proving cursor ≡ offset on the quantized total order."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size))
                        + 1.0)
            doc_arrs.append(pl.doc_ids)
            contrib_arrs.append(idf * bm25_tf(pl.tfs, pl.dls, avgdl,
                                              params))
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)

        page1 = _ranked_rows(reader.index_dir, uniq, score_q, page_size)
        if len(page1) < page_size:
            continue          # no deeper page exists
        _, c_conv, c_turn, c_sq = page1[-1]

        # the cursor filter: strictly-after in (score_q DESC, conv_id
        # ASC, turn_idx ASC). Below-boundary scores pass outright; the
        # boundary score's ties resolve by (conv, turn) — only THAT
        # subset pays a conv-id resolution (shard-local and
        # boundary-sized at scale).
        below = score_q < c_sq
        at = np.flatnonzero(score_q == c_sq)
        keep_at = []
        if at.size:
            cmap = resolve_conv_ids(reader.index_dir, uniq[at])
            for i in at.tolist():
                d = int(uniq[i])
                tup = (cmap[d >> TURN_BITS], d & ((1 << TURN_BITS) - 1))
                if tup > (c_conv, c_turn):
                    keep_at.append(i)
        sel = np.concatenate([np.flatnonzero(below),
                              np.asarray(keep_at, np.int64)])
        if sel.size == 0:
            continue
        for r, conv, turn, sq in _ranked_rows(
                reader.index_dir, uniq[sel], score_q[sel], page_size):
            out_q.append(q)
            out_r.append(page_size + r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_searchafter_sql(queries: list[str] | None = None,
                           page_size: int = 10) -> str:
    """Oracle: ranks page_size+1 .. 2*page_size of the full quantized
    ranking — the window the cursor filter must reproduce — emitted
    only for queries whose page 1 is FULL (a short first page means no
    cursor exists, matching the Ray side's early-exit)."""
    inner = porter_bm25_sql(queries, 2 * page_size)
    return f"""
WITH ranked_out AS ({inner}),
full_p1 AS (
  SELECT query FROM ranked_out GROUP BY query
  HAVING count(*) FILTER (WHERE rank <= {page_size}) = {page_size})
SELECT r.* FROM ranked_out r JOIN full_p1 USING (query)
WHERE r.rank BETWEEN {page_size + 1} AND {2 * page_size}"""


# ---------------------------------------------------------------------------
# Conversation-scope retrieval (ES has_parent / Lucene join: the
# parent-child query shape): rank turns matching query A, restricted to
# CONVERSATIONS in which some turn conjunctively matches query B. The
# scope set is an index-answered conjunctive probe whose result
# collapses to conversation hashes — a broadcast semi-join at scale
# (conv set « corpus; ships once, filters row-locally) — then the rank
# probe proceeds normally. No reference analog (the reference has no
# cross-document grouping, `QueryService.java` ranks pages
# independently); this is the transcript-native operator its
# conversations invite.
# ---------------------------------------------------------------------------

CONVSCOPE_PAIRS = [("table scan", "hash join"),
                   ("spark", "slow"),
                   ("window agg", "customer query plan")]


def porter_convscope_topk(index_dir: str,
                          pairs: list[tuple] | None = None,
                          k: int = 10) -> pa.Table:
    """(pair, rank, conv_id, turn_idx, score_q): BM25 top-k for the
    rank query among turns of conversations containing a conjunctive
    match of the scope query — DuckDB hash-matched."""
    pairs = pairs if pairs is not None else CONVSCOPE_PAIRS
    reader, params = _porter_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_p, out_r, out_c, out_t, out_s = [], [], [], [], []
    for rank_q, scope_q in pairs:
        label = f"{rank_q} @ {scope_q}"
        # scope: docs containing ALL scope terms -> conv hash set
        scope_docs = None
        for t in _analyzed(scope_q):
            pl = reader.merged(t)
            d = pl.doc_ids if pl is not None else np.asarray(
                [], np.uint64)
            scope_docs = d if scope_docs is None else np.intersect1d(
                scope_docs, d)
        if scope_docs is None or scope_docs.size == 0:
            continue
        scope_convs = np.unique(
            scope_docs >> np.uint64(TURN_BITS))

        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(rank_q):
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size))
                        + 1.0)
            doc_arrs.append(pl.doc_ids)
            contrib_arrs.append(idf * bm25_tf(pl.tfs, pl.dls, avgdl,
                                              params))
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        # the broadcast semi-join: conv membership, row-local
        m = np.isin(uniq >> np.uint64(TURN_BITS), scope_convs)
        uniq, scores = uniq[m], scores[m]
        if uniq.size == 0:
            continue
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_p.append(label)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "pair": pa.array(out_p, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_convscope_sql(pairs: list[tuple] | None = None,
                         k: int = 10) -> str:
    """Oracle for ``porter_convscope_topk``: scope = conv_ids with a
    turn matching ALL scope terms (count-distinct HAVING), rank = the
    standard quantized BM25 semi-joined to that conv set."""
    pairs = pairs if pairs is not None else CONVSCOPE_PAIRS
    rvals = ", ".join(
        f"('{rq} @ {sq}', '{t}')"
        for rq, sq in pairs for t in _analyzed(rq))
    svals = ", ".join(
        f"('{rq} @ {sq}', '{t}')"
        for rq, sq in pairs for t in _analyzed(sq))
    return f"""{_analysis_ctes()},
rqt(pid, term) AS (VALUES {rvals}),
sqt(pid, term) AS (VALUES {svals}),
scnt AS (SELECT pid, CAST(count(*) AS BIGINT) AS m
         FROM sqt GROUP BY pid),
sturn AS (
  SELECT s.pid, tf.conv_id
  FROM sqt s JOIN tf USING (term)
  GROUP BY s.pid, tf.conv_id, tf.turn_idx
  HAVING count(DISTINCT tf.term)
         = (SELECT m FROM scnt WHERE pid = s.pid)),
sconv AS (SELECT DISTINCT pid, conv_id FROM sturn),
scored AS (
  SELECT rqt.pid, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM rqt JOIN tf USING (term) JOIN df USING (term)
       JOIN dl ON tf.conv_id = dl.conv_id AND tf.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
scoped AS (
  SELECT sc.pid, sc.conv_id, sc.turn_idx,
         CAST(floor(sc.score * 10000000) AS BIGINT) AS score_q
  FROM scored sc JOIN sconv v
    ON sc.pid = v.pid AND sc.conv_id = v.conv_id),
ranked AS (
  SELECT pid, conv_id, turn_idx, score_q,
         row_number() OVER (PARTITION BY pid
                            ORDER BY score_q DESC, conv_id,
                                     turn_idx) AS rn
  FROM scoped)
SELECT pid AS pair, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx,
       score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Synonym-aware retrieval with Lucene SynonymQuery SEMANTICS (not mere
# term expansion, which porter_prf/mlt already pin): all members of a
# synonym group score as ONE pseudo-term — per-doc tf = Σ member tfs,
# doc frequency = MAX member df — so a document matching two synonyms
# of the same concept is NOT double-idf-counted (the documented reason
# Lucene replaced BooleanQuery expansion with SynonymQuery). The
# synonym table maps ANALYZED stems, broadcast to the query path like
# the stopword set (ST3).
# ---------------------------------------------------------------------------

SYNQUERY_GROUPS = {"join": ["join", "merg"],
                   "fast": ["fast", "slow"],
                   "tabl": ["tabl", "row"],
                   "data": ["data", "stream"]}

SYNQUERY_QUERIES = ["join filter", "fast batch", "table data"]


def porter_synquery_topk(index_dir: str,
                        queries: list[str] | None = None,
                        synonyms: dict | None = None,
                        k: int = 10) -> pa.Table:
    """(query, rank, conv_id, turn_idx, score_q): BM25 where each
    analyzed term expands to its synonym group under SynonymQuery
    semantics (summed tf, max df) — DuckDB hash-matched."""
    queries = queries if queries is not None else SYNQUERY_QUERIES
    synonyms = synonyms if synonyms is not None else SYNQUERY_GROUPS
    reader, params = _porter_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
            members = synonyms.get(t, [t])
            pls = [(m, reader.merged(m)) for m in members]
            pls = [(m, pl) for m, pl in pls if pl is not None]
            if not pls:
                continue
            df_g = max(pl.doc_ids.size for _, pl in pls)
            docs = np.concatenate([pl.doc_ids for _, pl in pls])
            tfs = np.concatenate([pl.tfs for _, pl in pls])
            dls = np.concatenate([pl.dls for _, pl in pls])
            uniq, inv = np.unique(docs, return_inverse=True)
            tf_g = np.zeros(uniq.size, np.int64)
            np.add.at(tf_g, inv, tfs.astype(np.int64))
            dl_u = np.zeros(uniq.size, dls.dtype)
            dl_u[inv] = dls          # same doc -> same dl
            idf = float(np.log((1.0 + n) / (1.0 + df_g)) + 1.0)
            doc_arrs.append(uniq)
            contrib_arrs.append(idf * bm25_tf(tf_g, dl_u, avgdl,
                                              params))
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_synquery_sql(queries: list[str] | None = None,
                       synonyms: dict | None = None,
                       k: int = 10) -> str:
    """Oracle: per (query, group) summed tf joined with the group MAX
    df, then the standard quantized BM25 tail."""
    queries = queries if queries is not None else SYNQUERY_QUERIES
    synonyms = synonyms if synonyms is not None else SYNQUERY_GROUPS
    rows = []
    for q in queries:
        for gi, t in enumerate(_analyzed(q)):
            for m in synonyms.get(t, [t]):
                rows.append(f"('{q}', {gi}, '{m}')")
    vals = ", ".join(rows)
    return f"""{_analysis_ctes()},
qg(query, grp, term) AS (VALUES {vals}),
tfg AS (
  SELECT qg.query, qg.grp, tf.conv_id, tf.turn_idx,
         CAST(sum(tf.tf) AS BIGINT) AS tfg
  FROM qg JOIN tf USING (term)
  GROUP BY 1, 2, 3, 4),
dfg AS (
  SELECT qg.query, qg.grp, max(df.df) AS dfg
  FROM qg JOIN df USING (term)
  GROUP BY 1, 2),
scored AS (
  SELECT t.query, t.conv_id, t.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + g.dfg)) + 1.0)
             * (t.tfg * 2.2
                / (t.tfg + 1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)))))
           AS score
  FROM tfg t
       JOIN dfg g ON t.query = g.query AND t.grp = g.grp
       JOIN dl ON t.conv_id = dl.conv_id AND t.turn_idx = dl.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
ranked AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q,
         row_number() OVER (
           PARTITION BY query
           ORDER BY CAST(floor(score * 10000000) AS BIGINT) DESC,
                    conv_id, turn_idx) AS rn
  FROM scored)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Lossy length norms (Lucene SmallFloat-style): production engines do
# not store exact doc lengths in the ranking hot path — Lucene packs
# the norm into ONE byte (SmallFloat.intToByte4) and ranks with the
# decoded approximation. This cell pins that engine quirk as its own
# contract: dl quantizes to 4 SIGNIFICANT BITS (b = bit_length(dl);
# keep the top-4 bits, zero the rest — the same mantissa truncation,
# sans Lucene's exact bias table), and the BM25 ranking under the
# quantized norms must hash-match an oracle applying the identical
# truncation. avgdl stays exact (as in Lucene's BM25Similarity, which
# averages true field lengths). The ranking DIFFERS from the exact-dl
# one on boundary docs — that difference is the documented price of a
# one-byte norm, here made reproducible.
# ---------------------------------------------------------------------------

def _lossy_dl(dls: np.ndarray) -> np.ndarray:
    from .sketch import _bit_length_u64

    d = dls.astype(np.int64)
    b = _bit_length_u64(d.astype(np.uint64))
    shift = np.maximum(b - 4, 0)
    return (d >> shift) << shift


def porter_lossynorm_topk(index_dir: str,
                          queries: list[str] | None = None,
                          k: int = 10) -> pa.Table:
    """BM25 top-k under 4-significant-bit lossy length norms — DuckDB
    hash-matched against the identically-truncated oracle."""
    queries = queries if queries is not None else PORTER_QUERIES
    reader, params = _porter_reader(index_dir)
    n, avgdl = reader.n_docs, reader.avgdl
    out_q, out_r, out_c, out_t, out_s = [], [], [], [], []
    for q in queries:
        doc_arrs, contrib_arrs = [], []
        for t in _analyzed(q):
            pl = reader.merged(t)
            if pl is None:
                continue
            idf = float(np.log((1.0 + n) / (1.0 + pl.doc_ids.size))
                        + 1.0)
            doc_arrs.append(pl.doc_ids)
            contrib_arrs.append(idf * bm25_tf(pl.tfs, _lossy_dl(pl.dls),
                                              avgdl, params))
        if not doc_arrs:
            continue
        uniq, inv = np.unique(np.concatenate(doc_arrs),
                              return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_arrs))
        score_q = np.floor(scores * 1e7).astype(np.int64)
        for r, conv, turn, sq in _ranked_rows(reader.index_dir, uniq,
                                              score_q, k):
            out_q.append(q)
            out_r.append(r)
            out_c.append(conv)
            out_t.append(turn)
            out_s.append(sq)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
        "score_q": pa.array(out_s, pa.int64()),
    })


def porter_lossynorm_sql(queries: list[str] | None = None,
                         k: int = 10) -> str:
    queries = queries if queries is not None else PORTER_QUERIES
    vals = ", ".join(f"('{q}', '{t}')"
                     for q in queries for t in _analyzed(q))
    return f"""{_analysis_ctes()},
dlq AS (
  SELECT conv_id, turn_idx, dl,
         CASE WHEN length(bin(dl)) <= 4 THEN dl
              ELSE (dl >> (length(bin(dl)) - 4))
                   << (length(bin(dl)) - 4) END AS dll
  FROM dl),
qt(query, term) AS (VALUES {vals}),
scored AS (
  SELECT qt.query, tf.conv_id, tf.turn_idx,
         sum((ln((1.0 + s.n) / (1.0 + df.df)) + 1.0)
             * (tf.tf * 2.2
                / (tf.tf + 1.2 * (0.25 + 0.75 * (d.dll / s.avgdl)))))
           AS score
  FROM qt JOIN tf USING (term) JOIN df USING (term)
       JOIN dlq d ON tf.conv_id = d.conv_id
                 AND tf.turn_idx = d.turn_idx
       CROSS JOIN stats s
  GROUP BY 1, 2, 3),
ranked AS (
  SELECT query, conv_id, turn_idx,
         CAST(floor(score * 10000000) AS BIGINT) AS score_q,
         row_number() OVER (
           PARTITION BY query
           ORDER BY CAST(floor(score * 10000000) AS BIGINT) DESC,
                    conv_id, turn_idx) AS rn
  FROM scored)
SELECT query, CAST(rn AS INTEGER) AS rank, conv_id, turn_idx, score_q
FROM ranked WHERE rn <= {k}"""


# ---------------------------------------------------------------------------
# Gap-phrase (wildcard-slot) matching — Lucene SpanNearQuery with an
# exact in-order distance (the "table * scan" query): term₀ at stream
# position p and term₁ at exactly p + gap. Sits between the exact
# phrase (gap 1, `phrase_match`) and the sloppy window (≤ slop,
# `sloppy_match`): the EXACT-offset in-order predicate neither of
# them expresses. The engine-side matcher generalizes
# `engine.phrase_match`'s (candidate_rank << 32 | position − offset)
# key-intersection to arbitrary offsets — no per-doc loop.
# ---------------------------------------------------------------------------

GAP_PATTERNS = [("tabl", "scan", 2), ("hash", "merg", 2),
                ("group", "filter", 3)]


def porter_gapphrase_matches(index_dir: str,
                             patterns: list[tuple] | None = None
                             ) -> pa.Table:
    """(pattern, conv_id, turn_idx): turns where term_b occurs exactly
    ``gap`` stream positions after term_a — DuckDB hash-matched."""
    from ..query.engine import _conjunction, _intersect_sorted, _occurrences

    patterns = patterns if patterns is not None else GAP_PATTERNS
    reader, _ = _porter_reader(index_dir)
    out_p, out_c, out_t = [], [], []
    SHIFT = np.uint64(32)
    for ta, tb, gap in patterns:
        label = f"{ta} *{gap - 1} {tb}"
        pls, cand = _conjunction(reader, [ta, tb])
        if cand.size == 0:
            continue
        offsets = [0, gap]
        start_keys = None
        for pl, off in zip(pls, offsets):
            ranks, pos = _occurrences(pl, cand)
            keys = (ranks << SHIFT) | ((pos - np.uint64(off))
                                       & np.uint64(0xFFFFFFFF))
            keys.sort()
            start_keys = keys if start_keys is None else \
                _intersect_sorted(start_keys, keys)
            if start_keys.size == 0:
                break
        if start_keys is None or start_keys.size == 0:
            continue
        hit = cand[np.unique(start_keys >> SHIFT).astype(np.int64)]
        cmap = resolve_conv_ids(reader.index_dir, hit)
        for d in hit.tolist():
            out_p.append(label)
            out_c.append(cmap[int(d) >> TURN_BITS])
            out_t.append(int(d) & ((1 << TURN_BITS) - 1))
    return pa.table({
        "pattern": pa.array(out_p, pa.string()),
        "conv_id": pa.array(out_c, pa.string()),
        "turn_idx": pa.array(out_t, pa.int32()),
    })


def porter_gapphrase_sql(patterns: list[tuple] | None = None) -> str:
    patterns = patterns if patterns is not None else GAP_PATTERNS
    vals = ", ".join(f"('{ta} *{gap - 1} {tb}', '{ta}', '{tb}', {gap})"
                     for ta, tb, gap in patterns)
    return f"""{_analysis_ctes()},
spos AS (
  SELECT conv_id, turn_idx, term,
         row_number() OVER (PARTITION BY conv_id, turn_idx
                            ORDER BY rawpos) - 1 AS sp
  FROM ptok),
gp(pattern, ta, tb, gap) AS (VALUES {vals})
SELECT DISTINCT gp.pattern, a.conv_id, a.turn_idx
FROM gp
     JOIN spos a ON a.term = gp.ta
     JOIN spos b ON b.term = gp.tb
               AND b.conv_id = a.conv_id
               AND b.turn_idx = a.turn_idx
               AND b.sp = a.sp + gp.gap
ORDER BY gp.pattern, a.conv_id, a.turn_idx"""
