"""Corpus-trained classification and slice-divergence analytics.

Two operators the large-scale cleaning literature leans on and the
reference's ecosystem lacks (the reference filters by source heuristics
only — `QueryService.java` has no learned filter):

- ``nb_classify``: multinomial Naive Bayes trained on the corpus's own
  ``lang`` labels and applied back to every document — the
  fastText/CCNet-style classifier-filter stage of a training-data
  pipeline, realized count-exact so a SQL oracle can replay it. Training
  is one (label, word) count exchange; scoring is a broadcast of the
  (vocab × class) quantized log-prob matrix and a fully vectorized
  per-batch gather (searchsorted + reduceat over a 2-D contribution
  stack — no per-token Python). Above ``vocab_broadcast_limit`` the
  scoring join routes through the partitioned exchange exactly like
  ``textstats.unigram_nll`` (the threshold-routing pattern).

- ``source_kl``: per-source KL divergence KL(P_s || P_corpus) between
  add-1-smoothed unigram distributions — the slice-drift /
  domain-composition monitor (which source's text distribution strays
  furthest from the mixture). Per-(source, word) contributions are
  integers after ONE quantized log-ratio per type; totals combine in
  python-int (HUGEINT-mirroring) arithmetic on the vocab-bounded
  contribution table.

INTEGER-EXACT contracts (both mirrored verbatim in DuckDB):

nb:  q(w,c)   = floor(ln((cnt(w,c)+1)::D / (T_c+V)::D) * 1e9)
     prior(c) = floor(ln(n_c::D / n::D) * 1e9)
     score(d,c) = prior(c) + sum over tokens of q(w,c)   (int64)
     pred = argmax by (score, class asc); margin = best - runner-up.

kl:  r(s,w)  = floor(ln(((c_sw+1)::D / (T_s+V)::D)
                        / ((c_w+1)::D / (T+V)::D)) * 1e9)
     kl_q(s) = (sum over vocab of (c_sw+1) * r(s,w)) // (T_s+V)
     (the sum is HUGEINT-sized; combined as python ints driver-side
     over the vocab x sources contribution table, vocab-bounded.)

One float division chain + one ln per TYPE, identical operand order on
both sides — the repo-wide quantization contract (`textstats.py`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .textstats import fnv64_slices


def _word_slices(words: np.ndarray):
    enc = [w.encode() for w in words.tolist()]
    lens = np.fromiter((len(e) for e in enc), np.int64, len(enc))
    starts = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    return np.frombuffer(b"".join(enc), dtype=np.uint8), starts[:-1], lens


_CNT_SCHEMA = pa.schema([("whash", pa.uint64()), ("word", pa.string()),
                         ("label", pa.string()), ("cnt", pa.int64())])


def _label_word_partials(batch: pa.Table, label_col: str) -> pa.Table:
    """Per-batch (word, label, cnt) partial counts — vectorized unique
    over the (label, word) key pairs."""
    texts = batch["text"].to_pylist()
    if not texts:
        return pa.table({n: [] for n in _CNT_SCHEMA.names},
                        schema=_CNT_SCHEMA)
    labels = np.asarray(batch[label_col].to_pylist(), dtype=object)
    toks = [(t or "").split(" ") for t in texts]
    counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
    lab = np.repeat(labels, counts)
    flat = np.concatenate([np.asarray(x, dtype=object) for x in toks])
    key = np.char.add(np.char.add(lab.astype("U"), "\x00"),
                      flat.astype("U"))
    u, first, cnt = np.unique(key, return_index=True, return_counts=True)
    u_words = flat[first]
    h = fnv64_slices(*_word_slices(u_words))
    return pa.table({
        "whash": pa.array(h, pa.uint64()),
        "word": pa.array(u_words.tolist(), pa.string()),
        "label": pa.array(lab[first].tolist(), pa.string()),
        "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
    })


def _sum_counts_partition(tbl: pa.Table) -> pa.Table:
    """Exchange reducer: exact (word, label) count totals."""
    if tbl.num_rows == 0:
        return pa.table({"word": pa.array([], pa.string()),
                         "label": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    import pyarrow.compute as pc

    g = tbl.group_by(["word", "label"]).aggregate([("cnt", "sum")])
    return pa.table({"word": g["word"], "label": g["label"],
                     "cnt": pc.cast(g["cnt_sum"], pa.int64())})


def _label_word_counts(sf_dir: str, label_col: str):
    """Global (word, label, cnt) as a Dataset through one word-hash
    exchange (every word's rows meet in one partition; labels stay few)."""
    import ray.data as rd

    from .exchange import exchange_by_key

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", label_col])
    parts = ds.map_batches(_label_word_partials,
                           fn_kwargs={"label_col": label_col},
                           batch_format="pyarrow", zero_copy_batch=True)
    return exchange_by_key(parts, "whash", _sum_counts_partition,
                           n_parts=32)


def _nb_model(sf_dir: str, label_col: str):
    """Train: (classes, priors_q, vocab_sorted, Q[V, C] int64).

    Driver holds only vocab x classes — the bounded-vocab route; the
    docstring contract routes larger vocabularies through the exchange
    (see ``nb_classify``)."""
    import pyarrow.dataset as pads

    cw = _label_word_counts(sf_dir, label_col).to_pandas()

    # class priors from doc counts (tiny groupby, pruned read)
    lab = pads.dataset(f"{sf_dir}/documents.parquet").to_table(
        columns=[label_col])[label_col].to_pylist()
    classes, n_c = np.unique(np.asarray(lab, dtype=object),
                             return_counts=True)
    n = int(n_c.sum())
    priors_q = np.floor(np.log(n_c.astype(np.float64) / float(n))
                        * 1e9).astype(np.int64)

    vocab = np.unique(cw["word"].to_numpy())
    V = vocab.size
    C = classes.size
    cls_idx = {c: i for i, c in enumerate(classes.tolist())}
    wi = np.searchsorted(vocab, cw["word"].to_numpy())
    ci = np.fromiter((cls_idx[c] for c in cw["label"].tolist()),
                     np.int64, len(cw))
    cnt = np.zeros((V, C), dtype=np.int64)
    cnt[wi, ci] = cw["cnt"].to_numpy()
    t_c = cnt.sum(axis=0)
    # ONE quantization per (w, c) type: ln((cnt+1)/ (T_c+V))
    q = np.floor(np.log((cnt + 1).astype(np.float64)
                        / (t_c + V).astype(np.float64)) * 1e9) \
        .astype(np.int64)
    return classes, priors_q, vocab, q


def _nb_doc_partials(batch: pa.Table) -> pa.Table:
    """Per-batch (whash, word, doc_id, tf) doc-term rows for the
    exchange-routed scoring join (each document lives whole in one row,
    so tf is the full document term frequency)."""
    texts = batch["text"].to_pylist()
    if not texts:
        return pa.table({"whash": pa.array([], pa.uint64()),
                         "word": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64())})
    toks = [(t or "").split(" ") for t in texts]
    counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
    doc = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False),
                    counts)
    flat = np.concatenate([np.asarray(x, dtype=object) for x in toks])
    key = np.char.add(np.char.add(doc.astype("U20"), "\x00"),
                      flat.astype("U"))
    _, first, tf = np.unique(key, return_index=True, return_counts=True)
    u_words = flat[first]
    h = fnv64_slices(*_word_slices(u_words))
    return pa.table({
        "whash": pa.array(h, pa.uint64()),
        "word": pa.array(u_words.tolist(), pa.string()),
        "doc_id": pa.array(doc[first], pa.int64()),
        "tf": pa.array(tf.astype(np.int64), pa.int64()),
    })


def _nb_score_partition(tbl: pa.Table, t_c: np.ndarray,
                        n_vocab: int) -> pa.Table:
    """One whash partition holding BOTH the model's (word, class, cnt)
    rows (doc_id = -(ci+1)) and the doc-term rows of its words: compute
    each local word's quantized per-class log-prob q(w,c) =
    floor(ln((cnt+1)/(T_c+V)) * 1e9) — identical operands to the
    broadcast route, so bit-identical doubles — then per-(doc, class)
    integer partial sums of tf * q."""
    C = t_c.size
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "ci": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
    doc = tbl["doc_id"].to_numpy(zero_copy_only=False)
    words = np.asarray(tbl["word"].to_pylist(), dtype=object)
    tf = tbl["tf"].to_numpy(zero_copy_only=False)
    is_model = doc < 0
    m_words = words[is_model]
    # partition-local vocab (model rows cover every scoring word: the
    # model trains on the same corpus)
    vocab_p = np.unique(m_words)
    cnt = np.zeros((vocab_p.size, C), dtype=np.int64)
    wi_m = np.searchsorted(vocab_p, m_words)
    ci_m = (-doc[is_model]) - 1
    cnt[wi_m, ci_m] = tf[is_model]
    q = np.floor(np.log((cnt + 1).astype(np.float64)
                        / (t_c + n_vocab).astype(np.float64)) * 1e9) \
        .astype(np.int64)
    d_doc = doc[~is_model]
    if d_doc.size == 0:
        return empty
    d_tf = tf[~is_model]
    contrib = d_tf[:, None] * q[np.searchsorted(vocab_p,
                                                words[~is_model])]
    o = np.argsort(d_doc, kind="stable")
    d_doc, contrib = d_doc[o], contrib[o]
    new = np.empty(d_doc.size, dtype=bool)
    new[0] = True
    new[1:] = d_doc[1:] != d_doc[:-1]
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(contrib, starts, axis=0)     # (n_docs_p, C)
    docs_p = d_doc[starts]
    return pa.table({
        "doc_id": pa.array(np.repeat(docs_p, C), pa.int64()),
        "ci": pa.array(np.tile(np.arange(C, dtype=np.int64),
                               docs_p.size), pa.int64()),
        "s": pa.array(sums.reshape(-1), pa.int64()),
    })


def _nb_final_partition(tbl: pa.Table, classes: np.ndarray,
                        priors_q: np.ndarray) -> pa.Table:
    """Second exchange reducer (by doc_id): sum the integer per-class
    partials, add priors, argmax with class-ascending tie-break, margin
    vs the runner-up — the broadcast route's exact finish."""
    if tbl.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "pred": pa.array([], pa.string()),
                         "score_q": pa.array([], pa.int64()),
                         "margin_q": pa.array([], pa.int64())})
    C = classes.size
    doc = tbl["doc_id"].to_numpy(zero_copy_only=False)
    ci = tbl["ci"].to_numpy(zero_copy_only=False)
    s = tbl["s"].to_numpy(zero_copy_only=False)
    docs_u, dinv = np.unique(doc, return_inverse=True)
    mat = np.zeros((docs_u.size, C), dtype=np.int64)
    np.add.at(mat, (dinv, ci), s)
    mat += priors_q
    best = np.argmax(mat, axis=1)
    sc = mat[np.arange(mat.shape[0]), best]
    m2 = mat.copy()
    m2[np.arange(mat.shape[0]), best] = np.iinfo(np.int64).min
    margin = sc - m2.max(axis=1)
    return pa.table({
        "doc_id": pa.array(docs_u, pa.int64()),
        "pred": pa.array(classes[best].tolist(), pa.string()),
        "score_q": pa.array(sc, pa.int64()),
        "margin_q": pa.array(margin, pa.int64()),
    })


def _nb_classify_exchange(sf_dir: str, label_col: str, cnt_ds,
                          classes: np.ndarray, priors_q: np.ndarray):
    """The unbounded-vocab scoring route (`unigram_nll`'s shape): doc-term
    partials and model count rows meet in whash partitions where q(w,c)
    is computed locally; per-(doc, class) integer partials take a second
    exchange by doc_id. No driver-side vocabulary at any size — the
    driver holds only the C-sized class totals and priors."""
    import ray.data as rd

    from .exchange import exchange_by_key

    C = classes.size
    cls_idx = {c: i for i, c in enumerate(classes.tolist())}
    # per-class token totals: C rows off the bounded count Dataset
    t_c = np.zeros(C, dtype=np.int64)
    for r in cnt_ds.groupby("label").sum("cnt").take_all():
        t_c[cls_idx[r["label"]]] = int(r["sum(cnt)"])
    # vocab size: every word's rows live in ONE exchange output block,
    # so per-block distinct-word counts sum exactly (map_batches with
    # batch_size=None sees whole blocks)
    n_vocab = int(sum(
        r["nv"] for r in cnt_ds.map_batches(
            lambda b: pa.table({"nv": pa.array(
                [len(set(b["word"].to_pylist()))], pa.int64())}),
            batch_format="pyarrow", batch_size=None).take_all()))

    def model_rows(batch: pa.Table) -> pa.Table:
        words = np.asarray(batch["word"].to_pylist(), dtype=object)
        h = (fnv64_slices(*_word_slices(words)) if words.size
             else np.asarray([], dtype=np.uint64))
        ci = np.fromiter((cls_idx[c] for c in batch["label"].to_pylist()),
                         np.int64, batch.num_rows)
        return pa.table({
            "whash": pa.array(h, pa.uint64()),
            "word": batch["word"],
            "doc_id": pa.array(-(ci + 1), pa.int64()),
            "tf": pa.array(batch["cnt"], pa.int64()),
        })

    m_rows = cnt_ds.map_batches(model_rows, batch_format="pyarrow")
    d_rows = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"]) \
        .map_batches(_nb_doc_partials, batch_format="pyarrow",
                     zero_copy_batch=True)
    per_part = exchange_by_key(d_rows.union(m_rows), "whash",
                               _nb_score_partition,
                               proc_kwargs={"t_c": t_c,
                                            "n_vocab": n_vocab})
    return exchange_by_key(per_part, "doc_id", _nb_final_partition,
                           n_parts=32,
                           proc_kwargs={"classes": classes.astype("U"),
                                        "priors_q": priors_q})


def nb_classify(sf_dir: str, label_col: str = "lang",
                vocab_broadcast_limit: int = 2_000_000):
    """Multinomial Naive Bayes (add-1) trained on ``label_col`` and
    applied to every document -> (doc_id, pred, score_q, margin_q).

    Scale shape: training = one bounded exchange of (word, label)
    partials; scoring = ``ray.put`` of the (V x C) int64 matrix read by
    every batch (vocab-bounded). Above ``vocab_broadcast_limit`` the
    scoring join routes through the partitioned whash exchange exactly
    like ``textstats.unigram_nll`` — doc-term partials and model count
    rows meet per-word, per-(doc, class) integer partials take a second
    exchange by doc_id — bit-identical to the broadcast route (integer
    sums of identically-quantized q values; pinned by the limit-0
    equality test). Self-contained corpora keep every scoring token
    in-vocab (the model trains on the same corpus)."""
    import ray
    import ray.data as rd

    if vocab_broadcast_limit <= 0:
        # routed path without a driver-side vocab pull: priors from a
        # C-sized groupby, everything else inside the exchanges
        rows = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=[label_col]) \
            .groupby(label_col).count().take_all()
        classes = np.sort(np.asarray([r[label_col] for r in rows],
                                     dtype=object))
        by = {r[label_col]: int(r["count()"]) for r in rows}
        n_c = np.asarray([by[c] for c in classes.tolist()], np.int64)
        priors_q = np.floor(np.log(n_c.astype(np.float64)
                                   / float(n_c.sum())) * 1e9) \
            .astype(np.int64)
        cnt_ds = _label_word_counts(sf_dir, label_col).materialize()
        return _nb_classify_exchange(sf_dir, label_col, cnt_ds,
                                     classes, priors_q)

    classes, priors_q, vocab, q = _nb_model(sf_dir, label_col)
    if vocab.size > vocab_broadcast_limit:
        cnt_ds = _label_word_counts(sf_dir, label_col).materialize()
        return _nb_classify_exchange(sf_dir, label_col, cnt_ds,
                                     classes, priors_q)
    ref = ray.put((classes.astype("U"), priors_q, vocab, q))

    def score(batch: pa.Table) -> pa.Table:
        cls, pr, vb, qm = ray.get(ref)
        texts = batch["text"].to_pylist()
        if not texts:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pred": pa.array([], pa.string()),
                             "score_q": pa.array([], pa.int64()),
                             "margin_q": pa.array([], pa.int64())})
        toks = [(t or "").split(" ") for t in texts]
        counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        flat = np.concatenate([np.asarray(x, dtype=object) for x in toks])
        uf, inv = np.unique(flat, return_inverse=True)
        rows = qm[np.searchsorted(vb, uf)][inv]        # (n_tokens, C)
        starts = np.zeros(counts.size, np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        s = np.add.reduceat(rows, starts, axis=0) + pr  # (n_docs, C)
        # argmax with class-ascending tie-break: first max wins on ties
        best = np.argmax(s, axis=1)
        sc = s[np.arange(s.shape[0]), best]
        s2 = s.copy()
        s2[np.arange(s.shape[0]), best] = np.iinfo(np.int64).min
        margin = sc - s2.max(axis=1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred": pa.array(cls[best].tolist(), pa.string()),
            "score_q": pa.array(sc, pa.int64()),
            "margin_q": pa.array(margin, pa.int64()),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def nb_classify_sql(label_col: str = "lang") -> str:
    """Oracle: the identical integer contract — add-1 counts over the
    vocab x class cross join, prior + token-sum scores, argmax with
    class-ascending tie-break, margin vs the runner-up."""
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
lab AS (SELECT doc_id, {label_col} AS c FROM documents),
cls AS (SELECT c, CAST(count(*) AS BIGINT) AS n_c FROM lab GROUP BY c),
n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
vocab AS (SELECT DISTINCT w FROM tok),
v AS (SELECT CAST(count(*) AS BIGINT) AS v FROM vocab),
cnt AS (
  SELECT l.c, t.w, CAST(count(*) AS BIGINT) AS cnt
  FROM tok t JOIN lab l USING (doc_id) GROUP BY l.c, t.w),
tc AS (SELECT c, CAST(sum(cnt) AS BIGINT) AS t_c FROM cnt GROUP BY c),
q AS (
  SELECT cls.c, vocab.w,
         CAST(floor(ln((COALESCE(cnt.cnt, 0) + 1)::DOUBLE
                       / (tc.t_c + v.v)::DOUBLE)
                    * 1000000000::DOUBLE) AS BIGINT) AS q
  FROM vocab CROSS JOIN cls CROSS JOIN v
  JOIN tc ON tc.c = cls.c
  LEFT JOIN cnt ON cnt.c = cls.c AND cnt.w = vocab.w),
prior AS (
  SELECT cls.c,
         CAST(floor(ln(cls.n_c::DOUBLE / n.n::DOUBLE)
                    * 1000000000::DOUBLE) AS BIGINT) AS pq
  FROM cls CROSS JOIN n),
scores AS (
  SELECT t.doc_id, q.c, prior.pq + sum(q.q) AS s
  FROM tok t JOIN q ON q.w = t.w
  JOIN prior ON prior.c = q.c
  GROUP BY t.doc_id, q.c, prior.pq),
ranked AS (
  SELECT doc_id, c, s,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY s DESC, c ASC) AS rn
  FROM scores)
SELECT b.doc_id, b.c AS pred, CAST(b.s AS BIGINT) AS score_q,
       CAST(b.s - r.s AS BIGINT) AS margin_q
FROM ranked b JOIN ranked r
  ON r.doc_id = b.doc_id AND b.rn = 1 AND r.rn = 2"""


# ---------------------------------------------------------------------------
# Slice divergence: KL(P_source || P_corpus) over add-1 unigram models
# ---------------------------------------------------------------------------

def source_kl(sf_dir: str, slice_col: str = "source"):
    """Per-slice distribution drift -> (source, kl_q, n_tokens).

    kl_q = floor-ish integer KL x 1e9 between the slice's smoothed
    unigram distribution and the corpus mixture (contract in the module
    docstring). The heavy work is the same (word, label) count exchange
    NB training uses; the final fold runs over the vocab x slices
    contribution table (bounded by vocabulary, never corpus-sized) with
    python-int sums mirroring DuckDB's HUGEINT."""
    cw = _label_word_counts(sf_dir, slice_col).to_pandas()

    vocab = np.unique(cw["word"].to_numpy())
    V = vocab.size
    slices = np.unique(cw["label"].to_numpy())
    S = slices.size
    sl_idx = {c: i for i, c in enumerate(slices.tolist())}
    wi = np.searchsorted(vocab, cw["word"].to_numpy())
    si = np.fromiter((sl_idx[c] for c in cw["label"].tolist()),
                     np.int64, len(cw))
    cnt = np.zeros((V, S), dtype=np.int64)
    cnt[wi, si] = cw["cnt"].to_numpy()
    c_w = cnt.sum(axis=1)                    # corpus word counts
    t_s = cnt.sum(axis=0)                    # per-slice token totals
    t = int(c_w.sum())
    # ONE quantized log-ratio per (s, w) type, operand order mirrored in SQL
    r = np.floor(np.log(((cnt + 1).astype(np.float64)
                         / (t_s + V).astype(np.float64))
                        / ((c_w + 1).astype(np.float64)
                           / float(t + V))[:, None]) * 1e9).astype(np.int64)
    num = (cnt + 1).astype(object) * r.astype(object)   # python ints
    # DuckDB's integer // truncates toward zero (python floors): mirror
    # truncation so a (theoretically impossible, quantization-edge)
    # negative total cannot diverge.
    def _trunc_div(a: int, b: int) -> int:
        return a // b if a >= 0 else -((-a) // b)

    kl_q = [_trunc_div(int(num[:, j].sum()), int(t_s[j] + V))
            for j in range(S)]
    return pa.table({
        "source": pa.array(slices.tolist(), pa.string()),
        "kl_q": pa.array(kl_q, pa.int64()),
        "n_tokens": pa.array(t_s, pa.int64()),
    })


def source_kl_sql(slice_col: str = "source") -> str:
    """Oracle: identical contract in HUGEINT (sum of (c+1)*r per slice,
    floor-divided by T_s + V)."""
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
lab AS (SELECT doc_id, {slice_col} AS s FROM documents),
vocab AS (SELECT DISTINCT w FROM tok),
v AS (SELECT CAST(count(*) AS BIGINT) AS v FROM vocab),
cw AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY w),
t AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM cw),
cnt AS (
  SELECT l.s, t.w, CAST(count(*) AS BIGINT) AS cnt
  FROM tok t JOIN lab l USING (doc_id) GROUP BY l.s, t.w),
ts AS (SELECT s, CAST(sum(cnt) AS BIGINT) AS t_s FROM cnt GROUP BY s),
r AS (
  SELECT ts.s, vocab.w, COALESCE(cnt.cnt, 0) + 1 AS cp,
         CAST(floor(ln(((COALESCE(cnt.cnt, 0) + 1)::DOUBLE
                        / (ts.t_s + v.v)::DOUBLE)
                       / ((cw.c + 1)::DOUBLE / (t.t + v.v)::DOUBLE))
                    * 1000000000::DOUBLE) AS BIGINT) AS r
  FROM vocab CROSS JOIN ts CROSS JOIN v CROSS JOIN t
  JOIN cw ON cw.w = vocab.w
  LEFT JOIN cnt ON cnt.s = ts.s AND cnt.w = vocab.w)
SELECT r.s AS source,
       CAST(sum(r.cp::HUGEINT * r.r::HUGEINT)
            // (ts.t_s + v.v)::HUGEINT AS BIGINT) AS kl_q,
       CAST(ts.t_s AS BIGINT) AS n_tokens
FROM r JOIN ts ON ts.s = r.s CROSS JOIN v
GROUP BY r.s, ts.t_s, v.v"""


# ---------------------------------------------------------------------------
# Classifier evaluation — confusion cells and margin-bucket calibration
# in ONE grouped fold: per (true label, predicted label, margin bucket)
# the doc count, where bucket = bit_length(margin_q) (0 for margin 0) —
# an integer log2 ladder both engines compute exactly.
# ---------------------------------------------------------------------------


def nb_eval(sf_dir: str, label_col: str = "lang") -> pa.Table:
    """(lang, pred, bucket, n): confusion x margin-bucket cells of the
    NB classifier against its own training labels — DuckDB hash-matched
    against the composed classifier oracle."""
    import ray
    import ray.data as rd

    classes, priors_q, vocab, q = _nb_model(sf_dir, label_col)
    ref = ray.put((classes.astype("U"), priors_q, vocab, q))

    def eval_batch(batch: pa.Table) -> pa.Table:
        cls, pr, vb, qm = ray.get(ref)
        texts = batch["text"].to_pylist()
        labels = np.asarray(batch[label_col].to_pylist(), dtype=object)
        if not texts:
            return pa.table({"lang": pa.array([], pa.string()),
                             "pred": pa.array([], pa.string()),
                             "bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        toks = [(t or "").split(" ") for t in texts]
        counts = np.fromiter((len(x) for x in toks), np.int64,
                             len(toks))
        flat = np.concatenate([np.asarray(x, dtype=object)
                               for x in toks])
        uf, inv = np.unique(flat, return_inverse=True)
        rows = qm[np.searchsorted(vb, uf)][inv]
        starts = np.zeros(counts.size, np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        s = np.add.reduceat(rows, starts, axis=0) + pr
        best = np.argmax(s, axis=1)
        sc = s[np.arange(s.shape[0]), best]
        s2 = s.copy()
        s2[np.arange(s.shape[0]), best] = np.iinfo(np.int64).min
        margin = sc - s2.max(axis=1)
        bucket = np.fromiter((int(m).bit_length() for m in margin),
                             np.int64, margin.size)
        key = np.char.add(np.char.add(np.char.add(np.char.add(
            labels.astype(str), "\x1f"), cls[best]), "\x1f"),
            bucket.astype(str))
        uk, cnt = np.unique(key, return_counts=True)
        lg, pd_, bk = zip(*(k.split("\x1f") for k in uk))
        return pa.table({
            "lang": pa.array(list(lg), pa.string()),
            "pred": pa.array(list(pd_), pa.string()),
            "bucket": pa.array([int(b) for b in bk], pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", label_col])
    agg = (ds.map_batches(eval_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["lang", "pred", "bucket"]).sum("n"))
    rows = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    out = pa.table({
        "lang": rows["lang"], "pred": rows["pred"],
        "bucket": rows["bucket"],
        "n": pa.compute.cast(rows["sum(n)"], pa.int64()),
    })
    import pyarrow.compute as pc

    idx = pc.sort_indices(out, sort_keys=[("lang", "ascending"),
                                          ("pred", "ascending"),
                                          ("bucket", "ascending")])
    return out.take(idx)


def nb_eval_sql(label_col: str = "lang") -> str:
    return f"""
WITH nbp AS (
{nb_classify_sql(label_col)}
)
SELECT d.{label_col} AS lang, nbp.pred,
       CAST(CASE WHEN nbp.margin_q <= 0 THEN 0
                 ELSE length(bin(nbp.margin_q)) END AS BIGINT)
         AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM nbp JOIN documents d USING (doc_id)
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3"""
