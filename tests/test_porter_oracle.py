"""Direct DuckDB oracles for the FLAGSHIP Porter-analyzer path.

The corpus vocabulary is a closed 31-word list, so the Porter chain is
enumerable as a (word -> stem) map computed by the production analyzer —
these tests pin the closure assumptions AND the hash-matches at sf0.001
(the driver re-checks at sf0.01)."""

import glob

import duckdb
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def porter_index(ray_session, tmp_path_factory):
    from rayse.config import IndexConfig
    from rayse.pipelines.build_index import build_index
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    root = tmp_path_factory.mktemp("porter")
    tdir = root / "transcripts"
    tdir.mkdir()
    write_transcripts_from_documents(SF, str(tdir))
    idir = str(root / "index")
    build_index(str(tdir), idir, IndexConfig())   # default: porter
    return idir


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute("CREATE VIEW documents AS SELECT * FROM "
              f"read_parquet('{SF}/documents.parquet')")
    return c


def _cmp(got, want: pd.DataFrame, keys):
    got = got.to_pandas()
    assert sorted(got.columns) == sorted(want.columns)
    a = got.sort_values(keys).reset_index(drop=True)
    b = want.sort_values(keys).reset_index(drop=True)[list(a.columns)]
    b = b.astype(a.dtypes.to_dict())
    pd.testing.assert_frame_equal(a, b)


def test_vocab_closure():
    """Every sf dir's documents draw exclusively from CORPUS_VOCAB, and on
    these texts the Porter tokenizer degenerates to a whitespace split (no
    dots/paths/operators in the word soup) — the two assumptions the SQL
    stem-map mirror rests on."""
    from rayse.analyzer.tokenizer import tokenize
    from rayse.ops.porter_oracle import CORPUS_VOCAB

    vocab = set(CORPUS_VOCAB)
    for d in sorted(glob.glob("/root/testdata/sf*")):
        texts = pq.read_table(f"{d}/documents.parquet",
                              columns=["text"])["text"].to_pylist()
        words = set()
        for t in texts:
            words.update(t.split(" "))
            assert tokenize(t) == t.split(" ")
        assert words <= vocab, d


def test_stem_map_is_production_analyzer():
    """The embedded map is exactly the analyzer's decision per word
    (filtered words omitted), recomputed fresh here."""
    from rayse.analyzer import analyze
    from rayse.ops.porter_oracle import CORPUS_VOCAB, _stem_map

    want = {}
    for w in CORPUS_VOCAB:
        s = analyze(w)
        if s:
            want[w] = s[0]
    assert dict(_stem_map()) == want
    # and the interesting cases are live: drops + non-identity stems
    assert "the" not in want and "a" not in want
    assert want["table"] == "tabl" and want["query"] == "queri"


def test_porter_bm25_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import porter_bm25_sql, porter_bm25_topk

    got = porter_bm25_topk(porter_index)
    want = con.execute(porter_bm25_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_phrase_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_phrase_matches,
                                         porter_phrase_sql)

    got = porter_phrase_matches(porter_index)
    want = con.execute(porter_phrase_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["phrase", "conv_id", "turn_idx"])


def test_porter_term_stats_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_term_stats,
                                         porter_term_stats_sql)

    got = porter_term_stats(porter_index)
    want = con.execute(porter_term_stats_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["term"])


def test_porter_topk_agrees_with_engine(porter_index):
    """The quantized-ranked oracle table and the engine's own search()
    route (block-max) agree on the returned doc set per query — ties the
    oracle back to the production serving path."""
    from rayse.ops.porter_oracle import PORTER_QUERIES, porter_bm25_topk
    from rayse.pipelines.hydrate import resolve_conv_ids
    from rayse.query.engine import SearchEngine
    from rayse.stages.doc_ids import TURN_BITS

    import numpy as np

    eng = SearchEngine(porter_index)
    tbl = porter_bm25_topk(porter_index).to_pandas()
    for q in PORTER_QUERIES:
        docs, scores = eng.search(q, k=10)
        cmap = resolve_conv_ids(porter_index, docs)
        eng_q = np.floor(scores * 1e7).astype(np.int64)
        ora = tbl[tbl["query"] == q]
        # identical quantized score multisets (same ranking strength)
        assert sorted(eng_q.tolist()) == sorted(ora["score_q"]), q
        # membership may differ ONLY among docs tied at the k-th score:
        # the engine tie-breaks by doc_id (hash order, O1 parity), the
        # oracle by (conv_id, turn_idx) — both contracts, different order
        eng_set = {(cmap[int(d) >> TURN_BITS],
                    int(d) & ((1 << TURN_BITS) - 1), int(sq))
                   for d, sq in zip(docs.tolist(), eng_q.tolist())}
        ora_set = set(zip(ora["conv_id"], ora["turn_idx"],
                          ora["score_q"].astype(int)))
        boundary = min(int(x) for x in eng_q) if len(eng_q) else None
        for _, _, sq in eng_set ^ ora_set:
            assert sq == boundary, q


def test_porter_boolean_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_boolean_sql,
                                         porter_boolean_topk)

    got = porter_boolean_topk(porter_index)
    want = con.execute(porter_boolean_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_fallback_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_fallback_sql,
                                         porter_fallback_topk)

    got = porter_fallback_topk(porter_index)
    want = con.execute(porter_fallback_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # all three ladder tiers exercised
    assert set(got.to_pandas()["tier"]) == {"all", "half", "any"}


def test_porter_role_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import porter_bm25_sql, porter_bm25_topk

    got = porter_bm25_topk(porter_index, role="assistant")
    want = con.execute(porter_bm25_sql(assistant_only=True)).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert all(t % 2 == 1 for t in got["turn_idx"].to_pylist())


def test_porter_hydrated_matches_duckdb(porter_index, con, tmp_path_factory):
    from rayse.ops.porter_oracle import (porter_hydrated_sql,
                                         porter_hydrated_topk)
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    tdir = str(tmp_path_factory.mktemp("porter_h") / "transcripts")
    write_transcripts_from_documents(SF, tdir)
    got = porter_hydrated_topk(porter_index, tdir)
    want = con.execute(porter_hydrated_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_wand_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import porter_bm25_sql, porter_wand_topk

    got = porter_wand_topk(porter_index)
    want = con.execute(porter_bm25_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_cluster_matches_duckdb(porter_index, con, ray_session):
    from rayse.ops.porter_oracle import porter_bm25_sql, porter_cluster_topk

    got = porter_cluster_topk(porter_index, pool_size=2)
    want = con.execute(porter_bm25_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_conjunctive_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_conjunctive_sql,
                                         porter_conjunctive_topk)

    got = porter_conjunctive_topk(porter_index)
    want = con.execute(porter_conjunctive_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # conjunctive is strictly a subset discipline: every query with results
    # must rank <= the disjunctive result count
    assert set(got.to_pandas()["query"]) <= set(
        __import__("rayse.ops.porter_oracle", fromlist=["x"]).PORTER_QUERIES)


def test_porter_complex_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_complex_sql,
                                         porter_complex_topk)

    got = porter_complex_topk(porter_index)
    want = con.execute(porter_complex_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_porter_complex_doubling_quirk(porter_index):
    """Pins the order-dependent doubling formula itself: for every OR
    result doc, score == (s_left * 2^[matches left] + s_right) *
    2^[matches right], where s_phrase = sum over the phrase's words of
    (tf/dl)*log10(N/df) — recomputed here independently from the posting
    lists. Dropping the doubling (or the NOT quirk that right-phrase
    words still score) breaks this equality."""
    import numpy as np

    from rayse.ops.porter_oracle import _analyzed_seq
    from rayse.query.engine import SearchEngine

    eng = SearchEngine(porter_index)
    lt, rt = _analyzed_seq("table scan"), _analyzed_seq("hash join")
    n = eng.reader.n_docs

    def phrase_word_score(doc, phrase):
        s = 0.0
        for t in phrase:
            pl = eng.reader.merged(t)
            if pl is None:
                continue
            j = int(np.searchsorted(pl.doc_ids, doc))
            if j < pl.doc_ids.size and pl.doc_ids[j] == doc:
                tf = float(pl.tfs[j]) / max(float(pl.dls[j]), 1.0)
                s += tf * np.log10(n / max(eng._df(t), 1))
        return s

    ldocs, rdocs = set(eng.phrase_docs(lt).tolist()),         set(eng.phrase_docs(rt).tolist())
    for op in ("OR", "NOT"):
        docs, scores = eng.boolean_complex(op, lt, rt, 10)
        assert docs.size > 0
        for d, got in zip(docs, scores.tolist()):   # keep np.uint64:
            # a python int > 2^53 would float-upcast in searchsorted
            exp = phrase_word_score(d, lt)
            if d in ldocs:
                exp *= 2.0
            exp += phrase_word_score(d, rt)   # NOT: right words still add
            if d in rdocs:
                exp *= 2.0
            assert abs(got - exp) < 1e-9, (op, d)


def test_porter_snippet_matches_duckdb(porter_index, con, tmp_path_factory):
    from rayse.ops.porter_oracle import (porter_snippet_sql,
                                         porter_snippet_topk)
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    tdir = str(tmp_path_factory.mktemp("porter_s") / "transcripts")
    write_transcripts_from_documents(SF, tdir)
    got = porter_snippet_topk(porter_index, tdir)
    want = con.execute(porter_snippet_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    snips = got["snippet"].to_pylist()
    assert any("<strong>" in s for s in snips)
    assert any(s.endswith("...") or s.startswith("...") for s in snips)


def test_porter_suggest_matches_duckdb(porter_index, con,
                                       tmp_path_factory):
    from rayse.ops.porter_oracle import (porter_suggest_queries,
                                         porter_suggest_sql)
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    tdir = str(tmp_path_factory.mktemp("porter_sg") / "transcripts")
    write_transcripts_from_documents(SF, tdir)
    got = porter_suggest_queries(porter_index, tdir)
    want = con.execute(porter_suggest_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "sugg_rank"])
    # a suggestion never repeats a word already in the query
    for q, s in zip(got["query"].to_pylist(),
                    got["suggestion"].to_pylist()):
        added = s[len(q) + 1:]
        assert added and added not in q


def test_porter_paged_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import porter_paged_sql, porter_paged_topk

    got = porter_paged_topk(porter_index)
    want = con.execute(porter_paged_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert min(got["rank"].to_pylist()) == 11


def test_porter_mmr_matches_duckdb(porter_index, con, tmp_path_factory):
    from rayse.ops.porter_oracle import porter_mmr_sql, porter_mmr_topk
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    tdir = str(tmp_path_factory.mktemp("porter_m") / "transcripts")
    write_transcripts_from_documents(SF, tdir)
    got = porter_mmr_topk(porter_index, tdir)
    want = con.execute(porter_mmr_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "mmr_rank"])
    # diversity reranking must actually reorder at least one query's list
    from rayse.ops.porter_oracle import porter_bm25_topk

    base = porter_bm25_topk(porter_index).to_pandas()
    mmr = got.to_pandas()
    reordered = False
    for q in set(mmr["query"]):
        b = base[base["query"] == q].sort_values("rank")
        m = mmr[mmr["query"] == q].sort_values("mmr_rank")
        if list(b["conv_id"]) != list(m["conv_id"]) or \
           list(b["turn_idx"]) != list(m["turn_idx"]):
            reordered = True
    assert reordered


def test_porter_roleboost_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (ROLE_BOOST_WEIGHTS,
                                         porter_bm25_sql,
                                         porter_roleboost_topk)

    got = porter_roleboost_topk(porter_index)
    want = con.execute(
        porter_bm25_sql(role_weights=ROLE_BOOST_WEIGHTS)).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # boost actually changes the ranking vs unboosted
    from rayse.ops.porter_oracle import porter_bm25_topk

    base = porter_bm25_topk(porter_index).to_pandas()
    boosted = got.to_pandas()
    assert not base[["query", "rank", "conv_id", "turn_idx"]].equals(
        boosted[["query", "rank", "conv_id", "turn_idx"]])


def test_porter_phrase_role_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_phrase_role_sql,
                                         porter_phrase_role_topk)

    got = porter_phrase_role_topk(porter_index)
    want = con.execute(porter_phrase_role_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert all(t % 2 == 1 for t in got["turn_idx"].to_pylist())


def test_porter_conjunctive_role_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_conjunctive_role_sql,
                                         porter_conjunctive_role_topk)

    got = porter_conjunctive_role_topk(porter_index)
    want = con.execute(porter_conjunctive_role_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert all(t % 2 == 1 for t in got["turn_idx"].to_pylist())


def test_porter_capped_matches_duckdb(porter_index, con):
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_capped_sql,
                                         porter_capped_topk)

    got = porter_capped_topk(porter_index)
    want = con.execute(porter_capped_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # the cap must actually bind (otherwise this just re-tests bm25)
    full = porter_bm25_topk(porter_index).to_pandas()
    assert not full[["query", "rank", "conv_id", "turn_idx"]].equals(
        got.to_pandas()[["query", "rank", "conv_id", "turn_idx"]])


def test_porter_pruned_matches_duckdb(porter_index, con):
    """Static impact pruning (champion lists): top-f postings per term
    by (tf DESC, doc_id ASC) with UNPRUNED global stats — a surviving
    doc's score is the sum over its SURVIVING (term, doc) pairs, so it
    is bounded above by the exhaustive score (equal when every query
    term kept the doc)."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_pruned_sql,
                                         porter_pruned_topk)

    got = porter_pruned_topk(porter_index)
    want = con.execute(porter_pruned_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # pruning must bind at this f (else this just re-tests bm25) ...
    full = porter_bm25_topk(porter_index).to_pandas()
    g = got.to_pandas()
    assert not full[["query", "rank", "conv_id", "turn_idx"]].equals(
        g[["query", "rank", "conv_id", "turn_idx"]])
    # ... and per-pair contributions are exact, so a pruned score never
    # exceeds the exhaustive score for the same (query, doc)
    merged = g.merge(full, on=["query", "conv_id", "turn_idx"],
                     suffixes=("_p", "_f"))
    assert len(merged) > 0
    assert (merged["score_q_p"] <= merged["score_q_f"]).all()
    assert (merged["score_q_p"] == merged["score_q_f"]).any()


def test_porter_prefix_matches_duckdb(porter_index, con):
    """Wildcard retrieval: dictionary range-scan expansion + BM25 union
    vs the LIKE-join oracle; the wide 's' expansion and the empty 'zz'
    expansion both exercised."""
    from rayse.ops.porter_oracle import (PORTER_PREFIXES,
                                         porter_prefix_sql,
                                         porter_prefix_topk)

    got = porter_prefix_topk(porter_index)
    want = con.execute(porter_prefix_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert "zz" in PORTER_PREFIXES                  # empty expansion ran
    assert "zz" not in set(got.to_pandas()["query"])


def test_terms_with_prefix_range_scan(porter_index):
    """The reader's prefix scan equals the brute-force vocabulary filter
    and returns sorted distinct terms."""
    from rayse.index.reader import IndexReader

    r = IndexReader(porter_index)
    vocab = r.vocabulary()
    for p in ("s", "ta", "zz", ""):
        got = r.terms_with_prefix(p)
        assert got == sorted({t for t in vocab if t.startswith(p)})


def test_porter_suffix_matches_duckdb(porter_index, con):
    """Leading-wildcard retrieval: reversed-dictionary range-scan
    expansion + BM25 union vs the LIKE '%s' join oracle; multi-term,
    single-term, and empty expansions all exercised."""
    from rayse.ops.porter_oracle import (PORTER_SUFFIXES,
                                         porter_suffix_sql,
                                         porter_suffix_topk)

    got = porter_suffix_topk(porter_index)
    want = con.execute(porter_suffix_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert "zz" in PORTER_SUFFIXES                  # empty expansion ran
    assert "zz" not in set(got.to_pandas()["query"])


def test_terms_with_suffix_expansions(porter_index):
    """The reversed-dictionary scan returns exactly the LIKE '%s' set."""
    from rayse.index.reader import IndexReader

    r = IndexReader(porter_index)
    all_terms = sorted(r.all_terms()) if hasattr(r, "all_terms") else None
    vocab = set()
    for p in r.parts:
        vocab.update(p.sorted_terms())
    for s in ["ow", "er", "n", "rt", "zz", ""]:
        want = sorted(t for t in vocab if t.endswith(s))
        assert r.terms_with_suffix(s) == want


def test_porter_synonym_matches_duckdb(porter_index, con):
    """Query-time synonym expansion vs the relational map-join oracle;
    expanded rankings must differ from plain BM25 for at least one
    query (the map actually fires)."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_synonym_sql,
                                         porter_synonym_topk)

    got = porter_synonym_topk(porter_index)
    want = con.execute(porter_synonym_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    plain = porter_bm25_topk(porter_index).to_pandas()
    assert not got.to_pandas().equals(plain)


def test_porter_msm_matches_duckdb(porter_index, con):
    """Minimum-should-match retrieval (>= 2 distinct terms) vs the
    HAVING count(DISTINCT term) oracle; 3-term, 2-term, and 1-term
    (empty at m=2) queries all exercised."""
    from rayse.ops.porter_oracle import porter_msm_sql, porter_msm_topk

    got = porter_msm_topk(porter_index)
    want = con.execute(porter_msm_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    qs = set(got.to_pandas()["query"])
    assert "spark" not in qs                        # 1-term query drops
    assert "table scan" in qs


def test_porter_fuzzy_matches_duckdb(porter_index, con):
    """Fuzzy retrieval: edit-distance-1 expansion + BM25 union vs the
    levenshtein-join oracle; substitution, deletion, exact, and empty
    expansions all exercised."""
    from rayse.ops.porter_oracle import (PORTER_FUZZY, porter_fuzzy_sql,
                                         porter_fuzzy_topk)

    got = porter_fuzzy_topk(porter_index)
    want = con.execute(porter_fuzzy_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert "qqq" in PORTER_FUZZY                    # empty expansion ran
    assert "qqq" not in set(got.to_pandas()["query"])


def test_terms_within_edit1_vs_brute_force(porter_index):
    """The reader's expansion equals a brute-force Levenshtein filter
    over the full vocabulary."""
    from rayse.index.reader import IndexReader

    def lev(a, b):
        m = [[i + j if not i * j else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                m[i][j] = min(m[i - 1][j] + 1, m[i][j - 1] + 1,
                              m[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
        return m[len(a)][len(b)]

    r = IndexReader(porter_index)
    vocab = r.vocabulary()
    for w in ("tabe", "scann", "windoe", "merg", "qqq", "scan"):
        got = r.terms_within_edit1(w)
        assert got == sorted(t for t in vocab if lev(w, t) <= 1)


def test_porter_deleted_matches_duckdb(porter_index, con):
    """Delete + compact end to end: BM25 over the compacted index equals
    the filtered-corpus oracle (stats, ranking, scores), and the delete
    actually changes the ranking vs the full index."""
    from rayse.ops.porter_oracle import (DELETED_DOC_FILTER,
                                         porter_bm25_sql,
                                         porter_bm25_topk,
                                         porter_deleted_topk)

    got = porter_deleted_topk(porter_index)
    want = con.execute(
        porter_bm25_sql(doc_filter=DELETED_DOC_FILTER)).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    full = porter_bm25_topk(porter_index).to_pandas()
    assert not full.equals(got.to_pandas())


def test_porter_autocomplete_matches_duckdb(porter_index, con):
    """Type-ahead completions by collection frequency vs the cf+LIKE
    oracle; ties break by ascending term."""
    from rayse.ops.porter_oracle import (porter_autocomplete,
                                         porter_autocomplete_sql)

    got = porter_autocomplete(porter_index)
    want = con.execute(porter_autocomplete_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["prefix", "rank"])


def test_porter_mlt_matches_duckdb(porter_index, con):
    """More-like-this end-to-end: seed top-1, the integer (tf DESC, df
    ASC, term) cut over the seed's term vector, rescore with the seed
    anti-joined out — vs the full SQL mirror."""
    from rayse.ops.porter_oracle import porter_mlt_sql, porter_mlt_topk

    got = porter_mlt_topk(porter_index)
    want = con.execute(porter_mlt_sql()).fetchdf()
    _cmp(got, want, ["query", "rank"])


def test_doc_term_vector_matches_corpus(porter_index):
    """The part-local term vector equals the analyzed document content
    (every MLT seed doc cross-checked against re-analyzing its text)."""
    from rayse.analyzer import analyze
    from rayse.index.reader import IndexReader
    from rayse.ops.porter_oracle import porter_bm25_topk
    from rayse.pipelines.hydrate import _load_remap
    from rayse.stages.doc_ids import TURN_BITS, conv_hash
    import collections
    import glob as g
    import os

    reader = IndexReader(porter_index)
    remap = _load_remap(porter_index)
    tdir = os.path.join(os.path.dirname(porter_index), "transcripts")
    files = sorted(g.glob(os.path.join(tdir, "*.parquet")))
    turns = pq.read_table(files).to_pydict()
    text_of = {(c, t): x for c, t, x in zip(
        turns["conv_id"], turns["turn_idx"], turns["text"])}

    seeds = porter_bm25_topk(porter_index, k=1)
    assert seeds.num_rows
    for i in range(seeds.num_rows):
        conv = seeds["conv_id"][i].as_py()
        turn = int(seeds["turn_idx"][i].as_py())
        h = int(remap.get(conv, conv_hash(conv)))
        tv = reader.doc_term_vector((h << TURN_BITS) | turn)
        want = sorted(collections.Counter(
            analyze(text_of[(conv, turn)])).items())
        assert tv == want, (conv, turn)


def test_porter_facets_matches_duckdb(porter_index, con):
    """Facet counts over full match sets; a hash match also pins every
    posting's stored role byte against the turn-parity derivation."""
    from rayse.ops.porter_oracle import porter_facets, porter_facets_sql

    got = porter_facets(porter_index)
    want = con.execute(porter_facets_sql()).fetchdf()
    _cmp(got, want, ["query", "role"])


def test_porter_rerank_matches_duckdb(porter_index, con):
    """Two-stage retrieve-then-rerank: BM25 candidate cut + actor-pool
    surrogate cross-encoder + final order, vs the full SQL mirror."""
    from rayse.ops.porter_oracle import (porter_rerank_sql,
                                         porter_rerank_topk)

    got = porter_rerank_topk(porter_index)
    want = con.execute(porter_rerank_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])


def test_rerank_changes_order_but_not_recall_set(porter_index):
    """The rerank permutes within the candidate set: every reranked doc
    came from the BM25 top-C, and for k == C the sets are identical."""
    from rayse.ops.porter_oracle import (CE_CANDIDATES, porter_bm25_topk,
                                         porter_rerank_topk)

    cands = porter_bm25_topk(porter_index, k=CE_CANDIDATES).to_pandas()
    rr = porter_rerank_topk(porter_index, k=CE_CANDIDATES).to_pandas()
    for q in set(rr["query"]):
        a = set(map(tuple, cands[cands["query"] == q]
                    [["conv_id", "turn_idx"]].values))
        b = set(map(tuple, rr[rr["query"] == q]
                    [["conv_id", "turn_idx"]].values))
        assert b == a, q


def test_porter_sloppy_matches_duckdb(porter_index, con):
    """Proximity-window retrieval (sloppy PhraseQuery analog): pairwise
    min-distance predicate + BM25 vs the per-pair join oracle; sloppy
    must admit at least every exact-phrase doc (adjacency => distance 1
    <= slop)."""
    from rayse.ops.porter_oracle import (porter_phrase_matches,
                                         porter_sloppy_sql,
                                         porter_sloppy_topk)
    from rayse.query.engine import SearchEngine, sloppy_match
    from rayse.ops.porter_oracle import _analyzed_seq, PORTER_PHRASES

    got = porter_sloppy_topk(porter_index)
    want = con.execute(porter_sloppy_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    # containment: exact-phrase docs are a subset of sloppy docs
    eng = SearchEngine(porter_index)
    for p in PORTER_PHRASES:
        seq = _analyzed_seq(p)
        terms = list(dict.fromkeys(seq))
        from rayse.query.engine import phrase_match
        exact = set(phrase_match(eng.reader, seq).tolist())
        slop = set(sloppy_match(eng.reader, terms, 4).tolist())
        assert exact <= slop
        assert len(slop) >= len(exact)


def test_porter_didyoumean_matches_duckdb(porter_index, con):
    """Edit-1 spelling corrections vs the levenshtein-join oracle; no
    word may suggest itself, and 'qqq' must yield no candidates."""
    from rayse.ops.porter_oracle import (porter_didyoumean,
                                         porter_didyoumean_sql)

    got = porter_didyoumean(porter_index)
    want = con.execute(porter_didyoumean_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["word", "rank"])
    df = got.to_pandas()
    assert "qqq" not in set(df.word)
    assert (df.term != df.word).all()


def test_porter_collapse_matches_duckdb(porter_index, con):
    """Field-collapsed (best-turn-per-conversation) ranking vs the
    rep-then-rank window oracle; every conversation appears at most
    once per query, and collapsing must actually drop same-conv
    runner-up turns somewhere."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_collapse_sql,
                                         porter_collapse_topk)

    got = porter_collapse_topk(porter_index)
    want = con.execute(porter_collapse_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    df = got.to_pandas()
    assert not df.duplicated(["query", "conv_id"]).any()
    plain = porter_bm25_topk(porter_index).to_pandas()
    assert plain.duplicated(["query", "conv_id"]).any()


def test_porter_tfidf_matches_duckdb(porter_index, con):
    """SMART lnc.ltc cosine ranking vs the norm-CTE oracle; the cosine
    ordering must differ from BM25 for at least one query (the doc-norm
    denominator actually bites)."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_tfidf_sql,
                                         porter_tfidf_topk)

    got = porter_tfidf_topk(porter_index)
    want = con.execute(porter_tfidf_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    plain = porter_bm25_topk(porter_index).to_pandas()
    assert not got.to_pandas()[["query", "rank", "conv_id",
                                "turn_idx"]].equals(
        plain[["query", "rank", "conv_id", "turn_idx"]])


def test_porter_lmdir_matches_duckdb(porter_index, con):
    """Dirichlet query-likelihood ranking vs the candidate-cross-join
    oracle; scores are negative log-likelihoods, and the ordering must
    differ from BM25 for at least one query."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_lmdir_sql,
                                         porter_lmdir_topk)

    got = porter_lmdir_topk(porter_index)
    want = con.execute(porter_lmdir_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    df = got.to_pandas()
    assert (df.score_q < 0).all()
    plain = porter_bm25_topk(porter_index).to_pandas()
    cols = ["query", "rank", "conv_id", "turn_idx"]
    assert not df[cols].equals(plain[cols])


def test_porter_lmjm_matches_duckdb(porter_index, con):
    """Jelinek-Mercer query likelihood vs its oracle; JM and Dirichlet
    must disagree somewhere (the smoothing actually differs)."""
    from rayse.ops.porter_oracle import (porter_lmdir_topk,
                                         porter_lmjm_sql,
                                         porter_lmjm_topk)

    got = porter_lmjm_topk(porter_index)
    want = con.execute(porter_lmjm_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    dirk = porter_lmdir_topk(porter_index).to_pandas()
    cols = ["query", "rank", "conv_id", "turn_idx"]
    assert not got.to_pandas()[cols].equals(dirk[cols])


def test_porter_regex_terms_matches_duckdb(porter_index, con):
    """Regex dictionary matching vs the regexp_full_match oracle; the
    no-match pattern yields nothing, alternation finds both operands,
    and full match (not search) semantics hold ('gro.+' must not match
    'gro...' prefixes only — every hit extends past the literal)."""
    from rayse.ops.porter_oracle import (porter_regex_terms,
                                         porter_regex_terms_sql)

    got = porter_regex_terms(porter_index)
    want = con.execute(porter_regex_terms_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["pattern", "rank"])
    df = got.to_pandas()
    assert "zz.*" not in set(df.pattern)
    alt = set(df[df.pattern == "(hash|join)"].term)
    assert alt == {"hash", "join"}
    assert all(len(t) > 3 for t in df[df.pattern == "gro.+"].term)


def test_porter_ranker1_matches_duckdb(porter_index, con):
    """Ranker1 combined ranking vs the normalization-window oracle;
    the programming-query weight shift must fire for 'spark' (weights
    0.75/0.1/0.15) and the blend must differ from plain BM25."""
    from rayse.ops.porter_oracle import (RANKER1_PROG_STEMS,
                                         porter_bm25_topk,
                                         porter_ranker1_sql,
                                         porter_ranker1_topk)

    got = porter_ranker1_topk(porter_index)
    want = con.execute(porter_ranker1_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    assert "spark" in RANKER1_PROG_STEMS
    plain = porter_bm25_topk(porter_index).to_pandas()
    cols = ["query", "rank", "conv_id", "turn_idx"]
    assert not got.to_pandas()[cols].equals(plain[cols])


def test_query_analysis_matches_duckdb(con):
    """Parser surface vs the SQL re-derivation; all three kinds appear,
    the lower-case operator normalizes, the whitelist keeps 'us', and
    regular-kind dedup drops the repeated 'scan'."""
    from rayse.ops.porter_oracle import query_analysis, query_analysis_sql

    got = query_analysis().to_pandas()
    want = con.execute(query_analysis_sql()).fetchdf()
    _cmp(query_analysis(), want, ["query"])
    kinds = set(got.kind)
    assert kinds == {"regular", "phrase", "boolean"}
    low = got[got["query"] == '"window agg" or "merge sort"'].iloc[0]
    assert low.op == "OR"
    wl = got[got["query"] == "the us war table scan"].iloc[0]
    assert "us" in wl.stemmed.split() and "the" not in wl.stemmed.split()
    dd = got[got["query"] == 'scan "hash" table scan'].iloc[0]
    assert dd.stemmed.split().count("scan") == 1


def test_porter_explain_matches_duckdb(porter_index, con):
    """Per-term BM25 explain rows vs the joined-factors oracle; each
    explained doc's contributions must sum back to (within quantization
    slack of) its bm25 score."""
    from rayse.ops.porter_oracle import (porter_bm25_topk, porter_explain,
                                         porter_explain_sql)

    got = porter_explain(porter_index)
    want = con.execute(porter_explain_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank", "term"])
    df = got.to_pandas()
    top = porter_bm25_topk(porter_index, k=3).to_pandas()
    merged = df.groupby(["query", "rank"])["contrib_q"].sum().reset_index()
    j = merged.merge(top, on=["query", "rank"])
    # sum of independently-quantized contributions within n_terms ulps
    nterms = df.groupby(["query", "rank"]).size().reset_index(name="m")
    j = j.merge(nterms, on=["query", "rank"])
    assert ((j["contrib_q"] - j["score_q"]).abs() <= j["m"]).all()


def test_porter_prf_matches_duckdb(porter_index, con):
    """Rocchio PRF end-to-end: top-F feedback docs, the integer
    (sum-tf DESC, df ASC, term) expansion cut minus the query terms,
    and the beta=0.5 two-sided rescore — vs the full SQL mirror."""
    from rayse.ops.porter_oracle import porter_prf_sql, porter_prf_topk

    got = porter_prf_topk(porter_index)
    want = con.execute(porter_prf_sql()).fetchdf()
    _cmp(got, want, ["query", "rank"])


def test_phrase_selectivity_matches_duckdb(porter_index, con):
    """Planner stats: term-independence estimate vs true positional
    count, both bit-exact against the composed oracle."""
    from rayse.ops.porter_oracle import (porter_phrase_selectivity,
                                         porter_phrase_selectivity_sql)

    got = porter_phrase_selectivity(porter_index).to_pandas()
    want = con.execute(porter_phrase_selectivity_sql()).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want[list(got.columns)].astype(
            got.dtypes.to_dict()).reset_index(drop=True))
    assert (got["actual_docs"] <= got["n_docs"]).all()


def test_porter_dfr_matches_duckdb(porter_index, con):
    """DFR InL2 ranking vs the tf-join oracle; scores are positive
    (log2((N+1)/(df+.5)) > 0 whenever df < N), and the ordering must
    differ from BM25 for at least one query."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_dfr_sql,
                                         porter_dfr_topk)

    got = porter_dfr_topk(porter_index)
    want = con.execute(porter_dfr_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    df = got.to_pandas()
    assert (df.score_q > 0).all()
    plain = porter_bm25_topk(porter_index).to_pandas()
    cols = ["query", "rank", "conv_id", "turn_idx"]
    assert not df[cols].equals(plain[cols])


def test_porter_dph_matches_duckdb(porter_index, con):
    """Parameter-free DPH vs its oracle; DPH and InL2 must disagree
    somewhere (distinct randomness models), and tf == dl docs must not
    produce NaN/inf rows (the f clamp)."""
    from rayse.ops.porter_oracle import (porter_dfr_topk,
                                         porter_dph_sql,
                                         porter_dph_topk)

    got = porter_dph_topk(porter_index)
    want = con.execute(porter_dph_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    dfr = porter_dfr_topk(porter_index).to_pandas()
    cols = ["query", "rank", "conv_id", "turn_idx"]
    assert not got.to_pandas()[cols].equals(dfr[cols])


def test_porter_bm25plus_matches_duckdb(porter_index, con):
    """BM25+ vs its oracle; the δ floor means every matching doc gains
    at least δ·idf per term, so scores strictly exceed plain BM25's."""
    from rayse.ops.porter_oracle import (porter_bm25_topk,
                                         porter_bm25plus_sql,
                                         porter_bm25plus_topk)

    got = porter_bm25plus_topk(porter_index)
    want = con.execute(porter_bm25plus_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    plus = got.to_pandas()
    plain = porter_bm25_topk(porter_index).to_pandas()
    j = plus.merge(plain, on=["query", "conv_id", "turn_idx"],
                   suffixes=("_p", "_b"))
    assert (j.score_q_p > j.score_q_b).all()


def test_porter_bm25l_matches_duckdb(porter_index, con):
    """BM25L vs its oracle; BM25L and BM25+ must disagree somewhere."""
    from rayse.ops.porter_oracle import (porter_bm25l_sql,
                                         porter_bm25l_topk,
                                         porter_bm25plus_topk)

    got = porter_bm25l_topk(porter_index)
    want = con.execute(porter_bm25l_sql()).fetchdf()
    assert len(want) > 0
    _cmp(got, want, ["query", "rank"])
    cols = ["query", "rank", "conv_id", "turn_idx", "score_q"]
    plus = porter_bm25plus_topk(porter_index).to_pandas()
    assert not got.to_pandas()[cols].equals(plus[cols])
