"""Rank identity, phrase positional checks, boolean algebra (FIXTURES.md:
test_rank_identity, test_phrase_positional, test_boolean_ops)."""

import json
from pathlib import Path

import numpy as np
import pytest

from rayse.corpus.generator import CorpusSpec, PHRASES
from rayse.query.parser import analyze_phrase, parse_query
from rayse.stages.doc_ids import doc_id_of
from tests.conftest import N_CONVS_SMALL

QUERIES = json.loads((Path(__file__).parent / "queries.json").read_text())


def _assert_rank_identical(engine, oracle, query, k=10):
    ed, es = engine.search(query, k)
    od, os_ = oracle.search(query, k)
    assert [int(x) for x in ed] == od, (query, list(ed), od)
    np.testing.assert_allclose(es, os_, rtol=0, atol=1e-9, err_msg=query)


def test_rank_identity(engine, oracle):
    for q in QUERIES:
        _assert_rank_identical(engine, oracle, q)


def test_rank_identity_conjunctive(engine, oracle):
    for q in QUERIES:
        if parse_query(q).kind != "regular":
            continue
        ed, es = engine.search(q, 10, mode="and")
        od, os_ = oracle.search(q, 10, mode="and")
        assert [int(x) for x in ed] == od, q
        np.testing.assert_allclose(es, os_, rtol=0, atol=1e-9, err_msg=q)


def test_phrase_positional_planted(engine):
    """Planted phrases are found in exactly their planted turns; permuted
    near-misses in none of them (FIXTURES.md §2 plant rule)."""
    plants = CorpusSpec.phrase_plants(N_CONVS_SMALL)
    by_phrase: dict[str, set[int]] = {}
    for (conv, turn), phrase in plants.items():
        by_phrase.setdefault(phrase, set()).add(doc_id_of(conv, turn))
    for phrase, want_docs in by_phrase.items():
        got = set(int(d) for d in engine.phrase_docs(analyze_phrase(phrase)))
        assert want_docs <= got, phrase
        # permuted analyzed-term order must not match in the planted turns
        # (permute post-analysis: stopwords inside a phrase — e.g. "index" —
        # are removed at index AND query time, so permuting raw words can be
        # an identical query)
        terms = analyze_phrase(phrase)
        if len(terms) >= 2 and terms[0] != terms[1]:
            permuted = [terms[1], terms[0]] + list(terms[2:])
            got_perm = set(int(d) for d in engine.phrase_docs(permuted))
            assert not (got_perm & want_docs), phrase


def test_phrase_rare_terms(engine, oracle):
    plants = CorpusSpec.rare_plants(N_CONVS_SMALL)
    for term, locs in plants.items():
        want = sorted(doc_id_of(c, t) for c, t in locs)
        got_d, _ = engine.search(term, k=30)
        assert sorted(int(x) for x in got_d) == want, term
        assert oracle.df(term) == len(want)


def test_boolean_ops(engine, oracle):
    pairs = [("AND", PHRASES[0], PHRASES[1]), ("OR", PHRASES[0], PHRASES[1]),
             ("NOT", PHRASES[2], PHRASES[3]), ("AND", PHRASES[4], PHRASES[4]),
             ("NOT", PHRASES[5], PHRASES[5]), ("OR", PHRASES[6], PHRASES[9])]
    for op, a, b in pairs:
        pa_, pb = analyze_phrase(a), analyze_phrase(b)
        ed, es = engine.boolean(op, pa_, pb, k=50)
        od, os_ = oracle.boolean(op, pa_, pb, k=50)
        assert [int(x) for x in ed] == od, (op, a, b)
        np.testing.assert_allclose(es, os_, rtol=0, atol=1e-9)
        # set semantics sanity
        la = set(int(x) for x in engine.phrase_docs(pa_))
        lb = set(int(x) for x in engine.phrase_docs(pb))
        got = set(int(x) for x in ed)
        want = {"AND": la & lb, "OR": la | lb, "NOT": la - lb}[op]
        assert got <= want
        if len(want) <= 50:
            assert got == want


def test_parser_routing():
    assert parse_query('"a b" and "c d"').kind == "boolean"
    assert parse_query('"a b" and "c d"').op == "AND"
    assert parse_query('"gradient descent"').kind == "phrase"
    assert parse_query("gradient descent").kind == "regular"
    # whitelist survives stopword filtering (`QueryService.java:403-414`)
    q = parse_query("us uk eu war")
    assert q.terms == ("us", "uk", "eu", "war")
    # stopword-only query yields no terms
    assert parse_query("the of and").terms == ()


def test_parser_operator_outside_phrases():
    """AND/OR/NOT inside a quoted phrase is phrase text, not the
    boolean operator."""
    q = parse_query('"rate and limit" OR "token bucket"')
    assert (q.kind, q.op) == ("boolean", "OR")
    assert q.left == tuple(analyze_phrase("rate and limit"))
    assert q.right == tuple(analyze_phrase("token bucket"))
    q = parse_query('"not this" AND "that or other"')
    assert (q.kind, q.op) == ("boolean", "AND")
    q = parse_query('"rate and limit"')
    assert (q.kind, q.phrase) == ("phrase",
                                  tuple(analyze_phrase("rate and limit")))


def test_stopword_phrases_match_nothing(engine, oracle):
    """A quoted phrase that analyzes to no terms, alone or inside a
    boolean, returns no results instead of raising."""
    for q in ['"a b"', '"the of" AND "rate"', '"the of" OR "the a"']:
        ed, es = engine.search(q)
        assert ed.size == es.size == 0, q
        assert oracle.search(q)[0] == [], q
    # the other side of an OR still matches
    ed, _ = engine.search('"the of" OR "rate limit"')
    od, _ = oracle.search('"the of" OR "rate limit"')
    assert ed.size and [int(x) for x in ed] == od


def test_empty_and_unknown_queries(engine, oracle):
    for q in ["", "the", "nosuchwordatallxyz", '"no such phrase here zz"']:
        ed, _ = engine.search(q)
        od, _ = oracle.search(q)
        assert [int(x) for x in ed] == od == []


def test_complex_boolean_parity(engine, oracle):
    """Reference ComplexPhraseSearching scoring flag (mode="complex"):
    rank-identical to the oracle reimplementation, including the
    running-score x2-per-matched-phrase quirk and log10(N/df) idf."""
    for q in QUERIES:
        pq_ = parse_query(q)
        if pq_.kind != "boolean":
            continue
        ed, es = engine.search(q, 10, mode="complex")
        od, os_ = oracle.boolean_complex(pq_.op, list(pq_.left),
                                         list(pq_.right), 10)
        assert [int(x) for x in ed] == od, q
        np.testing.assert_allclose(es, os_, rtol=0, atol=1e-12, err_msg=q)


def test_complex_differs_from_canonical(engine):
    """The flag is a real behavioral switch (scores differ from D2)."""
    for q in QUERIES:
        if parse_query(q).kind != "boolean":
            continue
        _, s_complex = engine.search(q, 10, mode="complex")
        _, s_canon = engine.search(q, 10)
        if s_complex.size and s_canon.size:
            assert s_complex.tolist() != s_canon.tolist()
            break
