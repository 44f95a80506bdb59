"""Index-content equality vs the brute-force oracle (FIXTURES.md:
test_index_equality, test_doc_ids_stable) plus codec round-trips."""

import numpy as np
import pytest

from rayse.index.encoding import (
    decode_doc_ids,
    decode_varints,
    encode_doc_ids,
    encode_positions,
    encode_varints,
)
from rayse.index.segments import DecodedPostings
from rayse.stages.doc_ids import doc_id_of, part_of


def test_varint_roundtrip():
    rng = np.random.default_rng(7)
    for vals in (
        np.array([], dtype=np.uint64),
        np.array([0], dtype=np.uint64),
        np.array([0, 1, 127, 128, 255, 16383, 16384, 2**32, 2**63, 2**64 - 1],
                 dtype=np.uint64),
        rng.integers(0, 2**62, 5000).astype(np.uint64),
    ):
        assert (decode_varints(encode_varints(vals)) == vals).all()


def test_docid_delta_roundtrip():
    rng = np.random.default_rng(8)
    d = np.unique(rng.integers(0, 2**60, 3000).astype(np.uint64))
    assert (decode_doc_ids(encode_doc_ids(d)) == d).all()


def test_positions_roundtrip():
    per_doc = [np.array([0, 3, 9], dtype=np.uint64),
               np.array([5], dtype=np.uint64),
               np.array([1, 2, 3, 4, 500], dtype=np.uint64)]
    blob = encode_positions(per_doc)
    tfs = np.array([p.size for p in per_doc], dtype=np.uint64)
    e = np.empty(0, np.uint64)
    pl = DecodedPostings(np.arange(3, dtype=np.uint64), tfs, tfs, blob,
                         e, e, e, e)
    out = pl.positions()
    assert len(out) == len(per_doc)
    for a, b in zip(per_doc, out):
        assert a.tolist() == b.tolist()
    flat, counts = pl.positions_at(np.array([2, 0]))
    assert counts.tolist() == [5, 3]
    assert flat.tolist() == [1, 2, 3, 4, 500, 0, 3, 9]


def test_doc_ids_stable():
    # pure function: same inputs -> same id, turn order == id order per conv
    a = doc_id_of("conv-0000001", 0)
    assert a == doc_id_of("conv-0000001", 0)
    assert doc_id_of("conv-0000001", 5) - a == 5
    assert doc_id_of("conv-0000002", 0) != a
    assert 0 <= part_of(a, 5) < 32


def test_corpus_stats_match(engine, oracle):
    assert engine.reader.n_docs == oracle.n_docs
    assert engine.reader.avgdl == pytest.approx(oracle.avgdl, abs=1e-12)


def test_index_equality(engine, oracle):
    """Decoded engine postings == oracle index, exactly: doc_ids, tfs,
    positions, per-posting doc lengths, df."""
    vocab = engine.reader.vocabulary()
    assert vocab == set(oracle.postings.keys())
    # exhaustive over the full vocabulary
    for term in sorted(vocab):
        want = oracle.postings[term]
        want_docs = np.array(sorted(want.keys()), dtype=np.uint64)
        got_docs, got_tfs, got_dls, got_pos = [], [], [], []
        for pr in engine.reader.parts:
            pl = pr.postings(term)
            if pl is None:
                continue
            got_docs.append(pl.doc_ids)
            got_tfs.append(pl.tfs)
            got_dls.append(pl.dls)
            got_pos.extend(pl.positions())
        got_docs = np.concatenate(got_docs)
        got_tfs = np.concatenate(got_tfs)
        got_dls = np.concatenate(got_dls)
        # parts are doc_id-range partitions in part order -> already ascending
        assert (np.sort(got_docs) == got_docs).all(), term
        assert (got_docs == want_docs).all(), term
        for i, d in enumerate(want_docs.tolist()):
            assert got_tfs[i] == len(want[d]), (term, d)
            assert got_dls[i] == oracle.doc_len[d], (term, d)
            assert got_pos[i].tolist() == want[d], (term, d)
        assert engine.reader.df(term) == oracle.df(term)


def test_no_doc_id_collisions(corpus_table):
    conv = corpus_table["conv_id"].to_pylist()
    turn = corpus_table["turn_idx"].to_pylist()
    ids = {doc_id_of(c, t) for c, t in zip(conv, turn)}
    assert len(ids) == corpus_table.num_rows
