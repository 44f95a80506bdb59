"""Index-content equality vs the brute-force oracle (FIXTURES.md:
test_index_equality, test_doc_ids_stable) plus codec round-trips."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from rayse.index.encoding import (
    decode_doc_ids,
    decode_varints,
    encode_doc_ids,
    encode_positions,
    encode_varints,
)
from rayse.index.reader import int64_values, string_values
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


def test_int64_values_honours_chunk_offsets():
    col = pa.chunked_array([pa.array(np.arange(10, dtype=np.int64)),
                            pa.array(np.arange(100, 107, dtype=np.int64)),
                            pa.array(np.arange(-5, 0, dtype=np.int64))])
    for c in (col, col.slice(3), col.slice(3, 9), col.slice(12, 6),
              col.slice(11, 1), col.slice(0, 0)):
        got = int64_values(c)
        assert got.dtype == np.int64
        assert got.tolist() == c.to_numpy().tolist()
    one = pa.chunked_array([pa.array(np.arange(8, dtype=np.int64))])
    assert int64_values(one.slice(2, 4)).tolist() == [2, 3, 4, 5]


def test_string_values_honours_chunk_offsets():
    col = pa.chunked_array([pa.array(["ab", "ab", "c", "déjà"]),
                            pa.array(["", "x", "naïve", "zz"])])
    for c in (col, col.slice(1), col.slice(2, 4), col.slice(5, 2),
              col.slice(0, 0)):
        assert string_values(c) == c.to_pylist()


_COLD_OPEN = """
import sys
import ray
from rayse.index.maintenance import delete_convs
from rayse.query.engine import SearchEngine

index_dir = sys.argv[1]
queries = ["flazo", "flazo rastedi kidivaque", "gradient descent batch",
           '"rate limit exceeded"',
           '"gradient descent optimizer" OR "rate limit exceeded"']
hits = []
for deleted in ([], ["conv-%07d" % c for c in range(0, 400, 3)]):
    if deleted:
        delete_convs(index_dir, deleted)
    eng = SearchEngine(index_dir)
    assert eng.reader.tombstones.size == len(deleted)
    n = 0
    for q in queries:
        n += eng.search(q, 10)[0].size
    n += eng.search("rastedi vadriyi", 10, mode="and")[0].size
    n += eng.search(" ".join(eng.reader.terms_with_prefix("fla")), 10)[0].size
    hits.append(n)
assert hits[0] > hits[1] > 0, hits
print(sorted(m for m in ("pandas", "pyarrow.dataset") if m in sys.modules))
"""


def test_open_and_query_import_no_pandas(index_dir, tmp_path):
    """A fresh process (a new serving actor) opens and queries an index,
    plain and with tombstones, without importing pandas or
    ``pyarrow.dataset``: each costs a cold open about 0.1 s."""
    idx = tmp_path / "index"
    shutil.copytree(index_dir, idx)
    out = subprocess.run(
        [sys.executable, "-c", _COLD_OPEN, str(idx)],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
