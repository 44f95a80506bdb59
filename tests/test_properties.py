"""Property-based tests (hypothesis) for the codec layer and tokenizer —
the pieces every index byte flows through."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayse.analyzer import analyze, analyze_ids, term_strings
from rayse.index.encoding import (
    decode_varints,
    encode_varints,
    encode_varints_offsets,
    encode_varints_segmented,
    segmented_cumsum_abs,
    varint_byte_lengths,
)

uint64s = st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                   min_size=0, max_size=300)


@settings(max_examples=200, deadline=None)
@given(uint64s)
def test_varint_roundtrip_property(vals):
    v = np.array(vals, dtype=np.uint64)
    assert decode_varints(encode_varints(v)).tolist() == vals


@settings(max_examples=200, deadline=None)
@given(uint64s)
def test_varint_byte_lengths_property(vals):
    v = np.array(vals, dtype=np.uint64)
    assert int(varint_byte_lengths(v).sum()) == len(encode_varints(v))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63), min_size=1,
                max_size=200),
       st.data())
def test_segmented_encode_equals_per_segment(vals, data):
    v = np.array(vals, dtype=np.uint64)
    n_segs = data.draw(st.integers(min_value=1, max_value=len(vals)))
    cut_positions = sorted(data.draw(
        st.lists(st.integers(min_value=1, max_value=len(vals) - 1)
                 if len(vals) > 1 else st.nothing(),
                 max_size=n_segs, unique=True))) if len(vals) > 1 else []
    starts = np.array([0] + cut_positions, dtype=np.int64)
    segs = encode_varints_segmented(v, starts)
    bounds = starts.tolist() + [len(vals)]
    for i, blob in enumerate(segs):
        assert blob == encode_varints(v[bounds[i]:bounds[i + 1]])
    buf, offsets = encode_varints_offsets(v, starts)
    for i in range(len(starts)):
        assert buf[offsets[i]:offsets[i + 1]] == segs[i]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**40),
                         min_size=1, max_size=20),
                min_size=1, max_size=20))
def test_segmented_cumsum_property(segments):
    gaps = np.array([g for seg in segments for g in seg], dtype=np.uint64)
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]]).astype(np.int64)
    got = segmented_cumsum_abs(gaps, starts)
    want = np.concatenate([np.cumsum(np.array(seg, dtype=np.uint64))
                           for seg in segments])
    assert (got == want).all()


_text = st.text(alphabet=st.sampled_from(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789_.+-*/= \t\n()[]{}#$%"),
    max_size=120)


@settings(max_examples=300, deadline=None)
@given(_text)
def test_analyze_ids_matches_analyze(text):
    assert term_strings(analyze_ids(text)) == analyze(text)


@settings(max_examples=200, deadline=None)
@given(_text)
def test_analyze_pure_function(text):
    assert analyze(text) == analyze(str(text)) == analyze(text)


def test_capped_mode_deterministic(engine):
    a = engine.search("flazo basnacle", 10, mode="capped")
    b = engine.search("flazo basnacle", 10, mode="capped")
    assert [int(x) for x in a[0]] == [int(x) for x in b[0]]
    assert list(a[1]) == list(b[1])
    # capped is a subset semantics: every returned doc matches >= 1 term
    full, _ = engine.search("flazo basnacle", 1000)
    assert set(int(x) for x in a[0]) <= set(int(x) for x in full)


# -- segment-merge kernels ---------------------------------------------------

_post = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40),     # doc_id
              st.integers(min_value=1, max_value=5),         # tf
              st.lists(st.integers(min_value=0, max_value=50),
                       min_size=1, max_size=5)),             # positions
    min_size=0, max_size=12,
    unique_by=lambda t: t[0])


def _encode_posting_side(rows):
    """doc-ascending (doc_ids, tfs, positions_blob) from (doc, tf, pos)
    tuples; tf forced to len(pos) so counts align."""
    from rayse.index.encoding import encode_varints

    rows = sorted(rows)
    docs = np.asarray([r[0] for r in rows], dtype=np.uint64)
    tfs = np.asarray([len(r[2]) for r in rows], dtype=np.uint64)
    blob = bytearray()
    for _, _, pos in rows:
        deltas = np.diff(np.asarray(sorted(pos), dtype=np.uint64),
                         prepend=np.uint64(0))
        blob.extend(encode_varints(
            np.concatenate(([np.uint64(len(pos))], deltas))))
    return docs, tfs, bytes(blob)


def _segment_row(rows) -> dict | None:
    """One term's segment row (``MERGE_SCHEMA``) over (doc, tf, pos)
    tuples; None for no postings."""
    from rayse.index.encoding import delta_encode, encode_varints

    if not rows:
        return None
    docs, tfs, blob = _encode_posting_side(rows)
    return {"term": "t", "df": docs.size, "cf": int(tfs.sum()),
            "doc_ids": encode_varints(delta_encode(docs)),
            "tfs": encode_varints(tfs), "dls": encode_varints(tfs),
            "roles": bytes(docs.size), "positions": blob}


@given(_post, _post, st.integers(min_value=-1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_merge_positions_property(side_a, side_b, pick):
    """``merge_segment_rows`` over two doc-disjoint single-term segments,
    with and without a tombstoned conversation: the output decodes to
    each surviving posting's positions, in doc order (the positions byte
    gather == decode-merge-reencode)."""
    import pyarrow as pa

    from rayse.config import IndexConfig
    from rayse.index.segments import (MERGE_SCHEMA, decode_rows,
                                      merge_segment_rows)
    from rayse.stages.doc_ids import TURN_BITS

    # disjoint doc sets: offset side_b's ids into a distinct range
    side_b = [(d + 2**41, tf, pos) for d, tf, pos in side_b]
    rows = [r for r in map(_segment_row, (side_a, side_b)) if r]
    want = sorted((d, sorted(pos)) for d, _, pos in side_a + side_b)
    tombs = None
    if pick >= 0 and want:
        conv = want[pick % len(want)][0] >> TURN_BITS
        tombs = np.asarray([conv], dtype=np.uint64)
        want = [w for w in want if w[0] >> TURN_BITS != conv]

    seg, _, n_post = merge_segment_rows(
        pa.Table.from_pylist(rows, schema=MERGE_SCHEMA), 1.0,
        IndexConfig(), tombs)
    assert n_post == len(want) == sum(seg["df"].to_pylist())
    if not want:
        return
    pl = decode_rows(seg.to_pylist())
    assert pl.doc_ids.tolist() == [d for d, _ in want]
    got = pl.positions()
    assert len(got) == len(want)
    for g, (_, w) in zip(got, want):
        assert g.tolist() == w


def test_merge_rejects_repeated_posting():
    """A (term, doc_id) present in two inputs raises instead of writing a
    posting list that holds the doc twice."""
    import pyarrow as pa
    import pytest

    from rayse.config import IndexConfig
    from rayse.index.segments import MERGE_SCHEMA, merge_segment_rows

    row = _segment_row([(5, 1, [0]), (9, 2, [1, 3])])
    tbl = pa.Table.from_pylist([row, row], schema=MERGE_SCHEMA)
    with pytest.raises(ValueError, match="doc_id 5 appears twice"):
        merge_segment_rows(tbl, 1.0, IndexConfig())


# -- on-demand position decode -----------------------------------------------

_posting_positions = st.lists(
    st.lists(st.integers(min_value=0, max_value=2**20), min_size=1,
             max_size=6, unique=True).map(sorted),
    min_size=1, max_size=25)


def _postings_of(per_posting) -> "DecodedPostings":
    """A DecodedPostings holding ``per_posting`` position lists (doc ids
    0..n-1, tf = list length, blocks of two postings), positions via
    ``encode_positions``."""
    from rayse.index.encoding import encode_positions
    from rayse.index.segments import DecodedPostings

    tfs = np.asarray([len(p) for p in per_posting], dtype=np.uint64)
    e = np.empty(0, np.uint64)
    return DecodedPostings(
        np.arange(len(per_posting), dtype=np.uint64), tfs, tfs,
        encode_positions([np.asarray(p, np.uint64) for p in per_posting]),
        e, e, np.arange(0, len(per_posting), 2),
        np.zeros(len(per_posting), np.uint8))


@settings(max_examples=150, deadline=None)
@given(st.lists(_posting_positions, min_size=1, max_size=3), st.data())
def test_positions_at_property(parts, data):
    """``positions_at(take)`` over lists concatenated across parts (as
    ``IndexReader.merged`` does) equals the ``encode_positions`` input of
    the taken postings, for any ascending take: empty, one posting or
    many, with positions above 127 (multi-byte varints)."""
    from rayse.index.segments import concat_postings

    pls = [_postings_of(p) for p in parts]
    offset = 0
    for pl in pls:                     # ascending, disjoint doc ranges
        pl.doc_ids += np.uint64(offset)
        offset += pl.doc_ids.size
    pl = concat_postings(pls)
    flat_in = [p for part in parts for p in part]
    n = len(flat_in)
    take = sorted(data.draw(st.one_of(
        st.just([]), st.integers(0, n - 1).map(lambda i: [i]),
        st.lists(st.integers(0, n - 1), unique=True))))
    got, counts = pl.positions_at(np.asarray(take, dtype=np.int64))
    assert got.dtype == np.uint64
    assert counts.tolist() == [len(flat_in[i]) for i in take]
    assert got.tolist() == [x for i in take for x in flat_in[i]]
    assert [p.tolist() for p in pl.positions()] == flat_in
    starts = [0] + np.cumsum([len(p) for p in parts]).tolist()
    assert pl.block_starts.tolist() == [
        s + b for s, p in zip(starts, parts) for b in range(0, len(p), 2)]


@pytest.fixture(scope="module")
def split_engine(ray_session, corpus_dir, tmp_path_factory):
    """The session corpus built with 32 parts and rows of at most 8
    postings: hot terms split into many rows and span several parts."""
    from rayse.config import IndexConfig
    from rayse.pipelines.build_index import build_index
    from rayse.query.engine import SearchEngine

    d = str(tmp_path_factory.mktemp("split_index"))
    build_index(corpus_dir, d, IndexConfig(part_bits=5,
                                           compact_max_postings=8),
                merge_concurrency=2)
    return SearchEngine(d)


def _split_terms(eng, oracle):
    """Terms whose lists span several parts or several rows, the most
    frequent first."""
    by_df = sorted(oracle.postings, key=lambda t: (-oracle.df(t), t))
    return [t for t in by_df if oracle.df(t) > 8
            and sum(p.df(t) > 0 for p in eng.reader.parts) > 1]


def test_positions_at_on_split_rows(split_engine, oracle):
    """On split rows and multi-part lists, ``positions_at`` decodes each
    taken posting's positions as the oracle index holds them."""
    terms = _split_terms(split_engine, oracle)
    assert len(terms) > 20
    rng = np.random.default_rng(3)
    for t in terms[:40]:
        pl = split_engine.reader.merged(t)
        want = oracle.postings[t]
        docs = pl.doc_ids.tolist()
        assert docs == sorted(want)
        take = np.flatnonzero(rng.random(len(docs)) < 0.3)
        got, counts = pl.positions_at(take)
        assert counts.tolist() == [len(want[docs[i]]) for i in take]
        assert got.tolist() == [p for i in take for p in want[docs[i]]]


def _sloppy_ref(oracle, terms, slop: int) -> list[int]:
    """Docs holding every term with each pair of terms within ``slop``
    positions of each other somewhere, by brute force."""
    sets = [set(oracle.postings.get(t, {})) for t in terms]
    out = []
    for d in sorted(set.intersection(*sets)):
        pos = [oracle.postings[t][d] for t in terms]
        if all(min(abs(x - y) for x in pos[a] for y in pos[b]) <= slop
               for a in range(len(terms)) for b in range(a + 1, len(terms))):
            out.append(d)
    return out


def test_phrase_and_sloppy_on_split_rows(split_engine, oracle):
    """Phrase and sloppy answers over split rows and multi-part merges
    equal the oracle's, for two- and three-term phrases taken from the
    corpus and for their reversals."""
    from rayse.query.engine import sloppy_match

    split = set(_split_terms(split_engine, oracle))
    docs = sorted({d for t in split for d in oracle.postings[t]})[:40]
    streams: dict[int, list[tuple[int, str]]] = {d: [] for d in docs}
    for t, by_doc in oracle.postings.items():
        for d in streams.keys() & by_doc.keys():
            streams[d].extend((p, t) for p in by_doc[d])
    # two- and three-term phrases of the corpus with a split term in them
    phrases = set()
    for d in docs:
        seq = [t for _, t in sorted(streams[d])]
        phrases.update(tuple(seq[i:i + n]) for n in (2, 3)
                       for i in range(len(seq) - n + 1)
                       if split & set(seq[i:i + n]))
    phrases = sorted(phrases)[::7][:40]
    phrases += [p[::-1] for p in phrases[:10]]
    n_hit = 0
    for p in phrases:
        want = oracle.phrase_docs(list(p))
        got = split_engine.phrase_docs(list(p)).tolist()
        assert got == want, p
        n_hit += bool(want)
        distinct = list(dict.fromkeys(p))
        for slop in (0, 3):
            got = sloppy_match(split_engine.reader, distinct, slop).tolist()
            assert got == _sloppy_ref(oracle, distinct, slop), (p, slop)
    assert n_hit > 5
