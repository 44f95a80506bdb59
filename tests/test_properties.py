"""Property-based tests (hypothesis) for the codec layer and tokenizer —
the pieces every index byte flows through."""

import numpy as np
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
