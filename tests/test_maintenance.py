"""Index maintenance: logical deletes (tombstones) + physical compaction.

Contract pinned here:
- delete_convs is VISIBILITY-only (Lucene semantics): deleted
  conversations vanish from every retrieval mode, surviving results are
  bit-identical to pre-delete minus the deleted rows (df/n_docs/avgdl
  unchanged until compaction).
- compact_index ranks IDENTICALLY (docs and raw scores) to a fresh
  build over the filtered corpus, across bm25 / conjunctive / phrase /
  boolean / role modes, and matches its df / corpus stats.
"""

import json
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayse.config import IndexConfig
from rayse.corpus.generator import generate_block
from rayse.index.maintenance import compact_index, delete_convs
from rayse.index.reader import IndexReader
from rayse.pipelines.build_index import build_index
from rayse.query.engine import SearchEngine
from rayse.stages.doc_ids import TURN_BITS, conv_hash

QUERIES = ["table scan", "hash join merge", "spark", "slow",
           "vector group filter"]
PHRASE = "table scan"
BIG_K = 100_000          # >= all matches: top-k truncation can't differ


@pytest.fixture(scope="module")
def dirs(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("maint")
    tbl = generate_block(0, 130)
    tdir = root / "t_all"
    tdir.mkdir()
    pq.write_table(tbl, str(tdir / "000.parquet"))

    convs = sorted(set(tbl["conv_id"].to_pylist()))
    deleted = convs[3::13][:8]            # deterministic spread
    keep_tbl = tbl.filter(
        pc.invert(pc.is_in(tbl["conv_id"], value_set=pc.cast(
            __import__("pyarrow").array(deleted), tbl["conv_id"].type))))
    tdir2 = root / "t_kept"
    tdir2.mkdir()
    pq.write_table(keep_tbl, str(tdir2 / "000.parquet"))

    cfg = IndexConfig(part_bits=5)
    idx_all = str(root / "idx_all")
    build_index(str(tdir), idx_all, cfg, shard_target_bytes=1,
                merge_concurrency=3)
    idx_ref = str(root / "idx_ref")
    build_index(str(tdir2), idx_ref, cfg, shard_target_bytes=1,
                merge_concurrency=3)
    return root, idx_all, idx_ref, deleted


def _all_modes(eng, k=BIG_K):
    """[(label, docs, scores)] across the retrieval modes."""
    out = []
    for q in QUERIES:
        d, s = eng.search(q, k)
        out.append((f"or:{q}", d, s))
        d, s = eng.search(q, k, mode="and")
        out.append((f"and:{q}", d, s))
        d, s = eng.search(q, k, role="assistant")
        out.append((f"role:{q}", d, s))
    d, s = eng.search(f'"{PHRASE}"', k)
    out.append(("phrase", d, s))
    d, s = eng.boolean("NOT", "table scan".split(), "hash join".split(),
                       k=k)
    out.append(("not", d, s))
    return out


def test_delete_is_visibility_only(dirs):
    root, idx_all, _, deleted = dirs
    pre = _all_modes(SearchEngine(idx_all))
    pre_reader = IndexReader(idx_all)
    pre_n, pre_avgdl = pre_reader.n_docs, pre_reader.avgdl
    pre_df = {t: pre_reader.df(t) for t in pre_reader.vocabulary()}

    summary = delete_convs(idx_all, deleted)
    assert summary["n_tombstoned_convs"] == len(deleted)

    del_hashes = {conv_hash(c) for c in deleted}
    eng2 = SearchEngine(idx_all)          # fresh reader sees tombstones
    post = dict((lbl, (d, s)) for lbl, d, s in _all_modes(eng2))
    any_dropped = False
    for lbl, d, s in pre:
        pd_, ps_ = post[lbl]
        assert not any(
            (int(x) >> TURN_BITS) in del_hashes for x in pd_.tolist()), lbl
        mask = np.array([(int(x) >> TURN_BITS) not in del_hashes
                         for x in d.tolist()], dtype=bool)
        any_dropped = any_dropped or (not mask.all())
        # surviving rows identical (docs AND raw scores): the logical
        # delete must not move anyone else's score
        assert np.array_equal(d[mask], pd_)
        assert np.array_equal(s[mask], ps_), lbl
    assert any_dropped                     # the delete actually bit

    # stats untouched until compaction (Lucene visibility semantics)
    r2 = eng2.reader
    assert (r2.n_docs, r2.avgdl) == (pre_n, pre_avgdl)
    assert all(r2.df(t) == pre_df[t] for t in pre_df)

    # idempotent merge
    again = delete_convs(idx_all, deleted[:2])
    assert again["n_new"] == 0
    assert again["n_tombstoned_convs"] == len(deleted)


def test_compaction_ranks_identical_to_rebuild(dirs):
    root, idx_all, idx_ref, deleted = dirs
    delete_convs(idx_all, deleted)        # idempotent if already done
    idx_cmp = str(root / "idx_cmp")
    res = compact_index(idx_all, idx_cmp)

    ref_reader = IndexReader(idx_ref)
    cmp_reader = IndexReader(idx_cmp)
    assert cmp_reader.tombstones.size == 0
    # corpus stats equal the filtered rebuild exactly
    with open(os.path.join(idx_ref, "corpus_stats.json")) as f:
        ref_stats = json.load(f)
    assert res["n_docs"] == ref_stats["n_docs"]
    assert cmp_reader.avgdl == ref_reader.avgdl
    # term dictionary + df identical
    assert cmp_reader.vocabulary() == ref_reader.vocabulary()
    for t in ref_reader.vocabulary():
        assert cmp_reader.df(t) == ref_reader.df(t), t

    got = _all_modes(SearchEngine(idx_cmp))
    want = dict((lbl, (d, s)) for lbl, d, s in _all_modes(
        SearchEngine(idx_ref)))
    for lbl, d, s in got:
        wd, ws = want[lbl]
        assert np.array_equal(d, wd), lbl
        assert np.array_equal(s, ws), lbl  # raw float score identity


def test_compacted_postings_internally_consistent(dirs):
    """Positions survive the byte-span gather: phrase matching on the
    compacted index equals phrase matching on the rebuilt index, and
    per-posting structures stay aligned (df == len(doc_ids) == roles)."""
    root, idx_all, idx_ref, deleted = dirs
    idx_cmp = str(root / "idx_cmp")
    if not os.path.isdir(idx_cmp):        # ordering independence
        delete_convs(idx_all, deleted)
        compact_index(idx_all, idx_cmp)
    r = IndexReader(idx_cmp)
    for t in sorted(r.vocabulary()):
        pl = r.merged(t)
        assert pl.doc_ids.size == pl.tfs.size == pl.dls.size
        assert pl.roles.size == pl.doc_ids.size
        if pl.positions_blob:
            pos = pl.positions()
            assert len(pos) == pl.doc_ids.size
            for p, tf in zip(pos, pl.tfs.tolist()):
                assert p.size == tf


def test_delete_survives_append(dirs, tmp_path_factory):
    """Tombstones + incremental append interplay: deleting before an
    append keeps the conversations invisible afterwards, appended
    conversations are fully searchable, and surviving rows equal the
    no-delete append minus the deleted rows (visibility semantics)."""
    import shutil

    import pyarrow.parquet as pq

    from rayse.pipelines.build_index import append_index

    root, idx_all, _, deleted = dirs
    work = tmp_path_factory.mktemp("app")
    # two identical copies of the built index: one gets the delete
    plain = str(work / "plain")
    deld = str(work / "deld")
    shutil.copytree(idx_all, plain)
    shutil.copytree(idx_all, deld)
    if os.path.exists(os.path.join(plain, "tombstones.json")):
        os.remove(os.path.join(plain, "tombstones.json"))
    if not os.path.exists(os.path.join(deld, "tombstones.json")):
        delete_convs(deld, deleted)

    extra = generate_block(130, 134)
    bdir = work / "b"
    bdir.mkdir()
    pq.write_table(extra, str(bdir / "001.parquet"))
    append_index(plain, str(bdir), shard_target_bytes=1,
                 merge_concurrency=3)
    append_index(deld, str(bdir), shard_target_bytes=1,
                 merge_concurrency=3)

    del_hashes = {conv_hash(c) for c in deleted}
    got = _all_modes(SearchEngine(deld))
    want = dict((lbl, (d, s)) for lbl, d, s in
                _all_modes(SearchEngine(plain)))
    new_hashes = {conv_hash(c) for c in set(extra["conv_id"].to_pylist())}
    saw_new = False
    for lbl, d, s in got:
        assert not any((int(x) >> TURN_BITS) in del_hashes
                       for x in d.tolist()), lbl
        wd, ws = want[lbl]
        mask = np.array([(int(x) >> TURN_BITS) not in del_hashes
                         for x in wd.tolist()], dtype=bool)
        assert np.array_equal(wd[mask], d), lbl
        assert np.array_equal(ws[mask], s), lbl
        saw_new = saw_new or any((int(x) >> TURN_BITS) in new_hashes
                                 for x in d.tolist())
    assert saw_new                        # appended convs are searchable


def test_merge_ranks_identical_to_union_build(dirs):
    """Segment merge welds two disjoint-corpus indexes into one that is
    indistinguishable from a fresh build over the union: docs AND raw
    float scores across every retrieval mode, vocabulary, df, corpus
    stats — plus per-posting structural alignment (positions byte-gather
    and roles reorder)."""
    from rayse.index.maintenance import merge_indexes

    root, idx_all, _, _ = dirs
    # earlier tests may have tombstoned idx_all (module fixture); the
    # merge baseline is therefore the COMPACTED index — halves and base
    # see the same live corpus.
    import pyarrow.dataset as pads

    base = str(root / "m_base")
    half_a = str(root / "m_half_a")
    half_b = str(root / "m_half_b")
    merged = str(root / "m_merged")
    if not os.path.isdir(merged):
        compact_index(idx_all, base)
        t = pads.dataset(os.path.join(base, "conv_map")).to_table(
            columns=["conv_id"])
        convs = sorted(set(t["conv_id"].to_pylist()))
        evens = [c for c in convs if int(c.rsplit("-", 1)[1]) % 2 == 0]
        odds = [c for c in convs if int(c.rsplit("-", 1)[1]) % 2 == 1]
        compact_index(base, half_a, extra_conv_ids=odds)
        compact_index(base, half_b, extra_conv_ids=evens)
        merge_indexes(half_a, half_b, merged)

    full_reader = IndexReader(base)
    m_reader = IndexReader(merged)
    assert m_reader.n_docs == full_reader.n_docs
    assert m_reader.avgdl == full_reader.avgdl
    assert m_reader.vocabulary() == full_reader.vocabulary()
    for term in full_reader.vocabulary():
        assert m_reader.df(term) == full_reader.df(term), term
        assert m_reader.cf(term) == full_reader.cf(term), term

    got = _all_modes(SearchEngine(merged))
    want = dict((lbl, (d, s)) for lbl, d, s in _all_modes(
        SearchEngine(base)))
    for lbl, d, s in got:
        wd, ws = want[lbl]
        assert np.array_equal(d, wd), lbl
        assert np.array_equal(s, ws), lbl   # raw float score identity

    for term in sorted(m_reader.vocabulary()):
        pl = m_reader.merged(term)
        ref = full_reader.merged(term)
        assert np.array_equal(pl.doc_ids, ref.doc_ids), term
        assert np.array_equal(pl.tfs, ref.tfs), term
        if pl.positions_blob:
            got_pos = pl.positions()
            want_pos = ref.positions()
            for g, w in zip(got_pos, want_pos):
                assert np.array_equal(g, w), term
        assert np.array_equal(pl.roles, ref.roles), term


@pytest.fixture(scope="module")
def cap8(dirs):
    """Fresh builds with hot terms split into rows of <= 8 postings: a
    builder over any subset of the ``dirs`` corpus, and the full build."""
    import pyarrow as pa

    root = dirs[0]
    tbl = pq.read_table(str(root / "t_all"))
    cfg = IndexConfig(part_bits=5, compact_max_postings=8)

    def build(name, convs):
        src = root / f"t_cap8_{name}"
        src.mkdir()
        pq.write_table(tbl.filter(pc.is_in(tbl["conv_id"],
                                           value_set=pa.array(convs))),
                       str(src / "000.parquet"))
        out = str(root / f"cap8_{name}")
        build_index(str(src), out, cfg, merge_concurrency=3)
        return out

    convs = sorted(set(tbl["conv_id"].to_pylist()))
    full = build("full", convs)
    salts = pc.max(pq.read_table(os.path.join(full, "segments"),
                                 columns=["salt"])["salt"]).as_py()
    assert salts > 0                      # some term is split into rows
    return build, convs, full


def test_compaction_equals_fresh_build_segments(dirs, cap8):
    """Compaction runs the build's merge: its segment tables equal a
    fresh build's over the filtered corpus, rows split the same way."""
    from tests.test_build import _assert_same_index

    deleted = dirs[3]
    build, convs, full = cap8
    ref = build("kept", [c for c in convs if c not in deleted])
    delete_convs(full, deleted)
    out = str(dirs[0] / "cap8_compacted")
    compact_index(full, out)
    _assert_same_index(ref, out)


def test_merge_equals_union_build_segments(cap8):
    """``merge_indexes`` of two disjoint halves writes the segment tables
    of a fresh build over their union, rows split the same way."""
    from rayse.index.maintenance import merge_indexes
    from tests.test_build import _assert_same_index

    build, convs, full = cap8
    parity = [int(c.rsplit("-", 1)[1]) % 2 for c in convs]
    even = build("even", [c for c, p in zip(convs, parity) if not p])
    odd = build("odd", [c for c, p in zip(convs, parity) if p])
    out = os.path.join(os.path.dirname(full), "cap8_merged")
    merge_indexes(even, odd, out)
    _assert_same_index(full, out)


def test_merge_rejects_overlapping_corpora(dirs):
    from rayse.index.maintenance import merge_indexes

    root, idx_all, idx_ref, _ = dirs
    base = str(root / "m_base")
    if not os.path.isdir(base):            # ordering independence
        compact_index(idx_all, base)
    with pytest.raises(ValueError, match="disjoint|both inputs"):
        merge_indexes(base, idx_ref, str(root / "m_bad"))


def test_compaction_filters_conv_map(dirs):
    """Compaction drops deleted conversations from the conv_map (they
    must not hydrate), and keeps exact per-conv turn counts for the
    stats recombination."""
    import pyarrow.dataset as pads

    root, idx_all, _, deleted = dirs
    idx_cmp = str(root / "idx_cmp")
    if not os.path.isdir(idx_cmp):
        delete_convs(idx_all, deleted)
        compact_index(idx_all, idx_cmp)
    t = pads.dataset(os.path.join(idx_cmp, "conv_map")).to_table()
    left = set(t["conv_id"].to_pylist())
    assert not (left & set(deleted))
    assert "n_turns" in t.column_names
    # partial counts sum to the compacted index's n_docs exactly
    assert int(pc.sum(t["n_turns"]).as_py()) == IndexReader(idx_cmp).n_docs


def test_compact_over_earlier_output(ray_session, tmp_path):
    """Compacting into a directory that holds an earlier compaction
    replaces it: a part that loses every posting the second time keeps
    no segment or manifest from the first, so its conversations are not
    served again."""
    from rayse.index.reader import present_parts
    from rayse.stages.doc_ids import doc_id_of, part_of

    tbl = generate_block(0, 60)
    tdir = tmp_path / "t"
    tdir.mkdir()
    pq.write_table(tbl, str(tdir / "000.parquet"))
    cfg = IndexConfig(part_bits=5)
    idx = str(tmp_path / "idx")
    build_index(str(tdir), idx, cfg, shard_target_bytes=1,
                merge_concurrency=3)

    convs = sorted(set(tbl["conv_id"].to_pylist()))
    by_part: dict[int, list[str]] = {}
    for c in convs:
        by_part.setdefault(part_of(doc_id_of(c, 0), cfg.part_bits),
                           []).append(c)
    emptied = min(by_part, key=lambda p: len(by_part[p]))
    first = [next(c for c in convs if c not in by_part[emptied])]
    second = first + by_part[emptied]

    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    compact_index(idx, out, extra_conv_ids=first)
    assert emptied in present_parts(out)
    compact_index(idx, out, extra_conv_ids=second)
    compact_index(idx, fresh, extra_conv_ids=second)

    assert emptied not in present_parts(out)
    assert not os.path.exists(os.path.join(out, "_manifest",
                                           f"part-{emptied}.json"))
    assert present_parts(out).keys() == present_parts(fresh).keys()
    gone = {conv_hash(c) for c in second}
    eo, ef = SearchEngine(out), SearchEngine(fresh)
    for q in QUERIES:
        do, so = eo.search(q, BIG_K)
        df_, sf_ = ef.search(q, BIG_K)
        assert not any((int(x) >> TURN_BITS) in gone for x in do), q
        assert np.array_equal(do, df_) and np.array_equal(so, sf_), q
