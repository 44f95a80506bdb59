"""Incremental append (`append_index`): append(A, B) must equal
build(A+B) — byte-identical segments for re-merged parts, byte-identical
except block_max (old-avgdl bounds, reader-corrected) for untouched parts,
rank-identical queries — and re-running the same append must be a no-op."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from rayse.config import IndexConfig
from rayse.corpus.generator import generate_block
from rayse.index.reader import present_parts
from rayse.pipelines.build_index import append_index, build_index
from rayse.query.engine import SearchEngine

QUERIES = ["table scan", "hash join", '"table scan"', "window agg batch"]


@pytest.fixture(scope="module")
def dirs(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("append")
    a, b, union = root / "a", root / "b", root / "union"
    for d in (a, b, union):
        d.mkdir()
    ta = generate_block(0, 150)
    tb = generate_block(150, 153)
    pq.write_table(ta, str(a / "000.parquet"))
    pq.write_table(tb, str(b / "001.parquet"))
    pq.write_table(ta, str(union / "000.parquet"))
    pq.write_table(tb, str(union / "001.parquet"))

    cfg = IndexConfig(part_bits=5)
    idx_full = str(root / "idx_full")
    build_index(str(union), idx_full, cfg, shard_target_bytes=1,
                merge_concurrency=3)
    idx_inc = str(root / "idx_inc")
    build_index(str(a), idx_inc, cfg, shard_target_bytes=1,
                merge_concurrency=3)
    res = append_index(idx_inc, str(b), shard_target_bytes=1,
                       merge_concurrency=3)
    return idx_full, idx_inc, res


def _seg(idx, part):
    return pq.read_table(os.path.join(idx, "segments", f"part={part}",
                                      "segment.parquet"))


def test_append_equals_full_build(dirs):
    idx_full, idx_inc, res = dirs
    with open(os.path.join(idx_full, "corpus_stats.json")) as f:
        full_stats = json.load(f)
    with open(os.path.join(idx_inc, "corpus_stats.json")) as f:
        inc_stats = json.load(f)
    assert full_stats == inc_stats

    # only parts that hold postings have segments: both indexes must
    # hold the same ones before their contents can be compared
    parts = present_parts(idx_full)
    assert present_parts(idx_inc).keys() == parts.keys()
    remerged = {m["part"] for m in res.part_manifests}
    assert 0 < len(remerged) < len(parts)  # some parts must be untouched

    for part in parts:
        a = _seg(idx_full, part)
        b = _seg(idx_inc, part)
        if part in remerged:
            assert a.equals(b), f"re-merged part {part} not byte-identical"
        else:
            assert a.drop_columns(["block_max"]).equals(
                b.drop_columns(["block_max"])), f"part {part} differs"


def test_append_rank_identity(dirs):
    idx_full, idx_inc, _ = dirs
    ef, ei = SearchEngine(idx_full), SearchEngine(idx_inc)
    for q in QUERIES:
        df_, sf_ = ef.search(q, 10)
        di, si = ei.search(q, 10)
        assert [int(x) for x in df_] == [int(x) for x in di], q
        assert sf_.tolist() == si.tolist(), q
        # untouched parts carry old-avgdl bounds: the scaled block-max path
        # must still be exactly the exhaustive top-k
        de, se = ei.search(q, 10, mode="exhaustive")
        assert [int(x) for x in di] == [int(x) for x in de], q


def test_append_bound_scale_applied(dirs):
    _, idx_inc, res = dirs
    reader = SearchEngine(idx_inc).reader
    remerged = {m["part"] for m in res.part_manifests}
    scales = {int(p.part_dir.rsplit("=", 1)[1]): p.bound_scale
              for p in reader.parts}
    for part, scale in scales.items():
        if part in remerged:
            assert scale == 1.0
        else:
            assert scale >= 1.0


def test_append_idempotent(dirs, tmp_path_factory):
    _, idx_inc, first = dirs
    b_dir = os.path.dirname(glob.glob(os.path.join(
        os.path.dirname(idx_inc), "b", "*.parquet"))[0])
    again = append_index(idx_inc, b_dir, shard_target_bytes=1,
                         merge_concurrency=3)
    assert again.n_docs == first.n_docs
    with open(os.path.join(idx_inc, "metrics.json")) as f:
        m = json.load(f)
    assert m["remerged_parts"] == 0
    assert m["appended_turns"] == 0 or again.part_manifests == []


# queries that match the generated corpus, across scoring modes
BASE_QUERIES = QUERIES + ["flazo kidivaque", "steso rastedi sokidi",
                          '"flazo flazo"', '"flazo flazo" NOT "steso"']


def _write(d, name, tbl):
    d.mkdir(exist_ok=True)
    pq.write_table(tbl, str(d / name))
    return str(d)


def _assert_same_index(got: str, want: str):
    """Same corpus stats, same parts, and the same answers (doc ids and
    raw scores) to every query, exhaustively ranked."""
    with open(os.path.join(got, "corpus_stats.json")) as f, \
            open(os.path.join(want, "corpus_stats.json")) as g:
        assert json.load(f) == json.load(g)
    assert present_parts(got).keys() == present_parts(want).keys()
    eg, ew = SearchEngine(got), SearchEngine(want)
    hits = 0
    for q in BASE_QUERIES:
        dg, sg = eg.search(q, 100_000)
        dw, sw = ew.search(q, 100_000)
        assert [int(x) for x in dg] == [int(x) for x in dw], q
        assert sg.tolist() == sw.tolist(), q
        hits += dg.size
    assert hits                              # the queries match something


def test_append_onto_compacted_index(ray_session, tmp_path):
    """A compacted index has no runs and no shard manifests: an append
    onto it must still count the surviving corpus."""
    import pyarrow as pa

    from rayse.index.maintenance import compact_index, delete_convs

    base, extra = generate_block(0, 120), generate_block(120, 126)
    gone = sorted(set(base["conv_id"].to_pylist()))[::10]
    live = base.filter(pa.compute.invert(pa.compute.is_in(
        base["conv_id"], pa.array(gone))))
    cfg = IndexConfig(part_bits=5)
    kw = dict(shard_target_bytes=1, merge_concurrency=3)

    idx, cmp_ = str(tmp_path / "idx"), str(tmp_path / "cmp")
    build_index(_write(tmp_path / "a", "000.parquet", base), idx, cfg, **kw)
    delete_convs(idx, gone)
    compact_index(idx, cmp_)
    append_index(cmp_, _write(tmp_path / "b", "001.parquet", extra), **kw)

    ref = tmp_path / "ref_in"
    _write(ref, "000.parquet", live)
    _write(ref, "001.parquet", extra)
    idx_ref = str(tmp_path / "ref")
    build_index(str(ref), idx_ref, cfg, **kw)
    _assert_same_index(cmp_, idx_ref)


def test_append_onto_merged_index(ray_session, tmp_path):
    from rayse.index.maintenance import merge_indexes

    a, b, c = (generate_block(0, 60), generate_block(60, 120),
               generate_block(120, 126))
    cfg = IndexConfig(part_bits=5)
    kw = dict(shard_target_bytes=1, merge_concurrency=3)
    ia, ib, merged = (str(tmp_path / n) for n in ("ia", "ib", "merged"))
    build_index(_write(tmp_path / "a", "000.parquet", a), ia, cfg, **kw)
    build_index(_write(tmp_path / "b", "001.parquet", b), ib, cfg, **kw)
    merge_indexes(ia, ib, merged)
    append_index(merged, _write(tmp_path / "c", "002.parquet", c), **kw)

    union = tmp_path / "union"
    for name, t in (("000.parquet", a), ("001.parquet", b),
                    ("002.parquet", c)):
        _write(union, name, t)
    idx_ref = str(tmp_path / "ref")
    build_index(str(union), idx_ref, cfg, **kw)
    _assert_same_index(merged, idx_ref)
