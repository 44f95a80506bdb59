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


def _to_legacy_layout(idx: str, part_bits: int) -> None:
    """Rewrite a build kept with its runs into the layout of a pre-role
    index from before segments recorded their shards: runs and segments
    without 'roles', segments without provenance metadata, part
    manifests naming their run files as "inputs" and without 'avgdl',
    an empty segment and manifest for every part without postings, shard
    manifests without 'n_tokens', stats without 'shards', and meta and
    shard manifests naming the build 'strategy' (an option since
    removed)."""
    from rayse.index.segments import SEGMENT_SCHEMA

    for f in glob.glob(os.path.join(idx, "runs", "shard=*", "part=*",
                                    "*.parquet")):
        t = pq.read_table(f)
        pq.write_table(t.drop_columns(["roles"]), f)
    for f in glob.glob(os.path.join(idx, "segments", "part=*",
                                    "segment.parquet")):
        t = pq.read_table(f)
        pq.write_table(t.drop_columns(["roles"]).replace_schema_metadata(
            None), f)
    legacy_schema = SEGMENT_SCHEMA.remove(
        SEGMENT_SCHEMA.get_field_index("roles"))
    for part in range(1 << part_bits):
        man_path = os.path.join(idx, "_manifest", f"part-{part}.json")
        if os.path.exists(man_path):
            with open(man_path) as fh:
                man = json.load(fh)
        else:
            seg_dir = os.path.join(idx, "segments", f"part={part}")
            os.makedirs(seg_dir)
            pq.write_table(legacy_schema.empty_table(),
                           os.path.join(seg_dir, "segment.parquet"))
            man = {"part": part, "n_terms": 0, "n_postings": 0}
        man.pop("avgdl", None)
        man["inputs"] = sorted(
            os.path.relpath(f, idx) for f in glob.glob(os.path.join(
                idx, "runs", "shard=*", f"part={part}", "*.parquet")))
        with open(man_path, "w") as fh:
            json.dump(man, fh)
    for f in glob.glob(os.path.join(idx, "_manifest", "shard-*.json")):
        with open(f) as fh:
            man = json.load(fh)
        man.pop("n_tokens")
        man["strategy"] = "combine"
        with open(f, "w") as fh:
            json.dump(man, fh)
    for name, key in (("corpus_stats.json", "shards"),
                      ("index_meta.json", "roles_real")):
        path = os.path.join(idx, name)
        with open(path) as fh:
            obj = json.load(fh)
        obj.pop(key)
        if name == "index_meta.json":
            obj["strategy"] = "combine"
        with open(path, "w") as fh:
            json.dump(obj, fh)


_KW = dict(shard_target_bytes=1, merge_concurrency=3)


def _build_legacy(inputs, idx: str, cfg: IndexConfig, monkeypatch) -> None:
    import rayse.pipelines.build_index as bi

    with monkeypatch.context() as m:
        m.setattr(bi, "_drop_runs", lambda *args: None)   # keep the runs
        build_index(inputs, idx, cfg, **_KW)
    _to_legacy_layout(idx, cfg.part_bits)


def _assert_same_postings(got_idx: str, want_idx: str) -> None:
    """Every turn and token counted once: the corpus stats and each
    part's postings equal the fresh build's. Roles differ (the legacy
    side has none) and so does block_max in parts an append left
    untouched."""
    from rayse.index.segments import SEGMENT_SCHEMA

    with open(os.path.join(got_idx, "corpus_stats.json")) as f, \
            open(os.path.join(want_idx, "corpus_stats.json")) as g:
        assert json.load(f) == json.load(g)
    cols = [n for n in SEGMENT_SCHEMA.names if n not in ("roles",
                                                         "block_max")]
    got, want = ({p: pq.read_table(os.path.join(d, "segment.parquet"),
                                   columns=cols)
                  for p, d in present_parts(i).items()}
                 for i in (got_idx, want_idx))
    assert {p for p, t in got.items() if t.num_rows} == want.keys()
    for p, t in want.items():
        assert got[p].equals(t), f"part {p} differs from the fresh build"


def test_append_to_legacy_index(ray_session, tmp_path, monkeypatch):
    """Appending to a legacy index (kept runs, pre-role run files and
    segments, segments that do not record their shards, empty parts)
    must count and merge every old posting exactly once: the result
    holds the same corpus stats and postings as a fresh build over both
    inputs. Merges tolerate missing blobs (role code 0), and the
    pre-append avgdl is backfilled into legacy part manifests so
    untouched parts' block-max correction stays exact."""
    a, b, union = tmp_path / "a", tmp_path / "b", tmp_path / "union"
    ta, tb = generate_block(0, 100), generate_block(100, 104)
    _write(a, "000.parquet", ta)
    _write(b, "001.parquet", tb)
    _write(union, "000.parquet", ta)
    _write(union, "001.parquet", tb)
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    cfg = IndexConfig(part_bits=4)
    _build_legacy(str(a), idx, cfg, monkeypatch)
    meta_path = os.path.join(idx, "index_meta.json")

    res = append_index(idx, str(b), **_KW)
    assert res.n_docs > 0 and res.part_manifests
    build_index(str(union), ref, cfg, **_KW)
    _assert_same_postings(idx, ref)

    # the appended index mixes backfilled (code-0) and real role postings:
    # the per-index flag must be recorded false and role queries raise
    # UNIFORMLY, not per-term depending on which parts the term touches
    with open(meta_path) as fh:
        assert json.load(fh)["roles_real"] is False

    # legacy manifests got the pre-append avgdl backfilled
    remerged = {m["part"] for m in res.part_manifests}
    for f in glob.glob(os.path.join(idx, "_manifest", "part-*.json")):
        with open(f) as fh:
            man = json.load(fh)
        assert "avgdl" in man, f

    # index is queryable and the block-max path stays exact
    eng = SearchEngine(idx)
    for q in QUERIES:
        d_bm, s_bm = eng.search(q, 10)
        d_ex, s_ex = eng.search(q, 10, mode="exhaustive")
        assert [int(x) for x in d_bm] == [int(x) for x in d_ex], q
    assert 0 < len(remerged)
    assert eng.reader.roles_real is False
    import pytest

    with pytest.raises(ValueError, match="role"):
        eng.search(QUERIES[0], 5, role="assistant")
    with pytest.raises(ValueError, match="role"):
        eng.search(QUERIES[0], 5, role_weights={"assistant": 2.0})


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


def test_legacy_append_rerun_keeps_inputs(ray_session, tmp_path, monkeypatch):
    """Re-running on a legacy index an append whose shard its segments
    already hold keeps the legacy part manifests' "inputs": a later
    append must still know which of the kept old runs each segment
    holds, or it merges them a second time."""
    blocks = [generate_block(0, 60), generate_block(60, 64),
              generate_block(64, 76)]   # shard 2 touches shard 1's parts
    dirs = [_write(tmp_path / f"in{i}", f"00{i}.parquet", t)
            for i, t in enumerate(blocks)]
    union = tmp_path / "union"
    for i, t in enumerate(blocks):
        _write(union, f"00{i}.parquet", t)
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    cfg = IndexConfig(part_bits=4)
    _build_legacy([os.path.join(d, f"00{i}.parquet")
                   for i, d in enumerate(dirs[:2])], idx, cfg, monkeypatch)

    again = append_index(idx, dirs[1], **_KW)       # shard 1 is held
    assert again.part_manifests
    assert all("inputs" in m for m in again.part_manifests)
    append_index(idx, dirs[2], **_KW)
    build_index(str(union), ref, cfg, **_KW)
    _assert_same_postings(idx, ref)
