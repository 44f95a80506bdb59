"""Build-pipeline properties: resume (byte-identical restart), determinism
across sharding, hot-term row splitting, loud failure on a lost part
(FIXTURES.md: test_resume, test_scaling_smoke reduced)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from rayse.config import IndexConfig
from rayse.corpus.generator import write_transcripts
from rayse.pipelines.build_index import build_index

N_CONVS = 120


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("bcorpus")
    write_transcripts(str(d), N_CONVS, convs_per_file=40)  # 3 input files
    return str(d)


def _segment_bytes(index_dir: str) -> dict[str, bytes]:
    out = {}
    for f in sorted(glob.glob(os.path.join(index_dir, "segments", "part=*",
                                           "segment.parquet"))):
        # compare logical content (arrow tables), not parquet file bytes
        # (parquet metadata embeds creation info); serialize deterministically
        tbl = pq.read_table(f)
        key = os.path.relpath(f, index_dir)
        out[key] = tbl
    return out


def _assert_same_index(a_dir: str, b_dir: str):
    a, b = _segment_bytes(a_dir), _segment_bytes(b_dir)
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].equals(b[k]), k
    sa = json.load(open(os.path.join(a_dir, "corpus_stats.json")))
    sb = json.load(open(os.path.join(b_dir, "corpus_stats.json")))
    # "shards" lists the build shards the stats count: it differs with
    # the sharding, the stats themselves must not
    sa.pop("shards")
    sb.pop("shards")
    assert sa == sb


def test_resume_after_partial_build(ray_session, small_corpus, tmp_path):
    """Kill-and-resume: build shard 0 only (simulated partial run), then
    re-run the full build; result equals an uninterrupted build."""
    full = tmp_path / "full"
    partial = tmp_path / "partial"
    cfg = IndexConfig()
    build_index(small_corpus, str(full), cfg,
                shard_target_bytes=1, merge_concurrency=2)

    # partial: run phase 1 for shard 0 only, then "crash"
    from rayse.pipelines.build_index import (build_runs_for_shard,
                                             discover_input_files, shard_files)
    files = discover_input_files(small_corpus)
    shards = shard_files(files, 1)
    assert len(shards) == 3
    os.makedirs(partial / "_manifest", exist_ok=True)
    build_runs_for_shard(0, shards[0], str(partial), cfg)
    assert (partial / "_manifest" / "shard-0.json").exists()

    # resume: full build skips shard 0 (manifest check)
    man0 = (partial / "_manifest" / "shard-0.json").read_text()
    build_index(small_corpus, str(partial), cfg,
                shard_target_bytes=1, merge_concurrency=2)
    assert (partial / "_manifest" / "shard-0.json").read_text() == man0
    _assert_same_index(str(full), str(partial))


def test_rerun_is_noop(ray_session, small_corpus, tmp_path):
    out = tmp_path / "idx"
    cfg = IndexConfig()
    r1 = build_index(small_corpus, str(out), cfg, merge_concurrency=2)
    man = out / "_manifest" / f"part-{r1.part_manifests[0]['part']}.json"
    m1 = man.read_text()
    r2 = build_index(small_corpus, str(out), cfg, merge_concurrency=2)
    assert man.read_text() == m1
    assert r2.n_docs == r1.n_docs > 0
    assert r2.part_manifests == r1.part_manifests


def test_layout_holds_only_postings(ray_session, small_corpus, tmp_path):
    """After a build, runs/ is empty and only parts with postings have a
    segment, a manifest and a metrics.json row."""
    out = tmp_path / "idx"
    res = build_index(small_corpus, str(out), IndexConfig(),
                      shard_target_bytes=1, merge_concurrency=2)
    assert os.listdir(out / "runs") == []
    parts = sorted(m["part"] for m in res.part_manifests)
    assert parts and all(m["n_postings"] > 0 for m in res.part_manifests)
    assert sorted(int(p.split("=")[1])
                  for p in os.listdir(out / "segments")) == parts
    assert sorted(int(p[len("part-"):-len(".json")])
                  for p in os.listdir(out / "_manifest")
                  if p.startswith("part-")) == parts
    metrics = json.loads((out / "metrics.json").read_text())
    assert [m["part"] for m in metrics["parts"]] == parts
    assert len(parts) < 1 << IndexConfig().part_bits


def test_missing_partition_fails_loudly(ray_session, small_corpus, tmp_path):
    """A part whose manifest records postings but whose segment is gone
    must make the reader raise, not serve a smaller corpus."""
    import shutil

    from rayse.index.reader import IndexReader

    out = tmp_path / "idx"
    res = build_index(small_corpus, str(out), IndexConfig(),
                      merge_concurrency=2)
    IndexReader(str(out))
    lost = res.part_manifests[-1]["part"]
    shutil.rmtree(out / "segments" / f"part={lost}")
    with pytest.raises(FileNotFoundError, match=str(lost)):
        IndexReader(str(out))


def test_segment_lookups_use_present_parts(ray_session, small_corpus,
                                           tmp_path):
    """The term dictionary reads the segments of the present parts only:
    a crash-leftover ``part=N.tmp`` copy is not counted, and a part whose
    manifest records postings but whose segment is gone raises."""
    import shutil

    from rayse.index.stats import term_stats_table

    out = tmp_path / "idx"
    res = build_index(small_corpus, str(out), IndexConfig(),
                      merge_concurrency=2)
    want = term_stats_table(str(out))
    part = res.part_manifests[0]["part"]
    shutil.copytree(out / "segments" / f"part={part}",
                    out / "segments" / f"part={part}.tmp")
    assert term_stats_table(str(out)).equals(want)
    shutil.rmtree(out / "segments" / f"part={part}")
    with pytest.raises(FileNotFoundError, match=str(part)):
        term_stats_table(str(out))


def test_multi_shard_equals_single_shard(ray_session, small_corpus, tmp_path):
    """Sharding is an execution detail: N-shard and 1-shard builds produce
    identical segments (the cross-shard k-way merge is content-transparent;
    also verified at 2.4M turns in BASELINE.md)."""
    multi = tmp_path / "multi"
    single = tmp_path / "single"
    cfg = IndexConfig()
    build_index(small_corpus, str(multi), cfg, shard_target_bytes=1,
                merge_concurrency=2)      # 3 shards
    build_index(small_corpus, str(single), cfg,
                merge_concurrency=2)      # 1 shard
    _assert_same_index(str(multi), str(single))


def test_hot_term_run_splitting(ray_session, small_corpus, tmp_path):
    """compact_max_postings splits hot terms into multiple doc_id-contiguous
    runs and queries still decode them correctly."""
    out = tmp_path / "idx_split"
    cfg = IndexConfig(compact_max_postings=8)
    build_index(small_corpus, str(out), cfg, merge_concurrency=2)
    salts = []
    for f in glob.glob(os.path.join(out, "segments", "part=*",
                                    "segment.parquet")):
        salts.extend(pq.read_table(f, columns=["salt"])["salt"].to_pylist())
    assert max(salts) > 0  # something actually split
    import pyarrow.parquet as _pq

    from rayse.query.engine import SearchEngine
    from tests.oracle import OracleIndex
    eng = SearchEngine(str(out))
    orc = OracleIndex(_pq.read_table(small_corpus))
    for q in ["flazo", "basnacle sokidi", '"rate limit exceeded"']:
        ed, es = eng.search(q)
        od, os_ = orc.search(q)
        assert [int(x) for x in ed] == od, q


def test_positions_disabled(ray_session, small_corpus, tmp_path):
    out = tmp_path / "idx_nopos"
    cfg = IndexConfig(with_positions=False)
    build_index(small_corpus, str(out), cfg, merge_concurrency=2)
    from rayse.query.engine import SearchEngine
    from rayse.query.parser import analyze_phrase
    eng = SearchEngine(str(out))
    d, s = eng.search("flazo")
    assert len(d) > 0
    # positional queries raise a ValueError naming the cause, before any
    # position is decoded
    with pytest.raises(ValueError, match="with_positions=False"):
        eng.search('"rate limit exceeded"')
    with pytest.raises(ValueError, match="with_positions=False"):
        eng.sloppy(analyze_phrase("rate limit exceeded"))
