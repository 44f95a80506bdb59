"""One on-disk format: every entry point refuses an index of another
format version, ``build_index`` refuses a directory holding an index of
another config, and the role flag records whether every posting carries
a real role."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from rayse.config import IndexConfig
from rayse.corpus.generator import generate_block
from rayse.index.maintenance import compact_index, merge_indexes
from rayse.index.stats import FORMAT_VERSION, META_FILE, load_index_meta
from rayse.pipelines.build_index import append_index, build_index
from rayse.query.engine import SearchEngine
from rayse.query.serve import SearchCluster

QUERY = "flazo kidivaque"


def _write(d, tbl) -> str:
    d.mkdir()
    pq.write_table(tbl, str(d / "000.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    """A default-config index over 30 conversations, and its input."""
    root = tmp_path_factory.mktemp("format")
    src = _write(root / "in", generate_block(0, 30))
    idx = str(root / "idx")
    build_index(src, idx)
    return src, idx


def _copy(idx: str, dest, version="keep") -> str:
    """A copy of ``idx``, its meta restamped with ``version`` (None: no
    version recorded)."""
    dest = shutil.copytree(idx, str(dest))
    if version != "keep":
        path = os.path.join(dest, META_FILE)
        with open(path) as f:
            meta = json.load(f)
        meta.pop("format_version")
        if version is not None:
            meta["format_version"] = version
        with open(path, "w") as f:
            json.dump(meta, f)
    return dest


ENTRY_POINTS = {
    "SearchEngine": lambda bad, good, src, out: SearchEngine(bad),
    "SearchCluster": lambda bad, good, src, out: SearchCluster(
        bad, pool_size=1),
    "append_index": lambda bad, good, src, out: append_index(bad, src),
    "compact_index": lambda bad, good, src, out: compact_index(bad, out),
    "merge_indexes": lambda bad, good, src, out: merge_indexes(good, bad,
                                                               out),
    "build_index": lambda bad, good, src, out: build_index(src, bad),
}


@pytest.mark.parametrize(
    "version", [None, FORMAT_VERSION - 1, FORMAT_VERSION + 1],
    ids=["unversioned", "behind", "ahead"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_other_format_version_refused(built, tmp_path, entry, version):
    src, idx = built
    bad = _copy(idx, tmp_path / "bad", version)
    with pytest.raises(ValueError, match="rebuild") as err:
        ENTRY_POINTS[entry](bad, idx, src, str(tmp_path / "out"))
    msg = str(err.value)
    assert f"reads format version {FORMAT_VERSION}" in msg
    assert ("no format version" if version is None
            else f"format version {version},") in msg


def test_build_refuses_other_config(built, tmp_path):
    """Re-running a build over an index with another config must not
    restamp its meta: the segments keep the old part bits and block
    size."""
    src, idx = built
    dest = _copy(idx, tmp_path / "idx")
    with open(os.path.join(dest, META_FILE)) as f:
        before = f.read()
    with pytest.raises(ValueError, match="empty directory"):
        build_index(src, dest, IndexConfig(block_size=4, part_bits=5))
    with open(os.path.join(dest, META_FILE)) as f:
        assert f.read() == before
    # the same config re-runs as a no-op
    assert build_index(src, dest).n_docs == SearchEngine(idx).reader.n_docs


def test_roleless_build_refuses_role_queries(ray_session, tmp_path):
    """A build from parquet without a ``role`` column records
    ``roles_real: false``; role-scoped queries then raise instead of
    returning nothing (every posting holds role code 0)."""
    src = _write(tmp_path / "in", generate_block(0, 20).drop_columns(
        ["role"]))
    idx = str(tmp_path / "idx")
    build_index(src, idx)
    assert load_index_meta(idx)["roles_real"] is False
    eng = SearchEngine(idx)
    assert eng.search(QUERY, 5)[0].size
    with pytest.raises(ValueError, match="role"):
        eng.search(QUERY, 5, role="user")
    with pytest.raises(ValueError, match="role"):
        eng.search(QUERY, 5, role_weights={"user": 2.0})


def test_roleless_append_clears_role_flag(built, tmp_path):
    src, idx = built
    dest = _copy(idx, tmp_path / "idx")
    assert load_index_meta(dest)["roles_real"] is True
    assert SearchEngine(dest).search(QUERY, 5, role="user")[0].size
    append_index(dest, _write(tmp_path / "new", generate_block(
        30, 34).drop_columns(["role"])))
    assert load_index_meta(dest)["roles_real"] is False
    with pytest.raises(ValueError, match="role"):
        SearchEngine(dest).search(QUERY, 5, role="user")


def test_merge_of_role_and_roleless_indexes(built, tmp_path):
    """Indexes of one config merge whatever their role flags; the merged
    index has real roles only when both inputs do, so a role-scoped
    query on it raises."""
    src, idx = built
    bare = str(tmp_path / "bare")
    build_index(_write(tmp_path / "new", generate_block(
        30, 34).drop_columns(["role"])), bare)
    out = str(tmp_path / "merged")
    merge_indexes(idx, bare, out)
    assert load_index_meta(out)["roles_real"] is False
    eng = SearchEngine(out)
    assert eng.search(QUERY, 5)[0].size
    with pytest.raises(ValueError, match="role"):
        eng.search(QUERY, 5, role="user")
