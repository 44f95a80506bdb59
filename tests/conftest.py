"""Shared fixtures: one Ray session, one built index, one oracle per session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

N_CONVS_SMALL = 400  # FIXTURES.md "small" tier (scaled to keep CI fast)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    from rayse.corpus.generator import write_transcripts

    d = tmp_path_factory.mktemp("corpus")
    write_transcripts(str(d), N_CONVS_SMALL, convs_per_file=150)
    return str(d)


@pytest.fixture(scope="session")
def corpus_table(corpus_dir):
    import pyarrow.parquet as pq

    return pq.read_table(corpus_dir)


@pytest.fixture(scope="session")
def index_dir(ray_session, corpus_dir, tmp_path_factory):
    from rayse.pipelines.build_index import build_index

    d = tmp_path_factory.mktemp("index")
    build_index(corpus_dir, str(d), merge_concurrency=3)
    return str(d)


@pytest.fixture(scope="session")
def engine(index_dir):
    from rayse.query.engine import SearchEngine

    return SearchEngine(index_dir)


@pytest.fixture(scope="session")
def oracle(corpus_table):
    from tests.oracle import OracleIndex

    return OracleIndex(corpus_table)
