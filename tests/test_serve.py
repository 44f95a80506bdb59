"""Distributed serving == single-process engine (rank identity across the
actor fan-out; SURVEY.md ST2/J2)."""

import json
from pathlib import Path

import numpy as np
import pytest

QUERIES = json.loads((Path(__file__).parent / "queries.json").read_text())


@pytest.fixture(scope="module")
def cluster(ray_session, index_dir):
    from rayse.query.serve import SearchCluster

    c = SearchCluster(index_dir, pool_size=3)
    yield c
    c.shutdown()


def test_cluster_rank_identity(cluster, engine):
    for q in QUERIES[::3] + ['"rate limit exceeded"', "us uk eu war"]:
        cd, cs = cluster.search(q, 10)
        ed, es = engine.search(q, 10)
        assert [int(x) for x in cd] == [int(x) for x in ed], q
        np.testing.assert_allclose(cs, es, rtol=0, atol=1e-12, err_msg=q)


def test_cluster_search_many(cluster, engine):
    qs = QUERIES[:6]
    batch = cluster.search_many(qs, 10)
    for q, (cd, cs) in zip(qs, batch):
        ed, es = engine.search(q, 10)
        assert [int(x) for x in cd] == [int(x) for x in ed], q


def test_serving_role_identity(cluster, engine):
    """Distributed role-filtered/boosted search == single-process engine
    (role ops are partition-local, so the per-part merge stays exact).
    Reuses the module cluster — its 3 actors hold 3 of the session's 4
    CPUs, so a second pool would pend forever."""
    for q in ["table scan", "hash join merge"]:
        for kwargs in ({"role": "assistant"},
                       {"role_weights": {"assistant": 3.0, "user": 0.5}}):
            dd, ds_ = cluster.search(q, 10, **kwargs)
            ld, ls = engine.search(q, 10, **kwargs)
            assert [int(x) for x in dd] == [int(x) for x in ld], (q, kwargs)
            assert ds_.tolist() == ls.tolist(), (q, kwargs)


def test_cluster_stopword_phrases_match_nothing(cluster):
    for q in ['"a b"', '"the of" AND "rate"']:
        d, s = cluster.search(q, 10)
        assert d.size == s.size == 0, q


def test_cluster_refuses_pool_beyond_cpus(cluster, index_dir):
    """More actors than Ray has CPUs would leave the surplus unscheduled
    and the first query waiting forever: refuse before starting any."""
    import ray

    from rayse.index.reader import present_parts
    from rayse.query.serve import SearchCluster

    pool = int(ray.cluster_resources()["CPU"]) + 1
    assert len(present_parts(index_dir)) >= pool   # not clamped by parts
    with pytest.raises(ValueError, match="CPU"):
        SearchCluster(index_dir, pool_size=pool)


def test_clusters_share_one_actor_class(cluster, engine, index_dir,
                                        monkeypatch):
    """Every SearchCluster of a process starts its actors from one Ray
    actor class: ``ray.remote`` makes a new class, which Ray pickles and
    exports again, each time it is called. One pool at a time beside the
    module cluster, whose 3 actors hold 3 of the session's 4 CPUs."""
    import ray

    from rayse.query.serve import SearchCluster

    made = []
    remote = ray.remote
    monkeypatch.setattr(ray, "remote",
                        lambda *a, **kw: made.append(1) or remote(*a, **kw))
    q = QUERIES[0]
    want = [int(x) for x in engine.search(q, 10)[0]]
    for _ in range(2):
        c = SearchCluster(index_dir, pool_size=1, cache_entries=0)
        try:
            assert [int(x) for x in c.search(q, 10)[0]] == want
        finally:
            c.shutdown()
    assert made == []       # the module cluster already made the class


def test_result_cache_hit_identity(cluster, engine):
    """ST4 analog (`SearchController.java:33-143`): cached results are
    identical to fresh ones and hits skip the actor fan-out."""
    q = QUERIES[0]
    cluster.cache.clear()
    h0, m0 = cluster.cache.hits, cluster.cache.misses
    d1, s1 = cluster.search(q, 10)
    d2, s2 = cluster.search(q, 10)
    assert cluster.cache.misses == m0 + 1
    assert cluster.cache.hits == h0 + 1
    assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
    ed, es = engine.search(q, 10)
    assert [int(x) for x in d2] == [int(x) for x in ed]
    # mutating a returned array must not poison the cache
    if d2.size:
        d2[0] = 0
        d3, _ = cluster.search(q, 10)
        assert [int(x) for x in d3] == [int(x) for x in ed]
    # different k / mode / role are distinct entries
    cluster.search(q, 5)
    assert cluster.cache.misses == m0 + 2


def test_result_cache_lru_and_ttl():
    """Pure cache semantics: LRU eviction at max_entries, TTL expiry via an
    injected clock (no Ray needed)."""
    from rayse.query.serve import ResultCache

    t = [0.0]
    c = ResultCache(max_entries=2, ttl_s=10.0, now=lambda: t[0])
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == 1          # refreshes a's recency
    c.put("c", 3)                   # evicts b (LRU)
    assert c.get("b") is None
    assert c.get("a") == 1 and c.get("c") == 3
    t[0] = 10.1                     # both entries age out
    assert c.get("a") is None and c.get("c") is None
    c.put("d", 4)
    t[0] = 15.0
    assert c.get("d") == 4          # within TTL of its own insertion
