"""Distributed query serving: per-part actors + driver top-k merge.

The distributed analog of the reference's serving stack (RAM index load
`IndexerService.java:582-740` + query fan-out over a thread pool
`QueryService.java:714-818`): each ``QueryActor`` loads a disjoint set of
doc-partitions ONCE in ``__init__`` and answers per-part top-k; the driver
merges k-way — correct because parts partition the doc space, so global
top-k = top-k of the per-part top-k union (O1 semantics, docID tie-breaks).

IDF is corpus-global while each actor sees a df subset, so every query is
two-phase (J2 broadcast-small-side semantics): (1) driver broadcasts the
tiny query-term list, actors return local dfs, driver sums; (2) actors
score with the injected global stats. Rank-identity with the single-process
engine is asserted in tests/test_serve.py.

Sizing: pool_size actors (at most one per part that holds postings), each
owning about ``parts / pool_size`` of those parts at ``num_cpus=1``; at
cluster scale resident set per actor = index / pool. A pool larger than
Ray's CPU count is refused: its surplus actors would never be scheduled.
A pool that fits the total but not the CPUs left free by other pools is
refused once ``READY_TIMEOUT_S`` passes without every actor answering.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from functools import cache

import numpy as np

from .engine import SearchEngine, top_k
from .parser import parse_query

# seconds a new pool may take until every actor has opened its parts
READY_TIMEOUT_S = 120.0


class ResultCache:
    """Size- and TTL-bounded LRU for search results — the ST4 analog of the
    reference's serving cache (`controllers/SearchController.java:33-143`:
    500-entry / 30-minute LRU over query results; the smaller
    `Query/QueryController.java:44-47` variant is the same shape).

    Driver-side only: entries are the tiny (docs, scores) top-k arrays,
    never posting data. ``now`` is injectable for deterministic expiry
    tests."""

    def __init__(self, max_entries: int = 500, ttl_s: float = 1800.0,
                 now=time.monotonic):
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._now = now
        self._d: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        ent = self._d.get(key)
        if ent is None:
            self.misses += 1
            return None
        ts, val = ent
        if self._now() - ts > self.ttl_s:
            del self._d[key]
            self.misses += 1
            return None
        self._d.move_to_end(key)
        self.hits += 1
        return val

    def put(self, key, val):
        self._d[key] = (self._now(), val)
        self._d.move_to_end(key)
        while len(self._d) > self.max_entries:
            self._d.popitem(last=False)

    def clear(self):
        self._d.clear()


def _query_terms(pq_) -> list[str]:
    terms: list[str] = []
    for seq in (pq_.terms, pq_.phrase, pq_.left, pq_.right):
        for t in seq:
            if t not in terms:
                terms.append(t)
    return terms


class QueryActor:
    """Holds a SearchEngine over a subset of parts (state loaded once)."""

    def __init__(self, index_dir: str, parts: list[int]):
        self.engine = SearchEngine(index_dir, parts=parts)

    def local_df(self, terms: list[str]) -> dict[str, int]:
        return {t: self.engine.reader.df(t) for t in terms}

    def search(self, query: str, k: int, mode: str, global_df: dict,
               role: str | None = None, role_weights: dict | None = None):
        self.engine.global_df = global_df
        docs, scores = self.engine.search(query, k, mode, role=role,
                                          role_weights=role_weights)
        return np.asarray(docs), np.asarray(scores)


@cache
def _remote_query_actor():
    """The Ray actor class of ``QueryActor``, made once per process: each
    ``ray.remote`` call makes a new class that Ray pickles and exports
    again."""
    import ray

    return ray.remote(num_cpus=1)(QueryActor)


class SearchCluster:
    """Driver-side facade over a pool of QueryActors."""

    def __init__(self, index_dir: str, pool_size: int = 4,
                 cache_entries: int = 500, cache_ttl_s: float = 1800.0):
        import ray

        from ..index.reader import present_parts
        from ..index.stats import load_corpus_stats, load_index_meta

        # refuse another format version here, not inside every actor
        load_index_meta(index_dir)
        self.n_docs = load_corpus_stats(index_dir)["n_docs"]
        parts = list(present_parts(index_dir))
        pool_size = max(1, min(pool_size, len(parts)))
        cpus = int(ray.cluster_resources().get("CPU", 0))
        if pool_size > cpus:
            raise ValueError(
                f"pool_size {pool_size} exceeds Ray's {cpus} CPUs: each "
                "QueryActor takes one CPU, so the surplus actors would "
                "never start and queries would wait on them forever")
        assign: list[list[int]] = [[] for _ in range(pool_size)]
        for i, p in enumerate(parts):
            assign[i % pool_size].append(p)
        free = int(ray.available_resources().get("CPU", 0))
        Remote = _remote_query_actor()
        self.actors = [Remote.remote(index_dir, parts) for parts in assign]
        self._ray = ray
        # an actor Ray cannot place waits for a CPU and would leave every
        # query waiting on it
        ready, pending = ray.wait([a.__ray_ready__.remote()
                                   for a in self.actors],
                                  num_returns=pool_size,
                                  timeout=READY_TIMEOUT_S)
        if pending:
            self.shutdown()
            raise RuntimeError(
                f"{len(pending)} of {pool_size} QueryActors did not start "
                f"within {READY_TIMEOUT_S:g} s: the pool needs {pool_size} "
                f"CPUs and Ray had {free} free")
        ray.get(ready)          # raises an actor's error opening its parts
        # ST4-analog result cache (size/TTL-bounded; 0 entries disables)
        self.cache = (ResultCache(cache_entries, cache_ttl_s)
                      if cache_entries > 0 else None)

    @staticmethod
    def _cache_key(query: str, k: int, mode: str, role, role_weights):
        return (query, k, mode, role,
                tuple(sorted(role_weights.items()))
                if role_weights else None)

    def _global_df(self, query: str) -> dict[str, int]:
        terms = _query_terms(parse_query(query))
        if not terms:
            return {}
        partials = self._ray.get([a.local_df.remote(terms)
                                  for a in self.actors])
        return {t: sum(p[t] for p in partials) for t in terms}

    def search(self, query: str, k: int = 10, mode: str = "or",
               role: str | None = None, role_weights: dict | None = None):
        """Role filter/boost (M6/A7) pass straight through: the role mask
        and multiplier are per-posting, hence partition-local — the
        per-part top-k union argument is unchanged. Results are memoized in
        the ST4-analog LRU (copies returned, so callers can't mutate
        cached arrays)."""
        key = self._cache_key(query, k, mode, role, role_weights)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit[0].copy(), hit[1].copy()
        gdf = self._global_df(query)
        refs = [a.search.remote(query, k, mode, gdf, role, role_weights)
                for a in self.actors]
        parts = self._ray.get(refs)
        docs = np.concatenate([np.asarray(d, dtype=np.uint64)
                               for d, _ in parts])
        scores = np.concatenate([np.asarray(s, dtype=np.float64)
                                 for _, s in parts])
        out = top_k(docs, scores, k)
        if self.cache is not None:
            self.cache.put(key, (out[0].copy(), out[1].copy()))
        return out

    def search_many(self, queries: list[str], k: int = 10, mode: str = "or"):
        """Pipelined batch: df gathers and scoring calls all in flight."""
        gdfs = [self._global_df(q) for q in queries]
        refs = [[a.search.remote(q, k, mode, gdf) for a in self.actors]
                for q, gdf in zip(queries, gdfs)]
        out = []
        for row in refs:
            parts = self._ray.get(row)
            docs = np.concatenate([np.asarray(d, dtype=np.uint64)
                                   for d, _ in parts])
            scores = np.concatenate([np.asarray(s, dtype=np.float64)
                                     for _, s in parts])
            out.append(top_k(docs, scores, k))
        return out

    def shutdown(self):
        for a in self.actors:
            self._ray.kill(a)
        self.actors = []
