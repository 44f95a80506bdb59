"""Opt-in tracing of the program's layers from the benchmark's own files.

``Tracer.install()`` wraps public functions of each layer in place and
``uninstall()`` restores them; nothing inside ``rayse`` changes. A wrapped
call is a span: its self time is its wall time minus the time of the
wrapped calls it made, and is added to the span's layer. Counters are
recorded at the same boundaries. Wrappers return exactly what the wrapped
function returns, so traced answers equal untraced ones.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import rayse.index.reader as reader_mod
import rayse.pipelines.build_index as build_mod
import rayse.pipelines.hydrate as hydrate_mod
import rayse.query.engine as engine_mod
import rayse.query.serve as serve_mod
import rayse.query.wand as wand_mod
from rayse.index.segments import DecodedPostings

# query layers, as (module or class, attribute, layer)
QUERY_SPANS = (
    (engine_mod, "parse_query", "parse"),
    (reader_mod.IndexReader, "df", "dict"),
    (engine_mod.SearchEngine, "_idfs", "dict"),
    (reader_mod.PartReader, "postings", "decode"),
    (reader_mod.IndexReader, "merged", "concat"),
    (DecodedPostings, "positions", "positions"),
    (engine_mod, "phrase_match", "positions"),
    (engine_mod, "accumulate", "score"),
    (engine_mod, "score_docs", "score"),
    (engine_mod, "_intersect_sorted", "score"),
    (wand_mod, "topk_blockmax", "score"),
    (wand_mod, "topk_single_term", "score"),
    (engine_mod, "top_k", "topk"),
    (wand_mod, "top_k", "topk"),
    (serve_mod, "top_k", "serve.merge"),
)
QUERY_LAYERS = ("parse", "dict", "decode", "concat", "positions", "score",
                "topk")

# build layers; "merge" is measured from the end of corpus stats to the
# end of the build (the merge actor pool runs inline in build_index)
BUILD_SPANS = (
    (hydrate_mod, "build_conv_map", "conv_map"),
    (build_mod, "resolve_conv_collisions", "collisions"),
    (build_mod, "build_runs_for_shard", "runs"),
    (build_mod, "compute_corpus_stats", "stats"),
)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.stats_end = 0.0        # perf_counter at the last stats return
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _span(self, layer: str, fn, before=None, after=None):
        stack = self._stack
        self_s = self.self_s

        def wrapped(*args, **kwargs):
            mark = before(args) if before else None
            t0 = time.perf_counter()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self_s[layer] += dt - child
                if stack:
                    stack[-1] += dt
            if after:
                after(args, mark, out)
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    def _patch(self, owner, attr: str, layer: str, before=None, after=None):
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._span(layer, fn, before, after))

    def install(self) -> "Tracer":
        c = self.counts
        for owner, attr, layer in BUILD_SPANS:
            after = None
            if layer == "stats":
                def after(args, mark, out):
                    self.stats_end = time.perf_counter()
            self._patch(owner, attr, "build." + layer, after=after)

        def count_df(args, mark, out):
            c["df_lookups"] += 1

        def merged_before(args):
            return args[1] in args[0]._merged

        def merged_after(args, hit, out):
            c["merged_calls"] += 1
            c["memo_hits"] += hit

        def postings_before(args):
            return args[1] in args[0]._cache

        def postings_after(args, hit, out):
            if not hit and out is not None:
                c["postings_decoded"] += int(out.doc_ids.size)
                c["lists_decoded"] += 1

        def topk_after(args, mark, out):
            c["candidates"] += int(args[0].size)

        hooks = {("df", "dict"): (None, count_df),
                 ("merged", "concat"): (merged_before, merged_after),
                 ("postings", "decode"): (postings_before, postings_after),
                 ("top_k", "topk"): (None, topk_after)}
        for owner, attr, layer in QUERY_SPANS:
            before, after = hooks.get((attr, layer), (None, None))
            name = layer if "." in layer else "query." + layer
            self._patch(owner, attr, name, before, after)
        # a part lookup is counted, not timed: its time is the dict layer's
        part_df = reader_mod.PartReader.__dict__["df"]
        self._saved.append((reader_mod.PartReader, "df", part_df))

        def counted_part_df(part, term):
            c["df_part_lookups"] += 1
            return part_df(part, term)
        reader_mod.PartReader.df = counted_part_df
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- serve ---------------------------------------------------------------
    def trace_cluster(self, cluster) -> None:
        """Time the driver-side df gather of a ``SearchCluster`` and count
        the actor calls it waits on. Instance attributes only."""
        cluster._global_df = self._span("serve.df_gather",
                                        cluster._global_df)
        cluster._ray = _CountingRay(cluster._ray, self.counts)

    # -- reading ---------------------------------------------------------------
    def snapshot(self) -> tuple[dict, Counter]:
        return dict(self.self_s), Counter(self.counts)


class _CountingRay:
    """Stands in for the ``ray`` module inside one SearchCluster and
    counts the object refs each ``get`` waits on."""

    def __init__(self, ray_mod, counts: Counter):
        self._ray = ray_mod
        self._counts = counts

    def get(self, refs, *args, **kwargs):
        self._counts["actor_calls"] += len(refs) if isinstance(refs, list) \
            else 1
        return self._ray.get(refs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ray, name)


def delta(before: tuple[dict, Counter], after: tuple[dict, Counter]):
    """Self seconds per layer and counts accrued between two snapshots."""
    (s0, c0), (s1, c1) = before, after
    return ({k: s1.get(k, 0.0) - s0.get(k, 0.0) for k in s1},
            Counter({k: c1[k] - c0[k] for k in c1}))
