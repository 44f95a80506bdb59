"""One benchmark run, in the child process that ``run.py`` supervises.

Every workload goes through the same life cycle on its own seeded corpus:

1. build    -- a cold ``build_index`` into a fresh directory;
2. query    -- six engine passes of a stream of distinct queries, each to
               a fresh ``SearchEngine``, and three serve passes of a prefix
               of it, each to a fresh ``SearchCluster`` (result cache off);
               every open and start is timed as set-up;
3. ingest   -- one cycle on a copy of the built index: two appends and
               six deletes, each seen by a fresh reader, and a compaction.

The query passes and the ingest steps take turns. Every run reports every
end-to-end metric. The workloads differ in corpus size. Every amount of
work is fixed
by the workload and ``--seconds``, never by how fast the run goes, so a
fast run does not end up with a warmer query mix. Each time figure with
several samples is their median, and the samples are spread over the run:
the machine's speed comes and goes within seconds. Answers are checked
after the timed parts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import checks
import inputs
from inputs import K
from tracing import QUERY_LAYERS, Tracer, delta


# Corpus size (conversations, about 8 turns each) and query rounds per
# second of --seconds for the engine and the serve stream.
PLANS = {
    "query": {"convs": 500, "engine_per_s": 1, "serve_per_s": 0.5},
    "ingest": {"convs": 300, "engine_per_s": 1, "serve_per_s": 0.5},
}
MIN_ROUNDS = 4              # query rounds per stream at least
ORACLE_ROUNDS = 2           # rounds whose every answer is checked by the oracle
APPEND_CONVS = 24
APPEND_STEPS = 2            # appends, each seen by a fresh reader
DELETE_BASE_CONVS = 10
DELETE_NEW_CONVS = 2
DELETE_STEPS = 6            # deletes, each seen by a fresh reader
PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    return max(p for p in PERCENTILES if n * (100 - p) / 100 >= 10)


def percentile(xs, p: float) -> float:
    s = sorted(xs)
    return s[min(len(s) - 1, int(len(s) * p / 100))]


def median_per_query(passes) -> list[float]:
    """Each query's median latency over passes of the same stream."""
    return [statistics.median(x[3] for x in col) for col in zip(*passes)]


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def du_mb(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 2**20


class Status:
    """The layer the run is in, kept in a file the supervisor reads when a
    call does not return."""

    def __init__(self, path: str):
        self.path = path
        self.t0 = time.perf_counter()

    def __call__(self, layer: str) -> None:
        with open(self.path, "w") as f:
            f.write(layer)
        print(f"[{time.perf_counter() - self.t0:6.1f}s] {layer}",
              file=sys.stderr, flush=True)


def nproc() -> int:
    """The CPU count ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True).stdout
        return max(1, int(out))
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def start_ray(work: str, cpus: int) -> None:
    """A private local Ray with ``cpus`` CPUs. Its session files go under
    ``work`` when the socket paths fit, else into a fresh system temp
    directory, whose path is left in ``work/ray_tmp`` for the supervisor
    to remove."""
    import logging

    import ray

    tmp = os.path.join(work, "ray")
    if len(tmp) > 40:       # AF_UNIX socket paths under it must fit 107 bytes
        tmp = tempfile.mkdtemp(prefix="rsb-")
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(work, "ray_tmp"), "w") as f:
        f.write(tmp)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             _temp_dir=tmp, object_store_memory=512 << 20,
             log_to_driver=False)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Run:
    def __init__(self, args, status: Status):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = args.work
        self.plan = PLANS[args.workload]
        self.cpus = args.cpus
        self.status = status
        self.tracer = Tracer() if self.trace else None
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.opens: list[float] = []
        self.starts: list[float] = []
        self.epasses: list[list] = []
        self.spasses: list[list] = []

    # -- helpers ----------------------------------------------------------------
    def rounds(self, stream: str) -> int:
        return max(MIN_ROUNDS,
                   round(self.plan[stream + "_per_s"] * self.seconds))

    def problem(self, where: str, found: list[str]) -> None:
        self.problems += [f"{where}: {p}" for p in found]

    # -- phases -----------------------------------------------------------------
    def run(self) -> dict:
        self.status("benchmark (corpus generation)")
        self.corpus_dir = os.path.join(self.work, "corpus")
        self.corpus = inputs.write_corpus(self.corpus_dir, self.seed,
                                          self.plan["convs"])
        index_dir = os.path.join(self.work, "index")
        self.build(index_dir)
        self.status("benchmark (oracle)")
        from tests.oracle import OracleIndex

        self.oracle = OracleIndex(self.corpus)
        self.qs = inputs.QueryStream(self.seed, self.corpus)
        for r in range(self.rounds("engine")):
            self.qs.round(r)            # generated outside the timed parts
        # Engine passes, serve passes and the ingest steps take turns, so
        # that the samples of every time figure are spread over the run.
        # The query passes go to the built index, the ingest steps to a
        # copy of it.
        cycle = IngestCycle(self, index_dir)
        engine, serve = self.engine_pass, self.serve_pass
        engine(index_dir)
        serve(index_dir)
        cycle.append(0)
        engine(index_dir)
        cycle.delete(0)
        cycle.delete(1)
        engine(index_dir)
        cycle.delete(2)
        serve(index_dir)
        cycle.append(1)
        engine(index_dir)
        cycle.delete(3)
        cycle.delete(4)
        engine(index_dir)
        cycle.delete(5)
        cycle.compact()
        engine(index_dir)
        serve(index_dir)
        cycle.finish()
        self.setup_metrics()
        self.query_metrics()
        self.status("benchmark (query checks)")
        self.check_queries()
        return self.result()

    def build(self, out: str) -> None:
        """A cold ``build_index`` of the run's corpus into ``out``, the first
        Ray Data job of the session."""
        from rayse.pipelines.build_index import build_index

        self.status("pipelines.build_index")
        if self.trace:
            self.tracer.install()
            before = self.tracer.snapshot()
        t0 = time.perf_counter()
        res = build_index(self.corpus_dir, out)
        t1 = time.perf_counter()
        if self.trace:
            self.tracer.uninstall()
            self.build_layers(out, t1 - t0, t1,
                              delta(before, self.tracer.snapshot()))
        self.problem("build", checks.check_count(
            "indexed turns", res.n_docs, self.corpus.num_rows))
        self.layers["build.turns_per_s"] = (res.n_docs / (t1 - t0), "1/s")
        self.e2e["index_mb"] = (du_mb(out), "MB")

    def build_layers(self, index_dir: str, wall: float, t_end: float,
                     spans) -> None:
        self_s, _ = spans
        parts = {k: self_s.get("build." + k, 0.0)
                 for k in ("conv_map", "collisions", "runs", "stats")}
        parts["merge"] = t_end - self.tracer.stats_end
        parts["other"] = wall - sum(parts.values())
        for k, v in parts.items():
            self.layers[f"build.{k}_s"] = (v, "s")
        with open(os.path.join(index_dir, "metrics.json")) as f:
            m = json.load(f)
        posts = [p["n_postings"] for p in m["parts"]]
        busy = sorted(p["wall_s"] for p in m["parts"] if p["n_postings"])
        self.layers["build.merge_part_p50_s"] = (statistics.median(busy), "s")
        self.layers["build.merge_part_max_s"] = (busy[-1], "s")
        # max over mean: the median part is empty on these corpora
        self.layers["build.part_postings_skew"] = (
            max(posts) / (sum(posts) / len(posts)), "ratio")
        self.layers["build.parts_nonempty"] = (len(busy), "count")
        for sub in ("runs", "segments", "conv_map"):
            self.layers[f"build.{sub}_mb"] = (
                du_mb(os.path.join(index_dir, sub)), "MB")
        seg = pads.dataset(os.path.join(index_dir, "segments"),
                           format="parquet")
        terms = seg.to_table(columns=["term"])["term"]
        runs = pads.dataset(os.path.join(index_dir, "runs"), format="parquet")
        self.layers["build.postings"] = (sum(posts), "count")
        self.layers["build.terms"] = (
            pa.compute.count_distinct(terms).as_py(), "count")
        self.layers["build.runs_rows_per_segment_row"] = (
            runs.count_rows() / len(terms), "ratio")

    def setup_metrics(self) -> None:
        """setup_s is the median ``SearchEngine`` open plus the median
        ``SearchCluster`` start of the run."""
        opened = statistics.median(self.opens)
        started = statistics.median(self.starts)
        self.e2e["setup_s"] = (opened + started, "s")
        self.layers["query.open_s"] = (opened, "s")
        self.layers["serve.start_s"] = (started, "s")

    def stream(self, search, n_rounds: int, traced: bool):
        """Closed loop, one client: the first ``n_rounds`` rounds of the
        query stream. Returns per-query records."""
        recs = []
        for r in range(n_rounds):
            batch = self.qs.round(r)
            if traced:
                self.tracer.install()
            for q in batch:
                before = self.tracer.snapshot() if traced else None
                t0 = time.perf_counter()
                docs, scores = search(q.text, K, q.mode)
                dt = time.perf_counter() - t0
                spans = delta(before, self.tracer.snapshot()) \
                    if traced else None
                recs.append((r, q, (docs, scores), dt, spans))
            if traced:
                self.tracer.uninstall()
        return recs

    def engine_pass(self, index_dir: str) -> None:
        """The engine stream to a fresh ``SearchEngine``, whose open is
        timed as set-up. The first pass is the traced one, and gives the
        memory growth."""
        from rayse.query.engine import SearchEngine

        first = not self.epasses
        gc.collect()
        rss0 = rss_mb()
        self.status("query.engine (SearchEngine open)")
        t0 = time.perf_counter()
        engine = SearchEngine(index_dir)
        self.opens.append(time.perf_counter() - t0)
        self.status("query.engine (SearchEngine.search)")
        recs = self.stream(engine.search, self.rounds("engine"),
                           self.trace and first)
        self.epasses.append(recs)
        self.pass_line("engine", recs)
        if first:
            gc.collect()
            self.e2e["query_rss_mb"] = (rss_mb() - rss0, "MB")
            self.engine = engine
            self.memo_terms = len(engine.reader._merged)
            if self.trace:
                self.layers["trace.overhead_pct"] = (
                    self.trace_overhead(engine), "%")

    def serve_pass(self, index_dir: str) -> None:
        """The serve stream, a prefix of the engine stream, to a fresh
        ``SearchCluster`` (pool size = CPUs, result cache off), whose start
        is timed as set-up until its actors answer. The first pass is the
        traced one."""
        import ray

        from rayse.query.serve import SearchCluster

        self.status("query.serve (SearchCluster start)")
        t0 = time.perf_counter()
        cluster = SearchCluster(index_dir, pool_size=self.cpus,
                                cache_entries=0)
        ray.get([a.local_df.remote([]) for a in cluster.actors])
        self.starts.append(time.perf_counter() - t0)
        traced = self.trace and not self.spasses
        self.status("query.serve (SearchCluster.search)")
        if traced:
            self.tracer.install()
            self.tracer.trace_cluster(cluster)
            before = self.tracer.snapshot()
        recs = self.stream(cluster.search, self.rounds("serve"), False)
        if traced:
            spans = delta(before, self.tracer.snapshot())
            self.tracer.uninstall()
            self.serve_layers(recs, spans)
        self.spasses.append(recs)
        self.pass_line("serve", recs)
        # its actors hold every CPU Ray has, so nothing else could run
        self.status("query.serve (SearchCluster.shutdown)")
        cluster.shutdown()

    def pass_line(self, side: str, recs) -> None:
        lat = [x[3] for x in recs]
        print(f"{side} pass: {len(lat)} queries in {sum(lat):.3f} s, p50 "
              f"{statistics.median(lat) * 1e3:.3f} ms", file=sys.stderr)

    def query_metrics(self) -> None:
        """Each query's latency is its median over the passes; the
        figures are taken over those latencies."""
        for side, passes in (("query", self.epasses),
                             ("serve", self.spasses)):
            lat = median_per_query(passes)
            self.layers[f"{side}.qps"] = (len(lat) / sum(lat), "1/s")
            self.layers[f"{side}.p50_ms"] = (statistics.median(lat) * 1e3,
                                             "ms")
            self.layers[f"{side}.tail_ms"] = (
                percentile(lat, tail_percentile(len(lat))) * 1e3, "ms")
        erecs, srecs = self.epasses[0], self.spasses[0]
        print(f"query stream: {len(self.epasses)} passes of {len(erecs)} "
              f"engine queries (tail p{tail_percentile(len(erecs))}), "
              f"{len(self.spasses)} of {len(srecs)} serve queries (tail "
              f"p{tail_percentile(len(srecs))}); answers "
              f"{checks.digest([x[2] for x in erecs if x[0] < MIN_ROUNDS])}",
              file=sys.stderr)
        if self.trace:
            self.query_layers(erecs, self.memo_terms)

    def check_queries(self) -> None:
        """Every answer of every pass; later passes and the serve passes
        must answer exactly as the first engine pass."""
        phrase_docs = {}
        first = self.epasses[0]
        for side, passes in (("engine", self.epasses),
                             ("serve", self.spasses)):
            for i, recs in enumerate(passes):
                self.attempted += len(recs)
                for (r, q, ans, _, _), (_, _, want, _, _) in zip(recs, first):
                    where = f"{side} pass {i + 1} {q.text!r}"
                    self.problem(where, checks.check_order(*ans, K))
                    if q.source is not None:
                        if q.text not in phrase_docs:
                            phrase_docs[q.text] = checks.phrase_docs_of(
                                self.oracle, q.text)
                        found = checks.check_source(
                            ans[0], phrase_docs[q.text], q.source, K)
                        if q.cls == "kept":
                            self.failed += bool(found)
                        else:
                            self.problem(where, found)
                    if side == "engine" and i == 0:
                        if r < ORACLE_ROUNDS:
                            full = checks.oracle_ranking(self.oracle, q.text,
                                                         q.mode)
                            self.problem(where, checks.check_topk(*ans, full,
                                                                  K))
                    else:
                        self.problem(where, checks.check_same(want, ans))
        self.problem("plants", checks.check_plants(
            lambda q, k: self.engine.search(q, k)[0], self.plan["convs"]))

    def query_layers(self, erecs, memo_terms: int) -> None:
        traced = [x for x in erecs if x[4] is not None]
        n = len(traced)
        sums, counts, lat_by = Counter(), Counter(), {}
        cold = []
        for _, q, _, dt, (self_s, cnt) in traced:
            layer_s = {k: v for k, v in self_s.items()
                       if k.startswith("query.")}
            sums.update(layer_s)
            sums["other"] += dt - sum(layer_s.values())
            counts.update(cnt)
            lat_by.setdefault(q.cls, []).append(dt)
            cold.append((cnt["lists_decoded"] > 0, dt))
        for layer in QUERY_LAYERS:
            self.layers[f"query.{layer}_ms"] = (
                sums["query." + layer] / n * 1e3, "ms")
        self.layers["query.other_ms"] = (sums["other"] / n * 1e3, "ms")
        for c in ("df_lookups", "df_part_lookups", "postings_decoded",
                  "candidates"):
            self.layers[f"query.{c}"] = (counts[c] / n, "count")
        self.layers["query.memo_hit_ratio"] = (
            counts["memo_hits"] / max(1, counts["merged_calls"]), "ratio")
        self.layers["query.memo_terms"] = (memo_terms, "count")
        for cls, _ in inputs.ROUND:
            if cls != "kept":
                self.layers[f"query.{cls}_p50_ms"] = (
                    statistics.median(lat_by[cls]) * 1e3, "ms")
        for name, sel in (("cold", True), ("warm", False)):
            xs = [dt for c, dt in cold if c == sel]
            self.layers[f"query.{name}_p50_ms"] = (
                statistics.median(xs) * 1e3 if xs else 0.0, "ms")
        self.layers["query.cold_share"] = (
            sum(c for c, _ in cold) / n, "ratio")

    def trace_overhead(self, engine, reps: int = 5) -> float:
        """Extra wall time of traced queries, in percent: the first
        ``MIN_ROUNDS`` rounds replayed on the now warm engine, untraced and
        traced in turn."""
        batch = [q for r in range(MIN_ROUNDS) for q in self.qs.round(r)]
        walls = {False: [], True: []}
        for _ in range(reps):
            for traced in (False, True):
                if traced:
                    self.tracer.install()
                t0 = time.perf_counter()
                for q in batch:
                    engine.search(q.text, K, q.mode)
                walls[traced].append(time.perf_counter() - t0)
                if traced:
                    self.tracer.uninstall()
        return (statistics.median(walls[True])
                / statistics.median(walls[False]) - 1) * 100

    def serve_layers(self, srecs, spans) -> None:
        self_s, counts = spans
        n = len(srecs)
        wall = sum(x[3] for x in srecs)
        gather = self_s.get("serve.df_gather", 0.0)
        merge = self_s.get("serve.merge", 0.0)
        self.layers["serve.df_gather_ms"] = (gather / n * 1e3, "ms")
        self.layers["serve.merge_ms"] = (merge / n * 1e3, "ms")
        self.layers["serve.fanout_ms"] = ((wall - gather - merge) / n * 1e3,
                                          "ms")
        self.layers["serve.actor_calls_per_query"] = (
            counts["actor_calls"] / n, "count")

    # -- result -----------------------------------------------------------------
    def result(self) -> dict:
        chosen = self.layers if self.trace else self.e2e
        if not self.trace:
            # the time figures, which no bound can hold on a host whose
            # speed swings as this one's does (README, Steadiness)
            print("figures: " + json.dumps(
                {k: v for k, (v, _) in sorted(self.layers.items())}),
                file=sys.stderr)
        for p in self.problems[:20]:
            print("check failed:", p, file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(chosen.items())},
        }


class IngestCycle:
    """Appends in ``APPEND_STEPS`` steps, deletes in ``DELETE_STEPS`` steps
    and a compaction, on a copy of the built index. The steps are called
    one by one, so that query passes can come between them; each append
    and delete is timed until a fresh reader has answered its probes."""

    def __init__(self, run: Run, index_dir: str):
        from rayse.corpus.generator import conv_name

        self.run = run
        self.base = os.path.join(run.work, "ingest")
        self.compacted = self.base + "-compacted"
        run.status("benchmark (ingest copy)")
        shutil.copytree(index_dir, self.base)
        n = run.plan["convs"]
        self.batch = inputs.ingest_batch(run.seed, n, APPEND_CONVS)
        self.new_convs = [conv_name(c) for c in range(n, n + APPEND_CONVS)]
        self.marks = [inputs.marker(j) for j in range(APPEND_CONVS)]
        per_step = APPEND_CONVS // APPEND_STEPS
        self.steps = []         # (parquet path, its rows, its first conv)
        for i in range(0, APPEND_CONVS, per_step):
            rows = self.batch.filter(pa.compute.is_in(
                self.batch["conv_id"],
                pa.array(self.new_convs[i:i + per_step])))
            path = os.path.join(run.work, f"append-{i}.parquet")
            pq.write_table(rows, path)
            self.steps.append((path, rows.num_rows, i))
        step = n // DELETE_BASE_CONVS
        # the new conversations deleted come from the first append
        self.victims = ([conv_name(j * step) for j in range(DELETE_BASE_CONVS)]
                        + self.new_convs[:DELETE_NEW_CONVS])
        # the rarest word of each deleted conversation, or the marker of a
        # new one; the oracle shows that each finds its conversation
        self.probe_of = checks.probe_words(run.oracle, run.corpus,
                                           self.victims[:DELETE_BASE_CONVS])
        run.problem("ingest", checks.check_probes_find(
            lambda q: run.oracle.search(q, 1 << 30)[0], self.probe_of))
        self.probe_of.update(zip(self.new_convs[:DELETE_NEW_CONVS],
                                 self.marks))
        self.n_docs = run.corpus.num_rows   # turns indexed so far
        self.deleted: list[str] = []
        self.append_s, self.append_merge, self.reopen = [], [], []
        self.build_self_s: Counter = Counter()
        self.results, self.appended = [], []
        self.delete_s, self.delete_calls, self.readers = [], [], []

    def append(self, i: int) -> None:
        from rayse.pipelines.build_index import append_index
        from rayse.query.engine import SearchEngine

        run, tracer = self.run, self.run.tracer
        path, n_rows, first = self.steps[i]
        marks = self.marks[first:first + APPEND_CONVS // APPEND_STEPS]
        run.status("pipelines.append_index")
        if run.trace:
            tracer.install()
            before = tracer.snapshot()
        t0 = time.perf_counter()
        res = append_index(self.base, [path])
        t_append = time.perf_counter()
        if run.trace:
            self_s, _ = delta(before, tracer.snapshot())
            tracer.uninstall()
            self.build_self_s.update(self_s)
            self.append_merge.append(t_append - tracer.stats_end)
        run.status("query.engine (reopen after append)")
        eng = SearchEngine(self.base)
        t_open = time.perf_counter()
        found = [eng.search(m, K) for m in marks]
        self.append_s.append(time.perf_counter() - t0)
        self.reopen.append(t_open - t_append)
        self.n_docs += n_rows
        self.results.append((res, self.n_docs))
        self.appended += list(zip(range(first, first + len(marks)), found))

    def delete(self, i: int) -> None:
        """Delete step ``i``: its group of conversations, then a fresh
        reader asks the probe of each conversation of the group."""
        from rayse.index.maintenance import delete_convs
        from rayse.query.engine import SearchEngine

        run = self.run
        group = self.victims[i::DELETE_STEPS]
        run.status("index.maintenance (delete_convs)")
        t0 = time.perf_counter()
        delete_convs(self.base, group)
        t_del = time.perf_counter()
        run.status("query.engine (reopen after delete)")
        eng = SearchEngine(self.base)
        t_open = time.perf_counter()
        got = [eng.search(self.probe_of[c], K) for c in group]
        self.delete_s.append(time.perf_counter() - t0)
        self.delete_calls.append(t_del - t0)
        self.reopen.append(t_open - t_del)
        self.deleted += group
        self.readers.append((list(self.deleted), got, eng, self.n_docs))

    def compact(self) -> None:
        from rayse.index.maintenance import compact_index

        self.run.status("index.maintenance (compact_index)")
        t0 = time.perf_counter()
        self.cres = compact_index(self.base, self.compacted)
        self.compact_s = time.perf_counter() - t0

    def finish(self) -> None:
        """Checks, metrics and clean-up, after the timed parts."""
        from rayse.query.engine import SearchEngine
        from rayse.stages.doc_ids import doc_id_of

        run, where = self.run, "ingest"
        run.status("benchmark (ingest checks)")
        for res, n_all in self.results:
            run.problem(where, checks.check_count(
                "turns after an append", res.n_docs, n_all))
        for j, (docs, _) in self.appended:
            if [int(d) for d in docs] != [doc_id_of(self.new_convs[j], 0)]:
                run.problem(where, [f"appended turn {self.marks[j]!r} not "
                                    "found alone by a fresh reader"])
        for gone, got, eng, n_all in self.readers:
            # deletes are logical: n_docs keeps its value until compaction
            run.problem(where, checks.check_count(
                "turns after a delete", eng.reader.n_docs, n_all))
            run.problem(where, checks.check_count(
                "deleted conversations", int(eng.reader.tombstones.size),
                len(gone)))
            for docs, scores in got:
                run.problem(where, checks.check_order(docs, scores, K))
                run.problem(where, checks.check_none_deleted(docs, gone))
            run.problem(where, checks.check_deleted_gone(
                lambda q: eng.search(q, 1 << 20)[0], self.probe_of, gone))
        self.check_compacted(where, SearchEngine(self.compacted))
        if run.trace:
            self.layers()
        shutil.rmtree(self.base)
        shutil.rmtree(self.compacted)
        for path, _, _ in self.steps:
            os.remove(path)
        run.layers["ingest.append_visible_s"] = (
            statistics.median(self.append_s), "s")
        run.layers["ingest.delete_visible_s"] = (
            statistics.median(self.delete_s), "s")

    def check_compacted(self, where, eng) -> None:
        """The compacted index holds the inputs minus the deleted
        conversations and ranks like an oracle built from exactly those."""
        from tests.oracle import OracleIndex

        run = self.run
        union = pa.concat_tables([run.corpus, self.batch])
        live = union.filter(pa.compute.invert(pa.compute.is_in(
            union["conv_id"], pa.array(self.victims))))
        run.problem(where, checks.check_count(
            "turns after compaction", eng.reader.n_docs, live.num_rows))
        oracle = OracleIndex(live)
        queries = run.qs.round(0)[:6] + [
            inputs.Query("term", m)
            for m in self.marks[DELETE_NEW_CONVS:DELETE_NEW_CONVS + 4]]
        for q in queries:
            docs, scores = eng.search(q.text, K, q.mode)
            run.problem(where, checks.check_none_deleted(docs, self.victims))
            run.problem(where, checks.check_order(docs, scores, K))
            run.problem(where, checks.check_topk(
                docs, scores, checks.oracle_ranking(oracle, q.text, q.mode),
                K))

    def layers(self) -> None:
        """Append figures are means per append."""
        out = self.run.layers
        n = len(self.results)
        runs = sum(self.build_self_s.get("build." + k, 0.0)
                   for k in ("conv_map", "collisions", "runs", "stats"))
        out["ingest.append_runs_s"] = (runs / n, "s")
        out["ingest.append_merge_s"] = (statistics.mean(self.append_merge),
                                        "s")
        out["ingest.parts_remerged"] = (statistics.mean(
            len(r.part_manifests) for r, _ in self.results), "count")
        out["ingest.delete_ms"] = (statistics.median(self.delete_calls) * 1e3,
                                   "ms")
        out["ingest.reopen_s"] = (statistics.mean(self.reopen), "s")
        out["ingest.compact_s"] = (self.compact_s, "s")
        out["ingest.compact_parts"] = (len(os.listdir(
            os.path.join(self.compacted, "segments"))), "count")
        out["ingest.compact_mb_written"] = (du_mb(self.compacted), "MB")
        out["ingest.compact_postings_kept"] = (self.cres["n_postings"],
                                               "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    args.cpus = nproc()
    # the run's processes, Ray's included, use as many CPUs as Ray is given
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:args.cpus])
    import ray

    status = Status(os.path.join(args.work, "layer"))
    status("ray (start)")
    start_ray(args.work, args.cpus)
    try:
        out = Run(args, status).run()
    finally:
        status("ray (shutdown)")
        ray.shutdown()
    status("benchmark (done)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
