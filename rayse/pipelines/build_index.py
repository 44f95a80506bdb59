"""Distributed inverted-index build — the Ray-Data-native replacement for the
reference's ``POST /reindex`` path (`ReindexController.java:40-89` →
`Indexer/Service/IndexerService.java:370-452`: 20-doc batches × ≤8 raw Java
threads upserting PostgreSQL rows).

Pipeline (per input shard, then a per-part merge):

  read_parquet(transcripts, columns=[conv_id, turn_idx, text])
    → map_batches(TokenizeStage, batch_format="pyarrow")     # Ray tasks;
        # phase-1 combiner: per-batch compressed posting runs
    → write_parquet(runs/shard=S/, partition_cols=["part"])  # file-based
        # exchange: the groupby-term shuffle, realized as partition-by-
        # doc-part at write + per-part gather at merge
  MergeWorker actor pool (one part per call, only parts that got runs):
    read the part's existing segment (if any) and the runs of the shards
    it does not hold yet → group by term → k-way merge (decode, mergesort
    by doc_id, re-encode, block-max) → final segment parquet + manifest
  delete the merged shards' runs

Index layout under ``out_dir``::

    runs/                                 staging for phase-1 runs; empty
                                          once a build or append finishes
    segments/part={p}/segment.parquet     final per-part posting lists
                                          (only parts that hold postings)
    _manifest/shard-{s}.json              per-shard build checkpoint
    _manifest/part-{p}.json               per-part counts and block-max avgdl
    conv_map/shard={s}/                   conv_hash -> conv_id (hydration,
                                          collision detection)
    corpus_stats.json                     N, total_tokens, avgdl, counted shards
    index_meta.json                       config, role flag, format version
    metrics.json                          throughput + per-stage wall times

An index is written and read in one format version only
(``index.stats.FORMAT_VERSION``); ``build_index`` refuses a directory
that holds an index of another version or config.

Resume: a shard whose manifest exists is skipped; a part's segment records
the shards it holds (``segments.write_segment``), so a re-run merges each
shard's runs into a part once; outputs are written to a temp dir and
atomically renamed, so a killed run never leaves a half-written partition
(north rule: resumable from per-partition checkpoints with lineage +
throughput metrics; analog of the crawler's DB-status resume,
`CrawlerMainProcess.java:248-260`).

Skew: two-phase aggregation — the tokenize combiner bounds any term's
phase-1 row to one batch, and the merge (``segments.merge_segment_rows``,
shared with compaction and ``merge_indexes``) splits hot terms into
doc_id-contiguous output rows of ≤ ``compact_max_postings`` postings.
Sharding does not change the segments (tests/test_build.py
``test_multi_shard_equals_single_shard``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..index.segments import (
    SEGMENT_FILE,
    merge_input,
    merge_segment_rows,
    segment_info,
    write_segment,
)
from ..index.stats import (
    META_FILE,
    load_corpus_stats,
    load_index_meta,
    write_corpus_stats,
    write_index_meta,
)
from ..stages.tokenize import TokenizeStage

# turns per tokenize batch: a term's phase-1 run row holds at most one
# batch's postings of it
TOKENIZE_BATCH_SIZE = 1024


# --------------------------------------------------------------------------
# small utilities
# --------------------------------------------------------------------------

def _atomic_write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _atomic_rename_dir(tmp_dir: str, final_dir: str) -> None:
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)


def _shard_of(path: str) -> int:
    """Shard id of a path under ``runs/shard={s}/``."""
    return int(path.split("shard=", 1)[1].split(os.sep, 1)[0])


def _run_files(out_dir: str, part: int, skip=()) -> list[str]:
    """One part's run files, minus those of the shards in ``skip``."""
    return sorted(
        f for f in glob.glob(os.path.join(
            out_dir, "runs", "shard=*", f"part={part}", "*.parquet"))
        if ".tmp" not in f          # exclude crash-leftover temp dirs
        and _shard_of(f) not in skip)


def _run_parts(out_dir: str, shard_ids) -> list[int]:
    """Ids of the parts that received runs from any of ``shard_ids``."""
    return sorted({int(d.rsplit("=", 1)[1])
                   for sid in shard_ids
                   for d in glob.glob(os.path.join(
                       out_dir, "runs", f"shard={sid}", "part=*"))})


def _run_tokens(shard_dir: str) -> int:
    """Σ cf over one shard's runs: each token occurrence is counted in
    exactly one run row. One threaded scan of the single ``cf`` column."""
    import pyarrow.dataset as pads

    files = glob.glob(os.path.join(shard_dir, "**", "*.parquet"),
                      recursive=True)
    if not files:
        return 0
    t = pads.dataset(files).to_table(columns=["cf"])
    return int(pa.compute.sum(t["cf"]).as_py() or 0)


def discover_input_files(input_path: str | list[str]) -> list[str]:
    if isinstance(input_path, (list, tuple)):
        return sorted(input_path)
    if os.path.isdir(input_path):
        return sorted(glob.glob(os.path.join(input_path, "**", "*.parquet"),
                                recursive=True))
    return [input_path]


def shard_files(files: list[str], target_bytes: int) -> list[list[str]]:
    """Greedy size-based sharding; shard = unit of build checkpointing.

    At cluster scale, size shards so one shard's postings fit comfortably in
    the aggregate object store (the shard pipeline streams regardless; the
    bound matters for the runs/ directory fan-in per merge part)."""
    shards: list[list[str]] = []
    cur: list[str] = []
    cur_b = 0
    for f in files:
        cur.append(f)
        cur_b += os.path.getsize(f)
        if cur_b >= target_bytes:
            shards.append(cur)
            cur, cur_b = [], 0
    if cur:
        shards.append(cur)
    return shards


# --------------------------------------------------------------------------
# phase 1: shard -> compressed runs (the map/combine + shuffle-write)
# --------------------------------------------------------------------------

_TOKENIZE_SINGLETON: dict = {}


def _tokenize_task(batch: pa.Table, *, part_bits: int,
                   with_positions: bool,
                   remap: dict | None = None) -> pa.Table:
    """Task-form wrapper: one TokenizeStage instance per worker process."""
    key = (part_bits, with_positions,
           tuple(sorted(remap.items())) if remap else None)
    stage = _TOKENIZE_SINGLETON.get(key)
    if stage is None:
        stage = _TOKENIZE_SINGLETON[key] = TokenizeStage(
            part_bits=part_bits, with_positions=with_positions, remap=remap)
    return stage(batch)


def build_runs_for_shard(shard_id: int, files: list[str], out_dir: str,
                         cfg: IndexConfig, *,
                         remap: dict | None = None) -> dict:
    """Run phase 1 for one shard; returns the manifest dict (also written)."""
    import ray
    import ray.data as rd

    manifest_path = os.path.join(out_dir, "_manifest", f"shard-{shard_id}.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    t0 = time.perf_counter()
    n_read_blocks = max(2 * int(ray.cluster_resources().get("CPU", 4)),
                        len(files))
    cols = ["conv_id", "turn_idx", "text"]
    # role detection must inspect EVERY file: a shard mixing role-bearing
    # and role-less parquet would either fail the columns= read or silently
    # index part of the corpus as role 0 — refuse it explicitly
    with_role = ["role" in pq.ParquetFile(f).schema_arrow.names
                 for f in files]
    has_role = all(with_role)
    if any(with_role) and not has_role:
        bad = [f for f, w in zip(files, with_role) if not w]
        raise ValueError(
            f"shard {shard_id} mixes role-bearing and role-less parquet "
            f"files (role column missing from {bad[:3]}...); add the "
            "column or split the inputs")
    if has_role:
        cols.append("role")     # M6 role-scoped posting stats
    ds = rd.read_parquet(files, columns=cols,
                         override_num_blocks=n_read_blocks)
    n_turns = ds.count()  # parquet metadata count: no data scan
    if cfg.clean_html:
        from ..ops.htmlclean import clean_text_batch

        ds = ds.map_batches(clean_text_batch, batch_format="pyarrow",
                            zero_copy_batch=True)

    # Stateless Ray tasks over the warm worker pool: the analyzer's
    # stem/stop cache is module state shared per worker process, so the
    # actor-pool benefit (state amortization) comes for free while
    # scheduling stays elastic and pays no pool spin-up.
    runs = ds.map_batches(
        _tokenize_task,
        fn_kwargs=dict(part_bits=cfg.part_bits,
                       with_positions=cfg.with_positions,
                       remap=remap),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=TOKENIZE_BATCH_SIZE,
    )

    tmp = os.path.join(out_dir, "runs", f"shard={shard_id}.tmp")
    final = os.path.join(out_dir, "runs", f"shard={shard_id}")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    runs.write_parquet(tmp, partition_cols=["part"])
    _atomic_rename_dir(tmp, final)

    wall = time.perf_counter() - t0
    try:  # per-stage lineage from Ray's own executor stats (A12 metrics)
        stage_stats = runs.stats().split("\n\nDataset")[0][:4000]
    except Exception:
        stage_stats = None
    man = {
        "shard": shard_id,
        "files": files,
        "n_turns": int(n_turns),
        "n_tokens": _run_tokens(final),
        "has_role": has_role,
        "wall_s": round(wall, 3),
        "turns_per_sec": round(n_turns / wall, 1) if wall > 0 else None,
        "ray_stage_stats": stage_stats,
    }
    os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
    _atomic_write_json(manifest_path, man)
    return man


# --------------------------------------------------------------------------
# corpus stats (old stats + per-shard counts from the shard manifests)
# --------------------------------------------------------------------------

def compute_corpus_stats(out_dir: str, shard_mans: list[dict]) -> dict:
    """Add the shards of ``shard_mans`` that the index's stats do not
    count yet: N += n_turns, total_tokens += n_tokens; avgdl =
    total_tokens / N. Replaces `documentRepository.count()` + avg length
    (`IndexerService.java:1014-1020`). Idempotent: the stats file records
    the shards it counts."""
    stats = load_corpus_stats(out_dir)
    counted = set(stats["shards"])
    n_docs, total = stats["n_docs"], stats["total_tokens"]
    for m in shard_mans:
        if m["shard"] in counted:
            continue
        counted.add(m["shard"])
        n_docs += m["n_turns"]
        total += m["n_tokens"]
    if counted == set(stats["shards"]):
        return stats
    return write_corpus_stats(out_dir, n_docs, total, counted)


# --------------------------------------------------------------------------
# phase 2: per-part k-way merge (stateful actor pool)
# --------------------------------------------------------------------------

class MergeWorker:
    """Actor-pool stage: one ``__call__`` merges one doc-partition.

    Stateful per north rule ("per-partition segment files merged via stateful
    actor-pool k-way merge"): config + corpus stats load once per actor.
    Memory bound: one part's compressed postings (size_total / n_parts) —
    choose ``part_bits`` so this fits a worker heap at target scale.
    """

    def __init__(self, out_dir: str, cfg: IndexConfig):
        self.out_dir = out_dir
        self.cfg = cfg

    # -- core ---------------------------------------------------------------
    def merge_part(self, part: int, avgdl: float) -> dict:
        """Merge the part's runs from shards its segment does not hold
        yet into that segment (a segment row is already in run form:
        gap-coded doc ids with an absolute first value, same positions
        and roles framing), so the result equals a merge of all runs."""
        t0 = time.perf_counter()
        man_path = os.path.join(self.out_dir, "_manifest", f"part-{part}.json")
        seg_dir = os.path.join(self.out_dir, "segments", f"part={part}")
        seg_path = os.path.join(seg_dir, SEGMENT_FILE)
        info = segment_info(seg_path) if os.path.exists(seg_path) else None
        held = set(info["shards"]) if info else set()
        run_files = _run_files(self.out_dir, part, skip=held)
        if not run_files:
            # re-run after a crash between the segment and manifest writes:
            # the segment already holds every run; its manifest may be stale
            seg = pq.read_table(seg_path, columns=["term", "df"])
            return self._write_manifest(
                man_path, part, pa.compute.count_distinct(seg["term"]).as_py(),
                pa.compute.sum(seg["df"]).as_py() or 0, info["avgdl"], 0.0)

        import pyarrow.dataset as pads

        # single-threaded read: each merge actor owns one CPU; a threaded
        # arrow read pool per actor would thrash at pool_size x cpu threads
        inputs = [merge_input(pads.dataset(run_files))]
        if os.path.exists(seg_path):
            inputs.append(merge_input(pads.dataset(seg_path)))
        tbl = pa.concat_tables(inputs).sort_by("term")    # stable sort
        seg_tbl, n_terms, n_postings = merge_segment_rows(
            tbl, avgdl if avgdl > 0 else 1.0, self.cfg)
        shards = held | {_shard_of(f) for f in run_files}
        tmp_dir = seg_dir + ".tmp"
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        write_segment(seg_tbl, tmp_dir, avgdl, shards)
        _atomic_rename_dir(tmp_dir, seg_dir)
        return self._write_manifest(man_path, part, n_terms, n_postings,
                                    avgdl, time.perf_counter() - t0)

    @staticmethod
    def _write_manifest(man_path: str, part: int, n_terms: int,
                        n_postings: int, avgdl: float, wall: float) -> dict:
        man = {
            "part": part,
            "n_terms": int(n_terms),
            "n_postings": int(n_postings),
            "avgdl": avgdl,     # bound provenance: block_max was computed
            #                     with THIS avgdl (append bound-correction)
            "wall_s": round(wall, 3),
            "postings_per_sec": (round(n_postings / wall, 1)
                                 if wall > 0 else None),
        }
        os.makedirs(os.path.dirname(man_path), exist_ok=True)
        _atomic_write_json(man_path, man)
        return man


# --------------------------------------------------------------------------
# conv-hash collision handling (doc_id integrity)
# --------------------------------------------------------------------------

def resolve_conv_collisions(out_dir: str, max_rounds: int = 5,
                            append_from: int | None = None) -> dict:
    """Detect 43-bit conv-hash collisions and build the deterministic
    exception map {conv_id: overridden_hash} — the validation promised by
    `rayse.stages.doc_ids` (without it, colliding conversations would
    produce duplicate doc_ids that corrupt searchsorted probes and hydrate
    the wrong text; P(any collision) ≈ n²/2^44 ≈ 30% at 2.4M convs).

    Distributed shape: one groupby over the (already-built) conv_map's
    distinct (conv_hash, conv_id) rows; only COLLIDING groups reach the
    driver (expected size n²/2^44, e.g. ~57k entries at 1e9 convs). Within
    a group, the lexicographically-first conv keeps the hash; the rest get
    salted rehashes. New hashes are then validated against the whole corpus
    by a broadcast-set scan of the conv_map (repeat with a higher salt on
    the astronomically-unlikely secondary conflict). The result is written
    to ``_manifest/conv_remap.json`` (resume: loaded if present) and is a
    pure function of the distinct conv_id set — independent of sharding,
    batch boundaries and CPU count.

    ``append_from``: when appending (new shard ids >= append_from), hashes
    already minted into the index are FROZEN — the existing remap is kept
    verbatim, and within a colliding group old conversations take
    precedence over new ones regardless of lexicographic order (an old
    conv's postings must never move)."""
    import ray
    import ray.data as rd

    from ..stages.doc_ids import _CONV_MASK, fnv1a64

    remap_path = os.path.join(out_dir, "_manifest", "conv_remap.json")
    base_remap: dict[str, int] = {}
    if os.path.exists(remap_path):
        with open(remap_path) as f:
            loaded = json.load(f)
        if append_from is None:
            return loaded
        base_remap = loaded

    files = [f for f in glob.glob(os.path.join(
        out_dir, "conv_map", "shard=*", "*.parquet")) if ".tmp" not in f]

    # detection: colliding hashes + their conv_ids (vectorized, no
    # per-group Python). Two routes with identical semantics:
    # - small conv_map (compressed bytes under the threshold): one
    #   threaded driver-side read + numpy/pandas distinct — the two Ray
    #   shuffles cost ~3 s of fixed overhead at 120k-turn scale, dwarfing
    #   the microseconds of actual work
    # - large conv_map: distributed distinct-pair groupby + per-hash
    #   count (linear shuffles of (hash, conv) pairs only — never texts)
    DRIVER_BYTES_CAP = 256 << 20
    total_bytes = sum(os.path.getsize(f) for f in files)
    by_hash: dict[int, list] = {}
    if total_bytes <= DRIVER_BYTES_CAP:
        import pyarrow.dataset as pads

        # pairs only: conv_map rows carry per-batch n_turns partials, so
        # the same (hash, conv) appears in several rows — dedup the PAIR
        t = pads.dataset(files).to_table(columns=["conv_hash", "conv_id"])
        df = t.to_pandas().drop_duplicates()
        dup = df[df.duplicated("conv_hash", keep=False)]
        for h, conv in zip(dup["conv_hash"].tolist(),
                           dup["conv_id"].tolist()):
            by_hash.setdefault(int(h), []).append(conv)
        for h in by_hash:
            by_hash[h].sort()
        ds = rd.read_parquet(files)    # validation scan input (below)
    else:
        ds = rd.read_parquet(files)
        pairs = ds.groupby(["conv_hash", "conv_id"]).aggregate(
            rd.aggregate.Count())

        def hashes_only(batch: pa.Table) -> pa.Table:
            return pa.table({"conv_hash": batch["conv_hash"]})

        hash_counts = (pairs.map_batches(hashes_only,
                                         batch_format="pyarrow")
                       .groupby("conv_hash").aggregate(rd.aggregate.Count()))

        def colliding_hashes(batch: pa.Table) -> pa.Table:
            m = pa.compute.greater(batch["count()"], 1)
            return pa.table({"conv_hash": batch["conv_hash"].filter(m)})

        coll = {int(r["conv_hash"]) for r in hash_counts.map_batches(
            colliding_hashes, batch_format="pyarrow").take_all()}
        if coll:
            ref0 = ray.put(coll)

            def members(batch: pa.Table) -> pa.Table:
                want = ray.get(ref0)
                hs = batch["conv_hash"].to_pylist()
                cs = batch["conv_id"].to_pylist()
                keep = [i for i, h in enumerate(hs) if h in want]
                return pa.table({
                    "conv_hash": pa.array([hs[i] for i in keep],
                                          pa.uint64()),
                    "conv_id": pa.array([cs[i] for i in keep],
                                        pa.string()),
                })

            seen_members = set()
            for r in ds.map_batches(members,
                                    batch_format="pyarrow").take_all():
                key = (int(r["conv_hash"]), r["conv_id"])
                if key not in seen_members:
                    seen_members.add(key)
                    by_hash.setdefault(key[0], []).append(key[1])
            for h in by_hash:
                by_hash[h].sort()

    old_convs: set = set()
    if append_from is not None and by_hash:
        # which colliding convs pre-exist? one tiny filtered read over the
        # OLD conv_map shards (the colliding set is small by construction)
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        all_colliding = [c for convs in by_hash.values() for c in convs]
        old_files = [f for f in files
                     if int(f.split("shard=")[1].split(os.sep)[0])
                     < append_from]
        if old_files:
            t = pads.dataset(old_files).to_table(
                filter=pc.field("conv_id").isin(all_colliding))
            old_convs = set(t["conv_id"].to_pylist())

    remap: dict[str, int] = dict(base_remap)
    if by_hash:
        taken = set(by_hash) | set(base_remap.values())
        salts: dict[str, int] = {}

        def rehash(conv: str, start_salt: int) -> int:
            salt = start_salt
            while True:
                nh = fnv1a64(f"{conv}\x00{salt}") & _CONV_MASK
                if nh not in taken:
                    salts[conv] = salt
                    taken.add(nh)
                    return nh
                salt += 1

        for h in sorted(by_hash):
            members = by_hash[h]
            # old convs outrank new ones (frozen hashes); ties lexicographic
            members = (sorted(c for c in members if c in old_convs)
                       + sorted(c for c in members if c not in old_convs)
                       if append_from is not None else sorted(members))
            for conv in members[1:]:
                if conv not in remap:
                    remap[conv] = rehash(conv, 1)

        # global validation: no new hash may equal ANY other conv's hash
        frozen = set(base_remap)
        for _ in range(max_rounds):
            inv = {nh: c for c, nh in remap.items()}
            ref = ray.put(inv)

            def scan(batch: pa.Table) -> pa.Table:
                m = ray.get(ref)
                bad_h, bad_c = [], []
                for h, c in zip(batch["conv_hash"].to_pylist(),
                                batch["conv_id"].to_pylist()):
                    if h in m and m[h] != c:
                        bad_h.append(h)
                        bad_c.append(c)
                return pa.table({"h": pa.array(bad_h, pa.uint64()),
                                 "c": pa.array(bad_c, pa.string())})

            conflicts = {(int(r["h"]), r["c"]) for r in ds.map_batches(
                scan, batch_format="pyarrow").take_all()}
            if not conflicts:
                break
            for h, other in conflicts:
                if other in remap:
                    continue    # other's original hash is vacated — no clash
                conv = inv[h]
                if conv in frozen:
                    # an append must never move an already-minted hash: the
                    # CONFLICTING (necessarily new) conv is remapped instead
                    remap[other] = rehash(other, 1)
                else:
                    remap[conv] = rehash(conv, salts[conv] + 1)
        else:
            raise RuntimeError(
                f"conv-hash remap failed to converge in {max_rounds} rounds")

    os.makedirs(os.path.dirname(remap_path), exist_ok=True)
    _atomic_write_json(remap_path, remap)
    return remap


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

@dataclass
class BuildResult:
    out_dir: str
    n_docs: int
    total_tokens: int
    avgdl: float
    wall_s: float
    turns_per_sec: float
    shard_manifests: list = field(default_factory=list)
    part_manifests: list = field(default_factory=list)


def _merge_parts(out_dir: str, cfg: IndexConfig, parts: list[int],
                 avgdl: float, merge_concurrency: int | None) -> list[dict]:
    """Stateful actor-pool k-way merge (north rule): raw Ray actors with a
    dynamic work queue — the part list is fixed, ActorPool load-balances
    uneven parts. Created after phase 1 so actor spin-up (process fork +
    imports) does not compete with the tokenize scan for cores. Returns
    the parts' manifests in part order."""
    import ray
    from ray.util import ActorPool

    if not parts:
        return []
    if merge_concurrency is None:
        merge_concurrency = max(1, min(
            len(parts), int(ray.cluster_resources().get("CPU", 4))))
    RemoteMergeWorker = ray.remote(num_cpus=1)(MergeWorker)
    merge_actors = [RemoteMergeWorker.remote(out_dir, cfg)
                    for _ in range(merge_concurrency)]
    merge_pool = ActorPool(merge_actors)
    metrics = list(merge_pool.map_unordered(
        lambda a, p: a.merge_part.remote(p, avgdl), parts))
    for a in merge_actors:
        ray.kill(a)
    return sorted(metrics, key=lambda m: m["part"])


def _drop_runs(out_dir: str, shard_ids) -> None:
    """Delete merged shards' runs; ``runs/`` itself stays (staging)."""
    for sid in shard_ids:
        shutil.rmtree(os.path.join(out_dir, "runs", f"shard={sid}"),
                      ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)


def build_index(input_path: str | list[str], out_dir: str,
                cfg: IndexConfig | None = None, *,
                shard_target_bytes: int = 2 << 30,
                merge_concurrency: int | None = None) -> BuildResult:
    """End-to-end index build. Safe to re-run: finished shards/parts skip.
    Only parts that receive postings get a segment and a manifest; the
    shards' runs are deleted once merged. Raises ``ValueError`` when
    ``out_dir`` holds an index of another format version or config."""
    from .hydrate import build_conv_map

    cfg = cfg or IndexConfig()
    t0 = time.perf_counter()
    if os.path.exists(os.path.join(out_dir, META_FILE)):
        built = IndexConfig.from_meta(load_index_meta(out_dir))
        if built != cfg:
            raise ValueError(
                f"{out_dir} holds an index built with {built}, not {cfg}; "
                "build into an empty directory")
    else:
        # before any data: a re-run with another config is then refused.
        # No role data is claimed until every shard is known to carry it.
        os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
        write_index_meta(out_dir, {**cfg.to_meta(), "roles_real": False})

    files = discover_input_files(input_path)
    shards = shard_files(files, shard_target_bytes)
    # conv_map FIRST (cheap single-column scan): collision detection must
    # complete before any doc_id is minted by the tokenize stage
    for s_id, fl in enumerate(shards):
        build_conv_map(fl, out_dir, s_id)
    remap = resolve_conv_collisions(out_dir)
    shard_mans = [
        build_runs_for_shard(s, fl, out_dir, cfg, remap=remap)
        for s, fl in enumerate(shards)
    ]
    stats = compute_corpus_stats(out_dir, shard_mans)

    # per-index role-integrity flag: role queries are only sound when EVERY
    # shard carried real role data (a role-less shard's postings are all
    # code 0 and would silently vanish from role-scoped results)
    write_index_meta(out_dir, {
        **cfg.to_meta(),
        "roles_real": bool(shard_mans) and all(m["has_role"]
                                               for m in shard_mans)})

    shard_ids = [m["shard"] for m in shard_mans]
    _merge_parts(out_dir, cfg, _run_parts(out_dir, shard_ids),
                 stats["avgdl"], merge_concurrency)
    _drop_runs(out_dir, shard_ids)
    # every part with postings, also those a resumed run did not re-merge
    from ..index.reader import part_manifests

    metrics = [m for _, m in sorted(part_manifests(out_dir).items())]

    wall = time.perf_counter() - t0
    n_docs = stats["n_docs"]
    result = BuildResult(
        out_dir=out_dir,
        n_docs=n_docs,
        total_tokens=stats["total_tokens"],
        avgdl=stats["avgdl"],
        wall_s=round(wall, 3),
        turns_per_sec=round(n_docs / wall, 1) if wall > 0 else 0.0,
        shard_manifests=shard_mans,
        part_manifests=metrics,
    )
    _atomic_write_json(os.path.join(out_dir, "metrics.json"), {
        "n_docs": n_docs,
        "total_tokens": stats["total_tokens"],
        "wall_s": result.wall_s,
        "turns_per_sec": result.turns_per_sec,
        "shards": shard_mans,
        "parts": metrics,
    })
    return result


def append_index(out_dir: str, new_input: str | list[str], *,
                 shard_target_bytes: int = 2 << 30,
                 merge_concurrency: int | None = None) -> BuildResult:
    """Incrementally index a GROWN corpus into an existing index — the
    re-crawl/re-index path the reference gets from DB upserts
    (`IndexerService.java:58-68`, resume `CrawlerMainProcess.java:248-260`)
    without a full rebuild:

    - only the NEW files are tokenized (new shard ids continue the old
      sequence; finished shards skip via their manifests)
    - corpus stats are the old ``corpus_stats.json`` plus the new shards'
      turns and tokens, so any index of this format version works as the
      base: a build, a ``compact_index`` or ``merge_indexes`` output
    - only parts that received new runs re-merge — their segment plus the
      new runs — with the NEW corpus avgdl; their manifests record it
    - untouched parts keep their segments verbatim; their block_max was
      computed under the old avgdl, so the reader scales those bounds by
      max(1, avgdl_now/avgdl_then) — pruning stays EXACT, and scoring is
      exact regardless (raw tf/dl stored; avgdl applied at query time)
    - already-minted conv hashes are frozen: collision resolution runs
      append-aware (new colliding convs are re-salted, old ones never move)

    Equivalence with a from-scratch build over the union corpus (same
    shard boundaries): byte-identical segments for every re-merged part,
    byte-identical except block_max for untouched parts, rank-identical
    queries — pinned by tests/test_append.py. Safe to re-run after a
    crash: stats and segments record the shards they hold."""
    from .hydrate import build_conv_map

    t0 = time.perf_counter()
    meta = load_index_meta(out_dir)
    # record which shards the stats count before any new shard exists, so
    # that a re-run after a crash cannot count a new shard as an old one
    old_stats = load_corpus_stats(out_dir)
    write_corpus_stats(out_dir, old_stats["n_docs"],
                       old_stats["total_tokens"], old_stats["shards"])
    cfg = IndexConfig.from_meta(meta)

    old_ids = []
    known_inputs: dict[tuple, int] = {}   # file-set -> existing shard id
    for p in glob.glob(os.path.join(out_dir, "_manifest", "shard-*.json")):
        with open(p) as f:
            m = json.load(f)
        old_ids.append(int(m["shard"]))
        known_inputs[tuple(m["files"])] = int(m["shard"])
    # compacted and merged indexes carry no shard manifests: their stats
    # name the shard ids already taken
    next_id = max(old_ids + old_stats["shards"], default=-1) + 1

    files = discover_input_files(new_input)
    # idempotence: a shard whose exact file list was already indexed reuses
    # its id (re-running append with the same input is a no-op, and a
    # crashed append resumes instead of duplicating documents)
    shard_ids: list[int] = []
    new_shards = shard_files(files, shard_target_bytes)
    for fl in new_shards:
        sid = known_inputs.get(tuple(fl))
        if sid is None:
            sid = next_id
            next_id += 1
        shard_ids.append(sid)
    first_new = min((sid for sid in shard_ids if sid not in old_ids),
                    default=next_id)

    for sid, fl in zip(shard_ids, new_shards):
        build_conv_map(fl, out_dir, sid)
    remap = resolve_conv_collisions(out_dir, append_from=first_new)

    new_mans = [
        build_runs_for_shard(sid, fl, out_dir, cfg, remap=remap)
        for sid, fl in zip(shard_ids, new_shards)
    ]
    stats = compute_corpus_stats(out_dir, new_mans)

    # role-integrity after append: role-less new shards add code-0
    # postings, so role queries are sound only while every shard had roles
    meta["roles_real"] = meta["roles_real"] and all(
        m["has_role"] for m in new_mans)
    write_index_meta(out_dir, meta)

    # parts touched by any new shard re-merge with the new avgdl; a part
    # whose segment already holds the new runs (crash re-run) skips
    to_merge = _run_parts(out_dir, shard_ids)
    metrics = _merge_parts(out_dir, cfg, to_merge, stats["avgdl"],
                           merge_concurrency)
    _drop_runs(out_dir, shard_ids)

    wall = time.perf_counter() - t0
    n_new = sum(m["n_turns"] for m in new_mans)
    result = BuildResult(
        out_dir=out_dir,
        n_docs=stats["n_docs"],
        total_tokens=stats["total_tokens"],
        avgdl=stats["avgdl"],
        wall_s=round(wall, 3),
        turns_per_sec=round(n_new / wall, 1) if wall > 0 else 0.0,
        shard_manifests=new_mans,
        part_manifests=metrics,
    )
    _atomic_write_json(os.path.join(out_dir, "metrics.json"), {
        "n_docs": stats["n_docs"],
        "total_tokens": stats["total_tokens"],
        "appended_turns": n_new,
        "remerged_parts": len(to_merge),
        "wall_s": result.wall_s,
        "turns_per_sec": result.turns_per_sec,
        "shards": new_mans,
        "parts": metrics,
    })
    return result
