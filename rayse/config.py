"""Engine configuration — the single tuning surface (SURVEY.md §2.10).

Replaces the reference's scattered hardcoded knobs
(`application.properties`, tag-importance map `IndexerService.java:263-268`,
BM25 constants `IndexerService.java:1029-1030`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields


@dataclass(frozen=True)
class BM25Params:
    # `IndexerService.java:1029-1030` — k1 controls TF scaling, b length norm
    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class IndexConfig:
    # document partitioning: P = 2^part_bits doc partitions (top bits of the
    # conversation hash). Finer parts = smaller per-part merge working sets
    # (cache-resident sorts: measured 3x less merge CPU at 2^9 vs 2^5 on
    # 2.4M turns) and more merge/serve parallelism; size so one partition
    # fits a worker's cache-friendly zone and a serving actor's memory
    # (at 10^12 turns this wants 2^12+ together with more shards).
    part_bits: int = 8
    # skew bound: a term with more postings than this in one partition is
    # written as equal doc_id-contiguous segment rows of at most this many
    # (ascending salt), by the build and by compaction and index merge alike
    compact_max_postings: int = 1 << 20
    block_size: int = 128          # postings per block-max block
    with_positions: bool = True    # store positional postings (phrase queries)
    # M2 parity hook: run the reference HTML cleaning chain
    # (`PreIndexer.java:48-75`, rayse.ops.htmlclean) over `text` before
    # tokenizing — off for plain-text transcripts (cleaner is then a
    # whitespace-collapse identity the tokenizer already performs)
    clean_html: bool = False
    bm25: BM25Params = field(default_factory=BM25Params)

    def to_meta(self) -> dict:
        """The config's entries of an ``index_meta.json``."""
        return asdict(self)

    @classmethod
    def from_meta(cls, meta: dict) -> "IndexConfig":
        """The config an index was built with, from its
        ``index_meta.json``."""
        return cls(**{**{f.name: meta[f.name] for f in fields(cls)},
                      "bm25": BM25Params(**meta["bm25"])})
