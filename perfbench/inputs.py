"""Seeded benchmark inputs: transcript corpus, query stream, ingest batches.

Everything here depends only on ``--seed`` and the fixed constants below, so
the same seed always yields the same corpus, queries and ingest batches.
The program under test receives only these generated inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rayse.analyzer import tokenize
from rayse.corpus.generator import (PROG_TOKENS, TRANSCRIPTS_SCHEMA,
                                    CorpusSpec, generate_block)
from rayse.query.parser import IMPORTANT_TERMS, analyze_phrase

K = 10

# One round of the query stream stands in, class by class, for the 40
# reference queries of tests/queries.json (the set bench.py times), each
# replaced by a seeded query of the same shape:
#   term      lines 1-10   one word
#   or, and   lines 11-20  2-4 words; the file has no mode, so half of
#                          them go in AND mode
#   phrase    lines 21-25  a phrase that occurs in a turn
#   miss      lines 26-28  a query that matches nothing
#   bool      lines 29-34  "p1" AND|OR|NOT "p2"
#   stop      lines 35, 37 stopwords, with or without one word
#   kept      line 36      a kept word (un, us, vs) of the parser
#   compound  lines 38-40  programming tokens with '.', '/' or operators
# Every round holds the same classes in the same numbers, so the share of
# failed queries is the same in every run whatever its number of rounds.
ROUND = (("term", 10), ("or", 5), ("and", 5), ("phrase", 5), ("miss", 3),
         ("bool", 6), ("stop", 2), ("kept", 1), ("compound", 3))
ROUND_SIZE = sum(n for _, n in ROUND)

# The "kept" class: phrases holding one of the words the query parser keeps
# but the index drops as stopwords. They come from fixed conversations that
# do not depend on the seed, and today they return nothing.
KEPT_WORDS = ("un", "us", "vs")
PINNED_SEED = 1_700_000
PINNED_CONVS = 40
PINNED_TURNS = 4
PINNED_SITES = 8            # kept-word sites per pinned turn

# Raw tokens a phrase cut must avoid: parser operators (they would be read
# as a boolean operator even inside quotes), the parser's kept words, and
# compound tokens (their sub-token expansion depends on earlier text).
_OPERATOR_WORDS = frozenset({"and", "or", "not"})


def pinned_table() -> pa.Table:
    """Fixed conversations ``pin-NNNN`` whose turns hold kept words between
    content words; identical for every seed."""
    spec = CorpusSpec(PINNED_SEED)
    rng = np.random.default_rng(PINNED_SEED)
    rows = {n: [] for n in TRANSCRIPTS_SCHEMA.names}
    for c in range(PINNED_CONVS):
        for t in range(PINNED_TURNS):
            words = []
            for s in range(PINNED_SITES):
                a, b = rng.choice(spec.content, size=2, p=spec.zipf_p)
                words += [str(a), KEPT_WORDS[(c + t + s) % 3], str(b),
                          str(rng.choice(spec.stop))]
            rows["conv_id"].append("pin-%04d" % c)
            rows["turn_idx"].append(t)
            rows["role"].append("user")
            rows["text"].append(" ".join(words))
            rows["tool"].append("")
            rows["ts"].append(1_600_000_000_000_000 + c * 3_600_000_000
                              + t * 30_000_000)
    return pa.table({n: pa.array(v, TRANSCRIPTS_SCHEMA.field(n).type)
                     for n, v in rows.items()}, schema=TRANSCRIPTS_SCHEMA)


def pinned_phrases() -> list[tuple[str, str, int]]:
    """(phrase, conv_id, turn_idx): each kept-word site of the pinned
    turns, cut verbatim as ``content kept content``; distinct."""
    tbl = pinned_table()
    out, seen = [], set()
    for conv, turn, text in zip(tbl["conv_id"].to_pylist(),
                                tbl["turn_idx"].to_pylist(),
                                tbl["text"].to_pylist()):
        toks = text.split(" ")
        for i in range(1, len(toks) - 1, 4):
            p = " ".join(toks[i - 1:i + 2])
            if p not in seen:
                seen.add(p)
                out.append((p, conv, turn))
    return out


def write_corpus(out_dir: str, seed: int, n_convs: int,
                 n_files: int = 4) -> pa.Table:
    """Seeded conversations ``[0, n_convs)`` plus the pinned ones, as
    Parquet files under ``out_dir``; returns the same rows as one table."""
    os.makedirs(out_dir)
    step = math.ceil(n_convs / n_files)
    tables = []
    for i, s in enumerate(range(0, n_convs, step)):
        t = generate_block(s, min(s + step, n_convs), seed)
        pq.write_table(t, os.path.join(out_dir, f"part-{i:03d}.parquet"))
        tables.append(t)
    pin = pinned_table()
    pq.write_table(pin, os.path.join(out_dir, "pinned.parquet"))
    tables.append(pin)
    return pa.concat_tables(tables)


def marker(j: int) -> str:
    """A token that occurs once in the whole corpus: the probe for the
    ``j``-th appended conversation."""
    return f"qzprobe{j}x"


def ingest_batch(seed: int, first_conv: int, n_convs: int) -> pa.Table:
    """New conversations to append; turn 0 of the ``j``-th carries
    ``marker(j)``."""
    tbl = generate_block(first_conv, first_conv + n_convs, seed)
    convs = tbl["conv_id"].to_pylist()
    texts = tbl["text"].to_pylist()
    order = {c: j for j, c in enumerate(dict.fromkeys(convs))}
    for i, (c, t) in enumerate(zip(convs, tbl["turn_idx"].to_pylist())):
        if t == 0:
            texts[i] = f"{texts[i]} {marker(order[c])}"
    return tbl.set_column(tbl.schema.get_field_index("text"), "text",
                          pa.array(texts, pa.string()))


@dataclass(frozen=True)
class Query:
    cls: str
    text: str
    mode: str = "or"
    source: tuple | None = None     # (conv_id, turn_idx) a phrase was cut from


class QueryStream:
    """Distinct queries in rounds of ``ROUND``; round ``r`` is the same for
    the same seed and corpus. Words are Zipf-drawn from the corpus
    vocabulary, so later queries share terms with earlier ones but never
    repeat a whole query."""

    def __init__(self, seed: int, corpus: pa.Table):
        self.seed = seed
        spec = CorpusSpec(seed)
        self.words = spec.content
        self.p = spec.zipf_p
        self.stop = [w for w in spec.stop if w not in IMPORTANT_TERMS]
        seeded = corpus.filter(pa.compute.invert(pa.compute.starts_with(
            corpus["conv_id"], "pin-")))
        self.convs = seeded["conv_id"].to_pylist()
        self.turns = seeded["turn_idx"].to_pylist()
        self.texts = seeded["text"].to_pylist()
        self.pinned = pinned_phrases()
        self.seen: set[str] = set()
        self.rounds: list[list[Query]] = []

    def round(self, r: int) -> list[Query]:
        while len(self.rounds) <= r:
            self.rounds.append(self._make(len(self.rounds)))
        return self.rounds[r]

    # -- generation -----------------------------------------------------------
    def _fresh(self, make) -> str:
        for _ in range(1000):
            q = make()
            if q not in self.seen:
                self.seen.add(q)
                return q
        raise RuntimeError("query stream ran out of distinct queries")

    def _zipf(self, rng, n: int) -> str:
        return " ".join(str(w) for w in rng.choice(self.words, size=n,
                                                   p=self.p, replace=False))

    def _cut(self, rng, i: int | None = None):
        """A verbatim 2-4 token run of a seeded turn whose analyzed form has
        at least two terms; returns (phrase, row index)."""
        for _ in range(1000):
            row = int(rng.integers(len(self.texts))) if i is None else i
            toks = self.texts[row].split(" ")
            n = int(rng.integers(2, 5))
            if len(toks) < n:
                continue
            s = int(rng.integers(len(toks) - n + 1))
            cut = toks[s:s + n]
            if any("." in t or "/" in t or t in _OPERATOR_WORDS
                   or set(tokenize(t)) & IMPORTANT_TERMS for t in cut):
                continue
            phrase = " ".join(cut)
            if len(analyze_phrase(phrase)) >= 2:
                return phrase, row
        raise RuntimeError("no phrase could be cut from the corpus")

    def _make(self, r: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, r])
        out: list[Query] = []
        for cls, n in ROUND:
            for i in range(n):
                out.append(self._one(cls, rng, r, i))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def _one(self, cls: str, rng, r: int, i: int) -> Query:
        if cls == "term":
            return Query(cls, self._fresh(lambda: self._zipf(rng, 1)))
        if cls == "or":
            return Query(cls, self._fresh(
                lambda: self._zipf(rng, int(rng.integers(2, 5)))))
        if cls == "and":
            return Query(cls, self._fresh(
                lambda: self._zipf(rng, int(rng.integers(2, 4)))), "and")
        if cls == "miss":
            return Query(cls, self._fresh(lambda: " ".join(
                "qzmiss%d" % rng.integers(1 << 40)
                for _ in range(int(rng.integers(1, 3))))))
        if cls == "phrase":
            src = {}

            def make():
                p, row = self._cut(rng)
                src["row"] = row
                return f'"{p}"'
            text = self._fresh(make)
            row = src["row"]
            return Query(cls, text, source=(self.convs[row], self.turns[row]))
        if cls == "bool":
            op = ("AND", "OR", "NOT")[int(rng.integers(3))]

            def make():
                left, row = self._cut(rng)
                # AND cuts both sides from one turn, so it usually matches
                right, _ = self._cut(rng, row if op == "AND" else None)
                return f'"{left}" {op} "{right}"'
            return Query(cls, self._fresh(make))
        if cls == "stop":
            # the first stop query of a round holds a word, the second not
            def make():
                words = [str(w) for w in rng.choice(
                    self.stop, size=int(rng.integers(2, 4)))]
                return " ".join(words + ([self._zipf(rng, 1)] if i == 0
                                         else []))
            return Query(cls, self._fresh(make))
        if cls == "compound":
            return Query(cls, self._fresh(lambda: " ".join(
                str(t) for t in rng.choice(PROG_TOKENS,
                                           size=int(rng.integers(1, 3)),
                                           replace=False))))
        if cls == "kept":
            phrase, conv, turn = self.pinned[r % len(self.pinned)]
            text = f'"{phrase}"'
            self.seen.add(text)
            return Query(cls, text, source=(conv, turn))
        raise ValueError(cls)
