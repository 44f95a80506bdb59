"""BM25 top-k query engine over merged segments.

Replaces the reference's PostgreSQL TF-IDF query layer
(`Query/QueryService.java:441-674`, `Ranker/RankerMainProcess/Ranker1.java:
305-575`) with vectorized scoring over decoded posting lists.

Canonical scoring contract (SURVEY.md D2, mirrored by tests/oracle.py):

    idf(t)   = ln((1+N)/(1+df_t)) + 1                  `IndexerService.java:966`
    tf(t,d)  = f*(k1+1) / (f + k1*(1-b+b*dl/avgdl))    `IndexerService.java:1060-1070`
    score(d) = Σ_t idf(t)·tf(t,d)   over matching query terms
    ties broken by ascending doc_id; float64 throughout.

Query algebra (`QueryService.java:254-340`, `ComplexPhraseSearching.java:
84-103`):
    regular      — disjunctive union of terms (every doc matching >=1 term)
    AND of A, B  — docs matching phrase A ∩ phrase B, score = s_A + s_B
    OR of A, B   — union, missing side contributes 0
    NOT of A, B  — A's docs minus B's docs, score = s_A
    phrase       — positional adjacency (`Ranker1.java:370-449` semantics:
                   word i of the phrase at position p0+i), scored as the sum
                   of the phrase terms' BM25 contributions.

Doc partitions are disjoint, so per-part top-k + merge == global top-k
(the distributed plan: per-part serving actors, driver k-way merge).
"""

from __future__ import annotations

import numpy as np

from ..config import BM25Params
from ..index.reader import IndexReader
from ..index.segments import DecodedPostings, bm25_tf
from .parser import ParsedQuery, parse_query

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def accumulate(reader, terms, idfs, avgdl: float, params: BM25Params,
               role_code: int | None = None,
               role_lut: np.ndarray | None = None):
    """Union-accumulate BM25 contributions of ``terms`` over merged
    posting lists (one vectorized pass per term).

    ``role_code`` restricts scoring to postings of that role (M6 field
    scope: "search only assistant turns" answered FROM THE INDEX, no
    hydration); ``role_lut`` is a 256-entry per-role score multiplier (A7
    importance analog, `IndexerService.java:263-331` — the reference's tag
    weight becomes the turn's role weight).

    Returns (doc_ids asc, scores, nmatch) where nmatch[i] = how many of the
    query terms doc i contains (drives AND and the >=50%-match fallback,
    `QueryService.java:595-670`)."""
    doc_arrs, score_arrs = [], []
    for t, idf in zip(terms, idfs):
        pl = reader.merged(t)
        if pl is None:
            continue
        contrib = idf * bm25_tf(pl.tfs, pl.dls, avgdl, params)
        d = pl.doc_ids
        if role_lut is not None:
            contrib = contrib * role_lut[pl.roles]
        if role_code is not None:
            m = pl.roles == role_code
            d, contrib = d[m], contrib[m]
        doc_arrs.append(d)
        score_arrs.append(contrib)
    if not doc_arrs:
        return _EMPTY_U64, _EMPTY_F64, np.empty(0, dtype=np.int64)
    all_docs = np.concatenate(doc_arrs)
    all_scores = np.concatenate(score_arrs)
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(scores, inv, all_scores)
    nmatch = np.bincount(inv, minlength=uniq.size)
    return uniq, scores, nmatch


def top_k(doc_ids: np.ndarray, scores: np.ndarray, k: int):
    """Exact top-k, score desc, tie-break ascending doc_id (SURVEY.md §4.5-6:
    pins the stable-sort behavior the reference gets from Java)."""
    n = doc_ids.size
    if n == 0:
        return _EMPTY_U64, _EMPTY_F64
    if n > 4 * k:
        # prune to candidates with score >= k-th best (keeps boundary ties so
        # the doc_id tie-break stays exact), then sort only the short head
        kth_best = -np.partition(-scores, k - 1)[k - 1]
        idx = np.flatnonzero(scores >= kth_best)
        doc_ids, scores = doc_ids[idx], scores[idx]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique arrays; binary-search probe when
    sizes are skewed (rare-term ∩ hot-term is the common phrase case)."""
    if a.size > b.size:
        a, b = b, a
    if b.size > 8 * a.size:
        j = np.searchsorted(b, a)
        j_c = np.minimum(j, b.size - 1)
        return a[b[j_c] == a]
    return np.intersect1d(a, b, assume_unique=True)


def _conjunction(reader, terms):
    """(posting lists of ``terms``, doc_ids holding every term,
    ascending), intersecting from the rarest list; no lists and no docs
    when a term is absent."""
    pls = []
    for t in terms:
        pl = reader.merged(t)
        if pl is None:
            return [], _EMPTY_U64
        pls.append(pl)
    if not pls:
        return pls, _EMPTY_U64
    by_df = sorted(pls, key=lambda pl: pl.doc_ids.size)
    cand = by_df[0].doc_ids
    for pl in by_df[1:]:
        if cand.size == 0:
            break
        cand = _intersect_sorted(cand, pl.doc_ids)
    return pls, cand


def _require_positions(reader) -> None:
    """Raise when the index holds no positions (built with
    ``IndexConfig(with_positions=False)``): a positional predicate there
    has nothing to check."""
    if not reader.meta["with_positions"]:
        raise ValueError(
            f"{reader.index_dir} was built with with_positions=False: "
            "phrase and proximity queries of two or more terms need "
            "positions; rebuild with positions")


def _occurrences(pl: DecodedPostings, cand: np.ndarray):
    """(candidate rank, position) of every occurrence of ``pl``'s term in
    the docs ``cand`` (each of which holds the term), decoded from those
    postings only."""
    pos, counts = pl.positions_at(np.searchsorted(pl.doc_ids, cand))
    return np.repeat(np.arange(cand.size, dtype=np.uint64), counts), pos


_SHIFT = np.uint64(32)
_MASK = np.uint64(0xFFFFFFFF)


def phrase_match(reader, phrase) -> np.ndarray:
    """doc_ids (ascending) containing the exact phrase
    (post-analyzer adjacency, `Ranker1.java:370-449`). A phrase that
    analyzes to no terms (all stopwords) matches nothing."""
    if len(phrase) > 1:
        _require_positions(reader)
    pls, cand = _conjunction(reader, phrase)
    if len(pls) < 2 or cand.size == 0:
        return cand
    # Vectorized adjacency over ALL candidates at once: encode each term's
    # occurrences as (candidate_rank << 32 | position - i) keys and chain
    # set intersections — a start position p survives iff term_i occurs at
    # p+i for every i (`Ranker1.java:370-449` semantics, no per-doc loop).
    start_keys = None
    for i, pl in enumerate(pls):
        ranks, pos = _occurrences(pl, cand)
        # underflow (pos < i) wraps to huge values that never intersect
        keys = (ranks << _SHIFT) | ((pos - np.uint64(i)) & _MASK)
        keys.sort()
        start_keys = keys if start_keys is None else _intersect_sorted(
            start_keys, keys)
        if start_keys.size == 0:
            return _EMPTY_U64
    hit_ranks = np.unique(start_keys >> _SHIFT).astype(np.int64)
    return cand[hit_ranks]


def sloppy_match(reader, terms, slop: int) -> np.ndarray:
    """doc_ids (ascending) where every unordered pair of the distinct
    query terms co-occurs within ``slop`` tokens — min over occurrence
    pairs of |p_a − p_b| ≤ slop in the analyzed position stream.

    The pairwise-window realization of Lucene's sloppy PhraseQuery
    (beyond reference — the reference has only exact adjacency,
    `Ranker1.java:370-449`, and the tiered proximity BONUS,
    `QueryService.java:1374-1445`; this is proximity as a match
    PREDICATE). For two terms it coincides with the minimal-window
    semantics; for 3+ the pairwise predicate is the documented variant
    (monotone in slop, exactly SQL-mirrorable as per-pair min-distance
    joins). Fully vectorized over all candidates: per term, occurrences
    pack as (candidate_rank << 32 | position) keys; per pair, each
    occurrence probes its two same-rank neighbors in the other term's
    sorted keys (the per-doc min |Δpos| is always at the insertion
    boundary), min-reduced per rank."""
    if len(terms) > 1:
        _require_positions(reader)
    pls, cand = _conjunction(reader, terms)
    if len(pls) < 2 or cand.size == 0:
        return cand
    keys = []
    for pl in pls:
        ranks, pos = _occurrences(pl, cand)
        kk = (ranks << _SHIFT) | (pos & _MASK)
        kk.sort()
        keys.append(kk)
    ok = np.ones(cand.size, dtype=bool)
    far = np.int64(1) << np.int64(40)
    for a in range(len(pls)):
        for b in range(a + 1, len(pls)):
            ka, kb = keys[a], keys[b]
            ra = (ka >> _SHIFT).astype(np.int64)
            pa_ = (ka & _MASK).astype(np.int64)
            best = np.full(cand.size, far, dtype=np.int64)
            j = np.searchsorted(kb, ka)
            for jj in (np.maximum(j - 1, 0),
                       np.minimum(j, kb.size - 1)):
                nb = kb[jj]
                same = (nb >> _SHIFT).astype(np.int64) == ra
                d = np.abs((nb & _MASK).astype(np.int64) - pa_)
                np.minimum.at(best, ra[same], d[same])
            ok &= best <= slop
            if not ok.any():
                return _EMPTY_U64
    return cand[ok]


def score_docs(reader, docs: np.ndarray, terms, idfs,
               avgdl: float, params: BM25Params,
               role_lut: np.ndarray | None = None) -> np.ndarray:
    """BM25 score of the given docs for the given terms (0 for absent);
    optional per-role score multiplier (A7 importance analog)."""
    scores = np.zeros(docs.size, dtype=np.float64)
    for t, idf in zip(terms, idfs):
        pl = reader.merged(t)
        if pl is None:
            continue
        j = np.searchsorted(pl.doc_ids, docs)
        j_c = np.minimum(j, pl.doc_ids.size - 1)
        present = pl.doc_ids[j_c] == docs
        if present.any():
            contrib = idf * bm25_tf(pl.tfs[j_c[present]],
                                    pl.dls[j_c[present]], avgdl, params)
            if role_lut is not None:
                contrib = contrib * role_lut[pl.roles[j_c[present]]]
            scores[present] += contrib
    return scores


class SearchEngine:
    """Single-process engine over a built index (tests / driver-side serving).

    The distributed variant (`rayse.query.serve.SearchCluster`) runs the
    same per-part functions inside per-part actors and merges top-k on the
    driver; both produce identical results because parts are doc-disjoint.
    """

    def __init__(self, index_dir: str, parts: list[int] | None = None,
                 idf_variant: str = "v2"):
        self.reader = IndexReader(index_dir, parts)
        self.params = BM25Params(**self.reader.meta["bm25"])
        # A4: "v2" = ln((1+N)/(1+df))+1 (canonical, `IndexerService.java:966`);
        # "v1" = log10(N/(df+1)) (`IndexerService.java:507`)
        self.idf_variant = idf_variant
        # distributed serving: an engine holding a SUBSET of parts must
        # score with GLOBAL df (idf is corpus-level); the driver injects it
        # (`rayse.query.serve.SearchCluster` gathers per-actor dfs first)
        self.global_df: dict[str, int] | None = None

    # -- retrieval primitives ----------------------------------------------
    def _df(self, term: str) -> int:
        if self.global_df is not None:
            return self.global_df.get(term, 0)
        return self.reader.df(term)

    def _idfs(self, terms) -> list[float]:
        n = self.reader.n_docs
        if self.idf_variant == "v1":
            return [float(np.log10(n / (self._df(t) + 1.0)))
                    for t in terms]
        return [float(np.log((1.0 + n) / (1.0 + self._df(t))) + 1.0)
                for t in terms]

    def regular(self, terms, k: int = 10):
        idfs = self._idfs(terms)
        d, s, _ = accumulate(self.reader, terms, idfs, self.reader.avgdl,
                             self.params)
        return top_k(d, s, k)

    # -- role-scoped retrieval (M6/A7) --------------------------------------
    @staticmethod
    def _role_lut(role_weights: dict | None) -> np.ndarray | None:
        """{role_name: weight} -> 256-entry multiplier LUT (unnamed roles
        keep weight 1)."""
        if role_weights is None:
            return None
        from ..index.segments import ROLE_CODES

        lut = np.ones(256, dtype=np.float64)
        for name, w in role_weights.items():
            code = 0 if name == "other" else ROLE_CODES[name]
            lut[code] = float(w)
        return lut

    def _role_of_docs(self, docs: np.ndarray, terms) -> np.ndarray:
        """Role codes of docs, probed from the given terms' posting lists
        (a turn has one role, so any containing term agrees). Every doc
        must appear in at least one term's postings — raises otherwise
        (an unguarded searchsorted would return a NEIGHBOR's role)."""
        if isinstance(terms, str):
            terms = [terms]
        out = np.zeros(docs.size, dtype=np.uint8)
        found = np.zeros(docs.size, dtype=bool)
        for t in terms:
            pl = self.reader.merged(t)
            if pl is None:
                continue
            j = np.searchsorted(pl.doc_ids, docs)
            j_c = np.minimum(j, pl.doc_ids.size - 1)
            hit = (pl.doc_ids[j_c] == docs) & ~found
            out[hit] = pl.roles[j_c[hit]]
            found |= hit
        if not found.all():
            raise ValueError("doc(s) absent from every probed term")
        return out

    def regular_role(self, terms, k: int = 10, role: str | None = None,
                     role_weights: dict | None = None):
        """Disjunctive BM25 restricted to one role and/or with per-role
        score boosts, answered from the index's per-posting role codes
        (M6 parity: `WordDocumentTag.java:8-43`; boost = A7 importance,
        `IndexerService.java:263-331`). idf/avgdl stay corpus-level, like
        the reference's global word stats. Exhaustive scoring path (the
        block-max bounds don't carry role weights)."""
        from ..index.segments import ROLE_CODES

        idfs = self._idfs(terms)
        code = ROLE_CODES[role] if role is not None else None
        d, s, _ = accumulate(self.reader, terms, idfs, self.reader.avgdl,
                             self.params, role_code=code,
                             role_lut=self._role_lut(role_weights))
        return top_k(d, s, k)

    def sloppy(self, phrase, k: int = 10, slop: int = 4):
        """Proximity-window retrieval (the sloppy-PhraseQuery analog):
        docs where every pair of the analyzed phrase's distinct terms
        co-occurs within ``slop`` tokens, scored by standard BM25 over
        those terms. ``slop=0`` still differs from exact phrase (order
        is free); exact adjacency is ``phrase``."""
        terms = list(dict.fromkeys(phrase))
        docs = sloppy_match(self.reader, terms, slop)
        if docs.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(terms)
        s = score_docs(self.reader, docs, terms, idfs, self.reader.avgdl,
                       self.params)
        return top_k(docs, s, k)

    def phrase_role(self, phrase, k: int = 10, role: str | None = None,
                    role_weights: dict | None = None):
        """Phrase match restricted to a role (post-filter on matched docs —
        role is a doc attribute) with optional per-role boost."""
        from ..index.segments import ROLE_CODES

        terms = list(dict.fromkeys(phrase))
        docs = phrase_match(self.reader, phrase)
        if docs.size and role is not None:
            docs = docs[self._role_of_docs(docs, phrase[0])
                        == ROLE_CODES[role]]
        if docs.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(terms)
        s = score_docs(self.reader, docs, terms, idfs, self.reader.avgdl,
                       self.params, role_lut=self._role_lut(role_weights))
        return top_k(docs, s, k)

    def conjunctive_role(self, terms, k: int = 10, role: str | None = None,
                         role_weights: dict | None = None):
        """Conjunctive (all-terms) search restricted to a role and/or with
        per-role boosts — J5 ∘ M6: rarest-first intersection, then a role
        post-filter on the candidate set (role is a doc attribute), then
        BM25 scoring with the optional per-role multiplier LUT."""
        from ..index.segments import ROLE_CODES

        _, cand = _conjunction(self.reader, terms)
        if cand.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        if role is not None:
            cand = cand[self._role_of_docs(cand, terms) == ROLE_CODES[role]]
            if cand.size == 0:
                return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(terms)
        s = score_docs(self.reader, cand, terms, idfs, self.reader.avgdl,
                       self.params, role_lut=self._role_lut(role_weights))
        return top_k(cand, s, k)

    def min_should_match(self, terms, m: int, k: int = 10):
        """Disjunctive BM25 keeping only docs that contain at least ``m``
        DISTINCT query terms (the Lucene ``minimum_should_match`` analog):
        the continuum between OR (m=1) and AND (m=len(terms)), answered
        from the union accumulate's free nmatch vector — no extra pass."""
        terms = list(dict.fromkeys(terms))
        idfs = self._idfs(terms)
        d, s, nm = accumulate(self.reader, terms, idfs, self.reader.avgdl,
                              self.params)
        keep = nm >= m
        return top_k(d[keep], s[keep], k)

    def conjunctive(self, terms, k: int = 10):
        """Docs containing ALL terms (J5 semantics:
        `WordDocumentMetricsRepository.java:32-38`): sorted-list
        intersection from the rarest list (not a union accumulate — the
        intersection is never larger than the smallest df)."""
        _, cand = _conjunction(self.reader, terms)
        if cand.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(terms)
        s = score_docs(self.reader, cand, terms, idfs, self.reader.avgdl,
                       self.params)
        return top_k(cand, s, k)

    def regular_capped(self, terms, k: int = 10, cap: int = 1000):
        """Reference-parity O3 behavior (`QueryService.java:448-450`): each
        term contributes only its first ``cap`` postings in docID order (the
        reference's LIMIT 1000 in DB order). OFF by default — D3 makes the
        canonical mode exact; this flag reproduces the reference's capped
        approximation deterministically (docID order, not DB row order)."""
        idfs = self._idfs(terms)
        avgdl = self.reader.avgdl
        doc_arrs, score_arrs = [], []
        for t, idf in zip(terms, idfs):
            pl = self.reader.merged(t)
            if pl is None:
                continue
            n = min(cap, pl.doc_ids.size)
            doc_arrs.append(pl.doc_ids[:n])
            score_arrs.append(idf * bm25_tf(pl.tfs[:n], pl.dls[:n], avgdl,
                                            self.params))
        if not doc_arrs:
            return _EMPTY_U64, _EMPTY_F64
        all_docs = np.concatenate(doc_arrs)
        uniq, inv = np.unique(all_docs, return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(score_arrs))
        return top_k(uniq, scores, k)

    def phrase(self, phrase, k: int = 10):
        terms = list(dict.fromkeys(phrase))
        docs = phrase_match(self.reader, phrase)
        if docs.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(terms)
        s = score_docs(self.reader, docs, terms, idfs, self.reader.avgdl,
                       self.params)
        return top_k(docs, s, k)

    def phrase_docs(self, phrase) -> np.ndarray:
        """All matching doc_ids (ascending)."""
        return phrase_match(self.reader, phrase)

    def boolean(self, op: str, left, right, k: int = 10):
        """SE1-SE3 set algebra over two phrases
        (`ComplexPhraseSearching.java:84-103`)."""
        ldocs = self.phrase_docs(left)
        rdocs = self.phrase_docs(right)
        if op == "AND":
            docs = np.intersect1d(ldocs, rdocs, assume_unique=True)
            score_terms = list(dict.fromkeys(list(left) + list(right)))
        elif op == "OR":
            docs = np.union1d(ldocs, rdocs)
            score_terms = list(dict.fromkeys(list(left) + list(right)))
        elif op == "NOT":
            docs = np.setdiff1d(ldocs, rdocs, assume_unique=True)
            score_terms = list(dict.fromkeys(left))
        else:
            raise ValueError(op)
        if docs.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        idfs = self._idfs(score_terms)
        s = score_docs(self.reader, docs, score_terms, idfs,
                       self.reader.avgdl, self.params)
        return top_k(docs, s, k)

    def boolean_complex(self, op: str, left, right, k: int = 10):
        """Reference-parity flag for the ComplexPhraseSearching scoring path
        (`ComplexPhraseSearching.java:67-246`), OFF by default (D2 keeps the
        canonical BM25 contract). Reproduced semantics, incl. the quirks:

        - result set: phrase-set algebra (our docs come from POSITIONAL
          match; the reference substring-verifies stemmed words against raw
          title/content — a web-page predicate, seam documented in SURVEY)
        - per doc: for EVERY phrase in query order (even the NOT-negated
          one — its words still score if present individually):
          Σ_words (freq/doc_len) * log10(N/df), then the RUNNING score
          doubles if the doc matches that phrase — so for "A" OP "B" a doc
          matching both scores 4*s_A + 2*s_B (order-dependent multiplier,
          reproduced verbatim)
        - title boost (3x) is vacuous for transcripts (no title field);
          doc_len is the analyzer token count (the reference uses raw
          whitespace count of the page content, unavailable post-index —
          documented deviation)
        - ties broken by ascending doc_id (the reference's HashSet order
          is unstable; D-decision pins determinism)."""
        ldocs = self.phrase_docs(left)
        rdocs = self.phrase_docs(right)
        if op == "AND":
            docs = np.intersect1d(ldocs, rdocs, assume_unique=True)
        elif op == "OR":
            docs = np.union1d(ldocs, rdocs)
        elif op == "NOT":
            docs = np.setdiff1d(ldocs, rdocs, assume_unique=True)
        else:
            raise ValueError(op)
        if docs.size == 0:
            return _EMPTY_U64, _EMPTY_F64
        n = self.reader.n_docs
        scores = np.zeros(docs.size, dtype=np.float64)
        for phrase, pdocs in ((left, ldocs), (right, rdocs)):
            for t in phrase:
                pl = self.reader.merged(t)
                if pl is None:
                    continue
                df = self._df(t)
                j = np.searchsorted(pl.doc_ids, docs)
                j_c = np.minimum(j, pl.doc_ids.size - 1)
                present = pl.doc_ids[j_c] == docs
                if present.any():
                    tf = (pl.tfs[j_c[present]].astype(np.float64)
                          / np.maximum(
                              pl.dls[j_c[present]].astype(np.float64), 1.0))
                    scores[present] += tf * np.log10(n / max(df, 1))
            hit = np.isin(docs, pdocs, assume_unique=True)
            scores[hit] *= 2.0
        return top_k(docs, scores, k)

    # -- entry --------------------------------------------------------------
    def search(self, query: str, k: int = 10, mode: str = "or",
               role: str | None = None, role_weights: dict | None = None):
        """Parse & route per the reference grammar (`QueryService.java:73-134`).

        ``mode`` applies to regular queries: "or" = disjunctive (default,
        matching the canonical contract), "and" = conjunctive (J5).
        ``role`` restricts results to turns of that role; ``role_weights``
        boosts per-role contributions (M6/A7)."""
        pq_ = parse_query(query)
        return self.execute(pq_, k, mode, role=role,
                            role_weights=role_weights)

    def execute(self, pq_: ParsedQuery, k: int = 10, mode: str = "or",
                role: str | None = None, role_weights: dict | None = None):
        if role is not None or role_weights is not None:
            if not self.reader.roles_real:
                raise ValueError(
                    "index contains postings without real role data "
                    "(built or appended from role-less input) — "
                    "role-scoped search would silently mis-scope")
            if pq_.kind == "phrase":
                return self.phrase_role(pq_.phrase, k, role, role_weights)
            if pq_.kind != "regular":
                raise ValueError(
                    "role-scoped search supports regular and phrase queries")
            if mode == "and":
                return self.conjunctive_role(pq_.terms, k, role, role_weights)
            if mode not in ("or", "blockmax", "exhaustive"):
                raise ValueError(
                    f"mode {mode!r} is not supported with role scoping "
                    "(role paths score exhaustively: or/and only)")
            return self.regular_role(pq_.terms, k, role, role_weights)
        if pq_.kind == "phrase":
            return self.phrase(pq_.phrase, k)
        if pq_.kind == "boolean":
            if mode == "complex":   # reference ComplexPhraseSearching parity
                return self.boolean_complex(pq_.op, pq_.left, pq_.right, k)
            return self.boolean(pq_.op, pq_.left, pq_.right, k)
        if not pq_.terms:
            return _EMPTY_U64, _EMPTY_F64
        if mode == "and":
            return self.conjunctive(pq_.terms, k)
        if mode == "fallback":
            from .postprocess import search_with_fallback

            d, s, _ = search_with_fallback(self, pq_.terms, k)
            return d, s
        if mode == "exhaustive":
            return self.regular(pq_.terms, k)
        if mode == "capped":
            return self.regular_capped(pq_.terms, k)
        # default ("or"/"blockmax"): block-max pruned scoring — EXACTLY the
        # exhaustive top-k (tests/test_wand.py) but skips low-upper-bound
        # postings, which dominates latency on hot terms at large N
        from .wand import regular_blockmax

        return regular_blockmax(self, pq_.terms, k)

    def search_hydrated(self, query: str, transcripts_path, k: int = 10,
                        mode: str = "or", page: int = 1,
                        page_size: int | None = None,
                        snippets: bool = True):
        """Full result pipeline: top-k -> hydrate (J4) -> snippets (M9) ->
        pagination (O2). Returns a list of result dicts."""
        from ..pipelines.hydrate import hydrate
        from .postprocess import (format_result_text, make_phrase_snippet,
                                  make_snippet, paginate)

        pq_ = parse_query(query)
        docs, scores = self.execute(pq_, k, mode)
        if docs.size == 0:
            return []
        tbl = hydrate(self.reader.index_dir, transcripts_path, docs)
        rows = []
        for i in range(tbl.num_rows):
            text = tbl["text"][i].as_py() or ""
            if snippets and pq_.kind == "phrase":
                snip = make_phrase_snippet(text, list(pq_.phrase))
            elif snippets:
                terms = (pq_.terms if pq_.kind == "regular"
                         else tuple(pq_.left) + tuple(pq_.right))
                snip = make_snippet(text, set(terms))
            else:
                snip = format_result_text(text)
            rows.append({
                "doc_id": int(docs[i]),
                "score": float(scores[i]),
                "conv_id": tbl["conv_id"][i].as_py(),
                "turn_idx": tbl["turn_idx"][i].as_py(),
                "role": tbl["role"][i].as_py(),
                "text": text,
                "snippet": snip,
            })
        if page_size is not None:
            rows = paginate(rows, page, page_size)
        return rows
