"""Text analysis chain: tokenize → stopword/length filter → Porter stem.

Order and semantics mirror the reference per-element chain
(`Indexer/Service/IndexerService.java:188-190`):

    tokenize(text) → removeStopWords(words) → Stemming(words)

- ``removeStopWords`` (`PreIndexer.java:41-46`): drop every stopword
  occurrence, then drop null/empty/length <= 1 tokens. Both checks run on the
  *unstemmed* token.
- ``Stemming`` (`PreIndexer.java:165-178`): Porter-stem each survivor.
- Positions are the indices in the final filtered+stemmed stream
  (`IndexerService.java:192-198`).

``analyze`` memoizes the per-token (stop?, stem) decision in a module-level
dict — the token distribution is Zipfian, so the cache hit rate is ~1 after
warmup. In Ray stages this state lives once per worker process (actor pools
share it across batches via ``__init__``-time warmup).
"""

from __future__ import annotations

from typing import List, Optional

from .porter import porter_stem
from .stopwords import STOPWORDS
from .tokenizer import tokenize

__all__ = ["tokenize", "porter_stem", "STOPWORDS", "analyze", "analyze_ids",
           "term_string", "term_strings"]

# token -> stemmed token, or None if the token is filtered out
_CACHE: dict = {}
_CACHE_MAX = 2_000_000  # bound worker memory; reset wholesale if exceeded


def _decide(token: str) -> Optional[str]:
    if len(token) <= 1 or token in STOPWORDS:
        return None
    return porter_stem(token)


def analyze(text: str) -> List[str]:
    """Final stemmed token stream of one document/turn (positions = indices)."""
    cache = _CACHE
    if len(cache) > _CACHE_MAX:
        cache.clear()
    out: List[str] = []
    append = out.append
    for token in tokenize(text):
        try:
            stemmed = cache[token]
        except KeyError:
            stemmed = cache[token] = _decide(token)
        if stemmed is not None:
            append(stemmed)
    return out


# ---------------------------------------------------------------------------
# Interned-id variant — the index-build hot path. Per-worker-process state
# (append-only, vocab-bounded): raw token -> interned id of its stem (-1 if
# filtered), so the steady-state cost is ONE dict lookup per token. Ids are
# process-local and never serialized; stages translate back to strings via
# term_string()/term_strings() before emitting Arrow rows.
# ---------------------------------------------------------------------------

_ID_CACHE: dict = {}        # raw token -> id or -1
_ID_STRINGS: List[str] = []  # id -> stemmed term
_STEM_IDS: dict = {}        # stemmed term -> id


def analyze_ids(text: str) -> List[int]:
    """Stemmed token stream as interned ids (same stream as ``analyze``:
    ``[term_string(i) for i in analyze_ids(t)] == analyze(t)``)."""
    cache = _ID_CACHE
    if len(cache) > _CACHE_MAX:
        cache.clear()
    out: List[int] = []
    append = out.append
    for token in tokenize(text):
        tid = cache.get(token)
        if tid is None:
            stemmed = _decide(token)
            if stemmed is None:
                tid = -1
            else:
                tid = _STEM_IDS.get(stemmed)
                if tid is None:
                    tid = _STEM_IDS[stemmed] = len(_ID_STRINGS)
                    _ID_STRINGS.append(stemmed)
            cache[token] = tid
        if tid >= 0:
            append(tid)
    return out


def term_string(tid: int) -> str:
    return _ID_STRINGS[tid]


def term_strings(tids) -> List[str]:
    s = _ID_STRINGS
    return [s[i] for i in tids]
