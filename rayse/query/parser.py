"""Query parsing — the reference's query grammar, re-expressed.

Grammar (`Query/QueryService.java:50-51,73-134`; operator pre-normalization
`controllers/SearchController.java:105-107,191-193`):

- quoted phrases: ``"([^"]*)"``
- one binary operator between whitespace: ``AND | OR | NOT`` (case-
  normalized up front, as the controller does)
- routing: operator + >=2 quoted phrases -> complex boolean of phrases;
  fully-quoted single phrase -> phrase query; else regular terms.

Term processing (`QueryService.java:395-439`): stopwords dropped EXCEPT an
``importantTerms`` whitelist kept verbatim from the reference
(`QueryService.java:403-405`); every surviving token Porter-stemmed.
Canonical decisions (ours, mirrored by the test oracle):

- query text is tokenized with the SAME analyzer as indexing (incl.
  compound-token expansion) rather than bare whitespace split — a query
  token that tokenizes differently from indexing could never match.
- whitelist terms bypass the stopword AND the length<=1 filters but are
  still stemmed (stemming is idempotent on all nine whitelist words).
- duplicate query terms are deduplicated keeping first occurrence (the
  reference accumulates per-term doc lists in an insertion-ordered map
  keyed by term, which dedupes implicitly).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..analyzer import STOPWORDS, porter_stem, tokenize

# `QueryService.java:403-405`
IMPORTANT_TERMS = frozenset(
    {"vs", "war", "israel", "gaza", "iran", "us", "uk", "un", "eu"})

_PHRASE_RE = re.compile(r'"([^"]*)"')
_OP_RE = re.compile(r"\s+(AND|OR|NOT)\s+")
_OP_NORM_RE = re.compile(r"\s+(and|or|not)\s+", re.IGNORECASE)


def analyze_query(text: str) -> list[str]:
    """Index-analyzer chain with the whitelist carve-out; order-preserving
    dedup."""
    out: list[str] = []
    seen: set[str] = set()
    for tok in tokenize(text):
        if tok in IMPORTANT_TERMS:
            stemmed = porter_stem(tok)
        elif len(tok) <= 1 or tok in STOPWORDS:
            continue
        else:
            stemmed = porter_stem(tok)
        if stemmed not in seen:
            seen.add(stemmed)
            out.append(stemmed)
    return out


def analyze_phrase(text: str) -> list[str]:
    """Phrase terms keep order and adjacency: stopword removal shifts
    positions exactly as at index time (`IndexerService.java:192-198`), so
    the phrase's post-filter token sequence is what must appear adjacent."""
    out = []
    for tok in tokenize(text):
        if tok in IMPORTANT_TERMS:
            out.append(porter_stem(tok))
        elif len(tok) <= 1 or tok in STOPWORDS:
            continue
        else:
            out.append(porter_stem(tok))
    return out


@dataclass(frozen=True)
class ParsedQuery:
    kind: str                      # "regular" | "phrase" | "boolean"
    terms: tuple = ()              # regular: stemmed deduped terms
    phrase: tuple = ()             # phrase: stemmed phrase sequence
    op: str = ""                   # boolean: AND | OR | NOT
    left: tuple = ()               # boolean: left phrase sequence
    right: tuple = ()              # boolean: right phrase sequence
    raw: str = ""


def parse_query(query: str) -> ParsedQuery:
    q = _OP_NORM_RE.sub(lambda m: f" {m.group(1).upper()} ", query).strip()
    phrases = _PHRASE_RE.findall(q)
    # the operator is looked for outside the quoted phrases only: a
    # phrase's own "and"/"or"/"not" is phrase text, not an operator
    op_m = _OP_RE.search(_PHRASE_RE.sub('""', q))
    if op_m and len(phrases) >= 2:
        return ParsedQuery(
            kind="boolean", op=op_m.group(1),
            left=tuple(analyze_phrase(phrases[0])),
            right=tuple(analyze_phrase(phrases[1])),
            raw=query,
        )
    if len(phrases) == 1 and q.startswith('"') and q.endswith('"'):
        return ParsedQuery(kind="phrase",
                           phrase=tuple(analyze_phrase(phrases[0])), raw=query)
    # regular: strip any stray quotes, analyze the rest
    return ParsedQuery(kind="regular",
                       terms=tuple(analyze_query(q.replace('"', ' '))),
                       raw=query)
