"""Correctness checks against computations made apart from the program.

Each check returns a list of problems (empty when the answer is right), so
a run can report every wrong answer rather than stop at the first. The
references are the brute-force ``OracleIndex`` of ``tests/oracle.py``,
built from the run's own Parquet inputs, and the ground truth the corpus
generator plants.
"""

from __future__ import annotations

import numpy as np

from rayse.corpus.generator import PHRASES, CorpusSpec
from rayse.query.parser import IMPORTANT_TERMS, analyze_query, parse_query
from rayse.stages.doc_ids import TURN_BITS, conv_hash, doc_id_of

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_order(docs, scores, k: int) -> list[str]:
    """At most ``k`` results, ordered by (score desc, doc_id asc)."""
    docs = [int(d) for d in docs]
    scores = [float(s) for s in scores]
    out = []
    if len(docs) != len(scores):
        out.append(f"{len(docs)} docs but {len(scores)} scores")
    if len(docs) > k:
        out.append(f"{len(docs)} results for k={k}")
    if len(set(docs)) != len(docs):
        out.append("a doc is returned twice")
    for i in range(min(len(docs), len(scores)) - 1):
        if (-scores[i], docs[i]) >= (-scores[i + 1], docs[i + 1]):
            out.append(f"results {i} and {i + 1} are out of order")
            break
    return out


def oracle_ranking(oracle, query: str, mode: str) -> dict[int, float]:
    """Every matching doc with its oracle score (not cut to k)."""
    docs, scores = oracle.search(query, k=1 << 30, mode=mode)
    return dict(zip(docs, scores))


def check_topk(docs, scores, full: dict[int, float], k: int) -> list[str]:
    """``docs`` is a top-``k`` of ``full``: the right number of results,
    each scored as the oracle scores it, and no left-out doc scoring above
    the lowest returned one. Exact score ties may resolve either way only
    through doc_id order, which ``check_order`` pins."""
    out = []
    want = min(k, len(full))
    if len(docs) != want:
        out.append(f"{len(docs)} results, oracle has {want}")
    for d, s in zip(docs, scores):
        ref = full.get(int(d))
        if ref is None:
            out.append(f"doc {int(d)} does not match the query")
        elif not _close(float(s), ref):
            out.append(f"doc {int(d)} scored {float(s)!r}, oracle {ref!r}")
    if len(docs) and len(docs) == want:
        floor = min(float(s) for s in scores)
        returned = {int(d) for d in docs}
        for d, ref in full.items():
            if d not in returned and ref > floor and not _close(ref, floor):
                out.append(f"doc {d} (oracle {ref!r}) left out above "
                           f"returned score {floor!r}")
                break
    return out


def check_source(docs, phrase_docs, source, k: int) -> list[str]:
    """A phrase cut verbatim from a turn matches that turn: the turn is in
    the oracle's phrase matches, and in the answer when it holds fewer
    than ``k`` results."""
    d = doc_id_of(*source)
    out = []
    if d not in set(phrase_docs):
        out.append(f"turn {source} does not match a phrase cut from it")
    if len(docs) < k and d not in {int(x) for x in docs}:
        out.append(f"turn {source} missing from a {len(docs)}-result answer")
    return out


def check_same(a, b) -> list[str]:
    """Two answers to one query agree (serve against engine)."""
    (da, sa), (db, sb) = a, b
    if [int(x) for x in da] != [int(x) for x in db]:
        return ["answers hold different docs"]
    if any(not _close(float(x), float(y)) for x, y in zip(sa, sb)):
        return ["answers score the same docs differently"]
    return []


def check_none_deleted(docs, deleted_convs) -> list[str]:
    """No returned doc belongs to a deleted conversation."""
    gone = {conv_hash(c) for c in deleted_convs}
    hit = sorted({int(d) >> TURN_BITS for d in docs} & gone)
    return [f"{len(hit)} deleted conversation(s) returned"] if hit else []


def probe_words(oracle, table, convs) -> dict[str, str]:
    """For each conversation its rarest word: the raw token of its turns
    whose single analyzed term has the lowest oracle df (ties: the smaller
    term). A term query for it finds that conversation and few others."""
    want = set(convs)
    best: dict[str, tuple] = {}
    for c, text in zip(table["conv_id"].to_pylist(),
                       table["text"].to_pylist()):
        if c not in want:
            continue
        for tok in text.split(" "):
            terms = analyze_query(tok)
            if len(terms) != 1 or tok in IMPORTANT_TERMS:
                continue
            key = (oracle.df(terms[0]), terms[0], tok)
            if key[0] and (c not in best or key < best[c]):
                best[c] = key
    return {c: best[c][2] for c in convs}


def check_probes_find(search, probes: dict[str, str]) -> list[str]:
    """Each probe word finds a turn of its conversation; ``search(query)``
    returns every matching doc id."""
    out = []
    for conv, word in probes.items():
        if conv_hash(conv) not in {int(d) >> TURN_BITS for d in search(word)}:
            out.append(f"probe {word!r} does not find {conv}")
    return out


def check_deleted_gone(search, probes: dict[str, str], deleted) -> list[str]:
    """No probe of a deleted conversation returns any deleted conversation;
    ``search(query)`` returns every matching doc id, not just a top k."""
    out = []
    for conv in deleted:
        found = check_none_deleted(search(probes[conv]), deleted)
        out += [f"probe {probes[conv]!r} of {conv}: {p}" for p in found]
    return out


def check_count(name: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{name}: {got}, inputs give {want}"]


def check_plants(search, n_convs: int) -> list[str]:
    """The generator's planted phrases and rare terms
    (``CorpusSpec.phrase_plants`` / ``rare_plants``) are found where they
    were planted; ``search(query, k)`` returns the doc ids."""
    out = []
    planted: dict[str, set] = {}
    for (conv, turn), phrase in CorpusSpec.phrase_plants(n_convs).items():
        planted.setdefault(phrase, set()).add(doc_id_of(conv, turn))
    for phrase in PHRASES:
        want = planted.get(phrase, set())
        got = {int(d) for d in search(f'"{phrase}"', 1 << 20)}
        if not want <= got:
            out.append(f"planted phrase {phrase!r}: {len(want - got)} "
                       "planted turn(s) not found")
    for term, where in CorpusSpec.rare_plants(n_convs).items():
        want = {doc_id_of(c, t) for c, t in where}
        got = {int(d) for d in search(term, 1 << 20)}
        if got != want:
            out.append(f"rare term {term!r}: {len(got)} docs, "
                       f"planted in {len(want)}")
    return out


def phrase_docs_of(oracle, query: str) -> list[int]:
    """Oracle phrase matches of a quoted-phrase query."""
    return oracle.phrase_docs(list(parse_query(query).phrase))


def digest(answers) -> str:
    """Order-sensitive fingerprint of a list of (docs, scores) answers."""
    import hashlib

    h = hashlib.sha256()
    for docs, scores in answers:
        h.update(np.asarray(docs, dtype=np.uint64).tobytes())
        h.update(np.round(np.asarray(scores, dtype=np.float64), 9).tobytes())
    return h.hexdigest()[:16]
