"""Tests of the benchmark's own inputs, checks and tracing.

    python3 -m pytest perfbench/test_perfbench.py -q

Each check must pass a right answer and fail a perturbed one. The last
test builds a small index on a private one-CPU Ray and compares traced and
untraced answers with each other and with the oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from rayse.corpus.generator import generate_block  # noqa: E402
from rayse.stages.doc_ids import doc_id_of  # noqa: E402
from tests.oracle import OracleIndex  # noqa: E402

N_CONVS = 120
K = inputs.K


@pytest.fixture(scope="module")
def corpus():
    return pa.concat_tables([generate_block(0, N_CONVS, 7),
                             inputs.pinned_table()])


@pytest.fixture(scope="module")
def oracle(corpus):
    return OracleIndex(corpus)


@pytest.fixture(scope="module")
def stream(corpus):
    return inputs.QueryStream(7, corpus)


def _answer(oracle, q):
    docs, scores = oracle.search(q.text, K, q.mode)
    return list(docs), list(scores)


def _ranked(oracle, stream, min_len=K + 2):
    """A query whose oracle ranking holds more than k docs."""
    for r in range(5):
        for q in stream.round(r):
            full = checks.oracle_ranking(oracle, q.text, q.mode)
            if len(full) >= min_len:
                return q, full
    raise AssertionError("no query with a long ranking")


# -- inputs ---------------------------------------------------------------------

def test_stream_is_seeded_and_distinct(corpus, stream):
    again = inputs.QueryStream(7, corpus)
    other = inputs.QueryStream(8, corpus)
    rounds = [stream.round(r) for r in range(6)]
    assert rounds == [again.round(r) for r in range(6)]
    assert rounds[0] != other.round(0)
    texts = [q.text for rnd in rounds for q in rnd]
    assert len(texts) == len(set(texts))
    for rnd in rounds:
        assert len(rnd) == inputs.ROUND_SIZE
        assert sorted(q.cls for q in rnd) == sorted(
            c for c, n in inputs.ROUND for _ in range(n))


def test_kept_phrases_do_not_depend_on_seed(corpus):
    a = inputs.QueryStream(1, corpus).round(3)
    b = inputs.QueryStream(2, corpus).round(3)
    assert [q for q in a if q.cls == "kept"] == \
        [q for q in b if q.cls == "kept"]


def test_phrase_sources(oracle, stream):
    """Cut phrases match their turn; kept-word phrases do not (the fault
    they are there to count)."""
    for r in range(4):
        for q in stream.round(r):
            if q.source is None:
                continue
            found = checks.check_source(
                _answer(oracle, q)[0], checks.phrase_docs_of(oracle, q.text),
                q.source, K)
            assert bool(found) == (q.cls == "kept"), (q, found)


def test_ingest_batch_markers():
    tbl = inputs.ingest_batch(7, 500, 3)
    texts = [t for t, i in zip(tbl["text"].to_pylist(),
                               tbl["turn_idx"].to_pylist()) if i == 0]
    assert [t.rsplit(" ", 1)[1] for t in texts] == \
        [inputs.marker(j) for j in range(3)]


# -- checks pass right answers and fail perturbed ones --------------------------

def test_check_order(oracle, stream):
    q, _ = _ranked(oracle, stream)
    docs, scores = _answer(oracle, q)
    assert checks.check_order(docs, scores, K) == []
    assert checks.check_order(docs[::-1], scores[::-1], K)
    assert checks.check_order(docs + [docs[0]], scores + [scores[-1]], K + 1)
    assert checks.check_order(docs, scores, K - 1)
    tied = sorted(docs[:2], reverse=True) + docs[2:]     # tie, doc_id desc
    assert checks.check_order(tied, [scores[0]] * 2 + scores[2:], K)


def test_check_topk(oracle, stream):
    q, full = _ranked(oracle, stream)
    docs, scores = _answer(oracle, q)
    assert checks.check_topk(docs, scores, full, K) == []
    assert checks.check_topk(docs[:-1], scores[:-1], full, K)
    bumped = scores[:-1] + [scores[-1] * 1.001]
    assert checks.check_topk(docs, bumped, full, K)
    ranked = sorted(full, key=lambda d: (-full[d], d))
    low = ranked[-1]
    swapped = docs[:-1] + [low]
    assert checks.check_topk(swapped, scores[:-1] + [full[low]], full, K)
    assert checks.check_topk(docs[:-1] + [12345], scores, full, K)


def test_check_source(oracle, stream):
    q = next(q for q in stream.round(0) if q.cls == "phrase")
    docs = _answer(oracle, q)[0]
    pd = checks.phrase_docs_of(oracle, q.text)
    assert checks.check_source(docs, pd, q.source, K) == []
    wrong = (q.source[0], q.source[1] + 50)
    assert checks.check_source(docs, pd, wrong, K)


def test_check_same():
    a = ([1, 2, 3], [3.0, 2.0, 1.0])
    assert checks.check_same(a, ([1, 2, 3], [3.0, 2.0, 1.0])) == []
    assert checks.check_same(a, ([1, 3, 2], [3.0, 2.0, 1.0]))
    assert checks.check_same(a, ([1, 2], [3.0, 2.0]))
    assert checks.check_same(a, ([1, 2, 3], [3.0, 2.5, 1.0]))


def test_check_none_deleted():
    docs = [doc_id_of("conv-0000001", 0), doc_id_of("conv-0000002", 3)]
    assert checks.check_none_deleted(docs, ["conv-0000009"]) == []
    assert checks.check_none_deleted(docs, ["conv-0000002"])


def test_check_deleted_gone(corpus, oracle):
    """Probes find their conversations while they live; a conversation
    left undeleted makes the check fail."""
    import pyarrow.compute as pc

    victims = ["conv-0000005", "conv-0000040", "conv-0000099"]
    probes = checks.probe_words(oracle, corpus, victims)

    def without(convs):
        o = OracleIndex(corpus.filter(pc.invert(pc.is_in(
            corpus["conv_id"], pa.array(convs)))))
        return lambda q: o.search(q, 1 << 30)[0]

    def everything(q):
        return oracle.search(q, 1 << 30)[0]

    assert checks.check_probes_find(everything, probes) == []
    assert checks.check_deleted_gone(everything, probes, victims)
    assert checks.check_deleted_gone(without(victims[:2]), probes, victims)
    assert checks.check_deleted_gone(without(victims), probes, victims) == []
    assert checks.check_probes_find(without(victims), probes)


def test_query_classes_match_their_shape(stream):
    from rayse.query.parser import IMPORTANT_TERMS

    for r in range(4):
        for q in stream.round(r):
            if q.cls == "compound":
                assert any(c in q.text for c in "./+-=*[")
            if q.cls == "stop":
                assert not set(q.text.split()) & IMPORTANT_TERMS
            if q.cls in ("phrase", "bool", "kept"):
                assert q.text.startswith('"')
            assert (q.mode == "and") == (q.cls == "and")


def test_check_count(corpus):
    n = corpus.num_rows
    assert checks.check_count("turns", n, n) == []
    assert checks.check_count("turns", n - 1, n)


def test_check_plants(oracle):
    def search(q, k):
        return oracle.search(q, k)[0]
    assert checks.check_plants(search, N_CONVS) == []
    planted = doc_id_of("conv-0000003", 2)

    def drops_a_plant(q, k):
        return [d for d in search(q, k) if d != planted]
    assert checks.check_plants(drops_a_plant, N_CONVS)

    def extra_rare_hit(q, k):
        out = search(q, k)
        return out + [planted] if q.startswith("zzrare") and out else out
    assert checks.check_plants(extra_rare_hit, N_CONVS)


def test_digest_is_order_sensitive():
    a = [([1, 2], [2.0, 1.0]), ([3], [1.5])]
    assert checks.digest(a) == checks.digest([tuple(x) for x in a])
    assert checks.digest(a) != checks.digest(a[::-1])


# -- the command ----------------------------------------------------------------

def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "worker.py", "inputs.py", "checks.py", "tracing.py"):
        (bench / f).write_text(open(os.path.join(HERE, f)).read())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "query", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_stuck_run_is_stopped_and_names_its_layer(tmp_path, monkeypatch,
                                                  capsys):
    """A child that never returns is killed with its whole process group
    after the deadline; the run fails naming the layer it was in."""
    import run

    (tmp_path / "rayse").mkdir()
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "worker.py").write_text(
        "import os, subprocess, sys, time\n"
        "work = sys.argv[sys.argv.index('--work') + 1]\n"
        "open(os.path.join(work, 'layer'), 'w').write('query.serve (stub)')\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; "
        "time.sleep(600)'])\n"
        "time.sleep(600)\n")
    monkeypatch.setattr(run, "HERE", str(bench))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(run, "DEADLINE_BASE_S", 2)
    monkeypatch.setattr(run, "DEADLINE_PER_S", 1)
    code = run.main(["--workload", "query", "--seed", "1", "--seconds", "1"])
    err = capsys.readouterr()
    assert code != 0 and err.out == ""
    assert "stuck in layer query.serve (stub)" in err.err
    assert not os.listdir(tmp_path / ".bench_work")
    for _ in range(50):
        left = subprocess.run(["pgrep", "-f", "time.sleep\\(600\\)"],
                              capture_output=True, text=True).stdout.split()
        if not left:
            break
        time.sleep(0.1)
    assert left == []


def test_tail_percentile():
    from worker import tail_percentile

    assert tail_percentile(160) == 90
    assert tail_percentile(240) == 95
    assert tail_percentile(960) == 98
    assert tail_percentile(1000) == 99


def test_median_per_query():
    """A slow stretch in one pass does not move any query's latency."""
    from worker import median_per_query

    def rec(dt):
        return (0, None, None, dt, None)
    passes = [[rec(1.0), rec(2.0)], [rec(9.0), rec(2.0)], [rec(1.0), rec(9.0)]]
    assert median_per_query(passes) == [1.0, 2.0]


# -- tracing changes no answer ----------------------------------------------------

def test_traced_answers_equal_untraced_and_oracle(tmp_path, corpus, oracle,
                                                  stream):
    import pyarrow.parquet as pq
    import ray

    from rayse.pipelines.build_index import build_index
    from rayse.query.engine import SearchEngine
    from tracing import Tracer

    pq.write_table(corpus, tmp_path / "corpus.parquet")
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             log_to_driver=False)
    try:
        build_index(str(tmp_path / "corpus.parquet"), str(tmp_path / "idx"))
    finally:
        ray.shutdown()
    queries = stream.round(0) + stream.round(1)
    plain = SearchEngine(str(tmp_path / "idx"))
    traced = SearchEngine(str(tmp_path / "idx"))
    tracer = Tracer()
    want = [plain.search(q.text, K, q.mode) for q in queries]
    with tracer:
        got = [traced.search(q.text, K, q.mode) for q in queries]
    assert checks.digest(want) == checks.digest(got)
    for q, (docs, scores) in zip(queries, got):
        assert checks.check_order(docs, scores, K) == []
        assert checks.check_topk(docs, scores, checks.oracle_ranking(
            oracle, q.text, q.mode), K) == []
    self_s, counts = tracer.snapshot()
    assert counts["df_lookups"] and counts["postings_decoded"]
    assert self_s["query.parse"] > 0 and self_s["query.decode"] > 0
    # uninstalled: the program's functions are its own again
    import rayse.index.reader as reader_mod
    assert not hasattr(reader_mod.IndexReader.df, "__wrapped__")
