"""M2 HTML cleaner: unit semantics (PreIndexer.java:48-75), the
synthesized-HTML DuckDB oracle, and the IndexConfig(clean_html=True)
build parity hook (cleaned-HTML index byte-identical to the index over
pre-cleaned text)."""

import glob
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayse.ops.htmlclean import clean_html_text, html_clean_sql, synth_html

SF = "/root/testdata/sf0.001"


def test_removed_subtrees_and_voids():
    s = ('<style>p {x}</style><script src="a.js">var x = "leak";</script>'
         '<noscript>no</noscript><svg><g>glyph</g></svg>'
         '<canvas>cv</canvas><meta charset="utf-8"/><link rel="x">'
         "<p>kept words</p>")
    assert clean_html_text(s) == "kept words"


def test_code_content_appears_twice():
    # the reference extracts code-ish text but does NOT remove the
    # elements, so their content is indexed twice (PreIndexer.java:52-65)
    s = "<p>alpha</p><code>beta</code><pre>gamma <b>delta</b></pre>"
    assert clean_html_text(s) == "alpha beta gamma delta beta gamma delta"


def test_entities_and_whitelist():
    # decoded entities pass through the whitelist (&, <, > are all kept);
    # non-whitelisted chars (quotes, @, unicode) become spaces
    s = "<p>a &amp; b &lt;t&gt; x@y é 'q' \"r\"</p>"
    assert clean_html_text(s) == "a & b <t> x y q r"


def test_attributes_and_empty():
    assert clean_html_text('<p class="a b" data-x="1">w</p>') == "w"
    assert clean_html_text("") == ""
    assert clean_html_text("plain  text\n here") == "plain text here"


def test_malformed_unclosed_tags():
    """EOF implicitly closes everything: unclosed elements keep their
    text, an unclosed removed subtree swallows only its own content."""
    assert clean_html_text("<p>alpha <b>beta") == "alpha beta"
    assert clean_html_text("<pre>keep me") == "keep me keep me"  # quirk x2
    assert clean_html_text("<p>seen</p><svg><g>gone") == "seen"
    # truncated tag at EOF is dropped, text before it survives
    assert clean_html_text("word <img src=") == "word"


def test_malformed_misnested_tags():
    """Mis-nested close tags pop to the nearest match; unmatched close
    tags are ignored."""
    assert clean_html_text("<b><i>x</b></i>y") == "x y"
    assert clean_html_text("</div>hello</p>") == "hello"
    # closing a code element from inside mis-nesting ends its capture
    assert clean_html_text("<code>a<b>b</code>c") == "a b c a b"


def test_malformed_raw_lt_in_text():
    """A raw < not opening a tag is literal text (HTML5 data state), so
    'a < b > c' is prose, not a tag to swallow."""
    assert clean_html_text("<p>a < b > c</p>") == "a < b > c"
    assert clean_html_text("x <3 y") == "x <3 y"
    assert clean_html_text("1 < 2 and 3 > 2") == "1 < 2 and 3 > 2"


def test_quoted_gt_in_attribute():
    """A > inside a quoted attribute value does not end the tag."""
    assert clean_html_text('<p data-x="a>b">w</p>') == "w"
    assert clean_html_text("<a href='q>r'>link</a>") == "link"


def test_comments_and_bogus():
    assert clean_html_text("a<!-- <p>never</p> -->b") == "a b"
    assert clean_html_text("a<!doctype html>b") == "a b"
    assert clean_html_text("a<?php x ?>b") == "a b"
    # unterminated comment consumes the rest (spec EOF-in-comment)
    assert clean_html_text("a<!-- open") == "a"


def test_rawtext_ends_only_at_its_close_tag():
    # "</div>" inside script does NOT end it; code inside script is DATA,
    # never captured
    s = "<script>if (a</div>) { } <code>nope</code></script><p>w</p>"
    assert clean_html_text(s) == "w"
    # RCDATA (title) content is text
    assert clean_html_text("<title>t1 &amp; t2</title>w") == "t1 & t2 w"


def test_nested_code_elements_each_captured():
    """Jsoup parity: select() returns outer AND inner code-ish elements;
    each contributes its full text to the append."""
    s = "<pre><code>x</code></pre>"
    # body: x; append: pre.text()="x" + code.text()="x"
    assert clean_html_text(s) == "x x x"


def test_synth_rule_matches_analytic_expectation():
    for t in ("the fast key order sort", "spark", "a b"):
        words = t.split(" ")
        mid = len(words) // 2
        exp = " ".join([words[0]] + words[:mid] + words[mid:]
                       + words[mid:]).strip()
        exp = " ".join(exp.split())
        assert clean_html_text(synth_html(t)) == exp, t


def test_html_clean_matches_duckdb(ray_session):
    from rayse.ops.htmlclean import html_clean

    got = html_clean(SF).to_pandas().sort_values("doc_id")
    got = got.reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(html_clean_sql()).fetchdf()
    want = want.sort_values("doc_id").reset_index(drop=True)
    assert len(got) == 500
    pd.testing.assert_frame_equal(got, want[got.columns])


def test_clean_html_build_parity(ray_session, tmp_path_factory):
    """IndexConfig(clean_html=True) over HTML-wrapped transcripts produces
    byte-identical segments to a plain build over pre-cleaned text — the
    cleaner really runs inside the pipeline, before tokenize."""
    from rayse.config import IndexConfig
    from rayse.pipelines.build_index import build_index
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    root = tmp_path_factory.mktemp("htmlbuild")
    plain = root / "plain"
    plain.mkdir()
    write_transcripts_from_documents(SF, str(plain))

    wrapped, precleaned = root / "wrapped", root / "precleaned"
    wrapped.mkdir()
    precleaned.mkdir()
    for f in sorted(glob.glob(str(plain / "*.parquet"))):
        t = pq.read_table(f)
        texts = t["text"].to_pylist()
        idx = t.schema.get_field_index("text")
        pq.write_table(
            t.set_column(idx, "text", pa.array(
                [synth_html(x or "") for x in texts], pa.string())),
            str(wrapped / os.path.basename(f)))
        pq.write_table(
            t.set_column(idx, "text", pa.array(
                [clean_html_text(synth_html(x or "")) for x in texts],
                pa.string())),
            str(precleaned / os.path.basename(f)))

    cfg_clean = IndexConfig(part_bits=4, clean_html=True)
    cfg_plain = IndexConfig(part_bits=4)
    idx_a = str(root / "idx_html")
    idx_b = str(root / "idx_pre")
    build_index(str(wrapped), idx_a, cfg_clean, merge_concurrency=3)
    build_index(str(precleaned), idx_b, cfg_plain, merge_concurrency=3)

    parts_a = sorted(glob.glob(os.path.join(idx_a, "segments", "part=*")))
    parts_b = sorted(glob.glob(os.path.join(idx_b, "segments", "part=*")))
    assert [os.path.basename(p) for p in parts_a] == \
           [os.path.basename(p) for p in parts_b] and parts_a
    for pa_, pb_ in zip(parts_a, parts_b):
        ta = pq.read_table(glob.glob(os.path.join(pa_, "*.parquet"))[0])
        tb = pq.read_table(glob.glob(os.path.join(pb_, "*.parquet"))[0])
        assert ta.equals(tb), os.path.basename(pa_)
