"""The archive ingest path against the plain references in oracles.py.

The loader decodes with a reused raw decoder, memoises hashtag
normalisation and keeps the decoded lists; filter_corpus checks every line
as the loader does but builds no records: it holds the tweets it keeps as
columns, and matches rules by lookup on the folded text; fold_text folds text
below U+0900 character by character; load_follows reads rows by column
index.  Each must give exactly what the reference gives.
"""

import csv
import json
import re
import unicodedata
from collections import Counter
from datetime import date, datetime, timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polmon import corpus, report
from polmon.corpus import (AccountAnnotation, Category, CorpusFormatError,
                           FilterRule, FollowRecord, MatchMode, RuleSet, Side,
                           default_rule_set, filter_corpus, fold_text,
                           load_follows, load_tweets)

from conftest import corpus_rows, rows_of
from oracles import (filter_corpus_reference, fold_text_reference,
                     load_follows_reference, load_tweets_reference)
from test_corpus import _BASES, GOOD_LINE, _archive_object, _rule, _variant

_FS = [HealthCheck.function_scoped_fixture]


# ---------------------------------------------------------------------------
# archive loader
# ---------------------------------------------------------------------------


@st.composite
def _archive_line(draw) -> str:
    """One archive line: valid, wrong-typed, truncated, BOM-prefixed, with
    extra data after the object, not an object, or blank."""
    obj = draw(_archive_object() | st.just(json.loads(GOOD_LINE)))
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    how = draw(st.integers(0, 9))
    if how == 0:
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == 1:
        return "\ufeff" + text
    if how == 2:
        return text + draw(st.sampled_from([" {}", "x", "]", " 1", ",",
                                            "\t\"a\""]))
    if how == 3:
        return draw(st.sampled_from(["[1]", "1", "\"s\"", "null", "  ",
                                     "", "{}"]))
    return text


def _load(loader, path, strict=False):
    errors = []
    try:
        records = list(loader(path, schema_strict=strict, error_log=errors))
    except CorpusFormatError as exc:
        return type(exc), re.match(r".*?:\d+:", str(exc)).group(0)
    return records, [lineno for lineno, _ in errors]


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@given(st.lists(_archive_line(), min_size=1, max_size=8))
def test_loader_equals_reference(tmp_path, lines):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for strict in (False, True):
        assert (_load(load_tweets, path, strict)
                == _load(load_tweets_reference, path, strict))


def test_loader_shares_hashtag_normalisation_within_a_file(tmp_path,
                                                          monkeypatch):
    obj = dict(json.loads(GOOD_LINE), hashtags=["#Υποκλοπές", "#PEGA"])
    path = tmp_path / "tweets.jsonl"
    path.write_text((json.dumps(obj) + "\n") * 3, encoding="utf-8")
    calls = Counter()
    real = corpus.normalize_hashtag
    monkeypatch.setattr(corpus, "normalize_hashtag",
                        lambda h: calls.update([h]) or real(h))
    records = list(load_tweets(path))
    assert [r.hashtags for r in records] == [["υποκλοπές", "pega"]] * 3
    assert calls == Counter({"#Υποκλοπές": 1, "#PEGA": 1})


# ---------------------------------------------------------------------------
# one-pass filter
# ---------------------------------------------------------------------------

# words the rules may match, off-topic words, text at or above U+0900
_WORD = (_variant(_BASES + ("καφες", "ΤΟ"))
         | st.sampled_from(["", "άσχετο", "ज्ञान", "\u0b47\u0b3e", "x1",
                            unicodedata.normalize("NFD", "Υποκλοπές")])
         | st.text(max_size=4))
_TAG = _variant() | st.sampled_from(["#Predator", "PREDATOR", "#ΥΠΟΚΛΟΠΕΣ",
                                     "Υποκλοπές", "#pega", "PEGA"])
_BAD_VALUES = [("like_count", "abc"), ("hashtags", "abc"), ("kind", "x"),
               ("timestamp", "2022-08-02T25:00:00Z"), ("media", 5),
               ("referenced_user_ids", [1]), ("text", None)]


@st.composite
def _filter_line(draw) -> str:
    """An archive line for the filter: mostly valid, Greek or not, inside
    the 2022-08-01..05 window or a day or two off either side, with texts
    of several words split by runs of spaces, repeated hashtags and urls,
    and replies that may reference their author; some lines are
    truncated, type-confused or arbitrary."""
    words = draw(st.lists(_WORD, min_size=1, max_size=5))
    text = words[0]
    for w in words[1:]:
        text += draw(st.sampled_from([" ", " ", "  ", "   ", ""])) + w
    tags = draw(st.lists(_TAG, max_size=3))
    tags += tags[:draw(st.integers(0, len(tags)))]
    ts = datetime(2022, 8, 1) + timedelta(
        minutes=draw(st.integers(-2 * 24 * 60, 7 * 24 * 60)))
    obj = dict(json.loads(GOOD_LINE), text=text, hashtags=tags,
               tweet_id=draw(st.sampled_from(["t1", "t2", "t3"])),
               author_id=draw(st.sampled_from(["a", "b", "Ά"])),
               urls=draw(st.lists(st.sampled_from(["u2", "u1"]),
                                  max_size=3)),
               timestamp=ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
               lang=draw(st.sampled_from(["el", "el", "el", "en"])))
    if draw(st.booleans()):
        obj.update(kind="reply", referenced_user_ids=["b", "c"])
    how = draw(st.integers(0, 9))
    if how == 1:
        obj.update([draw(st.sampled_from(_BAD_VALUES))])
    elif how == 2:
        obj = draw(_archive_object())
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    if how == 0:
        return line[:draw(st.integers(0, len(line) - 1))]
    return line


def _filtered(run, strict):
    errors = []
    try:
        kept, report = run(strict, errors)
    except CorpusFormatError as exc:
        return type(exc), re.match(r".*?:\d+:", str(exc)).group(0)
    return kept, report, [lineno for lineno, _ in errors]


@st.composite
def _filter_rule(draw) -> FilterRule:
    """A rule of test_corpus's kind, or a keyword rule spanning two words."""
    rule = draw(_rule())
    if draw(st.integers(0, 3)):
        return rule
    return FilterRule(" ".join(draw(st.lists(st.sampled_from(_BASES),
                                             min_size=2, max_size=2))),
                      MatchMode.KEYWORD_SUBSTRING, rule.active_from,
                      rule.active_until)


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@example(rules=[FilterRule("pred κλοπ", MatchMode.KEYWORD_SUBSTRING)],
         lines=[GOOD_LINE.replace("υποκλοπές", "Pred  κλοπ"),
                GOOD_LINE.replace("υποκλοπές", "PRED κλοπ")], offset=0)
@given(rules=st.lists(_filter_rule(), min_size=1, max_size=6)
       | st.just(default_rule_set().rules),
       lines=st.lists(_filter_line(), min_size=1, max_size=10),
       offset=st.sampled_from((0, 180, -300)))
def test_filter_pass_equals_reference(tmp_path, rules, lines, offset):
    rule_set = RuleSet(rules=rules,
                       study_window=(date(2022, 8, 1), date(2022, 8, 5)),
                       date_offset_minutes=offset)
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def one_pass(strict, errors):
        kept, report = filter_corpus(rule_set, path, schema_strict=strict,
                                     error_log=errors)
        return corpus_rows(kept), report

    def reference(strict, errors):
        kept, report = filter_corpus_reference(rule_set, load_tweets_reference(
            path, schema_strict=strict, error_log=errors))
        return rows_of(kept, offset), report

    for strict in (False, True):
        assert _filtered(one_pass, strict) == _filtered(reference, strict)


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

# text where folding by character could go wrong: NFD Greek, Hangul jamo
# runs after a syllable, Indic two-part vowel signs (which NFC composes),
# casefold expansions, and combining marks with no base
_PIECES = st.sampled_from([
    unicodedata.normalize("NFD", "Υποκλοπές ΐΰ ϊϋ"), "\u03ac", "\u0301",
    "\u0308", "\u0345",
    "\uac01\u1161\u11a8", "\u1100\u1161\u11a8", "\ud55c\u11ab\u11a8",
    "\u0b4b", "\u0b47\u0b3e", "\u09cb", "\u09c7\u09be", "\u0d4a",
    "\u00df", "\u0130", "\u1e9e", "\u03c2", "\u03a3", "\ufb01",
    "\u212a", "\u212b", "\u01c5", "\u2126",
])
_TEXT = st.lists(_PIECES | st.text(max_size=6), max_size=8).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TEXT | st.text())
def test_fold_equals_whole_string_reference(s):
    assert fold_text(s) == fold_text_reference(s)


def test_fold_covers_every_code_point_below_u0900():
    s = "".join(map(chr, range(1, 0x900)))
    assert fold_text(s) == fold_text_reference(s)
    assert len(corpus._FOLD_TABLE) <= 0x900


# ---------------------------------------------------------------------------
# follow lists
# ---------------------------------------------------------------------------

_ANNOTATIONS = {
    "p1": AccountAnnotation("p1", Category.POLITICAL, Side.LEFT),
    "p2": AccountAnnotation("p2", Category.POLITICAL, Side.RIGHT),
    "b1": AccountAnnotation("b1", Category.BOT),
}
_IDS = st.sampled_from(["u1", "u2", " u1 ", "p1", "p2", "b1", "", "x"])


def _follow_result(loader, path, annotations):
    try:
        return loader(path, annotations)
    except CorpusFormatError as exc:
        return re.match(r".*?:\d+:", str(exc)).group(0)


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@given(header=st.permutations(["follower_id", "followed_political_id",
                               "note"]),
       rows=st.lists(st.lists(_IDS, max_size=4), max_size=8),
       check_targets=st.booleans())
def test_follow_loader_equals_reference(tmp_path, header, rows,
                                        check_targets):
    path = tmp_path / "follows.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    annotations = _ANNOTATIONS if check_targets else None
    assert (_follow_result(load_follows, path, annotations)
            == _follow_result(load_follows_reference, path, annotations))


def test_follow_loader_reads_repeated_column_like_dictreader(tmp_path):
    path = tmp_path / "follows.csv"
    header = "follower_id,followed_political_id,follower_id\n"
    path.write_text(header + "a,p1,b\n\nc,p2,d\n", encoding="utf-8")
    assert load_follows(path) == load_follows_reference(path) == [
        FollowRecord("b", "p1"), FollowRecord("d", "p2")]
    path.write_text(header + "a,p1,b\n\nc,p2\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{path}:4: "):
        load_follows(path)  # c,p2 has no third column: no follower


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=3), st.integers(0, 5), max_size=30),
       st.integers(1, 35))
def test_top_k_equals_sorted_prefix(counts, k):
    counter = Counter(counts)
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    assert report._top(counter, k) == ranked
