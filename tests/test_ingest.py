"""The archive ingest path against the plain references in oracles.py.

The loader decodes the archive as UTF-8 a block of whole lines at a time,
then each line with a reused raw decoder, and yields each valid line's
object and checked fields, keeping the decoded lists; filter_corpus reads
the loader's lines, memoises hashtag normalisation, matches rules by
lookup on the folded text and holds the tweets it keeps as columns;
write_filtered writes each kept line as archive_obj; fold_text folds
ISO-8859-7 text through a byte table and other text below U+0900
character by character, and _words splits ISO-8859-7 text into its runs
of letters through another; load_follows reads rows by column index.  Each
must give exactly what the reference gives: the references build a
TweetRecord per line, and what filtered.jsonl holds of a kept line is
tweet_to_obj of its record.
"""

import csv
import json
import logging
import re
import unicodedata
from collections import Counter
from datetime import date, datetime, timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polmon import corpus, report
from polmon.corpus import (CorpusFormatError, FilterRule, RuleSet,
                           default_rule_set, filter_corpus, fold_text,
                           load_follows, load_tweets)
from polmon.pipeline import RunConfig, Runner

from conftest import annotations_of, corpus_rows, follow_pairs, stored_rows
from oracles import (Account, filter_corpus_reference, fold_text_reference,
                     letter_runs, load_follows_reference,
                     load_tweets_reference, tweet_to_obj)
from test_corpus import (_BASES, GOOD_LINE, _archive_object, _rule, _variant,
                         _written)

_FS = [HealthCheck.function_scoped_fixture]


# ---------------------------------------------------------------------------
# archive loader
# ---------------------------------------------------------------------------


@st.composite
def _archive_line(draw) -> bytes:
    """One archive line's bytes: valid, wrong-typed, truncated,
    BOM-prefixed, with extra data after the object, not an object, blank,
    or with bytes that are not UTF-8 (a stray byte, a cut multi-byte
    sequence, an encoded surrogate) somewhere in it."""
    obj = draw(_archive_object() | st.just(json.loads(GOOD_LINE)))
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    how = draw(st.integers(0, 10))
    if how == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif how == 1:
        text = "\ufeff" + text
    elif how == 2:
        text += draw(st.sampled_from([" {}", "x", "]", " 1", ",", "\t\"a\""]))
    elif how == 3:
        text = draw(st.sampled_from(["[1]", "1", "\"s\"", "null", "  ", "",
                                     "{}"]))
    raw = text.encode("utf-8")
    if how == 4:
        at = draw(st.integers(0, len(raw)))
        bad = draw(st.sampled_from([b"\xff", "ο".encode("utf-8")[:1],
                                    b"\xed\xa0\x80"]))
        raw = raw[:at] + bad + raw[at:]
    return raw


def _load(loader, written, path, strict=False):
    """What would be written of each accepted line, and the error line
    numbers; or the strict failure's type and path:line."""
    errors = []
    try:
        lines = list(loader(path, schema_strict=strict, error_log=errors))
    except CorpusFormatError as exc:
        return type(exc), re.match(r".*?:\d+:", str(exc)).group(0)
    return list(map(written, lines)), [lineno for lineno, _ in errors]


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@given(st.lists(_archive_line(), min_size=1, max_size=8))
def test_loader_equals_reference(tmp_path, lines):
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for strict in (False, True):
        assert (_load(load_tweets, lambda line: _written(*line), path, strict)
                == _load(load_tweets_reference, tweet_to_obj, path, strict))


def test_filter_shares_hashtag_normalisation_within_a_file(tmp_path,
                                                          monkeypatch):
    obj = dict(json.loads(GOOD_LINE), hashtags=["#Υποκλοπές", "#PEGA"])
    path = tmp_path / "tweets.jsonl"
    path.write_text((json.dumps(obj) + "\n") * 3, encoding="utf-8")
    rule_set = default_rule_set()
    calls = Counter()
    real = corpus.normalize_hashtag
    monkeypatch.setattr(corpus, "normalize_hashtag",
                        lambda h: calls.update([h]) or real(h))
    kept, _ = filter_corpus(rule_set, path, words=True)
    assert [tags for *_, tags, _, _ in corpus_rows(kept)] == [
        ("υποκλοπές", "pega")] * 3
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
                      "keyword", rule.active_from, rule.active_until)


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@example(rules=[FilterRule("pred κλοπ", "keyword")],
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
                                     error_log=errors, words=True)
        return corpus_rows(kept), report

    def reference(strict, errors):
        kept, report = filter_corpus_reference(rule_set, load_tweets_reference(
            path, schema_strict=strict, error_log=errors))
        return stored_rows(kept, offset), report

    for strict in (False, True):
        assert _filtered(one_pass, strict) == _filtered(reference, strict)


# ---------------------------------------------------------------------------
# filtered.jsonl
# ---------------------------------------------------------------------------

# two lone surrogates and a pair; a line that carries one is written with
# ensure_ascii, so each is a \u escape there
_SURROGATES = ("\ud800", "\udfff", "\U0001F600")
_IDS = st.sampled_from([7, 10 ** 20, -1.5, True, ["x"], {"k": "v"}, "t9"])
_MEDIA = st.lists(st.fixed_dictionaries({
    "kind": st.sampled_from(["image", "VIDEO", "image", "gif"]),
    "url": st.sampled_from(["m1", "https://v"])}), min_size=1, max_size=2)


@st.composite
def _written_line(draw) -> str:
    """A _filter_line that may also carry media items, a sub-second or
    year-999 timestamp, a tweet_id and referenced_tweet_id that are not
    strings, and lone or paired surrogate escapes in the text, a media
    url, a hashtag and an unused key."""
    line = draw(_filter_line())
    try:
        obj = json.loads(line)
    except ValueError:
        return line
    if type(obj) is not dict or draw(st.integers(0, 3)) == 0:
        return line
    if draw(st.booleans()):
        obj["media"] = draw(_MEDIA)
    if draw(st.booleans()) and type(obj.get("timestamp")) is str:
        obj["timestamp"] = draw(st.sampled_from([
            obj["timestamp"].replace("Z", ".250000Z"),
            obj["timestamp"].replace("Z", ".000001+00:00"),
            "0999-01-02T03:04:05Z"]))
    if draw(st.booleans()):
        obj["tweet_id"] = draw(_IDS)
        obj["referenced_tweet_id"] = draw(st.none() | _IDS)
    for where in draw(st.lists(st.sampled_from(["text", "url", "hashtag",
                                                "key"]), max_size=2)):
        s = draw(st.sampled_from(_SURROGATES))
        media = obj.get("media")
        if where == "text" and type(obj.get("text")) is str:
            obj["text"] += s
        elif (where == "url" and type(media) is list and media
              and type(media[0]) is dict and type(media[0].get("url")) is str):
            media[0]["url"] += s
        elif where == "hashtag" and type(obj.get("hashtags")) is list:
            obj["hashtags"].append("#x" + s)
        else:
            obj["unused" + s] = s
    return json.dumps(obj)


def _surrogate_line(**fields) -> str:
    return json.dumps(dict(json.loads(GOOD_LINE), **fields))


@settings(max_examples=200, deadline=None, suppress_health_check=_FS)
@example(rules=default_rule_set().rules, lines=[
    _surrogate_line(text="υποκλοπές \ud800"),
    _surrogate_line(media=[{"kind": "image", "url": "m\udfff"}]),
    _surrogate_line(hashtags=["#x\ud800"]),
    _surrogate_line(**{"x\udc00": "\ud800", "tweet_id": 7}),
    _surrogate_line(text="υποκλοπές \U0001F600",
                    hashtags=["#x\U0001F600"],
                    media=[{"kind": "VIDEO", "url": "m\U0001F600"}],
                    timestamp="2022-08-03T10:00:00.250000Z",
                    referenced_tweet_id=1.5)],
         wide=False, offset=0)
@given(rules=st.lists(_filter_rule(), min_size=1, max_size=6)
       | st.just(default_rule_set().rules),
       lines=st.lists(_written_line(), min_size=1, max_size=10),
       wide=st.booleans(), offset=st.sampled_from((0, 180, -300)))
def test_write_filtered_equals_reference(tmp_path, rules, lines, wide,
                                         offset):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "rules.json").write_text(json.dumps({
        "rules": [{"term": r.term, "mode": r.mode,
                   "active_from": r.active_from and str(r.active_from),
                   "active_until": r.active_until and str(r.active_until)}
                  for r in rules],
        "study_window": (["0001-01-01", "9999-12-31"] if wide
                         else ["2022-08-01", "2022-08-05"]),
        "date_offset_minutes": offset}), encoding="utf-8")
    runner = Runner(RunConfig(
        tweets=path, annotations=tmp_path / "unused.csv",
        follows=tmp_path / "unused.csv", out_dir=tmp_path / "out",
        rules=tmp_path / "rules.json"))
    written = runner.write_filtered().read_text(encoding="utf-8")

    errors = []
    kept, report = filter_corpus_reference(runner.rule_set,
                                           load_tweets_reference(
                                               path, error_log=errors))
    # split on "\n" alone: str.splitlines also splits at U+0085 and U+2028
    assert written.split("\n") == [
        json.dumps(tweet_to_obj(t), ensure_ascii=False, sort_keys=True)
        for t in kept] + [""]
    assert json.loads((tmp_path / "out" / "filter_report.json").read_text(
        encoding="utf-8")) == dict(report.to_dict(),
                                   malformed_lines=len(errors))


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

# text where folding by character could go wrong: NFD Greek, Hangul jamo
# runs after a syllable, Indic two-part vowel signs (which NFC composes),
# casefold expansions, combining marks with no base, ISO-8859-7
# characters at or above U+0900 and two that decompose, and accented text
# that ISO-8859-7 cannot encode
_PIECES = st.sampled_from([
    unicodedata.normalize("NFD", "Υποκλοπές ΐΰ ϊϋ"), "\u03ac", "\u0301",
    "\u0308", "\u0345",
    "\uac01\u1161\u11a8", "\u1100\u1161\u11a8", "\ud55c\u11ab\u11a8",
    "\u0b4b", "\u0b47\u0b3e", "\u09cb", "\u09c7\u09be", "\u0d4a",
    "\u00df", "\u0130", "\u1e9e", "\u03c2", "\u03a3", "\ufb01",
    "\u212a", "\u212b", "\u01c5", "\u2126",
    "\u20ac", "\u2018", "\u2019", "\u2015", "\u037a", "\u0385", "caf\u00e9",
])
_TEXT = st.lists(_PIECES | st.text(max_size=6), max_size=8).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TEXT | st.text())
def test_fold_equals_whole_string_reference(s):
    assert fold_text(s) == fold_text_reference(s)


def test_fold_covers_every_code_point_below_u0900():
    s = "".join(map(chr, range(1, 0x900)))
    assert fold_text(s) == fold_text_reference(s)


_CODEPAGE = bytes(range(256)).decode("iso8859_7", "ignore")
_CODEPAGE_LOW = "".join(ch for ch in _CODEPAGE if ch < "\u0900")


def test_each_codepage_character_folds_to_one_codepage_character():
    assert len(_CODEPAGE) == 253
    for ch in _CODEPAGE:
        folded = fold_text_reference(ch)
        assert len(folded.encode("iso8859_7")) == 1, (ch, folded)
        assert fold_text(ch) == folded


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_CODEPAGE_LOW))
@example(_CODEPAGE_LOW)
def test_fold_of_codepage_text_equals_reference(s):
    assert fold_text(s) == fold_text_reference(s)


@pytest.mark.parametrize("folded, error", [
    ("ss", RuntimeError), ("", RuntimeError), ("\u00e9", UnicodeEncodeError)])
def test_byte_table_refuses_a_fold_to_other_than_one_codepage_character(
        monkeypatch, folded, error):
    fold = corpus._fold_whole
    monkeypatch.setattr(corpus, "_fold_whole",
                        lambda s: folded if s == "\u03b2" else fold(s))
    with pytest.raises(error):
        corpus._byte_folds()


# ---------------------------------------------------------------------------
# tokenising
# ---------------------------------------------------------------------------


def test_word_byte_table_equals_one_rebuilt_from_letter_runs():
    # the undefined bytes decode to U+FFFD, which is no letter
    chars = bytes(range(256)).decode("iso8859_7", "replace")
    table = bytes(b if letter_runs(ch) == [ch] else 0x20
                  for b, ch in enumerate(chars))
    assert corpus._WORD_BYTES == table
    assert len(table) - table.count(b" ") == 125
    assert all(letter_runs(ch) == [ch] for ch in "²³½")


def test_words_of_each_codepage_character_equal_letter_runs():
    for ch in _CODEPAGE:
        for text in (ch, f"a{ch}β", f"{ch}{ch} {ch}"):
            assert corpus._words(text) == letter_runs(text), text


# code-page text, mixed with characters outside the code page (é, an emoji,
# combining marks) and with NBSP, a code-page character that str.split()
# counts as whitespace
_MIXED = st.text(alphabet=st.sampled_from(_CODEPAGE) | st.sampled_from(
    ["\u00e9", "\U0001f600", "\u0301", "\u0308", "\u00a0", "\u00b2"]))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_CODEPAGE) | _MIXED | _TEXT)
@example("Οι Υποκλοπές, το PREDATOR! x_y a1b ½ café \U0001f600")
def test_words_equal_letter_runs(s):
    assert corpus._words(s) == letter_runs(s)


# ---------------------------------------------------------------------------
# follow lists
# ---------------------------------------------------------------------------

_ACCOUNTS = {
    "p1": Account("Political", "Left"),
    "p2": Account("Political", "Right"),
    "b1": Account("Bot"),
}
_ANNOTATIONS = annotations_of(_ACCOUNTS)
_IDS = st.sampled_from(["u1", "u2", " u1 ", "p1", "p2", "b1", "", "x"])


def _follow_result(load):
    """The follow pairs load() keeps, in ascending order, or the path:line:
    prefix of its error."""
    try:
        return sorted(load())
    except CorpusFormatError as exc:
        return re.match(r".*?:\d+:", str(exc)).group(0)


@settings(max_examples=300, deadline=None, suppress_health_check=_FS)
@given(header=st.permutations(["follower_id", "followed_political_id",
                               "note"]),
       rows=st.lists(st.lists(_IDS, max_size=4), max_size=8))
def test_follow_loader_equals_reference(tmp_path, caplog, header, rows):
    # the same pairs or the same error line, and a warning for each
    # duplicate pair above it, in line order
    path = tmp_path / "follows.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="polmon.corpus"):
        got = _follow_result(
            lambda: follow_pairs(load_follows(path, _ANNOTATIONS)))
    duplicates = []
    assert got == _follow_result(lambda: (
        (r.follower_id, r.followed_political_id)
        for r in load_follows_reference(path, _ACCOUNTS, duplicates)))
    assert [r.getMessage() for r in caplog.records] == duplicates


def test_follow_loader_reads_repeated_column_like_dictreader(tmp_path):
    path = tmp_path / "follows.csv"
    header = "follower_id,followed_political_id,follower_id\n"
    path.write_text(header + "a,p1,b\n\nc,p2,d\n", encoding="utf-8")
    assert follow_pairs(load_follows(path, _ANNOTATIONS)) == [("b", "p1"),
                                                              ("d", "p2")]
    assert [(r.follower_id, r.followed_political_id)
            for r in load_follows_reference(path)] == [("b", "p1"),
                                                       ("d", "p2")]
    path.write_text(header + "a,p1,b\n\nc,p2\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{path}:4: "):
        load_follows(path, _ANNOTATIONS)  # c,p2 has no follower column


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
