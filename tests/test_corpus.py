import csv
import json
import re
import unicodedata
from collections import Counter
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polmon import corpus
from polmon.corpus import (Category, CorpusFormatError,
                           FilterRule, Kind, MatchMode, RuleSet,
                           Side, archive_obj, default_rule_set, filter_corpus,
                           fold_text, load_annotations, load_follows,
                           load_tweets, normalize_hashtag, rule_set_from_dict)

from conftest import (OFFSETS, accounts_of, annotations_of, corpus_of,
                      corpus_rows, filter_records, follow_pairs, keeps,
                      records, stored_rows, tweet)
from oracles import (Account, filter_corpus_reference, letter_runs,
                     load_tweets_reference, parse_tweet_reference,
                     tweet_to_obj)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

GOOD_LINE = json.dumps({
    "tweet_id": "t1", "author_id": "a", "timestamp": "2022-08-05T10:00:00Z",
    "text": "υποκλοπές", "lang": "el", "kind": "original", "hashtags": [],
    "urls": [], "media": [], "referenced_user_ids": [],
    "referenced_tweet_id": None, "like_count": 0, "retweet_count": 0,
    "reply_count": 0}, ensure_ascii=False)


def _write(tmp_path, lines):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_well_formed_file(tmp_path):
    path = _write(tmp_path, [GOOD_LINE] * 3)
    errors = []
    records = list(load_tweets(path, error_log=errors))
    assert len(records) == 3
    assert errors == []


def test_load_skips_malformed_line(tmp_path):
    path = _write(tmp_path, [GOOD_LINE, "{not json", GOOD_LINE])
    errors = []
    records = list(load_tweets(path, error_log=errors))
    assert len(records) == 2
    assert len(errors) == 1
    assert errors[0][0] == 2


def test_load_empty_file(tmp_path):
    path = _write(tmp_path, [""])
    assert list(load_tweets(path)) == []


def test_load_strict_raises(tmp_path):
    path = _write(tmp_path, [GOOD_LINE, "{not json"])
    with pytest.raises(CorpusFormatError, match="tweets.jsonl:2"):
        list(load_tweets(path, schema_strict=True))


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        list(load_tweets(tmp_path / "nope.jsonl"))


def _load_one(tmp_path, obj) -> tuple:
    """The (object, checked fields) that load_tweets, strict, yields for a
    one-line archive of obj."""
    [loaded] = load_tweets(_write(tmp_path, [json.dumps(obj)]),
                           schema_strict=True)
    return loaded


def _error(tmp_path, obj) -> str:
    """load_tweets' strict error for a one-line archive of obj, after its
    path:line."""
    path = _write(tmp_path, [json.dumps(obj)])
    with pytest.raises(CorpusFormatError) as info:
        list(load_tweets(path, schema_strict=True))
    where, _, message = str(info.value).partition(":1: ")
    assert where == str(path)
    return message


def _written(obj, fields) -> dict:
    """archive_obj with the hashtags normalised, as filtered.jsonl has it."""
    return archive_obj(obj, fields, list(map(normalize_hashtag,
                                             fields.hashtags)))


def test_retweet_without_reference_is_malformed(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["kind"] = "retweet"
    assert "must reference" in _error(tmp_path, obj)


def test_negative_count_is_malformed(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["like_count"] = -1
    assert "non-negative" in _error(tmp_path, obj)


def test_hashtags_normalized_on_load(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["hashtags"] = ["#ΥΠΟΚΛΟΠΕΣ", "Predator"]
    path = _write(tmp_path, [json.dumps(obj)])
    kept, _ = filter_corpus(default_rule_set(), path, schema_strict=True)
    # lower() keeps the context-sensitive final sigma, matching how the
    # tracked hashtags are written
    assert corpus_rows(kept)[0][4] == ("υποκλοπες", "predator")


def test_tweet_round_trip(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["kind"] = "quote"
    obj["referenced_user_ids"] = ["b"]
    obj["media"] = [{"kind": "VIDEO", "url": "https://v"}]
    obj["hashtags"] = ["#Predator"]
    written = _written(*_load_one(tmp_path, obj))
    assert written == tweet_to_obj(parse_tweet_reference(obj))
    assert written["media"] == [{"kind": "video", "url": "https://v"}]
    assert _written(*_load_one(tmp_path, written)) == written


def test_round_trip_keeps_sub_second_and_early_timestamps(tmp_path):
    for raw in ("2022-08-05T10:00:00.250000Z", "0999-01-02T03:04:05Z"):
        obj = json.loads(GOOD_LINE)
        obj["timestamp"] = raw
        written = _written(*_load_one(tmp_path, obj))
        assert written["timestamp"] == raw
        assert written == tweet_to_obj(parse_tweet_reference(obj))
        assert _written(*_load_one(tmp_path, written)) == written


@pytest.mark.parametrize("name", ["like_count", "retweet_count",
                                  "reply_count"])
@pytest.mark.parametrize("value", ["abc", "3", 1.7, 2.0, True, False, [1],
                                   {"n": 1}])
def test_count_must_be_json_integer(tmp_path, name, value):
    obj = json.loads(GOOD_LINE)
    obj[name] = value
    assert _error(tmp_path, obj).startswith(name)


@pytest.mark.parametrize("name", ["tweet_id", "author_id", "text", "lang",
                                  "referenced_tweet_id", "media url"])
@pytest.mark.parametrize("value", [["u1"], {"id": "u1"}, True, 1.5])
def test_scalar_field_must_be_json_string_or_integer(tmp_path, name, value):
    # str() once wrote such a value out as its repr: user "['u1']" or "True"
    obj = json.loads(GOOD_LINE)
    if name == "media url":
        obj["media"] = [{"kind": "image", "url": value}]
        what = "bad media item"
    else:
        obj[name] = value
        what = f"{name} is not a string or an integer"
    assert _error(tmp_path, obj).startswith(what)
    with pytest.raises(CorpusFormatError, match=f"^{what}"):
        parse_tweet_reference(obj)
    errors = []
    path = _write(tmp_path, [json.dumps(obj), GOOD_LINE])
    assert len(list(load_tweets(path, error_log=errors))) == 1
    assert [lineno for lineno, _ in errors] == [1]


def test_missing_or_null_count_is_zero(tmp_path):
    obj = json.loads(GOOD_LINE)
    del obj["like_count"]
    obj["retweet_count"] = None
    obj["reply_count"] = 4
    _, fields = _load_one(tmp_path, obj)
    assert fields.counts == [0, 0, 4]


@pytest.mark.parametrize("name", ["hashtags", "urls", "referenced_user_ids"])
@pytest.mark.parametrize("value", ["u22", "", 7, {"a": "b"}, ["a", 2],
                                   ["a", None], [["a"]]])
def test_list_field_must_be_list_of_strings(tmp_path, name, value):
    obj = json.loads(GOOD_LINE)
    obj["kind"] = "reply"
    obj["referenced_user_ids"] = ["b"]
    obj[name] = value
    assert _error(tmp_path, obj).startswith(name)


@pytest.mark.parametrize("value", ["abc", 3, {"kind": "image", "url": "u"}])
def test_media_must_be_list(tmp_path, value):
    obj = json.loads(GOOD_LINE)
    obj["media"] = value
    assert _error(tmp_path, obj).startswith("media is not a list")


def test_type_confused_lines_are_skipped_and_counted(tmp_path):
    bad = []
    for name, value in (("like_count", "abc"), ("like_count", 1.7),
                        ("referenced_user_ids", "u22"), ("hashtags", "abc"),
                        ("media", 5),
                        ("timestamp", "0001-01-01T00:00:00+01:00")):
        obj = json.loads(GOOD_LINE)
        obj[name] = value
        bad.append(json.dumps(obj, ensure_ascii=False))
    # json.loads raises a plain ValueError on a 5000-digit integer
    bad.append(GOOD_LINE.replace('"t1"', "1" * 5000))
    path = _write(tmp_path, [GOOD_LINE, *bad, GOOD_LINE])
    errors = []
    records = list(load_tweets(path, error_log=errors))
    assert len(records) == 2
    assert [lineno for lineno, _ in errors] == list(range(2, 2 + len(bad)))
    with pytest.raises(CorpusFormatError, match="tweets.jsonl:2"):
        list(load_tweets(path, schema_strict=True))


# the loader decodes blocks of whole lines of about corpus._BLOCK bytes; a
# line of more than _BLOCK bytes ends its block
_BLOCK = corpus._BLOCK
_TEXT_AT = GOOD_LINE.encode("utf-8").index("υποκλοπές".encode("utf-8"))


def _line(tid: str, text: str = "υποκλοπές") -> bytes:
    return GOOD_LINE.replace('"t1"', f'"{tid}"').replace(
        "υποκλοπές", text).encode("utf-8")


def _padded(tid: str, size: int) -> bytes:
    """A good line of size bytes, its LF included, padded in its text."""
    pad = size - len(_line(tid)) - 2
    return _line(tid, "υποκλοπές " + "x" * pad) + b"\n"


def _loaded(path):
    """The loaded tweet ids and the error line numbers."""
    errors = []
    ids = [obj["tweet_id"] for obj, _ in load_tweets(path, error_log=errors)]
    return ids, [lineno for lineno, _ in errors]


def test_undecodable_bytes_are_a_malformed_line(tmp_path):
    # the first block is line 1; lines 2 to 6 are the second block
    lines = [_line(tid) + b"\n" for tid in ("t2", "t3", "t4", "t5", "t6")]
    lines[2] = lines[2].replace("υποκλοπές".encode("utf-8"), b"\xff")
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(_padded("t1", _BLOCK + 1) + b"".join(lines))
    errors = []
    ids = [obj["tweet_id"] for obj, _ in load_tweets(path, error_log=errors)]
    assert ids == ["t1", "t2", "t3", "t5", "t6"]
    assert [lineno for lineno, _ in errors] == [4]
    assert "can't decode byte 0xff" in errors[0][1]
    with pytest.raises(CorpusFormatError,
                       match="tweets.jsonl:4: 'utf-8' codec can't decode "
                             "byte 0xff"):
        list(load_tweets(path, schema_strict=True))


def test_lines_end_at_newline_and_lose_only_json_whitespace(tmp_path):
    # a raw CR between tokens is JSON whitespace: its record loads whole,
    # and the lines after it keep their numbers; what str.strip would drop
    # but json.loads rejects (NBSP, U+001C, U+2028) makes a line malformed
    def line(tid, before="", after=""):
        return before + GOOD_LINE.replace('"t1"', f'"{tid}"') + after
    path = tmp_path / "tweets.jsonl"
    path.write_bytes("\n".join([
        line("t1", after="\r"), line("t2").replace(', "lang"', ',\r"lang"'),
        line("t3", after="\u00a0"), line("t4", after="\x1c"),
        line("t5", before="\u2028"), line("t6", " \t", "\t \r")
    ]).encode("utf-8") + b"\n")
    errors, reference_errors = [], []
    records = list(load_tweets(path, error_log=errors))
    assert [obj["tweet_id"] for obj, _ in records] == ["t1", "t2", "t6"]
    assert [lineno for lineno, _ in errors] == [3, 4, 5]
    assert [r.tweet_id for r in load_tweets_reference(
        path, error_log=reference_errors)] == ["t1", "t2", "t6"]
    assert reference_errors == errors


def test_lone_surrogate_escape_is_malformed_but_a_pair_loads(tmp_path):
    lone = GOOD_LINE.replace("υποκλοπές", "υποκλοπές \\ud800")
    pair = GOOD_LINE.replace("υποκλοπές", "υποκλοπές \\ud83d\\ude00") \
        .replace('"t1"', '"t2"')
    # the check is on what would be written: a lone surrogate in an unused
    # key is fine
    odd_key = '{"x\\udc00": 1, ' + GOOD_LINE[1:].replace('"t1"', '"t3"')
    path = tmp_path / "tweets.jsonl"
    # with a block ahead, the escapes are in the second block only
    for ahead in (0, 1):
        path.write_bytes(_padded("t0", _BLOCK + 1) * ahead + "\n".join(
            [lone, pair, odd_key]).encode("utf-8") + b"\n")
        errors = []
        records = list(load_tweets(path, error_log=errors))
        assert [obj["tweet_id"] for obj, _ in records] == ["t0"] * ahead + [
            "t2", "t3"]
        assert records[-2][0]["text"] == "υποκλοπές \U0001F600"
        assert [lineno for lineno, _ in errors] == [1 + ahead]
        with pytest.raises(CorpusFormatError,
                           match=f"tweets.jsonl:{1 + ahead}: "):
            list(load_tweets(path, schema_strict=True))


def test_line_longer_than_a_block_loads(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(_line("t1") + b"\n" + _padded("t2", 3 * _BLOCK + 5)
                     + _line("t3") + b"\n")
    assert _loaded(path) == (["t1", "t2", "t3"], [])
    (_, _), (long, _), _ = load_tweets(path)
    assert long == json.loads(path.read_bytes().split(b"\n")[1])


def test_greek_character_across_the_block_size_loads(tmp_path):
    # the second line's first Greek letter has a byte on either side of
    # offset _BLOCK
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(_padded("t1", _BLOCK - 1 - _TEXT_AT)
                     + _line("t2") + b"\n" + _line("t3") + b"\n")
    assert path.read_bytes()[_BLOCK - 1:_BLOCK + 1] == "υ".encode("utf-8")
    assert _loaded(path) == (["t1", "t2", "t3"], [])
    assert [obj["text"] for obj, _ in load_tweets(path)][1:] == [
        "υποκλοπές"] * 2


@pytest.mark.parametrize("last, expected", [
    (_line("t3"), (["t1", "t2", "t3"], [])),
    (_line("t3")[:-2], (["t1", "t2"], [3]))], ids=["whole", "truncated"])
def test_last_line_without_newline(tmp_path, last, expected):
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(_padded("t1", _BLOCK + 1) + _line("t2") + b"\n" + last)
    assert _loaded(path) == expected
    path.write_bytes(_line("t1") + b"\n" + _line("t2") + b"\n" + last)
    assert _loaded(path) == expected


def test_type_confused_line_does_not_abort_filter(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["like_count"] = "abc"
    path = _write(tmp_path, [GOOD_LINE, json.dumps(obj), GOOD_LINE])
    errors = []
    kept, report = filter_corpus(default_rule_set(), path, error_log=errors)
    assert (len(kept.day), report.total, len(errors)) == (2, 2, 1)
    assert corpus_rows(kept) == stored_rows(
        [parse_tweet_reference(json.loads(GOOD_LINE))] * 2)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=8)

_TIMESTAMPS = st.one_of(
    st.datetimes(timezones=st.none() | st.just(timezone.utc)
                 | st.builds(lambda m: timezone(timedelta(minutes=m)),
                             st.integers(-900, 900)))
    .map(lambda ts: ts.isoformat()),
    st.datetimes(min_value=datetime(2000, 1, 1))
    .map(lambda ts: ts.strftime("%Y-%m-%dT%H:%M:%SZ")),
    st.text(max_size=30))

_FIELDS = {
    "tweet_id": st.text(max_size=5),
    "author_id": st.text(max_size=5),
    "timestamp": _TIMESTAMPS,
    "text": st.text(max_size=20),
    "lang": st.sampled_from(["el", "en"]),
    "kind": st.sampled_from(["original", "retweet", "Quote", "REPLY", "x"]),
    "hashtags": st.lists(st.text(max_size=6), max_size=3),
    "urls": st.lists(st.text(max_size=6), max_size=3),
    "media": st.lists(st.fixed_dictionaries({
        "kind": st.sampled_from(["image", "VIDEO", "gif"]),
        "url": st.text(max_size=6)}), max_size=2),
    "referenced_user_ids": st.lists(st.text(max_size=5), max_size=3),
    "referenced_tweet_id": st.none() | st.text(max_size=5),
    "like_count": st.none() | st.integers(-2, 10 ** 20),
    "retweet_count": st.none() | st.integers(-2, 10 ** 20),
    "reply_count": st.none() | st.integers(-2, 10 ** 20),
}


@st.composite
def _archive_object(draw) -> dict:
    """A well-typed record with some fields dropped or made arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.dictionaries(st.text(max_size=8), _JSON, max_size=6))
    obj = {}
    for name, values in _FIELDS.items():
        how = draw(st.integers(0, 11))
        if how == 0:
            continue
        obj[name] = draw(_JSON if how == 1 else values)
    return obj


def _assert_invariants(w):
    """What filtered.jsonl holds of a valid line."""
    for name in ("tweet_id", "author_id", "text", "lang"):
        assert type(w[name]) is str
    assert w["timestamp"].endswith("Z")
    assert datetime.fromisoformat(w["timestamp"][:-1]).tzinfo is None
    assert w["kind"] in {k.value for k in Kind}
    for name in ("hashtags", "urls", "referenced_user_ids"):
        values = w[name]
        assert type(values) is list
        assert all(type(v) is str for v in values)
    assert all(normalize_hashtag(h) == h for h in w["hashtags"])
    assert all(m.keys() == {"kind", "url"} and m["kind"] in ("image", "video")
               and type(m["url"]) is str for m in w["media"])
    for name in ("like_count", "retweet_count", "reply_count"):
        value = w[name]
        assert type(value) is int and value >= 0
    if w["kind"] != Kind.ORIGINAL.value:
        assert w["referenced_user_ids"]
    assert (w["referenced_tweet_id"] is None
            or type(w["referenced_tweet_id"]) is str)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_archive_object(), min_size=1, max_size=6))
def test_non_strict_load_never_raises_and_keeps_invariants(tmp_path, objs):
    path = _write(tmp_path, [json.dumps(o) for o in objs])
    errors = []
    records = list(load_tweets(path, error_log=errors))
    assert len(records) + len(errors) == len(objs)
    for obj, fields in records:
        written = _written(obj, fields)
        _assert_invariants(written)
        assert written == tweet_to_obj(parse_tweet_reference(obj))


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------


def test_fold_text_strips_accents_and_case():
    assert fold_text("ΥΠΟΚΛΟΠΈΣ") == fold_text("υποκλοπες")
    assert fold_text("υποκλοπές") == "υποκλοπεσ"


def test_normalize_hashtag_keeps_accents():
    assert normalize_hashtag("#Υποκλοπές") == "υποκλοπές"
    assert normalize_hashtag("υποκλοπες") != normalize_hashtag("υποκλοπές")


# ---------------------------------------------------------------------------
# matching: the four golden cases from the shipped default config
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rules() -> RuleSet:
    return default_rule_set()


def test_matches_wiretap_hashtag(rules):
    t = tweet(text="σκέψεις #υποκλοπες", hashtags=["υποκλοπες"],
              ts="2022-08-05T09:00:00Z")
    assert keeps(rules, t)


def test_matches_person_rule_not_yet_active(rules):
    t = tweet(text="για τον Ανδρουλάκη", hashtags=["ανδρουλακης"],
              ts="2022-07-01T09:00:00Z")
    assert not keeps(rules, t)


def test_matches_person_rule_expired(rules):
    t = tweet(text="#κουκακη", hashtags=["κουκακη"],
              ts="2022-12-01T09:00:00Z")
    assert not keeps(rules, t)


def test_matches_rejects_non_greek(rules):
    t = tweet(text="the predator story", lang="en",
              ts="2022-08-05T09:00:00Z")
    assert not keeps(rules, t)


def test_matches_window_bounds_inclusive():
    rule = FilterRule("πεδιο", MatchMode.KEYWORD_SUBSTRING,
                      active_from=date(2022, 7, 20),
                      active_until=date(2022, 11, 28))
    rs = RuleSet(rules=[rule])
    on_from = tweet(text="πεδιο", ts="2022-07-20T00:00:00Z")
    on_until = tweet(text="πεδιο", ts="2022-11-28T23:59:59Z")
    before = tweet(text="πεδιο", ts="2022-07-19T23:59:59Z")
    after = tweet(text="πεδιο", ts="2022-11-29T00:00:00Z")
    assert keeps(rs, on_from)
    assert keeps(rs, on_until)
    assert not keeps(rs, before)
    assert not keeps(rs, after)


def test_matches_study_window(rules):
    t = tweet(text="υποκλοπές", ts="2023-02-01T09:00:00Z")
    assert not keeps(rules, t)


def test_matches_keyword_accent_folded(rules):
    t = tweet(text="ΟΙ ΥΠΟΚΛΟΠΕΣ ΣΥΝΕΧΙΖΟΝΤΑΙ", ts="2022-08-05T09:00:00Z")
    assert keeps(rules, t)


def test_matches_hashtag_is_exact_not_folded(rules):
    # the unaccented and accented hashtags are separate rules; a made-up
    # accented variant of a keyword-only term must not match via hashtags
    rs = RuleSet(rules=[FilterRule("pega", MatchMode.HASHTAG_EXACT)])
    assert keeps(rs, tweet(text="x", hashtags=["pega"],
                           ts="2022-08-05T09:00:00Z"))
    assert not keeps(rs, tweet(text="x", hashtags=["pegasus"],
                               ts="2022-08-05T09:00:00Z"))


def test_date_offset_shifts_bucketing():
    rule = FilterRule("οροι", MatchMode.KEYWORD_SUBSTRING,
                      active_until=date(2022, 11, 28))
    rs = RuleSet(rules=[rule], date_offset_minutes=180)  # Athens summer time
    late_utc = tweet(text="οροι", ts="2022-11-28T22:30:00Z")
    assert not keeps(rs, late_utc)  # 2022-11-29 01:30 local
    rs_utc = RuleSet(rules=[rule])
    assert keeps(rs_utc, late_utc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_matches_is_pure(seed):
    rules = default_rule_set()
    t = tweet(text="υποκλοπές", ts="2022-08-05T09:00:00Z")
    assert keeps(rules, t) == keeps(rules, t)


# ---------------------------------------------------------------------------
# filter_corpus
# ---------------------------------------------------------------------------


def test_filter_empty_corpus(rules):
    kept, report = filter_records(rules, [])
    assert kept == []
    assert report.total == 0
    assert report.kept == 0


def test_filter_all_match(rules):
    tweets = [tweet(f"t{i}", text="υποκλοπές", ts="2022-08-05T09:00:00Z")
              for i in range(4)]
    kept, report = filter_records(rules, tweets)
    assert kept == stored_rows(tweets)
    assert report.kept == report.total == 4


def test_filter_mixed_matches_recheck(rules):
    tweets = [
        tweet("t1", text="υποκλοπές", ts="2022-08-05T09:00:00Z"),
        tweet("t2", text="άσχετο", ts="2022-08-05T09:00:00Z"),
        tweet("t3", text="predator news", lang="en",
              ts="2022-08-05T09:00:00Z"),
        tweet("t4", text="ok", hashtags=["ypoklopes"],
              ts="2022-08-05T09:00:00Z"),
        tweet("t5", text="υποκλοπές", ts="2023-03-05T09:00:00Z"),
    ]
    kept, report = filter_records(rules, tweets)
    oracle, ref_report = filter_corpus_reference(rules, tweets)
    assert kept == stored_rows(oracle)
    assert report == ref_report
    assert report.kept == len(oracle) == 2
    assert report.kept + report.dropped == report.total == len(tweets)
    assert report.dropped_lang == 1
    assert report.dropped_window == 1


def test_filter_idempotent(rules):
    tweets = [
        tweet("t1", text="υποκλοπές", ts="2022-08-05T09:00:00Z"),
        tweet("t2", text="no", ts="2022-08-05T09:00:00Z"),
    ]
    kept, _ = filter_records(rules, tweets)
    again, report = filter_records(rules, tweets[:1])
    assert again == kept == stored_rows(tweets[:1])
    assert report.kept == report.total


@pytest.mark.parametrize("ts, offset", [
    ("9999-12-31T23:30:00Z", 60),
    ("0001-01-01T00:30:00Z", -60),
])
def test_date_overflow_counts_as_out_of_window(tmp_path, ts, offset):
    # the local date would fall past date.max / before date.min
    obj = dict(json.loads(GOOD_LINE), timestamp=ts, tweet_id="edge")
    path = _write(tmp_path, [GOOD_LINE, json.dumps(obj)])
    rule_set = rule_set_from_dict({
        "rules": [{"term": "υποκλοπές", "mode": "keyword"}],
        "study_window": ["0001-01-01", "9999-12-31"],
        "date_offset_minutes": offset,
    })
    errors = []
    good, edge = map(parse_tweet_reference, (json.loads(GOOD_LINE), obj))
    kept, report = filter_corpus(rule_set, path, error_log=errors)
    assert errors == []
    assert corpus_rows(kept) == stored_rows([good], offset)
    assert (report.total, report.kept, report.dropped_window) == (2, 1, 1)
    assert report.to_dict()["dropped"] == report.total - report.kept
    assert not keeps(rule_set, edge)


# timestamps in the first and last representable days, the ends included
_EDGE_TIMES = st.one_of(
    st.sampled_from([datetime.min, datetime.max,
                     datetime.min + timedelta(minutes=59, seconds=59),
                     datetime.max - timedelta(minutes=59, seconds=59)]),
    st.datetimes(max_value=datetime.min + timedelta(days=1)),
    st.datetimes(min_value=datetime.max - timedelta(days=1)),
    st.datetimes()).map(lambda ts: ts.replace(tzinfo=timezone.utc))
_EDGE_DATES = st.sampled_from([date.min, date.min + timedelta(days=1),
                               date.max - timedelta(days=1), date.max]) \
    | st.dates()


@settings(max_examples=500, deadline=None)
@example(ts=datetime.max.replace(tzinfo=timezone.utc),
         ends=[date.max, date.max], offset=-60)
@example(ts=datetime.min.replace(tzinfo=timezone.utc),
         ends=[date.min, date.min], offset=60)
@given(ts=_EDGE_TIMES, ends=st.lists(_EDGE_DATES, min_size=2, max_size=2),
       offset=st.sampled_from([0, 60, -60, 1439, -1439])
       | st.integers(-1439, 1439))
def test_utc_window_agrees_with_local_date(ts, ends, offset):
    # the filter decides the window on local dates; the oracle on the UTC
    # instants of the window's ends, clamped at the calendar's ends
    lo, hi = sorted(ends)
    rule_set = RuleSet(rules=[FilterRule("x", MatchMode.KEYWORD_SUBSTRING)],
                       study_window=(lo, hi), date_offset_minutes=offset)
    record = tweet(ts=ts.isoformat(), text="x")
    _, report = filter_records(rule_set, [record])
    _, expected = filter_corpus_reference(rule_set, [record])
    assert report.to_dict() == expected.to_dict()


@settings(max_examples=200, deadline=None)
@given(minutes=st.lists(st.integers(0, 6 * 24 * 60), max_size=30),
       offset=st.sampled_from([0, 180, -420]) | st.integers(-1439, 1439))
def test_corpus_days_are_rule_set_local_dates(minutes, offset):
    rule_set = RuleSet(rules=[FilterRule("x", MatchMode.KEYWORD_SUBSTRING)],
                       date_offset_minutes=offset)
    start = datetime(2022, 8, 1, tzinfo=timezone.utc)
    tweets = [tweet(f"t{i}", ts=(start + timedelta(minutes=m)).isoformat())
              for i, m in enumerate(minutes)]
    assert corpus_of(tweets, offset).day.tolist() == [
        rule_set.local_date(t.timestamp).toordinal() for t in tweets]


@settings(max_examples=200, deadline=None)
@given(records(), st.sampled_from(OFFSETS))
def test_corpus_columns_read_back_as_the_records(tweets, offset):
    corpus = corpus_of(tweets, offset)
    assert len(corpus.word_ids.ptr) - 1 == len(corpus.day) == len(tweets)
    assert corpus_rows(corpus) == stored_rows(tweets, offset)
    for table in (corpus.users, corpus.hashtags, corpus.urls):
        assert list(table) == sorted(set(table))  # interned, id order
    assert set(corpus.users) == {
        u for t in tweets for u in (t.author_id, *t.referenced_user_ids)}


@settings(max_examples=200, deadline=None)
@given(records())
@example([tweet("t1", text="το Το ΤΟ τo 12το x_το"),
          tweet("t2", text="Café το café"), tweet("t3", text="")])
def test_word_table_numbers_each_run_once_in_first_met_order(tweets):
    corpus = corpus_of(tweets)
    runs = [w for t in tweets for w in letter_runs(t.text)]
    assert len(set(corpus.words)) == len(corpus.words)
    assert list(corpus.words) == list(dict.fromkeys(runs))
    assert corpus.word_ids.ids.dtype == np.int32
    assert corpus.word_ids.ids.tolist() == list(
        map(corpus.words.index, runs))


# the reference path: each active rule on its own, term and text folded
# on every evaluation
def _filter_reference(rule_set, tweets):
    kept, hits = [], Counter()
    lo, hi = rule_set.study_window
    for t in tweets:
        d = rule_set.local_date(t.timestamp)
        if t.lang not in rule_set.language_whitelist or not lo <= d <= hi:
            continue
        hit = False
        for rule in rule_set.rules:
            if not rule.window_contains(d):
                continue
            if rule.mode is MatchMode.HASHTAG_EXACT:
                matched = rule.term in t.hashtags
            else:
                matched = fold_text(rule.term) in fold_text(t.text)
            if matched:
                hits[f"{rule.mode.value}:{rule.term}"] += 1
                hit = True
        if hit:
            kept.append(t)
    return kept, hits


# overlapping on purpose, so that one tweet often matches several rules
_BASES = ("υποκλοπες", "υποκλοπη", "κλοπ", "predator", "pred")


@st.composite
def _variant(draw, bases=_BASES) -> str:
    """A base word with random case and tonos/acute/diaeresis marks."""
    base = draw(st.sampled_from(bases))
    upper = draw(st.integers(0, 2 ** len(base) - 1))
    chars = [ch.upper() if upper >> i & 1 else ch
             for i, ch in enumerate(base)]
    for i, mark in draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                           st.sampled_from("\u0301\u0308")),
                                 max_size=1)):
        chars[i] += mark
    form = draw(st.sampled_from(("NFC", "NFD")))
    return unicodedata.normalize(form, "".join(chars))


_DAYS = [date(2022, 8, 1) + timedelta(days=i) for i in range(6)]


@st.composite
def _rule(draw) -> FilterRule:
    lo = draw(st.none() | st.sampled_from(_DAYS))
    hi = draw(st.none() | st.sampled_from([d for d in _DAYS
                                           if lo is None or d >= lo]))
    mode = draw(st.sampled_from((MatchMode.KEYWORD_SUBSTRING,
                                 MatchMode.HASHTAG_EXACT)))
    return FilterRule(draw(_variant()), mode, active_from=lo, active_until=hi)


@st.composite
def _tweet(draw, index: int):
    word = _variant(_BASES + ("καφες", "ΤΟ"))
    words = draw(st.lists(word | word | st.text(max_size=4),
                          min_size=1, max_size=4))
    ts = datetime(2022, 8, 1) + timedelta(
        minutes=draw(st.integers(-12 * 60, 6 * 24 * 60)))
    return tweet(f"t{index}", text=draw(st.sampled_from((" ", ""))).join(words),
                 lang=draw(st.sampled_from(("el", "el", "en"))),
                 hashtags=[normalize_hashtag(h) for h in
                           draw(st.lists(_variant(), min_size=1,
                                         max_size=2))],
                 ts=ts.strftime("%Y-%m-%dT%H:%M:%SZ"))


@settings(max_examples=150, deadline=None)
@given(st.lists(_rule(), min_size=2, max_size=6),
       st.integers(1, 8).flatmap(
           lambda n: st.tuples(*[_tweet(i) for i in range(n)])),
       st.sampled_from((0, 180, -300)))
def test_filter_equals_per_rule_reference(rules, tweets, offset):
    rule_set = RuleSet(rules=rules,
                       study_window=(date(2022, 8, 1), date(2022, 8, 5)),
                       date_offset_minutes=offset)
    kept, report = filter_records(rule_set, tweets)
    ref_kept, ref_hits = _filter_reference(rule_set, tweets)
    assert kept == stored_rows(ref_kept, offset)
    assert report.rule_hits == ref_hits
    assert ref_kept == filter_corpus_reference(rule_set, tweets)[0]


def test_match_folds_each_text_once_and_terms_never(monkeypatch, rules):
    tweets = [tweet(f"t{i}", text=text, ts="2022-08-05T09:00:00Z")
              for i, text in enumerate(("ΥΠΟΚΛΟΠΈΣ", "predator", "ok",
                                        "άσχετο"))]
    tweets.append(tweet("t9", text="x", hashtags=["pega"],
                        ts="2022-08-05T09:00:00Z"))
    folded = []
    real = corpus.fold_text
    monkeypatch.setattr(corpus, "fold_text",
                        lambda s: folded.append(s) or real(s))
    kept, report = filter_records(rules, tweets)
    # the default set's four keyword rules are active on every date
    assert folded == [t.text for t in tweets]
    assert kept == stored_rows([tweets[0], tweets[1], tweets[4]])
    folded.clear()
    assert [keeps(rules, t) for t in tweets] == [True, True, False, False,
                                                  True]
    assert folded == [t.text for t in tweets]


def test_rule_term_folded_once_and_kept():
    rule = FilterRule("Υποκλοπές", MatchMode.KEYWORD_SUBSTRING)
    assert rule.term == "Υποκλοπές"
    assert rule.folded_term == fold_text("Υποκλοπές")
    _, report = filter_records(RuleSet(rules=[rule]),
                               [tweet(text="ΥΠΟΚΛΟΠΕΣ")])
    assert report.to_dict()["rule_hits"] == {"keyword:Υποκλοπές": 1}


# ---------------------------------------------------------------------------
# companion datasets
# ---------------------------------------------------------------------------


def test_load_annotations(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("user_id,category,side\n"
                    "p1,Political,Left\n"
                    "m1,MediaJournalist,\n"
                    "u1,Individual,\n", encoding="utf-8")
    annotations = load_annotations(path)
    assert annotations.users == ("m1", "p1", "u1")
    assert accounts_of(annotations) == {
        "m1": Account(Category.MEDIA_JOURNALIST),
        "p1": Account(Category.POLITICAL, Side.LEFT),
        "u1": Account(Category.INDIVIDUAL)}


def test_load_annotations_duplicate(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("user_id,category,side\nu1,Individual,\nu1,Bot,\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_annotations(path)


def test_load_annotations_unknown_side_names_location(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("user_id,category,side\np1,Political,Left\n"
                    "p2,Political,Leftish\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{path}:3: .*'Leftish'"):
        load_annotations(path)


@pytest.mark.parametrize("row, message", [
    (",Bot,", "empty user_id"),
    ("u1,Bot,", "duplicate annotation for u1"),
    ("x,Pundit,", "unknown category 'Pundit'"),
    ("x,Political,leftish", "'Leftish' is not a valid Side"),
    ("x,Political,", "political account 'x' needs a side"),
    ("x,Bot,Left", "non-political account 'x' must not carry a side"),
], ids=["empty-id", "duplicate", "unknown-category", "unknown-side",
        "political-without-side", "non-political-with-side"])
def test_load_annotations_error_names_line(tmp_path, row, message):
    path = tmp_path / "ann.csv"
    path.write_text(f"user_id,category,side\nu1,Individual,\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        load_annotations(path)
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("loader, header", [
    (load_annotations, b"user_id,category,side\n"),
    (load_follows, b"follower_id,followed_political_id\n"),
])
def test_csv_that_is_not_utf8_names_path_and_line(tmp_path, loader, header):
    path = tmp_path / "data.csv"
    path.write_bytes(header + b"u1,Political,Left\n\xff\xfeu2,Bot,\n")
    # as a follow row, line 2 follows an account named "Political"
    args = (annotations_of({"Political": Account(Category.POLITICAL,
                                                 Side.LEFT)}),
            ) if loader is load_follows else ()
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:3: "):
        loader(path, *args)


def _located(exc: CorpusFormatError, path) -> bool:
    return re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)) is not None


_CELL = st.one_of(st.text(max_size=12), st.sampled_from(
    ["", " ", "p1", "u1", "Political", "political", "Bot", "Media", "Left",
     "right", "Center", "Leftish", "None"]))
_ROWS = st.lists(st.lists(_CELL, max_size=4), max_size=6)


def _write_csv(path, header, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_ROWS)
def test_annotation_loader_accepts_or_names_location(tmp_path, rows):
    path = tmp_path / "ann.csv"
    _write_csv(path, ["user_id", "category", "side"], rows)
    try:
        annotations = load_annotations(path)
    except CorpusFormatError as exc:
        assert _located(exc, path), exc
    else:
        accounts = accounts_of(annotations)
        assert list(accounts) == sorted(accounts)
        assert all((a.category is Category.POLITICAL) == (a.side is not None)
                   for a in accounts.values())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_ROWS)
def test_follow_loader_accepts_or_names_location(tmp_path, rows):
    annotations = annotations_of({"p1": Account(Category.POLITICAL,
                                                Side.LEFT),
                                  "Bot": Account(Category.BOT)})
    path = tmp_path / "follows.csv"
    _write_csv(path, ["follower_id", "followed_political_id"], rows)
    try:
        pairs = follow_pairs(load_follows(path, annotations))
    except CorpusFormatError as exc:
        assert _located(exc, path), exc
    else:
        assert pairs == sorted(set(pairs))


_GOOD_RULES = {
    "rules": [{"term": "υποκλοπές", "mode": "keyword",
               "active_from": "2022-05-01"}],
    "language_whitelist": ["el"],
    "study_window": ["2022-04-01", "2022-12-31"],
    "date_offset_minutes": 60,
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=st.one_of(
    _JSON,
    st.tuples(st.sampled_from(sorted(_GOOD_RULES) + ["mode", "term",
                                                     "active_from"]),
              _JSON).map(lambda kv: _with_value(*kv))))
def test_rule_set_loader_accepts_or_names_location(tmp_path, obj):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    try:
        rule_set = corpus.load_rule_set(path)
    except CorpusFormatError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        assert isinstance(rule_set, RuleSet)


def _with_value(key, value) -> dict:
    """_GOOD_RULES with one top-level or rule-entry key set to value."""
    obj = json.loads(json.dumps(_GOOD_RULES))
    if key in obj:
        obj[key] = value
    else:
        obj["rules"][0][key] = value
    return obj


def test_load_follows_validates_targets(tmp_path):
    ann_path = tmp_path / "ann.csv"
    ann_path.write_text("user_id,category,side\np1,Political,Left\n",
                        encoding="utf-8")
    annotations = load_annotations(ann_path)
    path = tmp_path / "follows.csv"
    path.write_text("follower_id,followed_political_id\nu1,p1\nu1,p1\n",
                    encoding="utf-8")
    follows = load_follows(path, annotations)
    assert follow_pairs(follows) == [("u1", "p1")]  # duplicate collapsed

    path.write_text("follower_id,followed_political_id\nu1,ghost\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="ghost"):
        load_follows(path, annotations)


# ---------------------------------------------------------------------------
# rule set config
# ---------------------------------------------------------------------------


def test_default_rule_set_contents():
    rs = default_rule_set()
    assert rs.language_whitelist == {"el"}
    assert rs.study_window == (date(2022, 4, 1), date(2023, 1, 14))
    assert len(rs.rules) == 17
    person_terms = {r.term for r in rs.rules if r.active_until is not None}
    assert person_terms == {"δημητριαδης", "κοντολεων", "κουκακη",
                            "ανδρουλακης"}
    androulakis = [r for r in rs.rules if r.term == "ανδρουλακης"][0]
    assert androulakis.active_from == date(2022, 7, 20)


def test_rule_set_from_dict_round_trip():
    rs = rule_set_from_dict({
        "rules": [{"term": "#Foo", "mode": "hashtag",
                   "active_from": "2022-05-01"}],
        "language_whitelist": ["el", "en"],
        "study_window": ["2022-04-01", "2022-12-31"],
        "date_offset_minutes": 120,
    })
    assert rs.rules[0].term == "foo"  # '#' stripped, lowercased
    assert rs.rules[0].active_from == date(2022, 5, 1)
    assert rs.date_offset_minutes == 120


@pytest.mark.parametrize("key, value", [
    ("language_whitelist", "el"),
    ("language_whitelist", ["el", 1]),
    ("language_whitelist", []),
    ("language_whitelist", {"el": True}),
    ("language_whitelist", None),
    ("date_offset_minutes", None),
    ("date_offset_minutes", 90.7),
    ("date_offset_minutes", 60.0),
    ("date_offset_minutes", True),
    ("date_offset_minutes", "60"),
    ("study_window", ["2022-04-01", 20221231]),
    ("study_window", ["2022-04-01", None]),
    ("rules", {"term": "x", "mode": "keyword"}),
    ("active_from", 20220501),
    ("active_until", "2022-13-01"),
])
def test_rule_set_rejects_type_confused_value(key, value):
    with pytest.raises(CorpusFormatError, match=key):
        rule_set_from_dict(_with_value(key, value))


@pytest.mark.parametrize("entry", [
    {"term": 2022, "mode": "keyword"},
    {"term": "x", "mode": ["keyword"]},
    {"term": "x"},
    "x",
])
def test_rule_set_rejects_type_confused_rule(entry):
    with pytest.raises(CorpusFormatError, match="bad rule entry"):
        rule_set_from_dict(dict(_GOOD_RULES, rules=[entry]))


@pytest.mark.parametrize("key, obj, what", [
    ("active_untill", dict(_GOOD_RULES, rules=[
        {"term": "υποκλοπες", "mode": "hashtag",
         "active_untill": "2022-08-02"}]), "bad rule entry"),
    ("languge_whitelist", dict(_GOOD_RULES, languge_whitelist=["en"]),
     "rule set"),
])
def test_rule_set_rejects_unknown_key(tmp_path, key, obj, what):
    # a misspelt key would otherwise leave its setting at the default
    with pytest.raises(CorpusFormatError,
                       match=f"^{what}.*: unknown key '{key}'$"):
        rule_set_from_dict(obj)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}: {what}.*'{key}'$"):
        corpus.load_rule_set(path)


@pytest.mark.parametrize("offset, accepted", [
    (1440, False), (-1440, False), (10 ** 9, False), (-10 ** 9, False),
    (1439, True), (-1439, True), (330, True),
])
def test_rule_set_offset_lies_within_a_day(offset, accepted):
    obj = dict(_GOOD_RULES, date_offset_minutes=offset)
    rules = [FilterRule("x", MatchMode.KEYWORD_SUBSTRING)]
    if accepted:
        assert rule_set_from_dict(obj).date_offset_minutes == offset
        assert RuleSet(rules, date_offset_minutes=offset)
    else:
        with pytest.raises(CorpusFormatError, match="'date_offset_minutes'"):
            rule_set_from_dict(obj)
        with pytest.raises(CorpusFormatError, match="'date_offset_minutes'"):
            RuleSet(rules, date_offset_minutes=offset)


def test_rule_set_absent_whitelist_and_offset_take_defaults():
    obj = {k: v for k, v in _GOOD_RULES.items()
           if k not in ("language_whitelist", "date_offset_minutes")}
    rs = rule_set_from_dict(obj)
    assert (rs.language_whitelist, rs.date_offset_minutes) == ({"el"}, 0)


def test_load_rule_set_names_path(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(dict(_GOOD_RULES, date_offset_minutes=90.7)),
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError,
                       match=f"^{path}: 'date_offset_minutes'"):
        corpus.load_rule_set(path)


def test_rule_set_rejects_bad_window():
    with pytest.raises(CorpusFormatError):
        RuleSet(rules=[FilterRule("x", MatchMode.KEYWORD_SUBSTRING)],
                study_window=(date(2023, 1, 1), date(2022, 1, 1)))


def test_rule_rejects_inverted_window():
    with pytest.raises(CorpusFormatError):
        FilterRule("x", MatchMode.KEYWORD_SUBSTRING,
                   active_from=date(2022, 6, 1), active_until=date(2022, 5, 1))


def test_empty_rule_set_rejected():
    with pytest.raises(CorpusFormatError):
        RuleSet(rules=[])
