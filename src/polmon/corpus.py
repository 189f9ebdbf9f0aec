"""Tweet corpus loading, validation, rule filtering and companion datasets.

File formats (all consumed here, all documented in the README):

  - tweet archive: one JSON object per line with fields tweet_id, author_id,
    timestamp (ISO-8601 UTC), text, lang, kind, hashtags, urls, media,
    referenced_user_ids, referenced_tweet_id, like_count, retweet_count,
    reply_count.  For retweets/quotes/replies the primary referenced author
    (the retweeted/quoted/replied-to user) comes first in
    referenced_user_ids; mentions follow.
  - annotations: CSV with header ``user_id,category,side``
  - follow lists: CSV with header ``follower_id,followed_political_id``
  - rule set: JSON with keys rules[].term, rules[].mode, rules[].active_from,
    rules[].active_until, language_whitelist, study_window and an optional
    date_offset_minutes for local-time day bucketing (default 0 = UTC).

A default rule set (the tracked keyword/hashtag list with its per-term
activation windows) ships as package data; ``default_rule_set()`` loads it.

``kept_tweets`` is the one keep-or-drop pass over an archive: it decodes
and checks every line as ``load_tweets`` does (both share one loop), tests
language, window and rules on the checked fields, and yields each kept
tweet's fields.  Rules are matched by lookup: a dict from hashtag term to
rule keys per local date, and keyword terms tested against the folded
text.  ``filter_corpus`` feeds the kept tweets into a ``Corpus``: numpy
columns over sorted, interned string tables, which the graph, stats and
share stages read; no ``TweetRecord`` is built on that path.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    """A corpus/companion file violates its documented format."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Kind(Enum):
    ORIGINAL = "original"
    RETWEET = "retweet"
    QUOTE = "quote"
    REPLY = "reply"


class MediaKind(Enum):
    IMAGE = "image"
    VIDEO = "video"


class MatchMode(Enum):
    HASHTAG_EXACT = "hashtag"
    KEYWORD_SUBSTRING = "keyword"


class Category(Enum):
    INDIVIDUAL = "Individual"
    MEDIA_JOURNALIST = "MediaJournalist"
    POLITICAL = "Political"
    ORGANIZATION = "Organization"
    BOT = "Bot"


class Side(Enum):
    LEFT = "Left"
    RIGHT = "Right"
    CENTER = "Center"


@dataclass
class MediaItem:
    kind: MediaKind
    url: str


@dataclass
class TweetRecord:
    tweet_id: str
    author_id: str
    timestamp: datetime  # tz-aware UTC
    text: str
    lang: str
    kind: Kind
    hashtags: list[str] = field(default_factory=list)
    urls: list[str] = field(default_factory=list)
    media: list[MediaItem] = field(default_factory=list)
    referenced_user_ids: list[str] = field(default_factory=list)
    referenced_tweet_id: str | None = None
    like_count: int = 0
    retweet_count: int = 0
    reply_count: int = 0


@dataclass
class FilterRule:
    term: str
    mode: MatchMode
    active_from: date | None = None
    active_until: date | None = None
    # fold_text(term) of a keyword rule, computed once here
    folded_term: str = field(init=False, default="", repr=False)

    def __post_init__(self):
        if self.mode is MatchMode.HASHTAG_EXACT:
            self.term = normalize_hashtag(self.term)
        else:
            self.folded_term = fold_text(self.term)
        if (self.active_from is not None and self.active_until is not None
                and self.active_from > self.active_until):
            raise CorpusFormatError(
                f"rule {self.term!r}: active_from after active_until")

    def window_contains(self, d: date) -> bool:
        if self.active_from is not None and d < self.active_from:
            return False
        if self.active_until is not None and d > self.active_until:
            return False
        return True


@dataclass
class RuleSet:
    rules: list[FilterRule]
    language_whitelist: set[str] = field(default_factory=lambda: {"el"})
    study_window: tuple[date, date] = (date(2022, 4, 1), date(2023, 1, 14))
    date_offset_minutes: int = 0  # shift before taking dates; under a day

    def __post_init__(self):
        if not self.rules:
            raise CorpusFormatError("rule set needs at least one rule")
        lo, hi = self.study_window
        if lo > hi:
            raise CorpusFormatError("study_window is not well-ordered")
        if not -1440 < self.date_offset_minutes < 1440:
            raise CorpusFormatError("'date_offset_minutes' must lie within a "
                                    f"day, got {self.date_offset_minutes!r}")

    def local_date(self, ts: datetime) -> date | None:
        """Calendar date of ts under the offset; None past date.min/max."""
        try:
            return (ts + timedelta(minutes=self.date_offset_minutes)).date()
        except OverflowError:
            return None

    def utc_window(self) -> tuple[datetime, datetime]:
        """UTC [start, end) of the instants whose local date lies in the
        study window, clamped at the calendar's ends to agree with
        local_date."""
        lo, hi = self.study_window
        shift = timedelta(minutes=self.date_offset_minutes)
        try:
            start = datetime.combine(lo, time.min, tzinfo=timezone.utc) - shift
        except OverflowError:
            start = datetime.min.replace(tzinfo=timezone.utc)
        try:  # the shift is under a day: only hi == date.max overflows
            end = (datetime.combine(hi, time.min, tzinfo=timezone.utc)
                   + (timedelta(days=1) - shift))
        except OverflowError:  # just past datetime.max in UTC
            end = datetime.max.replace(
                tzinfo=timezone(-timedelta(microseconds=1)))
        return start, end


@dataclass
class AccountAnnotation:
    user_id: str
    category: Category
    side: Side | None = None

    def __post_init__(self):
        if self.category is Category.POLITICAL and self.side is None:
            raise CorpusFormatError(
                f"political account {self.user_id!r} needs a side")
        if self.category is not Category.POLITICAL and self.side is not None:
            raise CorpusFormatError(
                f"non-political account {self.user_id!r} must not carry a side")


@dataclass(frozen=True, slots=True)
class FollowRecord:
    follower_id: str
    followed_political_id: str


# ---------------------------------------------------------------------------
# text normalization
# ---------------------------------------------------------------------------


def fold_text(s: str) -> str:
    """Casefold and strip accents for keyword matching.

    Greek tonos/diaeresis are removed via NFD + combining-mark strip; the
    final sigma folds to sigma through casefold.  NFC-recomposed so equal
    strings compare equal byte-wise.  Below U+0900 each character folds on
    its own, by table: with the marks stripped, NFC only joins a starter to
    one at U+09BE or above (Indic vowel signs, Hangul V/T jamo; UAX #15).
    """
    if _WIDE.search(s) is None:
        return s.translate(_FOLD_TABLE)
    return _fold_whole(s)


def _fold_whole(s: str) -> str:
    decomposed = unicodedata.normalize("NFD", s)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", stripped).casefold()


class _FoldTable(dict):
    def __missing__(self, cp: int) -> str:
        folded = self[cp] = _fold_whole(chr(cp))
        return folded


_FOLD_TABLE = _FoldTable()  # code point -> its fold, filled on first use
_WIDE = re.compile("[^\x00-\u08ff]")


def normalize_hashtag(tag: str) -> str:
    """Lowercased NFC hashtag without the leading '#' (accents preserved)."""
    return unicodedata.normalize("NFC", tag.lstrip("#").lower())


# ---------------------------------------------------------------------------
# tweet archive loading
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "tweet_id", "author_id", "timestamp", "text", "lang", "kind",
)
_KIND_OF_VALUE = {k.value: k for k in Kind}


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_tweet(obj: dict) -> TweetRecord:
    """Build a validated TweetRecord from one decoded archive object.

    Raises CorpusFormatError on any violated invariant (missing field,
    bad enum value, a count that is not a non-negative integer, a
    hashtags/urls/referenced_user_ids value that is not a list of strings,
    a non-original post without a referenced user).  A missing or null
    count or list means 0 or empty.  The record keeps obj's lists.
    """
    fields = _check_tweet(obj)
    return _record(obj, fields, list(map(normalize_hashtag, fields.hashtags)))


class _Checked(NamedTuple):
    """The fields of an archive object that _check_tweet checks."""
    kind: Kind
    timestamp: datetime
    hashtags: list[str]  # as in the object, not normalised
    urls: list[str]
    refs: list[str]
    counts: list[int]  # like, retweet, reply
    media: list[MediaItem]


def _check_tweet(obj: dict) -> _Checked:
    """parse_tweet's checks: the checked fields of obj, or
    CorpusFormatError."""
    for name in _REQUIRED_FIELDS:
        if obj.get(name) is None:
            raise CorpusFormatError(f"missing field {name!r}")
    kind = _KIND_OF_VALUE.get(str(obj["kind"]).lower())
    if kind is None:
        raise CorpusFormatError(f"unknown kind {obj['kind']!r}")
    try:
        ts = _parse_timestamp(str(obj["timestamp"]))
    except (ValueError, OverflowError):
        raise CorpusFormatError(
            f"unparseable timestamp {obj['timestamp']!r}") from None

    # exact type() tests: bool is not a count, and a string is not a list
    lists = []
    for name in ("hashtags", "urls", "referenced_user_ids"):
        value = obj.get(name)
        if value is None:
            value = []
        try:
            if type(value) is not list:
                raise TypeError
            "".join(value)  # a TypeError unless every item is a str
        except TypeError:
            raise CorpusFormatError(
                f"{name} is not a list of strings: {value!r}") from None
        lists.append(value)
    hashtags, urls, refs = lists
    if kind is not Kind.ORIGINAL and not refs:
        raise CorpusFormatError(
            f"{kind.value} tweet must reference at least one user")

    counts = []
    for name in ("like_count", "retweet_count", "reply_count"):
        value = obj.get(name)
        if value is None:
            value = 0
        elif type(value) is not int or value < 0:
            raise CorpusFormatError(
                f"{name} is not a non-negative integer: {value!r}")
        counts.append(value)

    media = []
    items = obj.get("media")
    if items is not None and type(items) is not list:
        raise CorpusFormatError(f"media is not a list: {items!r}")
    for item in items or ():
        try:
            media.append(MediaItem(MediaKind(str(item["kind"]).lower()),
                                   str(item["url"])))
        except (KeyError, ValueError, TypeError):
            raise CorpusFormatError(f"bad media item {item!r}") from None
    return _Checked(kind, ts, hashtags, urls, refs, counts, media)


def _record(obj: dict, fields: _Checked, hashtags: list[str]) -> TweetRecord:
    """The TweetRecord of a checked obj, given its normalised hashtags;
    it cannot fail."""
    ref_tweet = obj.get("referenced_tweet_id")
    return TweetRecord(
        str(obj["tweet_id"]), str(obj["author_id"]), fields.timestamp,
        str(obj["text"]), str(obj["lang"]), fields.kind, hashtags,
        fields.urls, fields.media, fields.refs,
        None if ref_tweet is None else str(ref_tweet), *fields.counts)


def _normalized(hashtags: list[str], tags: dict[str, str]) -> list[str]:
    """normalize_hashtag of each, memoised in tags."""
    return [tags[h] if h in tags else tags.setdefault(h, normalize_hashtag(h))
            for h in hashtags]


def tweet_to_obj(t: TweetRecord) -> dict:
    """Inverse of parse_tweet, for writing archives back out."""
    ts = t.timestamp.isoformat(
        timespec="microseconds" if t.timestamp.microsecond else "seconds")
    return {
        "tweet_id": t.tweet_id,
        "author_id": t.author_id,
        "timestamp": ts.replace("+00:00", "Z"),
        "text": t.text,
        "lang": t.lang,
        "kind": t.kind.value,
        "hashtags": list(t.hashtags),
        "urls": list(t.urls),
        "media": [{"kind": m.kind.value, "url": m.url} for m in t.media],
        "referenced_user_ids": list(t.referenced_user_ids),
        "referenced_tweet_id": t.referenced_tweet_id,
        "like_count": t.like_count,
        "retweet_count": t.retweet_count,
        "reply_count": t.reply_count,
    }


_decode = json.JSONDecoder().raw_decode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # \uD800 to \uDFFF


def _checked_lines(path: Path, schema_strict: bool,
                   error_log: list | None) -> Iterator[tuple[dict, _Checked]]:
    """(object, _check_tweet fields) of each valid line of the archive.

    Every line is decoded and checked, whatever its date.  A malformed line
    is logged and skipped, or raises under schema_strict.
    """
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():  # fails on a byte that was not UTF-8
                    line.encode("utf-8")
                obj, end = _decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                if not isinstance(obj, dict):
                    raise CorpusFormatError("line is not an object")
                fields = _check_tweet(obj)
                if _SURROGATE_ESCAPE.search(line):  # fails on a lone one
                    json.dumps(tweet_to_obj(parse_tweet(obj)),
                               ensure_ascii=False).encode("utf-8")
            except (ValueError, TypeError) as exc:
                # CorpusFormatError, JSONDecodeError, UnicodeError, and any
                # other ValueError or TypeError from a bad value: malformed
                if schema_strict:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: {exc}") from exc
                if error_log is not None:
                    error_log.append((lineno, str(exc)))
                log.warning("%s:%d: skipping malformed line (%s)",
                            path, lineno, exc)
                continue
            yield obj, fields


def load_tweets(path: str | Path, schema_strict: bool = False,
                error_log: list | None = None) -> Iterator[TweetRecord]:
    """Stream a TweetRecord for every valid line of a line-delimited JSON
    archive.

    Malformed lines are skipped with a warning (collected into error_log as
    ``(line_number, message)`` when a list is passed); with schema_strict
    they raise instead.  Bytes that are not UTF-8 and escaped lone
    surrogates make a line malformed.  An unreadable file always raises.
    filter_corpus runs the same checks and builds records only for the
    tweets it keeps.
    """
    tags: dict[str, str] = {}
    for obj, fields in _checked_lines(Path(path), schema_strict, error_log):
        yield _record(obj, fields, _normalized(fields.hashtags, tags))


# ---------------------------------------------------------------------------
# rule matching and corpus filtering
# ---------------------------------------------------------------------------


@dataclass
class FilterReport:
    """Counters from one filter pass; total = kept + dropped."""

    total: int = 0
    kept: int = 0
    dropped_lang: int = 0
    dropped_window: int = 0
    dropped_no_rule: int = 0
    rule_hits: Counter = field(default_factory=Counter)

    @property
    def dropped(self) -> int:
        return self.dropped_lang + self.dropped_window + self.dropped_no_rule

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "kept": self.kept,
            "dropped": self.dropped,
            "dropped_lang": self.dropped_lang,
            "dropped_window": self.dropped_window,
            "dropped_no_rule": self.dropped_no_rule,
            "rule_hits": dict(sorted(self.rule_hits.items())),
        }


class _Matcher:
    """The keep-or-drop rule of a rule set, shared by filter_corpus and
    matches.

    Per local date, the active hashtag rules are a dict from term to keys,
    looked up once per distinct hashtag, and the active keyword rules are
    substring tests on the folded text.
    """

    def __init__(self, rule_set: RuleSet):
        self.rule_set = rule_set
        self.languages = rule_set.language_whitelist
        self.start, self.end = rule_set.utc_window()
        self.days: dict[date, tuple[dict[str, list[str]],
                                    list[tuple[str, str]]]] = {}

    def drop_reason(self, lang: str, ts: datetime) -> str | None:
        """"lang" for a language off the whitelist, "window" for a time
        outside the study window, None for a tweet inside both."""
        if lang not in self.languages:
            return "lang"
        if not self.start <= ts < self.end:
            return "window"
        return None

    def hits(self, d: date, text: str, hashtags: list[str]) -> list[str]:
        """The keys of the rules a tweet of local date d matches, one per
        matching rule."""
        if d not in self.days:
            by_tag: dict[str, list[str]] = {}
            keywords = []
            for rule in self.rule_set.rules:
                if rule.window_contains(d):
                    key = f"{rule.mode.value}:{rule.term}"
                    if rule.mode is MatchMode.HASHTAG_EXACT:
                        by_tag.setdefault(rule.term, []).append(key)
                    else:
                        keywords.append((rule.folded_term, key))
            self.days[d] = by_tag, keywords
        by_tag, keywords = self.days[d]
        keys = []
        for h in dict.fromkeys(hashtags):
            if h in by_tag:
                keys += by_tag[h]
        if keywords:
            folded = fold_text(text)
            keys += [key for term, key in keywords if term in folded]
        return keys


def kept_tweets(rule_set: RuleSet, path: str | Path, report: FilterReport,
                schema_strict: bool = False, error_log: list | None = None
                ) -> Iterator[tuple[dict, _Checked, list[str], date]]:
    """The archive's kept tweets, in file order: each one's object, checked
    fields, normalised hashtags and local date.

    One pass: each line is decoded and checked as load_tweets does, so a
    malformed line is counted (or raises under schema_strict) whatever its
    date.  A valid tweet is then tested for language, study window and
    rules, and kept if it matches at least one rule; each matching rule
    counts one hit.  Rule windows are inclusive local dates.  report
    counts the pass as it goes.
    """
    matcher = _Matcher(rule_set)
    tags: dict[str, str] = {}
    for obj, fields in _checked_lines(Path(path), schema_strict, error_log):
        report.total += 1
        reason = matcher.drop_reason(str(obj["lang"]), fields.timestamp)
        if reason == "lang":
            report.dropped_lang += 1
            continue
        if reason == "window":
            report.dropped_window += 1
            continue
        d = rule_set.local_date(fields.timestamp)
        hashtags = _normalized(fields.hashtags, tags)
        keys = matcher.hits(d, str(obj["text"]), hashtags)
        if keys:
            report.rule_hits.update(keys)
            report.kept += 1
            yield obj, fields, hashtags, d
        else:
            report.dropped_no_rule += 1


def filter_corpus(rule_set: RuleSet, path: str | Path,
                  schema_strict: bool = False, error_log: list | None = None
                  ) -> tuple[Corpus, FilterReport]:
    """The archive's kept tweets as a Corpus, and the pass's counters; see
    kept_tweets."""
    report = FilterReport()
    corpus = Corpus.from_rows(
        (str(obj["author_id"]), fields.kind, d, fields.refs, hashtags,
         fields.urls, str(obj["text"]))
        for obj, fields, hashtags, d in kept_tweets(
            rule_set, path, report, schema_strict, error_log))
    return corpus, report


def matches(rule_set: RuleSet, t: TweetRecord) -> bool:
    """True iff the tweet passes language, study window and at least one rule.

    Pure predicate, by filter_corpus's matcher; date windows are inclusive
    on both bounds.
    """
    matcher = _Matcher(rule_set)
    return (matcher.drop_reason(t.lang, t.timestamp) is None
            and bool(matcher.hits(rule_set.local_date(t.timestamp), t.text,
                                  t.hashtags)))


# ---------------------------------------------------------------------------
# the kept tweets as columns
# ---------------------------------------------------------------------------

KINDS = tuple(Kind)  # a kind code is an index into KINDS
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}


class Ragged(NamedTuple):
    """An id list per tweet: tweet i's ids are ids[ptr[i]:ptr[i + 1]]."""
    ptr: np.ndarray
    ids: np.ndarray

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tweet, id) of every entry, in order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr)), \
            self.ids


class _Table(dict):
    """key -> id, numbered in the order the keys are first met; a dict
    keeps that order whatever the hash seed."""

    def __missing__(self, key) -> int:
        self[key] = len(self)
        return len(self) - 1


def _sorted(table: _Table) -> tuple[tuple, np.ndarray]:
    """The table's keys in ascending order, and the rank of each id among
    them."""
    keys = sorted(table)
    rank = np.empty(len(keys), np.int64)
    rank[list(map(table.__getitem__, keys))] = np.arange(len(keys))
    return tuple(keys), rank


@dataclass(frozen=True, eq=False)
class Corpus:
    """Kept tweets as columns, in file order.

    users (authors and referenced users), hashtags (normalised) and urls
    are string tables, each sorted once, so id order is string order.  Per
    tweet: day is the local date's ordinal, kind a code into KINDS, author
    a user id, and ref_ids, tag_ids and url_ids are Ragged ids into users,
    hashtags and urls.
    """

    users: tuple[str, ...]
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    day: np.ndarray
    kind: np.ndarray
    author: np.ndarray
    ref_ids: Ragged
    tag_ids: Ragged
    url_ids: Ragged
    texts: list[str]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, Kind, date, Sequence[str],
                                             Sequence[str], Sequence[str],
                                             str]]) -> "Corpus":
        """Columns of (author, kind, local date, referenced users,
        normalised hashtags, urls, text) rows."""
        tables = users, hashtags, urls = _Table(), _Table(), _Table()
        ptrs = refs_at, tags_at, urls_at = [array("q", [0]) for _ in tables]
        ids = ref_ids, tag_ids, url_ids = [array("q") for _ in tables]
        day, kind, author, texts = array("q"), array("b"), array("q"), []
        for user, k, d, refs, tags, links, text in rows:
            day.append(d.toordinal())
            kind.append(_KIND_CODES[k])
            author.append(users[user])
            ref_ids.extend(map(users.__getitem__, refs))
            refs_at.append(len(ref_ids))
            tag_ids.extend(map(hashtags.__getitem__, tags))
            tags_at.append(len(tag_ids))
            url_ids.extend(map(urls.__getitem__, links))
            urls_at.append(len(url_ids))
            texts.append(text)
        tables = [_sorted(table) for table in tables]
        ragged = [Ragged(np.asarray(ptr, np.int64),
                         rank[np.asarray(column, np.int64)])
                  for ptr, column, (_, rank) in zip(ptrs, ids, tables)]
        user_rank = tables[0][1]
        return cls(*(keys for keys, _ in tables), np.asarray(day, np.int64),
                   np.asarray(kind, np.int8),
                   user_rank[np.asarray(author, np.int64)], *ragged, texts)


# ---------------------------------------------------------------------------
# companion datasets
# ---------------------------------------------------------------------------

_CATEGORY_ALIASES = {
    "individual": Category.INDIVIDUAL,
    "mediajournalist": Category.MEDIA_JOURNALIST,
    "media/journalist": Category.MEDIA_JOURNALIST,
    "media": Category.MEDIA_JOURNALIST,
    "political": Category.POLITICAL,
    "organization": Category.ORGANIZATION,
    "bot": Category.BOT,
}


def load_annotations(path: str | Path,
                     delimiter: str = ",") -> dict[str, AccountAnnotation]:
    """Read the account annotation CSV into a user_id-keyed dict.

    A bad header or row raises CorpusFormatError naming path:line.
    """
    annotations: dict[str, AccountAnnotation] = {}
    path = Path(path)
    reader = csv.DictReader(_csv_lines(path), delimiter=delimiter)
    if reader.fieldnames is None or "user_id" not in reader.fieldnames:
        raise CorpusFormatError(f"{path}:1: missing user_id header")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        uid = (row.get("user_id") or "").strip()
        if not uid:
            raise CorpusFormatError(f"{where}: empty user_id")
        if uid in annotations:
            raise CorpusFormatError(f"{where}: duplicate annotation for {uid}")
        raw_cat = (row.get("category") or "").strip()
        category = _CATEGORY_ALIASES.get(raw_cat.lower())
        if category is None:
            raise CorpusFormatError(f"{where}: unknown category {raw_cat!r}")
        raw_side = (row.get("side") or "").strip()
        try:
            side = Side(raw_side.capitalize()) if raw_side else None
            annotations[uid] = AccountAnnotation(uid, category, side)
        except ValueError as exc:  # unknown side, or side rule broken
            raise CorpusFormatError(f"{where}: {exc}") from None
    return annotations


def load_follows(path: str | Path,
                 annotations: dict[str, AccountAnnotation] | None = None,
                 delimiter: str = ",") -> list[FollowRecord]:
    """Read follow records; duplicates collapse with a warning.

    When annotations are given, every followed id must be annotated
    Political.  A bad header or row raises CorpusFormatError at path:line.
    """
    path = Path(path)
    political = None if annotations is None else {
        u for u, a in annotations.items() if a.category is Category.POLITICAL}
    seen: set[tuple[str, str]] = set()
    records: list[FollowRecord] = []
    reader = csv.reader(_csv_lines(path), delimiter=delimiter)
    # a repeated name means its last column, as in csv.DictReader
    columns = {name: i for i, name in enumerate(next(reader, None) or ())}
    if "follower_id" not in columns or "followed_political_id" not in columns:
        raise CorpusFormatError(f"{path}:1: bad follow-list header")
    a, b = columns["follower_id"], columns["followed_political_id"]
    for row in reader:
        if not row:  # a blank line
            continue
        pair = ((row[a] if a < len(row) else "").strip(),
                (row[b] if b < len(row) else "").strip())
        if not pair[0] or not pair[1]:
            raise CorpusFormatError(
                f"{path}:{reader.line_num}: incomplete follow row {row}")
        if pair in seen:
            log.warning("%s:%d: duplicate follow pair %s", path,
                        reader.line_num, pair)
            continue
        seen.add(pair)
        if political is not None and pair[1] not in political:
            raise CorpusFormatError(
                f"{path}:{reader.line_num}: followed id {pair[1]!r} is "
                "not an annotated political account")
        records.append(FollowRecord(*pair))
    return records


def _csv_lines(path: Path) -> Iterator[str]:
    """path's lines for csv; one with bytes that are not UTF-8 raises."""
    with path.open("r", encoding="utf-8", errors="surrogateescape",
                   newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:  # a byte that was not UTF-8 is now a lone surrogate
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: not UTF-8 text") from None
            yield line


# ---------------------------------------------------------------------------
# rule set (de)serialization
# ---------------------------------------------------------------------------


_MATCH_MODES = {m.value: m for m in MatchMode}


def _parse_date(raw, key: str) -> date | None:
    """An ISO date string; None for null or ""."""
    if raw is None or raw == "":
        return None
    try:
        return date.fromisoformat(raw)
    except (TypeError, ValueError):
        raise CorpusFormatError(
            f"{key!r} must be an ISO date, got {raw!r}") from None


def rule_set_from_dict(obj: dict) -> RuleSet:
    """RuleSet from its JSON form, checking every value's JSON type.

    Nothing is coerced: a wrong value raises CorpusFormatError naming its
    key.  language_whitelist defaults to ["el"], date_offset_minutes to 0.
    """
    if type(obj) is not dict:
        raise CorpusFormatError("rule set must be a JSON object")
    entries = obj.get("rules", [])
    languages = obj.get("language_whitelist", ["el"])
    offset = obj.get("date_offset_minutes", 0)
    window = obj.get("study_window")
    for key, value, ok, what in (
            ("rules", entries, type(entries) is list, "a list"),
            ("language_whitelist", languages, type(languages) is list
             and languages and all(type(x) is str for x in languages),
             "a non-empty list of strings"),
            ("date_offset_minutes", offset, type(offset) is int,
             "an integer"),
            ("study_window", window, type(window) is list
             and len(window) == 2, "a list of two ISO dates")):
        if not ok:
            raise CorpusFormatError(f"{key!r} must be {what}, got {value!r}")
    rules = []
    for entry in entries:
        well_typed = (type(entry) is dict and type(entry.get("term")) is str
                      and type(entry.get("mode")) is str)
        mode = _MATCH_MODES.get(entry["mode"].lower()) if well_typed else None
        if mode is None:
            raise CorpusFormatError(f"bad rule entry {entry!r}")
        rules.append(FilterRule(
            term=entry["term"],
            mode=mode,
            active_from=_parse_date(entry.get("active_from"), "active_from"),
            active_until=_parse_date(entry.get("active_until"),
                                     "active_until"),
        ))
    lo, hi = (_parse_date(w, "study_window") for w in window)
    if lo is None or hi is None:
        raise CorpusFormatError(
            f"'study_window' must be a list of two ISO dates, got {window!r}")
    return RuleSet(rules=rules, language_whitelist=set(languages),
                   study_window=(lo, hi), date_offset_minutes=offset)


def load_rule_set(path: str | Path) -> RuleSet:
    """Read a rule-set JSON file; a format error names the path."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return rule_set_from_dict(json.load(fh))
    except ValueError as exc:  # bad UTF-8 or JSON, or a CorpusFormatError
        raise CorpusFormatError(f"{path}: {exc}") from exc


def default_rule_set() -> RuleSet:
    """The shipped tracked-term configuration."""
    text = resources.files("polmon").joinpath("data/default_rules.json") \
        .read_text(encoding="utf-8")
    return rule_set_from_dict(json.loads(text))
