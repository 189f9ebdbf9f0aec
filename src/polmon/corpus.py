"""Tweet corpus loading, validation, rule filtering and companion datasets.

File formats (all consumed here, all documented in the README):

  - tweet archive: one JSON object per line with fields tweet_id, author_id,
    timestamp (ISO-8601 UTC), text, lang, kind, hashtags, urls, media,
    referenced_user_ids, referenced_tweet_id, like_count, retweet_count,
    reply_count.  For retweets/quotes/replies the primary referenced author
    (the retweeted/quoted/replied-to user) comes first in
    referenced_user_ids; mentions follow.  The six required fields,
    referenced_tweet_id and a media url are each a JSON string or integer,
    and the timestamp is a string.
  - annotations: CSV with header ``user_id,category,side``; read into
    ``Annotations``, category and side code columns over a sorted user
    table, which ``join_onto`` lays over another sorted user table
  - follow lists: CSV with header ``follower_id,followed_political_id``
  - rule set: JSON with keys rules[].term, rules[].mode, rules[].active_from,
    rules[].active_until, language_whitelist, study_window and an optional
    date_offset_minutes for local-time day bucketing (default 0 = UTC).

``json_value`` is the one reader of a rule set's values and of a run
config's (``pipeline.RunConfig.from_file``): it tests each value against
the JSON form of the type it becomes, converts it, and otherwise raises
CorpusFormatError "'<key>' must be <form>, got <value>".

A default rule set (the tracked keyword/hashtag list with its per-term
activation windows) ships as package data; ``default_rule_set()`` loads it.

A tweet is held as its decoded object and its ``Checked`` fields:
``load_tweets`` decodes and checks every line of an archive and yields the
two for each valid one; it reads the archive in blocks of whole lines and
decodes each block as UTF-8 at once.  ``kept_tweets`` is the one
keep-or-drop pass over it: it tests the language, then the study window
on the tweet's local date (``RuleSet.local_date``), then the rules, and
yields each kept tweet.  Rules are matched by lookup: a dict from hashtag
term to rule keys per local date, and keyword terms tested against the
text as ``fold_text`` folds it (ASCII and Greek through an ISO-8859-7 byte
table).
``filter_corpus`` fills a ``Corpus`` in its own loop over the kept tweets,
as it keeps each one: numpy columns over sorted, interned string tables,
which the graph, stats and share stages read; no text is kept.  Asked for
words, it also stores each text's words as ids into a word table, which
only the summary's word and phrase counts read.  A text's words are its
runs of letters, split by ``_words``: ISO-8859-7 text through a byte
table that turns each byte but a letter's into a space, other text by the
regex itself.  ``archive_obj`` gives the object that filtered.jsonl holds
for a kept tweet.
"""

from __future__ import annotations

import codecs
import csv
import json
import logging
import re
import unicodedata
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from encodings import iso8859_7
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


# Each vocabulary is one tuple of names.  A column holds a name's code, its
# index in the tuple, and a writer writes TUPLE[code]; a rule holds its mode
# as the name itself.
KINDS = ("original", "retweet", "quote", "reply")
MATCH_MODES = ("hashtag", "keyword")
CATEGORIES = ("Individual", "MediaJournalist", "Political", "Organization",
              "Bot")
SIDES = ("Left", "Right", "Center")  # -1 is no side


@dataclass
class FilterRule:
    term: str
    mode: str  # one of MATCH_MODES
    active_from: date | None = None
    active_until: date | None = None
    # fold_text(term) of a keyword rule, computed once here
    folded_term: str = field(init=False, default="", repr=False)

    def __post_init__(self):
        if self.mode not in MATCH_MODES:
            raise CorpusFormatError(f"bad rule entry {self!r}")
        if self.mode == "hashtag":
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
    _shift: timedelta = field(init=False, repr=False)

    def __post_init__(self):
        if not self.rules:
            raise CorpusFormatError("rule set needs at least one rule")
        lo, hi = self.study_window
        if lo > hi:
            raise CorpusFormatError("study_window is not well-ordered")
        if not -1440 < self.date_offset_minutes < 1440:
            raise CorpusFormatError("'date_offset_minutes' must lie within a "
                                    f"day, got {self.date_offset_minutes!r}")
        self._shift = timedelta(minutes=self.date_offset_minutes)

    def local_date(self, ts: datetime) -> date | None:
        """Calendar date of ts under the offset; None past date.min/max."""
        try:
            return (ts + self._shift).date()
        except OverflowError:
            return None


# ---------------------------------------------------------------------------
# text normalization
# ---------------------------------------------------------------------------


def fold_text(s: str) -> str:
    """Casefold and strip accents for keyword matching.

    Greek tonos/diaeresis are removed via NFD + combining-mark strip; the
    final sigma folds to sigma through casefold.  NFC-recomposed so equal
    strings compare equal byte-wise.  Two paths give that fold.  Text that
    ISO-8859-7 encodes (ASCII and monotonic Greek) folds byte by byte
    through _BYTE_FOLDS: each character of that code page folds to exactly
    one character of it (checked as the table is built), and with the
    marks stripped NFC joins none of them to another (it only joins a
    starter to an Indic vowel sign or a Hangul V/T jamo; UAX #15), so each
    byte's fold is its character's fold.  Other text folds as a whole.
    """
    try:
        raw = codecs.charmap_encode(s, None, iso8859_7.encoding_table)[0]
    except UnicodeEncodeError:
        return _fold_whole(s)
    return codecs.charmap_decode(raw.translate(_BYTE_FOLDS), None,
                                 iso8859_7.decoding_table)[0]


def _fold_whole(s: str) -> str:
    decomposed = unicodedata.normalize("NFD", s)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", stripped).casefold()


def _byte_folds() -> bytes:
    """Each ISO-8859-7 byte's fold.  Raises unless each character of the
    code page folds to exactly one character of it: RuntimeError for a
    fold of another length, UnicodeEncodeError for one outside it."""
    chars = iso8859_7.decoding_table  # "\ufffe" at the 3 undefined bytes
    folds = [_fold_whole(ch) for ch in chars]
    bad = [ch for ch, folded in zip(chars, folds) if len(folded) != 1]
    if bad:
        raise RuntimeError(f"{bad} do not fold to one character each")
    return "".join(folds).replace("\ufffe", "\0").encode("iso8859_7")


_BYTE_FOLDS = _byte_folds()


def normalize_hashtag(tag: str) -> str:
    """Lowercased NFC hashtag without the leading '#' (accents preserved)."""
    return unicodedata.normalize("NFC", tag.lstrip("#").lower())


# ---------------------------------------------------------------------------
# tweet archive loading
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "tweet_id", "author_id", "timestamp", "text", "lang", "kind",
)
_KIND_OF_VALUE = {k: i for i, k in enumerate(KINDS)}  # name -> kind code
# the types a scalar field may have in JSON: a bool or a float is neither
_SCALARS = (str, int)


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


class Checked(NamedTuple):
    """The fields of an archive object that _check_tweet checks."""
    kind: int  # a code into KINDS
    timestamp: datetime  # UTC
    hashtags: list[str]  # as in the object, not normalised
    urls: list[str]
    refs: list[str]
    counts: list[int]  # like, retweet, reply
    media: list[dict]  # {"kind": "image" or "video", "url": str}


def _check_tweet(obj: dict) -> Checked:
    """The checked fields of one decoded archive object.

    Raises CorpusFormatError on any violated invariant (missing field,
    unknown kind, a count that is not a non-negative integer, a
    hashtags/urls/referenced_user_ids value that is not a list of strings,
    a non-original post without a referenced user, a required field,
    referenced_tweet_id or media url that is neither a string nor an
    integer, a timestamp that is not a string).  A missing or null count
    or list means 0 or empty.  The fields keep obj's lists.
    """
    for name in _REQUIRED_FIELDS:
        value = obj.get(name)
        if type(value) not in _SCALARS:
            raise CorpusFormatError(
                f"missing field {name!r}" if value is None else
                f"{name} is not a string or an integer: {value!r}")
    kind = _KIND_OF_VALUE.get(str(obj["kind"]).lower())
    if kind is None:
        raise CorpusFormatError(f"unknown kind {obj['kind']!r}")
    try:
        ts = _parse_timestamp(obj["timestamp"])
    except AttributeError:  # an integer, which has no replace()
        raise CorpusFormatError(
            f"timestamp is not a string: {obj['timestamp']!r}") from None
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
    if kind and not refs:  # any kind but original, code 0
        raise CorpusFormatError(
            f"{KINDS[kind]} tweet must reference at least one user")

    counts = []
    for name in ("like_count", "retweet_count", "reply_count"):
        value = obj.get(name)
        if value is None:
            value = 0
        elif type(value) is not int or value < 0:
            raise CorpusFormatError(
                f"{name} is not a non-negative integer: {value!r}")
        counts.append(value)
    ref_tweet = obj.get("referenced_tweet_id")
    if ref_tweet is not None and type(ref_tweet) not in _SCALARS:
        raise CorpusFormatError("referenced_tweet_id is not a string or an "
                                f"integer: {ref_tweet!r}")

    media = []
    items = obj.get("media")
    if items is not None and type(items) is not list:
        raise CorpusFormatError(f"media is not a list: {items!r}")
    for item in items or ():
        try:
            media_kind, url = str(item["kind"]).lower(), item["url"]
            if media_kind not in ("image", "video") or (
                    type(url) not in _SCALARS):
                raise ValueError
            media.append({"kind": media_kind, "url": str(url)})
        except (KeyError, ValueError, TypeError):
            raise CorpusFormatError(f"bad media item {item!r}") from None
    return tuple.__new__(Checked, (kind, ts, hashtags, urls, refs, counts,
                                   media))  # skips Checked.__new__'s frame


def archive_obj(obj: dict, fields: Checked, hashtags: list[str]) -> dict:
    """The object filtered.jsonl holds for a checked obj and its hashtags:
    ids, text and language as strings, and the timestamp in UTC with a Z
    and with microseconds only when they are not zero."""
    ts = fields.timestamp.isoformat(
        timespec="microseconds" if fields.timestamp.microsecond else "seconds")
    ref_tweet = obj.get("referenced_tweet_id")
    like, retweet, reply = fields.counts
    return {
        "tweet_id": str(obj["tweet_id"]),
        "author_id": str(obj["author_id"]),
        "timestamp": ts.replace("+00:00", "Z"),
        "text": str(obj["text"]),
        "lang": str(obj["lang"]),
        "kind": KINDS[fields.kind],
        "hashtags": hashtags,
        "urls": fields.urls,
        "media": fields.media,
        "referenced_user_ids": fields.refs,
        "referenced_tweet_id": None if ref_tweet is None else str(ref_tweet),
        "like_count": like,
        "retweet_count": retweet,
        "reply_count": reply,
    }


def _normalized(hashtags: list[str], tags: dict[str, str]) -> list[str]:
    """normalize_hashtag of each, memoised in tags."""
    return [tags[h] if h in tags else tags.setdefault(h, normalize_hashtag(h))
            for h in hashtags]


_decode = json.JSONDecoder().raw_decode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # \uD800 to \uDFFF
# bytes of whole lines that load_tweets decodes at once; 64 KiB blocks were
# no faster and left the heap about 0.4 MB larger after the filter
_BLOCK = 1 << 13


def load_tweets(path: str | Path, schema_strict: bool = False,
                error_log: list | None = None
                ) -> Iterator[tuple[dict, Checked]]:
    """Stream (object, checked fields) for every valid line of a
    line-delimited JSON archive, whatever its date.  Lines end at LF only,
    and lose only JSON whitespace (space, tab, CR, LF) from their ends.

    Malformed lines are skipped with a warning (collected into error_log as
    ``(line_number, message)`` when a list is passed); with schema_strict
    they raise instead.  Bytes that are not UTF-8 make a line malformed,
    with a message that names the first byte that does not decode, and so
    does a lone surrogate escape in what archive_obj would write of it.  An
    unreadable file always raises.

    The file is read in blocks of whole lines, about _BLOCK bytes each.  A
    block is decoded as UTF-8 and searched for surrogate escapes once; only
    the lines of a block that fails to decode are decoded one by one, and
    only those of a block with an escape are searched one by one.
    """
    path = Path(path)
    done = 0  # lines in the blocks before this one
    with path.open("rb") as fh:
        while block := fh.readlines(_BLOCK):
            try:
                text = b"".join(block).decode("utf-8")
                lines = text.split("\n")
                escaped = _SURROGATE_ESCAPE.search(text) is not None
            except UnicodeDecodeError:
                lines, escaped = block, True  # bytes: decoded line by line
            for lineno, line in enumerate(lines, start=done + 1):
                try:
                    if lines is block:  # names the byte it cannot decode
                        line = line.decode("utf-8")
                    line = line.strip(" \t\r\n")
                    if not line:
                        continue
                    obj, end = _decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                    if not isinstance(obj, dict):
                        raise CorpusFormatError("line is not an object")
                    fields = _check_tweet(obj)
                    if escaped and _SURROGATE_ESCAPE.search(line):
                        # fails on a lone one; normalising a hashtag keeps
                        # or drops no surrogate
                        json.dumps(archive_obj(obj, fields, fields.hashtags),
                                   ensure_ascii=False).encode("utf-8")
                except (ValueError, TypeError) as exc:
                    # CorpusFormatError, JSONDecodeError, UnicodeError and
                    # any other ValueError or TypeError from a bad value
                    if schema_strict:
                        raise CorpusFormatError(
                            f"{path}:{lineno}: {exc}") from exc
                    if error_log is not None:
                        error_log.append((lineno, str(exc)))
                    log.warning("%s:%d: skipping malformed line (%s)",
                                path, lineno, exc)
                    continue
                yield obj, fields
            done += len(block)


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
    """The rules of a rule set, by local date.

    Per local date, the active hashtag rules are a dict from term to keys,
    looked up once per distinct hashtag, and the active keyword rules are
    substring tests on the folded text.
    """

    def __init__(self, rule_set: RuleSet):
        self.rule_set = rule_set
        self.days: dict[date, tuple[dict[str, list[str]],
                                    list[tuple[str, str]]]] = {}

    def hits(self, d: date, text: str, hashtags: list[str]) -> list[str]:
        """The keys of the rules a tweet of local date d matches, one per
        matching rule."""
        if d not in self.days:
            by_tag: dict[str, list[str]] = {}
            keywords = []
            for rule in self.rule_set.rules:
                if rule.window_contains(d):
                    key = f"{rule.mode}:{rule.term}"
                    if rule.mode == "hashtag":
                        by_tag.setdefault(rule.term, []).append(key)
                    else:
                        keywords.append((rule.folded_term, key))
            self.days[d] = by_tag, keywords
        by_tag, keywords = self.days[d]
        keys = []
        for h in dict.fromkeys(hashtags) if len(hashtags) > 1 else hashtags:
            if h in by_tag:
                keys += by_tag[h]
        if keywords:
            folded = fold_text(text)
            for term, key in keywords:
                if term in folded:
                    keys.append(key)
        return keys


def kept_tweets(rule_set: RuleSet, path: str | Path, report: FilterReport,
                schema_strict: bool = False, error_log: list | None = None
                ) -> Iterator[tuple[dict, Checked, list[str], date]]:
    """The archive's kept tweets, in file order: each one's object, checked
    fields, normalised hashtags and local date.

    One pass over load_tweets, so a malformed line is counted (or raises
    under schema_strict) whatever its date.  A valid tweet is then tested
    for language, study window and rules, and kept if it matches at least
    one rule; each matching rule counts one hit.  The study window and the
    rule windows are inclusive local dates, and a timestamp whose local
    date falls past the calendar's ends is outside the study window.
    report counts the pass as it goes.
    """
    languages, (lo, hi) = rule_set.language_whitelist, rule_set.study_window
    matcher = _Matcher(rule_set)
    tags: dict[str, str] = {}
    for obj, fields in load_tweets(path, schema_strict, error_log):
        report.total += 1
        if str(obj["lang"]) not in languages:
            report.dropped_lang += 1
            continue
        d = rule_set.local_date(fields.timestamp)
        if d is None or not lo <= d <= hi:
            report.dropped_window += 1
            continue
        hashtags = _normalized(fields.hashtags, tags)
        keys = matcher.hits(d, str(obj["text"]), hashtags)
        if keys:
            for key in keys:  # faster than Counter.update
                report.rule_hits[key] += 1
            report.kept += 1
            yield obj, fields, hashtags, d
        else:
            report.dropped_no_rule += 1


# ---------------------------------------------------------------------------
# the kept tweets as columns
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)  # a word: a run of letters
# each ISO-8859-7 byte as itself if _WORD_RE counts its character as a
# letter, else as a space; "\ufffe" at the 3 undefined bytes is no letter
_WORD_BYTES = bytes(b if _WORD_RE.fullmatch(ch) else 0x20
                    for b, ch in enumerate(iso8859_7.decoding_table))


def _words(text: str) -> list[str]:
    """_WORD_RE.findall(text), the text's runs of letters in order.

    Text that ISO-8859-7 encodes (ASCII and monotonic Greek) goes through
    _WORD_BYTES, which turns each byte that is not a letter into a space,
    and is split at the spaces: _WORD_RE tests each character on its own
    and no letter is whitespace, so split() gives exactly its runs.  Other
    text is searched with _WORD_RE itself.
    """
    try:
        raw = codecs.charmap_encode(text, None, iso8859_7.encoding_table)[0]
    except UnicodeEncodeError:
        return _WORD_RE.findall(text)
    return codecs.charmap_decode(raw.translate(_WORD_BYTES), None,
                                 iso8859_7.decoding_table)[0].split()


class Ragged(NamedTuple):
    """An id list per tweet: tweet i's ids are ids[ptr[i]:ptr[i + 1]]."""
    ptr: np.ndarray
    ids: np.ndarray

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tweet, id) of every entry, in order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr)), \
            self.ids


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D array: sorted, then each run of equal values
    kept once.  np.unique itself tests for a masked array when called
    without its return_* flags, which imports numpy.ma on first use."""
    a = np.sort(a)
    first = np.ones(len(a), bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


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
    """Kept tweets as columns, in file order.  filter_corpus is its one
    maker: it fills the columns as it keeps each tweet.

    users (authors and referenced users), hashtags (normalised) and urls
    are string tables, each sorted once, so id order is string order.  Per
    tweet: day is the local date's ordinal, kind a code into KINDS, author
    a user id, and ref_ids, tag_ids and url_ids are Ragged ids into users,
    hashtags and urls.  words is the table of the texts' words (runs of
    letters, as written), numbered in the order they are first met, not
    sorted; word_ids holds each text's words in order as Ragged int32 ids
    into it.  Only the summary's word counts read them, so both are None
    unless filter_corpus was asked for words.
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
    words: tuple[str, ...] | None
    word_ids: Ragged | None


def filter_corpus(rule_set: RuleSet, path: str | Path,
                  schema_strict: bool = False, error_log: list | None = None,
                  words: bool = False) -> tuple[Corpus, FilterReport]:
    """The archive's kept tweets as a Corpus, each one's columns filled as
    kept_tweets keeps it, and the pass's counters; see kept_tweets.  Only
    with words are the texts split into the word table and word_ids;
    otherwise both are None."""
    report = FilterReport()
    tables = [_Table() for _ in range(3)]  # users, hashtags, urls
    ptrs = [array("q", [0]) for _ in tables]
    ids = ref_ids, tag_ids, url_ids = [array("q") for _ in tables]
    day, kind, author = array("q"), array("b"), array("q")
    word_table, word_ids, words_at = _Table(), array("i"), array("q", [0])
    # each bound method once, not once per kept tweet
    user_id, tag_id, url_id, word_id = (
        table.__getitem__ for table in (*tables, word_table))
    add_day, add_kind, add_author = day.append, kind.append, author.append
    add_refs, add_tags, add_urls, add_words = (
        column.extend for column in (*ids, word_ids))
    end_refs, end_tags, end_urls, end_words = (
        ptr.append for ptr in (*ptrs, words_at))
    for obj, fields, tags, d in kept_tweets(rule_set, path, report,
                                            schema_strict, error_log):
        add_day(d.toordinal())
        add_kind(fields.kind)
        add_author(user_id(str(obj["author_id"])))
        add_refs(map(user_id, fields.refs))
        end_refs(len(ref_ids))
        add_tags(map(tag_id, tags))
        end_tags(len(tag_ids))
        add_urls(map(url_id, fields.urls))
        end_urls(len(url_ids))
        if words:
            add_words(map(word_id, _words(str(obj["text"]))))
            end_words(len(word_ids))
    tables = [_sorted(table) for table in tables]
    ragged = [Ragged(np.asarray(ptr, np.int64),
                     rank[np.asarray(column, np.int64)])
              for ptr, column, (_, rank) in zip(ptrs, ids, tables)]
    user_rank = tables[0][1]
    text_words = (tuple(word_table), Ragged(np.asarray(words_at, np.int64),
                                            np.asarray(word_ids, np.int32))
                  ) if words else (None, None)
    return Corpus(*(keys for keys, _ in tables), np.asarray(day, np.int64),
                  np.asarray(kind, np.int8),
                  user_rank[np.asarray(author, np.int64)], *ragged,
                  *text_words), report


# ---------------------------------------------------------------------------
# companion datasets
# ---------------------------------------------------------------------------

# lowercased spelling -> category code
_CATEGORY_ALIASES = {c.lower(): i for i, c in enumerate(CATEGORIES)} | {
    alias: CATEGORIES.index("MediaJournalist")
    for alias in ("media/journalist", "media")}
_SIDE_CODES = {"": -1} | {side: i for i, side in enumerate(SIDES)}


def join_onto(table: Sequence[str], keys: Iterable[str],
              values: np.ndarray) -> np.ndarray:
    """values[k] at the index of keys[k] in the sorted table, 0 elsewhere:
    one bisection per key, none per entry; a key not in table is left out."""
    out = np.zeros(len(table), values.dtype)
    for key, value in zip(keys, values.tolist()):
        i = bisect_left(table, key)
        if i < len(table) and table[i] == key:
            out[i] = value
    return out


class Annotations(NamedTuple):
    """Annotated accounts as columns: users[i] of the sorted users has
    category code category[i] and side code side[i], -1 unless it is
    Political.  Code 0, Individual, is what join_onto gives the rest."""
    users: tuple[str, ...]
    category: np.ndarray
    side: np.ndarray


def load_annotations(path: str | Path) -> Annotations:
    """Read the account annotation CSV, where a Political account needs a
    side and no other may carry one; a bad header or row raises
    CorpusFormatError naming path:line."""
    codes: dict[str, tuple[int, int]] = {}
    path = Path(path)
    reader = csv.DictReader(_csv_lines(path))
    if reader.fieldnames is None or "user_id" not in reader.fieldnames:
        raise CorpusFormatError(f"{path}:1: missing user_id header")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        uid = (row.get("user_id") or "").strip()
        if not uid:
            raise CorpusFormatError(f"{where}: empty user_id")
        if uid in codes:
            raise CorpusFormatError(f"{where}: duplicate annotation for {uid}")
        raw_cat = (row.get("category") or "").strip()
        category = _CATEGORY_ALIASES.get(raw_cat.lower())
        if category is None:
            raise CorpusFormatError(f"{where}: unknown category {raw_cat!r}")
        raw_side = (row.get("side") or "").strip().capitalize()
        side = _SIDE_CODES.get(raw_side)
        if side is None:
            raise CorpusFormatError(f"{where}: {raw_side!r} is not a valid "
                                    "Side")
        if (CATEGORIES[category] == "Political") != (side >= 0):
            raise CorpusFormatError(f"{where}: " + (
                f"political account {uid!r} needs a side" if side < 0 else
                f"non-political account {uid!r} must not carry a side"))
        codes[uid] = category, side
    users = tuple(sorted(codes))
    category, side = np.array([codes[u] for u in users],
                              np.int8).reshape(-1, 2).T
    return Annotations(users, category, side)


class Follows(NamedTuple):
    """A follow list's distinct pairs as columns: followers[follower[k]]
    follows accounts[account[k]], and side[account[k]] is that account's
    side code into SIDES.  Both tables are sorted, and the pairs are in
    ascending (follower, account) order."""
    followers: tuple[str, ...]
    accounts: tuple[str, ...]
    side: np.ndarray
    follower: np.ndarray
    account: np.ndarray


def load_follows(path: str | Path, annotations: Annotations) -> Follows:
    """Read a follow list, and join each followed id to its annotated side;
    a duplicate pair collapses with a warning that names its line.

    Every followed id must be annotated Political.  A bad header or row
    raises CorpusFormatError at path:line, after the warnings for the
    duplicates above it.
    """
    path = Path(path)
    side_of = {u: s for u, s in zip(annotations.users,
                                    annotations.side.tolist()) if s >= 0}
    followers, accounts = _Table(), _Table()
    src, dst, line_of = array("q"), array("q"), array("q")
    reader = csv.reader(_csv_lines(path))
    # a repeated name means its last column, as in csv.DictReader
    columns = {name: i for i, name in enumerate(next(reader, None) or ())}
    if "follower_id" not in columns or "followed_political_id" not in columns:
        raise CorpusFormatError(f"{path}:1: bad follow-list header")
    a, b = columns["follower_id"], columns["followed_political_id"]
    error = None
    try:
        for row in reader:
            if not row:  # a blank line
                continue
            pair = ((row[a] if a < len(row) else "").strip(),
                    (row[b] if b < len(row) else "").strip())
            if not pair[0] or not pair[1]:
                raise CorpusFormatError(
                    f"{path}:{reader.line_num}: incomplete follow row {row}")
            # a duplicate's followed id passed this check on its first row
            if pair[1] not in side_of:
                raise CorpusFormatError(
                    f"{path}:{reader.line_num}: followed id {pair[1]!r} is "
                    "not an annotated political account")
            src.append(followers[pair[0]])
            dst.append(accounts[pair[1]])
            line_of.append(reader.line_num)
    except Exception as exc:  # raised once the duplicates above it are named
        error = exc
    (follower_table, follower_rank), (account_table, account_rank) = (
        _sorted(followers), _sorted(accounts))
    width = max(len(account_table), 1)
    keys = (follower_rank[np.asarray(src, np.int64)] * width
            + account_rank[np.asarray(dst, np.int64)])
    pairs = _distinct(keys)
    if len(pairs) < len(keys):  # name each row that repeats a pair
        first = np.unique(keys, return_index=True)[1]
        for k in np.delete(np.arange(len(keys)), first).tolist():
            log.warning("%s:%d: duplicate follow pair %s", path, line_of[k],
                        (follower_table[keys[k] // width],
                         account_table[keys[k] % width]))
    if error is not None:
        raise error
    log.debug("%s: %d follow pairs read, %d duplicates collapsed, %d "
              "distinct followers", path, len(keys), len(keys) - len(pairs),
              len(follower_table))
    return Follows(follower_table, account_table,
                   np.array([side_of[a] for a in account_table], np.int8),
                   *np.divmod(pairs, width))


def _csv_lines(path: Path) -> Iterator[str]:
    """path's lines, with their ends as csv wants them and without a
    leading byte-order mark; a line that is not UTF-8 raises
    CorpusFormatError at path:line."""
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape",
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


def _reject_unknown(obj: dict, cls: type, what: str) -> None:
    """Raise naming each key of obj that is not an init field of cls."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise CorpusFormatError(
            f"{what}: unknown key " + ", ".join(map(repr, unknown)))


# the JSON forms of the values of a rule set or a run config, by the type
# they convert to: a test of the JSON value, what the value must be, and
# its conversion.  bool is not a number here, and "" or null leave a path
# or a date unset.
_JSON_FORMS = {
    "float": (lambda v: type(v) in (int, float), "a number", float),
    "int": (lambda v: type(v) is int, "an integer", int),
    "bool": (lambda v: type(v) is bool, "true or false", bool),
    "tuple[float, ...]": (
        lambda v: type(v) is list and all(type(t) in (int, float) for t in v),
        "a list of numbers", tuple),
    "Path": (lambda v: v is None or type(v) is str, "a string",
             lambda v: Path(v) if v else None),
    "date": (lambda v: v is None or type(v) is str, "an ISO date",
             lambda v: date.fromisoformat(v) if v else None),
    "list": (lambda v: type(v) is list, "a list", list),
    "set[str]": (lambda v: type(v) is list and v
                 and all(type(x) is str for x in v),
                 "a non-empty list of strings", set),
    "tuple[date, date]": (lambda v: type(v) is list and len(v) == 2,
                          "a list of two ISO dates",
                          lambda v: tuple(map(date.fromisoformat, v))),
}


def json_value(key: str, value, form: str):
    """value converted by the JSON form named form (_JSON_FORMS); a value
    that fails the form's test or conversion raises CorpusFormatError
    naming key."""
    test, what, convert = _JSON_FORMS[form]
    try:
        if test(value):
            return convert(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise CorpusFormatError(f"{key!r} must be {what}, got {value!r}")


def rule_set_from_dict(obj: dict) -> RuleSet:
    """RuleSet from its JSON form, checking every value's JSON type.

    Nothing is coerced: a wrong value or an unknown key raises
    CorpusFormatError naming the key.  language_whitelist defaults to
    ["el"], date_offset_minutes to 0.
    """
    if type(obj) is not dict:
        raise CorpusFormatError("rule set must be a JSON object")
    _reject_unknown(obj, RuleSet, "rule set")
    entries = json_value("rules", obj.get("rules", []), "list")
    languages = json_value("language_whitelist",
                           obj.get("language_whitelist", ["el"]), "set[str]")
    offset = json_value("date_offset_minutes",
                        obj.get("date_offset_minutes", 0), "int")
    window = json_value("study_window", obj.get("study_window"),
                        "tuple[date, date]")
    rules = []
    for entry in entries:
        well_typed = (type(entry) is dict and type(entry.get("term")) is str
                      and type(entry.get("mode")) is str)
        mode = entry["mode"].lower() if well_typed else None
        if mode not in MATCH_MODES:
            raise CorpusFormatError(f"bad rule entry {entry!r}")
        _reject_unknown(entry, FilterRule, f"bad rule entry {entry!r}")
        rules.append(FilterRule(
            term=entry["term"],
            mode=mode,
            active_from=json_value("active_from", entry.get("active_from"),
                                   "date"),
            active_until=json_value("active_until", entry.get("active_until"),
                                    "date"),
        ))
    return RuleSet(rules=rules, language_whitelist=languages,
                   study_window=window, date_offset_minutes=offset)


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
