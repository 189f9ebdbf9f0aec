import json
import sys
import tempfile
import unicodedata
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from polmon.corpus import (Annotations, Corpus, FilterReport, FilterRule,
                           Follows, RuleSet, filter_corpus)
from polmon.graphkit import InteractionGraph
from polmon.stance import StanceMap

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracles`

from oracles import (CATEGORIES, KINDS, SIDES, STANCES,  # noqa: E402
                     Account, TweetRecord, letter_runs, tweet_to_obj)

DATA = Path(__file__).parent / "data"


def graph_of(edges, isolated=(), users=None) -> InteractionGraph:
    """Small-graph literal: edge pairs plus extra isolated nodes, over the
    sorted user table users (default: the graph's own nodes)."""
    nodes = set(isolated)
    cleaned = set()
    for u, v in edges:
        nodes.update((u, v))
        cleaned.add((u, v) if u < v else (v, u))
    users = tuple(sorted(nodes) if users is None else users)
    position = {u: i for i, u in enumerate(users)}
    ids = sorted(position[u] for u in nodes)
    index = {users[i]: k for k, i in enumerate(ids)}
    return InteractionGraph.from_pairs(
        users, np.array(ids, np.int64),
        np.array([index[u] for u, _ in cleaned], np.int64),
        np.array([index[v] for _, v in cleaned], np.int64))


_NAMES = dict(zip("LRCN", STANCES))  # a stance's letter -> its name


def stances_of(users, labels) -> StanceMap:
    """A stance map over the user table users with the given labels (a
    stance name, or its letter L, R, C or N, per user id); users without a
    label are Neutral, and every tally is zero."""
    label = [labels.get(u, "Neutral") for u in users]
    code = [STANCES.index(_NAMES.get(x, x)) for x in label]
    return StanceMap(tuple(users), np.zeros((len(users), 3), np.int64),
                     np.array(code, np.int8), 0.0)


def _side_code(side) -> int:
    return -1 if side is None else SIDES.index(side)


def annotations_of(accounts) -> Annotations:
    """Annotations of a dict from user id to Account, as load_annotations
    holds them."""
    users = tuple(sorted(accounts))
    return Annotations(
        users,
        np.array([CATEGORIES.index(accounts[u].category) for u in users],
                 np.int8),
        np.array([_side_code(accounts[u].side) for u in users], np.int8))


def accounts_of(annotations: Annotations) -> dict:
    """The dict from user id to Account that annotations holds."""
    return {u: Account(CATEGORIES[c], None if s < 0 else SIDES[s])
            for u, c, s in zip(annotations.users,
                               annotations.category.tolist(),
                               annotations.side.tolist())}


def follows_of(pairs, annotations) -> Follows:
    """Follows of (follower, followed) id pairs, as load_follows holds
    them: sorted tables, each account's side code from the dict
    annotations, and distinct pairs in ascending order."""
    pairs = sorted(set(pairs))
    followers = tuple(sorted({f for f, _ in pairs}))
    accounts = tuple(sorted({a for _, a in pairs}))
    return Follows(
        followers, accounts,
        np.array([_side_code(annotations[a].side) for a in accounts], np.int8),
        np.array([followers.index(f) for f, _ in pairs], np.int64),
        np.array([accounts.index(a) for _, a in pairs], np.int64))


def random_graph(rng: np.random.Generator, n: int, p: float
                 ) -> InteractionGraph:
    names = [f"n{i:03d}" for i in range(n)]
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_of(edges, isolated=names)


def tweet(tweet_id="t1", author="a", ts="2022-08-05T12:00:00Z",
          text="υποκλοπές", lang="el", kind="original", hashtags=(),
          refs=(), **kwargs) -> TweetRecord:
    return TweetRecord(
        tweet_id=tweet_id, author_id=author,
        timestamp=datetime.fromisoformat(ts.replace("Z", "+00:00")),
        text=text, lang=lang, kind=kind, hashtags=list(hashtags),
        referenced_user_ids=list(refs), **kwargs)


def stored_rows(records, offset_minutes: int = 0) -> list[tuple]:
    """What a Corpus reads back of each record (see corpus_rows), under the
    date offset: author, kind, local date, referenced users, hashtags, urls
    and the text's letter runs."""
    shift = timedelta(minutes=offset_minutes)
    return [(t.author_id, t.kind, (t.timestamp + shift).date(),
             tuple(t.referenced_user_ids), tuple(t.hashtags), tuple(t.urls),
             tuple(letter_runs(t.text))) for t in records]


def corpus_rows(corpus: Corpus) -> list[tuple]:
    """Each tweet read back from the columns as stored_rows gives it, with
    its text as the words stored for it."""
    def lists(ragged, table):
        ptr, ids = ragged.ptr.tolist(), ragged.ids.tolist()
        return [tuple(table[j] for j in ids[a:b])
                for a, b in zip(ptr, ptr[1:])]
    return list(zip(
        (corpus.users[i] for i in corpus.author.tolist()),
        (KINDS[k] for k in corpus.kind.tolist()),
        map(date.fromordinal, corpus.day.tolist()),
        lists(corpus.ref_ids, corpus.users),
        lists(corpus.tag_ids, corpus.hashtags),
        lists(corpus.url_ids, corpus.urls),
        lists(corpus.word_ids, corpus.words)))


def follow_pairs(follows: Follows) -> list[tuple[str, str]]:
    """The (follower, followed) id pairs of follows, in its order."""
    return [(follows.followers[f], follows.accounts[a]) for f, a in
            zip(follows.follower.tolist(), follows.account.tolist())]


def write_archive(path: Path, records) -> Path:
    """An archive of the records, one tweet_to_obj line each."""
    path.write_text("".join(
        json.dumps(tweet_to_obj(t), ensure_ascii=False) + "\n"
        for t in records), encoding="utf-8")
    return path


def _filtered(rule_set: RuleSet, records, schema_strict: bool = False
              ) -> tuple[Corpus, FilterReport]:
    """filter_corpus over an archive of the records."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_archive(Path(tmp) / "tweets.jsonl", records)
        return filter_corpus(rule_set, path, schema_strict, words=True)


def filter_records(rule_set: RuleSet, records
                   ) -> tuple[list[tuple], FilterReport]:
    """filter_corpus over an archive of the records, with the kept tweets
    as corpus_rows; a record with normalised hashtags and a UTC timestamp
    reads back as its stored_rows."""
    kept, report = _filtered(rule_set, records)
    return corpus_rows(kept), report


def corpus_of(records, offset_minutes: int = 0) -> Corpus:
    """The records as filter_corpus builds them, strictly, under a rule
    set that keeps each one: a keyword rule whose empty term every text
    contains, an unbounded study window, the date offset and the records'
    languages.  A record the archive checker rejects raises."""
    rule_set = RuleSet(rules=[FilterRule("", "keyword")],
                       language_whitelist={t.lang for t in records},
                       study_window=(date.min, date.max),
                       date_offset_minutes=offset_minutes)
    return _filtered(rule_set, records, schema_strict=True)[0]


def keeps(rule_set: RuleSet, record) -> bool:
    """Whether filter_corpus keeps the record, as a one-line archive."""
    return filter_records(rule_set, [record])[1].kept == 1


# ids whose string order differs from their first-met order; words in
# composed and decomposed (NFD) forms, stopwords among them
_USERS = ("b", "a", "Ά", "a10", "a9", "c")
_WORDS = ("Υποκλοπές", unicodedata.normalize("NFD", "Υποκλοπές"),
          "ΥΠΟΚΛΟΠΕΣ", "predator", "Café",
          unicodedata.normalize("NFD", "Café"), "το", "και", "x1y", "ΐ")
OFFSETS = (0, 180, -420, 1439)


@st.composite
def records(draw, max_size: int = 12) -> list[TweetRecord]:
    """Tweets over four UTC days, with self-references, repeated references,
    repeated hashtags and urls, and NFD text; possibly none."""
    out = []
    for i in range(draw(st.integers(0, max_size))):
        refs = draw(st.lists(st.sampled_from(_USERS), max_size=4))
        kind = draw(st.sampled_from(KINDS)) if refs else "original"
        minute = draw(st.integers(0, 4 * 24 * 60 - 1))
        ts = datetime(2022, 8, 1) + timedelta(minutes=minute)
        out.append(tweet(
            f"t{i}", author=draw(st.sampled_from(_USERS)),
            ts=ts.isoformat() + "Z", kind=kind, refs=refs,
            text=draw(st.sampled_from((" ", ", ", "-"))).join(
                draw(st.lists(st.sampled_from(_WORDS), max_size=8))),
            hashtags=draw(st.lists(st.sampled_from(
                ("υποκλοπες", "pega", "άλλο")), max_size=3)),
            urls=draw(st.lists(st.sampled_from(("u2", "u1", "u10")),
                               max_size=3))))
    return out


@pytest.fixture
def fixture_paths():
    return {
        "tweets": DATA / "fixture_tweets.jsonl",
        "annotations": DATA / "fixture_annotations.csv",
        "follows": DATA / "fixture_follows.csv",
        "config": DATA / "fixture_config.json",
    }
