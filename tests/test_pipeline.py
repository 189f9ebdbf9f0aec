import importlib.util
import json
import logging
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmon import pipeline
from polmon.corpus import (AccountAnnotation, Category, Kind, Side,
                           default_rule_set, filter_corpus)
from polmon.graphkit import build_graph, daily_graphs, remove_nodes
from polmon.pipeline import (ABLATION_CATEGORIES, AblationResult, RunConfig,
                             Runner, StageError, compute_stats, pi_series,
                             rounded_percentages, run_all, stance_shares,
                             threshold_sweep)
from polmon.polarization import ConvergenceError, compute_pi
from polmon.report import _table, _top
from polmon.stance import Stance, stance_map
from polmon.structure import ShieldRanking

from conftest import (OFFSETS, corpus_of, corpus_rows, follows_of, graph_of,
                      records, rows_of, stances_of, tweet, write_archive)
from oracles import (build_graph_reference, filter_corpus_reference,
                     load_tweets_reference, stance_shares_reference,
                     stats_reference, tokenize, tweet_to_obj)


_LETTER = {"L": Stance.LEFT, "R": Stance.RIGHT, "C": Stance.CENTER,
           "N": Stance.NEUTRAL}


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _as_tuples(rows):
    return [(r.date, r.n_posts, r.n_by_kind, r.n_users, r.n_hashtags,
             r.n_urls) for r in rows]


def test_stats_counts_unique_users():
    tweets = [tweet("t1", author="a"), tweet("t2", author="a"),
              tweet("t3", author="b")]
    rows, _ = compute_stats(corpus_of(tweets))
    assert rows[0].n_users == 2
    assert rows[0].n_posts == 3


def test_stats_kind_counts_sum():
    tweets = [
        tweet("t1", author="a"),
        tweet("t2", author="a", kind=Kind.RETWEET, refs=["b"]),
        tweet("t3", author="b", kind=Kind.REPLY, refs=["a"]),
        tweet("t4", author="c", kind=Kind.QUOTE, refs=["a"]),
    ]
    row = compute_stats(corpus_of(tweets))[0][0]
    assert sum(row.n_by_kind.values()) == row.n_posts == 4
    assert row.n_by_kind == {"original": 1, "retweet": 1, "quote": 1,
                             "reply": 1}


def test_stats_hand_tally_ten_tweets():
    tweets = [
        tweet("t01", author="a", hashtags=["x"], urls=["u1"]),
        tweet("t02", author="a", hashtags=["x", "y"]),
        tweet("t03", author="b", hashtags=["y"], urls=["u1", "u2"]),
        tweet("t04", author="b", kind=Kind.REPLY, refs=["a"]),
        tweet("t05", author="b", kind=Kind.REPLY, refs=["a"]),
        tweet("t06", author="c", kind=Kind.RETWEET, refs=["a"]),
        tweet("t07", author="c", kind=Kind.QUOTE, refs=["b"]),
        tweet("t08", author="d"),
        tweet("t09", author="d", like_count=7),
        tweet("t10", author="e", urls=["u3"]),
    ]
    rows, window = compute_stats(corpus_of(tweets))
    assert len(rows) == 1  # one day
    row = rows[0]
    assert row.n_posts == 10
    assert row.n_users == 5
    assert row.n_hashtags == 2  # distinct: x, y
    assert row.n_urls == 3      # distinct: u1, u2, u3
    assert row.n_by_kind == {"original": 6, "retweet": 1, "quote": 1,
                             "reply": 2}
    assert _top(window["active_users"], 3) == [("b", 3), ("a", 2), ("c", 2)]
    assert _top(window["mentioned_users"], 3) == [("a", 3), ("b", 1)]
    assert _top(window["hashtags"], 3) == [("x", 2), ("y", 2)]


def test_stats_per_day_buckets():
    tweets = [tweet("t1", author="a", ts="2022-08-05T10:00:00Z"),
              tweet("t2", author="b", ts="2022-08-06T10:00:00Z")]
    rows, _ = compute_stats(corpus_of(tweets))
    assert [r.date.isoformat() for r in rows] == ["2022-08-05", "2022-08-06"]


def test_tokenizer_folds_and_splits():
    assert tokenize("Οι Υποκλοπές, το PREDATOR!") == \
        ["οι", "υποκλοπεσ", "το", "predator"]


def test_stats_phrases_are_bigrams():
    _, window = compute_stats(
        corpus_of([tweet("t1", text="alpha beta gamma")]))
    assert window["phrases"] == Counter({"alpha beta": 1, "beta gamma": 1})


def test_stats_stopwords_removed():
    _, window = compute_stats(
        corpus_of([tweet("t1", text="alpha beta alpha")]), stopwords={"beta"})
    assert window["words"] == Counter({"alpha": 2})
    assert window["phrases"] == Counter({"alpha alpha": 1})


_VOCAB = ("Υποκλοπές", "ΥΠΟΚΛΟΠΕΣ", "υποκλοπες", "Ανδρουλάκης", "ΕΥΠ",
          "ο", "το", "και", "predator", "PREDATOR", "Café", "cafe", "ÉTÉ",
          "δίκη", "ΔΙΚΗ", "έρευνα", "Ερευνα")


def _synthetic_tweets(seed: int, n: int = 400, days: int = 6):
    """Tweets spread over every hour of several days, mixed kinds."""
    rng = random.Random(seed)
    start = datetime(2022, 8, 1, tzinfo=timezone.utc)
    users = [f"u{i:02d}" for i in range(25)]
    out = []
    for i in range(n):
        kind = rng.choice(list(Kind))
        refs = ([] if kind is Kind.ORIGINAL else
                rng.sample(users, rng.randint(1, 3)))
        words = [rng.choice(_VOCAB) for _ in range(rng.randint(0, 9))]
        ts = start + timedelta(minutes=rng.randrange(days * 24 * 60))
        out.append(tweet(f"t{i:04d}", author=rng.choice(users),
                         ts=ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                         text=rng.choice((" ", ", ", "-")).join(words),
                         kind=kind, refs=refs,
                         hashtags=["predator"] + rng.sample(
                             ["υποκλοπες", "υποκλοπές", "pega"],
                             rng.randint(0, 2))))
    return out


@pytest.mark.parametrize("offset", [0, 180, -420])
@pytest.mark.parametrize("stopwords", [(), ("το", "και", "cafe")])
def test_stats_words_equal_plain_tokenize(fixture_paths, offset, stopwords):
    fixture = list(load_tweets_reference(fixture_paths["tweets"]))
    for tweets in (fixture, _synthetic_tweets(seed=7)):
        words, phrases = Counter(), Counter()
        for t in tweets:
            tokens = [w for w in tokenize(t.text) if w not in stopwords]
            words.update(tokens)
            phrases.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        _, window = compute_stats(corpus_of(tweets, offset), stopwords)
        assert window["words"] == words
        assert window["phrases"] == phrases


@pytest.mark.parametrize("offset", [0, 180, -420, 1439])
@pytest.mark.parametrize("stopwords", [(), ("το", "και", "cafe")])
def test_stats_equal_reference(fixture_paths, offset, stopwords):
    fixture = list(load_tweets_reference(fixture_paths["tweets"]))
    for tweets in (fixture, _synthetic_tweets(seed=11)):
        rows, window = compute_stats(corpus_of(tweets, offset), stopwords)
        ref_rows, ref_window = stats_reference(tweets, frozenset(stopwords),
                                               offset)
        assert _as_tuples(rows) == ref_rows
        assert window == ref_window


def test_stats_days_are_the_daily_graphs_days():
    tweets = _synthetic_tweets(seed=13)
    for offset in (0, 180, -420):
        corpus = corpus_of(tweets, offset)
        rows, _ = compute_stats(corpus)
        assert [r.date for r in rows] == [d for d, _ in daily_graphs(corpus)]


@settings(max_examples=200, deadline=None)
@given(records(), st.sampled_from(OFFSETS),
       st.sampled_from([(), ("το", "και", "cafe")]))
def test_stats_equal_reference_on_any_archive(tweets, offset, stopwords):
    rows, window = compute_stats(corpus_of(tweets, offset), stopwords)
    ref_rows, ref_window = stats_reference(tweets, frozenset(stopwords),
                                           offset)
    assert _as_tuples(rows) == ref_rows
    assert window == ref_window


def test_stages_on_an_all_dropped_corpus(tmp_path):
    # one tweet off the language list, one out of the window, one that
    # matches no rule: the pass keeps nothing, and every stage still runs
    tweets = [tweet("t1", lang="en"), tweet("t2", ts="2021-01-01T00:00:00Z"),
              tweet("t3", author="a", kind=Kind.REPLY, refs=["b"],
                    text="άσχετο", hashtags=["x"], urls=["u"])]
    path = write_archive(tmp_path / "tweets.jsonl", tweets)
    corpus, report = filter_corpus(default_rule_set(), path)
    assert (report.total, report.kept, report.dropped) == (3, 0, 3)
    assert corpus_rows(corpus) == []
    g = build_graph(corpus)
    assert (g.nodes, g.indptr.tolist()) == (
        build_graph_reference([]).nodes, [0])
    assert daily_graphs(corpus) == []
    rows, window = compute_stats(corpus, ("το",))
    assert (_as_tuples(rows), window) == stats_reference([], ("το",))
    assert (stance_shares(corpus, stances_of(corpus.users, {}))
            == stance_shares_reference([], {}))


def test_stats_folds_each_distinct_word_once(monkeypatch):
    tweets = _synthetic_tweets(seed=3, n=200)
    folded = []
    real = pipeline.fold_text
    monkeypatch.setattr(pipeline, "fold_text",
                        lambda s: folded.append(s) or real(s))
    compute_stats(corpus_of(tweets))
    assert sorted(folded) == sorted({w for t in tweets
                                     for w in pipeline._WORD_RE.findall(t.text)})


_WINDOW_KEYS = ("hashtags", "words", "phrases", "mentioned_users",
                "active_users")


def _synthetic_run(tmp_path, fixture_paths, offset: int) -> RunConfig:
    write_archive(tmp_path / "tweets.jsonl", _synthetic_tweets(seed=5))
    (tmp_path / "rules.json").write_text(json.dumps({
        "rules": [{"term": "predator", "mode": "hashtag"}],
        "study_window": ["2022-08-01", "2022-08-05"],
        "date_offset_minutes": offset}), encoding="utf-8")
    (tmp_path / "stop.txt").write_text("το\nκαι\n", encoding="utf-8")
    return RunConfig(tweets=tmp_path / "tweets.jsonl",
                     annotations=fixture_paths["annotations"],
                     follows=fixture_paths["follows"],
                     out_dir=tmp_path / "out", rules=tmp_path / "rules.json",
                     stopwords=tmp_path / "stop.txt", top_k=5, k=3)


@pytest.mark.parametrize("corpus", ["fixture", "offset0", "offset180",
                                    "offset-300"])
def test_summary_tables_equal_whole_window_stats(corpus, fixture_paths,
                                                 tmp_path, monkeypatch):
    if corpus == "fixture":
        config = _config(fixture_paths, tmp_path / "out")
    else:
        config = _synthetic_run(tmp_path, fixture_paths,
                                int(corpus[len("offset"):]))
    calls = []
    real = pipeline.compute_stats
    monkeypatch.setattr(pipeline, "compute_stats",
                        lambda *a: calls.append(a) or real(*a))
    bundle = run_all(config)
    assert len(calls) == 1  # no second corpus walk

    runner = Runner(config)
    kept, _ = filter_corpus_reference(runner.rule_set,
                                      load_tweets_reference(config.tweets))
    assert len(set(runner.filtered[0].day.tolist())) > 1
    _, window = stats_reference(kept, runner.stopword_set)
    html = bundle["summary.html"].read_text(encoding="utf-8")
    for key in _WINDOW_KEYS:
        table = _top(window[key], config.top_k)
        assert table
        assert _table(["value", "count"], table) in html


def test_stage_start_and_end_logged(fixture_paths, tmp_path, caplog):
    runner = Runner(_config(fixture_paths, tmp_path / "out"))
    with caplog.at_level(logging.DEBUG, logger="polmon.pipeline"):
        runner.stats
        runner.stats  # cached: logs nothing more
    stage_lines = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("stage ")]
    assert [line.split(" in ")[0] for line in stage_lines] == [
        "stage stats: start", "stage filter: start", "stage rules: start",
        "stage rules: done", "stage filter: done", "stage stopwords: start",
        "stage stopwords: done", "stage stats: done"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records
               if r.getMessage().startswith("stage "))
    assert stage_lines[-1].endswith(" s")
    assert not (tmp_path / "out").exists()


def test_follow_and_stance_sizes_logged(fixture_paths, tmp_path, caplog):
    # with -v, the follows and stance stages say what they hold
    runner = Runner(_config(fixture_paths, tmp_path / "out"))
    with caplog.at_level(logging.DEBUG, logger="polmon"):
        stances = runner.stances
    messages = [r.getMessage() for r in caplog.records
                if r.name in ("polmon.corpus", "polmon.stance")]
    follows = runner.follows
    counts = np.bincount(stances.label, minlength=4).tolist()
    assert messages == [
        f"{runner.config.follows}: {len(follows.follower)} follow pairs "
        f"read, 0 duplicates collapsed, {len(follows.followers)} distinct "
        "followers",
        f"stance: {len(stances.users)} users, "
        f"{len(stances.users) - len(runner.filtered[0].users)} followers "
        f"outside the graph; Left, Right, Center, Neutral: {counts}"]


# ---------------------------------------------------------------------------
# rounded percentages / shares
# ---------------------------------------------------------------------------


def test_rounded_percentages_sum_to_100():
    counts = {"a": 1, "b": 1, "c": 1}
    pct = rounded_percentages(counts)
    assert sum(pct.values()) == pytest.approx(100.0, abs=1e-9)
    assert pct["a"] == 33.4  # remainder lands on the lexicographically first


def test_rounded_percentages_empty():
    assert rounded_percentages({"a": 0, "b": 0}) == {"a": 0.0, "b": 0.0}


def test_rounded_percentages_exact_split():
    assert rounded_percentages({"a": 1, "b": 1}) == {"a": 50.0, "b": 50.0}


def test_shares_single_left_author():
    tweets = [tweet("t1", author="a"), tweet("t2", author="a")]
    corpus = corpus_of(tweets)
    shares = stance_shares(corpus, stances_of(corpus.users, {"a": "L"}))
    assert shares.tweet_pct["Left"] == 100.0
    assert shares.user_pct["Left"] == 100.0


def test_shares_three_to_one():
    tweets = [tweet(f"t{i}", author="l") for i in range(3)]
    tweets.append(tweet("t9", author="r"))
    corpus = corpus_of(tweets)
    shares = stance_shares(corpus, stances_of(corpus.users,
                                              {"l": "L", "r": "R"}))
    assert shares.tweet_pct["Left"] == 75.0
    assert shares.tweet_pct["Right"] == 25.0
    assert shares.user_counts["Left"] == shares.user_counts["Right"] == 1


@settings(max_examples=200, deadline=None)
@given(records(), st.dictionaries(st.sampled_from(["a", "b", "Ά", "a9"]),
                                  st.sampled_from("LRCN")))
def test_shares_equal_record_reference(tweets, labels):
    corpus = corpus_of(tweets)
    assert (stance_shares(corpus, stances_of(corpus.users, labels))
            == stance_shares_reference(
                tweets, {u: _LETTER[x] for u, x in labels.items()}))


def test_shares_unknown_author_counts_neutral():
    corpus = corpus_of([tweet("t1", author="ghost")])
    shares = stance_shares(corpus, stances_of(corpus.users, {}))
    assert shares.tweet_counts["Neutral"] == 1


# ---------------------------------------------------------------------------
# pi series
# ---------------------------------------------------------------------------


def test_pi_series_two_days():
    users = ("a", "b", "c")
    days = [
        (date(2022, 8, 5), graph_of([("a", "b")], users=users)),
        (date(2022, 8, 6), graph_of([("a", "c")], users=users)),
    ]
    rows = pi_series(days, stances_of(users, {"a": "L", "b": "R", "c": "N"}))
    assert len(rows) == 2
    assert rows[0][1].pi == pytest.approx(1 / 9, abs=1e-12)


def test_pi_series_neutral_day_zero():
    days = [(date(2022, 8, 5), graph_of([("a", "b")]))]
    rows = pi_series(days, stances_of(("a", "b"), {"a": "N", "b": "N"}))
    assert rows[0][1].pi == 0.0


def test_pi_series_opposite_cliques_give_one():
    left = [(f"l{i}", f"l{j}") for i in range(3) for j in range(i + 1, 3)]
    right = [(f"r{i}", f"r{j}") for i in range(3) for j in range(i + 1, 3)]
    g = graph_of(left + right)
    stances = stances_of(g.users, {u: ("L" if u.startswith("l") else "R")
                                   for u in g.nodes})
    rows = pi_series([(date(2022, 8, 5), g)], stances)
    assert rows[0][1].pi == pytest.approx(1.0, abs=1e-12)


def test_pi_series_flags_gap_and_continues():
    users = ("a", "b")
    days = [
        (date(2022, 8, 5), graph_of([], isolated=["a"], users=users)),
        (date(2022, 8, 6), graph_of([("a", "b")], users=users)),
    ]
    stances = stances_of(users, {"a": "L", "b": "R"})
    # exclude isolated nodes: day one becomes empty -> gap, day two fine
    rows = pi_series(days, stances, include_isolated=False)
    assert rows[0][1] is None
    assert rows[1][1] is not None


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


def _ablation_reference(g, stances, annotations, influencer_set,
                        drop_isolated=True, **pi_kwargs):
    """(pi_full, pi_without): g and g without each connector category,
    each removed with remove_nodes and solved with compute_pi."""
    victims = {"Political": set(), "MediaJournalist": set(),
               "Influencers": set(influencer_set)}
    for uid, ann in annotations.items():
        if ann.category is Category.POLITICAL:
            victims["Political"].add(uid)
        elif ann.category is Category.MEDIA_JOURNALIST:
            victims["MediaJournalist"].add(uid)
    masks = {name: np.array([u in victims[name] for u in g.users], bool)
             for name in ABLATION_CATEGORIES}
    return compute_pi(g, stances, **pi_kwargs).pi, {
        name: compute_pi(remove_nodes(g, masks[name], drop_isolated),
                         stances, **pi_kwargs).pi
        for name in ABLATION_CATEGORIES}


def _ablation_row(g, stances, annotations, influencer_set,
                  drop_isolated=True):
    """The ablation stage's row for one day whose graph is g."""
    day = date(2022, 3, 1)
    runner = Runner(RunConfig(tweets=Path("unused"), annotations=Path("unused"),
                              follows=Path("unused"), out_dir=Path("unused"),
                              drop_isolated=drop_isolated))
    runner._cache.update(graph=g, daily=[(day, g)], stance=stances,
                         annotations=annotations, polarize=[(day, None)],
                         influencers=ShieldRanking(list(influencer_set), []))
    [row] = runner.ablation_rows
    return row


@pytest.fixture
def bridge_setup():
    left = [(f"l{i}", f"l{j}") for i in range(3) for j in range(i + 1, 3)]
    right = [(f"r{i}", f"r{j}") for i in range(3) for j in range(i + 1, 3)]
    bridges = [("l0", "m0"), ("m0", "r0")]
    g = graph_of(left + right + bridges)
    stance_spec = {u: ("L" if u.startswith("l") else
                       "R" if u.startswith("r") else "N") for u in g.nodes}
    annotations = {"m0": AccountAnnotation("m0", Category.MEDIA_JOURNALIST)}
    return g, stances_of(g.users, stance_spec), annotations


def test_ablation_absent_category_is_noop(bridge_setup):
    g, stances, annotations = bridge_setup
    result = _ablation_row(g, stances, annotations, influencer_set=[])
    # no Political annotations at all -> removal is a no-op
    assert result.pi_without["Political"] == pytest.approx(result.pi_full,
                                                           abs=1e-12)
    assert result.pi_without["Influencers"] == pytest.approx(result.pi_full,
                                                             abs=1e-12)


def test_ablation_bridge_removal_raises_pi(bridge_setup):
    g, stances, annotations = bridge_setup
    result = _ablation_row(g, stances, annotations, influencer_set=[])
    assert result.pi_without["MediaJournalist"] == pytest.approx(1.0,
                                                                 abs=1e-12)
    assert result.pi_full < 1.0


def test_ablation_remove_everything_errors(bridge_setup):
    g, stances, _ = bridge_setup
    annotations = {u: AccountAnnotation(u, Category.MEDIA_JOURNALIST)
                   for u in g.nodes}
    # the stage records the day as a gap of its variant, naming the category
    _, drop, message = _ablation_row(g, stances, annotations,
                                     influencer_set=[])
    assert drop is True
    assert message.startswith("removing MediaJournalist nodes")


def test_ablation_category_keys_fixed(bridge_setup):
    g, stances, annotations = bridge_setup
    result = _ablation_row(g, stances, annotations, influencer_set=["m0"])
    assert tuple(result.pi_without) == ABLATION_CATEGORIES
    assert all(0.0 <= v <= 1.0 for v in result.pi_without.values())


# ---------------------------------------------------------------------------
# threshold sweep
# ---------------------------------------------------------------------------


@pytest.fixture
def sweep_setup():
    annotations = {}
    for i in range(3):
        annotations[f"L{i}"] = AccountAnnotation(f"L{i}", Category.POLITICAL,
                                                 Side.LEFT)
        annotations[f"R{i}"] = AccountAnnotation(f"R{i}", Category.POLITICAL,
                                                 Side.RIGHT)
    follows = follows_of([
        ("a", "L0"), ("a", "L1"),
        ("b", "L0"), ("b", "L1"), ("b", "R0"),
        ("c", "R0"), ("c", "R1"),
        ("d", "R0"), ("d", "L0"),
    ])
    g = graph_of([("a", "b"), ("c", "d"), ("b", "c")])
    return g, follows, annotations


def test_sweep_threshold_zero_matches_default(sweep_setup):
    g, follows, annotations = sweep_setup
    stances = stance_map(follows, annotations, 0.0, users=g.users)
    result = threshold_sweep(g, stances, annotations, thresholds=(0.0,),
                             influencer_set=[])
    pi_full, pi_without = _ablation_reference(g, stances, annotations, [])
    assert result.entries[0].pi_full == pi_full
    assert result.entries[0].pi_without == pi_without


def test_sweep_counts_non_increasing(sweep_setup):
    g, follows, annotations = sweep_setup
    tallies = stance_map(follows, annotations, users=g.users)
    result = threshold_sweep(g, tallies, annotations,
                             thresholds=(0.0, 0.5, 0.7, 0.9),
                             influencer_set=[])
    labeled = [e.n_left_users + e.n_right_users for e in result.entries]
    assert labeled == sorted(labeled, reverse=True)


def test_sweep_all_neutral_graph(sweep_setup):
    _, follows, annotations = sweep_setup
    g = graph_of([("x", "y")])  # nobody in the follow data
    tallies = stance_map(follows, annotations, users=g.users)
    result = threshold_sweep(g, tallies, annotations,
                             thresholds=(0.0, 0.5), influencer_set=[])
    assert all(e.pi_full == 0.0 for e in result.entries)
    assert all(e.n_left_users == e.n_right_users == 0
               for e in result.entries)
    # a map whose table lacks x and y would give them the labels of the
    # followers a and b, so it is rejected
    with pytest.raises(ValueError, match="user table"):
        threshold_sweep(g, stance_map(follows, annotations, users=()),
                        annotations, thresholds=(0.0, 0.5), influencer_set=[])


@pytest.mark.parametrize("drop_isolated", [True, False])
def test_sweep_equals_ablation_per_threshold(fixture_paths, tmp_path,
                                             drop_isolated):
    # the sweep builds its reduced graphs once; rebuilding them per
    # threshold from a fresh stance map must give identical entries
    config = RunConfig.from_file(fixture_paths["config"])
    config.out_dir = tmp_path
    runner = Runner(config)
    g, follows, annotations = (runner.full_graph, runner.follows,
                               runner.annotations)
    influencers = runner.influencer_ranking.selected
    thresholds = (0.0, 0.5, 0.7, 0.9)
    tallies = stance_map(follows, annotations, users=g.users)
    result = threshold_sweep(g, tallies, annotations, thresholds=thresholds,
                             influencer_set=influencers,
                             drop_isolated=drop_isolated)
    assert [e.threshold for e in result.entries] == list(thresholds)
    for entry in result.entries:
        stances = stance_map(follows, annotations, threshold=entry.threshold,
                             users=g.users)
        pi_full, pi_without = _ablation_reference(
            g, stances, annotations, influencers, drop_isolated)
        assert entry.pi_full == pi_full
        assert entry.pi_without == pi_without


def test_run_all_tallies_follows_once(fixture_paths, tmp_path, monkeypatch):
    # the sweep relabels the stance stage's tallies instead of redoing them
    calls = []
    real_stance_map = pipeline.stance_map
    monkeypatch.setattr(pipeline, "stance_map", lambda *args, **kwargs: (
        calls.append(args) or real_stance_map(*args, **kwargs)))
    run_all(_config(fixture_paths, tmp_path / "out"))
    assert len(calls) == 1


def test_sweep_names_category_that_empties_graph(sweep_setup, caplog):
    g, follows, annotations = sweep_setup
    annotations = dict(annotations)
    annotations.update({u: AccountAnnotation(u, Category.MEDIA_JOURNALIST)
                        for u in g.nodes})
    tallies = stance_map(follows, annotations, users=g.users)
    with caplog.at_level(logging.WARNING, logger="polmon.pipeline"):
        result = threshold_sweep(g, tallies, annotations,
                                 thresholds=(0.0, 0.5), influencer_set=[])
    # each threshold is a gap entry whose cause names the category
    assert [t for t, _ in result.entries] == [0.0, 0.5]
    for _, cause in result.entries:
        assert cause.startswith("removing MediaJournalist nodes")
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == [f"sweep gap at threshold {t:g}: {cause}"
                        for t, cause in result.entries]


def test_sweep_logs_every_solve(sweep_setup, caplog):
    g, follows, annotations = sweep_setup
    tallies = stance_map(follows, annotations, users=g.users)
    caplog.set_level(logging.DEBUG, logger="polmon.polarization")
    threshold_sweep(g, tallies, annotations, thresholds=(0.0, 0.5),
                    influencer_set=["b"])
    solves = [r.getMessage() for r in caplog.records
              if r.name == "polmon.polarization"]
    # per threshold: the full graph plus one graph per ablation category
    assert len(solves) == 2 * (1 + len(ABLATION_CATEGORIES))
    for message in solves:
        assert message.startswith("FJ solve: n=")
        assert all(f" {field}=" in message
                   for field in ("m", "method", "iterations", "residual"))
        assert "method=CG" in message
    # removing influencer b strands a (dropped) and leaves the edge c-d
    assert sum("n=2 m=1 " in m for m in solves) == 2


_SOLVING_STAGES = [("write_pi_series", "polarize"),
                   ("write_ablation", "ablate"), ("write_sweep", "sweep")]


@pytest.mark.parametrize("writer, stage", _SOLVING_STAGES)
def test_solve_fault_fails_its_stage(fixture_paths, tmp_path, monkeypatch,
                                     writer, stage):
    # only GAP_ERRORS are gaps: any other error of a solve is a fault
    runner = Runner(_config(fixture_paths, tmp_path / "out"))
    if stage == "ablate":
        runner.series  # ablate reads the PI stage; solve it unpatched

    def fault(*args, **kwargs):
        raise TypeError("injected fault")
    monkeypatch.setattr(pipeline, "compute_pi", fault)
    with pytest.raises(StageError, match=rf"^\[{stage}\] injected fault$"):
        getattr(runner, writer)()


@pytest.mark.parametrize("writer, stage", _SOLVING_STAGES)
def test_convergence_error_is_a_gap(fixture_paths, tmp_path, monkeypatch,
                                    writer, stage):
    runner = Runner(_config(fixture_paths, tmp_path / "out"))

    def stall(*args, **kwargs):
        raise ConvergenceError("CG stalled", 1.0, 1)
    monkeypatch.setattr(pipeline, "compute_pi", stall)
    path = getattr(runner, writer)()
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.endswith(",,") for row in rows)


# ---------------------------------------------------------------------------
# run_all on the bundled fixture
# ---------------------------------------------------------------------------

EXPECTED_BUNDLE = {
    "stats_daily.csv", "pi_series.csv", "ablation.csv", "sweep.csv",
    "stance.csv", "influencers.csv", "communities.csv", "summary.html",
    "run_manifest.json", "graph_20220401-20230114.graphml",
}


def _config(fixture_paths, out_dir) -> RunConfig:
    config = RunConfig.from_file(fixture_paths["config"])
    config.out_dir = out_dir
    return config


def test_malformed_lines_outside_the_window_are_counted(fixture_paths,
                                                       tmp_path):
    # a truncated and a type-confused line before, inside and after the
    # window: each is counted, whatever its date
    good = {"tweet_id": "t", "author_id": "a", "text": "υποκλοπές",
            "lang": "el", "kind": "original"}
    lines = []
    for day in ("2022-08-01", "2022-08-05", "2022-08-09"):
        obj = dict(good, timestamp=f"{day}T10:00:00Z")
        line = json.dumps(obj, ensure_ascii=False)
        lines += [line, line[:-9], json.dumps(dict(obj, like_count="abc"))]
    archive = tmp_path / "tweets.jsonl"
    archive.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = replace(_config(fixture_paths, tmp_path / "out"),
                     tweets=archive, date_from=date(2022, 8, 4),
                     date_to=date(2022, 8, 6))
    runner = Runner(config)
    kept, report = runner.filtered
    assert len(runner.load_errors) == 6
    assert [lineno for lineno, _ in runner.load_errors] == [2, 3, 5, 6, 8, 9]
    assert (len(kept.texts), report.total, report.dropped_window) == (
        1, 3, 2)
    runner.write_filtered()
    payload = json.loads((tmp_path / "out" / "filter_report.json")
                         .read_text(encoding="utf-8"))
    # the writer's own pass counts each malformed line once, and leaves
    # the filter stage's count as it was
    assert payload["malformed_lines"] == 6
    assert len(runner.load_errors) == 6
    assert (payload["kept"], payload["total"]) == (1, 3)
    strict = Runner(replace(config, schema_strict=True,
                            out_dir=tmp_path / "strict"))
    with pytest.raises(StageError, match=f"{re.escape(str(archive))}:2: "):
        strict.filtered
    with pytest.raises(StageError,
                       match=re.escape(f"[filter] {archive}:2: ")):
        strict.write_filtered()
    assert not (tmp_path / "strict" / "filtered.jsonl").exists()


def test_write_filtered_writes_each_kept_record(fixture_paths, tmp_path):
    runner = Runner(_config(fixture_paths, tmp_path / "out"))
    path = runner.write_filtered()
    kept, _ = filter_corpus_reference(
        runner.rule_set, load_tweets_reference(runner.config.tweets))
    assert len(kept) > 100
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(tweet_to_obj(t), ensure_ascii=False, sort_keys=True)
        + "\n" for t in kept)


def _first_kept(runner: Runner) -> dict:
    """The first object runner.write_filtered writes."""
    path = runner.write_filtered()
    return json.loads(path.read_text(encoding="utf-8").splitlines()[0])


@pytest.mark.parametrize("offset", [60, -60])
def test_run_all_over_the_whole_calendar(fixture_paths, tmp_path, offset):
    rules = json.loads((Path(pipeline.__file__).parent / "data"
                        / "default_rules.json").read_text(encoding="utf-8"))
    rules.update(study_window=["0001-01-01", "9999-12-31"],
                 date_offset_minutes=offset)
    (tmp_path / "rules.json").write_text(json.dumps(rules), encoding="utf-8")
    plain = _config(fixture_paths, tmp_path / "plain")
    # a kept tweet copied into the first and the last UTC hour: one of the
    # two falls on the calendar's first or last local day, the other off it
    kept = _first_kept(Runner(plain))
    edges = [json.dumps(dict(kept, tweet_id=f"edge{i}", timestamp=ts))
             for i, ts in enumerate(["0001-01-01T00:30:00Z",
                                     "9999-12-31T23:30:00Z"])]
    (tmp_path / "tweets.jsonl").write_bytes(
        fixture_paths["tweets"].read_bytes()
        + "\n".join(edges).encode("utf-8") + b"\n")
    config = replace(plain, tweets=tmp_path / "tweets.jsonl",
                     rules=tmp_path / "rules.json", out_dir=tmp_path / "out")
    bundle = run_all(config)
    assert "pi_series.csv" in bundle
    runner = Runner(config)
    kept, _ = filter_corpus_reference(runner.rule_set,
                                      load_tweets_reference(config.tweets))
    assert corpus_rows(runner.filtered[0]) == rows_of(kept, offset)
    assert [t.tweet_id for t in kept if t.tweet_id.startswith("edge")] == (
        ["edge0"] if offset > 0 else ["edge1"])
    assert ((runner.daily[0][0] == date.min) if offset > 0
            else (runner.daily[-1][0] == date.max))
    assert set(runner.full_graph.nodes) == {
        u for t in kept for u in (t.author_id, *t.referenced_user_ids)}


def test_write_filtered_counts_undecodable_lines_as_malformed(fixture_paths,
                                                               tmp_path):
    plain = _config(fixture_paths, tmp_path / "plain")
    kept = _first_kept(Runner(plain))  # both copies would be kept
    bad_bytes = json.dumps(dict(kept, tweet_id="x1"), ensure_ascii=False) \
        .encode("utf-8").replace(b'"x1"', b'"x1\xff\xfe"')
    lone = json.dumps(dict(kept, tweet_id="x2", text=kept["text"] + "\ud800"))
    assert "\\ud800" in lone
    (tmp_path / "tweets.jsonl").write_bytes(
        fixture_paths["tweets"].read_bytes() + bad_bytes + b"\n"
        + lone.encode("ascii") + b"\n")
    config = replace(plain, tweets=tmp_path / "tweets.jsonl",
                     out_dir=tmp_path / "out")
    Runner(config).write_filtered()
    for name in ("filtered.jsonl", "filter_report.json"):
        before = (tmp_path / "plain" / name).read_text(encoding="utf-8")
        after = (tmp_path / "out" / name).read_text(encoding="utf-8")
        if name == "filter_report.json":
            assert json.loads(after)["malformed_lines"] == 2
            after = after.replace('"malformed_lines": 2',
                                  '"malformed_lines": 0')
        assert after == before


def test_run_all_emits_full_bundle(fixture_paths, tmp_path):
    bundle = run_all(_config(fixture_paths, tmp_path / "out"))
    assert set(bundle) == EXPECTED_BUNDLE
    for path in bundle.values():
        assert path.exists()
        assert path.stat().st_size > 0


def test_run_all_deterministic(fixture_paths, tmp_path):
    b1 = run_all(_config(fixture_paths, tmp_path / "out1"))
    b2 = run_all(_config(fixture_paths, tmp_path / "out2"))
    assert set(b1) == set(b2)
    for name in b1:
        c1 = b1[name].read_bytes()
        c2 = b2[name].read_bytes()
        if name == "run_manifest.json":
            # differs only in the echoed out_dir path
            c1 = c1.replace(b"out1", b"out")
            c2 = c2.replace(b"out2", b"out")
        assert c1 == c2, f"{name} differs between runs"


def test_run_all_empty_corpus(tmp_path, caplog):
    (tmp_path / "tweets.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "ann.csv").write_text("user_id,category,side\n",
                                      encoding="utf-8")
    (tmp_path / "follows.csv").write_text(
        "follower_id,followed_political_id\n", encoding="utf-8")
    config = RunConfig(tweets=tmp_path / "tweets.jsonl",
                       annotations=tmp_path / "ann.csv",
                       follows=tmp_path / "follows.csv",
                       out_dir=tmp_path / "out")
    with caplog.at_level("WARNING"):
        bundle = run_all(config)
    assert set(bundle) == EXPECTED_BUNDLE
    assert any("no tweets" in r.message for r in caplog.records)
    rows = (tmp_path / "out" / "pi_series.csv").read_text().splitlines()
    assert rows == ["date,n,m,pi,method,iterations,residual"]


def test_run_all_planted_two_blocks(fixture_paths, tmp_path):
    bundle = run_all(_config(fixture_paths, tmp_path / "out"))
    lines = bundle["communities.csv"].read_text().splitlines()[1:]
    sizes = [int(line.split(",")[1]) for line in lines]
    # fixture plants two camps bridged by media: two dominant communities
    assert len(sizes) >= 2
    assert sizes[0] + sizes[1] >= 0.7 * sum(sizes)
    leans = [float(line.split(",")[-1]) for line in lines[:2]]
    assert leans[0] * leans[1] < 0  # opposite political tilt


def test_run_all_both_isolated_variants(fixture_paths, tmp_path):
    config = _config(fixture_paths, tmp_path / "out")
    config.ablate_both_variants = True
    bundle = run_all(config)
    lines = bundle["ablation.csv"].read_text().splitlines()[1:]
    flags = [line.split(",")[1] for line in lines]
    assert flags == ["true", "false"] * (len(lines) // 2)
    # paired rows cover the same dates
    dates = [line.split(",")[0] for line in lines]
    assert dates[0::2] == dates[1::2]


@pytest.mark.parametrize("drop_isolated", [True, False])
def test_summary_draws_the_configured_variant(fixture_paths, tmp_path,
                                              drop_isolated):
    # the chart's ablation lines come from the drop_isolated the sweep
    # uses, whether or not ablation.csv also holds the other variant
    summaries = []
    for both in (False, True):
        config = _config(fixture_paths, tmp_path / str(both))
        config.drop_isolated, config.ablate_both_variants = drop_isolated, both
        summaries.append(run_all(config)["summary.html"].read_text("utf-8"))
    assert summaries[0] == summaries[1]


def test_run_all_with_every_node_an_influencer(fixture_paths, tmp_path,
                                               caplog):
    # k = 500 selects every node of the fixture's graph, so removing the
    # influencers empties it: each ablation day and sweep threshold is a gap
    config = _config(fixture_paths, tmp_path / "out")
    config.k = 500
    with caplog.at_level(logging.WARNING, logger="polmon.pipeline"):
        bundle = run_all(config)
    assert set(bundle) == EXPECTED_BUNDLE
    runner = Runner(config)
    assert len(runner.influencer_ranking.selected) == runner.full_graph.n
    lines = bundle["sweep.csv"].read_text().splitlines()[1:]
    assert lines == ["0,,,,,,", "0.5,,,,,,", "0.7,,,,,,"]
    html = bundle["summary.html"].read_text(encoding="utf-8")
    assert "<tr><td>0.5</td>" + "<td></td>" * 6 + "</tr>" in html
    sweep_gaps = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("sweep gap at threshold ")]
    assert len(sweep_gaps) == 3
    assert all("removing Influencers nodes" in m for m in sweep_gaps)
    lines = bundle["ablation.csv"].read_text().splitlines()[1:]
    assert lines and all(line.endswith(",,,,,") for line in lines)


def test_ablation_reuses_series_solves(fixture_paths, tmp_path, monkeypatch):
    config = _config(fixture_paths, tmp_path / "out")
    config.ablate_both_variants = True
    runner = Runner(config)
    series = dict(runner.series)
    assert all(series.values())
    runner.influencer_ranking
    # a series gap day is solved again by the ablation stage itself
    gap_day = runner.daily[0][0]
    series_with_gap = [(d, None if d == gap_day else r)
                       for d, r in runner.series]
    monkeypatch.setitem(runner._cache, "polarize", series_with_gap)
    solved = []
    real_compute_pi = pipeline.compute_pi
    monkeypatch.setattr(pipeline, "compute_pi", lambda g, *args, **kwargs: (
        solved.append(g) or real_compute_pi(g, *args, **kwargs)))
    rows = runner.ablation_rows
    full_graphs = [g for _, g in runner.daily]
    assert sum(g is full_graphs[0] for g in solved) == 2  # both variants
    assert not any(g is h for g in solved for h in full_graphs[1:])
    assert len(solved) == 2 + 2 * len(ABLATION_CATEGORIES) * len(full_graphs)
    monkeypatch.setattr(pipeline, "compute_pi", real_compute_pi)
    expected = [AblationResult(d, *_ablation_reference(
                    g, runner.stances, runner.annotations,
                    runner.influencer_ranking.selected, drop,
                    **runner._pi_kwargs()), drop)
                for d, g in runner.daily for drop in (True, False)]
    assert rows == expected
    assert [row.pi_full for row in rows[::2]] == [series[d].pi
                                                 for d, _ in runner.daily]


def test_runner_stage_error_tags_stage(tmp_path):
    config = RunConfig(tweets=tmp_path / "missing.jsonl",
                       annotations=tmp_path / "missing.csv",
                       follows=tmp_path / "missing.csv",
                       out_dir=tmp_path / "out")
    runner = Runner(config)
    from polmon.pipeline import StageError
    with pytest.raises(StageError, match=r"\[filter\]"):
        runner.filtered


_INSTALL_TRACER = """
import json
from tracer import Tracer
print(json.dumps(Tracer().install()))
"""


def test_benchmark_tracer_finds_every_entry_point():
    # the benchmark's per-layer trace wraps pipeline, structure and report
    # names and Runner stages by name; a name it cannot find reads as zero
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _INSTALL_TRACER], env=env,
                          cwd=root, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


_RUN_GATE = """
import json, sys
from pathlib import Path
import run
from gate import check_bundle
from polmon import pipeline

workload, run_dir = sys.argv[1], Path(sys.argv[2])
spec = run.write_config(run_dir, workload, 0, fixture=True)
runners = []  # run_all builds its own Runner, as in the benchmark's child


class Runner(pipeline.Runner):
    def __init__(self, config):
        super().__init__(config)
        runners.append(self)


pipeline.Runner = Runner
config = pipeline.RunConfig.from_file(spec["config"])
if spec["actions"] == ["run_all"]:
    pipeline.run_all(config)
else:
    runner = Runner(config)
    for action in spec["actions"]:
        getattr(runner, action)()
gate = check_bundle(runners[-1], Path(config.out_dir),
                    spec["expected_malformed"])
print(json.dumps({"checks": gate.checks, "failures": gate.failures}))
"""


@pytest.mark.parametrize("workload", ["full-report", "daily-series",
                                      "monitor-window"])
def test_benchmark_gate_passes_on_the_fixture(workload, tmp_path):
    # the benchmark's correctness gate, on each workload's actions over the
    # shipped fixture: PIs against an independent CG from each graph's
    # nodes and edges, one output row per daily graph, the malformed count
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_GATE, workload,
                           str(tmp_path)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["checks"] > 0
    assert result["failures"] == []


def test_make_fixture_reproduces_the_shipped_fixture(fixture_paths, tmp_path,
                                                     monkeypatch):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_fixture", root / "scripts" / "make_fixture.py")
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)
    monkeypatch.setattr(make_fixture, "OUT", tmp_path)
    make_fixture.main()
    assert sorted(os.listdir(tmp_path)) == sorted(
        path.name for path in fixture_paths.values())
    for path in fixture_paths.values():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()
