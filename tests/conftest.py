import json
import sys
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from polmon.corpus import (FilterReport, Kind, RuleSet, TweetRecord,
                           filter_corpus, tweet_to_obj)
from polmon.graphkit import InteractionGraph

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracles`

DATA = Path(__file__).parent / "data"


def graph_of(edges, isolated=()) -> InteractionGraph:
    """Small-graph literal: edge pairs plus extra isolated nodes."""
    nodes = set(isolated)
    cleaned = set()
    for u, v in edges:
        nodes.update((u, v))
        cleaned.add((u, v) if u < v else (v, u))
    return InteractionGraph.from_edges(sorted(nodes), cleaned)


def random_graph(rng: np.random.Generator, n: int, p: float
                 ) -> InteractionGraph:
    names = [f"n{i:03d}" for i in range(n)]
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_of(edges, isolated=names)


def tweet(tweet_id="t1", author="a", ts="2022-08-05T12:00:00Z",
          text="υποκλοπές", lang="el", kind=Kind.ORIGINAL, hashtags=(),
          refs=(), **kwargs) -> TweetRecord:
    return TweetRecord(
        tweet_id=tweet_id, author_id=author,
        timestamp=datetime.fromisoformat(ts.replace("Z", "+00:00")),
        text=text, lang=lang, kind=kind, hashtags=list(hashtags),
        referenced_user_ids=list(refs), **kwargs)


def filter_records(rule_set: RuleSet, records
                   ) -> tuple[list[TweetRecord], FilterReport]:
    """filter_corpus over an archive of the records, written by
    tweet_to_obj; a record with normalised hashtags and a UTC timestamp
    reads back equal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tweets.jsonl"
        path.write_text("".join(
            json.dumps(tweet_to_obj(t), ensure_ascii=False) + "\n"
            for t in records), encoding="utf-8")
        return filter_corpus(rule_set, path)


@pytest.fixture
def fixture_paths():
    return {
        "tweets": DATA / "fixture_tweets.jsonl",
        "annotations": DATA / "fixture_annotations.csv",
        "follows": DATA / "fixture_follows.csv",
        "config": DATA / "fixture_config.json",
    }
