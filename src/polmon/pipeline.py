"""End-to-end analyses over a corpus: stats, shares, PI series, ablations,
threshold sweeps, communities, and the deterministic report bundle.

Everything here is glue around the other modules; the one piece of real
policy is the rounding rule for percentage tables (round-half-even to one
decimal, remainder pinned onto the largest share so rows always total
100.0) and the words counted by the stats (unicode letter runs,
case/accent-folded, contiguous bigrams as phrases).  The stats and share
stages work on the Corpus's id columns with array operations, and compute
what the bundle reads: counts per local day for stats_daily.csv, and
whole-window counters for the summary's top tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .corpus import (KINDS, Category, Corpus, FilterReport, Ragged, RuleSet,
                     _Table, archive_obj, default_rule_set, filter_corpus,
                     fold_text, kept_tweets, load_annotations, load_follows,
                     load_rule_set)
from .graphkit import (InteractionGraph, build_graph, daily_graphs,
                       export_graph, remove_nodes)
from .polarization import ConvergenceError, PolarizationResult, compute_pi
from .stance import STANCES, StanceMap, stance_map, write_stance_csv
from .structure import decompose_communities, louvain, netshield

log = logging.getLogger(__name__)

ABLATION_CATEGORIES = ("Political", "MediaJournalist", "Influencers")
# the bundle's column for each category's PI, in ABLATION_CATEGORIES order
_PI_WITHOUT_COLUMNS = ("pi_without_political", "pi_without_media",
                       "pi_without_influencers")

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# what a day's or a threshold's solves may raise on its data; the day or
# threshold becomes a gap row, and any other error fails the stage
GAP_ERRORS = (ValueError, ConvergenceError)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass
class DailyStats:
    date: date
    n_posts: int
    n_by_kind: dict[str, int]
    n_users: int
    n_hashtags: int
    n_urls: int


def compute_stats(corpus: Corpus, stopwords: Iterable[str] = ()
                  ) -> tuple[list[DailyStats], dict[str, Counter]]:
    """Counts per local day (ascending date), and whole-window counters.

    The counters are keyed hashtags, words, phrases, mentioned_users and
    active_users.  Words are the letter runs of each text, folded by
    fold_text, minus the stopwords; each distinct run is folded once per
    call.  Phrases are the bigrams of a tweet's remaining words.
    """
    days, day_of = np.unique(corpus.day, return_inverse=True)
    n = len(days)
    kinds = np.bincount(day_of * len(KINDS) + corpus.kind,
                        minlength=n * len(KINDS)).reshape(n, len(KINDS))
    tag_rows, tags = corpus.tag_ids.pairs()
    url_rows, urls = corpus.url_ids.pairs()
    distinct = (_distinct_per_day(d, ids, len(table), n).tolist()
                for d, ids, table in (
                    (day_of, corpus.author, corpus.users),
                    (day_of[tag_rows], tags, corpus.hashtags),
                    (day_of[url_rows], urls, corpus.urls)))
    rows = [DailyStats(date.fromordinal(d), posts,
                       {k.value: c for k, c in zip(KINDS, by_kind)}, *counts)
            for d, posts, by_kind, *counts in zip(
                days.tolist(), np.bincount(day_of, minlength=n).tolist(),
                kinds.tolist(), *distinct)]
    words, phrases = _word_counts(corpus.texts, frozenset(stopwords))
    return rows, {"hashtags": _counter(corpus.hashtags, tags),
                  "words": words, "phrases": phrases,
                  "mentioned_users": _counter(corpus.users,
                                              corpus.ref_ids.ids),
                  "active_users": _counter(corpus.users, corpus.author)}


def _distinct_per_day(day_of: np.ndarray, ids: np.ndarray, width: int,
                      n_days: int) -> np.ndarray:
    """The number of distinct ids on each day; ids lie below width."""
    keys = np.unique(day_of * width + ids)
    return np.bincount(keys // max(width, 1), minlength=n_days)


def _counter(names: Sequence[str], ids: np.ndarray) -> Counter:
    """How often each name's id occurs in ids."""
    counts = np.bincount(ids, minlength=len(names)).tolist()
    return Counter({name: c for name, c in zip(names, counts) if c})


def _word_counts(texts: Sequence[str], stop: frozenset[str]
                 ) -> tuple[Counter, Counter]:
    """Counters of the words of the texts that are not stopwords, and of
    the pairs of such words that follow each other in one text."""
    folds, fold_ids = _Table(), {}  # raw word -> id of its fold in folds
    ids, ptr = array("q"), array("q", [0])
    for text in texts:
        raw = _WORD_RE.findall(text)
        for w in raw:
            if w not in fold_ids:
                fold_ids[w] = folds[fold_text(w)]
        ids.extend(map(fold_ids.__getitem__, raw))
        ptr.append(len(ids))
    names = list(folds)
    rows, ids = Ragged(np.asarray(ptr, np.int64),
                       np.asarray(ids, np.int64)).pairs()
    kept = ~np.array([w in stop for w in names], bool)[ids]
    rows, ids = rows[kept], ids[kept]
    width = len(names)
    follows = rows[1:] == rows[:-1]
    pairs, counts = np.unique(ids[:-1][follows] * width + ids[1:][follows],
                              return_counts=True)
    return _counter(names, ids), Counter({
        f"{names[p // width]} {names[p % width]}": c
        for p, c in zip(pairs.tolist(), counts.tolist())})


# ---------------------------------------------------------------------------
# stance shares
# ---------------------------------------------------------------------------


def rounded_percentages(counts: Mapping[str, int]) -> dict[str, float]:
    """Percentages in tenths that sum to exactly 100.0 (when total > 0).

    Each share rounds half-even to one decimal; whatever tenths remain are
    assigned to the largest raw share (ties: lexicographically first key).
    """
    total = sum(counts.values())
    if total == 0:
        return {k: 0.0 for k in counts}
    tenths = {k: round(1000 * v / total) for k, v in counts.items()}
    leftover = 1000 - sum(tenths.values())
    if leftover:
        largest = min(counts, key=lambda k: (-counts[k], k))
        tenths[largest] += leftover
    return {k: t / 10 for k, t in tenths.items()}


@dataclass
class StanceShares:
    tweet_counts: dict[str, int]
    user_counts: dict[str, int]
    tweet_pct: dict[str, float]
    user_pct: dict[str, float]


def stance_shares(corpus: Corpus, stances: StanceMap) -> StanceShares:
    """Tweet volume and unique-author shares per stance label; stances is
    a stance map over corpus.users."""
    values, label = [s.value for s in STANCES], stances.over(corpus.users)
    tweet_counts = dict(zip(values, np.bincount(
        label[corpus.author], minlength=len(values)).tolist()))
    user_counts = dict(zip(values, np.bincount(
        label[np.unique(corpus.author)], minlength=len(values)).tolist()))
    return StanceShares(tweet_counts=tweet_counts, user_counts=user_counts,
                        tweet_pct=rounded_percentages(tweet_counts),
                        user_pct=rounded_percentages(user_counts))


# ---------------------------------------------------------------------------
# polarization series, ablation, threshold sweep
# ---------------------------------------------------------------------------


def pi_series(graphs: Sequence[tuple[date, InteractionGraph]],
              stances: StanceMap,
              **pi_kwargs) -> list[tuple[date, PolarizationResult | None]]:
    """compute_pi per day; a day whose solve raises one of GAP_ERRORS
    becomes a flagged gap (None)."""
    out = []
    for d, g in graphs:
        try:
            out.append((d, compute_pi(g, stances, **pi_kwargs)))
        except GAP_ERRORS as exc:
            log.warning("pi series gap on %s: %s", d, exc)
            out.append((d, None))
    return out


@dataclass
class AblationResult:
    date: date | None
    pi_full: float
    pi_without: dict[str, float]
    drop_isolated: bool


def ablation_victims(annotations: Mapping, influencer_set: Iterable[str],
                     users: Sequence[str]) -> dict[str, np.ndarray]:
    """The users each of ABLATION_CATEGORIES removes, as a boolean mask
    over the user table users."""
    category = np.array([getattr(annotations.get(u), "category", None)
                         for u in users], object)
    chosen = set(influencer_set)
    return {"Political": category == Category.POLITICAL,
            "MediaJournalist": category == Category.MEDIA_JOURNALIST,
            "Influencers": np.array([u in chosen for u in users], bool)}


def _reduced_graphs(g: InteractionGraph, victims: Mapping[str, np.ndarray],
                    drop_isolated: bool) -> dict[str, InteractionGraph]:
    """g without each connector category, keyed by ABLATION_CATEGORIES."""
    return {name: remove_nodes(g, victims[name], drop_isolated)
            for name in ABLATION_CATEGORIES}


def _pis_without(reduced: Mapping[str, InteractionGraph],
                 stances: StanceMap,
                 **pi_kwargs) -> dict[str, float]:
    """pi of each reduced graph, naming an emptied category."""
    pi_without = {}
    for name, graph in reduced.items():
        try:
            pi_without[name] = compute_pi(graph, stances, **pi_kwargs).pi
        except ValueError as exc:
            raise ValueError(f"removing {name} nodes: {exc}") from exc
    return pi_without


@dataclass
class ThresholdSweepEntry:
    threshold: float
    pi_full: float
    pi_without: dict[str, float]
    n_left_users: int
    n_right_users: int


@dataclass
class ThresholdSweepResult:
    entries: list[ThresholdSweepEntry | tuple[float, str]]


def threshold_sweep(g: InteractionGraph, stances: StanceMap,
                    annotations: Mapping, influencer_set: Iterable[str],
                    thresholds: Sequence[float] = (0.0, 0.5, 0.7),
                    drop_isolated: bool = True, **pi_kwargs
                    ) -> ThresholdSweepResult:
    """Relabel stances and redo every ablation PI at each threshold.

    stances is a stance map over g's user table, at any threshold.
    Neither its tallies nor the reduced graphs depend on the threshold, so
    the reduced graphs are cut once, and each threshold relabels the
    tallies (StanceMap.at), counts the camps among g's nodes and runs the
    solves.  A threshold whose solves raise one of GAP_ERRORS, say on a
    graph that a category's removal empties, is a gap: (threshold, cause),
    logged at WARNING.
    """
    reduced = _reduced_graphs(
        g, ablation_victims(annotations, influencer_set, g.users),
        drop_isolated)
    entries = []
    for t in thresholds:
        relabelled = stances.at(t)
        # over() raises before the solves: another table is not a gap
        camps = np.bincount(relabelled.over(g.users)[g.ids], minlength=2)
        try:
            pi_full = compute_pi(g, relabelled, **pi_kwargs).pi
            pi_without = _pis_without(reduced, relabelled, **pi_kwargs)
        except GAP_ERRORS as exc:
            log.warning("sweep gap at threshold %g: %s", t, exc)
            entries.append((t, str(exc)))
            continue
        n_left, n_right = camps[:2].tolist()
        entries.append(ThresholdSweepEntry(
            threshold=t, pi_full=pi_full, pi_without=pi_without,
            n_left_users=n_left, n_right_users=n_right))
    return ThresholdSweepResult(entries=entries)


# ---------------------------------------------------------------------------
# run configuration and the report bundle
# ---------------------------------------------------------------------------


# keys of deleted run options; old config files still load, and ignore them
RETIRED_CONFIG_KEYS = ("solver", "workers")


@dataclass
class RunConfig:
    tweets: Path
    annotations: Path
    follows: Path
    out_dir: Path
    rules: Path | None = None  # None -> shipped default rule set
    threshold: float = 0.0
    sweep_thresholds: tuple[float, ...] = (0.0, 0.5, 0.7)
    k: int = 500
    drop_isolated: bool = True
    include_isolated: bool = True
    tol: float = 1e-10
    top_k: int = 10
    stopwords: Path | None = None
    date_from: date | None = None
    date_to: date | None = None
    schema_strict: bool = False
    # emit ablation rows for both drop_isolated modes instead of just the
    # configured one (stranded satellites mechanically inflate PI, so the
    # two variants bracket the effect)
    ablate_both_variants: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON run config; paths resolve against its directory.

        Every value must have its field's JSON type (bool is neither an
        integer nor a number here), dates must be ISO dates, threshold
        and each sweep threshold must lie in [0, 1], tol must be positive
        and finite, k must be non-negative, top_k positive, and every key
        must be a field or one of RETIRED_CONFIG_KEYS; otherwise a
        ValueError names the key.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("run config must be a JSON object")
        known = {f.name for f in fields(cls)}.union(RETIRED_CONFIG_KEYS)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(
                "unknown config key " + ", ".join(map(repr, unknown)))
        base = path.parent

        def typed(key, default, types: tuple, what: str):
            value = raw.get(key, default)
            if type(value) not in types:
                raise ValueError(f"{key!r} must be {what}, got {value!r}")
            return value

        def text(key) -> str | None:
            return typed(key, None, (str, type(None)), "a string") or None

        def respath(key) -> Path | None:
            value = text(key)
            return (base / value).resolve() if value else None

        def day(key) -> date | None:
            value = text(key)
            try:
                return date.fromisoformat(value) if value else None
            except ValueError:
                raise ValueError(
                    f"{key!r} must be an ISO date, got {value!r}") from None

        def flag(key, default: bool) -> bool:
            return typed(key, default, (bool,), "true or false")

        def integer(key, default: int, least: int) -> int:
            value = typed(key, default, (int,), "an integer")
            if value < least:
                raise ValueError(
                    f"{key!r} must be at least {least}, got {value!r}")
            return value

        def number(key, default: float) -> float:
            return float(typed(key, default, (int, float), "a number"))

        thresholds = typed("sweep_thresholds", [0.0, 0.5, 0.7], (list,),
                           "a list of numbers")
        if any(type(t) not in (int, float) or not 0.0 <= t <= 1.0
               for t in thresholds):
            raise ValueError("'sweep_thresholds' must be a list of numbers "
                             f"in [0, 1], got {thresholds!r}")
        threshold = number("threshold", 0.0)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"'threshold' must lie in [0, 1], got {threshold!r}")
        tol = number("tol", 1e-10)
        if not 0.0 < tol < float("inf"):
            raise ValueError(
                f"'tol' must be a positive finite number, got {tol!r}")

        return cls(
            tweets=respath("tweets"),
            annotations=respath("annotations"),
            follows=respath("follows"),
            out_dir=respath("out_dir") or (base / "out").resolve(),
            rules=respath("rules"),
            threshold=threshold,
            sweep_thresholds=tuple(thresholds),
            k=integer("k", 500, 0),
            drop_isolated=flag("drop_isolated", True),
            include_isolated=flag("include_isolated", True),
            tol=tol,
            top_k=integer("top_k", 10, 1),
            stopwords=respath("stopwords"),
            date_from=day("date_from"),
            date_to=day("date_to"),
            schema_strict=flag("schema_strict", False),
            ablate_both_variants=flag("ablate_both_variants", False),
        )


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class Runner:
    """Caches pipeline stages so CLI subcommands can share one code path."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._cache: dict[str, object] = {}
        self.load_errors: list = []

    def _get(self, key: str, builder: Callable):
        if key not in self._cache:
            log.debug("stage %s: start", key)
            start = perf_counter()
            try:
                self._cache[key] = builder()
            except StageError:
                raise
            except Exception as exc:
                raise StageError(key, exc) from exc
            # the time includes any stage this one built first
            log.debug("stage %s: done in %.3f s", key,
                      perf_counter() - start)
        return self._cache[key]

    # -- stages ------------------------------------------------------------

    @property
    def rule_set(self) -> RuleSet:
        """The rule set with its study window clamped by date_from and
        date_to; a clamp that leaves no day raises, naming both ends."""
        def build():
            rs = (load_rule_set(self.config.rules) if self.config.rules
                  else default_rule_set())
            lo, hi = rs.study_window
            if self.config.date_from:
                lo = max(lo, self.config.date_from)
            if self.config.date_to:
                hi = min(hi, self.config.date_to)
            if lo > hi:
                raise ValueError(f"empty study window: it would start on "
                                 f"{lo} and end on {hi}")
            rs.study_window = (lo, hi)
            return rs
        return self._get("rules", build)

    @property
    def filtered(self) -> tuple[Corpus, FilterReport]:
        return self._get("filter", lambda: filter_corpus(
            self.rule_set, self.config.tweets,
            schema_strict=self.config.schema_strict,
            error_log=self.load_errors))

    @property
    def annotations(self):
        return self._get("annotations",
                         lambda: load_annotations(self.config.annotations))

    @property
    def follows(self):
        return self._get("follows",
                         lambda: load_follows(self.config.follows,
                                              self.annotations))

    @property
    def full_graph(self) -> InteractionGraph:
        return self._get("graph", lambda: build_graph(self.filtered[0]))

    @property
    def daily(self) -> list[tuple[date, InteractionGraph]]:
        return self._get("daily", lambda: daily_graphs(self.filtered[0]))

    @property
    def stances(self) -> StanceMap:
        return self._get("stance", lambda: stance_map(
            self.follows, self.annotations, threshold=self.config.threshold,
            users=self.filtered[0].users))

    @property
    def influencer_ranking(self):
        def build():
            g = self.full_graph
            return netshield(g, min(self.config.k, g.n))
        return self._get("influencers", build)

    @property
    def stopword_set(self) -> frozenset[str]:
        def build():
            if not self.config.stopwords:
                return frozenset()
            text = Path(self.config.stopwords).read_text(encoding="utf-8")
            return frozenset(w.strip() for w in text.splitlines() if w.strip())
        return self._get("stopwords", build)

    def _pi_kwargs(self) -> dict:
        return {"tol": self.config.tol,
                "include_isolated": self.config.include_isolated}

    @property
    def series(self):
        return self._get("polarize", lambda: pi_series(
            self.daily, self.stances, **self._pi_kwargs()))

    @property
    def ablation_rows(self) -> list[AblationResult | tuple[date, bool, str]]:
        """Per day, one row per ablation variant (drop_isolated True, then
        False, or the configured one); a gap is (date, drop_isolated,
        cause)."""
        def build():
            variants = ((True, False) if self.config.ablate_both_variants
                        else (self.config.drop_isolated,))
            stances = self.stances
            pi_kwargs = self._pi_kwargs()
            victims = ablation_victims(self.annotations,
                                       self.influencer_ranking.selected,
                                       self.full_graph.users)
            # the series stage already solved each day's full graph with
            # these arguments; only its gap days are solved again, to
            # reproduce their error
            series = dict(self.series)
            rows = []
            for d, g in self.daily:
                for drop in variants:
                    try:
                        reduced = _reduced_graphs(g, victims, drop)
                        full = series[d] or compute_pi(g, stances, **pi_kwargs)
                        rows.append(AblationResult(
                            d, full.pi,
                            _pis_without(reduced, stances, **pi_kwargs), drop))
                    except GAP_ERRORS as exc:
                        log.warning("ablation gap on %s: %s", d, exc)
                        rows.append((d, drop, str(exc)))
            return rows
        return self._get("ablate", build)

    @property
    def sweep(self) -> ThresholdSweepResult:
        return self._get("sweep", lambda: threshold_sweep(
            self.full_graph, self.stances, self.annotations,
            thresholds=self.config.sweep_thresholds,
            influencer_set=self.influencer_ranking.selected,
            drop_isolated=self.config.drop_isolated,
            **self._pi_kwargs()))

    @property
    def communities(self):
        def build():
            g = self.full_graph
            if g.n == 0:
                return None
            partition = louvain(g)
            decompose_communities(partition, self.stances.over(g.users)[g.ids])
            return partition
        return self._get("communities", build)

    @property
    def stats(self) -> tuple[list[DailyStats], dict[str, Counter]]:
        return self._get("stats", lambda: compute_stats(
            self.filtered[0], self.stopword_set))

    @property
    def shares(self) -> StanceShares:
        return self._get("shares",
                         lambda: stance_shares(self.filtered[0], self.stances))

    # -- emitters ----------------------------------------------------------

    def _open(self, name: str):
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        return (self.config.out_dir / name).open("w", encoding="utf-8",
                                                 newline="")

    def write_filtered(self) -> Path:
        """filtered.jsonl and filter_report.json, from a filter pass of
        their own that writes each kept tweet as it meets it; the filter
        stage's load_errors are left as they are."""
        rule_set, report, errors = self.rule_set, FilterReport(), []
        path = self.config.out_dir / "filtered.jsonl"
        try:
            with self._open("filtered.jsonl") as fh:
                for obj, fields, hashtags, _ in kept_tweets(
                        rule_set, self.config.tweets, report,
                        self.config.schema_strict, errors):
                    fh.write(json.dumps(archive_obj(obj, fields, hashtags),
                                        ensure_ascii=False, sort_keys=True)
                             + "\n")
        except Exception as exc:
            path.unlink(missing_ok=True)
            raise StageError("filter", exc) from exc
        with self._open("filter_report.json") as fh:
            payload = report.to_dict()
            payload["malformed_lines"] = len(errors)
            json.dump(payload, fh, indent=2, sort_keys=True,
                      ensure_ascii=False)
            fh.write("\n")
        return path

    def _write_csv(self, name: str, header: Sequence[str],
                   rows: Iterable[Sequence]) -> Path:
        with self._open(name) as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        return self.config.out_dir / name

    def write_stats(self) -> Path:
        kinds = [k.value for k in KINDS]
        return self._write_csv(
            "stats_daily.csv",
            ["date", "n_posts", *(f"n_{k}" for k in kinds), "n_users",
             "n_hashtags", "n_urls"],
            ([row.date.isoformat(), row.n_posts,
              *(row.n_by_kind[k] for k in kinds), row.n_users,
              row.n_hashtags, row.n_urls] for row in self.stats[0]))

    def write_stance(self) -> Path:
        path = self.config.out_dir / "stance.csv"
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        write_stance_csv(self.stances, path)
        return path

    def write_pi_series(self) -> Path:
        return self._write_csv(
            "pi_series.csv",
            ["date", "n", "m", "pi", "method", "iterations", "residual"],
            ([d.isoformat(), "", "", "", "gap", "", ""] if result is None
             else [d.isoformat(), result.n, result.m, _fmt(result.pi),
                   "CG", result.solver.iterations,
                   format(result.solver.residual, ".3e")]
             for d, result in self.series))

    def write_influencers(self) -> Path:
        ranking = self.influencer_ranking
        return self._write_csv(
            "influencers.csv", ["rank", "user_id", "marginal_score"],
            ([rank, uid, _fmt(score)] for rank, (uid, score) in enumerate(
                zip(ranking.selected, ranking.shield_scores), start=1)))

    def write_ablation(self) -> Path:
        return self._write_csv(
            "ablation.csv",
            ["date", "drop_isolated", "pi_full", *_PI_WITHOUT_COLUMNS],
            ([row[0].isoformat(), "", "", "", "", ""]
             if isinstance(row, tuple)
             else [row.date.isoformat(), str(row.drop_isolated).lower(),
                   _fmt(row.pi_full),
                   *(_fmt(row.pi_without[c]) for c in ABLATION_CATEGORIES)]
             for row in self.ablation_rows))

    def write_sweep(self) -> Path:
        entries = self.sweep.entries if self.full_graph.n else []
        return self._write_csv(
            "sweep.csv",
            ["threshold", "pi_full", *_PI_WITHOUT_COLUMNS, "n_left_users",
             "n_right_users"],
            ([format(e[0], "g"), "", "", "", "", "", ""]
             if isinstance(e, tuple)
             else [format(e.threshold, "g"), _fmt(e.pi_full),
                   *(_fmt(e.pi_without[c]) for c in ABLATION_CATEGORIES),
                   e.n_left_users, e.n_right_users] for e in entries))

    def write_communities(self) -> Path:
        partition = self.communities
        ranked = [] if partition is None else partition.per_community
        return self._write_csv(
            "communities.csv",
            ["community_id", "size", "n_left", "n_right", "n_center",
             "n_neutral", "lean"],
            ([p.community_id, p.size, p.n_left, p.n_right, p.n_center,
              p.n_neutral, _fmt(p.lean)] for p in ranked))

    def graphml_name(self) -> str:
        lo, hi = self.rule_set.study_window
        return f"graph_{lo.strftime('%Y%m%d')}-{hi.strftime('%Y%m%d')}.graphml"

    def write_graphml(self) -> Path:
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.config.out_dir / self.graphml_name()
        export_graph(self.full_graph, path, stances=self.stances,
                     annotations=self.annotations)
        return path

    def write_summary(self) -> Path:
        from .report import render_summary
        html = render_summary(self)
        with self._open("summary.html") as fh:
            fh.write(html)
        return self.config.out_dir / "summary.html"

    def write_manifest(self, outputs: Sequence[str]) -> Path:
        inputs = {}
        for label, p in (("tweets", self.config.tweets),
                         ("annotations", self.config.annotations),
                         ("follows", self.config.follows),
                         ("rules", self.config.rules),
                         ("stopwords", self.config.stopwords)):
            if p is not None:
                inputs[label] = {"path": str(p), "sha256": _sha256(Path(p))}
        manifest = {
            "version": __version__,
            "config": vars(self.config),
            "inputs": inputs,
            "outputs": sorted(outputs),
        }
        with self._open("run_manifest.json") as fh:
            # paths and dates are written as str() gives them
            json.dump(manifest, fh, indent=2, sort_keys=True,
                      ensure_ascii=False, default=str)
            fh.write("\n")
        return self.config.out_dir / "run_manifest.json"


def run_all(config: RunConfig) -> dict[str, Path]:
    """Execute every stage and write the full report bundle.

    Returns a name -> path map of everything written.  Deterministic for
    fixed inputs; an empty corpus still produces the whole bundle (headers
    only) plus a warning.
    """
    runner = Runner(config)
    if runner.filtered[1].kept == 0:
        log.warning("filter kept no tweets; emitting an empty bundle")
    writers = [
        ("stats_daily.csv", runner.write_stats),
        ("stance.csv", runner.write_stance),
        ("pi_series.csv", runner.write_pi_series),
        ("influencers.csv", runner.write_influencers),
        ("ablation.csv", runner.write_ablation),
        ("sweep.csv", runner.write_sweep),
        ("communities.csv", runner.write_communities),
        (runner.graphml_name(), runner.write_graphml),
        ("summary.html", runner.write_summary),
    ]
    bundle: dict[str, Path] = {}
    for name, writer in writers:
        try:
            bundle[name] = writer()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name.rsplit(".", 1)[0], exc) from exc
    bundle["run_manifest.json"] = runner.write_manifest(list(bundle))
    return bundle
