"""End-to-end analyses over a corpus: stats, shares, PI series, ablations,
threshold sweeps, communities, and the deterministic report bundle.

Everything here is glue around the other modules; the one piece of real
policy is the rounding rule for percentage tables (round-half-even to one
decimal, remainder pinned onto the largest share so rows always total
100.0) and the words counted for the summary (unicode letter runs,
case/accent-folded, contiguous bigrams as phrases).  The stats, content
and share stages work on the Corpus's id columns with array operations,
and compute what the bundle reads: counts per local day for
stats_daily.csv (compute_stats), and whole-window counters for the
summary's top tables (window_counts), which alone read the texts' words.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import resource
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from datetime import date
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .corpus import (CATEGORIES, KINDS, Annotations, Corpus,
                     FilterReport, Ragged, RuleSet, _csv_lines, _distinct,
                     _reject_unknown, _Table, archive_obj, default_rule_set,
                     filter_corpus, fold_text, join_onto, json_value,
                     kept_tweets, load_annotations, load_follows,
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

_CHUNK = 4096  # tweets whose word ids the stats hold at once

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


def compute_stats(corpus: Corpus) -> list[DailyStats]:
    """Counts per local day, in ascending date; they read no words."""
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
    return [DailyStats(date.fromordinal(d), posts,
                       dict(zip(KINDS, by_kind)), *counts)
            for d, posts, by_kind, *counts in zip(
                days.tolist(), np.bincount(day_of, minlength=n).tolist(),
                kinds.tolist(), *distinct)]


def window_counts(corpus: Corpus, stopwords: Iterable[str] = ()
                  ) -> dict[str, Counter]:
    """Whole-window counters keyed hashtags, words, phrases,
    mentioned_users and active_users; corpus must hold words
    (filter_corpus(..., words=True)).

    Words are the letter runs of each text (the corpus's words), folded by
    fold_text, minus the folded stopwords; each entry of the corpus's word
    table is folded once per call.  Phrases are the bigrams of a tweet's
    remaining words.
    """
    words, phrases = _word_counts(corpus.words, corpus.word_ids,
                                  frozenset(map(fold_text, stopwords)))
    return {"hashtags": _counter(corpus.hashtags, corpus.tag_ids.ids),
            "words": words, "phrases": phrases,
            "mentioned_users": _counter(corpus.users, corpus.ref_ids.ids),
            "active_users": _counter(corpus.users, corpus.author)}


def _distinct_per_day(day_of: np.ndarray, ids: np.ndarray, width: int,
                      n_days: int) -> np.ndarray:
    """The number of distinct ids on each day; ids lie below width."""
    keys = _distinct(day_of * width + ids)
    return np.bincount(keys // max(width, 1), minlength=n_days)


def _counter(names: Sequence[str], ids: np.ndarray) -> Counter:
    """How often each name's id occurs in ids."""
    counts = np.bincount(ids, minlength=len(names)).tolist()
    return Counter({name: c for name, c in zip(names, counts) if c})


def _word_counts(words: Sequence[str], word_ids: Ragged,
                 stop: frozenset[str]) -> tuple[Counter, Counter]:
    """Counters of the folds of the words that are not stopwords, and of
    the pairs of such folds that follow each other in one tweet; word_ids
    holds each tweet's ids into words.  Each entry of words is folded once.
    Only _CHUNK tweets' fold ids are held at once; each chunk's distinct
    pairs (keys a << 31 | b of fold ids) and counts wait, and are merged
    into the running ones whenever they outnumber them."""
    folds = _Table()  # in words' order, so a fold's id is its first use
    fold_of = np.array([-1 if fold in stop else folds[fold]
                        for fold in map(fold_text, words)], np.int64)
    counts = np.zeros(len(folds), np.int64)
    keys, key_counts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    waiting = 0  # keys of the chunks since the last merge
    for start in range(0, len(word_ids.ptr) - 1, _CHUNK):
        at = word_ids.ptr[start:start + _CHUNK + 1]
        rows, ids = Ragged(at - at[0], fold_of[word_ids.ids[at[0]:at[-1]]]
                           ).pairs()
        kept = ids >= 0
        rows, ids = rows[kept], ids[kept]
        counts += np.bincount(ids, minlength=len(folds))
        follows = rows[1:] == rows[:-1]
        chunk_keys, chunk_counts = np.unique(
            ids[:-1][follows] << 31 | ids[1:][follows], return_counts=True)
        keys.append(chunk_keys)
        key_counts.append(chunk_counts)
        waiting += len(chunk_keys)
        if waiting > len(keys[0]):
            merged, merged_counts = _merged(keys, key_counts)
            keys, key_counts, waiting = [merged], [merged_counts], 0
    pairs, pair_counts = _merged(keys, key_counts)
    names = list(folds)
    phrases = Counter({f"{names[p >> 31]} {names[p & 0x7FFFFFFF]}": c
                       for p, c in zip(pairs.tolist(), pair_counts.tolist())})
    return Counter({name: c for name, c in zip(names, counts.tolist())
                    if c}), phrases


def _merged(keys: Sequence[np.ndarray], counts: Sequence[np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of all the key arrays, ascending, and the sum of
    each one's counts."""
    merged, entry = np.unique(np.concatenate(keys), return_inverse=True)
    return merged, np.bincount(entry, weights=np.concatenate(counts),
                               minlength=len(merged)).astype(np.int64)


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
    label = stances.over(corpus.users)
    tweet_counts = dict(zip(STANCES, np.bincount(
        label[corpus.author], minlength=len(STANCES)).tolist()))
    user_counts = dict(zip(STANCES, np.bincount(
        label[_distinct(corpus.author)], minlength=len(STANCES)).tolist()))
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
    date: date
    pi_full: float
    pi_without: dict[str, float]
    drop_isolated: bool


def ablation_victims(annotations: Annotations, influencer_set: Iterable[str],
                     users: Sequence[str]) -> dict[str, np.ndarray]:
    """The users each of ABLATION_CATEGORIES removes, as a boolean mask
    over the sorted user table users; a pick outside it removes no one."""
    category = join_onto(users, annotations.users, annotations.category)
    picks = list(influencer_set)
    code = CATEGORIES.index
    return {"Political": category == code("Political"),
            "MediaJournalist": category == code("MediaJournalist"),
            "Influencers": join_onto(users, picks, np.ones(len(picks), bool))}


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
                    annotations: Annotations, influencer_set: Iterable[str],
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


def sweep_rows(entries: Sequence, fmt: Callable[[float], str]) -> list[list]:
    """Sweep rows, PIs written by fmt; a gap's row holds its threshold only."""
    return [[format(e[0], "g"), "", "", "", "", "", ""] if isinstance(e, tuple)
            else [format(e.threshold, "g"), fmt(e.pi_full),
                  *(fmt(e.pi_without[c]) for c in ABLATION_CATEGORIES),
                  e.n_left_users, e.n_right_users] for e in entries]


# ---------------------------------------------------------------------------
# run configuration and the report bundle
# ---------------------------------------------------------------------------


# keys of deleted run options; old config files still load, and ignore them
RETIRED_CONFIG_KEYS = ("solver", "workers")

# the range rule of each RunConfig option that has one: a test of the
# value, and what the value must be
_RANGES = {
    "threshold": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "sweep_thresholds": (lambda v: all(0.0 <= t <= 1.0 for t in v),
                         "be a list of numbers in [0, 1]"),
    "tol": (lambda v: 0.0 < v < float("inf"), "be a positive finite number"),
    "k": (lambda v: v >= 0, "be at least 0"),
    "top_k": (lambda v: v >= 1, "be at least 1"),
}


def check_option(key: str, value):
    """value, if it meets the range rule of RunConfig option key; otherwise
    a ValueError names the key."""
    test, what = _RANGES[key]
    if not test(value):
        raise ValueError(f"{key!r} must {what}, got {value!r}")
    return value


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

    def __setattr__(self, key, value):  # __init__, replace and assignment
        super().__setattr__(
            key, check_option(key, value) if key in _RANGES else value)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON run config; paths resolve against its directory.

        Every value must have its field type's JSON form (json_value), and
        every key must be a field or one of RETIRED_CONFIG_KEYS; otherwise
        a ValueError names the key.  A key that is absent, or a path or
        date that is "" or null, takes the field's default: out_dir is
        then "out" beside the file, and tweets, annotations and follows
        have none.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("run config must be a JSON object")
        raw = {k: v for k, v in raw.items() if k not in RETIRED_CONFIG_KEYS}
        _reject_unknown(raw, cls, "run config")
        types = {f.name: f.type.removesuffix(" | None") for f in fields(cls)}
        base = path.parent
        values = {"out_dir": Path("out")}
        for key, value in raw.items():
            value = json_value(key, value, types[key])
            if value is not None:
                values[key] = value
        missing = [f.name for f in fields(cls) if f.name not in values
                   and f.default is MISSING]
        if missing:
            raise ValueError(
                "missing config key " + ", ".join(map(repr, missing)))
        return cls(**{key: (base / value).resolve() if isinstance(value, Path)
                      else value for key, value in values.items()})


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _memory_mb() -> tuple[float, float]:
    """The memory this process holds now (/proc/self/statm; where there is
    none, its peak) and its peak so far (ru_maxrss), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak, peak
    return pages * resource.getpagesize() / 2**20, peak


def _stage(key: str) -> Callable[[Callable], property]:
    """A Runner property whose value the decorated method builds once, as
    stage key (Runner._as_stage), and which is cached in _cache[key]."""
    def decorate(build: Callable) -> property:
        def get(self):
            if key not in self._cache:
                self._cache[key] = self._as_stage(key, key, build, self)
            return self._cache[key]
        return property(get, doc=build.__doc__)
    return decorate


class Runner:
    """Caches pipeline stages so CLI subcommands can share one code path."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._cache: dict[str, object] = {}
        self.load_errors: list = []
        self._words = False  # whether the filter pass reads words
        self._spent = 0.0  # time in finished stages, nested ones once
        self._peak = 0.0  # the most memory any reading has shown, in MB

    def _as_stage(self, label: str, name: str, fn: Callable, *args):
        """fn(*args), logged at DEBUG as stage label with its time, its self
        time (less the stages it built first) and the memory after it; an
        error that is not a StageError fails stage name."""
        log.debug("stage %s: start", label)
        before, start = self._spent, perf_counter()
        try:
            result = fn(*args)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        elapsed = perf_counter() - start
        # _spent grew by the time of the stages this one built first
        inner, self._spent = self._spent - before, before + elapsed
        if log.isEnabledFor(logging.DEBUG):
            log.debug("stage %s: done in %.3f s, self %.3f s, "
                      "%.1f MB resident, %.1f MB peak", label, elapsed,
                      elapsed - inner, *self._memory())
        return result

    def _memory(self) -> tuple[float, float]:
        """_memory_mb, with the peak raised to the most that any reading
        of this run has shown: ru_maxrss can lag the resident memory."""
        resident, peak = _memory_mb()
        self._peak = max(self._peak, resident, peak)
        return resident, self._peak

    # -- stages ------------------------------------------------------------

    @_stage("rules")
    def rule_set(self) -> RuleSet:
        """The rule set with its study window clamped by date_from and
        date_to; a clamp that leaves no day raises, naming both ends."""
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

    @_stage("filter")
    def filtered(self) -> tuple[Corpus, FilterReport]:
        """The kept tweets and the pass's counters; the pass reads words
        only when the content stage asked for it first.  Logs at DEBUG what
        became of the archive's lines."""
        corpus, report = filter_corpus(
            self.rule_set, self.config.tweets,
            schema_strict=self.config.schema_strict,
            error_log=self.load_errors, words=self._words)
        malformed = len(self.load_errors)
        log.debug("filter: %d lines read, %d kept, %d dropped by "
                  "language, %d by window, %d by no rule, %d malformed; "
                  "words %s", report.total + malformed, report.kept,
                  report.dropped_lang, report.dropped_window,
                  report.dropped_no_rule, malformed,
                  "read" if self._words else "not read")
        return corpus, report

    @_stage("annotations")
    def annotations(self):
        return load_annotations(self.config.annotations)

    @_stage("follows")
    def follows(self):
        return load_follows(self.config.follows, self.annotations)

    @_stage("graph")
    def full_graph(self) -> InteractionGraph:
        return build_graph(self.filtered[0])

    @_stage("daily")
    def daily(self) -> list[tuple[date, InteractionGraph]]:
        return daily_graphs(self.filtered[0])

    @_stage("stance")
    def stances(self) -> StanceMap:
        return stance_map(self.follows, threshold=self.config.threshold,
                          users=self.filtered[0].users)

    @_stage("influencers")
    def influencer_ranking(self):
        g = self.full_graph
        return netshield(g, min(self.config.k, g.n))

    @_stage("stopwords")
    def stopword_set(self) -> frozenset[str]:
        if not self.config.stopwords:
            return frozenset()
        lines = _csv_lines(Path(self.config.stopwords))
        return frozenset(w.strip() for w in lines if w.strip())

    def _pi_kwargs(self) -> dict:
        return {"tol": self.config.tol,
                "include_isolated": self.config.include_isolated}

    @_stage("polarize")
    def series(self):
        return pi_series(self.daily, self.stances, **self._pi_kwargs())

    @_stage("ablate")
    def ablation_rows(self) -> list[AblationResult | tuple[date, bool, str]]:
        """Per day, one row per ablation variant (drop_isolated True, then
        False, or the configured one); a gap is (date, drop_isolated,
        cause)."""
        variants = ((True, False) if self.config.ablate_both_variants
                    else (self.config.drop_isolated,))
        stances = self.stances
        pi_kwargs = self._pi_kwargs()
        victims = ablation_victims(self.annotations,
                                   self.influencer_ranking.selected,
                                   self.full_graph.users)
        # the series stage already solved each day's full graph with these
        # arguments; only its gap days are solved again, to reproduce their
        # error
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

    @_stage("sweep")
    def sweep(self) -> ThresholdSweepResult:
        """The threshold sweep; on an empty graph it has no entries."""
        g = self.full_graph
        if g.n == 0:
            return ThresholdSweepResult(entries=[])
        return threshold_sweep(
            g, self.stances, self.annotations,
            thresholds=self.config.sweep_thresholds,
            influencer_set=self.influencer_ranking.selected,
            drop_isolated=self.config.drop_isolated, **self._pi_kwargs())

    @_stage("communities")
    def communities(self):
        g = self.full_graph
        if g.n == 0:
            return None
        partition = louvain(g)
        decompose_communities(partition, self.stances.over(g.users)[g.ids])
        return partition

    @_stage("stats")
    def stats(self) -> list[DailyStats]:
        return compute_stats(self.filtered[0])

    @_stage("content")
    def content(self) -> dict[str, Counter]:
        """The summary's whole-window counters (window_counts).  Asked for
        before the filter stage, it has that pass read words; after a pass
        without them, it reads them in a pass of its own, whose malformed
        lines go to a list of its own, not to load_errors."""
        self._words = True
        corpus = self.filtered[0]
        if corpus.words is None:
            corpus, _ = filter_corpus(
                self.rule_set, self.config.tweets,
                schema_strict=self.config.schema_strict, error_log=[],
                words=True)
        return window_counts(corpus, self.stopword_set)

    @_stage("shares")
    def shares(self) -> StanceShares:
        return stance_shares(self.filtered[0], self.stances)

    # -- emitters ----------------------------------------------------------

    def write(self, name: str, *args) -> Path:
        """The path that writer write_<name>(*args) wrote; an error it
        raises that is not a StageError fails stage name."""
        writer = f"write_{name}"
        return self._as_stage(writer, name, getattr(self, writer), *args)

    def _path(self, name: str) -> Path:
        """name in out_dir, which is made first if it is missing."""
        path = Path(self.config.out_dir, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _write_text(self, name: str, text: str) -> Path:
        path = self._path(name)
        path.write_text(text, encoding="utf-8", newline="")
        return path

    def write_filtered(self) -> Path:
        """filtered.jsonl and filter_report.json, from a filter pass of
        their own that writes each kept tweet as it meets it; the filter
        stage's load_errors are left as they are.  A pass that fails
        removes both files."""
        rule_set, report, errors = self.rule_set, FilterReport(), []
        path = self._path("filtered.jsonl")
        try:
            with path.open("w", encoding="utf-8", newline="") as fh:
                for obj, fields, hashtags, _ in kept_tweets(
                        rule_set, self.config.tweets, report,
                        self.config.schema_strict, errors):
                    fh.write(json.dumps(archive_obj(obj, fields, hashtags),
                                        ensure_ascii=False, sort_keys=True)
                             + "\n")
        except Exception as exc:
            path.unlink(missing_ok=True)
            self._path("filter_report.json").unlink(missing_ok=True)
            raise StageError("filter", exc) from exc
        payload = report.to_dict()
        payload["malformed_lines"] = len(errors)
        self._write_text("filter_report.json", json.dumps(
            payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
        return path

    def _write_csv(self, name: str, header: Sequence[str],
                   rows: Iterable[Sequence]) -> Path:
        path = self._path(name)
        with path.open("w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        return path

    def write_stats(self) -> Path:
        return self._write_csv(
            "stats_daily.csv",
            ["date", "n_posts", *(f"n_{k}" for k in KINDS), "n_users",
             "n_hashtags", "n_urls"],
            ([row.date.isoformat(), row.n_posts,
              *(row.n_by_kind[k] for k in KINDS), row.n_users,
              row.n_hashtags, row.n_urls] for row in self.stats))

    def write_stance(self) -> Path:
        path = self._path("stance.csv")
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
        return self._write_csv(
            "sweep.csv",
            ["threshold", "pi_full", *_PI_WITHOUT_COLUMNS, "n_left_users",
             "n_right_users"],
            sweep_rows(self.sweep.entries, _fmt))

    def write_communities(self) -> Path:
        partition = self.communities
        ranked = [] if partition is None else partition.per_community
        return self._write_csv(
            "communities.csv",
            ["community_id", "size", "n_left", "n_right", "n_center",
             "n_neutral", "lean"],
            ([p.community_id, p.size, p.n_left, p.n_right, p.n_center,
              p.n_neutral, _fmt(p.lean)] for p in ranked))

    def write_graphml(self) -> Path:
        """graph_<first day>-<last day>.graphml, over the study window."""
        lo, hi = self.rule_set.study_window
        path = self._path(f"graph_{lo:%Y%m%d}-{hi:%Y%m%d}.graphml")
        export_graph(self.full_graph, path, stances=self.stances,
                     annotations=self.annotations)
        return path

    def write_summary(self) -> Path:
        from .report import render_summary
        return self._write_text("summary.html", render_summary(self))

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
        # paths and dates are written as str() gives them
        return self._write_text("run_manifest.json", json.dumps(
            manifest, indent=2, sort_keys=True, ensure_ascii=False,
            default=str) + "\n")


def run_all(config: RunConfig) -> dict[str, Path]:
    """Execute every stage and write the full report bundle.

    Returns a name -> path map of everything written.  Deterministic for
    fixed inputs; an empty corpus still produces the whole bundle (headers
    only) plus a warning.
    """
    start = perf_counter()
    runner = Runner(config)
    runner.content  # first, so that the one filter pass reads words
    if runner.filtered[1].kept == 0:
        log.warning("filter kept no tweets; emitting an empty bundle")
    bundle = {path.name: path for path in map(runner.write, (
        "stats", "stance", "pi_series", "influencers", "ablation", "sweep",
        "communities", "graphml", "summary"))}
    bundle["run_manifest.json"] = runner.write("manifest", list(bundle))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("run_all: done in %.3f s, %.1f MB peak",
                  perf_counter() - start, runner._memory()[1])
    return bundle
