"""Political stance attribution from followed political accounts.

A user's stance comes from tallying the annotated sides of the political
accounts they follow: strict plurality decides Left/Right, equal Left and
Right tallies (or a Center-dominated tally) give Center, and zero political
follows give Neutral.  An optional threshold additionally requires the
winning side to hold at least that fraction of *all* the user's political
follows before a Left/Right label is granted; users failing it fall back to
Center (never Neutral, which is reserved for the no-follows case).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AccountAnnotation, Category, FollowRecord, Side


class Stance(Enum):
    LEFT = "Left"
    RIGHT = "Right"
    CENTER = "Center"
    NEUTRAL = "Neutral"


class MissingAnnotationError(KeyError):
    """A followed account has no Political annotation."""


@dataclass(frozen=True, slots=True)
class StanceAssignment:
    user_id: str
    stance: Stance
    n_left: int
    n_right: int
    n_center: int
    threshold_used: float

    @property
    def total_follows(self) -> int:
        return self.n_left + self.n_right + self.n_center


def _side_of(followed_id: str,
             annotations: Mapping[str, AccountAnnotation]) -> Side:
    ann = annotations.get(followed_id)
    if ann is None or ann.category is not Category.POLITICAL or ann.side is None:
        raise MissingAnnotationError(
            f"followed account {followed_id!r} lacks a Political annotation")
    return ann.side


def classify(n_left: int, n_right: int, n_center: int,
             threshold: float = 0.0) -> Stance:
    """The stance rule on raw tallies (order matters; see module docstring)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    total = n_left + n_right + n_center
    if total == 0:
        return Stance.NEUTRAL
    if n_left > n_right and n_left >= threshold * total:
        return Stance.LEFT
    if n_right > n_left and n_right >= threshold * total:
        return Stance.RIGHT
    return Stance.CENTER


_SLOT = {Side.LEFT: 0, Side.RIGHT: 1, Side.CENTER: 2}


def _tallies(pairs: Iterable[tuple[str, str]],
             annotations: Mapping[str, AccountAnnotation]
             ) -> dict[str, list[int]]:
    """[left, right, center] follow counts per follower, in one pass.

    pairs are (follower id, followed id); each followed id's side is
    looked up once, so an unannotated one raises at its first follow.
    """
    slot_of: dict[str, int] = {}
    counts: dict[str, list[int]] = {}
    for follower, followed in pairs:
        slot = slot_of.get(followed)
        if slot is None:
            slot = slot_of[followed] = _SLOT[_side_of(followed, annotations)]
        row = counts.get(follower)
        if row is None:
            row = counts[follower] = [0, 0, 0]
        row[slot] += 1
    return counts


def _assign(user_id: str, tally: Sequence[int],
            threshold: float) -> StanceAssignment:
    n_left, n_right, n_center = tally
    return StanceAssignment(user_id, classify(n_left, n_right, n_center,
                                              threshold),
                            n_left, n_right, n_center, threshold)


def stance_map(all_follows: Iterable[FollowRecord],
               annotations: Mapping[str, AccountAnnotation],
               threshold: float = 0.0,
               ensure_users: Iterable[str] = ()) -> dict[str, StanceAssignment]:
    """Per-user assignments for every follower plus ensure_users.

    Corpus users absent from the follow data land on Neutral with zero
    tallies, which is what ensure_users is for.
    """
    counts = _tallies(((f.follower_id, f.followed_political_id)
                       for f in all_follows), annotations)
    out = {uid: _assign(uid, counts[uid], threshold)
           for uid in sorted(counts)}
    for uid in ensure_users:
        if uid not in out:
            out[uid] = StanceAssignment(uid, Stance.NEUTRAL, 0, 0, 0, threshold)
    return out


_OPINION = {Stance.RIGHT: 1.0, Stance.LEFT: -1.0,
            Stance.CENTER: 0.0, Stance.NEUTRAL: 0.0}


def opinion_vector(g, stances: Mapping[str, StanceAssignment]) -> np.ndarray:
    """Innate opinion s aligned to g.nodes: Right +1, Left -1, else 0."""
    s = np.zeros(g.n)
    for i, uid in enumerate(g.nodes):
        assignment = stances.get(uid)
        if assignment is not None:
            s[i] = _OPINION[assignment.stance]
    return s


def write_stance_csv(stances: Mapping[str, StanceAssignment],
                     path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "stance", "n_left", "n_right",
                         "n_center", "threshold"])
        for uid in sorted(stances):
            a = stances[uid]
            writer.writerow([uid, a.stance.value, a.n_left, a.n_right,
                             a.n_center, format(a.threshold_used, "g")])
