"""Political stance attribution from followed political accounts.

A user's stance comes from tallying the annotated sides of the political
accounts they follow: strict plurality decides Left/Right, equal Left and
Right tallies (or a Center-dominated tally) give Center, and zero political
follows give Neutral.  An optional threshold additionally requires the
winning side to hold at least that fraction of *all* the user's political
follows before a Left/Right label is granted; users failing it fall back to
Center (never Neutral, which is reserved for the no-follows case).

The follow list arrives with each followed account's side code already
resolved (load_follows joins it to the annotations), so inference only
counts.  A StanceMap holds arrays over a user table: the corpus's users in
order, then the followers outside the corpus, sorted.  Row i is user i's
[left, right, center] tally, one bincount of the follows' side codes (the
order of SIDES), and its label code into STANCES.  labels applies the rule
to a whole tally array at once; the tests hold it to a per-user form of
the rule, their oracle classify.
Graphs carry their nodes' ids into the corpus's users; StanceMap.over
checks that a graph's table begins the map's before those ids index it.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Follows

log = logging.getLogger(__name__)


class Stance(Enum):
    LEFT = "Left"
    RIGHT = "Right"
    CENTER = "Center"
    NEUTRAL = "Neutral"


STANCES = tuple(Stance)  # a label code is an index into STANCES


def labels(tally: np.ndarray, threshold: float) -> np.ndarray:
    """The label code of each [left, right, center] row of tally, by the
    rule in the module docstring."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    n_left, n_right, n_center = tally.T
    total = n_left + n_right + n_center
    least = threshold * total
    code = np.where((n_left > n_right) & (n_left >= least), 0, 2)
    code[(n_right > n_left) & (n_right >= least)] = 1
    code[total == 0] = 3
    return code.astype(np.int8)


@dataclass(frozen=True, eq=False)
class StanceMap:
    """Row i of tally and label belongs to users[i]; label was computed
    at threshold; base is the user table the map was built over."""

    users: tuple[str, ...]
    tally: np.ndarray
    label: np.ndarray
    threshold: float
    base: tuple[str, ...] | None = None

    def at(self, threshold: float) -> "StanceMap":
        """The same users and tallies, labelled at threshold."""
        return StanceMap(self.users, self.tally, labels(self.tally, threshold),
                         threshold, self.base)

    def over(self, users: Sequence[str]) -> np.ndarray:
        """label, once users is checked to begin this map's user table;
        base, the table the map was built over, passes unchecked."""
        if users is not self.base and self.users[:len(users)] != tuple(users):
            raise ValueError("the stance map is not over this user table")
        return self.label


def stance_map(follows: Follows, threshold: float = 0.0, *,
               users: Sequence[str]) -> StanceMap:
    """The stances of users (a corpus's user table) and of every follower.

    Users without follows are Neutral with zero tallies.
    """
    index = {u: i for i, u in enumerate(users)}
    row = np.array([index.get(f, -1) for f in follows.followers], np.int64)
    outside = np.flatnonzero(row < 0)
    row[outside] = len(users) + np.arange(len(outside))
    table = (*users, *map(follows.followers.__getitem__, outside.tolist()))
    slot = row[follows.follower] * 3 + follows.side[follows.account]
    tally = np.bincount(slot, minlength=3 * len(table)).reshape(len(table), 3)
    code = labels(tally, threshold)
    log.debug("stance: %d users, %d followers outside the graph; Left, "
              "Right, Center, Neutral: %s", len(table), len(outside),
              np.bincount(code, minlength=len(STANCES)).tolist())
    # tuple() returns a tuple unchanged, so base is a corpus's own table
    return StanceMap(table, tally, code, threshold, tuple(users))


_OPINION = np.array([-1.0, 1.0, 0.0, 0.0])  # by code: Left, Right, else


def opinion_vector(g, stances: StanceMap) -> np.ndarray:
    """Innate opinion s aligned to g.nodes: Right +1, Left -1, else 0."""
    return _OPINION[stances.over(g.users)[g.ids]]


def write_stance_csv(stances: StanceMap, path: str | Path) -> None:
    """One row per user of the stance map, in user id order."""
    names = [s.value for s in STANCES]
    threshold = format(stances.threshold, "g")
    rows = sorted(zip(stances.users, stances.label.tolist(),
                      stances.tally.tolist()))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "stance", "n_left", "n_right",
                         "n_center", "threshold"])
        writer.writerows([uid, names[code], *tally, threshold]
                         for uid, code, tally in rows)
