import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmon.corpus import AccountAnnotation, Category, FollowRecord, Side
from polmon.stance import (MissingAnnotationError, Stance, classify,
                           opinion_vector, stance_map, write_stance_csv)

from conftest import graph_of


def _stance_of(followed, annotations, threshold=0.0):
    """The stance of a user "u" who follows the ids in followed."""
    follows = [FollowRecord("u", f) for f in followed]
    return stance_map(follows, annotations, threshold, ensure_users=["u"])["u"]


@pytest.fixture
def annotations():
    out = {}
    for i in range(4):
        out[f"L{i}"] = AccountAnnotation(f"L{i}", Category.POLITICAL, Side.LEFT)
        out[f"R{i}"] = AccountAnnotation(f"R{i}", Category.POLITICAL, Side.RIGHT)
        out[f"C{i}"] = AccountAnnotation(f"C{i}", Category.POLITICAL, Side.CENTER)
    out["media"] = AccountAnnotation("media", Category.MEDIA_JOURNALIST)
    return out


def test_plurality_left(annotations):
    a = _stance_of(["L0", "L1", "R0"], annotations)
    assert a.stance is Stance.LEFT
    assert (a.n_left, a.n_right, a.n_center) == (2, 1, 0)


def test_equal_left_right_is_center(annotations):
    assert _stance_of(["L0", "R0"], annotations).stance is Stance.CENTER


def test_no_follows_is_neutral(annotations):
    a = _stance_of([], annotations)
    assert a.stance is Stance.NEUTRAL
    assert a.total_follows == 0


def test_center_majority_is_center(annotations):
    a = _stance_of(["C0", "C1", "C2"], annotations)
    assert a.stance is Stance.CENTER


def test_plurality_beats_center_count(annotations):
    # strict Left plurality wins even with more Center follows
    a = _stance_of(["L0", "L1", "R0", "C0", "C1", "C2"], annotations)
    assert a.stance is Stance.LEFT


def test_threshold_three_of_four(annotations):
    a = _stance_of(["L0", "L1", "L2", "R0"], annotations, threshold=0.75)
    assert a.stance is Stance.LEFT


def test_threshold_split_falls_to_center(annotations):
    a = _stance_of(["L0", "L1", "R0", "R1"], annotations, threshold=0.75)
    assert a.stance is Stance.CENTER


def test_threshold_below_cut_is_center_not_neutral(annotations):
    a = _stance_of(["L0", "L1", "R0"], annotations, threshold=0.75)
    assert a.stance is Stance.CENTER


def test_threshold_denominator_includes_center(annotations):
    # 2 of 4 political follows are Left -> 0.5 < 0.6 even though only one
    # Right follow opposes
    a = _stance_of(["L0", "L1", "R0", "C0"], annotations, threshold=0.6)
    assert a.stance is Stance.CENTER


def test_threshold_validated(annotations):
    with pytest.raises(ValueError):
        _stance_of(["L0"], annotations, threshold=1.5)


def test_missing_annotation_names_id(annotations):
    with pytest.raises(MissingAnnotationError, match="ghost"):
        _stance_of(["ghost"], annotations)


def test_non_political_follow_rejected(annotations):
    with pytest.raises(MissingAnnotationError, match="media"):
        _stance_of(["media"], annotations)


def test_follow_records_accepted(annotations):
    a = stance_map([FollowRecord("u", "L0")], annotations)["u"]
    assert a.stance is Stance.LEFT


def test_stance_map_independent_users(annotations):
    follows = [FollowRecord("u1", "L0"), FollowRecord("u2", "R0"),
               FollowRecord("u3", "C0")]
    out = stance_map(follows, annotations)
    assert out["u1"].stance is Stance.LEFT
    assert out["u2"].stance is Stance.RIGHT
    assert out["u3"].stance is Stance.CENTER


def test_stance_map_absent_user_neutral(annotations):
    out = stance_map([FollowRecord("u1", "L0")], annotations,
                     ensure_users=["u1", "lurker"])
    assert out["lurker"].stance is Stance.NEUTRAL
    assert out["lurker"].total_follows == 0


tallies = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(tallies, st.floats(0, 1), st.floats(0, 1))
def test_threshold_monotonicity(tally, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    n_left, n_right, n_center = tally
    at_hi = classify(n_left, n_right, n_center, hi)
    at_lo = classify(n_left, n_right, n_center, lo)
    if at_hi is Stance.LEFT:
        assert at_lo is Stance.LEFT
    if at_hi is Stance.RIGHT:
        assert at_lo is Stance.RIGHT


@settings(max_examples=100, deadline=None)
@given(tallies, st.floats(0, 1))
def test_neutral_is_threshold_independent(tally, threshold):
    n_left, n_right, n_center = tally
    neutral_at_zero = classify(n_left, n_right, n_center, 0.0) is Stance.NEUTRAL
    neutral_here = classify(n_left, n_right, n_center, threshold) is Stance.NEUTRAL
    assert neutral_at_zero == neutral_here
    assert neutral_here == (n_left + n_right + n_center == 0)


@settings(max_examples=100, deadline=None)
@given(tallies, st.floats(0, 1))
def test_relabel_symmetry(tally, threshold):
    n_left, n_right, n_center = tally
    swapped = classify(n_right, n_left, n_center, threshold)
    original = classify(n_left, n_right, n_center, threshold)
    flip = {Stance.LEFT: Stance.RIGHT, Stance.RIGHT: Stance.LEFT,
            Stance.CENTER: Stance.CENTER, Stance.NEUTRAL: Stance.NEUTRAL}
    assert swapped is flip[original]


def test_relabel_symmetry_end_to_end(annotations):
    follows = [FollowRecord("u1", "L0"), FollowRecord("u1", "L1"),
               FollowRecord("u1", "R0"), FollowRecord("u2", "R1")]
    swapped_annotations = {}
    for uid, ann in annotations.items():
        side = ann.side
        if side is Side.LEFT:
            side = Side.RIGHT
        elif side is Side.RIGHT:
            side = Side.LEFT
        swapped_annotations[uid] = AccountAnnotation(uid, ann.category, side)
    g = graph_of([("u1", "u2")])
    s = opinion_vector(g, stance_map(follows, annotations))
    s_swapped = opinion_vector(g, stance_map(follows, swapped_annotations))
    np.testing.assert_array_equal(s_swapped, -s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["L0", "L1", "R0", "R1", "C0"]),
                max_size=12),
       st.floats(0, 1))
def test_assignment_rederivable_from_counts(followed, threshold):
    out = {}
    for i in range(4):
        out[f"L{i}"] = AccountAnnotation(f"L{i}", Category.POLITICAL, Side.LEFT)
        out[f"R{i}"] = AccountAnnotation(f"R{i}", Category.POLITICAL, Side.RIGHT)
        out[f"C{i}"] = AccountAnnotation(f"C{i}", Category.POLITICAL, Side.CENTER)
    a = _stance_of(followed, out, threshold)
    assert classify(a.n_left, a.n_right, a.n_center, a.threshold_used) is a.stance
    assert (a.stance is Stance.NEUTRAL) == (a.total_follows == 0)


def test_follow_order_irrelevant(annotations):
    follows = ["L0", "R0", "L1", "C0"]
    a = _stance_of(follows, annotations)
    b = _stance_of(list(reversed(follows)), annotations)
    assert a == b


def test_opinion_vector_signs(annotations):
    follows = [FollowRecord("a", "L0"), FollowRecord("b", "R0")]
    stances = stance_map(follows, annotations)
    g = graph_of([("a", "b")])
    s = opinion_vector(g, stances)
    np.testing.assert_array_equal(s, [-1.0, 1.0])


def test_opinion_vector_defaults_to_zero(annotations):
    g = graph_of([("a", "b")], isolated=["c"])
    s = opinion_vector(g, {})
    np.testing.assert_array_equal(s, np.zeros(3))


def test_stance_csv_output(tmp_path, annotations):
    stances = stance_map([FollowRecord("u1", "L0")], annotations,
                         ensure_users=["u0"])
    path = tmp_path / "stance.csv"
    write_stance_csv(stances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user_id,stance,n_left,n_right,n_center,threshold"
    assert lines[1] == "u0,Neutral,0,0,0,0"
    assert lines[2] == "u1,Left,1,0,0,0"
