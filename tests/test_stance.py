import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polmon.corpus import Category, CorpusFormatError, Side, load_follows
from polmon.graphkit import remove_nodes
from polmon.pipeline import ablation_victims
from polmon.stance import (STANCES, Stance, StanceMap, labels,
                           opinion_vector, stance_map, write_stance_csv)

from conftest import (accounts_of, annotations_of, follows_of, graph_of,
                      stances_of)
from oracles import (Account, classify, load_follows_reference,
                     opinion_vector_reference, stance_map_reference,
                     write_stance_csv_reference)


def _stance_of(followed, annotations, threshold=0.0):
    """The stance and [left, right, center] tally of a user "u" who
    follows the ids in followed."""
    m = stance_map(follows_of([("u", f) for f in followed], annotations),
                   threshold, users=["u"])
    return STANCES[m.label[0]], m.tally[0].tolist()


@pytest.fixture
def annotations():
    return _annotations()


def _annotations():
    out = {}
    for i in range(4):
        out[f"L{i}"] = Account(Category.POLITICAL, Side.LEFT)
        out[f"R{i}"] = Account(Category.POLITICAL, Side.RIGHT)
        out[f"C{i}"] = Account(Category.POLITICAL, Side.CENTER)
    out["media"] = Account(Category.MEDIA_JOURNALIST)
    return out


def test_plurality_left(annotations):
    stance, tally = _stance_of(["L0", "L1", "R0"], annotations)
    assert stance is Stance.LEFT
    assert tally == [2, 1, 0]


def test_equal_left_right_is_center(annotations):
    assert _stance_of(["L0", "R0"], annotations)[0] is Stance.CENTER


def test_no_follows_is_neutral(annotations):
    stance, tally = _stance_of([], annotations)
    assert stance is Stance.NEUTRAL
    assert sum(tally) == 0


def test_center_majority_is_center(annotations):
    assert _stance_of(["C0", "C1", "C2"], annotations)[0] is Stance.CENTER


def test_plurality_beats_center_count(annotations):
    # strict Left plurality wins even with more Center follows
    stance, _ = _stance_of(["L0", "L1", "R0", "C0", "C1", "C2"], annotations)
    assert stance is Stance.LEFT


def test_threshold_three_of_four(annotations):
    stance, _ = _stance_of(["L0", "L1", "L2", "R0"], annotations,
                           threshold=0.75)
    assert stance is Stance.LEFT


def test_threshold_split_falls_to_center(annotations):
    stance, _ = _stance_of(["L0", "L1", "R0", "R1"], annotations,
                           threshold=0.75)
    assert stance is Stance.CENTER


def test_threshold_below_cut_is_center_not_neutral(annotations):
    stance, _ = _stance_of(["L0", "L1", "R0"], annotations, threshold=0.75)
    assert stance is Stance.CENTER


def test_threshold_denominator_includes_center(annotations):
    # 2 of 4 political follows are Left -> 0.5 < 0.6 even though only one
    # Right follow opposes
    stance, _ = _stance_of(["L0", "L1", "R0", "C0"], annotations,
                           threshold=0.6)
    assert stance is Stance.CENTER


def test_threshold_validated(annotations):
    with pytest.raises(ValueError):
        _stance_of(["L0"], annotations, threshold=1.5)


@pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
def test_threshold_validated_without_political_follows(annotations,
                                                       threshold):
    with pytest.raises(ValueError, match="threshold"):
        stance_map(follows_of([], annotations), threshold=threshold,
                   users=["u"])
    with pytest.raises(ValueError, match="threshold"):
        stance_map(follows_of([], annotations), users=()).at(threshold)


def _follows_error(tmp_path, followed, annotations) -> str:
    """The error of load_follows on a follow list whose line 3 follows
    the id followed."""
    path = tmp_path / "follows.csv"
    path.write_text(_csv_of([("u", "L0"), ("u", followed)]),
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        load_follows(path, annotations_of(annotations))
    return str(info.value).replace(str(path), "<path>")


def test_missing_annotation_names_id(annotations, tmp_path):
    assert _follows_error(tmp_path, "ghost", annotations).startswith(
        "<path>:3: followed id 'ghost' ")


def test_non_political_follow_rejected(annotations, tmp_path):
    # "media" is annotated, but as a MediaJournalist account
    assert _follows_error(tmp_path, "media", annotations).startswith(
        "<path>:3: followed id 'media' ")


def test_follow_records_accepted(annotations):
    m = stance_map(follows_of([("u", "L0")], annotations), users=())
    assert m.users == ("u",)
    assert STANCES[m.label[0]] is Stance.LEFT


def test_stance_map_independent_users(annotations):
    m = stance_map(follows_of([("u1", "L0"), ("u2", "R0"), ("u3", "C0")],
                              annotations), users=())
    assert m.users == ("u1", "u2", "u3")
    assert [STANCES[c] for c in m.label] == [Stance.LEFT, Stance.RIGHT,
                                             Stance.CENTER]


def test_stance_map_absent_user_neutral(annotations):
    m = stance_map(follows_of([("u1", "L0")], annotations),
                   users=["lurker", "u1"])
    assert m.users == ("lurker", "u1")
    assert STANCES[m.label[0]] is Stance.NEUTRAL
    assert m.tally[0].tolist() == [0, 0, 0]


def test_stance_map_rows_put_corpus_users_first(annotations):
    # corpus users keep their order and ids; the followers outside them
    # follow, sorted, so a graph's ids index the stance arrays directly
    follows = follows_of([("zed", "R0"), ("b", "L0"), ("a", "C0"),
                          ("y", "L1")], annotations)
    m = stance_map(follows, users=["b", "x"])
    assert m.users == ("b", "x", "a", "y", "zed")
    assert m.tally.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 1], [1, 0, 0],
                                [0, 1, 0]]
    g = graph_of([("b", "x")], users=("b", "x"))
    np.testing.assert_array_equal(opinion_vector(g, m), [-1.0, 0.0])


tallies = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60),
                          st.integers(0, 60)), max_size=40),
       st.one_of(st.sampled_from([0.0, 1.0, 0, 1, 0.5, 0.75]),
                 st.floats(0, 1)))
@example([(0, 0, 0), (3, 1, 0), (1, 3, 0), (3, 0, 1), (2, 2, 0)], 0.75)
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 0.0)
@example([(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1)], 1.0)
@example([(14, 11, 0), (11, 14, 0)], 0.56)  # 0.56 * 25 > 14: Center
@example([(29, 21, 0), (21, 29, 0)], 0.58)  # 0.58 * 50 < 29: Left, Right
def test_labels_equal_classify_for_every_user(rows, threshold):
    tally = np.array(rows, np.int64).reshape(-1, 3)
    assert [STANCES[c] for c in labels(tally, threshold).tolist()] == [
        classify(*row, threshold) for row in rows]


def test_float_rounding_decides_as_in_classify():
    # 0.56 * 25 rounds up past 14, and 0.58 * 50 down below 29
    for row, threshold, stance in (((14, 11, 0), 0.56, Stance.CENTER),
                                   ((29, 21, 0), 0.58, Stance.LEFT)):
        assert classify(*row, threshold) is stance
        assert STANCES[labels(np.array([row]), threshold)[0]] is stance


# follower pool: corpus users (some without follows) and outsiders; "ghost"
# is followed but not annotated
_USERS = ("a", "b", "Ά", "a10", "a9")
_FOLLOWERS = _USERS + ("o1", "o0", "zz")
_ACCOUNTS = ("L0", "L1", "R0", "R1", "C0", "media")


def _csv_of(pairs) -> str:
    lines = ["follower_id,followed_political_id"]
    lines += [f"{f},{a}" for f, a in pairs]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FOLLOWERS),
                          st.sampled_from(_ACCOUNTS[:5])), max_size=25),
       st.lists(st.sampled_from(_USERS), unique=True),
       st.sampled_from([0.0, 0.5, 0.7, 1.0]),
       st.lists(st.tuples(st.sampled_from(_USERS),
                          st.sampled_from(_USERS)), max_size=6),
       st.sampled_from([None, "ghost", "media"]))
def test_stance_map_equals_record_reference(pairs, corpus_users, threshold,
                                            edges, stray):
    # the file may repeat pairs, and may end with a follow of an account
    # that is not annotated Political: the reference then rejects it at
    # the stance step, and load_follows at its line
    if stray is not None and pairs:
        pairs = pairs + [(pairs[0][0], stray)]
    annotations = _annotations()
    users = tuple(sorted(corpus_users))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "follows.csv"
        path.write_text(_csv_of(pairs), encoding="utf-8")
        try:
            reference = stance_map_reference(load_follows_reference(path),
                                             annotations, threshold,
                                             ensure_users=users)
        except KeyError:
            with pytest.raises(CorpusFormatError,
                               match=f":{len(pairs) + 1}: .*'{stray}'"):
                load_follows(path, annotations_of(annotations))
            return
        m = stance_map(load_follows(path, annotations_of(annotations)),
                       threshold, users=users)
        write_stance_csv(m, Path(tmp) / "array.csv")
        write_stance_csv_reference(reference, Path(tmp) / "records.csv")
        assert ((Path(tmp) / "array.csv").read_bytes()
                == (Path(tmp) / "records.csv").read_bytes())
    assert m.users[:len(users)] == users
    g = graph_of([(u, v) for u, v in edges if u != v and u in users
                  and v in users], isolated=users, users=users)
    np.testing.assert_array_equal(opinion_vector(g, m),
                                  opinion_vector_reference(g, reference))


def test_fixture_opinion_vectors_equal_record_reference(fixture_paths,
                                                        tmp_path):
    from polmon.pipeline import RunConfig, Runner
    config = RunConfig.from_file(fixture_paths["config"])
    config.out_dir = tmp_path
    runner = Runner(config)
    accounts = accounts_of(runner.annotations)
    reference = stance_map_reference(
        load_follows_reference(config.follows, accounts),
        accounts, config.threshold,
        ensure_users=runner.full_graph.nodes)
    runner.write_stance()
    write_stance_csv_reference(reference, tmp_path / "reference.csv")
    assert ((tmp_path / "stance.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    victims = ablation_victims(runner.annotations,
                               runner.influencer_ranking.selected,
                               runner.full_graph.users)
    graphs = [runner.full_graph] + [g for _, g in runner.daily]
    reduced = [(g, remove_nodes(g, mask, drop)) for g in graphs
               for mask in victims.values() for drop in (True, False)]
    assert any(h.n < g.n for g, h in reduced)
    for g in graphs + [h for _, h in reduced]:
        np.testing.assert_array_equal(opinion_vector(g, runner.stances),
                                      opinion_vector_reference(g, reference))


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
    pairs = [("u1", "L0"), ("u1", "L1"), ("u1", "R0"), ("u2", "R1")]
    swapped_annotations = {}
    for uid, ann in annotations.items():
        side = ann.side
        if side is Side.LEFT:
            side = Side.RIGHT
        elif side is Side.RIGHT:
            side = Side.LEFT
        swapped_annotations[uid] = Account(ann.category, side)
    g = graph_of([("u1", "u2")])
    s = opinion_vector(g, stance_map(follows_of(pairs, annotations),
                                     users=g.users))
    s_swapped = opinion_vector(g, stance_map(
        follows_of(pairs, swapped_annotations), users=g.users))
    np.testing.assert_array_equal(s_swapped, -s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["L0", "L1", "R0", "R1", "C0"]),
                max_size=12, unique=True),
       st.floats(0, 1))
def test_assignment_rederivable_from_counts(followed, threshold):
    m = stance_map(follows_of([("u", f) for f in followed], _annotations()),
                   threshold, users=["u"])
    assert m.threshold == threshold
    stance = STANCES[m.label[0]]
    assert classify(*m.tally[0].tolist(), m.threshold) is stance
    assert (stance is Stance.NEUTRAL) == (m.tally[0].sum() == 0)
    assert m.at(threshold).label.tolist() == m.label.tolist()


def test_follow_order_irrelevant(annotations, tmp_path):
    follows = [("u", f) for f in ["L0", "R0", "L1", "C0"]]
    maps = []
    for name, pairs in (("a.csv", follows), ("b.csv", follows[::-1])):
        (tmp_path / name).write_text(_csv_of(pairs), encoding="utf-8")
        maps.append(stance_map(
            load_follows(tmp_path / name, annotations_of(annotations)),
            users=()))
    assert maps[0].users == maps[1].users
    assert maps[0].tally.tolist() == maps[1].tally.tolist()
    assert maps[0].label.tolist() == maps[1].label.tolist()


def test_opinion_vector_signs(annotations):
    g = graph_of([("a", "b")])
    stances = stance_map(follows_of([("a", "L0"), ("b", "R0")], annotations),
                         users=g.users)
    np.testing.assert_array_equal(opinion_vector(g, stances), [-1.0, 1.0])


def test_opinion_vector_rejects_map_over_other_table(annotations):
    # a map whose table does not begin with g's users would hand g's ids
    # the rows of other users
    g = graph_of([("x", "y")], users=("w", "x", "y"))
    follows = follows_of([("a", "L0"), ("b", "L0")], annotations)
    for users in ((), ("x", "y"), ("w", "x")):
        with pytest.raises(ValueError, match="user table"):
            opinion_vector(g, stance_map(follows, users=users))
    s = opinion_vector(g, stance_map(follows, users=("w", "x", "y")))
    np.testing.assert_array_equal(s, np.zeros(2))


class _Unmeasured(tuple):
    def __len__(self):
        raise AssertionError("the table was compared")


def test_over_takes_its_base_table_without_comparing(annotations):
    users = ("w", "x", "y")
    m = stance_map(follows_of([("x", "L0"), ("a", "R0")], annotations),
                   users=users)
    assert m.base is users and m.at(0.5).base is users
    # the base is taken as it is: taking its length would raise here
    base = _Unmeasured(users)
    m_base = StanceMap(m.users, m.tally, m.label, m.threshold, base)
    assert m_base.over(base) is m.label
    # an equal but distinct table is compared, and accepted
    assert m.over(tuple(list(users))) is m.label
    for foreign in (("w", "y"), ("a",), ("w", "x", "y", "a", "b")):
        with pytest.raises(ValueError, match="user table"):
            m.over(foreign)
    # a list is copied, so a later change to it cannot pass as the base
    listed = ["w", "x"]
    m = stance_map(follows_of([("x", "L0")], annotations), users=listed)
    listed[1] = "z"
    with pytest.raises(ValueError, match="user table"):
        m.over(listed)


def test_opinion_vector_defaults_to_zero(annotations):
    g = graph_of([("a", "b")], isolated=["c"])
    s = opinion_vector(g, stances_of(g.users, {}))
    np.testing.assert_array_equal(s, np.zeros(3))


def test_stance_csv_output(tmp_path, annotations):
    stances = stance_map(follows_of([("u1", "L0")], annotations),
                         users=["u0"])
    path = tmp_path / "stance.csv"
    write_stance_csv(stances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user_id,stance,n_left,n_right,n_center,threshold"
    assert lines[1] == "u0,Neutral,0,0,0,0"
    assert lines[2] == "u1,Left,1,0,0,0"
