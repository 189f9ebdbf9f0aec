import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polmon.corpus import AccountAnnotation, Category, Kind, Side
from polmon.graphkit import (build_graph, daily_graphs, export_graph,
                             remove_nodes)
from polmon.stance import Stance

from conftest import OFFSETS, corpus_of, graph_of, records, stances_of, tweet
from oracles import (build_graph_reference, csr_reference,
                     daily_graphs_reference, export_graph_reference,
                     remove_nodes_reference)


def test_bidirectional_interactions_single_edge():
    tweets = [
        tweet("t1", author="A", kind=Kind.RETWEET, refs=["B"]),
        tweet("t2", author="B", kind=Kind.ORIGINAL, refs=["A"],
              text="γεια @A υποκλοπές"),
    ]
    g = build_graph(corpus_of(tweets))
    assert g.nodes == ("A", "B")
    assert g.edges == (("A", "B"),)


def test_repeated_interactions_collapse():
    tweets = [tweet(f"t{i}", author="A", kind=Kind.RETWEET, refs=["B"])
              for i in range(3)]
    tweets.append(tweet("t9", author="A", kind=Kind.QUOTE, refs=["B"]))
    g = build_graph(corpus_of(tweets))
    assert g.edges == (("A", "B"),)
    assert g.m == 1


def test_reference_free_tweet_gives_isolated_node():
    g = build_graph(corpus_of([tweet("t1", author="A")]))
    assert g.nodes == ("A",)
    assert g.edges == ()


def test_self_reply_drops_self_loop():
    g = build_graph(corpus_of([tweet("t1", author="A", kind=Kind.REPLY,
                                     refs=["A"])]))
    assert g.nodes == ("A",)
    assert g.edges == ()


def test_daily_graphs_bucketing():
    tweets = [
        tweet("t1", author="A", ts="2022-08-05T23:59:59Z"),
        tweet("t2", author="B", ts="2022-08-06T00:00:01Z"),
    ]
    days = daily_graphs(corpus_of(tweets))
    assert [d.isoformat() for d, _ in days] == ["2022-08-05", "2022-08-06"]
    assert days[0][1].nodes == ("A",)
    assert days[1][1].nodes == ("B",)


def test_daily_graphs_single_date_equals_full_build():
    tweets = [
        tweet("t1", author="A", kind=Kind.RETWEET, refs=["B"],
              ts="2022-08-05T08:00:00Z"),
        tweet("t2", author="C", ts="2022-08-05T09:00:00Z"),
    ]
    days = daily_graphs(corpus_of(tweets))
    assert len(days) == 1
    full = build_graph(corpus_of(tweets))
    assert days[0][1].nodes == full.nodes
    assert days[0][1].edges == full.edges


def test_daily_union_covers_full_window_edges():
    tweets = [
        tweet("t1", author="A", kind=Kind.RETWEET, refs=["B"],
              ts="2022-08-05T08:00:00Z"),
        tweet("t2", author="B", kind=Kind.REPLY, refs=["C"],
              ts="2022-08-06T08:00:00Z"),
        tweet("t3", author="A", kind=Kind.QUOTE, refs=["B"],
              ts="2022-08-06T10:00:00Z"),
    ]
    days = [g for _, g in daily_graphs(corpus_of(tweets))]
    full = build_graph(corpus_of(tweets))
    assert set().union(*(g.edges for g in days)) == set(full.edges)
    assert set().union(*(g.nodes for g in days)) == set(full.nodes)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_build_graph_order_invariant(order):
    base = [
        tweet("t0", author="A", kind=Kind.RETWEET, refs=["B"]),
        tweet("t1", author="B", kind=Kind.REPLY, refs=["C", "A"]),
        tweet("t2", author="C", kind=Kind.QUOTE, refs=["A"]),
        tweet("t3", author="D"),
        tweet("t4", author="C", kind=Kind.RETWEET, refs=["B"]),
        tweet("t5", author="E", kind=Kind.REPLY, refs=["A"]),
    ]
    reference = build_graph(corpus_of(base))
    shuffled = build_graph(corpus_of([base[i] for i in order]))
    assert shuffled.nodes == reference.nodes
    assert shuffled.edges == reference.edges


def test_simple_graph_invariants():
    rng = np.random.default_rng(5)
    from conftest import random_graph
    g = random_graph(rng, 25, 0.2)
    assert g.m <= g.n * (g.n - 1) // 2
    assert all(u != v for u, v in g.edges)
    assert all(u < v for u, v in g.edges)
    indptr = g.indptr
    assert indptr[-1] == 2 * g.m
    assert (np.diff(indptr) == g.degrees).all()


USERS = ["a", "b", "c", "d", "e", "f"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(USERS),
                          st.lists(st.sampled_from(USERS), max_size=3)),
                max_size=25))
def test_build_graph_edges_equal_pairs_from_tweets(specs):
    tweets = [tweet(f"t{i}", author=author, refs=refs)
              for i, (author, refs) in enumerate(specs)]
    nodes = {t.author_id for t in tweets}.union(
        *(t.referenced_user_ids for t in tweets))
    pairs = {tuple(sorted((t.author_id, r)))
             for t in tweets for r in t.referenced_user_ids
             if r != t.author_id}
    g = build_graph(corpus_of(tweets))
    assert g.nodes == tuple(sorted(nodes))
    assert g.edges == tuple(sorted(pairs))
    indptr, indices = csr_reference(g.nodes, sorted(pairs))
    assert g.indptr.tolist() == indptr
    assert g.indices.tolist() == indices


def _same_graph(g, h) -> bool:
    return (g.nodes == h.nodes and g.indptr.tolist() == h.indptr.tolist()
            and g.indices.tolist() == h.indices.tolist()
            and g.indices.dtype == h.indices.dtype == np.int64)


@settings(max_examples=200, deadline=None)
@given(records(), st.sampled_from(OFFSETS))
def test_graphs_equal_record_reference(tweets, offset):
    corpus = corpus_of(tweets, offset)
    assert _same_graph(build_graph(corpus), build_graph_reference(tweets))
    days = daily_graphs(corpus)
    reference = daily_graphs_reference(tweets, offset)
    assert [d for d, _ in days] == [d for d, _ in reference]
    assert all(_same_graph(g, h) for (_, g), (_, h) in zip(days, reference))


def _mask(g, victims):
    """The victims as a boolean mask over g's user table."""
    return np.array([u in victims for u in g.users], bool)


@st.composite
def graph_and_victims(draw):
    n = draw(st.integers(0, 12))
    names = [f"u{i:02d}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # every name is passed as isolated too, so edgeless names stay as nodes;
    # the user table also holds users that are not nodes
    g = graph_of(edges, isolated=names,
                 users=sorted(names + ["absent", "u", "zz"]))
    victims = draw(st.sets(st.sampled_from(names + ["absent", "zz"])))
    return g, edges, victims


@settings(max_examples=300, deadline=None)
@given(graph_and_victims(), st.booleans())
def test_remove_nodes_equals_reference(case, drop_isolated):
    g, edges, victims = case
    assert g.edges == tuple(sorted(edges))
    out = remove_nodes(g, _mask(g, victims), drop_isolated=drop_isolated)
    nodes, kept = remove_nodes_reference(g, victims, drop_isolated)
    # the cut graph's ids name its nodes in the same user table
    assert out.users is g.users
    assert [g.users[i] for i in out.ids.tolist()] == list(nodes)
    assert out.nodes == nodes
    assert out.edges == kept
    indptr, indices = csr_reference(nodes, kept)
    assert out.indptr.tolist() == indptr
    assert out.indices.tolist() == indices
    assert out.indptr.dtype == out.indices.dtype == np.int64


def test_node_index_is_sorted_dense():
    g = graph_of([("zeta", "alpha"), ("alpha", "mid")])
    assert g.nodes == ("alpha", "mid", "zeta")
    # row i is nodes[i]; alpha's neighbours are mid and zeta, in that order
    assert g.indptr.tolist() == [0, 2, 3, 4]
    assert g.indices.tolist() == [1, 2, 0, 0]


def test_remove_hub_keep_isolated():
    star = graph_of([("hub", f"s{i}") for i in range(4)])
    out = remove_nodes(star, _mask(star, {"hub"}), drop_isolated=False)
    assert out.n == 4
    assert out.m == 0


def test_remove_hub_drop_isolated():
    star = graph_of([("hub", f"s{i}") for i in range(4)])
    out = remove_nodes(star, _mask(star, {"hub"}), drop_isolated=True)
    assert out.n == 0


def test_remove_preserves_preexisting_isolated():
    g = graph_of([("a", "b")], isolated=["lone"])
    out = remove_nodes(g, _mask(g, {"a"}), drop_isolated=True)
    # b became isolated by the removal (dropped); lone was already isolated
    assert out.nodes == ("lone",)


def test_remove_disjoint_victims_is_identity():
    g = graph_of([("a", "b"), ("b", "c")], users=("a", "b", "c", "zz"))
    out = remove_nodes(g, _mask(g, {"zz"}), drop_isolated=True)
    assert out.nodes == g.nodes
    assert out.edges == g.edges


def test_remove_empty_victims_returns_same_graph():
    g = graph_of([("a", "b")])
    assert remove_nodes(g, _mask(g, set())) is g


def _read_graphml(path):
    # networkx's reader is independent of the writer under test
    nx = pytest.importorskip("networkx")
    return nx.read_graphml(path)


def test_graphml_round_trip(tmp_path):
    g = graph_of([("a", "b"), ("b", "c")], isolated=["d"])
    path = tmp_path / "g.graphml"
    export_graph(g, path, stances_of(g.users, {}), {})
    back = _read_graphml(path)
    assert not back.is_directed()
    assert sorted(back.nodes) == list(g.nodes)
    assert sorted(tuple(sorted(e)) for e in back.edges) == list(g.edges)
    assert back.nodes["a"] == {"user_id": "a", "stance": "Neutral",
                               "category": "Individual"}


def test_graphml_attributes(tmp_path):
    g = graph_of([("a", "b")])
    stances = stances_of(g.users, {"a": Stance.LEFT})
    annotations = {"b": AccountAnnotation("b", Category.POLITICAL, Side.RIGHT)}
    path = tmp_path / "g.graphml"
    export_graph(g, path, stances=stances, annotations=annotations)
    back = _read_graphml(path)
    assert back.nodes["a"]["stance"] == "Left"
    assert back.nodes["b"]["category"] == "Political"


def test_graphml_empty_graph(tmp_path):
    g = graph_of([])
    path = tmp_path / "empty.graphml"
    export_graph(g, path, stances_of(g.users, {}), {})
    back = _read_graphml(path)
    assert back.number_of_nodes() == 0
    assert back.number_of_edges() == 0


def test_graphml_edge_count(tmp_path):
    g = graph_of([("a", "b")])
    path = tmp_path / "two.graphml"
    export_graph(g, path, stances_of(g.users, {}), {})
    assert path.read_text(encoding="utf-8").count("<edge ") == 1


# ids mixing every character either escape rule touches, the apostrophe
# neither touches, non-ASCII, and a lone surrogate UTF-8 cannot encode
_XML_TEXT = st.text(st.one_of(st.sampled_from("&<>\"'\n\t\r\ud800 aZ"),
                              st.characters()), max_size=6)
_CATEGORY = st.one_of(
    st.just(AccountAnnotation("u", Category.POLITICAL, Side.LEFT)),
    st.sampled_from(Category).filter(lambda c: c is not Category.POLITICAL)
    .map(lambda c: AccountAnnotation("u", c)))


@st.composite
def labelled_graphs(draw):
    ids = draw(st.lists(_XML_TEXT, unique=True, max_size=8))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    stances = (draw(st.dictionaries(st.sampled_from(ids),
                                    st.sampled_from(Stance))) if ids else {})
    categories = (draw(st.dictionaries(st.sampled_from(ids), _CATEGORY))
                  if ids else {})
    return graph_of(edges, isolated=ids), stances, categories


@settings(max_examples=300, deadline=None)
@given(labelled_graphs(), st.booleans())
@example((graph_of([]), {}, {}), False)  # a self-closed empty <graph />
def test_graphml_bytes_match_elementtree(tmp_path_factory, case, with_maps):
    g, stances, categories = case
    out = tmp_path_factory.mktemp("graphml")
    if with_maps:
        export_graph(g, out / "stream.graphml", stances_of(g.users, stances),
                     categories)
        export_graph_reference(g, out / "tree.graphml", stances, categories)
    else:
        export_graph(g, out / "stream.graphml", stances_of(g.users, {}), {})
        export_graph_reference(g, out / "tree.graphml")
    assert ((out / "stream.graphml").read_bytes()
            == (out / "tree.graphml").read_bytes())
