"""Graph construction and community extraction tests."""

import dataclasses
import pickle

import networkx as nx
import numpy as np
import pytest

from sentpop.graph import (
    CommunityGraph,
    SocialGraph,
    build_graph,
    canonical_edge,
    community_from_edge_list,
    extract_community,
    load_edge_list,
    save_edge_list,
)

from conftest import make_tweet


def test_single_mention_creates_edge(lexicon):
    g = build_graph([make_tweet(lexicon, "hi @B", user="A")])
    assert g.edges == {("A", "B")}
    assert g.nodes == {"A", "B"}


def test_mention_and_retweet_deduplicate(lexicon):
    tweets = [
        make_tweet(lexicon, "hi @B", user="A", tweet_id="1"),
        make_tweet(lexicon, "fwd", user="B", tweet_id="2", retweet_of="A"),
    ]
    g = build_graph(tweets)
    assert g.edges == {("A", "B")}


def test_self_mentions_dropped(lexicon):
    g = build_graph([make_tweet(lexicon, "note to @A", user="A")])
    assert g.edges == set()
    assert g.nodes == {"A"}


def test_author_without_relations_still_a_node(lexicon):
    g = build_graph([make_tweet(lexicon, "just text", user="loner")])
    assert "loner" in g.nodes


def test_edge_set_matches_pairwise_scan(lexicon):
    """100-tweet fixture against a quadratic reference over raw interactions."""
    rng = np.random.default_rng(11)
    users = [f"u{i}" for i in range(15)]
    tweets = []
    for i in range(100):
        author = users[rng.integers(len(users))]
        mentioned = [users[j] for j in rng.choice(len(users), size=rng.integers(0, 3), replace=False)]
        retweet = users[rng.integers(len(users))] if rng.random() < 0.3 else None
        text = " ".join(f"@{m}" for m in mentioned) or "plain"
        tweets.append(
            make_tweet(lexicon, text, user=author, tweet_id=f"t{i}", retweet_of=retweet)
        )

    expected = set()
    for t in tweets:
        for other in list(t.mentions) + ([t.retweet_of] if t.retweet_of else []):
            if other != t.user:
                expected.add(frozenset((t.user, other)))

    got = {frozenset(e) for e in build_graph(tweets).edges}
    assert got == expected


class TestExtractCommunity:
    def path_graph(self):
        g = SocialGraph()
        for a, b in [("A", "B"), ("B", "C"), ("C", "D")]:
            g.add_edge(a, b)
        return g

    def test_depth_two_on_path(self):
        c = extract_community(self.path_graph(), "A", 2)
        assert c.members == {"A", "B", "C"}
        assert c.edges == {("A", "B"), ("B", "C")}

    def test_depth_zero(self):
        c = extract_community(self.path_graph(), "A", 0)
        assert c.members == {"A"}
        assert c.edges == set()

    def test_missing_seed(self):
        with pytest.raises(ValueError, match="seed"):
            extract_community(self.path_graph(), "Z", 1)

    def _random_graph(self, seed=3, n=200, p=0.02):
        rng = np.random.default_rng(seed)
        g = SocialGraph()
        names = [f"n{i:03d}" for i in range(n)]
        g.nodes.update(names)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    g.add_edge(names[i], names[j])
        return g, names

    def test_members_match_reference_bfs(self):
        g, names = self._random_graph()
        nxg = nx.Graph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from(g.edges)
        for depth in (1, 2, 3):
            got = extract_community(g, names[0], depth).members
            lengths = nx.single_source_shortest_path_length(nxg, names[0], cutoff=depth)
            assert got == set(lengths)

    def test_monotone_in_depth(self):
        g, names = self._random_graph(seed=5)
        prev = set()
        for depth in range(5):
            members = extract_community(g, names[0], depth).members
            assert prev <= members
            prev = members

    def test_induced_subgraph_property(self):
        g, names = self._random_graph(seed=9)
        c = extract_community(g, names[0], 2)
        for a, b in c.edges:
            assert (a, b) in g.edges
            assert a in c.members and b in c.members
        # no parent edge between two members is missing
        for a, b in g.edges:
            if a in c.members and b in c.members:
                assert (a, b) in c.edges

    def test_deterministic(self):
        g, names = self._random_graph(seed=13)
        a = extract_community(g, names[0], 3)
        b = extract_community(g, names[0], 3)
        assert a.members == b.members and a.edges == b.edges

    def test_index_is_cached_sorted_and_read_only(self):
        g, names = self._random_graph(seed=21)
        c = extract_community(g, names[0], 3)
        index = c.index
        assert index is c.index
        assert index.members == tuple(sorted(c.members))
        assert index.edges == tuple(sorted(c.edges))
        assert all(index.members[row] == user for user, row in index.row.items())
        assert len(index.row) == len(c.members)
        assert index.i_idx.tolist() == [index.row[a] for a, _ in sorted(c.edges)]
        assert index.j_idx.tolist() == [index.row[b] for _, b in sorted(c.edges)]
        assert c.sorted_edges() == sorted(c.edges)
        for arr in (index.i_idx, index.j_idx):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_community_graph_is_immutable():
    c = CommunityGraph("a", 1, {"a", "b"}, {("a", "b")})
    assert isinstance(c.members, frozenset) and isinstance(c.edges, frozenset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.members = frozenset({"a"})
    with pytest.raises(AttributeError):
        c.edges.add(("a", "c"))
    assert c.index.edges == (("a", "b"),)
    assert pickle.loads(pickle.dumps(c)) == c


def test_edge_list_round_trip(tmp_path):
    edges = {canonical_edge("x", "a"), ("b", "c"), ("a", "b")}
    path = tmp_path / "edges.tsv"
    assert save_edge_list(edges, path) == 3
    assert load_edge_list(path) == edges
    # rows are sorted with the smaller user first
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)


def test_community_round_trip_via_edge_list(tmp_path):
    g = SocialGraph()
    for a, b in [("s", "a"), ("a", "b"), ("b", "c"), ("x", "y")]:
        g.add_edge(a, b)
    c = extract_community(g, "s", 2)
    path = tmp_path / "community.tsv"
    save_edge_list(c.edges, path)
    loaded = community_from_edge_list(path, "s", 2)
    assert loaded.members == c.members
    assert loaded.edges == c.edges
