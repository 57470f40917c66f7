"""Retweet-mention user graph and bounded-depth seed communities."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Tweet

Edge = tuple[str, str]


def canonical_edge(a: str, b: str) -> Edge:
    """Unordered edge as a sorted pair; callers must reject self-loops."""
    return (a, b) if a < b else (b, a)


@dataclass
class SocialGraph:
    """Undirected, simple graph over user identifiers."""

    nodes: set[str] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        self.nodes.add(a)
        self.nodes.add(b)
        self.edges.add(canonical_edge(a, b))

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {node: set() for node in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


@dataclass(frozen=True, eq=False)
class CommunityIndex:
    """Sorted members and edges of a community, with edges as member rows.

    ``row`` maps each member to its position in ``members``, and ``i_idx[k]``
    and ``j_idx[k]`` are the rows of the two endpoints of ``edges[k]``. The
    arrays are read-only; ``row`` is shared and must not be modified.
    """

    members: tuple[str, ...]
    edges: tuple[Edge, ...]
    row: dict[str, int]
    i_idx: np.ndarray
    j_idx: np.ndarray


@dataclass(frozen=True)
class CommunityGraph:
    """Subgraph induced on every user within ``max_depth`` hops of ``seed``.

    Immutable: ``members`` and ``edges`` are stored as frozensets, so the
    edge index built on first use stays valid for the object's lifetime.
    """

    seed: str
    max_depth: int
    members: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        object.__setattr__(self, "edges", frozenset(self.edges))

    @cached_property
    def index(self) -> CommunityIndex:
        members = tuple(sorted(self.members))
        row = {user: i for i, user in enumerate(members)}
        edges = tuple(sorted(self.edges))
        i_idx = np.array([row[a] for a, _ in edges], dtype=np.intp)
        j_idx = np.array([row[b] for _, b in edges], dtype=np.intp)
        i_idx.flags.writeable = False
        j_idx.flags.writeable = False
        return CommunityIndex(members, edges, row, i_idx, j_idx)

    def sorted_edges(self) -> list[Edge]:
        return list(self.index.edges)


def build_graph(tweets: Iterable[Tweet]) -> SocialGraph:
    """Build the retweet-mention graph from parsed tweets.

    An edge joins two distinct users whenever one retweets or mentions the
    other; repeated interactions do not create multi-edges. Every author and
    every interaction target becomes a node, so a seed user with no relations
    is still present (as an isolated node).
    """
    g = SocialGraph()
    for tweet in tweets:
        g.nodes.add(tweet.user)
        if tweet.retweet_of is not None:
            g.add_edge(tweet.user, tweet.retweet_of)
        for mention in tweet.mentions:
            g.add_edge(tweet.user, mention)
    return g


def extract_community(g: SocialGraph, seed: str, max_depth: int) -> CommunityGraph:
    """Breadth-first closure of ``seed`` to ``max_depth`` hops, with induced edges."""
    if seed not in g.nodes:
        raise ValueError(f"seed user {seed!r} is not in the graph")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    adj = g.adjacency()
    members = {seed}
    frontier = {seed}
    for _ in range(max_depth):
        frontier = {nb for node in frontier for nb in adj[node]} - members
        if not frontier:
            break
        members |= frontier
    edges = {e for e in g.edges if e[0] in members and e[1] in members}
    return CommunityGraph(seed=seed, max_depth=max_depth, members=members, edges=edges)


def save_edge_list(edges: Iterable[Edge], path: str | Path) -> int:
    """Write ``user_i<TAB>user_j`` lines, lexicographically sorted. Returns row count."""
    rows = sorted(edges)
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in rows:
            fh.write(f"{a}\t{b}\n")
    return len(rows)


def load_edge_list(path: str | Path) -> set[Edge]:
    edges: set[Edge] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or fields[0] == fields[1]:
                raise ValueError(f"{path}: bad edge at line {line_no}")
            edges.add(canonical_edge(*fields))
    return edges


def community_from_edge_list(path: str | Path, seed: str, max_depth: int) -> CommunityGraph:
    """Rebuild a persisted community.

    Every non-seed member of a community has at least one induced edge (it was
    reached over one), so the edge endpoints plus the seed recover the member
    set exactly.
    """
    edges = load_edge_list(path)
    members = {seed}
    for a, b in edges:
        members.add(a)
        members.add(b)
    return CommunityGraph(seed=seed, max_depth=max_depth, members=members, edges=edges)
