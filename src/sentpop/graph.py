"""Retweet-mention user graph and bounded-depth seed communities."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ._lazy import np
from .corpus import GraphFields, Tweet
from .manifest import read_rows, write_lines

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


@dataclass(frozen=True)
class CommunityGraph:
    """A seed's community: its members and the edges among them.

    Immutable, and its own edge index: ``members`` and ``edges`` are sorted
    tuples, ``row`` maps each member to its position in ``members``, and
    ``i_idx[k]`` and ``j_idx[k]`` are the rows of the two endpoints of
    ``edges[k]``. The index attributes are built on first use and cached;
    the arrays are read-only, and ``row`` is shared and must not be modified.
    """

    members: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    def __reduce__(self):
        # only the fields: a copy builds its own read-only index
        return CommunityGraph, (self.members, self.edges)

    @cached_property
    def row(self) -> dict[str, int]:
        return {user: i for i, user in enumerate(self.members)}

    @cached_property
    def i_idx(self) -> np.ndarray:
        return self._endpoint_rows(0)

    @cached_property
    def j_idx(self) -> np.ndarray:
        return self._endpoint_rows(1)

    def _endpoint_rows(self, end: int) -> np.ndarray:
        row = self.row
        rows = np.array([row[edge[end]] for edge in self.edges], dtype=np.intp)
        rows.flags.writeable = False
        return rows


def build_graph(tweets: Iterable[Tweet | GraphFields]) -> SocialGraph:
    """Build the retweet-mention graph from parsed tweets, or their :class:`GraphFields`.

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
    return CommunityGraph(members=members, edges=edges)


def save_edge_list(edges: Iterable[Edge], path: str | Path) -> int:
    """Write ``user_i<TAB>user_j`` lines, lexicographically sorted. Returns row count."""
    return write_lines((f"{a}\t{b}" for a, b in sorted(edges)), path)


def load_edge_list(path: str | Path) -> set[Edge]:
    edges: set[Edge] = set()
    for line_no, (a, b) in read_rows(path, 2, "edge"):
        if a == b:
            raise ValueError(f"{path}: bad edge row at line {line_no}")
        edges.add(canonical_edge(a, b))
    return edges


def community_from_edge_list(path: str | Path, seed: str) -> CommunityGraph:
    """Rebuild a persisted community.

    Every non-seed member of a community has at least one induced edge (it was
    reached over one), so the edge endpoints plus the seed recover the member
    set exactly. The seed of a community with edges is on one of them.
    """
    edges = load_edge_list(path)
    members = set().union(*edges)
    if members and seed not in members:
        raise ValueError(f"{path}: seed user {seed!r} is on none of its edges")
    members.add(seed)
    return CommunityGraph(members=members, edges=edges)
