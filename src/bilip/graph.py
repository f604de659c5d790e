"""Finite bounded-degree graphs with the graph metric.

Vertices are dense integers 0..n-1. Graphs are immutable after
construction. Local queries (ball, sphere, boundary and the ball family
of the Cheeger module) share one lazily grown BFS whose visited set is
local to the call, so each costs O(|ball| * mu) rather than O(n).
A rooted tree is walked once, depth first: tree_arrays caches its parent
and depth arrays and its preorder, the only copy of the tree's shape,
and every tree walk of the package (subtrees, leaf intervals, ray
agreement depths, completeness, cores, retractions, the end-space
vertex map) is a pass over that order. Distances keep no other cache: a
rooted tree walks its parent array, any other graph grows BFS layers
only until the targets are reached, and bfs_row computes a fresh full
row on every call, so all-pairs work reads one row per source in O(n)
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError

UNREACHED = -1


class UdbgGraph:
    """Connected graph with a recorded degree bound, optional root and levels.

    Invariants enforced at construction: symmetric adjacency, no self
    loops or parallel edges, connectedness, deg(v) <= mu, and when both
    root and levels are present, level(root) = 0 with every edge changing
    level by at most 1.
    """

    __slots__ = ("_adj", "root", "levels", "mu", "_is_tree",
                 "_tree_parent", "_tree_depth", "_tree_order")

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        root: Optional[int] = None,
        levels: Optional[Sequence[int]] = None,
        mu: Optional[int] = None,
    ):
        adj = tuple(tuple(sorted(set(nbrs))) for nbrs in adjacency)
        n = len(adj)
        self._adj = adj
        self.root = root
        self.levels = tuple(levels) if levels is not None else None
        max_deg = max((len(a) for a in adj), default=0)
        self.mu = max_deg if mu is None else mu
        self._is_tree: Optional[bool] = None
        self._tree_parent: Optional[list[int]] = None
        self._tree_depth: Optional[list[int]] = None
        self._tree_order: Optional[list[int]] = None
        self._validate(n, adjacency)

    def _validate(self, n, raw_adjacency):
        if n == 0:
            raise InputError("graph must have at least one vertex")
        for v, nbrs in enumerate(raw_adjacency):
            seen = set()
            for u in nbrs:
                if not 0 <= u < n:
                    raise InputError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise InputError(f"self-loop at vertex {v}")
                if u in seen:
                    raise InputError(f"parallel edge {v}-{u}")
                seen.add(u)
        for v in range(n):
            for u in self._adj[v]:
                if v not in self._adj[u]:
                    raise InputError(f"adjacency not symmetric at edge {v}-{u}")
        if max(len(a) for a in self._adj) > self.mu:
            raise InputError("degree bound mu exceeded")
        row = self._bfs((0,))
        if UNREACHED in row:
            raise InputError("graph is not connected")
        if self.root is not None:
            self.check_vertex(self.root)
        if self.levels is not None:
            if len(self.levels) != n:
                raise InputError("levels array length mismatch")
            if any(l < 0 for l in self.levels):
                raise InputError("levels must be nonnegative")
            if self.root is not None:
                if self.levels[self.root] != 0:
                    raise InputError("root must have level 0")
                for v in range(n):
                    for u in self._adj[v]:
                        if abs(self.levels[u] - self.levels[v]) > 1:
                            raise InputError(f"edge {v}-{u} jumps more than one level")

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self):
        """Edges as (u, v) with u < v, in sorted order."""
        for u in range(len(self._adj)):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    @property
    def is_tree(self) -> bool:
        if self._is_tree is None:
            self._is_tree = self.edge_count() == len(self._adj) - 1
        return self._is_tree

    def check_vertex(self, v):
        if not isinstance(v, int) or not 0 <= v < len(self._adj):
            raise InputError(f"unknown vertex id {v!r}")

    # -- metric ----------------------------------------------------------

    def _bfs(self, sources: Iterable[int]) -> list[int]:
        """Distances to the nearest of the validated sources, layer by layer."""
        adj = self._adj
        dist = [UNREACHED] * len(adj)
        frontier = []
        for s in sources:
            if dist[s] == UNREACHED:
                dist[s] = 0
                frontier.append(s)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if dist[u] == UNREACHED:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        return dist

    def bfs_layers(self, sources: Iterable[int]) -> Iterator[list[int]]:
        """Breadth-first layers from validated sources, grown lazily.

        Yields the vertices at distance exactly d for d = 0, 1, ...
        (layer 0 the distinct sources) and stops at the first empty
        layer. A consumer that stops early pays only for the layers it
        took: O(|ball| * mu), with the visited set local to the call.
        """
        seen: set[int] = set()
        frontier = []
        for s in sources:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        adj = self._adj
        while frontier:
            yield frontier
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt

    def _layers(self, sources: Iterable[int], r: int) -> tuple[set[int], list[list[int]]]:
        """(ball, layers): the first r + 1 layers of bfs_layers and their union."""
        layers = list(islice(self.bfs_layers(sources), r + 1))
        return set().union(*layers), layers

    def bfs_row(self, source: int) -> list[int]:
        """Distances from source to every vertex, computed afresh."""
        self.check_vertex(source)
        return self._bfs((source,))

    def tree_arrays(self) -> tuple[list[int], list[int], list[int]]:
        """(parent, depth, order) of a rooted tree, computed once; InputError
        on any other graph.

        order is the depth-first preorder from the root with children in
        ascending id: parents come before children, every subtree is a
        contiguous run, and leaves come in planar order. parent[root] is
        UNREACHED. The walk keeps no visited set, so is_tree guards it.
        """
        if self.root is None or not self.is_tree:
            raise InputError("graph is not a rooted tree")
        if self._tree_order is None:
            adj = self._adj
            parent = [UNREACHED] * len(adj)
            depth = [0] * len(adj)
            order = []
            stack = [self.root]
            while stack:
                v = stack.pop()
                order.append(v)
                up, down = parent[v], depth[v] + 1
                for u in reversed(adj[v]):
                    if u != up:
                        parent[u] = v
                        depth[u] = down
                        stack.append(u)
            self._tree_parent, self._tree_depth, self._tree_order = parent, depth, order
        return self._tree_parent, self._tree_depth, self._tree_order

    def tree_walk(self) -> Optional[Callable[[int, int], int]]:
        """d(u, v) on a rooted tree, walking both ends up to their common
        ancestor, for callers that validated the ids; None on any other
        graph."""
        if self.root is None or not self.is_tree:
            return None
        parent, depth, _ = self.tree_arrays()

        def walk(u: int, v: int) -> int:
            du, dv = depth[u], depth[v]
            total = du + dv
            while du > dv:
                u = parent[u]
                du -= 1
            while dv > du:
                v = parent[v]
                dv -= 1
            while u != v:
                u = parent[u]
                v = parent[v]
                du -= 1
            return total - 2 * du

        return walk

    def _distances(self, source: int, targets: set[int]) -> dict[int, int]:
        """d(source, t) for a nonempty set of validated targets t, growing
        BFS layers from the source only until every target is reached."""
        found: dict[int, int] = {}
        for d, layer in enumerate(self.bfs_layers((source,))):
            found.update(dict.fromkeys(targets.intersection(layer), d))
            if len(found) == len(targets):
                return found

    def distance(self, u: int, v: int) -> int:
        """Graph-metric distance (edge count of a shortest path)."""
        self.check_vertex(u)
        self.check_vertex(v)
        walk = self.tree_walk()
        return walk(u, v) if walk is not None else self._distances(u, {v})[v]

    def max_distance(self, pairs: Iterable[tuple[int, int]]) -> int:
        """max d(a, b) over the pairs, 0 when there are none.

        A rooted tree walks each pair as it streams past; any other graph
        grows one BFS per distinct first vertex, only as far as its
        farthest partner.
        """
        walk = self.tree_walk()
        partners: dict[int, set[int]] = {}
        best = 0
        for a, b in pairs:
            self.check_vertex(a)
            self.check_vertex(b)
            if walk is None:
                partners.setdefault(a, set()).add(b)
            else:
                d = walk(a, b)
                if d > best:
                    best = d
        return max((max(self._distances(a, bs).values()) for a, bs in partners.items()),
                   default=best)

    def ball(self, v: int, r: int) -> set[int]:
        """Closed metric ball {u : d(u, v) <= r}."""
        self.check_vertex(v)
        if r < 0:
            raise InputError("radius must be nonnegative")
        return self._layers((v,), r)[0]

    def sphere(self, v0: int, t: int) -> set[int]:
        """Metric sphere {u : d(u, v0) = t}."""
        self.check_vertex(v0)
        if t < 0:
            raise InputError("radius must be nonnegative")
        layers = self._layers((v0,), t)[1]
        return set(layers[t]) if t < len(layers) else set()

    def distances_from_set(self, sources: Iterable[int]) -> list[int]:
        """Multi-source BFS row: d(v, sources) for every v."""
        sources = list(sources)
        if not sources:
            raise InputError("source set is empty")
        for s in sources:
            self.check_vertex(s)
        return self._bfs(sources)

    def boundary(self, vertex_set: Iterable[int], r: int = 1) -> set[int]:
        """r-boundary: vertices outside the set at distance <= r from it.

        An empty input yields an empty boundary; callers enforce
        nonemptiness where their own contracts require it.
        """
        if r < 1:
            raise InputError("boundary radius must be positive")
        inside = set(vertex_set)
        for s in inside:
            self.check_vertex(s)
        ball = self._layers(inside, r)[0]
        ball -= inside
        return ball


@dataclass(frozen=True)
class Truncation:
    """A graph observed through a finite depth window.

    trunc_sphere is the outermost level; vertices close to it carry
    boundary effects and are excluded from "interior" computations.
    """

    graph: UdbgGraph
    depth: int
    trunc_sphere: frozenset[int] = field(repr=False)

    @classmethod
    def from_graph(cls, g: UdbgGraph) -> "Truncation":
        if g.levels is None:
            raise InputError("truncation requires level labels")
        depth = max(g.levels)
        sphere = frozenset(v for v in g.vertices() if g.levels[v] == depth)
        return cls(graph=g, depth=depth, trunc_sphere=sphere)

    def __post_init__(self):
        if not self.trunc_sphere:
            raise InputError("truncation sphere is empty")
        levels = self.graph.levels
        if levels is not None:
            expected = frozenset(v for v in self.graph.vertices() if levels[v] == self.depth)
            if expected != self.trunc_sphere:
                raise InputError("truncation sphere does not match level labels")

    def interior(self, w: int) -> frozenset[int]:
        """Vertices at distance > w from the truncation sphere."""
        if w < 0:
            raise InputError("collar width must be nonnegative")
        dist = self.graph.distances_from_set(self.trunc_sphere)
        inner = frozenset(v for v in self.graph.vertices() if dist[v] > w)
        if not inner:
            raise InputError(f"interior is empty at collar width {w} (depth too small)")
        return inner
