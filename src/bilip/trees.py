"""Rooted-tree generators and structural predicates on truncations.

All predicates about infinite trees are evaluated on depth-D truncations
with level margins, so boundary effects cannot produce false failures.
Generators are seeded and reproducible: the same seed always yields the
same edge list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import ConstructionError, InputError
from .graph import UNREACHED, Truncation, UdbgGraph

DEFAULT_VERTEX_BUDGET = 500_000

Schedule = Union[Callable[[int], int], int]


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: object = None
    indeterminate: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree whose levels are the depths, seen through its
    truncation; parents, children and leaves come from the graph's
    tree_arrays."""

    trunc: Truncation

    @property
    def graph(self) -> UdbgGraph:
        return self.trunc.graph

    @property
    def root(self) -> int:
        return self.trunc.graph.root

    @property
    def depth(self) -> int:
        return self.trunc.depth

    @property
    def n(self) -> int:
        return self.trunc.graph.n

    def level(self, v: int) -> int:
        return self.trunc.graph.levels[v]

    @classmethod
    def from_parents(
        cls,
        parents: Sequence[Optional[int]],
        budget: int = DEFAULT_VERTEX_BUDGET,
    ) -> "RootedTree":
        n = len(parents)
        if n > budget:
            raise ConstructionError(f"vertex budget exceeded: {n} > {budget}")
        roots = [v for v in range(n) if parents[v] is None]
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        children = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                continue
            if not 0 <= p < n:
                raise InputError(f"parent {p} of vertex {v} out of range")
            children[p].append(v)
        levels = [-1] * n
        levels[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for c in children[v]:
                levels[c] = levels[v] + 1
                stack.append(c)
        # the graph rejects a vertex the root does not reach
        graph = UdbgGraph(n, _edges(parents), root=root, levels=levels)
        return cls(Truncation.from_graph(graph))


def _edges(parents: Sequence[Optional[int]]) -> Iterator[tuple[int, int]]:
    """Tree edges (parents[v], v)."""
    return ((p, v) for v, p in enumerate(parents) if p is not None)


def _normalize_schedule(schedule: Schedule, depth: int) -> list[int]:
    if isinstance(schedule, int):
        values = [schedule] * (depth + 1)
    else:
        values = [schedule(l) for l in range(depth + 1)]
    if any(not isinstance(v, int) or v < 0 for v in values):
        raise InputError("schedule lengths must be nonnegative integers")
    return values


# -- generators ----------------------------------------------------------


def gen_kary(k: int, depth: int, budget: int = DEFAULT_VERTEX_BUDGET) -> RootedTree:
    """Tree in which every vertex of level < depth has exactly k children."""
    if k < 2:
        raise InputError("k must be at least 2")
    if depth < 1:
        raise InputError("depth must be at least 1")
    total = level_size = 1
    for level in range(1, depth + 1):  # stops at the budget, whatever the depth
        level_size *= k
        total += level_size
        if total > budget:
            raise ConstructionError(
                f"vertex budget exceeded at level {level}: {total} > {budget}"
            )
    parents: list[Optional[int]] = [None]
    level_start = 0
    level_size = 1
    for _ in range(depth):
        for p in range(level_start, level_start + level_size):
            parents.extend([p] * k)
        level_start += level_size
        level_size *= k
    return RootedTree.from_parents(parents, budget=budget)


def gen_path(depth: int, budget: int = DEFAULT_VERTEX_BUDGET) -> RootedTree:
    """Single path of the given length, rooted at one end."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    parents: list[Optional[int]] = [None] + list(range(depth))
    return RootedTree.from_parents(parents, budget=budget)


def gen_random_pseudo_regular(
    seed: int,
    K: int,
    depth: int,
    mu: int,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> RootedTree:
    """Random tree guaranteed to branch at least once every K levels.

    Every vertex gets 1..mu-1 children; a vertex whose ancestry shows K-1
    consecutive single-child steps is forced to branch, which makes
    check_pseudo_regular pass with constant <= K on levels t <= depth-K.
    With mu = 3 and K = 1 every vertex is forced to exactly two children,
    so the output coincides with gen_kary(2, depth).
    """
    if K < 1:
        raise InputError("K must be at least 1")
    if depth < 1:
        raise InputError("depth must be at least 1")
    if mu < 3:
        raise ConstructionError(f"mu={mu} cannot support branching (need mu >= 3)")
    rng = random.Random(seed)
    parents: list[Optional[int]] = [None]
    # gap = single-child steps since the last branching ancestor
    frontier = [(0, 0)]  # (vertex, gap)
    for level in range(depth):
        next_frontier = []
        for v, gap in frontier:
            if gap >= K - 1:
                c = rng.randint(2, mu - 1)
            else:
                c = rng.randint(1, mu - 1)
            child_gap = 0 if c >= 2 else gap + 1
            if len(parents) + c > budget:  # before a huge mu allocates anything
                raise ConstructionError(
                    f"vertex budget exceeded at level {level}: {len(parents) + c} > {budget}"
                )
            for _ in range(c):
                child = len(parents)
                parents.append(v)
                next_frontier.append((child, child_gap))
        frontier = next_frontier
    return RootedTree.from_parents(parents, budget=budget)


def graft_dead_ends(
    t: RootedTree,
    schedule: Schedule,
    seed: int,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> RootedTree:
    """Attach nonbranching paths at randomly chosen vertices, level by level.

    At level l the scheduled length is clamped to min(schedule(l), D - l)
    so no tip passes the truncation depth; max(1, |level|//4) distinct
    vertices of the input tree receive a graft. A constant schedule c
    keeps the result visual with constant <= c; schedule(l) = l is the
    "stretched" negative control whose nonbranching segments grow with
    the depth.
    """
    depth = t.depth
    lengths = _normalize_schedule(schedule, depth)
    rng = random.Random(seed)
    parents = [None if p == UNREACHED else p for p in t.graph.tree_arrays()[0]]
    by_level: dict[int, list[int]] = {}
    for v in range(t.n):
        by_level.setdefault(t.level(v), []).append(v)
    for level in range(depth + 1):
        length = min(lengths[level], depth - level)
        if length <= 0:
            continue
        candidates = sorted(by_level.get(level, []))
        if not candidates:
            continue
        count = min(len(candidates), max(1, len(candidates) // 4))
        for v in sorted(rng.sample(candidates, count)):
            attach = v
            for _ in range(length):
                parents.append(attach)
                attach = len(parents) - 1
            if len(parents) > budget:
                raise ConstructionError(f"vertex budget exceeded: {len(parents)} > {budget}")
    return RootedTree.from_parents(parents, budget=budget)


# -- predicates ----------------------------------------------------------


def check_pseudo_regular(t: RootedTree, K: int) -> CheckResult:
    """Every vertex at level t <= D-K must have >= 2 descendants at level t+K."""
    depth = t.depth
    if not 1 <= K <= depth - 1:
        raise InputError(f"K must be in 1..{depth - 1}")
    parent = t.graph.tree_arrays()[0]
    counts = [0] * t.n
    for v in range(t.n):
        if t.level(v) < K:
            continue
        a = v
        for _ in range(K):
            a = parent[a]
        counts[a] += 1
    for a in range(t.n):
        if t.level(a) <= depth - K and counts[a] < 2:
            return CheckResult(False, witness=a)
    return CheckResult(True)


def _subtree_max_level(t: RootedTree) -> list[int]:
    parent, depth, order = t.graph.tree_arrays()
    out = list(depth)
    for v in reversed(order):  # children before parents
        p = parent[v]
        if p != UNREACHED and out[v] > out[p]:
            out[p] = out[v]
    return out


def core_vertices(t: RootedTree) -> list[int]:
    """Vertices lying on some root-to-depth-D geodesic, ascending ids."""
    reach = _subtree_max_level(t)
    return [v for v in range(t.n) if reach[v] == t.depth]


def is_complete(t: RootedTree) -> bool:
    """Every vertex lies on a root-to-depth-D geodesic, tested in O(n).

    Equivalent to len(core_vertices(t)) == t.n: a vertex is off the core
    exactly when no leaf below it reaches depth D, so the core is
    everything precisely when every childless vertex sits at level D.
    In preorder a vertex is childless exactly when the next vertex is no
    deeper, and the last vertex is always childless.
    """
    _, depth, order = t.graph.tree_arrays()
    full = t.depth
    return depth[order[-1]] == full and all(
        depth[v] == full or depth[w] > depth[v] for v, w in zip(order, order[1:])
    )


def check_visual(t: RootedTree, C: int) -> CheckResult:
    """Every vertex within C of a full-depth ray.

    Vertices farther than C from every ray but within C of the truncation
    sphere are reported as indeterminate rather than failed: their branch
    may continue past the window.
    """
    if C < 0:
        raise InputError("C must be nonnegative")
    core = core_vertices(t)
    to_core = t.graph.distances_from_set(core)
    to_sphere = t.graph.distances_from_set(t.trunc.trunc_sphere)
    witness = None
    pending = []
    for v in range(t.n):
        if to_core[v] <= C:
            continue
        if to_sphere[v] <= C:
            pending.append(v)
        elif witness is None:
            witness = v
    return CheckResult(witness is None, witness=witness, indeterminate=tuple(pending))


@dataclass(frozen=True)
class CoreResult:
    core: RootedTree
    retraction: list[int]  # core id of each original vertex
    core_to_orig: tuple[int, ...]


def complete_core(t: RootedTree) -> CoreResult:
    """Largest subtree whose every branch reaches the truncation depth.

    The retraction sends each vertex to its nearest core vertex; in a tree
    that vertex is the first core ancestor, so it is unique (ties cannot
    arise, smallest-id tie-breaking is stated for API stability only).
    Restricted to the core the retraction is the identity; a complete
    tree is its own core.
    """
    if is_complete(t):
        ids = tuple(range(t.n))
        return CoreResult(core=t, retraction=list(ids), core_to_orig=ids)
    parent, _, order = t.graph.tree_arrays()
    root = t.root
    keep = core_vertices(t)
    retraction = [UNREACHED] * t.n  # the core ids of core vertices first
    for i, v in enumerate(keep):
        retraction[v] = i
    parents = [None if v == root else retraction[parent[v]] for v in keep]
    levels = [t.level(v) for v in keep]
    graph = UdbgGraph(len(keep), _edges(parents), root=retraction[root], levels=levels)
    core = RootedTree(Truncation.from_graph(graph))
    for v in order:  # the root is in the core, and parents come first
        if retraction[v] == UNREACHED:
            retraction[v] = retraction[parent[v]]
    return CoreResult(core=core, retraction=retraction, core_to_orig=tuple(keep))
