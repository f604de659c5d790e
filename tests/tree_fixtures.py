"""Tree fixtures shared by the test modules."""

from dataclasses import dataclass
from typing import Optional

from bilip.trees import RootedTree


@dataclass(frozen=True)
class TreeFacts:
    parent: list[Optional[int]]  # None at the root
    children: list[list[int]]  # ascending ids
    rays: list[tuple[int, ...]]  # root paths of the childless vertices, planar order


def tree_facts(t: RootedTree) -> TreeFacts:
    """Parents, children and rays of t from a fresh BFS row and the
    adjacency lists, independent of the cached tree_arrays walk."""
    g = t.graph
    dist = g.bfs_row(t.root)
    parent: list[Optional[int]] = [None] * t.n
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in g.vertices():
        for u in g.neighbors(v):  # ascending
            if dist[u] == dist[v] + 1:
                parent[u] = v
                children[v].append(u)
    rays = []
    stack = [(t.root,)]
    while stack:
        path = stack.pop()
        kids = children[path[-1]]
        if not kids:
            rays.append(path)
        stack.extend(path + (c,) for c in reversed(kids))
    return TreeFacts(parent=parent, children=children, rays=rays)


def add_dead_end(t: RootedTree, vertex: int, length: int) -> RootedTree:
    """t with one nonbranching path of `length` new vertices attached at `vertex`."""
    parents = tree_facts(t).parent
    attach = vertex
    for _ in range(length):
        parents.append(attach)
        attach = len(parents) - 1
    return RootedTree.from_parents(parents)
