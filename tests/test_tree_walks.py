"""Every consumer of the cached preorder against the walk it replaced.

Each reference below is a per-caller traversal as the library once had
it: a breadth-first parent array, a DFS with done markers, a sort by
level, ancestor walks, one DFS per subtree root and a count of distinct
ray vertices; the preorder itself is checked against a sort of root
paths. Parents, children and rays come from tree_facts, which reads a
BFS row, never the cached walk. The trees are seeded and varied:
complete and incomplete, one vertex, paths, dead ends, stretched grafts,
random recursive trees, and copies with shuffled ids, where children
often carry smaller ids than parents.
"""

import random
from collections import deque

import pytest

from bilip.cheeger import family_sets
from bilip.ends import _hierarchy, doubling_check, enumerate_ends, leaf_intervals
from bilip.errors import InputError
from bilip.graph import UdbgGraph
from bilip.qimaps import hierarchical_end_map, induced_vertex_map
from bilip.trees import (
    RootedTree,
    complete_core,
    core_vertices,
    gen_kary,
    gen_path,
    gen_random_pseudo_regular,
    graft_dead_ends,
    is_complete,
)

from tree_fixtures import tree_facts

# -- the reference walks -----------------------------------------------------


def bfs_parent_depth(g):
    parent = [-1] * g.n
    depth = [-1] * g.n
    depth[g.root] = 0
    q = deque([g.root])
    while q:
        v = q.popleft()
        for u in g.neighbors(v):
            if depth[u] == -1:
                depth[u] = depth[v] + 1
                parent[u] = v
                q.append(u)
    return parent, depth


def preorder(t):
    """Vertices sorted by their root paths as id tuples: an ancestor's path
    is a prefix of its descendants', and siblings compare by id."""
    parent = tree_facts(t).parent

    def root_path(v):
        path = []
        while v is not None:
            path.append(v)
            v = parent[v]
        return path[::-1]

    return sorted(range(t.n), key=root_path)


def dfs_leaf_intervals(t):
    children = tree_facts(t).children
    lo = [0] * t.n
    hi = [0] * t.n
    counter = 0
    stack = [(t.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            hi[v] = counter
            continue
        lo[v] = counter
        if not children[v]:
            counter += 1
        stack.append((v, True))
        for c in reversed(children[v]):
            stack.append((c, False))
    return lo, hi


def ray_agreements(rays):
    """The depth of the last common vertex of each pair of consecutive rays."""
    out = []
    for a, b in zip(rays, rays[1:]):
        m = 0
        while a[m + 1] == b[m + 1]:
            m += 1
        out.append(m)
    return out


def ray_vertex_doubling(es, rays):
    """Cover count of every agreement ball as the number of distinct
    vertices its rays pass two levels below the ball's depth."""
    worst = 1
    for lo, hi, m, _ in _hierarchy(es.adjacent, es.n):
        if m is not None:
            step = min(m + 2, es.depth)
            worst = max(worst, len({rays[r][step] for r in range(lo, hi)}))
    return worst


def sorted_core(t):
    children = tree_facts(t).children
    reach = [0] * t.n
    for v in sorted(range(t.n), key=t.level, reverse=True):
        reach[v] = max([t.level(v)] + [reach[c] for c in children[v]])
    return [v for v in range(t.n) if reach[v] == t.depth]


def ancestor_retraction(t, keep):
    parent = tree_facts(t).parent
    new_id = {orig: i for i, orig in enumerate(keep)}
    out = []
    for v in range(t.n):
        a = v
        while a not in new_id:
            a = parent[a]
        out.append(new_id[a])
    return out


def dfs_descendant_sets(trunc, w):
    g = trunc.graph
    interior = trunc.interior(w)
    parent, _ = bfs_parent_depth(g)
    children = [[] for _ in range(g.n)]
    for v, p in enumerate(parent):
        if p != -1:
            children[p].append(v)
    sets, seen = [], set()
    for v in sorted(interior):
        stack, sub = [v], []
        while stack:
            u = stack.pop()
            sub.append(u)
            stack.extend(children[u])
        fs = frozenset(u for u in sub if u in interior)
        if fs and fs not in seen:
            seen.add(fs)
            sets.append(fs)
    return sets


def root_descent_map(ta, tb, em):
    lo_a, hi_a = dfs_leaf_intervals(ta)
    lo_b, hi_b = dfs_leaf_intervals(tb)
    children = tree_facts(tb).children
    out = {}
    for v in range(ta.n):
        blo, bhi = em.image_interval((lo_a[v], hi_a[v]))
        w = tb.root
        while True:
            inside = [c for c in children[w] if lo_b[c] <= blo and bhi <= hi_b[c]]
            if not inside:
                break
            (w,) = inside
        out[v] = w
    return out


# -- the trees ---------------------------------------------------------------


def shuffled(t, rng):
    """t with its ids permuted at random."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    parents = [None] * t.n
    for v, p in enumerate(tree_facts(t).parent):
        parents[perm[v]] = None if p is None else perm[p]
    return RootedTree.from_parents(parents)


def sample_trees():
    rng = random.Random(14)
    trees = [
        RootedTree.from_parents([None]),
        gen_path(1),
        gen_path(9),
        gen_kary(2, 4),
        gen_kary(3, 3),
        graft_dead_ends(gen_kary(2, 5), 2, seed=1),
        graft_dead_ends(gen_kary(3, 4), 3, seed=2),
        graft_dead_ends(gen_kary(2, 6), lambda l: l, seed=7),
    ]
    for seed in range(5):
        trees.append(gen_random_pseudo_regular(seed, 2, 5, 4))
        n = rng.randint(2, 150)
        trees.append(RootedTree.from_parents([None] + [rng.randrange(v) for v in range(1, n)]))
    return trees + [shuffled(t, rng) for t in trees]


TREES = sample_trees()


# -- the comparisons ---------------------------------------------------------


def test_tree_arrays_is_the_ascending_preorder():
    assert any(any(p is not None and p > v for v, p in enumerate(tree_facts(t).parent))
               for t in TREES)
    for t in TREES:
        parent, depth, order = t.graph.tree_arrays()
        assert (parent, depth) == bfs_parent_depth(t.graph)
        assert order == preorder(t)
        assert t.graph.tree_arrays()[2] is order  # cached


def test_tree_arrays_needs_a_rooted_tree():
    triangle = UdbgGraph(3, [(0, 1), (0, 2), (1, 2)], root=0)
    tree = gen_kary(2, 3).graph
    unrooted = UdbgGraph(tree.n, tree.edges())
    for g in (triangle, unrooted):
        with pytest.raises(InputError, match="not a rooted tree"):
            g.tree_arrays()


def test_core_and_retraction_match_the_walks():
    for t in TREES:
        keep = sorted_core(t)
        assert core_vertices(t) == keep
        assert is_complete(t) == (len(keep) == t.n)
        res = complete_core(t)
        assert list(res.core_to_orig) == keep
        assert list(res.retraction) == ancestor_retraction(t, keep)


def test_end_walks_match_the_dfs():
    for t in TREES:
        core = complete_core(t).core
        rays = tree_facts(core).rays
        assert leaf_intervals(core) == dfs_leaf_intervals(core)
        es = enumerate_ends(core)
        assert es.n == len(rays)
        assert list(es.adjacent) == ray_agreements(rays)
        if es.depth < 3:
            with pytest.raises(InputError):
                doubling_check(es)
        else:
            assert doubling_check(es)[1] == ray_vertex_doubling(es, rays)


def test_descendant_subtrees_match_one_dfs_per_root():
    checked = 0
    for t in TREES:
        for w in (0, 1):
            try:
                expected = dfs_descendant_sets(t.trunc, w)
            except InputError:  # empty interior
                with pytest.raises(InputError):
                    family_sets(t.trunc, w, ["descendant-subtrees"], seed=0)
                continue
            assert family_sets(t.trunc, w, ["descendant-subtrees"], seed=0) == expected
            checked += 1
    assert checked > len(TREES)


def test_induced_vertex_map_matches_root_descent():
    cores = [complete_core(t).core for t in TREES]
    for ta, tb in [*zip(cores, cores[1:]), *zip(cores, cores)]:
        em = hierarchical_end_map(enumerate_ends(ta), enumerate_ends(tb))
        assert induced_vertex_map(ta, tb, em) == root_descent_map(ta, tb, em)
