"""Vertex maps between trees built from end-space correspondences.

The correspondence pairs nested agreement balls of the two end spaces
recursively: at each ball the child sub-balls of both sides are split
into contiguous groups, as evenly as possible, in planar order. The
recursion bottoms out at single rays. A vertex map falls out by sending
each vertex to the deepest target vertex whose shadow (the rays through
it) contains the image of the source shadow. qi_constants measures such
a map on every pair, from one BFS row per domain vertex on each side, or
on a sample; promote's exact bilipschitz constant needs only the pairs
that no other domain vertex separates, and uses those rows as its test
oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .ends import EndSpace, enumerate_ends, leaf_intervals, split_at_minimum
from .graph import UNREACHED, UdbgGraph
from .trees import RootedTree, complete_core

Interval = tuple[int, int]  # half-open


@dataclass(frozen=True)
class EndMap:
    """Order-preserving correspondence between two end spaces.

    leaf_pairs partition both ray ranges into aligned intervals; when all
    leaves are 1-to-1 the correspondence is a ray bijection.
    """

    n_source: int
    n_target: int
    leaf_pairs: tuple[tuple[Interval, Interval], ...]
    bijective: bool
    _starts: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_starts", tuple(a[0] for a, _ in self.leaf_pairs))

    def leaf_of(self, ray: int) -> int:
        if not 0 <= ray < self.n_source:
            raise InputError(f"ray index {ray} out of range")
        return bisect_right(self._starts, ray) - 1

    def image_interval(self, interval: Interval) -> Interval:
        lo, hi = interval
        if not (0 <= lo < hi <= self.n_source):
            raise InputError(f"bad ray interval {interval}")
        first = self.leaf_pairs[self.leaf_of(lo)][1]
        last = self.leaf_pairs[self.leaf_of(hi - 1)][1]
        return (first[0], last[1])


def _group(parts: list[Interval], g: int) -> list[Interval]:
    """Merge contiguous parts into g intervals with sizes as even as possible."""
    q, rem = divmod(len(parts), g)
    out = []
    idx = 0
    for i in range(g):
        take = q + (1 if i < rem else 0)
        out.append((parts[idx][0], parts[idx + take - 1][1]))
        idx += take
    return out


def hierarchical_end_map(es_a: EndSpace, es_b: EndSpace) -> EndMap:
    """Deterministic ball-hierarchy correspondence between two end spaces.

    Expects end spaces of regularly branching trees (run perfectness_check
    first if in doubt); any valid planar end space is accepted.
    """
    na, nb = es_a.n, es_b.n
    leaves: list[tuple[Interval, Interval]] = []
    stack: list[tuple[Interval, Interval]] = [((0, na), (0, nb))]
    while stack:
        (alo, ahi), (blo, bhi) = stack.pop()
        if ahi - alo == 1 or bhi - blo == 1:
            leaves.append(((alo, ahi), (blo, bhi)))
            continue
        _, parts_a = split_at_minimum(es_a.adjacent, alo, ahi)
        _, parts_b = split_at_minimum(es_b.adjacent, blo, bhi)
        g = min(len(parts_a), len(parts_b))
        groups_a = _group(parts_a, g)
        groups_b = _group(parts_b, g)
        for pair in reversed(list(zip(groups_a, groups_b))):
            stack.append(pair)
    leaves.sort(key=lambda ab: ab[0][0])
    bijective = all(a[1] - a[0] == 1 and b[1] - b[0] == 1 for a, b in leaves)
    return EndMap(
        n_source=na,
        n_target=nb,
        leaf_pairs=tuple(leaves),
        bijective=bijective,
    )


def induced_vertex_map(tree_t: RootedTree, tree_u: RootedTree, em: EndMap) -> dict[int, int]:
    """Deepest-shadow vertex map.

    For each source vertex the rays through it form an interval; its image
    interval is contained in the shadows of a root-anchored path of target
    vertices, whose deepest member is the image. The root maps to the root.
    A vertex's image interval is nested in its parent's, so the path of
    the vertex runs through its parent's image, and the descent starts
    there, in preorder.
    """
    lo_t, hi_t = leaf_intervals(tree_t)
    lo_u, hi_u = leaf_intervals(tree_u)
    if hi_t[tree_t.root] != em.n_source or hi_u[tree_u.root] != em.n_target:
        raise InputError("end map does not match the given trees")
    parent, _, order = tree_t.graph.tree_arrays()
    parent_u, _, order_u = tree_u.graph.tree_arrays()
    children = [[] for _ in range(tree_u.n)]
    for w in order_u[1:]:  # ascending ids within each list, as in preorder
        children[parent_u[w]].append(w)
    image = [0] * tree_t.n
    for v in order:
        blo, bhi = em.image_interval((lo_t[v], hi_t[v]))
        p = parent[v]
        w = tree_u.root if p == UNREACHED else image[p]
        descended = True
        while descended:
            descended = False
            # shadows of the children partition the shadow of w, so at
            # most one child can contain the image interval
            for c in children[w]:
                if lo_u[c] <= blo and bhi <= hi_u[c]:
                    w = c
                    descended = True
                    break
        image[v] = w
    return dict(enumerate(image))


def tree_vertex_map(tree_t: RootedTree, tree_u: RootedTree) -> dict[int, int]:
    """End-to-end map between rooted trees, dead ends included.

    Cores are matched through their end spaces; vertices off the core ride
    along their retraction. Complete trees pass through unchanged.
    """
    core_t = complete_core(tree_t)
    core_u = complete_core(tree_u)
    em = hierarchical_end_map(enumerate_ends(core_t.core), enumerate_ends(core_u.core))
    core_vm = induced_vertex_map(core_t.core, core_u.core, em)
    return dict(enumerate(core_u.core_to_orig[core_vm[c]] for c in core_t.retraction))


@dataclass(frozen=True)
class QiConstants:
    c_mult: Fraction
    d_add: Fraction
    surj_radius: int
    c_step: int

    def as_json_dict(self) -> dict:
        return {
            "c_mult": {"num": self.c_mult.numerator, "den": self.c_mult.denominator},
            "d_add": {"num": self.d_add.numerator, "den": self.d_add.denominator},
            "surj_radius": self.surj_radius,
            "c_step": self.c_step,
        }


def _domain(mapping: dict, g_x: UdbgGraph, g_y: UdbgGraph) -> tuple[list[int], list[int]]:
    """The sorted domain of a map and its images, every id checked once."""
    for u, w in mapping.items():
        g_x.check_vertex(u)
        g_y.check_vertex(w)
    domain = sorted(mapping)
    return domain, [mapping[u] for u in domain]


def _exact_values(mapping: dict, g_x: UdbgGraph, g_y: UdbgGraph) -> set[tuple[int, int]]:
    """Distinct (d_X(u, v), d_Y(f u, f v)) over every pair u < v of the
    domain, at most (diam X + 1) * (diam Y + 1) of them.

    One bfs_row of u in X and one of f u in Y per domain vertex u, each
    read at the later vertices of the domain, on trees and other graphs
    alike, in O(n) memory. Only qi's exact mode, which needs the value
    set, and the tests, as the oracle of promote's bilipschitz_constant,
    come here; that constant needs only the adjacent pairs of the map.
    """
    domain, images = _domain(mapping, g_x, g_y)
    seen: set[tuple[int, int]] = set()
    for i in range(len(domain) - 1):
        row_x, row_y = g_x.bfs_row(domain[i]), g_y.bfs_row(images[i])
        seen.update(zip(map(row_x.__getitem__, domain[i + 1:]),
                        map(row_y.__getitem__, images[i + 1:])))
    return seen


def _max_distortion(seen: set[tuple[int, int]]) -> Fraction:
    """Worst two-sided distortion max(d_Y/d_X, d_X/d_Y, 1) over a set of
    (d_X, d_Y) values with d_X >= 1. Values with d_Y = 0 (coinciding
    images) are not ratios and are skipped; an injective map has none.
    """
    up_n, up_d = 1, 1  # max d_Y/d_X, compared by cross-multiplying
    dn_n, dn_d = 1, 1  # max d_X/d_Y
    for a, b in seen:
        if b:
            if b * up_d > up_n * a:
                up_n, up_d = b, a
            if a * dn_d > dn_n * b:
                dn_n, dn_d = a, b
    return max(Fraction(up_n, up_d), Fraction(dn_n, dn_d), Fraction(1))


def _sampled_values(
    mapping: dict, g_x: UdbgGraph, g_y: UdbgGraph, seed: int, samples: int
) -> set[tuple[int, int]]:
    """Distinct (d_X, d_Y) over `samples` seeded draws of index pairs into
    the sorted domain, draws of one index twice skipped, each pair measured
    by walking the parent arrays of two rooted trees."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    walk_x, walk_y = g_x.tree_walk(), g_y.tree_walk()
    if walk_x is None or walk_y is None:
        raise InputError("sampled distortion needs two rooted trees")
    domain, images = _domain(mapping, g_x, g_y)
    rng = random.Random(seed)
    n = len(domain)
    draws = ((rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    return {
        (walk_x(domain[i], domain[j]), walk_y(images[i], images[j]))
        for i, j in draws
        if i != j
    }


def qi_constants(
    mapping: dict[int, int],
    g_x: UdbgGraph,
    g_y: UdbgGraph,
    mode: str = "exact",
    seed: int = 0,
    samples: int = 50_000,
) -> QiConstants:
    """Measured comparison constants of a vertex map.

    c_mult is the worst multiplicative distortion over tested pairs with
    both distances positive; d_add is then the smallest additive slack
    making both two-sided inequalities hold at that c_mult. The tested
    pairs are every pair in "exact" mode, on any graphs, and in "sampled"
    mode `samples` seeded draws between two rooted trees. surj_radius
    is exact in every mode. c_step is the worst target distance across a
    single source edge.
    """
    if len(mapping) != g_x.n:
        raise InputError("vertex map must be total on the source graph")
    if mode == "exact":
        seen = _exact_values(mapping, g_x, g_y)
    elif mode == "sampled":
        seen = _sampled_values(mapping, g_x, g_y, seed, samples)
    else:
        raise InputError(f"unknown mode {mode!r}")
    c_mult = _max_distortion(seen)
    # additive slack at that multiplicative constant, over the same pairs
    d_add = max([Fraction(0), *(max(b - c_mult * a, a / c_mult - b) for a, b in seen)])
    image = set(mapping.values())
    surj_radius = max(g_y.distances_from_set(image))
    c_step = g_y.max_distance((mapping[u], mapping[v]) for u, v in g_x.edges())
    return QiConstants(c_mult=c_mult, d_add=d_add, surj_radius=surj_radius, c_step=c_step)
