"""Vertex maps between trees built from end-space correspondences.

The correspondence pairs nested agreement balls of the two end spaces
recursively: at each ball the child sub-balls of both sides are split
into contiguous groups, as evenly as possible, in planar order. The
recursion bottoms out at single rays. A vertex map falls out by sending
each vertex to the deepest target vertex whose shadow (the rays through
it) contains the image of the source shadow. qi_constants measures such
a map on every pair, in bit-parallel blocks of BLOCK sources, or on a
sample; promote's exact bilipschitz constant needs only the pairs that no
other domain vertex separates, and uses those blocks as its test oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .ends import EndSpace, leaf_intervals, split_at_minimum
from .graph import UNREACHED, UdbgGraph
from .trees import RootedTree

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
    adj_a = es_a.consistent_adjacent()
    adj_b = es_b.consistent_adjacent()
    na, nb = es_a.n, es_b.n
    leaves: list[tuple[Interval, Interval]] = []
    stack: list[tuple[Interval, Interval]] = [((0, na), (0, nb))]
    while stack:
        (alo, ahi), (blo, bhi) = stack.pop()
        if ahi - alo == 1 or bhi - blo == 1:
            leaves.append(((alo, ahi), (blo, bhi)))
            continue
        _, parts_a = split_at_minimum(adj_a, alo, ahi)
        _, parts_b = split_at_minimum(adj_b, blo, bhi)
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
    from .ends import enumerate_ends
    from .trees import complete_core

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


BLOCK = 128  # sources per bit-parallel block of _exact_values


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

    Bit-parallel BFS over blocks of BLOCK sources (see _block_values), on
    trees and other graphs alike, in O(BLOCK * n) memory. Only qi's exact
    mode, which needs the value set, and the tests, as the oracle of
    promote's bilipschitz_constant, come here; that constant needs only
    the adjacent pairs of the map.
    """
    domain, images = _domain(mapping, g_x, g_y)
    seen: set[tuple[int, int]] = set()
    for s in range(0, len(domain) - 1, BLOCK):
        _block_values(domain, images, g_x, g_y, s, seen)
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


def _block_values(
    domain: list[int], images: list[int], g_x: UdbgGraph, g_y: UdbgGraph, s: int,
    seen: set[tuple[int, int]],
) -> None:
    """Add to seen the distinct (d_X(u_i, u_j), d_Y(y_i, y_j)) over the
    index pairs i < j whose source i lies in the block of BLOCK starting
    at s, bit k standing for source s + k; the targets are all j >= s.
    X side: bit_bfs from the block's vertices; the sphere R_a & ~R_{a-1}
    at target u_j holds the sources at X distance a, and is folded into
    bit-sliced planes, bit k of plane t being bit t of d_X(u_{s+k}, u_j).
    Y side: bit_bfs from the block's images, streamed; the sphere S at y_j
    in round b holds the sources i < j with d_Y = b, and descending the
    planes of target j from the top bit splits S into its X distances a,
    each met as (a, b). At b = 0, S holds the other sources sharing j's
    image, so a map that is not injective yields its (a, 0) values.
    One call per block, so that a block's planes are dropped before the
    next block's are built.
    """
    width = min(BLOCK, len(domain) - s)
    planes = _distance_planes(g_x, domain, s, width)
    top = range(len(planes) - 1, -1, -1)
    seeds = [0] * g_y.n
    for k in range(width):
        seeds[images[s + k]] |= 1 << k
    targets = images[s:]
    prev = [0] * g_y.n
    for b, reach in enumerate(g_y.bit_bfs(seeds)):
        for jj, y in enumerate(targets):
            sphere = reach[y] & ~prev[y]
            if jj < width:
                sphere &= (1 << jj) - 1  # sources i < j only
            if not sphere:
                continue
            parts = [(sphere, 0)]
            for t in top:
                plane = planes[t][jj]
                if not plane & sphere:
                    continue
                split = []
                for part, a in parts:
                    far = part & plane
                    if far:
                        split.append((far, a | 1 << t))
                        if far != part:
                            split.append((part ^ far, a))
                    else:
                        split.append((part, a))
                parts = split
            seen.update((a, b) for _, a in parts)
        prev = reach


def _distance_planes(g_x: UdbgGraph, domain: list[int], s: int, width: int) -> list[list[int]]:
    """planes[t][j - s]: bit k set when bit t of d_X(domain[s + k], domain[j])
    is set, for every target j >= s and source k < width."""
    seeds = [0] * g_x.n
    for k in range(width):
        seeds[domain[s + k]] = 1 << k
    targets = domain[s:]
    planes: list[list[int]] = []
    prev = seeds
    for a, reach in enumerate(g_x.bit_bfs(seeds)):
        if not a:
            continue
        if a.bit_length() > len(planes):
            planes.append([0] * len(targets))
        rows = [planes[t] for t in range(a.bit_length()) if a >> t & 1]
        for jj, u in enumerate(targets):
            sphere = reach[u] & ~prev[u]
            if sphere:
                for row in rows:
                    row[jj] |= sphere
        prev = reach
    return planes


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
