"""Multi-scale graphs over built-in compact model spaces.

Vertices are centers of balls at geometric scales s^k; edges join balls
that overlap. Levels index scales, with the single level-0 ball covering
the whole space.

Points stay exact rationals in the model-space API and in JSON. The
kernels that compare distances (nets, wiring, nearest centers) write the
points as integer numerators over one common denominator D, so a
distance |x - y| / D is compared with a rational bound t as the integer
|x - y| against floor(t * D) or ceil(t * D): exact, with no float and no
Fraction in the inner loops. The points lie on a line, so each search
bisects a sorted list of numerators for the window of candidates, plus
the window across 0 = 1 on the circle.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstructionError, InputError, ResolutionExhausted
from .graph import UdbgGraph

POINT_BUDGET = 1 << 15

SPACE_KINDS = ("cantor13", "interval", "circle")


@dataclass(frozen=True)
class ModelSpace:
    """Finite point model of a compact metric space, diameter <= 1."""

    kind: str
    resolution: int
    points: tuple[Fraction, ...]
    min_spacing: Fraction

    def metric(self, i: int, j: int) -> Fraction:
        d = abs(self.points[i] - self.points[j])
        if self.kind == "circle":
            return min(d, 1 - d)
        return d

    @property
    def n(self) -> int:
        return len(self.points)


def make_space(kind: str, resolution: int) -> ModelSpace:
    """cantor13: the 2^L left endpoints of the level-L middle-thirds
    intervals; interval/circle: uniform grids of step 1/resolution."""
    if kind == "cantor13":
        if resolution < 1:
            raise InputError("cantor13 resolution must be >= 1")
        if resolution > POINT_BUDGET.bit_length() - 1:  # 2**resolution > POINT_BUDGET
            raise ConstructionError(f"point budget exceeded at resolution {resolution}")
        pts = [Fraction(0)]
        for i in range(1, resolution + 1):
            digit = Fraction(2, 3**i)
            pts = [p for p in pts] + [p + digit for p in pts]
        pts.sort()
        return ModelSpace(kind, resolution, tuple(pts), Fraction(2, 3**resolution))
    if kind == "interval":
        if resolution < 1:
            raise InputError("interval resolution must be >= 1")
        if resolution + 1 > POINT_BUDGET:
            raise ConstructionError("point budget exceeded")
        pts = tuple(Fraction(k, resolution) for k in range(resolution + 1))
        return ModelSpace(kind, resolution, pts, Fraction(1, resolution))
    if kind == "circle":
        if resolution < 2:
            raise InputError("circle resolution must be >= 2")
        if resolution > POINT_BUDGET:
            raise ConstructionError("point budget exceeded")
        pts = tuple(Fraction(k, resolution) for k in range(resolution))
        return ModelSpace(kind, resolution, pts, Fraction(1, resolution))
    raise InputError(f"unknown space kind {kind!r}; choose from {SPACE_KINDS}")


def max_usable_level(space: ModelSpace, s: Fraction) -> int:
    level = 0
    radius = Fraction(1)
    while radius * s > space.min_spacing:
        radius *= s
        level += 1
    return level


def greedy_net(space: ModelSpace, s: Fraction, k: int, seed: int) -> list[int]:
    """Maximal s^k-separated subset, greedy in seeded order.

    Returned indices are sorted by point value. Maximality makes the net
    also cover: every point lies within s^k of some center.
    """
    if not 0 < s < 1:
        raise InputError("scale must lie strictly between 0 and 1")
    if k < 0:
        raise InputError("level must be nonnegative")
    radius = s**k
    if radius <= space.min_spacing:
        limit = max_usable_level(space, s)
        raise ResolutionExhausted(
            f"scale {s}^{k} is at or below the resolution of this {space.kind} "
            f"model; maximum usable level is {limit}",
            max_level=limit,
        )
    den, nums = _numerators(space.points)
    circle = space.kind == "circle"
    separation = math.ceil(radius * den)  # d / den >= radius  <=>  d >= separation
    order = list(range(space.n))
    random.Random(seed).shuffle(order)
    chosen: list[int] = []  # numerators of the centers so far, sorted
    index_of: dict[int, int] = {}
    for idx in order:
        x = nums[idx]
        if not _within(chosen, x, separation - 1, den, circle):
            insort(chosen, x)
            index_of[x] = idx
    return [index_of[x] for x in chosen]


def _numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator of the values, and each value's numerator over it."""
    den = math.lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def _gap(x: int, y: int, den: int, circle: bool) -> int:
    """The model metric between numerators x and y, times den."""
    d = abs(x - y)
    return min(d, den - d) if circle else d


def _within(ys: list[int], x: int, t: int, den: int, circle: bool) -> list[int]:
    """Indices j of the sorted numerators ys with _gap(x, ys[j]) <= t."""
    start, stop = bisect_left(ys, x - t), bisect_right(ys, x + t)
    found = list(range(start, stop))
    if circle:
        # min(d, den - d) <= t also holds for d >= den - t, at both ends
        found += range(min(bisect_right(ys, x - den + t), start))
        found += range(max(bisect_left(ys, x + den - t), stop), len(ys))
    return found


@dataclass(frozen=True)
class Filling:
    graph: UdbgGraph
    space: ModelSpace
    scale: Fraction
    tau: Fraction
    centers: tuple[int, ...]  # point index per vertex
    seed: int

    @property
    def max_level(self) -> int:
        return max(self.graph.levels)

    def center_value(self, v: int) -> Fraction:
        return self.space.points[self.centers[v]]

    def level_sizes(self) -> list[int]:
        sizes = [0] * (self.max_level + 1)
        for l in self.graph.levels:
            sizes[l] += 1
        return sizes


def build_filling(
    space: ModelSpace,
    s: Fraction,
    tau: Fraction,
    max_level: int,
    seed: int = 0,
) -> Filling:
    """Nets at scales s^0..s^max_level, horizontally and vertically wired.

    Horizontal edges join same-level centers with d <= 2*tau*s^k (their
    dilated balls overlap); vertical edges join consecutive levels with
    d <= tau*(s^k + s^(k+1)). Level 0 is a single seeded center.
    """
    s = Fraction(s)
    tau = Fraction(tau)
    if tau < 1:
        raise InputError("tau must be at least 1")
    if max_level < 0:
        raise InputError("max_level must be nonnegative")
    nets: list[list[int]] = []
    for k in range(max_level + 1):
        level_seed = seed * 1_000_003 + k
        if k == 0:
            order = list(range(space.n))
            random.Random(level_seed).shuffle(order)
            nets.append([order[0]])
        else:
            nets.append(greedy_net(space, s, k, level_seed))
    offsets = []
    total = 0
    for net in nets:
        offsets.append(total)
        total += len(net)
    centers = [idx for net in nets for idx in net]
    levels = [k for k, net in enumerate(nets) for _ in net]
    edges: list[tuple[int, int]] = []
    den, nums = _numerators(space.points)
    circle = space.kind == "circle"
    xs = [[nums[idx] for idx in net] for net in nets]  # sorted: nets are in value order
    for k, row in enumerate(xs):
        a = offsets[k]
        horizontal = math.floor(2 * tau * s**k * den)
        for i, x in enumerate(row):
            edges += [(a + i, a + j) for j in _within(row, x, horizontal, den, circle) if j > i]
        if k + 1 <= max_level:
            b = offsets[k + 1]
            vertical = math.floor(tau * (s**k + s ** (k + 1)) * den)
            for i, x in enumerate(row):
                edges += [(a + i, b + j) for j in _within(xs[k + 1], x, vertical, den, circle)]
    graph = UdbgGraph(total, edges, root=0, levels=levels)  # raises if disconnected
    return Filling(
        graph=graph,
        space=space,
        scale=s,
        tau=tau,
        centers=tuple(centers),
        seed=seed,
    )


def filling_sanity(f: Filling) -> dict:
    """Degree, connectivity and pole-visibility report.

    visual_constant is the largest distance from any vertex to the union
    of shortest paths from the root to deepest-level vertices.
    """
    g = f.graph
    max_level = f.max_level
    per_level = [0] * (max_level + 1)
    for v in g.vertices():
        per_level[g.levels[v]] = max(per_level[g.levels[v]], g.degree(v))
    # v lies on a shortest root-to-deepest path exactly when a deepest
    # vertex is reachable from v along edges that step one farther from
    # the root; mark those vertices farthest first
    root_row = g.bfs_row(g.root)
    on_ray = [False] * g.n
    for v in sorted(g.vertices(), key=root_row.__getitem__, reverse=True):
        on_ray[v] = g.levels[v] == max_level or any(
            on_ray[u] for u in g.neighbors(v) if root_row[u] == root_row[v] + 1
        )
    to_ray = g.distances_from_set(v for v in g.vertices() if on_ray[v])
    return {
        "vertices": g.n,
        "level_sizes": f.level_sizes(),
        "max_degree_per_level": per_level,
        "max_degree": max(per_level),
        "connected": True,  # construction would have raised otherwise
        "visual_constant": max(to_ray),
    }


def nearest_center_map(fa: Filling, fb: Filling) -> dict[int, int]:
    """Level-preserving vertex map sending each center to the nearest
    center of the other filling (ties to the smaller id)."""
    if fa.scale != fb.scale or fa.max_level != fb.max_level:
        raise InputError("fillings must share scale and level count")
    n_a = fa.graph.n
    den, nums = _numerators(
        [fa.center_value(v) for v in fa.graph.vertices()]
        + [fb.center_value(w) for w in fb.graph.vertices()]
    )
    circle = fa.space.kind == "circle"
    # per level of fb: the smallest id at each center value (ids ascend)
    owner: dict[int, dict[int, int]] = {}
    for w in fb.graph.vertices():
        owner.setdefault(fb.graph.levels[w], {}).setdefault(nums[n_a + w], w)
    values = {k: sorted(ids) for k, ids in owner.items()}
    missing = set(fa.graph.levels) - set(values)
    if missing:
        raise InputError(f"the target filling has no center at level {min(missing)}")
    out = {}
    for v in fa.graph.vertices():
        k = fa.graph.levels[v]
        ys, x = values[k], nums[v]
        pos = bisect_left(ys, x)
        # every nearest value is a bisect neighbour, or across the wrap
        nearest = ys[max(pos - 1, 0) : pos + 1]
        if circle:
            nearest += (ys[0], ys[-1])
        best = min(nearest, key=lambda y: (_gap(x, y, den, circle), owner[k][y]))
        out[v] = owner[k][best]
    return out
