"""Isoperimetric ratios on truncation interiors.

Candidate sets always live in the interior of a truncation while their
boundaries are computed in the full graph: the collar stands in for the
rest of the infinite object, so sets hugging the truncation sphere cannot
fake small boundaries. Ratios are exact rationals throughout.

The exact minimum needs only sets that are connected at distance 2: if
A splits into parts whose closed neighbourhoods are disjoint, its
boundary and size are the sums of theirs, so one part has a ratio no
larger and fewer vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError
from .graph import UNREACHED, Truncation, UdbgGraph

FAMILY_NAMES = ("balls", "level-bands", "descendant-subtrees", "random-connected")

# the most sets cheeger_exact may visit before it gives up
EXACT_SET_BUDGET = 20_000_000

# family_sets caps: ball centers sampled, random connected sets grown,
# and the largest size one may reach
BALL_CENTERS = 64
RC_COUNT = 40
RC_SIZE = 200


@dataclass(frozen=True)
class CheegerCertificate:
    best_ratio: Fraction
    argmin_set: tuple[int, ...]
    method: str
    family_description: str
    collar: int

    def as_json_dict(self) -> dict:
        return {
            "best_ratio": {
                "num": self.best_ratio.numerator,
                "den": self.best_ratio.denominator,
            },
            "argmin_set": list(self.argmin_set),
            "method": self.method,
            "family_description": self.family_description,
            "collar": self.collar,
        }


def cheeger_exact(t: Truncation, w: int, max_size: Optional[int] = None) -> CheegerCertificate:
    """Exact minimum of |boundary(A)| / |A| over interior subsets.

    The minimum ranges over every nonempty interior subset of at most
    max_size vertices, not only the connected ones; ties break toward
    the smaller set, then the lexicographically smallest vertex tuple.
    Only sets connected in H are visited: H joins two interior vertices
    whose closed neighbourhoods meet, i.e. that are at distance <= 2 in
    the whole truncation, collar included. No winner is lost. Split any
    A into its H-components A_1 ... A_k: their closed neighbourhoods are
    pairwise disjoint, so |boundary(A)| and |A| are the sums of theirs,
    and the ratio of A is a mediant of their ratios. Some A_i then has a
    ratio no larger with fewer vertices, so a set with k > 1 never wins.
    ESU (Wernicke 2006) visits each H-connected set once, grown from its
    least vertex. |boundary(A)| = |N[A]| - |A| is kept incrementally from
    per-vertex counts of closed neighbourhoods covering it. InputError
    once the search has visited more than EXACT_SET_BUDGET sets.
    """
    interior = sorted(t.interior(w))
    n = len(interior)
    if max_size is None:
        max_size = n
    if max_size < 1:
        raise InputError("max_size must be at least 1")
    g = t.graph
    closed = [(v,) + g.neighbors(v) for v in interior]
    index = {v: i for i, v in enumerate(interior)}
    # near[i]: bit j is set when N[interior[i]] and N[interior[j]] meet,
    # i.e. when the two are at distance <= 2 in the whole truncation
    near = []
    for ball in closed:
        mask = 0
        for u in ball:
            for x in (u,) + g.neighbors(u):
                if x in index:
                    mask |= 1 << index[x]
        near.append(mask)
    cover = [0] * g.n  # members of the chosen set whose N[a] holds v
    chosen: list[int] = []
    covered = 0  # |N[chosen]|
    # (|boundary|, |A|, sorted indices of A), starting from {interior[0]}
    best = (len(closed[0]) - 1, 1, (0,))
    visited = 0

    def offer(b: int, members: list[int]) -> None:
        # members has a ratio b / |members| no larger than the best one
        nonlocal best
        size = len(members)
        b0, size0, key0 = best
        if b * size0 < b0 * size or size < size0:
            best = (b, size, tuple(sorted(members)))
        elif size == size0:
            key = tuple(sorted(members))
            if key < key0:
                best = (b, size, key)

    def grow(ext: int, blocked: int, above: int, left: int) -> None:
        # ESU: every H-connected completion of `chosen` by up to `left`
        # more indices. Each is drawn from the bits of ext, which then
        # gains the H-neighbours of the added index above the least member
        # and outside `blocked`, the closed H-neighbourhood of `chosen`;
        # recursion depth is at most max_size. Each bit of ext is one set
        nonlocal covered, visited
        visited += ext.bit_count()
        if visited > EXACT_SET_BUDGET:
            raise InputError(
                f"the search passed {EXACT_SET_BUDGET} sets; "
                "lower max_size or use cheeger_family"
            )
        size = len(chosen) + 1
        if left == 1:
            while ext:
                low = ext & -ext
                ext ^= low
                i = low.bit_length() - 1
                b = covered - size
                for v in closed[i]:
                    if not cover[v]:
                        b += 1
                if b * best[1] <= best[0] * size:
                    offer(b, chosen + [i])
            return
        while ext:
            low = ext & -ext
            ext ^= low
            i = low.bit_length() - 1
            for v in closed[i]:
                if not cover[v]:
                    covered += 1
                cover[v] += 1
            chosen.append(i)
            b = covered - size
            if b * best[1] <= best[0] * size:
                offer(b, chosen)
            grow(ext | (near[i] & above & ~blocked), blocked | near[i], above, left - 1)
            chosen.pop()
            for v in closed[i]:
                cover[v] -= 1
                if not cover[v]:
                    covered -= 1

    try:
        for root in range(n):
            # the sets whose least index is root
            grow(1 << root, 0, -(2 << root), max_size)
    except RecursionError as exc:
        raise InputError(f"sets of up to {max_size} vertices nest too deeply; "
                         "lower max_size or use cheeger_family") from exc
    b, size, indices = best
    return CheegerCertificate(
        best_ratio=Fraction(b, size),
        argmin_set=tuple(interior[i] for i in indices),
        method="exact",
        family_description=f"all nonempty interior subsets of size <= {max_size}",
        collar=w,
    )


def family_sets(t: Truncation, w: int, families: Iterable[str], seed: int) -> list[frozenset[int]]:
    """Deterministic candidate sets inside the interior, deduplicated.

    Both the Cheeger estimate and the chain criterion iterate this exact
    list, so cross-checks between the two see identical sets.
    """
    families = list(families)
    if not families:
        raise InputError("no families requested")
    for name in families:
        if name not in FAMILY_NAMES:
            raise InputError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    g = t.graph
    interior = t.interior(w)
    rng = random.Random(seed)
    sets: list[frozenset[int]] = []
    seen = set()

    def push(vertex_set):
        fs = frozenset(vertex_set)
        if fs and fs not in seen:
            seen.add(fs)
            sets.append(fs)

    interior_sorted = sorted(interior)
    for name in families:
        if name == "balls":
            centers = list(interior_sorted)
            if g.root is not None and g.root in interior:
                centers.remove(g.root)
                centers.insert(0, g.root)
            if len(centers) > BALL_CENTERS:
                head = centers[:1]
                tail = rng.sample(centers[1:], BALL_CENTERS - 1)
                centers = head + sorted(tail)
            for c in centers:
                # ball(c, r) & interior for r = 0, 1, ... until a layer
                # adds no interior vertex, from one BFS per centre
                inside = set()
                for layer in g.bfs_layers((c,)):
                    added = [v for v in layer if v in interior]
                    if not added:
                        break
                    inside.update(added)
                    push(inside)
        elif name == "level-bands":
            if g.levels is None:
                raise InputError("level-bands family needs level labels")
            top = max(g.levels)
            for a in range(top + 1):
                for b in range(a, top + 1):
                    push(v for v in interior if a <= g.levels[v] <= b)
        elif name == "descendant-subtrees":
            # the subtree of v is the run of the preorder from v's position
            # that is as long as the subtree's size
            parent, _, order = g.tree_arrays()
            size = [1] * g.n
            for v in reversed(order):
                if parent[v] != UNREACHED:
                    size[parent[v]] += size[v]
            start = [0] * g.n
            for i, v in enumerate(order):
                start[v] = i
            for v in interior_sorted:
                push(u for u in order[start[v] : start[v] + size[v]] if u in interior)
        elif name == "random-connected":
            for _ in range(RC_COUNT):
                target = rng.randint(1, min(RC_SIZE, len(interior)))
                start = rng.choice(interior_sorted)
                grown = {start}
                frontier = [start]
                while frontier and len(grown) < target:
                    v = frontier.pop(rng.randrange(len(frontier)))
                    for u in g.neighbors(v):
                        if u in interior and u not in grown:
                            grown.add(u)
                            frontier.append(u)
                            if len(grown) >= target:
                                break
                push(grown)
    if not sets:
        raise InputError("families produced no candidate sets")
    return sets


def cheeger_family(t: Truncation, w: int, families: Iterable[str], seed: int) -> CheegerCertificate:
    """Upper estimate of the isoperimetric constant over generated families."""
    families = list(families)
    sets = family_sets(t, w, families, seed)
    return _family_certificate(w, families, seed, sets, _boundary_sizes(t.graph, sets))


def _boundary_sizes(g: UdbgGraph, sets: list[frozenset[int]]) -> list[int]:
    return [len(g.boundary(vertex_set, 1)) for vertex_set in sets]


def _family_certificate(
    w: int, families: list[str], seed: int, sets: list[frozenset[int]], boundaries: list[int]
) -> CheegerCertificate:
    """The least-ratio set of family_sets(t, w, families, seed), given as
    `sets` with their boundary sizes; ties go to the smaller set, then
    the lexicographically smaller one."""
    best_key = None
    for vertex_set, boundary in zip(sets, boundaries):
        key = (Fraction(boundary, len(vertex_set)), len(vertex_set), tuple(sorted(vertex_set)))
        if best_key is None or key < best_key:
            best_key = key
    ratio, _, argmin = best_key
    return CheegerCertificate(
        best_ratio=ratio,
        argmin_set=argmin,
        method="family",
        family_description=",".join(families) + f" (seed={seed})",
        collar=w,
    )
