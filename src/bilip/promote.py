"""Integer chains, the boundary criterion, and constructive promotion.

The existence statement behind promotion is nonconstructive; here it is
realized as maximum bipartite matching at radius r = 0, 1, ... until
every X-interior vertex is matched to a target within r of its image, so
r is the least such radius. On finite truncations a cardinality mismatch
is unavoidable, so unmatched target vertices are pushed toward the
target's truncation sphere until no alternating path moves one outward,
which reaches the least confinement width at radius r. The matching's
bilipschitz constant is exact on every pair of graphs: a geodesic splits
at matched vertices into pieces whose lengths add up, so by the triangle
inequality the worst distortion is attained on a pair that no other
matched vertex separates, and only those are measured.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, NoBoundedMatching
from .cheeger import _boundary_sizes, _family_certificate, family_sets
from .graph import Truncation, UdbgGraph
from .trees import CheckResult

# -- chains ----------------------------------------------------------------


def deficiency_chain(mapping: dict[int, int], g_x: UdbgGraph, g_y: UdbgGraph) -> list[int]:
    """Pushforward of the all-ones class minus the target's own, indexed
    by target vertex: the coefficient at y is |preimage(y)| - 1, so the
    total is |V_X| - |V_Y|."""
    if len(mapping) != g_x.n:
        raise InputError("vertex map must be total on the source graph")
    chain = [-1] * g_y.n
    for x, y in mapping.items():
        g_x.check_vertex(x)
        g_y.check_vertex(y)
        chain[y] += 1
    return chain


def sum_boundary_criterion(
    chain: Sequence[int],
    sets: Sequence[frozenset[int]],
    boundaries: Sequence[int],
    C,
) -> tuple[Fraction, Optional[tuple]]:
    """|sum over S of chain| against C |boundary of S| over the given
    sets, whose boundary sizes (at radius 1) come in `boundaries`.

    Returns the worst ratio (the empirical constant) and the first set,
    in list order and sorted, whose sum exceeds C times its boundary, or
    None when every set satisfies the bound. Exact rational arithmetic.
    """
    bound = Fraction(C)
    max_ratio = Fraction(0)
    witness = None
    for vertex_set, edge in zip(sets, boundaries):
        if edge == 0:
            raise InputError("a tested set has empty boundary; it must be proper")
        total = abs(sum(chain[v] for v in vertex_set))
        max_ratio = max(max_ratio, Fraction(total, edge))
        if witness is None and total > bound * edge:
            witness = tuple(sorted(vertex_set))
    return max_ratio, witness


# -- matching ----------------------------------------------------------------


def _max_matching(xs, adj_of, match_x, match_y):
    """Hopcroft-Karp phases until no augmenting path starts in xs.

    Deterministic: xs ascending, adjacency lists ascending, layered BFS
    plus iterative DFS along the layering.
    """
    while True:
        dist = {}
        q = deque()
        for x in xs:
            if x not in match_x:
                dist[x] = 0
                q.append(x)
        free_reachable = False
        while q:
            x = q.popleft()
            for y in adj_of(x):
                xm = match_y.get(y)
                if xm is None:
                    free_reachable = True
                elif xm not in dist:
                    dist[xm] = dist[x] + 1
                    q.append(xm)
        if not free_reachable:
            return
        for x0 in xs:
            if x0 in match_x:
                continue
            stack = [x0]
            iters = [iter(adj_of(x0))]
            chosen = []
            while stack:
                x = stack[-1]
                advanced = False
                for y in iters[-1]:
                    xm = match_y.get(y)
                    if xm is None:
                        match_x[x] = y
                        match_y[y] = x
                        for i in range(len(stack) - 1):
                            match_x[stack[i]] = chosen[i]
                            match_y[chosen[i]] = stack[i]
                        stack = []
                        iters = []
                        chosen = []
                        advanced = True
                        break
                    if dist.get(xm) == dist[x] + 1:
                        chosen.append(y)
                        stack.append(xm)
                        iters.append(iter(adj_of(xm)))
                        advanced = True
                        break
                if not advanced:
                    dist[x] = -1  # dead this phase
                    stack.pop()
                    iters.pop()
                    while len(chosen) > max(0, len(stack) - 1):
                        chosen.pop()


def _push_unmatched_toward_sphere(g_y, match_x, match_y, radj, from_sphere):
    """Alternating-path flips moving unmatched target vertices outward,
    in sweeps until a sweep makes no flip.

    match_x must be a maximum matching at radius r; a flip keeps its
    X-side. Each flip frees a vertex strictly closer to the truncation
    sphere in exchange for covering a deeper one, so the total depth of
    the unmatched set strictly decreases and the sweeps end. Unmatched
    vertices already on the sphere (depth 0) are not searched from: no
    vertex is strictly shallower, so their search could never flip.

    The fixed point has the least confinement width. The Y-sides of the
    maximum matchings are the bases of a transversal matroid, and by
    Mendelsohn-Dulmage each is also the Y-side of one that saturates
    the interior. A flip is exactly a basis exchange, so a matching no
    flip improves is a maximum-weight basis under weight from_sphere,
    which is Gale-optimal: for every t it covers as many targets of
    depth >= t as any basis. So no matching at radius r that saturates
    the interior leaves a shallower deepest unmatched target.
    """
    improved = True
    while improved:
        unmatched = sorted(
            (y for y in g_y.vertices() if y not in match_y and y in radj and from_sphere[y] > 0),
            key=lambda y: (-from_sphere[y], y),
        )
        improved = False
        for y0 in unmatched:
            goal = from_sphere[y0]
            parent = {y0: None}
            queue = deque([y0])
            best = None
            while queue:
                y = queue.popleft()
                for x in radj.get(y, ()):
                    y_next = match_x.get(x)
                    if y_next is None or y_next in parent:
                        continue
                    parent[y_next] = (y, x)
                    rank = (from_sphere[y_next], y_next)
                    if rank[0] < goal and (best is None or rank < best):
                        best = rank
                    queue.append(y_next)
            if best is None:
                continue
            cur = best[1]
            while parent[cur] is not None:
                prev, x = parent[cur]
                match_x[x] = prev
                match_y[prev] = x
                if match_y.get(cur) == x:
                    del match_y[cur]
                cur = prev
            improved = True


@dataclass(frozen=True)
class MatchingResult:
    pairs: dict
    r: int
    collar_w: int
    unmatched_y: tuple[int, ...]
    confinement_width: int
    bilip_constant: Fraction
    distance_to_map: int
    n_x: int
    n_y: int

    def as_json_dict(self) -> dict:
        return {
            "pairs": {str(x): y for x, y in sorted(self.pairs.items())},
            "r": self.r,
            "collar_w": self.collar_w,
            "unmatched_y": list(self.unmatched_y),
            "confinement_width": self.confinement_width,
            "bilip_constant": {
                "num": self.bilip_constant.numerator,
                "den": self.bilip_constant.denominator,
            },
            "distance_to_map": self.distance_to_map,
            "n_x": self.n_x,
            "n_y": self.n_y,
        }


def promote_matching(
    mapping: dict[int, int],
    t_x: Truncation,
    t_y: Truncation,
    *,
    r_max: int = 8,
    collar_w: int = 1,
) -> MatchingResult:
    """Least radius r <= r_max whose candidate graph matches every
    interior vertex, with the least confinement width at that radius.

    Candidates for x are target vertices within r of mapping[x]. Every
    smaller radius failed, so the interior pairs reach distance r from
    the map. NoBoundedMatching past r_max signals failing hypotheses (no
    linear isoperimetric inequality, or a map too far from any
    bijection), which is the expected negative-control outcome. It is
    raised as soon as a failing radius has every candidate ball equal to
    all of Y, since no larger radius changes the candidates.

    The width is least over all matchings at radius r that saturate the
    interior (see _push_unmatched_toward_sphere). The bilipschitz
    constant is exact at any size, and 1 for a matching of one pair.
    """
    g_x, g_y = t_x.graph, t_y.graph
    if len(mapping) != g_x.n:
        raise InputError("vertex map must be total on the source graph")
    if r_max < 0:
        raise InputError("need r_max >= 0")
    interior = sorted(t_x.interior(collar_w))
    xs_all = list(g_x.vertices())
    from_sphere = g_y.distances_from_set(t_y.trunc_sphere)
    for r in range(r_max + 1):
        balls: dict[int, list[int]] = {}
        for y0 in set(mapping.values()):
            balls[y0] = sorted(g_y.ball(y0, r)) if r > 0 else [y0]

        def adj_of(x):
            return balls[mapping[x]]

        match_x: dict[int, int] = {}
        match_y: dict[int, int] = {}
        _max_matching(interior, adj_of, match_x, match_y)
        unsat = sum(1 for x in interior if x not in match_x)
        if unsat:
            last_unsat = unsat
            if all(len(ball) == g_y.n for ball in balls.values()):
                break  # every ball is all of Y: larger radii match the same
            continue
        _max_matching(xs_all, adj_of, match_x, match_y)
        radj: dict[int, list[int]] = {}
        for x in xs_all:
            for y in adj_of(x):
                radj.setdefault(y, []).append(x)
        _push_unmatched_toward_sphere(g_y, match_x, match_y, radj, from_sphere)
        unmatched = tuple(sorted(y for y in g_y.vertices() if y not in match_y))
        confinement = max((from_sphere[y] for y in unmatched), default=0)
        distance = g_y.max_distance((mapping[x], y) for x, y in match_x.items())
        assert distance == r, "matched outside the candidate radius, or a smaller one would do"
        # bilipschitz_constant needs two pairs; one pair has nothing to distort
        bilip = bilipschitz_constant(match_x, g_x, g_y) if len(match_x) > 1 else Fraction(1)
        return MatchingResult(
            pairs=dict(sorted(match_x.items())),
            r=r,
            collar_w=collar_w,
            unmatched_y=unmatched,
            confinement_width=confinement,
            bilip_constant=bilip,
            distance_to_map=distance,
            n_x=g_x.n,
            n_y=g_y.n,
        )
    raise NoBoundedMatching(r_max, last_unsat)


def bilipschitz_constant(
    mapping: dict[int, int],
    g_x: UdbgGraph,
    g_y: UdbgGraph,
) -> Fraction:
    """Worst two-sided distance distortion of an injective vertex map,
    exact on any graphs: max(d_Y/d_X, d_X/d_Y, 1) over the adjacent pairs,
    those joined by a geodesic with no other domain vertex inside (on Y
    with f^-1 for d_X/d_Y), which attain it (see the module docstring).
    A BFS from each u that stops at the other domain vertices meets each
    adjacent v at its distance and any other v no nearer, which can only
    understate a ratio. Each met pair v > u is measured once, by tree_walk
    or by one bounded search from f u.
    """
    if len(mapping) < 2:
        raise InputError("need at least two mapped vertices")
    inverse = {}
    for u, w in mapping.items():
        g_x.check_vertex(u)
        g_y.check_vertex(w)
        inverse[w] = u
    if len(inverse) != len(mapping):
        raise InputError("map is not injective")
    p, q = 1, 1  # L = p/q, compared by cross-multiplying
    for g, f, h in ((g_x, mapping, g_y), (g_y, inverse, g_x)):
        walk = h.tree_walk()
        for u, fu in f.items():
            near = {}  # f v -> t for each domain vertex v > u met at depth t
            seen, frontier, t = {u}, [u], 0
            while frontier:
                t += 1
                grown = []
                for a in frontier:
                    for v in g.neighbors(a):
                        if v not in seen:
                            seen.add(v)
                            if v not in f:
                                grown.append(v)
                            elif v > u:
                                near[f[v]] = t
                frontier = grown
            far = h._distances(fu, set(near)) if walk is None and near else None
            for y, t in near.items():
                d = far[y] if far is not None else walk(fu, y)
                if d * q > p * t:
                    p, q = d, t
    return Fraction(p, q)


def verify_promotion_consistency(
    mapping: dict[int, int],
    t_x: Truncation,
    t_y: Truncation,
    collar: int,
    families: Iterable[str],
    seed: int,
) -> tuple[CheckResult, dict]:
    """Cross-checks the full argument on one instance, exactly.

    The deficiency bound A and the family isoperimetric estimate compose
    into the boundary criterion at radius 1 with constant A divided by
    the best ratio; every family set must satisfy it witness-free.
    """
    families = list(families)
    chain = deficiency_chain(mapping, t_x.graph, t_y.graph)
    sets = family_sets(t_y, collar, families, seed)
    boundaries = _boundary_sizes(t_y.graph, sets)
    cert = _family_certificate(collar, families, seed, sets, boundaries)
    bound_a = max(map(abs, chain))
    constant = Fraction(bound_a, 1) / cert.best_ratio
    max_ratio, witness = sum_boundary_criterion(chain, sets, boundaries, constant)
    details = {
        "deficiency_bound": bound_a,
        "cheeger_best_ratio": cert.best_ratio,
        "criterion_constant": constant,
        "max_ratio": max_ratio,
        "tested_sets": len(sets),
    }
    return CheckResult(witness is None, witness=witness), details
