"""Integer chains, the boundary criterion, and constructive promotion.

The existence statement behind promotion is nonconstructive; here it is
realized as maximum bipartite matching under an escalating radius
schedule r = r_start, r_start+1, ... A radius succeeds when every
X-interior vertex is matched to a target within r of its image. On
finite truncations a cardinality mismatch is unavoidable, so unmatched
target vertices are pushed toward the target's truncation sphere and the
achieved confinement width is reported alongside the matching. The
matching's bilipschitz constant is exact on every pair of graphs: a
geodesic splits at matched vertices into pieces whose lengths add up, so
by the triangle inequality the worst distortion is attained on a pair
that no other matched vertex separates, and only those are measured.
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


@dataclass(frozen=True)
class ZeroChain:
    """Finitely supported integer coefficients on vertices."""

    coefficients: dict
    bound: int

    @classmethod
    def make(cls, coefficients: dict) -> "ZeroChain":
        cleaned = {v: c for v, c in coefficients.items() if c != 0}
        bound = max((abs(c) for c in cleaned.values()), default=0)
        return cls(coefficients=cleaned, bound=bound)

    def value(self, v: int) -> int:
        return self.coefficients.get(v, 0)

    def sum_over(self, vertex_set: Iterable[int]) -> int:
        return sum(self.coefficients.get(v, 0) for v in vertex_set)


def deficiency_chain(mapping: dict[int, int], g_x: UdbgGraph, g_y: UdbgGraph) -> ZeroChain:
    """Pushforward of the all-ones class minus the target's own: the
    coefficient at y is |preimage(y)| - 1, so the total is |V_X| - |V_Y|."""
    if len(mapping) != g_x.n:
        raise InputError("vertex map must be total on the source graph")
    counts = [0] * g_y.n
    for x, y in mapping.items():
        g_x.check_vertex(x)
        g_y.check_vertex(y)
        counts[y] += 1
    return ZeroChain.make({y: counts[y] - 1 for y in range(g_y.n)})


@dataclass(frozen=True)
class CriterionReport:
    max_ratio: Fraction
    tested_sets: int
    passed: Optional[bool]
    witness: Optional[tuple]


def sum_boundary_criterion(
    c: ZeroChain,
    sets: Sequence[frozenset[int]],
    boundaries: Sequence[int],
    C=None,
) -> CriterionReport:
    """|sum over S of c| against |boundary of S| over the given sets,
    whose boundary sizes (at radius 1) come in `boundaries`.

    Reports the worst ratio (the empirical constant) and, when C is
    supplied, whether every tested set satisfies the bound, with the
    first violating set as witness. Exact rational arithmetic.
    """
    bound = Fraction(C) if C is not None else None
    max_ratio = Fraction(0)
    passed: Optional[bool] = None if bound is None else True
    witness = None
    for vertex_set, edge in zip(sets, boundaries):
        total = abs(c.sum_over(vertex_set))
        if edge == 0:
            raise InputError("a tested set has empty boundary; it must be proper")
        ratio = Fraction(total, edge)
        if ratio > max_ratio:
            max_ratio = ratio
        if bound is not None and total > bound * edge and witness is None:
            passed = False
            witness = tuple(sorted(vertex_set))
    return CriterionReport(
        max_ratio=max_ratio,
        tested_sets=len(sets),
        passed=passed,
        witness=witness,
    )


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


# Sweeps of _push_unmatched_toward_sphere. A sweep that flips lowers the
# unmatched set's total depth, so the loop would end uncapped too, but only
# after up to that many sweeps, each a search from every unmatched vertex.
# The cap bounds the work; the report states the width reached, which is
# not certified minimal.
CONFINEMENT_SWEEPS = 8


def _push_unmatched_toward_sphere(g_y, match_x, match_y, radj, from_sphere):
    """Alternating-path flips moving unmatched target vertices outward.

    Each flip frees a vertex strictly closer to the truncation sphere in
    exchange for covering a deeper one; the total interior depth of the
    unmatched set strictly decreases, so this terminates. Unmatched
    vertices already on the sphere (depth 0) are not searched from: no
    vertex is strictly shallower, so their search could never flip.
    """
    for _ in range(CONFINEMENT_SWEEPS):
        unmatched = sorted(
            (y for y in g_y.vertices() if y not in match_y and y in radj and from_sphere[y] > 0),
            key=lambda y: (-from_sphere[y], y),
        )
        improved = False
        for y0 in unmatched:
            if y0 in match_y:
                continue
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
                    if from_sphere[y_next] < goal and (
                        best is None
                        or (from_sphere[y_next], y_next)
                        < (from_sphere[best], best)
                    ):
                        best = y_next
                    queue.append(y_next)
            if best is None:
                continue
            cur = best
            while parent[cur] is not None:
                prev, x = parent[cur]
                match_x[x] = prev
                match_y[prev] = x
                if match_y.get(cur) == x:
                    del match_y[cur]
                cur = prev
            improved = True
        if not improved:
            return


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
    r_start: int = 0,
    r_max: int = 8,
    collar_w: int = 1,
) -> MatchingResult:
    """Smallest radius whose candidate graph matches every interior vertex.

    Candidates for x are target vertices within r of mapping[x]. Earlier radii
    must fail before a radius is accepted, certifying minimality within
    [r_start, r_max]; NoBoundedMatching past r_max signals failing
    hypotheses (no linear isoperimetric inequality, or a map too far from
    any bijection), which is the expected negative-control outcome. It
    is raised as soon as a failing radius has every candidate ball equal
    to all of Y, since no larger radius changes the candidates.

    The matching's bilipschitz constant is exact at any size (see
    bilipschitz_constant), and 1 for a matching of one pair.
    """
    g_x, g_y = t_x.graph, t_y.graph
    if len(mapping) != g_x.n:
        raise InputError("vertex map must be total on the source graph")
    if r_start < 0 or r_max < r_start:
        raise InputError("need 0 <= r_start <= r_max")
    interior = sorted(t_x.interior(collar_w))
    xs_all = list(g_x.vertices())
    from_sphere = g_y.distances_from_set(t_y.trunc_sphere)
    last_unsat = len(interior)
    for r in range(r_start, r_max + 1):
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
        assert distance <= r, "matched outside the candidate radius"
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
    bound_a = chain.bound
    constant = Fraction(bound_a, 1) / cert.best_ratio
    if bound_a == 0:
        report = sum_boundary_criterion(chain, sets, boundaries, C=Fraction(1))
        passed = report.max_ratio == 0
        witness = report.witness
    else:
        report = sum_boundary_criterion(chain, sets, boundaries, C=constant)
        passed = bool(report.passed)
        witness = report.witness
    details = {
        "deficiency_bound": bound_a,
        "cheeger_best_ratio": cert.best_ratio,
        "criterion_constant": constant,
        "max_ratio": report.max_ratio,
        "tested_sets": report.tested_sets,
    }
    return CheckResult(passed, witness=witness), details
