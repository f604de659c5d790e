import random
import tracemalloc
from fractions import Fraction

import pytest

from bilip.cheeger import cheeger_family, family_sets
from bilip.errors import InputError, NoBoundedMatching
from bilip.filling import build_filling, make_space, nearest_center_map
from bilip.graph import UdbgGraph
from bilip.promote import (
    bilipschitz_constant,
    deficiency_chain,
    promote_matching,
    verify_promotion_consistency,
    sum_boundary_criterion,
)
from bilip.qimaps import _exact_values, _max_distortion, tree_vertex_map
from bilip.trees import RootedTree, gen_kary, gen_random_pseudo_regular, graft_dead_ends

from tree_fixtures import tree_facts

FAMILIES = ["balls", "level-bands", "random-connected"]


def boundaries(g, sets):
    return [len(g.boundary(s, 1)) for s in sets]


def parent_map(t):
    parent = tree_facts(t).parent
    return {v: (parent[v] if parent[v] is not None else v) for v in range(t.n)}


def test_deficiency_identity_and_parent_map():
    t = gen_kary(2, 4)
    ident = {v: v for v in range(t.n)}
    assert deficiency_chain(ident, t.graph, t.graph) == [0] * t.n

    # the root keeps itself and gains its two children; internal non-root
    # vertices (levels 1..3) gain two children; leaves lose themselves
    c = deficiency_chain(parent_map(t), t.graph, t.graph)
    assert c == [2] + [1] * 14 + [-1] * 16
    assert sum(c) == 0

    # three vertices onto the first of four: one coefficient per target,
    # -1 plus one per preimage
    g_x, g_y = gen_kary(2, 1).graph, gen_kary(3, 1).graph
    assert deficiency_chain({0: 0, 1: 0, 2: 0}, g_x, g_y) == [2, -1, -1, -1]
    with pytest.raises(InputError):
        deficiency_chain({0: 0, 1: 0}, g_x, g_y)


def test_deficiency_bound_stable_in_depth():
    bounds = []
    for d_bin, d_quad in ((6, 3), (8, 4)):
        ta, tb = gen_kary(2, d_bin), gen_kary(4, d_quad)
        vm = tree_vertex_map(ta, tb)
        c = deficiency_chain(vm, ta.graph, tb.graph)
        assert len(c) == tb.n
        assert sum(c) == ta.n - tb.n
        bounds.append(max(map(abs, c)))
    assert bounds == [2, 2]


def test_sum_boundary_zero_chain_trivial():
    t = gen_kary(2, 5)
    sets = family_sets(t.trunc, 1, FAMILIES, seed=0)
    assert sum_boundary_criterion([0] * t.n, sets, boundaries(t.graph, sets),
                                  Fraction(1, 100)) == (0, None)


def test_sum_boundary_parent_map_ratio():
    t = gen_kary(2, 6)
    c = deficiency_chain(parent_map(t), t.graph, t.graph)
    sets = family_sets(t.trunc, 1, ["balls"], seed=0)
    max_ratio, witness = sum_boundary_criterion(c, sets, boundaries(t.graph, sets), 2)
    assert max_ratio == 1  # computed; root balls realize equality
    assert witness is None


def test_sum_boundary_constant_function_consistent_with_cheeger():
    t = gen_kary(2, 6)
    interior = t.trunc.interior(1)
    ones = [int(v in interior) for v in range(t.n)]
    sets = family_sets(t.trunc, 1, FAMILIES, seed=2)
    cert = cheeger_family(t.trunc, 1, FAMILIES, seed=2)
    # the same sets: the worst |S| / |boundary| is the reciprocal of the best ratio
    assert sum_boundary_criterion(ones, sets, boundaries(t.graph, sets),
                                  1 / cert.best_ratio) == (1 / cert.best_ratio, None)


def test_sum_boundary_witness_is_the_first_violating_set_sorted():
    chain = [3, -1, 0, 0, 0, 0, 0, 0, 2]
    sets = [frozenset({2}), frozenset({8, 0}), frozenset({1, 8})]
    edges = [1, 2, 1]
    # sums 0, 5, 1: ratios 0, 5/2, 1
    assert sum_boundary_criterion(chain, sets, edges, Fraction(5, 2)) == (Fraction(5, 2), None)
    assert sum_boundary_criterion(chain, sets, edges, Fraction(1, 2)) == (Fraction(5, 2), (0, 8))
    assert sum_boundary_criterion(chain, sets[::-1], edges[::-1], 1) == (Fraction(5, 2), (0, 8))
    assert sum_boundary_criterion(chain, sets[::-1], edges[::-1], Fraction(1, 2)) == (
        Fraction(5, 2), (1, 8))
    with pytest.raises(InputError):
        sum_boundary_criterion(chain, sets, [1, 0, 1], 1)

    # on a tree: below the worst ratio, the first ball that breaks the bound
    t = gen_kary(2, 6)
    c = deficiency_chain(parent_map(t), t.graph, t.graph)
    sets = family_sets(t.trunc, 1, ["balls"], seed=0)
    edges = boundaries(t.graph, sets)
    violating = [s for s, e in zip(sets, edges) if 2 * abs(sum(c[v] for v in s)) > e]
    assert len(violating) >= 2
    assert sum_boundary_criterion(c, sets, edges, Fraction(1, 2)) == (
        1, tuple(sorted(violating[0])))


def test_promote_identity_and_parent_map():
    t = gen_kary(2, 5)
    ident = {v: v for v in range(t.n)}
    res = promote_matching(ident, t.trunc, t.trunc, r_max=3, collar_w=1)
    assert (res.r, res.bilip_constant, res.unmatched_y) == (0, 1, ())
    assert res.confinement_width == 0
    assert res.distance_to_map == 0

    pm = parent_map(t)
    res2 = promote_matching(pm, t.trunc, t.trunc, r_max=3, collar_w=1)
    assert res2.r == 1
    assert res2.distance_to_map == res2.r
    # the matcher lands on the identity bijection here
    assert all(x == y for x, y in res2.pairs.items())
    assert res2.bilip_constant == 1


def test_promote_saturates_interior_recount():
    ta, tb = gen_kary(3, 4), gen_kary(4, 3)
    vm = tree_vertex_map(ta, tb)
    res = promote_matching(vm, ta.trunc, tb.trunc, r_max=6, collar_w=1)
    assert res.distance_to_map == res.r
    matched = set(res.pairs)
    for v in ta.trunc.interior(1):
        assert v in matched
    targets = list(res.pairs.values())
    assert len(set(targets)) == len(targets)  # injective
    for x, y in res.pairs.items():
        assert tb.graph.distance(vm[x], y) <= res.r


def test_promote_takes_its_radius_and_collar_by_keyword():
    t = gen_kary(2, 3)
    ident = {v: v for v in range(t.n)}
    with pytest.raises(TypeError):
        promote_matching(ident, t.trunc, t.trunc, 0, 3)
    with pytest.raises(InputError):
        promote_matching(ident, t.trunc, t.trunc, r_max=-1)


def test_promote_no_bounded_matching():
    x = graft_dead_ends(gen_kary(2, 6), lambda l: l, 7)
    y = gen_kary(2, 6)
    vm = tree_vertex_map(x, y)
    with pytest.raises(NoBoundedMatching) as err:
        promote_matching(vm, x.trunc, y.trunc, r_max=0, collar_w=1)
    assert err.value.r_max == 0 and err.value.unsaturated > 0


def least_width_by_enumeration(mapping, t_x, t_y, interior, r):
    """The least, over every matching at radius r that saturates the
    interior, of the deepest unmatched target's distance to the
    truncation sphere (0 when none is unmatched). Matchings are
    enumerated by their sets of matched targets, one source at a time."""
    g_y = t_y.graph
    depth = g_y.distances_from_set(t_y.trunc_sphere)
    covered = {0}  # bitmask of the targets matched so far
    for x in t_x.graph.vertices():
        ball = g_y.ball(mapping[x], r)
        grown = set() if x in interior else set(covered)
        for mask in covered:
            grown.update(mask | 1 << y for y in ball if not mask >> y & 1)
        covered = grown
    return min(max((depth[y] for y in g_y.vertices() if not mask >> y & 1), default=0)
               for mask in covered)


def random_tree(rng, n):
    return RootedTree.from_parents([None] + [rng.randrange(v) for v in range(1, n)])


def test_confinement_width_is_least_over_all_matchings():
    """On 2,000 random small tree pairs with random total maps, the width
    reached equals the least over every matching at the reported radius,
    and the radius below fails. Without the push to the sphere about one
    width in eight comes out too large."""
    rng = random.Random(19)
    cases = nonzero = 0
    while cases < 2000:
        t_x, t_y = random_tree(rng, rng.randint(4, 9)), random_tree(rng, rng.randint(6, 11))
        mapping = {x: rng.randrange(t_y.n) for x in range(t_x.n)}
        collar = rng.randint(0, 1)
        if t_x.trunc.depth <= collar:
            continue  # empty interior
        interior = t_x.trunc.interior(collar)
        if len(interior) > t_y.n:
            continue  # no injection at any radius
        # at radius n_y every candidate ball is all of Y
        res = promote_matching(mapping, t_x.trunc, t_y.trunc, r_max=t_y.n, collar_w=collar)
        assert res.distance_to_map == res.r
        assert res.confinement_width == least_width_by_enumeration(
            mapping, t_x.trunc, t_y.trunc, interior, res.r), (t_x.graph, t_y.graph, mapping)
        if res.r:
            with pytest.raises(NoBoundedMatching):
                promote_matching(mapping, t_x.trunc, t_y.trunc, r_max=res.r - 1,
                                 collar_w=collar)
        cases += 1
        nonzero += res.confinement_width > 0
    assert nonzero >= 1000


def kuhn_max_matching_size(adj, n_left):
    """Reference matcher: plain augmenting DFS, one left vertex at a time."""
    match_of_right = {}

    def try_left(x, banned):
        for y in adj[x]:
            if y in banned:
                continue
            banned.add(y)
            if y not in match_of_right or try_left(match_of_right[y], banned):
                match_of_right[y] = x
                return True
        return False

    size = 0
    for x in range(n_left):
        if try_left(x, set()):
            size += 1
    return size


def test_matching_engine_against_reference():
    from bilip.promote import _max_matching

    rng = random.Random(13)
    for trial in range(40):
        n_left = rng.randint(1, 14)
        n_right = rng.randint(1, 14)
        adj = [
            sorted(rng.sample(range(n_right), rng.randint(0, min(4, n_right))))
            for _ in range(n_left)
        ]
        match_x, match_y = {}, {}
        _max_matching(list(range(n_left)), lambda x: adj[x], match_x, match_y)
        assert len(match_x) == kuhn_max_matching_size(adj, n_left), (trial, adj)
        for x, y in match_x.items():
            assert y in adj[x]
            assert match_y[y] == x
        assert len(set(match_x.values())) == len(match_x)


def test_matching_result_constants_recompute():
    ta, tb = gen_kary(3, 4), gen_kary(4, 3)
    vm = tree_vertex_map(ta, tb)
    res = promote_matching(vm, ta.trunc, tb.trunc, r_max=6, collar_w=1)
    assert res.distance_to_map == res.r
    again = bilipschitz_constant(res.pairs, ta.graph, tb.graph)
    assert again == res.bilip_constant


def test_bilipschitz_constant():
    g = gen_kary(2, 4).graph
    ident = {v: v for v in range(g.n)}
    assert bilipschitz_constant(ident, g, g) == 1
    with pytest.raises(InputError):
        bilipschitz_constant({0: 0}, g, g)
    with pytest.raises(InputError):
        bilipschitz_constant({0: 0, 1: 0}, g, g)  # not injective
    swap = dict(ident)
    swap[0], swap[15] = 15, 0
    exact = bilipschitz_constant(swap, g, g)
    assert exact > 1
    # the unrooted copy of the same tree searches image distances instead
    unrooted = UdbgGraph(g.n, g.edges())
    assert bilipschitz_constant(swap, unrooted, unrooted) == exact


def exact_bilipschitz_peak(resolution, levels, measure=bilipschitz_constant):
    """(result, tracemalloc peak) of measure(map, X, Y), by default the
    exact bilipschitz_constant, on the nearest-center map between the
    cantor13 fillings of seeds 1 and 2."""
    space = make_space("cantor13", resolution)
    fa, fb = (build_filling(space, Fraction(1, 3), Fraction(15, 4), levels, seed=s)
              for s in (1, 2))
    vm = nearest_center_map(fa, fb)
    tracemalloc.start()
    try:
        result = measure(vm, fa.graph, fb.graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_exact_bilipschitz_holds_no_row_cache():
    """Exact distortion on the benchmark's 511-vertex Cantor fillings holds
    the inverse map and the sets of one search at a time, about 28 KB at
    peak; a cache of every source's BFS row holds 1,020 rows of 511 ints,
    over 4 MB."""
    constant, peak = exact_bilipschitz_peak(10, 8)
    assert constant == 2
    assert peak < 64 * 1024, peak


def test_exact_bilipschitz_memory_grows_linearly():
    """Doubling the fillings to 1,023 vertices about doubles the peak, to
    about 55 KB: the inverse map grows with the domain, and each search
    only with the pairs it meets. The all-pairs value set of qi's exact
    mode holds two BFS rows at a time, about 57 KB here; the distances of
    128 sources held side by side take about 350 KB."""
    constant, peak = exact_bilipschitz_peak(11, 9)
    assert constant == 2
    assert peak < 128 * 1024, peak
    values, peak = exact_bilipschitz_peak(11, 9, _exact_values)
    assert _max_distortion(values) == 2
    assert peak < 128 * 1024, peak


def test_promote_generic_random_tree_pair():
    # two unrelated seeded trees with different branching guarantees:
    # the full pipeline still lands a matching at small radius, with the
    # unmatched mass a bounded band away from the truncation sphere
    a = gen_random_pseudo_regular(1, 2, 8, 5)
    b = gen_random_pseudo_regular(9, 3, 8, 5)
    vm = tree_vertex_map(a, b)
    res = promote_matching(vm, a.trunc, b.trunc, r_max=10, collar_w=2)
    assert res.r == res.distance_to_map == 1
    assert res.confinement_width == 3
    check, _ = verify_promotion_consistency(
        vm, a.trunc, b.trunc, 1, FAMILIES + ["descendant-subtrees"], seed=0
    )
    assert check.passed


def test_verify_promotion_consistency():
    t = gen_kary(2, 6)
    check, details = verify_promotion_consistency(
        parent_map(t), t.trunc, t.trunc, 1, FAMILIES, seed=0
    )
    assert check.passed and check.witness is None
    assert details["deficiency_bound"] == 2
    expected = Fraction(2) / details["cheeger_best_ratio"]
    assert details["criterion_constant"] == expected
    assert details["max_ratio"] <= expected


def test_verify_computes_each_boundary_once(monkeypatch):
    t = gen_kary(2, 6)
    calls = []
    boundary = UdbgGraph.boundary

    def counting_boundary(self, *args, **kwargs):
        calls.append(args)
        return boundary(self, *args, **kwargs)

    monkeypatch.setattr(UdbgGraph, "boundary", counting_boundary)
    _, details = verify_promotion_consistency(parent_map(t), t.trunc, t.trunc, 1, FAMILIES, seed=0)
    assert len(calls) == details["tested_sets"] == len(family_sets(t.trunc, 1, FAMILIES, seed=0))
