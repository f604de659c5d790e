import random
import tracemalloc
from fractions import Fraction

import pytest

from bilip.cheeger import cheeger_family, family_sets
from bilip.errors import InputError, NoBoundedMatching
from bilip.filling import build_filling, make_space, nearest_center_map
from bilip.graph import UdbgGraph
from bilip.promote import (
    ZeroChain,
    bilipschitz_constant,
    deficiency_chain,
    promote_matching,
    verify_promotion_consistency,
    sum_boundary_criterion,
)
from bilip.qimaps import _exact_values, _max_distortion, tree_vertex_map
from bilip.trees import gen_kary, gen_random_pseudo_regular, graft_dead_ends

from tree_fixtures import tree_facts

FAMILIES = ["balls", "level-bands", "random-connected"]


def boundaries(g, sets):
    return [len(g.boundary(s, 1)) for s in sets]


def parent_map(t):
    parent = tree_facts(t).parent
    return {v: (parent[v] if parent[v] is not None else v) for v in range(t.n)}


def test_zero_chain_normalization():
    c = ZeroChain.make({0: 2, 1: 0, 2: -5})
    assert c.coefficients == {0: 2, 2: -5}
    assert c.bound == 5
    assert sum(c.coefficients.values()) == -3
    assert c.sum_over({1, 2}) == -5
    assert ZeroChain.make({}).bound == 0


def test_deficiency_identity_and_parent_map():
    t = gen_kary(2, 4)
    ident = {v: v for v in range(t.n)}
    assert deficiency_chain(ident, t.graph, t.graph).coefficients == {}

    c = deficiency_chain(parent_map(t), t.graph, t.graph)
    assert c.value(0) == 2
    for v in range(1, 15):  # internal non-root vertices, levels 1..3
        assert c.value(v) == 1
    for v in range(15, 31):  # leaves
        assert c.value(v) == -1
    assert sum(c.coefficients.values()) == 0
    assert c.bound == 2


def test_deficiency_bound_stable_in_depth():
    bounds = []
    for d_bin, d_quad in ((6, 3), (8, 4)):
        ta, tb = gen_kary(2, d_bin), gen_kary(4, d_quad)
        vm = tree_vertex_map(ta, tb)
        c = deficiency_chain(vm, ta.graph, tb.graph)
        assert sum(c.coefficients.values()) == ta.n - tb.n
        bounds.append(c.bound)
    assert bounds == [2, 2]


def test_sum_boundary_zero_chain_trivial():
    t = gen_kary(2, 5)
    sets = family_sets(t.trunc, 1, FAMILIES, seed=0)
    report = sum_boundary_criterion(ZeroChain.make({}), sets, boundaries(t.graph, sets),
                                    C=Fraction(1, 100))
    assert report.max_ratio == 0
    assert report.passed and report.witness is None


def test_sum_boundary_parent_map_ratio():
    t = gen_kary(2, 6)
    c = deficiency_chain(parent_map(t), t.graph, t.graph)
    sets = family_sets(t.trunc, 1, ["balls"], seed=0)
    report = sum_boundary_criterion(c, sets, boundaries(t.graph, sets))
    assert report.max_ratio <= 2
    assert report.max_ratio == 1  # computed; root balls realize equality


def test_sum_boundary_constant_function_consistent_with_cheeger():
    t = gen_kary(2, 6)
    interior = t.trunc.interior(1)
    ones = ZeroChain.make({v: 1 for v in interior})
    sets = family_sets(t.trunc, 1, FAMILIES, seed=2)
    report = sum_boundary_criterion(ones, sets, boundaries(t.graph, sets))
    cert = cheeger_family(t.trunc, 1, FAMILIES, seed=2)
    assert report.max_ratio <= 1 / cert.best_ratio


def test_promote_identity_and_parent_map():
    t = gen_kary(2, 5)
    ident = {v: v for v in range(t.n)}
    res = promote_matching(ident, t.trunc, t.trunc, r_start=0, r_max=3, collar_w=1)
    assert (res.r, res.bilip_constant, res.unmatched_y) == (0, 1, ())
    assert res.confinement_width == 0
    assert res.distance_to_map == 0

    pm = parent_map(t)
    res2 = promote_matching(pm, t.trunc, t.trunc, r_start=0, r_max=3, collar_w=1)
    assert res2.r == 1
    assert res2.distance_to_map == 1
    assert res2.distance_to_map <= res2.r
    # the matcher lands on the identity bijection here
    assert all(x == y for x, y in res2.pairs.items())
    assert res2.bilip_constant == 1


def test_promote_saturates_interior_recount():
    ta, tb = gen_kary(3, 4), gen_kary(4, 3)
    vm = tree_vertex_map(ta, tb)
    res = promote_matching(vm, ta.trunc, tb.trunc, r_start=0, r_max=6, collar_w=1)
    matched = set(res.pairs)
    for v in ta.trunc.interior(1):
        assert v in matched
    targets = list(res.pairs.values())
    assert len(set(targets)) == len(targets)  # injective
    for x, y in res.pairs.items():
        assert tb.graph.distance(vm[x], y) <= res.r


def test_promote_succeeds_at_larger_radius_too():
    ta, tb = gen_kary(3, 4), gen_kary(4, 3)
    vm = tree_vertex_map(ta, tb)
    first = promote_matching(vm, ta.trunc, tb.trunc, r_start=0, r_max=6, collar_w=1)
    later = promote_matching(vm, ta.trunc, tb.trunc, r_start=first.r + 1, r_max=first.r + 1, collar_w=1)
    assert later.r == first.r + 1


def test_promote_no_bounded_matching():
    x = graft_dead_ends(gen_kary(2, 6), lambda l: l, 7)
    y = gen_kary(2, 6)
    vm = tree_vertex_map(x, y)
    with pytest.raises(NoBoundedMatching) as err:
        promote_matching(vm, x.trunc, y.trunc, r_start=0, r_max=0, collar_w=1)
    assert err.value.r_max == 0 and err.value.unsaturated > 0


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
    res = promote_matching(vm, ta.trunc, tb.trunc, r_start=0, r_max=6, collar_w=1)
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
    unrooted = UdbgGraph([g.neighbors(v) for v in g.vertices()])
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
    res = promote_matching(vm, a.trunc, b.trunc, r_start=0, r_max=10, collar_w=2)
    assert res.r == 1
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
