import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from bilip.ends import enumerate_ends, leaf_intervals
from bilip.errors import InputError
from bilip.filling import build_filling, make_space, nearest_center_map
from bilip.graph import UdbgGraph
from bilip.promote import bilipschitz_constant, promote_matching
from bilip import qimaps
from bilip.qimaps import (
    _exact_values,
    _max_distortion,
    _sampled_values,
    hierarchical_end_map,
    induced_vertex_map,
    qi_constants,
    tree_vertex_map,
)
from bilip.trees import complete_core, gen_kary, gen_path, graft_dead_ends

from tree_fixtures import tree_facts


def test_end_map_identity_shape():
    es = enumerate_ends(gen_kary(2, 4))
    em = hierarchical_end_map(es, es)
    assert em.bijective
    assert em.leaf_pairs == tuple(((i, i + 1), (i, i + 1)) for i in range(es.n))


def test_end_map_binary_quaternary_bijection():
    ea = enumerate_ends(gen_kary(2, 4))
    eb = enumerate_ends(gen_kary(4, 2))
    em = hierarchical_end_map(ea, eb)
    assert ea.n == eb.n == 16
    assert em.bijective
    assert [a for a, _ in em.leaf_pairs] == [(i, i + 1) for i in range(16)]
    assert sorted(b for _, b in em.leaf_pairs) == [(i, i + 1) for i in range(16)]


def test_end_map_mismatched_cardinalities():
    ea = enumerate_ends(gen_kary(3, 3))  # 27 rays
    eb = enumerate_ends(gen_kary(2, 5))  # 32 rays
    em = hierarchical_end_map(ea, eb)
    assert not em.bijective
    # leaf pairs partition both sides in order
    a_cursor = b_cursor = 0
    for (alo, ahi), (blo, bhi) in em.leaf_pairs:
        assert alo == a_cursor and blo == b_cursor
        assert ahi > alo and bhi > blo
        a_cursor, b_cursor = ahi, bhi
    assert a_cursor == 27 and b_cursor == 32


def test_end_map_monotone_on_nesting():
    ea = enumerate_ends(gen_kary(3, 4))
    eb = enumerate_ends(gen_kary(2, 6))
    em = hierarchical_end_map(ea, eb)
    rng = random.Random(2)
    for _ in range(100):
        lo = rng.randrange(ea.n)
        hi = rng.randrange(lo + 1, ea.n + 1)
        lo2 = rng.randrange(lo, hi)
        hi2 = rng.randrange(lo2 + 1, hi + 1)
        outer = em.image_interval((lo, hi))
        inner = em.image_interval((lo2, hi2))
        assert outer[0] <= inner[0] and inner[1] <= outer[1]


def test_induced_identity():
    t = gen_kary(2, 4)
    es = enumerate_ends(t)
    vm = induced_vertex_map(t, t, hierarchical_end_map(es, es))
    assert all(vm[v] == v for v in range(t.n))


def test_induced_binary_to_quaternary_levels():
    ta, tb = gen_kary(2, 4), gen_kary(4, 2)
    vm = induced_vertex_map(ta, tb, hierarchical_end_map(enumerate_ends(ta), enumerate_ends(tb)))
    assert vm[ta.root] == tb.root
    for v in range(ta.n):
        assert tb.level(vm[v]) == ta.level(v) // 2


def test_induced_preserves_ancestor_order():
    ta, tb = gen_kary(3, 4), gen_kary(2, 6)
    vm = induced_vertex_map(ta, tb, hierarchical_end_map(enumerate_ends(ta), enumerate_ends(tb)))
    lo, hi = leaf_intervals(tb)
    parents = tree_facts(ta).parent
    for child in range(1, ta.n):
        parent = parents[child]
        w_child, w_parent = vm[child], vm[parent]
        # the parent's image shadow contains the child's image shadow
        assert lo[w_parent] <= lo[w_child] and hi[w_child] <= hi[w_parent]


def test_qi_constants_identity():
    t = gen_kary(2, 4)
    vm = {v: v for v in range(t.n)}
    qc = qi_constants(vm, t.graph, t.graph, mode="exact")
    assert (qc.c_mult, qc.d_add, qc.surj_radius) == (1, 0, 0)
    assert qc.c_step == 1


def test_qi_constants_retraction_of_grafted_tree():
    g = graft_dead_ends(gen_kary(2, 6), 2, seed=1)
    core = complete_core(g)
    vm = {v: core.retraction[v] for v in range(g.n)}
    qc = qi_constants(vm, g.graph, core.core.graph, mode="exact")
    assert qc.d_add <= 4
    assert qc.surj_radius == 0


def test_qi_constants_stable_as_depth_grows():
    values = []
    for d_bin, d_quad in ((4, 2), (6, 3)):
        ta, tb = gen_kary(2, d_bin), gen_kary(4, d_quad)
        em = hierarchical_end_map(enumerate_ends(ta), enumerate_ends(tb))
        vm = induced_vertex_map(ta, tb, em)
        values.append(qi_constants(vm, ta.graph, tb.graph, mode="exact"))
    small, large = values
    assert small.c_mult == large.c_mult == 4
    assert small.d_add == large.d_add == Fraction(1, 2)
    assert large.c_step <= small.c_step  # adjacent images stay adjacent
    assert abs(large.c_mult - small.c_mult) <= Fraction(1, 4)


def test_qi_constants_sampled_mode_deterministic():
    t = gen_kary(3, 4)
    vm = tree_vertex_map(t, gen_kary(2, 6))
    a = qi_constants(vm, t.graph, gen_kary(2, 6).graph, mode="sampled", seed=9, samples=5000)
    b = qi_constants(vm, t.graph, gen_kary(2, 6).graph, mode="sampled", seed=9, samples=5000)
    assert a == b
    with pytest.raises(InputError):
        qi_constants({0: 0}, t.graph, t.graph)  # not total


def reference_pairs(domain, mode, seed, samples):
    """The pair stream of the distortion kernel, as a plain list."""
    if mode == "exact":
        return list(combinations(domain, 2))
    rng = random.Random(seed)
    draws = [(domain[rng.randrange(len(domain))], domain[rng.randrange(len(domain))])
             for _ in range(samples)]
    return [(u, v) for u, v in draws if u != v]


def two_pass_qi_constants(mapping, g_x, g_y, mode, seed, samples):
    """Reference (c_mult, d_add): a distortion pass over the pair stream,
    then a second pass over the same stream for the additive slack."""
    pairs = reference_pairs(sorted(mapping), mode, seed, samples)
    c_mult = Fraction(1)
    for u, v in pairs:
        a, b = g_x.distance(u, v), g_y.distance(mapping[u], mapping[v])
        if b:
            c_mult = max(c_mult, Fraction(b, a), Fraction(a, b))
    d_add = Fraction(0)
    for u, v in pairs:
        a, b = g_x.distance(u, v), g_y.distance(mapping[u], mapping[v])
        d_add = max(d_add, b - c_mult * a, Fraction(a, 1) / c_mult - b)
    return c_mult, d_add


def test_qi_constants_match_two_pass_reference():
    grafted = graft_dead_ends(gen_kary(2, 5), 2, seed=1)
    retraction = complete_core(grafted)
    fa, fb = (build_filling(make_space("cantor13", 6), Fraction(1, 3), Fraction(15, 4), 4, seed=s)
              for s in (1, 2))
    cases = [
        (tree_vertex_map(gen_kary(2, 4), gen_kary(4, 2)),
         gen_kary(2, 4).graph, gen_kary(4, 2).graph),
        # not injective: pairs with coinciding images count for d_add only
        ({v: retraction.retraction[v] for v in range(grafted.n)},
         grafted.graph, retraction.core.graph),
        (tree_vertex_map(gen_kary(3, 4), gen_kary(2, 6)),
         gen_kary(3, 4).graph, gen_kary(2, 6).graph),
        (nearest_center_map(fa, fb), fa.graph, fb.graph),  # not a tree
        # mixed sides: one tree and one filling, both ways
        ({v: v % fa.graph.n for v in range(63)}, gen_kary(2, 5).graph, fa.graph),
        ({v: v for v in range(fb.graph.n)}, fb.graph, gen_kary(2, 4).graph),
    ]
    for mapping, g_x, g_y in cases:
        trees = g_x.tree_walk() is not None and g_y.tree_walk() is not None
        for mode, seed in (("exact", 0), ("sampled", 0), ("sampled", 7)):
            if mode == "sampled" and not trees:
                # sampling walks parent arrays, so only a tree pair has it
                with pytest.raises(InputError, match="needs two rooted trees"):
                    qi_constants(mapping, g_x, g_y, mode=mode, seed=seed, samples=3000)
                continue
            qc = qi_constants(mapping, g_x, g_y, mode=mode, seed=seed, samples=3000)
            expected = two_pass_qi_constants(mapping, g_x, g_y, mode, seed, 3000)
            assert (qc.c_mult, qc.d_add) == expected, (mode, seed)


def test_distortion_stream_meets_the_reference_values():
    """The kernel's distinct (d_X, d_Y) values equal those of per-pair
    distance calls, on small graphs where one missed pair shows."""
    tree = gen_kary(2, 2).graph
    graphs = [
        tree,
        UdbgGraph(tree.n, tree.edges()),  # same tree, no root
        gen_path(4).graph,
        UdbgGraph(5, [(v, (v + 1) % 5) for v in range(5)]),  # a cycle
        UdbgGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    ]
    rng = random.Random(5)
    for trial in range(150):
        g_x, g_y = rng.choice(graphs), rng.choice(graphs)
        domain = rng.sample(range(g_x.n), rng.randint(2, g_x.n))
        mapping = {u: rng.randrange(g_y.n) for u in domain}  # often not injective
        trees = g_x.tree_walk() is not None and g_y.tree_walk() is not None
        for mode, seed in (("exact", 0), ("sampled", 3), ("sampled", 8)):
            expected = {(g_x.distance(u, v), g_y.distance(mapping[u], mapping[v]))
                        for u, v in reference_pairs(sorted(mapping), mode, seed, 12)}
            if mode == "exact":
                assert _exact_values(mapping, g_x, g_y) == expected, trial
            elif trees:
                assert _sampled_values(mapping, g_x, g_y, seed, 12) == expected, trial
            else:
                with pytest.raises(InputError, match="needs two rooted trees"):
                    _sampled_values(mapping, g_x, g_y, seed, 12)


def random_chorded_graph(n, chords, seed, root=None):
    """A random spanning tree on n vertices plus `chords` extra edges."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    while chords:
        u, v = rng.sample(range(n), 2)
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            chords -= 1
    return UdbgGraph(n, [(u, v) for u in range(n) for v in adj[u] if u < v], root=root)


def random_injection(rng, g_x, g_y, size, skip_roots):
    """A random injective map of `size` vertices, off both roots if asked."""
    xs = [v for v in g_x.vertices() if not (skip_roots and v == g_x.root)]
    ys = [v for v in g_y.vertices() if not (skip_roots and v == g_y.root)]
    size = min(size, len(xs), len(ys))
    return dict(zip(rng.sample(xs, size), rng.sample(ys, size)))


def attaining_shape(constant, values):
    """The (half, far) kinds of the (d_X, d_Y) values whose ratio is the
    constant: half is "forward" for d_Y/d_X and "inverse" for d_X/d_Y,
    and far is True when the pair lies at distance >= 2 on the side the
    half searches. A maximum whose every pair is far is attained by no
    edge, so only a pair whose geodesic passes outside the domain has it."""
    return frozenset(
        ("forward" if b > a else "inverse", min(a, b) >= 2)
        for a, b in values
        if max(Fraction(b, a), Fraction(a, b)) == constant
    )


def assert_exact_on(cases):
    """bilipschitz_constant equals the all-pairs maximum on every case, and
    the cases hold, in both halves, maxima that only far pairs attain and
    maxima that only edges attain, so that a search stopped one layer early,
    a skipped inverse half or an edges-only measurement shows."""
    shapes = Counter()
    for mapping, g_x, g_y in cases:
        values = _exact_values(mapping, g_x, g_y)
        expected = _max_distortion(values)
        assert bilipschitz_constant(mapping, g_x, g_y) == expected, mapping
        if expected > 1:
            shapes[attaining_shape(expected, values)] += 1
    for half in ("forward", "inverse"):
        for far in (False, True):
            assert shapes[frozenset({(half, far)})] >= 5, (half, far, shapes)


def test_bilipschitz_constant_matches_the_exact_kernel_on_trees():
    """At least 500 seeded injective maps of two or more vertices between
    rooted trees, against the all-pairs values of _exact_values: random
    trees of 2-40 vertices, and 3-ary depth 5 to 4-ary depth 4, domains
    missing the root included."""
    rng = random.Random(11)
    cases = []
    for _ in range(500):
        g_x, g_y = (random_chorded_graph(n, 0, rng.randrange(10**9), root=rng.randrange(n))
                    for n in (rng.randint(2, 40), rng.randint(2, 40)))
        size = rng.randint(2, min(g_x.n, g_y.n))
        cases.append((random_injection(rng, g_x, g_y, size, rng.random() < 0.3), g_x, g_y))
    k3, k4 = gen_kary(3, 5).graph, gen_kary(4, 4).graph  # 364 and 341 vertices
    for trial in range(24):
        size = rng.choice([2, 10, 60, 200, 340])
        cases.append((random_injection(rng, k3, k4, size, trial % 2 == 1), k3, k4))
    cases = [case for case in cases if len(case[0]) >= 2]
    assert len(cases) >= 500
    assert_exact_on(cases)


def test_bilipschitz_constant_matches_the_exact_kernel_off_trees():
    """The same comparison where a side is not a rooted tree: chorded
    graphs, unrooted tree copies, cantor13 and interval fillings, and one
    rooted tree against one of those, both ways. Domains with gaps make
    the search pass outside the domain; nearest-center maps between
    fillings are bijections, whose adjacent pairs are the edges."""
    rng = random.Random(12)
    fills = [
        build_filling(make_space(kind, resolution), scale, tau, levels, seed=s)
        for kind, resolution, scale, tau, levels in (
            ("cantor13", 6, Fraction(1, 3), Fraction(15, 4), 5),
            ("interval", 256, Fraction(1, 2), Fraction(3, 2), 6),
        )
        for s in (1, 2)
    ]
    fillings = [f.graph for f in fills]
    k2 = gen_kary(2, 4).graph
    others = fillings + [
        UdbgGraph(k2.n, k2.edges()),  # unrooted copy
        random_chorded_graph(40, 0, seed=3),  # unrooted random tree
        random_chorded_graph(30, 6, seed=5),
        random_chorded_graph(60, 25, seed=6, root=0),  # rooted, not a tree
    ]
    rooted = [k2, gen_kary(3, 3).graph, random_chorded_graph(35, 0, seed=8, root=4)]
    pairs = [(a, b) for a in others for b in others]
    pairs += [(a, b) for t in rooted for o in others for a, b in ((t, o), (o, t))]
    cases = []
    for trial in range(400):
        g_x, g_y = rng.choice(pairs)
        size = rng.randint(2, min(g_x.n, g_y.n))
        cases.append((random_injection(rng, g_x, g_y, size, False), g_x, g_y))
    for f_x in fillings:  # as many vertices as the smaller filling has
        for f_y in fillings:
            cases.append((random_injection(rng, f_x, f_y, f_x.n, False), f_x, f_y))
    cases.append((nearest_center_map(fills[0], fills[1]), fillings[0], fillings[1]))
    assert all(g_x.tree_walk() is None or g_y.tree_walk() is None for _, g_x, g_y in cases)
    assert_exact_on(cases)


def test_promote_measures_trees_exactly_above_the_pair_limit(monkeypatch):
    """The benchmark's tree pair matches 8,841 vertices and reaches no
    sampled pair stream."""

    def no_sampling(*args):
        raise AssertionError("a tree promotion sampled its pairs")

    monkeypatch.setattr(qimaps, "_sampled_values", no_sampling)
    x, y = gen_kary(3, 8), gen_kary(4, 7)
    res = promote_matching(tree_vertex_map(x, y), x.trunc, y.trunc, r_max=8, collar_w=2)
    assert len(res.pairs) == 8841
    assert res.bilip_constant == 6


def test_sampled_distortion_needs_a_sample():
    t = gen_kary(2, 4)
    ident = {v: v for v in range(t.n)}
    for samples in (0, -5):
        with pytest.raises(InputError, match="samples must be at least 1"):
            qi_constants(ident, t.graph, t.graph, mode="sampled", samples=samples)
    # exact mode measures every pair and reads no sample count
    assert qi_constants(ident, t.graph, t.graph, samples=0).c_mult == 1
    with pytest.raises(InputError, match="unknown mode"):
        qi_constants(ident, t.graph, t.graph, mode="auto")


def test_distortion_rejects_unknown_ids():
    t = gen_kary(2, 4)
    # the rooted tree walks image distances, its unrooted copy searches them
    unrooted = UdbgGraph(t.n, t.graph.edges())
    for bad in ({**{v: v for v in range(t.n)}, 3: t.n}, {**{v: v for v in range(1, t.n)}, -1: 0}):
        for g in (t.graph, unrooted):
            with pytest.raises(InputError, match="unknown vertex id"):
                bilipschitz_constant(bad, g, g)


def test_tree_vertex_map_handles_dead_ends():
    x = graft_dead_ends(gen_kary(2, 5), 2, seed=4)
    y = gen_kary(2, 5)
    vm = tree_vertex_map(x, y)
    assert len(vm) == x.n
    core = complete_core(x)
    for v in range(x.n):
        # a dead-end vertex lands where its attach point lands
        anchor = core.core_to_orig[core.retraction[v]]
        assert vm[v] == vm[anchor]
