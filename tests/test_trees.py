import pytest

from bilip.errors import ConstructionError, InputError
from bilip.trees import (
    RootedTree,
    check_pseudo_regular,
    check_visual,
    complete_core,
    core_vertices,
    gen_kary,
    gen_path,
    gen_random_pseudo_regular,
    graft_dead_ends,
    is_complete,
)

from tree_fixtures import add_dead_end, tree_facts


def rays_through_depth(t):
    """Oracle: vertices on root-to-depth paths, via leaf walks up parents."""
    parent = tree_facts(t).parent
    on_ray = set()
    for v in range(t.n):
        if t.level(v) == t.depth:
            a = v
            while a is not None:
                on_ray.add(a)
                a = parent[a]
    return on_ray


def dist_to_set(t, targets):
    """Oracle: plain multi-source frontier expansion."""
    dist = {v: 0 for v in targets}
    frontier = sorted(targets)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in t.graph.neighbors(v):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def test_gen_kary_counts():
    assert gen_kary(2, 3).n == 15
    assert gen_kary(3, 2).n == 13
    t = gen_kary(2, 1)
    assert t.n == 3 and t.graph.degree(t.root) == 2
    for k, d in ((2, 4), (3, 3)):
        t = gen_kary(k, d)
        for lvl in range(d + 1):
            assert len(t.graph.sphere(t.root, lvl)) == k**lvl


def test_gen_kary_validation_and_budget():
    with pytest.raises(InputError):
        gen_kary(1, 3)
    with pytest.raises(InputError):
        gen_kary(2, 0)
    with pytest.raises(ConstructionError):
        gen_kary(2, 10, budget=100)


def test_pseudo_regular_forced_binary():
    for seed in (0, 5, 99):
        t = gen_random_pseudo_regular(seed, 1, 4, 3)
        assert list(t.graph.edges()) == list(gen_kary(2, 4).graph.edges())


def test_pseudo_regular_generator_contract():
    t = gen_random_pseudo_regular(7, 3, 9, 4)
    assert check_pseudo_regular(t, 3).passed
    assert max(t.graph.degree(v) for v in range(t.n)) <= 4
    again = gen_random_pseudo_regular(7, 3, 9, 4)
    assert list(t.graph.edges()) == list(again.graph.edges())
    with pytest.raises(ConstructionError):
        gen_random_pseudo_regular(0, 2, 5, 2)


def test_pseudo_regular_monotone_in_k():
    # once a generated tree passes at K, it passes at every larger K
    for seed, k in ((1, 2), (2, 3), (3, 4)):
        t = gen_random_pseudo_regular(seed, k, 8, 5)
        passing = [check_pseudo_regular(t, kk).passed for kk in range(1, 8)]
        first = passing.index(True)
        assert all(passing[first:])
        assert first <= k - 1


def test_check_pseudo_regular_examples():
    assert check_pseudo_regular(gen_kary(3, 6), 1).passed
    path = gen_path(6)
    for k in (1, 3, 5):
        res = check_pseudo_regular(path, k)
        assert not res.passed and res.witness is not None
    with pytest.raises(InputError):
        check_pseudo_regular(gen_kary(2, 3), 3)


def test_graft_schedule_zero_is_identity():
    t = gen_kary(2, 4)
    g = graft_dead_ends(t, 0, seed=9)
    assert list(g.graph.edges()) == list(t.graph.edges())


def test_graft_constant_schedule_visual():
    g = graft_dead_ends(gen_kary(2, 6), 2, seed=1)
    assert g.n > 127
    assert check_visual(g, 2).passed
    # oracle: worst distance to any full-depth ray is exactly 2
    dist = dist_to_set(g, rays_through_depth(g))
    assert max(dist.values()) == 2
    assert not check_visual(g, 1).passed


def test_grafted_trees_fail_pseudo_regularity():
    # dangling tails have fewer than two continuations at every horizon
    g = graft_dead_ends(gen_kary(2, 8), 2, seed=1)
    core = set(core_vertices(g))
    for k in (1, 2, 3):
        res = check_pseudo_regular(g, k)
        assert not res.passed
        assert res.witness not in core or g.level(res.witness) > 0


def test_stretched_control_fails_every_usable_k():
    # linearly growing dead ends leave a failing witness at every K the
    # level margin can still see (a level-2 tail vertex blocks K = D-2)
    x = graft_dead_ends(gen_kary(2, 10), lambda l: l, 7)
    outcomes = [check_pseudo_regular(x, k).passed for k in range(1, 10)]
    assert outcomes == [False] * 8 + [True]


def test_check_visual_examples():
    assert check_visual(gen_kary(2, 5), 0).passed
    assert check_visual(gen_path(5), 0).passed
    t = add_dead_end(gen_kary(2, 6), 1, 3)
    tip = t.n - 1
    res = check_visual(t, 2)
    assert not res.passed and res.witness == tip
    assert check_visual(t, 3).passed
    with pytest.raises(InputError):
        check_visual(t, -1)


def test_check_visual_indeterminate_is_vacuous_on_trees():
    # every depth-D vertex lies on a full ray, so nothing is ever closer
    # to the truncation sphere than to a ray
    for t in (gen_kary(2, 4), graft_dead_ends(gen_kary(2, 5), 2, seed=0)):
        for c in (0, 1, 2):
            assert check_visual(t, c).indeterminate == ()


def test_complete_core_identity_on_complete_trees():
    for t in (gen_kary(2, 4), gen_path(5)):
        res = complete_core(t)
        assert res.core is t
        assert all(res.retraction[v] == v for v in range(t.n))
        assert res.core_to_orig == tuple(range(t.n))


def test_is_complete_matches_core_vertices():
    trees = [gen_kary(2, 4), gen_kary(3, 3), gen_path(6)]
    trees += [gen_random_pseudo_regular(seed, 2, 7, 4) for seed in range(4)]
    trees += [graft_dead_ends(gen_kary(2, 5), c, seed=c) for c in (1, 2, 3)]
    trees += [graft_dead_ends(gen_kary(2, d), lambda l: l, 7) for d in (5, 8)]
    trees += [add_dead_end(gen_kary(2, 4), v, 1) for v in (0, 3, 16)]
    verdicts = []
    for t in trees:
        verdict = is_complete(t)
        assert verdict == (len(core_vertices(t)) == t.n)
        assert (complete_core(t).core is t) == verdict
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_complete_core_prunes_dead_end():
    t = add_dead_end(gen_kary(2, 6), 7, 2)
    res = complete_core(t)
    assert t.n - res.core.n == 2
    for v in (t.n - 2, t.n - 1):
        assert t.graph.distance(v, res.core_to_orig[res.retraction[v]]) <= 2
        assert res.core_to_orig[res.retraction[v]] == 7
    # retraction restricted to the core is the identity
    for v in range(t.n - 2):
        assert res.core_to_orig[res.retraction[v]] == v


def test_complete_core_retraction_bounded_by_visual_constant():
    t = graft_dead_ends(gen_kary(2, 6), 2, seed=5)
    res = complete_core(t)
    assert check_visual(t, 2).passed
    assert max(t.graph.distance(v, res.core_to_orig[res.retraction[v]]) for v in range(t.n)) <= 2


def test_from_parents_validation():
    with pytest.raises(InputError):
        RootedTree.from_parents([])
    with pytest.raises(InputError):
        RootedTree.from_parents([None, None])
    with pytest.raises(InputError):
        RootedTree.from_parents([None, 0, 99])
    # parent cycles the root does not reach
    with pytest.raises(InputError, match="repeated edge"):
        RootedTree.from_parents([None, 2, 1])
    with pytest.raises(InputError, match="not connected"):
        RootedTree.from_parents([None, 0, 4, 2, 3])
    with pytest.raises(InputError, match="self-loop"):
        RootedTree.from_parents([None, 1])
    with pytest.raises(ConstructionError):
        RootedTree.from_parents([None] + list(range(50)), budget=10)
