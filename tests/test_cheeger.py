import random
from fractions import Fraction
from itertools import combinations

import pytest

from bilip import cheeger
from bilip.cheeger import (
    BALL_CENTERS,
    cheeger_exact,
    cheeger_family,
    family_sets,
)
from bilip.errors import InputError
from bilip.filling import build_filling, make_space
from bilip.graph import Truncation, UdbgGraph
from bilip.trees import (
    RootedTree,
    gen_kary,
    gen_path,
    gen_random_pseudo_regular,
    graft_dead_ends,
)

ALL_FAMILIES = ["balls", "level-bands", "descendant-subtrees", "random-connected"]


def brute_force_minimum(graph, interior, max_size):
    """Independent enumerator: raw neighbor unions, same tie rule."""
    best = None
    for size in range(1, max_size + 1):
        for combo in combinations(sorted(interior), size):
            inside = set(combo)
            boundary = set()
            for v in combo:
                for u in graph.neighbors(v):
                    if u not in inside:
                        boundary.add(u)
            ratio = Fraction(len(boundary), size)
            key = (ratio, size, combo)
            if best is None or key < best:
                best = key
    return best


def center_rooted_path(arm):
    parents = [None]
    prev_left = prev_right = 0
    for _ in range(arm):
        parents.append(prev_left)
        prev_left = len(parents) - 1
        parents.append(prev_right)
        prev_right = len(parents) - 1
    return RootedTree.from_parents(parents)


def test_interior_examples():
    t = gen_kary(2, 4)
    assert len(t.trunc.interior(0)) == 15
    assert t.trunc.interior(1) == frozenset(range(7))
    with pytest.raises(InputError):
        t.trunc.interior(4)


def test_exact_matches_independent_enumerator():
    t = gen_kary(2, 4)
    cert = cheeger_exact(t.trunc, 1)
    ratio, size, combo = brute_force_minimum(t.graph, t.trunc.interior(1), 7)
    assert cert.best_ratio == ratio
    assert cert.argmin_set == combo
    assert cert.best_ratio == Fraction(8, 7)


def test_exact_singletons():
    t3 = gen_kary(3, 3)
    cert = cheeger_exact(t3.trunc, 2, max_size=1)
    assert cert.best_ratio == Fraction(3)  # any singleton has three neighbors
    t2 = gen_kary(2, 4)
    root_only = cheeger_exact(t2.trunc, 3, max_size=1)
    assert root_only.best_ratio == Fraction(2) and root_only.argmin_set == (0,)


def test_exact_on_middle_path_segment():
    t = center_rooted_path(3)  # path of 7 rooted at its midpoint
    interior = t.trunc.interior(1)
    assert len(interior) == 3
    cert = cheeger_exact(t.trunc, 1)
    assert cert.best_ratio == Fraction(2, 3)
    assert set(cert.argmin_set) == set(interior)


def connected_in(graph, vertex_set):
    vertex_set = set(vertex_set)
    stack = [min(vertex_set)]
    seen = set(stack)
    while stack:
        for u in graph.neighbors(stack.pop()):
            if u in vertex_set and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vertex_set


def oracle_truncations():
    """Small truncations of every kind the CLI builds, random parent arrays
    (dead ends at every level), and four graphs that are not trees: a
    level graph with chords and three Cantor fillings."""
    rng = random.Random(18)
    yield gen_kary(2, 3).trunc
    yield gen_kary(2, 4).trunc
    yield gen_kary(3, 3).trunc
    for seed in range(3):
        yield graft_dead_ends(gen_kary(2, 4), 1 + seed % 2, seed=seed).trunc
        yield gen_random_pseudo_regular(seed, 2, 4, 4).trunc
    for depth in (3, 4, 6):
        yield gen_path(depth).trunc
    yield center_rooted_path(3).trunc
    # parents [None, 0, 1, 2, 3, 2]: at collar 2 the least ratio 1/3 is
    # (0, 1, 5), which is connected only through vertex 2 of the collar
    yield RootedTree.from_parents([None, 0, 1, 2, 3, 2]).trunc
    # a level graph with chords in which (4, 5, 8) and (4, 6, 8) tie on
    # ratio and size at collar 0: only the vertex tuple decides
    edges = [(0, 1), (0, 2), (0, 5), (0, 8), (1, 3), (2, 3), (2, 4), (2, 6), (3, 7), (4, 8)]
    yield Truncation.from_graph(UdbgGraph(9, edges, root=0, levels=[0, 1, 1, 2, 2, 1, 2, 3, 1]))
    for _ in range(190):
        n = rng.randint(5, 11)
        yield RootedTree.from_parents([None] + [rng.randrange(v) for v in range(1, n)]).trunc
    for levels, seed in ((3, 1), (4, 2), (4, 5)):
        cantor = build_filling(make_space("cantor13", 6), Fraction(1, 3), Fraction(15, 4),
                               levels, seed=seed)
        yield Truncation.from_graph(cantor.graph)


def test_exact_matches_all_subsets_on_small_truncations():
    graphs = cases = disconnected = non_trees = 0
    for trunc in oracle_truncations():
        graphs += 1
        non_trees += not trunc.graph.is_tree
        for w in (0, 1, 2):
            try:
                interior = trunc.interior(w)
            except InputError:
                continue
            for max_size in (1, 2, 3, 4):
                cert = cheeger_exact(trunc, w, max_size=max_size)
                ratio, _, argmin = brute_force_minimum(
                    trunc.graph, interior, min(max_size, len(interior)))
                assert (cert.best_ratio, cert.argmin_set) == (ratio, argmin), (w, max_size)
                cases += 1
                disconnected += not connected_in(trunc.graph, argmin)
    assert graphs >= 200 and non_trees == 4
    # argmins that only the distance-2 graph H joins
    assert disconnected >= 5


def test_exact_budget_guards(monkeypatch):
    t = gen_kary(2, 6)
    with pytest.raises(InputError):
        cheeger_exact(t.trunc, 1, max_size=0)
    # a single ray's sets grow one vertex per recursion level
    with pytest.raises(InputError, match="nest too deeply"):
        cheeger_exact(gen_path(1500).trunc, 1)
    # the 4,072 sets connected at distance 2 of the k2d6 pin, not the
    # 206,367 subsets of its interior, count against the budget
    monkeypatch.setattr(cheeger, "EXACT_SET_BUDGET", 4_071)
    with pytest.raises(InputError, match="passed 4071 sets"):
        cheeger_exact(t.trunc, 1, max_size=5)
    monkeypatch.setattr(cheeger, "EXACT_SET_BUDGET", 4_072)
    assert cheeger_exact(t.trunc, 1, max_size=5).best_ratio == Fraction(6, 5)


def test_family_root_balls_closed_form():
    t = gen_kary(2, 8)
    g = t.graph
    interior = t.trunc.interior(1)
    for radius in range(7):
        ball = g.ball(0, radius) & interior
        assert len(ball) == 2 ** (radius + 1) - 1
        assert len(g.boundary(ball, 1)) == 2 ** (radius + 1)
    cert = cheeger_family(t.trunc, 1, ["balls"], seed=0)
    assert cert.best_ratio == Fraction(128, 127)


def ball_loop_sets(t, w, seed):
    """Reference balls family: ball(c, r) & interior for r = 0, 1, ...
    until it stops growing, one full ball per radius."""
    g = t.graph
    interior = t.interior(w)
    centers = sorted(interior)
    if g.root is not None and g.root in interior:
        centers.remove(g.root)
        centers.insert(0, g.root)
    if len(centers) > BALL_CENTERS:
        centers = centers[:1] + sorted(random.Random(seed).sample(centers[1:], BALL_CENTERS - 1))
    sets, seen = [], set()
    for c in centers:
        radius, prev = 0, None
        while True:
            inside = frozenset(g.ball(c, radius) & interior)
            if inside == prev:
                break
            if inside not in seen:
                seen.add(inside)
                sets.append(inside)
            prev = inside
            radius += 1
    return sets


def test_family_balls_match_ball_loop():
    cantor = build_filling(make_space("cantor13", 8), Fraction(1, 3), Fraction(15, 4), 6, seed=1)
    truncations = [
        gen_kary(2, 5).trunc,
        gen_kary(2, 8).trunc,  # 255 interior vertices: sampled centres
        graft_dead_ends(gen_kary(2, 6), 2, seed=1).trunc,
        gen_random_pseudo_regular(2, 2, 7, 4).trunc,
        Truncation.from_graph(cantor.graph),  # not a tree
        # levels 0, 1, 2, 3, 2 along a path: from vertex 4 the first layer
        # is the truncation sphere and the second is interior again
        Truncation.from_graph(UdbgGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0,
                                        levels=[0, 1, 2, 3, 2])),
    ]
    for trunc in truncations:
        for w, seed in ((0, 0), (1, 0), (2, 5)):
            assert family_sets(trunc, w, ["balls"], seed) == ball_loop_sets(trunc, w, seed)
    assert not truncations[-2].graph.is_tree


def test_family_never_beats_exact():
    t = gen_kary(2, 4)
    exact = cheeger_exact(t.trunc, 1)
    fam = cheeger_family(t.trunc, 1, ALL_FAMILIES, seed=0)
    assert fam.best_ratio >= exact.best_ratio
    assert fam.best_ratio == exact.best_ratio  # full interior is a root ball


def test_family_finds_stretched_chains():
    x = graft_dead_ends(gen_kary(2, 12), lambda l: l, 7)
    cert = cheeger_family(x.trunc, 1, ALL_FAMILIES, seed=0)
    assert cert.best_ratio == Fraction(1, 5)
    assert cert.best_ratio <= Fraction(1, 5) <= Fraction(2, 10)
    boundary = x.graph.boundary(set(cert.argmin_set), 1)
    assert Fraction(len(boundary), len(cert.argmin_set)) == cert.best_ratio


def test_family_validation_and_determinism():
    t = gen_kary(2, 5)
    with pytest.raises(InputError):
        cheeger_family(t.trunc, 1, [], seed=0)
    with pytest.raises(InputError):
        cheeger_family(t.trunc, 1, ["mystery"], seed=0)
    a = family_sets(t.trunc, 1, ALL_FAMILIES, seed=3)
    b = family_sets(t.trunc, 1, ALL_FAMILIES, seed=3)
    assert a == b
    interior = t.trunc.interior(1)
    assert all(s <= interior for s in a)


def test_certificate_recomputes():
    t = gen_kary(3, 4)
    cert = cheeger_family(t.trunc, 1, ALL_FAMILIES, seed=1)
    boundary = t.graph.boundary(set(cert.argmin_set), 1)
    assert cert.best_ratio == Fraction(len(boundary), len(cert.argmin_set))
    d = cert.as_json_dict()
    assert d["best_ratio"] == {
        "num": cert.best_ratio.numerator,
        "den": cert.best_ratio.denominator,
    }
