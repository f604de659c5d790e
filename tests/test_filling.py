import random
from fractions import Fraction

import pytest

from bilip import jsonio
from bilip.errors import InputError, ResolutionExhausted
from bilip.filling import (
    Filling,
    build_filling,
    filling_sanity,
    greedy_net,
    make_space,
    max_usable_level,
    nearest_center_map,
)
from bilip.graph import UdbgGraph

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


def check_net_oracle(space, net, radius):
    """Independent pairwise scan: separation and maximal coverage."""
    for i, a in enumerate(net):
        for b in net[i + 1 :]:
            assert space.metric(a, b) >= radius
    chosen = set(net)
    for p in range(space.n):
        if p not in chosen:
            assert any(space.metric(p, c) < radius for c in net)


def test_make_space_shapes():
    c = make_space("cantor13", 8)
    assert c.n == 256 and c.points[0] == 0 and c.points[-1] == 1 - Fraction(1, 3**8)
    assert c.min_spacing == Fraction(2, 3**8)
    i = make_space("interval", 10)
    assert i.n == 11 and i.metric(0, 10) == 1
    s = make_space("circle", 8)
    assert s.metric(0, 7) == Fraction(1, 8)  # wraparound
    assert s.metric(0, 4) == HALF
    with pytest.raises(InputError):
        make_space("plane", 4)


def test_greedy_net_cantor():
    sp = make_space("cantor13", 8)
    assert len(greedy_net(sp, THIRD, 0, seed=0)) == 1
    for seed in range(6):
        net = greedy_net(sp, THIRD, 3, seed=seed)
        assert len(net) == 8  # one point per level-3 block, forced
        check_net_oracle(sp, net, THIRD**3)


def test_greedy_net_interval_counts_vary_with_seed():
    sp = make_space("interval", 64)
    counts = set()
    for seed in range(12):
        net = greedy_net(sp, HALF, 2, seed=seed)
        check_net_oracle(sp, net, Fraction(1, 4))
        counts.add(len(net))
    assert counts <= {3, 4, 5}
    assert len(counts) > 1  # genuinely seed-dependent


def test_greedy_net_resolution_exhausted():
    sp = make_space("cantor13", 8)
    assert max_usable_level(sp, THIRD) == 7
    with pytest.raises(ResolutionExhausted) as err:
        greedy_net(sp, THIRD, 8, seed=0)
    assert err.value.max_level == 7


def test_build_filling_cantor_level_sizes():
    f = build_filling(make_space("cantor13", 8), THIRD, Fraction(1), 3, seed=0)
    assert f.level_sizes() == [1, 2, 4, 8]
    assert f.graph.root == 0 and f.graph.levels[0] == 0


def test_build_filling_single_level():
    f = build_filling(make_space("interval", 16), HALF, Fraction(1), 0, seed=0)
    assert f.graph.n == 1 and f.graph.edge_count() == 0


def test_build_filling_deterministic():
    sp = make_space("interval", 32)
    a = build_filling(sp, HALF, Fraction(1), 3, seed=5)
    b = build_filling(sp, HALF, Fraction(1), 3, seed=5)
    assert list(a.graph.edges()) == list(b.graph.edges())
    assert a.centers == b.centers


def test_filling_net_property_every_level():
    f = build_filling(make_space("cantor13", 8), THIRD, Fraction(1), 5, seed=2)
    by_level = {}
    for v in f.graph.vertices():
        by_level.setdefault(f.graph.levels[v], []).append(f.centers[v])
    for k, net in by_level.items():
        if k > 0:
            check_net_oracle(f.space, net, THIRD**k)


def test_filling_edge_rule_is_exact():
    f = build_filling(make_space("interval", 32), HALF, Fraction(1), 3, seed=1)
    g = f.graph
    for v in g.vertices():
        for u in g.vertices():
            if u == v:
                continue
            d = abs(f.center_value(u) - f.center_value(v))
            ku, kv = g.levels[u], g.levels[v]
            if ku == kv:
                expected = d <= 2 * f.tau * f.scale**ku
            elif abs(ku - kv) == 1:
                expected = d <= f.tau * (f.scale**min(ku, kv) + f.scale ** (min(ku, kv) + 1))
            else:
                expected = False
            assert (u in g.neighbors(v)) == expected


def test_degree_uniformity_at_block_deterministic_dilation():
    # dilation 15/4 separates every block-pair family strictly from both
    # thresholds, so mid-level degrees depend only on block combinatorics
    sp = make_space("cantor13", 9)
    profiles = []
    for seed in (1, 2, 11):
        f = build_filling(sp, THIRD, Fraction(15, 4), 7, seed=seed)
        profiles.append(filling_sanity(f)["max_degree_per_level"])
    assert profiles[0] == profiles[1] == profiles[2]
    mids = profiles[0][3:7]
    assert len(set(mids)) == 1


def test_filling_sanity_reports():
    f = build_filling(make_space("interval", 64), HALF, Fraction(1), 4, seed=3)
    report = filling_sanity(f)
    assert report["connected"]
    assert report["vertices"] == f.graph.n
    assert report["visual_constant"] <= 1
    single = build_filling(make_space("interval", 8), HALF, Fraction(1), 0, seed=0)
    assert filling_sanity(single)["visual_constant"] == 0


def test_nearest_center_map():
    sp = make_space("cantor13", 8)
    fa = build_filling(sp, THIRD, Fraction(1), 4, seed=1)
    fb = build_filling(sp, THIRD, Fraction(1), 4, seed=2)
    vm = nearest_center_map(fa, fb)
    assert len(vm) == fa.graph.n
    for v, w in vm.items():
        assert fa.graph.levels[v] == fb.graph.levels[w]
    same = nearest_center_map(fa, fa)
    assert all(v == w for v, w in same.items())
    other = build_filling(sp, THIRD, Fraction(1), 3, seed=1)
    with pytest.raises(InputError):
        nearest_center_map(fa, other)


def test_build_filling_validation():
    sp = make_space("interval", 16)
    with pytest.raises(InputError):
        build_filling(sp, HALF, Fraction(1, 2), 2, seed=0)  # tau < 1
    with pytest.raises(InputError):
        build_filling(sp, Fraction(3, 2), Fraction(1), 2, seed=0)  # scale >= 1
    with pytest.raises(ResolutionExhausted):
        build_filling(sp, HALF, Fraction(1), 9, seed=0)


# -- reference oracles: the quadratic Fraction loops the kernels replaced --


def oracle_greedy_net(space, s, k, seed):
    radius = s**k
    order = list(range(space.n))
    random.Random(seed).shuffle(order)
    chosen = []
    for idx in order:
        if all(space.metric(idx, c) >= radius for c in chosen):
            chosen.append(idx)
    chosen.sort(key=lambda i: space.points[i])
    return chosen


def oracle_filling(space, s, tau, max_level, seed):
    """Centers, edge set and the number of pairs exactly at a threshold."""
    nets = []
    for k in range(max_level + 1):
        level_seed = seed * 1_000_003 + k
        if k == 0:
            order = list(range(space.n))
            random.Random(level_seed).shuffle(order)
            nets.append([order[0]])
        else:
            nets.append(oracle_greedy_net(space, s, k, level_seed))
    ids = [(k, idx) for k, net in enumerate(nets) for idx in net]
    edges, at_threshold = set(), 0
    for a, (ka, p) in enumerate(ids):
        for b in range(a + 1, len(ids)):
            kb, q = ids[b]
            if kb == ka:
                bound = 2 * tau * s**ka
            elif kb == ka + 1:
                bound = tau * (s**ka + s**kb)
            else:
                continue
            d = space.metric(p, q)
            at_threshold += d == bound
            if d <= bound:
                edges.add((a, b))
    return tuple(idx for _, idx in ids), edges, at_threshold


def oracle_nearest_center_map(fa, fb):
    by_level = {}
    for v in fb.graph.vertices():
        by_level.setdefault(fb.graph.levels[v], []).append(v)
    out = {}
    for v in fa.graph.vertices():
        best, best_d = None, None
        pa = fa.center_value(v)
        for w in by_level[fa.graph.levels[v]]:
            d = abs(pa - fb.center_value(w))
            if fa.space.kind == "circle":
                d = min(d, 1 - d)
            if best_d is None or d < best_d:
                best, best_d = w, d
        out[v] = best
    return out


def oracle_visual_constant(f):
    g = f.graph
    root_row = g.bfs_row(g.root)
    on_ray = set()
    for z in g.vertices():
        if g.levels[z] == f.max_level:
            z_row = g.bfs_row(z)
            on_ray.update(v for v in g.vertices() if root_row[v] + z_row[v] == root_row[z])
    return max(g.distances_from_set(on_ray))


ORACLE_SPACES = (
    (make_space("cantor13", 7), THIRD, 5),
    (make_space("interval", 96), HALF, 5),
    (make_space("circle", 96), HALF, 5),
    (make_space("circle", 45), Fraction(2, 5), 3),
)


def test_greedy_net_matches_quadratic_oracle():
    for space, s, _ in ORACLE_SPACES + ((make_space("cantor13", 9), THIRD, 8),):
        for k in range(max_usable_level(space, s) + 1):
            for seed in (0, 3, 1_000_004):
                assert greedy_net(space, s, k, seed) == oracle_greedy_net(space, s, k, seed)


def test_build_filling_matches_quadratic_oracle():
    ties = 0
    for space, s, max_level in ORACLE_SPACES:
        for tau in (Fraction(1), Fraction(3, 2), Fraction(15, 4)):
            for seed in (0, 5):
                f = build_filling(space, s, tau, max_level, seed=seed)
                centers, edges, at_threshold = oracle_filling(space, s, tau, max_level, seed)
                assert f.centers == centers
                assert set(f.graph.edges()) == edges, (space.kind, tau, seed)
                ties += at_threshold
    assert ties > 0  # some pair sits exactly on a window edge


def test_filling_sanity_matches_per_vertex_rows():
    for space, s, max_level in ORACLE_SPACES:
        for tau in (Fraction(1), Fraction(15, 4)):
            f = build_filling(space, s, tau, max_level, seed=2)
            assert filling_sanity(f)["visual_constant"] == oracle_visual_constant(f)
    # fillings never put a neighbour at the same root distance on the way
    # to the deepest level; random graphs leveled by depth do
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 40)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(n // 2):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = UdbgGraph(n, edges, root=0)
        g = UdbgGraph(n, edges, root=0, levels=g.bfs_row(0))
        f = Filling(g, make_space("interval", n), HALF, Fraction(1), tuple(range(n)), seed=0)
        assert filling_sanity(f)["visual_constant"] == oracle_visual_constant(f)


def test_nearest_center_map_matches_quadratic_oracle():
    for space, s, max_level in ORACLE_SPACES:
        for tau in (Fraction(1), Fraction(15, 4)):
            fs = [build_filling(space, s, tau, max_level, seed=seed) for seed in (0, 1, 2)]
            for fa in fs:
                for fb in fs:
                    assert nearest_center_map(fa, fb) == oracle_nearest_center_map(fa, fb)
    # different spaces: the circle against a grid holding both 0 and 1,
    # and two Cantor resolutions with different denominators
    for a, b, s in ((("circle", 64), ("interval", 64), HALF),
                    (("interval", 64), ("circle", 64), HALF),
                    (("cantor13", 7), ("cantor13", 8), THIRD)):
        fa = build_filling(make_space(*a), s, Fraction(1), 4, seed=1)
        fb = build_filling(make_space(*b), s, Fraction(1), 4, seed=2)
        assert nearest_center_map(fa, fb) == oracle_nearest_center_map(fa, fb)


def hand_edited(f, rng, values):
    """f as a user might edit its file: vertex ids shuffled (so centers
    are out of value order within a level) and every center moved to one
    of a few values, so many centers share a value."""
    data = jsonio.filling_to_dict(f)
    perm = list(range(f.graph.n))
    rng.shuffle(perm)
    data["vertices"] = [{"id": perm[e["id"]], "level": e["level"]} for e in data["vertices"]]
    data["edges"] = [[perm[u], perm[v]] for u, v in data["edges"]]
    data["root"] = perm[data["root"]]
    centers = [None] * f.graph.n
    for v in f.graph.vertices():
        centers[perm[v]] = jsonio.rational(rng.choice(values))
    data["meta"]["centers"] = centers
    return jsonio.filling_from_dict(data)


def test_nearest_center_map_on_hand_edited_files():
    rng = random.Random(11)
    for kind, res in (("interval", 32), ("circle", 32), ("cantor13", 6)):
        space = make_space(kind, res)
        s = THIRD if kind == "cantor13" else HALF
        fa = build_filling(space, s, Fraction(1), 4, seed=1)
        fb = build_filling(space, s, Fraction(1), 4, seed=2)
        for _ in range(6):
            # four evenly spread values: sources midway between two are ties
            values = [space.points[i] for i in range(0, space.n, max(space.n // 4, 1))]
            ea, eb = hand_edited(fa, rng, values), hand_edited(fb, rng, values)
            assert any(
                ea.center_value(v) == ea.center_value(w)
                for v in ea.graph.vertices() for w in ea.graph.vertices()
                if v < w and ea.graph.levels[v] == ea.graph.levels[w]
            )
            for x, y in ((ea, eb), (eb, ea), (fa, eb), (ea, fb), (eb, eb)):
                assert nearest_center_map(x, y) == oracle_nearest_center_map(x, y)


def test_scale_rung_filling_level_sizes():
    # cantor13 at resolution 11 with 10 levels, the scale-up filling
    f = build_filling(make_space("cantor13", 11), THIRD, Fraction(15, 4), 9, seed=1)
    assert f.level_sizes() == [2**k for k in range(10)]
    assert filling_sanity(f)["vertices"] == 1023
