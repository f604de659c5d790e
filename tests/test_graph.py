import random

import pytest

from bilip.errors import InputError
from bilip.graph import Truncation, UdbgGraph
from bilip.trees import gen_kary, graft_dead_ends


def naive_bfs_distance(g, source, target):
    """Independent reference: plain frontier expansion, no caching."""
    if source == target:
        return 0
    seen = {source}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u == target:
                    return d
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    raise AssertionError("disconnected")


def test_distance_trivial_cases():
    t = gen_kary(2, 4)
    g = t.graph
    assert g.distance(0, 0) == 0
    depth3 = next(v for v in g.vertices() if g.levels[v] == 3)
    assert g.distance(0, depth3) == 3
    assert g.distance(1, 2) == 2  # siblings via the root


def test_distance_matches_naive_bfs_and_metric_axioms():
    t = graft_dead_ends(gen_kary(2, 5), 2, seed=3)
    g = t.graph
    rng = random.Random(0)
    verts = list(g.vertices())
    for _ in range(150):
        u, v, w = (rng.choice(verts) for _ in range(3))
        duv = g.distance(u, v)
        assert duv == naive_bfs_distance(g, u, v)
        assert duv == g.distance(v, u)
        assert (duv == 0) == (u == v)
        assert g.distance(u, w) <= duv + g.distance(v, w)


def test_tree_walk_agrees_with_bfs_path():
    t = gen_kary(3, 4)
    g = t.graph
    plain = UdbgGraph(g.n, g.edges())  # no root: BFS path
    rng = random.Random(1)
    for _ in range(100):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        assert g.distance(u, v) == plain.distance(u, v)


def test_ball_and_sphere():
    t = gen_kary(2, 4)
    g = t.graph
    assert len(g.sphere(0, 2)) == 4
    assert len(g.ball(0, 2)) == 7
    for v in (0, 5, 12):
        assert g.ball(v, 0) == {v}
    assert g.sphere(0, 0) == {0}


def test_boundary_examples():
    g = gen_kary(2, 4).graph
    assert g.boundary({0}, 1) == {1, 2}
    assert len(g.boundary(g.ball(0, 1), 1)) == 4
    assert len(g.boundary({0}, 2)) == 6
    assert g.boundary(set(), 1) == set()
    with pytest.raises(InputError):
        g.boundary({0}, 0)


def test_boundary_properties():
    g = graft_dead_ends(gen_kary(2, 5), 1, seed=2).graph
    rng = random.Random(4)
    # largest ball of each radius 1..3
    rows = [g.bfs_row(v) for v in g.vertices()]
    profile = [max(sum(1 for d in row if d <= r) for row in rows) for r in (1, 2, 3)]
    for _ in range(25):
        a = {rng.randrange(g.n) for _ in range(rng.randint(1, 8))}
        b1 = g.boundary(a, 1)
        b2 = g.boundary(a, 2)
        b3 = g.boundary(a, 3)
        assert not (b1 & a)
        assert b1 <= b2 <= b3
        for r, br in ((1, b1), (2, b2), (3, b3)):
            assert len(br) <= len(a) * profile[r - 1]


def test_construction_validation():
    for n, edges, message in (
        (0, [], "at least one vertex"),
        (2, [(0, 1), (0, 1)], "repeated edge 0-1"),
        (2, [(0, 1), (1, 0)], "repeated edge 0-1"),
        (3, [(0, 1), (1, 2), (2, 2)], "self-loop at vertex 2"),
        (2, [(0, 2)], "outside 0..1"),
        (2, [(-1, 1)], "outside 0..1"),
        (4, [(0, 1), (2, 3)], "not connected"),
    ):
        with pytest.raises(InputError, match=message):
            UdbgGraph(n, edges)
    with pytest.raises(InputError):
        UdbgGraph(2, [(0, 1)], root=0, levels=[1, 2])  # root level must be 0
    with pytest.raises(InputError):
        UdbgGraph(3, [(0, 1)], root=0, levels=[0, 1])  # vertex 2 is isolated
    # level jump across an edge
    with pytest.raises(InputError):
        UdbgGraph(3, [(0, 1), (1, 2)], root=0, levels=[0, 1, 3])
    with pytest.raises(InputError):
        gen_kary(2, 3).graph.distance(0, 99)


def test_truncation_interior():
    t = gen_kary(2, 4)
    assert len(t.trunc.interior(0)) == 15
    assert t.trunc.interior(1) == frozenset(range(7))
    with pytest.raises(InputError):
        t.trunc.interior(4)
    with pytest.raises(InputError):
        t.trunc.interior(-1)


def random_connected_graph(rng, n, mu):
    """Random spanning tree plus extra edges, every degree at most mu."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if len(adj[u]) < mu])
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and len(adj[u]) < mu and len(adj[v]) < mu:
            adj[u].add(v)
            adj[v].add(u)
    g = UdbgGraph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
    assert g.mu <= mu
    return g


def kernel_instances():
    rng = random.Random(11)
    graphs = [random_connected_graph(rng, rng.randint(2, 40), rng.randint(2, 4)) for _ in range(30)]
    graphs.append(graft_dead_ends(gen_kary(2, 4), 2, seed=5).graph)  # rooted tree, levels
    return rng, graphs


def test_edge_order_and_orientation_do_not_matter():
    rng, graphs = kernel_instances()
    for g in graphs:
        edges = list(g.edges())
        for _ in range(3):
            rng.shuffle(edges)
            flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            h = UdbgGraph(g.n, flipped, root=g.root, levels=g.levels)
            assert list(h.edges()) == list(g.edges())
            assert [h.neighbors(v) for v in h.vertices()] == [g.neighbors(v) for v in g.vertices()]
            assert h.mu == g.mu == max(map(g.degree, g.vertices()))


def test_bounded_queries_match_full_rows():
    rng, graphs = kernel_instances()
    for g in graphs:
        rows = [g.bfs_row(v) for v in g.vertices()]
        diameter = max(max(row) for row in rows)
        for v, row in enumerate(rows):
            layers = [set(layer) for layer in g.bfs_layers((v,))]
            assert layers == [{u for u in g.vertices() if row[u] == d} for d in range(max(row) + 1)]
        for r in range(diameter + 2):
            for v in g.vertices():
                row = rows[v]
                assert g.ball(v, r) == {u for u in g.vertices() if row[u] <= r}
                assert g.sphere(v, r) == {u for u in g.vertices() if row[u] == r}
            sources = {rng.randrange(g.n) for _ in range(rng.randint(1, 5))}
            if r >= 1:
                dist = g.distances_from_set(sources)
                expected = {u for u in g.vertices() if 1 <= dist[u] <= r}
                assert g.boundary(sources, r) == expected


def test_distances_match_independent_rows():
    rng, graphs = kernel_instances()
    for g in graphs:
        rows = [g.bfs_row(v) for v in g.vertices()]
        for u in rng.sample(range(g.n), min(g.n, 5)):
            assert rows[u] == [naive_bfs_distance(g, u, v) for v in g.vertices()]
        walk = g.tree_walk()
        assert (walk is None) == (g.root is None)
        for u in g.vertices():
            for v in g.vertices():
                assert g.distance(u, v) == rows[u][v]
                if walk is not None:
                    assert walk(u, v) == rows[u][v]
        for _ in range(5):
            pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(rng.randint(0, 30))]
            assert g.max_distance(pairs) == max((rows[a][b] for a, b in pairs), default=0)
            assert g.max_distance(iter(pairs)) == g.max_distance(pairs)
        with pytest.raises(InputError):
            g.max_distance([(0, g.n)])
        with pytest.raises(InputError):
            g.max_distance([(-1, 0)])


def test_non_tree_distance_stops_at_the_target_layer(monkeypatch):
    n = 400
    cycle = UdbgGraph(n, [(v, (v + 1) % n) for v in range(n)])
    taken = []
    layers = UdbgGraph.bfs_layers

    def counting_layers(self, sources):
        for layer in layers(self, sources):
            taken.append(layer)
            yield layer

    monkeypatch.setattr(UdbgGraph, "bfs_layers", counting_layers)
    assert cycle.distance(0, 3) == 3
    assert len(taken) == 4  # layers 0..3 of 201
    taken.clear()
    assert cycle.max_distance([(0, 1), (0, 5), (7, 7)]) == 5
    assert len(taken) == 6 + 1  # layers 0..5 from vertex 0, layer 0 from vertex 7
