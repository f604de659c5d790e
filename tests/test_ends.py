import itertools
import random

import pytest

from bilip.ends import (
    EndSpace,
    disconnection_check,
    doubling_check,
    enumerate_ends,
    leaf_intervals,
    perfectness_check,
    verify_ultrametric,
)
from bilip.errors import InputError
from bilip.trees import (
    RootedTree,
    complete_core,
    gen_kary,
    gen_path,
    gen_random_pseudo_regular,
    graft_dead_ends,
    is_complete,
)

from tree_fixtures import add_dead_end, tree_facts


def lca_depth_oracle(t, leaf_a, leaf_b):
    """Agreement depth via parent walks, independent of ray arrays."""
    parent = tree_facts(t).parent
    anc = {}
    v = leaf_a
    while v is not None:
        anc[v] = t.level(v)
        v = parent[v]
    v = leaf_b
    while v not in anc:
        v = parent[v]
    return t.level(v)


def test_enumerate_counts_and_shapes():
    t = gen_kary(2, 3)
    es = enumerate_ends(t)
    assert es.n == 8
    assert all(len(r) == 4 for r in tree_facts(t).rays)

    es1 = enumerate_ends(gen_path(5))
    assert es1.n == 1
    assert es1.table() == [[5]]

    t = gen_kary(3, 2)
    es9 = enumerate_ends(t)
    assert es9.n == 9
    rays = tree_facts(t).rays
    table = es9.table()
    for i, j in itertools.combinations(range(9), 2):
        if rays[i][1] != rays[j][1]:
            assert table[i][j] == 0


def test_enumerate_rejects_incomplete_trees():
    t = add_dead_end(gen_kary(2, 4), 1, 2)
    with pytest.raises(InputError, match="complete_core"):
        enumerate_ends(t)


def test_products_match_lca_oracle():
    for tree in (gen_kary(2, 5), complete_core(graft_dead_ends(gen_kary(2, 5), 2, 3)).core):
        es = enumerate_ends(tree)
        table = es.table()
        leaves = [r[-1] for r in tree_facts(tree).rays]
        rng = random.Random(0)
        for _ in range(300):
            i = rng.randrange(es.n)
            j = rng.randrange(es.n)
            if i == j:
                assert table[i][j] == es.depth
            else:
                assert table[i][j] == lca_depth_oracle(tree, leaves[i], leaves[j])


def test_table_matches_products():
    # the product of rays i and j is the running minimum of adjacent between them
    for tree in (gen_kary(2, 4), gen_random_pseudo_regular(2, 2, 5, 4)):
        es = enumerate_ends(tree)
        assert es.table() == table_from_adjacent(es.adjacent, es.depth)


def test_end_distance_trivia():
    t = gen_kary(2, 3)
    es = enumerate_ends(t)
    rays = tree_facts(t).rays
    table = es.table()
    assert table[3][3] == 3  # the depth sentinel: distance zero
    assert table[0][es.n - 1] == 0  # split at the root: maximal
    # rays sharing exactly the level-1 vertex
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(es.n), 2)
        if rays[i][1] == rays[j][1] and rays[i][2] != rays[j][2]
    ]
    assert pairs and all(table[i][j] == 1 for i, j in pairs)


def test_leaf_intervals_count_descendant_leaves():
    t = gen_kary(3, 3)
    lo, hi = leaf_intervals(t)
    for v in range(t.n):
        assert hi[v] - lo[v] == 3 ** (3 - t.level(v))


def triple_scan_oracle(table):
    """Brute-force O(n^3) scan: the first i < j < k whose three agreement
    depths have a single minimum, or None for an ultrametric table."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(i + 1, n):
            row_j = table[j]
            m_ij = row_i[j]
            for k in range(j + 1, n):
                a, b, c = m_ij, row_j[k], row_i[k]
                lo = min(a, b, c)
                if (a == lo) + (b == lo) + (c == lo) < 2:
                    return (i, j, k)
    return None


def violates(table, witness):
    """Three distinct rays whose agreement depths have a single minimum."""
    i, j, k = witness
    trio = (table[i][j], table[j][k], table[i][k])
    return len({i, j, k}) == 3 and sorted(trio)[0] < sorted(trio)[1]


def test_ultrametric_passes_on_tree_ends():
    for t in (gen_kary(2, 6), gen_kary(3, 4), gen_path(4)):
        es = enumerate_ends(t)
        assert verify_ultrametric(es.table(), es.depth).passed


def test_ray_built_spaces_are_ultrametric_by_identity():
    # an end space's table, checked as a hand-built one, passes the check
    # and the brute-force scan
    trees = (gen_kary(2, 5), gen_kary(3, 3), gen_random_pseudo_regular(4, 2, 6, 4),
             complete_core(graft_dead_ends(gen_kary(2, 5), 2, 3)).core)
    for t in trees:
        es = enumerate_ends(t)
        table = es.table()
        assert verify_ultrametric(table, es.depth).passed
        assert triple_scan_oracle(table) is None


def test_ultrametric_adversarial_table_fails():
    d = 4
    bad = [[d, 3, 1], [3, d, 3], [1, 3, d]]
    res = verify_ultrametric(bad, d)
    assert not res.passed
    assert violates(bad, res.witness)
    assert triple_scan_oracle(bad) == (0, 1, 2)


def shuffled_tree_table(rng, tree, perturb):
    """The agreement table of `tree` with its rays shuffled out of planar
    order, then `perturb` random off-diagonal entries redrawn."""
    es = enumerate_ends(tree)
    table = es.table()
    order = list(range(es.n))
    rng.shuffle(order)
    table = [[table[a][b] for b in order] for a in order]
    for _ in range(perturb if es.n > 1 else 0):
        i, j = rng.sample(range(es.n), 2)
        table[i][j] = table[j][i] = rng.randrange(es.depth)
    return table, es.depth


def test_ultrametric_matches_triple_scan_oracle():
    rng = random.Random(12)
    cases = []
    for _ in range(150):
        if rng.random() < 0.5:
            tree = gen_kary(rng.randint(2, 3), rng.randint(1, 4))
        else:
            tree = gen_random_pseudo_regular(rng.randrange(1000), 2, rng.randint(2, 6), 4)
        cases.append(shuffled_tree_table(rng, tree, rng.randint(0, 5)))
    for _ in range(150):  # arbitrary symmetric tables: mostly violating
        n, depth = rng.randint(1, 12), rng.randint(1, 5)
        table = [[depth] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            table[i][j] = table[j][i] = rng.randrange(depth)
        cases.append((table, depth))
    # above 200 rays, where a sampled scan used to stand in for the check
    for perturb in (0, 1, 3):
        cases.append(shuffled_tree_table(random.Random(perturb), gen_kary(2, 8), perturb))
    outcomes = []
    for table, depth in cases:
        res = verify_ultrametric(table, depth)
        assert res.passed == (triple_scan_oracle(table) is None)
        assert res.passed == (res.witness is None)
        if not res.passed:
            assert violates(table, res.witness)
        outcomes.append((len(table) > 200, res.passed))
    assert set(outcomes) == {(False, True), (False, False), (True, True), (True, False)}


def test_ultrametric_table_validation():
    with pytest.raises(InputError, match="symmetric"):
        verify_ultrametric([[4, 1], [2, 4]], 4)
    with pytest.raises(InputError, match="diagonal"):
        verify_ultrametric([[3, 1], [1, 4]], 4)
    with pytest.raises(InputError, match="0..depth-1"):
        verify_ultrametric([[4, 9], [9, 4]], 4)
    with pytest.raises(InputError, match="square"):
        verify_ultrametric([[4, 1]], 4)
    with pytest.raises(InputError, match="square"):
        verify_ultrametric([[4, 1], []], 4)  # checked before any entry is read
    with pytest.raises(InputError, match="at least one ray"):
        verify_ultrametric([], 4)


def test_ultrametric_passes_shuffled_tables():
    es = enumerate_ends(gen_kary(2, 3))
    table = es.table()
    order = [0, 4, 1, 5, 2, 6, 3, 7]  # valid ultrametric, not in planar order
    shuffled = [[table[a][b] for b in order] for a in order]
    assert verify_ultrametric(shuffled, es.depth).passed


def doubling_oracle(es, rays):
    """Brute-force cover count over every agreement ball, from the table
    and the rays as vertex paths."""
    table = es.table()
    worst = 1
    for f in range(es.n):
        for level in range(1, es.depth + 1):
            ball = [g for g in range(es.n) if table[f][g] >= level]
            if len(ball) <= 1:
                continue
            common = min(table[a][b] for a in ball for b in ball if a != b)
            step = min(common + 2, es.depth)
            worst = max(worst, len({rays[g][step] for g in ball}))
    return worst


def test_doubling_binary_matches_oracle():
    t = gen_kary(2, 6)
    es = enumerate_ends(t)
    passed, observed = doubling_check(es)
    assert passed
    assert observed <= es.mu**2 == 9
    assert observed == doubling_oracle(es, tree_facts(t).rays) == 4


def test_doubling_ternary_and_single_ray():
    t = gen_kary(3, 4)
    es = enumerate_ends(t)
    passed, observed = doubling_check(es)
    assert passed and observed == doubling_oracle(es, tree_facts(t).rays) == 9 <= es.mu**2
    passed1, observed1 = doubling_check(enumerate_ends(gen_path(4)))
    assert passed1 and observed1 == 1


def test_preorder_consumers_on_one_vertex_and_paths():
    one = RootedTree.from_parents([None])
    assert is_complete(one)
    assert leaf_intervals(one) == ([0], [1])
    es = enumerate_ends(one)
    assert (es.n, es.adjacent, es.table()) == (1, (), [[0]])
    with pytest.raises(InputError, match="depth >= 3"):
        doubling_check(es)
    for depth in (1, 2, 3, 7):
        path = gen_path(depth)
        assert is_complete(path)
        assert leaf_intervals(path) == ([0] * (depth + 1), [1] * (depth + 1))
        es = enumerate_ends(path)
        assert (es.n, es.adjacent) == (1, ())
        if depth >= 3:
            assert doubling_check(es) == (True, 1)
    # a path with a dead end, once last in preorder and once followed by
    # a vertex that is no deeper
    for parents in ([None, 0, 1, 0], [None, 0, 0, 2]):
        t = RootedTree.from_parents(parents)
        assert not is_complete(t)
        with pytest.raises(InputError, match="complete_core"):
            leaf_intervals(t)


def test_perfectness():
    assert perfectness_check(enumerate_ends(gen_kary(2, 8)), 1).passed
    single = enumerate_ends(gen_path(6))
    res = perfectness_check(single, 2)
    assert not res.passed
    grafted_core = complete_core(graft_dead_ends(gen_kary(2, 7), 2, 1)).core
    assert perfectness_check(enumerate_ends(grafted_core), 3).passed
    with pytest.raises(InputError):
        perfectness_check(enumerate_ends(gen_kary(2, 3)), 9)


def quadratic_perfectness(es, K):
    """Per ray, every running minimum of the agreement array in both
    directions, then the window scan: O(n^2) reference."""
    n, depth = es.n, es.depth
    if n == 1:
        return (False, (0, 0))
    adjacent = es.adjacent
    for i in range(n):
        present = [False] * depth
        running = depth
        for j in range(i, n - 1):
            running = min(running, adjacent[j])
            present[running] = True
        running = depth
        for j in range(i - 1, -1, -1):
            running = min(running, adjacent[j])
            present[running] = True
        for m in range(depth - K + 1):
            if not any(present[m : m + K]):
                return (False, (i, m))
    return (True, None)


def table_from_adjacent(adjacent, depth):
    n = len(adjacent) + 1
    table = [[depth] * n for _ in range(n)]
    for i in range(n):
        running = depth
        for j in range(i + 1, n):
            running = min(running, adjacent[j - 1])
            table[i][j] = table[j][i] = running
    return table


def test_perfectness_matches_quadratic_scan():
    trees = [gen_kary(2, 6), gen_kary(3, 4), gen_path(5)]
    trees += [complete_core(graft_dead_ends(gen_kary(2, 6), 2, seed)).core for seed in (1, 2)]
    trees += [gen_random_pseudo_regular(seed, K, 7, 4) for seed in (0, 3) for K in (1, 2, 3)]
    # two long arms that branch only near the bottom: agreement depths 0
    # and 5 leave a gap, so K = 2 fails at m = 1
    parents = [None, 0, 1, 2, 3, 4, 5, 5, 0, 8, 9, 10, 11, 12, 12]
    trees.append(RootedTree.from_parents(parents))
    spaces = [enumerate_ends(t) for t in trees]
    rng = random.Random(5)
    for _ in range(40):  # random planar tables: most fail, witnesses vary
        depth = rng.randint(2, 7)
        adjacent = [rng.randrange(depth) for _ in range(rng.randint(1, 30))]
        spaces.append(EndSpace(depth, 3, tuple(adjacent)))
    outcomes = set()
    for es in spaces:
        for K in range(1, es.depth + 1):
            res = perfectness_check(es, K)
            assert (res.passed, res.witness) == quadratic_perfectness(es, K)
            outcomes.add(res.passed)
    assert outcomes == {True, False}
    gap = perfectness_check(spaces[len(trees) - 1], 2)
    assert (gap.passed, gap.witness) == (False, (0, 1))


def disconnection_oracle(es):
    table = es.table()
    for f in range(es.n):
        for level in range(1, es.depth + 1):
            inside = {g for g in range(es.n) if table[f][g] >= level}
            for g in inside:
                for h in range(es.n):
                    if h not in inside and table[g][h] >= level:
                        return False
    return True


def test_disconnection():
    for tree in (gen_kary(2, 6), gen_kary(3, 5)):
        assert disconnection_check(enumerate_ends(tree)).passed
    small = enumerate_ends(gen_kary(2, 4))
    assert disconnection_check(small).passed == disconnection_oracle(small)
    assert disconnection_check(enumerate_ends(gen_path(3))).passed


def test_ball_relation_is_transitive_per_threshold():
    es = enumerate_ends(gen_kary(3, 3))
    table = es.table()
    for level in range(es.depth + 1):
        related = lambda a, b: table[a][b] >= level
        for a, b, c in itertools.permutations(range(es.n), 3):
            if related(a, b) and related(b, c):
                assert related(a, c)
