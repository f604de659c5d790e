"""Acceptance suite.

One test per exit criterion, in order. Each test enforces its runtime
budget and prints a single PASS line (visible under pytest -v -s or in
the captured output); a failed assertion is the FAIL line.
"""

import time
from fractions import Fraction
from itertools import combinations

from bilip.cheeger import cheeger_exact, cheeger_family
from bilip.cli import main as cli_main
from bilip.ends import doubling_check, enumerate_ends, verify_ultrametric
from bilip.errors import NoBoundedMatching
from bilip.filling import build_filling, filling_sanity, make_space, nearest_center_map
from bilip.graph import Truncation
from bilip.promote import promote_matching, verify_promotion_consistency
from bilip.qimaps import tree_vertex_map
from bilip.trees import gen_kary, gen_path, gen_random_pseudo_regular, graft_dead_ends

from tree_fixtures import tree_facts

THIRD = Fraction(1, 3)
TREE_FAMILIES = ["balls", "level-bands", "descendant-subtrees", "random-connected"]
GRAPH_FAMILIES = ["balls", "level-bands", "random-connected"]


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over budget {self.limit}s"


def announce(number, name, budget):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({budget.elapsed:.1f}s / {budget.limit}s)")


def identity_suite():
    """The generated graphs the trivial-promotion criterion sweeps."""
    graphs = [
        ("kary-2-4", gen_kary(2, 4).trunc),
        ("kary-2-6", gen_kary(2, 6).trunc),
        ("kary-3-4", gen_kary(3, 4).trunc),
        ("pseudo-regular-7-3-6-4", gen_random_pseudo_regular(7, 3, 6, 4).trunc),
        ("grafted-2-5", graft_dead_ends(gen_kary(2, 5), 2, seed=1).trunc),
        (
            "cantor-filling-4",
            Truncation.from_graph(
                build_filling(make_space("cantor13", 8), THIRD, Fraction(1), 3, seed=0).graph
            ),
        ),
        (
            "interval-filling-4",
            Truncation.from_graph(
                build_filling(make_space("interval", 64), Fraction(1, 2), Fraction(1), 3, seed=0).graph
            ),
        ),
    ]
    return graphs


def test_criterion_01_cheeger_oracle_equivalence():
    budget = Budget(10)
    cantor = build_filling(make_space("cantor13", 8), THIRD, Fraction(15, 4), 5, seed=1)
    instances = [
        (gen_kary(2, 4).trunc, None),
        # paths and k-ary balls: many subsets share the least ratio, so
        # the size and vertex-tuple tie rules decide the argmin
        (gen_path(9).trunc, None),
        (gen_kary(3, 4).trunc, 4),
        (graft_dead_ends(gen_kary(2, 5), 2, seed=1).trunc, 4),
        (Truncation.from_graph(cantor.graph), 3),  # not a tree
    ]
    for trunc, max_size in instances:
        cert = cheeger_exact(trunc, 1, max_size=max_size)

        # independent enumerator: bitmask subsets, raw adjacency scans,
        # identical tie rule (ratio, then size, then vertex tuple)
        interior = sorted(trunc.interior(1))
        graph = trunc.graph
        best = None
        for size in range(1, (max_size or len(interior)) + 1):
            for combo in combinations(interior, size):
                inside = set(combo)
                boundary = set()
                for v in combo:
                    for u in graph.neighbors(v):
                        if u not in inside:
                            boundary.add(u)
                key = (Fraction(len(boundary), size), size, combo)
                if best is None or key < best:
                    best = key
        ratio, _size, argmin = best
        assert cert.best_ratio == ratio
        assert cert.argmin_set == argmin
    budget.check()
    announce(1, "cheeger oracle equivalence", budget)


def test_criterion_02_isoperimetric_positivity_trend():
    for k in (2, 3):
        ratios = {}
        for depth in (6, 8):
            budget = Budget(30)
            trunc = gen_kary(k, depth).trunc
            cert = cheeger_family(trunc, 1, TREE_FAMILIES, seed=0)
            assert cert.best_ratio > 0
            ratios[depth] = cert.best_ratio
            budget.check()
        drop = (ratios[6] - ratios[8]) / ratios[6]
        assert 0 <= drop <= Fraction(1, 10), f"k={k}: drop {drop} outside [0, 10%]"
    announce(2, "isoperimetric positivity trend", Budget(30))


def test_criterion_03_ultrametric_exactness():
    budget = Budget(10)
    big = enumerate_ends(gen_kary(2, 10))
    res = verify_ultrametric(big.table(), big.depth)
    assert res.passed and res.witness is None
    small = enumerate_ends(gen_kary(2, 6))
    res6 = verify_ultrametric(small.table(), small.depth)
    assert res6.passed and res6.witness is None
    # one raised entry breaks the 1,024-ray table, and the witness shows it
    rows = big.table()
    rows[3][900] = rows[900][3] = rows[3][900] + 1
    res = verify_ultrametric(rows, big.depth)
    assert not res.passed
    i, j, k = res.witness
    trio = sorted((rows[i][j], rows[j][k], rows[i][k]))
    assert len({i, j, k}) == 3 and trio[0] < trio[1]
    budget.check()
    announce(3, "ultrametric exactness", budget)


def test_criterion_04_doubling_bound():
    budget = Budget(5)
    t = gen_kary(2, 8)
    es = enumerate_ends(t)
    passed, observed = doubling_check(es)
    assert passed and observed <= es.mu**2 == 9

    # brute-force partition count, straight from the materialized table
    table = es.table()
    rays = tree_facts(t).rays
    worst = 1
    for f in range(es.n):
        for level in range(1, es.depth + 1):
            ball = [g for g in range(es.n) if table[f][g] >= level]
            if len(ball) <= 1:
                continue
            common = min(table[a][b] for a in ball for b in ball if a != b)
            step = min(common + 2, es.depth)
            worst = max(worst, len({rays[g][step] for g in ball}))
    assert observed == worst == 4
    budget.check()
    announce(4, "doubling bound", budget)


def test_criterion_05_trivial_promotion():
    for name, trunc in identity_suite():
        budget = Budget(1)
        ident = {v: v for v in trunc.graph.vertices()}
        res = promote_matching(ident, trunc, trunc, r_max=1, collar_w=1)
        assert res.r == 0, name
        assert res.bilip_constant == 1, name
        assert res.unmatched_y == (), name
        budget.check()
    announce(5, "trivial promotion", Budget(1))


def regular_pair_instance(depth_x, depth_y):
    tx, ty = gen_kary(3, depth_x), gen_kary(4, depth_y)
    vm = tree_vertex_map(tx, ty)
    res = promote_matching(vm, tx.trunc, ty.trunc, r_max=8, collar_w=2)
    return tx, ty, vm, res


def test_criterion_06_regular_tree_pair_promotes():
    budget = Budget(120)
    _, _, _, small = regular_pair_instance(7, 6)
    assert small.r <= 8
    assert small.confinement_width <= 2
    _, _, _, large = regular_pair_instance(9, 7)
    assert large.r <= small.r + 1
    assert abs(large.bilip_constant - small.bilip_constant) <= Fraction(1, 4) * small.bilip_constant
    budget.check()
    announce(6, "desk-scale promotion of regular trees", budget)


def stretched_instance(depth, r_max):
    x = graft_dead_ends(gen_kary(2, depth), lambda l: l, 7)
    y = gen_kary(2, depth)
    vm = tree_vertex_map(x, y)
    return promote_matching(vm, x.trunc, y.trunc, r_max=r_max, collar_w=1)


def test_criterion_07_negative_control():
    budget = Budget(120)
    shallow = stretched_instance(6, 8)
    try:
        deep = stretched_instance(12, 6)
        assert deep.r - shallow.r >= 2, (shallow.r, deep.r)
        # exact constants on both trees: the control's distortion grows
        assert deep.bilip_constant > shallow.bilip_constant, (
            shallow.bilip_constant, deep.bilip_constant)
    except NoBoundedMatching:
        pass  # equally a pass: the non-bilipschitz signal
    budget.check()
    announce(7, "stretched negative control", budget)


def filling_pair():
    space = make_space("cantor13", 9)
    fa = build_filling(space, THIRD, Fraction(15, 4), 7, seed=1)
    fb = build_filling(space, THIRD, Fraction(15, 4), 7, seed=2)
    return fa, fb


def test_criterion_08_filling_pair():
    budget = Budget(60)
    fa, fb = filling_pair()
    assert fa.level_sizes() == fb.level_sizes() == [1, 2, 4, 8, 16, 32, 64, 128]
    vm = nearest_center_map(fa, fb)
    ta = Truncation.from_graph(fa.graph)
    tb = Truncation.from_graph(fb.graph)
    res = promote_matching(vm, ta, tb, r_max=6, collar_w=1)
    assert res.confinement_width <= 1
    deg_a = filling_sanity(fa)["max_degree_per_level"]
    deg_b = filling_sanity(fb)["max_degree_per_level"]
    assert deg_a[3:7] == deg_b[3:7]
    assert len(set(deg_a[3:7])) == 1
    assert deg_a == deg_b
    budget.check()
    announce(8, "filling pair promotion", budget)


def test_criterion_09_proof_chain_consistency():
    budget = Budget(60)
    # identity instances from the trivial-promotion suite
    for name, trunc in identity_suite():
        families = TREE_FAMILIES if trunc.graph.is_tree else GRAPH_FAMILIES
        ident = {v: v for v in trunc.graph.vertices()}
        check, details = verify_promotion_consistency(ident, trunc, trunc, 1, families, seed=0)
        assert check.passed and check.witness is None, name
        assert details["deficiency_bound"] == 0, name
    # the regular-tree pair
    tx, ty = gen_kary(3, 7), gen_kary(4, 6)
    vm = tree_vertex_map(tx, ty)
    check, details = verify_promotion_consistency(
        vm, tx.trunc, ty.trunc, 1, TREE_FAMILIES, seed=0
    )
    assert check.passed and check.witness is None
    assert details["max_ratio"] <= details["criterion_constant"]
    # the filling pair
    fa, fb = filling_pair()
    ta = Truncation.from_graph(fa.graph)
    tb = Truncation.from_graph(fb.graph)
    check, details = verify_promotion_consistency(
        nearest_center_map(fa, fb), ta, tb, 1, GRAPH_FAMILIES, seed=0
    )
    assert check.passed and check.witness is None
    budget.check()
    announce(9, "proof-chain consistency", budget)


def test_criterion_10_determinism(tmp_path):
    budget = Budget(120)
    paths = {
        "tree": tmp_path / "tree.json",
        "quad": tmp_path / "quad.json",
        "fill": tmp_path / "fill.json",
        "cheeger": tmp_path / "cheeger.json",
        "ends": tmp_path / "ends.json",
        "qi": tmp_path / "qi.json",
        "promote": tmp_path / "promote.json",
        "verify": tmp_path / "verify.json",
        "dot": tmp_path / "tree.dot",
        "csv": tmp_path / "tree.csv",
    }
    snapshots = []
    for _ in range(2):
        assert cli_main(["gen-tree", "--kind", "kary", "--k", "3", "--depth", "4",
                         "--seed", "5", "--out", str(paths["tree"])]) == 0
        assert cli_main(["gen-tree", "--kind", "kary", "--k", "4", "--depth", "3",
                         "--seed", "5", "--out", str(paths["quad"])]) == 0
        assert cli_main(["fill", "--space", "cantor13", "--levels", "5", "--scale", "1/3",
                         "--seed", "5", "--out", str(paths["fill"])]) == 0
        assert cli_main(["cheeger", "--graph", str(paths["tree"]), "--collar", "1",
                         "--seed", "5", "--out", str(paths["cheeger"])]) == 0
        assert cli_main(["ends", "--graph", str(paths["tree"]), "--seed", "5",
                         "--out", str(paths["ends"])]) == 0
        assert cli_main(["qi", "--from", str(paths["tree"]), "--to", str(paths["quad"]),
                         "--seed", "5", "--out", str(paths["qi"])]) == 0
        assert cli_main(["promote", "--from", str(paths["tree"]), "--to", str(paths["quad"]),
                         "--seed", "5", "--out", str(paths["promote"])]) == 0
        assert cli_main(["verify", "--from", str(paths["tree"]), "--to", str(paths["quad"]),
                         "--seed", "5", "--out", str(paths["verify"])]) == 0
        assert cli_main(["export", "--graph", str(paths["tree"]), "--dot", str(paths["dot"]),
                         "--gromov-csv", str(paths["csv"])]) == 0
        snapshots.append({name: p.read_bytes() for name, p in paths.items()})
    assert snapshots[0] == snapshots[1]
    budget.check()
    announce(10, "pipeline determinism", budget)
