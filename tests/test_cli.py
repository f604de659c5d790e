import copy
import hashlib
import json
import tracemalloc
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilip import jsonio
from bilip.cli import main
from bilip.ends import enumerate_ends
from bilip.filling import build_filling, make_space
from bilip.trees import gen_kary

from tree_fixtures import tree_facts


def run(*argv):
    return main(list(argv))


def gen_tree(tmp_path, name, *extra):
    out = tmp_path / name
    assert run("gen-tree", *extra, "--out", str(out)) == 0
    return out


def test_gen_tree_kary_count(tmp_path):
    out = gen_tree(tmp_path, "t3.json", "--kind", "kary", "--k", "3", "--depth", "6")
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 1093
    assert data["root"] == 0
    assert data["meta"]["config"]["seed"] == 0


def test_gen_tree_missing_out_is_usage_error(tmp_path, capsys):
    assert run("gen-tree", "--kind", "kary", "--depth", "4") == 2
    capsys.readouterr()


def test_unknown_command_and_no_command(capsys):
    assert run("frobnicate") == 2
    assert run() == 2
    capsys.readouterr()


def test_fill_level_sizes(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run("fill", "--space", "cantor13", "--levels", "4", "--scale", "1/3", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "[1, 2, 4, 8]" in printed
    data = json.loads(out.read_text())
    levels = [v["level"] for v in data["vertices"]]
    assert sorted(levels) == [0] + [1] * 2 + [2] * 4 + [3] * 8


def test_fill_bad_values_are_input_errors(tmp_path, capsys):
    base = ["fill", "--space", "cantor13", "--levels", "3", "--out", str(tmp_path / "f.json")]
    for extra, message in (
        (["--scale", "x"], "bad rational value 'x'"),
        (["--scale", "1/0"], "bad rational value '1/0'"),
        (["--tau", "x"], "bad rational value 'x'"),
        (["--tau", "1/0"], "bad rational value '1/0'"),
        (["--scale", "0"], "scale must lie strictly between 0 and 1"),
        (["--resolution", "0"], "resolution must be >= 1"),
        (["--levels", str(10**30)], "vertex budget exceeded"),
        (["--resolution", str(10**30)], "point budget exceeded"),
    ):
        assert run(*base, *extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (extra, err)
    assert not (tmp_path / "f.json").exists()


def test_qi_sampled_constants_need_a_sample(tmp_path, capsys):
    # 511 vertices is above qi's exact limit, so the sampled stream runs
    t = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "8")
    for samples in ("0", "-5"):
        assert run("qi", "--from", str(t), "--to", str(t), "--samples", samples,
                   "--out", str(tmp_path / "qi.json")) == 2
        assert capsys.readouterr().err == "error: samples must be at least 1\n"
    assert run("qi", "--from", str(t), "--to", str(t), "--samples", "1",
               "--out", str(tmp_path / "qi.json")) == 0
    capsys.readouterr()


def test_cheeger_certificate(tmp_path):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "4")
    out = tmp_path / "cert.json"
    assert run("cheeger", "--graph", str(tree), "--collar", "1", "--exact-max", "7", "--out", str(out)) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["best_ratio"] == {"num": 8, "den": 7}
    assert cert["method"] == "exact"


def test_cheeger_missing_file_is_input_error(tmp_path, capsys):
    assert run("cheeger", "--graph", str(tmp_path / "nope.json")) == 2
    assert "error" in capsys.readouterr().err


def test_ends_checks_pass(tmp_path):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "6")
    out = tmp_path / "ends.json"
    assert run("ends", "--graph", str(tree), "--check", "ultrametric,doubling,perfect", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["rays"] == 64
    assert all(entry["passed"] for entry in report["results"].values())


def test_ends_property_failure_exits_one(tmp_path, capsys):
    from bilip import jsonio
    from bilip.trees import gen_path

    path_tree = tmp_path / "path.json"
    jsonio.save_json(path_tree, jsonio.graph_to_dict(gen_path(5).graph))
    out = tmp_path / "report.json"
    # a single ray has no neighbor at any scale, so perfectness fails
    assert run("ends", "--graph", str(path_tree), "--check", "perfect", "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert report["results"]["perfect"]["passed"] is False
    capsys.readouterr()


def test_ends_rejects_incomplete_tree(tmp_path, capsys):
    tree = gen_tree(tmp_path, "g.json", "--kind", "grafted", "--depth", "5", "--dead-end-len", "2")
    assert run("ends", "--graph", str(tree)) == 2
    assert "complete_core" in capsys.readouterr().err


def test_qi_writes_constants(tmp_path):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "4")
    b = gen_tree(tmp_path, "b.json", "--kind", "kary", "--k", "4", "--depth", "2")
    out = tmp_path / "map.json"
    assert run("qi", "--from", str(a), "--to", str(b), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["map"]) == 31
    assert data["meta"]["constants"]["surj_radius"] == 0


def test_promote_identity(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "4")
    out = tmp_path / "m.json"
    assert run("promote", "--from", str(a), "--to", str(a), "--map", "identity", "--rmax", "2", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "r=0" in printed and "L=1/1" in printed
    report = json.loads(out.read_text())
    assert report["promoted"] is True
    assert report["matching"]["r"] == 0
    assert report["matching"]["unmatched_y"] == []


def test_promote_failure_exit_code(tmp_path, capsys):
    x = gen_tree(tmp_path, "s.json", "--kind", "stretched", "--depth", "6", "--seed", "7")
    y = gen_tree(tmp_path, "b.json", "--kind", "kary", "--k", "2", "--depth", "6")
    out = tmp_path / "m.json"
    assert run("promote", "--from", str(x), "--to", str(y), "--rmax", "0", "--out", str(out)) == 1
    assert "failed" in capsys.readouterr().err
    assert json.loads(out.read_text())["promoted"] is False


def test_promote_to_one_pair_has_constant_one(tmp_path, capsys):
    """Three vertices sent to the root of a 2-vertex path promote at r = 0
    with the root matched alone: one pair has no distance to distort."""
    x = gen_tree(tmp_path, "k2d1.json", "--kind", "kary", "--k", "2", "--depth", "1")
    y = tmp_path / "path.json"
    y.write_text(json.dumps({"vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 1}],
                             "edges": [[0, 1]], "root": 0}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"map": {"0": 0, "1": 0, "2": 0}}))
    out = tmp_path / "p.json"
    assert run("promote", "--from", str(x), "--to", str(y), "--map", str(m),
               "--collar", "0", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "r=0" in printed and "L=1/1" in printed
    matching = json.loads(out.read_text())["matching"]
    assert matching["pairs"] == {"0": 0}
    assert matching["bilip_constant"] == {"num": 1, "den": 1}


def test_promote_stops_once_balls_cover_the_target(tmp_path, capsys, monkeypatch):
    """Sending every vertex to one target vertex fails at every radius; once
    the ball around it is all of Y no larger radius can change that, so a
    huge --rmax fails at once with the report of a small one."""
    from bilip.graph import UdbgGraph

    x = gen_tree(tmp_path, "k3d6.json", "--kind", "kary", "--k", "3", "--depth", "6")
    y = gen_tree(tmp_path, "k2d4.json", "--kind", "kary", "--k", "2", "--depth", "4")
    to_root = tmp_path / "to_root.json"
    to_root.write_text(json.dumps({"map": {str(v): 0 for v in range(1093)}}))
    calls = []
    ball = UdbgGraph.ball
    monkeypatch.setattr(UdbgGraph, "ball", lambda g, v, r: calls.append(r) or ball(g, v, r))
    reports = {}
    for rmax in ("10", "1000000"):
        out = tmp_path / f"p{rmax}.json"
        assert run("promote", "--from", str(x), "--to", str(y), "--map", str(to_root),
                   "--rmax", rmax, "--out", str(out)) == 1
        reports[rmax] = json.loads(out.read_text())
    capsys.readouterr()
    assert calls == [1, 2, 3, 4] * 2  # the root's ball is all of Y at radius 4
    small, huge = reports["10"], reports["1000000"]
    assert (small["r_max"], huge["r_max"]) == (10, 1000000)
    assert huge["config"]["stages"]["promote"].pop("rmax") == 1000000
    assert small["config"]["stages"]["promote"].pop("rmax") == 10
    del small["r_max"], huge["r_max"]
    assert small == huge
    assert small["promoted"] is False and small["unsaturated"] > 0


def test_promote_identity_size_mismatch(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "3")
    b = gen_tree(tmp_path, "b.json", "--kind", "kary", "--k", "2", "--depth", "4")
    assert run("promote", "--from", str(a), "--to", str(b), "--map", "identity") == 2
    capsys.readouterr()


def test_promote_with_explicit_ends_strategy(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "3", "--depth", "4")
    b = gen_tree(tmp_path, "b.json", "--kind", "kary", "--k", "4", "--depth", "3")
    out = tmp_path / "m.json"
    assert run("promote", "--from", str(a), "--to", str(b), "--map", "ends",
               "--rmax", "6", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["matching"]["confinement_width"] <= 2
    capsys.readouterr()


def test_promote_between_fillings(tmp_path, capsys):
    fa = tmp_path / "fa.json"
    fb = tmp_path / "fb.json"
    for path, seed in ((fa, 1), (fb, 2)):
        assert run("fill", "--space", "cantor13", "--levels", "5", "--scale", "1/3",
                   "--tau", "15/4", "--seed", str(seed), "--out", str(path)) == 0
    out = tmp_path / "m.json"
    assert run("promote", "--from", str(fa), "--to", str(fb), "--rmax", "4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["promoted"] is True
    assert report["config"]["stages"]["promote"]["map"] == "nearest-center"
    capsys.readouterr()


def test_promote_measures_large_fillings_exactly(tmp_path, monkeypatch, capsys):
    """1,256 matched filling vertices: every pair is measured, and the
    constant is 4, which 60,000 sampled pairs miss (they find 3)."""
    from bilip import qimaps

    def no_sampling(*args):
        raise AssertionError("promote sampled its pairs")

    monkeypatch.setattr(qimaps, "_sampled_values", no_sampling)
    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    for path, seed in ((fa, 1), (fb, 2)):
        assert run("fill", "--space", "interval", "--levels", "11", "--scale", "1/2",
                   "--tau", "2", "--seed", str(seed), "--out", str(path)) == 0
    out = tmp_path / "p.json"
    assert run("promote", "--from", str(fa), "--to", str(fb), "--map", "nearest-center",
               "--rmax", "6", "--collar", "1", "--out", str(out)) == 0
    matching = json.loads(out.read_text())["matching"]
    assert len(matching["pairs"]) == 1256
    assert matching["bilip_constant"] == {"num": 4, "den": 1}
    capsys.readouterr()


def test_nearest_center_needs_every_level(tmp_path, capsys):
    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    for path, seed in ((fa, 1), (fb, 2)):
        assert run("fill", "--space", "cantor13", "--levels", "3", "--scale", "1/3",
                   "--seed", str(seed), "--out", str(path)) == 0
    data = json.loads(fb.read_text())
    del data["root"]  # without a root, levels may skip
    empty_level = copy.deepcopy(data)
    for entry in empty_level["vertices"]:
        entry["level"] = 2 if entry["level"] == 1 else entry["level"]
    unlabelled = copy.deepcopy(data)
    for entry in unlabelled["vertices"]:
        del entry["level"]
    for edited, message in ((empty_level, "no center at level 1"),
                            (unlabelled, "needs a level on every vertex")):
        fb.write_text(json.dumps(edited))
        assert run("promote", "--from", str(fa), "--to", str(fb), "--map", "nearest-center",
                   "--out", str(tmp_path / "p.json")) == 2
        assert message in capsys.readouterr().err


def test_verify_passes(tmp_path):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "3", "--depth", "4")
    b = gen_tree(tmp_path, "b.json", "--kind", "kary", "--k", "4", "--depth", "3")
    out = tmp_path / "v.json"
    assert run("verify", "--from", str(a), "--to", str(b), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True and report["witness"] is None


def test_export_round_trip_and_formats(tmp_path):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "3")
    back = tmp_path / "back.json"
    dot = tmp_path / "t.dot"
    csv = tmp_path / "t.csv"
    assert run("export", "--graph", str(tree), "--json", str(back), "--dot", str(dot), "--gromov-csv", str(csv)) == 0
    assert back.read_bytes() == tree.read_bytes()
    data = json.loads(tree.read_text())
    dot_text = dot.read_text()
    assert dot_text.count(" -- ") == len(data["edges"])
    declared = sum(1 for line in dot_text.splitlines() if line.strip().startswith("v") and "--" not in line)
    assert declared == len(data["vertices"])
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 8 + 1
    assert all(len(line.split(",")) == 8 + 1 for line in lines)


def test_gromov_csv_bytes_and_memory(tmp_path, capsys):
    small = gen_tree(tmp_path, "k3d4.json", "--kind", "kary", "--k", "3", "--depth", "4")
    csv = tmp_path / "k3d4.csv"
    assert run("export", "--graph", str(small), "--gromov-csv", str(csv)) == 0
    es = enumerate_ends(gen_kary(3, 4))
    rows = [",".join(["ray"] + [str(j) for j in range(es.n)])]
    rows += [",".join([str(i)] + [str(es.product(i, j)) for j in range(es.n)]) for i in range(es.n)]
    assert csv.read_text() == "\n".join(rows) + "\n"
    # pinned bytes of the same export
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "4640a8505178b665d861771cfc9a4eb501f9996c833fd92d75ee80cd89884e9f")

    # 2,187 rays, 4.8 million cells: written one row at a time, in O(rays) memory
    big = gen_tree(tmp_path, "k3d7.json", "--kind", "kary", "--k", "3", "--depth", "7")
    tracemalloc.start()
    try:
        assert run("export", "--graph", str(big), "--gromov-csv", str(tmp_path / "k3d7.csv")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    capsys.readouterr()


def test_ends_takes_no_mode_and_ignores_samples(tmp_path, capsys):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "3")
    assert run("ends", "--graph", str(tree), "--mode", "exhaustive") == 2
    assert run("ends", "--graph", str(tree), "--samples", "5") == 0
    capsys.readouterr()


def test_export_requires_a_target(tmp_path, capsys):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "3")
    assert run("export", "--graph", str(tree)) == 2
    capsys.readouterr()


def test_reruns_are_byte_identical(tmp_path):
    t = tmp_path / "t.json"
    m = tmp_path / "m.json"
    outputs = []
    for _ in range(2):
        assert run("gen-tree", "--kind", "pseudo-regular", "--depth", "6", "--branch-K", "2",
                   "--mu", "4", "--seed", "3", "--out", str(t)) == 0
        assert run("promote", "--from", str(t), "--to", str(t), "--map", "identity",
                   "--rmax", "1", "--out", str(m)) == 0
        outputs.append((t.read_bytes(), m.read_bytes()))
    assert outputs[0] == outputs[1]


def test_malformed_graph_json_is_input_error(tmp_path, capsys):
    bad_edge = {"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 5]]}
    bad_level = {"vertices": [{"id": 0, "level": 0}, {"id": 1, "level": "1"}],
                 "edges": [[0, 1]], "root": 0}
    for name, graph, message in (
        ("edge.json", bad_edge, "outside 0..1"),
        ("level.json", bad_level, "must be an integer"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(graph))
        assert run("cheeger", "--graph", str(path), "--collar", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
    # text the JSON decoder cannot take: nesting past the recursion limit,
    # bytes that are not UTF-8, an int literal past the digit limit
    for name, raw in (
        ("deep.json", b"[" * 100_000),
        ("utf16.json", b"\xff\xfe" + '{"vertices": []}'.encode("utf-16-le")),
        ("digits.json", b'{"vertices": [{"id": ' + b"7" * 5000 + b'}], "edges": []}'),
    ):
        path = tmp_path / name
        path.write_bytes(raw)
        assert run("cheeger", "--graph", str(path)) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON in ") and "Traceback" not in err, name


def test_construction_budget_error_exit_code(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("gen-tree", "--kind", "kary", "--k", "3", "--depth", "30", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex budget exceeded")
    assert err.count("\n") == 1
    assert not out.exists()


# (command, SHA-256 of the report it writes to --out), run on trees, fillings
# and a map file made in the test directory; relative paths keep the embedded config
# independent of that directory.
PINNED_REPORTS = (
    # the generated trees themselves, one per generator kind; x and y are
    # also the inputs of the first promote below
    ("gen-tree --kind kary --k 3 --depth 6 --out x.json",
     "a31a52e0fba292169a590b918f6e898966ef130320310fa1768bdede3af2af28"),
    ("gen-tree --kind kary --k 4 --depth 5 --out y.json",
     "51e8bafb34c5d865c7629a35ae1ddb1f1c0cf1d32bc64a39ee552ca032503ec1"),
    ("gen-tree --kind stretched --depth 6 --seed 7 --out s6.json",
     "1d56108a8a6cc28bb7573b124a13c18d685db6e0e97f7954543410be5720df51"),
    ("gen-tree --kind grafted --k 3 --depth 5 --dead-end-len 3 --seed 2 --out g.json",
     "d0367de658d657b9de9f11b04899259fc45e6774b9ea1ea8509dd744c33f4ec2"),
    ("gen-tree --kind pseudo-regular --depth 6 --branch-K 2 --mu 4 --seed 3 --out pr.json",
     "e59fb7970f61500eb637f9dfa8d931449feb9692289ee12f1779bae9b4553449"),
    # 3-ary d6 -> 4-ary d5 leaves 475 unmatched targets on the truncation
    # sphere and 7 one level in, so the confinement sweep's pruning of
    # depth-0 targets is exercised
    ("promote --from x.json --to y.json --map ends --collar 2 --seed 0 --out p.json",
     "245d359027bf5c538db784c8cd687d0a702073a48c0d372ffe8f65094196436d"),
    # sampled qi_constants: 1,093 and 1,365 vertices are above the exact limit
    ("qi --from x.json --to y.json --samples 5000 --out qi.json",
     "2c6319904f20c8d0b36666260b611e98ca3ed2d7e4d52279a44f6c5d914b4941"),
    # 81 rays: ultrametric by identity, doubling and disconnection checks
    # over the agreement hierarchy
    ("ends --graph k3d4.json --out ends.json",
     "6c611b8285238cdfb5650234b648d5d952d8ddc46fdcba7d636323adf8e3cdb1"),
    # 3,280 source vertices, 2,820 matched: between two trees L = 6 is
    # exact at any size, from the pairs no other matched vertex separates
    ("promote --from k3d7.json --to k4d6.json --map ends --collar 2 --out p7.json",
     "b62381eebcc4dc56190570ee6f21867012c9b6370e53c2b3e6bc9e28fc8a54fb"),
    # 2,187 rays: ultrametric by identity, perfectness over both chains;
    # --samples is accepted and ignored
    ("ends --graph k3d7.json --samples 200000 --out ends.json",
     "c3b300f94ec4ba9aa539d8cd0830a98d5a6d9e46ffe716e3cbb35ece93f9c360"),
    # 206,367 subsets of a 31-vertex interior, incremental boundary counts
    ("cheeger --graph k2d6.json --collar 1 --exact-max 5 --out cx.json",
     "27ae4215bc95253df9d16e4542d9eeeef67d96d2c49ac388299e3e52173a6e03"),
    # sampled c_mult and d_add from one pass over 50,000 pairs
    ("qi --from k3d7.json --to k4d6.json --out qi7.json",
     "aa5aed69409b0858c9e61f1f5c9a9249994dbfb6670bce3f22dd41485bc60de8"),
    # ball families grown once per centre
    ("verify --from k3d7.json --to k4d6.json --collar 1 "
     "--families balls,level-bands,descendant-subtrees,random-connected --out v.json",
     "c1f7bd04c943b86f918d386af1da3937f0491b463971f857398bb6cea7a9a13a"),
    # stretched source: complete_core prunes its dead ends before the end map
    ("promote --from s6.json --to k2d6.json --map ends --collar 1 --out ps.json",
     "8fbf4941e4dfb8835e1e2d725f8a790e3d74217fee05120345bee162ef61c07a"),
    # fillings loaded once for both the graph and the nearest-center map
    ("promote --from fa.json --to fb.json --map nearest-center --collar 1 --out pf.json",
     "314885a7af28b3de37b8d6e2f6216b9fabbeefe2fec2bb3a444e0365b75612db"),
    # a non-tree promotion that first succeeds at r = 1: balls, the
    # distance to the map and exact distortion all run on fillings
    ("promote --from i0.json --to i2.json --map nearest-center --collar 1 --out pi.json",
     "8164c9ac7a2c18e9712c211ab3d745ab9c0ac9d4f23df11c7859372f8b0dc2e8"),
    # the filling files themselves: the benchmark's 511-vertex Cantor
    # filling, and grids whose nets and windows wrap on the circle
    ("fill --space cantor13 --levels 9 --resolution 10 --scale 1/3 --tau 15/4 --seed 1 "
     "--out fill10.json",
     "3e7dd19ebc39c85f37b34848c7719ce4c4037434bef40bf57c86a3e6c5611725"),
    ("fill --space interval --levels 8 --resolution 512 --scale 1/2 --tau 1 --seed 3 "
     "--out fi.json",
     "20fae04cad77ed7a73eff3b16afaedc6584726d5a6d6bc0b4d09ae62d71ae72e"),
    ("fill --space circle --levels 8 --resolution 512 --scale 1/2 --tau 3/2 --seed 3 "
     "--out fc.json",
     "90a3fcc85b8e8ee76dbb36836215ff58e4fd83073cbbee681cd94e366fd4a746"),
    # descendant subtrees of a tree with dead ends, which is not complete
    ("cheeger --graph g.json --collar 1 "
     "--families balls,level-bands,descendant-subtrees,random-connected --out cg.json",
     "e31b6b632afe2bd0fd422724fb883f29499e050c1e643dd6ea80a36cb66e3beb"),
    # exact qi_constants: 364 and 341 vertices, every pair from one BFS row
    # per source on each side
    ("qi --from k3d5.json --to k4d4.json --out qe.json",
     "95f769b0e4ad7fef50ad380d729a5c7e49ad372f0d3d1026e8a3ba50ec34337f"),
    # the end map onto g.json retracts its dead ends onto the core
    ("qi --from pr.json --to g.json --out qg.json",
     "e76f0ea7ee28e3d3bbac4600ed0e98cec2f1f0616ef750bec3b04caa6b62ffed"),
    # a 63-vertex cantor13 bijection: L = 2 measured off trees
    ("promote --from c6a.json --to c6b.json --map nearest-center --collar 1 --out pc6.json",
     "dbb277adf15910abe2e80e909f439ca2b54b7192956fb4f5aa87f96d95b99208"),
    # the stretched control at depth 9: promotes at r = 2 with L = 8
    ("promote --from s9.json --to k2d9.json --map ends --rmax 6 --collar 1 --seed 7 "
     "--out pst.json",
     "09eab405db9b2dc132eea7e79d2c0f5036da5c20f6c52e0ca4a7129478f08d1e"),
    # a tree into a larger filling by a map file: 6 images missing from a
    # non-tree side, L = 8
    ("promote --from k3d4.json --to c7.json --map m.json --collar 1 --out pm.json",
     "2855357071c228447ece25d7b16e4706e01aa7787ef6c530eba0f624e53f1cbb"),
)

PINNED_INPUTS = (
    "fill --space cantor13 --levels 5 --scale 1/3 --tau 15/4 --seed 1 --out fa.json",
    "fill --space cantor13 --levels 5 --scale 1/3 --tau 15/4 --seed 2 --out fb.json",
    "fill --space interval --levels 6 --scale 1/2 --tau 3/2 --seed 0 --out i0.json",
    "fill --space interval --levels 6 --scale 1/2 --tau 3/2 --seed 2 --out i2.json",
    "fill --space cantor13 --levels 6 --scale 1/3 --tau 15/4 --seed 3 --out c6a.json",
    "fill --space cantor13 --levels 6 --scale 1/3 --tau 15/4 --seed 4 --out c6b.json",
    "fill --space cantor13 --levels 7 --scale 1/3 --tau 15/4 --seed 3 --out c7.json",
    "gen-tree --kind stretched --depth 9 --seed 7 --out s9.json",
    "gen-tree --kind kary --k 2 --depth 9 --out k2d9.json",
    "gen-tree --kind kary --k 3 --depth 5 --out k3d5.json",
    "gen-tree --kind kary --k 4 --depth 4 --out k4d4.json",
)


def test_promote_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, k, depth in (("k3d4.json", 3, 4), ("k3d7.json", 3, 7), ("k4d6.json", 4, 6),
                           ("k2d6.json", 2, 6)):
        assert run("gen-tree", "--kind", "kary", "--k", str(k), "--depth", str(depth),
                   "--out", name) == 0
    for command in PINNED_INPUTS:
        assert run(*command.split()) == 0
    (tmp_path / "m.json").write_text(json.dumps({"map": {str(v): v for v in range(121)}}))
    for command, digest in PINNED_REPORTS:
        argv = command.split()
        assert run(*argv) == 0
        report = tmp_path / argv[argv.index("--out") + 1]
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, command
    capsys.readouterr()


def test_promote_builds_one_graph_per_input_file(tmp_path, monkeypatch, capsys):
    from bilip.graph import UdbgGraph

    x = gen_tree(tmp_path, "x.json", "--kind", "kary", "--k", "3", "--depth", "4")
    y = gen_tree(tmp_path, "y.json", "--kind", "kary", "--k", "4", "--depth", "3")
    built = []
    init = UdbgGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UdbgGraph, "__init__", counting_init)
    assert run("promote", "--from", str(x), "--to", str(y), "--map", "ends",
               "--out", str(tmp_path / "p.json")) == 0
    assert len(built) == 2
    capsys.readouterr()


def test_vertex_budget_on_load(tmp_path, monkeypatch, capsys):
    tree = gen_tree(tmp_path, "t.json", "--kind", "kary", "--k", "2", "--depth", "3")
    monkeypatch.setattr(jsonio, "DEFAULT_VERTEX_BUDGET", 14)
    assert run("ends", "--graph", str(tree)) == 2
    assert capsys.readouterr().err == "error: vertex budget exceeded: 15 > 14\n"
    monkeypatch.setattr(jsonio, "DEFAULT_VERTEX_BUDGET", 15)
    assert run("ends", "--graph", str(tree)) == 0
    capsys.readouterr()


def test_trees_deeper_than_the_recursion_limit(tmp_path, capsys):
    from bilip.trees import gen_path

    deep = tmp_path / "deep.json"
    jsonio.save_json(deep, jsonio.graph_to_dict(gen_path(1200).graph))
    # a single ray has no neighbour at any scale, so perfectness fails
    assert run("ends", "--graph", str(deep), "--check", "perfect") == 1
    assert run("qi", "--from", str(deep), "--to", str(deep), "--samples", "2000",
               "--out", str(tmp_path / "qi.json")) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_map_file_must_hold_an_object(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "3")
    bad = tmp_path / "maplist.json"
    bad.write_text(json.dumps({"map": [1, 2]}))
    assert run("promote", "--from", str(a), "--to", str(a), "--map", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'map' object" in err


def test_map_keys_must_name_each_vertex_once(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "3")
    identity = [(str(v), v) for v in range(15)]
    spaced = [(" 3" if k == "3" else k, v) for k, v in identity]
    # int() reads "01" and " 3" as 1 and 3: the first would silently
    # remap vertex 1 to 9, the second would pass as vertex 3; json.loads
    # keeps the last of two literal "1" keys, which would remap it too
    for name, entries, key in (("dup.json", identity + [("01", 9)], "'01'"),
                               ("space.json", spaced, "' 3'"),
                               ("twice.json", identity + [("1", 9)], "'1' appears twice")):
        bad = tmp_path / name
        members = ", ".join(f"{json.dumps(k)}: {v}" for k, v in entries)
        bad.write_text(f'{{"map": {{{members}}}}}')
        assert run("promote", "--from", str(a), "--to", str(a), "--map", str(bad)) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err, name


def test_files_with_the_dropped_meta_fields_load_the_same(tmp_path, monkeypatch, capsys):
    """Tree files used to carry meta.parent and fillings meta.radius;
    readers ignore both, so the reports on such files are the same bytes."""
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    monkeypatch.chdir(new)
    for command in ("gen-tree --kind kary --k 2 --depth 4 --out t.json",
                    "gen-tree --kind grafted --k 3 --depth 3 --dead-end-len 2 --seed 1 "
                    "--out u.json",
                    "fill --space interval --levels 5 --scale 1/2 --tau 3/2 --seed 0 --out f.json",
                    "fill --space interval --levels 5 --scale 1/2 --tau 3/2 --seed 2 --out h.json"):
        assert run(*command.split()) == 0
    for name in ("t.json", "u.json"):
        data = json.loads((new / name).read_text())
        assert "parent" not in data["meta"]
        tree = jsonio.tree_from_graph(jsonio.graph_from_dict(data)[0])
        data["meta"]["parent"] = tree_facts(tree).parent
        jsonio.save_json(old / name, data)
    for name in ("f.json", "h.json"):
        data = json.loads((new / name).read_text())
        assert "radius" not in data["meta"]
        data["meta"]["radius"] = [jsonio.rational(Fraction(1, 2) ** v["level"])
                                  for v in data["vertices"]]
        jsonio.save_json(old / name, data)
    commands = (
        "promote --from t.json --to u.json --map ends --collar 1 --out p.json",
        "qi --from t.json --to u.json --out qi.json",
        "ends --graph t.json --out e.json",
        "cheeger --graph u.json --collar 1 --out c.json",
        "promote --from f.json --to h.json --map nearest-center --collar 1 --out pf.json",
        "cheeger --graph f.json --collar 1 --out cf.json",
    )
    reports = {}
    for directory in (new, old):
        monkeypatch.chdir(directory)
        for command in commands:
            argv = command.split()
            assert run(*argv) == 0, command
            out = argv[argv.index("--out") + 1]
            reports.setdefault(out, []).append((directory / out).read_bytes())
    assert all(a == b for a, b in reports.values())
    capsys.readouterr()


def test_graph_meta_must_be_an_object(tmp_path, capsys):
    g = tmp_path / "g.json"
    data = jsonio.graph_to_dict(gen_kary(2, 3).graph)
    data["meta"] = 5
    g.write_text(json.dumps(data))
    assert run("promote", "--from", str(g), "--to", str(g)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'meta' must be an object" in err


def test_negative_collar_is_input_error(tmp_path, capsys):
    a = gen_tree(tmp_path, "a.json", "--kind", "kary", "--k", "2", "--depth", "4")
    for argv in (
        ("cheeger", "--graph", str(a)),
        ("promote", "--from", str(a), "--to", str(a), "--map", "identity"),
        ("verify", "--from", str(a), "--to", str(a), "--map", "identity"),
    ):
        assert run(*argv, "--collar", "-1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: collar width must be nonnegative"), argv


VALID_TREE = jsonio.graph_to_dict(gen_kary(2, 3).graph)
VALID_MAP = jsonio.vertex_map_to_dict({v: v for v in range(15)})
VALID_FILLING = jsonio.filling_to_dict(
    build_filling(make_space("cantor13", 5), Fraction(1, 3), Fraction(15, 4), 3, seed=1)
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def key_paths(node, prefix=()):
    """Every key path into a JSON document, the empty path first."""
    yield prefix
    if isinstance(node, dict):
        for key in sorted(node):
            yield from key_paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from key_paths(item, prefix + (i,))


@st.composite
def perturbed(draw, valid):
    """valid with one to three edits, each at a key path drawn uniformly
    from the whole document: a value replaced by arbitrary JSON (wrong
    types, out-of-range ids) or a key or list entry removed."""
    doc = {"doc": copy.deepcopy(valid)}
    for _ in range(draw(st.integers(1, 3))):
        path = ("doc",) + draw(st.sampled_from(list(key_paths(doc["doc"]))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        key = path[-1]
        if node is doc or draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
    return doc["doc"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_perturbed_json_keeps_the_exit_code_contract(tmp_path, data, capsys):
    tree, vmap = tmp_path / "tree.json", tmp_path / "map.json"
    tree.write_text(json.dumps(VALID_TREE))
    command = data.draw(st.sampled_from(["cheeger", "ends", "export", "promote", "nearest-center"]))
    if command == "nearest-center":
        source, target = tmp_path / "fa.json", tmp_path / "fb.json"
        source.write_text(json.dumps(VALID_FILLING))
        target.write_text(json.dumps(data.draw(perturbed(VALID_FILLING))))
        argv = ["promote", "--from", source, "--to", target, "--map", "nearest-center",
                "--rmax", "2"]
    elif command == "promote":
        vmap.write_text(json.dumps(data.draw(perturbed(VALID_MAP))))
        target = tree
        if data.draw(st.booleans()):
            target = tmp_path / "target.json"
            target.write_text(json.dumps(data.draw(perturbed(VALID_TREE))))
        argv = ["promote", "--from", tree, "--to", target, "--map", vmap, "--rmax", "2"]
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data.draw(perturbed(VALID_TREE))))
        argv = {
            "cheeger": ["cheeger", "--graph", bad],
            "ends": ["ends", "--graph", bad],
            "export": ["export", "--graph", bad, "--json", tmp_path / "o.json",
                       "--dot", tmp_path / "o.dot", "--gromov-csv", tmp_path / "o.csv"],
        }[command]
    assert run(*map(str, argv)) in (0, 1, 2)
    capsys.readouterr()


# One valid command line per generator path; the perturbation below swaps
# one option value for a bad one. The tree file is VALID_TREE (15
# vertices), small enough for exact qi and exact Cheeger.
VALID_ARGV = (
    "fill --space cantor13 --levels 3 --scale 1/3 --tau 15/4 --resolution 5 --seed 1 --out o.json",
    "fill --space interval --levels 3 --scale 1/2 --tau 1 --seed 1 --out o.json",
    "gen-tree --kind kary --k 2 --depth 3 --out o.json",
    "gen-tree --kind pseudo-regular --depth 3 --branch-K 2 --mu 4 --seed 1 --out o.json",
    "gen-tree --kind grafted --k 2 --depth 3 --dead-end-len 2 --seed 1 --out o.json",
    "gen-tree --kind stretched --k 2 --depth 3 --seed 1 --out o.json",
    "qi --from t.json --to t.json --samples 100 --seed 0 --out o.json",
    "promote --from t.json --to t.json --map identity --rstart 0 --rmax 2 --collar 1 --seed 0 "
    "--out o.json",
    "cheeger --graph t.json --collar 1 --exact-max 3 --seed 0 --out o.json",
    "cheeger --graph t.json --collar 1 --families balls,level-bands --seed 0 --out o.json",
)
BAD_VALUES = ("x", "1/0", "0", "-1", "", str(10**30))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_perturbed_argv_keeps_the_exit_code_contract(tmp_path, monkeypatch, data, capsys):
    """Huge sizes must be refused by the vertex and point budgets before
    any work starts; a hang here is a budget checked too late."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps(VALID_TREE))
    argv = data.draw(st.sampled_from(VALID_ARGV)).split()
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
    i = data.draw(st.sampled_from(values))
    argv[i] = data.draw(st.sampled_from(BAD_VALUES))
    assert run(*argv) in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err, argv
