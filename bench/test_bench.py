"""Self-tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import clock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- self time ------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 1, "leaf", 20, 30),
        (3, 0, "b", 50, 90),
        (4, -1, "a", 200, 205),
    ]
    assert tracer.self_times(spans) == {
        "root": (1, 100 - 30 - 40),
        "a": (2, (30 - 10) + 5),
        "leaf": (1, 10),
        "b": (1, 40),
    }


def test_span_log_nests_and_records_parents():
    log = tracer.SpanLog()
    with log.span("outer"):
        with log.span("inner"):
            pass
        with log.span("inner"):
            pass
    spans = log.spans()
    assert [(s[0], s[1], s[2]) for s in spans] == [(0, -1, "outer"), (1, 0, "inner"), (2, 0, "inner")]
    outer_self = tracer.self_times(spans)["outer"][1]
    assert 0 <= outer_self <= spans[0][4] - spans[0][3]


# -- checker --------------------------------------------------------------


def _binary_tree(depth):
    n = 2 ** (depth + 1) - 1
    return {
        "vertices": [{"id": v, "level": (v + 1).bit_length() - 1} for v in range(n)],
        "edges": [[(v - 1) // 2, v] for v in range(1, n)],
        "root": 0,
    }


def _identity_report(n, collar):
    return {
        "promoted": True,
        "matching": {
            "pairs": {str(v): v for v in range(n)},
            "r": 0,
            "collar_w": collar,
            "unmatched_y": [],
            "confinement_width": 0,
            "distance_to_map": 0,
            "n_x": n,
            "n_y": n,
            "bilip_constant": {"num": 1, "den": 1},
        },
    }


def _check(report, g, vmap):
    return checker.check_promotion(report, g, g, expect_r=0, collar=1, width_bound=1,
                                   vertex_map=vmap)


def test_checker_accepts_identity_and_rejects_corruptions():
    g = checker.graph_from_raw(_binary_tree(4))
    vmap = {v: v for v in range(g.n)}
    good = _identity_report(g.n, collar=1)
    assert _check(good, g, vmap) == []

    duplicate = copy.deepcopy(good)
    duplicate["matching"]["pairs"]["1"] = 2
    duplicate["matching"]["unmatched_y"] = [1]
    assert any("injective" in p for p in _check(duplicate, g, vmap))

    far = copy.deepcopy(good)
    far["matching"]["pairs"]["0"], far["matching"]["pairs"]["30"] = 30, 0
    assert any("outside radius" in p for p in _check(far, g, vmap))

    hole = copy.deepcopy(good)
    del hole["matching"]["pairs"]["0"]  # the root is interior
    hole["matching"]["unmatched_y"] = [0]
    hole["matching"]["confinement_width"] = 4
    problems = checker.check_promotion(hole, g, g, expect_r=0, collar=1, width_bound=4)
    assert any("interior source vertices unmatched" in p for p in problems)

    shallow = copy.deepcopy(good)
    del shallow["matching"]["pairs"]["30"]  # a deepest-level source: may stay unmatched
    shallow["matching"]["unmatched_y"] = [30]
    assert _check(shallow, g, None) == []

    wrong_r = copy.deepcopy(good)
    wrong_r["matching"]["distance_to_map"] = 1
    assert any("exceeds" in p for p in _check(wrong_r, g, vmap))


def test_checker_rejects_wrong_cheeger_argmin():
    g = checker.graph_from_raw(_binary_tree(6))
    report = {"certificate": {"best_ratio": {"num": 6, "den": 5}, "argmin_set": [1, 3, 4]}}
    assert any("argmin ratio" in p for p in checker.check_cheeger(report, g, collar=1))


def test_a_check_that_raises_counts_as_a_failed_command(tmp_path):
    g = checker.graph_from_raw(_binary_tree(6))
    report = {"certificate": {"best_ratio": {"num": 6, "den": 5}, "argmin_set": [1, 10_000]}}
    files = workloads.Files(tmp_path)
    cmd = workloads.Command(["cheeger", "--out", files.out("c.json")],
                            lambda f: checker.check_cheeger(report, g, collar=1))
    tally = run.Tally()
    run.check_commands([cmd], [0], files, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "IndexError" in tally.problems[0]


def test_each_pipeline_iteration_writes_its_own_outputs(tmp_path):
    files = workloads.Files(tmp_path)
    assert workloads._args("gen-tree --out {x.json}", files, 0)[-1] == str(tmp_path / "x.json")
    files.stage(2)
    argv = workloads._args("promote --from {x.json} --seed $S --out {p.json}", files, 5)
    assert argv == ["promote", "--from", str(tmp_path / "x.json"), "--seed", "5",
                    "--out", str(tmp_path / "iter2" / "p.json")]


def test_nearest_center_map_breaks_ties_to_smaller_id():
    def filling(centers, levels):
        return {
            "vertices": [{"id": i, "level": lv} for i, lv in enumerate(levels)],
            "edges": [],
            "meta": {"space": "interval", "centers": [{"num": n, "den": d} for n, d in centers]},
        }
    a = filling([(1, 2), (1, 4)], [0, 1])
    b = filling([(1, 3), (0, 1), (1, 2)], [0, 1, 1])
    assert checker.nearest_center_map(a, b) == {0: 0, 1: 1}


# -- tracer ---------------------------------------------------------------


def _snapshot():
    import bilip.cli  # noqa: F401  (loads every module the CLI reaches)

    owners = [m for name, m in sorted(sys.modules.items()) if name.startswith("bilip")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("bilip")]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_install_uninstall_restores_every_attribute():
    before = _snapshot()
    cli = importlib.import_module("bilip.cli")
    promote = importlib.import_module("bilip.promote")
    graph = importlib.import_module("bilip.graph")
    original = promote.promote_matching
    log = tracer.SpanLog()
    with tracer.Tracer(log) as t:
        assert t.missing == []
        assert cli.promote_matching is promote.promote_matching is not original
        assert "bilip.promote.family_sets" in t.bindings
        tree = importlib.import_module("bilip.trees").gen_kary(2, 3)
        tree.graph.ball(0, 1)
        graph.Truncation.from_graph(tree.graph)
    names = {s[2] for s in log.spans()}
    assert {"trees.gen_kary", "trees.from_parents", "graph.init", "graph.ball",
            "graph.from_graph"} <= names
    assert log.counters["graph.ball.out_vertices"] == 3
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_and_private_names_are_skipped_and_reported():
    graph = importlib.import_module("bilip.graph")
    private = graph.UdbgGraph.__dict__["_bfs"]
    targets = (
        ("graph", "gone", "graph:UdbgGraph.gone"),
        ("graph", "_bfs", "graph:UdbgGraph._bfs"),
        ("nowhere", "f", "no_such_module:f"),
        ("graph", "ball", "graph:UdbgGraph.ball"),
    )
    with tracer.Tracer(tracer.SpanLog(), targets=targets) as t:
        assert len(t.missing) == 3
        assert graph.UdbgGraph.__dict__["_bfs"] is private
        assert t.bindings == ["bilip.graph.UdbgGraph.ball"]


# -- clock ----------------------------------------------------------------


def test_clock_divides_by_the_mean_of_the_bracketing_references():
    class FixedClock(clock.Clock):
        def __init__(self, refs):
            self._queue = iter(refs)
            super().__init__()

        def measure(self):
            return next(self._queue)

    c = FixedClock([0.1, 0.3, 0.2])
    assert c.scaled(2.0) == pytest.approx(2.0 * clock.REFERENCE_S / 0.2)
    assert c.scaled(1.0) == pytest.approx(1.0 * clock.REFERENCE_S / 0.25)


# -- contract -------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
