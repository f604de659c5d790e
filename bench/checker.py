"""Independent checks of bilip's output files.

Everything here re-reads the JSON files with the standard library and
recomputes what it checks with its own breadth-first searches; nothing
is imported from bilip. Each check returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

UNREACHED = -1


@dataclass(frozen=True)
class Graph:
    adj: tuple[tuple[int, ...], ...]
    levels: Optional[tuple[int, ...]]
    root: Optional[int]
    meta: dict

    @property
    def n(self) -> int:
        return len(self.adj)

    def deepest(self) -> list[int]:
        depth = max(self.levels)
        return [v for v, level in enumerate(self.levels) if level == depth]


def graph_from_raw(raw: dict) -> Graph:
    ids = [entry["id"] for entry in raw["vertices"]]
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise ValueError("vertex ids are not 0..n-1")
    levels = [0] * n
    for entry in raw["vertices"]:
        levels[entry["id"]] = entry.get("level")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in raw["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    has_levels = all(level is not None for level in levels)
    return Graph(
        adj=tuple(tuple(a) for a in adj),
        levels=tuple(levels) if has_levels else None,
        root=raw.get("root"),
        meta=raw.get("meta", {}),
    )


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_graph(path) -> Graph:
    return graph_from_raw(load(path))


def bfs(g: Graph, sources, cutoff: Optional[int] = None) -> list[int]:
    """Distance to the nearest source; UNREACHED past the cutoff."""
    dist = [UNREACHED] * g.n
    q = deque()
    for s in sources:
        if dist[s] != 0:
            dist[s] = 0
            q.append(s)
    while q:
        v = q.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in g.adj[v]:
            if dist[u] == UNREACHED:
                dist[u] = d + 1
                q.append(u)
    return dist


def boundary_ratio(g: Graph, vertex_set) -> Fraction:
    inside = set(vertex_set)
    outside = {u for v in inside for u in g.adj[v] if u not in inside}
    return Fraction(len(outside), len(inside))


def rational(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# -- set-up outputs -------------------------------------------------------


def check_tree_file(path, n: int) -> list[str]:
    g = load_graph(path)
    problems = []
    if g.n != n:
        problems.append(f"{path}: {g.n} vertices, expected {n}")
    if sum(len(a) for a in g.adj) != 2 * (g.n - 1):
        problems.append(f"{path}: not a tree")
    elif g.root is None or g.levels is None or bfs(g, [g.root]) != list(g.levels):
        problems.append(f"{path}: levels disagree with distance from the root")
    return problems


def check_filling_file(path, level_sizes: list[int]) -> list[str]:
    g = load_graph(path)
    problems = []
    sizes = [0] * (max(g.levels) + 1)
    for level in g.levels:
        sizes[level] += 1
    if sizes != level_sizes:
        problems.append(f"{path}: level sizes {sizes}, expected {level_sizes}")
    if UNREACHED in bfs(g, [0]):
        problems.append(f"{path}: disconnected")
    if len(g.meta.get("centers", ())) != g.n:
        problems.append(f"{path}: centers missing")
    return problems


def nearest_center_map(raw_a: dict, raw_b: dict) -> dict[int, int]:
    """Each center of A to the nearest same-level center of B, ties to the
    smaller id, in exact integer arithmetic on a common denominator."""
    ga, gb = graph_from_raw(raw_a), graph_from_raw(raw_b)
    ca = [rational(c) for c in raw_a["meta"]["centers"]]
    cb = [rational(c) for c in raw_b["meta"]["centers"]]
    den = lcm(*(c.denominator for c in ca + cb))
    ia = [c.numerator * (den // c.denominator) for c in ca]
    ib = [c.numerator * (den // c.denominator) for c in cb]
    circle = raw_a["meta"]["space"] == "circle"
    by_level: dict[int, list[int]] = {}
    for w in range(gb.n):
        by_level.setdefault(gb.levels[w], []).append(w)
    out = {}
    for v in range(ga.n):
        best, best_d = None, None
        for w in by_level[ga.levels[v]]:
            d = abs(ia[v] - ib[w])
            if circle:
                d = min(d, den - d)
            if best_d is None or d < best_d:
                best, best_d = w, d
        out[v] = best
    return out


# -- promote --------------------------------------------------------------


def check_promotion(
    report: dict,
    gx: Graph,
    gy: Graph,
    *,
    expect_r: int,
    collar: int,
    width_bound: int,
    vertex_map: Optional[dict[int, int]] = None,
) -> list[str]:
    """A successful promote report against the two graphs it was made from.

    With vertex_map given, every pair is also checked to lie within r of
    the map and distance_to_map is recomputed exactly.
    """
    if report.get("promoted") is not True:
        return ["report does not say promoted"]
    m = report["matching"]
    problems = []
    r = m["r"]
    if r != expect_r:
        problems.append(f"radius {r}, certified minimal radius is {expect_r}")
    if (m["n_x"], m["n_y"], m["collar_w"]) != (gx.n, gy.n, collar):
        problems.append("n_x, n_y or collar_w disagree with the inputs")
    pairs: dict[int, int] = {}
    for key, y in m["pairs"].items():
        x = int(key)
        if not (0 <= x < gx.n and isinstance(y, int) and 0 <= y < gy.n):
            problems.append(f"pair ({x}, {y}) out of range")
            continue
        pairs[x] = y
    targets = list(pairs.values())
    if len(set(targets)) != len(targets):
        problems.append("pairs are not injective: a target is matched twice")
    to_deep_x = bfs(gx, gx.deepest())
    missed = [x for x in range(gx.n) if to_deep_x[x] > collar and x not in pairs]
    if missed:
        problems.append(f"{len(missed)} interior source vertices unmatched, e.g. {missed[0]}")
    if m["distance_to_map"] > r:
        problems.append(f"distance_to_map {m['distance_to_map']} exceeds r={r}")
    if vertex_map is not None:
        worst = 0
        for x, y in pairs.items():
            near = bfs(gy, [vertex_map[x]], cutoff=r)
            d = near[y]
            if d == UNREACHED:
                problems.append(f"pair ({x}, {y}) lies outside radius {r} of the map")
                break
            worst = max(worst, d)
        else:
            if worst != m["distance_to_map"]:
                problems.append(f"distance_to_map {m['distance_to_map']}, recomputed {worst}")
    unmatched = set(range(gy.n)) - set(targets)
    if unmatched != set(m["unmatched_y"]):
        problems.append("unmatched_y is not the complement of the matched targets")
    to_deep_y = bfs(gy, gy.deepest())
    width = max((to_deep_y[y] for y in unmatched), default=0)
    if width != m["confinement_width"]:
        problems.append(f"confinement_width {m['confinement_width']}, recomputed {width}")
    if m["confinement_width"] > width_bound:
        problems.append(f"confinement_width {m['confinement_width']} over bound {width_bound}")
    return problems


def check_no_promotion(report: dict, r_max: int) -> list[str]:
    if report.get("promoted") is not False:
        return ["expected promoted: false"]
    problems = []
    if report.get("r_max") != r_max:
        problems.append(f"r_max {report.get('r_max')}, expected {r_max}")
    if not report.get("unsaturated", 0) > 0:
        problems.append("failure report names no unsaturated vertex")
    return problems


# -- certificates ---------------------------------------------------------


def check_ends(report: dict, rays: int, depth: int) -> list[str]:
    problems = []
    if (report["rays"], report["depth"]) != (rays, depth):
        problems.append(f"{report['rays']} rays at depth {report['depth']}")
    wanted = {"ultrametric", "doubling", "perfect", "disconnected"}
    if set(report["results"]) != wanted:
        problems.append(f"checks run: {sorted(report['results'])}")
    for name, res in report["results"].items():
        if res["passed"] is not True:
            problems.append(f"ends check {name} failed")
    doubling = report["results"].get("doubling")
    if doubling and doubling["max_parts"] > doubling["bound"]:
        problems.append("doubling count over its bound")
    return problems


def check_cheeger(
    report: dict,
    g: Graph,
    collar: int,
    exact_ratio: Optional[Fraction] = None,
    max_size: Optional[int] = None,
) -> list[str]:
    """The argmin set lies in the interior and has the reported ratio."""
    cert = report["certificate"]
    best = rational(cert["best_ratio"])
    argmin = cert["argmin_set"]
    problems = []
    if not argmin:
        return ["empty argmin set"]
    to_deep = bfs(g, g.deepest())
    if any(to_deep[v] <= collar for v in argmin):
        problems.append("argmin set leaves the interior")
    if boundary_ratio(g, argmin) != best:
        problems.append(f"argmin ratio {boundary_ratio(g, argmin)} != reported {best}")
    if exact_ratio is not None and best != exact_ratio:
        problems.append(f"exact Cheeger ratio {best}, expected {exact_ratio}")
    if max_size is not None and len(argmin) > max_size:
        problems.append(f"argmin set of size {len(argmin)} over {max_size}")
    return problems


def check_vertex_map(raw: dict, gx: Graph, gy: Graph) -> list[str]:
    mapping = raw["map"]
    if sorted(int(x) for x in mapping) != list(range(gx.n)):
        return ["vertex map is not total on the source graph"]
    if not all(isinstance(y, int) and 0 <= y < gy.n for y in mapping.values()):
        return ["vertex map leaves the target graph"]
    return []


def check_verify(report: dict) -> list[str]:
    problems = []
    if report["passed"] is not True or report["witness"] is not None:
        problems.append("criterion check did not pass")
    if rational(report["max_ratio"]) > rational(report["criterion_constant"]):
        problems.append("max_ratio exceeds the criterion constant")
    if report["tested_sets"] < 1:
        problems.append("no sets tested")
    return problems
