"""The four benchmark workloads: set-up commands, pipeline commands, checks.

Set-up generates the input files (users generate an instance once);
the pipeline holds the analysis commands on them, which the benchmark
repeats and times. Every command carries the exit code it must return
and a check of its output, written against the checker module only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checker import (
    check_cheeger,
    check_ends,
    check_filling_file,
    check_no_promotion,
    check_promotion,
    check_tree_file,
    check_verify,
    check_vertex_map,
    load,
    load_graph,
    nearest_center_map,
)

FAMILIES = "balls,level-bands,descendant-subtrees,random-connected"
FILLING_LEVEL_SIZES = [2**k for k in range(9)]


class Files:
    """One directory of inputs and reports, with parsed files cached.

    Commands write to ``out_dir``: the directory itself during set-up, a
    subdirectory of its own for each pipeline iteration after
    ``stage(i)``, so each iteration's reports can be checked later.
    """

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = directory
        self._graphs: dict = {}
        self._maps: dict = {}
        self.info: dict = {}

    def __call__(self, name: str) -> str:
        return str(self.dir / name)

    def stage(self, iteration: int | None) -> None:
        """Send outputs to iteration's subdirectory; None is set-up."""
        self.out_dir = self.dir if iteration is None else self.dir / f"iter{iteration}"
        self.out_dir.mkdir(exist_ok=True)

    def out(self, name: str) -> str:
        return str(self.out_dir / name)

    def graph(self, name: str):
        if name not in self._graphs:
            self._graphs[name] = load_graph(self(name))
        return self._graphs[name]

    def report(self, name: str) -> dict:
        return load(self.out(name))

    def filling_map(self, a: str, b: str) -> dict[int, int]:
        if (a, b) not in self._maps:
            self._maps[a, b] = nearest_center_map(load(self(a)), load(self(b)))
        return self._maps[a, b]


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[Files], list[str]]
    expect_rc: int = 0

    @property
    def name(self) -> str:
        return self.argv[0]

    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup: Callable[[Files, int], list[Command]]
    pipeline: Callable[[Files, int], list[Command]]


def _args(text: str, f: Files, seed: int) -> list[str]:
    """Split a command line; {name} becomes a path, an output's after --out."""
    out = []
    for word in text.split():
        if word.startswith("{") and word.endswith("}"):
            out.append(f.out(word[1:-1]) if out[-1] == "--out" else f(word[1:-1]))
        else:
            out.append(word.replace("$S1", str(seed + 1)).replace("$S", str(seed)))
    return out


def _tree(f: Files, seed: int, spec: str, name: str, n: int) -> Command:
    return Command(
        _args(f"gen-tree {spec} --out {{{name}}}", f, seed),
        lambda f: check_tree_file(f(name), n),
    )


def _promoted(report: str, x: str, y: str, *, r: int, collar: int, width_bound: int,
              filling: bool = False):
    def check(f: Files) -> list[str]:
        rep = f.report(report)
        vmap = f.filling_map(x, y) if filling else None
        problems = check_promotion(
            rep, f.graph(x), f.graph(y),
            expect_r=r, collar=collar, width_bound=width_bound, vertex_map=vmap,
        )
        if rep.get("promoted"):
            m = rep["matching"]
            L = m["bilip_constant"]
            f.info[f"{report}: L (sampled above 1200 vertices)"] = f"{L['num']}/{L['den']}"
            f.info[f"{report}: unmatched_y"] = len(m["unmatched_y"])
            f.info[f"{report}: confinement_width"] = m["confinement_width"]
        return problems
    return check


# -- tree-pair ------------------------------------------------------------


def tree_pair_setup(f: Files, seed: int) -> list[Command]:
    return [
        _tree(f, seed, "--kind kary --k 3 --depth 8", "x.json", 9_841),
        _tree(f, seed, "--kind kary --k 4 --depth 7", "y.json", 21_845),
    ]


def tree_pair_pipeline(f: Files, seed: int) -> list[Command]:
    return [
        Command(
            _args("promote --from {x.json} --to {y.json} --map ends --rmax 8 "
                  "--collar 2 --seed $S --out {p.json}", f, seed),
            _promoted("p.json", "x.json", "y.json", r=1, collar=2, width_bound=2),
        )
    ]


# -- stretched-control ----------------------------------------------------


def stretched_setup(f: Files, seed: int) -> list[Command]:
    return [
        _tree(f, seed, "--kind stretched --depth 11 --seed $S", "x.json", 5_072),
        _tree(f, seed, "--kind kary --k 2 --depth 11", "y.json", 4_095),
    ]


def stretched_pipeline(f: Files, seed: int) -> list[Command]:
    # Acceptance 07 sets no confinement bound for this control; the width
    # is held to the matching radius and recorded.
    return [
        Command(
            _args("promote --from {x.json} --to {y.json} --map ends --rmax 6 "
                  "--collar 1 --seed $S --out {p6.json}", f, seed),
            _promoted("p6.json", "x.json", "y.json", r=2, collar=1, width_bound=2),
        ),
        Command(
            _args("promote --from {x.json} --to {y.json} --map ends --rmax 1 "
                  "--collar 1 --seed $S --out {p1.json}", f, seed),
            lambda f: check_no_promotion(f.report("p1.json"), r_max=1),
            expect_rc=1,
        ),
    ]


# -- filling-pair ---------------------------------------------------------


def filling_setup(f: Files, seed: int) -> list[Command]:
    spec = "fill --space cantor13 --levels 9 --resolution 10 --scale 1/3 --tau 15/4"
    return [
        Command(_args(f"{spec} --seed $S --out {{a.json}}", f, seed),
                lambda f: check_filling_file(f("a.json"), FILLING_LEVEL_SIZES)),
        Command(_args(f"{spec} --seed $S1 --out {{b.json}}", f, seed),
                lambda f: check_filling_file(f("b.json"), FILLING_LEVEL_SIZES)),
    ]


def filling_pipeline(f: Files, seed: int) -> list[Command]:
    return [
        Command(
            _args("promote --from {a.json} --to {b.json} --map nearest-center "
                  "--rmax 6 --collar 1 --seed $S --out {p.json}", f, seed),
            _promoted("p.json", "a.json", "b.json", r=0, collar=1, width_bound=1,
                      filling=True),
        )
    ]


# -- certify --------------------------------------------------------------


def certify_setup(f: Files, seed: int) -> list[Command]:
    return [
        _tree(f, seed, "--kind kary --k 3 --depth 7", "k3d7.json", 3_280),
        _tree(f, seed, "--kind kary --k 4 --depth 6", "k4d6.json", 5_461),
        _tree(f, seed, "--kind kary --k 2 --depth 6", "k2d6.json", 127),
    ]


def _family_cheeger(f: Files) -> list[str]:
    rep = f.report("cheeger-family.json")
    ratio = rep["certificate"]["best_ratio"]
    f.info["cheeger k4d6 family ratio (estimate)"] = f"{ratio['num']}/{ratio['den']}"
    return check_cheeger(rep, f.graph("k4d6.json"), collar=1)


def _qi(f: Files) -> list[str]:
    raw = f.report("qi.json")
    f.info["qi constants (sampled)"] = raw["meta"]["constants"]
    return check_vertex_map(raw, f.graph("k3d7.json"), f.graph("k4d6.json"))


def certify_pipeline(f: Files, seed: int) -> list[Command]:
    return [
        Command(_args("ends --graph {k3d7.json} --samples 200000 --seed $S --out {ends.json}",
                      f, seed),
                lambda f: check_ends(f.report("ends.json"), rays=2_187, depth=7)),
        Command(_args(f"cheeger --graph {{k4d6.json}} --collar 1 --families {FAMILIES} "
                      "--seed $S --out {cheeger-family.json}", f, seed),
                _family_cheeger),
        Command(_args("cheeger --graph {k2d6.json} --collar 1 --exact-max 5 --seed $S "
                      "--out {cheeger-exact.json}", f, seed),
                lambda f: check_cheeger(f.report("cheeger-exact.json"), f.graph("k2d6.json"),
                                        collar=1, exact_ratio=Fraction(6, 5), max_size=5)),
        Command(_args("qi --from {k3d7.json} --to {k4d6.json} --seed $S --out {qi.json}",
                      f, seed),
                _qi),
        Command(_args(f"verify --from {{k3d7.json}} --to {{k4d6.json}} --collar 1 "
                      f"--families {FAMILIES} --seed $S --out {{verify.json}}", f, seed),
                lambda f: check_verify(f.report("verify.json"))),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree-pair", 0, tree_pair_setup, tree_pair_pipeline),
        Workload("stretched-control", 7, stretched_setup, stretched_pipeline),
        Workload("filling-pair", 1, filling_setup, filling_pipeline),
        Workload("certify", 0, certify_setup, certify_pipeline),
    )
}
