"""Command-line front end.

Exit codes: 0 = success/pass, 1 = property or promotion failure,
2 = usage or input error. Every report embeds the resolved run
configuration and seed; reruns with the same config and seed write
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import jsonio
from .cheeger import cheeger_exact, cheeger_family
from .ends import disconnection_check, doubling_check, enumerate_ends, perfectness_check
from .errors import ConstructionError, InputError, NoBoundedMatching
from .filling import build_filling, make_space, nearest_center_map
from .graph import Truncation
from .promote import promote_matching, verify_promotion_consistency
from .qimaps import qi_constants, tree_vertex_map
from .trees import DEFAULT_VERTEX_BUDGET, gen_kary, gen_random_pseudo_regular, graft_dead_ends

DEFAULT_FAMILIES = "balls,level-bands,random-connected"


def _config(name: str, seed: int, out, params: dict) -> dict:
    stage = {
        "gen-tree": "generate",
        "fill": "generate",
        "cheeger": "analyze",
        "ends": "analyze",
        "qi": "analyze",
        "promote": "promote",
        "verify": "verify",
        "export": "analyze",
    }[name]
    return {
        "name": name,
        "seed": seed,
        "output_dir": str(Path(out).parent) if out else ".",
        "stages": {stage: params},
    }


def _families(raw: str) -> list[str]:
    return [f.strip() for f in raw.split(",") if f.strip()]


def _load_tree(path):
    g, meta = jsonio.graph_from_dict(jsonio.load_json(path))
    return jsonio.tree_from_graph(g), meta


def _build_map(strategy, path_x, path_y):
    """(mapping, truncation of X, truncation of Y, strategy), parsing each file once."""
    g_x, meta_x = jsonio.graph_from_dict(jsonio.load_json(path_x))
    g_y, meta_y = jsonio.graph_from_dict(jsonio.load_json(path_y))
    if strategy == "auto":
        if "centers" in meta_x and "centers" in meta_y:
            strategy = "nearest-center"
        elif g_x.is_tree and g_y.is_tree:
            strategy = "ends"
        else:
            raise InputError("cannot pick a map strategy; pass --map explicitly")
    if strategy == "ends":
        t_x = jsonio.tree_from_graph(g_x)
        t_y = jsonio.tree_from_graph(g_y)
        return tree_vertex_map(t_x, t_y), t_x.trunc, t_y.trunc, strategy
    if strategy == "identity":
        if g_x.n != g_y.n:
            raise InputError("identity map needs equal vertex counts")
        mapping = {v: v for v in g_x.vertices()}
    elif strategy == "nearest-center":
        f_x = jsonio.filling_from_graph(g_x, meta_x)
        f_y = jsonio.filling_from_graph(g_y, meta_y)
        mapping = nearest_center_map(f_x, f_y)
    else:
        mapping = jsonio.vertex_map_from_dict(
            jsonio.load_json(strategy, object_pairs_hook=jsonio.distinct_keys))
        for x, y in mapping.items():
            g_x.check_vertex(x)
            g_y.check_vertex(y)
        if len(mapping) != g_x.n:
            raise InputError("map file is not total on the source graph")
    return mapping, Truncation.from_graph(g_x), Truncation.from_graph(g_y), strategy


# -- commands ----------------------------------------------------------------


def cmd_gen_tree(args) -> int:
    params = {
        "kind": args.kind,
        "k": args.k,
        "depth": args.depth,
        "branch_K": args.branch_K,
        "mu": args.mu,
        "dead_end_len": args.dead_end_len,
    }
    if args.kind == "kary":
        tree = gen_kary(args.k, args.depth)
    elif args.kind == "pseudo-regular":
        tree = gen_random_pseudo_regular(args.seed, args.branch_K, args.depth, args.mu)
    elif args.kind == "grafted":
        tree = graft_dead_ends(gen_kary(args.k, args.depth), args.dead_end_len, args.seed)
    else:  # stretched
        tree = graft_dead_ends(gen_kary(args.k, args.depth), lambda l: l, args.seed)
    meta = {"generator": params, "config": _config("gen-tree", args.seed, args.out, params)}
    jsonio.save_json(args.out, jsonio.graph_to_dict(tree.graph, meta))
    print(f"wrote {args.out}: {tree.n} vertices, depth {tree.depth}")
    return 0


def cmd_fill(args) -> int:
    if args.levels < 1:
        raise InputError("need at least one level")
    if args.levels > DEFAULT_VERTEX_BUDGET:  # every level holds a center
        raise ConstructionError(f"vertex budget exceeded: {args.levels} levels")
    max_level = args.levels - 1
    if args.scale is None:
        scale = Fraction(1, 3) if args.space == "cantor13" else Fraction(1, 2)
    else:
        scale = jsonio.parse_rational(args.scale)
    if not 0 < scale < 1:
        raise InputError("scale must lie strictly between 0 and 1")
    tau = jsonio.parse_rational(args.tau)
    if args.resolution is not None:
        resolution = args.resolution
    elif args.space == "cantor13":
        resolution = args.levels + 1
    else:
        need = Fraction(2) / scale**max_level
        resolution = int(need) + 1
    space = make_space(args.space, resolution)
    filling = build_filling(space, scale, tau, max_level, seed=args.seed)
    params = {
        "space": args.space,
        "levels": args.levels,
        "scale": str(scale),
        "tau": args.tau,
        "resolution": resolution,
    }
    payload = jsonio.filling_to_dict(filling)
    payload["meta"]["config"] = _config("fill", args.seed, args.out, params)
    jsonio.save_json(args.out, payload)
    print(f"wrote {args.out}: level sizes {filling.level_sizes()}")
    return 0


def cmd_cheeger(args) -> int:
    g, _meta = jsonio.graph_from_dict(jsonio.load_json(args.graph))
    trunc = Truncation.from_graph(g)
    if args.exact_max is not None:
        cert = cheeger_exact(trunc, args.collar, max_size=args.exact_max)
    else:
        cert = cheeger_family(trunc, args.collar, _families(args.families), args.seed)
    params = {
        "graph": str(args.graph),
        "collar": args.collar,
        "exact_max": args.exact_max,
        "families": args.families if args.exact_max is None else None,
    }
    report = {
        "config": _config("cheeger", args.seed, args.out, params),
        "certificate": cert.as_json_dict(),
    }
    if args.out:
        jsonio.save_json(args.out, report)
    else:
        sys.stdout.write(jsonio.dumps_canonical(report))
    ratio = cert.best_ratio
    print(f"best ratio {ratio.numerator}/{ratio.denominator} over {cert.method}", file=sys.stderr)
    return 0


def cmd_ends(args) -> int:
    wanted = _families(args.check)
    if not wanted:
        raise InputError("no checks requested")
    tree, _meta = _load_tree(args.graph)
    es = enumerate_ends(tree)
    if not 1 <= args.perfect_K <= es.depth:
        raise InputError(f"--perfect-K must be in 1..{es.depth}")
    results = {}
    ok = True
    for name in wanted:
        if name == "ultrametric":
            # A range minimum over planar-order agreements is an ultrametric
            # by identity; verify_ultrametric is for hand-built tables.
            results[name] = {"passed": True, "witness": None}
        elif name == "doubling":
            passed, parts = doubling_check(es)
            results[name] = {"passed": passed, "max_parts": parts, "bound": es.mu**2}
            ok = ok and passed
        elif name == "perfect":
            res = perfectness_check(es, args.perfect_K)
            results[name] = {"passed": res.passed, "witness": res.witness, "K": args.perfect_K}
            ok = ok and res.passed
        elif name == "disconnected":
            res = disconnection_check(es)
            results[name] = {"passed": res.passed, "witness": res.witness}
            ok = ok and res.passed
        else:
            raise InputError(f"unknown check {name!r}")
    params = {"graph": str(args.graph), "check": args.check}
    report = {
        "config": _config("ends", args.seed, args.out, params),
        "rays": es.n,
        "depth": es.depth,
        "results": results,
    }
    if args.out:
        jsonio.save_json(args.out, report)
    print(f"{es.n} rays at depth {es.depth}; checks {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_qi(args) -> int:
    tree_x, _ = _load_tree(getattr(args, "from"))
    tree_y, _ = _load_tree(args.to)
    mapping = tree_vertex_map(tree_x, tree_y)
    mode = "exact" if max(tree_x.n, tree_y.n) <= 400 else "sampled"
    constants = qi_constants(
        mapping, tree_x.graph, tree_y.graph, mode=mode, seed=args.seed, samples=args.samples
    )
    samples = args.samples if mode == "sampled" else None
    params = {"from": str(getattr(args, "from")), "to": str(args.to), "mode": mode,
              "samples": samples}
    meta = {
        "constants": constants.as_json_dict(),
        "config": _config("qi", args.seed, args.out, params),
    }
    jsonio.save_json(args.out, jsonio.vertex_map_to_dict(mapping, meta=meta))
    print(
        f"wrote {args.out}: c_mult {constants.c_mult}, d_add {constants.d_add}, "
        f"surjectivity radius {constants.surj_radius}"
    )
    return 0


def cmd_promote(args) -> int:
    mapping, t_x, t_y, strategy = _build_map(args.map, getattr(args, "from"), args.to)
    params = {
        "from": str(getattr(args, "from")),
        "to": str(args.to),
        "map": strategy,
        "rmax": args.rmax,
        "collar": args.collar,
    }
    config = _config("promote", args.seed, args.out, params)
    try:
        result = promote_matching(mapping, t_x, t_y, r_max=args.rmax, collar_w=args.collar)
    except NoBoundedMatching as exc:
        if args.out:
            jsonio.save_json(
                args.out,
                {
                    "config": config,
                    "promoted": False,
                    "r_max": exc.r_max,
                    "unsaturated": exc.unsaturated,
                },
            )
        print(f"promotion failed: {exc}", file=sys.stderr)
        return 1
    report = {"config": config, "promoted": True, "matching": result.as_json_dict()}
    if args.out:
        jsonio.save_json(args.out, report)
    L = result.bilip_constant
    print(
        f"promoted at r={result.r}: L={L.numerator}/{L.denominator}, "
        f"{len(result.unmatched_y)} unmatched within width {result.confinement_width}"
    )
    return 0


def cmd_verify(args) -> int:
    mapping, t_x, t_y, strategy = _build_map(args.map, getattr(args, "from"), args.to)
    check, details = verify_promotion_consistency(
        mapping, t_x, t_y, args.collar, _families(args.families), args.seed
    )
    params = {
        "from": str(getattr(args, "from")),
        "to": str(args.to),
        "map": strategy,
        "collar": args.collar,
        "families": args.families,
    }
    report = {
        "config": _config("verify", args.seed, args.out, params),
        "passed": check.passed,
        "witness": list(check.witness) if check.witness else None,
        "deficiency_bound": details["deficiency_bound"],
        "cheeger_best_ratio": jsonio.rational(details["cheeger_best_ratio"]),
        "criterion_constant": jsonio.rational(details["criterion_constant"]),
        "max_ratio": jsonio.rational(details["max_ratio"]),
        "tested_sets": details["tested_sets"],
    }
    if args.out:
        jsonio.save_json(args.out, report)
    print(f"criterion {'passes' if check.passed else 'FAILS'} over {details['tested_sets']} sets")
    return 0 if check.passed else 1


def cmd_export(args) -> int:
    if not (args.json or args.dot or args.gromov_csv):
        raise InputError("nothing to export; pass --json, --dot or --gromov-csv")
    raw = jsonio.load_json(args.graph)
    g, meta = jsonio.graph_from_dict(raw)
    if args.json:
        jsonio.save_json(args.json, jsonio.graph_to_dict(g, meta=meta))
    if args.dot:
        Path(args.dot).write_text(jsonio.to_dot(g), encoding="utf-8")
    if args.gromov_csv:
        jsonio.save_gromov_csv(args.gromov_csv, enumerate_ends(jsonio.tree_from_graph(g)))
    print("export complete")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilip",
        description="Generate bounded-degree graphs, measure isoperimetry and "
        "end-space structure, and promote vertex maps to near-bijections.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-tree", help="generate a rooted tree")
    p.add_argument("--kind", required=True, choices=["kary", "pseudo-regular", "grafted", "stretched"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--branch-K", dest="branch_K", type=int, default=2)
    p.add_argument("--mu", type=int, default=4)
    p.add_argument("--dead-end-len", dest="dead_end_len", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_tree)

    p = sub.add_parser("fill", help="build a multi-scale filling of a model space")
    p.add_argument("--space", required=True, choices=["cantor13", "interval", "circle"])
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--scale", default=None, help="rational, e.g. 1/3")
    p.add_argument("--tau", default="1", help="overlap dilation, rational >= 1")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("cheeger", help="isoperimetric certificate for a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--collar", type=int, default=1)
    p.add_argument("--exact-max", dest="exact_max", type=int, default=None)
    p.add_argument("--families", default=DEFAULT_FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("ends", help="end-space checks for a complete tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--check", default="ultrametric,doubling,perfect,disconnected")
    p.add_argument("--samples", type=int, default=None,
                   help="accepted and ignored; its removal goes with ROADMAP item 3")
    p.add_argument("--perfect-K", dest="perfect_K", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ends)

    p = sub.add_parser("qi", help="build a vertex map between two trees")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_qi)

    p = sub.add_parser("promote", help="promote a vertex map to a matching")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--map", default="auto", help="identity|nearest-center|ends|auto|FILE")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--collar", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the config; promote draws no random numbers")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("verify", help="exact consistency check of the promotion argument")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--map", default="auto")
    p.add_argument("--collar", type=int, default=1)
    p.add_argument("--families", default=DEFAULT_FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="re-emit a graph as JSON, DOT or CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--gromov-csv", dest="gromov_csv", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except NoBoundedMatching as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
