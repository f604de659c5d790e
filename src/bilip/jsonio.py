"""Interchange formats: JSON graphs, DOT and CSV.

The JSON graph schema is
    {"vertices": [{"id": 0, "level": 0}, ...],
     "edges": [[u, v], ...],        # u < v, listed once, sorted
     "root": 0,                     # optional
     "meta": {...}}
A tree file is that graph alone: parents follow from the root and the
edges. A filling adds its model space, scale, tau, seed and one center
per vertex to meta; a vertex's radius is scale ** level. Readers ignore
meta keys they do not use, so older files with meta.parent or
meta.radius load the same. Rationals serialize as {"num": int, "den":
int}; certificate fields never carry floats. All writers emit canonical
bytes (sorted keys, two-space indent, trailing newline) so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Optional, Union

from .errors import ConstructionError, InputError
from .filling import Filling, make_space
from .graph import Truncation, UdbgGraph
from .trees import DEFAULT_VERTEX_BUDGET, RootedTree


def rational(value: Union[Fraction, int]) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def parse_rational(obj) -> Fraction:
    if isinstance(obj, dict):
        if set(obj) != {"num", "den"} or not (_is_int(obj["num"]) and _is_int(obj["den"])):
            raise InputError(f"bad rational object {obj!r}")
        if obj["den"] == 0:
            raise InputError(f"zero denominator in {obj!r}")
        return Fraction(obj["num"], obj["den"])
    if _is_int(obj):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational value {obj!r}") from exc
    raise InputError(f"bad rational value {obj!r}")


def dumps_canonical(obj) -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=2) + "\\n", faster.

    CPython's encoder runs in pure Python whenever indent is set. This
    writer checks value types at C level instead, and formats each list
    of same-shaped int rows (edges, vertices, rational arrays) from one
    %-template. Anything else -- bools, floats, non-str keys, ragged or
    mixed rows -- is handed to the stdlib encoder for its subtree.
    """
    return _write(obj, "\n") + "\n"


_INDENT = "  "
_NONE = type(None)
_NULL = {None: "null"}


def _write(obj, nl: str) -> str:
    """The JSON text of obj nested at the depth whose lines begin with nl."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if kind is list and obj:
        inner = nl + _INDENT
        return "[" + inner + _list_body(obj, inner) + nl + "]"
    if kind is dict and obj and set(map(type, obj)) == {str}:
        inner = nl + _INDENT
        return "{" + inner + _dict_body(obj, inner) + nl + "}"
    # JSON text never holds a raw newline, so shifting every line break
    # re-indents the stdlib's top-level encoding to this depth
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def _list_body(items: list, inner: str) -> str:
    sep = "," + inner
    kinds = set(map(type, items))
    if kinds <= {int, _NONE}:
        # repr of an exact int is its JSON text; None becomes null
        return sep.join(map(_NULL.get, items, map(repr, items)))
    row_nl = inner + _INDENT
    if kinds == {list}:
        widths = set(map(len, items))
        if len(widths) == 1:
            values = tuple(chain.from_iterable(items))
            if set(map(type, values)) == {int}:
                row = "[" + row_nl + ("," + row_nl).join(["%d"] * widths.pop()) + inner + "]"
                return sep.join([row] * len(items)) % values
    elif kinds == {dict}:
        order, *others = set(map(tuple, items))
        if not others and set(map(type, order)) == {str}:
            keys = sorted(order)
            rows = map(itemgetter(*keys), items)
            values = tuple(chain.from_iterable(rows if len(keys) > 1 else zip(rows)))
            if set(map(type, values)) == {int}:
                fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %d" for k in keys)
                row = "{" + row_nl + ("," + row_nl).join(fields) + inner + "}"
                return sep.join([row] * len(items)) % values
    return sep.join([_write(x, inner) for x in items])


def _dict_body(obj: dict, inner: str) -> str:
    sep = "," + inner
    keys = sorted(obj)
    quoted = map(encode_basestring_ascii, keys)
    if set(map(type, obj.values())) == {int}:
        return sep.join(map("%s: %d".__mod__, zip(quoted, map(obj.__getitem__, keys))))
    return sep.join([k + ": " + _write(obj[key], inner) for k, key in zip(quoted, keys)])


def save_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def load_json(path, object_pairs_hook=None):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=object_pairs_hook)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, bad syntax, over-long int literals, deep nesting
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


# -- graphs ------------------------------------------------------------------


def graph_to_dict(g: UdbgGraph, meta: Optional[dict] = None) -> dict:
    vertices = []
    for v in g.vertices():
        entry = {"id": v}
        if g.levels is not None:
            entry["level"] = g.levels[v]
        vertices.append(entry)
    out = {
        "vertices": vertices,
        "edges": [[u, v] for u, v in g.edges()],
        "meta": meta or {},
    }
    if g.root is not None:
        out["root"] = g.root
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_dict(d: dict) -> tuple[UdbgGraph, dict]:
    if not isinstance(d, dict) or "vertices" not in d or "edges" not in d:
        raise InputError("graph JSON needs 'vertices' and 'edges'")
    if not isinstance(d["vertices"], list) or not isinstance(d["edges"], list):
        raise InputError("graph JSON 'vertices' and 'edges' must be lists")
    if len(d["vertices"]) > DEFAULT_VERTEX_BUDGET:
        raise ConstructionError(
            f"vertex budget exceeded: {len(d['vertices'])} > {DEFAULT_VERTEX_BUDGET}"
        )
    ids = []
    levels = []
    has_levels = None
    for entry in d["vertices"]:
        if not isinstance(entry, dict) or not _is_int(entry.get("id")):
            raise InputError(f"bad vertex entry {entry!r}")
        ids.append(entry["id"])
        here = "level" in entry
        if has_levels is None:
            has_levels = here
        elif has_levels != here:
            raise InputError("either all vertices carry a level or none do")
        if here:
            if not _is_int(entry["level"]):
                raise InputError(f"level of vertex {entry['id']} must be an integer")
            levels.append(entry["level"])
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise InputError("vertex ids must be dense 0..n-1")
    order = sorted(range(n), key=lambda i: ids[i])
    level_by_id = [levels[i] for i in order] if has_levels else None
    for edge in d["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise InputError(f"bad edge entry {edge!r}")
    meta = d.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError("graph JSON 'meta' must be an object")
    root = d.get("root")
    if root is not None and not _is_int(root):
        raise InputError(f"bad root {root!r}")
    g = UdbgGraph(n, d["edges"], root=root, levels=level_by_id)
    return g, meta


def tree_from_graph(g: UdbgGraph) -> RootedTree:
    """The rooted-tree view of a loaded graph, sharing it.

    A graph without level labels gets its depths as levels, in a copy.
    """
    _, depth, _ = g.tree_arrays()
    if g.levels is None:
        g = UdbgGraph(g.n, g.edges(), root=g.root, levels=depth)
    elif list(g.levels) != depth:
        raise InputError("level labels disagree with distance from the root")
    return RootedTree(Truncation.from_graph(g))


def filling_to_dict(f: Filling) -> dict:
    meta = {
        "space": f.space.kind,
        "resolution": f.space.resolution,
        "scale": rational(f.scale),
        "tau": rational(f.tau),
        "seed": f.seed,
        "centers": [rational(f.center_value(v)) for v in f.graph.vertices()],
    }
    return graph_to_dict(f.graph, meta=meta)


def filling_from_dict(d: dict) -> Filling:
    return filling_from_graph(*graph_from_dict(d))


def filling_from_graph(g: UdbgGraph, meta: dict) -> Filling:
    """The filling a loaded graph describes through its center metadata."""
    needed = {"space", "resolution", "scale", "tau", "seed", "centers"}
    if not needed <= set(meta):
        raise InputError("filling JSON lacks center metadata")
    if not _is_int(meta["resolution"]):
        raise InputError("filling JSON 'resolution' must be an integer")
    if g.levels is None:
        raise InputError("filling JSON needs a level on every vertex")
    if not isinstance(meta["centers"], list) or len(meta["centers"]) != g.n:
        raise InputError("filling JSON needs a list of one center per vertex")
    space = make_space(meta["space"], meta["resolution"])
    index_of = {p: i for i, p in enumerate(space.points)}
    centers = []
    for obj in meta["centers"]:
        value = parse_rational(obj)
        if value not in index_of:
            raise InputError(f"center {value} is not a point of the model space")
        centers.append(index_of[value])
    return Filling(
        graph=g,
        space=space,
        scale=parse_rational(meta["scale"]),
        tau=parse_rational(meta["tau"]),
        centers=tuple(centers),
        seed=meta["seed"],
    )


def vertex_map_to_dict(mapping: dict, meta: Optional[dict] = None) -> dict:
    return {"map": {str(x): y for x, y in sorted(mapping.items())}, "meta": meta or {}}


def distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """An object_pairs_hook that rejects a key written twice in one object,
    which json.loads would otherwise resolve to its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def vertex_map_from_dict(d: dict) -> dict[int, int]:
    if not isinstance(d, dict) or not isinstance(d.get("map"), dict):
        raise InputError("map JSON needs a 'map' object")
    out = {}
    for k, v in d["map"].items():
        try:
            x = int(k)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad map entry {k!r}: {v!r}") from exc
        if str(x) != k:  # "01" or " 1" would name vertex 1 a second time
            raise InputError(f"map key {k!r} is not written as the id {x}")
        if not _is_int(v):
            raise InputError(f"bad map entry {k!r}: {v!r}")
        out[x] = v
    return out


# -- exports -----------------------------------------------------------------


def to_dot(g: UdbgGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    if g.levels is not None:
        by_level: dict[int, list[int]] = {}
        for v in g.vertices():
            by_level.setdefault(g.levels[v], []).append(v)
        for level in sorted(by_level):
            members = " ".join(f"v{v};" for v in sorted(by_level[level]))
            lines.append(f"  {{ rank=same; {members} }}")
    for v in g.vertices():
        label = f"v{v}"
        if g.root == v:
            lines.append(f"  {label} [shape=doublecircle];")
        else:
            lines.append(f"  {label};")
    for u, v in g.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_gromov_csv(path, es) -> None:
    """The agreement table of an end space as CSV, written one row at a time."""
    names = list(map(str, range(max(es.n, es.depth + 1))))
    with open(path, "w", encoding="utf-8") as f:
        f.write("ray," + ",".join(names[: es.n]) + "\n")
        for i, row in enumerate(es.rows()):
            f.write(names[i] + "," + ",".join(map(names.__getitem__, row)) + "\n")
