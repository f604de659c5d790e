import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilip import jsonio
from bilip.ends import EndSpace, enumerate_ends
from bilip.errors import InputError
from bilip.filling import build_filling, make_space
from bilip.trees import gen_kary, gen_path

from tree_fixtures import tree_facts


def test_rational_round_trip():
    assert jsonio.rational(Fraction(6, 4)) == {"num": 3, "den": 2}
    assert jsonio.parse_rational({"num": 3, "den": 2}) == Fraction(3, 2)
    assert jsonio.parse_rational(5) == 5
    assert jsonio.parse_rational("1/3") == Fraction(1, 3)
    with pytest.raises(InputError):
        jsonio.parse_rational({"num": 1})
    with pytest.raises(InputError):
        jsonio.parse_rational({"num": 1, "den": 2, "x": 3})
    with pytest.raises(InputError):
        jsonio.parse_rational(1.5)
    for bad in ("x", "1/0", {"num": 1, "den": 0}, {"num": 1.5, "den": 2}, True):
        with pytest.raises(InputError):
            jsonio.parse_rational(bad)


def test_graph_round_trip():
    t = gen_kary(3, 3)
    d = jsonio.graph_to_dict(t.graph, meta={"note": "x"})
    g, meta = jsonio.graph_from_dict(d)
    assert meta == {"note": "x"}
    assert list(g.edges()) == list(t.graph.edges())
    assert g.levels == t.graph.levels
    assert g.root == t.graph.root
    assert jsonio.graph_to_dict(g, meta=meta) == d


def test_graph_from_dict_validation():
    with pytest.raises(InputError):
        jsonio.graph_from_dict({"edges": []})
    with pytest.raises(InputError):
        jsonio.graph_from_dict({"vertices": [{"id": 0}, {"id": 2}], "edges": []})
    with pytest.raises(InputError):
        jsonio.graph_from_dict(
            {"vertices": [{"id": 0}, {"id": 1, "level": 1}], "edges": [[0, 1]]}
        )
    with pytest.raises(InputError):
        jsonio.graph_from_dict({"vertices": [{"id": 0}, {"id": 1}], "edges": [[0]]})
    two = [{"id": 0}, {"id": 1}]
    for bad in (
        {"vertices": two, "edges": [[0, 5]]},
        {"vertices": two, "edges": [[-1, 1]]},
        {"vertices": two, "edges": [[0, True]]},
        {"vertices": two, "edges": [[0, 1], [1, 0]]},
        {"vertices": two, "edges": [[1, 1]]},
        {"vertices": [{"id": 0}, {"id": "a"}], "edges": [[0, 1]]},
        {"vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 0.5}], "edges": [[0, 1]]},
        {"vertices": 2, "edges": [[0, 1]]},
        {"vertices": two, "edges": 0},
        {"vertices": two, "edges": [[0, 1]], "meta": 5},
        {"vertices": two, "edges": [[0, 1]], "root": True},
    ):
        with pytest.raises(InputError):
            jsonio.graph_from_dict(bad)


def test_tree_round_trip():
    t = gen_kary(2, 3)
    d = jsonio.graph_to_dict(t.graph)
    assert d["meta"] == {}  # parents follow from the root and the edges
    g, _ = jsonio.graph_from_dict(d)
    t2 = jsonio.tree_from_graph(g)
    assert tree_facts(t2) == tree_facts(t)
    assert tree_facts(t2).parent[:3] == [None, 0, 0]
    assert t2.graph is g and t2.trunc.graph is g


def test_tree_from_graph_derives_missing_levels():
    d = jsonio.graph_to_dict(gen_kary(2, 3).graph)
    for entry in d["vertices"]:
        del entry["level"]
    g, _ = jsonio.graph_from_dict(d)
    t = jsonio.tree_from_graph(g)
    assert g.levels is None
    assert [t.level(v) for v in range(t.n)] == [0] + [1] * 2 + [2] * 4 + [3] * 8


def test_tree_from_graph_rejects_bad_levels():
    d = {
        "vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 1}, {"id": 2, "level": 1}],
        "edges": [[0, 1], [1, 2]],
        "root": 0,
        "meta": {},
    }
    with pytest.raises(InputError):
        jsonio.tree_from_graph(jsonio.graph_from_dict(d)[0])


def test_filling_round_trip():
    f = build_filling(make_space("cantor13", 8), Fraction(1, 3), Fraction(1), 3, seed=4)
    d = jsonio.filling_to_dict(f)
    assert set(d["meta"]) == {"space", "resolution", "scale", "tau", "seed", "centers"}
    f2 = jsonio.filling_from_dict(d)
    assert list(f2.graph.edges()) == list(f.graph.edges())
    assert f2.centers == f.centers
    assert f2.scale == f.scale and f2.tau == f.tau
    broken = jsonio.graph_to_dict(f.graph, meta={"space": "cantor13"})
    with pytest.raises(InputError):
        jsonio.filling_from_dict(broken)
    centers = d["meta"]["centers"]
    for key, value in (("centers", None), ("centers", centers[:-1]), ("resolution", "8"),
                       ("resolution", 8.0), ("scale", "x"), ("tau", {"num": 1, "den": 0})):
        bad = {**d, "meta": {**d["meta"], key: value}}
        with pytest.raises(InputError):
            jsonio.filling_from_dict(bad)


def test_vertex_map_round_trip():
    d = jsonio.vertex_map_to_dict({2: 3, 0: 1})
    assert list(d["map"]) == ["0", "2"]
    assert jsonio.vertex_map_from_dict(d) == {0: 1, 2: 3}
    with pytest.raises(InputError):
        jsonio.vertex_map_from_dict({"map": {"a": None}})
    with pytest.raises(InputError):
        jsonio.vertex_map_from_dict({})
    # targets must be JSON integers: int() would truncate 1.5, accept
    # true, and raise OverflowError on Infinity
    for bad in ([1, 2], {"0": 1.5}, {"0": True}, {"0": float("inf")}, {"0": "1"}):
        with pytest.raises(InputError):
            jsonio.vertex_map_from_dict({"map": bad})


def test_dot_and_csv(tmp_path):
    t = gen_kary(2, 2)
    dot = jsonio.to_dot(t.graph)
    assert dot.count(" -- ") == t.graph.edge_count()
    assert "rank=same" in dot
    path = tmp_path / "t.csv"
    jsonio.save_gromov_csv(path, enumerate_ends(gen_path(3)))  # one ray, depth 3
    assert path.read_text() == "ray,0\n0,3\n"
    jsonio.save_gromov_csv(path, EndSpace(3, 3, (1,)))
    assert path.read_text() == "ray,0,1\n0,3,1\n1,1,3\n"
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ray,0,1"
    assert len(lines) == 3


def test_canonical_dumps_is_stable(tmp_path):
    payload = {"b": 1, "a": {"z": [1, 2], "y": None}}
    path = tmp_path / "x.json"
    jsonio.save_json(path, payload)
    first = path.read_bytes()
    jsonio.save_json(path, jsonio.load_json(path))
    assert path.read_bytes() == first


# Characters that could break a %-template or the re-indented stdlib
# fallback: format markers, braces, quotes, escapes and control
# characters, and non-ASCII text, one character beyond the BMP.
TEXTS = st.text(st.sampled_from('%{}"\\\n\t\x00\x1f\x7f\u00e9\u03bb\U0001f600 ad') | st.characters(),
                max_size=5)
INTS = st.integers(-(2**200), 2**200) | st.sampled_from([0, -1, 2**63, -(2**63) - 1])
SCALARS = st.none() | st.booleans() | INTS | st.floats() | TEXTS


@st.composite
def rows(draw, cells):
    """A list shaped like the rows of a graph file: equal-width int rows
    (edges) or dicts with one key order (vertices, rationals), sometimes
    spoiled by a stray cell (a bool, null, float, string or any of
    cells), a ragged row, another key order, or a key added or dropped."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        width = draw(st.integers(0, 3))
        out = [draw(st.lists(INTS, min_size=width, max_size=width)) for _ in range(n)]
    else:
        keys = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
        orders = [draw(st.permutations(keys))] * n
        if draw(st.booleans()):
            orders = [draw(st.permutations(keys)) for _ in range(n)]
        out = [{key: draw(INTS) for key in order} for order in orders]
    spoil = draw(st.sampled_from(["none", "cell", "row"]))
    row = out[draw(st.integers(0, n - 1))]
    if spoil == "cell" and row:
        at = draw(st.sampled_from(sorted(row) if isinstance(row, dict) else range(len(row))))
        row[at] = draw(st.booleans() | st.none() | st.floats() | TEXTS | cells)
    elif spoil == "row" and isinstance(row, dict):
        if row and draw(st.booleans()):
            del row[draw(st.sampled_from(sorted(row)))]
        else:
            row[draw(TEXTS)] = draw(INTS)
    elif spoil == "row":
        row.extend(draw(st.lists(INTS, min_size=1, max_size=2)))
    return out


JSON_VALUES = st.recursive(
    SCALARS | rows(SCALARS) | st.lists(INTS | st.none()) | st.dictionaries(TEXTS, INTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | rows(inner)
    | st.dictionaries(TEXTS, inner, max_size=4)
    | st.dictionaries(INTS, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example([[0, 1], [1, True]])
@example([[1, 2], [3]])
@example([1, None, -(2**100), 2**64])
@example([float("nan"), float("inf"), -float("inf"), 0.5])
@example([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
@example([{"a": 1, "b": 2}, {"a": 3}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": 1}, {"a": False}])
@example({"%d": [{"%s{": 1}, {"%s{": 2}], '"\n\x00\u00e9': "%(x)s", "k": {"%": 1}})
@example({"e": [], "f": {}, "g": [[], []], "h": [{}, {}], "t": (1, [2])})
@example({1: {"a": [1]}, 10: None, 9: (1, 2)})
def test_canonical_dumps_matches_the_stdlib_writer(value):
    assert jsonio.dumps_canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_memory_stays_near_the_text_size():
    tree = jsonio.graph_to_dict(gen_kary(4, 7).graph)
    tracemalloc.start()
    try:
        text = jsonio.dumps_canonical(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stdlib writer peaks at 8.9 times the text length here
    assert peak < 4 * len(text)
