"""End spaces of truncated geodesically complete trees.

A ray is a root-to-depth-D path; two rays are compared through the depth
at which they last agree. Every metric statement here is an integer
statement about those agreement depths (the metric e^{-t} is monotone in
them), so no floats appear anywhere.

Rays are enumerated in planar (DFS) order. In that order the agreement
depth of any pair equals the minimum over consecutive pairs between them,
so an end space is its consecutive depths alone, read off the tree's
cached preorder, and no ray is stored as a vertex path. A range minimum
is an ultrametric by identity, so an end space needs no check;
verify_ultrametric checks hand-built tables exactly in O(n^2), through
the leaf order of their single-linkage dendrogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .errors import InputError
from .graph import UNREACHED
from .trees import CheckResult, RootedTree, is_complete


def _require_complete(t: RootedTree) -> None:
    """Reject a truncation with a branch that stops short of depth D."""
    if not is_complete(t):
        raise InputError(
            "tree has vertices off all full-depth rays; apply complete_core first"
        )


def leaf_intervals(t: RootedTree) -> tuple[list[int], list[int]]:
    """Per-vertex half-open interval of full-depth leaves below it (DFS order).

    Requires a geodesically complete truncation (every branch reaches
    depth D); use complete_core first otherwise.
    """
    _require_complete(t)
    parent, depth, order = t.graph.tree_arrays()
    full = t.depth  # the leaves are the vertices at depth D
    lo = [0] * t.n
    hi = [0] * t.n
    counter = 0
    for v in order:
        lo[v] = counter
        if depth[v] == full:
            counter += 1
            hi[v] = counter
    for v in reversed(order):  # a subtree's leaves end where its last child's do
        p = parent[v]
        if p != UNREACHED and not hi[p]:  # the last child comes first
            hi[p] = hi[v]
    return lo, hi


@dataclass
class EndSpace:
    """The integer agreement-depth table of the rays in planar order.

    The table is stored as the consecutive-pair array `adjacent`; arbitrary
    entries are range minima over it. (F|F) is carried as the sentinel
    `depth`.
    """

    depth: int
    mu: int
    adjacent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adjacent) + 1

    def rows(self):
        """The full symmetric table, one row at a time."""
        return _planar_rows(self.adjacent, self.depth)

    def table(self) -> list[list[int]]:
        """Materialize the full symmetric table (small spaces only)."""
        return list(self.rows())


def _planar_rows(adjacent, depth: int):
    """The rows of the table that `adjacent` implies in planar order: the
    running minima outward from the diagonal, one run per link of the
    chains of next strictly smaller entries."""
    last = len(adjacent)
    right = _next_smaller(range(last), adjacent)
    left = _next_smaller(range(last - 1, -1, -1), adjacent)
    for i in range(last + 1):
        runs = [[depth]]
        j = i - 1
        while j != -1:
            runs.append([adjacent[j]] * (j - left[j]))
            j = left[j]
        runs.reverse()
        j = i if i < last else -1
        while j != -1:
            runs.append([adjacent[j]] * ((last if right[j] == -1 else right[j]) - j))
            j = right[j]
        yield list(chain.from_iterable(runs))


def _first_mismatch(table, order, adjacent, depth: int) -> Optional[tuple[int, int]]:
    """First pair (i, j), i before j in `order`, whose entry differs from the
    planar table of `adjacent`, the levels between consecutive rays of `order`."""
    for i, want in zip(order, _planar_rows(adjacent, depth)):
        row = table[i]
        got = [row[j] for j in order]
        if got != want:
            b = next(b for b, (x, y) in enumerate(zip(got, want)) if x != y)
            return i, order[b]
    return None


def enumerate_ends(t: RootedTree) -> EndSpace:
    """One ray per depth-D leaf, in planar order, with agreement depths.

    In preorder the vertex after a leaf is a child of the deepest vertex
    the leaf's ray shares with the next ray, one level below it.
    """
    _require_complete(t)
    _, depth, order = t.graph.tree_arrays()
    full = t.depth
    adjacent = [depth[w] - 1 for v, w in zip(order, order[1:]) if depth[v] == full]
    return EndSpace(depth=full, mu=t.graph.mu, adjacent=tuple(adjacent))


# -- metric checks ---------------------------------------------------------


def verify_ultrametric(table, depth: int) -> CheckResult:
    """m(F,H) >= min(m(F,G), m(G,H)) over all triples of a hand-built
    agreement table with sentinel `depth`, exactly, in O(n^2).

    An end space needs no call: there m(i, k) is the minimum of
    adjacent[i..k), so for i < j < k, m(i, k) = min(m(i, j), m(j, k)).
    A table is an ultrametric exactly when it is planar-consistent in the
    order in which Prim's maximum spanning tree visits its rays, with the
    weights at which they joined as levels (single linkage; Gower-Ross
    1969). At the first mismatch (i, j) the entry lies below every level
    between i and j, so in the witness (i, tree parent of j, j) m(i, j)
    is the only minimum.
    """
    n = len(table)
    if not n:
        raise InputError("an end space has at least one ray")
    if any(len(row) != n for row in table):
        raise InputError("agreement table must be square")
    for i in range(n):
        if table[i][i] != depth:
            raise InputError("diagonal must carry the depth sentinel")
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise InputError("agreement table must be symmetric")
            if not 0 <= table[i][j] < depth:
                raise InputError("off-diagonal entries must lie in 0..depth-1")
    if n < 3:
        return CheckResult(True)
    order, joined, parent = _prim_order(table)
    bad = _first_mismatch(table, order, joined, depth)
    if bad is None:
        return CheckResult(True)
    i, j = bad
    return CheckResult(False, witness=(i, parent[j], j))


def _prim_order(table) -> tuple[list[int], list[int], list[int]]:
    """Prim's maximum spanning tree grown from ray 0: the visit order, the
    weight at which each later ray joined, and each ray's tree parent."""
    key = list(table[0])
    parent = [0] * len(table)
    rest = list(range(1, len(table)))
    order = [0]
    joined = []
    while rest:
        v = max(rest, key=key.__getitem__)
        rest.remove(v)
        order.append(v)
        joined.append(key[v])
        row = table[v]
        for u in rest:
            if row[u] > key[u]:
                key[u] = row[u]
                parent[u] = v
    return order, joined, parent


def split_at_minimum(adjacent, lo: int, hi: int) -> tuple[int, list[tuple[int, int]]]:
    """Minimum agreement m over rays lo..hi-1 (hi - lo >= 2) and the child
    sub-balls it cuts them into, as half-open intervals in planar order."""
    m = min(adjacent[lo : hi - 1])
    parts = []
    start = lo
    for cut in range(lo, hi - 1):
        if adjacent[cut] == m:
            parts.append((start, cut + 1))
            start = cut + 1
    parts.append((start, hi))
    return m, parts


def _hierarchy(adjacent, n):
    """Nested agreement balls as (lo, hi, level, parent_level) intervals.

    Root interval has parent_level -1; leaves carry level None (singleton,
    agreement formally infinite).
    """
    nodes = []
    stack = [(0, n, -1)]
    while stack:
        lo, hi, parent_level = stack.pop()
        if hi - lo == 1:
            nodes.append((lo, hi, None, parent_level))
            continue
        m, parts = split_at_minimum(adjacent, lo, hi)
        nodes.append((lo, hi, m, parent_level))
        stack.extend((a, b, m) for a, b in parts)
    return nodes


def doubling_check(es: EndSpace) -> tuple[bool, int]:
    """Cover count for halving the radius of every agreement ball.

    Members of a ball with common prefix depth M are grouped by their
    vertex two steps past M; groups lie within half the radius, and the
    degree bound caps the group count by mu^2. Rays r and r+1 share their
    vertex at depth `step` exactly when adjacent[r] >= step, so each group
    is a run and a ball's group count is one more than its cuts below
    `step`. Returns (all counts within mu^2, max count observed).
    """
    if es.depth < 3:
        raise InputError("doubling check needs depth >= 3")
    adjacent = es.adjacent
    bound = es.mu * es.mu
    max_parts = 1
    for lo, hi, m, _parent in _hierarchy(adjacent, es.n):
        if m is None:
            continue  # single ray, one ball covers it
        step = min(m + 2, es.depth)
        parts = 1 + sum(adjacent[r] < step for r in range(lo, hi - 1))
        if parts > max_parts:
            max_parts = parts
    return (max_parts <= bound, max_parts)


def perfectness_check(es: EndSpace, K: int) -> CheckResult:
    """For every ray and every m <= depth-K some other ray agrees to a
    depth in [m, m+K). Witness is (ray index, m) on failure."""
    if not 1 <= K <= es.depth:
        raise InputError(f"K must be in 1..{es.depth}")
    n = es.n
    depth = es.depth
    if n == 1:
        return CheckResult(False, witness=(0, 0))
    adjacent = es.adjacent
    # The depths present for ray i are the running minima of adjacent to
    # its right (from i) and to its left (from i - 1): chains of next
    # strictly smaller entries, each at most depth long.
    right = _next_smaller(range(n - 1), adjacent)
    left = _next_smaller(range(n - 2, -1, -1), adjacent)
    for i in range(n):
        present = [False] * depth
        for start, nxt in ((i, right), (i - 1, left)):
            j = start if 0 <= start < n - 1 else -1
            while j != -1:
                present[adjacent[j]] = True
                j = nxt[j]
        window = 0
        for v in range(min(K, depth)):
            window += present[v]
        for m in range(depth - K + 1):
            if window == 0:
                return CheckResult(False, witness=(i, m))
            if m + K < depth:
                window += present[m + K]
            window -= present[m]
    return CheckResult(True)


def _next_smaller(order, values) -> list[int]:
    """For each index, the first later index in `order` holding a strictly
    smaller value, or -1; one monotonic-stack pass."""
    nxt = [-1] * len(values)
    stack: list[int] = []
    for j in order:
        v = values[j]
        while stack and values[stack[-1]] > v:
            nxt[stack.pop()] = j
        stack.append(j)
    return nxt


def disconnection_check(es: EndSpace) -> CheckResult:
    """Agreement balls separate cleanly: every pair crossing a ball's
    boundary agrees strictly shallower than the ball's threshold.

    In planar order the largest crossing agreement is attained at the
    ball's edge, so checking the two boundary entries checks every cross
    pair exactly.
    """
    n = es.n
    if n == 1:
        return CheckResult(True)
    adjacent = es.adjacent
    for lo, hi, _m, parent_level in _hierarchy(adjacent, n):
        if parent_level < 0:
            continue  # whole space: threshold 0 admits no cross pairs
        threshold = parent_level + 1
        if lo > 0 and adjacent[lo - 1] >= threshold:
            return CheckResult(False, witness=(lo, lo - 1, threshold))
        if hi < n and adjacent[hi - 1] >= threshold:
            return CheckResult(False, witness=(hi - 1, hi, threshold))
    return CheckResult(True)
