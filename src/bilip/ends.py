"""End spaces of truncated geodesically complete trees.

A ray is a root-to-depth-D path; two rays are compared through the depth
at which they last agree. Every metric statement here is an integer
statement about those agreement depths (the metric e^{-t} is monotone in
them), so no floats appear anywhere.

Rays are enumerated in planar (DFS) order. In that order the agreement
depth of any pair equals the minimum over consecutive pairs between them,
which is what lets large spaces carry the full table implicitly. A range
minimum is an ultrametric by identity, so ray-built spaces need no triple
scan; the exhaustive and sampled ultrametric checks apply to hand-built
tables (EndSpace.from_table).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError
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
    lo = [0] * t.n
    hi = [0] * t.n
    counter = 0
    stack = [(t.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            hi[v] = counter
            continue
        lo[v] = counter
        if not t.children[v]:
            counter += 1
        stack.append((v, True))
        for c in reversed(t.children[v]):
            stack.append((c, False))
    return lo, hi


@dataclass
class EndSpace:
    """Rays plus their integer agreement-depth table.

    The table is stored as the consecutive-pair array `adjacent`; arbitrary
    entries are range minima over it. (F|F) is carried as the sentinel
    `depth`. Hand-built tables (for adversarial fixtures) can be supplied
    via from_table; structure-based checks then demand planar consistency.
    """

    depth: int
    mu: int
    rays: Optional[tuple[tuple[int, ...], ...]]
    adjacent: Optional[tuple[int, ...]]
    explicit: Optional[tuple[tuple[int, ...], ...]] = None
    _sparse: list = field(default_factory=list, repr=False)

    @classmethod
    def from_table(cls, table, depth: int, mu: int) -> "EndSpace":
        n = len(table)
        for i in range(n):
            if len(table[i]) != n:
                raise InputError("agreement table must be square")
            if table[i][i] != depth:
                raise InputError("diagonal must carry the depth sentinel")
            for j in range(n):
                if table[i][j] != table[j][i]:
                    raise InputError("agreement table must be symmetric")
                if i != j and not 0 <= table[i][j] < depth:
                    raise InputError("off-diagonal entries must lie in 0..depth-1")
        return cls(
            depth=depth,
            mu=mu,
            rays=None,
            adjacent=None,
            explicit=tuple(tuple(row) for row in table),
        )

    @property
    def n(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        return len(self.rays)

    def product(self, i: int, j: int) -> int:
        """Agreement depth of rays i and j; equals depth iff i == j."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"ray index out of range: {(i, j)}")
        if self.explicit is not None:
            return self.explicit[i][j]
        if i == j:
            return self.depth
        if i > j:
            i, j = j, i
        return self._range_min(i, j)

    def _range_min(self, i: int, j: int) -> int:
        # min over adjacent[i..j), via a lazily built sparse table
        if not self._sparse:
            n_adj = len(self.adjacent)
            self._sparse.append(list(self.adjacent))
            width = 1
            while 2 * width <= n_adj:
                prev = self._sparse[-1]
                self._sparse.append(
                    [min(prev[t], prev[t + width]) for t in range(n_adj - 2 * width + 1)]
                )
                width *= 2
        span = j - i
        k = span.bit_length() - 1
        row = self._sparse[k]
        return min(row[i], row[j - (1 << k)])

    def table(self) -> list[list[int]]:
        """Materialize the full symmetric table (small spaces only)."""
        if self.explicit is not None:
            return [list(row) for row in self.explicit]
        n = self.n
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = self.depth
            running = self.depth
            for j in range(i + 1, n):
                running = min(running, self.adjacent[j - 1])
                out[i][j] = running
                out[j][i] = running
        return out

    def consistent_adjacent(self) -> tuple[int, ...]:
        """Consecutive-pair array, validating planar consistency for explicit tables."""
        if self.explicit is None:
            return self.adjacent
        n = len(self.explicit)
        adj = tuple(self.explicit[i][i + 1] for i in range(n - 1))
        for i in range(n):
            running = self.depth
            for j in range(i + 1, n):
                running = min(running, adj[j - 1])
                if self.explicit[i][j] != running:
                    raise InputError(
                        "table is not consistent with planar ray order; "
                        "run verify_ultrametric and reorder the rays first"
                    )
        return adj


def enumerate_ends(t: RootedTree) -> EndSpace:
    """One ray per depth-D leaf, in planar order, with agreement depths."""
    _require_complete(t)
    children = t.children
    rays: list[tuple[int, ...]] = [] if children[t.root] else [(t.root,)]
    # pending[d] iterates the unvisited children of path[d]; no recursion,
    # so depth is not bounded by the interpreter's frame limit
    path = [t.root]
    pending = [iter(children[t.root])]
    while pending:
        c = next(pending[-1], None)
        if c is None:
            pending.pop()
            path.pop()
        elif children[c]:
            path.append(c)
            pending.append(iter(children[c]))
        else:
            rays.append((*path, c))
    adjacent = []
    for a, b in zip(rays, rays[1:]):
        m = 0
        while a[m + 1] == b[m + 1]:
            m += 1
        adjacent.append(m)
    return EndSpace(
        depth=t.depth,
        mu=t.graph.mu,
        rays=tuple(rays),
        adjacent=tuple(adjacent),
    )


# -- metric checks ---------------------------------------------------------


def verify_ultrametric(
    es: EndSpace,
    mode: str = "auto",
    samples: int = 1_000_000,
    seed: int = 0,
) -> CheckResult:
    """m(F,H) >= min(m(F,G), m(G,H)) over triples (exact integers).

    Ray-built spaces pass by identity: there m(i, k) is the minimum of
    adjacent[i..k), so for i < j < k, m(i, k) = min(m(i, j), m(j, k)) and
    no triple can violate the inequality. Hand-built tables (from_table)
    are scanned: exhaustively below 201 rays (or with mode="exhaustive"),
    by seeded sampling above. Witness is the violating triple.
    """
    n = es.n
    if mode not in ("auto", "exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if n < 3 or es.explicit is None:
        return CheckResult(True)
    exhaustive = mode == "exhaustive" or (mode == "auto" and n <= 200)
    if exhaustive:
        table = es.table()
        for i in range(n):
            row_i = table[i]
            for j in range(i + 1, n):
                row_j = table[j]
                m_ij = row_i[j]
                for k in range(j + 1, n):
                    a, b, c = m_ij, row_j[k], row_i[k]
                    lo = min(a, b, c)
                    if (a == lo) + (b == lo) + (c == lo) < 2:
                        return CheckResult(False, witness=(i, j, k))
        return CheckResult(True)
    rng = random.Random(seed)
    for _ in range(samples):
        i = rng.randrange(n)
        j = rng.randrange(n)
        k = rng.randrange(n)
        a = es.product(i, j)
        b = es.product(j, k)
        c = es.product(i, k)
        lo = min(a, b, c)
        if (a == lo) + (b == lo) + (c == lo) < 2:
            return CheckResult(False, witness=(i, j, k))
    return CheckResult(True)


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
    degree bound caps the group count by mu^2. Returns (all counts within
    mu^2, max count observed).
    """
    if es.rays is None:
        raise InputError("doubling check needs rays, not just a table")
    if es.depth < 3:
        raise InputError("doubling check needs depth >= 3")
    adjacent = es.consistent_adjacent()
    n = es.n
    bound = es.mu * es.mu
    max_parts = 1
    for lo, hi, m, _parent in _hierarchy(adjacent, n):
        if m is None:
            continue  # single ray, one ball covers it
        step = min(m + 2, es.depth)
        parts = len({es.rays[r][step] for r in range(lo, hi)})
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
    adjacent = es.consistent_adjacent()
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
    adjacent = es.consistent_adjacent()
    for lo, hi, _m, parent_level in _hierarchy(adjacent, n):
        if parent_level < 0:
            continue  # whole space: threshold 0 admits no cross pairs
        threshold = parent_level + 1
        if lo > 0 and adjacent[lo - 1] >= threshold:
            return CheckResult(False, witness=(lo, lo - 1, threshold))
        if hi < n and adjacent[hi - 1] >= threshold:
            return CheckResult(False, witness=(hi - 1, hi, threshold))
    return CheckResult(True)
