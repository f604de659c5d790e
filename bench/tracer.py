"""Timing wrappers installed on bilip's public functions from outside.

The tracer patches every module or class attribute that binds a listed
function, records one span per call (name, start, end, parent span,
pipeline iteration) in compact in-memory arrays, and restores every
patched attribute on exit. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# (layer, short name, "module:attribute path") for each wrapped function.
# A dotted attribute path names a method of a class in that module.
TARGETS = (
    ("jsonio", "load_json", "jsonio:load_json"),
    ("jsonio", "graph_from_dict", "jsonio:graph_from_dict"),
    ("jsonio", "tree_from_graph", "jsonio:tree_from_graph"),
    ("jsonio", "filling_from_dict", "jsonio:filling_from_dict"),
    ("jsonio", "save_json", "jsonio:save_json"),
    ("graph", "init", "graph:UdbgGraph.__init__"),
    ("graph", "ball", "graph:UdbgGraph.ball"),
    ("graph", "sphere", "graph:UdbgGraph.sphere"),
    ("graph", "boundary", "graph:UdbgGraph.boundary"),
    ("graph", "distance", "graph:UdbgGraph.distance"),
    ("graph", "bfs_row", "graph:UdbgGraph.bfs_row"),
    ("graph", "distances_from_set", "graph:UdbgGraph.distances_from_set"),
    ("graph", "interior", "graph:Truncation.interior"),
    ("graph", "from_graph", "graph:Truncation.from_graph"),
    ("trees", "gen_kary", "trees:gen_kary"),
    ("trees", "graft_dead_ends", "trees:graft_dead_ends"),
    ("trees", "from_parents", "trees:RootedTree.from_parents"),
    ("trees", "complete_core", "trees:complete_core"),
    ("ends", "enumerate_ends", "ends:enumerate_ends"),
    ("ends", "verify_ultrametric", "ends:verify_ultrametric"),
    ("ends", "doubling_check", "ends:doubling_check"),
    ("ends", "perfectness_check", "ends:perfectness_check"),
    ("ends", "disconnection_check", "ends:disconnection_check"),
    ("qimaps", "hierarchical_end_map", "qimaps:hierarchical_end_map"),
    ("qimaps", "induced_vertex_map", "qimaps:induced_vertex_map"),
    ("qimaps", "tree_vertex_map", "qimaps:tree_vertex_map"),
    ("qimaps", "qi_constants", "qimaps:qi_constants"),
    ("filling", "make_space", "filling:make_space"),
    ("filling", "greedy_net", "filling:greedy_net"),
    ("filling", "build_filling", "filling:build_filling"),
    ("filling", "nearest_center_map", "filling:nearest_center_map"),
    ("cheeger", "family_sets", "cheeger:family_sets"),
    ("cheeger", "cheeger_family", "cheeger:cheeger_family"),
    ("cheeger", "cheeger_exact", "cheeger:cheeger_exact"),
    ("promote", "promote_matching", "promote:promote_matching"),
    ("promote", "bilipschitz_constant", "promote:bilipschitz_constant"),
    ("promote", "verify_promotion_consistency", "promote:verify_promotion_consistency"),
    ("promote", "sum_boundary_criterion", "promote:sum_boundary_criterion"),
    ("promote", "deficiency_chain", "promote:deficiency_chain"),
)


def _save_json_bytes(args, kwargs, _result):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


# Counters read off a wrapped call: span name -> (counter name, function
# of (args, kwargs, result) giving the increment).
COUNTERS = {
    "graph.ball": ("graph.ball.out_vertices", lambda a, k, r: len(r)),
    "cheeger.family_sets": ("cheeger.family_sets.sets", lambda a, k, r: len(r)),
    "jsonio.save_json": ("jsonio.save_json.bytes", _save_json_bytes),
}


def is_private(name: str) -> bool:
    """Single-underscore names are private; dunders such as __init__ are not."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


class SpanLog:
    """Spans kept in parallel arrays; ids are indices, -1 means no parent."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.iteration = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.current_iteration = 0

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.iteration.append(self.current_iteration)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> list[tuple[int, int, str, int, int]]:
        """(id, parent, name, start_ns, end_ns) for every span."""
        names = self.names
        return [(i, self.parent[i], names[self.name[i]], self.start[i], self.end[i])
                for i in range(len(self.start))]

    def write_jsonl(self, path, header: dict) -> None:
        columns = ["span", "parent", "name", "iteration", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "columns": columns}, sort_keys=True) + "\n")
            for sid, parent, name, start, end in self.spans():
                row = [sid, parent, name, self.iteration[sid], start, end]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Per-name (calls, self time) from (id, parent, name, start, end) rows.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so children never overlap one another.
    """
    spans = list(spans)
    child_total: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, list[int]] = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_total.get(sid, 0)
    return {name: (calls, self_ns) for name, (calls, self_ns) in out.items()}


def _wrap(fn, log: SpanLog, span_name: str):
    nid = log.name_id(span_name)
    counter = COUNTERS.get(span_name)
    counters = log.counters

    if counter is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log.exit(idx)
    else:
        counter_name, measure = counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.exit(idx)
            counters[counter_name] += measure(args, kwargs, result)
            return result

    return wrapper


class Tracer:
    """Installs wrappers for TARGETS on every binding inside bilip.

    Use as a context manager: entering patches, leaving restores every
    patched attribute to the exact object it held before.
    """

    def __init__(self, log: SpanLog, targets=TARGETS):
        self.log = log
        self.targets = targets
        self.missing: list[str] = []
        self.bindings: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "bilip" or name.startswith("bilip."))]

    def _patch(self, owner, attr: str, value, label: str) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        self.bindings.append(label)

    def install(self) -> None:
        self.missing = []
        self.bindings = []
        for layer, short, where in self.targets:
            module_name, path = where.split(":")
            span_name = f"{layer}.{short}"
            parts = path.split(".")
            if any(is_private(p) for p in parts):
                self.missing.append(f"{where} (private, not wrapped)")
                continue
            try:
                module = importlib.import_module(f"bilip.{module_name}")
            except ImportError:
                self.missing.append(where)
                continue
            if len(parts) == 2:
                self._install_method(module, parts[0], parts[1], span_name, where)
            else:
                self._install_function(module, parts[0], span_name, where)

    def _install_function(self, module, attr: str, span_name: str, where: str) -> None:
        fn = module.__dict__.get(attr)
        if not callable(fn):
            self.missing.append(where)
            return
        wrapper = _wrap(fn, self.log, span_name)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is fn and not is_private(name):
                    self._patch(mod, name, wrapper, f"{mod.__name__}.{name}")

    def _install_method(self, module, cls_name: str, attr: str, span_name: str, where: str) -> None:
        cls = module.__dict__.get(cls_name)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, classmethod):
            value = classmethod(_wrap(raw.__func__, self.log, span_name))
        elif callable(raw):
            value = _wrap(raw, self.log, span_name)
        else:
            self.missing.append(where)
            return
        self._patch(cls, attr, value, f"{cls.__module__}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
