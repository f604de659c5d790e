"""Tree fixtures shared by the test modules."""

from bilip.trees import RootedTree


def add_dead_end(t: RootedTree, vertex: int, length: int) -> RootedTree:
    """t with one nonbranching path of `length` new vertices attached at `vertex`."""
    parents = list(t.parent)
    attach = vertex
    for _ in range(length):
        parents.append(attach)
        attach = len(parents) - 1
    return RootedTree.from_parents(parents)
