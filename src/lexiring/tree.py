"""Finite trees with structure-valued edge lengths and the induced metric.

Nodes are the points; the segment between two nodes is the unique tree
path, and the distance is the level-dominant sum of edge values along
it.  With every edge value nonzero ("full support") this is a metric
valued in the ordered structure; ``verify_metric`` checks the metric and
segment axioms directly instead of assuming them.

A tree is rooted at its first listed node when built, keeping each node's
parent, edge value up and depth: ``segment``, ``distance`` and ``meet``
climb to the lowest common ancestor in O(path length).  A distance is one
``Kernel.sum`` over the path's edge values in path order: one level
comparison per edge and one residue sum at the dominant level, and under
``double()``, whose addition does not associate, the ordered left fold of
``add``.  A tree loaded by ``scenes`` shares one value object among the
edges spelled alike, and ``LTree`` checks each distinct value object
once.  ``verify_metric`` checks the segments these queries return,
O(n^3) over all node triples.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError
from .kernel import kernel_of
from .values import Value, check_value, is_zero


class LTree:
    def __init__(self, desc, nodes, edges):
        """edges: iterable of (node_a, node_b, value)."""
        self.desc = desc
        self.nodes = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise DomainError("node identifiers must be distinct")
        adj = {n: {} for n in self.nodes}
        count, checked = 0, set()  # ids of the value objects checked; adj keeps each one alive
        for a, b, v in edges:
            if a not in adj or b not in adj:
                raise DomainError(f"edge ({a!r},{b!r}) uses unknown nodes")
            if a == b or b in adj[a]:
                raise DomainError(f"bad edge ({a!r},{b!r})")
            if id(v) not in checked:
                check_value(desc, v)
                checked.add(id(v))
            adj[a][b] = v
            adj[b][a] = v
            count += 1
        if count != len(self.nodes) - 1:
            raise DomainError("a tree has exactly |nodes| - 1 edges")
        # root at the first node (no parent, no edge up); BFS checks connectivity
        self.parent, self.up, self.depth = {}, {}, {self.nodes[0]: 0}
        work = deque(self.depth)
        while work:
            cur = work.popleft()
            below = self.depth[cur] + 1
            for nxt, v in adj[cur].items():
                if nxt not in self.depth:
                    self.parent[nxt] = cur
                    self.up[nxt] = v
                    self.depth[nxt] = below
                    work.append(nxt)
        if len(self.depth) != len(self.nodes):
            raise DomainError("the edge set is not connected")

    def has_full_support(self) -> bool:
        return not any(is_zero(self.desc, v) for v in self.up.values())

    def _check_node(self, x):
        if x not in self.depth:
            raise DomainError(f"unknown node {x!r}")


def _lca(t: LTree, x, y):
    """The lowest common ancestor of x and y."""
    parent, depth = t.parent, t.depth
    if depth[x] < depth[y]:
        x, y = y, x
    for _ in range(depth[x] - depth[y]):
        x = parent[x]
    while x != y:
        x = parent[x]
        y = parent[y]
    return x


def _path_sum(t: LTree, path) -> Value:
    """The sum of the edge values along path, folded in path order (doubles do not associate)."""
    up, depth = t.up, t.depth
    return kernel_of(t.desc).sum([up[a] if depth[a] > depth[b] else up[b] for a, b in zip(path, path[1:])])


def segment(t: LTree, x, y):
    """The ordered node path from x to y; [x] when x == y."""
    t._check_node(x)
    t._check_node(y)
    w = _lca(t, x, y)
    up_x, up_y = [x], [y]
    while up_x[-1] != w:
        up_x.append(t.parent[up_x[-1]])
    while up_y[-1] != w:
        up_y.append(t.parent[up_y[-1]])
    return up_x + up_y[-2::-1]


def meet(t: LTree, x, y, z):
    """The node w with [x,y] n [x,z] = [x,w] (the median of the triple):
    the deepest of the three pairwise lowest common ancestors."""
    t._check_node(x)
    t._check_node(y)
    t._check_node(z)
    a, b = _lca(t, x, y), _lca(t, x, z)
    if a == b:
        return _lca(t, y, z)
    return a if t.depth[a] > t.depth[b] else b


def distance(t: LTree, x, y) -> Value:
    return _path_sum(t, segment(t, x, y))


def bfs_paths(adj, src) -> dict:
    """Every node's path from src, in a tree given as an adjacency mapping (the law suite's oracle for segment)."""
    paths, work = {src: [src]}, [src]
    for cur in work:
        for nxt in adj[cur]:
            if nxt not in paths:
                paths[nxt] = paths[cur] + [nxt]
                work.append(nxt)
    return paths


def verify_metric(t: LTree) -> dict:
    """Check the metric and segment axioms over all n^3 node triples; returns a report."""
    d = t.desc
    add, cmp = kernel_of(d).add, kernel_of(d).cmp
    failures = []
    if not t.has_full_support():
        failures.append("an edge carries value zero (no full support)")
    nodes = t.nodes
    paths = {(x, y): segment(t, x, y) for x in nodes for y in nodes}
    dist = {pair: _path_sum(t, path) for pair, path in paths.items()}
    for x in nodes:
        if not is_zero(d, dist[(x, x)]):
            failures.append(f"d({x},{x}) != 0")
    for x in nodes:
        for y in nodes:
            if x >= y:
                continue
            dxy = dist[(x, y)]
            if is_zero(d, dxy):
                failures.append(f"d({x},{y}) = 0 with {x} != {y}")
            if dxy != dist[(y, x)]:
                failures.append(f"d({x},{y}) != d({y},{x})")
            if list(reversed(paths[(x, y)])) != paths[(y, x)]:
                failures.append(f"segment({x},{y}) does not reverse to segment({y},{x})")
    triples = [(x, y, z) for x in nodes for y in nodes for z in nodes]
    for x, y, z in triples:
        lhs = dist[(y, z)]
        rhs = add(dist[(y, x)], dist[(x, z)])
        if cmp(lhs, rhs) > 0:
            failures.append(f"triangle inequality fails at ({x},{y},{z})")
            break
    # segment additivity: points on the path split the distance exactly
    for x in nodes:
        for y in nodes:
            for w in paths[(x, y)]:
                if dist[(x, y)] != add(dist[(x, w)], dist[(w, y)]):
                    failures.append(f"d({x},{y}) != d({x},{w}) + d({w},{y})")
                    break
    # concatenation: segments meeting at exactly one endpoint compose
    for x, y, z in triples:
        sxy, syz = paths[(x, y)], paths[(y, z)]
        if set(sxy) & set(syz) == {y}:
            if sxy[:-1] + syz != paths[(x, z)]:
                failures.append(f"segments [{x},{y}] and [{y},{z}] do not concatenate")
                break
    # meets lie on all three pairwise segments
    for x, y, z in triples:
        w = x
        for a, b in zip(paths[(x, y)], paths[(x, z)]):
            if a != b:
                break
            w = a
        if not (w in paths[(x, y)] and w in paths[(x, z)] and w in paths[(y, z)]):
            failures.append(f"meet({x},{y},{z}) is not a median")
            break
    return {"ok": not failures, "failures": failures}
