"""Independent reference answers for the benchmark.

Nothing here imports lexiring.  Values of ``P = Z /\\ Ro`` and
``O = Z /\\ Rc`` (finite residues only) are modelled with
``fractions.Fraction``: ``None`` is the adjoined zero and ``(level, r)``
with ``r > 0`` is any other element.  The rules are the paper's:

* under ``+`` the higher level dominates and equal levels add residues;
* under ``*`` levels add and residues multiply;
* ``inv`` negates the level and inverts the residue.

Trees are answered from parent pointers kept by the generator: the LCA
by walking up, distances from per-level prefix sums along root paths,
and ``meet`` as the deepest of the three pairwise LCAs.
"""

from __future__ import annotations

from fractions import Fraction


def add(x, y):
    if x is None:
        return y
    if y is None:
        return x
    if x[0] != y[0]:
        return x if x[0] > y[0] else y
    return (x[0], x[1] + y[1])


def mul(x, y):
    if x is None or y is None:
        return None
    return (x[0] + y[0], x[1] * y[1])


def inv(x):
    return (-x[0], 1 / x[1])


def div(x, y):
    return mul(x, inv(y))


def fmt(x) -> str:
    """The canonical literal lexiring prints for the same value."""
    if x is None:
        return "0"
    return f"({x[0]},{x[1]})"


class RootedTree:
    """A tree given by parent pointers, rooted at node 0.

    ``levels`` lists the edge levels that occur, highest first.  Residues
    are kept as integers scaled by ``scale`` so that prefix sums stay
    plain integers; a path's residue is read back as a ``Fraction``.
    """

    def __init__(self, names, parent, edges, levels, scale):
        self.names = names
        self.parent = parent
        self.levels = levels
        self.scale = scale
        n = len(parent)
        self.depth = [0] * n
        # prefix[v][i] = (edge count, scaled residue sum) at levels[i] on root..v
        zero = tuple((0, 0) for _ in levels)
        self.prefix = [zero] * n
        index = {lev: i for i, lev in enumerate(levels)}
        for v in range(1, n):  # parents precede children
            p = parent[v]
            lev, scaled = edges[v]
            self.depth[v] = self.depth[p] + 1
            row = list(self.prefix[p])
            c, s = row[index[lev]]
            row[index[lev]] = (c + 1, s + scaled)
            self.prefix[v] = tuple(row)

    def lca(self, x: int, y: int) -> int:
        depth, parent = self.depth, self.parent
        while depth[x] > depth[y]:
            x = parent[x]
        while depth[y] > depth[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        return x

    def distance(self, x: int, y: int):
        w = self.lca(x, y)
        px, py, pw = self.prefix[x], self.prefix[y], self.prefix[w]
        for i, lev in enumerate(self.levels):
            if px[i][0] + py[i][0] - 2 * pw[i][0] > 0:
                return (lev, Fraction(px[i][1] + py[i][1] - 2 * pw[i][1], self.scale))
        return None

    def path(self, x: int, y: int) -> list:
        w = self.lca(x, y)
        up, down = [], []
        while x != w:
            up.append(x)
            x = self.parent[x]
        while y != w:
            down.append(y)
            y = self.parent[y]
        return up + [w] + down[::-1]

    def meet(self, x: int, y: int, z: int) -> int:
        return max((self.lca(x, y), self.lca(x, z), self.lca(y, z)), key=self.depth.__getitem__)
