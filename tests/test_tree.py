"""Tree segments, meets, and the induced metric."""

import random
from collections import deque

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, ShapeError
from lexiring.ops import add
from lexiring.tree import LTree, distance, meet, segment, verify_metric
from lexiring.values import ZERO, Pair, Scalar, parse_value, zero
from lexiring.xreal import XReal


def pv(struct, text):
    return parse_value(parse_struct(struct), text)


def path_tree():
    d = parse_struct("O")
    return LTree(
        d,
        ["a", "b", "c"],
        [("a", "b", pv("O", "(0,1)")), ("b", "c", pv("O", "(0,2)"))],
    )


def star_tree():
    d = parse_struct("O")
    return LTree(
        d,
        ["hub", "p", "q", "r"],
        [
            ("hub", "p", pv("O", "(1,1)")),
            ("hub", "q", pv("O", "(0,5)")),
            ("hub", "r", pv("O", "(2,1/2)")),
        ],
    )


def test_segments():
    t = path_tree()
    assert segment(t, "a", "c") == ["a", "b", "c"]
    assert segment(t, "a", "a") == ["a"]
    assert list(reversed(segment(t, "a", "c"))) == segment(t, "c", "a")


def test_meet():
    t = star_tree()
    assert meet(t, "p", "q", "r") == "hub"
    assert meet(t, "p", "q", "q") == "q"
    assert meet(t, "p", "p", "q") == "p"


def test_meet_against_path_intersection_oracle():
    rng = random.Random(12)
    for _ in range(60):
        t = random_tree(rng, rng.randrange(2, 11))
        nodes = t.nodes
        for _ in range(20):
            x, y, z = (rng.choice(nodes) for _ in range(3))
            w = meet(t, x, y, z)
            inter = [n for n in segment(t, x, y) if n in set(segment(t, x, z))]
            assert inter == segment(t, x, w)


def test_distance():
    t = path_tree()
    assert distance(t, "a", "b") == pv("O", "(0,1)")
    assert distance(t, "a", "c") == pv("O", "(0,3)")
    assert distance(t, "a", "a") is ZERO
    s = star_tree()
    assert distance(s, "p", "q") == pv("O", "(1,1)")  # dominance along the path


def test_single_edge_distance():
    d = parse_struct("O")
    t = LTree(d, ["x", "y"], [("x", "y", pv("O", "(2,1/2)"))])
    assert distance(t, "x", "y") == pv("O", "(2,1/2)")


def test_distance_additive_when_on_segment():
    t = star_tree()
    for x, y in (("p", "q"), ("p", "r"), ("q", "r")):
        for w in segment(t, x, y):
            from lexiring.ops import add

            assert distance(t, x, y) == add(t.desc, distance(t, x, w), distance(t, w, y))


def test_verify_metric_passes():
    assert verify_metric(path_tree())["ok"]
    assert verify_metric(star_tree())["ok"]


def test_zero_edge_fails_identity():
    d = parse_struct("O")
    t = LTree(d, ["x", "y"], [("x", "y", ZERO)])
    report = verify_metric(t)
    assert not report["ok"]
    assert any("full support" in f or "= 0" in f for f in report["failures"])


def test_malformed_trees_rejected():
    d = parse_struct("O")
    with pytest.raises(DomainError):
        LTree(d, ["a", "b", "c"], [("a", "b", pv("O", "(0,1)"))])  # disconnected
    with pytest.raises(DomainError):
        LTree(
            d,
            ["a", "b", "c"],
            [
                ("a", "b", pv("O", "(0,1)")),
                ("b", "c", pv("O", "(0,1)")),
                ("a", "c", pv("O", "(0,1)")),
            ],
        )  # cycle
    with pytest.raises(DomainError):
        LTree(d, ["a"], [("a", "a", pv("O", "(0,1)"))])


def test_a_shared_ill_shaped_edge_value_is_still_refused():
    d = parse_struct("O")
    bad = Pair(Scalar(0), Scalar(XReal(0)))  # a zero residue, which insertion removes
    with pytest.raises(ShapeError, match="insertion removes it"):
        LTree(d, ["a", "b", "c", "d"], [("a", "b", bad), ("b", "c", bad), ("c", "d", bad)])
    good = pv("O", "(0,1)")
    with pytest.raises(ShapeError, match="insertion removes it"):
        LTree(d, ["a", "b", "c"], [("a", "b", good), ("b", "c", bad)])


def random_literal(rng, struct):
    """An edge literal at a level in -2..2 (0..2 over N0); bar structures also draw top, and N0 \\/ Rc its zero pair."""
    if struct in ("Obar", "Sbar", r"N0 \/ Rc") and rng.random() < 0.15:
        return "0" if struct == r"N0 \/ Rc" else "top"
    low = 0 if struct in ("Sbar", r"N0 \/ Rc") else -2
    return f"({rng.randrange(low, 3)},{rng.randrange(1, 9)}/{rng.randrange(1, 5)})"


def random_edges(rng, n, struct="O"):
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        edges.append((parent, nodes[i], pv(struct, random_literal(rng, struct))))
    return nodes, edges


def random_tree(rng, n, struct="O"):
    return LTree(parse_struct(struct), *random_edges(rng, n, struct))


def test_random_trees_satisfy_metric_axioms():
    rng = random.Random(13)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(2, 13))
        assert verify_metric(t)["ok"]


def bfs_path(adj, x, y):
    """The x -> y path by a BFS over the edge list, independent of the tree's rooting."""
    parent = {x: None}
    work = deque((x,))
    while work:
        cur = work.popleft()
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                work.append(nxt)
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return path[::-1]


def check_queries_against_bfs(t, edges, triples):
    adj = {n: {} for n in t.nodes}
    for a, b, v in edges:
        adj[a][b] = adj[b][a] = v
    for x, y, z in triples:
        pxy, pxz = bfs_path(adj, x, y), bfs_path(adj, x, z)
        assert segment(t, x, y) == pxy
        acc = zero(t.desc)
        for a, b in zip(pxy, pxy[1:]):
            acc = add(t.desc, acc, adj[a][b])
        assert distance(t, x, y) == acc
        on_xz = set(pxz)
        assert bfs_path(adj, x, meet(t, x, y, z)) == [u for u in pxy if u in on_xz]


def sample_triples(rng, nodes, k):
    triples = [tuple(rng.choice(nodes) for _ in range(3)) for _ in range(k)]
    x, y = rng.choice(nodes), rng.choice(nodes)
    return triples + [(x, x, y), (y, x, x), (x, y, y), (x, x, x)]


def test_queries_match_bfs_on_bushy_trees():
    # doubles add non-associatively, so a distance folded in another order differs
    rng = random.Random(14)
    # Obar and Sbar draw top edges; the zero of N0 \/ Rc is a pair, not the adjoined 0
    for struct in ("O", "double(O)", "Obar", "Sbar", r"N0 \/ Rc"):
        for _ in range(30):
            nodes, edges = random_edges(rng, rng.randrange(2, 40), struct)
            rng.shuffle(nodes)  # root the tree at an arbitrary node
            edges = [(b, a, v) if rng.random() < 0.5 else (a, b, v) for a, b, v in edges]
            if struct == "double(O)":
                edges = [(a, b, pv(struct, "-(0,1)")) if rng.random() < 0.3 else (a, b, v) for a, b, v in edges]
            t = LTree(parse_struct(struct), nodes, edges)
            check_queries_against_bfs(t, edges, sample_triples(rng, nodes, 20))


def test_queries_match_bfs_on_caterpillar_rooted_at_a_leaf():
    for struct in ("O", "double(O)"):  # long paths whose addition does not associate under double
        rng = random.Random(15)
        spine = [f"s{i}" for i in range(200)]
        edges = [(a, b, f"({rng.randrange(-1, 2)},{rng.randrange(1, 5)})") for a, b in zip(spine, spine[1:])]
        legs = []
        for s in spine:
            at = s
            for j in range(rng.randint(1, 2)):
                leg = f"{s}_{j}"
                edges.append((at, leg, f"({rng.randrange(-1, 2)},1/{rng.randrange(1, 4)})"))
                legs.append(leg)
                at = leg
            if s == "s100":
                leaf = at  # the end of a leg halfway along the spine
        if struct == "double(O)":  # every third edge negative
            edges = [(a, b, "-" + text if i % 3 == 0 else text) for i, (a, b, text) in enumerate(edges)]
        edges = [(a, b, pv(struct, text)) for a, b, text in edges]
        nodes = [leaf] + [n for n in spine + legs if n != leaf]
        assert len(nodes) >= 300
        t = LTree(parse_struct(struct), nodes, edges)
        check_queries_against_bfs(t, edges, sample_triples(rng, nodes, 150))


def test_meet_checks_every_node():
    t = star_tree()
    for args in (("nope", "p", "q"), ("p", "nope", "q"), ("p", "q", "nope")):
        with pytest.raises(DomainError, match="unknown node 'nope'"):
            meet(t, *args)


def test_zero_edge_fails_full_support():
    d = parse_struct("O")
    nodes = ["c", "a", "b", "d"]
    edges = [("a", "b", pv("O", "(0,1)")), ("b", "c", pv("O", "(1,2)")), ("d", "b", pv("O", "(0,3)"))]
    assert LTree(d, nodes, edges).has_full_support()
    for i, (a, b, _) in enumerate(edges):
        with_zero = edges[:i] + [(a, b, ZERO)] + edges[i + 1:]
        assert not LTree(d, nodes, with_zero).has_full_support()


def test_verify_metric_certifies_the_segments_the_queries_return(monkeypatch):
    import lexiring.tree as tree
    from lexiring.laws import random_tree_edges

    t = LTree(parse_struct("O"), *random_tree_edges(random.Random(8), 8))
    assert verify_metric(t)["ok"]
    monkeypatch.setattr(tree, "_lca", lambda t, x, y: t.nodes[0])  # every climb goes to the root
    failures = verify_metric(t)["failures"]
    assert failures[0] == "d(n1,n1) != 0"
    assert "d(n0,n5) != d(n0,n3) + d(n3,n5)" in failures


def test_tree_laws_catch_a_wrong_climb_or_edge_record(monkeypatch):
    import lexiring.tree as tree
    from lexiring.laws import tree_laws

    assert tree_laws(seed=5, cases=20)[0].ok
    with monkeypatch.context() as m:
        m.setattr(tree, "_lca", lambda t, x, y: t.nodes[0])  # every climb goes to the root
        [r] = tree_laws(seed=5, cases=20)
        assert not r.ok and r.detail == "segment disagrees with the BFS path"
    built = tree.LTree.__init__

    def record_one_edge_value(self, desc, nodes, edges):
        built(self, desc, nodes, edges)
        first = next(iter(self.up.values()), None)
        self.up = dict.fromkeys(self.up, first)

    monkeypatch.setattr(tree.LTree, "__init__", record_one_edge_value)
    [r] = tree_laws(seed=5, cases=20)
    assert not r.ok and r.detail == "distance disagrees with the fold along the BFS path"


def test_tree_laws_report_what_only_the_metric_check_sees(monkeypatch):
    from lexiring.laws import tree_laws

    monkeypatch.setattr(LTree, "has_full_support", lambda self: False)  # the BFS oracle never asks
    [r] = tree_laws(seed=5, cases=20)
    assert not r.ok and r.detail == "metric axioms failed"


ONE_O = parse_value(parse_struct("O"), "(0,1)")


@pytest.mark.parametrize("nodes, edges, message", [
    (["a", "a"], [("a", "a", ONE_O)], "node identifiers must be distinct"),
    (["a", "b"], [("a", "z", ONE_O)], "edge ('a','z') uses unknown nodes"),
    (["a", "b", "c", "d"], [("a", "b", ONE_O), ("b", "c", ONE_O), ("c", "a", ONE_O)], "the edge set is not connected"),
])
def test_tree_refusals(nodes, edges, message):
    with pytest.raises(DomainError) as exc:
        LTree(parse_struct("O"), nodes, edges)
    assert str(exc.value) == message
