import networkx as nx
import numpy as np
import pytest

from rigsim.canon import canonical_code, unrooted_code
from rigsim.graphs import Graph, RootedGraph

from tests.conftest import random_connected_graph


def to_networkx(g: Graph, root: int) -> nx.Graph:
    G = nx.Graph()
    for v in range(g.vertex_count):
        G.add_node(v, root=(v == root))
    G.add_edges_from(g.edges())
    return G


def rooted_isomorphic(g1, r1, g2, r2) -> bool:
    return nx.vf2pp_is_isomorphic(to_networkx(g1, r1), to_networkx(g2, r2), node_label="root")


K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
STAR3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_k3_root_invariant():
    codes = {canonical_code(RootedGraph(K3, v)) for v in range(3)}
    assert len(codes) == 1


def test_p3_end_vs_center_differ():
    assert canonical_code(RootedGraph(P3, 0)) != canonical_code(RootedGraph(P3, 1))
    assert canonical_code(RootedGraph(P3, 0)) == canonical_code(RootedGraph(P3, 2))


def test_star_center_vs_leaf_differ():
    assert canonical_code(RootedGraph(STAR3, 0)) != canonical_code(RootedGraph(STAR3, 1))


def test_disconnected_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="requires a connected graph"):
        canonical_code(RootedGraph(g, 0))


def test_relabeling_invariance(rng):
    for _ in range(150):
        g = random_connected_graph(rng)
        n = g.vertex_count
        root = int(rng.integers(n))
        perm = rng.permutation(n)
        g2 = Graph.from_edges(n, [(int(perm[a]), int(perm[b])) for a, b in g.edges()])
        assert canonical_code(RootedGraph(g, root)) == canonical_code(
            RootedGraph(g2, int(perm[root]))
        )


def test_code_equality_iff_vf2_isomorphism(rng):
    items = []
    for _ in range(40):
        g = random_connected_graph(rng, n_max=7)
        root = int(rng.integers(g.vertex_count))
        items.append((g, root, canonical_code(RootedGraph(g, root))))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            g1, r1, c1 = items[i]
            g2, r2, c2 = items[j]
            assert (c1 == c2) == rooted_isomorphic(g1, r1, g2, r2)


def test_different_degree_multisets_differ(rng):
    # a code never appears under two different (n, degree multiset) classes
    seen: dict[bytes, tuple] = {}
    for _ in range(60):
        g = random_connected_graph(rng, n_max=8)
        cls = (g.vertex_count, tuple(sorted(g.degrees().tolist())))
        code = canonical_code(RootedGraph(g, 0))
        assert seen.setdefault(code, cls) == cls


def test_large_clique_with_fuzz_fast_and_invariant(rng):
    # a planted-clique style ball: root joined to a big clique plus pendants
    s = 80
    edges = [(i, j) for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    edges += [(0, i) for i in range(1, s + 1)]
    edges += [(0, s + 1), (s + 1, s + 2), (5, s + 3)]
    g = Graph.from_edges(s + 4, edges)
    c1 = canonical_code(RootedGraph(g, 0))
    perm = rng.permutation(s + 4)
    g2 = Graph.from_edges(s + 4, [(int(perm[a]), int(perm[b])) for a, b in edges])
    assert canonical_code(RootedGraph(g2, int(perm[0]))) == c1


def test_symmetric_tree():
    edges = [((i - 1) // 2, i) for i in range(1, 63)]
    g = Graph.from_edges(63, edges)
    c = canonical_code(RootedGraph(g, 0))
    assert isinstance(c, bytes) and len(c) > 0


def test_unrooted_code_iso_invariant(rng):
    for _ in range(30):
        g = random_connected_graph(rng, n_max=7)
        perm = rng.permutation(g.vertex_count)
        g2 = Graph.from_edges(
            g.vertex_count, [(int(perm[a]), int(perm[b])) for a, b in g.edges()]
        )
        assert unrooted_code(g) == unrooted_code(g2)
