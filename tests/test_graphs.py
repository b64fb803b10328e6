from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim.graphs import (
    BipartiteMultigraph,
    Graph,
    RootedGraph,
    _unique,
    ball,
    intersection_graph,
    read_bipartite,
    read_graph,
    write_bipartite,
    write_graph,
)
from rigsim.rng import substream
from tests.oracles import degree_sequence, loc_distance, part_degrees, validate

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@given(st.lists(st.integers(-5, 5), max_size=30))
def test_unique_is_np_unique(xs):
    a = np.asarray(xs, dtype=np.int64)
    values, counts = np.unique(a, return_counts=True)
    assert np.array_equal(_unique(a), values)
    got = _unique(a, return_counts=True)
    assert np.array_equal(got[0], values) and np.array_equal(got[1], counts) and got[1].dtype == counts.dtype


class TestGraph:
    def test_from_edges_dedupes_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2
        validate(g)
        assert list(g.neighbors(1)) == [0, 2]

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_degree_sequence_examples(self):
        assert degree_sequence(K3) == [2, 2, 2]
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_sequence(star) == [3, 1, 1, 1]
        assert degree_sequence(Graph.empty(4)) == [0, 0, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 15), data=st.data())
    def test_from_edges_matches_lexsort_build(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                   .filter(lambda e: e[0] != e[1]), min_size=1, max_size=40))
        arr = np.array(pairs)
        g, old = Graph.from_edges(n, pairs), csr_by_lexsort(n, arr.min(axis=1) * n + arr.max(axis=1))
        assert np.array_equal(g.indptr, old.indptr) and np.array_equal(g.indices, old.indices)

    def test_has_edge(self):
        assert K3.has_edge(0, 2) and not P3.has_edge(0, 2)


def per_attribute_projection(H: BipartiteMultigraph) -> Graph:
    """The projection as it was written: one ``triu_indices`` per attribute,
    ``np.unique`` and a ``lexsort`` of the half-edges."""
    packed = []
    n1 = max(H.n1, 1)
    bounds = np.flatnonzero(np.diff(H.edge_w)) + 1
    for members in np.split(H.edge_u, bounds) if H.edge_w.size else []:
        m = members.size
        if m < 2:
            continue
        iu, jv = np.triu_indices(m, k=1)
        a, b = members[iu], members[jv]
        packed.append(np.minimum(a, b) * np.int64(n1) + np.maximum(a, b))
    if not packed:
        return Graph.empty(H.n1)
    return csr_by_lexsort(H.n1, np.concatenate(packed))


def csr_by_lexsort(n: int, packed: np.ndarray) -> Graph:
    """CSR arrays from edge keys lo * n + hi as they were built: ``np.unique``,
    then a ``lexsort`` of both half-edges and ``np.add.at`` for indptr."""
    uniq = np.unique(packed)
    src = np.concatenate([uniq // n, uniq % n])
    dst = np.concatenate([uniq % n, uniq // n])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    return Graph(n, np.cumsum(indptr), dst[order])


class TestIntersectionGraph:
    def test_star_attribute_gives_triangle(self):
        H = BipartiteMultigraph.from_pairs(3, 1, [(0, 0), (1, 0), (2, 0)])
        assert list(intersection_graph(H).edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_gives_isolated_vertices(self):
        H = BipartiteMultigraph.from_pairs(5, 3, [])
        G = intersection_graph(H)
        assert G.vertex_count == 5 and G.edge_count == 0

    def test_alternating_path_projects_to_path(self):
        H = BipartiteMultigraph.from_pairs(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        assert list(intersection_graph(H).edges()) == [(0, 1), (1, 2)]

    def test_multiplicities_collapse(self):
        H = BipartiteMultigraph.from_pairs(2, 1, [(0, 0), (0, 0), (1, 0)])
        assert H.mult.max() == 2
        G = intersection_graph(H)
        assert G.edge_count == 1

    def test_repeated_witnesses_collapse(self):
        # two attributes both containing {0, 1}
        H = BipartiteMultigraph.from_pairs(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert intersection_graph(H).edge_count == 1

    def test_simple_and_symmetric_on_random_inputs(self, rng):
        for _ in range(30):
            n1, n2 = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            m = int(rng.integers(0, 40))
            pairs = [(int(rng.integers(n1)), int(rng.integers(n2))) for _ in range(m)]
            G = intersection_graph(BipartiteMultigraph.from_pairs(n1, n2, pairs))
            assert G.vertex_count == n1
            validate(G)

    @settings(max_examples=80, deadline=None)
    @given(n1=st.integers(0, 12), n2=st.integers(0, 8), data=st.data())
    def test_matches_per_attribute_projection(self, n1, n2, data):
        # repeated incidences, single-member attributes and an empty H included
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), max_size=40)
                          if n1 and n2 else st.just([]))
        H = BipartiteMultigraph.from_pairs(n1, n2, pairs)
        G, old = intersection_graph(H), per_attribute_projection(H)
        assert G.vertex_count == old.vertex_count == n1
        assert np.array_equal(G.indptr, old.indptr) and np.array_equal(G.indices, old.indices)

    def test_from_pairs_array_matches_tuples(self):
        pairs = [(2, 0), (0, 1), (2, 0), (1, 1), (0, 0)]
        a = BipartiteMultigraph.from_pairs(3, 2, np.array(pairs))
        b = BipartiteMultigraph.from_pairs(3, 2, pairs)
        for x, y in ((a.edge_u, b.edge_u), (a.edge_w, b.edge_w), (a.mult, b.mult)):
            assert np.array_equal(x, y)
        with pytest.raises(ValueError):
            BipartiteMultigraph.from_pairs(3, 2, np.array([0, 1, 2]))

    def test_part_degrees(self):
        H = BipartiteMultigraph.from_pairs(3, 2, [(0, 0), (0, 1), (2, 1), (2, 1)])
        assert part_degrees(H, 1).tolist() == [3, 0, 1] or part_degrees(H, 1).tolist() == [2, 0, 2]


class TestBall:
    def test_radius_zero_single_vertex(self):
        b = ball(K3, 1, 0)
        assert b.graph.vertex_count == 1 and b.root == 0

    def test_p3_endpoint_radius_one(self):
        b = ball(P3, 0, 1)
        assert b.graph.vertex_count == 2 and b.graph.edge_count == 1

    def test_k4_radius_one_is_k4(self):
        K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        b = ball(K4, 2, 1)
        assert b.graph.vertex_count == 4 and b.graph.edge_count == 6

    def test_truncation_idempotent(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(20):
            g = random_connected_graph(rng)
            v = int(rng.integers(g.vertex_count))
            r = int(rng.integers(0, 4))
            s = int(rng.integers(0, r + 1))
            outer = ball(g, v, r)
            assert ball(outer.graph, 0, s).code == ball(g, v, s).code

    def test_radius_at_most_r(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(20):
            g = random_connected_graph(rng)
            v = int(rng.integers(g.vertex_count))
            r = int(rng.integers(0, 4))
            b = ball(g, v, r)
            # BFS depth from the root never exceeds r
            dist = {0: 0}
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in b.graph.neighbors(u):
                        if int(w) not in dist:
                            dist[int(w)] = dist[u] + 1
                            nxt.append(int(w))
                frontier = nxt
            assert len(dist) == b.graph.vertex_count
            assert max(dist.values()) <= r


class TestLocDistance:
    def test_identical_graphs_capped(self):
        rg = RootedGraph(path_graph(6), 0)
        d = loc_distance(rg, rg, 10)
        assert d.value == Fraction(1, 1024) and d.capped

    def test_k2_vs_k3(self):
        d = loc_distance(RootedGraph(Graph.from_edges(2, [(0, 1)]), 0), RootedGraph(K3, 0), 5)
        assert d.value == 1 and d.agreement_radius == 0

    def test_paths_of_length_5_and_6(self):
        # length in edges: balls agree up to radius 5
        d = loc_distance(RootedGraph(path_graph(6), 0), RootedGraph(path_graph(7), 0), 10)
        assert d.value == Fraction(1, 32) and not d.capped

    def test_symmetry_and_ultrametric(self, rng):
        from tests.conftest import random_connected_graph

        graphs = [RootedGraph(random_connected_graph(rng, n_max=8), 0) for _ in range(12)]
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                dij = loc_distance(graphs[i], graphs[j], 6).value
                assert dij == loc_distance(graphs[j], graphs[i], 6).value
                for k in range(len(graphs)):
                    dik = loc_distance(graphs[i], graphs[k], 6).value
                    dkj = loc_distance(graphs[k], graphs[j], 6).value
                    assert dij <= max(dik, dkj)


class TestSerialization:
    def test_graph_roundtrip(self, tmp_path, rng):
        from tests.conftest import random_graph

        for _ in range(5):
            g = random_graph(rng)
            p = tmp_path / "g.txt"
            write_graph(g, str(p))
            g2 = read_graph(str(p))
            assert g == g2

    def test_bipartite_roundtrip(self, tmp_path):
        H = BipartiteMultigraph.from_pairs(3, 2, [(0, 0), (0, 0), (1, 1), (2, 0)])
        p = tmp_path / "h.txt"
        write_bipartite(H, str(p))
        H2 = read_bipartite(str(p))
        assert H2.n1 == 3 and H2.n2 == 2
        assert np.array_equal(H2.mult, H.mult)
        assert np.array_equal(H2.edge_u, H.edge_u)

    def test_files_match_the_line_writer(self, tmp_path):
        # the text each writer produced one f-string line at a time
        from rigsim.generators import gen_configuration

        H = gen_configuration([3, 0, 2, 4], [2, 2, 5], substream(3))
        G = intersection_graph(H)
        assert H.mult.max() > 1
        for g in (G, Graph.empty(3)):
            text = f"{g.vertex_count} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            write_graph(g, str(tmp_path / "g.txt"))
            assert (tmp_path / "g.txt").read_text() == text
            assert read_graph(str(tmp_path / "g.txt")) == g
        text = f"{H.n1} {H.n2} {H.edge_u.size}\n" + "".join(
            f"{u} {w} {c}\n" for u, w, c in zip(H.edge_u, H.edge_w, H.mult)
        )
        write_bipartite(H, str(tmp_path / "h.txt"))
        assert (tmp_path / "h.txt").read_text() == text
        H2 = read_bipartite(str(tmp_path / "h.txt"))
        for x, y in ((H2.edge_u, H.edge_u), (H2.edge_w, H.edge_w), (H2.mult, H.mult)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "text",
        ["3 2\n0 1\n", "3 1\n0 1 2\n", "3 1\n0 x\n", "3\n", "3 2\n0 1\n2\n"],
    )
    def test_malformed_graph_files_rejected(self, tmp_path, text):
        (tmp_path / "g.txt").write_text(text)
        with pytest.raises(ValueError):
            read_graph(str(tmp_path / "g.txt"))

    def test_malformed_header_message(self, tmp_path):
        (tmp_path / "g.txt").write_text("3\n")
        with pytest.raises(ValueError, match=r"^expected graph header 'n m'$"):
            read_graph(str(tmp_path / "g.txt"))
        (tmp_path / "h.txt").write_text("3 1\n")
        with pytest.raises(ValueError, match=r"^expected bipartite header 'n1 n2 m'$"):
            read_bipartite(str(tmp_path / "h.txt"))

    def test_blank_lines_and_bad_multiplicity(self, tmp_path):
        (tmp_path / "g.txt").write_text("3 2\n\n0 1\n  \n1 2\n")
        assert read_graph(str(tmp_path / "g.txt")).edge_count == 2
        (tmp_path / "h.txt").write_text("2 1 1\n0 0 0\n")
        with pytest.raises(ValueError):
            read_bipartite(str(tmp_path / "h.txt"))
