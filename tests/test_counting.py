import gc
import itertools
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigsim.counting as C
from rigsim.canon import unrooted_code
from rigsim.counting import (
    Pattern,
    connected_patterns,
    distinct_rootings,
    emb_count,
    hom_count,
    pattern_from_name,
    sidorenko_bound,
)
from rigsim.graphs import Graph
from rigsim.laws import stirling2

from tests.conftest import random_graph
from tests.oracles import all_maps_count, emb_backtrack, root_eccentricity, rooted_emb_count

K2, P3, K3, P4, K4 = (pattern_from_name(n) for n in ("K2", "P3", "K3", "P4", "K4"))


class TestPattern:
    def test_validation(self):
        with pytest.raises(ValueError, match="must be connected"):
            Pattern(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            Pattern(Graph.from_edges(1, []))

    @pytest.mark.parametrize("name", ["K9", "C2", "C1", "K", "Kx", "K100000", "S0", "S8", "P1", "K08", "X3", ""])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError, match=f"unknown pattern name {name!r}"):
            pattern_from_name(name)

    def test_name_ranges(self):
        for kind, sizes in (("K", range(2, 9)), ("P", range(2, 9)), ("C", range(3, 9))):
            assert [pattern_from_name(f"{kind}{k}").h for k in sizes] == list(sizes)
        assert [pattern_from_name(f"S{t}").h for t in range(1, 8)] == list(range(2, 9))

    def test_connected_pattern_counts(self):
        assert len(connected_patterns(2)) == 1
        assert len(connected_patterns(3)) == 2
        assert len(connected_patterns(4)) == 6
        assert len(connected_patterns(5)) == 21

    def test_connected_patterns_match_the_graph_atlas(self):
        # every connected graph on h vertices of networkx's atlas, once each;
        # h = 6 takes about 0.3 s (18.6 s when every labelled edge set was built)
        for h, count in zip(range(2, 7), (1, 2, 6, 21, 112)):
            atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == h and nx.is_connected(g)]
            ours = [unrooted_code(p.graph) for p in connected_patterns(h)]
            assert len(ours) == len(set(ours)) == count
            assert set(ours) == {unrooted_code(Graph.from_edges(h, list(g.edges()))) for g in atlas}
        with pytest.raises(ValueError, match="between 2 and 8"):
            connected_patterns(9)

    def test_root_eccentricity(self):
        assert [root_eccentricity(P4.rooted(v)) for v in range(4)] == [3, 2, 2, 3]
        assert root_eccentricity(K3.rooted(1)) == 1
        assert root_eccentricity(pattern_from_name("S4").rooted(0)) == 1
        assert root_eccentricity(pattern_from_name("S4").rooted(2)) == 2

    def test_distinct_rootings(self):
        assert len(distinct_rootings(P3)) == 2
        assert len(distinct_rootings(K3)) == 1
        assert len(distinct_rootings(pattern_from_name("paw"))) == 3


class TestCounts:
    def test_named_examples(self):
        K3g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        K4g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        P3g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert hom_count(K3, K3g) == 6
        assert hom_count(P3, P3g) == 6
        assert emb_count(K3, K4g) == 24
        assert emb_count(K2, K3g) == 6 == 2 * K3g.edge_count

    def test_star_embedding_identity(self, rng):
        S2 = pattern_from_name("S2")
        for _ in range(10):
            g = random_graph(rng)
            expect = sum(int(d) * (int(d) - 1) for d in g.degrees())
            assert emb_count(S2, g) == expect

    def test_against_brute_force(self, rng):
        pats = [p for h in (2, 3, 4) for p in connected_patterns(h)]
        for _ in range(25):
            g = random_graph(rng, n_max=9)
            for p in pats:
                hom, emb = all_maps_count(p, g, False), all_maps_count(p, g, True)
                assert hom_count(p, g) == hom
                assert emb_count(p, g) == emb

    def test_h5_against_brute_force(self, rng):
        pats = connected_patterns(5)
        for _ in range(4):
            g = random_graph(rng, n_max=6)
            for p in pats:
                assert hom_count(p, g) == all_maps_count(p, g, False)
                assert emb_count(p, g) == all_maps_count(p, g, True)

    def test_dp_memory_fallback_on_mid_size_host(self, rng):
        # K4 on a densifiable host whose contraction tensors would be too
        # big: the path is refused before the dense matrix is built, and
        # hom_count, which tries the closed form first, still agrees with
        # backtracking
        edges = set()
        for _ in range(5000):
            a, b = rng.integers(0, 600, 2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        g = Graph.from_edges(600, list(edges))
        p = pattern_from_name("K4")
        assert C._hom_dp(4, p.edge_tuple(), g) is None
        assert "A" not in vars(C._host(g))
        assert hom_count(p, g) == C._hom_backtrack(4, p.edge_tuple(), g)

    def test_engines_agree_on_large_host(self, rng, monkeypatch):
        # closed forms vs the big-int backtracking engine, on a random host and
        # on the same host plus a 60-vertex clique, whose triangles the wedge
        # pass reads off its dense heavy core (there only the patterns that
        # the pass counts: backtracking K4 or embeddings through it is slow)
        edges = set()
        for _ in range(6000):
            a, b = rng.integers(0, 2500, 2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        g = Graph.from_edges(2500, list(edges))
        clique = itertools.combinations(rng.choice(2500, 60, replace=False).tolist(), 2)
        gk = Graph.from_edges(2500, list(edges) + list(clique))
        cores = []
        core_size = C._core_size
        monkeypatch.setattr(C, "_core_size", lambda dout: cores.append(core_size(dout)) or cores[-1])
        for name in ("K2", "P3", "K3", "P4", "S3", "S4", "C4", "paw", "diamond", "K4"):
            p = pattern_from_name(name)
            assert hom_count(p, g) == C._hom_backtrack(p.h, p.edge_tuple(), g), name
            assert emb_count(p, g) == emb_backtrack(p.h, p.edge_tuple(), g), name
        for name in ("K3", "P4", "C4", "paw", "diamond"):
            p = pattern_from_name(name)
            assert hom_count(p, gk) == C._hom_backtrack(p.h, p.edge_tuple(), gk), name
        assert cores[-1] >= 60


@st.composite
def host_graphs(draw) -> Graph:
    """Random edges plus a few cliques and stars on 0..40 vertices, so that
    edgeless hosts, isolated vertices, hubs and dense cores all occur."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return Graph.from_edges(n, [])
    vertex = st.integers(0, n - 1)
    edges = set(draw(st.lists(st.tuples(vertex, vertex), max_size=60)))
    for members in draw(st.lists(st.sets(vertex, min_size=2, max_size=14), max_size=3)):
        edges.update(itertools.combinations(sorted(members), 2))
    for centre, leaves in draw(st.lists(st.tuples(vertex, st.sets(vertex, max_size=n)), max_size=2)):
        edges.update((centre, leaf) for leaf in leaves)
    return Graph.from_edges(n, [(a, b) for a, b in edges if a != b])


@settings(max_examples=80, deadline=None)
@given(host_graphs(), st.sampled_from([1, 3, 10, C._BLOCK_WEDGES]))
def test_wedge_pass_matches_oracles(g, budget):
    # a budget of a few wedges makes many blocks (and caps the heavy core at
    # isqrt(2 * budget) vertices); the default one leaves the core its choice
    nxg = nx.Graph(list(g.edges()))
    nxg.add_nodes_from(range(g.vertex_count))
    triangles = nx.triangles(nxg)
    d = g.degrees()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_WEDGES", budget)
        host = C._host(g)
        assert host.tri.tolist() == [2 * triangles[v] for v in range(g.vertex_count)]
        assert host.Ad.tolist() == [sum(int(d[u]) for u in g.neighbors(v)) for v in range(g.vertex_count)]
        for name in ("K3", "C4", "diamond", "paw", "P4"):
            p = pattern_from_name(name)
            assert hom_count(p, g) == C._hom_backtrack(p.h, p.edge_tuple(), g), name


_SMALL_PATTERNS = [p for h in (2, 3, 4, 5) for p in connected_patterns(h)]


@settings(max_examples=40, deadline=None)
@given(host_graphs())
def test_contraction_matches_backtracking(g):
    # every connected pattern on at most 5 vertices
    for p in _SMALL_PATTERNS:
        edges = p.edge_tuple()
        assert C._hom_dp(p.h, edges, g) == C._hom_backtrack(p.h, edges, g)


def _sparse_host(rng, n: int, m: int) -> Graph:
    edges = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(m)}
    return Graph.from_edges(n, list(edges))


class TestCertifiedContraction:
    # the contraction runs in float64 when sum_v d(v)^(h-1) < 2^53, the
    # Sidorenko bound on every count it forms, and backtracking runs otherwise

    def test_sparse_host_past_n_to_the_h(self, rng):
        # n^6 >= 2^53, where a bound of n^h would have refused float64
        g = _sparse_host(rng, 600, 1200)
        assert C._power_sum(g.degrees(), 5) < C._FLOAT_SAFE <= 600**6
        cycle = [(i, (i + 1) % 6) for i in range(6)]
        triangle = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]  # with a 3-path tail
        patterns = [pattern_from_name("P6"), pattern_from_name("C6"), Pattern(Graph.from_edges(6, cycle + [(0, 3)])),
                    Pattern(Graph.from_edges(6, triangle)), Pattern(Graph.from_edges(6, triangle + [(3, 5)]))]
        for p in patterns:
            assert hom_count(p, g) == C._hom_backtrack(6, p.edge_tuple(), g), p.edge_tuple()
        assert "A" in vars(C._host(g))

    def test_past_the_bound_backtracking_counts(self, rng, monkeypatch):
        g = _sparse_host(rng, 200, 500)
        p = pattern_from_name("C5")
        expect = C._hom_backtrack(5, p.edge_tuple(), g)
        monkeypatch.setattr(C, "_FLOAT_SAFE", C._power_sum(g.degrees(), 4))
        backtracked = []
        backtrack = C._hom_backtrack
        monkeypatch.setattr(C, "_hom_backtrack", lambda h, edges, g: backtracked.append(h) or backtrack(h, edges, g))
        assert hom_count(p, g) == expect
        assert backtracked == [5]
        assert "A" not in vars(C._host(g))

    def test_outer_product_steps_are_refused(self, monkeypatch):
        # numpy's greedy path multiplies operands with no common letter only
        # when no pair that shares one fits the budget; the counts of two
        # disjoint sub-patterns multiply past the bound, so the path is refused
        monkeypatch.setattr(C, "_DP_MAX_ENTRIES", 16)
        expr = "bd,ag,ef,bc,be,de,cg,dg,af,ae,cf,bg,eg,cd,ab,df,ce,fg,ad,ac->"  # K7 less one edge
        try:
            C._contraction_path.cache_clear()
            ops = [np.broadcast_to(np.zeros(()), (2, 2))] * 20
            path = np.einsum_path(expr, *ops, optimize=("greedy", 16))[0]
            terms = [set(t) for t in expr[:-2].split(",")]
            outer = False
            for step in path[1:]:
                taken = [terms.pop(i) for i in sorted(step, reverse=True)]
                outer |= len(taken) == 2 and taken[0].isdisjoint(taken[1])
                terms.append(set().union(*taken) & set().union(*terms))
            assert outer
            assert C._contraction_path(expr, 2) is None
            # within the budget, where only the outer-product rule refuses
            assert C._contraction_path("c,ad,c,a,d->", 2) is None
            assert C._contraction_path("c,ad,cd,a,d->", 2) is not None
        finally:
            C._contraction_path.cache_clear()


@pytest.mark.parametrize("seed", range(3))
def test_six_vertex_patterns_against_all_maps(seed):
    # every connected pattern on 6 vertices, on hosts of at most 7 vertices
    rng = np.random.default_rng(seed)
    n = 5 + seed
    mask = rng.random((n, n)) < 0.6
    g = Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if mask[a, b]])
    # networkx's atlas lists each graph on at most 7 vertices once
    six = [Pattern(Graph.from_edges(6, list(a.edges()))) for a in nx.graph_atlas_g() if len(a) == 6 and nx.is_connected(a)]
    assert len(six) == 112
    for p in six:
        hom = all_maps_count(p, g, False)
        assert hom_count(p, g) == hom == C._hom_backtrack(6, p.edge_tuple(), g)
        assert emb_count(p, g) == all_maps_count(p, g, True)


class TestRootedCounts:
    def test_rooted_k2_is_degree(self, rng):
        K2r = K2.rooted(0)
        for _ in range(5):
            g = random_graph(rng)
            for v in range(g.vertex_count):
                assert rooted_emb_count(K2r, g, v) == g.degree(v)

    def test_partition_by_root(self, rng):
        pats = [p for h in (2, 3, 4) for p in connected_patterns(h)]
        for _ in range(8):
            g = random_graph(rng, n_max=9)
            for p in pats:
                total = emb_count(p, g)
                for rp in distinct_rootings(p):
                    assert sum(rooted_emb_count(rp, g, v) for v in range(g.vertex_count)) == total

    def test_k3_rooted_on_k4(self):
        K4g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for v in range(4):
            assert rooted_emb_count(K3.rooted(0), K4g, v) == 6

    def test_hom_mode(self, rng):
        # rooted hom of P3 rooted at an end = sum of neighbour degrees
        P3_end = P3.rooted(0)
        for _ in range(5):
            g = random_graph(rng)
            d = g.degrees()
            for v in range(g.vertex_count):
                expect = int(sum(d[int(u)] for u in g.neighbors(v)))
                assert rooted_emb_count(P3_end, g, v, hom_mode=True) == expect


class TestIdentities:
    def test_stirling_identity(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            for t in range(2, 6):
                lhs = hom_count(pattern_from_name(f"S{t}"), g)
                rhs = sum(
                    stirling2(t, j) * emb_count(pattern_from_name(f"S{j}"), g)
                    for j in range(1, t + 1)
                )
                assert lhs == rhs

    def test_p4_decomposition(self, rng):
        # coincidence partitions of the 4-path: both P3 rootings appear
        for _ in range(15):
            g = random_graph(rng)
            assert hom_count(P4, g) == (
                emb_count(P4, g) + 2 * emb_count(P3, g) + emb_count(K3, g) + emb_count(K2, g)
            )

    def test_hom_star_is_degree_powers(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            for t in (2, 3, 4):
                assert hom_count(pattern_from_name(f"S{t}"), g) == sum(
                    int(d) ** t for d in g.degrees()
                )


class TestSidorenko:
    def test_k2_equality(self, rng):
        g = random_graph(rng)
        hom, bound, holds = sidorenko_bound(K2, g)
        assert holds and hom == bound == sum(int(d) for d in g.degrees())

    def test_k3_on_k3(self):
        K3g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert sidorenko_bound(K3, K3g) == (6, 12, True)

    def test_random_property(self, rng):
        pats = [p for h in (2, 3, 4, 5) for p in connected_patterns(h)]
        for _ in range(20):
            g = random_graph(rng)
            for p in pats:
                assert sidorenko_bound(p, g)[2]


class TestHost:
    def test_host_is_freed_with_its_graph(self, rng):
        g = random_graph(rng)
        emb_count(P4, g)
        host = weakref.ref(C._host(g))
        assert host().homs
        del g
        gc.collect()
        assert host() is None

    def test_p3_closed_form_runs_once_per_graph(self, rng, monkeypatch):
        # emb(P4) and emb(C4) reach P3 labelled ((0,1),(0,2)), clustering and
        # assortativity labelled ((0,1),(1,2)); the host keys homs by class
        from rigsim.stats import assortativity, clustering

        asked, counted = set(), []
        hom, count = C._hom, C._count_hom
        monkeypatch.setattr(C, "_hom", lambda g, h, edges: asked.add((h, edges)) or hom(g, h, edges))
        monkeypatch.setattr(C, "_count_hom", lambda g, h, edges: counted.append((h, edges)) or count(g, h, edges))
        for g in (random_graph(rng), random_graph(rng)):
            counted.clear()
            emb_count(P4, g)
            emb_count(pattern_from_name("C4"), g)
            clustering(g)
            assortativity(g)
            assert {(3, ((0, 1), (0, 2))), (3, ((0, 1), (1, 2)))} <= asked
            assert [e for h, e in counted if h == 3 and len(e) == 2] in ([((0, 1), (0, 2))], [((0, 1), (1, 2))])
            assert len(C._host(g).homs) == len(counted)

    def test_power_sum_exact_beyond_int64(self):
        x = np.array([3, 2**40, 0, 2**40 + 1], dtype=np.int64)
        for k in (1, 2, 3, 5):
            assert C._power_sum(x, k) == sum(int(v) ** k for v in x)
        big = np.full(10, 2**31, dtype=np.int64)  # each square fits, their sum does not
        assert C._power_sum(big, 2) == 10 * 2**62
        assert C._power_sum(np.zeros(0, dtype=np.int64), 3) == 0

    def test_star_hom_on_a_hub_past_int64(self):
        # hom(S_t) = sum d^t: a degree-3000 hub gives 3000^6 > 2^62
        hub = Graph.from_edges(3001, [(0, i) for i in range(1, 3001)])
        assert hom_count(pattern_from_name("S6"), hub) == 3000**6 + 3000
        assert sidorenko_bound(pattern_from_name("S6"), hub)[1] == 3000**6 + 3000
