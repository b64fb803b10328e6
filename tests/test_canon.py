import json
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim import ballcode, canon
from rigsim.ballcode import _block_code, ball_codes
from rigsim.canon import TAG, canonical_code, canonical_codes, unrooted_code
from rigsim.experiment import ExperimentPlan
from rigsim.generators import gen_active, generate_bipartite, plant_clique
from rigsim.graphs import Graph, RootedGraph, ball, ball_adjacency, intersection_graph
from rigsim.laws import DegreeLaw
from rigsim.rng import substream

from tests.conftest import random_connected_graph
from tests.rgc1 import rgc1_ball_code, rgc1_code

ROOT = Path(__file__).resolve().parent.parent


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


# -- the batched coder against VF2 and the per-graph RGC1 coder ----------------

PETERSEN = Graph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
)
# graphs on which colour refinement stops short of a discrete partition
NAMED = [Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]) for k in range(3, 9)] + [
    Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K3,3
    PETERSEN,
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),  # prism
    Graph.from_edges(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]),  # cube
    Graph.from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),  # wheel
]
# apex 0 over C5 + C6: refinement leaves one cell of eleven vertices in two orbits
CONE = Graph.from_edges(
    12, [(0, i) for i in range(1, 12)] + [(i, i % 5 + 1) for i in range(1, 6)] + [(i, (i - 5) % 6 + 6) for i in range(6, 12)]
)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None)


def relabel(rg: RootedGraph, rng: np.random.Generator) -> RootedGraph:
    perm = rng.permutation(rg.graph.vertex_count)
    edges = [(int(perm[u]), int(perm[v])) for u, v in rg.graph.edges()]
    return RootedGraph(Graph.from_edges(rg.graph.vertex_count, edges), int(perm[rg.root]))


def adjacency(rg: RootedGraph) -> list[list[int]]:
    """Adjacency lists of a connected rooted graph, relabelled with the root at 0."""
    return ball_adjacency(lambda u: rg.graph.neighbors(u).tolist(), rg.root, None)


def family(rng: np.random.Generator) -> list[RootedGraph]:
    """Twin-rich balls (small intersection graphs, a planted clique), graphs
    that refinement does not split, random graphs, and relabelled copies."""
    items = [RootedGraph(g, int(rng.integers(g.vertex_count))) for g in NAMED] + [RootedGraph(CONE, 0)]
    H = gen_active(30, 20, DegreeLaw.from_pmf({2: 0.5, 3: 0.5}), rng)
    G = intersection_graph(plant_clique(H, 6, rng))
    items += [ball(G, int(v), int(rng.integers(1, 3))) for v in rng.choice(G.vertex_count, 8, replace=False)]
    items += [RootedGraph(g, int(rng.integers(g.vertex_count))) for g in (random_connected_graph(rng, 8) for _ in range(8))]
    return items + [relabel(x, rng) for x in items]


def invariants(rg: RootedGraph) -> tuple:
    g = rg.graph
    return g.vertex_count, g.edge_count, tuple(sorted(g.degrees().tolist())), g.degree(rg.root)


def assert_partition(items: list[RootedGraph], codes: list[bytes]) -> None:
    """codes[i] == codes[j] iff VF2 finds a root-preserving isomorphism, and
    the partition is the RGC1 coder's."""
    old = [rgc1_code(x) for x in items]
    assert len(set(zip(codes, old))) == len(set(codes)) == len(set(old))
    keys = [invariants(x) for x in items]
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            same = keys[i] == keys[j] and rooted_isomorphic(items[i].graph, items[i].root, items[j].graph, items[j].root)
            assert (codes[i] == codes[j]) == same


@PROPERTY
@given(SEEDS)
def test_batched_codes_match_vf2_and_rgc1(seed):
    rng = np.random.default_rng(seed)
    items = family(rng)
    codes = canonical_codes([adjacency(x) for x in items])
    assert all(c.startswith(TAG) for c in codes)
    assert_partition(items, codes)


@PROPERTY
@given(SEEDS)
def test_code_does_not_depend_on_the_batch(seed):
    rng = np.random.default_rng(seed)
    balls = [adjacency(x) for x in family(rng)]
    alone = [canonical_codes([b])[0] for b in balls]
    perm = rng.permutation(len(balls))
    assert canonical_codes([balls[i] for i in perm]) == [alone[i] for i in perm]
    cut = int(rng.integers(1, len(balls)))
    assert canonical_codes(balls[:cut]) + canonical_codes(balls[cut:]) == alone


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(1, 2), st.sampled_from([1, 40, 300]))
def test_ball_codes_across_batch_boundaries(seed, r, bound):
    rng = substream(seed)
    G = intersection_graph(plant_clique(gen_active(60, 40, DegreeLaw.from_pmf({2: 0.5, 3: 0.5}), rng), 6, rng))
    whole = list(ball_codes(G, r))
    with mock.patch.object(ballcode, "_BATCH_HALF_EDGES", bound):
        assert list(ball_codes(G, r)) == whole
    assert whole == [ball(G, v, r).code for v in range(G.vertex_count)]


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_constant_mixer_keeps_the_partition(seed):
    # every hash collides, so each group is split by the exact check alone
    items = family(np.random.default_rng(seed))
    with mock.patch.object(canon, "_mix", lambda x: np.ones(x.shape, dtype=np.uint64)):
        codes = canonical_codes([adjacency(x) for x in items])
    assert_partition(items, codes)


def test_reference_r2_partition_matches_rgc1():
    # the benchmark's reference-r2 graphs at seed 7: every ball that is not a
    # block graph, coded in one batch and one at a time by the RGC1 coder
    cfg = json.loads((ROOT / "perfbench/plans/reference-r2/inhomogeneous_pareto.json").read_text())
    plan = ExperimentPlan.from_config({**cfg, "seed": 7})
    balls = []
    for i, n1 in enumerate(plan.ladder):
        for rep in range(plan.replications):
            G = intersection_graph(generate_bipartite(plan.sized_model(n1), substream(7, i, rep)))
            local = (ball_adjacency(lambda u: G.neighbors(u).tolist(), v, 2) for v in range(G.vertex_count))
            balls += [b for b in local if _block_code(b) is None]
    assert len(balls) > 1000
    codes = canonical_codes(balls)
    old = [rgc1_ball_code(b) for b in balls]
    assert len(set(zip(codes, old))) == len(set(codes)) == len(set(old))
