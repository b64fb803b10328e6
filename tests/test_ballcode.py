"""Property tests for the ball coder: block-tree codes and the canon fallback
must induce exactly the partition of the per-graph RGC1 coder."""

from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim.ballcode import BLOCK_TAG, ball_codes, clique_sizes_code, tree_ball_code
from rigsim.canon import canonical_code
from rigsim import cliquetree
from rigsim.cliquetree import GWTree, ball_distribution_mc, clique_tree_ball_from_tree, radius1_groups, sample_gw_tree
from rigsim.generators import gen_active, plant_clique
from rigsim.graphs import Graph, RootedGraph, ball, intersection_graph
from rigsim.laws import DegreeLaw, offspring_law
from rigsim.rng import substream
from tests.conftest import random_graph
from tests.rgc1 import rgc1_code

SEEDS = st.integers(0, 2**32 - 1)
LAWS = [
    (DegreeLaw.poisson(2), DegreeLaw.poisson(1.5)),
    (DegreeLaw.from_pmf({1: 0.4, 3: 0.6}), DegreeLaw.poisson(2)),
    (DegreeLaw.constant(2), DegreeLaw.from_pmf({2: 0.5, 3: 0.5})),
    (DegreeLaw.poisson(1), DegreeLaw.constant(2)),
]
PROPERTY = settings(max_examples=30, deadline=None)


def relabel(rg: RootedGraph, rng: np.random.Generator) -> RootedGraph:
    """A randomly relabelled copy: root-preserving isomorphic to ``rg``."""
    perm = rng.permutation(rg.graph.vertex_count)
    edges = [(int(perm[u]), int(perm[v])) for u, v in rg.graph.edges()]
    return RootedGraph(Graph.from_edges(rg.graph.vertex_count, edges), int(perm[rg.root]))


def is_block_graph(g: Graph) -> bool:
    nxg = nx.Graph(list(g.edges()))
    nxg.add_nodes_from(range(g.vertex_count))
    return all(
        nxg.subgraph(b).number_of_edges() == len(b) * (len(b) - 1) // 2
        for b in nx.biconnected_components(nxg)
    )


def assert_same_partition(balls: list[RootedGraph], rng: np.random.Generator) -> None:
    """Coder equality <=> RGC1 code equality, on the balls and on relabelled
    copies of them; block codes exactly on block graphs."""
    items = balls + [relabel(b, rng) for b in balls]
    forward: dict[bytes, bytes] = {}
    backward: dict[bytes, bytes] = {}
    for b in items:
        new, old = b.code, rgc1_code(b)
        assert forward.setdefault(new, old) == old
        assert backward.setdefault(old, new) == new
        assert new.startswith(BLOCK_TAG) == is_block_graph(b.graph)
        if not new.startswith(BLOCK_TAG):
            assert new == canonical_code(b)  # the fallback returns canon's bytes


def random_clique_tree(rng: np.random.Generator) -> RootedGraph:
    """Glue cliques of random sizes at random existing vertices."""
    n, edges = 1, []
    for _ in range(int(rng.integers(0, 7))):
        at, size = int(rng.integers(n)), int(rng.integers(1, 4))
        members = [at] + list(range(n, n + size))
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]
        n += size
    return RootedGraph(Graph.from_edges(n, edges), int(rng.integers(n)))


@PROPERTY
@given(SEEDS)
def test_partition_on_random_clique_trees(seed):
    rng = np.random.default_rng(seed)
    assert_same_partition([random_clique_tree(rng) for _ in range(8)], rng)


@PROPERTY
@given(SEEDS, st.integers(0, len(LAWS) - 1), st.integers(1, 3))
def test_partition_on_gw_balls(seed, law, r):
    D1, D2 = LAWS[law]
    rng = substream(seed)
    balls = [clique_tree_ball_from_tree(sample_gw_tree(D1, D2, 2 * r, rng), r).rooted for _ in range(6)]
    assert_same_partition(balls, np.random.default_rng(seed))


@PROPERTY
@given(SEEDS, st.integers(1, 3))
def test_partition_on_er_balls(seed, r):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_max=10, p_lo=0.1, p_hi=0.6)
    assert_same_partition([ball(g, v, r) for v in range(g.vertex_count)], rng)


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(1, 2))
def test_partition_on_planted_clique_balls(seed, r):
    rng = substream(seed)
    G = intersection_graph(gen_active(40, 40, DegreeLaw.constant(2), rng))
    G = plant_clique(G, 5, rng)
    balls = [ball(G, v, r) for v in rng.choice(G.vertex_count, size=12, replace=False).tolist()]
    assert_same_partition(balls, np.random.default_rng(seed))


@PROPERTY
@given(SEEDS, st.integers(1, 3))
def test_all_vertex_entry_matches_ball_code(seed, r):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_max=14)
    assert list(ball_codes(g, r)) == [ball(g, v, r).code for v in range(g.vertex_count)]
    picks = rng.integers(0, g.vertex_count, size=5).tolist()
    assert list(ball_codes(g, r, picks)) == [ball(g, v, r).code for v in picks]


def radius1_loop(d1s: np.ndarray, zs: np.ndarray, node_cap: int) -> dict[bytes, int]:
    """Per-sample reference: build each radius-1 tree and code its projection."""
    out: dict[bytes, int] = {}
    start = 0
    for d1 in d1s.tolist():
        sizes = zs[start : start + d1].tolist()
        start += d1
        if 1 + d1 + sum(sizes) > node_cap:
            code = b"cap"
        else:
            parents, gens = [-1] + [0] * d1, [0] + [1] * d1
            for a, z in enumerate(sizes, start=1):
                parents += [a] * z
                gens += [2] * z
            tree = GWTree(np.asarray(parents, dtype=np.int64), np.asarray(gens, dtype=np.int64))
            code = clique_tree_ball_from_tree(tree, 1).rooted.code
        out[code] = out.get(code, 0) + 1
    return out


@PROPERTY
@given(SEEDS, st.integers(0, len(LAWS) - 1), st.integers(1, 200), st.sampled_from([3, 8, 10**7]), st.integers(1, 64))
def test_batched_radius1_matches_loop(seed, law, samples, node_cap, chunk):
    D1, D2 = LAWS[law]
    rng = substream(seed)
    d1s = D1.sample(rng, samples)
    zs = offspring_law(D2).sample(rng, int(d1s.sum()))
    with mock.patch.object(cliquetree, "_R1_CHUNK", chunk):  # several chunks per draw
        groups, capped = radius1_groups(d1s, zs, node_cap)
    batched = {clique_sizes_code(k): c for k, c in groups.items()}
    if capped:
        batched[b"cap"] = capped
    assert batched == radius1_loop(d1s, zs, node_cap)
    if node_cap == 10**7:  # the sampler draws d1s, then zs, from its stream
        assert ball_distribution_mc(D1, D2, 1, samples, substream(seed)).counts == batched


@PROPERTY
@given(SEEDS, st.integers(0, len(LAWS) - 1), st.integers(0, 3), st.integers(0, 2))
def test_tree_code_matches_projection(seed, law, r, extra_depth):
    D1, D2 = LAWS[law]
    tree = sample_gw_tree(D1, D2, 2 * r + extra_depth, substream(seed))
    code = tree_ball_code(tree.parents.tolist(), tree.generation.tolist(), r)
    assert code == clique_tree_ball_from_tree(tree, r).rooted.code
