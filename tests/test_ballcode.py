"""Property tests for the ball coder: block-tree codes and the canon fallback
must induce exactly the partition of the per-graph RGC1 coder."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim import ballcode
from rigsim.ballcode import BLOCK_TAG, _block, _clique_tree_codes, _vertex, ball_codes, block_codes, forest_codes
from rigsim.canon import canonical_code
from rigsim.cliquetree import CAP_BUCKET, ball_distribution_mc, sample_gw_forest
from rigsim.generators import ModelConfig, gen_active, generate_bipartite, plant_clique
from rigsim.graphs import BipartiteMultigraph, Graph, RootedGraph, ball, intersection_graph
from rigsim.laws import DegreeLaw, offspring_law
from rigsim.rng import substream
from tests.conftest import SMALL_MODELS, random_graph
from tests.oracles import CapExceeded, clique_tree_ball_from_tree, forest_tree, sample_gw_tree
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
    balls = [clique_tree_ball_from_tree(sample_gw_tree(D1, D2, 2 * r, rng), r) for _ in range(6)]
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
    G = intersection_graph(plant_clique(gen_active(40, 40, DegreeLaw.constant(2), rng), 5, rng))
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


@st.composite
def bipartite_graphs(draw) -> BipartiteMultigraph:
    """H from one of the samplers, or from arbitrary (u, w) pairs with
    repeats (multiplicities, attributes sharing several members,
    single-member attributes, isolated vertices, no edges at all); with a
    planted clique or without."""
    seed = draw(SEEDS)
    if draw(st.booleans()):
        H = generate_bipartite(ModelConfig.from_config(draw(st.sampled_from(SMALL_MODELS))), substream(seed))
    else:
        n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), max_size=30))
        H = BipartiteMultigraph.from_pairs(n1, n2, pairs)
    s = draw(st.integers(0, min(H.n1, 8)))
    return plant_clique(H, s, substream(seed, 1)) if s else H


def plain_clique_tree(H: BipartiteMultigraph, G: Graph, v: int) -> bool:
    """Whether the sets a - {v}, over v's attributes a, are disjoint and no
    edge of G joins two of them, from H's pairs and G's edges."""
    members: dict[int, set[int]] = {}
    for u, w in zip(H.edge_u.tolist(), H.edge_w.tolist()):
        members.setdefault(w, set()).add(u)
    parts = [members[w] - {v} for w in members if v in members[w]]
    side = {u: i for i, part in enumerate(parts) for u in part}
    if len(side) != sum(map(len, parts)):
        return False
    return all(side.get(x, i) == i for i, part in enumerate(parts) for u in part for x in G.neighbors(u).tolist())


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs(), st.data())
def test_radius1_pass_from_h_matches_ball_codes(H, data):
    # the H pass codes exactly the balls H shows to be plain clique trees,
    # each as ``ball`` codes it, and a vertex subset gets the whole pass's
    # entries
    G = intersection_graph(H)
    want = [ball(G, v, 1).code for v in range(G.vertex_count)]
    from_h = _clique_tree_codes(G, np.arange(G.vertex_count))
    assert [c is not None for c in from_h] == [plain_clique_tree(H, G, v) for v in range(G.vertex_count)]
    assert all(c == w for c, w in zip(from_h, want) if c is not None)
    assert list(ball_codes(G, 1)) == want
    whole = list(block_codes(G, 1))
    picks = data.draw(st.lists(st.integers(0, G.vertex_count - 1), max_size=12))
    assert list(block_codes(G, 1, picks)) == [whole[v] for v in picks]


def test_radius1_pass_needs_h():
    # a graph with the same edges but no H, and radii other than 1, are
    # walked ball by ball
    G = intersection_graph(gen_active(30, 30, DegreeLaw.constant(2), substream(3)))
    bare = Graph.from_edges(G.vertex_count, G.edge_array())
    assert any(c is not None for c in _clique_tree_codes(G, np.arange(5)))
    assert _clique_tree_codes(bare, np.arange(5)) == [None] * 5
    with mock.patch.object(ballcode, "_clique_tree_codes", side_effect=AssertionError):
        assert list(ball_codes(G, 2)) == list(ball_codes(bare, 2))
    assert list(ball_codes(G, 1)) == list(ball_codes(bare, 1))


def radius1_groups(d1s: np.ndarray, zs: np.ndarray, node_cap: int) -> tuple[dict[tuple[int, ...], int], int]:
    """The radius-1 reference path that ``forest_codes`` replaced, kept as
    an oracle: group samples by their sorted multiset of positive clique
    sizes, and count the samples whose ball has more than ``node_cap``
    vertices."""
    groups: dict[tuple[int, ...], int] = {}
    n = d1s.size
    ids = np.repeat(np.arange(n), d1s)
    ends = np.cumsum(d1s)
    csum = np.concatenate([[0], np.cumsum(zs)])
    over = 1 + d1s + csum[ends] - csum[ends - d1s] > node_cap
    keep = (zs > 0) & ~over[ids]
    ids, z = ids[keep], zs[keep]
    m = np.bincount(ids, minlength=n)
    empty = int(n - over.sum() - np.count_nonzero(m))
    if empty:
        groups[()] = empty
    if z.size:
        mz = m[ids]
        order = np.lexsort((z, ids, mz))
        z, mz = z[order], mz[order]
        bounds = np.flatnonzero(np.diff(mz)) + 1
        for s, e in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [z.size]])):
            for row in z[s:e].reshape(-1, int(mz[s])).tolist():
                groups[tuple(row)] = groups.get(tuple(row), 0) + 1
    return groups, int(over.sum())


def parent_histogram(D1, D2, r: int, samples: int, rng: np.random.Generator, node_cap: int) -> dict[bytes, int]:
    """The radius-0 and radius-1 histograms as the per-radius paths drew and
    coded them: D1 for every sample, then Z for every attribute."""
    if r == 0:
        return {BLOCK_TAG + _vertex([]): samples}
    d1s = D1.sample(rng, samples)
    total = int(d1s.sum())
    zs = offspring_law(D2).sample(rng, total) if total else np.empty(0, dtype=np.int64)
    groups, capped = radius1_groups(d1s, zs, node_cap)
    out = {BLOCK_TAG + _vertex([_block([b"()"] * z) for z in sizes]): c for sizes, c in groups.items()}
    if capped:
        out[CAP_BUCKET] = capped
    return out


@PROPERTY
@given(SEEDS, st.integers(0, len(LAWS) - 1), st.integers(1, 200), st.sampled_from([3, 8, 10**7]), st.integers(1, 64), st.integers(0, 1))
def test_batched_radius1_matches_loop(seed, law, samples, node_cap, chunk, r):
    # r <= 1 keeps the stream and the histogram of the per-radius paths
    # whenever the cap does not bind
    D1, D2 = LAWS[law]
    expected = parent_histogram(D1, D2, r, samples, substream(seed), node_cap)
    with mock.patch.object(ballcode, "_FOREST_CHUNK", chunk):  # several chunks per forest
        got = ball_distribution_mc(D1, D2, r, samples, substream(seed), node_cap).counts
    if CAP_BUCKET not in expected:
        assert got == expected
    assert sum(got.values()) == samples  # a binding cap moves the stream: capped trees draw nothing more


@PROPERTY
@given(
    SEEDS,
    st.integers(0, len(LAWS) - 1),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(1, 12),
    st.sampled_from([6, 30, 10**7]),
    st.integers(1, 64),
)
def test_tree_code_matches_projection(seed, law, r, extra_depth, samples, node_cap, chunk):
    # every tree's class is the code of its projected ball; a capped tree has none
    D1, D2 = LAWS[law]
    forest = sample_gw_forest(D1, D2, 2 * r + extra_depth, samples, substream(seed), node_cap)
    with mock.patch.object(ballcode, "_FOREST_CHUNK", chunk):
        classes, codes = forest_codes(forest, r)
    assert sorted(set(classes.tolist()) - {-1}) == list(range(len(codes)))
    for i, c in enumerate(classes.tolist()):
        if forest.capped[i]:
            assert c == -1
            with pytest.raises(CapExceeded):
                forest_tree(forest, i)
        else:
            assert codes[c] == clique_tree_ball_from_tree(forest_tree(forest, i), r).code


def test_shallow_forest_rejected():
    forest = sample_gw_forest(*LAWS[0], 3, 5, substream(1))
    with pytest.raises(ValueError, match="radius-2"):
        forest_codes(forest, 2)
