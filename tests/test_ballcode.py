"""Property tests for the ball coder: block-tree codes and the canon fallback
must induce exactly the partition of the per-graph RGC1 coder."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim import ballcode
from rigsim.ballcode import (
    BLOCK_TAG, _block, _block_code, _codes_from_h, _vertex, ball_codes, block_codes, forest_codes,
)
from rigsim.canon import canonical_code
from rigsim.cliquetree import CAP_BUCKET, ball_distribution_mc, sample_gw_forest
from rigsim.generators import ModelConfig, gen_active, generate_bipartite, plant_clique
from rigsim.graphs import BipartiteMultigraph, Graph, RootedGraph, ball, ball_adjacency, intersection_graph
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
    """H from one of the samplers; from arbitrary (u, w) pairs with repeats
    (multiplicities, attributes sharing several members, single-member
    attributes, isolated vertices, no edges at all); or from member sets,
    mostly pairs, followed by copies of subsets of them (two attributes
    sharing a pair, an attribute inside another); with a planted clique or
    without."""
    seed = draw(SEEDS)
    kind = draw(st.sampled_from(["sampler", "pairs", "sets"]))
    if kind == "sampler":
        H = generate_bipartite(ModelConfig.from_config(draw(st.sampled_from(SMALL_MODELS))), substream(seed))
    elif kind == "pairs":
        n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), max_size=30))
        H = BipartiteMultigraph.from_pairs(n1, n2, pairs)
    else:
        n1 = draw(st.integers(2, 12))
        members = st.sampled_from([2, 2, 2, 3, 4]).flatmap(
            lambda z: st.sets(st.integers(0, n1 - 1), min_size=min(z, n1), max_size=min(z, n1)))
        sets = draw(st.lists(members, min_size=1, max_size=14))
        for _ in range(draw(st.integers(0, 4))):
            source = sorted(draw(st.sampled_from(sets)))
            sets.append(draw(st.sets(st.sampled_from(source), min_size=2)))
        H = BipartiteMultigraph.from_pairs(n1, len(sets), [(u, w) for w, members in enumerate(sets) for u in members])
    s = draw(st.integers(0, min(H.n1, 8)))
    return plant_clique(H, s, substream(seed, 1)) if s else H


def plain_clique_tree(H: BipartiteMultigraph, G: Graph, v: int, r: int) -> bool:
    """Whether H's non-backtracking unfolding from v to depth 2r repeats no
    vertex and the cliques that its attributes form with their parents and
    children are every edge of B_r(G, v), from H's pairs and G's edges."""
    members: dict[int, list[int]] = {}
    attributes: dict[int, list[int]] = {}
    for u, w in zip(H.edge_u.tolist(), H.edge_w.tolist()):
        members.setdefault(w, []).append(u)
        attributes.setdefault(u, []).append(w)
    seen, cliques, frontier = [v], set(), [(v, None)]
    for _ in range(r):
        nxt = []
        for x, parent in frontier:
            for a in attributes.get(x, []):
                if a != parent:
                    kids = [y for y in members[a] if y != x]
                    clique = [x] + kids
                    cliques |= {frozenset((p, q)) for i, p in enumerate(clique) for q in clique[i + 1 :]}
                    nxt += [(y, a) for y in kids]
                    seen += kids
        frontier = nxt
    inside = set(seen)
    edges = {frozenset((p, q)) for p in inside for q in G.neighbors(p).tolist() if q in inside}
    return len(seen) == len(inside) and cliques == edges


def walk(G: Graph, v: int, r: int) -> list[list[int]]:
    return ball_adjacency(lambda u: G.neighbors(u).tolist(), v, r)


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs(), st.integers(1, 3), st.sampled_from([1, 30, ballcode._FOREST_CHUNK]), st.data())
def test_pass_from_h_matches_ball_codes(H, r, chunk, data):
    # the H pass codes exactly the balls H shows to be plain clique trees,
    # each as ``ball`` codes it, in one unfolding or in several, and the
    # balls it finds a cycle in are not block graphs; every entry
    # of the block pass, on G, on a bare copy of G and on vertex subsets of
    # either, is the walk's verdict, with the walk's adjacency wherever the
    # pass walked
    G = intersection_graph(H)
    bare = Graph.from_edges(G.vertex_count, G.edge_array())
    n = G.vertex_count
    want = [ball(G, v, r).code for v in range(n)]
    walks = [walk(G, v, r) for v in range(n)]
    with mock.patch.object(ballcode, "_FOREST_CHUNK", chunk):
        from_h, cycles = _codes_from_h(G, r, np.arange(n))
    assert [c is not None for c in from_h] == [plain_clique_tree(H, G, v, r) for v in range(n)]
    assert all(c == w for c, w in zip(from_h, want) if c is not None)
    # a centre with a cycle in its unfolding has a ball that is not a block
    # graph, and there are none at radius 1
    assert all(_block_code(walks[v]) is None and from_h[v] is None for v in np.flatnonzero(cycles).tolist())
    assert r > 1 or not cycles.any()
    assert list(ball_codes(G, r)) == list(ball_codes(bare, r)) == want
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    for g in (G, bare):
        whole = list(block_codes(g, r))
        assert [code for code, _ in whole] == [_block_code(w) for w in walks]
        assert [code for code, _ in whole] == [w if w.startswith(BLOCK_TAG) else None for w in want]
        assert all(adj == w for (_, adj), w in zip(whole, walks) if adj is not None)
        assert list(block_codes(g, r, picks)) == [whole[v] for v in picks]


def test_pass_from_h_needs_h():
    # a graph with the same edges but no H is walked ball by ball, and gets
    # the same codes
    G = intersection_graph(gen_active(30, 30, DegreeLaw.constant(2), substream(3)))
    bare = Graph.from_edges(G.vertex_count, G.edge_array())
    for r in (1, 2):
        assert any(c is not None for c in _codes_from_h(G, r, np.arange(10))[0])
        codes, cycles = _codes_from_h(bare, r, np.arange(10))
        assert codes == [None] * 10 and not cycles.any()
    want = {r: list(ball_codes(G, r)) for r in (1, 2)}
    with mock.patch.object(ballcode, "_unfold", side_effect=AssertionError):
        assert list(ball_codes(bare, 2)) == want[2]
        assert list(ball_codes(bare, 1)) == want[1]


@pytest.mark.parametrize("chord, r", [(True, 2), (False, 3)])
def test_non_block_verdicts_inherited(chord, r):
    # the 4-cycle 0-1-2-3 one step from the path 4-5-...-10, each edge its
    # own attribute.  With the chord 0-2, B_1(0) and B_1(2) are not block
    # graphs; without it, B_2(v) is not for v on the cycle.  Either way the
    # radius-r balls of the cycle and of its neighbour 4 are decided from
    # those verdicts without a walk, and those of 5..10 are coded from H
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)] + [(v, v + 1) for v in range(4, 10)] + [(0, 2)] * chord
    H = BipartiteMultigraph.from_pairs(11, len(edges), [(x, a) for a, e in enumerate(edges) for x in e])
    G = intersection_graph(H)
    balls = [walk(G, v, r) for v in range(11)]
    assert not any(walk(G, v, k) in balls for v in range(11) for k in range(1, r))
    assert [_block_code(b) is None for b in balls] == [True] * 5 + [False] * 6
    assert all(c is not None for c in _codes_from_h(G, r, np.arange(5, 11))[0])
    block_code = ballcode._block_code

    def guarded(ladj):
        assert ladj not in balls, "a radius-r ball was walked"
        return block_code(ladj)

    with mock.patch.object(ballcode, "_block_code", side_effect=guarded):
        entries = list(block_codes(G, r))
    assert entries[:5] == [(None, None)] * 5
    assert [code for code, _ in entries[5:]] == [ball(G, v, r).code for v in range(5, 11)]


def hung(r: int, attributes: list[tuple[int, ...]]) -> Graph:
    """The projection of an H whose attributes are the pairs of the path 0,
    1, ..., r - 2 and ``attributes``, on vertices numbered from r - 2: local
    vertex 0 lies at distance r - 2 from vertex 0."""
    sets = [(i, i + 1) for i in range(r - 2)] + [tuple(x + r - 2 for x in a) for a in attributes]
    n1 = 1 + max(map(max, sets))
    H = BipartiteMultigraph.from_pairs(n1, len(sets), [(x, j) for j, a in enumerate(sets) for x in a])
    return intersection_graph(H)


HUNG = {
    # vertex x = 3 under the two parents 1, 2, which are not adjacent (C4)
    "square": ([(0, 1), (0, 2), (1, 3), (2, 3)], True),
    # the same with 1 ~ 2: the two tree paths part at an attribute (C4)
    "diamond": ([(0, 1, 2), (1, 3), (2, 3)], True),
    # the edge 3-4 joins the ends of two paths that part at 0 (C5)
    "pentagon": ([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], True),
    # a triangle of three pair attributes at distance r - 1: a block graph
    "hanging triangle": ([(0, 1), (1, 2), (1, 3), (2, 3)], False),
    # the pair 1, 2 in two attributes: a block graph
    "shared pair": ([(0, 1), (1, 2), (1, 2)], False),
    # 3 under 1 and 2 through two pairs inside a clique, but first seen a
    # generation earlier: a block graph
    "pairs in a clique": ([(0, 1, 2, 3), (1, 3), (2, 3)], False),
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", list(HUNG))
def test_unfolding_cycles(name, r):
    # H's unfolding from vertex 0 is no plain clique tree in each case; it
    # shows a cycle exactly in the balls that are not block graphs
    attributes, cycle = HUNG[name]
    G = hung(r, attributes)
    codes, cycles = _codes_from_h(G, r, np.array([0]))
    assert codes == [None]
    assert cycles.tolist() == [cycle]
    assert (_block_code(walk(G, 0, r)) is None) == cycle
    if r > 2:
        return
    # at radius 2 no radius-1 ball here is a non-block graph, so the block
    # pass reaches stage 2, and walks the radius-2 ball of 0 only without a
    # cycle
    block_code = ballcode._block_code
    walked = []

    def recorded(ladj):
        walked.append(ladj)
        return block_code(ladj)

    with mock.patch.object(ballcode, "_block_code", side_effect=recorded):
        entry = list(block_codes(G, r, [0]))
    assert (walk(G, 0, r) in walked) != cycle
    assert entry == [(None, None)] if cycle else [(ball(G, 0, r).code, None)]
    assert list(ball_codes(G, r, [0])) == [ball(G, 0, r).code]


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
