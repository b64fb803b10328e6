import hashlib
import itertools
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from rigsim.ballcode import BLOCK_TAG, block_tree, forest_codes
from rigsim.canon import canonical_code
from rigsim.cliquetree import CAP_BUCKET, NON_BLOCK_BUCKET, CodeHistogram, ball_distribution_mc, sample_gw_forest
from rigsim.experiment import _ball_limit_tv
from rigsim.graphs import BipartiteMultigraph, Graph, RootedGraph
from rigsim.laws import DegreeLaw, WeightLaw
from rigsim.limits import LimitSpec, limit_ball_probabilities, limit_degree_pmf_vector, remark1_limits
from rigsim.rng import substream
from tests.oracles import (
    CapExceeded,
    clique_tree_ball_from_tree,
    forest_tree,
    sample_gw_tree,
    tree_to_bipartite,
    tv_distance,
)

ISOLATED = RootedGraph(Graph.empty(1), 0).code


def sample_ball(D1, D2, r, rng):
    """The radius-r ball of one sampled tree."""
    return clique_tree_ball_from_tree(sample_gw_tree(D1, D2, 2 * r, rng), r)


class TestGWTree:
    def test_zero_root_offspring(self):
        t = sample_gw_tree(DegreeLaw.constant(0), DegreeLaw.constant(2), 4, substream(1))
        assert t.node_count == 1 and t.depth == 0

    def test_degenerate_path(self):
        t = sample_gw_tree(DegreeLaw.constant(1), DegreeLaw.constant(2), 4, substream(2))
        assert t.node_count == 3
        assert t.generation.tolist() == [0, 1, 2]

    def test_generation_sizes_mean_recursion(self):
        # E|S(1)| = E D1, E|S(2)| = E D1 * E(D2* - 1)
        s1, s2 = [], []
        gen = substream(3)
        for _ in range(3000):
            t = sample_gw_tree(DegreeLaw.poisson(2), DegreeLaw.poisson(1.5), 2, gen)
            s1.append(int((t.generation == 1).sum()))
            s2.append(int((t.generation == 2).sum()))
        s1, s2 = np.array(s1), np.array(s2)
        assert abs(s1.mean() - 2.0) < 3 * s1.std() / math.sqrt(s1.size)
        assert abs(s2.mean() - 3.0) < 3 * s2.std() / math.sqrt(s2.size)

    def test_parent_generation_invariant(self):
        t = sample_gw_tree(DegreeLaw.poisson(2), DegreeLaw.poisson(1.5), 4, substream(4))
        for v in range(1, t.node_count):
            assert t.generation[v] == t.generation[t.parents[v]] + 1

    def test_node_cap(self):
        with pytest.raises(CapExceeded):
            sample_gw_tree(DegreeLaw.constant(5), DegreeLaw.constant(5), 10, substream(5), node_cap=1000)

    def test_draws_and_arrays_are_pinned(self):
        # one tree of the forest sampler: the digest of its arrays, cap hits
        # and leftover stream, as the tree-by-tree sampler produced them
        laws = [
            (DegreeLaw.poisson(2), DegreeLaw.poisson(1.5)),
            (DegreeLaw.from_pmf({1: 0.4, 3: 0.6}), DegreeLaw.poisson(2)),
            (DegreeLaw.constant(2), DegreeLaw.from_pmf({2: 0.5, 3: 0.5})),
            (DegreeLaw.mixed_poisson(WeightLaw("pareto", shape=3.0, scale=1.0)), DegreeLaw.poisson(1.0)),
        ]
        h = hashlib.sha256()
        for li, (D1, D2) in enumerate(laws):
            for depth in range(5):
                rng = substream(31, li, depth)
                for _ in range(20):
                    try:
                        t = sample_gw_tree(D1, D2, depth, rng, node_cap=60)
                    except CapExceeded:
                        h.update(b"cap")
                        continue
                    h.update(t.parents.astype(np.int64).tobytes())
                    h.update(t.generation.astype(np.int64).tobytes())
                h.update(rng.integers(0, 2**62, size=2).tobytes())
        assert h.hexdigest() == "3f1e3557cabd881373cf1bb36c29e5792ab0045461d39624f3d591a71fb45335"


class TestGWForest:
    def test_trees_partition_the_generations(self):
        f = sample_gw_forest(DegreeLaw.poisson(2), DegreeLaw.poisson(1.5), 4, 50, substream(20))
        assert not f.capped.any() and len(f.counts) == len(f.starts) == 4
        for k, (c, s) in enumerate(zip(f.counts, f.starts)):
            assert s[0] == 0 and s[-1] == c.size and np.all(np.diff(s) >= 0)
            sizes = [int((forest_tree(f, i).generation == k).sum()) for i in range(f.samples)]
            assert np.diff(s).tolist() == sizes

    def test_capped_trees_draw_nothing_more(self):
        # a tree of 1 + 5 nodes passes the cap of 5 at its first generation
        D1 = DegreeLaw.from_pmf({1: 0.5, 5: 0.5})
        drawn = D1.sample(substream(21), 40)
        f = sample_gw_forest(D1, DegreeLaw.constant(2), 2, 40, substream(21), 5)
        assert f.capped.tolist() == (drawn == 5).tolist() and f.capped.any()
        assert f.counts[0].tolist() == np.where(f.capped, 0, drawn).tolist()
        assert f.counts[1].size == int((~f.capped).sum())
        with pytest.raises(CapExceeded):
            forest_tree(f, int(np.argmax(f.capped)))

    def test_extinct_forest(self):
        f = sample_gw_forest(DegreeLaw.constant(0), DegreeLaw.constant(2), 4, 7, substream(22))
        assert len(f.counts) == 1 and forest_tree(f, 3).node_count == 1


def tree_to_bipartite_loop(tree):
    """The tree's incidence graph built one tuple per edge, as it was written."""
    even = tree.generation % 2 == 0
    ids = np.arange(tree.node_count)
    idx1 = {int(v): i for i, v in enumerate(ids[even])}
    idx2 = {int(v): i for i, v in enumerate(ids[~even])}
    pairs = []
    for child in range(1, tree.node_count):
        parent = int(tree.parents[child])
        pairs.append((idx1[child], idx2[parent]) if even[child] else (idx1[parent], idx2[child]))
    return BipartiteMultigraph.from_pairs(int(even.sum()), max(int((~even).sum()), 1), pairs)


class TestCliqueTreeBall:
    def test_tree_to_bipartite_matches_loop(self):
        gen = substream(9)
        for depth in (0, 1, 2, 4):
            for _ in range(25):
                t = sample_gw_tree(DegreeLaw.poisson(2), DegreeLaw.poisson(1.5), depth, gen)
                new, old = tree_to_bipartite(t), tree_to_bipartite_loop(t)
                assert (new.n1, new.n2) == (old.n1, old.n2)
                for x, y in ((new.edge_u, old.edge_u), (new.edge_w, old.edge_w), (new.mult, old.mult)):
                    assert np.array_equal(x, y)

    def test_isolated_root(self):
        b = sample_ball(DegreeLaw.constant(0), DegreeLaw.constant(2), 1, substream(6))
        assert b.code == ISOLATED

    def test_triangle(self):
        b = sample_ball(DegreeLaw.constant(1), DegreeLaw.constant(3), 1, substream(7))
        K3 = RootedGraph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 0)
        assert b.code == K3.code

    def test_path_of_five(self):
        b = sample_ball(DegreeLaw.constant(2), DegreeLaw.constant(2), 2, substream(8))
        P5_center = RootedGraph(Graph.from_edges(5, [(i, i + 1) for i in range(4)]), 2)
        assert b.code == P5_center.code

    def test_balls_are_clique_trees(self):
        # block graph: maximal cliques intersect pairwise in <= 1 vertex, every
        # biconnected component is complete, and the clique-cutvertex incidence
        # structure is acyclic
        gen = substream(9)
        for _ in range(40):
            b = sample_ball(DegreeLaw.poisson(2), DegreeLaw.poisson(2), 2, gen)
            g = nx.Graph(list(b.graph.edges()))
            g.add_nodes_from(range(b.graph.vertex_count))
            cliques = [set(c) for c in nx.find_cliques(g)]
            for i in range(len(cliques)):
                for j in range(i + 1, len(cliques)):
                    assert len(cliques[i] & cliques[j]) <= 1
            for block in nx.biconnected_components(g):
                k = len(block)
                assert g.subgraph(block).number_of_edges() == k * (k - 1) // 2
            incidence = nx.Graph()
            for ci, c in enumerate(cliques):
                for v in c:
                    if sum(v in c2 for c2 in cliques) > 1:
                        incidence.add_edge(("c", ci), ("v", v))
            # acyclic (is_forest rejects the empty graph, so guard it)
            if incidence.number_of_nodes():
                assert nx.is_forest(incidence)

    def test_root_degree_is_dstar(self):
        # root degree of the radius-1 ball matches the exact d* pmf cell by cell
        spec = LimitSpec(DegreeLaw.poisson(2), DegreeLaw.poisson(1.5))
        gen = substream(10)
        n = 20000
        degs = np.array(
            [
                sample_ball(spec.D1, spec.D2, 1, gen).graph.degree(0)
                for _ in range(n)
            ]
        )
        pmf = limit_degree_pmf_vector(spec, 12)
        for k in range(13):
            p = pmf[k]
            if p * n < 10:
                continue
            phat = (degs == k).mean()
            assert abs(phat - p) < 3 * math.sqrt(p * (1 - p) / n), k


class TestBallDistribution:
    def test_degenerate_masses(self):
        h = ball_distribution_mc(DegreeLaw.constant(0), DegreeLaw.constant(2), 1, 50, substream(11))
        assert h.counts == {ISOLATED: 50}
        h = ball_distribution_mc(DegreeLaw.constant(2), DegreeLaw.constant(2), 1, 60, substream(12))
        P3c = RootedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 1)
        assert h.counts == {P3c.code: 60}

    def test_radius_zero(self):
        h = ball_distribution_mc(DegreeLaw.poisson(3), DegreeLaw.poisson(3), 0, 25, substream(13))
        assert h.counts == {ISOLATED: 25}

    def test_isolated_probability_poisson(self):
        h = ball_distribution_mc(DegreeLaw.poisson(1), DegreeLaw.constant(2), 1, 100_000, substream(14))
        p = h.counts.get(ISOLATED, 0) / h.total
        target = math.exp(-1)
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / 100_000)

    def test_probabilities_sum_to_one(self):
        h = ball_distribution_mc(DegreeLaw.poisson(2), DegreeLaw.poisson(2), 1, 5000, substream(15))
        assert abs(sum(h.probabilities().values()) - 1.0) < 1e-12

    def test_deterministic(self):
        a = ball_distribution_mc(DegreeLaw.constant(3), DegreeLaw.poisson(3), 2, 300, substream(16, 1))
        b = ball_distribution_mc(DegreeLaw.constant(3), DegreeLaw.poisson(3), 2, 300, substream(16, 1))
        assert a.counts == b.counts

    def test_cap_residual_bucket(self):
        h = ball_distribution_mc(
            DegreeLaw.constant(4), DegreeLaw.constant(4), 2, 40, substream(17), node_cap=8
        )
        assert h.counts.get(CAP_BUCKET, 0) == 40

    def test_fast_path_matches_generic_sampling(self):
        # r=1 batched sampling and one-ball-at-a-time sampling draw the same law
        D1, D2 = DegreeLaw.from_pmf({1: 0.4, 3: 0.6}), DegreeLaw.poisson(2)
        fast = ball_distribution_mc(D1, D2, 1, 40_000, substream(18))
        gen = substream(19)
        slow = CodeHistogram()
        n2 = 8000
        for _ in range(n2):
            slow.add(sample_ball(D1, D2, 1, gen).code)
        pf, ps = fast.probabilities(), slow.probabilities()
        for code in set(pf) | set(ps):
            a, b = pf.get(code, 0.0), ps.get(code, 0.0)
            pbar = (fast.counts.get(code, 0) + slow.counts.get(code, 0)) / (fast.total + slow.total)
            if pbar * n2 < 8:
                continue
            z = abs(a - b) / math.sqrt(pbar * (1 / fast.total + 1 / slow.total))
            assert z < 5, (code.hex(), a, b)


class TestTV:
    def test_tv_basics(self):
        p = {b"a": 0.5, b"b": 0.5}
        q = {b"a": 0.5, b"c": 0.5}
        assert tv_distance(p, q) == pytest.approx(0.5)
        assert tv_distance(p, p) == 0.0

    def test_json_rows(self):
        h = CodeHistogram()
        h.add(b"xy", 3)
        h.add(b"z", 1)
        rows = h.to_rows()
        assert sum(r["count"] for r in rows) == 4
        assert all(set(r) == {"code_hex", "count", "probability"} for r in rows)


# Each bound is the mean plus four standard deviations of the TV between two
# independent 10^6-sample references of the law, measured over ten pairs of
# seeds before the exact law was written (mean / sd: active 0.0063 / 0.0004,
# passive 0.0030 / 0.0004, configuration 0.0004 / 0.0003, gamma 0.0456 /
# 0.0003, Pareto 0.0164 / 0.0007).  The exact law against one reference
# carries about 1/sqrt(2) of that noise.
EXACT_VS_MC = [
    ("active", remark1_limits("active", 1.0, P=DegreeLaw.constant(3)), 0.0080),
    ("passive", remark1_limits("passive", 1.0, P=DegreeLaw.from_pmf({2: 0.5, 4: 0.5})), 0.0047),
    ("configuration", LimitSpec(DegreeLaw.from_pmf({1: 0.5, 3: 0.5}), DegreeLaw.constant(2)), 0.0015),
    ("gamma", remark1_limits("inhomogeneous", 1.0, xi1=WeightLaw.gamma(2.0, 1.0),
                             xi2=WeightLaw.exponential(1.0)), 0.047),
    ("pareto", remark1_limits("inhomogeneous", 1.0, xi1=WeightLaw.pareto(3.0, 1.0),
                              xi2=WeightLaw.exponential(1.0)), 0.019),
]
# Z takes 0, 1 and 2 and D1 at most 3, so the r=1 law has 10 balls: up to
# three cliques of one or two other members
SMALL = LimitSpec(DegreeLaw.from_pmf({0: 0.2, 2: 0.5, 3: 0.3}), DegreeLaw.from_pmf({1: 0.3, 2: 0.4, 3: 0.3}))
SMALL_BALLS = [list(b) for k in range(4) for b in itertools.combinations_with_replacement((2, 1), k)]


def r1_code(sizes):
    """The radius-1 ball of a root with cliques of the given sizes."""
    edges, n = [], 1
    for z in sizes:
        members = [0] + list(range(n, n + z))
        edges += list(itertools.combinations(members, 2))
        n += z
    return RootedGraph(Graph.from_edges(n, edges), 0).code


def r1_tree(sizes):
    """The block tree of that ball, as ``block_tree`` gives it."""
    return tuple(((),) * z for z in sizes)


class TestExactBall1Law:
    @pytest.mark.parametrize("name, spec, bound", EXACT_VS_MC, ids=[e[0] for e in EXACT_VS_MC])
    def test_matches_the_monte_carlo_reference(self, name, spec, bound):
        ref = ball_distribution_mc(spec.D1, spec.D2, 1, 10**6, substream(4242, 1))
        assert _ball_limit_tv(spec, 1, ref) < bound

    def test_enumerated_law(self):
        # the probability of each multiset of non-zero Z_i, summed over every
        # D1 value and every Z sequence, against the exact law; it sums to 1
        z = {m: (m + 1) * SMALL.D2.pmf(m + 1) / float(SMALL.D2.mean()) for m in range(3)}
        brute = Counter()
        for d1 in range(4):
            for zs in itertools.product(range(3), repeat=d1):
                ball = tuple(sorted((m for m in zs if m), reverse=True))
                brute[ball] += SMALL.D1.pmf(d1) * math.prod(z[m] for m in zs)
        probs = limit_ball_probabilities(SMALL, 1, list(map(r1_tree, SMALL_BALLS)))
        assert sorted(brute) == sorted(map(tuple, SMALL_BALLS))
        for sizes, p in zip(SMALL_BALLS, probs):
            assert p == pytest.approx(brute[tuple(sizes)], rel=1e-13, abs=1e-16)
        assert abs(math.fsum(probs) - 1.0) < 1e-12

    def test_sizes_outside_the_support_have_probability_zero(self):
        # P(Z = 0, 1, 2) = 0.15, 0.4, 0.45 and D1 <= 3: three cliques of two
        # other members need D1 = 3
        probs = limit_ball_probabilities(SMALL, 1, [r1_tree([1, 1, 1, 1]), r1_tree([3]), r1_tree([2, 2, 2])])
        assert probs == [0.0, 0.0, pytest.approx(0.3 * 0.45**3, rel=1e-13)]

    @pytest.mark.parametrize("D1, D2", [(DegreeLaw.poisson(2.5), DegreeLaw.poisson(1.5)),
                                        (DegreeLaw.from_pmf({1: 0.5, 4: 0.5}), DegreeLaw.from_pmf({1: 0.4, 3: 0.6}))])
    def test_every_forest_code_decodes(self, D1, D2):
        # each sampled tree's code decodes to the non-zero offspring counts
        # of its attributes, whose sum is the root degree
        forest = sample_gw_forest(D1, D2, 2, 20_000, substream(31))
        classes, names = forest_codes(forest, 1)
        trees = [block_tree(code, 1) for code in names]
        assert None not in trees
        sizes = [list(map(len, tree)) for tree in trees]
        assert all(s == sorted(s, reverse=True) for s in sizes)
        assert all(r1_code(s) == code for s, code in zip(sizes, names))
        below = np.concatenate([[0], np.cumsum(forest.counts[1])])[forest.starts[1]]
        assert [sum(sizes[c]) for c in classes.tolist()] == np.diff(below).tolist()

    def test_codes_that_are_not_radius1_clique_trees(self):
        c4 = RootedGraph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0)
        p3_end = RootedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0).code  # a radius-2 block tree
        unsorted = b"BLK1([()][()()])"
        for code in (c4.code, canonical_code(c4), p3_end, NON_BLOCK_BUCKET, CAP_BUCKET, b"BLK1([])", unsorted):
            assert block_tree(code, 1) is None
        assert block_tree(ISOLATED, 1) == ()
        assert block_tree(r1_code([1, 3, 1]), 1) == r1_tree([3, 1, 1])

    def test_tv_is_half_the_l1_distance(self):
        # the one-sided sum over the histogram's codes is half the L1
        # distance to the whole law, with the bucket and a ball outside the
        # support, [3], counted in full; at r = 0 the law is the one-vertex ball
        balls = [[2, 2], [1], []]
        hist = CodeHistogram()
        for sizes, c in zip(balls, (5, 30, 7)):
            hist.add(r1_code(sizes), c)
        hist.add(NON_BLOCK_BUCKET, 3)
        hist.add(r1_code([3]), 2)
        law = dict(zip(map(r1_code, SMALL_BALLS), limit_ball_probabilities(SMALL, 1, list(map(r1_tree, SMALL_BALLS)))))
        assert _ball_limit_tv(SMALL, 1, hist) == pytest.approx(tv_distance(hist.probabilities(), law), abs=1e-15)
        assert _ball_limit_tv(SMALL, 0, hist) == pytest.approx(1 - 7 / 47, abs=1e-15)


def enumerated_ball_law(spec, r):
    """P(code) of every radius-r clique-tree ball, summed over every draw of
    the finite laws: D1 at the root, D1* - 1 at each deeper vertex and Z at
    each attribute, with a node's draws for its children taken as ordered
    tuples of their outcomes; codes are built as README "Ball codes" says."""
    def pmf(law):
        return {v: float(p) for v, p in zip(law.values, law.probs)}

    def less_one_size_biased(law):
        m = float(law.mean())
        return {k - 1: k * p / m for k, p in pmf(law).items() if k > 0}

    off, z = less_one_size_biased(spec.D1), less_one_size_biased(spec.D2)

    def vertex(d, counts):  # code -> probability, for a vertex of depth d
        if d == r:
            return {b"()": 1.0}
        kids = attribute(d)
        out = Counter()
        for k, pk in counts.items():
            for draw in itertools.product(kids.items(), repeat=k):
                out[b"(" + b"".join(sorted(c for c, _ in draw if c)) + b")"] += pk * math.prod(p for _, p in draw)
        return out

    def attribute(d):  # the clique of an attribute of a depth-d vertex; b"" when it holds no one else
        members = vertex(d + 1, off)
        out = Counter()
        for k, pk in z.items():
            for draw in itertools.product(members.items(), repeat=k):
                out[b"[" + b"".join(sorted(c for c, _ in draw)) + b"]" if k else b""] += pk * math.prod(
                    p for _, p in draw)
        return out

    return {BLOCK_TAG + c: p for c, p in vertex(0, pmf(spec.D1)).items()}


# Each bound is the mean plus four standard deviations of the TV between two
# independent 2e5-tree references of the law, measured over ten pairs of
# seeds before the radius-r law was written (mean / sd, r = 2 and 3:
# configuration 0.0028 / 0.0011 and 0.0049 / 0.0007, finite 0.0067 / 0.0011
# and 0.0189 / 0.0005, passive 0.0305 / 0.0009 and 0.1397 / 0.0007).
EXACT_VS_MC_DEEP = [
    ("configuration", LimitSpec(DegreeLaw.from_pmf({1: 0.5, 3: 0.5}), DegreeLaw.constant(2)), 0.0072, 0.0078),
    ("finite", LimitSpec(DegreeLaw.from_pmf({1: 0.6, 2: 0.4}), DegreeLaw.from_pmf({1: 0.3, 2: 0.5, 3: 0.2})),
     0.0111, 0.0209),
    ("passive", remark1_limits("passive", 0.3, P=DegreeLaw.from_pmf({2: 0.5, 3: 0.5})), 0.0341, 0.1426),
]


class TestExactBallLaw:
    def test_enumerated_law_at_radius_2(self):
        # every draw down to generation 4 of a law whose Z and D1* - 1 take
        # 0, 1 and 2 and 1 and 2: the law gives each ball its probability,
        # decodes each code, and sums to 1
        brute = enumerated_ball_law(SMALL, 2)
        trees = [block_tree(code, 2) for code in brute]
        assert None not in trees
        probs = limit_ball_probabilities(SMALL, 2, trees)
        for (code, p), q in zip(brute.items(), probs):
            assert q == pytest.approx(p, rel=1e-13, abs=1e-16), code
        assert len(brute) > 100 and abs(math.fsum(probs) - 1.0) < 1e-13

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("name, spec, bound2, bound3", EXACT_VS_MC_DEEP, ids=[e[0] for e in EXACT_VS_MC_DEEP])
    def test_matches_the_monte_carlo_reference(self, name, spec, bound2, bound3, r):
        ref = ball_distribution_mc(spec.D1, spec.D2, r, 200_000, substream(4243, r))
        assert _ball_limit_tv(spec, r, ref) < (bound2 if r == 2 else bound3)

    def test_codes_that_do_not_decode(self):
        p3_end = RootedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0).code
        assert block_tree(p3_end, 2) == (((((),),),),)
        assert block_tree(p3_end, 1) is None  # deeper than r
        assert block_tree(ISOLATED, 0) == () and block_tree(r1_code([1]), 0) is None
        c4 = RootedGraph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0)
        bad = [canonical_code(c4), NON_BLOCK_BUCKET, CAP_BUCKET,
               b"BLK1([([()])()])",  # members unsorted
               b"BLK1([()][()()])",  # blocks unsorted
               b"BLK1([([])])", b"BLK1([])",  # empty blocks
               b"BLK1(([()]))", b"BLK1([()]", b"BLK1([()])()", b"BLK1([(x)])", b"BLK1"]
        for code in bad:
            assert block_tree(code, 3) is None, code
        assert block_tree(b"BLK1([()([()])])", 2) == (((), (((),),)),)

    def test_radius_zero(self):
        assert limit_ball_probabilities(SMALL, 0, [()]) == [1.0]
