import numpy as np
import pytest

from rigsim.cliquetree import sample_gw_forest
from rigsim.graphs import Graph
from rigsim.rng import substream
from tests.oracles import clique_tree, forest_tree, root_eccentricity, rooted_emb_count


# one small model per sampler; the configuration model's H mostly has
# multiplicities above 1 at this size
SMALL_MODELS = [
    {"model": "active", "n1": 50, "n2": 40, "P": {"kind": "pmf", "pmf": {"1": 0.3, "2": 0.4, "3": 0.3}}},
    {"model": "passive", "n1": 40, "n2": 40, "P": {"kind": "pmf", "pmf": {"1": 0.2, "2": 0.5, "3": 0.3}}},
    {"model": "inhomogeneous", "n1": 50, "n2": 50, "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
     "xi2": {"kind": "exponential", "rate": 1.0}},
    {"model": "configuration", "n1": 40, "D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}},
     "D2": {"kind": "pmf", "pmf": {"1": 0.3, "2": 0.4, "4": 0.3}}},
]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_connected_graph(rng, n_max=12, p_lo=0.15, p_hi=0.9) -> Graph:
    """Random ER graph conditioned on connectivity (for oracle tests)."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = rng.uniform(p_lo, p_hi)
        mask = rng.random((n, n)) < p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        g = Graph.from_edges(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if int(w) not in seen:
                    seen.add(int(w))
                    stack.append(int(w))
        if len(seen) == n:
            return g


def random_graph(rng, n_max=12, p_lo=0.1, p_hi=0.9) -> Graph:
    n = int(rng.integers(1, n_max + 1))
    p = rng.uniform(p_lo, p_hi)
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return Graph.from_edges(n, edges)


def deterministic_tree_count(spec, rooted) -> int:
    """E emb'(H, (T, o)) when both laws are constant: T is one tree, so the
    expectation is the rooted count on that tree's clique tree."""
    tree = forest_tree(sample_gw_forest(spec.D1, spec.D2, 2 * root_eccentricity(rooted), 1, substream(0)), 0)
    return rooted_emb_count(rooted, clique_tree(tree), 0)
