"""rigsim: sparse random intersection graphs, their clique-tree limits, and
exact network statistics."""

from .graphs import (
    BipartiteMultigraph,
    Graph,
    RootedGraph,
    ball,
    intersection_graph,
)
from .canon import canonical_code, unrooted_code
from .ballcode import ball_codes
from .laws import DegreeLaw, WeightLaw, offspring_law, size_biased
from .generators import (
    ModelConfig,
    gen_active,
    gen_configuration,
    gen_degree_sequences,
    gen_inhomogeneous,
    gen_passive,
    generate_bipartite,
    plant_clique,
)
from .cliquetree import CodeHistogram, ball_distribution_mc
from .counting import (
    Pattern,
    clique_families,
    connected_patterns,
    distinct_rootings,
    emb_count,
    hom_count,
    pattern_from_name,
    sidorenko_bound,
)
from .stats import (
    StatReport,
    assortativity,
    clustering,
    conditional_assortativity,
    conditional_clustering,
    degree_fraction,
    degree_moment,
    empirical_ball_dist,
)
from .limits import (
    Estimate,
    LimitSpec,
    dstar_moment,
    limit_assortativity,
    limit_ball_probabilities,
    limit_clustering,
    limit_conditional_assortativity,
    limit_conditional_clustering,
    limit_degree_pmf,
    limit_degree_pmf_vector,
    limit_emb_per_vertex,
    limit_hom_per_vertex,
    limit_spec_for,
    remark1_limits,
    rooted_emb_expectation,
)
from .experiment import (
    ConvergenceRow,
    ExperimentPlan,
    StatisticSpec,
    run_experiment,
    theorem21_suite,
)
from .rng import substream

__version__ = "0.1.0"
