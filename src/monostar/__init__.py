"""Monochromatic r-star statistics of uniformly colored graphs.

Exact counting and subset classification, a reproducible Monte-Carlo engine,
an exact enumeration oracle, and the compound-Poisson limit law with its
parameter extraction, convolution pmf, and sampling.
"""

from .coloring import (
    Coloring,
    EmpiricalDist,
    empirical_moments,
    eval_T,
    monte_carlo,
)
from .errors import (
    BudgetExceededError,
    EdgeListParseError,
    InvalidParamsError,
    MonostarError,
)
from .experiment import (
    ExperimentSpec,
    Report,
    birthday_probability,
    builtin_example,
    builtin_names,
    run_experiment,
)
from .graphs import (
    GeneratorSpec,
    Graph,
    build_graph,
    degree_sequence,
    edge_list_text,
    generate,
    parse_edge_list,
    parse_generator,
)
from .limits import (
    LimitLawParams,
    figure2_params,
    limit_moments,
    limit_pmf,
    params_from_graph,
    sample_limit_batch,
)
from .oracle import exact_pmf
from .pmf import Pmf, pmf_moments, tv_distance
from .stars import StarClassCounts, class_counts, count_stars

__version__ = "0.1.0"
