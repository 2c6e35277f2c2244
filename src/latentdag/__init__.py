"""latentdag: score-based causal discovery with latent-confounder recovery.

Learn a DAG over discrete observational data by BIC score search, audit the
triangles of the learnt graph with greedy separating-set probes to spot the
footprints that hidden common causes leave behind, and emit a CPDAG augmented
with the recovered latent variables.  A synthetic-benchmark pipeline
(confounder injection, forward sampling, evaluation metrics) closes the loop.
"""

from .bench import (
    CausalModel,
    DiscreteBayesNet,
    EvalReport,
    InjectionConfig,
    InjectionError,
    bn_from_json,
    bn_to_json,
    causal_model_to_bn,
    compare_confounders,
    compare_cpdags,
    dependence_thresholds,
    inject_confounders,
    joint_marginal,
    mutual_information,
    run_benchmark,
    sample,
)
from .ci import SeparatorQuery, SeparatorResult, find_separator
from .confounder import (
    AugmentedResult,
    Triangle,
    TriangleClassification,
    TriangleVerdict,
    classify_triangle,
    confirm_child_side,
    confirm_parent_side,
    discover_confounders,
    enumerate_triangles,
    recreate_latents,
)
from .data import (
    Dataset,
    VariableMeta,
    count,
    load_dataset,
    project,
)
from .graphs import (
    Dag,
    Pdag,
    Trail,
    cpdag_of,
    d_separated,
    enumerate_trails,
    markov_equivalent,
    skeleton,
    v_structures,
)
from .learner import (
    LearnerConfig,
    build_local_scores,
    learn,
    learn_exact,
    learn_hill_climb,
)
from .scoring import (
    IndepVerdict,
    ScoreContext,
    bic,
    chi2_critical,
    f_bic,
    is_independent,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedResult",
    "CausalModel",
    "Dag",
    "Dataset",
    "DiscreteBayesNet",
    "EvalReport",
    "IndepVerdict",
    "InjectionConfig",
    "InjectionError",
    "LearnerConfig",
    "Pdag",
    "ScoreContext",
    "SeparatorQuery",
    "SeparatorResult",
    "Trail",
    "Triangle",
    "TriangleClassification",
    "TriangleVerdict",
    "VariableMeta",
    "bic",
    "bn_from_json",
    "bn_to_json",
    "build_local_scores",
    "causal_model_to_bn",
    "chi2_critical",
    "classify_triangle",
    "compare_confounders",
    "compare_cpdags",
    "confirm_child_side",
    "confirm_parent_side",
    "count",
    "cpdag_of",
    "d_separated",
    "dependence_thresholds",
    "discover_confounders",
    "enumerate_trails",
    "enumerate_triangles",
    "f_bic",
    "find_separator",
    "inject_confounders",
    "is_independent",
    "joint_marginal",
    "learn",
    "learn_exact",
    "learn_hill_climb",
    "load_dataset",
    "markov_equivalent",
    "mutual_information",
    "project",
    "recreate_latents",
    "sample",
    "skeleton",
    "v_structures",
]
