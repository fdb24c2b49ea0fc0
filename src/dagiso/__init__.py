"""Exact-arithmetic isomorphism and Markov-equivalence decisions for
directed graphical models, via randomized sampling of points on their
covariance varieties over a prime field, cross-validated by a
deterministic pattern oracle; plus enumeration of directed tree models."""

from .ci import (
    CiError,
    CiStatement,
    MinorSpec,
    TreeRelation,
    d_separated,
    implied_relations,
    imposed_minors,
    lies_below_ci,
    marginal_implied,
    toposorted_imposed,
    tree_reduced_generators,
)
from .classify import (
    ClassifyError,
    ClassReport,
    CrossCheckError,
    canonical_pattern,
    classify_trees,
    enumerate_tree_dags,
    labeled_tree_count,
)
from .dag import (
    CycleError,
    Dag,
    DagError,
    Pattern,
    Permutation,
    apply_permutation,
    markov_equivalent,
    nondescendants,
    pattern,
    pattern_isomorphic,
    relabel_pattern,
)
from .fields import (
    MERSENNE31,
    FieldArithmeticError,
    FieldMatrix,
    PrimeField,
    SingularPivotError,
    det_and_rank,
)
from .points import (
    SamplerError,
    SemParams,
    SymPoint,
    complete_point,
    gaussian_ci,
    minor_eval,
    on_variety,
    principal_minors_nonzero,
    relation_eval,
    sample_point,
    sem_covariance,
)
from .randomized import (
    IsoParams,
    IsoVerdict,
    ParameterError,
    choose_params,
    default_params,
    degree_surrogate,
    equivalence_test,
    failure_bound,
    isomorphism_test,
    perm_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CiError", "CiStatement", "MinorSpec", "TreeRelation", "d_separated",
    "implied_relations", "imposed_minors", "lies_below_ci",
    "marginal_implied", "toposorted_imposed", "tree_reduced_generators",
    "ClassifyError", "ClassReport", "CrossCheckError", "canonical_pattern",
    "classify_trees", "enumerate_tree_dags", "labeled_tree_count",
    "CycleError", "Dag", "DagError", "Pattern", "Permutation",
    "apply_permutation", "markov_equivalent", "nondescendants", "pattern",
    "pattern_isomorphic", "relabel_pattern",
    "MERSENNE31", "FieldArithmeticError", "FieldMatrix", "PrimeField",
    "SingularPivotError", "det_and_rank",
    "SamplerError", "SemParams", "SymPoint", "complete_point", "gaussian_ci",
    "minor_eval", "on_variety", "principal_minors_nonzero", "relation_eval",
    "sample_point", "sem_covariance",
    "IsoParams", "IsoVerdict", "ParameterError", "choose_params",
    "default_params", "degree_surrogate", "equivalence_test",
    "failure_bound", "isomorphism_test", "perm_witness",
]
