"""cyclerad: geometrically small homology cycles over Z2.

Localizes homology classes, homology bases, and persistent-cycle
representatives with cycles of small Euclidean (enclosing-sphere) radius,
using site-restricted filtrations with a 2-approximation guarantee, plus
exact brute-force reference oracles for small instances.
"""
from .z2 import ChainVector, Z2Matrix, ReductionResult, low, standard_reduction, solve_by_reduction, in_span, IncrementalSpan
from .complexes import (
    PointCloud,
    EmbeddedComplex,
    SubcomplexView,
    induced_subcomplex,
    ball_induced_subcomplex,
    boundary_columns,
)
from .filtrations import (
    Filtration,
    Interval,
    Barcode,
    PersistenceResult,
    compute_persistence,
    rips_filtration,
    lower_star_filtration,
    site_ordering,
)
from .radius import SphereCertificate, site_radius, exact_radius, min_enclosing_sphere, chain_vertices
from .optimize import (
    OptimalCycleResult,
    HomologyBasisResult,
    optimal_hom_cycle_for_site,
    opt_homologous_cycle,
    opt_homology_basis,
    opt_pers_cycle_site,
    opt_pers_hom_rep,
    opt_persistent_basis,
    shorten_cycle,
    describe_cycle,
)
from .oracle import (
    OracleBudget,
    BudgetExceededError,
    ExactOptimum,
    ExactBasis,
    ExactRepresentative,
    exact_optimal_homologous_cycle,
    enumerate_class,
    exact_min_basis,
    exact_min_persistent_rep,
)

__all__ = [
    "ChainVector",
    "Z2Matrix",
    "ReductionResult",
    "IncrementalSpan",
    "low",
    "standard_reduction",
    "solve_by_reduction",
    "in_span",
    "PointCloud",
    "EmbeddedComplex",
    "SubcomplexView",
    "induced_subcomplex",
    "ball_induced_subcomplex",
    "boundary_columns",
    "Filtration",
    "Interval",
    "Barcode",
    "PersistenceResult",
    "compute_persistence",
    "rips_filtration",
    "lower_star_filtration",
    "site_ordering",
    "SphereCertificate",
    "site_radius",
    "exact_radius",
    "min_enclosing_sphere",
    "chain_vertices",
    "OptimalCycleResult",
    "HomologyBasisResult",
    "optimal_hom_cycle_for_site",
    "opt_homologous_cycle",
    "opt_homology_basis",
    "opt_pers_cycle_site",
    "opt_pers_hom_rep",
    "opt_persistent_basis",
    "shorten_cycle",
    "describe_cycle",
    "OracleBudget",
    "BudgetExceededError",
    "ExactOptimum",
    "ExactBasis",
    "ExactRepresentative",
    "exact_optimal_homologous_cycle",
    "enumerate_class",
    "exact_min_basis",
    "exact_min_persistent_rep",
]
