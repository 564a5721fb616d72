"""cyclerad: geometrically small homology cycles over Z2.

Localizes homology classes, homology bases, and persistent-cycle
representatives with cycles of small Euclidean (enclosing-sphere) radius,
using site-restricted filtrations with a 2-approximation guarantee, plus
exact brute-force reference oracles for small instances.

The names below load their submodule on first use (PEP 562), so a CLI
request imports only the modules it runs.
"""

# exported name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("z2", "ChainVector IncrementalSpan"),
        ("complexes", "PointCloud EmbeddedComplex boundary_columns"),
        ("filtrations", "Filtration Interval PersistenceResult compute_persistence "
                        "rips_filtration lower_star_filtration"),
        ("radius", "SphereCertificate site_radius exact_radius min_enclosing_sphere chain_vertices"),
        ("optimize", "OptimalCycleResult HomologyBasisResult opt_homologous_cycle opt_homology_basis "
                     "opt_pers_hom_rep opt_persistent_basis shorten_cycle describe_cycle"),
        ("oracle", "OracleBudget BudgetExceededError ExactOptimum ExactBasis ExactRepresentative "
                   "exact_optimal_homologous_cycle enumerate_class exact_min_basis "
                   "exact_min_persistent_rep"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
