"""The package's public names: each declared once, in its module's __all__."""

import importlib

import fuzzynewton

MODULES = ("errors", "fuzzy_core", "level_calculus", "newton_solver",
           "defuzzify", "problems")

# The names exported before the package took them from the modules'
# __all__ lists, plus the names added since and less the names removed
# since (each listed apart below).
EXPORTED = {
    "__version__",
    # errors
    "ConfigFormatError", "DomainError", "FuzzyNewtonError",
    "GridMismatchError", "InsufficientDataError", "InvalidLevelError",
    "MalformedFunctionError", "NumericError", "SingularLevelError",
    # fuzzy_core
    "FuzzyNumber", "HukuharaNonexistence", "Interval", "TriangularFuzzy",
    "add", "alpha_cut", "comparable", "crisp", "discretize", "distance",
    "div", "fuzzy_from_record", "fuzzy_to_record", "hukuhara_diff", "leq",
    "levels_equal", "lt", "mul", "reciprocal", "scalar_mul", "square",
    "triangular_from_record", "triangular_to_record", "uniform_alphas",
    # level_calculus
    "ComparabilityReport", "FuzzyFunction", "NonDominanceVerdict",
    "OneSidedStencilWarning", "ScalarizationConfig", "comparability_check",
    "crisp_lift", "eval_fuzzy", "negate", "non_dominance_check", "scalarize",
    "scalarize_d1", "scalarize_d2", "scalarize_many",
    # newton_solver
    "IterationRecord", "NewtonConfig", "OrderEstimate", "STATUS_CONVERGED",
    "STATUS_D2_NEAR_ZERO", "STATUS_MAX_ITER", "STATUS_NON_FINITE",
    "SolveResult", "VerificationReport", "check_point",
    "estimate_convergence_order", "solve", "verify_solution",
    # defuzzify
    "centroid",
    # problems
    "BUILTIN_NAMES", "MaxReturnParams", "ProblemSpec", "ResolvedProblem",
    "build_example_4_1", "build_fuzzy_polynomial", "build_max_return_crisp",
    "build_max_return_fuzzy", "grid_search_min", "parse_problem_config",
    "resolve_problem", "serialize_problem_config",
}
ADDED = {"STATUS_LEFT_DOMAIN"}
# record functions that nothing in the package called; a config's
# triples are read by problems alone
REMOVED = {"fuzzy_from_record", "fuzzy_to_record", "triangular_from_record"}


def test_exported_names_are_pinned():
    assert len(fuzzynewton.__all__) == len(set(fuzzynewton.__all__))
    assert set(fuzzynewton.__all__) == EXPORTED - REMOVED | ADDED


def test_every_module_name_is_exported_as_the_same_object():
    seen = set()
    for name in MODULES:
        module = importlib.import_module(f"fuzzynewton.{name}")
        assert not seen & set(module.__all__), name
        seen |= set(module.__all__)
        for attr in module.__all__:
            assert getattr(fuzzynewton, attr) is getattr(module, attr)
    assert seen | {"__version__"} == set(fuzzynewton.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fuzzynewton import *", namespace)
    assert set(fuzzynewton.__all__) <= set(namespace)
