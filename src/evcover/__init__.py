"""Multi-period EV charging-station placement under simulated discrete-choice
demand: dataset generation, coverage preprocessing, MILP formulations (SL,
MC, GF), an exact period-state DP oracle, and greedy / GRASP / rolling-horizon heuristics.

The names below are imported from their modules on first use, so importing
the package alone imports none of its modules.
"""

import importlib

_EXPORTS = {
    "covering": ("CoverageTensor", "TripletIndex", "build_coverage", "compute_abar", "evaluate",
                 "evaluate_per_period", "gap", "optout_utility", "preprocess_home_charging",
                 "score_hyperoptic", "score_myopic", "station_utility_at_k"),
    "datasets": ("DatasetSpec", "generate_dataset", "generate_small_instance"),
    "errors": ("NestSpec", "compute_asc", "draw_errors", "gumbel_draw"),
    "exact": ("EnumerationCapExceeded", "brute_force_optimum", "count_feasible",
              "random_feasible_solution", "reachable_states"),
    "growth": ("GfInstance", "GfSolution", "GrowthFunction", "adjust_solution_max_outlets",
               "build_gf_instance", "generate_growth_function", "gf_forward_recursion",
               "gf_solution_as_x", "per_node_ev"),
    "heuristics": ("GraspConfig", "GreedyConfig", "HeuristicResult", "RollingHorizonConfig",
                   "grasp", "grasp_construct", "grasp_filter", "greedy", "rolling_horizon"),
    "instance": ("HOME", "OPT_OUT", "CostBudget", "FeasibilityReport", "Instance", "Station",
                 "SolutionX", "UserClass", "UtilityParams", "load_instance", "save_instance",
                 "validate_solution"),
    "milp": ("BigMBounds", "MilpModel", "build_gf", "build_mc", "build_sl", "compute_bounds",
             "extract_solution_x"),
    "lp_io": ("export_lp", "parse_solution_file"),
    "network": ("Network", "generate_network", "load_network", "save_network"),
    "solver": ("SolveResult", "solve_external"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
