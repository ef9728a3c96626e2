"""Multi-period EV charging-station placement under simulated discrete-choice
demand: dataset generation, coverage preprocessing, MILP formulations (SL,
MC, GF), an exact period-state DP oracle, and greedy / GRASP / rolling-horizon heuristics.
"""

from .covering import (CoverageTensor, TripletIndex, build_coverage,
                       compute_abar, evaluate, evaluate_per_period, gap,
                       optout_utility, preprocess_home_charging, score_hyperoptic,
                       score_myopic, station_utility_at_k)
from .datasets import DatasetSpec, generate_dataset, generate_small_instance
from .errors import NestSpec, compute_asc, draw_errors, gumbel_draw
from .exact import (EnumerationBudget, EnumerationCapExceeded, brute_force_optimum,
                    count_feasible, random_feasible_solution, reachable_states)
from .growth import (GfInstance, GfSolution, GrowthFunction, adjust_solution_max_outlets,
                     build_gf_instance, generate_growth_function, gf_forward_recursion,
                     gf_solution_as_x, per_node_ev)
from .heuristics import (GraspConfig, GreedyConfig, HeuristicResult, RollingHorizonConfig,
                         grasp, grasp_construct, grasp_filter, greedy, rolling_horizon)
from .instance import (HOME, OPT_OUT, CostBudget, FeasibilityReport, Instance, Station,
                       SolutionX, UserClass, UtilityParams, load_instance, save_instance,
                       validate_solution)
from .milp import (BigMBounds, MilpModel, build_gf, build_mc, build_sl, compute_bounds,
                   extract_solution_x)
from .lp_io import export_lp, parse_lp, parse_solution_file
from .network import Network, generate_network, load_network, save_network
from .solver import SolveResult, solve_external

__version__ = "0.1.0"
