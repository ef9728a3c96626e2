"""The two exact formulations, exported as LP text and solved.

The single-level (SL) model carries the full utility machinery: Big-M
discounting for closed stations and a linearised argmax step per triplet,
over the stations that can cover the triplet (a triplet no station covers
only adds its mass to the objective constant).
The maximum-covering (MC) reformulation precomputes who covers whom and
keeps only covering rows, which is why it solves orders of magnitude
faster. Their optima are complementary: MC_max + SL_min equals the total
demand mass.
"""

import os
import tempfile

from evcover import build_coverage, build_mc, build_sl, compute_bounds, evaluate
from evcover.datasets import generate_small_instance
from evcover.exact import brute_force_optimum
from evcover.lp_io import export_lp
from evcover.milp import extract_solution_x, sl_objective_complement
from evcover.solver import solve_external

inst = generate_small_instance(13, n_stations=3, max_scenarios=8)
cov = build_coverage(inst)

mc = build_mc(inst, cov)
sl = build_sl(inst, compute_bounds(inst))
print(f"MC model: {mc.n_variables:>5} variables, {mc.n_rows:>5} rows")
print(f"SL model: {sl.n_variables:>5} variables, {sl.n_rows:>5} rows")

with tempfile.TemporaryDirectory() as tmp:
    lp_path = os.path.join(tmp, "mc.lp")
    export_lp(mc, lp_path)
    size = os.path.getsize(lp_path)
    head = open(lp_path).read().splitlines()[:6]
    print(f"\nLP export ({size:,} bytes), first lines:")
    for line in head:
        print(f"  {line}")

# the solver adapter runs any LP-file solver via a command template; without
# EVCOVER_SOLVER_CMD it solves the built model with the bundled scipy/HiGHS
# solver, in this process (wrap the call in a process of its own to keep a
# large solve's memory out of the caller)
res_mc = solve_external(mc, time_limit_s=60)
res_sl = solve_external(sl, time_limit_s=300)
total = sl_objective_complement(inst)
_, f_star = brute_force_optimum(inst, cov)

print(f"\nMC optimum (max):   {res_mc.objective:.4f}   [{res_mc.status}, "
      f"{res_mc.wall_time:.2f}s]")
print(f"SL optimum (min):   {res_sl.objective:.4f}   [{res_sl.status}, "
      f"{res_sl.wall_time:.2f}s]")
print(f"demand mass:        {total:.4f}")
print(f"MC + SL - total:    {res_mc.objective + res_sl.objective - total:+.2e}")
print(f"brute force f*:     {f_star:.4f}  (MC matches: "
      f"{abs(res_mc.objective - f_star) < 1e-6})")

x = extract_solution_x(inst, res_sl.values)
print(f"SL solution re-evaluated under f: {evaluate(inst, cov, x):.4f}")
