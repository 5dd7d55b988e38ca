"""All six strategies on one workflow.

Local burns the most energy (everything computes on the device);
min-level offloads with no protection at all and marks the floor;
the full optimizer lands in between, as close to the floor as the
risk cap allows.

Run:  python3 demos/strategy_faceoff.py
"""

from seeco import (
    GaParams,
    GeneratorConfig,
    RiskModel,
    Strategy,
    StrategyKind,
    compute_deadline,
    default_catalog,
    default_platform,
    random_workflow,
    solve_detailed,
    with_deadline,
)

catalog = default_catalog()
platform = default_platform()
gen = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))

workflow = random_workflow(12, 0.25, gen, seed=11, risk_cap=0.4)
workflow = with_deadline(workflow, compute_deadline(workflow, platform, catalog))
print(f"12 tasks, deadline {workflow.deadline_s:.2f} s, risk cap {workflow.risk_cap}\n")

params = GaParams(pop_size=30, iterations=80, seed=1)
print("strategy   energy J  makespan s      risk  feasible")
for kind in StrategyKind:
    res = solve_detailed(Strategy(kind), workflow, platform, catalog, RiskModel(), params).result
    print(f"{kind.value:8s} {res.energy_j:10.3f} {res.makespan_s:11.2f} "
          f"{res.risk:9.4f}  {res.feasible}")
