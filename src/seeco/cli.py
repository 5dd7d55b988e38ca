"""Command-line surface: workflow generation, single solves, and sweeps.

Three verbs:

  generate   write a random workflow file with a calibrated deadline
  solve      run one strategy on a workflow and dump result CSVs
  sweep      rerun strategies across a swept variable, seeds crossed in,
             and write long-format plus mean-over-seeds CSVs

Every command is deterministic given its flags and seeds.  A JSON config
file (``--config``) may hold any flag value under its long name with
dashes as underscores.  Each flag takes the first value it finds in:

  1. the command line;
  2. the config file;
  3. for ``sweep``, the swept variable's defaults (``SWEEP_DEFAULTS``):
     its ``--range`` and, for GA-parameter sweeps, the other GA flags;
  4. the parser's built-in default, read from ``GaParams``,
     ``RiskModel`` and ``GeneratorConfig`` where the library has one.

A sweep solves each distinct problem once: jobs that differ at most in
a risk input (the risk cap or the attack rates) that their solve did
not read (:func:`seeco.baselines.risk_inputs_read`) share one solve,
and each gets a copy of its row.  The sweep solves in its own process
while its solves are short (local, or a GA run that ended at its
polished witness); from the first that runs the GA on, the rest go to
at most ``SEECO_THREADS`` worker processes, a positive integer that
``sweep`` reads (default 1: all in-process).  :func:`run_sweep` takes
that count as ``max_workers`` and reads no environment.  Results are
gathered and written in sorted order either way, so the output does not
depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .baselines import RATES, RISK_CAP, Strategy, risk_inputs_read, solve_detailed
from .evaluator import write_schedule_csv
from .ga import GaParams, write_history_csv
from .platform import Platform, default_platform, exact_int, load_platform, read_json
from .security import RiskModel, SecurityCatalog, default_catalog, load_catalog
from .workflow import (
    GeneratorConfig,
    Workflow,
    compute_deadline,
    load_workflow,
    random_workflow,
    save_workflow,
    with_deadline,
    with_risk_cap,
)

# per sweep variable: its default --range and, for the GA-parameter sweeps,
# the fixed companions; both rank below the config file and explicit flags
SWEEP_DEFAULTS = {
    "pop": dict(range="10:100:10", iters=50, pc=0.2, pm=0.6),
    "iters": dict(range="50:500:50", pop=30, pc=0.2, pm=0.6),
    "pc": dict(range="0.1:0.9:0.1", pop=30, iters=100, pm=0.6),
    "pm": dict(range="0.1:0.9:0.1", pop=30, iters=100, pc=0.2),
    "risk_cap": dict(range="0.1:1.0:0.1"),
    "lambda": dict(range="0.3:3.0:0.3"),
    "servers": dict(range="0:10:1"),
    "tasks": dict(range="10:50:20"),
}
SWEEP_VARIABLES = tuple(SWEEP_DEFAULTS)
MAX_RANGE_VALUES = 10_000  # far above any default range; a finer one is a typo
_INT_SWEEPS = {"pop", "iters", "servers", "tasks"}
_GA_SWEEP_FIELDS = {"pop": "pop_size", "iters": "iterations", "pc": "p_c", "pm": "p_m"}

SWEEP_CSV_HEADER = ["sweep", "value", "strategy", "seed", "pop", "iters", "pc", "pm",
                    "energy", "makespan", "risk", "violation", "feasible"]
SUMMARY_CSV_HEADER = ["sweep", "value", "strategy", "seeds", "mean_energy",
                      "mean_makespan", "mean_risk", "feasible_fraction"]
SOLVE_CSV_HEADER = ["strategy", "seed", "energy", "makespan", "risk", "violation",
                    "feasible", "deadline", "risk_cap"]


def parse_range(spec: str, integer: bool) -> list[float] | list[int]:
    """Parse ``a:b:step`` into an inclusive list of sweep values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like a:b:step, got {spec!r}")
    a, b, step = (float(x) for x in parts)
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise ValueError(f"range {spec!r} must be finite, with step > 0 and b >= a")
    if integer:
        a, b, step = (exact_int(x, f"the range {spec!r} of an integer sweep")
                      for x in (a, b, step))
    if (b - a) / step >= MAX_RANGE_VALUES:  # n steps give n + 1 values
        raise ValueError(f"--range {spec!r}: more than {MAX_RANGE_VALUES} values")
    values = []
    i = 0
    while a + i * step <= b + 1e-9 * step:  # slack for the sum's rounding error
        v = round(a + i * step, 10)  # an int stays an int
        if values and v == values[-1]:
            raise ValueError(f"--range {spec!r}: the step is too small, values repeat "
                             f"once rounded to 10 decimals")
        values.append(v)
        i += 1
    return values


def parse_seeds(spec: str) -> list[int]:
    return [int(s) for s in spec.split(",") if s.strip() != ""]


def parse_bool(spec: str | bool) -> bool:
    """``type`` of the true/false flags; also takes a JSON bool from ``--config``."""
    spec = str(spec).lower()
    if spec in ("true", "1", "yes"):
        return True
    if spec in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {spec!r}")


@dataclass(frozen=True)
class SweepJob:
    sweep: str
    value: float | int
    strategy: Strategy
    seed: int
    workflow: Workflow
    platform: Platform
    risk_model: RiskModel
    params: GaParams
    catalog: SecurityCatalog


def run_job(job: SweepJob, memo: dict | None = None) -> tuple[dict, tuple[str, ...], bool]:
    """Execute one sweep point; used directly and by worker processes.

    Returns the job's row, the risk inputs its solve read
    (:func:`seeco.baselines.risk_inputs_read`) and whether the solve was
    short: local, or a GA run that ended at its polished witness.
    """
    outcome = solve_detailed(job.strategy, job.workflow, job.platform, job.catalog,
                             job.risk_model, job.params, memo)
    res, ga_run = outcome.result, outcome.ga_run
    return {
        "sweep": job.sweep, "value": job.value, "strategy": job.strategy.kind.value,
        "seed": job.seed, "pop": job.params.pop_size, "iters": job.params.iterations,
        "pc": job.params.p_c, "pm": job.params.p_m,
        "energy": res.energy_j, "makespan": res.makespan_s, "risk": res.risk,
        "violation": res.violation, "feasible": res.feasible,
    }, risk_inputs_read(job.strategy, outcome), ga_run is None or ga_run.evaluations == 0


def build_sweep_jobs(
    sweep: str,
    values: list,
    strategies: list[str],
    seeds: list[int],
    base_params: GaParams,
    workflow: Workflow | None,
    platform: Platform | None,
    risk_model: RiskModel,
    gen_cfg: GeneratorConfig,
    density: float,
    workflow_seed: int,
    risk_cap: float,
    literal_eq11: bool = True,
    catalog_path: str | None = None,
    tasks: int = 30,
) -> list[SweepJob]:
    """Materialize one job per (value, strategy, seed); a repeated seed or
    strategy is refused, since its rows would be counted twice.

    The swept variable decides what varies: GA parameters rebuild the
    params, ``risk_cap`` copies the workflow with another cap, ``lambda``
    sets both services' attack rates, ``servers`` rebuilds the platform (the
    deadline stays calibrated against the default platform so feasible
    sets grow with the server count), and ``tasks`` regenerates the
    workflow per value.
    """
    parsed = [Strategy.parse(name, literal_decrypt_ratio=literal_eq11) for name in strategies]
    if sweep not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {sweep!r}; expected one of "
                         f"{', '.join(SWEEP_VARIABLES)}")
    if not values:
        raise ValueError("sweep range is empty")
    if not seeds:
        raise ValueError("seed list is empty")
    for what, items in (("seed", seeds), ("strategy", strategies)):
        if len(set(items)) != len(items):
            raise ValueError(f"{what} list {','.join(map(str, items))} repeats a {what}")
    cat = load_catalog(catalog_path) if catalog_path else default_catalog()

    if sweep == "servers" and platform is not None:
        raise ValueError("the servers sweep builds its own platforms; drop --platform")
    if sweep == "tasks" and workflow is not None:
        raise ValueError("the tasks sweep generates its own workflows; drop --workflow")
    base_platform = platform or default_platform()

    def make_workflow(n: int) -> Workflow:
        w = random_workflow(n, density, gen_cfg, seed=workflow_seed, risk_cap=risk_cap)
        return with_deadline(w, compute_deadline(w, base_platform, cat))

    # every sweep but ``tasks`` poses all its values on one workflow
    if workflow is None and sweep != "tasks":
        workflow = make_workflow(tasks)
    jobs = []
    for value in values:
        w = workflow
        plat = base_platform
        rm = risk_model
        params = base_params
        if sweep in _GA_SWEEP_FIELDS:
            params = replace(base_params, **{_GA_SWEEP_FIELDS[sweep]: value})
        elif sweep == "risk_cap":
            w = with_risk_cap(w, value)
        elif sweep == "lambda":
            rm = replace(risk_model, lambda_conf=float(value), lambda_integ=float(value))
        elif sweep == "servers":
            plat = default_platform(int(value))
        elif sweep == "tasks":
            w = make_workflow(int(value))
        for strategy in parsed:
            for seed in seeds:
                jobs.append(SweepJob(
                    sweep=sweep, value=value, strategy=strategy, seed=seed,
                    workflow=w, platform=plat, risk_model=rm,
                    params=replace(params, seed=seed), catalog=cat))
    return jobs


def solve_key(job: SweepJob) -> tuple:
    """Everything the solve of ``job`` reads but its risk inputs."""
    w = job.workflow
    return (job.strategy, job.catalog, job.params, job.platform,
            w.tasks, w.edges, w.deadline_s)


def risk_values(job: SweepJob, read: tuple[str, ...]) -> tuple:
    """The values ``job`` poses of the risk inputs named in ``read``."""
    posed = {RISK_CAP: job.workflow.risk_cap, RATES: job.risk_model}
    return tuple(posed[name] for name in read)


def run_sweep(jobs: list[SweepJob], max_workers: int = 1) -> list[dict]:
    """Run all jobs and return rows sorted by (value, strategy, seed).

    Jobs with equal :func:`solve_key` form a group, which differs at most
    in its risk inputs.  Each key is hashed once, to number its group,
    and the numbers key the rest: a tuple does not cache its hash.  The
    group's first job in sweep order, its probe, is solved first, by
    :func:`run_job`, which also tells the risk inputs that solve read
    (:func:`seeco.baselines.risk_inputs_read`); the answer holds for the
    whole group.  Every job that poses the probe's values of those inputs
    gets a copy of the probe's row, with its own sweep, value and seed;
    each other distinct problem is solved once.
    So local and max-level are solved once per seed under a risk-cap or
    attack-rate sweep, min-level once per seed under a risk-cap sweep,
    and so is a confi, integ or SEECO run that ends at its polished
    witness.  Sweeps of servers, tasks or GA parameters have one job per
    group.  Either way the rows are the same as solving every job.

    Probes run here, in sweep order, while each is short (:func:`run_job`),
    since a pool costs more to start than they take; from the first that
    runs the GA on, the solves left go to ``max_workers`` processes
    (never more than the probes).  Solves run here share one memo
    (:func:`seeco.baselines.solve_detailed`).
    """
    ids: dict[tuple, int] = {}
    keys = [ids.setdefault(solve_key(job), len(ids)) for job in jobs]
    probes: dict[int, SweepJob] = {}
    for key, job in zip(keys, jobs):
        probes.setdefault(key, job)
    # a fork-based pool starts all its workers at the first submit
    max_workers = min(max_workers, len(probes))
    memo: dict = {}
    probed: dict[int, tuple] = {}
    pooled = False
    for key, job in probes.items():
        probed[key] = run_job(job, memo)
        pooled = max_workers > 1 and not probed[key][2]
        if pooled:
            break

    def solve_rest(mapper) -> list[dict]:
        """The row of each job, without its sweep, value and seed."""
        left = {key: job for key, job in probes.items() if key not in probed}
        probed.update(zip(left, mapper(left.values())))
        # a job's problem: its key and its values of the risk inputs its probe read
        problems = [(key, risk_values(job, probed[key][1])) for key, job in zip(keys, jobs)]
        row_of = {(key, risk_values(probes[key], read)): row
                  for key, (row, read, _) in probed.items()}
        rest = {problem: job for problem, job in zip(problems, jobs) if problem not in row_of}
        row_of.update(zip(rest, (row for row, *_ in mapper(rest.values()))))
        return [row_of[problem] for problem in problems]

    if pooled:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            solved = solve_rest(partial(pool.map, run_job))
    else:
        solved = solve_rest(lambda todo: [run_job(job, memo) for job in todo])
    rows = [{**row, "sweep": job.sweep, "value": job.value, "seed": job.seed}
            for row, job in zip(solved, jobs)]
    rows.sort(key=lambda r: (r["value"], r["strategy"], r["seed"]))
    return rows


def summarize_rows(rows: list[dict]) -> list[dict]:
    """Mean-over-seeds per (value, strategy), in sorted order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["value"], row["strategy"]), []).append(row)
    out = []
    for (value, strategy), grp in sorted(groups.items(), key=lambda kv: kv[0]):
        n = len(grp)
        out.append({
            "sweep": grp[0]["sweep"], "value": value, "strategy": strategy, "seeds": n,
            "mean_energy": sum(r["energy"] for r in grp) / n,
            "mean_makespan": sum(r["makespan"] for r in grp) / n,
            "mean_risk": sum(r["risk"] for r in grp) / n,
            "feasible_fraction": sum(1 for r in grp if r["feasible"]) / n,
        })
    return out


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] for k in header])


def _set_defaults(args: argparse.Namespace) -> None:
    """Install the sweep variable's defaults, then the config file's values.

    ``args`` is a first parse, read only for ``--config`` and ``--sweep``
    (which the config file may also name).  Config values go through each
    flag's ``type``; a JSON ``null`` keeps the built-in default.  A second
    parse then puts the explicit flags on top.
    """
    sub = args.sub_parser
    cfg = read_json(args.config, "config") if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ValueError(f"config keys not recognized: {', '.join(sorted(unknown))}")

    def from_config(dest: str, value):
        convert = actions[dest].type
        if convert is None:  # a flag without a type takes the string as given
            if not isinstance(value, str):
                raise ValueError(f"config key {dest!r} must be a string, got {value!r}")
            return value
        if convert in (int, float) and isinstance(value, bool):
            raise ValueError(f"config key {dest!r} must be a number, got {value!r}")
        if convert is int and not isinstance(value, str):
            convert = partial(exact_int, where=f"config {args.config}")
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {dest!r}: {exc}") from exc

    values = {dest: from_config(dest, value) for dest, value in cfg.items()
              if value is not None}
    sweep = getattr(args, "sweep", None) or values.get("sweep")
    sub.set_defaults(**SWEEP_DEFAULTS.get(sweep, {}))
    sub.set_defaults(**values)


def _ga_params(args) -> GaParams:
    return GaParams(pop_size=args.pop, iterations=args.iters, p_c=args.pc, p_m=args.pm,
                    seed=getattr(args, "seed", 0))


def _risk_model(args) -> RiskModel:
    return RiskModel(lambda_conf=args.lambda_conf, lambda_integ=args.lambda_integ)


def _gen_cfg(args) -> GeneratorConfig:
    return GeneratorConfig(data_range_mb=(args.data_min, args.data_max),
                           workload_range_gcycles=(args.load_min, args.load_max))


def _catalog(args):
    return load_catalog(args.catalog) if args.catalog else default_catalog()


def cmd_generate(args) -> int:
    platform = load_platform(args.platform) if args.platform else default_platform()
    w = random_workflow(args.tasks, args.density, _gen_cfg(args), seed=args.seed,
                        risk_cap=args.risk_cap)
    w = with_deadline(w, compute_deadline(w, platform, _catalog(args)))
    out = Path(args.out)
    save_workflow(w, out)
    print(f"wrote {out}: {w.n} tasks, {len(w.edges)} edges, "
          f"deadline {w.deadline_s:.3f} s, risk cap {w.risk_cap}")
    return 0


def cmd_solve(args) -> int:
    if args.workflow is None:
        raise ValueError("--workflow is required")
    w = load_workflow(args.workflow)
    platform = load_platform(args.platform) if args.platform else default_platform()
    strategy = Strategy.parse(args.strategy, literal_decrypt_ratio=args.literal_eq11)
    params = _ga_params(args)
    outcome = solve_detailed(strategy, w, platform, _catalog(args), _risk_model(args), params)
    res = outcome.result

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "summary.csv", SOLVE_CSV_HEADER, [{
        "strategy": strategy.kind.value, "seed": params.seed,
        "energy": res.energy_j, "makespan": res.makespan_s, "risk": res.risk,
        "violation": res.violation, "feasible": res.feasible,
        "deadline": w.deadline_s, "risk_cap": w.risk_cap,
    }])
    if args.dump_schedule:
        write_schedule_csv(res, out_dir / "schedule.csv")
    if outcome.ga_run is not None:
        write_history_csv(outcome.ga_run, out_dir / "history.csv")
    status = "feasible" if res.feasible else "infeasible"
    print(f"{strategy.kind.value}: energy {res.energy_j:.4f} J, makespan "
          f"{res.makespan_s:.4f} s, risk {res.risk:.6f} ({status}); wrote {out_dir}/")
    return 0


def cmd_sweep(args) -> int:
    if args.sweep is None:
        raise ValueError("--sweep is required")
    threads = os.environ.get("SEECO_THREADS", "1")
    if not threads.isdecimal() or int(threads) < 1:
        raise ValueError(f"SEECO_THREADS must be a positive integer, got {threads!r}")
    # only an unknown --sweep has no default range; build_sweep_jobs names it
    values = parse_range(args.range, args.sweep in _INT_SWEEPS) if args.range else []
    strategies = [s.strip() for s in args.strategies.split(",")]
    seeds = parse_seeds(args.seeds)
    jobs = build_sweep_jobs(
        sweep=args.sweep, values=values, strategies=strategies, seeds=seeds,
        base_params=_ga_params(args),
        workflow=load_workflow(args.workflow) if args.workflow else None,
        platform=load_platform(args.platform) if args.platform else None,
        risk_model=_risk_model(args), gen_cfg=_gen_cfg(args), density=args.density,
        workflow_seed=args.workflow_seed, risk_cap=args.risk_cap,
        literal_eq11=args.literal_eq11, catalog_path=args.catalog, tasks=args.tasks)

    rows = run_sweep(jobs, max_workers=int(threads))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", SWEEP_CSV_HEADER, rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_CSV_HEADER, summarize_rows(rows))
    print(f"{len(rows)} runs ({args.sweep} over {len(set(r['value'] for r in rows))} values, "
          f"{len(strategies)} strategies, {len(seeds)} seeds); wrote {out_dir}/")
    return 0


_GA, _RISK, _GEN = GaParams(), RiskModel(), GeneratorConfig()


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file holding any of these flags")
    sub.add_argument("--platform", help="platform JSON file (default: built-in 3 servers)")
    sub.add_argument("--catalog", help="security catalog JSON file (default: built-in)")


def _add_ga_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pop", type=int, default=_GA.pop_size,
                     help="population size (default %(default)s)")
    sub.add_argument("--iters", type=int, default=_GA.iterations,
                     help="GA iterations (default %(default)s)")
    sub.add_argument("--pc", type=float, default=_GA.p_c,
                     help="crossover probability (default %(default)s)")
    sub.add_argument("--pm", type=float, default=_GA.p_m,
                     help="mutation probability (default %(default)s)")
    sub.add_argument("--lambda-conf", type=float, default=_RISK.lambda_conf,
                     help="confidentiality attack rate (default %(default)s)")
    sub.add_argument("--lambda-integ", type=float, default=_RISK.lambda_integ,
                     help="integrity attack rate (default %(default)s)")
    sub.add_argument("--literal-eq11", type=parse_bool, default=True,
                     help="true/false: keep the producer-core factor in decryption "
                          "cost (default %(default)s)")


def _add_generator_flags(sub: argparse.ArgumentParser, tasks: int) -> None:
    sub.add_argument("--tasks", type=int, default=tasks,
                     help="number of tasks (default %(default)s)")
    sub.add_argument("--density", type=float, default=0.3,
                     help="edge probability (default %(default)s)")
    sub.add_argument("--risk-cap", type=float, default=0.5,
                     help="risk probability cap (default %(default)s)")
    sub.add_argument("--data-min", type=float, default=_GEN.data_range_mb[0],
                     help="payload lower bound, MB (default %(default)s)")
    sub.add_argument("--data-max", type=float, default=_GEN.data_range_mb[1],
                     help="payload upper bound, MB (default %(default)s)")
    sub.add_argument("--load-min", type=float, default=_GEN.workload_range_gcycles[0],
                     help="workload lower bound, giga-cycles (default %(default)s)")
    sub.add_argument("--load-max", type=float, default=_GEN.workload_range_gcycles[1],
                     help="workload upper bound, giga-cycles (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seeco",
        description="Energy-minimizing secure offloading of workflow DAGs "
                    "onto mobile edge platforms")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a random workflow file")
    _add_common(gen)
    _add_generator_flags(gen, tasks=10)
    gen.add_argument("--seed", type=int, default=1, help="generator seed (default %(default)s)")
    gen.add_argument("--out", default="workflow.json", help="output path (default %(default)s)")
    gen.set_defaults(handler=cmd_generate, sub_parser=gen)

    sol = subs.add_parser("solve", help="run one strategy on a workflow")
    _add_common(sol)
    _add_ga_flags(sol)
    sol.add_argument("--workflow", help="workflow JSON file (required)")
    sol.add_argument("--strategy", default="seeco",
                     help="local|max|min|confi|integ|seeco (default %(default)s)")
    sol.add_argument("--seed", type=int, default=_GA.seed, help="GA seed (default %(default)s)")
    sol.add_argument("--dump-schedule", type=parse_bool, default=True,
                     help="true/false: write the per-task timeline (default %(default)s)")
    sol.add_argument("--out", default="results", help="output directory (default %(default)s)")
    sol.set_defaults(handler=cmd_solve, sub_parser=sol)

    swp = subs.add_parser(
        "sweep", help="run strategies across a swept variable",
        epilog="per --sweep variable, its default --range and fixed GA flags: " + "; ".join(
            f"{var} " + " ".join(f"{k}={v}" for k, v in d.items())
            for var, d in SWEEP_DEFAULTS.items()))
    _add_common(swp)
    _add_ga_flags(swp)
    _add_generator_flags(swp, tasks=30)
    swp.add_argument("--sweep", help="|".join(SWEEP_VARIABLES))
    swp.add_argument("--range", help="a:b:step, inclusive (default: per --sweep, below)")
    swp.add_argument("--workflow", help="workflow JSON file (default: generated)")
    swp.add_argument("--workflow-seed", type=int, default=1,
                     help="generator seed for generated workflows (default %(default)s)")
    swp.add_argument("--strategies", default="seeco",
                     help="comma list of strategies (default %(default)s)")
    swp.add_argument("--seeds", default=",".join(str(i) for i in range(1, 11)),
                     help="comma list of GA seeds (default %(default)s)")
    swp.add_argument("--out", default="results", help="output directory (default %(default)s)")
    swp.set_defaults(handler=cmd_sweep, sub_parser=swp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _set_defaults(args)
        return args.handler(parser.parse_args(argv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
