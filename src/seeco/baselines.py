"""Reference offloading strategies for head-to-head comparisons.

========== =====================================================================
local      everything on the mobile device; no search needed, no transfers,
           zero risk, energy independent of the deadline and risk cap
max_level  GA over order and placement with both services pinned to their
           strongest algorithm; workflow risk is exactly zero
min_level  GA with security absent: no time cost, but crossing data is fully
           exposed, so risk saturates; evaluated without the risk cap since
           every offloading solution would otherwise be infeasible
confi      GA with only the confidentiality service in the threat model
integ      GA with only the integrity service in the threat model
seeco      the full GA over all four gene vectors
========== =====================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .evaluator import (
    Chromosome,
    EvalOptions,
    EvaluationResult,
    ServiceMode,
    better,
    evaluate,
)
from .ga import GaParams, GaRun, GeneConstraints, run
from .platform import Platform
from .security import RiskModel, SecurityCatalog, Service
from .workflow import Workflow, local_chromosome


class StrategyKind(str, Enum):
    LOCAL = "local"
    MAX_LEVEL = "max"
    MIN_LEVEL = "min"
    CONFI_ONLY = "confi"
    INTEG_ONLY = "integ"
    SEECO = "seeco"


@dataclass(frozen=True)
class Strategy:
    kind: StrategyKind
    literal_decrypt_ratio: bool = True

    @classmethod
    def parse(cls, name: str, literal_decrypt_ratio: bool = True) -> "Strategy":
        try:
            return cls(StrategyKind(name), literal_decrypt_ratio)
        except ValueError:
            valid = ", ".join(k.value for k in StrategyKind)
            raise ValueError(f"unknown strategy {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class SolveOutcome:
    chromosome: Chromosome
    result: EvaluationResult
    ga_run: GaRun | None  # None for strategies that need no search


def search_setup(strategy: Strategy, cat: SecurityCatalog) -> tuple[GeneConstraints, EvalOptions]:
    """Gene freezes and evaluation modes that realize a strategy."""
    kind = strategy.kind
    base = dict(decrypt_producer_core_ratio=strategy.literal_decrypt_ratio)
    strongest_conf = cat.strongest_id(Service.CONFIDENTIALITY)
    strongest_integ = cat.strongest_id(Service.INTEGRITY)
    if kind in (StrategyKind.SEECO, StrategyKind.LOCAL):
        return GeneConstraints.from_catalog(cat), EvalOptions(**base)
    if kind is StrategyKind.MAX_LEVEL:
        cons = GeneConstraints.from_catalog(
            cat, fixed_conf_level=strongest_conf, fixed_integ_level=strongest_integ)
        return cons, EvalOptions(**base)
    if kind is StrategyKind.MIN_LEVEL:
        cons = GeneConstraints.from_catalog(
            cat, fixed_conf_level=strongest_conf, fixed_integ_level=strongest_integ)
        return cons, EvalOptions(conf_mode=ServiceMode.UNPROTECTED,
                                 integ_mode=ServiceMode.UNPROTECTED,
                                 ignore_risk_cap=True, **base)
    if kind is StrategyKind.CONFI_ONLY:
        cons = GeneConstraints.from_catalog(cat, fixed_integ_level=strongest_integ)
        return cons, EvalOptions(integ_mode=ServiceMode.DISABLED, **base)
    if kind is StrategyKind.INTEG_ONLY:
        cons = GeneConstraints.from_catalog(cat, fixed_conf_level=strongest_conf)
        return cons, EvalOptions(conf_mode=ServiceMode.DISABLED, **base)
    raise ValueError(f"unhandled strategy kind {kind}")


def risk_inputs(strategy: Strategy, risk_cap: float, risk_model: RiskModel) -> tuple:
    """The risk inputs a strategy's solve reads; equal tuples give equal outcomes.

    Local and max-level read neither the cap nor the attack rates: the
    all-MD schedule has no crossing payload, and max-level pins both
    services to their level-1.0 algorithm, so every payload survives with
    ``exp(-lambda * 0) = 1`` and the risk is exactly 0 under any cap.
    Min-level ignores the cap, but the rates set the risk it reports.
    The others read both.
    """
    kind = strategy.kind
    if kind in (StrategyKind.LOCAL, StrategyKind.MAX_LEVEL):
        return ()
    if kind is StrategyKind.MIN_LEVEL:
        return (risk_model,)
    return (risk_cap, risk_model)


def solve_detailed(
    strategy: Strategy,
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    params: GaParams | None = None,
) -> SolveOutcome:
    """Run one strategy and return its schedule, score and GA trace.

    Every strategy but local is :func:`seeco.ga.run` under the freezes
    and modes of :func:`search_setup`, from run's one initial population:
    the greedy witness plus risk-free random individuals, which keep
    tight caps from collapsing the search onto all-MD.

    The all-MD schedule of :func:`local_chromosome` is always available,
    so the outcome never loses to it: when :func:`better` strictly
    prefers the all-MD result to the GA's best (say, the GA ended
    infeasible where all-MD meets the deadline), the outcome carries the
    all-MD chromosome and result instead, while ``ga_run`` still reports
    what the search found.  All-MD is a fallback only, never a
    population seed: seeding it collapses the placement search onto
    that attractor.
    """
    constraints, options = search_setup(strategy, cat)
    local = local_chromosome(w, cat)
    local_result = evaluate(local, w, p, cat, risk_model, options)
    if strategy.kind is StrategyKind.LOCAL:
        return SolveOutcome(local, local_result, None)
    ga_run = run(w, p, cat, risk_model, params, constraints=constraints, options=options)
    if better(ga_run.best_result, local_result):
        return SolveOutcome(ga_run.best_chromosome, ga_run.best_result, ga_run)
    return SolveOutcome(local, local_result, ga_run)


def solve(
    strategy: Strategy,
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    params: GaParams | None = None,
) -> tuple[Chromosome, EvaluationResult]:
    outcome = solve_detailed(strategy, w, p, cat, risk_model, params)
    return outcome.chromosome, outcome.result
