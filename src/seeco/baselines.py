"""Reference offloading strategies for head-to-head comparisons.

Each strategy is one :class:`seeco.evaluator.EvalOptions`
(:func:`search_setup`): a mode per security service.  A service in any
mode but ``ACTIVE`` ignores its level genes, and the GA freezes them; an
``UNPROTECTED`` one also ignores the risk cap (``EvalOptions.ignore_risk_cap``).

========== =====================================================================
local      everything on the mobile device; no search needed, no transfers,
           zero risk, energy independent of the deadline and risk cap
max_level  GA over order and placement with both services ``STRONGEST``:
           always their level-1.0 algorithm, so workflow risk is exactly zero
min_level  GA with both services ``UNPROTECTED``: no time cost, but crossing
           data is fully exposed, so risk saturates; the modes set the risk
           cap aside, since every offloading solution would otherwise be infeasible
confi      GA with integrity ``DISABLED``: only confidentiality in the threat model
integ      GA with confidentiality ``DISABLED``: only integrity in the threat model
seeco      the full GA over all four gene vectors, both services ``ACTIVE``
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
from .ga import GaParams, GaRun, run, shared
from .platform import Platform
from .security import RiskModel, SecurityCatalog
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


# (confidentiality, integrity) mode per strategy kind; local's all-MD
# schedule crosses no access point, so its modes never matter
SERVICE_MODES = {
    StrategyKind.LOCAL: (ServiceMode.ACTIVE, ServiceMode.ACTIVE),
    StrategyKind.MAX_LEVEL: (ServiceMode.STRONGEST, ServiceMode.STRONGEST),
    StrategyKind.MIN_LEVEL: (ServiceMode.UNPROTECTED, ServiceMode.UNPROTECTED),
    StrategyKind.CONFI_ONLY: (ServiceMode.ACTIVE, ServiceMode.DISABLED),
    StrategyKind.INTEG_ONLY: (ServiceMode.DISABLED, ServiceMode.ACTIVE),
    StrategyKind.SEECO: (ServiceMode.ACTIVE, ServiceMode.ACTIVE),
}


def search_setup(strategy: Strategy) -> EvalOptions:
    """The options that realize a strategy, its gene freezes and ignored risk cap included."""
    return EvalOptions(*SERVICE_MODES[strategy.kind], strategy.literal_decrypt_ratio)


RISK_CAP, RATES = "risk_cap", "rates"


def risk_inputs_read(strategy: Strategy, outcome: SolveOutcome) -> tuple[str, ...]:
    """The risk inputs (:data:`RISK_CAP`, :data:`RATES`) the solve behind ``outcome`` read.

    The answer is the same under every risk cap and attack rates, and
    any other value of an input the solve did not read gives an equal
    outcome.  Local (no GA run) and max-level read neither: local's
    all-MD schedule crosses no access point, and max-level's
    ``STRONGEST`` services keep every crossing payload at its level-1.0
    algorithm.  Min-level's ``UNPROTECTED`` services expose every
    crossing payload whatever its genes, so its solve reads the rates,
    which set the risk it reports, but not the cap it ignores.  Confi,
    integ and SEECO read both, unless the GA run ended at its polished
    witness (``evaluations == 0``).  The witness and its polish keep the
    level-1.0 algorithms, whose payloads survive any finite rate with
    factor 1, so every score the polish compared, the final decode and
    the all-MD fallback have risk 0 and a violation set by the deadline
    alone; the energy floor reads no risk input.
    """
    options = search_setup(strategy)
    modes = (options.conf_mode, options.integ_mode)
    run = outcome.ga_run
    if run is None or not (ServiceMode.UNPROTECTED in modes
                           or ServiceMode.ACTIVE in modes and run.evaluations > 0):
        return ()
    return (RATES,) if options.ignore_risk_cap else (RISK_CAP, RATES)


def solve_detailed(
    strategy: Strategy,
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    params: GaParams | None = None,
    memo: dict | None = None,
) -> SolveOutcome:
    """Run one strategy and return its schedule, score and GA trace.

    Every strategy but local is :func:`seeco.ga.run` under the options of
    :func:`search_setup`, from run's one initial population:
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

    ``memo`` (default ``None``: compute everything), a dict shared by the
    solves of one sweep, holds the all-MD result keyed by the workflow's
    tasks, edges and deadline, the platform and the catalog: all-MD
    crosses no access point, so no strategy or risk input changes it.
    :func:`run` keeps three more values there.
    """
    options = search_setup(strategy)
    local = local_chromosome(w, cat)
    local_result = shared(memo, ("all_md", w.tasks, w.edges, w.deadline_s, p, cat),
                          lambda: evaluate(local, w, p, cat, risk_model, options))
    if strategy.kind is StrategyKind.LOCAL:
        return SolveOutcome(local, local_result, None)
    ga_run = run(w, p, cat, risk_model, params, options=options, memo=memo)
    if better(ga_run.best_result, local_result):
        return SolveOutcome(ga_run.best_chromosome, ga_run.best_result, ga_run)
    return SolveOutcome(local, local_result, ga_run)

