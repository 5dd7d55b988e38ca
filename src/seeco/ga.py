"""Improved genetic algorithm over the four-vector chromosome.

Operators preserve chromosome validity by construction: order crossover
keeps one parent's prefix and fills the tail in the other parent's
relative order, order mutation relocates a task only inside the window
between its last predecessor and first successor, the entry/exit
placement genes stay pinned to the MD (placement crossover re-pins them,
placement mutation never draws them), and a level gene that the strategy
freezes (:class:`GeneConstraints`) is only ever drawn at its frozen value.

Selection is a binary tournament under feasibility-first rules (two
feasible solutions compare on energy, feasible beats infeasible,
infeasible ones compare on summed violation).  One elite individual is
carried over per generation so the best-so-far never worsens.

A run is deterministic for a fixed seed: all draws come from one
``random.Random`` advanced in a fixed sequence.  Evaluation itself is
pure, so populations may be scored in parallel by callers that manage
their own RNG discipline; this implementation stays single-threaded.

Decoding is the cost of a run.  :func:`run` builds one
:class:`seeco.evaluator.CostTables` and scores through the decoder's two
passes over it, without the per-task timeline (an
:class:`seeco.evaluator.EvaluationResult` with no ``timings``), and
through a memo keyed by chromosome that holds the current and the
previous generation's scores: parents often pass through unchanged, and
a hit skips their decode.  On a miss
the order-free pass runs first; a child over the risk cap then goes
straight to the risk repair, which reads only its risk and its tasks'
risks, so it is never timed.  Scoring draws no random numbers, so hits
and screened children leave the trajectory as it was.  The winner alone
is decoded in full, over the same tables.

A run stops once its best is feasible and at the energy floor
(:func:`seeco.evaluator.min_cut`), which no schedule undercuts: the
best is only ever replaced by a strictly better individual, so the
generations left could not change the winner.  ``len(history)`` is the
generation the run stopped at (``iterations`` if it never reached the floor).

Before generation 0 a run polishes the greedy witness (:func:`descend`
over :func:`placement_moves`, the local-search step of a memetic
algorithm, Moscato 1989): single placement moves, taken while they
improve it, on a budget of a tenth of the GA's scorings
(:data:`POLISH_SHARE`), where a move that provably raises a feasible
schedule's energy (:func:`seeco.evaluator.move_energy`) counts undecoded.
A polished witness that is feasible and at the floor is the winner, and
the run ends there, with no population built and no random number drawn.
Otherwise the polished schedule is dropped and the GA runs as it would
without the polish.
"""

from __future__ import annotations

import bisect
import csv
import math
import operator
import random
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, ClassVar, Iterator

from .evaluator import (
    Chromosome,
    CostTables,
    DEFAULT_OPTIONS,
    EvalOptions,
    EvaluationResult,
    Exposure,
    FLOOR_RTOL,
    ServiceMode,
    better,
    cost_tables,
    deb_key,
    min_cut,
    move_energy,
    order_free_pass,
    timing_pass,
)
from .platform import MD_LOCATION, Platform, encode_location, exact_int, finite_fields
from .security import RiskModel, SecurityCatalog, Service, default_catalog
from .workflow import Workflow, greedy_witness


@dataclass(frozen=True)
class GaParams:
    """The GA's settings; each generation carries one elite individual over."""

    pop_size: int = 40
    iterations: int = 150
    p_c: float = 0.5
    p_m: float = 0.3
    seed: int = 0
    elitism: ClassVar[int] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "pop_size", exact_int(self.pop_size, "GA pop_size"))
        object.__setattr__(self, "iterations", exact_int(self.iterations, "GA iterations"))
        if self.pop_size < 2:
            raise ValueError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not all(0.0 <= x <= 1.0 for x in finite_fields(self, "p_c", "p_m")):
            raise ValueError("p_c and p_m must be probabilities")


@dataclass(frozen=True, init=False)
class GeneConstraints:
    """The level gene alphabets of a catalog, and the genes a strategy freezes.

    Built by :meth:`from_catalog` only, from a catalog and the strategy's
    :class:`seeco.evaluator.EvalOptions`.  A service in any mode but
    ``ACTIVE`` ignores its level genes, so they are frozen at the
    catalog's strongest id; ``fixed_*_level`` is ``None`` for a free gene.
    """

    conf_level_count: int
    integ_level_count: int
    fixed_conf_level: int | None
    fixed_integ_level: int | None

    def __init__(self) -> None:
        raise TypeError("GeneConstraints is built by GeneConstraints.from_catalog only")

    @classmethod
    def from_catalog(cls, cat: SecurityCatalog,
                     options: EvalOptions = DEFAULT_OPTIONS) -> "GeneConstraints":
        cons = object.__new__(cls)
        for name, svc, mode in (("conf", Service.CONFIDENTIALITY, options.conf_mode),
                                ("integ", Service.INTEGRITY, options.integ_mode)):
            cons.__dict__[f"{name}_level_count"] = cat.level_count(svc)
            cons.__dict__[f"fixed_{name}_level"] = (
                None if mode is ServiceMode.ACTIVE else cat.strongest_id(svc))
        return cons

    def draw_conf(self, rng: random.Random) -> int:
        # always consume one draw so runs that differ only in gene freezes
        # stay on correlated RNG streams (fairer strategy comparisons)
        drawn = rng.randint(1, self.conf_level_count)
        return self.fixed_conf_level or drawn

    def draw_integ(self, rng: random.Random) -> int:
        drawn = rng.randint(1, self.integ_level_count)
        return self.fixed_integ_level or drawn

    def repair(self, c: Chromosome) -> Chromosome:
        """Re-pin the endpoint placements and re-impose frozen levels.

        Returns ``c`` itself when it changes nothing, as it does for every
        chromosome :func:`run` builds, whose operators keep both.
        """
        n = len(c.order)
        loc, conf, integ = c.locations, c.conf_levels, c.integ_levels
        if loc[0] != MD_LOCATION or loc[n - 1] != MD_LOCATION:
            pinned = list(loc)
            pinned[0] = pinned[n - 1] = MD_LOCATION
            loc = tuple(pinned)
        if self.fixed_conf_level and conf.count(self.fixed_conf_level) != n:
            conf = (self.fixed_conf_level,) * n
        if self.fixed_integ_level and integ.count(self.fixed_integ_level) != n:
            integ = (self.fixed_integ_level,) * n
        if loc is c.locations and conf is c.conf_levels and integ is c.integ_levels:
            return c
        return Chromosome(c.order, loc, conf, integ)


DEFAULT_CONSTRAINTS = GeneConstraints.from_catalog(default_catalog())


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_energy: float
    best_violation: float
    feasible_count: int


@dataclass
class GaRun:
    """A run's winner with its full timeline, per-generation stats, and counters.

    ``evaluations`` counts scorings, repairs' rescores included;
    ``cache_hits`` counts those of them that found their chromosome in the
    memo, and ``screened`` the memo misses that the order-free pass found
    over the risk cap and that were never timed, so a run decodes
    ``evaluations - cache_hits - screened`` chromosomes, and the winner
    once more with its timeline.  ``risk_repairs`` and ``deadline_repairs``
    count the two repairs' rescores; the rest are ``pop_size +
    len(history) * (pop_size - elitism)``.  ``history`` holds one row per
    generation run, so ``len(history)`` is the stop generation:
    ``params.iterations``, or fewer when the best reached ``energy_floor``,
    the run's lower bound on device energy in J (and 0 rows when the
    initial population did).  ``polish_decodes`` counts the decodes that the
    witness's polish ran, which none of the other counters include.  A run
    whose polished witness reached the floor ends before generation 0:
    its history is empty and every other counter is 0.
    """

    best_chromosome: Chromosome
    best_result: EvaluationResult
    history: list[GenerationStats] = field(default_factory=list)
    params: GaParams = field(default_factory=GaParams)
    evaluations: int = 0
    cache_hits: int = 0
    risk_repairs: int = 0
    deadline_repairs: int = 0
    screened: int = 0
    energy_floor: float = 0.0
    polish_decodes: int = 0


def init_order(w: Workflow, rng: random.Random) -> list[int]:
    """Random topological order: repeatedly pick a uniformly random ready task.

    The entry task is placed first; the exit task lands last on its own
    because it depends on everything else.  The ready tasks are kept in
    ascending id order, and a task joins them once its last predecessor
    is placed.
    """
    missing = [len(w.predecessors(t)) for t in range(w.n)]
    ready = [t for t in range(w.n) if not missing[t]]
    order: list[int] = []
    while ready:
        t = ready.pop(0 if len(ready) == 1 else rng.randrange(len(ready)))
        order.append(t)
        for s in w.successors(t):
            missing[s] -= 1
            if not missing[s]:
                bisect.insort(ready, s)
    return order


def init_vectors(
    w: Workflow,
    rng: random.Random,
    constraints: GeneConstraints = DEFAULT_CONSTRAINTS,
) -> tuple[list[int], list[int], list[int]]:
    """Random placement bytes and level genes; endpoints pinned to the MD."""
    n = w.n
    loc = [MD_LOCATION] * n
    for i in range(1, n - 1):
        loc[i] = rng.randint(0x01, 0xFF)
    conf = [constraints.draw_conf(rng) for _ in range(n)]
    integ = [constraints.draw_integ(rng) for _ in range(n)]
    return loc, conf, integ


def init_chromosome(w: Workflow, rng: random.Random,
                    constraints: GeneConstraints = DEFAULT_CONSTRAINTS) -> Chromosome:
    order = init_order(w, rng)
    loc, conf, integ = init_vectors(w, rng, constraints)
    return Chromosome(tuple(order), tuple(loc), tuple(conf), tuple(integ))


def crossover_order(
    o1: tuple[int, ...] | list[int],
    o2: tuple[int, ...] | list[int],
    rng: random.Random,
) -> tuple[list[int], list[int]]:
    """One-point order crossover that preserves topological validity.

    The child keeps one parent's prefix up to the cut and appends the
    other parent's genes in their relative order, skipping duplicates.
    """
    n = len(o1)
    r = rng.randrange(n)
    head1, head2 = list(o1[:r + 1]), list(o2[:r + 1])
    seen1, seen2 = set(head1), set(head2)
    child1 = head1 + [t for t in o2 if t not in seen1]
    child2 = head2 + [t for t in o1 if t not in seen2]
    return child1, child2


def _cut_pair(v1, v2, r):
    return list(v1[:r + 1]) + list(v2[r + 1:]), list(v2[:r + 1]) + list(v1[r + 1:])


def crossover_vectors(
    a: Chromosome,
    b: Chromosome,
    rng: random.Random,
) -> tuple[Chromosome, Chromosome]:
    """One-point crossover of the three gene vectors, one cut per vector.

    Orders pass through untouched; endpoint placements are re-pinned
    afterwards.
    """
    n = len(a.order)
    loc1, loc2 = _cut_pair(a.locations, b.locations, rng.randrange(n))
    cf1, cf2 = _cut_pair(a.conf_levels, b.conf_levels, rng.randrange(n))
    ig1, ig2 = _cut_pair(a.integ_levels, b.integ_levels, rng.randrange(n))
    loc1[0] = loc1[n - 1] = MD_LOCATION
    loc2[0] = loc2[n - 1] = MD_LOCATION
    child_a = Chromosome(a.order, tuple(loc1), tuple(cf1), tuple(ig1))
    child_b = Chromosome(b.order, tuple(loc2), tuple(cf2), tuple(ig2))
    return child_a, child_b


def mutate_order(
    order: tuple[int, ...] | list[int],
    w: Workflow,
    rng: random.Random,
) -> list[int]:
    """Relocate one interior task within its precedence-free window.

    The window runs from just after the last position holding one of the
    task's predecessors to just before the first position holding one of
    its successors; any slot there keeps the order topological.  If the
    window holds no alternative slot the mutation is the identity.
    """
    n = len(order)
    out = list(order)
    if n < 3:
        return out
    l0 = rng.randint(1, n - 2)
    task = out[l0]
    preds = w.predecessors(task)
    succs = w.successors(task)
    a = max((i for i in range(l0) if out[i] in preds), default=0)
    b = min((i for i in range(l0 + 1, n) if out[i] in succs), default=n - 1)
    slots = [i for i in range(a + 1, b) if i != l0]
    if not slots:
        return out
    target = slots[0] if len(slots) == 1 else slots[rng.randrange(len(slots))]
    out.pop(l0)
    out.insert(target, task)
    return out


def mutate_vectors(
    c: Chromosome,
    rng: random.Random,
    constraints: GeneConstraints = DEFAULT_CONSTRAINTS,
) -> Chromosome:
    """Replace one interior placement byte and one level gene per service."""
    n = len(c.order)
    if n < 3:
        return c
    loc = list(c.locations)
    conf = list(c.conf_levels)
    integ = list(c.integ_levels)
    loc[rng.randint(1, n - 2)] = rng.randint(0x01, 0xFF)
    conf[rng.randint(1, n - 2)] = constraints.draw_conf(rng)
    integ[rng.randint(1, n - 2)] = constraints.draw_integ(rng)
    return Chromosome(c.order, tuple(loc), tuple(conf), tuple(integ))


Individual = tuple[Chromosome, EvaluationResult]


def _make_ranking_key(options: EvalOptions) -> Callable[[EvaluationResult], tuple]:
    """Population ordering: feasibility-first, then deterministic tie-breaks.

    Security levels never change energy (only time and risk), so level
    variations constantly produce equal-energy individuals; without a
    tie direction they drift through tournaments and dilute the
    placement search.  Preferring lower risk, then more schedule slack,
    keeps the gene pool conservative wherever weakening buys nothing.
    When the risk cap is ignored, risk is not an objective at all and
    would only punish offloading, so only the slack tie-break remains.
    """
    if options.ignore_risk_cap:
        return lambda res: deb_key(res) + (res.makespan_s,)
    return lambda res: deb_key(res) + (res.risk, res.makespan_s)


# the witness's polish tries at most this share of pop_size * iterations
# moves (about the scorings of a full GA run): a polish that falls short
# of the floor is dropped, so it must cost little beside the GA
POLISH_SHARE = 0.1


def placement_moves(tables: CostTables) -> Callable[[Chromosome, int], Iterator[Chromosome]]:
    """:func:`descend`'s moves of the task at order position ``pos`` to each
    other VM row of ``tables``, in flat-id order; no other gene changes."""
    by_byte = tables.by_byte
    row_bytes = [encode_location(ap, k) for ap, k, *_ in tables.vms]

    def moves(c: Chromosome, pos: int) -> Iterator[Chromosome]:
        here = by_byte[c.locations[pos]][2]
        for vid, byte in enumerate(row_bytes):
            if vid != here:
                loc = list(c.locations)
                loc[pos] = byte
                yield Chromosome(c.order, tuple(loc), c.conf_levels, c.integ_levels)

    return moves


def descend(
    c: Chromosome,
    moves: Callable[[Chromosome, int], Iterator[Chromosome]],
    decode: Callable[[Chromosome], EvaluationResult],
    key: Callable[[EvaluationResult], tuple],
    done: Callable[[EvaluationResult], bool],
    budget: int,
    screen: Callable[[Chromosome, EvaluationResult], Callable | bool],
) -> tuple[Chromosome, EvaluationResult, int]:
    """First-improvement descent.

    For each interior order position in turn, tries ``moves(c, pos)``, the
    candidates at that position, and takes the first that lowers ``key``,
    then goes on to the next position.  Stops as soon as ``done`` holds for
    the current schedule, after a full pass with no improving move, or once
    it has tried ``budget`` moves, counting those that ``screen(c, res)``
    skips undecoded: called once per current schedule, it gives ``False``
    or a predicate over ``(pos, cand)`` that holds only for moves ranking
    strictly worse under ``key``.  Returns the schedule, its ``decode`` and
    the decodes run, the start's included.
    """
    res = decode(c)
    res_key = key(res)
    skip = screen(c, res)
    decodes = 1
    improved = True
    while improved and not done(res):
        improved = False
        for pos in range(1, len(c.order) - 1):
            for cand in moves(c, pos):
                if budget <= 0:
                    return c, res, decodes
                budget -= 1
                if skip and skip(pos, cand):
                    continue
                cand_res = decode(cand)
                decodes += 1
                cand_key = key(cand_res)
                if cand_key < res_key:
                    c, res, res_key, improved = cand, cand_res, cand_key, True
                    if done(res):
                        return c, res, decodes
                    skip = screen(c, res)
                    break
    return c, res, decodes


def make_deadline_repair(
    w: Workflow,
    tables: CostTables,
) -> Callable[[Chromosome, EvaluationResult], Chromosome]:
    """Build the deadline repair: weaken free level genes to buy slack.

    The returned function takes a chromosome and its evaluation.  When
    the schedule misses the deadline but stays within the risk cap, it
    spends what the cap leaves, measured as ``-log`` survival, on
    weaker algorithms for the tasks whose output crosses access points.
    Moves go greedily, most crypto seconds saved (the producer's
    encryption plus every crossing consumer's decryption) per unit of
    ``-log`` survival first, and each move must fit the remaining budget
    (less a relative margin of 1e-9, so decoder rounding cannot push the
    risk over the cap).  Only level genes of ``ServiceMode.ACTIVE``
    services, the free ones, change; order and placements never do, so
    energy stays bit-identical.

    The makespan can fall by at most the crypto seconds saved in total,
    so a weakening that saves less than the deadline miss cannot make
    the schedule feasible; it is dropped.  The chromosome comes back as
    the very same object then, and whenever there is nothing to repair.
    ``tables`` is the problem's :func:`seeco.evaluator.cost_tables`, and
    the repair reads nothing else but the workflow: its moves are the
    tables' ``ladders``, its decryption cost the tables' ``dec_ratio``.
    """
    n = w.n
    deadline = w.deadline_s
    succs = [sorted(w.successors(t)) for t in range(n)]
    out_mb = [t.output_mb for t in w.tasks]
    risk_cap = tables.risk_cap
    cap_nl = -math.log1p(-risk_cap) if risk_cap < 1.0 else math.inf

    # per VM id: crypto seconds per MB per unit of per-MB cost to encrypt
    # on it, and to decrypt on VM y what it produced (the decoder's core
    # ratio included)
    enc_coef = [1.0 / x[4] for x in tables.vms]
    dec_coef = [[r / y[4] for r, y in zip(ratio, tables.vms)] for ratio in tables.dec_ratio]
    by_byte = tables.by_byte
    # per task and VM id: a bound on the task's weight (see below) there,
    # as if every successor sat on the VM costliest to decrypt on
    weight_bound = [[t.output_mb * (enc_coef[x] + len(succs[t.id]) * max(dec_coef[x]))
                     for x in range(len(tables.vms))] for t in w.tasks]
    max_weight = max(map(max, weight_bound))

    moves = tables.ladders
    free = [s for s in (0, 1) if moves[s]]
    min_spent = min((m[1] for s in free for ladder in moves[s] for m in ladder),
                    default=math.inf)
    max_gain = max((m[0] for s in free for ladder in moves[s] for m in ladder),
                   default=0.0)

    def repair(c: Chromosome, res: EvaluationResult) -> Chromosome:
        if not free or res.makespan_s <= deadline or res.risk > risk_cap:
            return c
        budget = (cap_nl * (1.0 - 1e-9) + math.log1p(-res.risk) if risk_cap < 1.0
                  else math.inf)
        if budget < min_spent:
            return c
        # The makespan falls by at most the crypto seconds saved in total,
        # and a position saves at most weight * max_gain seconds per unit of
        # budget, so some weight must reach ``need``; bounds rule most out.
        overshoot = res.makespan_s - deadline
        need = overshoot / (max_gain * budget)
        if max_weight < need:
            return c
        order, locations = c.order, c.locations
        hopeful = [t for t, byte in zip(order, locations)
                   if weight_bound[t][by_byte[byte][2]] >= need]
        if not hopeful:
            return c
        ap = [0] * n
        vm = [0] * n
        for t, byte in zip(order, locations):
            row = by_byte[byte]
            ap[t] = row[0]
            vm[t] = row[2]

        def task_weight(t: int) -> float:
            """Crypto seconds per unit of per-MB cost: the producer's
            encryption plus every crossing consumer's decryption."""
            here = ap[t]
            coef = dec_coef[vm[t]]
            dec = 0.0
            for u in succs[t]:
                if ap[u] != here:
                    dec += coef[vm[u]]
            return out_mb[t] * (dec + enc_coef[vm[t]]) if dec else 0.0

        if all(task_weight(t) < need for t in hopeful):
            return c
        weight = [task_weight(t) for t in order]  # by order position
        heaviest = sorted((pos for pos in range(n) if weight[pos] > 0.0),
                          key=weight.__getitem__, reverse=True)
        # group the weighted positions by (service, level), heaviest first:
        # within a group every position has the same moves
        levels = [list(c.conf_levels), list(c.integ_levels)]
        groups = [[[] for _ in ladders] for ladders in moves]
        for s in free:
            for pos in heaviest:
                groups[s][levels[s][pos]].append(pos)
        saved = 0.0
        while True:
            best = None
            for s in free:
                for a, members in enumerate(groups[s]):
                    if members:
                        for move in moves[s][a]:
                            if move[1] <= budget:
                                gain = weight[members[0]] * move[0]
                                if best is None or gain > best[0]:
                                    best = (gain, s, a, move)
                                break
            if best is None:
                break
            _, s, a, (_, spent, cost_saved, target) = best
            pos = groups[s][a].pop(0)
            budget -= spent
            saved += weight[pos] * cost_saved
            levels[s][pos] = target
            bisect.insort(groups[s][target], pos, key=lambda q: -weight[q])
        if saved < overshoot:
            return c
        return Chromosome(c.order, c.locations, tuple(levels[0]), tuple(levels[1]))

    return repair


def run(
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    params: GaParams | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
    memo: dict | None = None,
) -> GaRun:
    """Evolve a population and return the best individual ever evaluated.

    ``history`` holds one row per generation run (the post-variation
    population's best under the feasibility-first ordering), and
    ``best_result`` is the winner's full decode, timeline included.
    Before each generation the run stops if its best is feasible and within
    :data:`seeco.evaluator.FLOOR_RTOL` of the energy floor
    (:func:`seeco.evaluator.min_cut` of its own tables, reported as
    ``GaRun.energy_floor``): only a strictly better individual replaces the
    best, and none is below the floor.  So ``len(history)`` is the stop
    generation, and the winner is the one the full run would return.

    First of all, the run polishes the greedy witness (below) with
    :func:`descend` over its own tables' :func:`placement_moves`, under its
    ranking key, trying at most :data:`POLISH_SHARE` times ``pop_size *
    iterations`` moves.  It decodes them without the risk screen, but skips
    those that provably raise a feasible schedule's energy
    (:func:`seeco.evaluator.move_energy`).  If the polished schedule is
    feasible and at the floor, no schedule beats it, and it is the winner:
    the run returns before building a population, with an empty history,
    no random number drawn and only ``GaRun.polish_decodes`` counted.
    Without an ``UNPROTECTED`` service, such a run reads neither the risk
    cap nor the attack rates (:func:`seeco.baselines.risk_inputs_read`).
    Otherwise it is dropped, and the run goes on from the unpolished
    witness exactly as if there were no polish.

    The initial population is fixed: individual 0 is the greedy witness,
    :func:`seeco.workflow.greedy_witness` at full security under the
    strategy's decryption core ratio, and every other
    individual gets a random order and random placements at the catalog's
    strongest levels, where every frozen level gene sits, so it starts
    risk-free and the search relaxes security where the cap allows.  A purely
    random population drifts back to the all-MD attractor under
    tight risk caps: offloading one task then needs placement and both
    level genes to line up in one variation step.  Under a degenerate
    deadline (see :func:`seeco.workflow.compute_deadline`) the witness
    misses; all-MD, never seeded, may then be the only feasible schedule
    known, and :func:`seeco.baselines.solve_detailed` falls back to it.

    Two deterministic repairs keep the search honest about what weak
    services are for (they never lower energy, they only buy schedule
    slack at the price of risk).  The risk repair upgrades the crossing
    tasks of any individual that busts the risk cap to full-strength
    services (which zeroes their risk) and re-scores it.  A child over
    the cap is screened: the order-free pass finds it and it is never
    timed, since the repair reads only its risk and its tasks' risks.  A
    cap binds only without an ``UNPROTECTED`` service, so the repair
    leaves the child at risk 0, and the population never keeps a
    screened individual.  Without the repair, tight caps funnel the
    population onto the all-MD attractor, because risk falls
    placement-gene by placement-gene while fixing it via levels needs
    every crossing task raised at once.  The deadline
    repair works the other way round, after any risk repair: an
    individual that misses the deadline within the cap gets the
    weakening of :func:`make_deadline_repair`, is re-scored once, and
    keeps the weaker levels only if :func:`better` strictly prefers the
    result (a Lamarckian step: the repaired genes enter the population).
    It acts on free level genes only, those of ``ACTIVE`` services, so
    among the reference strategies it changes SEECO and the single-service
    ones (confi, integ), never max-level or min-level.  Variation operators
    themselves are never touched.  ``options`` is the whole strategy: the
    genes it freezes are :meth:`GeneConstraints.from_catalog`'s.

    ``memo`` (one dict per :func:`seeco.cli.run_sweep` call; ``None``:
    compute everything) shares three values between runs, each keyed by
    all it reads: the energy floor (tasks, edges, platform), the witness
    (those plus catalog and decryption ratio) and its polish (the
    witness's key plus deadline, budget and the modes, which decide the
    ignored cap, with ``ACTIVE`` read as ``STRONGEST``, so max-level and
    SEECO share one).  At the witness's strongest genes a score has risk
    0, or, under an ``UNPROTECTED`` service's ignored cap, a risk the
    polish never reads; so the polish keeps no score, only its
    chromosome, decode count and whether it reached the floor.
    """
    params = params or GaParams()
    cons = GeneConstraints.from_catalog(cat, options)
    tables = cost_tables(w, p, cat, risk_model, options)
    exposure = order_free_pass(w, tables)
    timed = timing_pass(w, tables, timeline=False)
    full = timing_pass(w, tables)
    ranking_key = _make_ranking_key(options)
    shape = (w.tasks, w.edges, p)
    floor = shared(memo, ("floor", shape), lambda: min_cut(w, tables)[0])
    at_floor = floor * (1.0 + FLOOR_RTOL)

    def reached_floor(res: EvaluationResult) -> bool:
        return res.feasible and res.energy_j <= at_floor

    ratio = options.decrypt_producer_core_ratio
    witness_key = ("witness", shape, cat, ratio)
    witness = shared(memo, witness_key,
                     lambda: greedy_witness(w, p, cat, decrypt_producer_core_ratio=ratio))
    budget = int(POLISH_SHARE * params.pop_size * params.iterations)

    def polish() -> tuple[Chromosome, int, bool]:
        rise, by_byte = move_energy(w, tables), tables.by_byte

        def screen(c: Chromosome, res: EvaluationResult):  # for feasibility-first keys only
            aps = {t: by_byte[byte][0] for t, byte in zip(c.order, c.locations)}
            return res.feasible and (lambda pos, cand: operator.gt(*rise(
                aps, c.order[pos], by_byte[cand.locations[pos]][0], res.energy_j)))

        c, res, decodes = descend(witness, placement_moves(tables),
                                  lambda c: timed(c, exposure(c)), ranking_key, reached_floor,
                                  budget, screen)
        return c, decodes, reached_floor(res)

    # at the witness's strongest genes ACTIVE prices and exposes as STRONGEST
    modes = tuple(ServiceMode.STRONGEST if m is ServiceMode.ACTIVE else m
                  for m in (options.conf_mode, options.integ_mode))
    polished, polish_decodes, polish_won = shared(
        memo, ("polish", witness_key, w.deadline_s, budget, modes), polish)
    if polish_won:
        return GaRun(best_chromosome=polished,
                     best_result=full(polished, exposure(polished)),
                     params=params, energy_floor=floor, polish_decodes=polish_decodes)

    rng = random.Random(params.seed)
    risk_cap = tables.risk_cap
    strong_conf = (cat.strongest_id(Service.CONFIDENTIALITY),) * w.n
    strong_integ = (cat.strongest_id(Service.INTEGRITY),) * w.n
    evaluations = cache_hits = risk_repairs = deadline_repairs = screened = 0
    # scores of this generation and of the previous one; a screened child
    # is held as its Exposure
    scores: dict[Chromosome, EvaluationResult | Exposure] = {}
    older_scores: dict[Chromosome, EvaluationResult | Exposure] = {}

    def score(c: Chromosome) -> EvaluationResult | Exposure:
        nonlocal evaluations, cache_hits, screened
        evaluations += 1
        res = scores.get(c) or older_scores.get(c)
        if res is None:
            res = exposure(c)
            if res.risk > risk_cap:
                screened += 1
            else:
                res = timed(c, res)
        else:
            cache_hits += 1
        scores[c] = res
        return res

    def upgrade_crossing(c: Chromosome, res: Exposure) -> Chromosome:
        task_risk = res.task_risk
        conf = list(c.conf_levels)
        integ = list(c.integ_levels)
        for pos, t in enumerate(c.order):
            if task_risk[t] > 0.0:
                conf[pos] = strong_conf[0]
                integ[pos] = strong_integ[0]
        return Chromosome(c.order, c.locations, tuple(conf), tuple(integ))

    weaken = make_deadline_repair(w, tables)

    def scored(c: Chromosome) -> Individual:
        nonlocal risk_repairs, deadline_repairs
        res = score(c)
        if res.risk > risk_cap:
            risk_repairs += 1
            c = upgrade_crossing(c, res)
            res = score(c)
        weak = weaken(c, res)
        if weak is not c:
            deadline_repairs += 1
            weak_res = score(weak)
            if not better(res, weak_res):  # strictly better only
                c, res = weak, weak_res
        return c, res

    pop: list[Individual] = []
    for i in range(params.pop_size):
        c = init_chromosome(w, rng, cons)  # individual 0 draws too, so later draws stay put
        if i == 0:
            c = witness
        else:
            c = Chromosome(c.order, c.locations, strong_conf, strong_integ)
        pop.append(scored(c))

    def tournament(population: list[Individual]) -> Individual:
        i = rng.randrange(len(population))
        j = rng.randrange(len(population) - 1)
        if j >= i:
            j += 1
        a, b = population[i], population[j]
        return a if ranking_key(a[1]) <= ranking_key(b[1]) else b

    best = min(pop, key=lambda ind: deb_key(ind[1]))
    history: list[GenerationStats] = []

    for gen in range(params.iterations):
        if reached_floor(best[1]):
            break
        scores, older_scores = {}, scores
        nxt: list[Individual] = sorted(
            pop, key=lambda ind: ranking_key(ind[1]))[:params.elitism]
        while len(nxt) < params.pop_size:
            p1 = tournament(pop)[0]
            p2 = tournament(pop)[0]
            if rng.random() < params.p_c:
                o1, o2 = crossover_order(p1.order, p2.order, rng)
                c1, c2 = crossover_vectors(p1, p2, rng)
                pair = [Chromosome(tuple(o1), c1.locations, c1.conf_levels, c1.integ_levels),
                        Chromosome(tuple(o2), c2.locations, c2.conf_levels, c2.integ_levels)]
            else:
                pair = [p1, p2]
            for child in pair:
                if rng.random() < params.p_m:
                    mutated_order = mutate_order(child.order, w, rng)
                    child = mutate_vectors(Chromosome(
                        tuple(mutated_order), child.locations, child.conf_levels,
                        child.integ_levels), rng, cons)
                if len(nxt) < params.pop_size:
                    nxt.append(scored(child))
        pop = nxt
        gen_best = min(pop, key=lambda ind: deb_key(ind[1]))
        if not better(best[1], gen_best[1]):  # strictly better newcomers only
            best = gen_best
        history.append(GenerationStats(
            generation=gen,
            best_energy=gen_best[1].energy_j,
            best_violation=gen_best[1].violation,
            feasible_count=sum(1 for _, r in pop if r.feasible),
        ))

    return GaRun(best_chromosome=best[0],
                 best_result=full(best[0], exposure(best[0])),
                 history=history, params=params, evaluations=evaluations,
                 cache_hits=cache_hits, risk_repairs=risk_repairs,
                 deadline_repairs=deadline_repairs, screened=screened,
                 energy_floor=floor, polish_decodes=polish_decodes)


def shared(memo: dict | None, key: tuple, compute: Callable[[], object]):
    """``memo[key]``, set from ``compute()`` on first use; ``memo=None``: ``compute()``."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


HISTORY_CSV_HEADER = [f.name for f in fields(GenerationStats)]


def write_history_csv(run_result: GaRun, path: str | Path) -> None:
    """One row per generation run, one column per :class:`GenerationStats` field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_CSV_HEADER)
        writer.writerows(map(astuple, run_result.history))
