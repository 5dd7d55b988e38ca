"""Chromosome decoding: schedule timing, device energy, and risk.

A candidate solution is a four-vector chromosome: a task execution
order plus three gene vectors parallel to it (placement byte,
confidentiality level, integrity level).  Gene ``i`` of each vector
belongs to the task at order position ``i``; since the entry task is
the only source and the exit the only sink, positions 0 and n-1 always
hold them and their placement genes stay pinned to the MD byte 0x01.

Schedule semantics
------------------
Tasks are processed in chromosome order.  A task starts no earlier
than all its predecessors' end times and no earlier than the end of
the previous task placed on the same VM (one VM runs one task at a
time, in chromosome order).  Its busy window is

    decrypt inbound cross-AP payloads
    + execute
    + transfer its output to each successor (per edge; free inside an AP)
    + encrypt its output once, iff some successor sits on another AP

Only data that leaves an access point is protected, so only those
producer tasks contribute risk.  Energy bills the mobile device only:
compute power while it executes, transmit power while it uploads,
receive power while it downloads; security time is billed as time, not
device energy.

``evaluate`` is a pure function; any number of chromosomes may be
evaluated concurrently over shared workflow/platform/catalog values.

:func:`cost_tables` resolves the whole cost model of a problem into one
:class:`CostTables` object.  The decoder, the GA's deadline repair and
the deadline calibration's list schedule read it and the workflow only,
and so do :func:`min_cut`, the energy floor under every decode, and
:func:`move_energy`, what moving one task adds to a schedule's energy.

The decoder runs in two passes over those tables.  The order-free pass
(:func:`order_free_pass`) needs only placements and levels: it maps the
genes to tasks and takes the risk from the survivals of the tasks whose
output crosses an access point, priced by :func:`seeco.security.survival`.
The timing pass (:func:`timing_pass`) then walks the order to fill in start
times, durations and energy, finding each crossing edge as it charges its
transfer, and returns an :class:`EvaluationResult`,
with the per-task timeline or, without it, only the totals, which are
bit-identical either way.
:func:`make_evaluator` chains the two into a full decoder; the GA calls
them directly, so it can stop a child over the risk cap after the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .platform import MD_LOCATION, Platform, decode_location, downlink_rate, uplink_rate
from .security import REF_FREQUENCY_GHZ, RiskModel, SecurityCatalog, Service, overhead, survival
from .workflow import Workflow, is_valid_order


class Chromosome(NamedTuple):
    """(order, locations, conf_levels, integ_levels): four tuples of length n.

    Building one checks nothing; :func:`make_evaluator` checks the record
    where input from outside the program enters the decoder.
    """

    order: tuple[int, ...]
    locations: tuple[int, ...]
    conf_levels: tuple[int, ...]
    integ_levels: tuple[int, ...]


class ServiceMode(Enum):
    """How one security service participates in an evaluation."""

    ACTIVE = "active"            # level gene selects the algorithm
    STRONGEST = "strongest"      # always the level-1.0 algorithm: its cost, no risk
    UNPROTECTED = "unprotected"  # no time cost, crossing data fully exposed
    DISABLED = "disabled"        # service outside the threat model: no cost, no risk


@dataclass(frozen=True)
class EvalOptions:
    """The whole description of a strategy: one mode per service, one variant.

    Only an ``ACTIVE`` service reads its level genes, so the modes alone
    say which genes a search may change (:class:`seeco.ga.GeneConstraints`).
    ``decrypt_producer_core_ratio`` keeps the literal decryption formula
    whose cost scales with the producing VM's core count; switching it
    off drops that factor.  :func:`cost_tables` alone reads it, into
    ``CostTables.dec_ratio``.
    """

    conf_mode: ServiceMode = ServiceMode.ACTIVE
    integ_mode: ServiceMode = ServiceMode.ACTIVE
    decrypt_producer_core_ratio: bool = True

    @property
    def ignore_risk_cap(self) -> bool:
        """Judge feasibility against a risk cap of 1.0 (deadline only): an ``UNPROTECTED``
        service exposes every crossing payload, so any offloading would break the cap."""
        return ServiceMode.UNPROTECTED in (self.conf_mode, self.integ_mode)


DEFAULT_OPTIONS = EvalOptions()


class TaskTiming(NamedTuple):
    """Per-task slice of the decoded schedule (seconds / probability)."""

    ap: int
    vm: int
    start: float
    end: float
    exec: float
    transfer: float
    encrypt_cost: float
    decrypt_cost: float
    risk: float


class EvaluationResult(NamedTuple):
    """A decode's workflow totals, and its per-task timeline if the pass keeps one."""

    timings: tuple[TaskTiming, ...]  # indexed by task id; () without the timeline
    makespan_s: float
    energy_j: float
    risk: float
    violation: float
    feasible: bool


class Exposure(NamedTuple):
    """What the order-free pass finds, by task id; the timing pass finds crossing edges itself."""

    rows: list        # the CostTables.vms row of the VM each task runs on
    aps: list         # the access point each task runs on (0: the MD)
    pairs: list       # each task's level gene pair index into the pair tables
    task_risk: list   # each task's risk: nonzero only for crossing tasks
    risk: float


class CostTables(NamedTuple):
    """The cost model of one problem as lookup tables; built by :func:`cost_tables`."""

    # one row per VM, the MD's first, then AP by AP: (ap, vm index, flat id,
    # 1/capability, frequency*cores); flat ids count rows in that order
    vms: tuple[tuple[int, int, int, float, float], ...]
    by_byte: tuple  # the row each placement byte decodes to; by_byte[0] is None
    # rate[i][j]: MB/s from AP i to AP j (0: the MD), over the uplink of j,
    # the downlink of i or the backhaul; only crossings (i != j) read it
    rate: tuple[tuple[float, ...], ...]
    md_power: tuple[float, float, float]  # the MD's compute, uplink and downlink W
    # dec_ratio[x][y]: the factor on what VM y decrypts of VM x's output, by
    # flat id: cores_x / cores_y under the literal formula, 1.0 otherwise
    dec_ratio: tuple[tuple[float, ...], ...]
    # per (conf, integ) level gene pair, at index conf * stride + integ: the crypto seconds
    # per MB times frequency*cores, and a crossing payload's security.survival product
    stride: int
    pair_cost: tuple[float, ...]
    pair_surv: tuple[float, ...]
    # ladders[s][gene]: the deadline repair's moves from a level gene of service s
    # (0: conf, 1: integ), one per faster algorithm: (gain, -log survival spent,
    # per-MB cost saved, target id), best gain first; () for a service not ACTIVE
    ladders: tuple[tuple[tuple[tuple[float, float, float, int], ...], ...], ...]
    risk_cap: float  # the cap that feasibility is judged against


def cost_tables(w: Workflow, p: Platform, cat: SecurityCatalog, risk_model: RiskModel,
                options: EvalOptions = DEFAULT_OPTIONS) -> CostTables:
    """Resolve the cost model of one problem into lookup tables."""
    rows: dict[tuple[int, int], tuple[int, int, int, float, float]] = {}
    for ap in range(p.num_aps + 1):
        for k in range(1, p.vm_count(ap) + 1):
            vm = p.vm_at(ap, k)
            rows[ap, k] = (ap, k, len(rows), 1.0 / vm.capability_ghz,
                           vm.frequency_ghz * vm.cores)
    cores = [p.vm_at(ap, k).cores for ap, k in rows]
    rates = [[p.inter_ap_bandwidth_mb_s] * (p.num_aps + 1) for _ in range(p.num_aps + 1)]
    for j in range(1, p.num_aps + 1):
        rates[0][j] = uplink_rate(p.radio(j))
        rates[j][0] = downlink_rate(p.radio(j))
    literal = options.decrypt_producer_core_ratio

    # per level gene of a service, resolved by its mode: crypto seconds per
    # MB on one core at 1 GHz, a crossing payload's survival factor, and
    # the deadline repair's ladder
    def service_table(svc, mode, rate):
        algs = cat.algorithms(svc)
        count = len(algs) + 1
        if mode is ServiceMode.ACTIVE:
            def move(a, b):  # from algorithm a to the faster b
                saved = REF_FREQUENCY_GHZ * (1.0 / a.speed_mb_s - 1.0 / b.speed_mb_s)
                spent = rate * (a.level - b.level)
                return saved / spent if spent > 0.0 else math.inf, spent, saved, b.id
            ladders = [tuple(sorted((move(a, b) for b in algs if b.speed_mb_s > a.speed_mb_s),
                                    key=lambda m: -m[0])) for a in algs]
            return ([0.0] + [overhead(a, 1, 1.0, 1.0) for a in algs],
                    [1.0] + [survival(a.level, rate) for a in algs],
                    ((),) + tuple(ladders))
        if mode is ServiceMode.STRONGEST:
            strongest = cat.algorithm(svc, cat.strongest_id(svc))
            return [overhead(strongest, 1, 1.0, 1.0)] * count, [1.0] * count, ()
        if mode is ServiceMode.UNPROTECTED:
            return [0.0] * count, [survival(0.0, rate)] * count, ()
        return [0.0] * count, [1.0] * count, ()

    conf_cost, conf_surv, conf_ladders = service_table(
        Service.CONFIDENTIALITY, options.conf_mode, risk_model.lambda_conf)
    integ_cost, integ_surv, integ_ladders = service_table(
        Service.INTEGRITY, options.integ_mode, risk_model.lambda_integ)

    return CostTables(
        vms=tuple(rows.values()),
        by_byte=(None,) + tuple(rows[decode_location(byte, p)]
                                for byte in range(0x01, 0x100)),
        rate=tuple(map(tuple, rates)),
        md_power=(p.md.p_comp_w, p.md.p_ul_w, p.md.p_dl_w),
        dec_ratio=tuple(tuple(cx / cy if literal else 1.0 for cy in cores) for cx in cores),
        stride=len(integ_cost),
        pair_cost=tuple(cc + ic for cc in conf_cost for ic in integ_cost),
        pair_surv=tuple(cs * si for cs in conf_surv for si in integ_surv),
        ladders=(conf_ladders, integ_ladders),
        risk_cap=1.0 if options.ignore_risk_cap else w.risk_cap,
    )


# the relative slack between the min cut's floor and a decoded energy: both sum
# the same float terms in different orders, a few ulps apart, while two
# placements differ by a whole term, orders of magnitude more
FLOOR_RTOL = 1e-12


def _md_terms(w: Workflow, tables: CostTables) -> tuple[list, list]:
    """The MD's energy, by the timing pass's expressions, to run task ``t`` on the MD,
    ``compute[t]``, and to send its output from AP ``x`` to AP ``y``, ``legs[t][x][y]``."""
    p_comp, p_ul, p_dl = tables.md_power
    rate, inv_cap = tables.rate, tables.vms[0][3]
    compute = [p_comp * (t.workload_gcycles * inv_cap) for t in w.tasks]
    legs = [[[p_ul * (t.output_mb / rate[0][y]) if x == 0 != y else
              p_dl * (t.output_mb / rate[x][0]) if y == 0 != x else 0.0
              for y in range(len(rate))] for x in range(len(rate))] for t in w.tasks]
    return compute, legs


def min_cut(w: Workflow, tables: CostTables) -> tuple[float, frozenset[int]]:
    """The least device energy of any schedule of ``w``, and the MD side of its min cut.

    Without the deadline and the risk cap, only which tasks run on the MD
    matters: the MD pays each such task's compute, one upload per edge from
    an MD task to an edge task and one download per edge the other way, at
    the best uplink and downlink.  That is a min s-t cut (Stone 1977): the
    MD is the source, holding the entry and exit; a task's compute is its
    arc to the sink, and edge ``(u, v)`` is the arcs ``u -> v`` (upload of
    ``u``'s output) and ``v -> u`` (its download).  Security costs time, not
    energy, so no schedule under any strategy is below the floor, which is
    exact up to float rounding (:data:`FLOOR_RTOL`).  The MD side is what
    the residual graph reaches from the source after the flow.  Its arcs are
    :func:`move_energy`'s terms, each edge's cheapest legs; with no access point
    the floor is the all-MD energy, with every task on the MD side.
    """
    n = w.n
    compute, legs = _md_terms(w, tables)
    if len(tables.rate) == 1:
        return sum(compute), frozenset(range(n))
    source, sink = n, n + 1
    # residual capacities res[x][y]; in a DAG no other edge joins u and v, so
    # the upload and download arcs of (u, v) are each other's reverse
    res: list[dict[int, float]] = [{sink: e} for e in compute]
    res += [{0: math.inf, n - 1: math.inf}, {}]
    for u, v in w.edges:
        res[u][v] = min(legs[u][0][1:])
        res[v][u] = min(row[0] for row in legs[u][1:])

    # Edmonds-Karp: augment along shortest paths until the sink is cut off
    flow = 0.0
    while True:
        parent = {source: source}
        frontier = [source]
        while frontier and sink not in parent:
            nxt = []
            for x in frontier:
                for y, cap in res[x].items():
                    if cap > 0.0 and y not in parent:
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
        if sink not in parent:
            return flow, frozenset(x for x in parent if x < n)
        path = []
        y = sink
        while y != source:
            path.append((parent[y], y))
            y = parent[y]
        push = min(res[x][y] for x, y in path)
        for x, y in path:
            res[x][y] -= push
            res[y][x] = res[y].get(x, 0.0) + push
        flow += push


def move_energy(w: Workflow, tables: CostTables) -> Callable[..., tuple[float, float]]:
    """Build ``rise(aps, t, b, energy)``: what moving task ``t`` from AP ``aps[t]`` to AP
    ``b`` adds to the device energy of a schedule that runs each task ``u`` on AP
    ``aps[u]`` and decodes to ``energy``, and a bound on the decoded change's distance
    from it.  The rise reads ``t``'s MD compute and its edges' MD legs, each by the
    timing pass's expression, in O(deg t).  A decode sums ``k <= n + len(w.edges)`` such
    non-negative terms to within ``(k - 1) u`` of their exact sum (Higham; ``u =
    2**-53``), so a rise over the bound, ``4 k u (energy + the terms read)``, decodes to
    strictly more energy.
    """
    compute, legs = _md_terms(w, tables)
    ulps = 4 * (w.n + len(w.edges)) * 2.0 ** -53

    def rise(aps: dict, t: int, b: int, energy: float) -> tuple[float, float]:
        a = aps[t]
        old, new = compute[t] * (a == 0), compute[t] * (b == 0)
        for s in w.successors(t):
            old, new = old + legs[t][a][aps[s]], new + legs[t][b][aps[s]]
        for r in w.predecessors(t):
            old, new = old + legs[r][aps[r]][a], new + legs[r][aps[r]][b]
        return new - old, ulps * (energy + old + new)

    return rise


def order_free_pass(w: Workflow, tables: CostTables) -> Callable[[Chromosome], Exposure]:
    """Build the decoder's order-free pass over one problem's tables.

    A task's output is exposed when some successor sits on another access
    point; it then survives attack with its level pair's ``pair_surv``, made
    of :func:`seeco.security.survival` factors, and the workflow's risk is one
    minus the product of those, in chromosome order.  Placements and levels
    alone decide this, so the pass never reads the start-time recurrence.  It
    stops at a task's first successor on another AP, and records only its risk.
    """
    n = w.n
    succs = [tuple(w.successors(i)) for i in range(n)]
    by_byte, stride, pair_surv = tables.by_byte, tables.stride, tables.pair_surv

    def exposure(c: Chromosome) -> Exposure:
        order = c.order
        # genes live at order positions; re-key them by task id
        rows = [by_byte[1]] * n
        aps = [0] * n
        pairs = [0] * n
        for t, byte, cl, il in zip(order, c.locations, c.conf_levels, c.integ_levels):
            row = rows[t] = by_byte[byte]
            aps[t] = row[0]
            pairs[t] = cl * stride + il

        task_risk = [0.0] * n
        kept = 1.0
        for t in order:
            ap = aps[t]
            for s in succs[t]:
                if aps[s] != ap:
                    task_survival = pair_surv[pairs[t]]
                    kept *= task_survival
                    task_risk[t] = 1.0 - task_survival
                    break
        return Exposure(rows, aps, pairs, task_risk, 1.0 - kept)

    return exposure


def timing_pass(
    w: Workflow,
    tables: CostTables,
    timeline: bool = True,
) -> Callable[[Chromosome, Exposure], EvaluationResult]:
    """Build the decoder's timing pass over one problem's tables.

    The returned ``timed(c, exposure)`` walks ``c``'s order, where
    ``exposure`` is what :func:`order_free_pass` found for ``c``, and fills
    in start times, durations and device energy.  It reads the workflow and
    ``tables`` only: crypto seconds from the pair costs and the decryption
    core ratio, energy from the MD's powers.  It finds the crossing edges
    itself: a transfer per successor on another AP, one encryption if any.
    It returns an :class:`EvaluationResult`, whose ``timings`` are ``()``
    with ``timeline=False``.  One loop serves both, with the same floating-point
    operations in the same order, so the totals are bit-identical.
    """
    n = w.n
    preds = [tuple(w.predecessors(i)) for i in range(n)]
    succs = [tuple(w.successors(i)) for i in range(n)]
    out_mb = [t.output_mb for t in w.tasks]
    load = [t.workload_gcycles for t in w.tasks]
    deadline = w.deadline_s
    risk_cap = tables.risk_cap
    num_vms = len(tables.vms)
    rate = tables.rate
    md_p_comp, md_p_ul, md_p_dl = tables.md_power
    pair_cost = tables.pair_cost
    ratio = tables.dec_ratio

    def timed(c: Chromosome, exposure: Exposure) -> EvaluationResult:
        vm_of, ap_of, pair_of, task_risk, total_risk = exposure
        vm_avail = [0.0] * num_vms
        end = [0.0] * n
        rows: list = [None] * n if timeline else []
        energy = 0.0

        for t in c.order:
            ap, vm_k, vid, inv_cap, denom = vm_of[t]

            start = vm_avail[vid]
            dec = 0.0
            for r in preds[t]:
                if end[r] > start:
                    start = end[r]
                if ap_of[r] != ap:
                    dec += ratio[vm_of[r][2]][vid] * out_mb[r] * pair_cost[pair_of[r]] / denom

            ex = load[t] * inv_cap
            if ap == 0:
                energy += md_p_comp * ex

            tr = 0.0
            crosses = False
            beta = out_mb[t]
            rate_out = rate[ap]
            for s in succs[t]:
                s_ap = ap_of[s]
                if s_ap == ap:
                    continue
                crosses = True
                leg = beta / rate_out[s_ap]
                if ap == 0:
                    energy += md_p_ul * leg
                elif s_ap == 0:
                    energy += md_p_dl * leg
                tr += leg
            enc = beta * pair_cost[pair_of[t]] / denom if crosses else 0.0

            finish = start + dec + ex + tr + enc
            end[t] = finish
            vm_avail[vid] = finish
            if timeline:
                rows[t] = TaskTiming(ap=ap, vm=vm_k, start=start, end=finish, exec=ex,
                                     transfer=tr, encrypt_cost=enc, decrypt_cost=dec,
                                     risk=task_risk[t])

        makespan = max(end)
        viol = (makespan - deadline if makespan > deadline else 0.0) + \
               (total_risk - risk_cap if total_risk > risk_cap else 0.0)
        return EvaluationResult(tuple(rows), makespan, energy,
                                total_risk, viol, viol == 0.0)

    return timed


def make_evaluator(
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    options: EvalOptions = DEFAULT_OPTIONS,
    validate: bool = True,
) -> Callable[[Chromosome], EvaluationResult]:
    """Build a reusable full decoder with all lookups precomputed.

    Captures the workflow's deadline and risk cap at build time.  The
    cost model is resolved here once, by :func:`cost_tables`, and each
    call runs :func:`order_free_pass`, then :func:`timing_pass` with the
    timeline.  With ``validate`` each call first checks the chromosome:
    vectors of one length, a precedence-valid order of ``int`` task ids,
    endpoints pinned to the MD and every gene an ``int`` in range (a
    ``bool`` is not one).  A :class:`Chromosome` is not checked
    when built, so input from outside the program is checked here;
    ``validate=False`` skips it for callers whose operators keep those
    invariants by construction.
    """
    tables = cost_tables(w, p, cat, risk_model, options)
    exposure = order_free_pass(w, tables)
    timed = timing_pass(w, tables)
    n = w.n
    # (gene vector, what its genes are, their range) of the per-gene checks
    gene_ranges = (("locations", "placement gene", 0x01, 0xFF),
                   ("conf_levels", "confidentiality level gene", 1,
                    cat.level_count(Service.CONFIDENTIALITY)),
                   ("integ_levels", "integrity level gene", 1,
                    cat.level_count(Service.INTEGRITY)))

    def engine(c: Chromosome) -> EvaluationResult:
        if validate:
            if any(len(v) != len(c.order) for v in c):
                raise ValueError("all chromosome vectors must have the same length")
            for t in c.order:
                if type(t) is not int:
                    raise ValueError(f"order entry {t!r} is not an int task id")
            if not is_valid_order(w, c.order):
                raise ValueError("chromosome order violates precedence")
            if c.locations[0] != MD_LOCATION or c.locations[n - 1] != MD_LOCATION:
                raise ValueError(
                    "entry and exit placement genes must be pinned to the MD (0x01)")
            for vector, what, lo, hi in gene_ranges:
                for gene in getattr(c, vector):
                    if type(gene) is not int or not lo <= gene <= hi:
                        raise ValueError(f"{what} {gene!r} is not an int in {lo}..{hi}")
        return timed(c, exposure(c))

    return engine


def evaluate(
    c: Chromosome,
    w: Workflow,
    p: Platform,
    cat: SecurityCatalog,
    risk_model: RiskModel,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> EvaluationResult:
    """Decode a chromosome into per-task timings and workflow totals."""
    return make_evaluator(w, p, cat, risk_model, options)(c)


def deb_key(result: EvaluationResult) -> tuple[int, float]:
    """Feasibility-first sort key (ascending = best first).

    Feasible results come first, by energy; infeasible ones follow, by
    summed constraint violation.
    """
    if result.feasible:
        return (0, result.energy_j)
    return (1, result.violation)


def better(a: EvaluationResult, b: EvaluationResult) -> bool:
    """True when ``a`` ranks no worse than ``b`` under :func:`deb_key` (ties go to ``a``)."""
    return deb_key(a) <= deb_key(b)
