"""Workflow DAG model, random generator, deadline calibration, and files.

A workflow is a precedence DAG of tasks with a deadline and a risk cap.
Task 0 is the unique entry and task n-1 the unique exit; the scheduler
pins both to the mobile device, so validation enforces that shape up
front.  Workflow values are immutable after construction and safe to
share across threads; the generator is deterministic per seed.
:class:`Task` and :class:`Workflow` read their numbers as
:mod:`seeco.platform`'s constructors do, so :func:`load_workflow` only maps keys.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add, attrgetter
from pathlib import Path

from .platform import (MD_LOCATION, Platform, encode_location, exact_int, finite_fields,
                       finite_float, reading)
from .security import RiskModel, SecurityCatalog, Service


@dataclass(frozen=True)
class Task:
    """One task: input/output payload sizes in MB, workload in giga-cycles."""

    id: int
    input_mb: float
    output_mb: float
    workload_gcycles: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", exact_int(self.id, "Task.id"))
        input_mb, output_mb, workload = finite_fields(
            self, "input_mb", "output_mb", "workload_gcycles")
        if self.id < 0:
            raise ValueError(f"task id must be >= 0, got {self.id}")
        if not (input_mb >= 0.0 and output_mb >= 0.0):
            raise ValueError(f"task {self.id}: payload sizes must be >= 0")
        # zero workload is tolerated for virtual entry/exit tasks only
        if not workload >= 0.0:
            raise ValueError(f"task {self.id}: workload must be >= 0")


def _check_deadline(deadline_s: float) -> None:
    if not deadline_s > 0.0:  # NaN too; +inf is legal (random_workflow)
        raise ValueError(f"deadline must be positive, got {deadline_s}")


def _check_risk_cap(risk_cap: float) -> float:
    """``risk_cap`` as :func:`~seeco.platform.finite_float` reads it, if it lies in [0, 1]."""
    risk_cap = finite_float(risk_cap, "Workflow.risk_cap")
    if not 0.0 <= risk_cap <= 1.0:
        raise ValueError(f"risk cap must be in [0, 1], got {risk_cap}")
    return risk_cap


@dataclass(frozen=True)
class Workflow:
    """Tasks, precedence edges, deadline (s), and risk-probability cap.

    Frozen: evaluators capture the deadline and risk cap when they are
    built, so derive a changed workflow instead of assigning.
    :func:`with_deadline` and :func:`with_risk_cap` copy it, share its
    graph and check only the new value; :func:`dataclasses.replace`
    builds it anew and re-checks everything.
    The cycle check is Kahn's algorithm, smallest ready task first; the
    order it yields is kept as the canonical one (:func:`canonical_order`).
    """

    tasks: tuple[Task, ...]
    edges: tuple[tuple[int, int], ...]
    deadline_s: float
    risk_cap: float
    _preds: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _succs: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        edges = tuple(self.edges)
        if not set(map(type, chain.from_iterable(edges))) <= {int}:  # ``int`` reads 1.7 as 1
            edges = [(exact_int(u, "an edge"), exact_int(v, "an edge")) for u, v in edges]
        # sorting is linear on sorted input; dict.fromkeys then drops repeats in order
        object.__setattr__(self, "edges", tuple(dict.fromkeys(sorted(map(tuple, edges)))))
        n = len(self.tasks)
        if n < 1:
            raise ValueError("workflow needs at least one task")
        if [t.id for t in self.tasks] != list(range(n)):
            raise ValueError("task ids must be contiguous 0..n-1 in order")
        object.__setattr__(self, "risk_cap", _check_risk_cap(self.risk_cap))
        _check_deadline(self.deadline_s)

        preds: list[set[int]] = [set() for _ in range(n)]
        succs: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing task")
            if u == v:
                raise ValueError(f"self-loop on task {u}")
            preds[v].add(u)
            succs[u].add(v)

        # Kahn (1962): a task is ready once all its predecessors are; the
        # heap takes the smallest ready one first
        entries = [i for i in range(n) if not preds[i]]
        indegree = list(map(len, preds))
        ready, order = list(entries), []
        while ready:
            t = heapq.heappop(ready)
            order.append(t)
            for s in succs[t]:
                indegree[s] -= 1
                if not indegree[s]:
                    heapq.heappush(ready, s)
        if len(order) < n:
            # a task never ready has a predecessor never ready: walk back to a repeat
            t, path = next(i for i in range(n) if indegree[i]), []
            while t not in path:
                path.append(t)
                t = next(r for r in preds[t] if indegree[r])
            cycle = (path[path.index(t):] + [t])[::-1]
            raise ValueError(f"workflow edges contain a cycle: {cycle}")

        exits = [i for i in range(n) if not succs[i]]
        if n == 1:
            pass  # the single task is both entry and exit
        else:
            if entries != [0]:
                raise ValueError(f"expected task 0 as the unique entry, found {entries}")
            if exits != [n - 1]:
                raise ValueError(f"expected task {n - 1} as the unique exit, found {exits}")

        object.__setattr__(self, "_preds", tuple(map(frozenset, preds)))
        object.__setattr__(self, "_succs", tuple(map(frozenset, succs)))
        object.__setattr__(self, "_order", tuple(order))

    @property
    def n(self) -> int:
        return len(self.tasks)

    def predecessors(self, i: int) -> frozenset[int]:
        if not 0 <= i < self.n:
            raise ValueError(f"task index {i} outside 0..{self.n - 1}")
        return self._preds[i]

    def successors(self, i: int) -> frozenset[int]:
        if not 0 <= i < self.n:
            raise ValueError(f"task index {i} outside 0..{self.n - 1}")
        return self._succs[i]


def is_valid_order(w: Workflow, order: list[int] | tuple[int, ...]) -> bool:
    """True iff ``order`` is a topological order of the workflow.

    Raises if ``order`` is not a permutation of 0..n-1 at all.
    """
    if len(order) != w.n or set(order) != set(range(w.n)):
        raise ValueError("order is not a permutation of the task indices")
    position = [0] * w.n
    for pos, t in enumerate(order):
        position[t] = pos
    return all(position[u] < position[v] for u, v in w.edges)


def canonical_order(w: Workflow) -> list[int]:
    """Deterministic topological order: smallest ready index first.

    It is the order of the Kahn pass that :class:`Workflow` checks cycles
    with, stored at construction; each call returns a fresh list of it.
    """
    return list(w._order)


@dataclass(frozen=True)
class GeneratorConfig:
    """Uniform sampling ranges for random workflows."""

    data_range_mb: tuple[float, float] = (5.0, 50.0)
    workload_range_gcycles: tuple[float, float] = (1.0, 10.0)

    def __post_init__(self) -> None:
        for name in ("data_range_mb", "workload_range_gcycles"):
            bounds = tuple(getattr(self, name))
            if not (len(bounds) == 2 and 0.0 <= bounds[0] <= bounds[1] < math.inf):
                raise ValueError("generator ranges must be finite pairs with 0 <= lo <= hi")
            object.__setattr__(self, name, bounds)
        if self.workload_range_gcycles[1] == 0.0:  # zero-cycle tasks calibrate a 0 s deadline
            raise ValueError("the workload upper bound must be positive")


def random_workflow(
    n: int,
    density: float,
    gen_cfg: GeneratorConfig | None = None,
    seed: int = 0,
    risk_cap: float = 0.5,
) -> Workflow:
    """Random single-entry/single-exit DAG, reproducible per seed.

    Each forward pair (i, j), i < j, becomes an edge with probability
    ``density``; nodes left without predecessors are then wired to the
    entry and nodes without successors to the exit.  The deadline is
    +inf; callers normally fill it via :func:`compute_deadline`.
    """
    if n < 2:
        raise ValueError(f"random workflows need n >= 2, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    cfg = gen_cfg or GeneratorConfig()
    rng = random.Random(seed)

    tasks = tuple(
        Task(
            id=i,
            input_mb=rng.uniform(*cfg.data_range_mb),
            output_mb=rng.uniform(*cfg.data_range_mb),
            workload_gcycles=rng.uniform(*cfg.workload_range_gcycles),
        )
        for i in range(n)
    )

    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    has_pred = [False] * n
    has_succ = [False] * n
    for u, v in edges:
        has_pred[v] = True
        has_succ[u] = True
    for v in range(1, n):
        if not has_pred[v]:
            edges.append((0, v))
            has_succ[0] = True
    for u in range(n - 1):
        if not has_succ[u]:
            edges.append((u, n - 1))

    return Workflow(tasks=tasks, edges=tuple(edges),
                    deadline_s=math.inf, risk_cap=risk_cap)


def list_schedule(w: Workflow, tables, cat: SecurityCatalog, rows=None):
    """Max-security schedule from an insertion-free EFT list pass (Topcuoglu et al. 2002).

    Tasks are placed in canonical order, each on the row of ``rows[t]``
    (``tables.vms`` rows; by default every row, and only the MD row for the
    entry and the exit) minimizing its estimated finish time, the first
    such row on ties.  The estimate charges each crossing edge's
    encrypt+wire time on the consumer's ready time (the real model bills
    the producer's window; the proxy only steers placement).  Returns the
    chromosome with all level genes at full strength, which makes its risk
    exactly zero; ``tables`` price it at that level pair.
    """
    from .evaluator import Chromosome

    conf = cat.strongest_id(Service.CONFIDENTIALITY)
    integ = cat.strongest_id(Service.INTEGRITY)
    cost = tables.pair_cost[conf * tables.stride + integ]
    vms, rate = tables.vms, tables.rate
    rows = rows or [vms[:1]] + [vms] * (w.n - 2) + [vms[:1]]
    avail = [0.0] * len(vms)
    placed = [vms[0]] * w.n
    # what each placed task r offers its consumers: arrival[a][r], its
    # output's arrival time at AP a, and decrypt[y][r], the seconds VM y
    # spends decrypting it (0.0 on r's own AP, where nothing is encrypted)
    arrival = [[0.0] * w.n for _ in rate]
    decrypt = [[0.0] * w.n for _ in vms]
    order = w._order

    for t in order:
        preds = w.predecessors(t)
        load = w.tasks[t].workload_gcycles
        best, best_finish = None, math.inf
        for row in rows[t]:
            ap, _, vid, inv_cap, _ = row
            ready = max(map(arrival[ap].__getitem__, preds), default=0.0)
            dec = reduce(add, map(decrypt[vid].__getitem__, preds), 0.0)
            finish = max(avail[vid], ready) + dec + load * inv_cap
            if finish < best_finish:
                best, best_finish = row, finish
        placed[t] = best
        ap, _, vid, _, denom = best
        avail[vid] = best_finish
        out = w.tasks[t].output_mb
        sent = best_finish + out * cost / denom
        for a, at_a in enumerate(arrival):
            at_a[t] = best_finish if a == ap else sent + out / rate[ap][a]
        for y_ap, _, y, _, y_denom in vms:
            if y_ap != ap:
                decrypt[y][t] = tables.dec_ratio[vid][y] * out * cost / y_denom

    return Chromosome(
        order=order,
        locations=tuple(encode_location(placed[t][0], placed[t][1]) for t in order),
        conf_levels=(conf,) * w.n,
        integ_levels=(integ,) * w.n,
    )


def greedy_witness(w: Workflow, p: Platform, cat: SecurityCatalog,
                   decrypt_producer_core_ratio: bool = True):
    """:func:`list_schedule` with its default rows, over :func:`seeco.evaluator.cost_tables`
    under the default options but ``decrypt_producer_core_ratio``, the decryption core ratio."""
    from .evaluator import EvalOptions, cost_tables

    return list_schedule(w, cost_tables(w, p, cat, RiskModel(), EvalOptions(
        decrypt_producer_core_ratio=decrypt_producer_core_ratio)), cat)


def local_chromosome(w: Workflow, cat: SecurityCatalog):
    """Canonical order, everything on the MD, levels pinned (and moot)."""
    from .evaluator import Chromosome

    return Chromosome(
        order=w._order,
        locations=(MD_LOCATION,) * w.n,
        conf_levels=(cat.strongest_id(Service.CONFIDENTIALITY),) * w.n,
        integ_levels=(cat.strongest_id(Service.INTEGRITY),) * w.n,
    )


def compute_deadline(w: Workflow, p: Platform, cat: SecurityCatalog) -> float:
    """Deadline halfway between the best and worst makespan bounds.

    Both bounds are makespans of real schedules, decoded by the decoder's
    two passes over one set of cost tables.  The upper (serial) bound is
    the all-MD schedule of :func:`local_chromosome` (no transfers, no
    security); the lower bound is the greedy witness, the
    :func:`list_schedule` over the same tables, clamped to the serial
    bound.  Decoding both, rather than summing workloads in closed form,
    keeps the deadline bit-consistent with the decoder's own rounding:
    when the witness is no faster, the deadline equals the all-MD makespan
    exactly.  So a schedule meeting the midpoint deadline always exists,
    at zero risk, since full-strength security and the MD are risk-free.
    """
    from .evaluator import cost_tables, order_free_pass, timing_pass

    tables = cost_tables(w, p, cat, RiskModel())
    exposure = order_free_pass(w, tables)
    timed = timing_pass(w, tables, timeline=False)
    local, witness = local_chromosome(w, cat), list_schedule(w, tables, cat)
    serial = timed(local, exposure(local)).makespan_s
    greedy = timed(witness, exposure(witness)).makespan_s
    return (min(greedy, serial) + serial) / 2.0


def with_deadline(w: Workflow, deadline_s: float) -> Workflow:
    """A copy of ``w`` with another deadline; only the deadline is checked."""
    _check_deadline(deadline_s)
    out = copy.copy(w)
    object.__setattr__(out, "deadline_s", deadline_s)
    return out


def with_risk_cap(w: Workflow, risk_cap: float) -> Workflow:
    """A copy of ``w`` with another risk cap; only the cap is checked."""
    out = copy.copy(w)
    object.__setattr__(out, "risk_cap", _check_risk_cap(risk_cap))
    return out


def save_workflow(w: Workflow, path: str | Path) -> None:
    """Write ``w`` as compact JSON: one line, no spaces after separators.

    The compact layout keeps ``json`` on its C encoder, which ``indent``
    would swap for the pure-Python one.  :func:`load_workflow` reads any
    layout of the same keys.  A non-finite number, such as the +inf
    deadline of an uncalibrated :func:`random_workflow`, raises
    ``ValueError`` and writes no file, since the loader would refuse it.
    """
    payload = {
        "tasks": [
            {"id": t.id, "alpha_mb": t.input_mb, "beta_mb": t.output_mb,
             "workload_gcycles": t.workload_gcycles}
            for t in w.tasks
        ],
        "edges": w.edges,
        "deadline_s": w.deadline_s,
        "risk_cap": w.risk_cap,
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n")


def load_workflow(path: str | Path) -> Workflow:
    """Read a :func:`save_workflow` file of any layout; unknown keys are ignored.

    The deadline is read here: a file must not hold the +inf deadline that
    :class:`Workflow` accepts from an uncalibrated :func:`random_workflow`.
    """
    with reading(path, "workflow") as payload:
        tasks = sorted((Task(t["id"], t["alpha_mb"], t["beta_mb"], t["workload_gcycles"])
                        for t in payload["tasks"]), key=attrgetter("id"))
        return Workflow(tasks=tasks, edges=payload["edges"],
                        deadline_s=finite_float(payload["deadline_s"], "deadline_s"),
                        risk_cap=payload["risk_cap"])
