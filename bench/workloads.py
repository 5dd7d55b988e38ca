"""The three benchmark workloads: inputs, one timed operation, and its checks.

Each workload is a closed loop driven by one client (the benchmark
process).  Operation ``i`` gets inputs derived from the benchmark seed
and ``i`` alone, so the same seed replays the same operations.  A run
times the ``panel`` operations ``0 .. panel - 1`` in at least
``min_passes`` passes; failure counts, energy saved and the fingerprint
digest are taken over the first pass, so they do not depend on how many
passes fit in the measuring time, and every later pass must reproduce
its fingerprints.

``op(i)`` is the timed call through seeco's public entry points;
``check(i, out)`` runs afterwards, untimed and untraced, and returns an
:class:`OpCheck`.  Rule names (``HARD_RULES`` make ``correct`` false,
``KNOWN_DEFECT_RULES`` are the solver defects of ROADMAP item 1):

- ``error``: the operation raised or exited non-zero;
- ``reference_mismatch``: energy, makespan or risk differ from the
  independent ``tests/reference_evaluator.py`` by more than 1e-9
  relative;
- ``max_risk_nonzero``: a max-level result whose risk is not exactly 0;
- ``trace_changed_result``: the traced run's fingerprint differs from
  the untraced run's (set by the runner);
- ``infeasible_where_all_md_feasible``: an infeasible result on an
  instance whose all-MD schedule meets the deadline;
- ``all_md_misses_deadline``: a generated workflow whose all-MD schedule
  misses the workflow's own calibrated deadline.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import seeco
from seeco import cli
from seeco.baselines import local_chromosome
from seeco.workflow import with_deadline

HARD_RULES = ("error", "reference_mismatch", "max_risk_nonzero", "trace_changed_result")
KNOWN_DEFECT_RULES = ("infeasible_where_all_md_feasible", "all_md_misses_deadline")
RULES = HARD_RULES + KNOWN_DEFECT_RULES

# the acceptance suite's offload-friendly generator (2-10 MB, 5-15 Gcycles)
OFFLOAD_FRIENDLY = seeco.GeneratorConfig(data_range_mb=(2.0, 10.0),
                                         workload_range_gcycles=(5.0, 15.0))
STRATEGIES = ("local", "max", "min", "confi", "integ", "seeco")


@dataclass
class OpCheck:
    fingerprint: dict
    breaches: list[str] = field(default_factory=list)
    saved: float | None = None  # share of all-MD energy saved; infeasible -> 0
    detail: list[str] = field(default_factory=list)


def derive_seed(seed: int, tag: str, i: int) -> int:
    """Stable per-operation seed: the same on every platform and Python run."""
    digest = hashlib.sha256(f"{seed}/{tag}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def saved_share(all_md_energy: float, result) -> float:
    if not result.feasible:
        return 0.0
    return (all_md_energy - result.energy_j) / all_md_energy


def reference_breach(reference_evaluate, c, w, p, cat, rm, res) -> str | None:
    """Describe a disagreement with the reference decoder, or return None."""
    makespan, energy, risk, _ = reference_evaluate(c, w, p, cat, rm)
    for label, ours, ref in (("makespan", res.makespan_s, makespan),
                             ("energy", res.energy_j, energy),
                             ("risk", res.risk, risk)):
        # the absolute floor only matters for exact zeros (risk-free schedules)
        if not math.isclose(ours, ref, rel_tol=1e-9, abs_tol=1e-12):
            return f"{label} {ours!r} != reference {ref!r}"
    return None


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    panel = 1            # operations every run completes and fingerprints
    min_passes = 2       # passes over the panel an untraced run times, at the least
    trace_compare = 1    # operations run both untraced and traced in a trace run
    jobs_per_op = 1
    workers = None       # worker processes of a sweep; None: no process pool

    def __init__(self, seed: int, work_dir: Path, reference_evaluate) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference_evaluate = reference_evaluate
        self.cat = seeco.default_catalog()
        self.platform = seeco.default_platform()
        self.risk = seeco.RiskModel()

    def setup(self) -> None:
        """Program inputs that exist before the first timed operation."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> OpCheck:
        raise NotImplementedError

    def fingerprint(self, i: int, out) -> dict:
        """The fingerprint alone, for the repeat passes of a run."""
        return self.check(i, out).fingerprint


class SolveN50(Workload):
    """Sequential full-budget SEECO solves of 50-task offload-friendly workflows.

    A fixed pool of instances (generator seeds 1..POOL) is solved in turn
    with GA seeds drawn from the benchmark seed: solve time depends on
    the instance, so every run covers the same instances.
    """

    name = "solve_n50"
    panel = 4
    min_passes = 4  # the fastest of four solves of each instance, spread over the run
    trace_compare = 3
    POOL = 4

    def setup(self) -> None:
        local = seeco.Strategy(seeco.StrategyKind.LOCAL)
        self.instances = []
        for gen_seed in range(1, self.POOL + 1):
            w = seeco.random_workflow(50, 0.3, OFFLOAD_FRIENDLY, seed=gen_seed, risk_cap=0.5)
            w = with_deadline(w, seeco.compute_deadline(w, self.platform, self.cat))
            all_md = seeco.solve_detailed(local, w, self.platform, self.cat, self.risk).result
            self.instances.append((w, all_md))

    def op(self, i: int):
        w, _ = self.instances[i % self.POOL]
        params = seeco.GaParams(pop_size=40, iterations=150,
                                seed=derive_seed(self.seed, self.name, i))
        return seeco.solve_detailed(seeco.Strategy(seeco.StrategyKind.SEECO), w,
                                    self.platform, self.cat, self.risk, params)

    def check(self, i: int, outcome) -> OpCheck:
        w, all_md = self.instances[i % self.POOL]
        c, res = outcome.chromosome, outcome.result
        best = repr((c.order, c.locations, c.conf_levels, c.integ_levels, res.energy_j))
        chk = OpCheck({"evaluations": outcome.ga_run.evaluations, "best": sha(best)},
                      saved=saved_share(all_md.energy_j, res))
        mismatch = reference_breach(self.reference_evaluate, c, w, self.platform,
                                    self.cat, self.risk, res)
        if mismatch:
            chk.breaches.append("reference_mismatch")
            chk.detail.append(mismatch)
        if all_md.feasible and not res.feasible:
            chk.breaches.append("infeasible_where_all_md_feasible")
            chk.detail.append(f"violation {res.violation!r}")
        return chk


class SweepRiskCapN30(Workload):
    """``seeco sweep --sweep risk_cap`` over caps 0.1..1.0 with all six strategies.

    60 jobs per sweep (10 caps x 6 strategies x one GA seed) on a generated
    30-task workflow (fixed workflow seed), dispatched to ``workers``
    processes.  The GA seed comes from the benchmark seed.
    """

    name = "sweep_riskcap_n30"
    panel = 1  # a traced sweep runs on one worker, so keep the traced part short
    min_passes = 3
    trace_compare = 1
    jobs_per_op = 60
    WORKFLOW_SEED = 7
    workers = 2  # SEECO_THREADS of the untraced sweeps

    def _out(self, i: int) -> Path:
        return self.work_dir / f"sweep-{i}"

    def op(self, i: int):
        os.environ["SEECO_THREADS"] = str(self.workers)
        return quiet_main([
            "sweep", "--sweep", "risk_cap", "--range", "0.1:1.0:0.1",
            "--strategies", ",".join(STRATEGIES), "--tasks", "30",
            "--pop", "30", "--iters", "80",
            "--data-min", "2", "--data-max", "10", "--load-min", "5", "--load-max", "15",
            "--workflow-seed", str(self.WORKFLOW_SEED),
            "--seeds", str(derive_seed(self.seed, self.name, i)),
            "--out", str(self._out(i)),
        ])

    def check(self, i: int, rc: int) -> OpCheck:
        out = self._out(i)
        if rc != 0:
            return OpCheck({"rc": rc}, ["error"], detail=[f"exit code {rc}"])
        with open(out / "sweep.csv", newline="") as fh:
            lines = fh.read().splitlines()
        shutil.rmtree(out)
        rows = list(csv.DictReader(lines))
        chk = OpCheck({"rows": len(rows), "sweep_csv": sha("\n".join(sorted(lines[1:])))})
        if len(rows) != self.jobs_per_op:
            chk.breaches.append("error")
            chk.detail.append(f"{len(rows)} rows, expected {self.jobs_per_op}")
            return chk
        all_md = {r["value"]: r for r in rows if r["strategy"] == "local"}
        saved = []
        for r in rows:
            where = f"cap {r['value']} {r['strategy']}"
            feasible = r["feasible"] == "True"
            md = all_md[r["value"]]
            if md["feasible"] == "True" and not feasible:
                chk.breaches.append("infeasible_where_all_md_feasible")
                chk.detail.append(where)
            if r["strategy"] == "max" and float(r["risk"]) != 0.0:
                chk.breaches.append("max_risk_nonzero")
                chk.detail.append(f"{where} risk {r['risk']}")
            if r["strategy"] == "seeco":
                e_md = float(md["energy"])
                saved.append((e_md - float(r["energy"])) / e_md if feasible else 0.0)
        chk.saved = sum(saved) / len(saved)
        return chk


class GenerateN200(Workload):
    """Repeated ``seeco generate --tasks 200`` with the library-default generator.

    The timed operation writes the workflow and reads it back with
    ``load_workflow``.  The check evaluates the all-MD schedule and the
    calibration's greedy witness against the file's own deadline.
    """

    name = "generate_n200"
    panel = 12
    min_passes = 6
    trace_compare = 12

    def _path(self, i: int) -> Path:
        return self.work_dir / f"workflow-{i}.json"

    def op(self, i: int):
        path = self._path(i)
        rc = quiet_main(["generate", "--tasks", "200",
                         "--seed", str(derive_seed(self.seed, self.name, i)),
                         "--out", str(path)])
        return rc, (seeco.load_workflow(path) if rc == 0 else None)

    def fingerprint(self, i: int, out) -> dict:
        rc, _ = out
        if rc != 0:
            return {"rc": rc}
        path = self._path(i)
        fingerprint = {"workflow_json": sha(path.read_bytes())}
        path.unlink()
        return fingerprint

    def check(self, i: int, out) -> OpCheck:
        rc, w = out
        if rc != 0:
            return OpCheck({"rc": rc}, ["error"], detail=[f"exit code {rc}"])
        chk = OpCheck(self.fingerprint(i, out))
        p, cat, rm = self.platform, self.cat, self.risk
        md_c = local_chromosome(w, cat)
        wit_c = seeco.workflow.greedy_witness(w, p, cat)
        md = seeco.evaluate(md_c, w, p, cat, rm)
        wit = seeco.evaluate(wit_c, w, p, cat, rm)
        for label, c, res in (("all-MD", md_c, md), ("witness", wit_c, wit)):
            mismatch = reference_breach(self.reference_evaluate, c, w, p, cat, rm, res)
            if mismatch:
                chk.breaches.append("reference_mismatch")
                chk.detail.append(f"{label}: {mismatch}")
        if not md.feasible:
            chk.breaches.append("all_md_misses_deadline")
            chk.detail.append(f"makespan {md.makespan_s!r} > deadline {w.deadline_s!r}")
        chk.saved = saved_share(md.energy_j, wit)
        return chk


WORKLOADS = {cls.name: cls for cls in (SolveN50, SweepRiskCapN30, GenerateN200)}
