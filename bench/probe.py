"""Fixed micro-measurements made inside every traced run.

``decoder_and_operators`` times the decoder per chromosome at n = 10, 50
and 200 (validation on and off) and each GA operator per child at n = 50,
on chromosomes drawn with fixed seeds, so the figures compare across
runs and workloads.  Call it before the tracer is installed.

``cover_layers`` makes one small call into every traced layer, under a
``bench.probe`` root span.  A workload whose own operations never reach
a layer (``generate`` never runs the GA) takes that layer's figures from
these spans.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import seeco
from seeco import cli
from seeco.ga import (
    GeneConstraints,
    crossover_order,
    crossover_vectors,
    init_chromosome,
    mutate_order,
    mutate_vectors,
)
from seeco.workflow import with_deadline

from workloads import OFFLOAD_FRIENDLY, STRATEGIES, quiet_main

REPEATS = 5
DECODE_BATCH = {10: 400, 50: 100, 200: 25}  # chromosomes per timed pass
OPERATOR_CALLS = 200


def _median_us_per_item(fn, items: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / items / 1e3)
    return statistics.median(samples)


def _workflow(n: int):
    cat, plat = seeco.default_catalog(), seeco.default_platform()
    w = seeco.random_workflow(n, 0.3, seeco.GeneratorConfig(), seed=n, risk_cap=0.5)
    return with_deadline(w, seeco.compute_deadline(w, plat, cat)), plat, cat


def decoder_and_operators() -> dict[str, float]:
    out: dict[str, float] = {}
    for n, batch in DECODE_BATCH.items():
        w, plat, cat = _workflow(n)
        rng = random.Random(n)
        cons = GeneConstraints.from_catalog(cat)
        chromosomes = [init_chromosome(w, rng, cons) for _ in range(batch)]
        for validate in (True, False):
            engine = seeco.evaluator.make_evaluator(w, plat, cat, seeco.RiskModel(),
                                                    validate=validate)

            def decode_all():
                for c in chromosomes:
                    engine(c)

            tag = "validate" if validate else "novalidate"
            out[f"probe.decode.n{n}.{tag}.us"] = _median_us_per_item(decode_all, batch)

    w, _, cat = _workflow(50)
    cons = GeneConstraints.from_catalog(cat)
    pool = [init_chromosome(w, random.Random(i), cons) for i in range(40)]
    rng = random.Random(50)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(OPERATOR_CALLS)]
    singles = [a for a, _ in pairs]
    cases = {
        "init_chromosome": (lambda: [init_chromosome(w, rng, cons) for _ in singles], 1),
        "crossover_order": (lambda: [crossover_order(a.order, b.order, rng)
                                     for a, b in pairs], 2),
        "crossover_vectors": (lambda: [crossover_vectors(a, b, rng) for a, b in pairs], 2),
        "mutate_order": (lambda: [mutate_order(a.order, w, rng) for a in singles], 1),
        "mutate_vectors": (lambda: [mutate_vectors(a, rng, cons) for a in singles], 1),
        "repair": (lambda: [cons.repair(a) for a in singles], 1),
    }
    for op, (fn, children) in cases.items():
        out[f"probe.ga.{op}.us_per_child"] = _median_us_per_item(
            fn, OPERATOR_CALLS * children)
    return out


def cover_layers(tracer, work_dir: Path) -> None:
    """Small generate, reload, and a one-cap six-strategy sweep at one worker."""
    path = work_dir / "probe-workflow.json"
    with tracer.span("bench.probe"):
        quiet_main(["generate", "--tasks", "30", "--seed", "1", "--out", str(path)])
        seeco.load_workflow(path)
        jobs = cli.build_sweep_jobs(
            sweep="risk_cap", values=[0.5], strategies=list(STRATEGIES), seeds=[1],
            base_params=seeco.GaParams(pop_size=10, iterations=10), workflow=None,
            platform=None, risk_model=seeco.RiskModel(), gen_cfg=OFFLOAD_FRIENDLY,
            density=0.3, workflow_seed=1, risk_cap=0.5, tasks=10)
        cli.run_sweep(jobs, max_workers=1)
    path.unlink()
