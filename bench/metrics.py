"""Metric names, units and formulas; the list here matches BENCHMARK.json.

Which per-layer metric should move which end-to-end metric, on which
workload (a prediction, to be checked against the trace):

- ``evaluator.decode.*`` (calls, µs per call, share of op time, share of
  repeated chromosomes), ``ga.<op>.*`` and ``ga.run.self_s`` ->
  ``op_s.p50`` on ``solve_n50``;
- ``evaluator.make_evaluator.ms``, ``ga.repair_rescores``,
  ``baselines.solve.<strategy>.s``, ``cli.run_job.s.*`` and
  ``cli.dispatch_overhead_frac`` -> ``ops_per_s`` on ``sweep_riskcap_n30``;
- ``workflow.*.ms`` and ``cli.main.self_ms`` -> ``op_s.p50`` on
  ``generate_n200`` (and ``setup_s`` on ``solve_n50``, whose instances
  are generated and calibrated in set-up);
- ``cli.build_sweep_jobs.ms`` -> ``op_s.p50`` on ``sweep_riskcap_n30``:
  the CLI generates and calibrates the sweep's workflow inside each sweep;
- ``probe.*``: the decoder and GA operators on fixed inputs, the same in
  every workload, to attribute a change seen in the rows above.

A workload whose operations never reach a layer takes that layer's
figures from the probe's ``bench.probe`` spans; the run's info field
``per_layer_from_probe`` names them.  ``failed_frac``, ``failed.<rule>``
and ``energy_saved_frac`` are taken over the panel; they are not gated,
because they are 0 on some workloads and, on ``solve_n50``, flip with
the GA seed while the known solver defects stand.
"""

from __future__ import annotations

import math
import statistics

from workloads import RULES, STRATEGIES

GA_OPS = ("init_chromosome", "crossover_order", "crossover_vectors",
          "mutate_order", "mutate_vectors", "repair")
WORKFLOW_FNS = ("random_workflow", "compute_deadline", "greedy_witness",
                "save_workflow", "load_workflow")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = (
    [("evaluator.decode.calls", "count", "lower"),
     ("evaluator.decode.us_per_call", "us", "lower"),
     ("evaluator.decode.self_frac", "frac", "lower"),
     ("evaluator.decode.dup_frac", "frac", "lower"),
     ("evaluator.make_evaluator.ms", "ms", "lower")]
    + [m for op in GA_OPS for m in ((f"ga.{op}.us", "us", "lower"),
                                    (f"ga.{op}.calls", "count", "lower"))]
    + [("ga.run.self_s", "s", "lower"),
       ("ga.repair_rescores", "count", "lower")]
    + [(f"workflow.{fn}.ms", "ms", "lower") for fn in WORKFLOW_FNS]
    + [(f"baselines.solve.{s}.s", "s", "lower") for s in STRATEGIES]
    + [("cli.build_sweep_jobs.ms", "ms", "lower"),
       ("cli.run_job.s.p50", "s", "lower"),
       ("cli.run_job.s.tail", "s", "lower"),
       ("cli.dispatch_overhead_frac", "frac", "lower"),
       ("cli.main.self_ms", "ms", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("failed_frac", "frac", "lower"),
       ("energy_saved_frac", "frac", "higher")]
    + [(f"failed.{rule}", "count", "lower") for rule in RULES]
    + [(f"probe.decode.n{n}.{v}.us", "us", "lower")
       for n in (10, 50, 200) for v in ("validate", "novalidate")]
    + [(f"probe.ga.{op}.us_per_child", "us", "lower") for op in GA_OPS]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

OPS = ("bench.op",)
SETUP_AND_OPS = ("bench.setup", "bench.op")
PROBE = ("bench.probe",)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above it.

    With fewer than 20 samples that percentile would fall below the
    median, so the median is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def layer_metrics(idx, dispatch_overhead: float | None) -> tuple[dict, list[str]]:
    """Per-layer figures from the workload's spans, else from the probe's.

    Returns the metrics and the names that came from the probe.
    ``dispatch_overhead`` is the workload's measured share (sweep only);
    without it the probe's one-worker ``run_sweep`` gives the figure.
    """
    out: dict[str, float] = {}
    from_probe: list[str] = []

    def pick(span_name: str, roots, *metric_names: str) -> list[int]:
        sel = idx.select(span_name, roots)
        if not sel:
            sel = idx.select(span_name, PROBE)
            from_probe.extend(metric_names)
        return sel

    dur, self_s = idx.dur, idx.self_s

    dec = pick("evaluator.decode", OPS, "evaluator.decode.calls",
               "evaluator.decode.us_per_call", "evaluator.decode.self_frac",
               "evaluator.decode.dup_frac")
    dec_roots = {idx.root[i] for i in dec}
    root_time = math.fsum(dur[r] for r in dec_roots)
    out["evaluator.decode.calls"] = len(dec)
    out["evaluator.decode.us_per_call"] = mean(dur[i] for i in dec) * 1e6
    out["evaluator.decode.self_frac"] = math.fsum(self_s[i] for i in dec) / root_time
    out["evaluator.decode.dup_frac"] = sum(1 for i in dec if idx.spans[i][4]) / len(dec)

    sel = pick("evaluator.make_evaluator", OPS, "evaluator.make_evaluator.ms")
    out["evaluator.make_evaluator.ms"] = mean(dur[i] for i in sel) * 1e3

    for op in GA_OPS:
        sel = pick(f"ga.{op}", OPS, f"ga.{op}.us", f"ga.{op}.calls")
        out[f"ga.{op}.us"] = mean(dur[i] for i in sel) * 1e6
        out[f"ga.{op}.calls"] = len(sel)

    runs = pick("ga.run", OPS, "ga.run.self_s", "ga.repair_rescores")
    out["ga.run.self_s"] = mean(self_s[i] for i in runs)
    out["ga.repair_rescores"] = mean(
        a["evaluations"] - (a["pop"] + a["iterations"] * (a["pop"] - a["elitism"]))
        for a in (idx.spans[i][4] for i in runs))

    for fn in WORKFLOW_FNS:
        sel = pick(f"workflow.{fn}", SETUP_AND_OPS, f"workflow.{fn}.ms")
        out[f"workflow.{fn}.ms"] = mean(dur[i] for i in sel) * 1e3

    for s in STRATEGIES:
        sel = pick(f"baselines.solve.{s}", OPS, f"baselines.solve.{s}.s")
        out[f"baselines.solve.{s}.s"] = mean(dur[i] for i in sel)

    sel = pick("cli.build_sweep_jobs", OPS, "cli.build_sweep_jobs.ms")
    out["cli.build_sweep_jobs.ms"] = mean(dur[i] for i in sel) * 1e3
    jobs = pick("cli.run_job", OPS, "cli.run_job.s.p50", "cli.run_job.s.tail")
    job_s = [dur[i] for i in jobs]
    out["cli.run_job.s.p50"] = statistics.median(job_s)
    out["cli.run_job.s.tail"] = tail(job_s)[1]
    if dispatch_overhead is None:
        sweeps = idx.select("cli.run_sweep", PROBE)
        probe_jobs = idx.select("cli.run_job", PROBE)
        dispatch_overhead = 1.0 - (math.fsum(dur[i] for i in probe_jobs)
                                   / math.fsum(dur[i] for i in sweeps))
        from_probe.append("cli.dispatch_overhead_frac")
    out["cli.dispatch_overhead_frac"] = dispatch_overhead

    sel = pick("cli.main", OPS, "cli.main.self_ms")
    out["cli.main.self_ms"] = mean(self_s[i] for i in sel) * 1e3
    return out, from_probe
