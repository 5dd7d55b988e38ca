"""Benchmark for seeco: solve, sweep and generate workloads, with traced spans.

Run from the repository root::

    python3 bench/run.py --workload solve_n50 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --compare .bench_out/A.json .bench_out/B.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped: set-up
time (median of several fresh-interpreter set-ups), seconds per operation
(median and tail), operations per second (sweep: jobs per second) and
peak resident memory of the process and its workers.  It runs the
workload's panel of operations in passes, at least ``min_passes`` of
them and more while the next pass still fits in ``--seconds``.  Each
operation is timed by its fastest pass: the passes repeat identical
work, and on a shared host the CPU's speed can drift by up to 2x within
seconds, so a slow spell that covers one pass does not pose as program
time.  The
time, median and tail of the first pass alone are kept as info fields.

``--trace 1`` gives the per-layer metrics.  It times the decoder and the
GA operators on fixed inputs (``probe.py``), then wraps seeco's public
functions (``tracing.py``) and runs the panel traced; the first few
operations also run untraced, each just before its traced twin, which
gives the tracing overhead and checks that tracing leaves the
fingerprints unchanged.  The sweep's traced operations use one worker so
that every job records its spans; one extra untraced two-worker sweep
gives the dispatch overhead.  Per-layer figures come from the spans
(``metrics.py``).

Every run checks each operation (see ``workloads.py``), writes
``.bench_out/<workload>-seed<seed>-trace<t>.json`` with the metrics,
info fields, rule breaches and per-operation fingerprints (a trace run
also writes its spans next to it), and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
operations that broke a hard rule; the known solver defects of ROADMAP
item 1 are reported as ``failed_frac`` and ``failed.<rule>`` instead.
``--compare`` diffs two result files by their fingerprint digest and
exits 1 when they differ.
"""

import time

T0 = time.perf_counter()  # set-up time counts imports, so start the clock first

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference_evaluator.py"
SETUP_SAMPLES = 11  # this process's set-up plus ten fresh interpreters


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used internally)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="diff two result files by fingerprint digest")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def load_program():
    """Import seeco from this checkout's src/ and the reference decoder."""
    if not (SRC / "seeco" / "__init__.py").is_file() or not REFERENCE.is_file():
        raise SystemExit(f"error: {SRC / 'seeco'} or {REFERENCE} is missing; "
                         "run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import seeco
    if Path(seeco.__file__).resolve().parent != (SRC / "seeco").resolve():
        raise SystemExit(f"error: imported seeco from {seeco.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("reference_evaluator", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_evaluate


class OpRecord(NamedTuple):
    seconds: float  # wall time of the operation alone, without its check
    check: object   # workloads.OpCheck


def run_ops(wl, count, tracer=None, first=0, repeat=False) -> list:
    """Closed loop over operations ``first`` .. ``first + count - 1``.

    A ``repeat`` pass takes only each operation's fingerprint, not its checks.
    """
    from workloads import OpCheck

    records = []
    for i in range(first, first + count):
        error = None
        t = time.perf_counter()
        if tracer:
            tracer.enabled = True
            span = tracer.open("bench.op")
        try:
            out = wl.op(i)
        except Exception as exc:  # an operation that raises is a failed operation
            error = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            if tracer:
                tracer.close(span)
                tracer.enabled = False
        dt = time.perf_counter() - t
        if error is None:
            try:
                check = OpCheck(wl.fingerprint(i, out)) if repeat else wl.check(i, out)
            except Exception as exc:
                error = "check: " + "".join(traceback.format_exception_only(exc)).strip()
        if error is not None:
            check = OpCheck({"error": error}, ["error"], detail=[error])
        records.append(OpRecord(dt, check))
    return records


def measure_setup(args) -> float:
    """Set-up seconds of one fresh interpreter, imports included."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out-dir", str(args.out_dir), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def quality(records, panel) -> dict:
    """Rule breaches, energy saved and the digest over the panel operations.

    ``hard_failures`` counts every operation of the run.
    """
    from workloads import HARD_RULES, RULES, sha

    checks = [r.check for r in panel]
    saved = [c.saved for c in checks if c.saved is not None]
    fingerprints = [c.fingerprint for c in checks]
    return {
        "failed_frac": sum(1 for c in checks if c.breaches) / len(checks),
        "energy_saved_frac": math.fsum(saved) / len(saved) if saved else 0.0,
        "breach_counts": {rule: sum(1 for c in checks if rule in c.breaches)
                          for rule in RULES},
        "breaches": [{"op": i, "rules": sorted(set(c.breaches)), "detail": c.detail}
                     for i, c in enumerate(checks) if c.breaches],
        "hard_failures": sum(1 for r in records
                             if any(b in HARD_RULES for b in r.check.breaches)),
        "fingerprints": fingerprints,
        "digest": sha(json.dumps(fingerprints, sort_keys=True)),
    }


def info_fields() -> dict:
    files = sorted(SRC.rglob("*.py"))
    src = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(args, wl, setups) -> tuple[dict, list, list, dict]:
    from metrics import tail

    start = time.perf_counter()
    passes = [run_ops(wl, count=wl.panel)]
    while len(passes) < wl.min_passes or (
            time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        passes.append(run_ops(wl, count=wl.panel, repeat=True))
    for later in passes[1:]:
        for first, again in zip(passes[0], later):
            if again.check.fingerprint != first.check.fingerprint:
                first.check.breaches.append("error")
                first.check.detail.append(f"repeat gave {again.check.fingerprint}, "
                                          f"first pass {first.check.fingerprint}")
    best = [min(p[i].seconds for p in passes) for i in range(wl.panel)]
    first_pass = [r.seconds for r in passes[0]]
    tail_pct, tail_s = tail(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(best),
        "op_s.tail": tail_s,
        "ops_per_s": len(best) * wl.jobs_per_op / math.fsum(best),
        "peak_rss_mb": peak_rss_mb(),
    }
    records = [r for p in passes for r in p]
    extra = {"setup_samples_s": setups, "passes": len(passes), "op_samples": len(best),
             "op_s.tail_percentile": tail_pct,
             "first_pass_s": math.fsum(first_pass),
             "first_pass_op_s.p50": statistics.median(first_pass),
             "first_pass_op_s.tail": tail(first_pass)[1],
             "op_seconds": [[r.seconds for r in p] for p in passes]}
    return metrics, records, passes[0], extra


def traced(wl, tracer) -> tuple[dict, list, list, dict]:
    from metrics import layer_metrics
    from probe import cover_layers
    from tracing import SpanIndex

    workers = wl.workers
    if workers:
        wl.workers = 1
    # pair each untraced operation with its traced twin, so drift in machine
    # load between the two passes does not pose as tracing cost
    untraced, traced_ops = [], []
    for i in range(wl.panel):
        if i < wl.trace_compare:
            tracer.uninstall()
            untraced += run_ops(wl, first=i, count=1)
            tracer.install()
        traced_ops += run_ops(wl, first=i, count=1, tracer=tracer)
    for u, t in zip(untraced, traced_ops):
        if u.check.fingerprint != t.check.fingerprint:
            t.check.breaches.append("trace_changed_result")
            t.check.detail.append(f"untraced {u.check.fingerprint} "
                                  f"traced {t.check.fingerprint}")
    overhead = statistics.median(t.seconds / u.seconds
                                 for u, t in zip(untraced, traced_ops)) - 1.0

    extra_ops = []
    if workers:
        wl.workers = workers
        tracer.uninstall()
        extra_ops = run_ops(wl, count=1)
        tracer.install()

    tracer.enabled = True
    cover_layers(tracer, wl.work_dir)
    tracer.enabled = False
    idx = SpanIndex(tracer.spans)
    dispatch = None
    if extra_ops:
        first_op = idx.select("bench.op", ("bench.op",))[0]
        job_s = math.fsum(idx.dur[i] for i in idx.select("cli.run_job", ("bench.op",))
                          if idx.root[i] == first_op)
        # job spans carry the tracing cost; scale them to the untraced pass
        job_s *= untraced[0].seconds / traced_ops[0].seconds
        dispatch = 1.0 - job_s / (wl.workers * extra_ops[0].seconds)
    layers, from_probe = layer_metrics(idx, dispatch)
    layers["trace.overhead_frac"] = overhead
    extra = {"per_layer_from_probe": from_probe, "spans": len(tracer.spans),
             "untraced_ops": len(untraced), "traced_ops": len(traced_ops)}
    return layers, untraced + traced_ops + extra_ops, traced_ops, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    reference_evaluate = load_program()

    import probe
    from metrics import UNITS
    from tracing import Tracer
    from workloads import RULES, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = args.out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir, reference_evaluate)
        if args.setup_only:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        if args.trace:
            probe_metrics = probe.decoder_and_operators()
            tracer = Tracer()
            tracer.install()
            try:
                tracer.enabled = True
                with tracer.span("bench.setup"):
                    wl.setup()
                tracer.enabled = False
                metrics, records, panel, extra = traced(wl, tracer)
            finally:
                tracer.uninstall()
            metrics.update(probe_metrics)
        else:
            wl.setup()
            setups = [time.perf_counter() - T0]
            setups += [measure_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics, records, panel, extra = end_to_end(args, wl, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    q = quality(records, panel[:wl.panel])
    if args.trace:
        metrics["failed_frac"] = q["failed_frac"]
        metrics["energy_saved_frac"] = q["energy_saved_frac"]
        for rule in RULES:
            metrics[f"failed.{rule}"] = q["breach_counts"][rule]
    stem = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_name(stem.name + "-spans.jsonl.gz"))
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "panel": wl.panel, **extra, **info_fields()}
    result = {
        "info": info,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "failed_frac": q["failed_frac"],
        "energy_saved_frac": q["energy_saved_frac"],
        "breach_counts": q["breach_counts"],
        "breaches": q["breaches"],
        "digest": q["digest"],
        "fingerprints": q["fingerprints"],
    }
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(result, indent=1) + "\n")

    for key, value in info.items():
        if key not in ("setup_samples_s", "op_seconds"):
            print(f"info {key}: {value}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {UNITS[name]}")
    print(f"quality failed_frac = {q['failed_frac']:.4g} frac "
          f"(panel of {wl.panel}; breaches per rule {q['breach_counts']})")
    print(f"quality energy_saved_frac = {q['energy_saved_frac']:.4g} frac")
    print(f"digest {q['digest']} (result file {path.relative_to(ROOT)})")
    print(json.dumps({
        "correct": q["hard_failures"] == 0,
        "attempted": len(records),
        "failed": q["hard_failures"],
        "metrics": result["metrics"],
    }))
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    for key in ("workload", "seed"):
        if a["info"][key] != b["info"][key]:
            print(f"{key} differs: {a['info'][key]} vs {b['info'][key]}")
    if a["digest"] == b["digest"]:
        print(f"identical: digest {a['digest']} over {len(a['fingerprints'])} operations")
        return 0
    print(f"digests differ: {a['digest']} vs {b['digest']}")
    for i, (fa, fb) in enumerate(zip(a["fingerprints"], b["fingerprints"])):
        if fa != fb:
            print(f"op {i}: {fa} vs {fb}")
    if len(a["fingerprints"]) != len(b["fingerprints"]):
        print(f"operation counts differ: {len(a['fingerprints'])} vs "
              f"{len(b['fingerprints'])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
