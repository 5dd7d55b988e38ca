import csv
import hashlib
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from seeco import cli, ga
from seeco.baselines import Strategy
from seeco.cli import (
    SOLVE_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    SWEEP_CSV_HEADER,
    SweepJob,
    build_sweep_jobs,
    main,
    parse_range,
    parse_seeds,
    run_job,
    run_sweep,
    summarize_rows,
)
from seeco.evaluator import FLOOR_RTOL, cost_tables, evaluate, min_cut
from seeco.ga import HISTORY_CSV_HEADER, GaParams
from seeco.platform import default_platform, save_platform
from seeco.security import RiskModel, default_catalog
from seeco.workflow import (
    GeneratorConfig,
    compute_deadline,
    greedy_witness,
    load_workflow,
    random_workflow,
    with_deadline,
)

ALL_STRATEGIES = ["local", "max", "min", "confi", "integ", "seeco"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_float_range(self):
        assert parse_range("0.1:1.0:0.1", integer=False) == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_tiny_step_stays_within_the_bound(self):
        # an absolute slack of 1e-9 let this run on to 2e-09
        assert parse_range("0:1e-9:4e-10", integer=False) == [0.0, 4e-10, 8e-10]

    def test_values_repeating_once_rounded_refused(self, tmp_path, capsys):
        # rounded to 10 decimals, 1e-12 steps repeat each value about 100 times
        with pytest.raises(ValueError, match="--range"):
            parse_range("0:1e-9:1e-12", integer=False)
        rc = main(["sweep", "--sweep", "risk_cap", "--range", "0:1e-9:1e-12", "--tasks", "5",
                   "--seeds", "1", "--out", str(tmp_path / "res")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --range '0:1e-9:1e-12'")
        assert not (tmp_path / "res").exists()

    def test_too_many_values_refused_before_any_is_built(self, tmp_path, capsys):
        # 1e10 values: building them first would never return
        with pytest.raises(ValueError, match="--range '0:1:1e-10': more than 10000 values"):
            parse_range("0:1:1e-10", integer=False)
        assert len(parse_range("1:10000:1", integer=True)) == 10000
        with pytest.raises(ValueError, match="more than 10000 values"):
            parse_range("0:10000:1", integer=True)
        rc = main(["sweep", "--sweep", "risk_cap", "--range", "0:1:1e-10", "--tasks", "5",
                   "--seeds", "1", "--out", str(tmp_path / "res")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --range '0:1:1e-10'")
        assert not (tmp_path / "res").exists()

    def test_int_range(self):
        assert parse_range("10:50:20", integer=True) == [10, 30, 50]
        assert parse_range("0:10:1", integer=True) == list(range(11))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_range("1:2", integer=False)
        with pytest.raises(ValueError):
            parse_range("5:1:1", integer=False)
        # non-finite parts would never reach the loop's end test
        for spec in ("nan:1:0.1", "0:inf:1", "0:1:nan", "-inf:0:1"):
            with pytest.raises(ValueError, match="finite"):
                parse_range(spec, integer=False)

    def test_int_range_refuses_fractions(self):
        values = parse_range("6.0:10:2.0", integer=True)
        assert values == [6, 8, 10] and all(type(v) is int for v in values)
        for spec in ("6.5:8:1", "6:7.5:1", "6:8:0.5"):
            with pytest.raises(ValueError, match="integer"):
                parse_range(spec, integer=True)

    def test_fractional_pop_range_fails(self, tmp_path, capsys):
        rc = main(["sweep", "--sweep", "pop", "--range", "6.5:7.5:0.5", "--tasks", "5",
                   "--seeds", "1", "--iters", "3", "--out", str(tmp_path / "res")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "6.5" in err
        assert not (tmp_path / "res").exists()

    def test_seeds(self):
        assert parse_seeds("1,2,3") == [1, 2, 3]


class TestGenerate:
    def test_writes_reloadable_file(self, tmp_path, capsys):
        out = tmp_path / "wf.json"
        assert main(["generate", "--tasks", "10", "--seed", "1", "--out", str(out)]) == 0
        w = load_workflow(out)
        assert w.n == 10
        assert w.deadline_s > 0
        assert "deadline" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--tasks", "8", "--seed", "3", "--out", str(a)])
        main(["generate", "--tasks", "8", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_rejects_single_task(self, tmp_path, capsys):
        rc = main(["generate", "--tasks", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--load-max", "inf"), ("--data-max", "1e999")])
    def test_rejects_non_finite_bound(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.json"
        assert main(["generate", "--tasks", "5", flag, value, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_zero_workload_range(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["generate", "--tasks", "5", "--load-min", "0", "--load-max", "0",
                "--out", str(out)]
        assert main(argv) == 2
        assert "error: the workload upper bound must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    @pytest.fixture()
    def workflow_file(self, tmp_path):
        out = tmp_path / "wf.json"
        main(["generate", "--tasks", "8", "--seed", "2", "--out", str(out)])
        return out

    def test_local_writes_summary_and_schedule(self, tmp_path, workflow_file):
        out_dir = tmp_path / "res"
        rc = main(["solve", "--workflow", str(workflow_file), "--strategy", "local",
                   "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv(out_dir / "summary.csv")
        assert list(rows[0]) == SOLVE_CSV_HEADER
        assert rows[0]["strategy"] == "local"
        schedule = read_csv(out_dir / "schedule.csv")
        assert len(schedule) == 8
        assert not (out_dir / "history.csv").exists()  # no GA for local

    def test_seeco_writes_history(self, tmp_path, workflow_file):
        out_dir = tmp_path / "res"
        rc = main(["solve", "--workflow", str(workflow_file), "--strategy", "seeco",
                   "--pop", "8", "--iters", "5", "--seed", "1", "--out", str(out_dir)])
        assert rc == 0
        history = read_csv(out_dir / "history.csv")
        assert len(history) == 5

    def test_history_is_header_only_when_the_witness_sits_at_the_floor(self, tmp_path):
        wf = tmp_path / "chain.json"
        main(["generate", "--tasks", "8", "--density", "0.6", "--data-min", "1",
              "--data-max", "3", "--load-min", "8", "--load-max", "15", "--seed", "1",
              "--out", str(wf)])
        w, p, cat = load_workflow(wf), default_platform(), default_catalog()
        witness = evaluate(greedy_witness(w, p, cat), w, p, cat, RiskModel())
        floor = min_cut(w, cost_tables(w, p, cat, RiskModel()))[0]
        assert witness.feasible and witness.energy_j <= floor * (1.0 + FLOOR_RTOL)
        out_dir = tmp_path / "res"
        assert main(["solve", "--workflow", str(wf), "--strategy", "seeco", "--pop", "8",
                     "--iters", "5", "--seed", "1", "--out", str(out_dir)]) == 0
        lines = (out_dir / "history.csv").read_text().splitlines()
        assert lines == [",".join(HISTORY_CSV_HEADER)]
        assert float(read_csv(out_dir / "summary.csv")[0]["energy"]) == witness.energy_j

    def test_reproducible(self, tmp_path, workflow_file):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        args = ["solve", "--workflow", str(workflow_file), "--strategy", "seeco",
                "--pop", "8", "--iters", "4", "--seed", "7"]
        main(args + ["--out", str(d1)])
        main(args + ["--out", str(d2)])
        assert (d1 / "summary.csv").read_text() == (d2 / "summary.csv").read_text()
        assert (d1 / "schedule.csv").read_text() == (d2 / "schedule.csv").read_text()

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = main(["solve", "--workflow", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_config_file_supplies_flags(self, tmp_path, workflow_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "workflow": str(workflow_file), "strategy": "local",
            "out": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_cli_flag_beats_config(self, tmp_path, workflow_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "workflow": str(workflow_file), "strategy": "seeco",
            "pop": 8, "iters": 4, "out": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfg), "--strategy", "local"]) == 0
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows[0]["strategy"] == "local"

    def test_config_booleans_accept_json_and_strings(self, tmp_path, workflow_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "workflow": str(workflow_file), "strategy": "local", "dump_schedule": False,
            "literal_eq11": "false", "out": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert not (tmp_path / "out" / "schedule.csv").exists()

    def test_unknown_config_key_fails(self, tmp_path, workflow_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workflow": str(workflow_file), "bogus": 1}))
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 2
        assert "not recognized" in capsys.readouterr().err


class TestSweep:
    def test_risk_cap_row_cardinality(self, tmp_path):
        out_dir = tmp_path / "res"
        rc = main(["sweep", "--sweep", "risk_cap", "--range", "0.2:0.6:0.2",
                   "--tasks", "6", "--strategies", "local,seeco", "--seeds", "1,2",
                   "--pop", "6", "--iters", "3", "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv(out_dir / "sweep.csv")
        assert list(rows[0]) == SWEEP_CSV_HEADER
        assert len(rows) == 3 * 2 * 2
        summary = read_csv(out_dir / "summary.csv")
        assert list(summary[0]) == SUMMARY_CSV_HEADER
        assert len(summary) == 3 * 2

    def test_zero_servers_matches_local_energy(self, tmp_path):
        out_dir = tmp_path / "res"
        rc = main(["sweep", "--sweep", "servers", "--range", "0:1:1",
                   "--tasks", "6", "--strategies", "local,seeco", "--seeds", "1",
                   "--pop", "8", "--iters", "4", "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv(out_dir / "sweep.csv")
        by_key = {(r["value"], r["strategy"]): float(r["energy"]) for r in rows}
        assert by_key[("0", "seeco")] == pytest.approx(by_key[("0", "local")], rel=1e-12)

    def test_ga_param_sweep_uses_group_baselines(self, tmp_path):
        out_dir = tmp_path / "res"
        rc = main(["sweep", "--sweep", "pop", "--range", "6:8:2", "--tasks", "5",
                   "--seeds", "1", "--iters", "3", "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv(out_dir / "sweep.csv")
        # iters explicitly 3; pc/pm fall back to the group's 0.2/0.6
        assert {r["pc"] for r in rows} == {"0.2"}
        assert {r["pm"] for r in rows} == {"0.6"}
        assert {r["pop"] for r in rows} == {"6", "8"}

    def test_config_beats_group_baseline(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pc": 0.7}))
        out_dir = tmp_path / "res"
        rc = main(["sweep", "--sweep", "pop", "--range", "6:6:2", "--tasks", "5",
                   "--seeds", "1", "--iters", "3", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv(out_dir / "sweep.csv")
        # pc from the config file, pm still the group's 0.6
        assert {(r["pc"], r["pm"], r["iters"]) for r in rows} == {("0.7", "0.6", "3")}

    def test_config_sweep_variable_gets_default_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": "servers", "tasks": 5, "strategies": "local",
                                   "seeds": "1"}))
        out_dir = tmp_path / "res"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        rows = read_csv(out_dir / "sweep.csv")
        assert [r["value"] for r in rows] == [str(v) for v in range(11)]  # 0:10:1

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--sweep", "risk_cap", "--range", "0.5:0.5:0.1",
                "--tasks", "5", "--strategies", "seeco", "--seeds", "1,2",
                "--pop", "6", "--iters", "3"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(args + ["--out", str(d1)])
        main(args + ["--out", str(d2)])
        assert (d1 / "sweep.csv").read_text() == (d2 / "sweep.csv").read_text()

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # small_jobs' workflow: SEECO's first probe runs the GA, so the rest go to the pool
        args = ["sweep", "--sweep", "risk_cap", "--range", "0.4:0.6:0.2",
                "--tasks", "7", "--workflow-seed", "5", "--data-min", "2", "--data-max", "10",
                "--load-min", "5", "--load-max", "15", "--strategies", "seeco",
                "--seeds", "1,2", "--pop", "6", "--iters", "3"]
        pooled = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, items):
                items = list(items)
                pooled.extend(items)
                return super().map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        d1, d2 = tmp_path / "seq", tmp_path / "par"
        monkeypatch.setenv("SEECO_THREADS", "1")
        assert main(args + ["--out", str(d1)]) == 0
        assert pooled == []
        monkeypatch.setenv("SEECO_THREADS", "2")
        assert main(args + ["--out", str(d2)]) == 0
        assert len(pooled) == 3  # seed 2's probe, then both seeds at cap 0.6
        assert (d1 / "sweep.csv").read_text() == (d2 / "sweep.csv").read_text()

    # sha256 of the files of a bench-shaped risk-cap sweep, recorded at f35a70e
    PINNED_RISK_CAP_SWEEP = {
        "sweep.csv": "775014ebe7d0ca418ba395daed81f8b7665a7bcf37b6c59060f43a12ec4d8e2e",
        "summary.csv": "f9d73afdf9a30f2089e91773bd950ae466ba7ed66ada1fb5c2b7868a32f0b502",
    }

    def test_bench_shaped_risk_cap_sweep_pinned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEECO_THREADS", "1")
        assert main(["sweep", "--sweep", "risk_cap", "--range", "0.1:1.0:0.1",
                     "--strategies", ",".join(ALL_STRATEGIES), "--tasks", "30",
                     "--pop", "30", "--iters", "80", "--data-min", "2", "--data-max", "10",
                     "--load-min", "5", "--load-max", "15", "--workflow-seed", "7",
                     "--seeds", "1", "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in self.PINNED_RISK_CAP_SWEEP} == self.PINNED_RISK_CAP_SWEEP

    @pytest.mark.parametrize("threads", ["0", "-3", "abc", "", "2.5"])
    def test_bad_thread_count_fails(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("SEECO_THREADS", threads)
        rc = main(["sweep", "--sweep", "risk_cap", "--range", "0.5:0.5:0.1", "--tasks", "5",
                   "--strategies", "local", "--seeds", "1", "--out", str(tmp_path / "res")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SEECO_THREADS must be a positive integer")
        assert not (tmp_path / "res").exists()

    def test_servers_sweep_rejects_platform_file(self, tmp_path, capsys):
        plat = tmp_path / "platform.json"
        save_platform(default_platform(2), plat)
        rc = main(["sweep", "--sweep", "servers", "--range", "0:1:1",
                   "--platform", str(plat), "--out", str(tmp_path / "res")])
        assert rc == 2
        assert "servers sweep" in capsys.readouterr().err

    def test_servers_sweep_past_15_aps_fails(self, tmp_path, capsys):
        rc = main(["sweep", "--sweep", "servers", "--range", "0:16:1",
                   "--out", str(tmp_path / "res")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at most 15" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", [1, 2], "must be a string"),
        ("sweep", ["risk_cap"], "must be a string"),
        ("range", 5, "must be a string"),
        ("pop", [6], "'pop'"),
        ("pop", 6.9, "'pop'"),
        ("iters", 2.7, "'iters'"),
        ("tasks", True, "'tasks'"),
        ("workflow_seed", False, "'workflow_seed'"),
        ("pc", True, "'pc'"),
        ("risk_cap", False, "'risk_cap'"),
    ])
    def test_config_value_of_wrong_json_type_fails(self, tmp_path, capsys, key, value,
                                                   message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["sweep", "--sweep", "risk_cap", "--config", str(cfg),
                   "--out", str(tmp_path / "res")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "res").exists()

    def test_unknown_sweep_variable(self, tmp_path, capsys):
        rc = main(["sweep", "--sweep", "voltage", "--out", str(tmp_path / "res")])
        assert rc == 2
        assert "unknown sweep" in capsys.readouterr().err


class TestSweepMachinery:
    def test_worker_count_clamped_to_jobs(self, monkeypatch):
        class InProcessPool:
            """Stands in for ProcessPoolExecutor without starting processes."""
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        # no GA run stops at the floor, so every GA probe runs the GA on
        monkeypatch.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))

        def jobs_of(strategy, seeds):
            return build_sweep_jobs(
                sweep="risk_cap", values=[0.5], strategies=[strategy], seeds=seeds,
                base_params=GaParams(pop_size=6, iterations=2), workflow=None, platform=None,
                risk_model=RiskModel(), gen_cfg=GeneratorConfig(), density=0.3,
                workflow_seed=1, risk_cap=0.5, tasks=5)

        jobs = jobs_of("local", [1, 2])
        assert run_sweep(jobs, max_workers=64) == run_sweep(jobs, max_workers=1)
        assert InProcessPool.sizes == []  # local probes are short
        jobs = jobs_of("seeco", [1, 2, 3])
        rows = run_sweep(jobs, max_workers=64)
        assert InProcessPool.sizes == [3]
        assert rows == run_sweep(jobs, max_workers=1)
        run_sweep(jobs[:1], max_workers=64)  # one job runs in-process, with no pool
        assert InProcessPool.sizes == [3]

    def test_lambda_sweep_sets_both_rates(self):
        jobs = build_sweep_jobs(
            sweep="lambda", values=[0.5, 1.0], strategies=["seeco"], seeds=[1],
            base_params=GaParams(pop_size=6, iterations=2),
            workflow=None, platform=None, risk_model=RiskModel(),
            gen_cfg=GeneratorConfig(), density=0.3, workflow_seed=1,
            risk_cap=0.5, tasks=5)
        assert jobs[0].risk_model.lambda_conf == 0.5
        assert jobs[0].risk_model.lambda_integ == 0.5
        assert jobs[1].risk_model.lambda_conf == 1.0

    def test_summarize_means(self):
        rows = [
            {"sweep": "x", "value": 1, "strategy": "s", "seed": 1, "energy": 2.0,
             "makespan": 1.0, "risk": 0.0, "violation": 0.0, "feasible": True},
            {"sweep": "x", "value": 1, "strategy": "s", "seed": 2, "energy": 4.0,
             "makespan": 3.0, "risk": 0.5, "violation": 0.1, "feasible": False},
        ]
        out = summarize_rows(rows)
        assert len(out) == 1
        assert out[0]["mean_energy"] == pytest.approx(3.0)
        assert out[0]["feasible_fraction"] == pytest.approx(0.5)


class InProcessPool:
    """Stands in for ProcessPoolExecutor without starting processes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


OFFLOAD_FRIENDLY = GeneratorConfig(data_range_mb=(2.0, 10.0),
                                   workload_range_gcycles=(5.0, 15.0))


def small_jobs(sweep, values, strategies=ALL_STRATEGIES, seeds=(1,), risk_cap=0.5,
               literal_eq11=True):
    """Jobs on a 7-task workflow whose polished witness reaches the energy floor
    under confi and integ, though not under SEECO; with ``literal_eq11`` false,
    under all three."""
    return build_sweep_jobs(
        sweep=sweep, values=values, strategies=strategies, seeds=list(seeds),
        base_params=GaParams(pop_size=6, iterations=3), workflow=None, platform=None,
        risk_model=RiskModel(), gen_cfg=OFFLOAD_FRIENDLY, density=0.3,
        workflow_seed=5, risk_cap=risk_cap, literal_eq11=literal_eq11, tasks=7)


def run_sweep_counting(monkeypatch, jobs, pool, full_runs=False):
    """``run_sweep``'s rows and the jobs it solved, on the sequential or the pooled path.

    With ``full_runs``, no GA run stops at an energy floor, so none ends at
    its polished witness.
    """
    solved = []

    def counting_run_job(job, memo=None):
        solved.append(job)
        return run_job(job, memo)

    with monkeypatch.context() as m:
        if full_runs:
            m.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
        expected = sorted((run_job(j)[0] for j in jobs),
                          key=lambda r: (r["value"], r["strategy"], r["seed"]))
        m.setattr(cli, "run_job", counting_run_job)
        if pool == "in_process_pool":
            m.setattr(cli, "ProcessPoolExecutor", InProcessPool)
            rows = run_sweep(jobs, max_workers=2)
        else:
            rows = run_sweep(jobs, max_workers=1)
    return rows, expected, solved


class TestSweepDeduplication:
    """``run_sweep`` solves each distinct problem once and changes no row."""

    # solves per seed where confi's and integ's runs end at the polished witness
    SHARED_SOLVES = {"risk_cap": 3 + 2 + 3,  # local, max, min, confi, integ once; SEECO per cap
                     "lambda": 2 + 2 + 2 * 2}  # local, max, confi, integ once; the rest per rate

    @pytest.mark.parametrize("pool", ["sequential", "in_process_pool"])
    @pytest.mark.parametrize("sweep, values, solves", [
        ("risk_cap", [0.1, 0.5, 1.0], 3 + 3 * 3),  # local, max, min once; the rest per cap
        ("lambda", [0.5, 1.5], 2 + 4 * 2),          # local, max once; the rest per rate
    ])
    def test_rows_equal_one_solve_per_job(self, monkeypatch, pool, sweep, values, solves):
        """``solves`` per seed when no run ends at its polish, fewer when some do."""
        jobs = small_jobs(sweep, values, seeds=(1, 2))
        for full_runs in (True, False):
            rows, expected, solved = run_sweep_counting(monkeypatch, jobs, pool, full_runs)
            assert rows == expected
            assert [list(r) for r in rows] == [list(r) for r in expected]  # same column order
            assert len(solved) == 2 * (solves if full_runs else self.SHARED_SOLVES[sweep])

    def test_risk_cap_sweep_of_six_strategies_shares_polished_rows(self, monkeypatch):
        jobs = small_jobs("risk_cap", [round(0.1 * i, 1) for i in range(1, 11)])
        assert len(jobs) == 60
        counts = {}
        for full_runs in (True, False):
            rows, expected, solved = run_sweep_counting(monkeypatch, jobs, "sequential",
                                                        full_runs)
            assert len(rows) == 60 and rows == expected
            counts[full_runs] = Counter(j.strategy.kind.value for j in solved)
        assert counts[True] == {"local": 1, "max": 1, "min": 1,
                                "confi": 10, "integ": 10, "seeco": 10}  # 33 solves
        assert counts[False] == {"local": 1, "max": 1, "min": 1,
                                 "confi": 1, "integ": 1, "seeco": 10}  # 15 solves

    @pytest.mark.parametrize("pool", ["sequential", "in_process_pool"])
    @pytest.mark.parametrize("literal_eq11", [True, False], ids=["literal", "core_free"])
    @pytest.mark.parametrize("sweep, values, risk_cap", [
        ("risk_cap", [0.0, 0.5, 1.0], 0.5),
        ("lambda", [0.5, 3.0], 0.0),
        ("lambda", [0.5, 3.0], 1.0),
    ])
    def test_shared_rows_equal_run_job_of_every_job(self, monkeypatch, pool, literal_eq11,
                                                    sweep, values, risk_cap):
        jobs = small_jobs(sweep, values, seeds=(1, 2), risk_cap=risk_cap,
                          literal_eq11=literal_eq11)
        rows, expected, solved = run_sweep_counting(monkeypatch, jobs, pool)
        assert rows == expected
        assert [list(r) for r in rows] == [list(r) for r in expected]  # same column order
        problems = {(cli.solve_key(j), j.workflow.risk_cap, j.risk_model) for j in jobs}
        assert len(solved) < len(problems)  # some rows are shared

    def test_lambda_sweep_solves_min_level_per_rate(self, monkeypatch):
        rates = [0.5, 1.5, 3.0]
        jobs = small_jobs("lambda", rates, strategies=["min"])
        rows, expected, solved = run_sweep_counting(monkeypatch, jobs, "sequential")
        assert rows == expected
        assert [j.risk_model.lambda_conf for j in solved] == rates
        assert len({r["risk"] for r in rows}) == len(rates)

    def test_pool_clamped_to_distinct_solves(self, monkeypatch):
        sizes, pooled = [], []

        class SizedPool(InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, items):
                items = list(items)
                pooled.extend(items)
                return map(fn, items)

        solved_here = []

        def counting_run_job(job, memo=None):
            solved_here.append(job)
            return run_job(job, memo)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SizedPool)
        monkeypatch.setattr(cli, "run_job", counting_run_job)
        jobs = small_jobs("risk_cap", [0.2, 0.6], strategies=["local", "confi", "integ"],
                          seeds=(1, 2))
        # every probe is short: local, or a run that ends at its polished witness
        assert len(run_sweep(jobs, max_workers=8)) == 12
        assert len(solved_here) == 6
        assert sizes == [] and pooled == []
        # the first long probe (confi, seed 1) runs here, the rest in the pool
        monkeypatch.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
        solved_here.clear()
        assert len(run_sweep(jobs, max_workers=8)) == 12
        assert sizes == [6]  # one probe per strategy and seed
        assert [(j.strategy.kind.value, j.seed) for j in solved_here[:3]] == [
            ("local", 1), ("local", 2), ("confi", 1)]
        assert [(j.strategy.kind.value, j.seed) for j in pooled[:3]] == [
            ("confi", 2), ("integ", 1), ("integ", 2)]
        assert len(pooled) == 3 + 4  # the probes left, then confi and integ at cap 0.6

    @pytest.mark.parametrize("literal_eq11", [True, False], ids=["literal", "core_free"])
    @pytest.mark.parametrize("full_runs", [False, True], ids=["polished", "full_runs"])
    @pytest.mark.parametrize("sweep, values", [("risk_cap", [0.1, 0.5, 1.0]),
                                               ("lambda", [0.5, 3.0])])
    def test_in_process_solves_share_floor_witness_and_polish(
            self, monkeypatch, sweep, values, full_runs, literal_eq11):
        jobs = small_jobs(sweep, values, literal_eq11=literal_eq11)
        if full_runs:
            monkeypatch.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
        expected = sorted((run_job(j)[0] for j in jobs),
                          key=lambda r: (r["value"], r["strategy"], r["seed"]))
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("min_cut", "greedy_witness", "descend"):
            monkeypatch.setattr(ga, name, counting(name, getattr(ga, name)))
        assert run_sweep(jobs, max_workers=1) == expected
        # one key each; max-level and SEECO share a polish, min-level's reads no rate
        assert calls == {"min_cut": 1, "greedy_witness": 1, "descend": 4}

    @pytest.mark.parametrize("pool", ["sequential", "in_process_pool"])
    def test_each_job_key_hashed_once(self, monkeypatch, pool):
        """A key tuple does not cache its hash, and it hashes the whole workflow."""
        key_of, made = cli.solve_key, []

        class CountedKey(tuple):
            hashes = 0

            def __hash__(self):
                self.hashes += 1
                return super().__hash__()

        def counted_key(job):
            made.append(CountedKey(key_of(job)))
            return made[-1]

        monkeypatch.setattr(cli, "solve_key", counted_key)
        jobs = small_jobs("risk_cap", [round(0.1 * i, 1) for i in range(1, 11)])
        rows, expected, _ = run_sweep_counting(monkeypatch, jobs, pool, full_runs=True)
        assert rows == expected
        assert len(made) == 60 and [key.hashes for key in made] == [1] * 60

    def test_workflow_calibrated_once(self, monkeypatch):
        calls = []

        def counting_deadline(*args, **kwargs):
            calls.append(args)
            return compute_deadline(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_deadline", counting_deadline)
        caps = [round(0.1 * i, 1) for i in range(1, 11)]
        params = GaParams(pop_size=6, iterations=3)
        jobs = build_sweep_jobs(
            sweep="risk_cap", values=caps, strategies=["max", "seeco"], seeds=[1, 2],
            base_params=params, workflow=None, platform=None, risk_model=RiskModel(),
            gen_cfg=GeneratorConfig(), density=0.3, workflow_seed=4, risk_cap=0.5, tasks=8)
        assert len(calls) == 1

        platform = default_platform()
        w = random_workflow(8, 0.3, GeneratorConfig(), seed=4, risk_cap=0.5)
        w = with_deadline(w, compute_deadline(w, platform, default_catalog()))
        assert jobs == [
            SweepJob(sweep="risk_cap", value=cap, strategy=Strategy.parse(strategy),
                     seed=seed, workflow=replace(w, risk_cap=cap), platform=platform,
                     risk_model=RiskModel(), params=replace(params, seed=seed),
                     catalog=default_catalog())
            for cap in caps for strategy in ["max", "seeco"] for seed in [1, 2]]
