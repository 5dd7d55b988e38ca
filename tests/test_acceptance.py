"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE nn PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  The GA-based trend checks run on
offload-friendly instances (payloads 2..10 MB, workloads 5..15
giga-cycles): with the library-default payload range offloading rarely
pays at full security and the strategy curves collapse together, which
would make the trend assertions vacuous rather than wrong.  These
instances do not avoid degenerate deadlines, though: at workflow seed 7
the greedy witness (45.8, 134.3 and 254.1 s at 10, 30 and 50 tasks) is
slower than the all-MD schedule (39.7, 126.3 and 207.8 s), so every
sweep deadline equals the all-MD makespan and only weakened security
lets an offloading schedule meet it.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from seeco.baselines import Strategy, StrategyKind, solve
from seeco.cli import build_sweep_jobs, run_sweep, summarize_rows
from seeco.evaluator import (
    FLOOR_RTOL,
    Chromosome,
    cost_tables,
    evaluate,
    exec_time,
    make_evaluator,
    min_cut,
)
from seeco.ga import (
    GaParams,
    crossover_order,
    crossover_vectors,
    init_chromosome,
    init_order,
    mutate_order,
    mutate_vectors,
    run,
)
from seeco.platform import MD_LOCATION, default_platform
from seeco.security import (
    CryptoAlgorithm,
    RiskModel,
    SecurityCatalog,
    Service,
    default_catalog,
    level_from_cost,
    overhead,
)
from seeco.workflow import (
    GeneratorConfig,
    compute_deadline,
    is_valid_order,
    random_workflow,
    with_deadline,
)

from reference_evaluator import reference_evaluate

CAT = default_catalog()
RISK = RiskModel()
PLATFORM = default_platform()

# makes offloading genuinely attractive at full security; see module docstring
SWEEP_GEN_CFG = GeneratorConfig(data_range_mb=(2.0, 10.0),
                                workload_range_gcycles=(5.0, 15.0))
SWEEP_PARAMS = GaParams(pop_size=30, iterations=80)
SWEEP_SEEDS = list(range(1, 11))

PRINTED_COSTS_CONF = [8.50, 7.23, 4.54, 4.79, 2.69]


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {description}")


def test_01_table_levels_reproduced():
    with criterion(1, "catalog speeds reproduce all ten printed levels within 0.01"):
        for service in Service:
            algs = CAT.algorithms(service)
            slowest_cost = max(a.ref_cost_s for a in algs)
            for alg in algs:
                recomputed = level_from_cost(alg.ref_cost_s, slowest_cost)
                assert recomputed == pytest.approx(alg.level, abs=0.01), alg.name
        ripemd128 = CAT.algorithm(Service.INTEGRITY, 4)
        assert ripemd128.name == "RipeMD128"
        assert level_from_cost(ripemd128.ref_cost_s, 100 / 75.76) == pytest.approx(
            0.63, abs=0.01)


def test_02_reference_point_costs():
    with criterion(2, "reference-point overhead matches the cost columns within 0.5%"):
        for alg, printed in zip(CAT.confidentiality, PRINTED_COSTS_CONF):
            got = overhead(alg, 1, 2.2, 100.0)
            assert got == pytest.approx(printed, rel=0.005), alg.name
        for alg in CAT.integrity:
            got = overhead(alg, 1, 2.2, 100.0)
            assert got == pytest.approx(100.0 / alg.speed_mb_s, rel=0.005), alg.name


def test_03_scaling_laws():
    with criterion(3, "overhead scaling laws and intra-service ordering on 1000 tuples"):
        rng = random.Random(2024)
        all_algs = CAT.confidentiality + CAT.integrity
        conf_by_cost = ["IDEA", "DES", "Blowfish", "AES", "RC4"]
        integ_by_cost = ["TIGER", "RipeMD160", "SHA-1", "RipeMD128", "MD5"]
        for _ in range(1000):
            alg = all_algs[rng.randrange(len(all_algs))]
            data = rng.uniform(0.01, 2000.0)
            cores = rng.randint(1, 64)
            freq = rng.uniform(0.2, 6.0)
            k = rng.uniform(0.01, 50.0)
            base = overhead(alg, cores, freq, data)
            assert abs(overhead(alg, cores, freq, k * data) - k * base) <= 1e-9 * k * base
            assert abs(overhead(alg, 2 * cores, freq, data) - base / 2) <= 1e-9 * base
            assert abs(overhead(alg, cores, 2 * freq, data) - base / 2) <= 1e-9 * base
            for names, service in ((conf_by_cost, Service.CONFIDENTIALITY),
                                   (integ_by_cost, Service.INTEGRITY)):
                ladder = {a.name: overhead(a, cores, freq, data)
                          for a in CAT.algorithms(service)}
                costs = [ladder[n] for n in names]
                assert all(a > b for a, b in zip(costs, costs[1:]))


def _random_instance(rng, max_n=8, max_servers=3):
    n = rng.randint(2, max_n)
    w = random_workflow(n, rng.uniform(0.1, 0.8), seed=rng.randrange(10**6),
                        risk_cap=rng.uniform(0.1, 1.0))
    w = with_deadline(w, rng.uniform(5.0, 60.0))
    p = default_platform(rng.randint(0, max_servers))
    loc = [rng.randint(0x01, 0xFF) for _ in range(n)]
    loc[0] = loc[-1] = MD_LOCATION
    remaining, done, order = set(range(n)), set(), []
    while remaining:
        ready = sorted(t for t in remaining if w.predecessors(t) <= done)
        t = ready[rng.randrange(len(ready))]
        order.append(t)
        done.add(t)
        remaining.remove(t)
    c = Chromosome(tuple(order), tuple(loc),
                   tuple(rng.randint(1, 5) for _ in range(n)),
                   tuple(rng.randint(1, 5) for _ in range(n)))
    return w, p, c


def test_04_evaluator_matches_reference():
    with criterion(4, "evaluate matches the straight-line reference on 1000 instances"):
        rng = random.Random(4242)
        start = time.monotonic()
        for _ in range(1000):
            w, p, c = _random_instance(rng)
            res = evaluate(c, w, p, CAT, RISK)
            t, e, r, _ = reference_evaluate(c, w, p, CAT, RISK)
            assert math.isclose(res.makespan_s, t, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(res.energy_j, e, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(res.risk, r, rel_tol=1e-9, abs_tol=1e-12)
        assert time.monotonic() - start < 10.0


def test_05_operator_validity_10k():
    with criterion(5, "10k applications of each variation operator stay valid"):
        rng = random.Random(5005)
        pool = [random_workflow(rng.randint(4, 30), rng.uniform(0.1, 0.6), seed=i)
                for i in range(100)]

        def check(w, c):
            assert is_valid_order(w, list(c.order))
            assert c.locations[0] == MD_LOCATION and c.locations[-1] == MD_LOCATION
            assert all(0x01 <= b <= 0xFF for b in c.locations)
            assert all(1 <= v <= 5 for v in c.conf_levels + c.integ_levels)

        for i in range(10_000):
            w = pool[i % len(pool)]
            # order initialization
            order = init_order(w, rng)
            assert is_valid_order(w, order) and order[0] == 0
            # order crossover
            a, b = init_chromosome(w, rng), init_chromosome(w, rng)
            o1, o2 = crossover_order(a.order, b.order, rng)
            assert is_valid_order(w, o1) and is_valid_order(w, o2)
            # vector crossover
            c1, c2 = crossover_vectors(a, b, rng)
            check(w, c1), check(w, c2)
            # order mutation
            assert is_valid_order(w, mutate_order(a.order, w, rng))
            # vector mutation
            check(w, mutate_vectors(a, rng))


def _two_level_catalog() -> SecurityCatalog:
    return SecurityCatalog(
        confidentiality=(
            CryptoAlgorithm(1, Service.CONFIDENTIALITY, "IDEA", 1.0, 11.76),
            CryptoAlgorithm(2, Service.CONFIDENTIALITY, "RC4", 0.32, 37.17),
        ),
        integrity=(
            CryptoAlgorithm(1, Service.INTEGRITY, "TIGER", 1.0, 75.76),
            CryptoAlgorithm(2, Service.INTEGRITY, "MD5", 0.44, 172.41),
        ),
    )


def _all_topological_orders(w):
    orders = []

    def extend(order, done, remaining):
        if not remaining:
            orders.append(tuple(order))
            return
        for t in sorted(remaining):
            if w.predecessors(t) <= done:
                extend(order + [t], done | {t}, remaining - {t})

    extend([], set(), set(range(w.n)))
    return orders


def _enumerate_optimum(w, p, cat):
    """Best feasible energy over every (order, placement, levels) combo."""
    n = w.n
    best = math.inf
    score = make_evaluator(w, p, cat, RISK)
    interior_locs = [MD_LOCATION, 0x11]  # the MD and the single edge VM
    for order in _all_topological_orders(w):
        for locs in itertools.product(interior_locs, repeat=max(0, n - 2)):
            locations = (MD_LOCATION,) + locs + (MD_LOCATION,) if n >= 2 else (MD_LOCATION,)
            for conf in itertools.product((1, 2), repeat=n):
                for integ in itertools.product((1, 2), repeat=n):
                    c = Chromosome(order, locations, conf, integ)
                    res = score(c)
                    if res.feasible and res.energy_j < best:
                        best = res.energy_j
    return best


def test_06_brute_force_optimality():
    with criterion(6, "SEECO attains the exhaustive optimum on >= 8/10 desk instances"):
        start = time.monotonic()
        cat = _two_level_catalog()
        p = default_platform(1)
        rng = random.Random(66)
        attained = 0
        for i in range(10):
            n = 4 if i % 2 == 0 else 5
            cfg = GeneratorConfig(data_range_mb=(1.0, 6.0),
                                  workload_range_gcycles=(3.0, 10.0))
            w = random_workflow(n, 0.4, cfg, seed=100 + i,
                                risk_cap=rng.choice([0.2, 0.4, 0.6]))
            w = with_deadline(w, compute_deadline(w, p, cat))
            optimum = _enumerate_optimum(w, p, cat)
            assert optimum < math.inf  # witness schedule guarantees feasibility
            _, res = solve(Strategy(StrategyKind.SEECO), w, p, cat, RISK,
                           GaParams(pop_size=40, iterations=150, seed=i + 1))
            if res.feasible:
                # the GA may never beat exhaustive enumeration
                assert res.energy_j >= optimum - 1e-9
                if res.energy_j <= optimum + 1e-9:
                    attained += 1
        assert attained >= 8, f"optimum attained only {attained}/10 times"
        assert time.monotonic() - start < 30.0


def test_06_enumerated_optima_respect_the_energy_floor():
    """No schedule that test_06 enumerates, on its instances, undercuts the floor."""
    cat = _two_level_catalog()
    p = default_platform(1)
    rng = random.Random(66)
    for i in range(10):
        n = 4 if i % 2 == 0 else 5
        cfg = GeneratorConfig(data_range_mb=(1.0, 6.0), workload_range_gcycles=(3.0, 10.0))
        w = random_workflow(n, 0.4, cfg, seed=100 + i, risk_cap=rng.choice([0.2, 0.4, 0.6]))
        w = with_deadline(w, compute_deadline(w, p, cat))
        floor = min_cut(w, cost_tables(w, p, cat, RISK))[0]
        assert _enumerate_optimum(w, p, cat) >= floor * (1.0 - FLOOR_RTOL), i


def _offload_friendly(n, seed, risk_cap=0.5):
    w = random_workflow(n, 0.3, SWEEP_GEN_CFG, seed=seed, risk_cap=risk_cap)
    w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
    return w


def test_07_baseline_identities():
    with criterion(7, "baseline identities: max-level risk, local energy, min-level risk"):
        w = _offload_friendly(10, seed=5)
        _, res_max = solve(Strategy(StrategyKind.MAX_LEVEL), w, PLATFORM, CAT, RISK,
                           SWEEP_PARAMS)
        assert res_max.risk == 0.0

        _, res_local = solve(Strategy(StrategyKind.LOCAL), w, PLATFORM, CAT, RISK)
        closed_form = PLATFORM.md.p_comp_w * sum(
            exec_time(t.workload_gcycles, PLATFORM.md.vm) for t in w.tasks)
        assert res_local.energy_j == pytest.approx(closed_form, rel=1e-12)

        chromo, res_min = solve(Strategy(StrategyKind.MIN_LEVEL), w, PLATFORM, CAT,
                                RISK, SWEEP_PARAMS)
        crossings = sum(1 for row in res_min.timings if row.risk > 0)
        assert crossings >= 3
        assert res_min.risk >= 0.999


def _mean_energy_by(rows, key_strategy):
    return {row["value"]: row["mean_energy"] for row in rows
            if row["strategy"] == key_strategy}


def _assert_mostly_non_increasing(series, label):
    """Allow one inversion smaller than 2% of the series' range."""
    values = [series[k] for k in sorted(series)]
    span = max(values) - min(values)
    inversions = [(b - a) for a, b in zip(values, values[1:]) if b > a + 1e-12]
    assert len(inversions) <= 1, f"{label}: {len(inversions)} inversions"
    if inversions:
        assert inversions[0] < 0.02 * span + 1e-12, (
            f"{label}: inversion {inversions[0]} exceeds 2% of range {span}")


@pytest.mark.slow
def test_08_risk_cap_trends():
    with criterion(8, "risk-cap sweep: strategy ordering and non-increasing energy"):
        start = time.monotonic()
        strategies = ["local", "max", "min", "seeco"]
        seeco_sweep_mean = {}
        for n in (10, 30, 50):
            jobs = build_sweep_jobs(
                sweep="risk_cap",
                values=[round(0.1 * i, 1) for i in range(1, 11)],
                strategies=strategies, seeds=SWEEP_SEEDS,
                base_params=SWEEP_PARAMS, workflow=None, platform=None,
                risk_model=RISK, gen_cfg=SWEEP_GEN_CFG, density=0.3,
                workflow_seed=7, risk_cap=0.5, tasks=n)
            summary = summarize_rows(run_sweep(jobs))
            means = {s: _mean_energy_by(summary, s) for s in strategies}
            for cap in means["seeco"]:
                assert means["local"][cap] >= means["max"][cap] - 1e-9, (n, cap)
                assert means["max"][cap] >= means["seeco"][cap] - 1e-9, (n, cap)
                assert means["seeco"][cap] >= means["min"][cap] - 1e-9, (n, cap)
            _assert_mostly_non_increasing(means["seeco"], f"seeco energy vs cap (n={n})")
            seeco_sweep_mean[n] = sum(means["seeco"].values()) / len(means["seeco"])
        assert seeco_sweep_mean[10] < seeco_sweep_mean[30] < seeco_sweep_mean[50]
        assert time.monotonic() - start < 300.0


@pytest.mark.slow
def test_09_server_count_trend():
    with criterion(9, "server-count sweep: non-increasing energy, local parity at 0"):
        jobs = build_sweep_jobs(
            sweep="servers", values=list(range(0, 11)), strategies=["seeco"],
            seeds=SWEEP_SEEDS, base_params=SWEEP_PARAMS, workflow=None,
            platform=None, risk_model=RISK, gen_cfg=SWEEP_GEN_CFG, density=0.3,
            workflow_seed=7, risk_cap=0.5, tasks=30)
        rows = run_sweep(jobs)
        summary = summarize_rows(rows)
        seeco = _mean_energy_by(summary, "seeco")
        _assert_mostly_non_increasing(seeco, "seeco energy vs servers")

        w = _offload_friendly(30, seed=7)
        _, local = solve(Strategy(StrategyKind.LOCAL), w, default_platform(0), CAT, RISK)
        assert seeco[0] == pytest.approx(local.energy_j, rel=1e-12)


@pytest.mark.slow
def test_10_ga_parameter_sanity():
    with criterion(10, "bigger GA budgets never hurt: pop 40 <= pop 10, iters 150 <= 50"):
        w = _offload_friendly(20, seed=9)

        def mean_best(pop, iters, pc, pm):
            out = []
            for seed in SWEEP_SEEDS:
                params = GaParams(pop_size=pop, iterations=iters, p_c=pc, p_m=pm,
                                  seed=seed)
                out.append(solve(Strategy(StrategyKind.SEECO), w, PLATFORM, CAT,
                                 RISK, params)[1].energy_j)
            return sum(out) / len(out)

        # companions fixed per the parameter-study groups
        assert mean_best(40, 50, 0.2, 0.6) <= mean_best(10, 50, 0.2, 0.6) + 1e-9
        assert mean_best(30, 150, 0.2, 0.6) <= mean_best(30, 50, 0.2, 0.6) + 1e-9


def test_11_monotone_history():
    with criterion(11, "per-generation best never worsens across 100 random runs"):
        rng = random.Random(11)
        for i in range(100):
            w = random_workflow(rng.randint(5, 9), rng.uniform(0.2, 0.5),
                                SWEEP_GEN_CFG, seed=rng.randrange(10**6),
                                risk_cap=rng.uniform(0.2, 1.0))
            w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
            r = run(w, PLATFORM, CAT, RISK,
                    GaParams(pop_size=10, iterations=15, seed=i))
            keys = [(0, s.best_energy) if s.best_violation == 0.0
                    else (1, s.best_violation) for s in r.history]
            for earlier, later in zip(keys, keys[1:]):
                assert later <= earlier


@pytest.mark.slow
def test_12_performance_envelope():
    with criterion(12, "50-task full-budget run completes within 60 s single-threaded"):
        w = _offload_friendly(50, seed=3)
        start = time.monotonic()
        _, res = solve(Strategy(StrategyKind.SEECO), w, PLATFORM, CAT, RISK,
                       GaParams(pop_size=40, iterations=150, seed=1))
        elapsed = time.monotonic() - start
        assert res.makespan_s > 0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
