import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from seeco import ga
from seeco.baselines import Strategy, StrategyKind, search_setup
from seeco.evaluator import (
    FLOOR_RTOL,
    Chromosome,
    EvalOptions,
    ServiceMode,
    cost_tables,
    evaluate,
    make_evaluator,
    min_cut,
    move_energy,
    order_free_pass,
    timing_pass,
)
from seeco.ga import (
    GaParams,
    GaRun,
    GeneConstraints,
    crossover_order,
    crossover_vectors,
    init_chromosome,
    init_order,
    init_vectors,
    make_deadline_repair,
    mutate_order,
    mutate_vectors,
    placement_moves,
    run,
    write_history_csv,
)
from seeco.platform import MD_LOCATION, default_platform, encode_location
from seeco.security import RiskModel, Service, default_catalog
from seeco.workflow import (
    GeneratorConfig,
    Task,
    Workflow,
    compute_deadline,
    greedy_witness,
    is_valid_order,
    random_workflow,
    with_deadline,
)

CAT = default_catalog()
RISK = RiskModel()
PLATFORM = default_platform()
STRONGEST = (CAT.strongest_id(Service.CONFIDENTIALITY), CAT.strongest_id(Service.INTEGRITY))
GA_KINDS = [k for k in StrategyKind if k is not StrategyKind.LOCAL]


def frozen_services(cons):
    """(gene vector name, frozen level) for each service ``cons`` freezes."""
    return [(vec, fixed) for vec, fixed in (("conf_levels", cons.fixed_conf_level),
                                            ("integ_levels", cons.fixed_integ_level))
            if fixed is not None]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def chain(n=4):
    return Workflow(tasks=tuple(Task(i, 10.0, 10.0, 2.0) for i in range(n)),
                    edges=tuple((i, i + 1) for i in range(n - 1)),
                    deadline_s=100.0, risk_cap=0.5)


def diamond():
    return Workflow(tasks=tuple(Task(i, 10.0, 10.0, 2.0) for i in range(4)),
                    edges=((0, 1), (0, 2), (1, 3), (2, 3)),
                    deadline_s=100.0, risk_cap=0.5)


class TestInitOrder:
    def test_chain_has_unique_order(self):
        rng = random.Random(1)
        for _ in range(20):
            assert init_order(chain(5), rng) == [0, 1, 2, 3, 4]

    def test_diamond_branches_uniform(self):
        rng = random.Random(2)
        counts = Counter(tuple(init_order(diamond(), rng)) for _ in range(4000))
        assert set(counts) == {(0, 1, 2, 3), (0, 2, 1, 3)}
        assert abs(counts[(0, 1, 2, 3)] / 4000 - 0.5) < 0.05

    def test_always_valid(self):
        rng = random.Random(3)
        for seed in range(30):
            w = random_workflow(rng.randint(4, 20), rng.uniform(0.1, 0.6), seed=seed)
            assert is_valid_order(w, init_order(w, rng))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6),
           rng_seed=st.integers(0, 10**6))
    def test_matches_rescanning_version(self, n, density, seed, rng_seed):
        def rescanning_init_order(w, rng):
            # every step rescans the remaining tasks for the ready ones
            done, order, remaining = set(), [], set(range(w.n))
            while remaining:
                ready = sorted(t for t in remaining if w.predecessors(t) <= done)
                t = ready[0] if len(ready) == 1 else ready[rng.randrange(len(ready))]
                order.append(t)
                done.add(t)
                remaining.discard(t)
            return order

        w = random_workflow(n, density, seed=seed)
        fast, slow = random.Random(rng_seed), random.Random(rng_seed)
        for _ in range(3):
            assert init_order(w, fast) == rescanning_init_order(w, slow)
        assert fast.random() == slow.random()  # the same draws were consumed


class TestInitVectors:
    def test_endpoints_pinned(self):
        rng = random.Random(4)
        for _ in range(50):
            loc, _, _ = init_vectors(random_workflow(6, 0.4, seed=7), rng)
            assert loc[0] == MD_LOCATION and loc[-1] == MD_LOCATION

    def test_gene_ranges(self):
        rng = random.Random(5)
        w = random_workflow(10, 0.4, seed=8)
        for _ in range(200):
            loc, conf, integ = init_vectors(w, rng)
            assert all(0x01 <= b <= 0xFF for b in loc)
            assert all(1 <= v <= 5 for v in conf + integ)

    def test_interior_loc_coverage(self):
        rng = random.Random(6)
        w = random_workflow(3, 0.5, seed=9)
        seen = {init_vectors(w, rng)[0][1] for _ in range(10_000)}
        assert seen == set(range(0x01, 0x100))

    def test_fixed_levels(self):
        rng = random.Random(7)
        modes = EvalOptions(conf_mode=ServiceMode.STRONGEST, integ_mode=ServiceMode.ACTIVE)
        cons = GeneConstraints.from_catalog(CAT, modes)
        conf_seen, integ_seen = set(), set()
        for _ in range(50):
            _, conf, integ = init_vectors(random_workflow(8, 0.4, seed=3), rng, cons)
            conf_seen.update(conf)
            integ_seen.update(integ)
        assert conf_seen == {STRONGEST[0]}
        assert integ_seen == set(range(1, 6))  # the active service's gene stays free


class TestCrossoverOrder:
    def test_identical_parents_unchanged(self):
        rng = random.Random(8)
        o = (0, 1, 2, 3, 4)
        c1, c2 = crossover_order(o, o, rng)
        assert c1 == list(o) and c2 == list(o)

    def test_hand_traced_example(self):
        o1, o2 = [0, 1, 2, 3, 4, 5], [0, 2, 1, 4, 3, 5]
        # force the cut position to 1
        class FixedCut(random.Random):
            def randrange(self, *a, **k):
                return 1
        c1, c2 = crossover_order(o1, o2, FixedCut())
        assert c1 == [0, 1, 2, 4, 3, 5]
        assert c2 == [0, 2, 1, 3, 4, 5]

    def test_children_always_valid(self):
        rng = random.Random(9)
        for seed in range(40):
            w = random_workflow(rng.randint(4, 25), rng.uniform(0.1, 0.6), seed=seed)
            o1, o2 = init_order(w, rng), init_order(w, rng)
            c1, c2 = crossover_order(o1, o2, rng)
            assert is_valid_order(w, c1) and is_valid_order(w, c2)


class TestCrossoverVectors:
    @staticmethod
    def chromo(order, loc, conf, integ):
        return Chromosome(tuple(order), tuple(loc), tuple(conf), tuple(integ))

    def test_identical_parents_unchanged(self):
        rng = random.Random(10)
        a = self.chromo(range(4), [1, 20, 30, 1], [1, 2, 3, 4], [5, 4, 3, 2])
        c1, c2 = crossover_vectors(a, a, rng)
        assert c1 == a and c2 == a

    def test_single_cut_pattern(self):
        class FixedCut(random.Random):
            def randrange(self, *a, **k):
                return 1
        a = self.chromo(range(4), [1, 0xB, 0xC, 1], [1, 1, 1, 1], [2, 2, 2, 2])
        b = self.chromo(range(4), [1, 0xB2, 0xC2, 1], [3, 3, 3, 3], [4, 4, 4, 4])
        c1, c2 = crossover_vectors(a, b, FixedCut())
        assert list(c1.locations) == [1, 0xB, 0xC2, 1]
        assert list(c1.conf_levels) == [1, 1, 3, 3]
        assert list(c2.integ_levels) == [4, 4, 2, 2]

    def test_children_stay_in_parent_alphabet(self):
        rng = random.Random(11)
        w = random_workflow(9, 0.4, seed=2)
        for _ in range(100):
            a = init_chromosome(w, rng)
            b = init_chromosome(w, rng)
            for child in crossover_vectors(a, b, rng):
                assert child.locations[0] == MD_LOCATION
                assert child.locations[-1] == MD_LOCATION
                for i in range(w.n):
                    assert child.locations[i] in (a.locations[i], b.locations[i], MD_LOCATION)
                    assert child.conf_levels[i] in (a.conf_levels[i], b.conf_levels[i])


class TestMutateOrder:
    def test_chain_is_identity(self):
        rng = random.Random(12)
        for _ in range(50):
            assert mutate_order([0, 1, 2, 3], chain(4), rng) == [0, 1, 2, 3]

    def test_diamond_forced_swap(self):
        rng = random.Random(13)
        out = mutate_order([0, 1, 2, 3], diamond(), rng)
        assert out in ([0, 2, 1, 3], [0, 1, 2, 3])
        # any mutation of position 1 or 2 can only produce the other interleaving
        seen = {tuple(mutate_order([0, 1, 2, 3], diamond(), rng)) for _ in range(50)}
        assert seen == {(0, 2, 1, 3)}

    def test_always_valid(self):
        rng = random.Random(14)
        for seed in range(40):
            w = random_workflow(rng.randint(4, 25), rng.uniform(0.1, 0.6), seed=seed)
            order = init_order(w, rng)
            assert is_valid_order(w, mutate_order(order, w, rng))

    def test_tiny_order_is_identity(self):
        assert mutate_order([0, 1], chain(2), random.Random(0)) == [0, 1]


class TestMutateVectors:
    def test_endpoints_never_touched(self):
        rng = random.Random(15)
        w = random_workflow(6, 0.4, seed=4)
        c = init_chromosome(w, rng)
        for _ in range(200):
            m = mutate_vectors(c, rng)
            assert m.locations[0] == MD_LOCATION and m.locations[-1] == MD_LOCATION
            assert m.order == c.order

    def test_new_genes_in_range(self):
        rng = random.Random(16)
        w = random_workflow(6, 0.4, seed=4)
        c = init_chromosome(w, rng)
        for _ in range(200):
            m = mutate_vectors(c, rng)
            assert all(0x01 <= b <= 0xFF for b in m.locations)
            assert all(1 <= v <= 5 for v in m.conf_levels + m.integ_levels)

    def test_level_draw_uniform_chi_square(self):
        rng = random.Random(17)
        w = random_workflow(3, 0.5, seed=4)
        c = init_chromosome(w, rng)
        counts = Counter(mutate_vectors(c, rng).conf_levels[1] for _ in range(10_000))
        expected = 10_000 / 5
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(1, 6))
        assert chi2 < 9.488  # 5% critical value, 4 degrees of freedom


class TestRun:
    def test_deterministic(self):
        w = random_workflow(8, 0.4, seed=21)
        w = with_deadline(w, 30.0)
        params = GaParams(pop_size=10, iterations=8, seed=5)
        r1 = run(w, PLATFORM, CAT, RISK, params)
        r2 = run(w, PLATFORM, CAT, RISK, params)
        assert r1.best_chromosome == r2.best_chromosome
        assert r1.best_result == r2.best_result
        assert r1.history == r2.history

    def test_history_shape_minimal(self, monkeypatch):
        # the polished witness sits at the floor here; without a floor the GA runs
        monkeypatch.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
        w = random_workflow(4, 0.4, seed=22)
        w = with_deadline(w, 50.0)
        r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=2, iterations=1, seed=1))
        assert len(r.history) == 1
        assert isinstance(r, GaRun)

    def test_monotone_best_with_elitism(self):
        w = random_workflow(10, 0.3, seed=23)
        w = with_deadline(w, 40.0)
        r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=12, iterations=25, seed=3))
        keys = [(0, s.best_energy) if s.best_violation == 0 else (1, s.best_violation)
                for s in r.history]
        for earlier, later in zip(keys, keys[1:]):
            assert later <= earlier

    def test_every_generation_satisfies_invariants(self, monkeypatch):
        # run calls no gene repair, so its operators alone must keep the
        # endpoints pinned and every frozen gene at the strongest id
        w = random_workflow(9, 0.35, seed=24)
        w = with_deadline(w, 25.0)
        seen: list[Chromosome] = []

        def spy_timing_pass(*args, **kwargs):
            timed = timing_pass(*args, **kwargs)

            def spy(c, exposure):
                seen.append(c)
                evaluate(c, w, PLATFORM, CAT, RISK)  # validates, raising on a bad gene
                return timed(c, exposure)
            return spy

        monkeypatch.setattr(ga, "timing_pass", spy_timing_pass)
        for kind in GA_KINDS:
            seen.clear()
            options = search_setup(Strategy(kind))
            r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=8, iterations=10, seed=2),
                    options=options)
            # initial pop + per-gen fills minus elite, plus the repairs' rescores
            assert r.evaluations == 8 + 8 * 10 - 10 + r.risk_repairs + r.deadline_repairs
            # the polish decodes with the same timing pass, and so does the winner's decode
            assert len(seen) == r.evaluations - r.cache_hits - r.screened + r.polish_decodes + 1
            frozen = frozen_services(GeneConstraints.from_catalog(CAT, options))
            for c in seen:
                assert is_valid_order(w, list(c.order))
                assert c.locations[0] == MD_LOCATION and c.locations[-1] == MD_LOCATION
                assert all(0x01 <= b <= 0xFF for b in c.locations)
                assert all(1 <= v <= 5 for v in c.conf_levels + c.integ_levels)
                for vec, fixed in frozen:
                    assert set(getattr(c, vec)) == {fixed}, kind

    def test_fixed_level_constraints_respected(self):
        w = random_workflow(7, 0.4, seed=25)
        w = with_deadline(w, 30.0)
        for kind in GA_KINDS:
            options = search_setup(Strategy(kind))
            r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=8, iterations=6, seed=4),
                    options=options)
            for vec, fixed in frozen_services(GeneConstraints.from_catalog(CAT, options)):
                assert set(getattr(r.best_chromosome, vec)) == {fixed}, kind

    def test_best_never_reported_infeasible_when_feasible_seen(self):
        w = random_workflow(6, 0.4, seed=26)
        w = with_deadline(w, 1000.0)  # all-MD schedules are trivially feasible
        r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=10, iterations=10, seed=6))
        assert r.best_result.feasible

    def test_history_csv(self, tmp_path):
        w = random_workflow(5, 0.4, seed=27)
        w = with_deadline(w, 30.0)
        r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=6, iterations=3, seed=7))
        path = tmp_path / "history.csv"
        write_history_csv(r, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "generation,best_energy,best_violation,feasible_count"
        assert len(lines) == 4


class TestDeadlineRepair:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 10**6),
           kind=st.sampled_from(list(StrategyKind)), servers=st.integers(1, 3),
           deadline=st.floats(1.0, 150.0), risk_cap=st.floats(0.0, 1.0),
           gene_seed=st.integers(0, 10**6))
    def test_invariants(self, n, seed, kind, servers, deadline, risk_cap, gene_seed):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(n, 0.4, cfg, seed=seed, risk_cap=risk_cap)
        w = with_deadline(w, deadline)
        p = default_platform(servers)
        options = search_setup(Strategy(kind))
        cons = GeneConstraints.from_catalog(CAT, options)
        c = init_chromosome(w, random.Random(gene_seed), cons)
        score = make_evaluator(w, p, CAT, RISK, options)
        res = score(c)
        tables = cost_tables(w, p, CAT, RISK, options)
        repaired = make_deadline_repair(w, tables)(c, res)
        if res.makespan_s <= w.deadline_s:
            assert repaired is c
        rep_res = score(repaired)
        # order and placements decide energy, and they never move
        assert repaired.order == c.order and repaired.locations == c.locations
        assert rep_res.energy_j == res.energy_j
        assert rep_res.makespan_s <= res.makespan_s
        cap = 1.0 if options.ignore_risk_cap else w.risk_cap
        if res.risk <= cap:
            assert rep_res.risk <= cap
        else:
            assert repaired is c
        if cons.fixed_conf_level is not None:
            assert repaired.conf_levels == c.conf_levels
        if cons.fixed_integ_level is not None:
            assert repaired.integ_levels == c.integ_levels

    def test_turns_a_deadline_miss_feasible(self):
        # MD -> edge -> MD chain: both crossing outputs pay full-strength crypto
        w = Workflow(tasks=(Task(0, 0.0, 50.0, 1.0), Task(1, 50.0, 50.0, 20.0),
                            Task(2, 50.0, 0.0, 1.0)),
                     edges=((0, 1), (1, 2)), deadline_s=100.0, risk_cap=0.5)
        p = default_platform(1)
        c = Chromosome((0, 1, 2), (MD_LOCATION, encode_location(1, 1), MD_LOCATION),
                       (1, 1, 1), (1, 1, 1))
        strong = evaluate(c, w, p, CAT, RISK)
        assert strong.risk == 0.0
        w = with_deadline(w, strong.makespan_s - 2.0)
        res = evaluate(c, w, p, CAT, RISK)
        assert not res.feasible
        repaired = make_deadline_repair(w, cost_tables(w, p, CAT, RISK))(c, res)
        fixed = evaluate(repaired, w, p, CAT, RISK)
        assert fixed.feasible
        assert 0.0 < fixed.risk <= w.risk_cap
        assert fixed.energy_j == res.energy_j

    def test_frozen_levels_leave_nothing_to_repair(self):
        w = with_deadline(chain(5), 1.0)
        p = default_platform(2)
        for kind in (StrategyKind.MAX_LEVEL, StrategyKind.MIN_LEVEL):
            options = search_setup(Strategy(kind))
            c = init_chromosome(w, random.Random(3), GeneConstraints.from_catalog(CAT, options))
            res = evaluate(c, w, p, CAT, RISK, options)
            assert not res.feasible
            tables = cost_tables(w, p, CAT, RISK, options)
            assert make_deadline_repair(w, tables)(c, res) is c


class TestWitnessSeed:
    """Individual 0 is the greedy witness at full security, under the run's decryption ratio."""

    @pytest.mark.parametrize("literal", [True, False], ids=["literal", "ratio-off"])
    def test_individual_zero(self, monkeypatch, literal):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(12, 0.3, cfg, seed=6, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        scored: list[Chromosome] = []

        def spy_order_free_pass(*args, **kwargs):
            exposure = order_free_pass(*args, **kwargs)

            def spy(c):
                scored.append(c)
                return exposure(c)
            return spy

        monkeypatch.setattr(ga, "order_free_pass", spy_order_free_pass)
        run(w, PLATFORM, CAT, RISK, GaParams(pop_size=4, iterations=1),
            options=search_setup(Strategy(StrategyKind.SEECO, literal)))
        witness = greedy_witness(w, PLATFORM, CAT, decrypt_producer_core_ratio=literal)
        assert scored[0] == witness
        # on this instance the ratio moves two tasks between APs
        assert (witness == greedy_witness(w, PLATFORM, CAT)) is literal


class TestFloorStop:
    """A run stops at the energy floor with the winner the full run returns."""

    @staticmethod
    def stop_generation(monkeypatch, w, options, params):
        """Run with and without the floor, check what each stop promises, and
        return the stop generation (-1 for a run that ended before generation 0)."""
        floor = min_cut(w, cost_tables(w, PLATFORM, CAT, RISK, options))[0]
        with monkeypatch.context() as m:
            m.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
            full = run(w, PLATFORM, CAT, RISK, params, options=options)
        r = run(w, PLATFORM, CAT, RISK, params, options=options)
        assert r.energy_floor == floor
        assert len(full.history) == params.iterations
        assert r.polish_decodes > 0
        if r.evaluations == 0:
            # the polished witness sat at the floor: no schedule beats it
            assert (r.history, r.cache_hits) == ([], 0)
            assert r.best_result.feasible
            assert r.best_result.energy_j <= floor * (1.0 + FLOOR_RTOL)
            assert r.best_result.energy_j <= full.best_result.energy_j * (1.0 + FLOOR_RTOL)
            return -1
        assert (r.best_chromosome, r.best_result) == (full.best_chromosome, full.best_result)
        assert r.history == full.history[:len(r.history)]
        assert r.evaluations == (params.pop_size
                                 + len(r.history) * (params.pop_size - GaParams.elitism)
                                 + r.risk_repairs + r.deadline_repairs)
        if len(r.history) < params.iterations:
            # it stopped because its best sat at the floor
            assert r.best_result.feasible
            assert math.isclose(r.best_result.energy_j, floor, rel_tol=FLOOR_RTOL)
        return len(r.history)

    @pytest.mark.parametrize("kind", GA_KINDS, ids=lambda k: k.value)
    def test_stop_changes_nothing_before_it(self, monkeypatch, kind):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(12, 0.3, cfg, seed=6, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        stops = [self.stop_generation(monkeypatch, w, search_setup(Strategy(kind, literal)),
                                      GaParams(pop_size=16, iterations=20, seed=seed))
                 for literal in (True, False) for seed in (1, 2, 3)]
        # with the ratio off, every one of these runs ends before generation 0
        assert stops[3:] == [-1] * 3

    def test_the_ga_stops_where_the_polish_falls_short(self, monkeypatch):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(8, 0.3, cfg, seed=4, risk_cap=0.5)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        options = search_setup(Strategy(StrategyKind.CONFI_ONLY))
        params = GaParams(pop_size=16, iterations=20, seed=1)
        assert self.stop_generation(monkeypatch, w, options, params) == 10

    def test_an_infeasible_best_at_the_floor_runs_on(self):
        cfg = GeneratorConfig(data_range_mb=(1.0, 3.0), workload_range_gcycles=(8.0, 15.0))
        w = random_workflow(8, 0.6, cfg, seed=1)
        witness = evaluate(greedy_witness(w, PLATFORM, CAT), w, PLATFORM, CAT, RISK)
        w = with_deadline(w, witness.makespan_s / 2)  # far below what the witness makes
        r = run(w, PLATFORM, CAT, RISK, GaParams(pop_size=8, iterations=5, seed=1))
        assert not r.best_result.feasible
        assert r.best_result.energy_j <= r.energy_floor * (1.0 + FLOOR_RTOL)
        assert len(r.history) == 5


class TestPolishedWitness:
    """A witness polished to the floor ends the run before generation 0."""

    @pytest.mark.parametrize("kind", GA_KINDS, ids=lambda k: k.value)
    def test_sweep_workflow_ends_before_the_ga(self, monkeypatch, kind):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(30, 0.3, cfg, seed=7)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        witness = greedy_witness(w, PLATFORM, CAT)

        def no_draws(*args):
            raise AssertionError("the run drew a random number")

        monkeypatch.setattr(ga.random, "Random", no_draws)
        options = search_setup(Strategy(kind))
        for cap in (0.1, 0.5, 1.0):
            w_cap = replace(w, risk_cap=cap)
            r = run(w_cap, PLATFORM, CAT, RISK, GaParams(pop_size=30, iterations=80, seed=1),
                    options=options)
            assert (r.history, r.evaluations, r.cache_hits) == ([], 0, 0)
            assert r.polish_decodes > 0
            assert r.best_result.feasible
            assert r.best_result.energy_j <= r.energy_floor * (1.0 + FLOOR_RTOL)
            c = r.best_chromosome
            assert (c.order, c.conf_levels, c.integ_levels) == (
                witness.order, witness.conf_levels, witness.integ_levels)
            assert c.locations[0] == c.locations[-1] == MD_LOCATION
            assert r.best_result == evaluate(c, w_cap, PLATFORM, CAT, RISK, options)

    def test_budget_cuts_the_polish_short(self, monkeypatch):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(30, 0.3, cfg, seed=7, risk_cap=0.5)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        params = GaParams(pop_size=4, iterations=5, seed=1)  # a budget of 2 moves
        r = run(w, PLATFORM, CAT, RISK, params)
        assert r.polish_decodes == 3 and r.evaluations > 0
        monkeypatch.setattr(ga, "POLISH_SHARE", 0.0)  # the witness alone, not at the floor
        bare = run(w, PLATFORM, CAT, RISK, params)
        assert bare.polish_decodes == 1
        assert (r.best_chromosome, r.best_result, r.history, r.evaluations, r.cache_hits) == (
            bare.best_chromosome, bare.best_result, bare.history, bare.evaluations,
            bare.cache_hits)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 9), seed=st.integers(0, 10**6), kind=st.sampled_from(GA_KINDS),
           literal=st.booleans(), servers=st.integers(0, 3), cap=st.floats(0.0, 1.0),
           slack=st.sampled_from([0.8, 1.0, 1.3]), ga_seed=st.integers(0, 100))
    def test_never_worse_than_the_full_run(self, n, seed, kind, literal, servers, cap, slack,
                                           ga_seed):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        p = default_platform(servers)
        w = random_workflow(n, 0.4, cfg, seed=seed, risk_cap=cap)
        w = with_deadline(w, compute_deadline(w, p, CAT) * slack)
        options = search_setup(Strategy(kind, literal))
        params = GaParams(pop_size=6, iterations=5, seed=ga_seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
            full = run(w, p, CAT, RISK, params, options=options).best_result
        r = run(w, p, CAT, RISK, params, options=options)
        real = r.best_result
        if r.evaluations == 0:  # it ended before generation 0, so at the floor
            assert real.feasible
            assert real.energy_j <= r.energy_floor * (1.0 + FLOOR_RTOL)
        if full.feasible:
            assert real.feasible
            assert real.energy_j <= full.energy_j * (1.0 + FLOOR_RTOL)


class TestEnergyScreen:
    """The polish skips, undecoded, only moves that rank strictly worse."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 10**6), kind=st.sampled_from(GA_KINDS),
           literal=st.booleans(), servers=st.integers(0, 3), radio_gain=st.floats(0.2, 5.0),
           cap=st.floats(0.0, 1.0), slack=st.floats(0.8, 1.6),
           changes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0x01, 0xFF)),
                            max_size=4))
    def test_screened_moves_decode_strictly_worse(self, n, seed, kind, literal, servers,
                                                  radio_gain, cap, slack, changes):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        p = default_platform(servers)
        if servers:  # one AP's radio gains scaled, so the APs' rates differ
            aps = list(p.aps)
            radio = aps[seed % servers].radio
            aps[seed % servers] = replace(aps[seed % servers], radio=replace(
                radio, h_ul=radio.h_ul * radio_gain, h_dl=radio.h_dl * radio_gain))
            p = replace(p, aps=tuple(aps))
        w = random_workflow(n, 0.4, cfg, seed=seed, risk_cap=cap)
        w = with_deadline(w, compute_deadline(w, p, CAT) * slack)
        options = search_setup(Strategy(kind, literal))
        tables = cost_tables(w, p, CAT, RISK, options)
        decode = make_evaluator(w, p, CAT, RISK, options)
        key = ga._make_ranking_key(options)
        c = greedy_witness(w, p, CAT, decrypt_producer_core_ratio=literal)
        loc = list(c.locations)
        for i, byte in changes:  # a few random placement changes
            loc[1 + i % (n - 2)] = byte
        c = c._replace(locations=tuple(loc))
        res = decode(c)
        rise, aps = move_energy(w, tables), dict(enumerate(order_free_pass(w, tables)(c).aps))
        for pos in range(1, n - 1):
            for cand in placement_moves(tables)(c, pos):
                cand_res = decode(cand)
                gain, bound = rise(aps, c.order[pos], tables.by_byte[cand.locations[pos]][0],
                                   res.energy_j)
                assert abs((cand_res.energy_j - res.energy_j) - gain) <= bound
                if res.feasible and gain > bound:
                    assert key(cand_res) > key(res)

    @pytest.mark.parametrize("kind", [StrategyKind.MAX_LEVEL, StrategyKind.MIN_LEVEL,
                                      StrategyKind.CONFI_ONLY, StrategyKind.INTEG_ONLY],
                             ids=lambda k: k.value)
    def test_descent_matches_an_unscreened_one(self, monkeypatch, kind):
        # test_08's n = 30 instance, the bench sweep's workflow
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(30, 0.3, cfg, seed=7, risk_cap=0.5)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        calls = []
        real_descend = ga.descend
        monkeypatch.setattr(ga, "descend", lambda *args: calls.append(args) or real_descend(*args))
        run(w, PLATFORM, CAT, RISK, GaParams(pop_size=30, iterations=80, seed=1),
            options=search_setup(Strategy(kind)))
        (c, moves, decode, key, done, budget, screen), = calls

        def descent(budget, screen):
            drawn = []  # every move drawn, so the lists end where the descents stopped

            def spied(c, pos):
                for cand in moves(c, pos):
                    drawn.append(cand)
                    yield cand
            return real_descend(c, spied, decode, key, done, budget, screen), drawn

        full = len(descent(budget, screen)[1])  # the moves tried without a binding budget
        assert full < budget
        # the last two budgets bind after screened moves
        for b in (budget, full, full - 2, full // 2):
            (best, res, decodes), drawn = descent(b, screen)
            (plain_best, plain_res, plain_decodes), plain_drawn = descent(
                b, lambda c, res: False)
            assert (best, res, drawn) == (plain_best, plain_res, plain_drawn), b
            assert decodes < plain_decodes, b


class TestSweepMemo:
    """A memo shared across risk caps and attack rates never changes a run."""

    @pytest.mark.parametrize("literal", [True, False])
    @pytest.mark.parametrize("conf_mode", list(ServiceMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("integ_mode", list(ServiceMode), ids=lambda m: m.value)
    def test_matches_runs_without_it(self, conf_mode, integ_mode, literal):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        p = default_platform(3)
        w = random_workflow(10, 0.3, cfg, seed=1, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, p, CAT))
        options = EvalOptions(conf_mode, integ_mode, literal)
        params = GaParams(pop_size=10, iterations=15, seed=5)
        memo: dict = {}
        for cap, rate in ((1.0, 0.05), (0.99, 0.3), (0.05, 0.3), (0.05, 2.5)):
            w_cap, risk = replace(w, risk_cap=cap), RiskModel(rate, rate)
            shared = run(w_cap, p, CAT, risk, params, options=options, memo=memo)
            alone = run(w_cap, p, CAT, risk, params, options=options)
            assert (shared.best_chromosome, shared.best_result, shared.evaluations,
                    shared.polish_decodes) == (alone.best_chromosome, alone.best_result,
                                               alone.evaluations, alone.polish_decodes), (
                cap, rate)


class TestRiskScreen:
    """Children over the risk cap are screened, not timed."""

    def tight_instance(self, risk_cap):
        w = random_workflow(12, 0.3, seed=41, risk_cap=risk_cap)
        p = default_platform(3)
        return with_deadline(w, compute_deadline(w, p, CAT)), p

    def run_spied(self, monkeypatch, risk_cap, options=EvalOptions(),
                  params=GaParams(pop_size=10, iterations=12, seed=3)):
        w, p = self.tight_instance(risk_cap)
        passes, timings = [], []

        def spy_order_free_pass(*args, **kwargs):
            exposure = order_free_pass(*args, **kwargs)

            def spy(c):
                passes.append(c)
                return exposure(c)
            return spy

        def spy_timing_pass(*args, **kwargs):
            timed = timing_pass(*args, **kwargs)

            def spy(c, exposure):
                timings.append(c)
                return timed(c, exposure)
            return spy

        monkeypatch.setattr(ga, "order_free_pass", spy_order_free_pass)
        monkeypatch.setattr(ga, "timing_pass", spy_timing_pass)
        r = run(w, p, CAT, RISK, params, options=options)
        # each memo miss runs the order-free pass once, and only the
        # children it does not screen are timed; the polish screens nothing,
        # and the winner's decode runs both passes once more
        assert len(passes) == r.evaluations - r.cache_hits + r.polish_decodes + 1
        assert len(timings) == r.evaluations - r.cache_hits - r.screened + r.polish_decodes + 1
        return r

    def test_seeco_screens_children_over_a_tight_cap(self, monkeypatch):
        r = self.run_spied(monkeypatch, 0.02)
        assert r.screened > 0
        assert r.risk_repairs >= r.screened  # each screened child goes to the repair

    @pytest.mark.parametrize("kind", [StrategyKind.MAX_LEVEL, StrategyKind.MIN_LEVEL])
    def test_never_fires_where_no_child_can_exceed_the_cap(self, monkeypatch, kind):
        assert self.run_spied(monkeypatch, 0.02, search_setup(Strategy(kind))).screened == 0

    def test_never_fires_under_a_cap_of_one(self, monkeypatch):
        assert self.run_spied(monkeypatch, 1.0).screened == 0

    # (best chromosome genes, best result, history rows) digests, then
    # evaluations, cache hits, risk repairs and deadline repairs, recorded
    # before a child's memo miss ran the order-free pass only once; and
    # the screened count
    @pytest.mark.parametrize("options, pinned, screened", [
        (EvalOptions(), ('01a872d6c0d5ec34', '649248e41c26c219', '89b8069cffff63ee',
                         193, 66, 48, 0), 48),
        # an unprotected service ignores the cap, so no child is over it:
        # nothing is screened and the risk repair never fires
        (EvalOptions(conf_mode=ServiceMode.UNPROTECTED),
         ('19ff1da2acc49d5b', '4d9471ddd3d75b88', '960b3f6eddd7f4c1', 145, 87, 0, 0), 0),
    ], ids=["active", "unprotected"])
    def test_matches_recorded_run(self, monkeypatch, options, pinned, screened):
        r = self.run_spied(monkeypatch, 0.3, options=options,
                           params=GaParams(pop_size=10, iterations=15, seed=5))
        c = r.best_chromosome
        got = (_digest((c.order, c.locations, c.conf_levels, c.integ_levels)),
               _digest(tuple(r.best_result)),
               _digest([(h.generation, h.best_energy, h.best_violation, h.feasible_count)
                        for h in r.history]),
               r.evaluations, r.cache_hits, r.risk_repairs, r.deadline_repairs)
        assert got == pinned
        assert r.screened == screened
        if options.ignore_risk_cap:
            assert r.risk_repairs == 0


class TestGeneRepair:
    @settings(max_examples=100, deadline=None)
    @given(genes=st.lists(st.tuples(st.integers(0x01, 0xFF), st.integers(1, 5),
                                    st.integers(1, 5)), min_size=1, max_size=8),
           conf_mode=st.sampled_from(ServiceMode), integ_mode=st.sampled_from(ServiceMode))
    def test_matches_rebuilt_chromosome(self, genes, conf_mode, integ_mode):
        n = len(genes)
        loc, conf, integ = zip(*genes)
        c = Chromosome(tuple(range(n)), loc, conf, integ)
        cons = GeneConstraints.from_catalog(CAT, EvalOptions(conf_mode, integ_mode))
        fixed_conf = None if conf_mode is ServiceMode.ACTIVE else STRONGEST[0]
        fixed_integ = None if integ_mode is ServiceMode.ACTIVE else STRONGEST[1]
        pinned = list(loc)
        pinned[0] = pinned[n - 1] = MD_LOCATION
        expected = Chromosome(tuple(range(n)), tuple(pinned),
                              (fixed_conf,) * n if fixed_conf else conf,
                              (fixed_integ,) * n if fixed_integ else integ)
        repaired = cons.repair(c)
        assert repaired == expected
        assert hash(repaired) == hash(expected)
        assert all(type(v) is tuple for v in (repaired.order, repaired.locations,
                                              repaired.conf_levels, repaired.integ_levels))
        # a chromosome that needs no repair comes back as the same object
        assert (repaired is c) == (expected == c)
        assert cons.repair(repaired) is repaired

    def test_equals_and_hashes_as_its_four_tuples(self):
        # the GA's memo keys on chromosomes, so equal genes must meet there
        genes = ((0, 1, 2), (1, 0x21, 1), (2, 3, 1), (1, 5, 2))
        c = Chromosome(*genes)
        assert c == genes == Chromosome(*genes)
        assert hash(c) == hash(genes)
        assert c != Chromosome(*genes[:3], (1, 5, 1))
        assert {c: 1}[Chromosome(*genes)] == 1


class TestGeneFreezes:
    """A strategy's modes alone decide which level genes the GA freezes."""

    # the (confidentiality, integrity) levels each strategy froze when
    # the freezes were set by hand, beside its modes
    HAND_SET = {StrategyKind.LOCAL: (None, None), StrategyKind.MAX_LEVEL: STRONGEST,
                StrategyKind.MIN_LEVEL: STRONGEST, StrategyKind.CONFI_ONLY: (None, STRONGEST[1]),
                StrategyKind.INTEG_ONLY: (STRONGEST[0], None), StrategyKind.SEECO: (None, None)}

    @pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
    def test_exactly_the_services_that_are_not_active(self, kind):
        options = search_setup(Strategy(kind))
        cons = GeneConstraints.from_catalog(CAT, options)
        assert (cons.conf_level_count, cons.integ_level_count) == (
            CAT.level_count(Service.CONFIDENTIALITY), CAT.level_count(Service.INTEGRITY))
        frozen = (cons.fixed_conf_level, cons.fixed_integ_level)
        assert frozen == self.HAND_SET[kind]
        for mode, fixed, strongest in zip((options.conf_mode, options.integ_mode), frozen,
                                          STRONGEST):
            assert fixed == (None if mode is ServiceMode.ACTIVE else strongest)

    def test_no_state_is_set_by_hand(self):
        for make in (GeneConstraints, lambda: GeneConstraints(conf_level_count=9)):
            with pytest.raises(TypeError):
                make()
        with pytest.raises(TypeError):
            run(with_deadline(chain(5), 50.0), PLATFORM, CAT, RISK,
                GaParams(pop_size=4, iterations=1), constraints=ga.DEFAULT_CONSTRAINTS)


class TestParamsValidation:
    def test_bad_pop(self):
        with pytest.raises(ValueError):
            GaParams(pop_size=1)

    @pytest.mark.parametrize("field", ["pop_size", "iterations"])
    @pytest.mark.parametrize("value", [10.5, 2.5, math.inf, True])
    def test_sizes_are_whole_numbers(self, field, value):
        with pytest.raises(ValueError, match="expected an integer"):
            GaParams(**{field: value})

    def test_integral_float_sizes_read_as_ints(self):
        params = GaParams(pop_size=3.0, iterations=3.0)
        assert (params.pop_size, params.iterations) == (3, 3)
        assert type(params.pop_size) is type(params.iterations) is int

    def test_elitism_is_not_a_parameter(self):
        # one elite individual per generation, always
        assert GaParams().elitism == 1
        with pytest.raises(TypeError):
            GaParams(elitism=4)

    def test_bad_probs(self):
        with pytest.raises(ValueError):
            GaParams(p_c=1.5)

    def test_probs_read_as_finite_floats(self):
        # as every other constructor reads its numbers: numeric strings are read, and an
        # integer beyond the float range is refused
        params = GaParams(p_c="0.25", p_m=1)
        assert (params.p_c, params.p_m) == (0.25, 1.0) and type(params.p_m) is float
        for bad in (10**400, "nan", -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                GaParams(p_m=bad)
