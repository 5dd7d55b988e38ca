import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from seeco import ga
from seeco.baselines import (
    RATES,
    RISK_CAP,
    Strategy,
    StrategyKind,
    local_chromosome,
    risk_inputs_read,
    search_setup,
    solve,
    solve_detailed,
)
from seeco.evaluator import better, evaluate
from seeco.ga import GaParams, run
from seeco.platform import MD_LOCATION, default_platform
from seeco.security import RiskModel, default_catalog
from seeco.workflow import (
    GeneratorConfig,
    Task,
    Workflow,
    compute_deadline,
    random_workflow,
    with_deadline,
)

CAT = default_catalog()
RISK = RiskModel()
PLATFORM = default_platform()
FAST = GaParams(pop_size=16, iterations=25, seed=1)


def offload_friendly_workflow(n=8, seed=3):
    """Heavy compute, light payloads: offloading clearly pays off."""
    cfg = GeneratorConfig(data_range_mb=(1.0, 3.0), workload_range_gcycles=(8.0, 15.0))
    w = random_workflow(n, 0.3, gen_cfg=cfg, seed=seed)
    w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
    return w


class TestLocal:
    def test_two_task_example(self):
        w = Workflow(
            tasks=(Task(0, 10.0, 10.0, 2.36), Task(1, 10.0, 10.0, 2.36)),
            edges=((0, 1),), deadline_s=10.0, risk_cap=0.5)
        _, res = solve(Strategy(StrategyKind.LOCAL), w, PLATFORM, CAT, RISK)
        assert res.energy_j == pytest.approx(1.0)
        assert res.risk == 0.0

    def test_energy_closed_form(self):
        for seed in range(4):
            w = random_workflow(9, 0.4, seed=seed)
            w = with_deadline(w, 5.0)  # deliberately tight; energy must not care
            _, res = solve(Strategy(StrategyKind.LOCAL), w, PLATFORM, CAT, RISK)
            expected = PLATFORM.md.p_comp_w * sum(
                t.workload_gcycles for t in w.tasks) / PLATFORM.md.vm.capability_ghz
            assert res.energy_j == pytest.approx(expected, rel=1e-12)

    def test_energy_independent_of_caps(self):
        w = random_workflow(7, 0.4, seed=11)
        results = []
        for deadline, cap in ((1.0, 0.1), (100.0, 0.9)):
            w = with_deadline(w, deadline)
            w = replace(w, risk_cap=cap)
            results.append(solve(Strategy(StrategyKind.LOCAL), w, PLATFORM, CAT, RISK)[1])
        assert results[0].energy_j == results[1].energy_j
        assert not results[0].feasible and results[1].feasible

    def test_no_search_performed(self):
        w = offload_friendly_workflow()
        outcome = solve_detailed(Strategy(StrategyKind.LOCAL), w, PLATFORM, CAT, RISK, FAST)
        assert outcome.ga_run is None
        assert set(outcome.chromosome.locations) == {MD_LOCATION}


class TestMaxLevel:
    def test_zero_risk_exactly(self):
        w = offload_friendly_workflow()
        chromo, res = solve(Strategy(StrategyKind.MAX_LEVEL), w, PLATFORM, CAT, RISK, FAST)
        assert res.risk == 0.0
        assert set(chromo.conf_levels) == {1}
        assert set(chromo.integ_levels) == {1}


class TestMinLevel:
    def test_risk_saturates_with_crossings(self):
        w = offload_friendly_workflow(n=10, seed=5)
        chromo, res = solve(Strategy(StrategyKind.MIN_LEVEL), w, PLATFORM, CAT, RISK, FAST)
        crossings = sum(1 for row in res.timings if row.risk > 0)
        assert crossings >= 3
        assert res.risk >= 0.999

    def test_no_security_time_cost(self):
        w = offload_friendly_workflow(n=6, seed=9)
        _, res = solve(Strategy(StrategyKind.MIN_LEVEL), w, PLATFORM, CAT, RISK, FAST)
        for row in res.timings:
            assert row.encrypt_cost == 0.0
            assert row.decrypt_cost == 0.0

    def test_risk_cap_not_binding(self):
        w = offload_friendly_workflow(n=8, seed=13)
        w = replace(w, risk_cap=0.01)
        _, res = solve(Strategy(StrategyKind.MIN_LEVEL), w, PLATFORM, CAT, RISK, FAST)
        # feasibility here means deadline only; saturated risk must not block it
        assert res.risk > w.risk_cap
        assert res.feasible


class TestSingleService:
    def test_confi_only_has_no_integrity_cost_or_risk(self):
        w = offload_friendly_workflow(n=8, seed=7)
        chromo, res = solve(Strategy(StrategyKind.CONFI_ONLY), w, PLATFORM, CAT, RISK, FAST)
        again = evaluate(chromo, w, PLATFORM, CAT, RISK)  # both services active
        assert res.makespan_s <= again.makespan_s
        for row in res.timings:
            if row.risk > 0:
                # exposure only through the confidentiality channel
                assert row.risk < 1 - math.exp(-RISK.lambda_conf) + 1e-12

    def test_integ_only_risk_bounded_by_integrity_channel(self):
        w = offload_friendly_workflow(n=8, seed=7)
        _, res = solve(Strategy(StrategyKind.INTEG_ONLY), w, PLATFORM, CAT, RISK, FAST)
        cap = 1 - math.exp(-RISK.lambda_integ)
        for row in res.timings:
            assert row.risk <= cap + 1e-12


class TestStrategyParsing:
    def test_all_names_round_trip(self):
        for kind in StrategyKind:
            assert Strategy.parse(kind.value).kind is kind

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("annealing")


class TestOrdering:
    def test_mean_energy_ordering_on_one_instance(self):
        # local >= max_level >= seeco >= min_level (averaged over seeds)
        w = offload_friendly_workflow(n=10, seed=21)
        means = {}
        for kind in (StrategyKind.LOCAL, StrategyKind.MAX_LEVEL,
                     StrategyKind.SEECO, StrategyKind.MIN_LEVEL):
            vals = []
            for seed in range(1, 6):
                params = GaParams(pop_size=20, iterations=40, seed=seed)
                vals.append(solve(Strategy(kind), w, PLATFORM, CAT, RISK, params)[1].energy_j)
            means[kind] = sum(vals) / len(vals)
        assert means[StrategyKind.LOCAL] >= means[StrategyKind.MAX_LEVEL] - 1e-9
        assert means[StrategyKind.MAX_LEVEL] >= means[StrategyKind.SEECO] - 1e-9
        assert means[StrategyKind.SEECO] >= means[StrategyKind.MIN_LEVEL] - 1e-9

    def test_local_chromosome_shape(self):
        w = offload_friendly_workflow(n=5, seed=2)
        c = local_chromosome(w, CAT)
        assert set(c.locations) == {MD_LOCATION}
        assert len(c.order) == 5


class TestNeverLosesToAllMd:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.05, 1.0), servers=st.integers(0, 3),
           slack=st.sampled_from([0.9, 1.0, 1.0, 1.2]), ga_seed=st.integers(0, 100))
    def test_every_strategy(self, n, seed, risk_cap, servers, slack, ga_seed):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(n, 0.4, cfg, seed=seed, risk_cap=risk_cap)
        p = default_platform(servers)
        w = with_deadline(w, compute_deadline(w, p, CAT) * slack)
        params = GaParams(pop_size=6, iterations=4, seed=ga_seed)
        for kind in StrategyKind:
            options = search_setup(Strategy(kind))
            all_md = evaluate(local_chromosome(w, CAT), w, p, CAT, RISK, options)
            _, res = solve(Strategy(kind), w, p, CAT, RISK, params)
            if all_md.feasible:
                assert res.feasible, kind
            assert better(res, all_md), kind
            if kind is StrategyKind.MAX_LEVEL:
                assert res.risk == 0.0


def _outcome(outcome):
    """Everything a solve reports, GA counters and history included."""
    res, run = outcome.result, outcome.ga_run
    return (outcome.chromosome, res.energy_j, res.makespan_s, res.risk, res.violation,
            res.feasible, None if run is None else (run.evaluations, run.history))


class TestRiskInputsRead:
    """Other values of a risk input that :func:`risk_inputs_read` says a solve
    did not read give an equal outcome, and the same answer."""

    GA_RISK_READERS = (StrategyKind.CONFI_ONLY, StrategyKind.INTEG_ONLY, StrategyKind.SEECO)

    @staticmethod
    def check(w, p, params, caps, models):
        """The property on one instance, every strategy under both decryption
        ratios; probes at ``caps[0]`` and ``models[0]``.  Returns the
        (kind, inputs read) pairs seen."""
        seen = set()
        for kind in StrategyKind:
            for ratio in (True, False):
                strategy = Strategy(kind, literal_decrypt_ratio=ratio)
                probe = solve_detailed(strategy, replace(w, risk_cap=caps[0]), p, CAT,
                                       models[0], params)
                read = risk_inputs_read(strategy, probe)
                seen.add((kind, read))
                for cap in caps:
                    for rm in models:
                        other = solve_detailed(strategy, replace(w, risk_cap=cap), p, CAT,
                                               rm, params)
                        assert risk_inputs_read(strategy, other) == read
                        if (RISK_CAP in read and cap != caps[0]
                                or RATES in read and rm != models[0]):
                            continue
                        assert (_outcome(other), other.result) == (
                            _outcome(probe), probe.result), (kind, ratio, cap, rm)
        return seen

    def test_unread_inputs_give_equal_outcomes(self):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        caps = (0.35, 0.0, 1.0)
        models = (RISK, RiskModel(0.0, 0.0), RiskModel(4.0, 0.3))
        seen = set()
        for seed, n, servers in ((5, 7, 3), (10, 7, 3), (2, 6, 2), (3, 8, 1)):
            w = random_workflow(n, 0.3, cfg, seed=seed)
            p = default_platform(servers)
            w = with_deadline(w, compute_deadline(w, p, CAT))
            seen |= self.check(w, p, GaParams(pop_size=6, iterations=3, seed=seed),
                               caps, models)
        # both branches are covered: GA runs that read both inputs and ones that read none
        assert {read for kind, read in seen if kind in self.GA_RISK_READERS} == {
            (), (RISK_CAP, RATES)}

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 10**6), cap=st.floats(0.0, 1.0),
           servers=st.integers(0, 3), slack=st.sampled_from([0.9, 1.0, 1.2]),
           ga_seed=st.integers(0, 100),
           rates=st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4))
    def test_on_random_instances(self, n, seed, cap, servers, slack, ga_seed, rates):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(n, 0.4, cfg, seed=seed)
        p = default_platform(servers)
        w = with_deadline(w, compute_deadline(w, p, CAT) * slack)
        self.check(w, p, GaParams(pop_size=6, iterations=4, seed=ga_seed), (cap, 0.0, 1.0),
                   (RiskModel(*rates[:2]), RiskModel(*rates[2:])))

    def test_which_solves_read_them(self):
        w = offload_friendly_workflow()
        for kind in StrategyKind:
            outcome = solve_detailed(Strategy(kind), w, PLATFORM, CAT, RISK, FAST)
            for evaluations in (0, 1):
                if outcome.ga_run is not None:
                    outcome = replace(outcome, ga_run=replace(outcome.ga_run,
                                                              evaluations=evaluations))
                read = risk_inputs_read(Strategy(kind), outcome)
                if kind in (StrategyKind.LOCAL, StrategyKind.MAX_LEVEL):
                    assert read == (), kind
                elif kind is StrategyKind.MIN_LEVEL:  # exposed whatever its genes
                    assert read == (RATES,), kind
                else:
                    assert read == ((RISK_CAP, RATES) if evaluations else ()), kind


class TestRunIsTheSolversGa:
    """``ga.run`` under a strategy's search set-up is the GA ``solve_detailed`` runs."""

    @pytest.mark.parametrize("kind", [k for k in StrategyKind if k is not StrategyKind.LOCAL],
                             ids=lambda k: k.value)
    def test_same_run(self, kind):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        for seed, servers, cap in ((1, 3, 0.3), (2, 1, 0.6), (3, 2, 1.0)):
            w = random_workflow(8, 0.35, cfg, seed=seed, risk_cap=cap)
            p = default_platform(servers)
            w = with_deadline(w, compute_deadline(w, p, CAT))
            params = GaParams(pop_size=8, iterations=6, seed=seed)
            direct = run(w, p, CAT, RISK, params, options=search_setup(Strategy(kind)))
            solved = solve_detailed(Strategy(kind), w, p, CAT, RISK, params).ga_run
            assert (direct.best_chromosome, direct.best_result, direct.history,
                    direct.evaluations, direct.cache_hits) == (
                solved.best_chromosome, solved.best_result, solved.history,
                solved.evaluations, solved.cache_hits), (kind, seed)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# (strategy, GA seed) -> (evaluations, digest of the best chromosome's genes,
# best energy, makespan and risk, digest of the history rows), recorded
# before scoring went through the score-only decode and the memo; local
# runs no GA, so its row holds the all-MD outcome.  Runs that reach the
# energy floor stop there; their evaluations and history digests were
# re-recorded when the stop came in, each new history the old one cut short.
# The min, confi and integ runs polish the witness to the floor and end
# before generation 0 (0 evaluations, empty history); their rows were
# re-recorded then, each energy no higher than before
PINNED_TRAJECTORIES = {
    ('local', 1): (None, '964beecb36264b64', 27.886689224088542, 55.773378448177084, 0.0, None),
    ('local', 2): (None, '964beecb36264b64', 27.886689224088542, 55.773378448177084, 0.0, None),
    ('local', 3): (None, '964beecb36264b64', 27.886689224088542, 55.773378448177084, 0.0, None),
    ('max', 1): (316, 'b094a754a99dfc45', 7.280393102680995, 47.63681146947546, 0.0, 'e15144ccaad7bb6e'),
    ('max', 2): (316, '4e28efe0421c108a', 7.280393102680995, 49.402927177548314, 0.0, '9768f464a44e3eb0'),
    ('max', 3): (316, 'b14bbe5fea852847', 7.0653652396518645, 47.75691852799319, 0.0, '5ef3d9c9457d1b28'),
    ('min', 1): (0, '8a95d607597d0213', 5.174024630753193, 41.443361033769236, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('min', 2): (0, '8a95d607597d0213', 5.174024630753193, 41.443361033769236, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('min', 3): (0, '8a95d607597d0213', 5.174024630753193, 41.443361033769236, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('confi', 1): (0, 'fd68cdbf0e3ccf08', 5.174024630753193, 49.52246747039784, 0.0, '4f53cda18c2baa0c'),
    ('confi', 2): (0, 'fd68cdbf0e3ccf08', 5.174024630753193, 49.52246747039784, 0.0, '4f53cda18c2baa0c'),
    ('confi', 3): (0, 'fd68cdbf0e3ccf08', 5.174024630753193, 49.52246747039784, 0.0, '4f53cda18c2baa0c'),
    ('integ', 1): (0, '8a95d607597d0213', 5.174024630753193, 42.92417252407073, 0.0, '4f53cda18c2baa0c'),
    ('integ', 2): (0, '8a95d607597d0213', 5.174024630753193, 42.92417252407073, 0.0, '4f53cda18c2baa0c'),
    ('integ', 3): (0, '8a95d607597d0213', 5.174024630753193, 42.92417252407073, 0.0, '4f53cda18c2baa0c'),
    ('seeco', 1): (396, 'b094a754a99dfc45', 7.280393102680995, 47.63681146947546, 0.0, 'e15144ccaad7bb6e'),
    ('seeco', 2): (388, '4e28efe0421c108a', 7.280393102680995, 49.402927177548314, 0.0, '9768f464a44e3eb0'),
    ('seeco', 3): (401, 'b14bbe5fea852847', 7.0653652396518645, 47.75691852799319, 0.0, '5ef3d9c9457d1b28'),
}


class TestPinnedTrajectories:
    """Scoring draws no random numbers, so memo hits cannot move a trajectory."""

    @pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
    def test_matches_recorded_run(self, kind):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(12, 0.3, cfg, seed=6, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        for seed in (1, 2, 3):
            outcome = solve_detailed(Strategy(kind), w, PLATFORM, CAT, RISK,
                                     GaParams(pop_size=16, iterations=20, seed=seed))
            run = outcome.ga_run
            if run is None:
                c, res, evaluations, history = outcome.chromosome, outcome.result, None, None
            else:
                c, res, evaluations = run.best_chromosome, run.best_result, run.evaluations
                history = _digest([(h.generation, h.best_energy, h.best_violation,
                                    h.feasible_count) for h in run.history])
                if kind is StrategyKind.SEECO:
                    assert run.cache_hits > 0
            got = (evaluations, _digest((c.order, c.locations, c.conf_levels, c.integ_levels)),
                   res.energy_j, res.makespan_s, res.risk, history)
            assert got == PINNED_TRAJECTORIES[kind.value, seed]


# as PINNED_TRAJECTORIES, with the decryption core ratio off, recorded before
# cost_tables took over the ratio from the timing pass, the deadline repair
# and the greedy witness.  Every run here polishes the witness to the energy
# floor and ends before generation 0, so all rows were re-recorded as in
# PINNED_TRAJECTORIES, each energy bit-identical to before.  Min-level pays no
# crypto, but its witness is built under the ratio, so its polished schedule
# differs from the ratio-on one
PINNED_RATIO_OFF_TRAJECTORIES = {
    ('max', 1): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
    ('max', 2): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
    ('max', 3): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
    ('min', 1): (0, '9855d253472d8f64', 5.174024630753193, 38.84860811156119, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('min', 2): (0, '9855d253472d8f64', 5.174024630753193, 38.84860811156119, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('min', 3): (0, '9855d253472d8f64', 5.174024630753193, 38.84860811156119, 0.9999999999999989, '4f53cda18c2baa0c'),
    ('confi', 1): (0, '9855d253472d8f64', 5.174024630753193, 42.1286044429185, 0.0, '4f53cda18c2baa0c'),
    ('confi', 2): (0, '9855d253472d8f64', 5.174024630753193, 42.1286044429185, 0.0, '4f53cda18c2baa0c'),
    ('confi', 3): (0, '9855d253472d8f64', 5.174024630753193, 42.1286044429185, 0.0, '4f53cda18c2baa0c'),
    ('integ', 1): (0, '9855d253472d8f64', 5.174024630753193, 39.35775220945931, 0.0, '4f53cda18c2baa0c'),
    ('integ', 2): (0, '9855d253472d8f64', 5.174024630753193, 39.35775220945931, 0.0, '4f53cda18c2baa0c'),
    ('integ', 3): (0, '9855d253472d8f64', 5.174024630753193, 39.35775220945931, 0.0, '4f53cda18c2baa0c'),
    ('seeco', 1): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
    ('seeco', 2): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
    ('seeco', 3): (0, '9855d253472d8f64', 5.174024630753193, 42.63774854081662, 0.0, '4f53cda18c2baa0c'),
}


class TestPinnedRatioOffTrajectories:
    """``TestPinnedTrajectories``' instance and GA runs, decryption core ratio off."""

    @pytest.mark.parametrize("kind", [k for k in StrategyKind if k is not StrategyKind.LOCAL],
                             ids=lambda k: k.value)
    def test_matches_recorded_run(self, kind):
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(12, 0.3, cfg, seed=6, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        for seed in (1, 2, 3):
            run = solve_detailed(Strategy(kind, literal_decrypt_ratio=False), w, PLATFORM,
                                 CAT, RISK, GaParams(pop_size=16, iterations=20,
                                                     seed=seed)).ga_run
            c, res = run.best_chromosome, run.best_result
            history = _digest([(h.generation, h.best_energy, h.best_violation,
                                h.feasible_count) for h in run.history])
            got = (run.evaluations, _digest((c.order, c.locations, c.conf_levels,
                                              c.integ_levels)),
                   res.energy_j, res.makespan_s, res.risk, history)
            assert got == PINNED_RATIO_OFF_TRAJECTORIES[kind.value, seed]


# (strategy, decryption core ratio on, GA seed) -> as PINNED_TRAJECTORIES, for
# the strategy and ratio rows whose runs there now end before generation 0,
# run in full: ``ga.energy_floor`` is -inf, so neither the witness's polish
# nor the GA stops at a floor and the polished witness is always dropped.
# Recorded on the commit before the polish came in, under the same patch; the
# best of each run is the one pinned before the polish came in
PINNED_FULL_RUNS = {
    ('min', True, 1): (316, '811b4e7e6bf3f87f', 5.174024630753193, 44.243135444569106, 1.0, 'fb2a304a5ef0243e'),
    ('min', True, 2): (316, '4eec44f4b42df6f3', 5.174024630753193, 40.16320372190536, 1.0, '66ee954f776a9941'),
    ('min', True, 3): (316, '0cb7f83747664f85', 5.174024630753193, 47.54017912684491, 1.0, '577df1f2b728bbdf'),
    ('confi', True, 1): (375, '89e5aaf7e9f3ea6b', 7.0653652396518645, 49.232554395475624, 0.0, 'be561efd34f03696'),
    ('confi', True, 2): (365, '1493d56291b39eef', 7.0653652396518645, 46.305793089349756, 0.0, '2f019d68ea81e508'),
    ('confi', True, 3): (375, '9faf0cf318e85600', 7.0653652396518645, 47.94467943048939, 0.0, '4d7af9339763279e'),
    ('integ', True, 1): (374, '811b4e7e6bf3f87f', 5.174024630753193, 46.08242816688765, 0.0, 'a0a8ba7cd28de8f5'),
    ('integ', True, 2): (378, 'f7e711120db70603', 5.174024630753193, 44.46520555426804, 0.0, '1d07a071e2eb409d'),
    ('integ', True, 3): (390, '0cb7f83747664f85', 5.174024630753193, 49.71229604305868, 0.0, 'aa6b62b28848aff7'),
    ('max', False, 1): (316, '811b4e7e6bf3f87f', 5.174024630753193, 47.54676570930955, 0.0, '0a0a7febec6a703b'),
    ('max', False, 2): (316, '7d0371d266b4ec6d', 5.174024630753193, 48.9755155386433, 0.0, '3ceac3930277c2b7'),
    ('max', False, 3): (316, '69cf2e6088b97716', 5.174024630753193, 48.83568537124083, 0.0, 'ae032c26a47d7366'),
    ('min', False, 1): (316, '811b4e7e6bf3f87f', 5.174024630753193, 44.243135444569106, 1.0, 'fb2a304a5ef0243e'),
    ('min', False, 2): (316, '4eec44f4b42df6f3', 5.174024630753193, 40.16320372190536, 1.0, '66ee954f776a9941'),
    ('min', False, 3): (316, '0cb7f83747664f85', 5.174024630753193, 47.54017912684491, 1.0, '577df1f2b728bbdf'),
    ('confi', False, 1): (374, '811b4e7e6bf3f87f', 5.174024630753193, 47.10285926605832, 0.0, '607b18136fe3527d'),
    ('confi', False, 2): (370, '361ddba36793bac5', 5.174024630753193, 48.17458435380784, 0.0, 'e5f3810bb04ba9ce'),
    ('confi', False, 3): (385, 'ac411dd9f7aa8574', 5.174024630753193, 48.352169463695944, 0.0, 'd3ccaf7237a187f4'),
    ('integ', False, 1): (377, '811b4e7e6bf3f87f', 5.174024630753193, 44.687041887820335, 0.0, 'b432286f31dbe41e'),
    ('integ', False, 2): (378, '4eec44f4b42df6f3', 5.174024630753193, 40.65963099572143, 0.0, '02dcf1b8d2521f3d'),
    ('integ', False, 3): (392, '0cb7f83747664f85', 5.174024630753193, 47.97653488145984, 0.0, '6a79cd6d44bee656'),
    ('seeco', False, 1): (392, '811b4e7e6bf3f87f', 5.174024630753193, 47.54676570930955, 0.0, '0a0a7febec6a703b'),
    ('seeco', False, 2): (395, '7d0371d266b4ec6d', 5.174024630753193, 48.9755155386433, 0.0, '3ceac3930277c2b7'),
    ('seeco', False, 3): (402, 'ac411dd9f7aa8574', 5.174024630753193, 48.83568537124083, 0.0, 'ae032c26a47d7366'),
}


class TestPinnedFullRuns:
    """The GA's generations stay pinned for the runs that now end before them."""

    @pytest.mark.parametrize("kind, ratio", sorted({k[:2] for k in PINNED_FULL_RUNS}),
                             ids=lambda v: str(v).lower())
    def test_matches_recorded_run(self, monkeypatch, kind, ratio):
        monkeypatch.setattr(ga, "min_cut", lambda *args: (-math.inf, frozenset()))
        cfg = GeneratorConfig(data_range_mb=(2.0, 10.0), workload_range_gcycles=(5.0, 15.0))
        w = random_workflow(12, 0.3, cfg, seed=6, risk_cap=0.3)
        w = with_deadline(w, compute_deadline(w, PLATFORM, CAT))
        for seed in (1, 2, 3):
            run = solve_detailed(Strategy(StrategyKind(kind), literal_decrypt_ratio=ratio),
                                 w, PLATFORM, CAT, RISK,
                                 GaParams(pop_size=16, iterations=20, seed=seed)).ga_run
            c, res = run.best_chromosome, run.best_result
            history = _digest([(h.generation, h.best_energy, h.best_violation,
                                h.feasible_count) for h in run.history])
            got = (run.evaluations, _digest((c.order, c.locations, c.conf_levels,
                                              c.integ_levels)),
                   res.energy_j, res.makespan_s, res.risk, history)
            assert got == PINNED_FULL_RUNS[kind, ratio, seed]
            assert len(run.history) == 20 and run.polish_decodes > 0
