import itertools
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from seeco.baselines import Strategy, StrategyKind, search_setup
from seeco.evaluator import (
    Chromosome,
    FLOOR_RTOL,
    EvalOptions,
    EvaluationResult,
    ServiceMode,
    better,
    cost_tables,
    deb_key,
    evaluate,
    exec_time,
    make_evaluator,
    min_cut,
    order_free_pass,
    timing_pass,
    write_schedule_csv,
)
from seeco.platform import (
    MD_LOCATION,
    AccessPoint,
    Platform,
    VmSpec,
    decode_location,
    default_platform,
    default_radio,
    downlink_rate,
    encode_location,
    uplink_rate,
)
from seeco.security import RiskModel, Service, default_catalog
from seeco.workflow import (
    GeneratorConfig,
    Task,
    Workflow,
    local_chromosome,
    random_workflow,
    with_deadline,
)

from reference_evaluator import reference_evaluate

CAT = default_catalog()
RISK = RiskModel()
PLATFORM = default_platform()


def random_topological_order(w, rng):
    remaining = set(range(w.n))
    done = set()
    order = []
    while remaining:
        ready = sorted(t for t in remaining if w.predecessors(t) <= done)
        t = rng.choice(ready)
        order.append(t)
        done.add(t)
        remaining.remove(t)
    return order


def random_chromosome(w, rng):
    n = w.n
    loc = [rng.randint(0x01, 0xFF) for _ in range(n)]
    loc[0] = loc[-1] = 0x01
    return Chromosome(
        order=tuple(random_topological_order(w, rng)),
        locations=tuple(loc),
        conf_levels=tuple(rng.randint(1, 5) for _ in range(n)),
        integ_levels=tuple(rng.randint(1, 5) for _ in range(n)),
    )


def random_instance(rng, max_n=8, max_servers=3):
    n = rng.randint(2, max_n)
    w = random_workflow(n, rng.uniform(0.1, 0.8), seed=rng.randrange(10**6),
                        risk_cap=rng.uniform(0.1, 1.0))
    w = with_deadline(w, rng.uniform(5.0, 60.0))
    p = default_platform(rng.randint(0, max_servers))
    return w, p, random_chromosome(w, rng)


def decode_chain(locations, outputs, platform=PLATFORM, levels=(1, 1),
                 options=EvalOptions()):
    """Timings of a chain 0 -> 1 -> ... whose task i sits on placement byte locations[i]."""
    n = len(locations)
    w = Workflow(tasks=tuple(Task(i, 0.0, out, 1.0) for i, out in enumerate(outputs)),
                 edges=tuple((i, i + 1) for i in range(n - 1)), deadline_s=1e6, risk_cap=1.0)
    c = Chromosome(tuple(range(n)), tuple(locations), (levels[0],) * n, (levels[1],) * n)
    return evaluate(c, w, platform, CAT, RISK, options).timings


def one_vm_aps(*vms):
    """The default MD and one access point per VM, byte 0xj1 addressing AP j."""
    return Platform(md=PLATFORM.md,
                    aps=tuple(AccessPoint(vms=(vm,), radio=default_radio()) for vm in vms))


class TestTransferTime:
    def test_same_ap_is_free(self):
        assert decode_chain([0x01, 0x11, 0x11, 0x01], [0.0, 100.0, 0.0, 0.0])[1].transfer == 0.0
        assert decode_chain([0x01, 0x01], [100.0, 0.0])[0].transfer == 0.0

    def test_md_to_edge_uses_uplink(self):
        # default uplink is exactly 7.5 MB/s
        timings = decode_chain([0x01, 0x11, 0x01], [15.0, 0.0, 0.0])
        assert timings[0].transfer == pytest.approx(2.0)

    def test_edge_to_edge_uses_backhaul(self):
        timings = decode_chain([0x01, 0x11, 0x21, 0x01], [0.0, 20.0, 0.0, 0.0])
        assert timings[1].transfer == pytest.approx(2.0)

    def test_edge_to_md_uses_downlink(self):
        expected = 10.0 / downlink_rate(PLATFORM.radio(2))
        timings = decode_chain([0x01, 0x21, 0x01], [0.0, 10.0, 0.0])
        assert timings[1].transfer == pytest.approx(expected)


class TestSecurityCosts:
    def test_encrypt_zero_payload(self):
        assert decode_chain([0x01, 0x11, 0x01], [0.0, 0.0, 0.0])[0].encrypt_cost == 0.0

    def test_encrypt_reference_pair(self):
        p = one_vm_aps(VmSpec(2.2, 1, 2.2))
        got = decode_chain([0x01, 0x11, 0x01], [0.0, 100.0, 0.0], p,
                           levels=(5, 5))[1].encrypt_cost  # RC4 + MD5
        assert got == pytest.approx(2.69 + 0.58, rel=0.005)

    def test_encrypt_strongest_pair_two_cores(self):
        p = one_vm_aps(VmSpec(2.2, 2, 2.2))
        got = decode_chain([0x01, 0x11, 0x01], [0.0, 100.0, 0.0], p,
                           levels=(1, 1))[1].encrypt_cost  # IDEA + TIGER
        assert got == pytest.approx((100 / 11.76 + 100 / 75.76) / 2, rel=1e-12)

    def test_decrypt_no_cross_ap_inputs(self):
        assert decode_chain([0x01, 0x01], [10.0, 10.0])[1].decrypt_cost == 0.0
        assert decode_chain([0x01, 0x11, 0x11, 0x01], [10.0] * 4)[2].decrypt_cost == 0.0

    def test_decrypt_equal_cores_rescales_frequency(self):
        producer = VmSpec(2.2, 4, 2.2)
        consumer = VmSpec(4.4, 4, 4.4)
        timings = decode_chain([0x01, 0x11, 0x21, 0x01], [0.0, 50.0, 0.0, 0.0],
                               one_vm_aps(producer, consumer), levels=(5, 5))
        enc, dec = timings[1].encrypt_cost, timings[2].decrypt_cost
        assert dec == pytest.approx(enc * producer.frequency_ghz / consumer.frequency_ghz,
                                    rel=1e-12)

    def test_decrypt_literal_core_ratio(self):
        p = one_vm_aps(VmSpec(2.2, 4, 2.2), VmSpec(2.2, 8, 2.2))
        got = decode_chain([0x01, 0x11, 0x21, 0x01], [0.0, 100.0, 0.0, 0.0], p,
                           levels=(5, 5))[2].decrypt_cost
        # (4/8) * (2.69 + 0.58) / 8, with speed-derived reference costs
        assert got == pytest.approx(0.20439715210457793, rel=1e-12)

    def test_decrypt_ratio_disabled(self):
        p = one_vm_aps(VmSpec(2.2, 4, 2.2), VmSpec(2.2, 8, 2.2))
        chain = ([0x01, 0x11, 0x21, 0x01], [0.0, 100.0, 0.0, 0.0], p, (5, 5))
        with_ratio = decode_chain(*chain)[2].decrypt_cost
        without = decode_chain(*chain, EvalOptions(decrypt_producer_core_ratio=False))
        assert without[2].decrypt_cost == pytest.approx(with_ratio * 2, rel=1e-12)


class TestExecTime:
    def test_unit(self):
        assert exec_time(2.36, VmSpec(2.36, 1, 2.36)) == pytest.approx(1.0)

    def test_zero_workload(self):
        assert exec_time(0.0, VmSpec(1.0, 1, 1.0)) == 0.0

    def test_reference_vm(self):
        assert exec_time(3.1, VmSpec(3.1, 8, 3.1)) == pytest.approx(1.0)


def md_chain_workflow():
    return Workflow(
        tasks=(Task(0, 10.0, 10.0, 2.36), Task(1, 10.0, 10.0, 2.36)),
        edges=((0, 1),),
        deadline_s=10.0,
        risk_cap=0.5,
    )


class TestEvaluate:
    def test_two_task_md_chain(self):
        w = md_chain_workflow()
        c = Chromosome((0, 1), (0x01, 0x01), (1, 1), (1, 1))
        res = evaluate(c, w, PLATFORM, CAT, RISK)
        assert res.makespan_s == pytest.approx(2.0)
        assert res.energy_j == pytest.approx(1.0)
        assert res.risk == 0.0
        assert res.feasible
        for row in res.timings:
            assert row.transfer == 0.0
            assert row.encrypt_cost == 0.0
            assert row.decrypt_cost == 0.0

    def test_all_md_closed_form(self):
        rng = random.Random(17)
        for _ in range(20):
            w = random_workflow(rng.randint(2, 9), 0.4, seed=rng.randrange(10**6))
            w = with_deadline(w, 1000.0)
            c = Chromosome(
                order=tuple(random_topological_order(w, rng)),
                locations=(0x01,) * w.n,
                conf_levels=tuple(rng.randint(1, 5) for _ in range(w.n)),
                integ_levels=tuple(rng.randint(1, 5) for _ in range(w.n)),
            )
            res = evaluate(c, w, PLATFORM, CAT, RISK)
            cap = PLATFORM.md.vm.capability_ghz
            expected = PLATFORM.md.p_comp_w * sum(
                t.workload_gcycles for t in w.tasks) / cap
            assert res.risk == 0.0
            assert res.energy_j == pytest.approx(expected, rel=1e-12)
            assert res.makespan_s == pytest.approx(
                sum(t.workload_gcycles for t in w.tasks) / cap, rel=1e-12)

    def test_offload_round_trip_hand_trace(self):
        # t0 (MD) -> t1 (AP1) -> t2 (MD), every quantity recomputed inline
        w = Workflow(
            tasks=(Task(0, 5.0, 15.0, 2.36), Task(1, 15.0, 10.0, 4.6),
                   Task(2, 10.0, 8.0, 2.36)),
            edges=((0, 1), (1, 2)),
            deadline_s=100.0,
            risk_cap=1.0,
        )
        c = Chromosome((0, 1, 2), (0x01, 0x10, 0x01), (5, 3, 1), (5, 2, 1))
        res = evaluate(c, w, PLATFORM, CAT, RISK)

        md, ap1 = PLATFORM.md.vm, PLATFORM.aps[0].vms[0]
        c_ul = uplink_rate(PLATFORM.aps[0].radio)
        c_dl = downlink_rate(PLATFORM.aps[0].radio)
        sp_cf = {i + 1: a.speed_mb_s for i, a in enumerate(CAT.confidentiality)}
        sp_ig = {i + 1: a.speed_mb_s for i, a in enumerate(CAT.integrity)}

        enc0 = 15.0 * 2.2 / (sp_cf[5] * 2.36 * 1) + 15.0 * 2.2 / (sp_ig[5] * 2.36 * 1)
        end0 = 1.0 + 15.0 / c_ul + enc0
        dec1 = (1 / 4) * (15.0 * 2.2 / (sp_cf[5] * 2.3 * 4)
                          + 15.0 * 2.2 / (sp_ig[5] * 2.3 * 4))
        enc1 = 10.0 * 2.2 / (sp_cf[3] * 2.3 * 4) + 10.0 * 2.2 / (sp_ig[2] * 2.3 * 4)
        end1 = end0 + dec1 + 4.6 / 2.3 + 10.0 / c_dl + enc1
        dec2 = (4 / 1) * (10.0 * 2.2 / (sp_cf[3] * 2.36 * 1)
                          + 10.0 * 2.2 / (sp_ig[2] * 2.36 * 1))
        end2 = end1 + dec2 + 1.0

        assert res.makespan_s == pytest.approx(end2, rel=1e-12)
        expected_energy = (0.5 * (1.0 + 1.0) + 0.1 * (15.0 / c_ul) + 0.05 * (10.0 / c_dl))
        assert res.energy_j == pytest.approx(expected_energy, rel=1e-12)

        surv0 = math.exp(-2.5 * (1 - 0.32)) * math.exp(-1.8 * (1 - 0.44))
        surv1 = math.exp(-2.5 * (1 - 0.53)) * math.exp(-1.8 * (1 - 0.75))
        assert res.risk == pytest.approx(1 - surv0 * surv1, rel=1e-12)

    def test_same_vm_serialization(self):
        # two independent middle tasks mapped to the same edge VM must serialize
        w = Workflow(
            tasks=(Task(0, 1.0, 1.0, 0.1), Task(1, 1.0, 1.0, 4.6),
                   Task(2, 1.0, 1.0, 4.6), Task(3, 1.0, 1.0, 0.1)),
            edges=((0, 1), (0, 2), (1, 3), (2, 3)),
            deadline_s=1000.0,
            risk_cap=1.0,
        )
        same = Chromosome((0, 1, 2, 3), (0x01, 0x10, 0x10, 0x01), (1,) * 4, (1,) * 4)
        split = Chromosome((0, 1, 2, 3), (0x01, 0x10, 0x20, 0x01), (1,) * 4, (1,) * 4)
        r_same = evaluate(same, w, PLATFORM, CAT, RISK)
        r_split = evaluate(split, w, PLATFORM, CAT, RISK)
        t1, t2 = r_same.timings[1], r_same.timings[2]
        assert t2.start >= t1.end or t1.start >= t2.end
        assert r_split.makespan_s < r_same.makespan_s

    def test_schedule_consistency_invariants(self):
        rng = random.Random(23)
        for _ in range(50):
            w, p, c = random_instance(rng)
            res = evaluate(c, w, p, CAT, RISK)
            for u, v in w.edges:
                assert res.timings[v].start >= res.timings[u].end - 1e-12
            for row in res.timings:
                parts = row.decrypt_cost + row.exec + row.transfer + row.encrypt_cost
                assert row.end - row.start == pytest.approx(parts, rel=1e-12, abs=1e-15)
            assert res.makespan_s == pytest.approx(
                max(r.end for r in res.timings), rel=1e-12)

    def test_stronger_levels_never_cheaper_in_time_or_riskier(self):
        rng = random.Random(5)
        for _ in range(30):
            w, p, c = random_instance(rng)
            res = evaluate(c, w, p, CAT, RISK)
            pos = rng.randrange(w.n)
            for vec in ("conf_levels", "integ_levels"):
                levels = list(getattr(c, vec))
                service = (Service.CONFIDENTIALITY if vec == "conf_levels"
                           else Service.INTEGRITY)
                current = CAT.algorithm(service, levels[pos])
                stronger = [a.id for a in CAT.algorithms(service)
                            if a.level > current.level]
                if not stronger:
                    continue
                levels[pos] = rng.choice(stronger)
                c2 = Chromosome(c.order, c.locations,
                                tuple(levels) if vec == "conf_levels" else c.conf_levels,
                                tuple(levels) if vec == "integ_levels" else c.integ_levels)
                res2 = evaluate(c2, w, p, CAT, RISK)
                assert res2.risk <= res.risk + 1e-12
                assert res2.makespan_s >= res.makespan_s - 1e-12

    def test_matches_reference_implementation(self):
        rng = random.Random(99)
        for _ in range(200):
            w, p, c = random_instance(rng)
            res = evaluate(c, w, p, CAT, RISK)
            t, e, r, v = reference_evaluate(c, w, p, CAT, RISK)
            assert math.isclose(res.makespan_s, t, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(res.energy_j, e, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(res.risk, r, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(res.violation, v, rel_tol=1e-9, abs_tol=1e-12)

    def test_service_mode_variants_match_reference(self):
        rng = random.Random(41)
        cases = [
            (EvalOptions(conf_mode=ServiceMode.UNPROTECTED, integ_mode=ServiceMode.UNPROTECTED),
             dict(conf_mode="unprotected", integ_mode="unprotected", ignore_risk_cap=True)),
            (EvalOptions(integ_mode=ServiceMode.DISABLED),
             dict(integ_mode="disabled")),
            (EvalOptions(conf_mode=ServiceMode.DISABLED),
             dict(conf_mode="disabled")),
            (EvalOptions(decrypt_producer_core_ratio=False),
             dict(producer_core_ratio=False)),
            (EvalOptions(conf_mode=ServiceMode.STRONGEST, integ_mode=ServiceMode.STRONGEST),
             dict(conf_mode="strongest", integ_mode="strongest")),
        ]
        for _ in range(50):
            w, p, c = random_instance(rng)
            for options, ref_kwargs in cases:
                res = evaluate(c, w, p, CAT, RISK, options)
                t, e, r, v = reference_evaluate(c, w, p, CAT, RISK, **ref_kwargs)
                assert math.isclose(res.makespan_s, t, rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(res.energy_j, e, rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(res.risk, r, rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(res.violation, v, rel_tol=1e-9, abs_tol=1e-12)

    def test_rejects_invalid_order(self):
        w = md_chain_workflow()
        c = Chromosome((1, 0), (0x01, 0x01), (1, 1), (1, 1))
        with pytest.raises(ValueError, match="precedence"):
            evaluate(c, w, PLATFORM, CAT, RISK)

    @pytest.mark.parametrize("short", range(4))
    def test_rejects_vectors_of_unequal_length(self, short):
        w = md_chain_workflow()
        genes = [(0, 1), (0x01, 0x01), (1, 1), (1, 1)]
        genes[short] = genes[short][:1]
        with pytest.raises(ValueError, match="same length"):
            evaluate(Chromosome(*genes), w, PLATFORM, CAT, RISK)

    def test_rejects_unpinned_endpoint(self):
        w = md_chain_workflow()
        c = Chromosome((0, 1), (0x01, 0x10), (1, 1), (1, 1))
        with pytest.raises(ValueError, match="pinned"):
            evaluate(c, w, PLATFORM, CAT, RISK)

    def test_rejects_bad_level_gene(self):
        w = md_chain_workflow()
        c = Chromosome((0, 1), (0x01, 0x01), (1, 6), (1, 1))
        with pytest.raises(ValueError, match="level gene"):
            evaluate(c, w, PLATFORM, CAT, RISK)

    @pytest.mark.parametrize("byte", [-1, 0, 0x100])
    def test_rejects_interior_placement_gene_outside_a_byte(self, byte):
        w = Workflow(tasks=tuple(Task(i, 10.0, 10.0, 2.36) for i in range(3)),
                     edges=((0, 1), (1, 2)), deadline_s=10.0, risk_cap=0.5)
        c = Chromosome((0, 1, 2), (0x01, byte, 0x01), (1, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="placement gene"):
            evaluate(c, w, PLATFORM, CAT, RISK)
        # the unvalidated decoder trusts its caller's genes
        if byte == -1:
            make_evaluator(w, PLATFORM, CAT, RISK, validate=False)(c)


@st.composite
def small_platforms(draw):
    """The default platforms, or 0-4 APs of 1-3 random VMs each."""
    if draw(st.booleans()):
        return default_platform(draw(st.integers(0, 4)))
    speed = st.floats(0.5, 4.0)
    vm = st.builds(VmSpec, frequency_ghz=speed, cores=st.integers(1, 16), capability_ghz=speed)
    aps = draw(st.lists(st.lists(vm, min_size=1, max_size=3), max_size=4))
    return Platform(md=default_platform(0).md,
                    aps=tuple(AccessPoint(tuple(vms), default_radio()) for vms in aps),
                    inter_ap_bandwidth_mb_s=draw(st.floats(1.0, 20.0)))


class TestScoreOnlyDecode:
    """``timing_pass(timeline=False)`` against the full decode and the reference."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), density=st.floats(0.1, 0.8), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.0, 1.0), deadline=st.floats(1.0, 80.0),
           platform=small_platforms(), genes=st.randoms(use_true_random=False),
           literal=st.booleans())
    def test_matches_full_decode_and_reference(self, n, density, seed, risk_cap, deadline,
                                               platform, genes, literal):
        w = with_deadline(random_workflow(n, density, seed=seed, risk_cap=risk_cap),
                          deadline)
        chromosomes = [random_chromosome(w, genes) for _ in range(3)]
        for kind in StrategyKind:
            options = search_setup(Strategy(kind, literal))
            tables = cost_tables(w, platform, CAT, RISK, options)
            exposure = order_free_pass(w, tables)
            timed = timing_pass(w, tables, timeline=False)
            full = make_evaluator(w, platform, CAT, RISK, options)
            for c in chromosomes:
                found = exposure(c)
                res, got = full(c), timed(c, found)
                assert got.timings == ()
                assert (got.makespan_s, got.energy_j, got.risk, got.violation,
                        got.feasible) == (res.makespan_s, res.energy_j, res.risk,
                                          res.violation, res.feasible)
                assert found.task_risk == [row.risk for row in res.timings]
                ref = reference_evaluate(
                    c, w, platform, CAT, RISK, conf_mode=options.conf_mode.value,
                    integ_mode=options.integ_mode.value,
                    producer_core_ratio=options.decrypt_producer_core_ratio,
                    ignore_risk_cap=options.ignore_risk_cap)
                for value, expected in zip(got[1:], ref):
                    assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)


class TestStrongestMode:
    """A ``STRONGEST`` service decodes as ``ACTIVE`` with its genes at the strongest id."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), density=st.floats(0.1, 0.8), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.0, 1.0), platform=small_platforms(),
           genes=st.randoms(use_true_random=False), service=st.sampled_from(Service),
           other_mode=st.sampled_from(ServiceMode), literal=st.booleans())
    def test_equals_active_at_the_strongest_id(self, n, density, seed, risk_cap, platform,
                                               genes, service, other_mode, literal):
        w = with_deadline(random_workflow(n, density, seed=seed, risk_cap=risk_cap), 30.0)
        c = random_chromosome(w, genes)
        strongest = (CAT.strongest_id(service),) * n
        if service is Service.CONFIDENTIALITY:
            pinned = Chromosome(c.order, c.locations, strongest, c.integ_levels)
            mode, others = "conf_mode", dict(integ_mode=other_mode)
        else:
            pinned = Chromosome(c.order, c.locations, c.conf_levels, strongest)
            mode, others = "integ_mode", dict(conf_mode=other_mode)
        got = evaluate(c, w, platform, CAT, RISK, EvalOptions(
            **{mode: ServiceMode.STRONGEST}, **others, decrypt_producer_core_ratio=literal))
        want = evaluate(pinned, w, platform, CAT, RISK, EvalOptions(
            **{mode: ServiceMode.ACTIVE}, **others, decrypt_producer_core_ratio=literal))
        assert repr(got) == repr(want)  # every float, timings included, bit for bit


class TestOrderFreePass:
    """The order-free pass alone finds the full decode's risk and at-risk tasks."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), density=st.floats(0.1, 0.8), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.0, 1.0), platform=small_platforms(),
           genes=st.randoms(use_true_random=False), literal=st.booleans())
    def test_matches_full_decode(self, n, density, seed, risk_cap, platform, genes, literal):
        w = with_deadline(random_workflow(n, density, seed=seed, risk_cap=risk_cap), 30.0)
        chromosomes = [random_chromosome(w, genes) for _ in range(3)]
        for kind in StrategyKind:
            options = search_setup(Strategy(kind, literal))
            tables = cost_tables(w, platform, CAT, RISK, options)
            exposure = order_free_pass(w, tables)
            full = make_evaluator(w, platform, CAT, RISK, options)
            for c in chromosomes:
                found, res = exposure(c), full(c)
                assert found.risk == res.risk
                assert found.task_risk == [row.risk for row in res.timings]
                # a task crosses when some successor sits on another access point
                ap = {t: decode_location(byte, platform)[0]
                      for t, byte in zip(c.order, c.locations)}
                assert found.crossing == [any(ap[s] != ap[t] for s in w.successors(t))
                                          for t in range(n)]
                ref = reference_evaluate(
                    c, w, platform, CAT, RISK, conf_mode=options.conf_mode.value,
                    integ_mode=options.integ_mode.value,
                    producer_core_ratio=options.decrypt_producer_core_ratio,
                    ignore_risk_cap=options.ignore_risk_cap)
                assert math.isclose(found.risk, ref[2], rel_tol=1e-9, abs_tol=1e-12)


class TestCostTables:
    """The cost model's parts that the timing pass and the deadline repair read."""

    @settings(max_examples=40, deadline=None)
    @given(platform=small_platforms(), literal=st.booleans())
    def test_dec_ratio_and_md_power(self, platform, literal):
        w = with_deadline(random_workflow(4, 0.5, seed=1), 30.0)
        tables = cost_tables(w, platform, CAT, RISK,
                             EvalOptions(decrypt_producer_core_ratio=literal))
        cores = [platform.md.vm.cores] + [vm.cores for ap in platform.aps for vm in ap.vms]
        assert [len(row) for row in tables.vms] == [5] * len(cores)
        assert tables.dec_ratio == tuple(
            tuple(cx / cy if literal else 1.0 for cy in cores) for cx in cores)
        md = platform.md
        assert tables.md_power == (md.p_comp_w, md.p_ul_w, md.p_dl_w)

    @pytest.mark.parametrize("mode", list(ServiceMode), ids=lambda m: m.value)
    def test_ladders(self, mode):
        w = with_deadline(random_workflow(4, 0.5, seed=1), 30.0)
        tables = cost_tables(w, PLATFORM, CAT, RISK, EvalOptions(mode, mode))
        for s, service in enumerate(Service):
            if mode is not ServiceMode.ACTIVE:
                assert tables.ladders[s] == ()
                continue
            algs = CAT.algorithms(service)
            assert len(tables.ladders[s]) == len(algs) + 1 and tables.ladders[s][0] == ()
            for a in algs:
                ladder = tables.ladders[s][a.id]
                # every faster algorithm, and only those, best gain first
                assert sorted(m[3] for m in ladder) == [
                    b.id for b in algs if b.speed_mb_s > a.speed_mb_s]
                gains = [m[0] for m in ladder]
                assert gains == sorted(gains, reverse=True)
                assert all(spent > 0.0 and saved > 0.0 for _, spent, saved, _ in ladder)

    def test_an_unprotected_service_ignores_the_cap(self):
        # the modes and the decryption ratio are the whole strategy
        assert [f.name for f in fields(EvalOptions)] == [
            "conf_mode", "integ_mode", "decrypt_producer_core_ratio"]
        with pytest.raises(TypeError):
            EvalOptions(ignore_risk_cap=True)
        w = with_deadline(random_workflow(4, 0.5, seed=1, risk_cap=0.3), 30.0)
        for conf_mode, integ_mode in itertools.product(ServiceMode, repeat=2):
            options = EvalOptions(conf_mode, integ_mode)
            unprotected = ServiceMode.UNPROTECTED in (conf_mode, integ_mode)
            assert options.ignore_risk_cap is unprotected
            tables = cost_tables(w, PLATFORM, CAT, RISK, options)
            assert tables.risk_cap == (1.0 if unprotected else 0.3)


@st.composite
def floor_platforms(draw):
    """:func:`small_platforms`, each access point with its own radio bandwidths."""
    platform = draw(small_platforms())
    bandwidth = st.floats(1.0, 40.0)
    return replace(platform, aps=tuple(
        replace(ap, radio=replace(ap.radio, b_ul_mhz=draw(bandwidth), b_dl_mhz=draw(bandwidth)))
        for ap in platform.aps))


def partition_energy(w, platform, on_md):
    """The device energy of running the tasks with ``on_md[t]`` on the MD, the rest
    on the edge, paying the best uplink and downlink per crossing edge."""
    md = platform.md
    up = max(uplink_rate(ap.radio) for ap in platform.aps)
    down = max(downlink_rate(ap.radio) for ap in platform.aps)
    energy = sum(md.p_comp_w * (t.workload_gcycles / md.vm.capability_ghz)
                 for t in w.tasks if on_md[t.id])
    for u, v in w.edges:
        beta = w.tasks[u].output_mb
        if on_md[u] and not on_md[v]:
            energy += md.p_ul_w * (beta / up)
        elif on_md[v] and not on_md[u]:
            energy += md.p_dl_w * (beta / down)
    return energy


class TestEnergyFloor:
    """``min_cut``'s floor is below every decode and is the least partition energy."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), density=st.floats(0.1, 0.9), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.0, 1.0), platform=floor_platforms(),
           genes=st.randoms(use_true_random=False), literal=st.booleans())
    def test_no_decode_is_below_the_floor(self, n, density, seed, risk_cap, platform,
                                          genes, literal):
        w = with_deadline(random_workflow(n, density, seed=seed, risk_cap=risk_cap), 30.0)
        chromosomes = [random_chromosome(w, genes) for _ in range(3)]
        # every interior task on one VM: the decodes nearest the floor
        for ap in range(platform.num_aps + 1):
            for k in range(1, platform.vm_count(ap) + 1):
                c = chromosomes[0]
                loc = (MD_LOCATION,) + (encode_location(ap, k),) * (n - 2) + (MD_LOCATION,)
                chromosomes.append(Chromosome(c.order, loc, c.conf_levels,
                                              c.integ_levels))
        for kind in StrategyKind:
            options = search_setup(Strategy(kind, literal))
            floor = min_cut(w, cost_tables(w, platform, CAT, RISK, options))[0]
            for c in chromosomes:
                energy = evaluate(c, w, platform, CAT, RISK, options).energy_j
                assert energy >= floor * (1.0 - FLOOR_RTOL), (kind, c)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 10), density=st.floats(0.1, 0.9), seed=st.integers(0, 10**6),
           platform=floor_platforms(), data=st.floats(0.1, 60.0),
           load=st.floats(0.5, 20.0))
    def test_equals_brute_force_over_partitions(self, n, density, seed, platform, data, load):
        cfg = GeneratorConfig(data_range_mb=(0.0, data), workload_range_gcycles=(0.1, load))
        w = with_deadline(random_workflow(n, density, cfg, seed=seed), 30.0)
        floor = min_cut(w, cost_tables(w, platform, CAT, RISK))[0]
        if platform.num_aps == 0:
            all_md = evaluate(local_chromosome(w, CAT), w, platform, CAT, RISK).energy_j
            assert math.isclose(floor, all_md, rel_tol=FLOOR_RTOL)
            return
        least = min(partition_energy(w, platform, (True,) + interior + (True,))
                    for interior in itertools.product((True, False), repeat=n - 2))
        assert math.isclose(floor, least, rel_tol=FLOOR_RTOL)

    def test_reached_by_one_access_point(self):
        # equal radios: the least partition is a schedule, all its edge tasks on AP 1
        w = with_deadline(random_workflow(10, 0.3, seed=4), 30.0)
        floor = min_cut(w, cost_tables(w, PLATFORM, CAT, RISK))[0]
        best = min(
            evaluate(Chromosome(tuple(range(10)), (MD_LOCATION,) + tuple(
                MD_LOCATION if md else 0x11 for md in interior) + (MD_LOCATION,),
                (1,) * 10, (1,) * 10), w, PLATFORM, CAT, RISK).energy_j
            for interior in itertools.product((True, False), repeat=8))
        assert math.isclose(floor, best, rel_tol=FLOOR_RTOL)
        assert floor < evaluate(local_chromosome(w, CAT), w, PLATFORM, CAT, RISK).energy_j


class TestViolationAndDeb:
    def test_feasible_point(self):
        res = evaluate(Chromosome((0, 1), (0x01, 0x01), (1, 1), (1, 1)),
                       md_chain_workflow(), PLATFORM, CAT, RISK)
        assert res.violation == 0.0 and res.feasible

    def test_deadline_slack(self):
        # two 6 s tasks on the MD against a 10 s deadline
        w = Workflow(tasks=(Task(0, 1.0, 1.0, 6 * 2.36), Task(1, 1.0, 1.0, 6 * 2.36)),
                     edges=((0, 1),), deadline_s=10.0, risk_cap=0.5)
        res = evaluate(Chromosome((0, 1), (0x01, 0x01), (1, 1), (1, 1)), w, PLATFORM, CAT, RISK)
        assert res.violation == pytest.approx(2.0)

    def test_both_terms_sum(self):
        w = Workflow(tasks=tuple(Task(i, 10.0, 10.0, 2.0) for i in range(3)),
                     edges=((0, 1), (1, 2)), deadline_s=0.5, risk_cap=0.0)
        res = evaluate(Chromosome((0, 1, 2), (0x01, 0x11, 0x01), (5, 5, 5), (5, 5, 5)),
                       w, PLATFORM, CAT, RISK)
        assert res.makespan_s > 0.5 and res.risk > 0.0
        assert res.violation == pytest.approx(res.makespan_s - 0.5 + res.risk)

    @staticmethod
    def result(feasible, energy=1.0, viol=0.0):
        return EvaluationResult(timings=(), makespan_s=1.0, energy_j=energy,
                                risk=0.0, violation=viol, feasible=feasible)

    def test_lower_energy_wins_when_both_feasible(self):
        assert better(self.result(True, energy=5.0), self.result(True, energy=7.0))
        assert not better(self.result(True, energy=7.0), self.result(True, energy=5.0))

    def test_feasible_always_beats_infeasible(self):
        assert better(self.result(True, energy=100.0), self.result(False, viol=0.01))
        assert not better(self.result(False, viol=0.01), self.result(True, energy=100.0))

    def test_lower_violation_wins_when_both_infeasible(self):
        assert not better(self.result(False, viol=0.4), self.result(False, viol=0.2))
        assert better(self.result(False, viol=0.2), self.result(False, viol=0.4))

    def test_tie_goes_to_first(self):
        assert better(self.result(True, energy=5.0), self.result(True, energy=5.0))

    def test_deb_key_sorts_consistently(self):
        pool = [self.result(False, viol=0.3), self.result(True, energy=9.0),
                self.result(True, energy=2.0), self.result(False, viol=0.1)]
        ranked = sorted(pool, key=deb_key)
        assert [r.energy_j for r in ranked[:2]] == [2.0, 9.0]
        assert [r.violation for r in ranked[2:]] == [0.1, 0.3]


class TestScheduleDump:
    def test_csv_schema(self, tmp_path):
        w = md_chain_workflow()
        c = Chromosome((0, 1), (0x01, 0x01), (1, 1), (1, 1))
        res = evaluate(c, w, PLATFORM, CAT, RISK)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,ap,vm,start,end,exec,transfer,ecost,decost,risk"
        assert len(lines) == 3
        assert lines[1].startswith("0,0,1,")
