import dataclasses
import graphlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import seeco.evaluator
from seeco.evaluator import FLOOR_RTOL, cost_tables, evaluate, min_cut
from seeco.platform import (
    MD_LOCATION,
    AccessPoint,
    MobileDevice,
    Platform,
    RadioParams,
    VmSpec,
    default_platform,
)
from seeco.security import RiskModel, Service, default_catalog
from seeco.workflow import (
    GeneratorConfig,
    Task,
    Workflow,
    canonical_order,
    compute_deadline,
    greedy_witness,
    is_valid_order,
    list_schedule,
    load_workflow,
    local_chromosome,
    random_workflow,
    save_workflow,
    with_deadline,
    with_risk_cap,
)

CAT = default_catalog()
# the acceptance suite's offload-friendly generator
OFFLOAD_FRIENDLY = GeneratorConfig(data_range_mb=(2.0, 10.0),
                                   workload_range_gcycles=(5.0, 15.0))


def make_tasks(n, workload=2.0, data=10.0):
    return tuple(Task(i, data, data, workload) for i in range(n))


def chain(n=3, **kw):
    return Workflow(tasks=make_tasks(n, **kw),
                    edges=tuple((i, i + 1) for i in range(n - 1)),
                    deadline_s=100.0, risk_cap=0.5)


def diamond():
    return Workflow(tasks=make_tasks(4), edges=((0, 1), (0, 2), (1, 3), (2, 3)),
                    deadline_s=100.0, risk_cap=0.5)


def md_only_platform(capability=2.36):
    return Platform(
        md=MobileDevice(vm=VmSpec(capability, 1, capability),
                        p_comp_w=0.5, p_ul_w=0.1, p_dl_w=0.05),
        aps=(),
    )


def _nan_cases():
    """Each float field a constructor checks, as a function building it from one value."""
    plat, task = default_platform(1), make_tasks(1)[0]
    fields = [
        *((task, name) for name in ("input_mb", "output_mb", "workload_gcycles")),
        *((plat.md.vm, name) for name in ("frequency_ghz", "capability_ghz")),
        *((plat.aps[0].radio, f.name) for f in dataclasses.fields(RadioParams)),
        *((plat.md, name) for name in ("p_comp_w", "p_ul_w", "p_dl_w")),
        (plat, "inter_ap_bandwidth_mb_s"),
        (chain(), "deadline_s"),
        (CAT.algorithms(Service.CONFIDENTIALITY)[0], "speed_mb_s"),
    ]
    cases = {f"{type(obj).__name__}.{name}":
             lambda x, obj=obj, name=name: dataclasses.replace(obj, **{name: x})
             for obj, name in fields}
    cases["with_deadline"] = lambda x: with_deadline(chain(), x)
    return cases


NAN_CASES = _nan_cases()
# every float field but the deadline, which may be +inf (random_workflow)
FINITE_CASES = {name: build for name, build in NAN_CASES.items() if "deadline" not in name}
FINITE_CASES["CryptoAlgorithm.level"] = lambda x: dataclasses.replace(
    CAT.algorithms(Service.CONFIDENTIALITY)[0], level=x)
FINITE_CASES["Workflow.risk_cap"] = lambda x: dataclasses.replace(chain(), risk_cap=x)


class TestAdjacency:
    def test_entry_has_no_predecessors(self):
        assert chain().predecessors(0) == frozenset()

    def test_chain_predecessors(self):
        assert chain().predecessors(2) == {1}

    def test_diamond_join(self):
        assert diamond().predecessors(3) == {1, 2}

    def test_successors(self):
        assert diamond().successors(0) == {1, 2}

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            chain().predecessors(3)


class TestValidation:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Workflow(tasks=make_tasks(3), edges=((0, 1), (1, 2), (2, 1)),
                     deadline_s=1.0, risk_cap=0.5)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_cycle_iff_graphlib_finds_one(self, data, n):
        # graphlib is only the oracle here: Workflow runs its own Kahn pass
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pair, max_size=3 * n))
        preds = {i: {u for u, v in edges if v == i} for i in range(n)}
        try:
            list(graphlib.TopologicalSorter(preds).static_order())
            cyclic = False
        except graphlib.CycleError:
            cyclic = True
        try:
            Workflow(tasks=make_tasks(n), edges=tuple(edges), deadline_s=1.0, risk_cap=0.5)
        except ValueError as exc:
            assert ("cycle" in str(exc)) is cyclic, str(exc)
        else:
            assert not cyclic

    def test_cycle_message_names_a_cycle(self):
        with pytest.raises(ValueError, match=r"cycle: \[1, 2, 3, 1\]"):
            Workflow(tasks=make_tasks(5), edges=((0, 1), (1, 2), (2, 3), (3, 1), (3, 4)),
                     deadline_s=1.0, risk_cap=0.5)

    def test_rejects_second_entry(self):
        # task 1 has no predecessors
        with pytest.raises(ValueError, match="entry"):
            Workflow(tasks=make_tasks(3), edges=((0, 2), (1, 2)),
                     deadline_s=1.0, risk_cap=0.5)

    def test_rejects_second_exit(self):
        with pytest.raises(ValueError, match="exit"):
            Workflow(tasks=make_tasks(3), edges=((0, 1), (0, 2)),
                     deadline_s=1.0, risk_cap=0.5)

    def test_rejects_bad_edge_endpoint(self):
        with pytest.raises(ValueError, match="missing task"):
            Workflow(tasks=make_tasks(2), edges=((0, 5),), deadline_s=1.0, risk_cap=0.5)

    @pytest.mark.parametrize("edge", [(0.9, 1.7), (0, True)], ids=["fraction", "bool"])
    def test_rejects_non_integral_edge_endpoint(self, edge):
        with pytest.raises(ValueError, match="expected an integer"):
            Workflow(tasks=make_tasks(2), edges=(edge,), deadline_s=1.0, risk_cap=0.5)

    def test_single_task_workflow_is_legal(self):
        w = Workflow(tasks=make_tasks(1), edges=(), deadline_s=1.0, risk_cap=0.5)
        assert w.n == 1

    @pytest.mark.parametrize("build", NAN_CASES.values(), ids=NAN_CASES.keys())
    def test_rejects_nan(self, build):
        build(1.0)
        with pytest.raises(ValueError):
            build(math.nan)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", FINITE_CASES.values(), ids=FINITE_CASES.keys())
    def test_rejects_non_finite(self, build, x):
        build(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            build(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("obj, name", [
        (make_tasks(1)[0], "id"), (default_platform(0).md.vm, "cores"),
        (CAT.algorithms(Service.INTEGRITY)[0], "id")], ids=["Task", "VmSpec", "CryptoAlgorithm"])
    def test_integer_fields_reject_non_finite(self, obj, name, x):
        with pytest.raises(ValueError, match="expected an integer"):
            dataclasses.replace(obj, **{name: x})

    def test_constructors_store_what_they_read(self):
        # numeric strings and booleans read as finite_float and exact_int read them
        task = Task(2.0, "1.5", True, 3)
        assert (task.id, task.input_mb, task.output_mb, task.workload_gcycles) == (2, 1.5, 1.0, 3.0)
        assert [type(v) for v in dataclasses.astuple(task)] == [int, float, float, float]
        vm = VmSpec("2.5", 4.0, 3)
        assert dataclasses.astuple(vm) == (2.5, 4, 3.0) and type(vm.cores) is int
        assert type(dataclasses.replace(chain(), risk_cap=1).risk_cap) is float

    def test_infinite_deadline_is_legal(self):
        w = random_workflow(4, 0.5, seed=1)  # its deadline is +inf
        assert w.deadline_s == math.inf
        assert with_deadline(with_deadline(w, 1.0), math.inf).deadline_s == math.inf

    def test_rejects_bad_risk_cap(self):
        with pytest.raises(ValueError):
            Workflow(tasks=make_tasks(2), edges=((0, 1),), deadline_s=1.0, risk_cap=1.5)

    def test_frozen(self):
        w = Workflow(tasks=make_tasks(2), edges=((0, 1),), deadline_s=1.0, risk_cap=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.deadline_s = 2.0
        later = with_deadline(w, 2.0)
        assert (w.deadline_s, later.deadline_s) == (1.0, 2.0)
        assert later.successors(0) == w.successors(0) == {1}


class TestWithDeadline:
    def test_equals_replace(self):
        w = random_workflow(15, 0.3, seed=8)
        got, want = with_deadline(w, 12.5), dataclasses.replace(w, deadline_s=12.5)
        assert got == want
        for i in range(w.n):
            assert got.predecessors(i) == want.predecessors(i)
            assert got.successors(i) == want.successors(i)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_deadline(self, bad):
        w = random_workflow(4, 0.5, seed=1)
        with pytest.raises(ValueError) as from_constructor:
            dataclasses.replace(w, deadline_s=bad)
        with pytest.raises(ValueError, match="deadline must be positive") as from_copy:
            with_deadline(w, bad)
        assert str(from_copy.value) == str(from_constructor.value)

    def test_leaves_the_original_unchanged(self):
        w = random_workflow(6, 0.4, seed=2)
        before = (w.tasks, w.edges, w.deadline_s, w.risk_cap,
                  [w.predecessors(i) for i in range(w.n)])
        with_deadline(w, 3.0)
        assert (w.tasks, w.edges, w.deadline_s, w.risk_cap,
                [w.predecessors(i) for i in range(w.n)]) == before


class TestWithRiskCap:
    @pytest.mark.parametrize("cap", [0.0, 0.3, 1.0, 1], ids=["zero", "inside", "one", "int"])
    def test_equals_replace_and_shares_the_graph(self, cap):
        w = random_workflow(15, 0.3, seed=8, risk_cap=0.5)
        got, want = with_risk_cap(w, cap), dataclasses.replace(w, risk_cap=cap)
        assert got == want and type(got.risk_cap) is type(want.risk_cap) is float
        assert (got.deadline_s, got.risk_cap) == (w.deadline_s, cap)
        assert got._preds is w._preds and got._succs is w._succs and got._order is w._order

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "non-finite"),
        (-0.1, r"risk cap must be in \[0, 1\]"), (1.1, r"risk cap must be in \[0, 1\]"),
    ])
    def test_refuses_what_the_constructor_refuses(self, bad, message):
        w = random_workflow(4, 0.5, seed=1)
        with pytest.raises(ValueError) as from_constructor:
            dataclasses.replace(w, risk_cap=bad)
        with pytest.raises(ValueError, match=message) as from_copy:
            with_risk_cap(w, bad)
        assert str(from_copy.value) == str(from_constructor.value)

    def test_leaves_the_original_unchanged(self):
        w = random_workflow(6, 0.4, seed=2, risk_cap=0.5)
        assert with_risk_cap(w, 0.2).risk_cap == 0.2
        assert w.risk_cap == 0.5


class TestOrderValidity:
    def test_chain_identity(self):
        assert is_valid_order(chain(), [0, 1, 2])

    def test_chain_swapped(self):
        assert not is_valid_order(chain(), [0, 2, 1])

    def test_diamond_both_interleavings(self):
        assert is_valid_order(diamond(), [0, 2, 1, 3])
        assert is_valid_order(diamond(), [0, 1, 2, 3])

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            is_valid_order(chain(), [0, 1, 1])

    def test_canonical_order_is_valid_and_deterministic(self):
        w = random_workflow(12, 0.3, seed=3)
        assert is_valid_order(w, canonical_order(w))
        assert canonical_order(w) == canonical_order(w)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 14), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 10**6))
    def test_stored_order_is_smallest_ready_first(self, data, n, density, seed):
        # relabel the interior tasks, so that an edge may run from a larger
        # index to a smaller one; the entry and exit keep theirs
        label = [0, *data.draw(st.permutations(range(1, n - 1))), n - 1]
        edges = [(label[u], label[v]) for u, v in random_workflow(n, density, seed=seed).edges]
        w = Workflow(tasks=make_tasks(n), edges=tuple(edges), deadline_s=1.0, risk_cap=0.5)
        want: list[int] = []
        while len(want) < n:  # Kahn, the slow way: the smallest task whose predecessors are out
            want.append(min(t for t in range(n) if t not in want
                            and all(u in want for u, v in edges if v == t)))
        got = canonical_order(w)
        assert got == want
        assert is_valid_order(w, got)
        assert canonical_order(with_deadline(w, 2.0)) == want
        assert canonical_order(dataclasses.replace(w, deadline_s=3.0)) == want
        got.append(n)  # each call returns a fresh list
        assert canonical_order(w) == want


class TestGenerator:
    def test_two_tasks_forced_chain(self):
        for density in (0.0, 0.5, 1.0):
            w = random_workflow(2, density, seed=11)
            assert w.edges == ((0, 1),)

    def test_invariants_hold(self):
        w = random_workflow(10, 0.3, seed=42)
        assert w.n == 10
        assert w.predecessors(0) == frozenset()
        assert w.successors(9) == frozenset()
        for i in range(1, 10):
            assert w.predecessors(i)
        for i in range(9):
            assert w.successors(i)
        cfg = GeneratorConfig()
        for t in w.tasks:
            assert cfg.data_range_mb[0] <= t.input_mb <= cfg.data_range_mb[1]
            assert cfg.data_range_mb[0] <= t.output_mb <= cfg.data_range_mb[1]
            lo, hi = cfg.workload_range_gcycles
            assert lo <= t.workload_gcycles <= hi

    def test_deterministic(self):
        assert random_workflow(10, 0.3, seed=42) == random_workflow(10, 0.3, seed=42)
        assert random_workflow(10, 0.3, seed=42) != random_workflow(10, 0.3, seed=43)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_workflow(1, 0.5)

    @pytest.mark.parametrize("n, seed", [
        (6.5, 3), (True, 3), (math.inf, 3),
        (6, math.nan), (6, 2.5), (6, True), (6, "3")])
    def test_count_and_seed_are_whole_numbers(self, n, seed):
        # a NaN seed would seed the stream from the object's identity
        with pytest.raises(ValueError, match="expected an integer"):
            random_workflow(n, 0.4, seed=seed)

    def test_integral_floats_read_as_ints(self):
        assert random_workflow(6.0, 0.4, seed=3.0) == random_workflow(6, 0.4, seed=3)

    @pytest.mark.parametrize("data, load", [
        ((5.0, math.inf), (1.0, 10.0)),
        ((5.0, 50.0), (1.0, math.inf)),
        ((math.inf, math.inf), (1.0, 10.0)),
        ((5.0, 50.0), (math.nan, 10.0)),
        ((5.0, math.nan), (1.0, 10.0)),
    ])
    def test_rejects_non_finite_bounds(self, data, load):
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(data_range_mb=data, workload_range_gcycles=load)

    @pytest.mark.parametrize("bounds", [(1.0,), (1.0, 2.0, 3.0), ()])
    def test_rejects_a_range_that_is_not_a_pair(self, bounds):
        with pytest.raises(ValueError, match="generator ranges"):
            GeneratorConfig(data_range_mb=bounds)
        with pytest.raises(ValueError, match="generator ranges"):
            GeneratorConfig(workload_range_gcycles=bounds)

    def test_ranges_are_stored_as_tuples(self):
        cfg = GeneratorConfig(data_range_mb=[5.0, 50.0], workload_range_gcycles=[1.0, 10.0])
        assert cfg.data_range_mb == (5.0, 50.0) and cfg.workload_range_gcycles == (1.0, 10.0)
        assert hash(cfg) == hash(GeneratorConfig())

    def test_rejects_zero_workload_range(self):
        with pytest.raises(ValueError, match="workload upper bound must be positive"):
            GeneratorConfig(workload_range_gcycles=(0.0, 0.0))
        GeneratorConfig(data_range_mb=(0.0, 0.0), workload_range_gcycles=(0.0, 1.0))

    def test_custom_ranges(self):
        cfg = GeneratorConfig(data_range_mb=(1.0, 2.0), workload_range_gcycles=(5.0, 6.0))
        w = random_workflow(6, 0.4, gen_cfg=cfg, seed=1)
        for t in w.tasks:
            assert 1.0 <= t.input_mb <= 2.0
            assert 5.0 <= t.workload_gcycles <= 6.0


class TestDeadline:
    def test_single_task(self):
        w = Workflow(tasks=(Task(0, 10.0, 10.0, 2.36),), edges=(),
                     deadline_s=math.inf, risk_cap=0.5)
        assert compute_deadline(w, md_only_platform(2.36), CAT) == pytest.approx(1.0)

    def test_chain_on_md_only(self):
        k, omega, cap = 5, 3.0, 2.0
        w = chain(k, workload=omega)
        assert compute_deadline(w, md_only_platform(cap), CAT) == pytest.approx(k * omega / cap)

    def test_bounds_ordering(self):
        for seed in range(5):
            w = random_workflow(12, 0.3, seed=seed)
            p = default_platform()
            serial = sum(t.workload_gcycles for t in w.tasks) / p.md.vm.capability_ghz
            t_d = compute_deadline(w, p, CAT)
            assert t_d <= serial + 1e-12
            assert t_d > 0

    def test_deterministic(self):
        w = random_workflow(15, 0.25, seed=9)
        p = default_platform()
        assert compute_deadline(w, p, CAT) == compute_deadline(w, p, CAT)

    def test_builds_its_cost_tables_once(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return cost_tables(*args, **kwargs)

        monkeypatch.setattr(seeco.evaluator, "cost_tables", counted)
        w = random_workflow(12, 0.3, OFFLOAD_FRIENDLY, seed=3)
        compute_deadline(w, default_platform(), CAT)
        assert len(built) == 1  # the witness is priced from the calibration's tables


def assert_deadline_reachable(w, p):
    """Some bound schedule meets the deadline; all-MD does when the witness is slower."""
    deadline = compute_deadline(w, p, CAT)
    w = with_deadline(w, deadline)
    all_md = evaluate(local_chromosome(w, CAT), w, p, CAT, RiskModel())
    witness = evaluate(greedy_witness(w, p, CAT), w, p, CAT, RiskModel())
    assert min(all_md.makespan_s, witness.makespan_s) <= deadline
    if witness.makespan_s >= all_md.makespan_s:
        # the deadline degenerates to the serial bound, ulp for ulp
        assert deadline == all_md.makespan_s
        assert all_md.feasible


class TestDeadlineReachable:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 10**6), offload_friendly=st.booleans(),
           servers=st.integers(0, 4), md_ghz=st.floats(0.3, 6.0))
    def test_random_instances(self, n, density, seed, offload_friendly, servers, md_ghz):
        cfg = OFFLOAD_FRIENDLY if offload_friendly else GeneratorConfig()
        w = random_workflow(n, density, cfg, seed=seed)
        p = Platform(md=MobileDevice(vm=VmSpec(md_ghz, 1, md_ghz),
                                     p_comp_w=0.5, p_ul_w=0.1, p_dl_w=0.05),
                     aps=default_platform(servers).aps)
        assert_deadline_reachable(w, p)

    @pytest.mark.parametrize("n", [10, 30, 50])
    def test_acceptance_instances(self, n):
        w = random_workflow(n, 0.3, OFFLOAD_FRIENDLY, seed=7)
        assert_deadline_reachable(w, default_platform())


def random_multi_vm_platform(rng):
    """1-4 APs of 1-4 VMs with mixed clocks, cores, radios and backhaul."""
    md_ghz = rng.uniform(0.5, 2.5)
    md = MobileDevice(VmSpec(md_ghz, rng.choice((1, 2)), md_ghz), 0.5, 0.1, 0.05)
    aps = []
    for _ in range(rng.randint(1, 4)):
        vms = []
        for _ in range(rng.randint(1, 4)):
            f = rng.uniform(2.0, 6.0)
            vms.append(VmSpec(f, rng.choice((1, 2, 4, 8, 16)), f * rng.uniform(0.8, 1.0)))
        radio = RadioParams(b_ul_mhz=rng.uniform(10.0, 80.0), b_dl_mhz=rng.uniform(10.0, 80.0),
                            p_tx_w=0.1, p_ap_w=1.0, h_ul=rng.uniform(1e-8, 1e-7),
                            h_dl=rng.uniform(1e-8, 1e-7), noise_w=1e-9)
        aps.append(AccessPoint(tuple(vms), radio))
    return Platform(md, tuple(aps), inter_ap_bandwidth_mb_s=rng.uniform(5.0, 50.0))


def calibration_instances():
    """The acceptance instances, the benchmark's 50-task pool, and ten random ones."""
    cases = [(random_workflow(n, 0.3, OFFLOAD_FRIENDLY, seed=7), default_platform())
             for n in (10, 30, 50)]
    cases += [(random_workflow(50, 0.3, OFFLOAD_FRIENDLY, seed=s), default_platform())
              for s in range(1, 5)]
    rng = random.Random(1)
    light = GeneratorConfig(data_range_mb=(0.5, 3.0), workload_range_gcycles=(5.0, 30.0))
    for _ in range(10):
        cfg = rng.choice((OFFLOAD_FRIENDLY, light))
        w = random_workflow(rng.randint(5, 40), rng.uniform(0.1, 0.5), cfg,
                            seed=rng.randrange(10**6))
        cases.append((w, random_multi_vm_platform(rng)))
    return cases


# compute_deadline of each calibration instance, recorded before the greedy
# witness read the decoder's cost tables; 8 of the 10 random ones are not
# degenerate (the witness beats the all-MD schedule)
PINNED_DEADLINES = [
    39.713090445059066, 126.28295212600086, 207.8278403355169,
    202.86138822825873, 215.90262049572473, 223.55568827634735, 197.33117246127426,
    33.407770931656046, 206.21408089499067, 211.9785446510914, 209.4276435381171,
    316.5742403721207, 122.28922044631678, 62.35951472257024, 40.82763082502147,
    77.60294836638087, 122.93255729263227,
]


def test_calibration_pinned():
    got = [compute_deadline(w, p, CAT) for w, p in calibration_instances()]
    assert got == PINNED_DEADLINES


# greedy_witness's placement genes (hex, in order position) for each
# calibration instance, recorded before the witness kept each placed task's
# arrival times and decryption seconds; its order is the canonical one and
# every level gene is the strongest
PINNED_WITNESS_LOCATIONS = [
    '01210111210111312101',
    '012101011121012131213121211121312131213111211121213121013101',
    '0121012121211121113121210131010121312121213111312131213111212121213121213121212121113121112111313101',
    '0101212131110121212121313111213121213111011131312111311121312121212131112131212131113121212131213101',
    '0101211101312121112121311121213111312111312121311131211121312131212121213121112131212131312121311101',
    '0101010121211131312131213121213111211131213121312121312131213121312111312111313111212121313121312101',
    '0121012111311121311121311121213121311121313121112111211121213121313121313121311111212131213121311101',
    '014234312121422101',
    '0133221322133321223122131221333331133211323312113322131333333333331301',
    '01131211131213131112121113121112131211131213121111131213111312111213131301',
    '011211111201111112121111120111121101121112111201111211011211121101',
    '0111112122242221232231112124112222112421222111112221112301',
    '013131233223122123312323233131312301',
    '01111211121112110101111101',
    '01111121012111211101',
    '012131311211312112212101',
    '0113131313131213121313121313111312131112131101',
]


def test_witness_pinned():
    strongest = (CAT.strongest_id(Service.CONFIDENTIALITY), CAT.strongest_id(Service.INTEGRITY))
    for (w, p), locations in zip(calibration_instances(), PINNED_WITNESS_LOCATIONS, strict=True):
        c = greedy_witness(w, p, CAT)
        assert c.order == tuple(canonical_order(w))
        assert bytes(c.locations).hex() == locations
        assert (set(c.conf_levels), set(c.integ_levels)) == ({strongest[0]}, {strongest[1]})


# the same, with the decryption core ratio off; recorded from the witness
# priced over cost tables built with decrypt_producer_core_ratio=False
PINNED_WITNESS_LOCATIONS_RATIO_OFF = [
    '01210111210111312101',
    '012101011121012131213121210121312131213111012121213121013101',
    '0121012121210101213121211131111121312121211131312131213111112121213121213121212121113121111101212101',
    '0101212111013121212121313111213121213111011111211131213101213121212131112111212131111121212131213101',
    '0101213101112101312101311121213101311101212121113131311121112111212121213121112131212131312121311101',
    '0101010121213111112131213121213101211101213121312121112131211121312111010131112131212121311131212101',
    '0121012111311121311121311121213121310111212111312131312131311121011121313121311111212131213121113101',
    '014234213142314201',
    '0133221322133331223222311213333332132111013322313322131333333333331301',
    '01131211131213131112121113121112131211131213121111131213111301121113131301',
    '011211111211011112121111120111121101121112110112121111121101111201',
    '0111112122242221232231112124112221112224212411112221112301',
    '013131233223321223122323233131312301',
    '01111211121112011111121101',
    '01111121012111211101',
    '012131311211312112212101',
    '0113131313131213121313121313111312131112131101',
]


def test_witness_pinned_ratio_off():
    strongest = (CAT.strongest_id(Service.CONFIDENTIALITY), CAT.strongest_id(Service.INTEGRITY))
    pins = zip(calibration_instances(), PINNED_WITNESS_LOCATIONS_RATIO_OFF, strict=True)
    for (w, p), locations in pins:
        c = greedy_witness(w, p, CAT, decrypt_producer_core_ratio=False)
        assert c.order == tuple(canonical_order(w))
        assert bytes(c.locations).hex() == locations
        assert (set(c.conf_levels), set(c.integ_levels)) == ({strongest[0]}, {strongest[1]})


class TestMinCutPartition:
    """The min cut's MD side, list-scheduled with every other task on the edge, is at the floor."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 60), density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6),
           offload_friendly=st.booleans(), servers=st.integers(1, 5))
    def test_partition_schedule_reaches_the_floor(self, n, density, seed, offload_friendly,
                                                  servers):
        cfg = OFFLOAD_FRIENDLY if offload_friendly else GeneratorConfig()
        w = random_workflow(n, density, cfg, seed=seed)
        p = default_platform(servers)  # equal radios: every AP has the best rates
        tables = cost_tables(w, p, CAT, RiskModel())
        floor, md_side = min_cut(w, tables)
        assert {0, n - 1} <= md_side
        rows = [tables.vms[:1] if t in md_side else tables.vms[1:] for t in range(n)]
        c = list_schedule(w, tables, CAT, rows)
        assert {t for t, byte in zip(c.order, c.locations) if byte == MD_LOCATION} == md_side
        energy = evaluate(c, w, p, CAT, RiskModel()).energy_j
        assert math.isclose(energy, floor, rel_tol=FLOOR_RTOL)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        w = random_workflow(8, 0.4, seed=5, risk_cap=0.3)
        w = with_deadline(w, 42.5)
        path = tmp_path / "wf.json"
        save_workflow(w, path)
        assert load_workflow(path) == w

    def test_reads_the_indented_layout(self, tmp_path):
        w = with_deadline(random_workflow(8, 0.4, seed=5, risk_cap=0.3), 42.5)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_workflow(w, compact)
        indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2) + "\n")
        assert load_workflow(indented) == load_workflow(compact) == w
        assert len(compact.read_text().splitlines()) == 1

    def test_schema_keys(self, tmp_path):
        w = with_deadline(random_workflow(3, 0.5, seed=1), 10.0)
        path = tmp_path / "wf.json"
        save_workflow(w, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"tasks", "edges", "deadline_s", "risk_cap"}
        assert set(payload["tasks"][0]) == {"id", "alpha_mb", "beta_mb", "workload_gcycles"}

    def test_cycle_file_rejected(self, tmp_path):
        path = tmp_path / "wf.json"
        payload = {
            "tasks": [{"id": i, "alpha_mb": 1, "beta_mb": 1, "workload_gcycles": 1}
                      for i in range(3)],
            "edges": [[0, 1], [1, 2], [2, 1]],
            "deadline_s": 10.0, "risk_cap": 0.5,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="cycle"):
            load_workflow(path)

    @pytest.mark.parametrize("edge, task_id", [([0.9, 1.7], 1), ([0, 1], 1.6)],
                             ids=["edge", "task-id"])
    def test_non_integral_ids_rejected(self, tmp_path, edge, task_id):
        path = tmp_path / "wf.json"
        payload = {
            "tasks": [{"id": i, "alpha_mb": 1, "beta_mb": 1, "workload_gcycles": 1}
                      for i in (0, task_id, 2)],
            "edges": [edge, [1, 2]],
            "deadline_s": 10.0, "risk_cap": 0.5,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="expected an integer"):
            load_workflow(path)

    def test_two_entries_rejected(self, tmp_path):
        path = tmp_path / "wf.json"
        payload = {
            "tasks": [{"id": i, "alpha_mb": 1, "beta_mb": 1, "workload_gcycles": 1}
                      for i in range(3)],
            "edges": [[0, 2], [1, 2]],
            "deadline_s": 10.0, "risk_cap": 0.5,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="entry"):
            load_workflow(path)

    def test_nan_deadline_rejected(self, tmp_path):
        path = tmp_path / "wf.json"
        save_workflow(with_deadline(random_workflow(4, 0.5, seed=1), 10.0), path)
        payload = json.loads(path.read_text())
        payload["deadline_s"] = math.nan
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite"):
            load_workflow(path)

    @pytest.mark.parametrize("bad", ["NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_string_rejected(self, tmp_path, bad):
        path = tmp_path / "wf.json"
        save_workflow(with_deadline(random_workflow(4, 0.5, seed=1), 10.0), path)
        payload = json.loads(path.read_text())
        payload["deadline_s"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite"):
            load_workflow(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "wf.json"
        path.write_text("[1, 2")
        with pytest.raises(ValueError, match="malformed"):
            load_workflow(path)
