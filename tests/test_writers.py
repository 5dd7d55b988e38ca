"""The platform, catalog, workflow and history writers: their bytes, and what they refuse."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from seeco.ga import GaParams, run, write_history_csv
from seeco.platform import (
    AccessPoint,
    MobileDevice,
    Platform,
    RadioParams,
    VmSpec,
    default_platform,
    load_platform,
    save_platform,
)
from seeco.security import RiskModel, default_catalog, save_catalog
from seeco.workflow import (
    compute_deadline,
    load_workflow,
    random_workflow,
    save_workflow,
    with_deadline,
)

CAT = default_catalog()

# a platform file with a multi-VM access point and a radio of its own
MULTI_VM_PLATFORM = """{"md": {"vm": {"frequency_ghz": 2.0, "cores": 1, "capability_ghz": 1.9},
 "p_comp_w": 0.6, "p_ul_w": 0.12, "p_dl_w": 0.04},
 "aps": [{"vms": [{"frequency_ghz": 2.5, "cores": 2, "capability_ghz": 2.4},
                  {"frequency_ghz": 3.3, "cores": 6, "capability_ghz": 3.1},
                  {"frequency_ghz": 1.8, "cores": 12, "capability_ghz": 1.7}],
          "radio": {"b_ul_mhz": 10.0, "b_dl_mhz": 40.0, "p_tx_w": 0.2, "p_ap_w": 2.0,
                    "h_ul": 5e-08, "h_dl": 9e-08, "noise_w": 2e-09}},
         {"vms": [{"frequency_ghz": 2.9, "cores": 4, "capability_ghz": 2.8}],
          "radio": {"b_ul_mhz": 20.0, "b_dl_mhz": 20.0, "p_tx_w": 0.1, "p_ap_w": 1.0,
                    "h_ul": 7e-08, "h_dl": 7e-08, "noise_w": 1e-09}}],
 "inter_ap_bandwidth_mb_s": 12.5}"""

# sha256 prefixes of the files, recorded when each writer still listed its
# dataclass's fields by hand
PINNED_PLATFORMS = (
    "83eee1bfd8fa80a7", "df53f18e0a5c39de", "56f52c04df5a08ce", "73ca422d4c886b93",
    "c9eca3c5fbf4e9b2", "05d9ac9cdad467d3", "57c07db875cd0db4", "2d8dbd1c8480addf",
    "01c66f2ecbc0dd12", "4cac652240ff769d", "09f9c8202a1624cb", "b4467fa7cb897b9f",
    "fdf2f006347fa158", "016b68bad6973329", "9cb22c504754676e", "b7b3023d0cf5e095",
)  # default_platform(k) for k = 0..15
PINNED_MULTI_VM_PLATFORM = "84703498dfa01088"
PINNED_CATALOG = "3ba2c3366f72621f"
PINNED_HISTORY = "1632f076f797fbf9"


def written(tmp_path, write, value) -> str:
    path = tmp_path / "out"
    write(value, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestPinnedBytes:
    def test_default_platforms(self, tmp_path):
        got = tuple(written(tmp_path, save_platform, default_platform(k)) for k in range(16))
        assert got == PINNED_PLATFORMS

    def test_loaded_multi_vm_platform(self, tmp_path):
        source = tmp_path / "multi.json"
        source.write_text(MULTI_VM_PLATFORM)
        platform = load_platform(source)
        assert [len(ap.vms) for ap in platform.aps] == [3, 1]
        assert written(tmp_path, save_platform, platform) == PINNED_MULTI_VM_PLATFORM

    def test_default_catalog(self, tmp_path):
        assert written(tmp_path, save_catalog, CAT) == PINNED_CATALOG

    def test_history_of_a_pinned_run(self, tmp_path):
        # TestRiskScreen's recorded run under the default options
        w = random_workflow(12, 0.3, seed=41, risk_cap=0.3)
        p = default_platform(3)
        w = with_deadline(w, compute_deadline(w, p, CAT))
        r = run(w, p, CAT, RiskModel(), GaParams(pop_size=10, iterations=15, seed=5))
        assert len(r.history) == 15
        assert written(tmp_path, write_history_csv, r) == PINNED_HISTORY


positive = st.floats(0.01, 100.0)
vm_specs = st.builds(VmSpec, frequency_ghz=positive, cores=st.integers(1, 64),
                     capability_ghz=positive)
radios = st.builds(RadioParams, b_ul_mhz=positive, b_dl_mhz=positive, p_tx_w=positive,
                   p_ap_w=positive, h_ul=positive, h_dl=positive, noise_w=positive)
platforms = st.builds(
    Platform,
    md=st.builds(MobileDevice, vm=vm_specs, p_comp_w=positive, p_ul_w=positive,
                 p_dl_w=positive),
    aps=st.lists(st.builds(AccessPoint, vms=st.lists(vm_specs, min_size=1, max_size=3),
                           radio=radios), max_size=4),
    inter_ap_bandwidth_mb_s=positive)


class TestRoundTrip:
    """``load_x(save_x(v)) == v`` for every value the loaders accept.

    The default catalog's is ``tests/test_security.py``'s ``TestSerialization``.
    """

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6),
           risk_cap=st.floats(0.0, 1.0), deadline=st.floats(1e-3, 1e6))
    def test_workflow(self, tmp_path_factory, n, density, seed, risk_cap, deadline):
        w = with_deadline(random_workflow(n, density, seed=seed, risk_cap=risk_cap), deadline)
        path = tmp_path_factory.mktemp("wf") / "w.json"
        save_workflow(w, path)
        assert load_workflow(path) == w

    @settings(max_examples=50, deadline=None)
    @given(platform=platforms)
    def test_platform(self, tmp_path_factory, platform):
        path = tmp_path_factory.mktemp("platform") / "p.json"
        save_platform(platform, path)
        assert load_platform(path) == platform


class TestNonFiniteRefused:
    """A value the loader would refuse is refused on save, and no file is written."""

    def test_workflow_without_a_deadline(self, tmp_path):
        path = tmp_path / "w.json"
        w = random_workflow(5, 0.3, seed=1)
        assert w.deadline_s == math.inf
        with pytest.raises(ValueError):
            save_workflow(w, path)
        assert not path.exists()

    # the constructors refuse +inf, so these set it on a valid frozen value

    def test_platform_with_an_infinite_vm(self, tmp_path):
        path = tmp_path / "p.json"
        p = default_platform(1)
        object.__setattr__(p.aps[0].vms[0], "capability_ghz", math.inf)
        with pytest.raises(ValueError):
            save_platform(p, path)
        assert not path.exists()

    def test_catalog_with_an_infinite_speed(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog = default_catalog()
        object.__setattr__(catalog.confidentiality[0], "speed_mb_s", math.inf)
        with pytest.raises(ValueError):
            save_catalog(catalog, path)
        assert not path.exists()
