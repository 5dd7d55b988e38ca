import json
import math

import pytest
from hypothesis import given, strategies as st

from seeco.evaluator import EvalOptions, ServiceMode, cost_tables
from seeco.platform import default_platform
from seeco.security import (
    CryptoAlgorithm,
    RiskModel,
    SecurityCatalog,
    Service,
    default_catalog,
    level_from_cost,
    load_catalog,
    overhead,
    save_catalog,
    survival,
)
from seeco.workflow import random_workflow

CAT = default_catalog()
IDEA = CAT.algorithm(Service.CONFIDENTIALITY, 1)
RC4 = CAT.algorithm(Service.CONFIDENTIALITY, 5)


class TestLevelFromCost:
    def test_des_level(self):
        assert level_from_cost(7.23, 8.50) == pytest.approx(0.85, abs=0.01)

    def test_slowest_is_one(self):
        assert level_from_cost(8.50, 8.50) == 1.0

    def test_md5_level(self):
        assert level_from_cost(0.58, 1.32) == pytest.approx(0.44, abs=0.01)

    def test_rejects_cost_above_slowest(self):
        with pytest.raises(ValueError):
            level_from_cost(9.0, 8.50)


class TestOverhead:
    def test_rc4_at_reference_point(self):
        got = overhead(RC4, 1, 2.2, 100.0)
        assert got == pytest.approx(2.69, rel=0.005)

    def test_idea_two_cores(self):
        # oracle: direct formula evaluation, frozen
        assert overhead(IDEA, 2, 2.2, 100.0) == pytest.approx(4.251700680272109, rel=1e-12)

    def test_zero_data_is_free(self):
        for alg in CAT.confidentiality + CAT.integrity:
            assert overhead(alg, 3, 1.7, 0.0) == 0.0

    def test_rejects_bad_machine(self):
        with pytest.raises(ValueError):
            overhead(IDEA, 0, 2.2, 10.0)
        with pytest.raises(ValueError):
            overhead(IDEA, 1, 0.0, 10.0)
        with pytest.raises(ValueError):
            overhead(IDEA, 1, 2.2, -1.0)

    @given(
        data=st.floats(0.001, 1e3),
        k=st.floats(0.01, 100.0),
        cores=st.integers(1, 64),
        freq=st.floats(0.1, 8.0),
    )
    def test_scaling_laws(self, data, k, cores, freq):
        base = overhead(RC4, cores, freq, data)
        assert overhead(RC4, cores, freq, k * data) == pytest.approx(k * base, rel=1e-12)
        assert overhead(RC4, 4 * cores, freq, data) == pytest.approx(base / 4, rel=1e-12)
        assert overhead(RC4, cores, 4 * freq, data) == pytest.approx(base / 4, rel=1e-12)


class TestCatalog:
    def test_ladder_sizes_and_ids(self):
        assert [a.id for a in CAT.confidentiality] == [1, 2, 3, 4, 5]
        assert [a.id for a in CAT.integrity] == [1, 2, 3, 4, 5]

    def test_cost_speed_product(self):
        for alg in CAT.confidentiality + CAT.integrity:
            assert alg.ref_cost_s * alg.speed_mb_s == pytest.approx(100.0, rel=1e-6)

    def test_exactly_one_full_strength_per_service(self):
        assert CAT.strongest_id(Service.CONFIDENTIALITY) == 1
        assert CAT.strongest_id(Service.INTEGRITY) == 1

    def test_cost_ordering_matches_strength_ordering(self):
        # slow and strong: IDEA>DES>Blowfish>AES>RC4, TIGER>RipeMD160>SHA-1>RipeMD128>MD5
        for service in Service:
            algs = CAT.algorithms(service)
            by_cost = sorted(algs, key=lambda a: a.ref_cost_s, reverse=True)
            by_level = sorted(algs, key=lambda a: a.level, reverse=True)
            assert [a.name for a in by_cost] == [a.name for a in by_level]
        cf = [a.name for a in sorted(CAT.confidentiality, key=lambda a: a.ref_cost_s, reverse=True)]
        assert cf == ["IDEA", "DES", "Blowfish", "AES", "RC4"]
        ig = [a.name for a in sorted(CAT.integrity, key=lambda a: a.ref_cost_s, reverse=True)]
        assert ig == ["TIGER", "RipeMD160", "SHA-1", "RipeMD128", "MD5"]

    def test_rejects_level_speed_inversion(self):
        # the middle entry is both weaker and slower than the last one
        with pytest.raises(ValueError):
            SecurityCatalog(
                confidentiality=(
                    IDEA,
                    CryptoAlgorithm(2, Service.CONFIDENTIALITY, "weakslow", 0.32, 20.0),
                    CryptoAlgorithm(3, Service.CONFIDENTIALITY, "strongfast", 0.5, 37.0),
                ),
                integrity=CAT.integrity,
            )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(CAT, path)
        assert load_catalog(path) == CAT

    def test_two_level_ladder_loads(self, tmp_path):
        small = SecurityCatalog(
            confidentiality=(
                CryptoAlgorithm(1, Service.CONFIDENTIALITY, "IDEA", 1.0, 11.76),
                CryptoAlgorithm(2, Service.CONFIDENTIALITY, "RC4", 0.32, 37.17),
            ),
            integrity=(
                CryptoAlgorithm(1, Service.INTEGRITY, "TIGER", 1.0, 75.76),
                CryptoAlgorithm(2, Service.INTEGRITY, "MD5", 0.44, 172.41),
            ),
        )
        path = tmp_path / "small.json"
        save_catalog(small, path)
        loaded = load_catalog(path)
        assert loaded.level_count(Service.CONFIDENTIALITY) == 2
        assert loaded == small

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_catalog(path)

    def test_non_finite_speed_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(CAT, path)
        payload = json.loads(path.read_text())
        payload["confidentiality"][0]["speed_mb_s"] = math.inf
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite"):
            load_catalog(path)

    def test_non_integral_id_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(CAT, path)
        payload = json.loads(path.read_text())
        payload["confidentiality"][1]["id"] = 2.9
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="expected an integer"):
            load_catalog(path)

    @pytest.mark.parametrize("bad", ["NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_string_rejected(self, tmp_path, bad):
        path = tmp_path / "catalog.json"
        save_catalog(CAT, path)
        payload = json.loads(path.read_text())
        payload["integrity"][1]["speed_mb_s"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite"):
            load_catalog(path)


class TestRisk:
    @given(rate=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_full_strength_survives_exactly(self, rate):
        # a max-level payload's risk is exactly 0 because this factor is exactly 1
        assert survival(1.0, rate) == 1.0

    def test_zero_strength(self):
        assert 1.0 - survival(0.0, 2.5) == pytest.approx(0.9179150013761012, rel=1e-12)

    def test_zero_rate(self):
        assert survival(0.5, 0.0) == 1.0

    def test_domain(self):
        for level, rate in ((1.2, 2.5), (-0.1, 2.5), (0.5, -1.0)):
            with pytest.raises(ValueError):
                survival(level, rate)

    @given(sl=st.floats(0.0, 1.0), dl=st.floats(0.0, 0.5))
    def test_monotone_increasing_in_level(self, sl, dl):
        lo, hi = max(0.0, sl - dl), sl
        assert survival(lo, 2.5) <= survival(hi, 2.5)

    @given(rate=st.floats(0.0, 5.0), bump=st.floats(0.0, 2.0))
    def test_monotone_decreasing_in_rate(self, rate, bump):
        assert survival(0.3, rate + bump) <= survival(0.3, rate)

    @pytest.mark.parametrize("conf_mode", list(ServiceMode))
    @pytest.mark.parametrize("integ_mode", list(ServiceMode))
    def test_cost_tables_price_payloads_by_survival(self, conf_mode, integ_mode):
        # bit for bit: every gene pair's survival is the product of its services' factors
        model = RiskModel()
        tables = cost_tables(random_workflow(6, 0.4, seed=3), default_platform(), CAT, model,
                             EvalOptions(conf_mode=conf_mode, integ_mode=integ_mode))

        def factor(mode, alg, rate):
            if mode is ServiceMode.ACTIVE:
                return survival(alg.level, rate)
            return survival(0.0, rate) if mode is ServiceMode.UNPROTECTED else 1.0

        for lc, conf in enumerate(CAT.confidentiality, start=1):
            for li, integ in enumerate(CAT.integrity, start=1):
                assert tables.pair_surv[lc * tables.stride + li] == (
                    factor(conf_mode, conf, model.lambda_conf)
                    * factor(integ_mode, integ, model.lambda_integ))

    def test_risk_model_validation(self):
        with pytest.raises(ValueError):
            RiskModel(lambda_conf=-1.0)

    @pytest.mark.parametrize("field", ["lambda_conf", "lambda_integ"])
    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_risk_model_rejects_non_finite_rates(self, field, rate):
        # an infinite rate would make a level-1.0 payload's survival exp(-inf * 0) = nan
        with pytest.raises(ValueError, match="finite"):
            RiskModel(**{field: rate})

    @pytest.mark.parametrize("field", ["lambda_conf", "lambda_integ"])
    def test_risk_model_reads_rates_as_finite_floats(self, field):
        # as every other constructor reads its numbers: a numeric string is read, and
        # an integer beyond the float range is refused here, not in cost_tables
        model = RiskModel(**{field: "2.5"})
        assert getattr(model, field) == 2.5 and type(RiskModel(1, 2).lambda_integ) is float
        with pytest.raises(ValueError, match="non-finite"):
            RiskModel(**{field: 10**400})


class TestLevelReconstruction:
    def test_printed_levels_reproduced_from_speeds(self):
        for service in Service:
            algs = CAT.algorithms(service)
            slowest = min(algs, key=lambda a: a.speed_mb_s)
            for alg in algs:
                cost = overhead(alg, 1, 2.2, 100.0)
                recomputed = level_from_cost(cost, overhead(slowest, 1, 2.2, 100.0))
                assert recomputed == pytest.approx(alg.level, abs=0.01)
