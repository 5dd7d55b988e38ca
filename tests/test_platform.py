import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from seeco.platform import (
    MD_LOCATION,
    AccessPoint,
    Platform,
    RadioParams,
    VmSpec,
    decode_location,
    default_platform,
    default_radio,
    downlink_rate,
    load_platform,
    save_platform,
    uplink_rate,
)


def radio_with_snr(snr_ul: float, snr_dl: float, b_mhz: float = 20.0) -> RadioParams:
    return RadioParams(b_ul_mhz=b_mhz, b_dl_mhz=b_mhz, p_tx_w=1.0, p_ap_w=1.0,
                       h_ul=snr_ul, h_dl=snr_dl, noise_w=1.0)


class TestRates:
    def test_unit_snr_uplink(self):
        r = radio_with_snr(1.0, 1.0)
        assert uplink_rate(r) == pytest.approx(20.0 * 1e6 / 8e6)

    def test_snr_three_doubles_bandwidth_factor(self):
        r = radio_with_snr(3.0, 3.0)
        assert uplink_rate(r) == pytest.approx(2 * 20.0 / 8)

    def test_shannon_point(self):
        r = radio_with_snr(7.0, 7.0)
        # 20 MHz * log2(8) = 60 Mb/s = 7.5 MB/s
        assert uplink_rate(r) == pytest.approx(7.5, rel=1e-12)

    def test_downlink_mirrors_uplink(self):
        r = radio_with_snr(1.0, 1.0)
        assert downlink_rate(r) == pytest.approx(uplink_rate(r))
        r = radio_with_snr(1.0, 3.0)
        assert downlink_rate(r) == pytest.approx(2 * 20.0 / 8)
        assert downlink_rate(radio_with_snr(1.0, 7.0)) == pytest.approx(7.5, rel=1e-12)

    @given(b=st.floats(1.0, 100.0), snr=st.floats(0.001, 1e4),
           db=st.floats(0.1, 10.0), dsnr=st.floats(0.1, 10.0))
    def test_strictly_increasing(self, b, snr, db, dsnr):
        base = uplink_rate(radio_with_snr(snr, snr, b))
        assert uplink_rate(radio_with_snr(snr, snr, b + db)) > base
        assert uplink_rate(radio_with_snr(snr + dsnr, snr, b)) > base

    def test_rate_vanishes_with_snr(self):
        assert uplink_rate(radio_with_snr(1e-12, 1.0)) == pytest.approx(0.0, abs=1e-9)


class TestDefaults:
    def test_default_radio_rates(self):
        r = default_radio()
        assert uplink_rate(r) == pytest.approx(7.5, rel=1e-12)
        assert r.h_ul == r.h_dl
        assert downlink_rate(r) == pytest.approx(20 / 8 * math.log2(71), rel=1e-12)

    def test_default_platform_shape(self):
        p = default_platform()
        assert p.num_aps == 3
        assert [ap.vms[0].capability_ghz for ap in p.aps] == [2.3, 3.1, 2.2]
        assert [ap.vms[0].cores for ap in p.aps] == [4, 8, 16]
        assert p.md.vm.capability_ghz == 2.36
        assert (p.md.p_comp_w, p.md.p_ul_w, p.md.p_dl_w) == (0.5, 0.1, 0.05)

    def test_platform_sizes_nest(self):
        small, big = default_platform(2), default_platform(7)
        assert big.aps[:2] == small.aps

    def test_zero_servers(self):
        assert default_platform(0).num_aps == 0

    @pytest.mark.parametrize("servers", [1.5, True, math.nan, "2"])
    def test_server_count_is_a_whole_number(self, servers):
        with pytest.raises(ValueError, match="expected an integer"):
            default_platform(servers)

    def test_integral_float_server_count_reads_as_an_int(self):
        assert default_platform(2.0) == default_platform(2)


class TestDecodeLocation:
    def test_md_byte(self):
        for p in (default_platform(0), default_platform(3), default_platform(10)):
            assert decode_location(MD_LOCATION, p) == (0, 1)

    def test_high_nibble_selects_ap(self):
        p = default_platform(3)
        assert decode_location(0x21, p) == (2, 1)
        assert decode_location(0x10, p) == (1, 1)
        assert decode_location(0x30, p) == (3, 1)

    def test_wraparound_to_md(self):
        p = default_platform(3)
        assert decode_location(0x47, p)[0] == 0
        assert decode_location(0x47, p) == (0, 1)

    def test_zero_byte_rejected(self):
        with pytest.raises(ValueError):
            decode_location(0x00, default_platform())

    @pytest.mark.parametrize("servers", [0, 1, 3, 10, 15])
    def test_total_on_byte_range(self, servers):
        p = default_platform(servers)
        for b in range(0x01, 0x100):
            ap, k = decode_location(b, p)
            vm = p.vm_at(ap, k)
            assert vm.capability_ghz > 0

    def test_multi_vm_ap_wraparound(self):
        ap = AccessPoint(
            vms=(VmSpec(2.0, 2, 2.0), VmSpec(3.0, 4, 3.0), VmSpec(1.0, 1, 1.0)),
            radio=default_radio(),
        )
        p = Platform(md=default_platform(0).md, aps=(ap,))
        seen = {decode_location(0x10 | low, p) for low in range(0x0, 0x10)}
        assert seen == {(1, 1), (1, 2), (1, 3)}


class TestValidation:
    def test_vm_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            VmSpec(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            VmSpec(1.0, 0, 1.0)

    @pytest.mark.parametrize("cores", [2.5, True], ids=["fraction", "bool"])
    def test_vm_spec_rejects_non_integral_cores(self, cores):
        with pytest.raises(ValueError, match="expected an integer"):
            VmSpec(1.0, cores, 1.0)

    def test_radio_refuses_infinite_noise(self):
        # its rates would be 0.0, and a decode offloading to it divided by them
        radio = default_radio()
        assert uplink_rate(radio) > 0.0 and downlink_rate(radio) > 0.0
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(radio, noise_w=math.inf)

    @pytest.mark.parametrize("fields", [
        dict(h_ul=1e-300, h_dl=1e-300), dict(h_ul=1e-300), dict(h_dl=1e-300),  # SNR underflows
        dict(b_ul_mhz=1e305), dict(p_ap_w=1e300, h_dl=1e300),  # rate overflows to inf
    ], ids=["both_zero", "uplink_zero", "downlink_zero", "uplink_inf", "downlink_inf"])
    def test_radio_refuses_rate_not_positive_and_finite(self, fields):
        # a decode offloading to a 0.0 rate raised ZeroDivisionError
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            dataclasses.replace(default_radio(), **fields)

    def test_radio_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RadioParams(20.0, 20.0, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_ap_needs_vm(self):
        with pytest.raises(ValueError):
            AccessPoint(vms=(), radio=default_radio())

    def test_at_most_15_aps(self):
        assert default_platform(15).num_aps == 15
        with pytest.raises(ValueError, match="at most 15"):
            default_platform(16)

    def test_at_most_15_vms_per_ap(self):
        vms = tuple(VmSpec(2.0, 1, 1.0 + i) for i in range(16))
        p = Platform(md=default_platform(0).md,
                     aps=(AccessPoint(vms=vms[:15], radio=default_radio()),))
        assert {decode_location(0x10 | low, p) for low in range(0x10)} == {
            (1, k) for k in range(1, 16)}
        with pytest.raises(ValueError, match="at most 15"):
            AccessPoint(vms=vms, radio=default_radio())

    def test_vm_at_bounds(self):
        p = default_platform(2)
        with pytest.raises(ValueError):
            p.vm_at(3, 1)
        with pytest.raises(ValueError):
            p.vm_at(1, 2)
        assert p.vm_at(0, 1) == p.md.vm


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = default_platform(4)
        path = tmp_path / "platform.json"
        save_platform(p, path)
        assert load_platform(path) == p

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"md": {}}')
        with pytest.raises(ValueError):
            load_platform(path)

    @pytest.mark.parametrize("grow", ["aps", "vms"])
    def test_unaddressable_platform_rejected(self, tmp_path, grow):
        path = tmp_path / "platform.json"
        save_platform(default_platform(1), path)
        payload = json.loads(path.read_text())
        if grow == "aps":
            payload["aps"] *= 16
        else:
            payload["aps"][0]["vms"] *= 16
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="at most 15"):
            load_platform(path)

    @pytest.mark.parametrize("cores", [2.5, True], ids=["fraction", "bool"])
    def test_non_integral_cores_rejected(self, tmp_path, cores):
        path = tmp_path / "platform.json"
        save_platform(default_platform(1), path)
        payload = json.loads(path.read_text())
        payload["aps"][0]["vms"][0]["cores"] = cores
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="expected an integer"):
            load_platform(path)

    @pytest.mark.parametrize("key, bad, message", [
        ("frequency_ghz", "inf", "non-finite"), ("cores", 0, "cores must be >= 1")])
    def test_error_names_the_file(self, tmp_path, key, bad, message):
        path = tmp_path / "platform.json"
        save_platform(default_platform(1), path)
        payload = json.loads(path.read_text())
        payload["aps"][0]["vms"][0][key] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as refused:
            load_platform(path)
        assert str(path) in str(refused.value)

    def test_zero_rate_radio_rejected(self, tmp_path):
        path = tmp_path / "platform.json"
        save_platform(default_platform(2), path)
        payload = json.loads(path.read_text())
        payload["aps"][1]["radio"]["h_ul"] = 1e-300
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="rates must be positive and finite") as refused:
            load_platform(path)
        assert str(path) in str(refused.value)

    @pytest.mark.parametrize("bad", [
        "Infinity", "NaN", "1e999",
        # JSON strings, which float() also reads, and an integer it overflows on
        '"NaN"', '"inf"', '"-Infinity"', '"1e999"', pytest.param("1" + "0" * 400, id="1e400"),
    ])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "platform.json"
        save_platform(default_platform(2), path)
        payload = json.loads(path.read_text())
        payload["md"]["p_comp_w"] = "BAD"
        path.write_text(json.dumps(payload).replace('"BAD"', bad))
        with pytest.raises(ValueError, match="non-finite"):
            load_platform(path)
