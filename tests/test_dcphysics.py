import json
import math

import numpy as np
import pytest

from geodcsim.dcphysics import (
    DcPhysicsParams,
    HvacAction,
    WeatherSample,
    apply_hvac_action,
    chiller_cop,
    cpu_power,
    crac_return_temp,
    dc_physics_step,
    desk_scale_params,
    fan_power,
    fan_velocity_ratio,
    gpu_power,
    heat_recovery_w,
    hvac_step,
    load_dc_config,
    memory_power_per_rack,
    params_from_config,
    params_to_config,
    pump_power,
    rack_outlet_temp,
    save_dc_config,
    total_it_power,
    water_to_15min_liters,
    water_usage_rate,
)
from geodcsim.errors import ConfigError

P = DcPhysicsParams()
MILD = WeatherSample(drybulb_c=20.0, wetbulb_c=15.0)


class TestCpuPower:
    def test_curve_coefficients(self):
        # ratio slope per degC at fixed load, and shift per unit load at fixed inlet
        slope = (cpu_power(P, 22.0, 0.0) - cpu_power(P, 16.0, 0.0)) / (6.0 * P.cpu_full_w)
        assert slope == pytest.approx(0.02 / 12.0)
        shift = (cpu_power(P, 20.0, 1.0) - cpu_power(P, 20.0, 0.0)) / P.cpu_full_w
        assert shift == pytest.approx(0.99)

    def test_cold_idle_endpoint(self):
        # ratio bottoms out at the lower bound: 170 W * 0.01
        assert cpu_power(P, 16.0, 0.0) == pytest.approx(1.70, abs=1e-9)

    def test_hot_full_endpoint(self):
        assert cpu_power(P, 28.0, 1.0) == pytest.approx(173.4, abs=1e-9)

    def test_hot_idle_matches_upper_bound(self):
        assert cpu_power(P, 28.0, 0.0) / P.cpu_full_w == pytest.approx(0.03, abs=1e-12)

    def test_out_of_range_inlet_clamped(self):
        assert cpu_power(P, 5.0, 0.0) == cpu_power(P, 16.0, 0.0)
        assert cpu_power(P, 40.0, 1.0) == cpu_power(P, 28.0, 1.0)


class TestGpuPower:
    def test_idle(self):
        assert gpu_power(P, 0.0) == pytest.approx(25.0, abs=1e-9)

    def test_full(self):
        assert gpu_power(P, 1.0) == pytest.approx(250.0, abs=1e-9)

    def test_half(self):
        expected = 25.0 + 225.0 * math.log2(1.5)
        assert gpu_power(P, 0.5) == pytest.approx(expected)
        assert gpu_power(P, 0.5) == pytest.approx(156.6, abs=0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            gpu_power(P, 1.5)
        with pytest.raises(ValueError):
            gpu_power(P, -0.1)


class TestMemoryPower:
    def test_twenty_racks(self):
        assert memory_power_per_rack(DcPhysicsParams(num_racks=20), 80000.0) == pytest.approx(280.0)

    def test_zero_capacity(self):
        assert memory_power_per_rack(DcPhysicsParams(num_racks=20), 0.0) == 0.0

    def test_single_rack(self):
        assert memory_power_per_rack(DcPhysicsParams(num_racks=1), 80000.0) == pytest.approx(5600.0)

    def test_zero_racks_rejected(self):
        with pytest.raises(ValueError):
            DcPhysicsParams(num_racks=0)


class TestFanPower:
    def test_curve_coefficients(self):
        slope = (fan_velocity_ratio(P, 22.0, 0.0) - fan_velocity_ratio(P, 16.0, 0.0)) / 6.0
        assert slope == pytest.approx(0.215 / 12.0)
        shift = fan_velocity_ratio(P, 20.0, 1.0) - fan_velocity_ratio(P, 20.0, 0.0)
        assert shift == pytest.approx(0.215)

    def test_cold_idle(self):
        assert fan_power(P, 16.0, 0.0) == pytest.approx(0.10, abs=1e-9)

    def test_hot_full(self):
        assert fan_power(P, 28.0, 1.0) == pytest.approx(4.4, abs=1e-9)

    def test_exponent_switch(self):
        cubic = DcPhysicsParams(fan_power_exponent=3.0)
        assert fan_power(cubic, 28.0, 1.0) == pytest.approx(10.0 * 0.44 ** 3)


class TestTotalItPower:
    def test_single_server_idle_stack(self):
        total, per_rack = total_it_power(
            DcPhysicsParams(num_racks=1, cpus_per_rack=1, gpus_per_rack=1),
            [16.0], 0.0, 0.0, 0.0,
        )
        assert total == pytest.approx(1.70 + 0.10 + 25.0, abs=1e-9)
        assert per_rack == [pytest.approx(26.80, abs=1e-9)]

    def test_empty_layout_is_zero(self):
        empty = DcPhysicsParams(num_racks=1, cpus_per_rack=0, gpus_per_rack=0)
        total, _ = total_it_power(empty, [20.0], 0.5, 0.5, 0.0)
        assert total == 0.0

    def test_doubling_racks_doubles_power(self):
        one, _ = total_it_power(
            DcPhysicsParams(num_racks=1, cpus_per_rack=10, gpus_per_rack=2),
            [20.0], 0.3, 0.7, 1000.0)
        p2 = DcPhysicsParams(num_racks=2, cpus_per_rack=10, gpus_per_rack=2)
        # memory halves per rack when split over two racks, so pass double capacity
        two, _ = total_it_power(p2, [20.0, 20.0], 0.3, 0.7, 2000.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_layout_mismatch(self):
        # one inlet temperature for a four-rack site
        with pytest.raises(ValueError):
            total_it_power(P, [20.0], 0.0, 0.0, 0.0)


class TestThermal:
    def test_pure_energy_balance_case(self):
        # default coefficients reduce to dT = P / (Cp * rho * V)
        t_out = rack_outlet_temp(P, 20.0, 12322.0, 1.0)
        assert t_out == pytest.approx(20.0 + 12322.0 / (1006.0 * 1.225), abs=1e-9)
        assert t_out == pytest.approx(30.0, abs=0.01)

    def test_zero_power_adds_only_offset(self):
        bias = DcPhysicsParams(thermal_coeffs=(1.0, 1.0, 1.0, 1.0, 2.5))
        assert rack_outlet_temp(bias, 20.0, 0.0, 1.0) == pytest.approx(22.5)

    def test_doubling_flow_halves_rise(self):
        rise1 = rack_outlet_temp(P, 20.0, 5000.0, 1.0) - 20.0
        rise2 = rack_outlet_temp(P, 20.0, 5000.0, 2.0) - 20.0
        assert rise2 == pytest.approx(rise1 / 2.0)

    def test_zero_flow_rejected(self):
        with pytest.raises(ValueError):
            rack_outlet_temp(P, 20.0, 100.0, 0.0)

    def test_return_temp_plain_mean(self):
        p2 = DcPhysicsParams(num_racks=2)
        assert crac_return_temp(p2, [30.0, 32.0]) == pytest.approx(31.0)

    def test_return_temp_with_approach(self):
        p1 = DcPhysicsParams(num_racks=1, return_approach_temps_c=(2.0,))
        assert crac_return_temp(p1, [30.0]) == pytest.approx(32.0)

    def test_return_temp_identical_racks(self):
        p3 = DcPhysicsParams(num_racks=3)
        assert crac_return_temp(p3, [28.0] * 3) == pytest.approx(28.0)

    def test_empty_racks_rejected(self):
        with pytest.raises(ValueError):
            crac_return_temp(DcPhysicsParams(num_racks=1), [])


class TestHvacChain:
    def test_crac_load_hand_case(self):
        # mass flow 10 kg/s requires IT power = 10 / flow_pu
        it_power = 10.0 / P.crac_supply_flow_pu
        hv = hvac_step(P, it_power, 30.0, 20.0, 20.0, 15.0)
        assert hv.q_crac_w == pytest.approx(10.0 * 1006.0 * 10.0, rel=1e-12)

    def test_pump_power_constants(self):
        each = pump_power(3.0e5, 0.0011, 0.87)
        assert each == pytest.approx(379.31, abs=0.01)
        hv = hvac_step(P, 0.0, 20.0, 20.0, 20.0, 15.0)
        assert hv.pump_w == pytest.approx(2 * each, rel=1e-12)

    def test_idle_plant_only_pumps(self):
        hv = hvac_step(P, 0.0, 20.0, 20.0, 20.0, 15.0)
        assert hv.q_crac_w == 0.0
        assert hv.crac_fan_w == 0.0
        assert hv.chiller_w == 0.0
        assert hv.ct_fan_w == 0.0
        assert hv.water_l_15min == 0.0
        assert hv.pump_w > 0.0

    def test_return_below_setpoint_clamps_load(self):
        hv = hvac_step(P, 1e5, 18.0, 25.0, 20.0, 15.0)
        assert hv.q_crac_w == 0.0

    def test_setpoint_out_of_range(self):
        with pytest.raises(ValueError):
            hvac_step(P, 1e5, 30.0, 17.0, 20.0, 15.0)

    def test_water_hand_case(self):
        assert water_usage_rate(5.0, 20.0) == pytest.approx(2.745, abs=1e-9)
        assert 0.3528 * 5.0 + 0.101 == pytest.approx(1.865, abs=1e-9)

    def test_water_conversion(self):
        assert water_to_15min_liters(0.2) == pytest.approx(50.0)
        assert water_to_15min_liters(0.0) == 0.0
        assert water_to_15min_liters(4.0) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            water_to_15min_liters(-0.1)

    def test_chiller_cop_floor(self):
        assert chiller_cop(P, 20.0) == pytest.approx(5.0)
        assert chiller_cop(P, 30.0) == pytest.approx(4.0)
        assert chiller_cop(P, 100.0) == pytest.approx(1.5)

    def test_ct_fan_cubic_in_load(self):
        hv1 = hvac_step(P, 2e5, 30.0, 20.0, 20.0, 15.0)
        v_air = hv1.q_effective_w / (P.c_air * P.rho_air * P.ct_delta_t_k)
        expected = P.ct_fan_ref_w * (v_air / P.ct_ref_air_flow_m3s) ** 3
        assert hv1.ct_fan_w == pytest.approx(expected, rel=1e-12)


class TestHeatRecovery:
    def test_warm_ambient_no_recovery(self):
        # office guide 21 C, ambient 25 C: temperature delta clamps to zero
        assert heat_recovery_w(P, 25.0) == 0.0

    def test_cap_at_quarter_it_load(self):
        params = DcPhysicsParams(hru_office_area_m2=1e6)  # force a huge potential
        potential = heat_recovery_w(params, 1.0)
        it_power = 1e6
        hv = hvac_step(params, it_power, 40.0, 20.0, 1.0, 10.0, hru_enabled=True)
        assert potential > 0.25 * it_power
        assert hv.hru_recovered_w == pytest.approx(0.25 * it_power)

    def test_recovery_reduces_cooling(self):
        params = DcPhysicsParams()
        on = hvac_step(params, 5e5, 35.0, 20.0, 0.0, 10.0, hru_enabled=True)
        off = hvac_step(params, 5e5, 35.0, 20.0, 0.0, 10.0, hru_enabled=False)
        assert on.q_effective_w < off.q_effective_w
        assert on.q_effective_w == pytest.approx(off.q_effective_w - on.hru_recovered_w)

    def test_cap_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            it_power = float(rng.uniform(0, 2e6))
            ambient = float(rng.uniform(-20, 40))
            t_return = float(rng.uniform(18, 45))
            potential = heat_recovery_w(P, ambient)
            hv = hvac_step(P, it_power, t_return, 20.0, ambient, 10.0, hru_enabled=True)
            assert hv.hru_recovered_w == pytest.approx(min(potential, 0.25 * it_power))
            assert hv.q_effective_w >= 0.0


class TestHvacActions:
    def test_clamp_low(self):
        assert apply_hvac_action(P, 18.0, HvacAction.DOWN_1C) == 18.0

    def test_step_up(self):
        assert apply_hvac_action(P, 22.0, HvacAction.UP_1C) == 23.0

    def test_clamp_high(self):
        assert apply_hvac_action(P, 27.0, HvacAction.UP_1C) == 27.0

    def test_hold(self):
        assert apply_hvac_action(P, 21.5, HvacAction.HOLD) == 21.5


class TestDcPhysicsStep:
    def test_purity(self):
        params = desk_scale_params()
        a = dc_physics_step(params, 22.0, 0.4, 0.6, 3000.0, MILD)
        b = dc_physics_step(params, 22.0, 0.4, 0.6, 3000.0, MILD)
        assert a == b

    def test_energy_consistency(self):
        params = desk_scale_params()
        r = dc_physics_step(params, 22.0, 0.4, 0.6, 3000.0, MILD)
        assert r.energy_kwh == pytest.approx(r.total_power_w * 0.25 / 1000.0, rel=1e-9)

    def test_energy_heat_identity(self):
        # zero approach temps + default outlet coefficients: CRAC heat == IT power
        params = desk_scale_params()
        for u in (0.0, 0.3, 1.0):
            r = dc_physics_step(params, 22.0, u, u, 2000.0, MILD)
            m_dot = params.crac_supply_flow_pu * r.it_power_w
            q = m_dot * params.c_air * (r.crac_return_temp_c - 22.0)
            assert q == pytest.approx(r.it_power_w, rel=1e-6)
            assert r.q_crac_w == pytest.approx(r.it_power_w)

    def test_monotone_in_cpu_utilization(self):
        params = desk_scale_params()
        grid = np.linspace(0.0, 1.0, 33)
        totals = [dc_physics_step(params, 22.0, u, 0.5, 1000.0, MILD).total_power_w for u in grid]
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_setpoint_action_applied_and_reported(self):
        params = desk_scale_params()
        r = dc_physics_step(params, 22.0, 0.1, 0.1, 0.0, MILD, setpoint_action=HvacAction.DOWN_1C)
        assert r.setpoint_c == 21.0

    def test_all_powers_nonnegative_fuzz(self):
        params = desk_scale_params()
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r = dc_physics_step(
                params,
                float(rng.uniform(18, 27)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 8000)),
                WeatherSample(float(rng.uniform(-20, 45)), float(rng.uniform(-25, 35))),
                hru_enabled=bool(rng.integers(0, 2)),
            )
            for value in (r.it_power_w, r.crac_fan_w, r.chiller_w, r.ct_fan_w,
                          r.pump_w, r.total_power_w, r.water_l_15min):
                assert value >= 0.0

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            dc_physics_step(desk_scale_params(), 22.0, 1.5, 0.0, 0.0, MILD)


class TestParamsJson:
    def test_round_trip(self, tmp_path):
        params = desk_scale_params(
            supply_approach_temps_c=(1.0, 2.0, 3.0, 4.0),
            return_approach_temps_c=(0.5, 0.5, 0.5, 0.5),
            hru_office_area_m2=1234.0,
        )
        path = tmp_path / "dc.json"
        save_dc_config(params, path)
        assert load_dc_config(path) == params

    def test_sections_present(self):
        doc = params_to_config(DcPhysicsParams())
        assert set(doc) == {"data_center_configuration", "hvac_configuration",
                            "server_characteristics"}
        sc = doc["server_characteristics"]
        assert sc["CPU_POWER_RATIO_LB"] == [0.01, 1.00]
        assert sc["HP_PROLIANT"] == [110.0, 170.0]
        assert doc["hvac_configuration"]["CRAC_FAN_REF_P"] == 150.0

    def test_partial_document_keeps_defaults(self):
        params = params_from_config({"server_characteristics": {"NVIDIA_V100": [30, 300]}})
        assert params.gpu_idle_w == 30.0
        assert params.gpu_full_w == 300.0
        assert params.crac_fan_ref_w == 150.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            DcPhysicsParams(inlet_temp_range_c=(28.0, 16.0))
        with pytest.raises(ValueError):
            DcPhysicsParams(setpoint_range_c=(27.0, 18.0))
        with pytest.raises(ValueError):
            DcPhysicsParams(cw_pump_eff=0.0)
        with pytest.raises(ValueError):
            DcPhysicsParams(num_racks=2, supply_approach_temps_c=(1.0,))

    def _load(self, tmp_path, text):
        path = tmp_path / "dc.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_dc_config(path)
        assert str(path) in str(info.value)
        return str(info.value)

    def test_malformed_json_is_config_error(self, tmp_path):
        assert "invalid JSON" in self._load(tmp_path, '{"hvac_configuration": ')

    def test_pair_needs_exactly_two_numbers(self, tmp_path):
        for pair in ([110.0], [110.0, 170.0, 200.0], 110.0, [110.0, "full"]):
            doc = {"server_characteristics": {"HP_PROLIANT": pair}}
            assert "HP_PROLIANT" in self._load(tmp_path, json.dumps(doc))

    def test_non_numeric_value_names_key(self, tmp_path):
        doc = {"hvac_configuration": {"C_AIR": "warm"}}
        assert "C_AIR" in self._load(tmp_path, json.dumps(doc))

    def test_validation_error_is_config_error(self, tmp_path):
        doc = {"hvac_configuration": {"SETPOINT_RANGE": [27, 18]}}
        assert "setpoint_range_c must be ordered" in self._load(tmp_path, json.dumps(doc))
