import json
import logging
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from geodcsim.dcphysics import (
    STEP_HOURS,
    DcPhysicsParams,
    DcStepResult,
    HvacAction,
    WeatherSample,
    _rack_half,
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
    it_power_and_return_temp,
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

    def test_return_temp_plain_mean(self):
        p2 = DcPhysicsParams(num_racks=2)
        assert crac_return_temp(p2, [30.0, 32.0]) == pytest.approx(31.0)

    def test_return_temp_with_approach(self):
        p1 = DcPhysicsParams(num_racks=1, return_approach_temps_c=(2.0,))
        assert crac_return_temp(p1, [30.0]) == pytest.approx(32.0)

    def test_return_temp_identical_racks(self):
        p3 = DcPhysicsParams(num_racks=3)
        assert crac_return_temp(p3, [28.0] * 3) == pytest.approx(28.0)


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

    def test_water_hand_case(self):
        assert water_usage_rate(5.0, 20.0) == pytest.approx(2.745, abs=1e-9)
        assert 0.3528 * 5.0 + 0.101 == pytest.approx(1.865, abs=1e-9)

    def test_water_conversion(self):
        assert water_to_15min_liters(0.2) == pytest.approx(50.0)
        assert water_to_15min_liters(0.0) == 0.0
        assert water_to_15min_liters(4.0) == pytest.approx(1000.0)

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

    def test_gpu_utilization_domain(self):
        for u_gpu in (1.5, -0.1):
            with pytest.raises(ValueError, match="u_gpu"):
                dc_physics_step(P, 22.0, 0.0, u_gpu, 0.0, MILD)

    def test_setpoint_out_of_range(self):
        with pytest.raises(ValueError, match="setpoint"):
            dc_physics_step(P, 17.0, 0.1, 0.1, 0.0, MILD)


_NUMBER = st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-2.0, 2.0), st.floats(0.0, 1e6))
# The constants the step chain needs nonnegative or nonzero, as finite numbers.
_PHYSICS_DRAWS = {
    name: st.tuples(_NUMBER, _NUMBER) if name.endswith(("_lb", "_ub")) else _NUMBER
    for name in ("cpu_power_ratio_lb", "cpu_power_ratio_ub", "fan_airflow_ratio_lb",
                 "fan_airflow_ratio_ub", "cpu_idle_w", "gpu_idle_w", "mem_w_per_gb",
                 "cw_pressure_drop_pa", "ct_pressure_drop_pa", "cw_flow_m3s", "ct_flow_m3s",
                 "water_drift_rate", "fan_ref_ratio", "chiller_cop_min", "chiller_cop_nominal")
}
_ZERO_RATIOS = {name: (0.0, 0.0) for name in _PHYSICS_DRAWS if name.endswith(("_lb", "_ub"))}


@settings(max_examples=300)
# memory alone draws a subnormal IT power, whose per-rack air flow underflows to 0
@example(overrides=dict(_ZERO_RATIOS, gpu_idle_w=0.0, mem_w_per_gb=4e-320), setpoint=22.0,
         u_cpu=0.0, u_gpu=0.0, mem_gb=4.0, drybulb=20.0, wetbulb=15.0, action=None, hru=False)
@given(
    overrides=st.lists(st.sampled_from(sorted(_PHYSICS_DRAWS)), min_size=1, max_size=4,
                       unique=True).flatmap(
        lambda names: st.fixed_dictionaries({n: _PHYSICS_DRAWS[n] for n in names})),
    setpoint=st.floats(18.0, 27.0),
    u_cpu=st.floats(0.0, 1.0),
    u_gpu=st.floats(0.0, 1.0),
    mem_gb=st.floats(0.0, 1e5),
    drybulb=st.floats(-40.0, 50.0),
    wetbulb=st.floats(-40.0, 40.0),
    action=st.sampled_from([None, *HvacAction]),
    hru=st.booleans(),
)
def test_checked_params_give_a_sound_step_property(
        overrides, setpoint, u_cpu, u_gpu, mem_gb, drybulb, wetbulb, action, hru):
    """Either the parameter block rejects the constants, or every power term of
    the step is finite and >= 0 and the total is their sum, in the step's order."""
    try:
        params = DcPhysicsParams(**overrides)
    except ValueError:
        return
    r = dc_physics_step(params, setpoint, u_cpu, u_gpu, mem_gb,
                        WeatherSample(drybulb, wetbulb), action, hru)
    terms = (r.it_power_w, r.crac_fan_w, r.chiller_w, r.ct_fan_w, r.pump_w)
    for value in terms + (r.total_power_w, r.energy_kwh, r.water_l_15min):
        assert math.isfinite(value) and value >= 0.0
    assert r.total_power_w == r.it_power_w + r.crac_fan_w + r.chiller_w + r.ct_fan_w + r.pump_w


def keyword_hvac_step(params, it_power_w, t_return_c, setpoint_c, t_drybulb_c, t_wetbulb_c,
                      hru_enabled):
    """``hvac_step``'s arithmetic written out again, its record built by keyword."""
    q_crac = params.crac_supply_flow_pu * it_power_w * params.c_air * max(t_return_c - setpoint_c,
                                                                          0.0)
    recovered = 0.0
    if hru_enabled:
        recovered = min(heat_recovery_w(params, t_drybulb_c),
                        params.hru_it_load_cap_fraction * it_power_w)
    q_effective = max(q_crac - recovered, 0.0)
    q_served = min(q_effective, params.chiller_capacity_w)
    crac_fan = (params.crac_fan_ref_w * (params.crac_supply_flow_pu / params.crac_ref_flow_pu) ** 3
                * (it_power_w / params.design_it_load_w))
    chiller = 0.0
    if q_served > 0.0:
        fraction = max(q_served / params.chiller_capacity_w, params.chiller_min_load_fraction)
        chiller = params.chiller_capacity_w * fraction / chiller_cop(params, t_drybulb_c)
    v_air = q_served / (params.c_air * params.rho_air * params.ct_delta_t_k)
    ct_fan = params.ct_fan_ref_w * (v_air / params.ct_ref_air_flow_m3s) ** 3
    pumps = pump_power(params.cw_pressure_drop_pa, params.cw_flow_m3s, params.cw_pump_eff)
    pumps += pump_power(params.ct_pressure_drop_pa, params.ct_flow_m3s, params.ct_pump_eff)
    w_evap = (max(water_usage_rate(params.condenser_t_range_k, t_wetbulb_c), 0.0) * q_served
              / params.heat_reject_unit_w)
    total = it_power_w + crac_fan + chiller + ct_fan + pumps
    return DcStepResult(
        it_power_w=it_power_w,
        crac_fan_w=crac_fan,
        chiller_w=chiller,
        ct_fan_w=ct_fan,
        pump_w=pumps,
        total_power_w=total,
        energy_kwh=total * STEP_HOURS / 1000.0,
        water_l_15min=water_to_15min_liters(w_evap * (1.0 + params.water_drift_rate)),
        crac_return_temp_c=t_return_c,
        hru_recovered_w=recovered,
        q_crac_w=q_crac,
        q_effective_w=q_effective,
        setpoint_c=setpoint_c,
    )


@settings(max_examples=300)
@given(
    params=st.sampled_from([P, desk_scale_params()]),
    it_power=st.floats(0.0, 2e6),
    t_return=st.floats(10.0, 60.0),
    setpoint=st.floats(18.0, 27.0),
    drybulb=st.floats(-40.0, 50.0),
    wetbulb=st.floats(-40.0, 40.0),
    hru=st.booleans(),
)
def test_hvac_step_fields_match_a_keyword_built_record_property(
        params, it_power, t_return, setpoint, drybulb, wetbulb, hru):
    """``hvac_step`` builds its record positionally: each field, read by name, holds
    the bits of the value of that name."""
    got = hvac_step(params, it_power, t_return, setpoint, drybulb, wetbulb, hru)
    want = keyword_hvac_step(params, it_power, t_return, setpoint, drybulb, wetbulb, hru)
    for f in fields(DcStepResult):
        assert float.hex(getattr(got, f.name)) == float.hex(getattr(want, f.name)), f.name


def reference_rack_half(params, inlets, u_cpu, u_gpu, mem_gb):
    """``_rack_half`` written out rack by rack: every rack's power and outlet evaluated
    in a plain loop."""
    u_eff = min(max(0.5 * (u_cpu + u_gpu), 0.0), 1.0)
    powers = []
    for t_in in inlets:
        p = params.cpus_per_rack * (cpu_power(params, t_in, u_cpu) + fan_power(params, t_in, u_eff))
        p += params.gpus_per_rack * gpu_power(params, u_gpu)
        p += memory_power_per_rack(params, mem_gb)
        powers.append(p)
    it_power = 0
    for p in powers:
        it_power += p
    v_rack = params.crac_supply_flow_pu * it_power / (params.num_racks * params.rho_air)
    returns = 0
    for t_in, p, approach in zip(inlets, powers, params.return_approach_temps_c):
        if v_rack > 0.0:
            outlet = rack_outlet_temp(params, t_in, p, v_rack)
        else:
            outlet = t_in + params.thermal_coeffs[4]
        returns += outlet + approach
    return it_power, returns / params.num_racks


_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
# inlets at and beyond the clamp's ends, signed zeros inside a range that holds them
_INLET = st.sampled_from([0.0, -0.0, -10.0, 16.0, 20.0, 28.0, 30.0, 45.0]) | st.floats(-10.0, 45.0)
# memory alone draws a subnormal IT power, whose per-rack air flow underflows to 0
_SUBNORMAL = dict(_ZERO_RATIOS, gpu_idle_w=0.0, mem_w_per_gb=4e-320)


@settings(max_examples=400, phases=_NO_SHRINK)
@given(
    runs=st.lists(st.tuples(_INLET, st.integers(1, 4)), min_size=1, max_size=6),
    pattern=st.sampled_from(["runs", "alternating", "equal"]),
    return_approach=st.sampled_from([0.0, -0.0, 1.5]) | st.floats(-5.0, 5.0),
    u_cpu=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
    u_gpu=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    mem_gb=st.sampled_from([0.0, 4.0]) | st.floats(0.0, 1e5),
    block=st.sampled_from(["default", "cold", "subnormal"]),
)
def test_rack_half_matches_a_rack_by_rack_loop_property(runs, pattern, return_approach, u_cpu,
                                                        u_gpu, mem_gb, block):
    """``_rack_half``'s IT power and CRAC return carry the bits of a plain loop that
    evaluates every rack: through runs of equal inlets, inlets that alternate, blocks
    whose inlets are all equal, signed zeros in an inlet range that holds them,
    clamped inlets, and an IT power too small to move any air."""
    inlets = [t for t, n in runs for _ in range(n)]
    if pattern == "alternating":  # the first and last runs' inlets, one rack each in turn
        ends = (runs[0][0], runs[-1][0])
        inlets = [ends[i % 2] for i in range(len(inlets) + 1)]
    elif pattern == "equal":
        inlets = [inlets[0]] * len(inlets)
    overrides = {}
    if block == "cold":
        overrides = dict(inlet_temp_range_c=(-5.0, 30.0))
    elif block == "subnormal":
        overrides, u_cpu, u_gpu, mem_gb = _SUBNORMAL, 0.0, 0.0, 4.0
    approaches = tuple(return_approach * (i % 3) for i in range(len(inlets)))
    params = desk_scale_params(num_racks=len(inlets), return_approach_temps_c=approaches,
                               **overrides)
    got = _rack_half(params, inlets, u_cpu, u_gpu, mem_gb)
    want = reference_rack_half(params, inlets, u_cpu, u_gpu, mem_gb)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    if block == "subnormal":
        assert 0.0 < got[0] < 1e-300


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

    @pytest.mark.parametrize("name", [
        "cpu_idle_w", "gpu_idle_w", "mem_w_per_gb", "cw_pressure_drop_pa", "ct_flow_m3s",
        "water_drift_rate", "fan_ref_ratio", "chiller_cop_min", "cpu_full_w", "rho_air",
        "cpu_power_ratio_lb", "inlet_temp_range_c", "setpoint_range_c",
    ])
    def test_nan_rejected(self, name):
        value = getattr(P, name)
        nan = float("nan")
        with pytest.raises(ValueError, match=name):
            DcPhysicsParams(**{name: (value[0], nan) if isinstance(value, tuple) else nan})

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

    @pytest.mark.parametrize("section, key, field", [
        ("server_characteristics", "INLET_TEMP_RANGE", "inlet_temp_range_c"),
        ("hvac_configuration", "SETPOINT_RANGE", "setpoint_range_c"),
    ])
    def test_range_of_three_values_names_field(self, tmp_path, section, key, field):
        doc = {section: {key: [16, 20, 28]}}
        assert f"{field} must be ordered" in self._load(tmp_path, json.dumps(doc))

    def test_validation_error_is_config_error(self, tmp_path):
        doc = {"hvac_configuration": {"SETPOINT_RANGE": [27, 18]}}
        assert "setpoint_range_c must be ordered" in self._load(tmp_path, json.dumps(doc))

    def test_infinite_count_is_a_config_error(self, tmp_path):
        """``int(-inf)`` raised OverflowError, which the CLI printed as a traceback."""
        doc = {"data_center_configuration": {"CPUS_PER_RACK": -math.inf}}
        message = self._load(tmp_path, json.dumps(doc))
        assert message.endswith("data_center_configuration: CPUS_PER_RACK: "
                                "cannot convert float infinity to integer")

    @pytest.mark.parametrize("key, value, expected", [
        ("NUM_RACKS", 0, "num_racks must lie in [1, 100000]"),
        ("NUM_RACKS", 10**20, "num_racks must lie in [1, 100000]"),
        ("GPUS_PER_RACK", -1, "gpus_per_rack must lie in [0, 10000]"),
    ], ids=["no_rack", "racks_1e20", "negative_gpus"])
    def test_counts_are_bounded(self, tmp_path, key, value, expected):
        doc = {"data_center_configuration": {key: value}}
        assert self._load(tmp_path, json.dumps(doc)).endswith(expected)

    @pytest.mark.parametrize("key, value", [("NUM_RACKS", 4.7), ("CPUS_PER_RACK", 0.999)])
    def test_a_count_must_be_a_whole_number(self, tmp_path, key, value):
        """``int()`` read 4.7 racks as 4 and 0.999 CPUs as 0."""
        doc = {"data_center_configuration": {key: value}}
        assert self._load(tmp_path, json.dumps(doc)).endswith(
            f"data_center_configuration: {key} must be a whole number")
        assert params_from_config({"data_center_configuration": {key: 4.0}}).num_racks == 4
        with pytest.raises(ValueError, match="^num_racks must be a whole number$"):
            DcPhysicsParams(num_racks=4.7)

    @pytest.mark.parametrize("value", ["0.5", "01", 0.5, {"a": 1}],
                             ids=["string", "digit_string", "number", "object"])
    def test_a_list_parameter_must_be_a_json_list(self, tmp_path, value):
        """``tuple()`` read the string "01" as the pair (0.0, 1.0)."""
        doc = {"server_characteristics": {"CPU_POWER_RATIO_LB": value}}
        assert self._load(tmp_path, json.dumps(doc)).endswith(
            f"server_characteristics: CPU_POWER_RATIO_LB: expected a list of numbers, got {value!r}")

    @pytest.mark.parametrize("coeffs", [[1, 1, 1e30, 1, 0], [1, 1e30, 1, 1, 0], [1, 1, -1, 1, 0]],
                             ids=["e_1e30", "d_1e30", "e_negative"])
    def test_thermal_exponent_outside_its_domain_is_a_config_error(self, tmp_path, coeffs):
        """``fan_flow ** 1e30`` underflowed to 0, so the step divided by zero."""
        doc = {"server_characteristics": {"THERMAL_COEFFS": coeffs}}
        assert self._load(tmp_path, json.dumps(doc)).endswith("thermal_coeffs must lie in [0, 2]")

    def test_thermal_coeffs_hold_five_numbers(self, tmp_path):
        doc = {"server_characteristics": {"THERMAL_COEFFS": [1, 1, 1, 1, 0, 9]}}
        assert self._load(tmp_path, json.dumps(doc)).endswith("thermal_coeffs must hold 5 numbers")

    @pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0, 2.5),
                                        (1.0, 0.0, 2.0, -1.0, 0.0)])
    def test_thermal_exponents_inside_their_domain_step_soundly(self, coeffs):
        params = desk_scale_params(thermal_coeffs=coeffs)
        r = dc_physics_step(params, 22.0, 0.5, 0.5, 100.0, MILD)
        assert math.isfinite(r.total_power_w) and math.isfinite(r.crac_return_temp_c)


def _other(name, value):
    """A value of field ``name`` other than ``value``, in its domain: a count drops by
    one, a zero becomes 0.5, and any other number shrinks by a tenth, or grows by a
    tenth in an upper ratio bound, so each pair of bounds stays ordered."""
    if isinstance(value, tuple):
        return tuple(_other(name, v) for v in value)
    if isinstance(value, int):
        return value - 1
    if value == 0.0:
        return 0.5
    return value * (1.1 if name.endswith("_ub") else 0.9)


FIELDS = {f.name: f for f in fields(DcPhysicsParams)}
APPROACHES = ("supply_approach_temps_c", "return_approach_temps_c")


class TestDeclarations:
    """Each field declares its default, its JSON keys and its domain once."""

    def test_a_block_off_every_default_round_trips(self):
        off = {name: _other(name, getattr(P, name)) for name in FIELDS}
        off |= {name: (0.5,) * off["num_racks"] for name in APPROACHES}
        block = DcPhysicsParams(**off)
        assert all(getattr(block, name) != getattr(P, name) for name in FIELDS)
        assert params_from_config(json.loads(json.dumps(params_to_config(block)))) == block

    def test_no_two_fields_share_a_key_but_the_halves_of_a_pair(self):
        halves = {}
        for f in FIELDS.values():
            halves.setdefault(f.metadata["keys"], []).append(f.metadata["half"])
        assert all(h in ([None], [0, 1]) for h in halves.values()), halves
        assert [keys[-1] for keys, h in halves.items() if h == [0, 1]] == ["HP_PROLIANT",
                                                                           "NVIDIA_V100"]

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_one_leaf_sets_exactly_its_field(self, name):
        """A document holding one leaf builds the block of that one keyword."""
        f, value = FIELDS[name], _other(name, getattr(P, name))
        *sections, key = f.metadata["keys"]
        doc = section = {}
        for part in sections:
            section = section.setdefault(part, {})
        if f.metadata["half"] is None:
            section[key] = list(value) if isinstance(value, tuple) else value
        else:
            pair = params_to_config(P)
            for part in f.metadata["keys"]:
                pair = pair[part]
            section[key] = [value if i == f.metadata["half"] else v for i, v in enumerate(pair)]
        block = params_from_config(doc)
        assert block == DcPhysicsParams(**{name: value}) != P

    @pytest.mark.parametrize("doc, expected", [
        ({"unknown_section": {"X": 1}}, "unknown_section: unknown key"),
        ({"hvac_configuration": {"C_AIR": 1000.0, "C_AIRR": [1]}},
         "hvac_configuration: C_AIRR: unknown key"),
        ({"hvac_configuration": {"HRU": {"AVE_HLP": 5.0, "Y": None}}},
         "hvac_configuration: HRU: Y: unknown key"),
        ({"data_center_configuration": {"NUM_RACK": 99}},
         "data_center_configuration: NUM_RACK: unknown key"),
    ], ids=["section", "key", "subsection_key", "misspelled_count"])
    def test_unknown_keys_are_refused(self, doc, expected):
        """As every YAML config does: a misspelled key loaded its field's default."""
        with pytest.raises(ValueError) as info:
            params_from_config(doc)
        assert str(info.value) == expected

    @pytest.mark.parametrize("doc, expected", [
        ({"data_center_configuration": {"NUM_RACKS": "7"}},
         "data_center_configuration: NUM_RACKS: must be a number, not text"),
        ({"hvac_configuration": {"C_AIR": "1006"}},
         "hvac_configuration: C_AIR: must be a number, not text"),
        ({"server_characteristics": {"HP_PROLIANT": [110, "170"]}},
         "server_characteristics: HP_PROLIANT: must be a number, not text"),
        ({"hvac_configuration": {"SETPOINT_RANGE": ["18", 27]}},
         "setpoint_range_c: must be a number, not text"),
    ], ids=["int", "float", "half", "list_element"])
    def test_a_number_written_as_text_is_refused(self, doc, expected):
        """Each number loads as the document writes it: "7" racks loaded as 7."""
        with pytest.raises(ValueError) as info:
            params_from_config(doc)
        assert str(info.value) == expected

    @pytest.mark.parametrize("doc, expected", [
        ({"hvac_configuration": {"C_AIR": None}},
         "hvac_configuration: C_AIR: float() argument must be a string or a real number, "
         "not 'NoneType'"),
        ({"hvac_configuration": None}, "hvac_configuration: expected a JSON object"),
        ({"hvac_configuration": {"HRU": [1]}}, "hvac_configuration: HRU: expected a JSON object"),
        ({"server_characteristics": True},
         "server_characteristics: must be a number, not true or false"),
        ([], "expected a JSON object"),
    ], ids=["null_leaf", "null_section", "list_subsection", "true_section", "list_document"])
    def test_a_null_or_a_section_of_the_wrong_kind_names_its_keys(self, doc, expected):
        with pytest.raises(ValueError) as info:
            params_from_config(doc)
        assert str(info.value) == expected


# Four physics blocks that loaded and then failed in the first step: a NaN in every
# energy KPI, a division by zero and two overflows.
UNSOUND_BLOCKS = {
    "fan_ref_ratio_tiny": ({"fan_ref_ratio": 1e-306},
                           "the step at inlet 16 degC and load 1: IT power must be finite"),
    "crac_supply_flow_tiny": (
        {"crac_supply_flow_pu": 1e-200, "thermal_coeffs": (1.0, 1.0, 2.0, 1.0, 0.0)},
        "the step at inlet 16 degC and load 0: float division by zero"),
    # the CRAC fan's and the cooling-tower fan's cube overflow: float ** raises
    "crac_supply_flow_huge": ({"crac_supply_flow_pu": 1e200}, "heat recovery off: (34, "),
    "ct_ref_air_flow_tiny": ({"ct_ref_air_flow_m3s": 1e-200}, "heat recovery off: (34, "),
}


class TestEnvelope:
    @pytest.mark.parametrize("overrides, expected", UNSOUND_BLOCKS.values(),
                             ids=UNSOUND_BLOCKS.keys())
    def test_a_block_whose_step_chain_fails_is_refused(self, overrides, expected):
        with pytest.raises(ValueError, match="^the step at ") as info:
            desk_scale_params(**overrides)
        assert expected in str(info.value)

    def test_the_cooling_chain_names_its_corner(self):
        with pytest.raises(ValueError) as info:
            desk_scale_params(heat_reject_unit_w=1e-306)
        assert str(info.value) == (
            "the step at IT power 45560 W, CRAC return 45.5532 degC, setpoint 18 degC, "
            "dry-bulb 70 degC and heat recovery off: water_l_15min must be finite")

    def test_the_check_logs_no_warning(self, caplog):
        """Inlets 30 degC above the setpoint are clamped, with a warning, in a step
        but not in the check, which takes the inlet range's ends as given."""
        with caplog.at_level(logging.WARNING, logger="geodcsim.dcphysics"):
            params = DcPhysicsParams(supply_approach_temps_c=(30.0,) * 4)
            assert not caplog.records
            it_power_and_return_temp(params, 20.0, 0.5, 0.5, 0.0)
        assert len(caplog.records) == 4
