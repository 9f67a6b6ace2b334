"""Per-timestep data-center physics: IT power, thermal chain, HVAC, water, heat recovery.

The model evaluates one 15-minute step as a pure function of the parameter block,
the current CRAC setpoint, aggregate utilizations, and ambient weather:

    inlet temps -> component powers -> rack outlet temps -> CRAC return temp
    -> cooling load -> chiller/fans/pumps -> water draw -> energy

Utilizations are fractions in [0, 1] everywhere. All servers in a site share the
aggregate utilization; heterogeneity below the rack level is out of scope.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from datetime import timedelta
from enum import Enum

from .envdata import DRY_BULB_RANGE_C
from .errors import ConfigError, naming, within
from .floats import checked, left_sum
from .workload import STEP

logger = logging.getLogger(__name__)

STEP_HOURS = STEP / timedelta(hours=1)


class HvacAction(Enum):
    DOWN_1C = -1
    HOLD = 0
    UP_1C = 1


@dataclass(frozen=True)
class WeatherSample:
    drybulb_c: float
    wetbulb_c: float


# The JSON document's sections, each as its path of keys
_DC = ("data_center_configuration",)
_SERVER = ("server_characteristics",)
_HVAC = ("hvac_configuration",)
_HRU = (*_HVAC, "HRU")

# domains, as ``checked``'s bounds
_FINITE = ()
_NONNEGATIVE = (0.0,)
_POSITIVE = (0.0, math.inf, True)
_EFFICIENCY = (0.0, 1.0, True)
_EXPONENT = (0.0, 2.0)  # a greater power of a rack's power or air flow overflows or underflows


def _param(default, section, key, domain=_FINITE, *, half=None):
    """A parameter's one declaration: its default, its key in the JSON ``section``,
    and its domain, for a tuple one for every element or a list of one per element.
    The two halves of a two-number list, such as ``HP_PROLIANT``'s ``[idle W, full
    W]``, are two parameters that share its key, ``half=0`` and ``half=1``."""
    return field(default=default,
                 metadata={"keys": (*section, key), "domain": domain, "half": half})


@dataclass(frozen=True)
class DcPhysicsParams:
    """Physical constants of one site. Immutable after load.

    CPU/fan curves are linear in inlet temperature between the lower/upper ratio
    bounds over ``inlet_temp_range_c``; GPU power is logarithmic in utilization.
    Each field declares its default, its JSON key and its domain, in the order the
    JSON document writes its keys.
    """

    num_racks: int = _param(4, _DC, "NUM_RACKS", (1, 100_000))
    cpus_per_rack: int = _param(50, _DC, "CPUS_PER_RACK", (0, 10_000))
    gpus_per_rack: int = _param(10, _DC, "GPUS_PER_RACK", (0, 10_000))
    supply_approach_temps_c: tuple = _param((), _DC, "RACK_SUPPLY_APPROACH_TEMP_LIST")
    return_approach_temps_c: tuple = _param((), _DC, "RACK_RETURN_APPROACH_TEMP_LIST")

    cpu_power_ratio_lb: tuple = _param((0.01, 1.00), _SERVER, "CPU_POWER_RATIO_LB")
    cpu_power_ratio_ub: tuple = _param((0.03, 1.02), _SERVER, "CPU_POWER_RATIO_UB")
    inlet_temp_range_c: tuple = _param((16.0, 28.0), _SERVER, "INLET_TEMP_RANGE")
    # nameplate reference; the ratio curve governs actual idle draw
    cpu_idle_w: float = _param(110.0, _SERVER, "HP_PROLIANT", _NONNEGATIVE, half=0)
    cpu_full_w: float = _param(170.0, _SERVER, "HP_PROLIANT", _POSITIVE, half=1)
    gpu_idle_w: float = _param(25.0, _SERVER, "NVIDIA_V100", _NONNEGATIVE, half=0)
    gpu_full_w: float = _param(250.0, _SERVER, "NVIDIA_V100", _POSITIVE, half=1)
    fan_airflow_ratio_lb: tuple = _param((0.01, 0.225), _SERVER, "IT_FAN_AIRFLOW_RATIO_LB")
    fan_airflow_ratio_ub: tuple = _param((0.225, 1.0), _SERVER, "IT_FAN_AIRFLOW_RATIO_UB")
    fan_full_load_v_m3s: float = _param(0.051, _SERVER, "IT_FAN_FULL_LOAD_V")
    fan_ref_ratio: float = _param(1.0, _SERVER, "ITFAN_REF_V_RATIO", _POSITIVE)
    fan_ref_w: float = _param(10.0, _SERVER, "ITFAN_REF_P", _POSITIVE)
    # at most the fan affinity law's cube
    fan_power_exponent: float = _param(1.0, _SERVER, "IT_FAN_POWER_EXPONENT", (0.0, 3.0))
    mem_w_per_gb: float = _param(0.07, _SERVER, "MEM_POWER_PER_GB", _NONNEGATIVE)
    design_it_load_w: float = _param(1.0e6, _SERVER, "DESIGN_IT_LOAD_W", _POSITIVE)
    # rack outlet model T_out = T_in + c*P^d / (Cp*rho*V^e*f) + g
    thermal_coeffs: tuple = _param((1.0, 1.0, 1.0, 1.0, 0.0), _SERVER, "THERMAL_COEFFS",
                                   [_FINITE, _EXPONENT, _EXPONENT, _FINITE, _FINITE])

    c_air: float = _param(1006.0, _HVAC, "C_AIR", _POSITIVE)
    rho_air: float = _param(1.225, _HVAC, "RHO_AIR", _POSITIVE)
    crac_fan_ref_w: float = _param(150.0, _HVAC, "CRAC_FAN_REF_P", _POSITIVE)
    # kg/s per W of IT load
    crac_supply_flow_pu: float = _param(5.663e-5, _HVAC, "CRAC_SUPPLY_AIR_FLOW_RATE_pu", _POSITIVE)
    crac_ref_flow_pu: float = _param(9.438e-5, _HVAC, "CRAC_REFERENCE_AIR_FLOW_RATE_pu",
                                     _POSITIVE)
    ct_fan_ref_w: float = _param(1000.0, _HVAC, "CT_FAN_REF_P", _POSITIVE)
    ct_ref_air_flow_m3s: float = _param(2.8315, _HVAC, "CT_REFERENCE_AIR_FLOW_RATE", _POSITIVE)
    ct_delta_t_k: float = _param(10.0, _HVAC, "CT_DELTA_T", _POSITIVE)
    cw_pressure_drop_pa: float = _param(3.0e5, _HVAC, "CW_PRESSURE_DROP", _NONNEGATIVE)
    ct_pressure_drop_pa: float = _param(3.0e5, _HVAC, "CT_PRESSURE_DROP", _NONNEGATIVE)
    cw_pump_eff: float = _param(0.87, _HVAC, "CW_PUMP_EFFICIENCY", _EFFICIENCY)
    ct_pump_eff: float = _param(0.87, _HVAC, "CT_PUMP_EFFICIENCY", _EFFICIENCY)
    cw_flow_m3s: float = _param(0.0011, _HVAC, "CW_WATER_FLOW_RATE", _NONNEGATIVE)
    ct_flow_m3s: float = _param(0.0011, _HVAC, "CT_WATER_FLOW_RATE", _NONNEGATIVE)
    chiller_cop_nominal: float = _param(5.0, _HVAC, "CHILLER_COP_NOMINAL")
    chiller_cop_ambient_slope: float = _param(0.1, _HVAC, "CHILLER_COP_AMBIENT_SLOPE")
    chiller_cop_min: float = _param(1.5, _HVAC, "CHILLER_COP_MIN", _POSITIVE)
    chiller_capacity_w: float = _param(1.2e6, _HVAC, "CHILLER_CAPACITY_W", _POSITIVE)
    chiller_min_load_fraction: float = _param(0.2, _HVAC, "CHILLER_MIN_LOAD_FRACTION")
    condenser_t_range_k: float = _param(5.0, _HVAC, "CONDENSER_T_RANGE")
    water_drift_rate: float = _param(0.002, _HVAC, "WATER_DRIFT_RATE", _NONNEGATIVE)
    heat_reject_unit_w: float = _param(1.0e6, _HVAC, "HEAT_REJECT_UNIT_W", _POSITIVE)
    setpoint_range_c: tuple = _param((18.0, 27.0), _HVAC, "SETPOINT_RANGE")

    hru_ave_hlp_w_m2k: float = _param(5.0, _HRU, "AVE_HLP")
    hru_dc_area_pu_m2_per_w: float = _param(0.001, _HRU, "DC_AREA_PU")
    hru_office_area_m2: float = _param(5000.0, _HRU, "OFFICE_BUILDING_AREA")
    hru_office_guide_temp_c: float = _param(21.0, _HRU, "OFFICE_GUIDE_TEMP")
    hru_it_load_cap_fraction: float = _param(0.25, _HRU, "IT_LOAD_CAP_FRACTION")

    def __post_init__(self):
        for name, kind, domain in _CHECKS:
            value = getattr(self, name)
            if kind is tuple:  # one domain for every element, or a list of one per element
                each = domain if isinstance(domain, list) else [domain] * len(value)
                if len(value) != len(each):
                    raise ValueError(f"{name} must hold {len(each)} numbers")
                value = tuple(checked(v, name, *d) for v, d in zip(value, each))
            else:
                value = checked(value, name, *domain, kind=kind)
            object.__setattr__(self, name, value)
        for name in ("supply_approach_temps_c", "return_approach_temps_c"):
            vals = getattr(self, name) or (0.0,) * self.num_racks
            if len(vals) != self.num_racks:
                raise ValueError(f"{name} must have one entry per rack ({self.num_racks})")
            object.__setattr__(self, name, vals)
        for name in ("cpu_power_ratio_lb", "cpu_power_ratio_ub",
                     "fan_airflow_ratio_lb", "fan_airflow_ratio_ub"):
            pair = getattr(self, name)
            if len(pair) != 2 or not (pair[0] >= 0 and pair[1] >= 0):
                raise ValueError(f"{name} must be two numbers >= 0")
        for lb, ub in ((self.cpu_power_ratio_lb, self.cpu_power_ratio_ub),
                       (self.fan_airflow_ratio_lb, self.fan_airflow_ratio_ub)):
            if lb[0] > ub[0] or lb[1] > ub[1]:
                raise ValueError("ratio lower bounds must not exceed upper bounds")
        for name in ("inlet_temp_range_c", "setpoint_range_c"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not bounds[0] < bounds[1]:
                raise ValueError(f"{name} must be ordered: two numbers lo < hi")
        if self.thermal_coeffs[3] == 0:
            raise ValueError("thermal_coeffs f must be nonzero")
        check_envelope(self)


# Each field's name, the type of its default (int, float or a tuple of floats) that a
# value is cast to, and its domain; built once, as every block reads it.
_CHECKS = tuple((f.name, type(f.default), f.metadata["domain"]) for f in fields(DcPhysicsParams))


@dataclass(slots=True)
class DcStepResult:
    """Energy, water and temperature outputs of one 15-minute physics step.

    ``q_crac_w`` is the heat the CRAC removes; ``q_effective_w`` is what is left
    for the chiller after heat recovery.
    """

    it_power_w: float
    crac_fan_w: float
    chiller_w: float
    ct_fan_w: float
    pump_w: float
    total_power_w: float
    energy_kwh: float
    water_l_15min: float
    crac_return_temp_c: float
    hru_recovered_w: float
    q_crac_w: float
    q_effective_w: float
    setpoint_c: float


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


def _ratio_curve(params: DcPhysicsParams, lb, ub, t_inlet_c: float, u: float) -> float:
    """Ratio linear in the clamped inlet temperature, shared by the CPU and fan models.

    At zero load it runs from ``lb[0]`` at the cold end of ``inlet_temp_range_c``
    to ``ub[0]`` at the hot end; full load adds ``lb[1] - lb[0]``.
    """
    lo, hi = params.inlet_temp_range_c
    t = _clamp(t_inlet_c, lo, hi)
    slope = (ub[0] - lb[0]) / (hi - lo)
    return slope * t + (ub[0] - slope * hi) + (lb[1] - lb[0]) * u


def cpu_power(params: DcPhysicsParams, t_inlet_c: float, u_cpu: float) -> float:
    """CPU draw in W: full-load power times the temperature/utilization ratio curve.

    Inlet temperatures outside the operating range are clamped, not rejected.
    """
    ratio = _ratio_curve(
        params, params.cpu_power_ratio_lb, params.cpu_power_ratio_ub, t_inlet_c, u_cpu
    )
    return params.cpu_full_w * ratio


def gpu_power(params: DcPhysicsParams, u_gpu: float) -> float:
    """GPU draw in W: idle + (full - idle) * log2(1 + u)."""
    return params.gpu_idle_w + (params.gpu_full_w - params.gpu_idle_w) * math.log2(1.0 + u_gpu)


def memory_power_per_rack(params: DcPhysicsParams, total_mem_gb: float) -> float:
    """Static DRAM draw per rack: capacity split evenly across ``params.num_racks``."""
    return params.mem_w_per_gb * total_mem_gb / params.num_racks


def fan_velocity_ratio(params: DcPhysicsParams, t_inlet_c: float, u_eff: float) -> float:
    return _ratio_curve(
        params, params.fan_airflow_ratio_lb, params.fan_airflow_ratio_ub, t_inlet_c, u_eff
    )


def fan_power(params: DcPhysicsParams, t_inlet_c: float, u_eff: float) -> float:
    """Server-fan draw in W from the velocity-ratio curve.

    ``u_eff`` is the aggregate thermal load fraction the fan must remove
    (CPU, GPU and memory combined).
    """
    ratio = fan_velocity_ratio(params, t_inlet_c, u_eff)
    return params.fan_ref_w * (ratio / params.fan_ref_ratio) ** params.fan_power_exponent


def total_it_power(
    params: DcPhysicsParams,
    rack_inlet_temps_c,
    u_cpu: float,
    u_gpu: float,
    total_mem_gb: float,
) -> tuple[float, list[float]]:
    """Sum component powers over the ``params.num_racks`` identical racks.

    Every rack holds ``cpus_per_rack`` servers and ``gpus_per_rack`` GPUs; its
    servers share that rack's inlet temperature and the aggregate utilizations.
    Returns (total W, per-rack W).
    """
    u_eff = _clamp(0.5 * (u_cpu + u_gpu), 0.0, 1.0)
    gpus = params.gpus_per_rack * gpu_power(params, u_gpu)
    memory = memory_power_per_rack(params, total_mem_gb)
    per_rack = []
    for t_in in rack_inlet_temps_c:
        p = params.cpus_per_rack * (cpu_power(params, t_in, u_cpu) + fan_power(params, t_in, u_eff))
        p += gpus
        p += memory
        per_rack.append(p)
    return left_sum(per_rack), per_rack


def rack_outlet_temp(
    params: DcPhysicsParams, t_in_c: float, rack_power_w: float, fan_flow_m3s: float
) -> float:
    """Rack outlet temperature from the energy-balance model with empirical coefficients."""
    c, d, e, f, g = params.thermal_coeffs
    rise = c * rack_power_w ** d / (params.c_air * params.rho_air * fan_flow_m3s ** e * f)
    return t_in_c + rise + g


def crac_return_temp(params: DcPhysicsParams, rack_outlet_temps_c) -> float:
    """Mean over racks of outlet temperature plus the rack's return approach offset."""
    temps = zip(rack_outlet_temps_c, params.return_approach_temps_c)
    return left_sum(t + dt for t, dt in temps) / params.num_racks


def pump_power(pressure_drop_pa: float, flow_m3s: float, efficiency: float) -> float:
    """Hydraulic pump draw in W: pressure drop times volume flow over efficiency."""
    return pressure_drop_pa * flow_m3s / efficiency


def chiller_cop(params: DcPhysicsParams, t_drybulb_c: float) -> float:
    """Ambient-degraded coefficient of performance, floored at the minimum COP."""
    cop = params.chiller_cop_nominal - params.chiller_cop_ambient_slope * (t_drybulb_c - 20.0)
    return max(params.chiller_cop_min, cop)


def heat_recovery_w(params: DcPhysicsParams, t_drybulb_c: float) -> float:
    """Recoverable office-heating duty in W; zero when outdoors is warmer than the office target."""
    t_delta = max(params.hru_office_guide_temp_c - t_drybulb_c, 0.0)
    q_dc_office = (
        params.hru_ave_hlp_w_m2k * params.hru_dc_area_pu_m2_per_w
        * params.design_it_load_w * t_delta
    )
    q_ext_office = params.hru_ave_hlp_w_m2k * params.hru_office_area_m2 * t_delta
    return q_dc_office + q_ext_office


def recovered_heat_w(params: DcPhysicsParams, it_power_w: float, t_drybulb_c: float) -> float:
    """The heat that recovery takes off the CRAC load: the office duty, capped at a
    fixed fraction of the IT load."""
    potential = heat_recovery_w(params, t_drybulb_c)
    return min(potential, params.hru_it_load_cap_fraction * it_power_w)


def hvac_plant(
    params: DcPhysicsParams,
    it_power_w: float,
    t_return_c: float,
    setpoint_c: float,
    recovered_w: float,
) -> tuple:
    """The cooling chain's weather-independent half, with ``recovered_w`` of heat
    recovered, from which ``hvac_weather`` finishes the step. It is a plain tuple,
    as building a named one adds about a quarter to ``hvac_step``'s time. In order:
    the total power's first partial sum (IT power plus the CRAC fan), the chiller's
    load (its capacity times its effective load fraction, ``None`` while it serves
    no load), the cooling-tower fan, the pumps, the served load, then the IT power,
    CRAC fan, return temperature, recovered heat, CRAC load and effective load that
    the record carries.

    The CRAC load is carried by an air mass flow proportional to IT power; the
    recovered heat never drives the effective cooling load negative. Pumps draw
    their constant hydraulic power whenever the plant is on.
    """
    m_dot = params.crac_supply_flow_pu * it_power_w
    q_crac = m_dot * params.c_air * max(t_return_c - setpoint_c, 0.0)
    q_effective = max(q_crac - recovered_w, 0.0)
    q_served = min(q_effective, params.chiller_capacity_w)

    crac_fan = (
        params.crac_fan_ref_w
        * (params.crac_supply_flow_pu / params.crac_ref_flow_pu) ** 3
        * (it_power_w / params.design_it_load_w)
    )

    chiller_load = None
    if q_served > 0.0:
        load_fraction = q_served / params.chiller_capacity_w
        effective_fraction = max(load_fraction, params.chiller_min_load_fraction)
        chiller_load = params.chiller_capacity_w * effective_fraction

    v_air = q_served / (params.c_air * params.rho_air * params.ct_delta_t_k)
    ct_fan = params.ct_fan_ref_w * (v_air / params.ct_ref_air_flow_m3s) ** 3

    pumps = pump_power(params.cw_pressure_drop_pa, params.cw_flow_m3s, params.cw_pump_eff)
    pumps += pump_power(params.ct_pressure_drop_pa, params.ct_flow_m3s, params.ct_pump_eff)
    return (it_power_w + crac_fan, chiller_load, ct_fan, pumps, q_served, it_power_w,
            crac_fan, t_return_c, recovered_w, q_crac, q_effective)


def hvac_weather(params: DcPhysicsParams, plant: tuple, setpoint_c: float,
                 t_drybulb_c: float, t_wetbulb_c: float) -> DcStepResult:
    """The cooling chain's weather half: the chiller's draw at the dry-bulb's COP and
    the water draw at the wet-bulb, then the whole step record at ``setpoint_c``."""
    (head, chiller_load, ct_fan, pumps, q_served, it_power, crac_fan, t_return, recovered,
     q_crac, q_effective) = plant
    chiller = 0.0
    if chiller_load is not None:
        chiller = chiller_load / chiller_cop(params, t_drybulb_c)

    w_norm = water_usage_rate(params.condenser_t_range_k, t_wetbulb_c)
    w_evap = max(w_norm, 0.0) * q_served / params.heat_reject_unit_w
    w_total = w_evap * (1.0 + params.water_drift_rate)

    total = head + chiller + ct_fan + pumps
    # positional, in DcStepResult's field order: keywords cost several times more per step
    return DcStepResult(it_power, crac_fan, chiller, ct_fan, pumps, total,
                        total * STEP_HOURS / 1000.0, water_to_15min_liters(w_total),
                        t_return, recovered, q_crac, q_effective, setpoint_c)


def hvac_step(
    params: DcPhysicsParams,
    it_power_w: float,
    t_return_c: float,
    setpoint_c: float,
    t_drybulb_c: float,
    t_wetbulb_c: float,
    hru_enabled: bool = False,
) -> DcStepResult:
    """Evaluate the cooling chain for one step and return the whole step record:
    ``hvac_weather`` applied to ``hvac_plant``.

    Heat recovery, when enabled, offsets at most a fixed fraction of the IT load
    (``recovered_heat_w``); it is the one weather term that ``hvac_plant`` takes.
    ``step_setpoint`` and ``DcPhysicsParams`` check the inputs.
    """
    recovered = recovered_heat_w(params, it_power_w, t_drybulb_c) if hru_enabled else 0.0
    plant = hvac_plant(params, it_power_w, t_return_c, setpoint_c, recovered)
    return hvac_weather(params, plant, setpoint_c, t_drybulb_c, t_wetbulb_c)


def water_usage_rate(t_range_k: float, t_wetbulb_c: float) -> float:
    """Normalized evaporative water usage (m3/hr per heat-rejection unit)."""
    y_intercept = 0.3528 * t_range_k + 0.101
    return 0.044 * t_wetbulb_c + y_intercept


def water_to_15min_liters(w_total_m3_per_hr: float) -> float:
    """Convert an hourly water rate in m3/hr to liters per 15-minute interval."""
    return w_total_m3_per_hr * 1000.0 * STEP_HOURS


def apply_hvac_action(params: DcPhysicsParams, setpoint_c: float, action: HvacAction) -> float:
    """Move the CRAC setpoint by +/-1 degC (or hold), clamped to the valid range."""
    return _clamp(setpoint_c + float(action.value), *params.setpoint_range_c)


def step_setpoint(
    params: DcPhysicsParams,
    setpoint_c: float,
    u_cpu: float,
    u_gpu: float,
    mem_used_gb: float,
    setpoint_action: HvacAction | None,
) -> float:
    """Check one step's inputs and return the setpoint after ``setpoint_action``."""
    for name, u in (("u_cpu", u_cpu), ("u_gpu", u_gpu)):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"{name} {u} outside [0, 1]")
    if mem_used_gb < 0:
        raise ValueError("mem_used_gb must be >= 0")
    lo, hi = params.setpoint_range_c
    if not lo <= setpoint_c <= hi:
        raise ValueError(f"setpoint {setpoint_c} outside [{lo}, {hi}]")
    if setpoint_action is None:
        return setpoint_c
    return apply_hvac_action(params, setpoint_c, setpoint_action)


def it_power_and_return_temp(
    params: DcPhysicsParams,
    setpoint_c: float,
    u_cpu: float,
    u_gpu: float,
    mem_used_gb: float,
) -> tuple[float, float]:
    """The rack half of a step: (IT power W, CRAC return degC).

    ``setpoint_c`` is the setpoint after the step's action, and ``step_setpoint``
    checks the inputs. Inlets outside ``inlet_temp_range_c`` are clamped, with a
    warning per call.
    """
    t_lo, t_hi = params.inlet_temp_range_c
    inlets = []
    for approach in params.supply_approach_temps_c:
        t_in = setpoint_c + approach
        clamped = _clamp(t_in, t_lo, t_hi)
        if clamped != t_in:
            logger.warning(
                "inlet temperature %.2f degC clamped to [%.1f, %.1f]", t_in, t_lo, t_hi
            )
        inlets.append(clamped)
    return _rack_half(params, inlets, u_cpu, u_gpu, mem_used_gb)


def _rack_half(params: DcPhysicsParams, inlets, u_cpu: float, u_gpu: float,
               mem_used_gb: float) -> tuple[float, float]:
    """(IT power W, CRAC return degC) of racks whose inlets are at ``inlets`` degC."""
    it_power, per_rack = total_it_power(params, inlets, u_cpu, u_gpu, mem_used_gb)

    # All CRAC supply air is pushed through the racks in equal shares, so with the
    # default outlet coefficients the heat handed to the CRAC matches IT power. A
    # subnormal IT power can leave a rack no flow at all, hence the test on v_rack.
    v_rack = params.crac_supply_flow_pu * it_power / (params.num_racks * params.rho_air)
    if v_rack > 0.0:
        outlets = [rack_outlet_temp(params, t_in, p, v_rack) for t_in, p in zip(inlets, per_rack)]
    else:
        outlets = [t_in + params.thermal_coeffs[4] for t_in in inlets]
    return it_power, crac_return_temp(params, outlets)


def dc_physics_step(
    params: DcPhysicsParams,
    setpoint_c: float,
    u_cpu: float,
    u_gpu: float,
    mem_used_gb: float,
    weather: WeatherSample,
    setpoint_action: HvacAction | None = None,
    hru_enabled: bool = False,
) -> DcStepResult:
    """Run the full IT -> thermal -> HVAC chain for one 15-minute step.

    Pure in its inputs: the returned ``setpoint_c`` is the effective setpoint
    after applying ``setpoint_action``; the caller owns persisting it.
    """
    setpoint = step_setpoint(params, setpoint_c, u_cpu, u_gpu, mem_used_gb, setpoint_action)
    it_power, t_return = it_power_and_return_temp(params, setpoint, u_cpu, u_gpu, mem_used_gb)
    return hvac_step(
        params, it_power, t_return, setpoint,
        weather.drybulb_c, weather.wetbulb_c, hru_enabled,
    )


def check_envelope(params: DcPhysicsParams, mem_gb: float = 0.0) -> None:
    """Run the step chain at the corners of its inputs, and refuse ``params`` with a
    ``ValueError`` if it overflows, divides by zero or gives a number that is not finite.

    Each term of a rack's power (CPU, fan, GPU, memory) grows with the rack's inlet
    temperature and is monotone in the load, and every inlet lies in
    ``inlet_temp_range_c``. So the rack half runs with every inlet at each end of
    that range, at no load and at full load, with ``mem_gb`` of memory: each term's
    smallest and largest value lie among those four corners. A block checks itself
    with no memory, as it does not know its site's; the runner checks it again at
    each site's full memory. It takes the inlets as given, without the clamp and
    its warning.

    Each output of ``hvac_step`` grows in size with IT power, CRAC return temperature
    and wet-bulb temperature and as the setpoint falls, and is monotone in the
    dry-bulb temperature. So the cooling chain runs at the largest IT power and return
    temperature of those corners, the lowest setpoint and each end of
    ``DRY_BULB_RANGE_C`` (with the wet-bulb there, its highest), with and without
    heat recovery: eight evaluations in all.
    """
    peak_it, peak_return = 0.0, -math.inf
    for t_in in params.inlet_temp_range_c:
        for u in (0.0, 1.0):
            with within(f"the step at inlet {t_in:g} degC and load {u:g}", ValueError):
                it_power, t_return = _rack_half(params, (t_in,) * params.num_racks, u, u, mem_gb)
                peak_it = max(peak_it, checked(it_power, "IT power"))
                peak_return = max(peak_return, checked(t_return, "CRAC return temperature"))
    setpoint = params.setpoint_range_c[0]
    for t_drybulb in DRY_BULB_RANGE_C:
        for hru in (False, True):
            with within(f"the step at IT power {peak_it:g} W, CRAC return {peak_return:g} degC, "
                        f"setpoint {setpoint:g} degC, dry-bulb {t_drybulb:g} degC and heat "
                        f"recovery {'on' if hru else 'off'}", ValueError):
                result = hvac_step(params, peak_it, peak_return, setpoint, t_drybulb, t_drybulb,
                                   hru)
                for f in fields(result):
                    checked(getattr(result, f.name), f.name)


def params_to_config(params: DcPhysicsParams) -> dict:
    """The JSON document of ``params``: each field under its keys, in field order."""
    doc = {}
    for f in fields(params):
        *sections, key = f.metadata["keys"]
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        value = getattr(params, f.name)
        if f.metadata["half"] is not None:
            section.setdefault(key, []).append(value)
        else:
            section[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _leaves(doc, declared: dict, where=()) -> dict:
    """Each value of the JSON document ``doc`` by its keys. A key that ``declared``, a
    document of every declared key, does not hold, a section that is no JSON object, or
    a value that holds true or false raises ``ValueError`` naming its keys."""
    if not isinstance(doc, dict):
        raise ValueError(": ".join((*where, "expected a JSON object")))
    leaves = {}
    for key, value in doc.items():
        if key not in declared:
            raise ValueError(": ".join((*where, str(key), "unknown key")))
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise ValueError(": ".join((*where, key, "must be a number, not true or false")))
        if isinstance(declared[key], dict):
            leaves.update(_leaves(value, declared[key], (*where, key)))
        else:
            leaves[(*where, key)] = value
    return leaves


def params_from_config(doc: dict) -> DcPhysicsParams:
    """Build a parameter block from the JSON document. An absent key keeps its
    field's default, and a key that no field declares is refused.

    A malformed value raises ``ValueError`` naming its keys: each number is one
    ``checked`` as the document writes it, so a number written as text is refused.
    """
    leaves = _leaves(doc, params_to_config(DcPhysicsParams()))
    kwargs = {}
    for f in fields(DcPhysicsParams):
        keys, half, kind = f.metadata["keys"], f.metadata["half"], type(f.default)
        if keys not in leaves:
            continue
        value, what = leaves[keys], ": ".join(keys)
        if half is not None:
            if not isinstance(value, list) or len(value) != 2:
                raise ValueError(f"{what}: expected [idle W, full W], got {value!r}")
            value = value[half]
        if kind is not tuple:
            kwargs[f.name] = checked(value, what, kind=kind)  # 4.7 racks are not 4
        elif isinstance(value, list):  # tuple("01") is ("0", "1")
            kwargs[f.name] = tuple(value)  # DcPhysicsParams checks each element
        else:
            raise ValueError(f"{what}: expected a list of numbers, got {value!r}")
    return DcPhysicsParams(**kwargs)


def load_dc_config(path) -> DcPhysicsParams:
    """Read a physics JSON file; any malformed content raises ``ConfigError`` naming the file."""
    with naming(path), open(path) as fh:
        try:
            return params_from_config(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        except ValueError as exc:  # a bad byte too: UnicodeDecodeError is one
            raise ConfigError(str(exc)) from exc


def save_dc_config(params: DcPhysicsParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_config(params), fh, indent=2)


def desk_scale_params(**overrides) -> DcPhysicsParams:
    """A small plant sized for fast test scenarios (~50 kW design IT load)."""
    base = dict(
        design_it_load_w=5.0e4,
        chiller_capacity_w=6.0e4,
    )
    base.update(overrides)
    return DcPhysicsParams(**base)
