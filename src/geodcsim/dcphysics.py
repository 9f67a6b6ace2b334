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
from dataclasses import dataclass, fields
from datetime import timedelta
from enum import Enum

from .errors import ConfigError, naming
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


@dataclass(frozen=True)
class DcPhysicsParams:
    """Physical constants of one site. Immutable after load.

    CPU/fan curves are linear in inlet temperature between the lower/upper ratio
    bounds over ``inlet_temp_range_c``; GPU power is logarithmic in utilization.
    """

    # layout
    num_racks: int = 4
    cpus_per_rack: int = 50
    gpus_per_rack: int = 10
    supply_approach_temps_c: tuple = ()
    return_approach_temps_c: tuple = ()

    # server characteristics
    cpu_power_ratio_lb: tuple = (0.01, 1.00)
    cpu_power_ratio_ub: tuple = (0.03, 1.02)
    inlet_temp_range_c: tuple = (16.0, 28.0)
    cpu_idle_w: float = 110.0  # nameplate reference; the ratio curve governs actual idle draw
    cpu_full_w: float = 170.0
    gpu_idle_w: float = 25.0
    gpu_full_w: float = 250.0
    fan_airflow_ratio_lb: tuple = (0.01, 0.225)
    fan_airflow_ratio_ub: tuple = (0.225, 1.0)
    fan_ref_w: float = 10.0
    fan_ref_ratio: float = 1.0
    fan_full_load_v_m3s: float = 0.051
    fan_power_exponent: float = 1.0
    mem_w_per_gb: float = 0.07
    design_it_load_w: float = 1.0e6
    # rack outlet model T_out = T_in + c*P^d / (Cp*rho*V^e*f) + g
    thermal_coeffs: tuple = (1.0, 1.0, 1.0, 1.0, 0.0)

    # air properties
    c_air: float = 1006.0
    rho_air: float = 1.225

    # hvac chain
    crac_fan_ref_w: float = 150.0
    crac_supply_flow_pu: float = 5.663e-5  # kg/s per W of IT load
    crac_ref_flow_pu: float = 9.438e-5
    ct_fan_ref_w: float = 1000.0
    ct_ref_air_flow_m3s: float = 2.8315
    ct_delta_t_k: float = 10.0
    cw_pressure_drop_pa: float = 3.0e5
    ct_pressure_drop_pa: float = 3.0e5
    cw_pump_eff: float = 0.87
    ct_pump_eff: float = 0.87
    cw_flow_m3s: float = 0.0011
    ct_flow_m3s: float = 0.0011
    chiller_cop_nominal: float = 5.0
    chiller_cop_ambient_slope: float = 0.1
    chiller_cop_min: float = 1.5
    chiller_capacity_w: float = 1.2e6
    chiller_min_load_fraction: float = 0.2

    # water
    water_drift_rate: float = 0.002
    heat_reject_unit_w: float = 1.0e6
    condenser_t_range_k: float = 5.0

    # heat recovery
    hru_ave_hlp_w_m2k: float = 5.0
    hru_dc_area_pu_m2_per_w: float = 0.001
    hru_office_area_m2: float = 5000.0
    hru_office_guide_temp_c: float = 21.0
    hru_it_load_cap_fraction: float = 0.25

    setpoint_range_c: tuple = (18.0, 27.0)

    def __post_init__(self):
        for name, domain in _DOMAINS.items():
            value, kind = getattr(self, name), _FIELD_TYPES[name]
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
        # fan_power's largest draw: its ratio curve is linear in the clamped inlet and
        # in u_eff, which lies in [0, 1], so the curve peaks at a corner
        largest = max(fan_velocity_ratio(self, t, u) for t in self.inlet_temp_range_c
                      for u in (0.0, 1.0))
        what = f"fan_ref_w * (largest fan ratio {largest:g} / fan_ref_ratio) ** fan_power_exponent"
        try:
            checked(self.fan_ref_w * (largest / self.fan_ref_ratio) ** self.fan_power_exponent, what)
        except OverflowError:  # float ** raises where * gives an infinity
            raise ValueError(f"{what} must be finite") from None


# each field's default type, int, float or tuple (of floats): a value is cast to it
_FIELD_TYPES = {f.name: type(f.default) for f in fields(DcPhysicsParams)}

_POSITIVE = (0.0, math.inf, True)
_EXPONENT = (0.0, 2.0)  # a greater power of a rack's power or air flow overflows or underflows
# Each field's domain, or each element's for a tuple field; a field given () need only
# be finite. __post_init__ checks every number of a parameter block against it.
_DOMAINS = dict.fromkeys(_FIELD_TYPES, ()) | {
    "num_racks": (1, 100_000), "cpus_per_rack": (0, 10_000), "gpus_per_rack": (0, 10_000),
    "thermal_coeffs": [(), _EXPONENT, _EXPONENT, (), ()],  # c, d, e, f, g
    "fan_power_exponent": (0.0, 3.0),  # at most the fan affinity law's cube
    "cw_pump_eff": (0.0, 1.0, True), "ct_pump_eff": (0.0, 1.0, True),
    **dict.fromkeys(("cpu_full_w", "gpu_full_w", "fan_ref_w", "fan_ref_ratio", "crac_fan_ref_w",
                     "ct_fan_ref_w", "ct_ref_air_flow_m3s", "crac_supply_flow_pu",
                     "crac_ref_flow_pu", "design_it_load_w", "chiller_capacity_w",
                     "chiller_cop_min", "heat_reject_unit_w", "ct_delta_t_k", "c_air",
                     "rho_air"), _POSITIVE),
    **dict.fromkeys(("cpu_idle_w", "gpu_idle_w", "mem_w_per_gb", "cw_pressure_drop_pa",
                     "ct_pressure_drop_pa", "cw_flow_m3s", "ct_flow_m3s", "water_drift_rate"),
                    (0.0,)),
}


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


def hvac_step(
    params: DcPhysicsParams,
    it_power_w: float,
    t_return_c: float,
    setpoint_c: float,
    t_drybulb_c: float,
    t_wetbulb_c: float,
    hru_enabled: bool = False,
) -> DcStepResult:
    """Evaluate the cooling chain for one step and return the whole step record.

    The CRAC load is carried by an air mass flow proportional to IT power; heat
    recovery (when enabled) offsets at most a fixed fraction of the IT load and
    never drives the effective cooling load negative. Pumps draw their constant
    hydraulic power whenever the plant is on. ``step_setpoint`` and
    ``DcPhysicsParams`` check the inputs.
    """
    m_dot = params.crac_supply_flow_pu * it_power_w
    q_crac = m_dot * params.c_air * max(t_return_c - setpoint_c, 0.0)

    recovered = 0.0
    if hru_enabled:
        potential = heat_recovery_w(params, t_drybulb_c)
        recovered = min(potential, params.hru_it_load_cap_fraction * it_power_w)
    q_effective = max(q_crac - recovered, 0.0)
    q_served = min(q_effective, params.chiller_capacity_w)

    crac_fan = (
        params.crac_fan_ref_w
        * (params.crac_supply_flow_pu / params.crac_ref_flow_pu) ** 3
        * (it_power_w / params.design_it_load_w)
    )

    if q_served > 0.0:
        load_fraction = q_served / params.chiller_capacity_w
        effective_fraction = max(load_fraction, params.chiller_min_load_fraction)
        chiller = params.chiller_capacity_w * effective_fraction / chiller_cop(params, t_drybulb_c)
    else:
        chiller = 0.0

    v_air = q_served / (params.c_air * params.rho_air * params.ct_delta_t_k)
    ct_fan = params.ct_fan_ref_w * (v_air / params.ct_ref_air_flow_m3s) ** 3

    pumps = pump_power(params.cw_pressure_drop_pa, params.cw_flow_m3s, params.cw_pump_eff)
    pumps += pump_power(params.ct_pressure_drop_pa, params.ct_flow_m3s, params.ct_pump_eff)

    w_norm = water_usage_rate(params.condenser_t_range_k, t_wetbulb_c)
    w_evap = max(w_norm, 0.0) * q_served / params.heat_reject_unit_w
    w_total = w_evap * (1.0 + params.water_drift_rate)

    total = it_power_w + crac_fan + chiller + ct_fan + pumps
    # positional, in DcStepResult's field order: keywords cost several times more per step
    return DcStepResult(it_power_w, crac_fan, chiller, ct_fan, pumps, total,
                        total * STEP_HOURS / 1000.0, water_to_15min_liters(w_total),
                        t_return_c, recovered, q_crac, q_effective, setpoint_c)


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
    """The weather-independent half of a step: (IT power W, CRAC return degC).

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


# JSON parameter block: section and key names follow the conventional dc-config
# layout. The table mirrors that layout: each key names a section, one field, or
# the (idle W, full W) field pair written as a two-number list. It drives reading
# and writing alike, and its order is the written key order.
_LAYOUT = {
    "data_center_configuration": {
        "NUM_RACKS": "num_racks",
        "CPUS_PER_RACK": "cpus_per_rack",
        "GPUS_PER_RACK": "gpus_per_rack",
        "RACK_SUPPLY_APPROACH_TEMP_LIST": "supply_approach_temps_c",
        "RACK_RETURN_APPROACH_TEMP_LIST": "return_approach_temps_c",
    },
    "server_characteristics": {
        "CPU_POWER_RATIO_LB": "cpu_power_ratio_lb",
        "CPU_POWER_RATIO_UB": "cpu_power_ratio_ub",
        "INLET_TEMP_RANGE": "inlet_temp_range_c",
        "HP_PROLIANT": ("cpu_idle_w", "cpu_full_w"),
        "NVIDIA_V100": ("gpu_idle_w", "gpu_full_w"),
        "IT_FAN_AIRFLOW_RATIO_LB": "fan_airflow_ratio_lb",
        "IT_FAN_AIRFLOW_RATIO_UB": "fan_airflow_ratio_ub",
        "IT_FAN_FULL_LOAD_V": "fan_full_load_v_m3s",
        "ITFAN_REF_V_RATIO": "fan_ref_ratio",
        "ITFAN_REF_P": "fan_ref_w",
        "IT_FAN_POWER_EXPONENT": "fan_power_exponent",
        "MEM_POWER_PER_GB": "mem_w_per_gb",
        "DESIGN_IT_LOAD_W": "design_it_load_w",
        "THERMAL_COEFFS": "thermal_coeffs",
    },
    "hvac_configuration": {
        "C_AIR": "c_air",
        "RHO_AIR": "rho_air",
        "CRAC_FAN_REF_P": "crac_fan_ref_w",
        "CRAC_SUPPLY_AIR_FLOW_RATE_pu": "crac_supply_flow_pu",
        "CRAC_REFERENCE_AIR_FLOW_RATE_pu": "crac_ref_flow_pu",
        "CT_FAN_REF_P": "ct_fan_ref_w",
        "CT_REFERENCE_AIR_FLOW_RATE": "ct_ref_air_flow_m3s",
        "CT_DELTA_T": "ct_delta_t_k",
        "CW_PRESSURE_DROP": "cw_pressure_drop_pa",
        "CT_PRESSURE_DROP": "ct_pressure_drop_pa",
        "CW_PUMP_EFFICIENCY": "cw_pump_eff",
        "CT_PUMP_EFFICIENCY": "ct_pump_eff",
        "CW_WATER_FLOW_RATE": "cw_flow_m3s",
        "CT_WATER_FLOW_RATE": "ct_flow_m3s",
        "CHILLER_COP_NOMINAL": "chiller_cop_nominal",
        "CHILLER_COP_AMBIENT_SLOPE": "chiller_cop_ambient_slope",
        "CHILLER_COP_MIN": "chiller_cop_min",
        "CHILLER_CAPACITY_W": "chiller_capacity_w",
        "CHILLER_MIN_LOAD_FRACTION": "chiller_min_load_fraction",
        "CONDENSER_T_RANGE": "condenser_t_range_k",
        "WATER_DRIFT_RATE": "water_drift_rate",
        "HEAT_REJECT_UNIT_W": "heat_reject_unit_w",
        "SETPOINT_RANGE": "setpoint_range_c",
        "HRU": {
            "AVE_HLP": "hru_ave_hlp_w_m2k",
            "DC_AREA_PU": "hru_dc_area_pu_m2_per_w",
            "OFFICE_BUILDING_AREA": "hru_office_area_m2",
            "OFFICE_GUIDE_TEMP": "hru_office_guide_temp_c",
            "IT_LOAD_CAP_FRACTION": "hru_it_load_cap_fraction",
        },
    },
}


def _write(params: DcPhysicsParams, layout: dict) -> dict:
    doc = {}
    for key, target in layout.items():
        if isinstance(target, dict):
            doc[key] = _write(params, target)
        elif isinstance(target, tuple):
            doc[key] = [getattr(params, name) for name in target]
        else:
            value = getattr(params, target)
            doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _read(doc, layout: dict) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    kwargs = {}
    for key, target in layout.items():
        if key not in doc:
            continue
        value = doc[key]
        try:
            if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
                raise ValueError("must be a number, not true or false")
            if isinstance(target, dict):
                kwargs.update(_read(value, target))
            elif isinstance(target, tuple):
                if not isinstance(value, list) or len(value) != len(target):
                    raise ValueError(f"expected [idle W, full W], got {value!r}")
                kwargs.update(zip(target, map(float, value)))
            else:
                kwargs[target] = _FIELD_TYPES[target](value)  # DcPhysicsParams checks it
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ValueError(f"{key}: {exc}") from exc
    return kwargs


def params_to_config(params: DcPhysicsParams) -> dict:
    return _write(params, _LAYOUT)


def params_from_config(doc: dict) -> DcPhysicsParams:
    """Build a parameter block from the JSON document; absent keys keep defaults.

    A malformed value raises ``ValueError`` naming its key.
    """
    return DcPhysicsParams(**_read(doc, _LAYOUT))


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
