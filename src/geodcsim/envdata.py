"""Exogenous time-series handling: loaders, interpolation, psychrometrics, synthetic data.

Electricity prices arrive as hourly CSV in USD/MWh, grid carbon intensity as hourly
CSV in gCO2eq/kWh, and weather as JSON with arrays under an ``hourly`` key. Series
are validated onto the one-hour grid ``HOUR`` at load time (short gaps forward-filled)
and interpolated linearly between native points: ``on_grid`` reads them over a
simulation window as columns, built once per reset and read by step index, and
``value_at`` is the scalar form. Reads outside the loaded window raise instead of
extrapolating, and ``check_coverage`` owns the check that a site's series cover a
whole simulation window.

The canonical price unit is USD/MWh throughout; conversion to USD/kWh happens only
where costs or observation features are computed.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum

import numpy as np

from .errors import ConfigError, CoverageError, DataError, DataFormatError, naming, within
from .floats import checked, parsed
from .workload import STEP, STEP_US

HOUR = timedelta(hours=1)
_US = timedelta(microseconds=1)
_HOUR_US = HOUR // _US

# Longest run of missing native points that gets forward-filled at load time.
MAX_FFILL_GAP = 3

PRICE_TIME_COL = "Datetime (UTC)"
PRICE_VALUE_COL = "Price (USD/MWh)"
CARBON_VALUE_COL = "Carbon Intensity gCO2eq/kWh (direct)"

DEFAULT_REL_HUMIDITY_PCT = 50.0

# Dry-bulb temperatures (degC) a series may hold and wet_bulb accepts: the recorded
# extremes are -89.2 and 56.7, and near 100 a wet-bulb temperature means nothing.
DRY_BULB_RANGE_C = (-90.0, 70.0)


class SeriesKind(Enum):
    PRICE = "price"                        # USD/MWh
    CARBON_INTENSITY = "carbon_intensity"  # gCO2eq/kWh
    DRY_BULB_TEMP_C = "dry_bulb_temp_c"    # degC
    REL_HUMIDITY_PCT = "rel_humidity_pct"  # percent


# what each kind of series measures, and the (lo, hi) its values must lie in
_DOMAINS = {
    SeriesKind.PRICE: ("price", -math.inf, math.inf),  # prices may be negative
    SeriesKind.CARBON_INTENSITY: ("carbon intensity", 0.0, math.inf),
    SeriesKind.DRY_BULB_TEMP_C: ("dry-bulb temperature", *DRY_BULB_RANGE_C),
    SeriesKind.REL_HUMIDITY_PCT: ("relative humidity", 0.0, 100.0),
}


@dataclass(frozen=True)
class TimeSeries:
    """A validated hourly time series whose first point is at the UTC instant ``start``.

    Immutable after construction; safe to share read-only across episodes.
    ``end``, the instant of the last native point, is derived once here, and so
    is the ``array('d')`` copy of ``values`` that ``value_at`` reads. The simulation
    reads a series through the column that ``on_grid`` builds once per reset and
    indexes by step; ``value_at`` is that column's scalar oracle. Two series are
    equal when their location, kind, start and points are; series are unhashable.
    """

    location_code: str
    kind: SeriesKind
    start: datetime
    values: np.ndarray = field(repr=False, compare=False)
    end: datetime = field(init=False, repr=False, compare=False)
    _points: array = field(init=False, repr=False)

    def __post_init__(self):
        if self.start.tzinfo is None:
            raise DataError("series start must be timezone-aware UTC")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise DataError("series must be a non-empty 1-D array")
        what, lo, hi = _DOMAINS[self.kind]
        with within(None, DataError):  # the least and greatest, NaN if any is: two checks
            checked(vals.min(), what, lo, hi)
            checked(vals.max(), what, lo, hi)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "end", self.start + (len(vals) - 1) * HOUR)
        object.__setattr__(self, "_points", array("d", vals.tobytes()))

    def __len__(self):
        return len(self.values)


def _parse_utc(text: str, row: int) -> datetime:
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    except (AttributeError, ValueError) as exc:  # no text, or no date-time in it
        raise DataError(f"row {row}: unparsable timestamp {text!r}") from exc
    except OverflowError as exc:  # in UTC before year 1 or after 9999
        raise DataError(f"row {row}: timestamp {text!r} is outside years 1 to 9999 "
                        "in UTC") from exc


def _parse_value(value, row: int, read=checked) -> float:
    """A series point: a JSON number, or with ``read=parsed`` a CSV cell's text."""
    try:
        return read(value, f"row {row}")
    except ValueError as exc:
        raise DataError(f"row {row}: unparsable value {value!r}") from exc


def dict_rows(path, needed) -> list[tuple[int, dict]]:
    """Each data row of CSV ``path`` with its file line, the header being line 1, once
    the header names every column in ``needed``; a row too short to hold one of them,
    or longer than the header, is a ``DataError``. The caller names the file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(needed).issubset(reader.fieldnames):
            raise DataFormatError(f"expected columns {sorted(needed)}")
        rows = [(reader.line_num, row) for row in reader]  # line_num counts blank lines
    for i, row in rows:
        if None in row:  # DictReader files the cells past the header under None
            raise DataError(f"row {i}: {len(row[None])} cells past the "
                            f"{len(reader.fieldnames)} columns")
        missing = [key for key in needed if row[key] is None]  # past the row's last cell
        if missing:
            raise DataError(f"row {i}: missing {', '.join(missing)}")
    return rows


def _grid_from_points(points, location, kind) -> TimeSeries:
    """Validate (timestamp, value, row) points onto the hourly grid, forward-filling short gaps."""
    if not points:
        raise DataError("no data rows")
    filled = [points[0][1]]
    for (t0, v0, _), (t, v, row) in zip(points, points[1:]):
        if t == t0:
            raise DataError(f"duplicate timestamp {t.isoformat()}")
        if t < t0:
            raise DataError(f"timestamps not increasing at {t.isoformat()} (row {row})")
        n_steps, rem = divmod(t - t0, HOUR)
        if rem != timedelta(0):
            raise DataError(f"timestamp {t.isoformat()} is off the {HOUR} grid")
        if n_steps - 1 > MAX_FFILL_GAP:
            raise DataError(f"gap of {n_steps - 1} missing points before {t.isoformat()} "
                            f"exceeds the forward-fill limit of {MAX_FFILL_GAP}")
        filled.extend([v0] * (n_steps - 1))
        filled.append(v)
    return TimeSeries(location, kind, points[0][0], np.array(filled))


def _load_hourly_csv(path, location, value_col, kind) -> TimeSeries:
    with naming(path):
        points = [(_parse_utc(row[PRICE_TIME_COL], i), _parse_value(row[value_col], i, parsed), i)
                  for i, row in dict_rows(path, (PRICE_TIME_COL, value_col))]
        return _grid_from_points(points, location, kind)


def load_price_csv(path, location: str) -> TimeSeries:
    """Load an hourly electricity-price CSV (USD/MWh). Prices may be negative."""
    return _load_hourly_csv(path, location, PRICE_VALUE_COL, SeriesKind.PRICE)


def load_carbon_csv(path, location: str) -> TimeSeries:
    """Load an hourly grid carbon-intensity CSV (gCO2eq/kWh, nonnegative)."""
    return _load_hourly_csv(path, location, CARBON_VALUE_COL, SeriesKind.CARBON_INTENSITY)


def save_series_csv(series: TimeSeries, path) -> None:
    """Write a price or carbon series back to its documented CSV format."""
    col = {SeriesKind.PRICE: PRICE_VALUE_COL, SeriesKind.CARBON_INTENSITY: CARBON_VALUE_COL}[series.kind]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([PRICE_TIME_COL, col])
        for i, v in enumerate(series.values):
            t = series.start + i * HOUR
            writer.writerow([t.strftime("%Y-%m-%d %H:%M:%S+00:00"), repr(float(v))])


def load_weather_json(path, location: str) -> tuple[TimeSeries, TimeSeries]:
    """Load hourly weather JSON: ``hourly.time`` + ``hourly.temperature_2m``.

    ``hourly.relative_humidity_2m`` is optional; a constant 50% series is
    substituted when absent. Returns (dry-bulb degC, relative humidity %).
    """
    with naming(path), open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}") from exc
        hourly = doc.get("hourly") if isinstance(doc, dict) else None
        if not isinstance(hourly, dict):
            raise DataFormatError("missing 'hourly' object")
        times_raw = hourly.get("time")
        temps_raw = hourly.get("temperature_2m")
        if times_raw is None or temps_raw is None:
            raise DataFormatError("'hourly' must contain 'time' and 'temperature_2m'")
        for key in ("time", "temperature_2m", "relative_humidity_2m"):
            if not isinstance(hourly.get(key, []), list):
                raise DataFormatError(f"'hourly.{key}' must be a list, got {json.dumps(hourly[key])}")
        if len(times_raw) != len(temps_raw):
            raise DataFormatError(f"time ({len(times_raw)}) and temperature_2m "
                                  f"({len(temps_raw)}) lengths differ")
        rh_raw = hourly.get("relative_humidity_2m", [DEFAULT_REL_HUMIDITY_PCT] * len(times_raw))
        if len(rh_raw) != len(times_raw):
            raise DataFormatError(f"relative_humidity_2m length {len(rh_raw)} does not match time")
        rows = range(1, len(times_raw) + 1)  # a point's place in the lists
        times = [_parse_utc(t, i) for i, t in zip(rows, times_raw)]
        return tuple(
            _grid_from_points([(t, _parse_value(v, i), i) for t, v, i in zip(times, raw, rows)],
                              location, kind)
            for kind, raw in ((SeriesKind.DRY_BULB_TEMP_C, temps_raw),
                              (SeriesKind.REL_HUMIDITY_PCT, rh_raw)))


def save_weather_json(drybulb: TimeSeries, humidity: TimeSeries, path) -> None:
    times = [
        (drybulb.start + i * HOUR).strftime("%Y-%m-%dT%H:%M")
        for i in range(len(drybulb))
    ]
    doc = {
        "hourly": {
            "time": times,
            "temperature_2m": [float(v) for v in drybulb.values],
            "relative_humidity_2m": [float(v) for v in humidity.values],
        }
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _outside(series: TimeSeries, t: datetime) -> CoverageError:
    return CoverageError(f"{series.kind.value}@{series.location_code}: {t.isoformat()} "
                         f"outside [{series.start.isoformat()}, {series.end.isoformat()}]")


def value_at(series: TimeSeries, t: datetime) -> float:
    """Linear interpolation between bracketing native points; exact at native points.

    The scalar form of ``on_grid``, which the simulation reads instead, and its
    oracle: each column item equals this value at its instant, bit for bit."""
    if t < series.start or t > series.end:
        raise _outside(series, t)
    offset = (t - series.start) / HOUR
    idx = int(offset)
    frac = offset - idx
    points = series._points
    if frac == 0.0 or idx >= len(points) - 1:
        return points[min(idx, len(points) - 1)]
    lo = points[idx]
    hi = points[idx + 1]
    return lo + (hi - lo) * frac


def on_grid(series, start: datetime, steps: int) -> list[array]:
    """Each of ``series`` at the ``steps`` instants ``start + k * STEP``, one
    ``array('d')`` column per series, whose item ``k`` is ``value_at`` there.

    The arithmetic is ``value_at``'s, on float64 arrays: the offset in hours is
    the int microseconds' true division, as ``timedelta / timedelta`` gives it,
    then the same index, fraction, exact-point and last-point rules and only
    ``+ - * /``. Series with the same first point and length share one index and
    fraction array. A series that does not cover the window is a
    ``CoverageError``, as from ``value_at``: no index is clamped or wrapped.
    """
    last = start + (steps - 1) * STEP
    grids = {}  # (first point, length) -> (index, next index, fraction)
    columns = []
    for s in series:
        if start < s.start or last > s.end:
            raise _outside(s, start if start < s.start else last)
        values = s.values
        key = (s.start, len(values))
        grid = grids.get(key)
        if grid is None:
            first = (start - s.start) // _US
            offset = np.array([d / _HOUR_US for d in range(first, first + steps * STEP_US,
                                                             STEP_US)])
            idx = offset.astype(np.intp)  # int() of a float >= 0
            frac = offset - idx
            exact = (frac == 0.0) | (idx >= len(values) - 1)
            # At an exact point the next index is the point's own and the fraction
            # is -0.0: lo + (lo - lo) * -0.0 adds -0.0 to lo, which leaves every lo
            # as it is, a -0.0 point too, as value_at's plain read of it does.
            grid = grids[key] = (idx, np.where(exact, idx, idx + 1), np.where(exact, -0.0, frac))
        idx, nxt, frac = grid
        lo = values[idx]
        column = values[nxt]  # lo + (hi - lo) * frac, in place on the copy of hi
        column -= lo
        column *= frac
        column += lo
        columns.append(array("d", column.tobytes()))
    return columns


def check_coverage(site_series, start: datetime, end: datetime) -> None:
    """Refuse, in one ``ConfigError``, every ``(dc_id, series)`` pair of ``site_series``
    whose series does not cover ``[start, end]``."""
    missing = [f"dc {dc_id} {series.kind.value} covers "
               f"[{series.start.isoformat()}, {series.end.isoformat()}]"
               for dc_id, series in site_series if start < series.start or series.end < end]
    if missing:
        raise ConfigError("series do not cover the simulation window "
                          f"[{start.isoformat()}, {end.isoformat()}]: " + "; ".join(missing))


def _saturation_vapor_pressure_pa(t_c: float) -> float:
    # Magnus-style fit over liquid water
    return 610.94 * math.exp(17.625 * t_c / (t_c + 243.04))


def _humidity_ratio(vapor_pressure_pa: float) -> float:
    return 0.622 * vapor_pressure_pa / (101325.0 - vapor_pressure_pa)  # sea-level Pa


def _stull_wet_bulb(t_c: float, rh_pct: float) -> float:
    # Stull (2011)'s empirical fit; within about 3 degC of the root over 1-100 %
    # and -30..60 degC, so it is only a starting point for the Newton steps
    return (t_c * math.atan(0.151977 * math.sqrt(rh_pct + 8.313659))
            + math.atan(t_c + rh_pct) - math.atan(rh_pct - 1.676331)
            + 0.00391838 * rh_pct ** 1.5 * math.atan(0.023101 * rh_pct) - 4.686035)


# Certified band around the estimated root: its greatest half-width (degC) and the
# least |residual| its ends must show. The computed residual is within 1e-15 of the
# exact one (term-by-term rounding bound; under 1.5e-16 measured against
# 60-digit decimal arithmetic, which a test pins below half the margin), so a
# margin over twice that fixes the sign of every point beyond an end. The
# half-width is 2.5 margins over the slope at the estimate, capped at 5e-11.
_WB_BAND_HALF_WIDTH_C = 5e-11
_WB_BAND_MARGIN = 1e-14


def wet_bulb(t_drybulb_c: float, rh_pct: float) -> float:
    """Thermodynamic wet-bulb temperature (degC) at sea-level pressure.

    Solves the adiabatic-saturation humidity-ratio balance by bisection on
    ``[t - 60, t]``, so the result is always <= the dry-bulb temperature, equals
    it at saturation, and increases monotonically with relative humidity.

    The residual strictly increases on the search range and is negative at its
    lower end over the whole checked domain, so that end needs no check. For
    1-100 % humidity and -30..60 degC, Newton steps from Stull's closed form
    estimate the root, and two residual evaluations certify a band around it,
    2.5 margins over the slope there on each side: the computed residual is at
    most ``-_WB_BAND_MARGIN`` at its lower end and at least ``+_WB_BAND_MARGIN``
    at its upper end. The bisection then takes the side of every midpoint
    outside the band, and skips the saturation check at ``t``, without
    evaluating the residual there; those evaluations would have given the same
    signs, so the result is bit for bit that of the plain bisection. A band that
    fails its certificate gets one more Newton step and a second certificate.
    Outside that range, or when the second certificate fails too, the band is
    empty and every midpoint is evaluated.
    """
    if not 0.0 <= rh_pct <= 100.0:
        raise ValueError(f"relative humidity {rh_pct} outside [0, 100]")
    lo, hi = DRY_BULB_RANGE_C
    if not lo <= t_drybulb_c <= hi:  # also NaN
        raise ValueError(f"dry-bulb temperature {t_drybulb_c} outside [{lo}, {hi}]")
    t = float(t_drybulb_c)
    w_actual = _humidity_ratio(rh_pct / 100.0 * _saturation_vapor_pressure_pa(t))
    exp = math.exp  # bound per call, so that a patched ``math.exp`` sees every use
    den_t = 2501.0 + 1.86 * t  # the denominator's left-to-right first sum

    # arguments, not closure cells, so that the loops below read t, den_t,
    # w_actual and exp as fast locals
    def residual(twb, t=t, den_t=den_t, w_actual=w_actual, exp=exp):
        # _humidity_ratio(_saturation_vapor_pressure_pa(twb)), inline: same operations
        p = 610.94 * exp(17.625 * twb / (twb + 243.04))
        ws = 0.622 * p / (101325.0 - p)
        num = (2501.0 - 2.326 * twb) * ws - 1.006 * (t - twb)
        return num / (den_t - 4.186 * twb) - w_actual

    a = b = math.nan  # the certified band; NaN compares false, so nothing is skipped
    if 1.0 <= rh_pct and -30.0 <= t <= 60.0:
        # Newton steps from Stull's estimate (within t - 37 and t here) until a step
        # is under 2e-5 degC; x then lies within 1e-11 degC of the root on 99 % of inputs.
        # A band that fails its certificate takes one more step and is certified again.
        x = min(t, _stull_wet_bulb(t, rh_pct))
        retried = False
        for step in range(9):
            u = x + 243.04
            p = 610.94 * exp(17.625 * x / u)
            q = 101325.0 - p
            ws = 0.622 * p / q
            c = 2501.0 - 2.326 * x
            num = c * ws - 1.006 * (t - x)
            den = den_t - 4.186 * x
            dws = (0.622 * 101325.0 * 17.625 * 243.04) * p / (u * u * q * q)  # d ws / dx
            w = num / den
            slope = (1.006 - 2.326 * ws + c * dws + 4.186 * w) / den  # d (num / den) / dx
            if not slope > 0.0:
                break
            dx = (w - w_actual) / slope
            x -= dx
            if abs(dx) < 2e-5 or not t - 60.0 < x < t or step == 7 or retried:
                h = min(_WB_BAND_HALF_WIDTH_C, 2.5 * _WB_BAND_MARGIN / slope)
                lo, hi = x - h, x + h
                if (t - 60.0 < lo and hi < t and residual(lo) <= -_WB_BAND_MARGIN
                        and residual(hi) >= _WB_BAND_MARGIN):
                    a, b = lo, hi
                    break
                if retried:
                    break
                retried = True

    hi = t
    if not b < t and residual(hi) <= 0.0:
        return hi
    lo = t - 60.0  # the residual is below -0.016 there over the checked domain
    # the two loops take at most the plain bisection's 80 midpoints; outside the
    # band the sides are known, so the first loop only compares
    for steps in range(80, 0, -1):
        mid = 0.5 * (lo + hi)
        if mid > b:
            hi = mid
        elif mid < a:
            lo = mid
        else:  # in the band, or the band is empty: evaluate from this midpoint on
            break
    else:
        steps = 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # converged: every later step would keep lo and hi
            break
        if mid > b:
            hi = mid
        elif mid < a:
            lo = mid
        else:  # residual(mid) > 0.0, inline: for finite floats x - y > 0 iff x > y
            p = 610.94 * exp(17.625 * mid / (mid + 243.04))
            ws = 0.622 * p / (101325.0 - p)
            if ((2501.0 - 2.326 * mid) * ws - 1.006 * (t - mid)) / (den_t - 4.186 * mid) > w_actual:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def synth_series(
    kind: SeriesKind,
    base: float,
    daily_amplitude: float,
    noise_sd: float,
    start: datetime,
    hours: int,
    seed: int,
    location: str = "SYN",
) -> TimeSeries:
    """Seeded synthetic hourly series: daily sinusoid around ``base`` plus Gaussian noise.

    Deterministic for a given seed. Carbon intensity is clipped at 0 and relative humidity
    at [0, 100]; ``TimeSeries`` refuses any other value off its kind's domain.
    """
    if daily_amplitude < 0 or noise_sd < 0:
        raise ValueError("daily_amplitude and noise_sd must be >= 0")
    if hours < 1:
        raise ValueError("hours must be >= 1")
    if kind is SeriesKind.CARBON_INTENSITY and base - daily_amplitude < 0:
        raise ValueError("carbon intensity requires base - daily_amplitude >= 0")
    if start.tzinfo is None:
        raise ValueError("start must be timezone-aware UTC")
    if start.minute or start.second or start.microsecond:
        raise ValueError("start must be hour-aligned")
    hour0 = start.hour
    idx = np.arange(hours, dtype=np.float64)
    vals = base + daily_amplitude * np.sin(2.0 * np.pi * ((hour0 + idx) % 24.0) / 24.0)
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        vals = vals + rng.normal(0.0, noise_sd, size=hours)
    if kind is SeriesKind.CARBON_INTENSITY:
        vals = np.maximum(vals, 0.0)
    elif kind is SeriesKind.REL_HUMIDITY_PCT:
        vals = np.clip(vals, 0.0, 100.0)
    return TimeSeries(location, kind, start, vals)
