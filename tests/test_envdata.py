import ast
import math
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from geodcsim import cluster, envdata, runner
from geodcsim.envdata import (
    HOUR,
    SeriesKind,
    TimeSeries,
    load_carbon_csv,
    load_price_csv,
    load_weather_json,
    on_grid,
    save_series_csv,
    save_weather_json,
    synth_series,
    value_at,
    wet_bulb,
)
from geodcsim.errors import ConfigError, CoverageError, DataError, DataFormatError
from geodcsim.workload import STEP

from conftest import deadline

T0 = datetime(2024, 1, 1, 0, 0, tzinfo=timezone.utc)
# An hour east of UTC at the first instant a datetime holds: in UTC it is before year 1,
# and its conversion raised an OverflowError that named no file.
EARLY = "0001-01-01 00:00:00+01:00"


def reference_wet_bulb(t_drybulb_c, rh_pct):
    """Wet-bulb by a bisection that always takes all 80 steps."""
    t = float(t_drybulb_c)
    pressure = envdata._saturation_vapor_pressure_pa
    w_actual = envdata._humidity_ratio(rh_pct / 100.0 * pressure(t))

    def residual(twb):
        ws = envdata._humidity_ratio(pressure(twb))
        num = (2501.0 - 2.326 * twb) * ws - 1.006 * (t - twb)
        den = 2501.0 + 1.86 * t - 4.186 * twb
        return num / den - w_actual

    hi = t
    if residual(hi) <= 0.0:
        return hi
    lo = t - 60.0
    while residual(lo) > 0.0:
        lo -= 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def residual_inputs(t, rh):
    """The floats ``wet_bulb``'s residual reads for (t, rh): t, the denominator's
    first sum and the actual humidity ratio."""
    w_actual = envdata._humidity_ratio(rh / 100.0 * envdata._saturation_vapor_pressure_pa(t))
    return t, 2501.0 + 1.86 * t, w_actual


def float_residual(twb, t, den_t, w_actual):
    """``wet_bulb``'s residual, operation for operation."""
    p = 610.94 * math.exp(17.625 * twb / (twb + 243.04))
    ws = 0.622 * p / (101325.0 - p)
    num = (2501.0 - 2.326 * twb) * ws - 1.006 * (t - twb)
    return num / (den_t - 4.186 * twb) - w_actual


def exact_residual(twb, t, den_t, w_actual):
    """The same expression on the same floats in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, d = Decimal(twb), Decimal
        p = d(610.94) * (d(17.625) * x / (x + d(243.04))).exp()
        ws = d(0.622) * p / (d(101325.0) - p)
        num = (d(2501.0) - d(2.326) * x) * ws - d(1.006) * (d(t) - x)
        return num / (d(den_t) - d(4.186) * x) - d(w_actual)


def write_price_csv(path, rows, value_col="Price (USD/MWh)"):
    lines = [f"Datetime (UTC),{value_col}"]
    lines += [f"{t},{v}" for t, v in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPriceCsv:
    def test_two_row_identity(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.0),
            ("2024-01-01 01:00:00+00:00", 70.0),
        ])
        series = load_price_csv(p, "US-CAL-CISO")
        assert len(series) == 2
        assert list(series.values) == [50.0, 70.0]
        assert series.kind is SeriesKind.PRICE
        assert series.start == T0

    def test_duplicate_timestamp_names_it(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.0),
            ("2024-01-01 00:00:00+00:00", 60.0),
        ])
        with pytest.raises(DataError, match="2024-01-01T00:00:00"):
            load_price_csv(p, "X")

    def test_gap_forward_filled(self, tmp_path):
        # hour 01 missing: filled from hour 00
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.0),
            ("2024-01-01 02:00:00+00:00", 70.0),
        ])
        series = load_price_csv(p, "X")
        assert list(series.values) == [50.0, 50.0, 70.0]

    def test_long_gap_rejected(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.0),
            ("2024-01-01 05:00:00+00:00", 70.0),  # 4 missing points > limit of 3
        ])
        with pytest.raises(DataError, match="forward-fill"):
            load_price_csv(p, "X")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("Datetime (UTC),Price\n2024-01-01 00:00:00+00:00,50\n")
        with pytest.raises(DataFormatError):
            load_price_csv(p, "X")

    def test_non_monotone(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 01:00:00+00:00", 50.0),
            ("2024-01-01 00:00:00+00:00", 70.0),
        ])
        with pytest.raises(DataError, match="not increasing"):
            load_price_csv(p, "X")

    def test_unparsable_row_cites_index(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.0),
            ("2024-01-01 01:00:00+00:00", "oops"),
        ])
        with pytest.raises(DataError, match="row 3"):
            load_price_csv(p, "X")

    @pytest.mark.parametrize("rows, expected", [
        ([("2024-01-01 00:00:00+00:00", 50.0), ("2024-01-01 01:00:00+00:00", "oops")],
         "row 3: unparsable value 'oops'"),
        ([("2024-01-01 00:00:00+00:00", "50,99"), ("2024-01-01 01:00:00+00:00", 60.0)],
         "row 2: 1 cells past the 2 columns"),
        ([("2024-01-01 00:00:00+00:00", 50.0), ("2024-01-01 00:00:00+00:00", 60.0)],
         "duplicate timestamp 2024-01-01T00:00:00+00:00"),
        ([], "no data rows"),
    ], ids=["unparsable", "extra_cell", "duplicate", "empty"])
    def test_data_errors_name_the_file(self, tmp_path, rows, expected):
        p = write_price_csv(tmp_path / "p.csv", rows)
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}: {expected}')}$"):
            load_price_csv(p, "X")

    def test_negative_price_allowed(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", -12.5),
            ("2024-01-01 01:00:00+00:00", 70.0),
        ])
        series = load_price_csv(p, "X")
        assert series.values[0] == -12.5

    def test_round_trip(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 00:00:00+00:00", 50.25),
            ("2024-01-01 01:00:00+00:00", 70.5),
            ("2024-01-01 02:00:00+00:00", -3.125),
        ])
        series = load_price_csv(p, "X")
        out = tmp_path / "roundtrip.csv"
        save_series_csv(series, out)
        assert load_price_csv(out, "X") == series


    def test_rows_are_named_by_their_file_line(self, tmp_path):
        """Every CSV names a row by its file line, the header being line 1."""
        p = write_price_csv(tmp_path / "p.csv", [
            ("2024-01-01 01:00:00+00:00", 50.0),
            ("2024-01-01 00:00:00+00:00", 70.0),
        ])
        with pytest.raises(DataError, match=r"not increasing at 2024-01-01T00:00:00\+00:00 "
                                            r"\(row 3\)$"):
            load_price_csv(p, "X")


    def test_timestamp_before_year_one_in_utc_names_the_file_and_row(self, tmp_path):
        p = write_price_csv(tmp_path / "p.csv", [("2024-01-01 00:00:00+00:00", 50.0),
                                                 (EARLY, 90.0)])
        with pytest.raises(DataError, match="^" + re.escape(f"{p}: row 3: timestamp '{EARLY}' "
                                                      "is outside years 1 to 9999 in UTC") + "$"):
            load_price_csv(p, "X")


class TestCarbonCsv:
    def test_constant_file(self, tmp_path):
        rows = [(f"2024-01-01 {h:02d}:00:00+00:00", 100.0) for h in range(5)]
        p = write_price_csv(tmp_path / "c.csv", rows, "Carbon Intensity gCO2eq/kWh (direct)")
        series = load_carbon_csv(p, "X")
        assert np.all(series.values == 100.0)

    def test_negative_ci_rejected(self, tmp_path):
        p = write_price_csv(tmp_path / "c.csv", [
            ("2024-01-01 00:00:00+00:00", 100.0),
            ("2024-01-01 01:00:00+00:00", -1.0),
        ], "Carbon Intensity gCO2eq/kWh (direct)")
        with pytest.raises(DataError, match=">= 0"):
            load_carbon_csv(p, "X")

    def test_full_year_length(self, tmp_path):
        start = T0
        rows = [
            ((start + i * HOUR).strftime("%Y-%m-%d %H:%M:%S+00:00"), 80.0 + (i % 24))
            for i in range(8760)
        ]
        p = write_price_csv(tmp_path / "c.csv", rows, "Carbon Intensity gCO2eq/kWh (direct)")
        series = load_carbon_csv(p, "X")
        assert len(series) == 8760


    def test_timestamp_before_year_one_in_utc_names_the_file_and_row(self, tmp_path):
        p = write_price_csv(tmp_path / "c.csv", [(EARLY, 100.0)],
                            "Carbon Intensity gCO2eq/kWh (direct)")
        with pytest.raises(DataError, match="^" + re.escape(f"{p}: row 2: timestamp '{EARLY}' "
                                                      "is outside years 1 to 9999 in UTC") + "$"):
            load_carbon_csv(p, "X")


class TestWeatherJson:
    def _doc(self, n, humidity=True):
        times = [(T0 + i * HOUR).strftime("%Y-%m-%dT%H:%M") for i in range(n)]
        doc = {"hourly": {"time": times, "temperature_2m": [15.0 + i for i in range(n)]}}
        if humidity:
            doc["hourly"]["relative_humidity_2m"] = [40.0 + i for i in range(n)]
        return doc

    def test_aligned_arrays(self, tmp_path):
        import json
        p = tmp_path / "w.json"
        p.write_text(json.dumps(self._doc(24)))
        drybulb, humidity = load_weather_json(p, "X")
        assert len(drybulb) == 24 and len(humidity) == 24

    def test_missing_humidity_defaults_to_50(self, tmp_path):
        import json
        p = tmp_path / "w.json"
        p.write_text(json.dumps(self._doc(6, humidity=False)))
        _, humidity = load_weather_json(p, "X")
        assert np.all(humidity.values == 50.0)

    def test_length_mismatch(self, tmp_path):
        import json
        doc = self._doc(6)
        doc["hourly"]["time"] = doc["hourly"]["time"][:-1]
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_weather_json(p, "X")

    @pytest.mark.parametrize("edit, error, expected", [
        (lambda doc: doc["hourly"]["temperature_2m"].__setitem__(2, "warm"), DataError,
         "row 3: unparsable value 'warm'"),
        (lambda doc: doc["hourly"]["relative_humidity_2m"].__setitem__(0, None), DataError,
         "row 1: unparsable value None"),
        (lambda doc: doc["hourly"]["relative_humidity_2m"].__setitem__(1, 101.0), DataError,
         "relative humidity must lie in [0, 100]"),
        (lambda doc: doc["hourly"].pop("time"), DataFormatError,
         "'hourly' must contain 'time' and 'temperature_2m'"),
    ], ids=["temperature_unparsable", "humidity_null", "humidity_over_100", "no_time"])
    def test_errors_name_the_file(self, tmp_path, edit, error, expected):
        import json
        doc = self._doc(6)
        edit(doc)
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match=f"^{re.escape(f'{p}: {expected}')}$"):
            load_weather_json(p, "X")

    @pytest.mark.parametrize("text, expected", [
        ("[1, 2]", "missing 'hourly' object"),
        ("{not json", "invalid JSON: "),
    ], ids=["top_level_list", "not_json"])
    def test_unusable_document_names_the_file(self, tmp_path, text, expected):
        p = tmp_path / "w.json"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{p}: {expected}')}"):
            load_weather_json(p, "X")

    @pytest.mark.parametrize("edit, error, expected", [
        (lambda doc: doc["hourly"]["time"].__setitem__(0, 0), DataError,
         "row 1: unparsable timestamp 0"),
        (lambda doc: doc["hourly"]["time"].__setitem__(1, True), DataError,
         "row 2: unparsable timestamp True"),
        (lambda doc: doc["hourly"].__setitem__("time", 5), DataFormatError,
         "'hourly.time' must be a list, got 5"),
        (lambda doc: doc["hourly"].__setitem__("temperature_2m", "warm"), DataFormatError,
         "'hourly.temperature_2m' must be a list, got \"warm\""),
        (lambda doc: doc["hourly"].__setitem__("relative_humidity_2m", {"a": 1}), DataFormatError,
         "'hourly.relative_humidity_2m' must be a list, got {\"a\": 1}"),
    ], ids=["time_number", "time_true", "time_not_a_list", "temperature_not_a_list",
            "humidity_not_a_list"])
    def test_shape_errors_name_the_file_and_element(self, tmp_path, edit, error, expected):
        """A ``time`` element that is no text and a field that is no list each end as one
        typed error naming the file; they raised AttributeError and TypeError."""
        import json
        doc = self._doc(6)
        edit(doc)
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match=f"^{re.escape(f'{p}: {expected}')}$"):
            load_weather_json(p, "X")

    def test_time_before_year_one_in_utc_names_the_file_and_row(self, tmp_path):
        import json
        doc = self._doc(6)
        doc["hourly"]["time"][2] = EARLY
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="^" + re.escape(f"{p}: row 3: timestamp '{EARLY}' "
                                                      "is outside years 1 to 9999 in UTC") + "$"):
            load_weather_json(p, "X")

    @pytest.mark.parametrize("value", [1e30, -1e5, 70.5], ids=["1e30", "minus_1e5", "70.5"])
    def test_dry_bulb_outside_its_range_names_the_file(self, tmp_path, value):
        """A temperature of 1e30 loaded, and its wet-bulb solve never returned."""
        import json
        doc = self._doc(6)
        doc["hourly"]["temperature_2m"][3] = value
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: dry-bulb temperature must "
                                            r"lie in \[-90, 70\]$"):
            load_weather_json(p, "X")

    def test_round_trip(self, tmp_path):
        import json
        p = tmp_path / "w.json"
        p.write_text(json.dumps(self._doc(12)))
        drybulb, humidity = load_weather_json(p, "X")
        out = tmp_path / "w2.json"
        save_weather_json(drybulb, humidity, out)
        d2, h2 = load_weather_json(out, "X")
        assert d2 == drybulb and h2 == humidity


class TestValueAt:
    def _series(self, values=(50.0, 70.0)):
        return TimeSeries("X", SeriesKind.PRICE, T0, np.array(values))

    def test_quarter_hour_interpolation(self):
        assert value_at(self._series(), T0 + timedelta(minutes=15)) == 55.0

    def test_exact_native_point(self):
        s = self._series((50.0, 70.0, 30.0))
        assert value_at(s, T0 + HOUR) == 70.0

    def test_past_end_raises(self):
        with pytest.raises(CoverageError):
            value_at(self._series(), T0 + HOUR + timedelta(seconds=1))

    def test_reads_python_floats_exactly_to_the_end(self):
        values = np.random.default_rng(5).normal(50.0, 30.0, size=24)
        s = self._series(values)
        assert s.end == T0 + 23 * HOUR
        for i, v in enumerate(values):
            got = value_at(s, T0 + i * HOUR)
            assert type(got) is float and got == v
        assert type(value_at(s, T0 + timedelta(minutes=15))) is float
        with pytest.raises(CoverageError):
            value_at(s, s.end + timedelta(microseconds=1))

    def test_before_start_raises(self):
        with pytest.raises(CoverageError):
            value_at(self._series(), T0 - timedelta(seconds=1))

    def test_bounded_by_neighbors(self):
        rng = np.random.default_rng(3)
        s = TimeSeries("X", SeriesKind.PRICE, T0, rng.normal(50, 30, size=48))
        for _ in range(500):
            t = T0 + timedelta(seconds=float(rng.uniform(0, 47 * 3600)))
            v = value_at(s, t)
            i = int((t - T0) / HOUR)
            lo = min(s.values[i], s.values[min(i + 1, 47)])
            hi = max(s.values[i], s.values[min(i + 1, 47)])
            assert lo - 1e-12 <= v <= hi + 1e-12


_US = timedelta(microseconds=1)
# Properties that run every phase but shrinking (and explaining, which follows it).
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
_POINT = st.sampled_from([0.0, -0.0, 50.0]) | st.floats(-1e6, 1e6)
# how far a series' first point lies before the hour the window starts on: none, half
# an hour, or any number of microseconds under an hour
_LEAD_US = st.sampled_from([0, 30 * 60 * 10**6]) | st.integers(1, HOUR // _US - 1)


class TestOnGrid:
    @settings(max_examples=400, phases=_NO_SHRINK)
    @given(sites=st.lists(st.tuples(st.lists(_POINT, min_size=1, max_size=50), _LEAD_US),
                          min_size=1, max_size=3),
           data=st.data())
    def test_each_column_is_value_at_at_every_step(self, sites, data):
        """Series sharing a first point and a length share one index; a copy of the
        first series reversed shares the first's. The window starts on an hour from
        one before the first series' first point to its last, and its steps run up
        to one past the last that it covers, ending on the last point when they can."""
        series = [TimeSeries("X", SeriesKind.PRICE, T0 - lead * _US, np.array(points))
                  for points, lead in sites]
        first = series[0]
        series.insert(1, TimeSeries("Y", SeriesKind.CARBON_INTENSITY, first.start,
                                    np.abs(first.values[::-1])))
        start = T0 + data.draw(st.integers(-1, len(first) - 1)) * HOUR
        fit = max(0, (first.end - start) // STEP + 1) if start >= first.start else 0
        steps = max(1, data.draw(st.sampled_from([fit, fit + 1]) | st.integers(1, fit + 1)))
        last = start + (steps - 1) * STEP
        if any(start < s.start or last > s.end for s in series):
            with pytest.raises(CoverageError, match=r"^\w+@[XY]: .* outside \["):
                on_grid(series, start, steps)
            return
        columns = on_grid(series, start, steps)
        assert len(columns) == len(series)
        for s, column in zip(series, columns):
            assert len(column) == steps
            for k, got in enumerate(column):
                want = value_at(s, start + k * STEP)
                assert type(got) is float and got.hex() == want.hex(), (k, s.start)

    def test_a_window_past_the_end_names_its_last_instant(self):
        series = TimeSeries("X", SeriesKind.PRICE, T0, np.zeros(3))
        with pytest.raises(CoverageError, match=(
                r"^price@X: 2024-01-01T02:15:00\+00:00 outside \[2024-01-01T00:00:00\+00:00, "
                r"2024-01-01T02:00:00\+00:00\]$")):
            on_grid([series], T0, 10)

    def test_no_module_but_envdata_calls_value_at(self):
        """The simulation reads columns; ``value_at`` is their scalar oracle."""
        callers = []
        for path in sorted(Path(envdata.__file__).parent.glob("*.py")):
            if path.name == "envdata.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "value_at" in (getattr(func, "id", None),
                                                                 getattr(func, "attr", None)):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers == []


class TestSeriesEquality:
    """Two series are equal when their location, kind, start and points are."""

    def _series(self, values=(50.0, 70.0, 30.0), location="X", kind=SeriesKind.PRICE, start=T0):
        return TimeSeries(location, kind, start, np.array(values))

    def test_equal_points_in_distinct_arrays_compare_equal(self):
        a, b = self._series(), self._series()
        assert a.values is not b.values and a == b and not a != b

    def test_a_negative_zero_point_equals_zero(self):
        assert self._series((-0.0, 1.0)) == self._series((0.0, 1.0))

    @pytest.mark.parametrize("other", [
        {"values": (50.0, 70.0, 30.5)},
        {"start": T0 + HOUR},
        {"kind": SeriesKind.CARBON_INTENSITY},
        {"location": "Y"},
    ], ids=["point", "start", "kind", "location"])
    def test_one_difference_makes_them_unequal(self, other):
        assert self._series() != self._series(**other)
        assert not self._series() == self._series(**other)

    @pytest.mark.parametrize("other", [None, 50.0, [50.0, 70.0, 30.0], "X"])
    def test_a_non_series_is_never_equal(self, other):
        assert (self._series() == other) is False
        assert (self._series() != other) is True

    def test_a_series_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(self._series())


class TestCheckCoverage:
    def test_a_series_that_spans_the_window_passes(self):
        series = TimeSeries("X", SeriesKind.PRICE, T0, np.zeros(25))
        envdata.check_coverage([(1, series)], T0, T0 + 24 * HOUR)

    def test_every_short_series_is_named_in_one_error(self):
        late = TimeSeries("X", SeriesKind.PRICE, T0 + HOUR, np.zeros(30))
        short = TimeSeries("X", SeriesKind.DRY_BULB_TEMP_C, T0, np.zeros(24))
        whole = TimeSeries("X", SeriesKind.CARBON_INTENSITY, T0, np.zeros(25))
        with pytest.raises(ConfigError, match=(
                r"^series do not cover the simulation window \[2024-01-01T00:00:00\+00:00, "
                r"2024-01-02T00:00:00\+00:00\]: dc 1 price covers \[2024-01-01T01:00:00\+00:00, "
                r"2024-01-02T06:00:00\+00:00\]; dc 2 dry_bulb_temp_c covers "
                r"\[2024-01-01T00:00:00\+00:00, 2024-01-01T23:00:00\+00:00\]$")):
            envdata.check_coverage([(1, late), (1, whole), (2, short)], T0, T0 + 24 * HOUR)


class TestWetBulb:
    def test_saturation_equals_drybulb(self):
        assert wet_bulb(20.0, 100.0) == pytest.approx(20.0, abs=0.5)

    def test_table_oracle_cases(self):
        # psychrometric chart values at sea level
        assert wet_bulb(20.0, 50.0) == pytest.approx(13.7, abs=1.0)
        assert 10.0 < wet_bulb(20.0, 50.0) < 20.0
        assert wet_bulb(25.0, 50.0) == pytest.approx(17.9, abs=1.0)
        assert wet_bulb(30.0, 70.0) == pytest.approx(25.5, abs=1.0)

    def test_very_dry_air(self):
        assert wet_bulb(30.0, 0.01) < 15.0

    def test_never_exceeds_drybulb(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            t = float(rng.uniform(-10, 45))
            rh = float(rng.uniform(0, 100))
            assert wet_bulb(t, rh) <= t + 1e-9

    def test_monotone_in_humidity(self):
        for t in (-5.0, 0.0, 10.0, 25.0, 40.0):
            values = [wet_bulb(t, rh) for rh in np.linspace(0, 100, 41)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_bit_equal_to_the_full_bisection(self):
        rng = np.random.default_rng(2024)
        temps = np.concatenate([rng.uniform(-40.0, 50.0, 10_000), np.linspace(-40.0, 50.0, 181)])
        humidities = np.concatenate([rng.uniform(0.0, 100.0, 10_000), np.zeros(181)])
        humidities[-90:] = 100.0
        points = [(float(t), float(rh)) for t, rh in zip(temps, humidities)]
        # no band is used below 1 % humidity, outside -30..60 degC or at saturation
        points += [(t, rh) for t in (-40.0, -30.0000001, -0.0, 0.0, 50.0, 60.5)
                   for rh in (0.0, 1e-9, 0.5, 50.0, 100.0)]
        mismatches = [(t, rh) for t, rh in points
                      if wet_bulb(t, rh).hex() != reference_wet_bulb(t, rh).hex()]
        assert len(points) > 10_000 and mismatches == []

    @pytest.fixture(scope="class")
    def shipped_pairs(self):
        """Every (dry-bulb, humidity) pair the shipped configs feed over 7 days at seeds 0-3."""
        configs = Path(__file__).resolve().parent.parent / "configs"
        sim = runner.load_sim_config(configs / "sim.yaml")
        fleet = runner.load_dc_fleet(configs / "datacenters.yaml")
        reward = runner.load_reward_config(configs / "reward.yaml")
        sim.duration_days = 7
        pairs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster, "wet_bulb", lambda t, rh: pairs.append((t, rh)) or wet_bulb(t, rh))
            for seed in range(4):
                runner.run_episode(sim, fleet, reward, seed)
        assert len(pairs) == 4 * 7 * 96 * len(fleet)
        return pairs

    def test_bit_equal_on_the_shipped_inputs(self, shipped_pairs):
        mismatches = [(t, rh) for t, rh in shipped_pairs
                      if wet_bulb(t, rh).hex() != reference_wet_bulb(t, rh).hex()]
        assert mismatches == []

    # Each saturation pressure takes one math.exp, so counting math.exp counts the
    # actual humidity's pressure plus one per residual evaluation.

    @staticmethod
    def exp_calls_per_wet_bulb(pairs):
        calls = 0
        exp = math.exp

        def counting(x):
            nonlocal calls
            calls += 1
            return exp(x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(math, "exp", counting)
            for t, rh in pairs:
                wet_bulb(t, rh)
        return calls / len(pairs)

    def test_certified_band_saves_residual_calls(self, shipped_pairs):
        # the plain bisection makes about 58 calls per wet-bulb here
        assert self.exp_calls_per_wet_bulb(shipped_pairs) <= 22.5

    def test_random_inputs_rarely_fall_back(self):
        """A wet-bulb whose band fails its certificate, even after one more Newton
        step, evaluates every midpoint, about 58 calls: over random inputs of the
        band's domain the average stays near 21.4 (3 fallbacks in 20,000) only while
        such fallbacks stay rare; 161 of them, as without that step, give 21.7."""
        rng = np.random.default_rng(35)
        pairs = list(zip(rng.uniform(-30.0, 60.0, 20_000).tolist(),
                         rng.uniform(1.0, 100.0, 20_000).tolist()))
        assert self.exp_calls_per_wet_bulb(pairs) <= 21.5

    @settings(max_examples=2000)
    @given(st.floats(*envdata.DRY_BULB_RANGE_C), st.floats(0.0, 100.0))
    # the low-slope corners of the band's domain, where the half-width is at its cap
    @example(-30.0, 1.0)
    @example(-30.0, 1.0000001)
    @example(60.0, 1.0)
    @example(59.9, 99.999)
    # at saturation, and just below 1 %, where no band is used
    @example(-30.0, 100.0)
    @example(60.0, 100.0)
    @example(20.0, math.nextafter(1.0, 0.0))
    @example(-30.0, 0.9999999)
    def test_bit_equal_to_the_full_bisection_everywhere(self, t, rh):
        assert wet_bulb(t, rh).hex() == reference_wet_bulb(t, rh).hex()

    def test_the_band_margin_is_over_twice_the_residual_error(self):
        """A band end's computed residual fixes the sign of every point beyond it only
        while the float residual is within half the margin of the exact one: checked
        at 3,000 random roots of the band's domain and 5e-11 degC either side."""
        rng = np.random.default_rng(36)
        worst = 0.0
        for t, rh in zip(rng.uniform(-30.0, 60.0, 3000).tolist(),
                         rng.uniform(1.0, 100.0, 3000).tolist()):
            inputs = residual_inputs(t, rh)
            root = wet_bulb(t, rh)
            for x in (root - 5e-11, root, root + 5e-11):
                error = abs(Decimal(float_residual(x, *inputs)) - exact_residual(x, *inputs))
                worst = max(worst, float(error))
        assert 0.0 < worst < envdata._WB_BAND_MARGIN / 2

    def test_the_lower_bracket_end_is_below_every_root(self):
        """The residual is negative at ``t - 60`` over the checked domain, so the
        bisection's lower end needs no widening. It falls as humidity rises, so the
        dry edge bounds it at each temperature; it is greatest at the hot, dry corner."""
        lo, hi = envdata.DRY_BULB_RANGE_C
        edges = ([(t, rh) for t in np.linspace(lo, hi, 1601).tolist() for rh in (0.0, 100.0)]
                 + [(t, rh) for t in (lo, hi) for rh in np.linspace(0.0, 100.0, 401).tolist()])
        values = [float_residual(t - 60.0, *residual_inputs(t, rh)) for t, rh in edges]
        corner = float_residual(hi - 60.0, *residual_inputs(hi, 0.0))
        assert max(values) == corner < -0.01

    def test_bisection_stops_once_converged(self, monkeypatch):
        expected = reference_wet_bulb(20.0, 50.0)
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        assert wet_bulb(20.0, 50.0) == expected
        # one call for the actual humidity, two for the bracket, then the bisection
        assert 3 < len(calls) < 3 + 80

    @pytest.mark.parametrize("t", [1e16, -1e5, 1e30, -1e30, math.inf, math.nan, 70.5, -90.5])
    def test_dry_bulb_outside_its_range_is_refused_at_once(self, t):
        """The bracket search widened without end for 1e16 and -1e5 degC; a dry-bulb
        temperature outside ``DRY_BULB_RANGE_C`` is now a ValueError."""
        with deadline(3.0), pytest.raises(ValueError, match="^dry-bulb temperature .* outside "):
            wet_bulb(t, 50.0)

    def test_the_corners_of_the_domain_solve_within_a_deadline(self):
        lo, hi = envdata.DRY_BULB_RANGE_C
        for t in (lo, hi):
            for rh in (0.0, 100.0):
                with deadline(3.0):
                    twb = wet_bulb(t, rh)
                assert t - 60.0 < twb <= t and (rh < 100.0 or twb == t)
        assert lo <= -89.2 and 56.7 <= hi < 70.5 and -90.5 < lo

    def test_rh_out_of_range(self):
        with pytest.raises(ValueError):
            wet_bulb(20.0, 101.0)
        with pytest.raises(ValueError):
            wet_bulb(20.0, -0.5)


class TestSeriesDomains:
    @pytest.mark.parametrize("kind, values, expected", [
        (SeriesKind.DRY_BULB_TEMP_C, [20.0, 1e30], "dry-bulb temperature must lie in [-90, 70]"),
        (SeriesKind.DRY_BULB_TEMP_C, [-100000.0, 20.0],
         "dry-bulb temperature must lie in [-90, 70]"),
        (SeriesKind.CARBON_INTENSITY, [1.0, -0.5], "carbon intensity must be >= 0"),
        (SeriesKind.REL_HUMIDITY_PCT, [100.5, 1.0], "relative humidity must lie in [0, 100]"),
        (SeriesKind.PRICE, [1.0, math.nan], "price must be finite"),
        (SeriesKind.PRICE, [math.inf, 1.0], "price must be finite"),
    ], ids=["dry_bulb_high", "dry_bulb_low", "carbon", "humidity", "price_nan", "price_inf"])
    def test_a_value_off_its_kind_domain_is_refused(self, kind, values, expected):
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            TimeSeries("X", kind, T0, np.array(values))

    def test_the_range_holds_every_value_of_the_domain(self):
        lo, hi = envdata.DRY_BULB_RANGE_C
        series = TimeSeries("X", SeriesKind.DRY_BULB_TEMP_C, T0, np.array([lo, hi]))
        assert list(series.values) == [lo, hi]
        assert list(TimeSeries("X", SeriesKind.PRICE, T0, np.array([-5.0])).values) == [-5.0]


class TestSynthSeries:
    def test_constant_when_flat(self):
        s = synth_series(SeriesKind.PRICE, 42.0, 0.0, 0.0, T0, 48, seed=1)
        assert np.all(s.values == 42.0)

    def test_seed_reproducible(self):
        a = synth_series(SeriesKind.PRICE, 80.0, 20.0, 5.0, T0, 100, seed=9)
        b = synth_series(SeriesKind.PRICE, 80.0, 20.0, 5.0, T0, 100, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_amplitude_bounds_without_noise(self):
        s = synth_series(SeriesKind.PRICE, 100.0, 10.0, 0.0, T0, 240, seed=0)
        assert s.values.min() >= 90.0 - 1e-9
        assert s.values.max() <= 110.0 + 1e-9

    def test_carbon_requires_nonnegative_base(self):
        with pytest.raises(ValueError):
            synth_series(SeriesKind.CARBON_INTENSITY, 50.0, 80.0, 0.0, T0, 24, seed=0)

    def test_carbon_noise_clipped_at_zero(self):
        s = synth_series(SeriesKind.CARBON_INTENSITY, 5.0, 0.0, 50.0, T0, 500, seed=2)
        assert s.values.min() >= 0.0

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            synth_series(SeriesKind.PRICE, 10.0, -1.0, 0.0, T0, 24, seed=0)
        with pytest.raises(ValueError):
            synth_series(SeriesKind.PRICE, 10.0, 0.0, -1.0, T0, 24, seed=0)
