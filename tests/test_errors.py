"""``errors.naming`` and ``errors.within``, the owners of an input file's name and of
the dc, row, line, task or section an error arose in, and the guards that keep every
other module from writing either into an error message itself."""

import ast
import csv
import json
import re
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from geodcsim.dcphysics import DcPhysicsParams
from geodcsim.envdata import (PRICE_TIME_COL, PRICE_VALUE_COL, SeriesKind, TimeSeries,
                              load_price_csv, load_weather_json, synth_series)
from geodcsim.errors import (ConfigError, CoverageError, DataError, DataFormatError,
                             ProtocolError, naming, within)
from geodcsim.network import CostMatrix
from geodcsim.runner import summarize_kpis
from geodcsim.workload import ResourceRanges, generate_synthetic_trace

from conftest import T0, make_env

SRC = Path(__file__).resolve().parent.parent / "src" / "geodcsim"


class TestNaming:
    @pytest.mark.parametrize("kind", [DataError, DataFormatError, ConfigError, CoverageError,
                                      ProtocolError])
    def test_a_simulator_error_keeps_its_type_behind_the_path(self, kind):
        with pytest.raises(kind, match=r"^in\.csv: row 2: bad$") as info:
            with naming("in.csv"):
                raise kind("row 2: bad")
        assert type(info.value.__cause__) is kind

    @pytest.mark.parametrize("exc", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        csv.Error("field larger than field limit (131072)"),
    ], ids=["decode", "csv"])
    def test_bytes_no_csv_reader_can_split_are_a_format_error(self, exc):
        with pytest.raises(DataFormatError, match=f"^in\\.csv: {re.escape(str(exc))}$"):
            with naming("in.csv"):
                raise exc

    def test_nested_owners_name_both_files_outer_first(self):
        with pytest.raises(ConfigError, match=r"^a\.csv: b\.csv: region 'x' not in cost matrix$"):
            with naming("a.csv"), naming("b.csv"):
                raise ConfigError("region 'x' not in cost matrix")

    def test_any_other_exception_passes_unchanged(self):
        with pytest.raises(KeyError) as info:
            with naming("in.csv"):
                raise KeyError("k")
        assert info.value.args == ("k",)


def _names_a_file(node: ast.AST) -> bool:
    """Whether expression ``node`` reads a name or attribute that holds a file path."""
    return any(
        re.search(r"path|file", sub.id if isinstance(sub, ast.Name) else sub.attr)
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_no_module_but_errors_formats_a_path_into_an_exception():
    """``naming`` owns "which file": no other module raises an exception whose
    message reads a path, so a loader cannot bring back a hand-written prefix."""
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None and _names_a_file(node.exc)
    ]
    assert offenders == []


class TestWithin:
    @pytest.mark.parametrize("caught", [ValueError, TypeError, OverflowError, ZeroDivisionError,
                                        DataError])
    @pytest.mark.parametrize("kind", [ConfigError, DataError, ValueError])
    def test_a_value_error_becomes_one_kind_error_behind_the_context(self, caught, kind):
        original = caught("bad")
        with pytest.raises(kind) as info:
            with within("dc 2", kind):
                raise original
        assert type(info.value) is kind and str(info.value) == "dc 2: bad"
        assert info.value.__cause__ is original

    def test_the_kind_defaults_to_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^section: bad$"):
            with within("section"):
                raise ValueError("bad")

    def test_without_a_context_the_message_is_kept(self):
        with pytest.raises(DataError) as info:
            with within(None, DataError):
                raise OverflowError("date value out of range")
        assert str(info.value) == "date value out of range"
        assert type(info.value.__cause__) is OverflowError

    @pytest.mark.parametrize("exc", [KeyError("k"), AttributeError("a"), OSError("o")],
                             ids=["key", "attribute", "os"])
    def test_any_other_exception_passes_unchanged(self, exc):
        with pytest.raises(type(exc)) as info:
            with within("dc 2"):
                raise exc
        assert info.value is exc

    def test_inside_naming_the_path_comes_first(self):
        with pytest.raises(DataError, match=r"^t\.jsonl: line 3: task a: bad$"):
            with naming("t.jsonl"), within("line 3", DataError), within("task a", ValueError):
                raise ValueError("bad")


def _finish_then_step_single_action(tmp_path):
    env = make_env([], single_action_mode=True)
    env.reset()
    done = False
    while not done:
        _, _, done, _ = env.step_single_action(0)
    env.step_single_action(0)


def _price_row_at_half_past(tmp_path):
    path = tmp_path / "price.csv"
    path.write_text(f"{PRICE_TIME_COL},{PRICE_VALUE_COL}\n"
                    "2024-03-01 00:00:00+00:00,90\n2024-03-01 00:30:00+00:00,91\n")
    load_price_csv(path, "SYN")


def _humidity_shorter_than_time(tmp_path):
    path = tmp_path / "weather.json"
    path.write_text(json.dumps({"hourly": {
        "time": ["2024-03-01T00:00", "2024-03-01T01:00"], "temperature_2m": [20.0, 21.0],
        "relative_humidity_2m": [50.0]}}))
    load_weather_json(path, "SYN")


@pytest.mark.parametrize("call, kind, expected", [
    (lambda tmp_path: make_env([], duration_days=0), ConfigError,
     "duration_days must be >= 1"),
    (_finish_then_step_single_action, ProtocolError, "episode is done; call reset()"),
    (lambda tmp_path: ResourceRanges(cores_req=(8, 4)), ValueError,
     "cores_req: lower bound 8 exceeds upper bound 4"),
    (lambda tmp_path: generate_synthetic_trace(T0 + timedelta(minutes=5), 4, 1.0,
                                               ResourceRanges(), seed=0),
     ValueError, "start must be aligned to the 15-minute grid"),
    (_price_row_at_half_past, DataError,
     "<tmp>/price.csv: timestamp 2024-03-01T00:30:00+00:00 is off the 1:00:00 grid"),
    (_humidity_shorter_than_time, DataFormatError,
     "<tmp>/weather.json: relative_humidity_2m length 1 does not match time"),
    (lambda tmp_path: CostMatrix(("a", "b"), [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]), DataError,
     "cost matrix must be 2x2, got (2, 3)"),
    (lambda tmp_path: DcPhysicsParams(thermal_coeffs=(1.0, 1.0, 1.0, 0.0, 0.0)), ValueError,
     "thermal_coeffs f must be nonzero"),
    (lambda tmp_path: summarize_kpis([]), ValueError, "at least one KPI row is required"),
    (lambda tmp_path: TimeSeries("SYN", SeriesKind.PRICE, datetime(2024, 3, 1), [90.0]),
     DataError, "series start must be timezone-aware UTC"),
    (lambda tmp_path: TimeSeries("SYN", SeriesKind.PRICE, T0, []), DataError,
     "series must be a non-empty 1-D array"),
    (lambda tmp_path: synth_series(SeriesKind.PRICE, 80.0, 30.0, 0.0, T0, 0, 1), ValueError,
     "hours must be >= 1"),
    (lambda tmp_path: synth_series(SeriesKind.PRICE, 80.0, 30.0, 0.0, datetime(2024, 3, 1), 24,
                                   1), ValueError, "start must be timezone-aware UTC"),
    (lambda tmp_path: synth_series(SeriesKind.PRICE, 80.0, 30.0, 0.0,
                                   T0 + timedelta(minutes=15), 24, 1),
     ValueError, "start must be hour-aligned"),
    (lambda tmp_path: CostMatrix(("a", "b"), [[0.0, math.nan], [1.0, 0.0]]), DataError,
     "cost matrix entries must be finite"),
    (lambda tmp_path: generate_synthetic_trace(datetime(9999, 12, 31, 22, tzinfo=timezone.utc),
                                               4, 5.0, ResourceRanges(), 0),
     ValueError, "task job-000001: duration_min 149.18958946804494 times sla_multiplier "
                 "overflows the deadline"),
], ids=["env_zero_days", "single_action_after_done", "ranges_reversed", "trace_start_off_grid",
        "price_half_past", "humidity_short", "cost_matrix_not_square", "thermal_f_zero",
        "no_kpi_rows", "series_naive_start", "series_empty", "synth_no_hours",
        "synth_naive_start", "synth_start_off_the_hour", "cost_matrix_nan",
        "synthetic_deadline_past_the_last_date"])
def test_a_refusal_no_other_test_reaches_keeps_its_message(tmp_path, call, kind, expected):
    with pytest.raises(kind) as info:
        call(tmp_path)
    assert str(info.value) == expected.replace("<tmp>", str(tmp_path))


# Handlers that build a value error's message themselves, each keeping a wording that
# ``within``'s ``<context>: <message>`` would not give.
KEPT_HANDLERS = {
    "floats.checked": "the cast's own error under the value's name, which is no context: "
                      "the caller's within adds that",
    "runner._read": "puts a field's key path before the message, joined by a dot inside a "
                    "nested section, and drops checked's leading colon",
    "dcphysics.load_dc_config": "follows the JSON-decode handler in one try around json.load, "
                                "whose bad bytes raise a ValueError too",
    "workload.load_trace": "the JSON-line handler: it follows the JSON-decode handler and "
                           "reads 'unreadable value'",
}
_VALUE_ERRORS = {"ValueError", "TypeError", "OverflowError", "ZeroDivisionError"}


def _handlers(node: ast.AST, function: str = "<module>"):
    """Each ``except`` handler under ``node``, with the function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield function, child
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _handlers(child, child.name if inner else function)


def _rewords_a_value_error(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` catches a value error and raises a message that reads it."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    if handler.name is None or not {ast.unparse(t) for t in types} & _VALUE_ERRORS:
        return False
    return any(isinstance(sub, ast.Name) and sub.id == handler.name
               for node in ast.walk(handler) if isinstance(node, ast.Raise) and node.exc
               for sub in ast.walk(node.exc))


def test_no_module_but_errors_puts_a_context_before_a_caught_value_error():
    """``within`` owns "which dc, row, line, task or section": no other handler turns a
    caught value error into a message of its own, except the few kept above."""
    offenders = sorted(
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for function, handler in _handlers(ast.parse(path.read_text()))
        if _rewords_a_value_error(handler))
    assert offenders == sorted(KEPT_HANDLERS)
