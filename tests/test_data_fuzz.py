"""Input-file fuzzing: a damaged data file ends in a typed error or a clean run.

Each example writes one input file of every kind that a run reads: a trace
(JSONL), dc 1's price and carbon CSVs, its weather JSON and its physics JSON, and
the cost matrix, delay table and region map. It damages one of them: cuts it
short, writes one byte that is no UTF-8 (``0xff``) into it, or replaces one JSON
leaf or one CSV cell with a number no input should hold (``1e16``, ``-1e5``,
``1e400``, an infinity, NaN), ``true``, text or, in JSON, a number written as text
(``"7"``), which only a trace reads as its number. It then runs that file's loader,
``build_env`` and a one-day ``run_episode``.

A ``SimulationError`` or an ``OSError`` with a one-line message is the expected
way to fail, and a ``SimulationError`` names the damaged file, whether the loader,
``build_env``, ``reset`` or the episode raised it. Any other exception is a leak
the CLI would print as a traceback; a run still going after ``SECONDS`` is a hang.
A run that ends without an error must give a finite number for every KPI.
"""

import copy
import json
import math
import tempfile
from dataclasses import replace
from datetime import timedelta
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodcsim.dcphysics import desk_scale_params, load_dc_config, params_to_config
from geodcsim.envdata import (SeriesKind, load_carbon_csv, load_price_csv, load_weather_json,
                              save_series_csv, save_weather_json, synth_series)
from geodcsim.errors import SimulationError
from geodcsim.network import CostMatrix, DelayTable, RegionMap
from geodcsim.runner import (build_env, load_dc_fleet, load_reward_config, load_sim_config,
                             run_episode)
from geodcsim.workload import generate_synthetic_trace, load_trace, save_trace

from conftest import deadline

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SECONDS = 20.0
SIM = replace(load_sim_config(CONFIG_DIR / "sim.yaml"), duration_days=1)
FLEET = load_dc_fleet(CONFIG_DIR / "datacenters.yaml")
REWARD = load_reward_config(CONFIG_DIR / "reward.yaml")
LOCATION = FLEET[0].location

# each kind of file: its name, and the loader that reads it
FILES = {
    "trace": ("trace.jsonl", load_trace),
    "price": ("price.csv", lambda path: load_price_csv(path, LOCATION)),
    "carbon": ("carbon.csv", lambda path: load_carbon_csv(path, LOCATION)),
    "weather": ("weather.json", lambda path: load_weather_json(path, LOCATION)),
    "physics": ("physics.json", load_dc_config),
    "cost": ("cost_matrix.csv", CostMatrix.from_csv),
    "delay": ("delay_params.csv", DelayTable.from_csv),
    "regions": ("region_map.csv", RegionMap.from_csv),
}
# what replaces a JSON leaf, as JSON text, and a CSV cell
JSON_TOKENS = ("1e16", "-1e5", "1e400", "Infinity", "-Infinity", "NaN", "true", '"x"', '"7"')
CSV_TOKENS = ("1e16", "-1e5", "1e400", "inf", "-inf", "nan", "true", "x")


def _texts() -> dict:
    """The undamaged text of each file: dc 1's series over the window, a synthetic
    trace with explicit and sampled origins, and the packaged network tables."""
    hours = SIM.duration_days * 24 + 1
    trace = generate_synthetic_trace(SIM.start, 96, 2.0, SIM.resource_ranges, seed=5)
    trace = [spec._replace(origin_dc_id=(1, 2, 3, None)[i % 4]) for i, spec in enumerate(trace)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_trace(trace, tmp / "trace.jsonl")
        for kind, name, seed in ((SeriesKind.PRICE, "price.csv", 1),
                                 (SeriesKind.CARBON_INTENSITY, "carbon.csv", 2)):
            save_series_csv(synth_series(kind, 250.0, 100.0, 5.0, SIM.start, hours, seed),
                            tmp / name)
        save_weather_json(
            synth_series(SeriesKind.DRY_BULB_TEMP_C, 20.0, 8.0, 1.0, SIM.start, hours, 3),
            synth_series(SeriesKind.REL_HUMIDITY_PCT, 45.0, 10.0, 2.0, SIM.start, hours, 4),
            tmp / "weather.json")
        texts = {kind: (tmp / name).read_text() for kind, (name, _) in FILES.items()
                 if (tmp / name).exists()}
    texts["physics"] = json.dumps(params_to_config(desk_scale_params()), indent=2)
    for kind in ("cost", "delay", "regions"):
        texts[kind] = resources.files("geodcsim").joinpath("data", FILES[kind][0]).read_text()
    return texts


TEXTS = _texts()


def _leaves(doc, path=()):
    """Paths to every scalar in the JSON value ``doc``, list elements included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, (*path, key))


def _replaced_leaf(kind, line, path, token, text=None) -> str:
    """``text``, by default ``TEXTS[kind]``, with the leaf at ``path`` of JSON line
    ``line`` (the whole document unless it is JSONL) written as ``token``."""
    text = TEXTS[kind] if text is None else text
    lines = text.splitlines() if kind == "trace" else [text]
    doc = copy.deepcopy(json.loads(lines[line]))
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = "@leaf@"
    lines[line] = json.dumps(doc).replace('"@leaf@"', token)
    return "\n".join(lines) + "\n"


def _replaced_cell(kind, row, col, token) -> str:
    lines = TEXTS[kind].splitlines()
    cells = lines[row].split(",")
    cells[col % len(cells)] = token
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# per kind of file, as many examples each: its leaves or its data rows
JSON_LEAVES = {kind: [(kind, line, path)
                      for line, text in enumerate(TEXTS[kind].splitlines() if kind == "trace"
                                                  else [TEXTS[kind]])
                      for path in _leaves(json.loads(text))]
               for kind in ("trace", "weather", "physics")}
CSV_ROWS = {kind: [(kind, row) for row in range(1, len(TEXTS[kind].splitlines()))]
            for kind in ("price", "carbon", "cost", "delay", "regions")}

_REPLACED_LEAF = st.builds(
    lambda leaf, token: (leaf[0], _replaced_leaf(*leaf, token)),
    st.sampled_from(sorted(JSON_LEAVES)).flatmap(lambda kind: st.sampled_from(JSON_LEAVES[kind])),
    st.sampled_from(JSON_TOKENS),
)
_REPLACED_CELL = st.builds(
    lambda row, col, token: (row[0], _replaced_cell(*row, col, token)),
    st.sampled_from(sorted(CSV_ROWS)).flatmap(lambda kind: st.sampled_from(CSV_ROWS[kind])),
    st.integers(0, 4), st.sampled_from(CSV_TOKENS),
)
_TRUNCATED_FILE = st.sampled_from(sorted(FILES)).flatmap(
    lambda kind: st.integers(0, len(TEXTS[kind])).map(lambda n: (kind, TEXTS[kind][:n]))
)
_NO_TEXT_BYTE = st.sampled_from(sorted(FILES)).flatmap(  # the texts are ASCII
    lambda kind: st.integers(0, len(TEXTS[kind])).map(
        lambda n: (kind, TEXTS[kind][:n].encode() + b"\xff" + TEXTS[kind][n:].encode()))
)


@settings(max_examples=300, deadline=timedelta(seconds=SECONDS))
@given(damage=st.one_of(_REPLACED_LEAF, _REPLACED_CELL, _TRUNCATED_FILE, _NO_TEXT_BYTE))
# a negative fan exponent loaded, and the first step overflowed raising a ratio below 1 to it
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("server_characteristics", "IT_FAN_POWER_EXPONENT"), "-1e5")))
# a tiny reference fan ratio loaded, and the first step overflowed the ratio's cube
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("server_characteristics", "ITFAN_REF_V_RATIO"), "1e-300",
    text=_replaced_leaf("physics", 0, ("server_characteristics", "IT_FAN_POWER_EXPONENT"), "3"))))
# a tiny reference fan ratio under the default linear law loaded, and each rack's
# power overflowed to an infinity: the run ended with NaN in every energy KPI
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("server_characteristics", "ITFAN_REF_V_RATIO"), "1e-306")))
# a tiny CRAC flow loaded, and the first step divided by its square, rounded to 0
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("hvac_configuration", "CRAC_SUPPLY_AIR_FLOW_RATE_pu"), "1e-200",
    text=_replaced_leaf("physics", 0, ("server_characteristics", "THERMAL_COEFFS", 2), "2"))))
# a huge CRAC flow loaded, and the first step overflowed the CRAC fan's cube
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("hvac_configuration", "CRAC_SUPPLY_AIR_FLOW_RATE_pu"), "1e200")))
# a tiny cooling-tower reference flow loaded, and the first step overflowed its fan's cube
@example(damage=("physics", _replaced_leaf(
    "physics", 0, ("hvac_configuration", "CT_REFERENCE_AIR_FLOW_RATE"), "1e-200")))
# a misspelled physics key was ignored, and its field's default loaded
@example(damage=("physics", TEXTS["physics"].replace('"NUM_RACKS"', '"NUM_RACK"')))
def test_damaged_input_file_gives_typed_error_or_clean_run(tmp_path_factory, damage):
    kind, text = damage
    root = tmp_path_factory.getbasetemp() / "data_fuzz"
    root.mkdir(exist_ok=True)
    paths = {k: root / name for k, (name, _) in FILES.items()}
    for k, path in paths.items():
        data = text if k == kind else TEXTS[k]
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    sim = replace(SIM, workload_path=str(paths["trace"]), cost_matrix_path=str(paths["cost"]),
                  delay_params_path=str(paths["delay"]), region_map_path=str(paths["regions"]))
    fleet = [replace(FLEET[0], price_csv=str(paths["price"]), carbon_csv=str(paths["carbon"]),
                     weather_json=str(paths["weather"]), dc_config_file=str(paths["physics"])),
             *FLEET[1:]]
    with deadline(SECONDS):
        try:
            FILES[kind][1](paths[kind])
        except (SimulationError, OSError) as exc:
            assert "\n" not in str(exc), f"error spans lines: {exc}"
            assert str(paths[kind]) in str(exc), f"error does not name the file: {exc}"
        try:
            build_env(sim, fleet, REWARD, seed=0).reset()
            _, kpis = run_episode(sim, fleet, REWARD, seed=0)
        except (SimulationError, OSError) as exc:
            assert "\n" not in str(exc), f"error spans lines: {exc}"
            if isinstance(exc, SimulationError):
                assert str(paths[kind]) in str(exc), f"error does not name the file: {exc}"
        else:
            assert all(math.isfinite(v) for v in kpis.values()), f"a KPI is not finite: {kpis}"
