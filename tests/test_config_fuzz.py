"""Config fuzzing: a damaged shipped config ends in a typed error or a clean start.

Each example takes the shipped ``sim.yaml``, ``datacenters.yaml`` and
``reward.yaml``, damages one of them, and then loads all three, builds a one-day
environment and resets it. A damaged leaf holds a value of the wrong kind or a
non-finite or huge number. A ``SimulationError`` or an ``OSError`` (a damaged
path that names no file) is the expected way to fail, and its message is one
line; any other exception is a leak the CLI would print as a traceback.
"""

import copy
from dataclasses import replace
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from geodcsim.errors import SimulationError
from geodcsim.runner import build_env, load_dc_fleet, load_reward_config, load_sim_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ("sim", "datacenters", "reward")
TEXTS = {name: (CONFIG_DIR / f"{name}.yaml").read_text() for name in CONFIGS}
DOCS = {name: yaml.safe_load(text) for name, text in TEXTS.items()}
# values of the wrong kind for any leaf (a string, a number written as text, a list, a
# mapping, null, a bool), then numbers no float holds finitely
REPLACEMENTS = ("x", "7", [1], {"a": 1}, None, True,
                float("inf"), float("-inf"), float("nan"), 10**400, -10**400)


def _leaves(doc, path=()):
    """Paths to every scalar in ``doc``, list elements included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, (*path, key))


LEAVES = [(name, path) for name in CONFIGS for path in _leaves(DOCS[name])]


def _replaced(name, path, value) -> str:
    doc = copy.deepcopy(DOCS[name])
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return yaml.safe_dump(doc)


_REPLACED_LEAF = st.builds(
    lambda leaf, value: (leaf[0], _replaced(*leaf, value)),
    st.sampled_from(LEAVES), st.sampled_from(REPLACEMENTS),
)
_TRUNCATED_FILE = st.sampled_from(CONFIGS).flatmap(
    lambda name: st.integers(0, len(TEXTS[name])).map(lambda n: (name, TEXTS[name][:n]))
)


@settings(max_examples=150)
@given(damage=st.one_of(_REPLACED_LEAF, _TRUNCATED_FILE))
def test_damaged_config_gives_typed_error_or_clean_start(tmp_path_factory, damage):
    name, text = damage
    root = tmp_path_factory.getbasetemp() / "config_fuzz"
    root.mkdir(exist_ok=True)
    paths = {n: root / f"{n}.yaml" for n in CONFIGS}
    for n in CONFIGS:
        paths[n].write_text(text if n == name else TEXTS[n])
    try:
        sim = replace(load_sim_config(paths["sim"]), duration_days=1)
        fleet = load_dc_fleet(paths["datacenters"])
        reward_doc = load_reward_config(paths["reward"])
        build_env(sim, fleet, reward_doc, seed=0).reset()
    except (SimulationError, OSError) as exc:
        assert "\n" not in str(exc), f"error spans lines: {exc}"
