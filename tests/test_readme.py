"""The README's Python examples run as written against the current API."""

import re
from pathlib import Path

from geodcsim import rewards

ROOT = Path(__file__).resolve().parent.parent


def python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(monkeypatch):
    blocks = python_blocks()
    assert blocks
    monkeypatch.chdir(ROOT)  # the examples name configs/ relative to the repo root
    try:
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), {})
    finally:
        rewards._REGISTRY.pop("queue_pressure", None)  # registered by the README example
