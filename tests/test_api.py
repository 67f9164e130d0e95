"""The package's public surface: every exported name exists exactly once,
and the README's library example runs against it."""

from __future__ import annotations

import re
from pathlib import Path

import detmatroid


def test_all_names_are_unique_and_resolve():
    names = detmatroid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(detmatroid, name)]
    assert missing == []
    namespace: dict = {}
    exec("from detmatroid import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
