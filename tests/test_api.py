"""The package's public surface: every exported name exists exactly once."""

from __future__ import annotations

import detmatroid


def test_all_names_are_unique_and_resolve():
    names = detmatroid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(detmatroid, name)]
    assert missing == []
    namespace: dict = {}
    exec("from detmatroid import *", namespace)
    assert set(names) <= set(namespace)
