"""Shared fixture patterns with hand-checked classifications.

Each constant lists column supports as 1-based row sets. The names state the
property the tests rely on, all at target rank 2 unless noted.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import detmatroid
from detmatroid import Slmf, SupportPattern

# 6x4 column system, all columns size 3, satisfying the union lower bounds
SLMF_6X4_COLUMNS = [[2, 4, 6], [1, 2, 4], [1, 2, 5], [1, 3, 5]]

# 6x5 base whose reduction cascades all the way down to an empty pattern
FULLY_REDUCIBLE_BASE_6X5 = [[1, 2, 3, 4, 5], [4, 5, 6], [2, 4], [1, 2, 4, 5, 6],
                            [1, 3, 5]]

# 6x5 relaxed (2,2,6) pattern with a degree-2 row: no partition exists on it
# directly, but removing that row leaves a 5x5 base that partitions
UNPARTITIONABLE_BASE_6X5 = [[1, 2, 3, 4], [1, 3, 5, 6], [1, 2, 3, 5], [4, 5, 6],
                            [4, 5, 6]]
REDUCED_BASE_5X5 = [[1, 2, 3], [1, 2, 4, 5], [1, 2, 4], [3, 4, 5], [3, 4, 5]]
# a valid partition of the reduced pattern, checkable by hand
REDUCED_BASE_5X5_GROUPS = [[1, 3, 4], [2, 5]]

# 6x8 base with every column of size 3
TRIPLES_BASE_6X8 = [[1, 2, 3], [4, 5, 6], [2, 3, 4], [1, 5, 6], [2, 3, 5],
                    [1, 2, 6], [1, 3, 6], [1, 4, 6]]

# 5x5 pattern with min degree 3 meeting the relaxed (2,2,5) counting condition
# yet admitting no partition and failing the rank oracle (rank 15 of 16)
RELAXED_NONBASE_5X5 = [[3, 4, 5], [3, 4, 5], [1, 2, 5], [1, 2, 5], [1, 2, 3, 4]]


def make_pattern(m: int, columns) -> SupportPattern:
    return SupportPattern.from_columns(m, columns)


def group_pattern(pattern: SupportPattern, group) -> SupportPattern:
    """The sub-pattern of the 1-based columns in group, in group's order."""
    return SupportPattern(pattern.m, len(group),
                          tuple(pattern.cols[j - 1] for j in group))


def draw_base_size(rng, m: int, n: int, r: int, spread: bool) -> SupportPattern:
    """A seeded random pattern of size r(m+n-r).

    With spread every row degree and column size is at least r+1: r+1 random
    cells in each row, each short column topped up at random rows, and the
    draw retried if that passes the size; then uniform cells up to the size.
    A frozen digest depends on these draws: change nothing here.
    """
    size = r * (m + n - r)
    while True:
        cells = set()
        if spread:
            for i in range(m):
                cells.update((i, j) for j in rng.sample(range(n), r + 1))
            for j in range(n):
                rows = [i for i in range(m) if (i, j) in cells]
                if len(rows) <= r:
                    free = [i for i in range(m) if (i, j) not in cells]
                    cells.update((i, j) for i in rng.sample(free, r + 1 - len(rows)))
        if len(cells) > size:
            continue
        rest = [(i, j) for i in range(m) for j in range(n) if (i, j) not in cells]
        cells.update(rng.sample(rest, size - len(cells)))
        cols = [0] * n
        for i, j in cells:
            cols[j] |= 1 << i
        return SupportPattern(m, n, tuple(cols))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the detmatroid under test; text output."""
    src = str(Path(detmatroid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def mat_transpose(a: list[list]) -> list[list]:
    """Transpose of a list-of-rows matrix; no library routine needs one."""
    return [list(row) for row in zip(*a)] if a else []


@pytest.fixture
def slmf_6x4() -> Slmf:
    return Slmf.from_columns(2, 6, SLMF_6X4_COLUMNS)


@pytest.fixture
def fully_reducible_base() -> SupportPattern:
    return make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)


@pytest.fixture
def unpartitionable_base() -> SupportPattern:
    return make_pattern(6, UNPARTITIONABLE_BASE_6X5)


@pytest.fixture
def reduced_base() -> SupportPattern:
    return make_pattern(5, REDUCED_BASE_5X5)


@pytest.fixture
def triples_base() -> SupportPattern:
    return make_pattern(6, TRIPLES_BASE_6X8)


@pytest.fixture
def relaxed_nonbase() -> SupportPattern:
    return make_pattern(5, RELAXED_NONBASE_5X5)
