"""Support patterns of partial matrices and SLMF column systems.

A support pattern records which entries of an m x n matrix are observed, as a
set of cells given column by column: column j observes the rows in its support
set.  Patterns are immutable; row sets are stored as bitmasks (bit i-1 = row i)
which caps m at 64 rows, far beyond the exhaustive-search ceilings elsewhere.
This module owns that mask format for the whole package: row lists become
masks through _bits_of and back through _rows_of, 0/1 indicator rows through
_cols_of_rows and back through _indicator_rows, and column masks become row
masks (bit j-1 = column j) through _row_masks, the one row view that
transpose, reduce_pattern, the oracle and the relaxed check all take.

An Slmf holds the column supports of a (r,m) linkage matching field support:
exactly m-r columns, each with r+1 rows.  Whether such a system actually
satisfies the linkage counting condition is decided in the slmf module.

Text formats:

* indicator: m lines of n space-separated 0/1 tokens, trailing newline;
* JSON: {"m": .., "n": .., "columns": [[..], ..]} with 1-based sorted entries.

parse_pattern accepts both (JSON is detected by a leading '{').
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapacityError, ContractError, ParseError

MAX_ROWS = 64


def _bits_of(rows, m: int, what: str) -> int:
    if m > MAX_ROWS:
        raise CapacityError("m=%d exceeds the %d-row ceiling" % (m, MAX_ROWS))
    mask = 0
    for i in rows:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= m:
            raise ContractError("%s: row index %r out of range 1..%d" % (what, i, m))
        bit = 1 << (i - 1)
        if mask & bit:
            raise ContractError("%s: duplicate row index %d" % (what, i))
        mask |= bit
    return mask


def _rows_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _row_masks(m: int, cols) -> list[int]:
    """The m row masks of column masks: bit j of row i is bit i of cols[j]
    (row masks give column masks back).  Visits each cell, not all m*n bits."""
    rows = [0] * m
    for j, mask in enumerate(cols):
        bit = 1 << j
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] |= bit
            mask ^= low
    return rows


def _indicator_rows(m: int, cols) -> list[list[int]]:
    """The m 0/1 rows of column masks: row i holds bit i-1 of each mask."""
    return [[mask >> i & 1 for mask in cols] for i in range(m)]


def _cols_of_rows(rows) -> tuple[int, ...]:
    """Column masks of validated 0/1 rows of one width (no rows, no columns)."""
    return tuple(sum(v << i for i, v in enumerate(col)) for col in zip(*rows))


@dataclass(frozen=True)
class SupportPattern:
    """Observed-entry pattern of an m x n partial matrix."""

    m: int
    n: int
    cols: tuple[int, ...]  # bitmask per column, bit i-1 = row i

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ContractError("negative dimensions")
        if self.m > MAX_ROWS:
            raise CapacityError("m=%d exceeds the %d-row ceiling" % (self.m, MAX_ROWS))
        if len(self.cols) != self.n:
            raise ContractError("expected %d columns, got %d" % (self.n, len(self.cols)))
        full = (1 << self.m) - 1
        for j, mask in enumerate(self.cols, start=1):
            if not isinstance(mask, int) or mask < 0 or mask & ~full:
                raise ContractError("column %d support out of range" % j)

    @classmethod
    def from_columns(cls, m: int, columns) -> "SupportPattern":
        cols = tuple(_bits_of(c, m, "column %d" % (j + 1)) for j, c in enumerate(columns))
        return cls(m, len(cols), cols)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column supports as 1-based sorted row tuples."""
        return tuple(_rows_of(mask) for mask in self.cols)

    def size(self) -> int:
        """Number of observed cells."""
        return sum(mask.bit_count() for mask in self.cols)

    def cells(self) -> list[tuple[int, int]]:
        """Observed cells (i, j), 1-based, row-major order."""
        out = []
        for i in range(1, self.m + 1):
            bit = 1 << (i - 1)
            for j, mask in enumerate(self.cols, start=1):
                if mask & bit:
                    out.append((i, j))
        return out


def parse_pattern(text: str) -> SupportPattern:
    """Parse a pattern from indicator text or JSON (auto-detected)."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty pattern text")
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_indicator(text)


def _parse_indicator(text: str) -> SupportPattern:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty pattern text")
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ParseError("line %d: blank line inside indicator matrix" % lineno)
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                "line %d: expected %d tokens, got %d" % (lineno, width, len(tokens))
            )
        row = []
        for tok in tokens:
            if tok not in ("0", "1"):
                raise ParseError("line %d: invalid token %r" % (lineno, tok))
            row.append(tok == "1")
        rows.append(row)
    return SupportPattern(len(rows), width, _cols_of_rows(rows))


def _parse_json(text: str) -> SupportPattern:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    for key in ("m", "n", "columns"):
        if key not in data:
            raise ParseError("missing field %r" % key)
    m, n, columns = data["m"], data["n"], data["columns"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError("field 'm': expected a positive integer")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("field 'n': expected a nonnegative integer")
    if not isinstance(columns, list) or len(columns) != n:
        raise ParseError("field 'columns': expected a list of %r column lists" % n)
    if m > MAX_ROWS:
        raise CapacityError("m=%d exceeds the %d-row ceiling" % (m, MAX_ROWS))
    cols = []
    for j, col in enumerate(columns, start=1):
        if not isinstance(col, list):
            raise ParseError("columns[%d]: expected a list" % j)
        mask = 0
        for k, entry in enumerate(col, start=1):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ParseError("columns[%d][%d]: expected an integer" % (j, k))
            if not 1 <= entry <= m:
                raise ParseError(
                    "columns[%d][%d]: index %d out of range 1..%d" % (j, k, entry, m)
                )
            bit = 1 << (entry - 1)
            if mask & bit:
                raise ParseError("columns[%d]: duplicate row index %d" % (j, entry))
            mask |= bit
        cols.append(mask)
    return SupportPattern(m, n, tuple(cols))


def emit_pattern(pattern: SupportPattern, fmt: str = "indicator") -> str:
    """Serialize a pattern; deterministic.

    The text parses back to the same pattern when m >= 1, and in the
    indicator format when n >= 1 as well.  parse_pattern refuses the text
    of an m = 0 pattern in both formats and of an n = 0 one in the
    indicator format; reduce_pattern can return both shapes.
    """
    if fmt == "indicator":
        rows = _indicator_rows(pattern.m, pattern.cols)
        return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
    if fmt == "json":
        # the text json.dumps prints (a list of ints prints as str prints
        # it), formatted directly: the census hashes it into every
        # pattern's seed, and json.dumps costs about twice as much
        return '{"m": %d, "n": %d, "columns": %s}\n' % (
            pattern.m, pattern.n, [list(c) for c in pattern.columns])
    raise ContractError("unknown format %r" % fmt)


def transpose(pattern: SupportPattern) -> SupportPattern:
    """Swap rows and columns; an involution."""
    if pattern.n > MAX_ROWS:
        raise CapacityError("transpose needs n <= %d rows" % MAX_ROWS)
    return SupportPattern(pattern.n, pattern.m,
                          tuple(_row_masks(pattern.m, pattern.cols)))


def reduce_pattern(pattern: SupportPattern, r: int) -> tuple[SupportPattern, tuple]:
    """Strip size-r columns and degree-r rows until neither remains.

    Deleting a column with exactly r observed rows, or a row meeting exactly r
    observed columns, preserves whether the pattern is a base (and more
    generally independent) for rank bound r, so classification may be done on
    the reduced pattern.  Passes alternate: all size-r columns in ascending
    index order, then all degree-r rows, repeated to a fixed point.  A
    degree-r row is a size-r column of the transpose, so both passes are
    one strip of the masks of r bits, on the columns and then on the rows.

    Returns (reduced pattern, log); the log lists ('col', j) / ('row', i)
    steps with indices valid at the moment of deletion.  Replayed in order
    they turn the input into the output: ('col', j) deletes the j-th
    column mask; ('row', i) maps each mask c to c & low | c >> i << (i-1),
    low = (1 << (i-1)) - 1, which deletes row i and moves later rows down.
    """
    if r < 1:
        raise ContractError("rank bound must be >= 1")
    masks, width, log = list(pattern.cols), pattern.m, []
    while True:
        cols, steps = masks, len(log)
        for kind in ("col", "row"):  # each pass ends on the other side
            kept = []
            for mask in masks:
                if mask.bit_count() == r:
                    log.append((kind, len(kept) + 1))
                else:
                    kept.append(mask)
            if kind == "row" and len(log) == steps:  # the round deleted nothing
                return (SupportPattern(len(kept), len(cols), tuple(cols)),
                        tuple(log))
            masks, width = _row_masks(width, kept), len(kept)


@dataclass(frozen=True)
class Slmf:
    """Column system of a candidate (r,m) linkage matching field support.

    Exactly m-r columns, each supported on r+1 rows.
    """

    r: int
    m: int
    cols: tuple[int, ...]

    def __post_init__(self):
        self.as_pattern()  # the row ceiling and the column ranges
        if self.r < 1:
            raise ContractError("r must be >= 1")
        if self.m < self.r + 1:
            raise ContractError("need m >= r+1, got r=%d m=%d" % (self.r, self.m))
        if len(self.cols) != self.m - self.r:
            raise ContractError(
                "expected m-r=%d columns, got %d" % (self.m - self.r, len(self.cols))
            )
        for j, mask in enumerate(self.cols, start=1):
            if mask.bit_count() != self.r + 1:
                raise ContractError(
                    "column %d has %d rows, need r+1=%d"
                    % (j, mask.bit_count(), self.r + 1)
                )

    @classmethod
    def from_columns(cls, r: int, m: int, columns) -> "Slmf":
        cols = tuple(_bits_of(c, m, "column %d" % (j + 1)) for j, c in enumerate(columns))
        return cls(r, m, cols)

    @classmethod
    def from_pattern(cls, pattern: SupportPattern, r: int) -> "Slmf":
        return cls(r, pattern.m, pattern.cols)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_rows_of(mask) for mask in self.cols)

    def as_pattern(self) -> SupportPattern:
        return SupportPattern(self.m, len(self.cols), self.cols)
