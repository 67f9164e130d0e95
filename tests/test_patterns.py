"""Support pattern parsing, editing, and reduction."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import (FULLY_REDUCIBLE_BASE_6X5, REDUCED_BASE_5X5,
                      UNPARTITIONABLE_BASE_6X5, assert_case_digests,
                      case_digest, make_pattern)
from detmatroid import (CapacityError, ContractError, ParseError, Slmf,
                        SupportPattern, emit_pattern, parse_pattern,
                        partition_search, reduce_pattern, transpose)
from detmatroid.patterns import _cols_of_rows, _column_text, _indicator_rows


def _json_dumps_text(p):
    """The JSON text of p as json.dumps prints it."""
    return json.dumps({"m": p.m, "n": p.n,
                       "columns": [list(c) for c in p.columns]}) + "\n"


def drop_column(pattern: SupportPattern, j: int) -> SupportPattern:
    """Remove column j (1-based); later columns shift down by one."""
    if not 1 <= j <= pattern.n:
        raise ContractError("column index %d out of range 1..%d" % (j, pattern.n))
    cols = pattern.cols[: j - 1] + pattern.cols[j:]
    return SupportPattern(pattern.m, pattern.n - 1, cols)


def drop_row(pattern: SupportPattern, i: int) -> SupportPattern:
    """Remove row i (1-based); later rows shift down by one."""
    if not 1 <= i <= pattern.m:
        raise ContractError("row index %d out of range 1..%d" % (i, pattern.m))
    low = (1 << (i - 1)) - 1
    cols = tuple((mask & low) | ((mask >> i) << (i - 1)) for mask in pattern.cols)
    return SupportPattern(pattern.m - 1, pattern.n, cols)


def _reduce_reference(pattern, r):
    """The reference reduction, line by line: one validated pattern per
    deleted line, each row degree counted column by column."""
    cur = pattern
    log = []
    changed = True
    while changed:
        changed = False
        j = 1
        while j <= cur.n:
            if cur.cols[j - 1].bit_count() == r:
                cur = drop_column(cur, j)
                log.append(("col", j))
                changed = True
            else:
                j += 1
        i = 1
        while i <= cur.m:
            bit = 1 << (i - 1)
            if sum(1 for mask in cur.cols if mask & bit) == r:
                cur = drop_row(cur, i)
                log.append(("row", i))
                changed = True
            else:
                i += 1
    return cur, tuple(log)


def _transpose_reference(pattern):
    """The transpose, bit by bit over all m*n cells."""
    return SupportPattern(pattern.n, pattern.m, tuple(
        sum(1 << j for j, col in enumerate(pattern.cols) if col >> i & 1)
        for i in range(pattern.m)))


def _replay_reduction(pattern, log):
    """Apply a reduce_pattern log step by step."""
    cur = pattern
    for kind, idx in log:
        if kind == "col":
            cur = drop_column(cur, idx)
        elif kind == "row":
            cur = drop_row(cur, idx)
        else:
            raise ContractError("unknown log step kind %r" % kind)
    return cur


def test_from_columns_and_accessors():
    p = make_pattern(3, [[1, 3], [2], []])
    assert (p.m, p.n) == (3, 3)
    assert p.columns == ((1, 3), (2,), ())
    assert p.size() == 3
    assert p.cells() == [(1, 1), (2, 2), (3, 1)]


def test_from_columns_rejects_bad_rows():
    with pytest.raises(ContractError):
        make_pattern(3, [[0]])
    with pytest.raises(ContractError):
        make_pattern(3, [[4]])
    with pytest.raises(ContractError):
        make_pattern(3, [[1, 1]])


def test_indicator_round_trip():
    p = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    text = emit_pattern(p)
    assert text.endswith("\n")
    assert parse_pattern(text) == p


def test_json_round_trip():
    p = make_pattern(6, UNPARTITIONABLE_BASE_6X5)
    text = emit_pattern(p, "json")
    assert parse_pattern(text) == p


def test_empty_shapes_print_text_that_does_not_parse_back():
    # a base can reduce to a 0-row pattern: FULLY_REDUCIBLE_BASE_6X5 at
    # r = 2 reduces to 0x2; no rows, or no columns in the indicator
    # format, print text the parser refuses
    reduced, _ = reduce_pattern(make_pattern(6, FULLY_REDUCIBLE_BASE_6X5), 2)
    assert (reduced.m, reduced.n) == (0, 2)
    for p, fmt, message in [
            (reduced, "indicator", "empty pattern text"),
            (reduced, "json", "field 'm': expected a positive integer"),
            (SupportPattern(0, 0, ()), "json", "field 'm'"),
            (SupportPattern(3, 0, ()), "indicator", "empty pattern text")]:
        with pytest.raises(ParseError, match=message):
            parse_pattern(emit_pattern(p, fmt))
        if fmt == "json":
            assert emit_pattern(p, fmt) == _json_dumps_text(p)
    # the one shape that keeps its round trip: rows but no columns, in JSON
    p = SupportPattern(3, 0, ())
    assert parse_pattern(emit_pattern(p, "json")) == p


def test_parse_indicator_errors_name_the_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_pattern("1 0\n1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_pattern("1 2\n")
    with pytest.raises(ParseError):
        parse_pattern("")


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_pattern('{"m": 2, "n": 1}')
    with pytest.raises(ParseError, match="columns"):
        parse_pattern('{"m": 2, "n": 1, "columns": [[1, 1]]}')
    with pytest.raises(ParseError, match="columns"):
        parse_pattern('{"m": 2, "n": 1, "columns": [[3]]}')
    with pytest.raises(ParseError):
        parse_pattern('{"m": 2, "n": 2, "columns": [[1]]}')
    # a bool, a float and a repeated index in a column are refused by name
    for col in ("[true]", "[1.0]", "[2, 2]"):
        with pytest.raises(ParseError, match=r"^columns\[1\]: "):
            parse_pattern('{"m": 2, "n": 1, "columns": [%s]}' % col)


def test_transpose_is_an_involution():
    p = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    t = transpose(p)
    assert (t.m, t.n) == (5, 6)
    assert transpose(t) == p


def test_drop_row_shifts_higher_rows_down():
    p = make_pattern(4, [[1, 3, 4], [2, 3]])
    q = drop_row(p, 2)
    assert q.columns == ((1, 2, 3), (2,))
    q2 = drop_column(p, 1)
    assert q2.columns == ((2, 3),)


def test_reduce_cascades_to_empty_with_logged_steps():
    p = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    reduced, log = reduce_pattern(p, 2)
    assert (reduced.m, reduced.n, reduced.size()) == (0, 2, 0)
    assert log == (("col", 3), ("row", 2), ("row", 2), ("row", 4),
                   ("col", 2), ("col", 3), ("row", 1), ("row", 1), ("row", 1))
    assert _replay_reduction(p, log) == reduced


def test_reduce_strips_exactly_the_low_degree_row():
    p = make_pattern(6, UNPARTITIONABLE_BASE_6X5)
    reduced, log = reduce_pattern(p, 2)
    assert log == (("row", 2),)
    assert reduced == make_pattern(5, REDUCED_BASE_5X5)


def test_reduce_is_identity_on_irreducible_patterns():
    p = make_pattern(5, REDUCED_BASE_5X5)
    reduced, log = reduce_pattern(p, 2)
    assert reduced == p and log == ()


def _reducible_pattern(rng):
    """A seeded pattern up to 9x9 at a rank bound of 1 to 4.  A fourth of the
    draws are uniform at a random density; the rest give each column, and
    then each row, a size within one of r and most often r, so that
    most lose a line and some cascade to nothing."""
    m, n, r = rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 4)
    if rng.random() < 1 / 4:
        density = rng.random()
        cols = [sum(1 << i for i in range(m) if rng.random() < density)
                for _ in range(n)]
        return SupportPattern(m, n, tuple(cols)), r
    near = 0.5 + rng.random() / 2

    def line(length):
        if rng.random() < near:
            size = min(length, max(0, r + rng.choice((-1, 0, 0, 1))))
        else:
            size = rng.randint(0, length)
        return sum(1 << k for k in rng.sample(range(length), size))

    cols = [line(m) for _ in range(n)]
    if rng.random() < 0.5:
        rows = [line(n) for _ in range(m)]
        cols = [sum((row >> j & 1) << i for i, row in enumerate(rows))
                for j in range(n)]
    return SupportPattern(m, n, tuple(cols)), r


def test_reduce_matches_the_step_by_step_reference():
    # the mask strip returns the pattern and the log of the reference, the
    # log replays to the output, and transpose matches a bit-by-bit one
    rng = random.Random(27)
    lost = emptied = 0
    for _ in range(10000):
        pattern, r = _reducible_pattern(rng)
        reduced, log = reduce_pattern(pattern, r)
        assert (reduced, log) == _reduce_reference(pattern, r), (pattern, r)
        assert _replay_reduction(pattern, log) == reduced
        assert transpose(pattern) == _transpose_reference(pattern)
        lost += bool(log)
        emptied += bool(log) and reduced.size() == 0
    assert lost > 5500 and emptied > 1500, (lost, emptied)


def test_slmf_validation():
    phi = Slmf.from_columns(2, 6, [[2, 4, 6], [1, 2, 4], [1, 2, 5], [1, 3, 5]])
    assert phi.columns == ((2, 4, 6), (1, 2, 4), (1, 2, 5), (1, 3, 5))
    assert phi.as_pattern() == make_pattern(6, [[2, 4, 6], [1, 2, 4],
                                                [1, 2, 5], [1, 3, 5]])
    assert Slmf.from_pattern(phi.as_pattern(), 2) == phi
    with pytest.raises(ContractError):
        Slmf.from_columns(2, 6, [[2, 4, 6], [1, 2, 4], [1, 2, 5]])
    with pytest.raises(ContractError):
        Slmf.from_columns(2, 6, [[2, 4], [1, 2, 4], [1, 2, 5], [1, 3, 5]])
    with pytest.raises(ContractError):
        Slmf.from_columns(3, 3, [])
    with pytest.raises(ContractError, match="column 1 support out of range"):
        Slmf(1, 3, (0b1001, 0b11))


def test_pattern_rejects_row_ceiling():
    with pytest.raises(ContractError):
        SupportPattern(65, 1, (1,))
    with pytest.raises(CapacityError, match="64-row ceiling"):
        Slmf(1, 65, (1,) * 64)
    # refused before a mask is built: a row index of 2^40 would need a
    # 2^40-bit integer
    huge = 2 ** 40
    for build in (lambda: SupportPattern.from_columns(huge, [[huge]]),
                  lambda: Slmf.from_columns(huge - 1, huge, [range(1, huge + 1)]),
                  lambda: parse_pattern(json.dumps(
                      {"m": huge, "n": 1, "columns": [[huge]]}))):
        with pytest.raises(CapacityError,
                           match="m=%d exceeds the 64-row ceiling" % huge):
            build()


def _windows_pattern(rng):
    """A base-size pattern that partitions at rank r: r groups of the m-r
    windows of r+1 consecutive rows, each group under its own row order,
    plus up to two columns of size r, in shuffled column order."""
    m = rng.randint(2, 8)
    r = rng.randint(1, m - 1)
    cols = []
    for _ in range(r):
        order = rng.sample(range(m), m)
        cols += [sum(1 << order[i] for i in range(k, k + r + 1))
                 for k in range(m - r)]
    cols += [sum(1 << i for i in rng.sample(range(m), r))
             for _ in range(rng.randint(0, 2))]
    rng.shuffle(cols)
    return SupportPattern(m, len(cols), tuple(cols)), r


def test_mask_format_round_trips_and_prints_unchanged():
    # rows and masks convert both ways without loss, and the printed
    # patterns and certificates are pinned byte for byte
    rng = random.Random(19)
    shapes = [(0, 0), (5, 0)] + [(rng.randint(1, 12), rng.randint(1, 12))
                                 for _ in range(500)]
    printed, ends = [], [0]
    for m, n in shapes:
        p = SupportPattern(m, n, tuple(rng.randrange(1 << m) for _ in range(n)))
        rows = _indicator_rows(m, p.cols)
        assert len(rows) == m and all(len(row) == n for row in rows)
        assert _cols_of_rows(rows) == p.cols
        printed += [emit_pattern(p), emit_pattern(p, "json")]
        assert printed[-1] == _json_dumps_text(p)
        ends.append(len(printed))
    for _ in range(200):
        p, r = _windows_pattern(rng)
        cert = partition_search(p, r)
        printed += [emit_pattern(p), emit_pattern(p, "json"), cert.to_json()]
        ends.append(len(printed))
    # a digest per 100 patterns names where the printed text changed
    cases = []
    for k in range(0, len(ends) - 1, 100):
        last = min(k + 100, len(ends) - 1)
        cases.append(("patterns %d-%d" % (k, last - 1), case_digest(
            "".join(printed[ends[k]:ends[last]]).encode())))
    assert_case_digests("mask_format", cases)
    digest = hashlib.sha256("".join(printed).encode()).hexdigest()
    assert digest == ("f9b6ac4925a09c548b3b6e9cb18bedbe"
                      "ee2706cd9080e9796a539db65eb5dfab")
    # the memoised column text, outside the digest: the same masks at other
    # m up to 64, empty columns, and more distinct masks than the cache
    # holds, so that entries are evicted in the middle of a pattern
    masks = (0, 1, 0b1011, (1 << 12) - 1)
    patterns = [SupportPattern(m, 4, masks) for m in (12, 13, 33, 64)]
    patterns += [SupportPattern(m, 3, (0, 0, 0)) for m in (0, 1, 64)]
    size = _column_text.cache_info().maxsize
    bits = random.Random(23).getrandbits
    wide = [bits(64) for _ in range(2 * size)]
    assert len(set(wide)) == 2 * size
    patterns += [SupportPattern(64, 4 * size, tuple(wide + wide)),
                 SupportPattern(64, size + 1, tuple(wide[:size] + [0]))]
    for p in patterns:
        assert emit_pattern(p, "json") == _json_dumps_text(p)
