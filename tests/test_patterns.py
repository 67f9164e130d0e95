"""Support pattern parsing, editing, and reduction."""

from __future__ import annotations

import pytest

from conftest import (FULLY_REDUCIBLE_BASE_6X5, REDUCED_BASE_5X5,
                      UNPARTITIONABLE_BASE_6X5, make_pattern)
from detmatroid import (ContractError, ParseError, Slmf, SupportPattern,
                        drop_column, drop_row, emit_pattern, parse_pattern,
                        reduce_pattern, transpose)


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


def test_pattern_rejects_row_ceiling():
    with pytest.raises(ContractError):
        SupportPattern(65, 1, (1,))
