"""Span tracing around calls into detmatroid's public functions.

The tracer replaces each traced function with a wrapper in every detmatroid
module namespace that bound it, so calls made through `from .x import f`
names (`partition.is_relaxed_slmf`, `census.is_base`) and through module
attributes (`linalg.rref` inside `right_kernel`) are all seen.  `fields` is
deliberately not wrapped: it makes millions of per-element calls, so its
cost shows up as `linalg` self time.

A span is [name, start, end, parent, op, note, paused]: parent is the index
of the enclosing span (-1 at top level), op the id of the benchmark
operation that caused it, note a small dict of counts read from the call's
arguments and result, paused the seconds the speed probe's signal handler
ran inside the span (excluded from its duration).  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
from time import perf_counter

# (module, function) pairs wrapped in a traced pass.
TRACED = [
    ("cli", "main"),
    ("census", "verify_conjecture"),
    ("census", "enumerate_patterns"),
    ("census", "canonical_form"),
    ("census", "classify_pattern"),
    ("census", "known_facts_crosscheck"),
    ("slmf", "is_relaxed_slmf"),
    ("slmf", "is_slmf"),
    ("partition", "partition_search"),
    ("partition", "certificate_from_groups"),
    ("partition", "validate_certificate"),
    ("patterns", "parse_pattern"),
    ("patterns", "reduce_pattern"),
    ("oracle", "is_base"),
    ("oracle", "jacobian_rank"),
    ("linalg", "rank"),
    ("linalg", "det"),
    ("linalg", "rref"),
    ("linalg", "solve_unique"),
    ("linalg", "right_kernel"),
    ("grassmann", "complete_matrix"),
]

# Counters derived from a call's arguments rather than counted by the
# program; their unit is "count-computed".
COMPUTED = ["slmf.is_relaxed_slmf.subsets", "oracle.jacobian_cells",
            "linalg.rank.cells"]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lex_rank(rows, m: int) -> int:
    """Position of a sorted 0-based row tuple among all same-size subsets of
    range(m) in itertools.combinations order."""
    k = len(rows)
    rank, prev = 0, -1
    for i, c in enumerate(rows):
        for v in range(prev + 1, c):
            rank += math.comb(m - 1 - v, k - 1 - i)
        prev = c
    return rank


def relaxed_subsets(m: int, r: int, witness) -> int:
    """Row subsets is_relaxed_slmf scans: sizes r+1..m in combinations
    order, stopping at the witness when there is one."""
    if witness is None:
        return sum(math.comb(m, k) for k in range(r + 1, m + 1))
    rows = [i - 1 for i in witness.subset_rows]
    k = len(rows)
    return (sum(math.comb(m, j) for j in range(r + 1, k))
            + _lex_rank(rows, m) + 1)


def _note_relaxed(args, kwargs, result):
    pattern = _arg(args, kwargs, 0, "pattern")
    params = _arg(args, kwargs, 1, "params")
    return {"subsets": relaxed_subsets(pattern.m, params.r, result[1])}


def _note_jacobian(args, kwargs, result):
    pattern = _arg(args, kwargs, 0, "pattern")
    r = _arg(args, kwargs, 1, "r")
    return {"cells": pattern.size() * (pattern.m + pattern.n) * r}


def _note_rank(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"cells": len(a) * len(a[0]) if a else 0}


def _note_found(args, kwargs, result):
    return {"found": result is not None}


def _note_cases(args, kwargs, result):
    return {"cases": result.cases}


NOTES = {
    "slmf.is_relaxed_slmf": _note_relaxed,
    "oracle.jacobian_rank": _note_jacobian,
    "linalg.rank": _note_rank,
    "partition.partition_search": _note_found,
    "census.known_facts_crosscheck": _note_cases,
}


class Tracer:
    def __init__(self, probe):
        self.probe = probe
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._installed: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None,
                           self.probe.paused])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, note) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = note
        span[6] = self.probe.paused - span[6]
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(idx)

    def _wrap(self, name: str, fn):
        note_fn = NOTES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # verify_conjecture drains enumerate_patterns with list(), so no
            # other traced work runs while the generator is suspended
            def traced_gen(*args, **kwargs):
                idx = tracer.open(name)
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    tracer.close(idx, {"yielded": yielded})
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, {"raised": type(exc).__name__})
                raise
            tracer.close(idx, note_fn(args, kwargs, result) if note_fn else None)
            return result
        return traced

    def install(self, lib) -> None:
        """Wrap every TRACED function wherever a detmatroid module binds it."""
        namespaces = lib.namespaces()
        for mod, fname in TRACED:
            orig = getattr(getattr(lib, mod), fname)
            wrapper = self._wrap("%s.%s" % (mod, fname), orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
                        self._installed.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._installed):
            setattr(ns, attr, orig)
        self._installed.clear()

    def write(self, path, context: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"context": context}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def pass_summary(spans, ops: set) -> dict:
    """Per-layer totals over the spans caused by the given op ids."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, note, paused in spans:
        if parent >= 0:
            child[parent] += end - start - paused
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    for idx, (name, start, end, parent, op, note, paused) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - paused) - child[idx]
        for key, value in (note or {}).items():
            if key == "raised":
                key = "raised:" + value
                value = 1
            sums[name + ":" + key] = sums.get(name + ":" + key, 0) + value
        if name == "slmf.is_relaxed_slmf" and parent >= 0 and \
                spans[parent][0] == "partition.partition_search":
            sums["partition.leaf_checks"] = sums.get("partition.leaf_checks", 0) + 1
    return {"calls": calls, "self_s": self_s, "sums": sums}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(s: dict) -> dict:
    """Flat per-layer metrics of one traced pass."""
    calls, self_s, sums = s["calls"], s["self_s"], s["sums"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    t = lambda name: self_s.get(name, 0.0)  # noqa: E731
    out = {}
    for mod, fname in TRACED:
        name = "%s.%s" % (mod, fname)
        out[name + ".calls"] = c(name)
        out[name + ".self_s"] = t(name)
    out["cli.self_s"] = out.pop("cli.main.self_s")
    del out["cli.main.calls"]
    out["census.orbit_yield"] = _ratio(sums.get("census.enumerate_patterns:yielded", 0),
                                       c("census.canonical_form"))
    out["census.known_facts_crosscheck.cases"] = sums.get(
        "census.known_facts_crosscheck:cases", 0)
    out["slmf.is_relaxed_slmf.subsets"] = sums.get("slmf.is_relaxed_slmf:subsets", 0)
    out["partition.partition_search.found_frac"] = _ratio(
        sums.get("partition.partition_search:found", 0), c("partition.partition_search"))
    out["partition.leaf_checks"] = sums.get("partition.leaf_checks", 0)
    out["oracle.trials_per_call"] = _ratio(c("oracle.jacobian_rank"), c("oracle.is_base"))
    out["oracle.jacobian_cells"] = sums.get("oracle.jacobian_rank:cells", 0)
    out["linalg.rank.cells"] = sums.get("linalg.rank:cells", 0)
    out["grassmann.complete_matrix.refused"] = sums.get(
        "grassmann.complete_matrix:raised:GenericityError", 0)
    return out
