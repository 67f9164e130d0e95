"""The four benchmark workloads.

Each workload builds its operations from the seed during set-up (inputs
written under the run's work directory) and checks every answer against
facts the benchmark knows independently of the code under test.  An op's
run() is the only timed call; check() classifies the answer as "ok" or
"failed" and raises WrongAnswer when it is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import inputs


class WrongAnswer(Exception):
    pass


def _require(cond: bool, label: str, what: str) -> None:
    if not cond:
        raise WrongAnswer("%s: %s" % (label, what))


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """detmatroid.cli.main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class CliOp:
    """One CLI command; the answer is (exit code, stdout, stderr)."""

    def __init__(self, lib, label: str, argv: list[str], checker):
        self.lib, self.label, self.argv, self.checker = lib, label, argv, checker

    def run(self):
        return run_cli(self.lib, self.argv)

    def check(self, answer) -> str:
        return self.checker(self.label, *answer)

    @staticmethod
    def fingerprint(answer) -> str:
        code, out, _ = answer
        return "%d\n%s" % (code, out)


# --------------------------------------------------------------- census

# Answers of the census commands, recorded with the benchmark.  `flags` is
# the sha256 of the sorted (columns, is_relaxed_rrm, has_partition,
# oracle_base, consistent) rows; at (5,5,2) and (6,5,3) exactly one orbit
# survives re-verification as a counterexample, so those commands exit 1.
CENSUS_EXPECTED = {
    (6, 4, 2): {"exit": 0, "orbits": 0, "counterexamples": 0,
                "flags":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    (5, 5, 2): {"exit": 1, "orbits": 5, "counterexamples": 1,
                "flags":
                "53fb4bb77e7e18705c10a5fa262ea728e5d9f21b2594aa6fed66d016aba008b5"},
    (5, 6, 2): {"exit": 0, "orbits": 15, "counterexamples": 0,
                "flags":
                "d7982ce61a5f5f48e5cc95962ef4129636eee5824f0476635cfcd1f0813ad940"},
    (6, 5, 3): {"exit": 1, "orbits": 3, "counterexamples": 1,
                "flags":
                "f3e0972b2c9fdce442ca039e03499d50d7f20800a3467829faff3183dd97b377"},
}
CROSSCHECKS = [(3, 6, 2), (3, 4, 1)]


def census_flags(rows: list[dict]) -> str:
    keys = sorted(json.dumps([row["columns"], row["is_relaxed_rrm"],
                              row["has_partition"], row["oracle_base"],
                              row["consistent"]]) for row in rows)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def check_census(shape):
    want = CENSUS_EXPECTED[shape]

    def check(label, code, out, err):
        if code == 2:
            return "failed"
        rows = list(csv.DictReader(io.StringIO(out)))
        bad = sum(1 for row in rows if row["consistent"] != "true")
        _require(code == want["exit"], label, "exit %d, want %d" % (code, want["exit"]))
        _require(len(rows) == want["orbits"], label,
                 "%d orbits, want %d" % (len(rows), want["orbits"]))
        _require(bad == want["counterexamples"], label,
                 "%d inconsistent rows, want %d" % (bad, want["counterexamples"]))
        if bad:
            _require(err.startswith("%d counterexample" % bad), label,
                     "stderr does not report %d counterexample(s)" % bad)
        _require(census_flags(rows) == want["flags"], label,
                 "per-orbit verdicts differ from the recorded census")
        return "ok"
    return check


def check_crosscheck(shape):
    m, n, r = shape
    small, large = min(m, n), max(m, n)
    size = m + n - 1 if r == 1 else (small - 1) * (large + 1)
    cases = math.comb(m * n, size)

    def check(label, code, out, err):
        if code == 2:
            return "failed"
        report = json.loads(out)
        _require(report["cases"] == cases, label,
                 "%d cases, want C(%d,%d) = %d" % (report["cases"], m * n, size, cases))
        _require(report["disagreements"] == [] and code == 0, label,
                 "oracle disagrees with the closed form")
        return "ok"
    return check


class Census:
    """verify-conjecture and crosscheck through the CLI; inputs are fixed,
    the seed only reseeds the rank oracle."""

    def __init__(self, lib, seed: int, workdir: Path):
        seed_arg = ["--seed", str(seed)]
        self.lib, self.ops = lib, []
        for shape in CENSUS_EXPECTED:
            m, n, r = shape
            argv = ["verify-conjecture", "--m", str(m), "--n", str(n),
                    "--r", str(r), "--jobs", "1"] + seed_arg
            self.ops.append(CliOp(lib, "verify-conjecture %d,%d,%d" % shape,
                                  argv, check_census(shape)))
        for shape in CROSSCHECKS:
            m, n, r = shape
            argv = ["crosscheck", "--m", str(m), "--n", str(n), "--r", str(r)] + seed_arg
            self.ops.append(CliOp(lib, "crosscheck %d,%d,%d" % shape, argv,
                                  check_crosscheck(shape)))


# -------------------------------------------------------------- certify

# (m, n, r, col_min, count): random patterns of size r(m+n-r), every row
# degree >= r+1 and every column size >= col_min.  At 14x10 most end in an
# exhaustive, negative partition search whose cost is heavy-tailed; the
# 12x12 block is large enough that op_p90_ms falls inside it, not at the
# edge of that tail.  The 16x16 r=4 ones make the relaxed scan and the
# search heavy.  Their columns all have size 7: with free column sizes
# about a third of them end in a fast negative search, and three such heavy
# ops then swing the pass time by a third between seeds.
CERTIFY_SHAPES = [(10, 10, 3, 4, 40), (12, 12, 3, 4, 70), (14, 10, 3, 4, 20),
                  (16, 16, 4, 7, 3)]


def relaxed_lhs(cols: list[int], rows, r: int) -> int:
    """sum_j max(#(omega_j & I) - r, 0) for the 0-based row set I."""
    imask = 0
    for i in rows:
        imask |= 1 << i
    return sum(max((c & imask).bit_count() - r, 0) for c in cols)


def small_violation(cols: list[int], m: int, r: int):
    """A row set of size r+1 or r+2 violating the relaxed (r,r,m) counting
    condition, or None: a partial scan the certify verdict must agree with."""
    for k in (r + 1, r + 2):
        for rows in combinations(range(m), k):
            if relaxed_lhs(cols, rows, r) > r * (k - r):
                return rows
    return None


def check_certify(m: int, n: int, r: int, cols: list[int]):
    dim = r * (m + n - r)
    size = sum(c.bit_count() for c in cols)
    scanned = []  # the partial scan runs once; answers repeat across passes

    def check(label, code, out, err):
        # certify exits 2 on a necessity or sufficiency contradiction between
        # its kernels, or on an error: on these inputs always a wrong answer
        _require(code != 2, label, "exit 2: %s" % err.strip())
        payload = json.loads(out)
        stages = payload["stages"]
        _require((payload["m"], payload["n"], payload["r"]) == (m, n, r), label, "shape")
        _require(stages["size"] == {"ok": size == dim, "size": size, "dimension": dim},
                 label, "size stage %r" % (stages["size"],))
        _require(payload["certified"] == (code == 0), label, "exit code vs certified")
        oracle = stages["oracle"]
        if oracle["verdict"] == "base":
            _require(oracle["rank_observed"] == dim, label, "base below full rank")
        if payload["certified"]:
            _require(oracle["verdict"] == "base" and stages["relaxed"]["ok"]
                     and stages["partition"]["ok"], label, "certified with a failed stage")
        else:
            _require(payload.get("reason") in ("relaxed", "partition", "oracle"),
                     label, "negative answer without a reason")
        relaxed = stages["relaxed"]
        if relaxed["ok"]:
            if not scanned:
                scanned.append(small_violation(cols, m, r))
            _require(scanned[0] is None, label, "relaxed condition fails at rows %s"
                     % ([i + 1 for i in scanned[0] or ()],))
        else:
            rows = [i - 1 for i in relaxed["witness"]["I"]]
            lhs, rhs = relaxed_lhs(cols, rows, r), r * (len(rows) - r)
            _require(relaxed["witness"]["lhs"] == lhs and relaxed["witness"]["rhs"] == rhs
                     and (lhs > rhs or (len(rows) == m and lhs < rhs)),
                     label, "relaxed witness does not violate the condition")
        part = stages["partition"]
        if part["certificate"] is not None:
            width = (n if part["on"] == "input" else stages["reduction"]["reduced_n"])
            members = sorted(j for g in part["certificate"]["groups"] for j in g)
            _require(members == list(range(1, width + 1)), label,
                     "certificate groups do not partition the columns")
        return "ok"
    return check


class Certify:
    def __init__(self, lib, seed: int, workdir: Path):
        rng = inputs.stream(seed, "certify")
        self.lib, self.ops = lib, []
        for m, n, r, col_min, count in CERTIFY_SHAPES:
            for k in range(count):
                cols = inputs.base_size_pattern(rng, m, n, r, col_min, r + 1)
                path = workdir / ("certify-%dx%d-%d.txt" % (m, n, k))
                path.write_text(inputs.indicator_text(m, cols))
                label = "certify %dx%d r=%d #%d" % (m, n, r, k)
                argv = ["certify", "--pattern", str(path), "--r", str(r),
                        "--seed", str(rng.randrange(1 << 32))]
                self.ops.append(CliOp(lib, label, argv, check_certify(m, n, r, cols)))


# --------------------------------------------------------------- oracle

# (m, n, r, col_min, random, bases, non-bases).  Random patterns have base
# size and every row degree >= r+1; the oracle decides them.  Bases have r
# fully observed columns and r cells in every other column: the full columns
# fix the column space and each other column's r cells fix its coefficients,
# so the completion is unique and the pattern is a base by construction.
# Non-bases have one row meeting only r-1 columns, so every oracle trial
# falls short and all trials run.  About half the random 8x40 patterns are
# not bases and take three trials, a share that varies with the seed, so the
# random 16x16 patterns (one trial, about 28 ms) are the largest group: the
# 50th latency percentile sits well inside them whatever that share.  The
# six patterns of over 0.25 s are 24x24, 30x30 or 20x20 non-bases, so the
# 90th is always the fifth slowest of the rest: a one-trial 20x20 pattern.
ORACLE_SHAPES = [
    (16, 16, 4, 5, 40, 6, 6),
    (8, 40, 2, 2, 20, 6, 4),
    (20, 20, 5, 6, 10, 2, 2),
    (24, 24, 6, 7, 2, 0, 0),
    (30, 30, 8, 9, 2, 0, 0),
]


class OracleOp:
    def __init__(self, lib, label, pattern, r, seed, known):
        """known: the verdict the pattern has by construction, or None."""
        self.lib, self.label, self.pattern, self.r = lib, label, pattern, r
        self.seed, self.known = seed, known
        m, n = pattern.m, pattern.n
        self.dim = r * (m + n - r)

    def run(self):
        return self.lib.oracle.is_base(self.pattern, self.r, seed=self.seed)

    def check(self, v) -> str:
        _require(v.rank_required == self.dim and v.dimension == self.dim,
                 self.label, "size or dimension misreported")
        _require(v.verdict in ("base", "not_base"), self.label, "verdict %r" % v.verdict)
        _require(v.rank_observed <= self.dim, self.label, "rank above the dimension")
        if v.verdict == "base":
            _require(v.rank_observed == self.dim, self.label, "base below full rank")
        if self.known is not None:
            _require(v.verdict == self.known, self.label,
                     "verdict %s, but the pattern is a %s by construction"
                     % (v.verdict, self.known))
        return "ok"

    @staticmethod
    def fingerprint(v) -> str:
        return "%s %d %d" % (v.verdict, v.rank_observed, v.trials)


class Oracle:
    """is_base called directly: no CLI command runs the oracle alone on
    patterns beyond the 24-row scan ceiling."""

    def __init__(self, lib, seed: int, workdir: Path):
        rng = inputs.stream(seed, "oracle")
        self.lib, self.ops = lib, []
        for m, n, r, col_min, randoms, bases, non_bases in ORACLE_SHAPES:
            kinds = [None] * randoms + ["base"] * bases + ["not_base"] * non_bases
            for k, known in enumerate(kinds):
                if known == "base":
                    cols = inputs.full_columns_pattern(rng, m, n, r)[0]
                elif known == "not_base":
                    cols = inputs.deficient_row_pattern(rng, m, n, r, col_min)
                else:
                    cols = inputs.base_size_pattern(rng, m, n, r, col_min, r + 1)
                pattern = lib.patterns.SupportPattern(m, n, tuple(cols))
                label = "is_base %dx%d r=%d #%d%s" % (m, n, r, k,
                                                     " (%s)" % known if known else "")
                self.ops.append(OracleOp(lib, label, pattern, r,
                                         rng.randrange(1 << 32), known))


# ------------------------------------------------------------- complete

COMPLETE_PER_FAMILY = 35
# family (b): r fully observed columns, r cells in every other column
FULL_COLUMN_SHAPES = [(10, 30, 3), (8, 60, 2)]
# family (c): random partition-certified patterns, rank 2
RANDOM_CERTIFIED_SIZES = [6, 7, 8]


def check_complete(truth: list[list[int]]):
    def check(label, code, out, err):
        if code == 2 or (code == 1 and err.startswith("not generic")):
            return "failed"
        _require(code == 0, label, "exit %d: %s" % (code, err.strip()))
        got = [[int(v) for v in row] for row in csv.reader(io.StringIO(out))]
        _require(got == truth, label, "completion differs from the generating matrix")
        return "ok"
    return check


class Complete:
    """complete through the CLI on three families; family (c) is refused as
    'not generic' today and its refusals count as failures."""

    def __init__(self, lib, seed: int, workdir: Path):
        rng = inputs.stream(seed, "complete")
        # truths get their own stream: family (c) draws as many patterns as
        # it takes partition_search to certify one
        self.truth_rng = inputs.stream(seed, "complete-truth")
        self.lib, self.workdir, self.ops = lib, workdir, []
        omega = lib.patterns.SupportPattern.from_columns(6, inputs.OMEGA_COLUMNS)
        omega_cols = list(omega.cols)
        omega_cert = lib.partition.partition_search(omega, 2)
        for k in range(COMPLETE_PER_FAMILY):
            self._add("(a) omega 6x5 r=2 #%d" % k, 6, 5, 2, omega_cols, omega_cert)
        for k in range(COMPLETE_PER_FAMILY):
            m, n, r = FULL_COLUMN_SHAPES[k % len(FULL_COLUMN_SHAPES)]
            cols, full = inputs.full_columns_pattern(rng, m, n, r)
            rest = [j for j in range(1, n + 1) if j not in full]
            groups = [[full[g]] + rest[g::r] for g in range(r)]
            pattern = lib.patterns.SupportPattern(m, n, tuple(cols))
            cert = lib.partition.certificate_from_groups(pattern, r, groups)
            self._add("(b) full-columns %dx%d r=%d #%d" % (m, n, r, k), m, n, r, cols, cert)
        for k in range(COMPLETE_PER_FAMILY):
            m = n = RANDOM_CERTIFIED_SIZES[k % len(RANDOM_CERTIFIED_SIZES)]
            while True:
                cols = inputs.base_size_pattern(rng, m, n, 2, 3, 3)
                pattern = lib.patterns.SupportPattern(m, n, tuple(cols))
                cert = lib.partition.partition_search(pattern, 2)
                if cert is not None:
                    break
            self._add("(c) random-certified %dx%d r=2 #%d" % (m, n, k), m, n, 2, cols, cert)

    def _add(self, label, m, n, r, cols, cert):
        k = len(self.ops)
        truth = inputs.rank_r_truth(self.truth_rng, m, n, r)
        files = {}
        for kind, text in (("pattern", inputs.indicator_text(m, cols)),
                           ("certificate", cert.to_json()),
                           ("observations", inputs.observations_text(cols, truth))):
            files[kind] = self.workdir / ("complete-%d-%s" % (k, kind))
            files[kind].write_text(text)
        argv = ["complete", "--pattern", str(files["pattern"]), "--r", str(r),
                "--certificate", str(files["certificate"]),
                "--observations", str(files["observations"]),
                "--prime", str(inputs.PRIME)]
        self.ops.append(CliOp(self.lib, label, argv, check_complete(truth)))


WORKLOADS = {"census": Census, "certify": Certify, "oracle": Oracle,
             "complete": Complete}
