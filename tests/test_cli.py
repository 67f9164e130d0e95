"""Command-line surface: exit codes, JSON/CSV payload discipline."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (FULLY_REDUCIBLE_BASE_6X5, REDUCED_BASE_5X5,
                      RELAXED_NONBASE_5X5, SLMF_6X4_COLUMNS,
                      UNPARTITIONABLE_BASE_6X5, assert_case_digests,
                      case_digest, draw_base_size, make_pattern, run_python)
from dense import random_rank_r
from detmatroid import (DEFAULT_PRIME, OracleVerdict, PartitionCertificate,
                        Slmf, ViolationWitness, certificate_from_groups,
                        certify, emit_pattern, partition_search)
from detmatroid.oracle import DEFAULT_TRIALS
from detmatroid import census, cli
from detmatroid.cli import main


def _write_pattern(tmp_path, name, m, columns, fmt="indicator"):
    path = tmp_path / name
    path.write_text(emit_pattern(make_pattern(m, columns), fmt))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_slmf_positive(tmp_path, capsys):
    path = _write_pattern(tmp_path, "phi.txt", 6, SLMF_6X4_COLUMNS)
    code, out, _ = _run(capsys, ["check-slmf", "--pattern", path, "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"slmf": True, "witness_columns": None}


def test_check_slmf_negative_exit_one(tmp_path, capsys):
    path = _write_pattern(tmp_path, "phi.txt", 6, [[2, 4, 6]] * 4)
    code, out, _ = _run(capsys, ["check-slmf", "--pattern", path, "--r", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload == {"slmf": False, "witness_columns": [1, 2]}


def test_check_slmf_on_a_30_row_path_exits_zero(tmp_path, capsys):
    # a valid r=1 path system on 30 rows: 29 columns {i, i+1}, decided by
    # the surplus matching without walking its 2^29 column sets
    path = _write_pattern(tmp_path, "path.txt", 30,
                          [[i, i + 1] for i in range(1, 30)])
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["check-slmf", "--pattern", path,
                                 "--r", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"slmf": True, "witness_columns": None}


def test_malformed_pattern_exits_two_with_empty_stdout(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 0\n0\n")
    code, out, err = _run(capsys, ["check-slmf", "--pattern", str(path),
                                   "--r", "2"])
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_missing_file_exits_two(capsys):
    code, out, err = _run(capsys, ["check-slmf", "--pattern", "/nonexistent",
                                   "--r", "2"])
    assert code == 2 and out == "" and err


def test_check_relaxed_defaults_nu_to_r(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 6, UNPARTITIONABLE_BASE_6X5)
    code, out, _ = _run(capsys, ["check-relaxed", "--pattern", path,
                                 "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["relaxed"] and payload["nu"] == 2
    assert payload["witness"] is None


def test_check_relaxed_negative_carries_witness(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 3, [[1, 2], [1, 2], [3]])
    code, out, _ = _run(capsys, ["check-relaxed", "--pattern", path,
                                 "--r", "1", "--nu", "1"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["relaxed"]
    assert payload["witness"]["I"] == [1, 2]


def test_partition_search_and_validate_modes(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 5,
                          [[1, 2, 3], [1, 2, 4, 5], [1, 2, 4], [3, 4, 5],
                           [3, 4, 5]], fmt="json")
    code, out, _ = _run(capsys, ["partition", "--pattern", path, "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"]
    assert payload["certificate"]["groups"] == [[1, 3, 5], [2, 4]]

    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload["certificate"]))
    code, out, _ = _run(capsys, ["partition", "--pattern", path, "--r", "2",
                                 "--certificate", str(cert_path)])
    assert code == 0
    assert json.loads(out)["valid"]

    tampered = dict(payload["certificate"])
    tampered["groups"] = [[1, 2, 5], [3, 4]]
    cert_path.write_text(json.dumps(tampered))
    code, out, err = _run(capsys, ["partition", "--pattern", path, "--r", "2",
                                   "--certificate", str(cert_path)])
    assert code == 2 and out == ""


def test_partition_validates_the_24_row_star_quickly(tmp_path, capsys):
    # one full column and 23 singletons at r=1: the one group induces a
    # 23-column star, whose covering condition the surplus matching decides
    path = _write_pattern(tmp_path, "star.txt", 24,
                          [list(range(1, 25))] + [[i] for i in range(2, 25)])
    code, out, _ = _run(capsys, ["partition", "--pattern", path, "--r", "1"])
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["partition", "--pattern", path, "--r", "1",
                                 "--certificate", str(cert_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["valid"]


def test_partition_refuses_prefer_same_phi(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 5, REDUCED_BASE_5X5)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--pattern", path, "--r", "2",
              "--prefer-same-phi"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --prefer-same-phi" in captured.err


def test_partition_not_found_exits_one(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 5, RELAXED_NONBASE_5X5)
    code, out, _ = _run(capsys, ["partition", "--pattern", path, "--r", "2"])
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_certify_fully_reducible_base(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 6, FULLY_REDUCIBLE_BASE_6X5)
    code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    stages = payload["stages"]
    assert stages["size"]["ok"] and stages["relaxed"]["ok"]
    assert stages["partition"]["on"] == "input"
    assert stages["oracle"]["verdict"] == "base"
    assert stages["oracle"]["rank_observed"] == 18


def test_certify_uses_reduction_when_input_has_no_partition(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 6, UNPARTITIONABLE_BASE_6X5)
    code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    assert payload["stages"]["reduction"]["steps"] == [["row", 2]]
    assert payload["stages"]["partition"]["on"] == "reduced"
    assert payload["stages"]["partition"]["certificate"]["groups"] == [[1, 3, 5], [2, 4]]


def test_certify_wrong_size_is_reason_size(tmp_path, capsys):
    # size 3 != r*(m+n-r) = 4
    path = _write_pattern(tmp_path, "p.txt", 3, [[1, 2], [3]])
    code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["reason"] == "size"
    assert not payload["certified"]


def test_certify_relaxed_nonbase_fails_at_partition(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 5, RELAXED_NONBASE_5X5)
    code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["reason"] == "partition"
    assert payload["stages"]["relaxed"]["ok"]
    assert payload["stages"]["oracle"]["verdict"] == "not_base"


def test_certify_contract_error_exits_two(tmp_path, capsys):
    # full 3x2 pattern has size 6 == 3*(3+2-3), but r = m is out of contract
    path = _write_pattern(tmp_path, "p.txt", 3, [[1, 2, 3], [1, 2, 3]])
    code, out, err = _run(capsys, ["certify", "--pattern", path, "--r", "3"])
    assert code == 2 and out == "" and err


@pytest.mark.parametrize("m, columns, r", [
    (6, FULLY_REDUCIBLE_BASE_6X5, 1),  # the README's omega.txt
    (6, FULLY_REDUCIBLE_BASE_6X5, 2),
    (6, UNPARTITIONABLE_BASE_6X5, 2),
    (5, RELAXED_NONBASE_5X5, 2),
], ids=["omega-r1", "omega-r2", "unpartitionable", "relaxed-nonbase"])
def test_certify_library_payload_is_cli_stdout(tmp_path, capsys, m, columns, r):
    path = _write_pattern(tmp_path, "p.txt", m, columns)
    code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", str(r),
                                 "--seed", "7"])
    payload = certify(make_pattern(m, columns), r, DEFAULT_PRIME,
                      DEFAULT_TRIALS, 7)
    assert payload == json.loads(out)
    assert code == (0 if payload["certified"] else 1)


def _reject_relaxed(pattern, params):
    return False, ViolationWitness((1, 2, 3), 2, 1, "inequality_violated")


def _reduced_base_certificate(pattern, r):
    return certificate_from_groups(make_pattern(5, REDUCED_BASE_5X5), 2,
                                   [[1, 3, 4], [2, 5]])


def _refute_base(pattern, r, p, trials, seed):
    return OracleVerdict("not_base", trials, p, 17, 18, 18)


@pytest.mark.parametrize("columns, m, name, fake, line", [
    # the oracle certifies a base that the relaxed check rejects; the row
    # scan runs only when the input has no partition, as on this pattern
    (UNPARTITIONABLE_BASE_6X5, 6, "is_relaxed_slmf", _reject_relaxed,
     "necessity contradiction at r=2"),
    # a partition certificate for a pattern the oracle refutes
    (RELAXED_NONBASE_5X5, 5, "partition_search", _reduced_base_certificate,
     "sufficiency contradiction at r=2"),
    (FULLY_REDUCIBLE_BASE_6X5, 6, "is_base", _refute_base,
     "sufficiency contradiction at r=2"),
], ids=["necessity", "sufficiency-partition", "sufficiency-oracle"])
def test_certify_contradiction_exits_two(tmp_path, capsys, monkeypatch,
                                         columns, m, name, fake, line):
    path = _write_pattern(tmp_path, "p.txt", m, columns)
    monkeypatch.setattr(census, name, fake)
    code, out, err = _run(capsys, ["certify", "--pattern", path, "--r", "2"])
    assert code == 2
    assert "bug" in json.loads(out)
    assert line in err


@pytest.mark.parametrize("command, m, columns, r, message", [
    # the partition search on the input runs first, and refuses through the
    # relaxed scan's own checks; r < 1 is refused by the relaxed parameters
    # before the size gate, which would answer a nonempty pattern with "size"
    ("certify", 25, [range(1, 26)], 1,
     "m=25 exceeds the subset-scan ceiling 24"),
    ("certify", 3, [[1, 2, 3]] * 3, 3,
     "relaxed check needs r < m, got r=3 m=3"),
    ("certify", 3, [[], []], 0, "r must be a positive integer"),
    ("certify", 3, [[1, 2], [2, 3]], 0, "r must be a positive integer"),
    ("certify", 3, [[1, 2], [2, 3]], -1, "r must be a positive integer"),
    # nu defaults to r, so both are out of range; r is the cause
    ("check-relaxed", 3, [[1, 2], [2, 3]], 0, "r must be a positive integer"),
], ids=["25-rows", "r-equals-m", "r-zero", "r-zero-nonempty", "r-negative",
        "check-relaxed-r-zero"])
def test_certify_refusals_are_named_by_the_relaxed_check(tmp_path, capsys,
                                                         command, m, columns,
                                                         r, message):
    path = _write_pattern(tmp_path, "p.txt", m, columns)
    code, out, err = _run(capsys, [command, "--pattern", path, "--r", str(r)])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("command, extra, message", [
    # the all-ones 2x2 pattern at r=1 is off base size (4 cells, dimension
    # 3), and the 4x3 r=2 census has no orbits: neither reaches the oracle
    ("certify", ["--trials", "0"], "trials must be >= 1"),
    ("certify", ["--prime", "4"], "prime p=4 must exceed |Omega|=4"),
    ("certify", ["--prime", "9"], "modulus 9 is not prime"),
    ("verify-conjecture", ["--trials", "0"], "trials must be >= 1"),
    ("verify-conjecture", ["--prime", "9"], "modulus 9 is not prime"),
    ("verify-conjecture", ["--jobs", "0"], "jobs must be >= 1"),
    ("verify-conjecture", ["--jobs", "-3"], "jobs must be >= 1"),
], ids=["certify-trials-0", "certify-prime-4", "certify-prime-9",
        "verify-trials-0", "verify-prime-9", "verify-jobs-0",
        "verify-jobs-negative"])
def test_oracle_arguments_are_refused_before_any_stage(tmp_path, capsys,
                                                       command, extra, message):
    if command == "certify":
        path = _write_pattern(tmp_path, "p.txt", 2, [[1, 2]] * 2)
        argv, default = [command, "--pattern", path, "--r", "1"], (1, "size")
    else:
        argv, default = [command, "--m", "4", "--n", "3", "--r", "2"], (0, "")
    code, out, err = _run(capsys, argv + extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s" % message) and err.count("\n") == 1
    # with the default trials, prime and jobs: a size negative, an empty
    # census
    code, out, _ = _run(capsys, argv)
    assert code == default[0] and default[1] in out


def _certify_corpus():
    """150 seeded base-size patterns: squares from 6x6 to 10x10 and tall
    14x10 ones, two in three with every row and column above r."""
    rng = random.Random(2323)
    for m, n, r, count in ((6, 6, 2, 30), (8, 8, 2, 30), (8, 8, 3, 30),
                           (10, 10, 3, 30), (14, 10, 3, 30)):
        for k in range(count):
            yield draw_base_size(rng, m, n, r, k % 3 > 0), r


def test_certify_stdout_is_frozen(tmp_path, capsys):
    # sha256 of each exit code and stdout in turn, pinned while the row scan
    # still ran on every pattern; the corpus holds an input partition,
    # relaxed negatives, a partition on the reduction only and oracle bases
    # with no partition, so reading the relaxed stage off a partition is
    # checked against the scan on each kind.  Each case's own digest,
    # recorded with the whole-run one, names the cases that changed
    digest, outcomes, cases = hashlib.sha256(), set(), []
    path = tmp_path / "p.txt"
    for seed, (pattern, r) in enumerate(_certify_corpus()):
        path.write_text(emit_pattern(pattern))
        code, out, _ = _run(capsys, ["certify", "--pattern", str(path),
                                     "--r", str(r), "--seed", str(seed)])
        record = b"%d\n" % code + out.encode()
        digest.update(record)
        cases.append(("seed %d %dx%d r=%d" % (seed, pattern.m, pattern.n, r),
                      case_digest(record)))
        stages = json.loads(out)["stages"]
        outcomes.add((stages["relaxed"]["ok"], stages["partition"]["on"],
                      stages["oracle"]["verdict"]))
    assert {(True, "input", "base"), (False, None, "not_base"),
            (True, "reduced", "base"), (True, None, "base")} <= outcomes
    assert_case_digests("certify", cases)
    assert digest.hexdigest() == (
        "915ea260529b7a076e0497d90e10e2379d84ef18d5c9f2c20dc83866fd768bdd")


def _certificate_corpus():
    """Every certificate partition_search finds on 60 seeded base-size
    patterns, as (pattern, r, certificate, r passed to the CLI) cases: the
    certificate itself, then three tampered copies, namely a column moved
    between the first two groups, the first phi's first column swapped for
    the second phi's, and the certificate checked at rank r+1."""
    rng = random.Random(2424)
    for m, n, r, count in ((6, 6, 2, 15), (7, 7, 2, 15), (8, 8, 3, 15),
                           (9, 9, 3, 15)):
        for k in range(count):
            pattern = draw_base_size(rng, m, n, r, k % 3 > 0)
            cert = partition_search(pattern, r)
            if cert is None:
                continue
            g0, g1 = cert.groups[:2]
            moved = ((g0[:-1], g1 + g0[-1:]) if len(g0) > 1
                     else (g0 + g1[-1:], g1[:-1]))
            phi0, phi1 = cert.induced[:2]
            swapped = Slmf(r, m, phi1.cols[:1] + phi0.cols[1:])
            yield pattern, r, cert, r
            yield pattern, r, PartitionCertificate(
                r, moved + cert.groups[2:], cert.induced), r
            yield pattern, r, PartitionCertificate(
                r, cert.groups, (swapped,) + cert.induced[1:]), r
            yield pattern, r, cert, r + 1


def test_partition_certificate_stdout_is_frozen(tmp_path, capsys):
    # sha256 of each exit code and stdout in turn, pinned before the
    # certificate layer's relaxed group check became one routine, and each
    # case's own digest
    digest, codes, cases = hashlib.sha256(), [], []
    path, cert_path = tmp_path / "p.txt", tmp_path / "cert.json"
    kinds = ("found", "moved", "swapped", "r+1")
    for k, (pattern, r, cert, r_arg) in enumerate(_certificate_corpus()):
        path.write_text(emit_pattern(pattern))
        cert_path.write_text(cert.to_json())
        code, out, _ = _run(capsys, ["partition", "--pattern", str(path),
                                     "--r", str(r_arg),
                                     "--certificate", str(cert_path)])
        record = b"%d\n" % code + out.encode()
        digest.update(record)
        codes.append(code)
        cases.append(("case %d %dx%d r=%d %s" % (k, pattern.m, pattern.n, r,
                                                 kinds[k % 4]),
                      case_digest(record)))
    assert len(codes) == 184 and set(codes) == {0, 2}
    assert_case_digests("partition_certificate", cases)
    assert digest.hexdigest() == (
        "fe0c960a79f6cd7102ae447f04b97909b73ed2da505bb157ae3232b41bd1544f")


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_certify_refuses_prime_not_above_pattern_size(tmp_path, capsys, prime):
    # the Schwartz-Zippel miss bound |Omega|/p is >= 1: a tiny prime is the
    # caller's error, not a contradiction between the stages
    path = _write_pattern(tmp_path, "p.txt", 6, FULLY_REDUCIBLE_BASE_6X5)
    code, out, err = _run(capsys, ["certify", "--pattern", path, "--r", "2",
                                   "--prime", str(prime)])
    assert (code, out) == (2, "")
    assert err.startswith("error: prime p=%d must exceed |Omega|=18" % prime)


def test_partition_notes_an_off_base_size_on_every_call(tmp_path, capsys):
    # a fixed stderr line on every call, as in a fresh process: not a
    # warning, which CPython shows once per code location
    path = _write_pattern(tmp_path, "p.txt", 3, [[1, 2], [3]])
    argv = ["partition", "--pattern", path, "--r", "1"]
    note = ("note: pattern size 3 differs from r(m+n-r) = 4; a partition "
            "cannot certify a base\n")
    answer = (1, json.dumps({"found": False}, indent=2) + "\n", note)
    assert [_run(capsys, argv) for _ in range(2)] == [answer] * 2
    fresh = run_python("-m", "detmatroid.cli", *argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == answer


def test_unexpected_exception_exits_two(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    path = _write_pattern(tmp_path, "phi.txt", 6, SLMF_6X4_COLUMNS)
    argv = ["check-slmf", "--pattern", path, "--r", "2"]
    # the parser is built by now, so the patched handler must be found by name
    assert _run(capsys, argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_check_slmf", boom)
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "internal error: RuntimeError: boom" in err


def _completion_files(tmp_path, seed=0):
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    ppath = tmp_path / "pattern.json"
    ppath.write_text(emit_pattern(pattern, "json"))
    cert = partition_search(pattern, 2)
    cpath = tmp_path / "cert.json"
    cpath.write_text(cert.to_json())
    x = random_rank_r(6, 5, 2, seed=seed)
    lines = ["%d,%d,%d" % (i, j, x[i - 1][j - 1])
             for (i, j) in pattern.cells()]
    opath = tmp_path / "obs.csv"
    opath.write_text("\n".join(lines) + "\n")
    return ppath, cpath, opath, x


def test_complete_round_trips_exactly(tmp_path, capsys):
    ppath, cpath, opath, x = _completion_files(tmp_path, seed=4)
    code, out, err = _run(capsys, ["complete", "--pattern", str(ppath),
                                   "--r", "2", "--certificate", str(cpath),
                                   "--observations", str(opath)])
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    got = [[int(v) for v in row] for row in rows]
    assert got == x


@pytest.mark.parametrize("r", [1, 3])
def test_certificate_of_another_rank_exits_two(tmp_path, capsys, r):
    # validating a certificate and completing from it refuse it alike
    ppath, cpath, opath, _ = _completion_files(tmp_path)
    for argv in (["partition"], ["complete", "--observations", str(opath)]):
        code, out, err = _run(capsys, argv + [
            "--pattern", str(ppath), "--r", str(r), "--certificate", str(cpath)])
        assert (code, out) == (2, "")
        assert err == "error: certificate rank 2 differs from r=%d\n" % r


def test_complete_over_rationals(tmp_path, capsys):
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    ppath = tmp_path / "pattern.txt"
    ppath.write_text(emit_pattern(pattern))
    cert = certificate_from_groups(pattern, 2, [[1, 2, 3], [4, 5]])
    cpath = tmp_path / "cert.json"
    cpath.write_text(cert.to_json())
    rng = random.Random(9)
    left = [[Fraction(rng.randrange(1, 50)) for _ in range(2)] for _ in range(6)]
    right = [[Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
              for _ in range(5)] for _ in range(2)]
    x = [[sum(left[i][k] * right[k][j] for k in range(2)) for j in range(5)]
         for i in range(6)]
    lines = ["%d,%d,%s" % (i, j, x[i - 1][j - 1])
             for (i, j) in pattern.cells()]
    opath = tmp_path / "obs.csv"
    opath.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, ["complete", "--pattern", str(ppath),
                                   "--r", "2", "--certificate", str(cpath),
                                   "--observations", str(opath),
                                   "--rationals"])
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    got = [[Fraction(v) for v in row] for row in rows]
    assert got == x


def test_complete_missing_observation_exits_two(tmp_path, capsys):
    ppath, cpath, opath, _ = _completion_files(tmp_path)
    lines = opath.read_text().splitlines()
    opath.write_text("\n".join(lines[1:]) + "\n")
    code, out, err = _run(capsys, ["complete", "--pattern", str(ppath),
                                   "--r", "2", "--certificate", str(cpath),
                                   "--observations", str(opath)])
    assert code == 2 and out == ""


def test_complete_degenerate_observations_exit_one(tmp_path, capsys):
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    ppath = tmp_path / "pattern.txt"
    ppath.write_text(emit_pattern(pattern))
    cpath = tmp_path / "cert.json"
    cpath.write_text(partition_search(pattern, 2).to_json())
    x = random_rank_r(6, 5, 1, seed=6)
    lines = ["%d,%d,%d" % (i, j, x[i - 1][j - 1])
             for (i, j) in pattern.cells()]
    opath = tmp_path / "obs.csv"
    opath.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, ["complete", "--pattern", str(ppath),
                                   "--r", "2", "--certificate", str(cpath),
                                   "--observations", str(opath)])
    assert code == 1
    # rank-1 data: stage 1 refuses on the first certificate column
    assert err == ("not generic: observed columns containing [1, 2, 4] do not "
                   "span an r-space (phi=[1, 2, 4])\n")


def _complete_corpus():
    """Observed data on FULLY_REDUCIBLE_BASE_6X5 at r = 2, with extra argv:
    generic rank-2 data over GF(2^31 - 1) at seeds 0..19, rank-2 data with
    non-integer fractions under --rationals at seeds 0..7, drawn as in
    test_complete_over_rationals, and rank-1 data, which stage 1 refuses."""
    for seed in range(20):
        yield random_rank_r(6, 5, 2, seed=seed), []
    for seed in range(8):
        rng = random.Random(seed)
        left = [[Fraction(rng.randrange(1, 50)) for _ in range(2)]
                for _ in range(6)]
        right = [[Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
                  for _ in range(5)] for _ in range(2)]
        yield [[sum(left[i][k] * right[k][j] for k in range(2))
                for j in range(5)] for i in range(6)], ["--rationals"]
    for seed in (6, 7):
        yield random_rank_r(6, 5, 1, seed=seed), []


def test_complete_stdout_is_frozen(tmp_path, capsys):
    # sha256 of each exit code and stdout in turn, pinned while the field
    # printed its elements through to_str and the library drew the data
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    ppath, cpath = tmp_path / "pattern.txt", tmp_path / "cert.json"
    ppath.write_text(emit_pattern(pattern))
    cpath.write_text(partition_search(pattern, 2).to_json())
    opath = tmp_path / "obs.csv"
    digest, codes = hashlib.sha256(), []
    for x, extra in _complete_corpus():
        opath.write_text("".join("%d,%d,%s\n" % (i, j, x[i - 1][j - 1])
                                 for (i, j) in pattern.cells()))
        code, out, _ = _run(capsys, ["complete", "--pattern", str(ppath),
                                     "--r", "2", "--certificate", str(cpath),
                                     "--observations", str(opath)] + extra)
        digest.update(b"%d\n" % code)
        digest.update(out.encode())
        codes.append(code)
    assert codes == [0] * 28 + [1] * 2
    assert digest.hexdigest() == (
        "ebdb252cbe957fe200983f6cf606e2246d6244b18f32ec69a9e7e8ec43b89629")


def test_complete_takes_prime_but_refuses_trials(tmp_path, capsys):
    ppath, cpath, opath, x = _completion_files(tmp_path)
    argv = ["complete", "--pattern", str(ppath), "--r", "2",
            "--certificate", str(cpath), "--observations", str(opath),
            "--prime", str(DEFAULT_PRIME)]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert [[int(v) for v in row] for row in csv.reader(io.StringIO(out))] == x
    # completion runs no rank oracle, so it has no oracle trials to set
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --trials 3" in captured.err


def test_verify_conjecture_csv_and_exit_codes(capsys):
    code, out, _ = _run(capsys, ["verify-conjecture", "--m", "4", "--n", "4",
                                 "--r", "2", "--col-size", "3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["m", "n", "r", "columns"]
    assert len(rows) == 2
    body = dict(zip(rows[0], rows[1]))
    assert json.loads(body["is_relaxed_rrm"]) is True
    assert json.loads(body["has_partition"]) is True
    assert json.loads(body["oracle_base"]) is True


def test_verify_conjecture_json_reports_counterexample(capsys):
    code, out, err = _run(capsys, ["verify-conjecture", "--m", "5", "--n", "5",
                                   "--r", "2", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert len(payload["rows"]) == 5
    assert len(payload["counterexamples"]) == 1
    assert "counterexample" in err


def test_verify_conjecture_reverifies_only_above_omega(capsys):
    # |Omega| = 16 at (5,5,2): of 17 and the two primes below it (13, 11),
    # only 17 may run, and the report names only the primes that ran
    code, out, err = _run(capsys, ["verify-conjecture", "--m", "5", "--n", "5",
                                   "--r", "2", "--prime", "17",
                                   "--format", "json"])
    assert code == 1, err
    (info,) = json.loads(out)["counterexamples"]
    assert info["reverified"]["primes"] == [17]
    _, out, _ = _run(capsys, ["verify-conjecture", "--m", "5", "--n", "5",
                              "--r", "2", "--prime", "19", "--format", "json"])
    (info,) = json.loads(out)["counterexamples"]
    assert info["reverified"]["primes"] == [19, 17]


# sha256 of stdout, frozen so that refactors keep census output byte-identical
@pytest.mark.parametrize("argv, digest", [
    (["--m", "5", "--n", "5", "--r", "2"],
     "18d992fd3cbe893b1d2171746e87e3a68b8711cc9079d4fbf9b987fae39a1dd4"),
    (["--m", "4", "--n", "4", "--r", "2", "--col-size", "3", "--format", "json"],
     "fec0ec5f723a3776b137a75346782ccdc7daed147c16ded5cd050460f0ce11c1"),
    (["--m", "5", "--n", "6", "--r", "2"],
     "9054a919d3ae0c7b1d564b69d3c654fbf36ec5ad9315c31f8af8a09c870c9235"),
    (["--m", "6", "--n", "5", "--r", "3"],
     "2dba112745aef6af7e4f4e750b5b833c65c4254345a6c25bb74352b2fdb6d423"),
    (["--m", "6", "--n", "5", "--r", "2"],
     "0c3858e36d85ad2f27b8087ec2251fa7daa599608e345e09b74385a62c282326"),
    (["--m", "6", "--n", "6", "--r", "3"],
     "b9a6394697bbe85ac0044df616064c3b602894105627f0fb592e305a66694402"),
    (["--m", "6", "--n", "6", "--r", "2"],
     "3e7382608136e6318d969e73476eb019bd1c0cbdd56ea83ab74fa5c9b658edbe"),
], ids=["5x5r2-csv", "4x4r2-triples-json", "5x6r2-csv", "6x5r3-csv",
        "6x5r2-csv", "6x6r3-csv", "6x6r2-csv"])
def test_verify_conjecture_stdout_is_frozen(capsys, argv, digest):
    _, out, _ = _run(capsys, ["verify-conjecture"] + argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_crosscheck_command(capsys):
    code, out, _ = _run(capsys, ["crosscheck", "--m", "3", "--n", "3",
                                 "--r", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == 126 and payload["disagreements"] == []


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # certify at a small prime takes a seed-dependent number of trials, so a
    # seed left over from the call before would change the payload
    base = _write_pattern(tmp_path, "base.txt", 6, FULLY_REDUCIBLE_BASE_6X5)
    unpart = _write_pattern(tmp_path, "unpart.txt", 6,
                            UNPARTITIONABLE_BASE_6X5)
    ppath, cpath, opath, _ = _completion_files(tmp_path)
    certify_argv = ["certify", "--pattern", base, "--r", "2", "--prime", "23"]
    calls = [
        certify_argv + ["--seed", "5"],
        certify_argv,
        ["complete", "--pattern", str(ppath), "--r", "2",
         "--certificate", str(cpath), "--observations", str(opath)],
        ["partition", "--pattern", unpart, "--r", "2"],
        ["crosscheck", "--m", "3", "--n", "3", "--r", "1"],
        certify_argv,
    ]
    answers = []
    for argv in calls:
        code, out, _ = _run(capsys, argv)
        fresh = run_python("-m", "detmatroid.cli", *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        answers.append((code, out))
    assert answers[0] != answers[1]
    assert [code for code, _ in answers] == [0, 0, 0, 1, 0, 0]


def test_parser_answers_after_an_argparse_rejection(tmp_path, capsys):
    path = _write_pattern(tmp_path, "phi.txt", 6, SLMF_6X4_COLUMNS)
    with pytest.raises(SystemExit) as exc:
        main(["check-slmf", "--pattern", path, "--r", "two"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, _ = _run(capsys, ["check-slmf", "--pattern", path, "--r", "2"])
    assert code == 0
    assert json.loads(out) == {"slmf": True, "witness_columns": None}


def test_argparse_rejects_missing_required_flags():
    with pytest.raises(SystemExit):
        main(["check-slmf", "--pattern", "x"])
    with pytest.raises(SystemExit):
        main([])


def test_seed_flag_reproducibility(tmp_path, capsys):
    path = _write_pattern(tmp_path, "p.txt", 6, FULLY_REDUCIBLE_BASE_6X5)
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["certify", "--pattern", path, "--r", "2",
                                     "--seed", "11"])
        runs.append((code, out))
    assert runs[0] == runs[1]
    # only the commands that run the rank oracle read a seed
    files = ["--certificate", "c.json", "--observations", "o.csv"]
    for argv in (["check-slmf"], ["check-relaxed"], ["partition"],
                 ["complete"] + files):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--pattern", path, "--r", "2", "--seed", "11"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 11" in captured.err


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--m", "0", "--n", "3", "--r", "1"],
    ["crosscheck", "--m", "0", "--n", "1", "--r", "1"],
    ["verify-conjecture", "--m", "3", "--n", "3", "--r", "0"],
], ids=["crosscheck-0x3", "crosscheck-0x1", "verify-conjecture-r0"])
def test_degenerate_grid_exits_two_naming_its_cause(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: need m, n, r >= 1")
    assert "internal error" not in err
