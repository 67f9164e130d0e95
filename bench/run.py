"""detmatroid benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload census|certify|oracle|complete \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it records the run context.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from reference import REF_SECONDS, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402

MODULES = ["census", "cli", "errors", "fields", "grassmann", "linalg",
           "oracle", "partition", "patterns", "seeding", "slmf"]
SETUP_REPEATS = 9
WORK_ROOT = ROOT / ".bench_build" / "detmatroid-bench"


class Library:
    """Fresh imports of the detmatroid package and its modules."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "detmatroid" or n.startswith("detmatroid.")]:
            del sys.modules[name]
        self.package = importlib.import_module("detmatroid")
        for mod in MODULES:
            setattr(self, mod, importlib.import_module("detmatroid." + mod))

    def namespaces(self) -> list:
        return [self.package] + [getattr(self, mod) for mod in MODULES]


def set_up(workload: str, seed: int, workdir: Path, probe):
    """Import, generate inputs and warm up once; returns (workload, seconds
    at reference speed)."""
    paused, start = probe.paused, perf_counter()
    lib = Library()
    wl = WORKLOADS[workload](lib, seed, workdir)
    op = wl.ops[0]
    op.check(op.run())
    end = perf_counter()
    return wl, (end - start - (probe.paused - paused)) * probe.factor(start, end)


class Runner:
    """Runs whole passes over a workload's ops and keeps every answer and
    every (start, end, seconds paused for the speed probe) interval."""

    def __init__(self, ops, probe):
        self.ops = ops
        self.probe = probe
        self.fingerprints: list[str | None] = [None] * len(ops)
        self.raw: list[list[tuple[float, float, float]]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.exec_id = 0

    def run_pass(self, tracer=None) -> set:
        """One pass over all ops; returns the exec ids it used."""
        ids = set()
        for k, op in enumerate(self.ops):
            self.exec_id += 1
            ids.add(self.exec_id)
            if tracer is not None:
                tracer.op = self.exec_id
            self.attempted += 1
            paused, start = self.probe.paused, perf_counter()
            error = None
            try:
                answer = op.run()
            except Exception as exc:  # an unexpected exception fails the op
                error = exc
            self.raw[k].append((start, perf_counter(), self.probe.paused - paused))
            if error is not None:
                self.failed += 1
                print("%s raised:\n%s" % (op.label, "".join(
                    traceback.format_exception(error))), file=sys.stderr)
                continue
            try:
                status = op.check(answer)
            except (KeyError, ValueError, TypeError) as exc:
                raise WrongAnswer("%s: malformed answer (%r)" % (op.label, exc)) from exc
            if status != "ok":
                self.failed += 1
            fp = op.fingerprint(answer)
            if self.fingerprints[k] is None:
                self.fingerprints[k] = fp
            elif fp != self.fingerprints[k]:
                raise WrongAnswer("%s: answer changed between passes" % op.label)
        return ids

    def latency(self, passes=None, scaled=True) -> list[list[float]]:
        """Per-op seconds, at reference speed unless scaled is false,
        optionally only from the chosen pass numbers."""
        return [[(end - start - paused)
                 * (self.probe.factor(start, end) if scaled else 1.0)
                 for n, (start, end, paused) in enumerate(ts)
                 if passes is None or n in passes]
                for ts in self.raw]


def wall_s(latency) -> float:
    """Time for all ops once: the sum of each op's median latency."""
    return sum(statistics.median(ts) for ts in latency if ts)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_context(args) -> dict:
    src_files = sorted((SRC / "detmatroid").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src_lines": lines, "src_sha256": digest.hexdigest(),
        "commit": commit, "python": platform.python_version(),
        "nproc": os.cpu_count(), "computed_counters": spans.COMPUTED,
    }


def measure(wl, seconds: float, traced: bool, tracer, probe):
    """Whole passes while the next one is expected to fit in `seconds`; a
    traced run alternates untraced and traced passes.  Returns the runner
    and one (traced, exec ids, start, end) tuple per pass."""
    runner = Runner(wl.ops, probe)
    passes = []
    start = perf_counter()
    while True:
        use_trace = traced and len(passes) % 2 == 1
        t0 = perf_counter()
        if use_trace:
            tracer.install(wl.lib)
        try:
            ids = runner.run_pass(tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        passes.append((use_trace, ids, t0, perf_counter()))
        # the first pass also runs the one-off answer checks, so the last
        # pass predicts the next one
        if len(passes) >= (2 if traced else 1) and \
                passes[-1][3] - start + (passes[-1][3] - t0) > seconds:
            break
    return runner, passes


def e2e_metrics(runner, setup_times) -> dict:
    per_op = [statistics.median(ts) for ts in runner.latency()]
    return {
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "op_p50_ms": {"value": 1000 * percentile(per_op, 50), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * percentile(per_op, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "ok_frac": {"value": 1 - runner.failed / runner.attempted, "unit": "ratio"},
    }


def layer_metrics(runner, passes, tracer, probe) -> dict:
    """Medians over traced passes of each pass's per-layer totals; times
    are scaled by the pass's mean reference timing."""
    per_pass = []
    for used, ids, start, end in passes:
        if used:
            values = spans.layer_metrics(spans.pass_summary(tracer.spans, ids))
            scale = probe.factor(start, end)
            per_pass.append({k: v * scale if k.endswith("_s") else v
                             for k, v in values.items()})
    out = {}
    for name in per_pass[0]:
        unit = ("count-computed" if name in spans.COMPUTED
                else "s" if name.endswith("_s")
                else "ratio" if name.endswith(("_frac", "_yield", "_per_call"))
                else "count")
        out[name] = {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
    untraced = wall_s(runner.latency({n for n, p in enumerate(passes) if not p[0]}))
    traced = wall_s(runner.latency({n for n, p in enumerate(passes) if p[0]}))
    out["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    out["trace.overhead_frac"] = {"value": (traced - untraced) / untraced, "unit": "ratio"}
    out["fail_frac"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    return out


def dominant_layers(metrics: dict, top: int = 3) -> list:
    self_times = [(v["value"], k[:-len(".self_s")]) for k, v in metrics.items()
                  if k.endswith(".self_s")]
    total = sum(t for t, _ in self_times) or 1.0
    return [[name, round(t / total, 3)] for t, name in sorted(self_times, reverse=True)[:top]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "detmatroid" / "__init__.py").is_file():
        print("error: %s not found; run from a detmatroid checkout"
              % (SRC / "detmatroid"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    context = run_context(args)
    try:
        with SpeedProbe() as probe:
            tracer = spans.Tracer(probe) if args.trace else None
            setup_times = []
            for _ in range(SETUP_REPEATS):
                wl, elapsed = set_up(args.workload, args.seed, workdir, probe)
                setup_times.append(elapsed)
            runner, passes = measure(wl, args.seconds, bool(args.trace), tracer, probe)
    except WrongAnswer as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        print(json.dumps({"context": context}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context.update({
        "prime": wl.lib.fields.DEFAULT_PRIME, "trials": wl.lib.oracle.DEFAULT_TRIALS,
        "ops_per_pass": len(wl.ops), "op_runs": runner.attempted,
        "pass_s": [round(p[3] - p[2], 4) for p in passes],
        "raw_wall_s": wall_s(runner.latency(scaled=False)),
        "reference_median_s": statistics.median(probe.times),
        "reference_p10_s": statistics.quantiles(probe.times, n=10)[0],
        "reference_samples": len(probe.times),
        "reference_s": REF_SECONDS,
    })
    if args.trace:
        metrics = layer_metrics(runner, passes, tracer, probe)
        context["dominant_layers"] = dominant_layers(metrics)
        trace_dir = WORK_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / ("%s-seed%d.jsonl.gz" % (args.workload, args.seed)),
                     context)
    else:
        metrics = e2e_metrics(runner, setup_times)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
