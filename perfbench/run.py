"""End-to-end ``partir_jit`` benchmark, one workload per process.

    python3 perfbench/run.py --workload auto-t8 --seed 0 --seconds 10 --trace 0

A closed loop: one client makes one ``partir_jit`` call at a time, in this
process, with no worker pool.  Each call re-traces its program first, so
op-level caches start cold, and runs a full garbage collection before the
clock starts (see README.md, "Drift").  Calls repeat until ``--seconds``
of wall time have passed and at least ``MIN_CALLS`` calls have run (one
round when traced).  Set-up is timed ``SETUP_REPEATS`` times, in fresh
processes around the timed calls, and ``setup_s`` is their median.  Timed
calls search at the fixed seed ``workloads.SEARCH_SEED``, so plans and
program counts repeat exactly; ``--seed`` derives the reduced-shape
check's search seed and inputs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics, the Chrome
trace and the self-time table.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (host facts, per-call counts, drift) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

from spans import Recorder, instrument, wrap_tactics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: How many fresh processes repeat the imports, model builds and traces;
#: ``setup_s`` takes their median.  Half run before the timed calls and
#: half after them: a set-up takes a fraction of a second, and the host's
#: speed shifts over seconds (README.md, "Run-to-run spread").
SETUP_REPEATS = 6

#: Untraced runs time at least this many calls, however long they take,
#: so ``compile_s.p50`` never rests on one call.  Not 3: a third
#: ``auto-t8`` call would take its run to about a minute (README.md,
#: "Run length").
MIN_CALLS = 2

#: One set-up in a fresh process: imports, model builds and traces.
#: Prints its own wall time, which leaves out the interpreter's start.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
for program in workloads.WORKLOADS[sys.argv[3]].programs:
    program.trace()
print(time.perf_counter() - start)
"""

E2E_UNITS = {
    "setup_s": "s",
    "compile_s.p50": "s",
    "plan_cost": "sim_s",
    "plan_step_s": "sim_s",
    "plan_peak_gib": "GiB",
    "compiler_rss_mib": "MiB",
}

#: Per-layer metrics (``--trace 1``), in report order.
LAYER_UNITS = {
    "trace.s": "s", "ir.ops": "count", "tactic.s": "s",
    "propagate.s": "s", "propagate.calls": "count",
    "propagate.ops_processed": "count", "propagate.us_per_op": "us",
    "enumerate.s": "s", "enumerate.candidates": "count",
    "prune.s": "s", "prune.probes": "count", "prune.kept_ratio": "ratio",
    "evaluate.s": "s", "evaluate.calls": "count",
    "evaluate.computed": "count", "evaluate.hit_ratio": "ratio",
    "estimate.s": "s", "estimate.calls": "count",
    "estimate.ms_per_call": "ms", "estimate.ops_reused": "count",
    "cache.load_s": "s", "cache.warm_hits": "count",
    "prior.fit_s": "s", "prior.hits": "count",
    "search.s": "s", "search.self_s": "s",
    "lower.s": "s", "lower.calls": "count", "fuse.s": "s",
    "collectives.count": "count",
    "final_estimate.s": "s", "plan.comm_gib": "GiB",
    "untraced.s": "s",
    "compile_s.traced_p50": "s", "compile_s.untraced_p50": "s",
    "trace.overhead_s": "s",
}

GIB = float(1 << 30)


class CheckFailed(Exception):
    pass


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def check_seed(workload: str, seed: int) -> int:
    return zlib.crc32(f"{workload}:{seed}".encode()) & 0x7FFFFFFF


def host_facts(seed: int) -> dict:
    import numpy
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def auto_tactics(schedule):
    from repro.api import AutomaticPartition
    return [t for t in schedule if isinstance(t, AutomaticPartition)]


def check_plan(meta, schedule, device) -> float:
    """The search's reported cost is the final plan's simulated objective,
    bit for bit, and the final lowering is well-formed IR.  Returns the
    objective."""
    from repro.ir.verifier import verify_function
    from repro.sim.costmodel import search_objective
    objective = search_objective(meta.estimate, device)
    for tactic in auto_tactics(schedule):
        cost = tactic.last_search.cost
        if cost.hex() != objective.hex():
            raise CheckFailed(f"{tactic.name}: search cost {cost!r} != "
                              f"final objective {objective!r}")
    verify_function(meta.lowered.function)
    return objective


def program_counts(meta, schedule, objective: float) -> dict:
    """The exact counts of one partir_jit call (see README.md)."""
    searches = [t.last_search for t in auto_tactics(schedule)]
    stats = meta.env.stats
    counts = {
        field: sum(getattr(r, field) for r in searches)
        for field in ("evaluations", "cache_hits", "warm_cache_hits",
                      "prune_probes", "candidates_kept", "tree_prior_hits")
    }
    counts["search_ops_processed"] = sum(r.ops_processed for r in searches)
    counts["propagate_calls"] = stats.propagate_calls
    counts["ops_processed"] = stats.ops_processed
    # The final lowering's counts, as partir_jit recorded them: reading
    # ``meta.counts`` would count again, outside the call.
    counts["collectives"] = meta.reports[-1].counts.as_dict()
    counts["plan_cost"] = objective.hex()
    return counts


class Session:
    """One benchmark process: the workload, its seed and scratch space."""

    def __init__(self, workload, seed: int, search_seed: int):
        from repro.sim.devices import TPU_V3
        self.workload = workload
        self.seed = seed
        self.search_seed = search_seed
        self.check_seed = check_seed(workload.name, seed)
        self.device = TPU_V3
        self.work = OUT / f"work-{workload.name}-{os.getpid()}"
        self.snapshots = {}

    def cache_dir(self, index: int):
        """A cache directory for program ``index``: a fresh copy of the
        teacher's snapshot on a warm workload, none otherwise."""
        if not self.workload.warm:
            return None
        target = self.work / f"cache-{index}"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.snapshots[index], target)
        return str(target)

    def teach(self, programs, seed: int) -> None:
        """The warm workload's cold teacher call: fills one cache snapshot
        per program."""
        from repro.api import partir_jit
        for index, program in enumerate(programs):
            snapshot = self.work / f"snapshot-{index}"
            shutil.rmtree(snapshot, ignore_errors=True)
            schedule = program.schedule(seed, str(snapshot))
            partir_jit(program.trace(), program.mesh, schedule)
            self.snapshots[index] = snapshot

    def call(self, rec=None) -> dict:
        """One benchmark call: every program re-traced and partitioned.

        Returns the call's record; raises when a call or a check fails."""
        from repro.api import partir_jit
        span = rec.span if rec else (lambda name: contextlib.nullcontext())
        record = {"compile_s": 0.0, "programs": []}
        for index, program in enumerate(self.workload.programs):
            if rec:
                rec.call += 1
            with span("trace"):
                traced = program.trace()
            schedule = program.schedule(self.search_seed,
                                        self.cache_dir(index))
            if rec:
                wrap_tactics(rec, schedule)
            gc.collect()
            with span("call"):
                start = time.perf_counter()
                _, meta = partir_jit(traced, program.mesh, schedule)
                elapsed = time.perf_counter() - start
            objective = check_plan(meta, schedule, self.device)
            record["compile_s"] += elapsed
            record["programs"].append({
                "label": program.label,
                "ops": len(traced.function.ops),
                "compile_s": elapsed,
                "objective": objective,
                "step_s": meta.estimate.runtime_s,
                "peak_gib": meta.estimate.peak_memory_bytes / GIB,
                "comm_gib": meta.estimate.comm_bytes / GIB,
                "counts": program_counts(meta, schedule, objective),
            })
        return record

    def reduced_check(self) -> None:
        """Run the schedule on small builds of the same models and compare
        the simulated mesh's outputs with the reference interpreter."""
        import numpy as np
        from repro.api import partir_jit
        from repro.ir.interpreter import evaluate_function
        from repro.runtime.executor import MeshExecutor
        rng = np.random.default_rng(self.seed)
        if self.workload.warm:
            self.teach(self.workload.reduced, self.check_seed)
        for index, program in enumerate(self.workload.reduced):
            traced = program.trace()
            schedule = program.schedule(self.check_seed,
                                        self.cache_dir(index))
            _, meta = partir_jit(traced, program.mesh, schedule)
            check_plan(meta, schedule, self.device)
            function = traced.function
            args = make_inputs(function, program.int_high, rng)
            expected = evaluate_function(function, args)
            actual = MeshExecutor(meta.lowered)(*args)
            for name, want, got in zip(function.output_names, expected,
                                       actual):
                if not np.all(np.isfinite(want)):
                    raise CheckFailed(f"{program.label}: reference output "
                                      f"{name!r} is not finite")
                if not np.allclose(got, want, rtol=1e-3, atol=1e-3):
                    raise CheckFailed(f"{program.label}: output {name!r} "
                                      "differs from the interpreter")


def make_inputs(function, int_high, rng):
    """Valid inputs: small normal floats, non-negative Adam second moments
    and integer indices inside their range."""
    args = []
    for name, param in zip(function.input_names, function.params):
        shape, dtype = param.type.shape, param.type.dtype
        if dtype.is_float:
            array = 0.1 * rng.standard_normal(shape)
            if "opt_state/v/" in name:
                array = abs(array)
        else:
            array = rng.integers(0, int_high[name.split("/")[-1]], shape)
        args.append(array.astype(dtype.np_dtype))
    return args


def e2e_metrics(calls, setup_s: float, rss_mib: float) -> dict:
    programs = [p for c in calls for p in c["programs"]]
    return {
        "setup_s": setup_s,
        "compile_s.p50": statistics.median(c["compile_s"] for c in calls),
        "plan_cost": geomean(p["objective"] for p in programs),
        "plan_step_s": geomean(p["step_s"] for p in programs),
        "plan_peak_gib": geomean(p["peak_gib"] for p in programs),
        "compiler_rss_mib": rss_mib,
    }


def layer_metrics(rec, traced_calls, untraced_calls) -> dict:
    """Per-layer metrics, per benchmark call, from the traced calls."""
    n = len(traced_calls)
    spans = rec.spans

    def seconds(name):
        return sum(s.duration_ns for s in spans if s.name == name) / 1e9 / n

    def number(name):
        return sum(1 for s in spans if s.name == name) / n

    def counter(name, key):
        return sum(s.counters.get(key, 0) for s in spans
                   if s.name == name) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def self_seconds(name):
        return sum(s.duration_ns - s.child_ns for s in spans
                   if s.name == name) / 1e9 / n

    def program_total(key):
        return sum(p[key] for c in traced_calls for p in c["programs"]) / n

    def count_total(key):
        return sum(p["counts"][key] for c in traced_calls
                   for p in c["programs"]) / n

    prop_s, prop_ops = seconds("propagate"), counter("propagate", "ops")
    est_s, est_calls = seconds("estimate"), number("estimate")
    evals, computed = number("evaluate"), counter("evaluate", "computed")
    traced_p50 = statistics.median(c["compile_s"] for c in traced_calls)
    untraced_p50 = statistics.median(c["compile_s"] for c in untraced_calls)
    return {
        "trace.s": seconds("trace"),
        "ir.ops": program_total("ops"),
        "tactic.s": seconds("tactic"),
        "propagate.s": prop_s,
        "propagate.calls": number("propagate"),
        "propagate.ops_processed": prop_ops,
        "propagate.us_per_op": ratio(prop_s * 1e6, prop_ops),
        "enumerate.s": seconds("enumerate"),
        "enumerate.candidates": counter("enumerate", "candidates"),
        "prune.s": seconds("prune"),
        "prune.probes": counter("prune", "probes"),
        "prune.kept_ratio": ratio(counter("prune", "kept"),
                                  counter("prune", "total")),
        "evaluate.s": seconds("evaluate"),
        "evaluate.calls": evals,
        "evaluate.computed": computed,
        "evaluate.hit_ratio": ratio(evals - computed, evals),
        "estimate.s": est_s,
        "estimate.calls": est_calls,
        "estimate.ms_per_call": ratio(est_s * 1e3, est_calls),
        "estimate.ops_reused": counter("estimate", "ops_reused"),
        "cache.load_s": seconds("cache.load"),
        "cache.warm_hits": count_total("warm_cache_hits"),
        "prior.fit_s": seconds("prior.fit"),
        "prior.hits": count_total("tree_prior_hits"),
        "search.s": seconds("search"),
        "search.self_s": self_seconds("search"),
        "lower.s": seconds("lower"),
        "lower.calls": number("lower"),
        "fuse.s": seconds("fuse"),
        "collectives.count": sum(
            sum(p["counts"]["collectives"].values())
            for c in traced_calls for p in c["programs"]) / n,
        "final_estimate.s": seconds("final_estimate"),
        "plan.comm_gib": program_total("comm_gib"),
        "untraced.s": self_seconds("call"),
        "compile_s.traced_p50": traced_p50,
        "compile_s.untraced_p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    }


def drift(calls) -> dict:
    times = [c["compile_s"] for c in calls]
    out = {"measure": "median of calls, gc.collect() before each",
           "calls_s": times}
    if len(times) > 1:
        rest = statistics.median(times[1:])
        out.update(first_s=times[0], rest_p50_s=rest,
                   first_over_rest=times[0] / rest)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    session = Session(workload, args.seed, workloads.SEARCH_SEED)
    OUT.mkdir(exist_ok=True)
    # A terminated run still removes its scratch caches.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        return run(args, session, start)
    finally:
        shutil.rmtree(session.work, ignore_errors=True)


def fresh_setup_s(name: str) -> float:
    """One set-up of workload ``name`` in a fresh process, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench"), name],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def run(args, session, start: float) -> int:
    workload = session.workload
    setup = [fresh_setup_s(workload.name)
             for _ in range(SETUP_REPEATS // 2)]
    teacher_s = 0.0
    if workload.warm:
        t0 = time.perf_counter()
        session.teach(workload.programs, session.search_seed)
        teacher_s = time.perf_counter() - t0

    rec = Recorder() if args.trace else None
    calls, traced_calls, failures = [], [], []
    # A traced round is two calls, each slower than an untraced one; one
    # round keeps the run inside its time limit.
    min_rounds = 1 if rec else MIN_CALLS
    attempted = rounds = 0
    loop_start = time.perf_counter()
    while (rounds < min_rounds
           or time.perf_counter() - loop_start < args.seconds):
        rounds += 1
        for traced in ((False, True) if rec else (False,)):
            attempted += 1
            restore = instrument(rec) if traced else None
            try:
                record = session.call(rec if traced else None)
            except Exception as exc:  # a failed call is counted, not fatal
                failures.append(f"call {attempted}: {exc!r}")
                continue
            finally:
                if restore:
                    restore()
            (traced_calls if traced else calls).append(record)
    # ru_maxrss is in KiB on Linux; read before the check's executor runs.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [fresh_setup_s(workload.name)
              for _ in range(SETUP_REPEATS - len(setup))]
    setup_s = statistics.median(setup) + teacher_s

    attempted += 1
    check_start = time.perf_counter()
    try:
        session.reduced_check()
    except Exception as exc:
        failures.append(f"reduced-shape check: {exc!r}")
    check_s = time.perf_counter() - check_start
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    if rec:
        measured = bool(traced_calls and calls)
        metrics = layer_metrics(rec, traced_calls, calls) if measured else {}
        units = LAYER_UNITS
    else:
        measured = bool(calls)
        metrics = e2e_metrics(calls, setup_s, rss_mib) if measured else {}
        units = E2E_UNITS
    report = {
        "workload": workload.name, "why": workload.why,
        "host": host_facts(args.seed), "search_seed": session.search_seed,
        "check_seed": session.check_seed,
        "setup": {"fresh_s": setup, "teacher_s": teacher_s},
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - start, "check_s": check_s,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures,
        "metrics": metrics,
        "calls": [[p["counts"] for p in c["programs"]] for c in calls],
        "drift": drift(calls),
    }
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    if rec:
        report["self_times"] = rec.self_times()
        (OUT / f"{stem}.trace.json").write_text(json.dumps(
            rec.chrome_trace({"workload": workload.name,
                              "seed": args.seed})))
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print_summary(report, units)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if measured else 1


def print_summary(report, units) -> None:
    host = report["host"]
    print(f"# workload {report['workload']}  seed {host['seed']}  "
          f"cores {host['usable_cores']}  python {host['python']}  "
          f"numpy {host['numpy']}")
    calls = report["drift"]["calls_s"]
    print(f"#   calls {len(calls)}  failed_frac {report['failed_frac']:.3f}"
          f" ({report['failed']}/{report['attempted']})  wall "
          f"{report['wall_s']:.1f} s  reduced-shape check "
          f"{report['check_s']:.1f} s")
    for name, value in report["metrics"].items():
        print(f"#   {name:28s} {value:14.6g} {units[name]}")
    for row in report.get("self_times", [])[:12]:
        print(f"#   self {row['layer']:16s} {row['self_s']:10.4f} s  "
              f"total {row['total_s']:10.4f} s  x{row['count']}")


if __name__ == "__main__":
    sys.exit(main())
