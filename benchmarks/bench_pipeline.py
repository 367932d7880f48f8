"""Pipeline-parallel benchmark: pipeline (pure and hybrid) vs pure tensor.

Sweeps the pipeline stage count K over a fixed device budget D (a
``{stage: K, model: D/K}`` mesh) on the microbatched layer stack of
:mod:`repro.models.pipeline` and compares against pure tensor parallelism
over all D devices.  K = D is pure pipeline (tensor x1); every smaller K
is a true hybrid (pipeline >= 2 *and* tensor >= 2).  Three gates:

* **Pure pipeline beats pure tensor**: at K = D the estimated runtime is
  *strictly below* pure tensor's — tensor-parallel all_reduces grow with
  the model group while the pipeline's bubble ``(K-1)/(T+K-1)``
  amortizes away with enough microbatches.  The win must also be stable:
  once some swept K beats pure tensor, every larger K does too.  The
  hybrids are printed as measured and the gate does not rest on them:
  at ``--smoke`` size they are slightly slower than pure tensor, at full
  size they beat it.
* **Bit-identity**: on the hybrid lowering, the materializing
  ``lower -> fuse -> estimate`` pipeline, the one-pass streaming walk, and
  the streaming walk's incremental segment replay
  (``estimate_incremental``) agree field-exactly on every
  :class:`~repro.sim.costmodel.CostEstimate` field.
* **Determinism**: a fixed-seed automatic search over the pipelined model
  returns identical best actions and cost on every scheduler backend and
  on both rollout environments (undo vs fork).

``--smoke`` shrinks the model and the search budget — the CI pipeline
leg's fast regression gate.

Usage::

    python benchmarks/bench_pipeline.py [--smoke]

Results are dumped to ``$BENCH_OUTPUT_DIR/BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api import ManualPartition, UNKNOWN  # noqa: E402
from repro.core.sharding import ShardingEnv  # noqa: E402
from repro.mesh import Mesh  # noqa: E402
from repro.models import pipeline as pm  # noqa: E402
from repro.models import schedules as sched  # noqa: E402
from repro.auto.search import mcts_search  # noqa: E402
from repro.core.propagate import propagate  # noqa: E402
from repro.sim import TPU_V3, costmodel  # noqa: E402
from repro.spmd import count_collectives, fuse_collectives, lower  # noqa: E402

from benchmarks.common import (  # noqa: E402
    print_table,
    search_backend_matrix,
    write_bench_json,
)

DEVICES = 8
FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops", "comm_bytes",
          "peak_memory_bytes", "collective_time_s")


def bench_config(smoke: bool) -> pm.PipelineConfig:
    if smoke:
        return pm.pipe8(d_model=256, ffw_dim=1024, batch=512,
                        num_microbatches=8)
    return pm.pipe8(d_model=1024, ffw_dim=4096, batch=2048,
                    num_microbatches=16)


def tensor_tactic(axis: str):
    """Megatron-style tiling of every layer's MLP weights."""

    def spec(name, value):
        return {"up_w": 1, "down_w": 0}.get(name.split("/")[-1], UNKNOWN)

    tactic = ManualPartition({"0": spec}, axis=axis)
    tactic.name = "MP"
    return tactic


def run_leg(cfg, tactics, mesh):
    traced = pm.trace_pipeline_transformer(cfg)
    env = ShardingEnv(mesh)
    t0 = time.perf_counter()
    for tactic in tactics:
        tactic.apply(traced.function, env, incremental=True)
    lowered = lower(traced.function, env)
    lowered = dataclasses.replace(
        lowered, function=fuse_collectives(lowered.function)
    )
    estimate = costmodel.estimate(lowered, TPU_V3)
    elapsed = time.perf_counter() - t0
    counts = count_collectives(lowered.function)
    return traced, env, estimate, counts, elapsed


def stage_sweep(cfg, schedule: str):
    """Pure tensor at D devices vs pipeline {stage: K, model: D/K}; the
    last row (K = D) is pure pipeline."""
    rows = []
    _, _, pure, pure_counts, pure_s = run_leg(
        cfg, [tensor_tactic("model")], Mesh({"model": DEVICES})
    )
    rows.append(("tensor x%d" % DEVICES, 0, pure, pure_counts, pure_s))
    stages = []
    k = 2
    while k <= DEVICES:
        model = DEVICES // k
        if model > 1:
            mesh = Mesh({"stage": k, "model": model})
            tactics = [sched.pp("stage", schedule), tensor_tactic("model")]
        else:
            mesh = Mesh({"stage": k})
            tactics = [sched.pp("stage", schedule)]
        _, _, est, counts, elapsed = run_leg(cfg, tactics, mesh)
        name = (f"pipe x{k} + tensor x{model}" if model > 1
                else f"pipe x{k} (pure pipeline)")
        rows.append((name, k, est, counts, elapsed))
        stages.append((k, est.runtime_s))
        k *= 2
    return pure, rows, stages


def check_crossover(pure, stages):
    """Pure pipeline (K = D) must beat pure tensor, and the win must be
    stable: every swept K past the smallest winning one beats it too.
    Returns the smallest winning K and the hybrids (K < D) that win."""
    k_max, pure_pipeline = stages[-1]
    assert k_max == DEVICES
    assert pure_pipeline < pure.runtime_s, (
        "pure pipeline did not beat pure tensor "
        f"(pipeline={pure_pipeline}, tensor={pure.runtime_s})"
    )
    crossover = None
    for k, runtime in stages:
        if crossover is None and runtime < pure.runtime_s:
            crossover = k
        if crossover is not None:
            assert runtime < pure.runtime_s, (
                f"K={k} regressed above pure tensor "
                f"({runtime} >= {pure.runtime_s})"
            )
    hybrid_wins = [k for k, runtime in stages
                   if k < DEVICES and runtime < pure.runtime_s]
    return crossover, hybrid_wins


def check_bit_identity(cfg):
    """materialized == streaming == incremental replay, field-exact, on
    the hybrid lowering."""
    mesh = Mesh({"stage": 4, "model": DEVICES // 4})
    traced = pm.trace_pipeline_transformer(cfg)
    env = ShardingEnv(mesh)
    propagate(traced.function, env)
    env.enable_journal()
    incremental = costmodel.StreamingEstimator(traced.function, mesh,
                                               TPU_V3)
    streaming = costmodel.StreamingEstimator(traced.function, mesh, TPU_V3)
    for tactic in (sched.pp("stage"), tensor_tactic("model")):
        tactic.apply(traced.function, env, incremental=True)
    fast = incremental.estimate_incremental(env, env.drain_journal())
    streamed = streaming.estimate(env)
    lowered = lower(traced.function, env)
    lowered = dataclasses.replace(
        lowered, function=fuse_collectives(lowered.function)
    )
    materialized = costmodel.estimate(lowered, TPU_V3)
    for field in FIELDS:
        value = getattr(fast, field)
        assert value == getattr(streamed, field), field
        assert value == getattr(materialized, field), field
    return {field: repr(getattr(fast, field)) for field in FIELDS}


def check_backend_identity(smoke: bool, budget: int):
    """Fixed-seed search over the pipelined model: identical best actions
    and cost on every backend and both rollout envs."""
    cfg = pm.tiny()
    backends, workers = search_backend_matrix()
    if smoke:
        backends = tuple(b for b in backends if b != "process")
    legs = [(backend, "undo") for backend in backends]
    legs.append((backends[0], "fork"))
    reference = None
    results = {}
    for backend, rollout_env in legs:
        traced = pm.trace_pipeline_transformer(cfg)
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        result = mcts_search(
            traced.function, env, ["stage", "model"], device=TPU_V3,
            budget=budget, seed=7, backend=backend, workers=workers,
            rollout_env=rollout_env,
        )
        key = f"{backend}/{rollout_env}"
        results[key] = {"actions": [list(a) for a in result.actions],
                        "cost": result.cost}
        if reference is None:
            reference = (result.actions, result.cost)
        else:
            assert result.actions == reference[0], (
                f"{key}: best actions diverged"
            )
            assert result.cost == reference[1], f"{key}: best cost diverged"
    return results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="small config + budget (CI gate)")
    args = parser.parse_args(argv)

    cfg = bench_config(args.smoke)
    payload = {"smoke": args.smoke, "devices": DEVICES,
               "config": dataclasses.asdict(cfg), "schedules": {}}

    header = ["leg", "runtime_s", "compute_s", "comm_s", "AR", "wall_s"]
    for schedule in ("1f1b", "gpipe"):
        pure, rows, stages = stage_sweep(cfg, schedule)
        crossover, hybrid_wins = check_crossover(pure, stages)
        print_table(
            f"pipeline sweep ({schedule}, D={DEVICES})", header,
            [[name, f"{est.runtime_s:.3e}", f"{est.compute_s:.3e}",
              f"{est.comm_s:.3e}", counts.all_reduce, f"{elapsed:.2f}"]
             for name, _, est, counts, elapsed in rows],
        )
        print(f"  pure pipeline (K={DEVICES}, tensor x1) beats pure "
              f"tensor; first winning K={crossover}")
        for k, runtime in stages[:-1]:
            print(f"  hybrid pipe x{k} + tensor x{DEVICES // k}: "
                  f"{runtime / pure.runtime_s - 1:+.2%} vs pure tensor")
        payload["schedules"][schedule] = {
            "crossover_stages": crossover,
            "hybrid_wins": hybrid_wins,
            "pure_tensor_runtime_s": pure.runtime_s,
            "legs": [
                {"name": name, "stages": k, "runtime_s": est.runtime_s,
                 "compute_s": est.compute_s, "comm_s": est.comm_s,
                 "peak_memory_bytes": est.peak_memory_bytes,
                 "all_reduce": counts.all_reduce, "wall_s": elapsed}
                for name, k, est, counts, elapsed in rows
            ],
        }

    # 1F1B keeps at most `stages` microbatches in flight; GPipe keeps all
    # T.  Same compute/comm terms, strictly ordered memory.
    mem_1f1b = {
        leg["name"]: leg["peak_memory_bytes"]
        for leg in payload["schedules"]["1f1b"]["legs"]
    }
    for leg in payload["schedules"]["gpipe"]["legs"]:
        if leg["stages"]:
            assert leg["peak_memory_bytes"] >= mem_1f1b[leg["name"]], (
                f"{leg['name']}: gpipe peak below 1f1b"
            )

    payload["bit_identity"] = check_bit_identity(cfg)
    print("  bit-identity: materialized == streaming == incremental replay")

    budget = 8 if args.smoke else 24
    payload["backend_identity"] = check_backend_identity(args.smoke, budget)
    print(f"  backend identity: {sorted(payload['backend_identity'])}")

    out = write_bench_json("pipeline", payload)
    print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
