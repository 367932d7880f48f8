"""Env memory-model micro-benchmark: fork vs checkpoint/rollback vs propagate.

PR 4 replaced fork-per-prefix rollouts with an undo log on ``ShardingEnv``.
This benchmark pins the per-operation costs of the three primitives the
rollout engines are built from, so the perf trajectory of the env memory
model is tracked alongside the Fig 8/Fig 11 artifacts:

* ``copy`` — the overlay fork (PR 2's O(delta) ``copy()``), the fork
  engine's per-prefix cost,
* ``checkpoint_rollback`` — an empty checkpoint/rollback pair (pure
  bookkeeping), plus pairs wrapping 8 and 64 writes (the undo engine's
  retract cost is O(writes), not O(env)),
* ``delta_replay`` — replaying a memoized propagation write-delta
  (``writes_since``), the undo engine's re-extension cost,
* ``propagate_extension`` — a real apply + incremental propagation fixed
  point, the irreducible cost both engines pay once per distinct prefix,
* ``prune_probe`` — PR 8's per-candidate equivalence probe (checkpoint +
  apply + propagate + footprint digest + rollback): the unit cost of the
  action-space condenser's pre-pass, which must stay within a small
  constant of a bare propagated extension (the digest is not the
  expensive part) so condensing N candidates costs ~N extensions once —
  and zero on warm runs, where persisted signatures skip every probe,
* ``incremental`` — one ``estimate_incremental`` call re-pricing that
  extension (segment refresh plus a whole-function replay, with the
  whole-state memo missed), which must stay below half a full
  ``estimate_streaming`` walk.

Everything lands in ``BENCH_env_ops.json`` (uploaded by CI).  Gates are
deliberately coarse — micro-timings flake on shared runners — and pin only
the structural claims: rollback scales with the write count (not the env
population), undo-log bookkeeping is not the expensive part of an
extension, and incremental estimation beats re-walking the program.
"""

import statistics
import time

from repro.auto.evaluator import candidate_actions, try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import transformer
from repro.sim import TPU_V3, costmodel
from benchmarks.common import print_table, write_bench_json

MESH = Mesh({"batch": 8, "model": 4})


def _time_per_op(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _replay_leg(function, env, delta) -> dict:
    """One ``estimate_incremental`` call per one-action extension, timed
    against a full ``estimate_streaming`` walk of the same state.

    The extension's write delta is toggled on and off, so every call
    refreshes the segments next to the delta's values.  The estimator's
    whole-state memo is emptied before each timed call: toggling between
    two states would otherwise answer every call from the memo, and the
    leg would time memo hits instead of a replay.
    """
    originals = {value: env.sharding(value) for value, _ in delta}
    estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    env.enable_journal()
    env.drain_journal()
    estimator.estimate_incremental(env, None)  # prime every segment once
    memo = estimator._inc._bulk_memo
    samples = []
    # An even count of calls leaves the env restored.
    for i in range(20):
        for value, sharding in (delta if i % 2 == 0 else originals.items()):
            env.set_sharding(value, sharding)
        memo.clear()
        start = time.perf_counter()
        estimator.estimate_incremental(env, env.drain_journal())
        samples.append(time.perf_counter() - start)
    full_s = _time_per_op(
        lambda: costmodel.estimate_streaming(function, env, TPU_V3), 5)
    return {
        "ops": sum(1 for _ in function.walk()),
        # The first call of each direction resolves its segments; the
        # median is the steady-state replay.
        "replay_seconds": statistics.median(samples),
        "full_walk_seconds": full_s,
    }


def test_env_ops(benchmark):
    tcfg = transformer.t32(num_layers=4, d_model=512, num_heads=8,
                           d_head=64, ffw_dim=2048, vocab=4096, seq_len=128,
                           batch=16)
    traced = transformer.trace_training_step(tcfg)
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    candidates = candidate_actions(function, env, ["batch", "model"], 12)
    # The widest-fanout action (most writes) makes the O(delta) claims
    # visible; writes_since on a propagated extension supplies the delta.
    token = env.checkpoint()
    try_apply_action(function, env, candidates[1])
    propagate(function, env, incremental=True)
    delta = env.writes_since(token)
    env.rollback(token)

    results = {}

    def bench_all():
        results["copy"] = _time_per_op(
            lambda: env.copy(with_events=False), 2000)

        def empty_pair():
            env.rollback(env.checkpoint())
        results["checkpoint_rollback_0_writes"] = _time_per_op(
            empty_pair, 2000)

        for count in (8, 64):
            writes = delta[:count]

            def pair():
                inner = env.checkpoint()
                set_sharding = env.set_sharding
                for value, sharding in writes:
                    set_sharding(value, sharding)
                env.rollback(inner)
            results[f"checkpoint_rollback_{count}_writes"] = _time_per_op(
                pair, 500)

        def replay():
            inner = env.checkpoint()
            set_sharding = env.set_sharding
            for value, sharding in delta:
                set_sharding(value, sharding)
            env.drain_dirty()
            env.rollback(inner)
        results[f"delta_replay_{len(delta)}_writes"] = _time_per_op(
            replay, 200)

        def extension():
            inner = env.checkpoint()
            try_apply_action(function, env, candidates[1])
            propagate(function, env, incremental=True)
            env.rollback(inner)
        results["propagate_extension"] = _time_per_op(extension, 20)

        # The condenser's per-candidate probe on the same action: the
        # extension above plus the write-footprint digest and rollback.
        from repro.auto.prune import probe_action
        from repro.core.sharding import enumerate_function_values
        value_index = {value: i for i, value in
                       enumerate(enumerate_function_values(function))}
        results["prune_probe"] = _time_per_op(
            lambda: probe_action(function, env, candidates[1],
                                 value_index=value_index), 20)

        # Incremental estimation of the same one-action extension: a
        # segment refresh plus a whole-function replay.
        results["incremental"] = _replay_leg(function, env, delta)

    benchmark.pedantic(bench_all, rounds=1, iterations=1)

    incremental = results.pop("incremental")
    print_table(
        "Env memory-model primitives (per-op cost; undo-log retraction is "
        "O(writes) bookkeeping, propagation remains the real work both "
        "rollout engines pay once per distinct prefix)",
        ["operation", "per-op"],
        [(name, f"{seconds * 1e6:.2f}us")
         for name, seconds in results.items()],
    )
    print_table(
        "Incremental estimation of a one-action extension (segment "
        "refresh + replay, whole-state memo missed) vs a full streaming "
        "walk",
        ["ops", "estimate_incremental", "full walk"],
        [(str(incremental["ops"]),
          f"{incremental['replay_seconds'] * 1e6:.1f}us",
          f"{incremental['full_walk_seconds'] * 1e6:.1f}us")],
    )
    write_bench_json("env_ops", {
        "mesh": dict(MESH.axes),
        "delta_writes": len(delta),
        "per_op_seconds": results,
        "incremental": incremental,
    })

    # Structural gates (coarse: micro-benchmarks on shared CI runners).
    # Rollback cost tracks the write count, not the env's total population:
    # the 64-write pair costs well under 64x the 8-write pair's ceiling.
    assert results["checkpoint_rollback_64_writes"] < \
        32 * max(results["checkpoint_rollback_8_writes"], 1e-7)
    # Undo bookkeeping is vastly cheaper than a real propagation fixed
    # point — the undo engine's overhead cannot dominate an extension.
    assert results["checkpoint_rollback_0_writes"] < \
        results["propagate_extension"]
    assert results[f"delta_replay_{len(delta)}_writes"] < \
        results["propagate_extension"]
    # A condenser probe is an extension plus digest bookkeeping: the
    # digest must not dominate, so one probe stays within a small
    # constant of the bare propagated extension it wraps.
    assert results["prune_probe"] < \
        3 * max(results["propagate_extension"], 1e-7)
    # Re-estimating an extension replays memoized segments instead of
    # re-resolving them: one real replay (whole-state memo missed) stays
    # far below a full streaming walk of the same program.
    assert incremental["replay_seconds"] < \
        0.5 * incremental["full_walk_seconds"]
