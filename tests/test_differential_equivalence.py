"""Incremental-vs-streaming-vs-materialized bit-identity.

`StreamingEstimator.estimate_incremental` refreshes only the segments of
ops adjacent to journaled writes, then replays every segment from a
compiled plan (or answers from its whole-state memo).  It must stay
**field-exact** with both the one-pass streaming walk
(`StreamingEstimator.estimate`) and the classic materializing
``lower -> fuse_collectives -> estimate`` pipeline — not approximately,
bit for bit, on every :class:`CostEstimate` field.

60+ seeded rollout chains (13 seeds x 5 models: transformer, GNS, UNet,
the interior-bottleneck ensemble and the microbatched pipeline stack —
whose chains draw PIPELINE actions) drive checkpoint/apply/rollback
trajectories with a *rollback-heavy* mix (~40% of steps unwind), checking
the three-way equality after every step.  Rollbacks are where stale
segments, missed journal windows, or whole-state memo hits on a revisited
state would show up first.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from repro.auto.evaluator import candidate_actions, try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import bottleneck
from repro.models import gns as gns_mod
from repro.models import pipeline as pipeline_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.sim import TPU_V3, costmodel
from repro.spmd import fuse_collectives, lower

MESH = Mesh({"batch": 4, "model": 2})

_FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops", "comm_bytes",
           "peak_memory_bytes", "collective_time_s")


def _cases():
    tcfg = transformer.t32(num_layers=2, d_model=64, num_heads=4, d_head=16,
                           ffw_dim=128, vocab=128, seq_len=16, batch=8)
    gcfg = gns_mod.gns(num_nodes=64, num_edges=256, feature_dim=8,
                       latent_dim=16, mlp_layers=2, message_steps=2,
                       out_dim=8)
    ucfg = unet_mod.unet(num_down=2, num_up=2, channels=8, in_channels=4,
                         image_size=16, batch=4, attention_heads=2,
                         temb_dim=8)
    bcfg = bottleneck.ensemble(batch=2, width=16, d_model=128, ffw_dim=512)
    return [
        ("transformer", transformer.trace_training_step(tcfg)),
        ("gns", gns_mod.trace_training_step(gcfg)),
        ("unet", unet_mod.trace_training_step(ucfg)),
        ("bottleneck", bottleneck.trace_forward(bcfg)),
        # The microbatched loop stack: chains here draw PIPELINE actions
        # (and tilings that cross the loop boundary), so the incremental
        # estimator's loop segments see pipelining mid-trajectory.
        ("pipeline", pipeline_mod.trace_pipeline_transformer(
            pipeline_mod.tiny())),
    ]


CASES = _cases()


def _materialized(function, env):
    lowered = lower(function, env)
    lowered.function = fuse_collectives(lowered.function)
    return costmodel.estimate(lowered, TPU_V3)


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, _ in CASES])
@pytest.mark.parametrize("seed", range(13))
def test_differential_streaming_materialized_field_exact(case, seed):
    """Three-way field-exact equality along rollback-heavy trajectories:
    52 seeded chains, every step compared on every estimate field."""
    _, traced = CASES[case]
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    env.enable_journal()
    incremental = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    streaming = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    candidates = candidate_actions(function, env, ["batch", "model"], 6)
    if not candidates:
        pytest.skip("no candidate actions for this trace")

    rng = random.Random(9000 * case + seed)
    tokens = []
    for step in range(12):
        # Rollback-heavy mix: ~40% of steps unwind part of the stack.
        if tokens and rng.random() < 0.4:
            index = rng.randrange(len(tokens))
            env.rollback(tokens[index])
            del tokens[index:]
        else:
            token = env.checkpoint()
            try_apply_action(function, env, rng.choice(candidates))
            propagate(function, env, incremental=True)
            tokens.append(token)
        fast = incremental.estimate_incremental(env, env.drain_journal())
        streamed = streaming.estimate(env)
        materialized = _materialized(function, env)
        for field in _FIELDS:
            value = getattr(fast, field)
            assert value == getattr(streamed, field), (step, field)
            assert value == getattr(materialized, field), (step, field)
        # Field-exact implies dict-exact (collective breakdown included).
        assert dataclasses.asdict(fast) == dataclasses.asdict(streamed), step


def test_cost_acc_rounds_once_correctly():
    """Each total is the correctly rounded sum of its terms, in any order
    — not the left-to-right float sum, which loses the small terms to
    cancellation."""
    terms = [1e100, 1.0, -1e100, 0.1, 0.2, 0.3]
    exact = float(sum(Fraction(t) for t in terms))
    naive = 0.0
    for term in terms:
        naive += term
    assert naive != exact
    for order in (terms, terms[::-1]):
        acc = costmodel._CostAcc(1.0)
        for term in order:
            acc.add_op_cost(term)
            acc.add_coll_cost("all_reduce", term, term)
        acc.apply([("co", "all_gather", term) for term in order])
        est = acc.estimate()
        for value in (est.local_flops, est.compute_s, est.comm_bytes,
                      est.comm_s, est.collective_time_s["all_reduce"],
                      est.collective_time_s["all_gather"]):
            assert value == exact == math.fsum(terms)


def test_whole_state_memo_hands_out_fresh_copies():
    """Mutating a returned estimate must not leak into the memo: revisiting
    the same env state still equals the materialized oracle."""
    _, traced = CASES[0]
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    env.enable_journal()
    estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    candidates = candidate_actions(function, env, ["batch", "model"], 6)
    token = env.checkpoint()
    try_apply_action(function, env, candidates[0])
    propagate(function, env, incremental=True)
    oracle = _materialized(function, env)

    def vandalize(estimate):
        estimate.merge_scaled(estimate, 3.0)
        for key in estimate.collective_time_s:
            estimate.collective_time_s[key] = -1.0
        estimate.collective_time_s["bogus"] = 1.0

    vandalize(estimator.estimate_incremental(env, env.drain_journal()))
    # Same state again (nothing moved), then away and back via rollback.
    vandalize(estimator.estimate_incremental(env, env.drain_journal()))
    inner = env.checkpoint()
    try_apply_action(function, env, candidates[1])
    propagate(function, env, incremental=True)
    estimator.estimate_incremental(env, env.drain_journal())
    env.rollback(inner)
    revisit = estimator.estimate_incremental(env, env.drain_journal())
    for field in _FIELDS:
        assert getattr(revisit, field) == getattr(oracle, field), field
    env.rollback(token)
