"""The benchmark's workloads: which programs one call partitions, how.

A workload is a list of programs.  One benchmark *call* of the workload
re-traces each program and runs ``partir_jit`` on it with the workload's
schedule; ``reduced`` holds small-shape builds of the same models under
the same schedules, which the correctness check executes on the simulated
mesh.  Why each workload was chosen is in ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import UNKNOWN, AutomaticPartition, ManualPartition, Tactic
from repro.mesh import Mesh
from repro.models import gns, transformer
from repro.models import pipeline as pm
from repro.models import schedules as sched
from repro.trace.tracer import TracedFunction

#: Search parameters shared by every automatic tactic here.
SEARCH = {"budget": 32, "rollout_depth": 3, "max_inputs": 12}

#: The timed calls' search seed.  Fixed, not drawn from ``--seed``: across
#: seeds a warm T8 search returns plans whose objective and peak memory
#: differ by up to 20% and 2.7x (README.md, "Seeds").
SEARCH_SEED = 0

AUTO_MESH = Mesh({"batch": 8, "model": 4})
MANUAL_MESH = Mesh({"batch": 16, "model": 2})
PIPE_MESH = Mesh({"stage": 4, "model": 2})


@dataclasses.dataclass(frozen=True)
class Program:
    label: str
    trace: Callable[[], TracedFunction]
    mesh: Mesh
    #: ``(search_seed, cache_dir) -> tactics``; a fresh list every call.
    schedule: Callable[[int, Optional[str]], List[Tactic]]
    #: Exclusive upper bound of each integer input, by leaf name.
    int_high: Dict[str, int]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    programs: Tuple[Program, ...]
    reduced: Tuple[Program, ...]
    #: Timed calls start from a copy of a cache a cold teacher call wrote.
    warm: bool = False


def _auto(axes: List[str], seed: int, cache_dir: Optional[str]) -> Tactic:
    return AutomaticPartition(axes, dict(SEARCH, seed=seed),
                              cache_dir=cache_dir)


def _t8_schedule(seed: int, cache_dir: Optional[str]) -> List[Tactic]:
    return [_auto(["batch", "model"], seed, cache_dir)]


def _gns_schedule(seed: int, cache_dir: Optional[str]) -> List[Tactic]:
    return [sched.edge_sharding(), _auto(["model"], seed, cache_dir)]


def _mlp_tiling(axis: str) -> Tactic:
    """Megatron-style tiling of every pipelined layer's MLP weights."""

    def spec(name, value):
        return {"up_w": 1, "down_w": 0}.get(name.split("/")[-1], UNKNOWN)

    tactic = ManualPartition({"0": spec}, axis=axis)
    tactic.name = "MP"
    return tactic


def _transformer_program(label: str, cfg, mesh: Mesh, schedule) -> Program:
    return Program(label, lambda: transformer.trace_training_step(cfg), mesh,
                   schedule, {"tokens": cfg.vocab, "targets": cfg.vocab})


def _t8(**dims) -> Program:
    return _transformer_program("T8", transformer.t32(**dims), AUTO_MESH,
                                _t8_schedule)


def _gns(**dims) -> Program:
    cfg = gns.gns(**dims)
    return Program("GNS", lambda: gns.trace_training_step(cfg), AUTO_MESH,
                   _gns_schedule,
                   {"senders": cfg.num_nodes, "receivers": cfg.num_nodes})


def _t32(**dims) -> Program:
    cfg = transformer.t32(**dims)
    return _transformer_program(
        "T32", cfg, MANUAL_MESH,
        lambda seed, cache_dir: _transformer_schedule(cfg, "BP+MP+Z3"))


def _it32(**dims) -> Program:
    cfg = transformer.it32(**dims)
    return Program(
        "IT32", lambda: transformer.trace_inference(cfg), MANUAL_MESH,
        lambda seed, cache_dir: _transformer_schedule(cfg, "BP+MP",
                                                      training=False),
        {"tokens": cfg.vocab})


def _pipe8(**dims) -> Program:
    cfg = pm.pipe8(**dims)
    return Program(
        "pipe8", lambda: pm.trace_pipeline_transformer(cfg), PIPE_MESH,
        lambda seed, cache_dir: [sched.pp("stage", "1f1b"),
                                 _mlp_tiling("model")],
        {})


def _transformer_schedule(cfg, name: str, training: bool = True):
    return sched.transformer_schedules(cfg, training=training)[name]


# The shapes are written out here, not taken from ``benchmarks/common.py``
# (``t32_paper``, ``it32_paper``, ``gns_paper``), so that an edit there does
# not change what this benchmark measures between two commits.
T8 = dict(num_layers=8, d_model=512, num_heads=8, d_head=64, ffw_dim=2048,
          vocab=4096, seq_len=128, batch=16)
T8_SMALL = dict(num_layers=1, d_model=16, num_heads=4, d_head=4, ffw_dim=32,
                vocab=32, seq_len=4, batch=8)
GNS = dict(num_nodes=2048, num_edges=16384, feature_dim=64, latent_dim=512,
           mlp_layers=5, message_steps=4, out_dim=64)
GNS_SMALL = dict(num_nodes=16, num_edges=32, feature_dim=4, latent_dim=8,
                 mlp_layers=2, message_steps=2, out_dim=2)
T32 = dict(num_layers=32, d_model=4096, num_heads=32, d_head=128,
           ffw_dim=16384, vocab=32768, seq_len=512, batch=48)
T32_SMALL = dict(T8_SMALL, batch=16)
IT32 = dict(num_layers=32, d_model=4096, num_heads=32, d_head=128,
            ffw_dim=16384, vocab=32768, batch=48, decode_steps=64)
IT32_SMALL = dict(T32_SMALL, decode_steps=4)
PIPE8 = dict(d_model=1024, ffw_dim=4096, batch=2048, num_microbatches=16)
PIPE8_SMALL = dict(num_layers=4, d_model=16, ffw_dim=32, batch=8,
                   num_microbatches=2)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "auto-t8",
        "cold search on T8 (4,445 ops): the unit of speed; condenser "
        "probes and propagation dominate",
        (_t8(**T8),), (_t8(**T8_SMALL),)),
    Workload(
        "auto-gns",
        "manual edge sharding composed with a cold search on GNS "
        "(3,496 ops): streaming estimation dominates",
        (_gns(**GNS),), (_gns(**GNS_SMALL),)),
    Workload(
        "warm-t8",
        "auto-t8 from a copy of a teacher call's cache: table hits and the "
        "learned prior, almost no condenser work",
        (_t8(**T8),), (_t8(**T8_SMALL),), warm=True),
    Workload(
        "manual-mix",
        "paper-scale manual schedules (T32 BP+MP+Z3, IT32 scan, pipelined "
        "stack) with no search: propagation and lowering only",
        (_t32(**T32), _it32(**IT32), _pipe8(**PIPE8)),
        (_t32(**T32_SMALL), _it32(**IT32_SMALL), _pipe8(**PIPE8_SMALL))),
)}
