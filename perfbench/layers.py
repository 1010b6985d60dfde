"""Per-layer spans and counters for the traced runs.

:func:`install` wraps the public entry points of every runtime layer in
tracer spans; :func:`adopt_model` wraps the ``forward`` of a model and of
its fused ops; :func:`layer_metrics` folds the spans and the runtime's own
counters into the per-layer metrics that ``BENCHMARK.json`` names.  Span
names are the metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.hfta import losses as hfta_losses
from repro.hfta import optim as hfta_optim
from repro.nn.tensor import Tensor
from repro.runtime import (ArrayExecutor, Batcher, CheckpointStore,
                           FleetPlacer, FleetScheduler, JobQueue,
                           LPFleetPlacer, RecoveryManager, ServingGateway,
                           TrainingArrayEngine)
from repro.runtime import engine as runtime_engine
from repro.runtime import placement as runtime_placement
from repro.runtime import placement_lp as runtime_placement_lp
from repro.runtime import sim as runtime_sim

from tracer import Tracer

#: model families of the real-compute sweep (job names start with these)
FAMILIES = ("pointnet", "resnet", "mobilenet")

#: fused-op modules -> the op kind their forward is reported under
OP_KINDS = {"repro.hfta.ops.conv": "conv", "repro.hfta.ops.linear": "linear",
            "repro.hfta.ops.norm": "norm", "repro.hfta.ops.pooling": "pool",
            "repro.hfta.ops.activation": "activation"}

#: every per-layer metric, in BENCHMARK.json order: name -> unit
PER_LAYER = {
    "data.wait_s": "s",
    "models.forward_s": "s",
    **{f"hfta.ops.{kind}.forward_s": "s"
       for kind in ("conv", "linear", "norm", "pool", "activation")},
    **{f"models.{family}.{mode}_step_s": "s"
       for family in FAMILIES for mode in ("fused", "serial")},
    "nn.backward_s": "s",
    "hfta.optim.step_s": "s",
    "hfta.losses.s": "s",
    **{f"hfta.fusion.{op}_s": "s"
       for op in ("load", "export", "split", "merge")},
    **{f"hfta.fusion.{op}s": "count"
       for op in ("load", "export", "split", "merge")},
    "runtime.bufferpool.hit_rate": "ratio",
    "runtime.engine.prepare_s": "s",
    "runtime.engine.step_epoch_s": "s",
    "runtime.engine.admit_s": "s",
    "runtime.engine.epochs": "count",
    "runtime.engine.evictions": "count",
    "runtime.engine.admissions": "count",
    "runtime.engine.width_efficiency": "ratio",
    "runtime.checkpoint.save_s": "s",
    "runtime.checkpoint.load_s": "s",
    "runtime.checkpoint.wal_append_s": "s",
    "runtime.checkpoint.rebuild_s": "s",
    "runtime.checkpoint.saves": "count",
    "runtime.checkpoint.skipped": "count",
    "runtime.checkpoint.bytes_written": "bytes",
    "runtime.checkpoint.wal_appends": "count",
    "runtime.checkpoint.recovered_jobs": "count",
    "runtime.fleet.cycle_s": "s",
    "runtime.fleet.run_executor_s": "s",
    "runtime.fleet.worker_busy_share": "ratio",
    "runtime.fleet.useful_step_share": "ratio",
    "runtime.fleet.steals": "count",
    "runtime.gateway.submit_s": "s",
    "runtime.gateway.run_cycle_s": "s",
    "runtime.gateway.admitted": "count",
    "runtime.gateway.shed": "count",
    "runtime.queue.pop_fair_s": "s",
    "runtime.queue.wait_p50_s": "s",
    "runtime.batcher.form_cohorts_s": "s",
    "runtime.batcher.build_template_s": "s",
    "runtime.batcher.templates_built": "count",
    "runtime.batcher.cohorts": "count",
    "runtime.placement.place_s": "s",
    "hwsim.estimate_s": "s",
    "hwsim.estimates": "count",
    "runtime.placement_lp.solve_s": "s",
    "runtime.placement_lp.solves": "count",
    "runtime.placement_lp.fallback_share": "ratio",
    "runtime.placement_lp.migrations": "count",
    "runtime.sim.step_epoch_s": "s",
    "runtime.sim.epochs": "count",
    "runtime.metrics.scheduler_decisions": "count",
    "failed_share": "ratio",
    "slo_miss_rate": "ratio",
    "tracing_overhead": "ratio",
}


class RoundProbe:
    """What the wrappers observe during one traced round (beyond spans)."""

    def __init__(self):
        #: the fleet's worker threads update these concurrently
        self.lock = threading.Lock()
        #: (id of the job's queue, job id) -> runtime-clock reading
        self.admitted_at: Dict[tuple, float] = {}
        self.first_epoch_at: Dict[tuple, float] = {}
        self.slot_steps = 0             # slot-steps executed
        self.width_steps = 0            # width cap x gang steps executed
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.cohorts = 0


def _family(executor) -> Optional[str]:
    """``models.<family>.<mode>_step`` for sweep arrays, else ``None``."""
    if not executor.slots:
        return None
    prefix = executor.slots[0].job.name.split("_", 1)[0]
    if prefix not in FAMILIES:
        return None
    mode = "fused" if executor.live_width > 1 else "serial"
    return f"models.{prefix}.{mode}_step"


def _epoch_span(args) -> str:
    executor = args[0]
    if executor.is_sim:
        return "runtime.sim.step_epoch"
    return _family(executor) or "runtime.engine.step_epoch"


def _clock(executor) -> float:
    engine = executor.engine
    return engine.sim_time if executor.is_sim else time.monotonic()


def install(tracer: Tracer, probe: RoundProbe) -> None:
    """Wrap every runtime layer's public entry points in spans."""
    def epoch_before(args):
        executor = args[0]
        now = _clock(executor)
        queue = id(executor.engine.queue)
        with probe.lock:
            for slot in executor.slots:
                if slot.progress == 0:
                    probe.first_epoch_at.setdefault(
                        (queue, slot.sub.job_id), now)
        return [(slot, slot.progress) for slot in executor.slots]

    def epoch_after(args, result, token, seconds):
        executor = args[0]
        deltas = [slot.progress - before for slot, before in token]
        with probe.lock:
            probe.slot_steps += sum(deltas)
            probe.width_steps += executor.width_cap * max(deltas, default=0)

    def submit_after(args, job_id, token, seconds):
        fleet = args[0]
        now = fleet.clock() if fleet.clock is not None else time.monotonic()
        with probe.lock:
            probe.admitted_at[(id(fleet.queue), job_id)] = now

    def executor_after(args, result, token, seconds):
        with probe.lock:
            probe.busy_s[args[0].device_name] += seconds

    def cohorts_after(args, result, token, seconds):
        with probe.lock:
            probe.cohorts += len(result[0])

    patch = tracer.patch
    patch(ArrayExecutor, "step_epoch", _epoch_span,
          ident=lambda args: args[0].array_id,
          before=epoch_before, after=epoch_after)
    patch(ArrayExecutor, "prepare", "runtime.engine.prepare",
          ident=lambda args: args[0].array_id)
    patch(ArrayExecutor, "admit", "runtime.engine.admit",
          ident=lambda args: args[0].array_id)
    patch(Tensor, "backward", "nn.backward")
    for cls in (hfta_optim.Adam, hfta_optim.AdamW, hfta_optim.SGD,
                hfta_optim.Adadelta):
        if "step" in vars(cls):
            patch(cls, "step", "hfta.optim.step")
    for cls in (hfta_losses.FusedCrossEntropyLoss, hfta_losses.FusedNLLLoss,
                hfta_losses.FusedMSELoss):
        patch(cls, "forward", "hfta.losses")
    patch(hfta_losses._FusedLoss, "per_model", "hfta.losses")
    for fn, op in (("load_from_unfused", "load"),
                   ("export_to_unfused", "export"),
                   ("split_fused", "split"), ("merge_fused", "merge")):
        patch(runtime_engine, fn, f"hfta.fusion.{op}")
    patch(CheckpointStore, "save_slot", "runtime.checkpoint.save")
    patch(CheckpointStore, "load_slot", "runtime.checkpoint.load")
    for method in ("journal_admission", "journal_state", "journal_array"):
        patch(RecoveryManager, method, "runtime.checkpoint.wal_append")
    for method in ("unsettled", "rebuild_fleet"):
        patch(RecoveryManager, method, "runtime.checkpoint.rebuild")
    patch(FleetScheduler, "run_cycle", "runtime.fleet.cycle")
    patch(FleetScheduler, "submit", "runtime.fleet.submit",
          after=submit_after)
    patch(TrainingArrayEngine, "run_executor", "runtime.fleet.run_executor",
          ident=lambda args: args[1].array_id, after=executor_after)
    patch(ServingGateway, "submit", "runtime.gateway.submit")
    patch(ServingGateway, "run_cycle", "runtime.gateway.run_cycle")
    patch(JobQueue, "pop_fair", "runtime.queue.pop_fair")
    patch(Batcher, "form_cohorts", "runtime.batcher.form_cohorts",
          after=cohorts_after)
    patch(Batcher, "build_template", "runtime.batcher.build_template")
    patch(FleetPlacer, "place", "runtime.placement.place")
    patch(LPFleetPlacer, "place", "runtime.placement.place")
    for module in (runtime_placement, runtime_sim):
        patch(module, "estimate_array_cost", "hwsim.estimate")
    patch(runtime_placement_lp, "solve_instance",
          "runtime.placement_lp.solve")


def adopt_model(tracer: Tracer, model) -> None:
    """Wrap ``forward`` of a model's class and of its fused ops' classes.

    Classes, not instances: the re-fusion primitives deep-copy modules,
    and a per-instance wrapper would be copied along still bound to the
    old instance.
    """
    tracer.patch(type(model), "forward", "models.forward")
    for module in model.modules():
        kind = OP_KINDS.get(type(module).__module__)
        if kind is not None:
            # patch the class that defines forward, once for its subclasses
            owner = next(cls for cls in type(module).__mro__
                         if "forward" in vars(cls))
            tracer.patch(owner, "forward", f"hfta.ops.{kind}.forward")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(fleets, attr: str) -> float:
    return sum(getattr(fleet.metrics, attr) for fleet in fleets)


def layer_metrics(tracer: Tracer, probe: RoundProbe, fleets, wall_s: float,
                  result_steps: int, failed_share: float,
                  slo_miss_rate: float) -> Dict[str, float]:
    """One traced round's per-layer metrics (tracing_overhead excluded).

    ``fleets`` are every fleet the round drove, ``wall_s`` their summed
    timed wall and ``result_steps`` the steps in all their results.
    """
    self_s = tracer.self_seconds()
    total_s = tracer.total_seconds()
    calls = tracer.calls()
    out: Dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = self_s.get(name[:-2], 0.0)
    # a sweep array's step is reported inclusive; what its span holds
    # beyond the model stack is the engine's own per-epoch overhead
    for family in FAMILIES:
        for mode in ("fused", "serial"):
            span = f"models.{family}.{mode}_step"
            out[f"{span}_s"] = total_s.get(span, 0.0)
            out["runtime.engine.step_epoch_s"] += self_s.get(span, 0.0)
    for op in ("load", "export", "split", "merge"):
        out[f"hfta.fusion.{op}s"] = calls.get(f"hfta.fusion.{op}", 0)
    pools = [worker.engine.pool for fleet in fleets
             for worker in fleet.workers.values()]
    hits = sum(pool.hits for pool in pools)
    out["runtime.bufferpool.hit_rate"] = _ratio(
        hits, hits + sum(pool.misses for pool in pools))
    out["runtime.engine.epochs"] = sum(
        count for name, count in calls.items()
        if name == "runtime.engine.step_epoch"
        or name.startswith("models.") and name.endswith("_step"))
    out["runtime.engine.evictions"] = _sum(fleets, "jobs_evicted")
    out["runtime.engine.admissions"] = _sum(fleets, "jobs_admitted")
    out["runtime.engine.width_efficiency"] = _ratio(probe.slot_steps,
                                                    probe.width_steps)
    out["runtime.checkpoint.saves"] = _sum(fleets, "checkpoints_written")
    out["runtime.checkpoint.skipped"] = _sum(fleets, "checkpoints_skipped")
    out["runtime.checkpoint.bytes_written"] = _sum(
        fleets, "checkpoint_bytes_written")
    out["runtime.checkpoint.wal_appends"] = calls.get(
        "runtime.checkpoint.wal_append", 0)
    out["runtime.checkpoint.recovered_jobs"] = _sum(fleets, "jobs_recovered")
    # fleets of one round run one after another on the same device names
    devices = {name for fleet in fleets for name in fleet.workers}
    out["runtime.fleet.worker_busy_share"] = _ratio(
        sum(probe.busy_s.get(name, 0.0) for name in devices),
        len(devices) * wall_s)
    out["runtime.fleet.useful_step_share"] = _ratio(result_steps,
                                                    probe.slot_steps)
    out["runtime.fleet.steals"] = _sum(fleets, "plans_stolen")
    out["runtime.gateway.admitted"] = sum(
        tenant.get("admitted", 0) for fleet in fleets
        for tenant in fleet.metrics.tenant_summary().values())
    out["runtime.gateway.shed"] = _sum(fleets, "jobs_shed")
    waits: List[float] = [probe.first_epoch_at[key] - admitted
                          for key, admitted in probe.admitted_at.items()
                          if key in probe.first_epoch_at]
    out["runtime.queue.wait_p50_s"] = (statistics.median(waits)
                                       if waits else 0.0)
    out["runtime.batcher.templates_built"] = calls.get(
        "runtime.batcher.build_template", 0)
    out["runtime.batcher.cohorts"] = probe.cohorts
    out["hwsim.estimates"] = calls.get("hwsim.estimate", 0)
    solves = _sum(fleets, "lp_solves")
    out["runtime.placement_lp.solves"] = solves
    out["runtime.placement_lp.fallback_share"] = _ratio(
        _sum(fleets, "lp_fallback_solves"), solves)
    out["runtime.placement_lp.migrations"] = _sum(fleets,
                                                  "migrations_emitted")
    out["runtime.sim.epochs"] = calls.get("runtime.sim.step_epoch", 0)
    out["runtime.metrics.scheduler_decisions"] = _sum(
        fleets, "scheduler_decisions")
    out["failed_share"] = failed_share
    out["slo_miss_rate"] = slo_miss_rate
    return out
