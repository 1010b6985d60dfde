"""The virtual-time workloads: ``trace-sim`` and ``lp-sim``.

A seeded, diurnal and bursty three-tenant arrival trace is replayed in an
open loop through ``ServingGateway`` + ``TraceReplayer`` onto a
``synthetic_fleet`` with ``execution="sim"``: the control plane runs for
real, epochs are priced by the hwsim cost model on a virtual clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro import nn
from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.hfta.ops.factory import OpsLibrary
from repro.runtime import ServingGateway, TenantSpec, TraceReplayer, \
    TrainingJob, synthetic_fleet

from common import Round, percentile, tail_percentile


@dataclass(frozen=True)
class SimShape:
    """One sim workload's trace and fleet."""

    jobs: int
    devices: int
    max_width: int
    duration_s: float
    cycle_quantum_s: float
    mean_burst: float
    max_burst: int
    steps: tuple
    placement: str


TRACE_SIM = SimShape(jobs=6000, devices=256, max_width=32,
                     duration_s=3600.0, cycle_quantum_s=300.0,
                     mean_burst=12.0, max_burst=64, steps=(4, 8),
                     placement="greedy")
#: a smaller mixed-type fleet (synthetic_fleet cycles V100, RTX6000, A100,
#: TPUv3) under arrivals dense enough that the solver runs most cycles
LP_SIM = SimShape(jobs=2000, devices=32, max_width=8, duration_s=1800.0,
                  cycle_quantum_s=60.0, mean_burst=8.0, max_burst=48,
                  steps=(4, 8, 16), placement="lp")
PRIO_DEADLINE_S = 3600.0
FEATURES, CLASSES = 4, 2


class SimMLP(nn.Module):
    """Minimal fusible architecture: the sim never runs its tensors."""

    def __init__(self, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, 2, generator=generator)
        self.fc2 = lib.Linear(2, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def no_data(step):
    """Sim executors never read the stream; loss comes from the model."""
    return (None, None)


def job_factory(event) -> TrainingJob:
    """``TraceReplayer`` job factory: one sim job per arrival event."""
    return TrainingJob(
        name=event.name, build_model=SimMLP, data=no_data,
        steps=event.steps, epoch_steps=event.epoch_steps,
        seed=event.seed, tenant=event.tenant, user=event.user,
        priority=event.priority, workload=event.workload)


def sim_round(shape: SimShape, seed: int, tracer=None,
              measured=lambda: None, setup_only: bool = False) -> Round:
    """Generate the trace, build the gateway, replay it once.

    ``measured()`` is called when the timed part ends, before the checks;
    ``setup_only`` returns right after set-up.
    """
    t0 = time.perf_counter()
    trace = generate_serving_trace(ServingTraceConfig(
        num_jobs=shape.jobs, duration_s=shape.duration_s, seed=seed,
        tenants=(TenantLoad("batch", share=6.0),
                 TenantLoad("interactive", share=3.0),
                 TenantLoad("prio", share=1.0, priority=2,
                            deadline_s=PRIO_DEADLINE_S, deadline_rate=1.0)),
        mean_burst_size=shape.mean_burst, max_burst_size=shape.max_burst,
        steps_choices=shape.steps, epoch_steps_choices=(2,)))
    gateway = ServingGateway(
        tenants=(TenantSpec("batch", weight=1.0),
                 TenantSpec("interactive", weight=2.0),
                 TenantSpec("prio", weight=4.0, priority=2)),
        max_pending=shape.jobs + 1,
        devices=synthetic_fleet(shape.devices), max_width=shape.max_width,
        execution="sim", placement=shape.placement)
    replayer = TraceReplayer(gateway, trace, job_factory,
                             cycle_quantum_s=shape.cycle_quantum_s)
    # the replayer keeps one result per job id; count every delivery, so a
    # duplicated result cannot hide behind its dict
    delivered: Dict[int, List] = {}
    cycle = gateway.run_cycle

    def counted_cycle(max_jobs: int = 0):
        out = cycle(max_jobs)
        for result in out:
            delivered.setdefault(result.job_id, []).append(result)
        return out

    gateway.run_cycle = counted_cycle
    rnd = Round(setup_s=time.perf_counter() - t0, fleets=[gateway.fleet])
    if setup_only:
        return rnd

    start = time.perf_counter()
    replayer.run()
    rnd.wall_s = time.perf_counter() - start
    measured()

    metrics = gateway.metrics
    rnd.attempted = len(trace)
    if metrics.jobs_failed:
        rnd.errors.append(f"{metrics.jobs_failed} jobs failed")
    for event, ticket in zip(replayer.events, replayer.tickets):
        if event.deadline_s is not None:
            rnd.slo_deadlined += 1
        got = delivered.get(ticket.job_id, []) if ticket.admitted else []
        error = None
        if len(got) != 1:
            error = f"job {ticket.job_id}: {len(got)} results"
        elif got[0].steps_trained != event.steps:
            error = (f"job {ticket.job_id}: {got[0].steps_trained} of "
                     f"{event.steps} steps")
        if error:
            rnd.failed += 1
            rnd.slo_missed += event.deadline_s is not None
            # a job the gateway shed is failed, not wrong; an admitted job
            # must get exactly one full-budget result
            if ticket.admitted:
                rnd.errors.append(error)
            continue
        result = got[0]
        if event.deadline_s is not None and \
                result.finished_at > ticket.deadline:
            rnd.slo_missed += 1
        rnd.jobs_completed += 1
        rnd.result_steps += result.steps_trained
        # virtual seconds, from when the arrival was due
        rnd.turnaround_s.append(result.finished_at - event.time_s)
    rnd.makespan_s = metrics.simulated_makespan
    # fusion in virtual time: the cost model's width-1 seconds for every
    # completed job over the fused device-seconds the fleet spent
    serial_s = sum(gateway.placer.projected_seconds(
        event.workload, 1, event.steps) for event in replayer.events)
    fused_s = sum(record.seconds for record in metrics.records)
    rnd.fusion_speedup = serial_s / fused_s if fused_s else 0.0
    rnd.layer_steps, rnd.layer_wall_s = rnd.result_steps, rnd.wall_s
    return rnd


def fingerprint(rnd: Round) -> tuple:
    """What two same-seed replays must reproduce exactly."""
    v = rnd.turnaround_s
    tail = tail_percentile(len(v))
    return (rnd.makespan_s, rnd.jobs_completed,
            percentile(v, 50) if v else None,
            percentile(v, tail) if v else None)
