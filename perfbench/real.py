"""The real-compute workloads: ``sweep-real`` and ``tune-durable``.

Both drive a two-device ``FleetScheduler`` in ``execution="real"`` (two
worker threads, BLAS pinned to one thread by ``run.py``) through its
public API only, and check every returned checkpoint.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

from repro import nn
from repro import optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import V100
from repro.models import MobileNetV3Large, PointNetCls, ResNet18
from repro.nn import functional as F
from repro.runtime import (CheckpointStore, FleetScheduler, JobState,
                           RecoveryManager, TrainingJob, synthetic_fleet)

import layers
from common import Round, Stream, compare_state, finite

#: two identical devices: the fleet's placement never has a preference
DEVICES = synthetic_fleet(2, base=(V100,))

# --------------------------------------------------------------------- #
# sweep-real: learning-rate sweeps over three paper models
# --------------------------------------------------------------------- #
SWEEP_WIDTH = 8                  # fused width: each array holds 8 jobs
SWEEP_JOBS = 16                  # jobs per model family: two full arrays
SWEEP_STEPS = 2
SWEEP_EPOCH_STEPS = 1
SWEEP_BATCH = 8

#: family -> (builder(num_models, generator), input shape, classes, loss,
#: hwsim workload)
FAMILY_SPECS = {
    "pointnet": (lambda b, g: PointNetCls(num_classes=8, num_models=b,
                                          width=0.25, dropout=0.0,
                                          generator=g),
                 (3, 128), 8, "nll", "pointnet_cls"),
    "resnet": (lambda b, g: ResNet18(num_classes=10, num_models=b,
                                     width=0.125, generator=g),
               (3, 16, 16), 10, "cross_entropy", "resnet18"),
    "mobilenet": (lambda b, g: MobileNetV3Large(num_classes=10, num_models=b,
                                                width=0.25, dropout=0.0,
                                                generator=g),
                  (3, 16, 16), 10, "cross_entropy", "mobilenet_v3_large"),
}


class ModelBuilder:
    """``build_model`` for a job; in traced rounds it adopts each model."""

    def __init__(self, make, tracer=None):
        self.make = make
        self.tracer = tracer

    def __call__(self, num_models=None, generator=None):
        model = self.make(num_models, generator)
        if self.tracer is not None:
            layers.adopt_model(self.tracer, model)
        return model


def _batches(rng, shape, classes, batch, steps):
    return [(rng.standard_normal((batch,) + shape).astype(np.float32),
             rng.integers(0, classes, size=batch)) for _ in range(steps)]


def _submit(fleet, jobs) -> Dict[int, float]:
    submitted = {}
    for job in jobs:
        at = time.monotonic()
        submitted[fleet.submit(job)] = at
    return submitted


def busiest_device_s(fleet) -> float:
    """The busiest device's summed measured array seconds: the makespan of
    the executed schedule on the real workloads' wall clock."""
    busy: Dict[str, float] = {}
    for record in fleet.metrics.records:
        busy[record.device] = busy.get(record.device, 0.0) + record.seconds
    return max(busy.values(), default=0.0)


def _drain(fleet, max_jobs: int = 0) -> Dict[int, List]:
    """Run the fleet in cycles of at most ``max_jobs`` jobs (0: no bound)
    until idle; every returned result, grouped by job id."""
    out: Dict[int, List] = {}
    while fleet.queue.pending_count:
        for result in fleet.run_cycle(max_jobs):
            out.setdefault(result.job_id, []).append(result)
    return out


def result_error(name: str, got: List, steps: int) -> Optional[str]:
    """``None`` when a job got exactly one result of ``steps`` steps with a
    finite loss curve, else why not."""
    if len(got) != 1:
        return f"{name}: {len(got)} results"
    if got[0].steps_trained != steps:
        return f"{name}: {got[0].steps_trained} of {steps} steps"
    if not finite(got[0].loss_curve):
        return f"{name}: non-finite loss curve"
    return None


def _failed(rnd: Round, error: str) -> None:
    rnd.failed += 1
    rnd.errors.append(error)


def sweep_round(seed: int, tracer=None, measured=lambda: None,
                setup_only: bool = False) -> Round:
    """Submit all sweeps at once, then the width-1 baseline; time both.

    ``measured()`` is called when the timed part ends, before the checks;
    ``setup_only`` returns right after set-up.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    jobs: List[TrainingJob] = []
    baseline: List[TrainingJob] = []
    for family, (make, shape, classes, loss, workload) in \
            FAMILY_SPECS.items():
        builder = ModelBuilder(make, tracer)
        lrs = 10.0 ** rng.uniform(-3.5, -2.5, size=SWEEP_JOBS)
        for i, lr in enumerate(lrs):
            job_seed = int(rng.integers(2 ** 31))
            data = Stream(_batches(np.random.default_rng(job_seed), shape,
                                   classes, SWEEP_BATCH, SWEEP_STEPS))
            jobs.append(TrainingJob(
                name=f"{family}_lr{i}", build_model=builder,
                config={"lr": float(lr), "optimizer": "adam"}, data=data,
                steps=SWEEP_STEPS, epoch_steps=SWEEP_EPOCH_STEPS,
                seed=job_seed, loss=loss, workload=workload))
        baseline.append(dataclasses.replace(jobs[-SWEEP_JOBS]))
    fleet = FleetScheduler(devices=DEVICES, max_width=SWEEP_WIDTH)
    serial = FleetScheduler(devices=DEVICES, max_width=1)
    rnd = Round(setup_s=time.perf_counter() - t0, fleets=[fleet, serial])
    if setup_only:
        return rnd

    start = time.perf_counter()
    submitted = _submit(fleet, jobs)
    results = _drain(fleet)
    rnd.wall_s = time.perf_counter() - start

    start = time.perf_counter()
    base_submitted = _submit(serial, baseline)
    base_results = _drain(serial)
    base_wall = time.perf_counter() - start
    measured()

    rnd.attempted = len(jobs) + len(baseline)
    # fused results that passed every check: name -> (result, submit time)
    good = {}
    for job_id, at in submitted.items():
        name = fleet.queue.get(job_id).job.name
        got = results.get(job_id, [])
        error = result_error(name, got, SWEEP_STEPS)
        if error:
            _failed(rnd, error)
        else:
            good[name] = (got[0], at)
    base_steps = 0
    for job_id in base_submitted:
        name = serial.queue.get(job_id).job.name
        got = base_results.get(job_id, [])
        error = result_error(f"{name} width-1", got, SWEEP_STEPS)
        if error:
            _failed(rnd, error)
            continue
        base_steps += got[0].steps_trained
        if name in good:
            error = compare_state(good[name][0].checkpoint, got[0].checkpoint,
                                  f"{name} width-1 vs fused export")
            if error:
                _failed(rnd, error)
                del good[name]
    for result, at in good.values():
        rnd.jobs_completed += 1
        rnd.result_steps += result.steps_trained
        rnd.turnaround_s.append(result.finished_at - at)
    rnd.makespan_s = busiest_device_s(fleet)
    rnd.serial_steps, rnd.serial_s = base_steps, base_wall
    rnd.layer_steps = rnd.result_steps + base_steps
    rnd.layer_wall_s = rnd.wall_s + base_wall
    return rnd


# --------------------------------------------------------------------- #
# tune-durable: HFHT-style tuning with checkpoints, WAL and one crash
# --------------------------------------------------------------------- #
TUNE_JOBS = 64
TUNE_STEPS = 24
TUNE_EPOCH_STEPS = 8             # 3 epochs budget
TUNE_WIDTH = 8
TUNE_CYCLE_JOBS = 16             # run_cycle(max_jobs=...) bound
TUNE_FEATURES, TUNE_HIDDEN, TUNE_CLASSES, TUNE_BATCH = 32, 128, 4, 64
CRASH_EPOCH = 2                  # the crash job dies entering its epoch 3
CHECK_PER_EPOCHS = 3             # width-1 sample: jobs per stop epoch
#: checkpoint stores live here, inside the checkout, one per round
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class TuneMLP(nn.Module):
    """The tuned jobs' architecture, written once via OpsLibrary."""

    def __init__(self, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(TUNE_FEATURES, TUNE_HIDDEN, generator=generator)
        self.fc2 = lib.Linear(TUNE_HIDDEN, TUNE_CLASSES, generator=generator)
        # tanh, not ReLU: a float32 rounding difference between fused and
        # serial arithmetic can flip a ReLU unit on or off for a sample,
        # which moves that unit's weights by far more than rtol 1e-4
        self.act = lib.Tanh()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class StopAfter:
    """Early stop after a seeded number of epochs (never on loss values)."""

    def __init__(self, epochs: int):
        self.epochs = epochs

    def __call__(self, epochs_done: int, curve) -> bool:
        return epochs_done >= self.epochs


class Crash:
    """``fleet.chaos`` hook: kill the device running ``job`` once, at the
    epoch boundary where that job's progress reaches ``progress``."""

    def __init__(self, job: str, progress: int):
        self.job = job
        self.progress = progress
        self.armed = True
        self.array_id = None
        self.live_jobs: List[int] = []

    def __call__(self, device: str, executor) -> bool:
        if not self.armed:
            return False
        for slot in executor.slots:
            if slot.job.name == self.job and slot.progress == self.progress:
                self.armed = False
                self.array_id = executor.array_id
                self.live_jobs = [s.sub.job_id for s in executor.slots]
                return True
        return False


def tune_round(seed: int, tracer=None, measured=lambda: None,
               setup_only: bool = False) -> Round:
    """Drain 64 early-stopping jobs in bounded cycles through one crash,
    then rerun the checked sample on a width-1 fleet; time both.

    ``measured()`` is called when the timed part ends, before the checks;
    ``setup_only`` returns right after set-up.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    builder = ModelBuilder(lambda b, g: TuneMLP(b, g), tracer)
    # every seed stops the same multiset of epochs (an equal share of each
    # 1..3), so seeds differ in the order of the work, not in its amount
    epochs = TUNE_STEPS // TUNE_EPOCH_STEPS
    stop_epochs = rng.permutation(
        np.arange(TUNE_JOBS) % epochs + 1)
    jobs = []
    for i in range(TUNE_JOBS):
        job_seed = int(rng.integers(2 ** 31))
        data = Stream(_batches(np.random.default_rng(job_seed),
                               (TUNE_FEATURES,), TUNE_CLASSES, TUNE_BATCH,
                               TUNE_STEPS))
        jobs.append(TrainingJob(
            name=f"tune_trial{i}", build_model=builder,
            config={"lr": float(10.0 ** rng.uniform(-3.0, -2.0)),
                    "optimizer": "adam"},
            data=data, steps=TUNE_STEPS, epoch_steps=TUNE_EPOCH_STEPS,
            seed=job_seed, stop=StopAfter(int(stop_epochs[i]))))
    # the crash job: the first job that is still training at CRASH_EPOCH
    victim = next(job for job, k in zip(jobs, stop_epochs) if k > CRASH_EPOCH)
    chaos = Crash(victim.name, CRASH_EPOCH * TUNE_EPOCH_STEPS)
    root = os.path.join(OUT_DIR, f"tune-{os.getpid()}")
    fleets, recoveries = [], []
    # the fused fleet, and the width-1 fleet the checked sample reruns on:
    # the same two devices, the same checkpoint and WAL settings
    for width, where in ((TUNE_WIDTH, "fused"), (1, "serial")):
        shutil.rmtree(os.path.join(root, where), ignore_errors=True)
        store = CheckpointStore(os.path.join(root, where))
        recoveries.append(RecoveryManager(store))
        fleets.append(FleetScheduler(devices=DEVICES, max_width=width,
                                     store=store, checkpoint_every=1,
                                     recovery=recoveries[-1]))
    fleet, serial = fleets
    fleet.chaos = chaos
    rnd = Round(setup_s=time.perf_counter() - t0, fleets=fleets)

    try:
        if setup_only:
            return rnd
        start = time.perf_counter()
        submitted = _submit(fleet, jobs)
        results = _drain(fleet, TUNE_CYCLE_JOBS)
        rnd.wall_s = time.perf_counter() - start

        # the width-1 sample: seeded, the same count of each stop epoch,
        # so every seed reruns the same amount of work
        by_id = {job_id: fleet.queue.get(job_id).job for job_id in submitted}
        pick = np.random.default_rng(seed + 1)
        sample = sorted(int(i) for k in range(1, epochs + 1)
                        for i in pick.choice(
                            [i for i in submitted
                             if by_id[i].stop.epochs == k],
                            size=CHECK_PER_EPOCHS, replace=False))
        start = time.perf_counter()
        base_submitted = _submit(
            serial, [dataclasses.replace(by_id[i]) for i in sample])
        base_results = _drain(serial, TUNE_CYCLE_JOBS)
        base_wall = time.perf_counter() - start
        unsettled = [len(r.unsettled()) for r in recoveries]
        measured()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    rnd.attempted = len(jobs) + len(sample)
    if chaos.armed:
        rnd.errors.append(f"crash on {victim.name} never fired")
    if any(unsettled):
        rnd.errors.append(f"WAL left {unsettled} jobs unsettled")

    def expected(job):
        return min(TUNE_STEPS, job.stop.epochs * TUNE_EPOCH_STEPS)

    good = {}                    # job id -> (result, submit time)
    for job_id, at in submitted.items():
        job, got = by_id[job_id], results.get(job_id, [])
        lost = []
        if not got and fleet.queue.state(job_id) == JobState.COMPLETED \
                and fleet.queue.result(job_id).array_id == chaos.array_id:
            # the known defect: the crashed array retired this job before
            # the crash and no cycle returned its result.  The queue holds
            # it; it is checked like a returned one and counted apart
            got = lost = [fleet.queue.result(job_id)]
        error = result_error(job.name, got, expected(job))
        if error:
            _failed(rnd, error)
            continue
        good[job_id] = (got[0], at)
        if lost:
            rnd.lost_results += 1
            rnd.lost_steps += got[0].steps_trained

    serial_by_name = {serial.queue.get(i).job.name: base_results.get(i, [])
                      for i in base_submitted}
    serial_steps = 0
    # checked against plain serial training: the width-1 sample, and on
    # the fused side also every job of the crashed array, live or retired
    crashed = {job_id for job_id in good
               if good[job_id][0].array_id == chaos.array_id}
    for job_id in sorted(set(sample) | set(chaos.live_jobs) | crashed):
        job = by_id[job_id]
        reference = _train_serially(job, expected(job))
        if job_id in sample:
            got = serial_by_name[job.name]
            error = result_error(f"{job.name} width-1", got, expected(job)) \
                or compare_state(got[0].checkpoint, reference,
                                 f"{job.name} width-1 vs serial training")
            if error:
                _failed(rnd, error)
            else:
                serial_steps += got[0].steps_trained
        if job_id in good:
            error = compare_state(good[job_id][0].checkpoint, reference,
                                  f"{job.name} vs serial training")
            if error:
                _failed(rnd, error)
                del good[job_id]
    for result, at in good.values():
        rnd.jobs_completed += 1
        rnd.result_steps += result.steps_trained
        rnd.turnaround_s.append(result.finished_at - at)
    rnd.makespan_s = busiest_device_s(fleet)
    rnd.serial_steps, rnd.serial_s = serial_steps, base_wall
    # the per-layer step share counts returned results only
    rnd.layer_steps = rnd.result_steps - rnd.lost_steps + serial_steps
    rnd.layer_wall_s = rnd.wall_s + base_wall
    return rnd


def _train_serially(job: TrainingJob, steps: int):
    """The job trained alone with the plain (unfused) Adam: the reference."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    for step in range(steps):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(model(nn.tensor(x)), y).backward()
        opt.step()
    return model
