"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-real --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced rounds and prints every per-layer metric plus the
tracing overhead, and writes the Chrome trace and the per-layer self-time
table under ``perfbench/out/``.  The last line of standard output is the
JSON result; the exit code is non-zero when an output check fails.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

# one BLAS thread per worker: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: end-to-end metrics, in BENCHMARK.json order: name -> unit
END_TO_END = {
    "setup_s": "s",
    "model_steps_per_s": "1/s",
    "fusion_speedup": "ratio",
    "jobs_per_s": "1/s",
    "turnaround_p50_s": "s",
    "turnaround_tail_s": "s",
    "virtual_turnaround_p50_s": "s",
    "virtual_turnaround_tail_s": "s",
    "sim_makespan_s": "s",
    "peak_rss_mb": "MiB",
}

#: rounds a run makes at least: a traced run needs an untraced and a
#: traced round
MIN_ROUNDS = 2
#: round r of a run generates its inputs from sub-seed r mod K.  A sim
#: run replays each of its K traces and the first one twice: the
#: same-seed determinism check.  tune-durable cycles too, so its pooled
#: turnaround sample count, and with it the tail percentile, does not
#: depend on how many rounds fit in a run.  sweep-real never repeats.
SUBSEED_CYCLE = {"tune-durable": 16, "trace-sim": 4, "lp-sim": 8}
#: extra set-ups (no drain) before every round, so setup_s is a median
#: over samples spread across the whole run: set-up time drifts between
#: host speed regimes that last a second or two
SETUPS_PER_ROUND = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-real", "tune-durable", "trace-sim",
                                 "lp-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def round_function(workload: str):
    import real
    import sims
    return {
        "sweep-real": real.sweep_round,
        "tune-durable": real.tune_round,
        "trace-sim": lambda *a, **k: sims.sim_round(sims.TRACE_SIM, *a, **k),
        "lp-sim": lambda *a, **k: sims.sim_round(sims.LP_SIM, *a, **k),
    }[workload]


def subseed(seed: int, index: int, cycle: int = 0) -> int:
    """The input seed of round ``index`` of a run with seed ``seed``."""
    return seed * 1000 + (index % cycle if cycle else index)


def run_rounds(args):
    """Rounds until ``--seconds`` have passed; traced rounds alternate."""
    import layers
    from common import Stream
    from tracer import Tracer

    run_round = round_function(args.workload)
    cycle = SUBSEED_CYCLE.get(args.workload, 0)
    min_rounds = MIN_ROUNDS
    if args.workload.endswith("-sim"):
        # every trace at least once; the first twice (or each traced and not)
        min_rounds = 2 * cycle if args.trace else cycle + 1
    rounds, traced_walls, untraced_walls = [], [], []
    last_tracer = None
    deadline = time.perf_counter() + args.seconds
    setups = []
    while True:
        # a traced run pairs rounds: each sub-seed untraced, then traced
        traced = bool(args.trace) and len(rounds) % 2 == 1
        index = len(rounds) // 2 if args.trace else len(rounds)
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            setups.append(run_round(subseed(args.seed, index, cycle),
                                    setup_only=True).setup_s)
        # earlier rounds' garbage is collected here, not inside a timing
        gc.collect()
        tracer = probe = None
        if traced:
            tracer, probe = Tracer(), layers.RoundProbe()
            layers.install(tracer, probe)
            tracer.patch(Stream, "__call__", "data.wait")
        try:
            rnd = run_round(subseed(args.seed, index, cycle),
                            tracer=tracer,
                            measured=tracer.uninstall if traced
                            else (lambda: None))
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else untraced_walls).append(rnd.wall_s)
        if traced:
            rnd.layers = layers.layer_metrics(
                tracer, probe, rnd.fleets, rnd.layer_wall_s, rnd.layer_steps,
                (rnd.failed + rnd.lost_results) / rnd.attempted,
                rnd.slo_missed / rnd.slo_deadlined if rnd.slo_deadlined
                else 0.0)
            last_tracer = tracer
        rnd.fleets = []
        rnd.subseed = subseed(args.seed, index, cycle)
        rounds.append(rnd)
        setups.append(rnd.setup_s)
        if len(rounds) >= min_rounds and time.perf_counter() >= deadline:
            return rounds, setups, traced_walls, untraced_walls, last_tracer


def summarize(args, rounds, setups, traced_walls, untraced_walls):
    """Fold the rounds into the reported metrics and the check verdict."""
    import layers
    import sims
    from common import median, peak_rss_mb, percentile, tail_percentile

    errors = [e for rnd in rounds for e in rnd.errors]
    # rounds on one sub-seed: the first is the sample, repeats are checks;
    # wall-time metrics take the median per sub-seed first, so a trace
    # that happened to run more often does not weigh more
    by_seed = {}
    for rnd in rounds:
        by_seed.setdefault(rnd.subseed, []).append(rnd)
    first = {seed: group[0] for seed, group in by_seed.items()}
    distinct = list(first.values())

    def per_seed_median(rate):
        return median([median([rate(r) for r in group])
                       for group in by_seed.values()])

    if args.workload.endswith("-sim"):
        for rnd in rounds:
            want = sims.fingerprint(first[rnd.subseed])
            if sims.fingerprint(rnd) != want:
                errors.append(f"same-seed replays differ: {want} vs "
                              f"{sims.fingerprint(rnd)}")
        # a trace holds thousands of jobs: quantiles per trace, median
        # over traces (pooled, the highest percentile would always land on
        # the same cycle-quantum-aligned job)
        samples = [rnd.turnaround_s for rnd in distinct]
    else:
        # a real round holds tens of jobs: pool the rounds
        samples = [[t for rnd in distinct for t in rnd.turnaround_s]]
    counts = [len(sample) for sample in samples]
    tail_q = tail_percentile(min(counts))
    p50 = tail = 0.0
    if min(counts):
        p50 = median([percentile(sample, 50) for sample in samples])
        tail = median([percentile(sample, tail_q) for sample in samples])
    steps_per_s = per_seed_median(lambda r: r.result_steps / r.wall_s)
    serial_s = sum(r.serial_s for r in rounds)
    if serial_s:
        # real workloads: against the serial rate pooled over the run
        fusion = steps_per_s / (sum(r.serial_steps for r in rounds)
                                / serial_s)
    else:
        fusion = median([r.fusion_speedup for r in distinct])
    end_to_end = {
        "setup_s": median(setups),
        "model_steps_per_s": steps_per_s,
        "fusion_speedup": fusion,
        "jobs_per_s": per_seed_median(lambda r: r.jobs_completed / r.wall_s),
        "turnaround_p50_s": p50,
        "turnaround_tail_s": tail,
        # the runtime's clock is the wall clock on real workloads and the
        # virtual clock on sim workloads, so both pairs are one quantity
        "virtual_turnaround_p50_s": p50,
        "virtual_turnaround_tail_s": tail,
        "sim_makespan_s": median([r.makespan_s for r in distinct]),
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    lost = sum(r.lost_results for r in rounds)
    info = [f"rounds={len(rounds)} attempted={attempted} failed={failed} "
            f"failed_share={(failed + lost) / attempted:.4f}",
            "round walls (s): " + " ".join(f"{r.wall_s:.3f}"
                                           for r in rounds),
            f"turnaround tail = p{tail_q:g} of {min(counts)} samples "
            f"({len(counts)} sample set(s))"]
    deadlined = sum(r.slo_deadlined for r in rounds)
    if deadlined:
        missed = sum(r.slo_missed for r in rounds)
        info.append(f"slo_miss_rate={missed / deadlined:.4f} "
                    f"({missed} of {deadlined} deadlined jobs)")
    if lost:
        # known defect: FleetScheduler._recover_crashed never collects the
        # results the crashed array retired before the crash
        info.append(f"{lost} jobs COMPLETED in the queue but missing from "
                    f"run_cycle() output (lost when their array crashed); "
                    f"their queued results pass every check, so they count "
                    f"in failed_share but not in failed")
    if not args.trace:
        return end_to_end, END_TO_END, errors, attempted, failed, info
    traced = [r.layers for r in rounds if r.layers is not None]
    per_layer = {name: sum(t[name] for t in traced) / len(traced)
                 for name in layers.PER_LAYER if name != "tracing_overhead"}
    per_layer["tracing_overhead"] = (median(traced_walls)
                                     / median(untraced_walls) - 1.0)
    info.append(f"per-layer values are means over {len(traced)} traced "
                f"rounds")
    return per_layer, layers.PER_LAYER, errors, attempted, failed, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import json
    import threading

    from repro.runtime import SimulatedCrash

    default_hook = threading.excepthook

    def quiet_crash(hook_args):
        # tune-durable kills a worker thread on purpose
        if not issubclass(hook_args.exc_type, SimulatedCrash):
            default_hook(hook_args)

    threading.excepthook = quiet_crash
    rounds, setups, traced_walls, untraced_walls, tracer = run_rounds(args)
    metrics, units, errors, attempted, failed, info = summarize(
        args, rounds, setups, traced_walls, untraced_walls)
    if tracer is not None:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{args.workload}-seed{args.seed}")
        tracer.write(stem + ".trace.json", stem + ".layers.txt")
        info.append(f"wrote {stem}.trace.json and {stem}.layers.txt")
    for line in info:
        print(f"# {line}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
