"""Benchmark entry point: one workload, one seed, one closed-loop caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload transfer-1d --seed 0 --seconds 40 --trace 0

The run repeats the workload's pipeline until ``--seconds`` have passed
(at least once), checks every output, and prints the metrics with their
units, ending with one JSON line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics plus the tracing overhead. A JSON record
of the run (environment, input fingerprint, every sample) and, when
traced, the spans are written under ``bench/results/``.

The program under test is imported from this checkout's ``src/``; the
process pins BLAS to one thread and drops ``AGGMOGP_THREADS`` before
numpy loads. The exit code is 1 when an output check failed and 2 when
the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Mean HostClock tick on the host the benchmark was defined on (2-CPU
# Xeon, one BLAS thread); see README.md.
REFERENCE_TICK_S = 0.04

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "refine_s": "s",
    "grid_s": "s",
    "peak_rss_mib": "MiB",
}


def _import_program():
    """Pin threads, then import the program; both must precede numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("AGGMOGP_THREADS", None)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import aggmogp
    except ImportError as e:
        print(f"cannot import the program from {src}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(aggmogp.__file__).startswith(src + os.sep):
        print(f"aggmogp was imported from {aggmogp.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    # Without a .git of its own the checkout is not a repository; git
    # would otherwise search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, clock) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "aggmogp_threads": os.environ.get("AGGMOGP_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "host.calib_s": clock.calibrate(),
    }


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps):
    """Scaled metrics, raw step means and the run's mean host tick.

    The host switches between speeds for seconds at a time, so step times
    and ticks are both mixtures of those speeds. The ratio of their means
    compares like with like, where a median jumps between the modes. Each
    step's mean is scaled by ``REFERENCE_TICK_S`` over the mean tick, so
    that a host running slower or faster for a whole run does not read as
    a change in the program.
    """
    raw = {
        "setup_s": _mean([t for r in reps for t in r.setup_s]),
        "fit_s": _mean([r.fit_s for r in reps]),
        "refine_s": _mean([r.refine_s for r in reps]),
        "grid_s": _mean([r.grid_s for r in reps]),
    }
    tick = statistics.fmean(t for r in reps for t in r.ticks)
    scaled = {
        k: None if v is None else v * REFERENCE_TICK_S / tick for k, v in raw.items()
    }
    scaled["peak_rss_mib"] = peak_rss_mib()
    return scaled, raw, tick


def _run(work, world, seed, seconds, traced, clock):
    from bench import tracing, workloads

    ledger = workloads.Ledger()
    tracer = tracing.Tracer() if traced else None
    plain, layered = [], []
    start = last = time.perf_counter()
    while True:
        # Traced runs alternate: even repetitions plain, odd ones traced.
        if tracer is not None and len(plain) > len(layered):
            tracer.run_id = f"{work.name}:{seed}:{len(layered)}"
            first = len(tracer.spans)
            counts = tracer.counts.copy()
            ledger.span = tracer.span
            with tracing.instrumented(tracer):
                rep = workloads.run_rep(work, world, seed, ledger, clock)
            ledger.span = None
            layered.append((rep, tracer.spans[first:], tracer.counts - counts))
        else:
            plain.append(workloads.run_rep(work, world, seed, ledger, clock))
        now = time.perf_counter()
        # Stop before a repetition that would end past the deadline.
        done = now - start + (now - last) > seconds
        last = now
        if done and (tracer is None or layered) or ledger.failed:
            break
    return ledger, tracer, plain, layered


def main(argv=None) -> int:
    from_cli = argparse.ArgumentParser(description="aggmogp benchmark")
    from_cli.add_argument("--workload", required=True)
    from_cli.add_argument("--seed", type=int, default=0)
    from_cli.add_argument("--seconds", type=float, default=40.0)
    from_cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = from_cli.parse_args(argv)

    _import_program()
    from bench import workloads, worlds

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of"
            f" {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    from bench.host import HostClock

    work = workloads.WORKLOADS[args.workload]
    clock = HostClock()
    env = environment(args.seed, clock)
    world = work.make_world(args.seed)
    fingerprint = worlds.fingerprint(world)
    print(f"workload {work.name}  seed {args.seed}  inputs {fingerprint}")
    print(
        f"host.calib_s {env['host.calib_s']:.4f}  blas threads 1"
        f"  AGGMOGP_THREADS {env['aggmogp_threads']}  commit {env['commit']}"
    )

    ledger, tracer, plain, layered = _run(
        work, world, args.seed, args.seconds, bool(args.trace), clock
    )
    raw = tick = None
    if args.trace and not ledger.failed:
        from bench import layers

        metrics = layers.metrics(plain, layered, env["host.calib_s"])
        units = {k: u for k, (_, u) in metrics.items()}
        values = {k: v for k, (v, _) in metrics.items()}
    elif args.trace:
        units, values = {}, {}
    else:
        values, raw, tick = end_to_end(plain)
        units = END_TO_END
        print(f"host tick mean {tick:.6f} s against reference {REFERENCE_TICK_S} s")
        for name, value in raw.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  raw {name:28s} {shown:>14s} s")
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units[name]}")
    print(f"  {'failed_frac':32s} {failed_frac:>14.6g} 1"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")

    out_dir = os.path.join(ROOT, "bench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{work.name}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": work.name,
        "fingerprint": fingerprint,
        "environment": env,
        "seconds": args.seconds,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "raw": raw,
        "host_tick_s": tick,
        "reps": [vars(r) for r in plain] + [vars(r) for r, _, _ in layered],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    correct = ledger.failed == 0 and all(v is not None for v in values.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
